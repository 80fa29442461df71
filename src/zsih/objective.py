"""Training objective: code entropy + semantic reconstruction + encoder
regression, its Monte-Carlo gradient, and the Adam update."""

from dataclasses import dataclass

import numpy as np

from . import layers
from .autodiff import Node
from .model import forward_multimodal


@dataclass
class LossBreakdown:
    """Per-batch loss terms in nats / squared units.

    total == entropy_term + decode_term + code_reg_term up to rounding.
    """

    total: float
    entropy_term: float
    decode_term: float
    code_reg_term: float


@dataclass
class AdamState:
    """Adam's step count and its two moments, flat like ``params.theta``."""

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float
    beta1: float
    beta2: float
    eps_hat: float

    @classmethod
    def init(cls, params, lr=1e-3, beta1=0.9, beta2=0.999, eps_hat=1e-8):
        return cls(
            step=0, m=np.zeros_like(params.theta), v=np.zeros_like(params.theta),
            lr=lr, beta1=beta1, beta2=beta2, eps_hat=eps_hat,
        )


def code_regression(f_out, g_out, b_tilde, m_bits):
    """The encoders' L2 regression onto the sampled codes as one node:
    (|f - b~|^2 + |g - b~|^2) / (2M), summed over the batch."""
    for out in (f_out, g_out):
        if out.shape != b_tilde.shape:
            raise ValueError(f"encoder output shape {out.shape} does not "
                             f"match code shape {b_tilde.shape}")
    d_f = f_out.data - b_tilde.data
    d_g = g_out.data - b_tilde.data
    scale = 1.0 / (2.0 * m_bits)
    value = ((d_f * d_f).sum() + (d_g * d_g).sum()) * scale

    def bwd(g):
        g_f = 2.0 * g * scale * d_f
        g_g = 2.0 * g * scale * d_g
        return (g_f, g_g, -g_f, -g_g)

    # b~ enters both differences; the engine sums its two gradients
    return Node(value, _parents=(f_out, g_out, b_tilde, b_tilde), _bwd=bwd)


def loss_terms(b, b_tilde, bits, f_out, g_out, semantics, dec, m_bits):
    """One draw's three loss nodes: log q(bits), log p(s | b~) and the
    code regression.

    ``bits`` enters the entropy term as a constant (the sampled values);
    ``b_tilde`` is the graph node carrying the straight-through path into
    the decoder and the L2 regressions.
    """
    return (layers.log_q(b, bits), layers.log_p_gaussian(semantics, b_tilde, dec),
            code_regression(f_out, g_out, b_tilde, m_bits))


def mc_total(draws):
    """The loss node over K draws of ``loss_terms``: each term averaged
    over the draws, the decode term being -log p, and the three summed.

    Returns (loss node, LossBreakdown).
    """
    scale = 1.0 / len(draws)

    def mc_mean(values):
        # summed in draw order, then scaled; x * 1.0 == x, so one draw is exact
        return sum(values[1:], values[0]) * scale

    entropy = mc_mean([log_q.item() for log_q, _, _ in draws])
    decode = mc_mean([-log_p.item() for _, log_p, _ in draws])
    code_reg = mc_mean([reg.item() for _, _, reg in draws])
    total = entropy + decode + code_reg

    def bwd(g):
        g_k = g * scale
        return (g_k, -g_k, g_k) * len(draws)

    node = Node(total, _parents=tuple(term for draw in draws for term in draw), _bwd=bwd)
    return node, LossBreakdown(total=total, entropy_term=entropy,
                               decode_term=decode, code_reg_term=code_reg)


def batch_loss(batch, params, adj, eps_draws):
    """Total loss over a category-coherent batch: one trunk pass, then one
    stochastic draw set per Monte-Carlo sample.

    ``eps_draws`` is [N, M] for a single draw or [K, N, M] for K draws
    averaged.

    Returns (loss node, LossBreakdown).
    """
    n = len(batch)
    if n < 2:
        raise ValueError(f"batch size must be at least 2, got {n}")
    eps_draws = np.asarray(eps_draws, dtype=np.float64)
    if eps_draws.ndim == 2:
        eps_draws = eps_draws[None]

    b, f_out, g_out = forward_multimodal(batch, params, adj)
    draws = []
    for eps in eps_draws:
        b_tilde = layers.stochastic_neurons(b, eps)
        draws.append(loss_terms(b, b_tilde, b_tilde.data, f_out, g_out,
                                batch.semantics, params.dec, params.code_bits))
    return mc_total(draws)


def estimate_gradients(loss, params):
    """Backward pass over the recorded graph; returns a copy of the flat
    gradient, laid out like ``params.theta``.

    Deterministic given (params, batch, eps): the graph is fixed once the
    draws are fixed.
    """
    params.grad[...] = 0.0
    loss.backward()
    return params.grad.copy()


def adam_step(params, grad, state):
    """Standard Adam update with bias correction over the flat buffers;
    mutates ``params.theta``, and so every weight, in place."""
    if not np.all(np.isfinite(grad)):
        bad = np.flatnonzero(~np.isfinite(grad))[0]
        raise FloatingPointError(
            f"non-finite gradient for parameter {params.name_at(bad)!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * (grad * grad)
    # in place over two buffers: four theta-sized temporaries at once were
    # enough for glibc to trim and regrow the heap on every step
    step, denom = m / bc1, v / bc2
    step *= state.lr
    np.sqrt(denom, out=denom)
    denom += state.eps_hat
    params.theta -= np.divide(step, denom, out=step)
