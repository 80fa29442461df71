"""Training objective: code entropy + semantic reconstruction + encoder
regression, its Monte-Carlo gradient, and the Adam update."""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers
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


def loss_terms(b, b_tilde, bits, f_out, g_out, semantics, dec, m_bits):
    """The three per-batch loss terms as graph nodes.

    ``bits`` enters the entropy term as a constant (the sampled values);
    ``b_tilde`` is the graph node carrying the straight-through path into
    the decoder and the L2 regressions.
    """
    entropy = layers.log_q(b, bits)
    decode = ad.mul(layers.log_p_gaussian(semantics, b_tilde, dec), -1.0)
    sq_f = ad.reduce_sum(ad.square(ad.sub(f_out, b_tilde)))
    sq_g = ad.reduce_sum(ad.square(ad.sub(g_out, b_tilde)))
    code_reg = ad.mul(ad.add(sq_f, sq_g), 1.0 / (2.0 * m_bits))
    return entropy, decode, code_reg


def batch_loss(batch, params, adj, eps_draws, code_offset=None, frozen_bits=None):
    """Total loss over a category-coherent batch, one stochastic draw set
    per Monte-Carlo sample.

    ``eps_draws`` is [N, M] for a single draw or [K, N, M] for K draws
    averaged.  ``code_offset``/``frozen_bits`` switch the sampler to its
    straight-through linearization (gradient checking only).

    Returns (loss node, LossBreakdown).
    """
    n = len(batch)
    if n < 2:
        raise ValueError(f"batch size must be at least 2, got {n}")
    eps_draws = np.asarray(eps_draws, dtype=np.float64)
    if eps_draws.ndim == 2:
        eps_draws = eps_draws[None]
        if code_offset is not None:
            code_offset = np.asarray(code_offset)[None]
            frozen_bits = np.asarray(frozen_bits)[None]
    k = eps_draws.shape[0]
    m_bits = params.code_bits

    ent_parts, dec_parts, reg_parts = [], [], []
    for draw in range(k):
        offset = None if code_offset is None else code_offset[draw]
        b, b_tilde, f_out, g_out = forward_multimodal(
            batch, params, adj, eps_draws[draw], code_offset=offset
        )
        bits = b_tilde.data if offset is None else frozen_bits[draw]
        entropy, decode, code_reg = loss_terms(
            b, b_tilde, bits, f_out, g_out, batch.semantics, params.dec, m_bits
        )
        ent_parts.append(entropy)
        dec_parts.append(decode)
        reg_parts.append(code_reg)

    def mc_mean(parts):
        node = parts[0]
        for p in parts[1:]:
            node = ad.add(node, p)
        return ad.mul(node, 1.0 / k) if k > 1 else node

    entropy = mc_mean(ent_parts)
    decode = mc_mean(dec_parts)
    code_reg = mc_mean(reg_parts)
    total = ad.add(ad.add(entropy, decode), code_reg)
    breakdown = LossBreakdown(
        total=total.item(),
        entropy_term=entropy.item(),
        decode_term=decode.item(),
        code_reg_term=code_reg.item(),
    )
    return total, breakdown


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
