"""Training objective: code entropy + semantic reconstruction + encoder
regression, its Monte-Carlo gradient by one explicit reverse pass over the
layers' own VJPs, and the Adam update."""

from collections import namedtuple
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
    def init(cls, params, config):
        """Zero moments over ``params``, with the config's lr, betas and
        eps_hat."""
        return cls(
            step=0, m=np.zeros_like(params.theta), v=np.zeros_like(params.theta),
            lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps_hat=config.eps_hat,
        )


# what batch_loss keeps for the reverse pass: the trunk's layer nodes, each
# draw's sampler node and its three loss nodes (log q, log p, code
# regression), and the node over all draws
ForwardPass = namedtuple("ForwardPass", "trunk samplers draws total")


def code_regression(f_out, g_out, b_tilde, m_bits):
    """The encoders' L2 regression onto the sampled codes as one node:
    (|f - b~|^2 + |g - b~|^2) / (2M), summed over the batch.

    Its VJP returns the gradients of f, g and then b~ twice, once for each
    difference it enters; ``estimate_gradients`` sums the two.
    """
    for out in (f_out, g_out):
        if out.shape != b_tilde.shape:
            raise ValueError(f"encoder output shape {out.shape} does not "
                             f"match code shape {b_tilde.shape}")
    d_f = f_out - b_tilde
    d_g = g_out - b_tilde
    scale = 1.0 / (2.0 * m_bits)
    value = float(((d_f * d_f).sum() + (d_g * d_g).sum()) * scale)

    def vjp(g):
        g_f = 2.0 * g * scale * d_f
        g_g = 2.0 * g * scale * d_g
        return (g_f, g_g, -g_f, -g_g)

    return Node(value, vjp)


def loss_terms(b, b_tilde, bits, f_out, g_out, semantics, dec, m_bits):
    """One draw's three loss nodes: log q(bits), log p(s | b~) and the
    code regression.

    ``bits`` enters the entropy term as sampled values; ``b_tilde`` feeds
    the decoder and the L2 regressions.  Training passes the sampled bits
    for both; a straight-through surrogate passes b + (bits - b) as
    ``b_tilde``.
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

    entropy = mc_mean([log_q.data for log_q, _, _ in draws])
    decode = mc_mean([-log_p.data for _, log_p, _ in draws])
    code_reg = mc_mean([reg.data for _, _, reg in draws])
    total = entropy + decode + code_reg

    def vjp(g):
        g_k = g * scale
        return (g_k, -g_k, g_k) * len(draws)

    return Node(total, vjp), LossBreakdown(total=total, entropy_term=entropy,
                                           decode_term=decode, code_reg_term=code_reg)


def batch_loss(batch, params, adj, eps_draws):
    """Total loss over a category-coherent batch: one trunk pass, then one
    stochastic draw set per Monte-Carlo sample.

    ``eps_draws`` is [N, M] for a single draw or [K, N, M] for K draws
    averaged.

    Returns (ForwardPass, LossBreakdown).
    """
    n = len(batch)
    if n < 2:
        raise ValueError(f"batch size must be at least 2, got {n}")
    eps_draws = np.asarray(eps_draws, dtype=np.float64)
    if eps_draws.ndim == 2:
        eps_draws = eps_draws[None]

    trunk = forward_multimodal(batch, params, adj)
    b = trunk.b.data
    samplers, draws = [], []
    for eps in eps_draws:
        sampler = layers.stochastic_neurons(b, eps)
        samplers.append(sampler)
        draws.append(loss_terms(b, sampler.data, sampler.data, trunk.f_out.data,
                                trunk.g_out.data, batch.semantics, params.dec,
                                params.code_bits))
    total, breakdown = mc_total(draws)
    return ForwardPass(trunk, samplers, draws, total), breakdown


def estimate_gradients(loss, params):
    """The reverse pass of ``batch_loss``: each layer's VJP once, in the
    reverse order of the forward pass, adding every weight's gradient into
    its view of ``params.grad``.  Returns a copy of the flat gradient, laid
    out like ``params.theta``.

    A value that feeds several layers gets their gradients summed in one
    fixed order, so the result is deterministic given (params, batch, eps).
    """
    params.grad[...] = 0.0
    grads = params.grad_groups
    trunk = loss.trunk
    term_grads = loss.total.vjp(1.0)
    b_parts, f_parts, g_parts = [], [], []
    for k, (sampler, (log_q, log_p, reg)) in enumerate(zip(loss.samplers, loss.draws)):
        g_log_q, g_log_p, g_reg = term_grads[3 * k:3 * k + 3]
        (g_b_q,) = log_q.vjp(g_log_q)
        (g_bits_p,) = log_p.vjp(g_log_p, grads.dec)
        g_f, g_g, g_bits_f, g_bits_g = reg.vjp(g_reg)
        # b~ feeds the decoder (its mu and logvar) and both regressions
        (g_b_s,) = sampler.vjp((g_bits_p + g_bits_f) + g_bits_g)
        b_parts += (g_b_q, g_b_s)
        f_parts.append(g_f)
        g_parts.append(g_g)

    # b feeds every draw's log q and sampler, f and g every draw's regression
    (g_hidden,) = trunk.b.vjp(sum(b_parts[1:], b_parts[0]), grads.gcn2)
    (g_fused,) = trunk.hidden.vjp(g_hidden, grads.gcn1)
    g_sk_fused, g_im_fused = trunk.fused.vjp(g_fused, grads.fusion)
    (g_sk_enc,) = trunk.g_out.vjp(sum(g_parts[1:], g_parts[0]), grads.enc_sk)
    (g_im_enc,) = trunk.f_out.vjp(sum(f_parts[1:], f_parts[0]), grads.enc_im)
    # each attended feature feeds the fusion and its modality's encoder
    trunk.h_sk.vjp(g_sk_enc + g_sk_fused, grads.attn_sk)
    trunk.h_im.vjp(g_im_enc + g_im_fused, grads.attn_im)
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
