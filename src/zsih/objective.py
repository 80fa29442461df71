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
    """Adam's step count and its two moments, flat like ``params.theta``;
    the learning rate, betas and eps_hat are read from the config."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def init(cls, params):
        """Step 0 and zero moments over ``params``."""
        return cls(step=0, m=np.zeros_like(params.theta), v=np.zeros_like(params.theta))


# what batch_loss keeps for the reverse pass: the trunk's layer nodes, then
# the sampler and the three loss nodes (log q, log p, code regression), each
# over all K draws at once
ForwardPass = namedtuple("ForwardPass", "trunk sampler log_q log_p reg")


def code_regression(f_out, g_out, b_tilde, m_bits):
    """The encoders' L2 regression onto the sampled codes as one node:
    (|f - b~|^2 + |g - b~|^2) / (2M), summed over the batch, once for each
    draw of [K, N, M] codes ``b_tilde``.

    Its VJP returns the per-draw gradients of f, g and then b~ twice, once
    for each difference it enters; ``estimate_gradients`` sums the two.
    """
    for out in (f_out, g_out):
        if out.shape != b_tilde.shape[-2:]:
            raise ValueError(f"encoder output shape {out.shape} does not "
                             f"match code shape {b_tilde.shape}")
    d_f = f_out - b_tilde
    d_g = g_out - b_tilde
    scale = 1.0 / (2.0 * m_bits)
    value = ((d_f * d_f).sum(axis=(-2, -1)) + (d_g * d_g).sum(axis=(-2, -1))) * scale

    def vjp(g):
        g_f = 2.0 * g * scale * d_f
        g_g = 2.0 * g * scale * d_g
        return (g_f, g_g, -g_f, -g_g)

    return Node(value, vjp)


def batch_loss(batch, params, adj, eps_draws):
    """Total loss over a category-coherent batch: one trunk pass, then the
    sampler and the loss over all Monte-Carlo draws at once.

    ``eps_draws`` is the [K, N, M] uniform noise of K draws, averaged.  Each
    term is its per-draw values added in draw order, then scaled by 1/K;
    the decode term is -log p, and the total sums the three.

    Returns (ForwardPass, LossBreakdown).
    """
    n = len(batch)
    if n < 2:
        raise ValueError(f"batch size must be at least 2, got {n}")

    trunk = forward_multimodal(batch, params, adj)
    b = trunk.b.data
    sampler = layers.stochastic_neurons(b, eps_draws)
    bits = sampler.data
    log_q = layers.log_q(b, bits)
    log_p = layers.log_p_gaussian(batch.semantics, bits, params.dec)
    reg = code_regression(trunk.f_out.data, trunk.g_out.data, bits, params.code_bits)
    scale = 1.0 / len(bits)
    # x * 1.0 == x, so one draw is exact
    entropy, decode, code_reg = (float(layers.draw_sum(values) * scale)
                                 for values in (log_q.data, -log_p.data, reg.data))
    total = entropy + decode + code_reg
    return ForwardPass(trunk, sampler, log_q, log_p, reg), LossBreakdown(
        total=total, entropy_term=entropy, decode_term=decode, code_reg_term=code_reg)


def estimate_gradients(loss, params):
    """The reverse pass of ``batch_loss``: each layer's VJP once, in the
    reverse order of the forward pass, adding every weight's gradient into
    its view of ``params.grad``.  Returns a copy of the flat gradient, laid
    out like ``params.theta``.

    A value that feeds several layers or draws gets their gradients summed
    in one fixed order, so the result is deterministic given (params,
    batch, eps).
    """
    params.grad[...] = 0.0
    grads = params.grad_groups
    trunk = loss.trunk
    # every draw's three terms enter the total with weight 1/K, log p negated
    scale = 1.0 / len(loss.sampler.data)
    (g_b_q,) = loss.log_q.vjp(scale)
    (g_bits_p,) = loss.log_p.vjp(-scale, grads.dec)
    g_f, g_g, g_bits_f, g_bits_g = loss.reg.vjp(scale)
    # b~ feeds the decoder (its mu and logvar) and both regressions
    (g_b_s,) = loss.sampler.vjp((g_bits_p + g_bits_f) + g_bits_g)

    # b feeds each draw's log q and sampler, whose gradients are added as
    # log q1, sampler1, log q2, sampler2, ...: joined along the rows, each
    # draw's block holds its log q part, then its sampler part.  f and g
    # feed each draw's regression.
    pairs = np.concatenate((g_b_q, g_b_s), axis=1).reshape((-1,) + trunk.b.data.shape)
    (g_hidden,) = trunk.b.vjp(layers.draw_sum(pairs), grads.gcn2)
    (g_fused,) = trunk.hidden.vjp(g_hidden, grads.gcn1)
    g_sk_fused, g_im_fused = trunk.fused.vjp(g_fused, grads.fusion)
    (g_sk_enc,) = trunk.g_out.vjp(layers.draw_sum(g_g), grads.enc_sk)
    (g_im_enc,) = trunk.f_out.vjp(layers.draw_sum(g_f), grads.enc_im)
    # each attended feature feeds the fusion and its modality's encoder
    trunk.h_sk.vjp(g_sk_enc + g_sk_fused, grads.attn_sk)
    trunk.h_im.vjp(g_im_enc + g_im_fused, grads.attn_im)
    return params.grad.copy()


def adam_step(params, grad, state, config):
    """Standard Adam update with bias correction over the flat buffers, with
    the config's lr, betas and eps_hat; mutates ``params.theta``, and so
    every weight, in place."""
    if not np.all(np.isfinite(grad)):
        bad = np.flatnonzero(~np.isfinite(grad))[0]
        raise FloatingPointError(
            f"non-finite gradient for parameter {params.name_at(bad)!r}")
    state.step += 1
    t = state.step
    beta1, beta2 = config.beta1, config.beta2
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * (grad * grad)
    # in place over two buffers: four theta-sized temporaries at once were
    # enough for glibc to trim and regrow the heap on every step
    step, denom = m / bc1, v / bc2
    step *= config.lr
    np.sqrt(denom, out=denom)
    denom += config.eps_hat
    params.theta -= np.divide(step, denom, out=step)
