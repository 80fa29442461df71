"""Network building blocks: attention pooling, Kronecker fusion and its
concat and factorized-bilinear ablations, graph convolution, sigmoid
hash encoders, stochastic binary neurons, the Gaussian semantic decoder
and the encoders' regression onto the sampled codes.

All layer functions are pure: output = f(params, inputs, noise), where
``params`` is one group of weights read by attribute (``params.w_theta``).
All of them act on a whole batch at once: feature maps are [N, L, C], every
later activation is an [N, d] matrix with one row per item, and the
log-likelihoods sum over all rows.

The sampler and the three loss layers (log q, the decoder, the code
regression) take only [K, N, M] noise or bits, K >= 1 Monte-Carlo draws
against the trunk's [N, M] arrays.  Each draw gets its own value and input
gradient; their VJPs take one scalar ``g`` for every draw, as the
Monte-Carlo mean weighs them alike.

Each layer reads float64 arrays as its callers hand them over (outside
input is converted once, by ``model.encode_features``) and returns one
``autodiff.Node``: its value, computed with numpy, and its ``vjp``, the
layer's own vector-Jacobian product.  ``vjp`` takes the gradient of the
layer's output and returns one gradient per differentiable input; a layer
with weights also takes its group's gradient views (``grads.w_theta``) and
adds its weight gradients into them.
"""

import math

import numpy as np

from .autodiff import Node

# probability clamp applied before logs; straight-through gradients are
# zeroed in the clamped region
PROB_EPS = 1e-7

LOG_2PI = math.log(2.0 * math.pi)


def relu(z):
    # fmax maps NaN to 0 as the comparison z > 0 does, and adding +0.0 turns
    # -0.0 into +0.0; no mask, no branch
    out = np.fmax(z, 0.0)
    out += 0.0
    return out


def _sigmoid_into(z, out):
    """The logistic function of ``z`` written to ``out``, which may be ``z``.

    exp(min(z, 0)) / (1 + exp(-|z|)) is 1 / (1 + exp(-z)) where z >= 0 and
    exp(z) / (1 + exp(z)) elsewhere, the same IEEE operations per element
    as the two-branch form, without masks; exp never sees a positive
    argument, so nothing overflows.
    """
    den = np.copysign(z, -1.0)
    np.exp(den, out=den)
    den += 1.0
    np.minimum(z, 0.0, out=out)
    np.exp(out, out=out)
    return np.divide(out, den, out=out)


def sigmoid(z):
    return _sigmoid_into(z, np.empty_like(z))


# each activation's VJP, written in terms of its output y
_ACTIVATION_VJPS = {
    relu: lambda g, y: g * (y > 0),
    sigmoid: lambda g, y: g * y * (1.0 - y),
}


def softmax_rows(x):
    """Softmax along each row of a matrix (max-stabilized per row)."""
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def draw_sum(x):
    """``x`` summed over its leading axis in index order, x[0] + x[1] + ...,
    the order in which K separate calls would add into one buffer."""
    return sum(x[1:], x[0])


def _check_rows(h, w, what):
    """``h`` must be an [N, d] matrix whose width matches the rows of ``w``."""
    if h.ndim != 2 or h.shape[1] != w.shape[0]:
        raise ValueError(f"{what} input must be [N, {w.shape[0]}], got {h.shape}")


def _check_draws(draws, shape, what):
    """``draws`` must be [K, N, M]: K draws over the trunk's [N, M] ``shape``."""
    if draws.ndim != 3 or draws.shape[1:] != shape:
        raise ValueError(f"{what} must be [K, N, M] with [N, M] = {list(shape)}, "
                         f"got {list(draws.shape)}")


def attention_pool(feats, params):
    """Pool [N, L, C] feature maps into [N, d_f] attended features.

    Each map's softmax scores over its L locations mix the rows; the
    pooled vectors are then projected and ReLU-activated.
    """
    if feats.ndim != 3 or feats.shape[1] == 0:
        raise ValueError(f"feature maps must be [N, L, C] with L >= 1, got {feats.shape}")
    n, length, channels = feats.shape
    sw, sb = params.score_weights, params.score_bias
    pw, pb = params.proj_weights, params.proj_bias
    if channels != sw.shape[0]:
        raise ValueError(
            f"feature channels {channels} do not match attention "
            f"parameters {sw.shape[0]}"
        )
    rows = feats.reshape(-1, channels)
    # biases are added in place: at N = 20,000 a fresh [N, d] temporary costs
    # more than the addition itself
    logits = rows @ sw
    logits += sb
    weights = softmax_rows(logits.reshape(n, length))
    pooled = np.einsum("nl,nlc->nc", weights, feats)
    z = pooled @ pw
    z += pb
    out = relu(z)

    def vjp(g, grads):
        # the feature maps are data: only the weights get gradients
        gz = g * (out > 0)
        g_weights = np.einsum("nc,nlc->nl", gz @ pw.T, feats)
        g_logits = weights * (g_weights - (g_weights * weights).sum(axis=1, keepdims=True))
        g_logits = g_logits.reshape(-1, 1)
        grads.score_weights += rows.T @ g_logits
        grads.score_bias += g_logits.sum(axis=0)
        grads.proj_weights += pooled.T @ gz
        grads.proj_bias += gz.sum(axis=0)
        return ()

    return Node(out, vjp)


def _check_fusion_inputs(h_sk, h_im, d_f):
    if h_sk.ndim != 2 or h_sk.shape[1] != d_f or h_im.shape != h_sk.shape:
        raise ValueError(
            f"fusion inputs must both be [N, d_f] with rows of length {d_f}, "
            f"got {h_sk.shape} and {h_im.shape}"
        )


def fuse(h_sk, h_im, params):
    """ReLU of the row-wise Kronecker product of the transformed modality
    features: [N, d_f] x [N, d_f] -> [N, d_f^2]."""
    w_sk, w_im = params.w_sk, params.w_im
    _check_fusion_inputs(h_sk, h_im, w_sk.shape[0])
    a = h_sk @ w_sk
    b = h_im @ w_im
    (n, p), q = a.shape, b.shape[1]
    out = relu((a[:, :, None] * b[:, None, :]).reshape(n, p * q))

    def vjp(g, grads):
        gm = (g * (out > 0)).reshape(n, p, q)
        g_a = np.einsum("npq,nq->np", gm, b)
        g_b = np.einsum("np,npq->nq", a, gm)
        grads.w_sk += h_sk.T @ g_a
        grads.w_im += h_im.T @ g_b
        return (g_a @ w_sk.T, g_b @ w_im.T)

    return Node(out, vjp)


def fuse_concat(h_sk, h_im, params):
    """The concatenation ablation: ReLU([h_sk, h_im] W_proj),
    [N, d_f] x [N, d_f] -> [N, d_f^2]."""
    w_proj = params.w_proj
    d_f = w_proj.shape[0] // 2
    _check_fusion_inputs(h_sk, h_im, d_f)
    raw = np.concatenate([h_sk, h_im], axis=1)
    out = relu(raw @ w_proj)

    def vjp(g, grads):
        gz = g * (out > 0)
        g_raw = gz @ w_proj.T
        grads.w_proj += raw.T @ gz
        return (g_raw[:, :d_f], g_raw[:, d_f:])

    return Node(out, vjp)


def fuse_mfb(h_sk, h_im, params):
    """The factorized-bilinear ablation: the factor products
    (h_sk U) * (h_im V) sum-pooled over consecutive groups of k / d_f
    columns, then ReLU(. W_proj): [N, d_f] x [N, d_f] -> [N, d_f^2]."""
    u, v, w_proj = params.u, params.v, params.w_proj
    d_f, k = u.shape
    _check_fusion_inputs(h_sk, h_im, d_f)
    a = h_sk @ u
    b = h_im @ v
    raw = (a * b).reshape(len(a), d_f, k // d_f).sum(axis=2)
    out = relu(raw @ w_proj)

    def vjp(g, grads):
        gz = g * (out > 0)
        g_prod = np.repeat(gz @ w_proj.T, k // d_f, axis=1)
        g_a, g_b = g_prod * b, g_prod * a
        grads.u += h_sk.T @ g_a
        grads.v += h_im.T @ g_b
        grads.w_proj += raw.T @ gz
        return (g_a @ u.T, g_b @ v.T)

    return Node(out, vjp)


def graph_conv(h, a_norm, layer, act):
    """One propagation step: act(A_norm H W), W = layer.w_theta, with
    ``act`` layers.relu or layers.sigmoid.

    ``a_norm`` is the batch's [N, N] propagation matrix from
    ``pipeline.build_adjacency``, or the identity for a layer with no graph
    coupling; it is a plain array treated as a constant, and no gradient
    flows through it.
    """
    if act not in _ACTIVATION_VJPS:
        raise ValueError(f"unknown activation {act!r}; expected layers.relu or layers.sigmoid")
    act_vjp = _ACTIVATION_VJPS[act]
    w = layer.w_theta
    _check_rows(h, w, "graph_conv")
    if a_norm.shape != (h.shape[0], h.shape[0]):
        raise ValueError(
            f"adjacency size {a_norm.shape} does not match batch {h.shape[0]}"
        )
    ah = a_norm @ h
    out = act(ah @ w)

    def vjp(g, grads):
        gz = act_vjp(g, out)
        grads.w_theta += ah.T @ gz
        return (a_norm.T @ (gz @ w.T),)

    return Node(out, vjp)


def encode_soft(h, enc):
    """Sigmoid code probabilities [N, M] from attended features [N, d_f]."""
    w = enc.w
    _check_rows(h, w, "hash encoder")
    z = h @ w
    z += enc.b
    out = _sigmoid_into(z, z)

    def vjp(g, grads):
        gz = g * out * (1.0 - out)
        grads.w += h.T @ gz
        grads.b += gz.sum(axis=0)
        return (gz @ w.T,)

    return Node(out, vjp)


def stochastic_neurons(b, eps):
    """Threshold code probabilities against uniform noise: bit = [b >= eps].

    ``eps`` is [K, N, M]: K draws of noise for the [N, M] ``b``.
    Backward applies the straight-through rule (identity), zeroed where
    the probability sits in the clamp region outside [PROB_EPS, 1-PROB_EPS];
    it returns one gradient of ``b`` per draw.  Probabilities rounded to
    exactly 0 or 1 by a saturated sigmoid are treated as clamped boundary
    values; anything beyond [0, 1] is a domain error.
    """
    _check_draws(eps, b.shape, "noise")
    if np.any(b < 0.0) or np.any(b > 1.0):
        raise ValueError("code probabilities must lie in (0, 1)")
    hard = (b >= eps).astype(np.float64)
    mask = (b > PROB_EPS) & (b < 1.0 - PROB_EPS)

    def vjp(g):
        return (g * mask,)

    return Node(hard, vjp)


def log_q(b, b_tilde):
    """Log-probability of sampled bits under the factorized Bernoulli code.

    sum_m [ b~ log b + (1 - b~) log(1 - b) ], with b clamped away from
    {0, 1} before the logs; the gradient is zero where the clamp acted.
    The [K, N, M] bits give one value and one gradient of b per draw.
    """
    _check_draws(b_tilde, b.shape, "bits")
    if not np.all((b_tilde == 0.0) | (b_tilde == 1.0)):
        raise ValueError("sampled bits must be binary")
    bc = np.clip(b, PROB_EPS, 1.0 - PROB_EPS)
    value = (b_tilde * np.log(bc) + (1.0 - b_tilde) * np.log(1.0 - bc)).sum(axis=(-2, -1))
    mask = (b > PROB_EPS) & (b < 1.0 - PROB_EPS)

    def vjp(g):
        return ((g * b_tilde / bc - g * (1.0 - b_tilde) / (1.0 - bc)) * mask,)

    return Node(value, vjp)


def log_p_gaussian(s, bits, dec):
    """Diagonal-Gaussian log-likelihood of semantics given sampled bits.

    -1/2 sum_j [ log(2 pi) + logvar_j + (s_j - mu_j)^2 / exp(logvar_j) ],
    summed over the N rows of the semantics [N, d_s], once for each draw of
    the [K, N, M] bits.
    """
    w_mu, b_mu, w_lv, b_lv = dec.w_mu, dec.b_mu, dec.w_logvar, dec.b_logvar
    _check_draws(bits, (len(s), w_mu.shape[0]), "decoder input")
    mu = bits @ w_mu + b_mu
    logvar = bits @ w_lv + b_lv
    if s.shape != mu.shape[1:]:
        raise ValueError(f"semantic shape {s.shape} does not match decoder output {mu.shape}")
    diff = s - mu
    resid = diff * diff
    # overflow becomes inf and surfaces through the non-finite loss guard
    with np.errstate(over="ignore"):
        inv_var = np.exp(-logvar)
    value = ((resid * inv_var + logvar) + LOG_2PI).sum(axis=(-2, -1)) * -0.5

    def vjp(g, grads):
        g_mu = g * inv_var * diff
        g_lv = 0.5 * (g * resid * inv_var - g)
        bits_t = bits.swapaxes(-1, -2)
        grads.w_mu += draw_sum(bits_t @ g_mu)
        grads.b_mu += draw_sum(g_mu.sum(axis=1))
        grads.w_logvar += draw_sum(bits_t @ g_lv)
        grads.b_logvar += draw_sum(g_lv.sum(axis=1))
        return (g_mu @ w_mu.T + g_lv @ w_lv.T,)

    return Node(value, vjp)


def code_regression(f_out, g_out, b_tilde, m_bits):
    """The encoders' L2 regression onto the sampled codes:
    (|f - b~|^2 + |g - b~|^2) / (2M), summed over the batch, once for each
    draw of the [K, N, M] codes ``b_tilde``.  Its VJP returns the per-draw
    gradients of f, g and then b~ twice, once for each difference it enters.
    """
    for out in (f_out, g_out):
        _check_draws(b_tilde, out.shape, "codes")
    d_f = f_out - b_tilde
    d_g = g_out - b_tilde
    scale = 1.0 / (2.0 * m_bits)
    value = ((d_f * d_f).sum(axis=(-2, -1)) + (d_g * d_g).sum(axis=(-2, -1))) * scale

    def vjp(g):
        g_f = 2.0 * g * scale * d_f
        g_g = 2.0 * g * scale * d_g
        return (g_f, g_g, -g_f, -g_g)

    return Node(value, vjp)
