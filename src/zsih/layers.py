"""Network building blocks: attention pooling, Kronecker fusion, graph
convolution, sigmoid hash encoders, stochastic binary neurons and the
Gaussian semantic decoder.

All layer functions are pure: output = f(params, inputs, noise), where
``params`` is one group of weights read by attribute (``params.w_theta``).
All of them act on a whole batch at once: feature maps are [N, L, C], every
later activation is an [N, d] matrix with one row per item, and the
log-likelihoods sum over all rows.
"""

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Node

# probability clamp applied before logs; straight-through gradients are
# zeroed in the clamped region
PROB_EPS = 1e-7

LOG_2PI = math.log(2.0 * math.pi)


def attention_pool(feats, params):
    """Pool [N, L, C] feature maps into [N, d_f] attended features.

    Each map's softmax scores over its L locations mix the rows; the
    pooled vectors are then projected and ReLU-activated.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 3 or feats.shape[1] == 0:
        raise ValueError(f"feature maps must be [N, L, C] with L >= 1, got {feats.shape}")
    n, length, channels = feats.shape
    if channels != params.score_weights.shape[0]:
        raise ValueError(
            f"feature channels {channels} do not match attention "
            f"parameters {params.score_weights.shape[0]}"
        )
    maps = ad.constant(feats)
    logits = ad.affine(maps, params.score_weights, params.score_bias)
    weights = ad.softmax_rows(ad.reshape(logits, (n, length)))
    pooled = ad.pool_rows(weights, maps)
    return ad.relu(ad.affine(pooled, params.proj_weights, params.proj_bias))


def fuse(h_sk, h_im, params):
    """ReLU of the row-wise Kronecker product of the transformed modality
    features: [N, d_f] x [N, d_f] -> [N, d_f^2]."""
    d_f = params.w_sk.shape[0]
    if h_sk.ndim != 2 or h_sk.shape[1] != d_f or h_im.shape != h_sk.shape:
        raise ValueError(
            f"fusion inputs must both be [N, d_f] with rows of length {d_f}, "
            f"got {h_sk.shape} and {h_im.shape}"
        )
    return ad.relu(ad.kron_rows(ad.matmul(h_sk, params.w_sk),
                                ad.matmul(h_im, params.w_im)))


def normalized_adjacency(adj):
    """Symmetrically normalize a self-connected adjacency matrix.

    Returns D^{-1/2} A D^{-1/2} with D = diag(A 1).  The input must be
    square, symmetric, unit-diagonal, with entries in [0, 1] and strictly
    positive row sums.
    """
    adj = np.asarray(adj, dtype=np.float64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    if np.any(adj < 0.0) or np.any(adj > 1.0):
        raise ValueError("adjacency entries must lie in [0, 1]")
    if not np.all(np.diag(adj) == 1.0):
        raise ValueError("adjacency diagonal must be exactly 1 (self-connected)")
    deg = adj.sum(axis=1)
    if np.any(deg <= 0.0):
        raise ValueError("adjacency has a zero row sum")
    d_isqrt = 1.0 / np.sqrt(deg)
    return adj * d_isqrt[:, None] * d_isqrt[None, :]


def _check_activation(act):
    if act is not ad.relu and act is not ad.sigmoid:
        raise ValueError(f"unknown activation {act!r}; expected ad.relu or ad.sigmoid")


def graph_conv(h, adj, layer, act):
    """One propagation step: act(D^{-1/2} A D^{-1/2} H W), W = layer.w_theta,
    with ``act`` ad.relu or ad.sigmoid.

    ``adj`` is a plain array treated as a constant; no gradient flows
    through it.
    """
    _check_activation(act)
    if h.ndim != 2:
        raise ValueError(f"graph_conv input must be [N, d_in], got {h.shape}")
    a_norm = normalized_adjacency(adj)
    if a_norm.shape[0] != h.shape[0]:
        raise ValueError(
            f"adjacency size {a_norm.shape[0]} does not match batch {h.shape[0]}"
        )
    return act(ad.matmul(ad.matmul(ad.constant(a_norm), h), layer.w_theta))


def dense(h, layer, act):
    """The same transform as graph_conv without any graph coupling."""
    _check_activation(act)
    return act(ad.matmul(h, layer.w_theta))


def encode_soft(h, enc):
    """Sigmoid code probabilities [N, M] from attended features [N, d_f]."""
    return ad.sigmoid(ad.affine(h, enc.w, enc.b))


def stochastic_neurons(b, eps):
    """Threshold code probabilities against uniform noise: bit = [b >= eps].

    Backward applies the straight-through rule (identity), zeroed where
    the probability sits in the clamp region outside [PROB_EPS, 1-PROB_EPS].
    Probabilities rounded to exactly 0 or 1 by a saturated sigmoid are
    treated as clamped boundary values; anything beyond [0, 1] is a
    domain error.
    """
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != b.shape:
        raise ValueError(f"eps shape {eps.shape} does not match code shape {b.shape}")
    if np.any(b.data < 0.0) or np.any(b.data > 1.0):
        raise ValueError("code probabilities must lie in (0, 1)")
    hard = (b.data >= eps).astype(np.float64)
    mask = (b.data > PROB_EPS) & (b.data < 1.0 - PROB_EPS)

    def bwd(g):
        return (g * mask,)

    return Node(hard, requires_grad=b.requires_grad, _parents=(b,), _bwd=bwd)


def log_q(b, b_tilde):
    """Log-probability of sampled bits under the factorized Bernoulli code.

    sum_m [ b~ log b + (1 - b~) log(1 - b) ], with b clamped away from
    {0, 1} before the logs.
    """
    b_tilde = np.asarray(b_tilde, dtype=np.float64)
    if b_tilde.shape != b.shape:
        raise ValueError(f"bit shape {b_tilde.shape} does not match code shape {b.shape}")
    if not np.all((b_tilde == 0.0) | (b_tilde == 1.0)):
        raise ValueError("sampled bits must be binary")
    bc = ad.clip(b, PROB_EPS, 1.0 - PROB_EPS)
    on = ad.mul(ad.constant(b_tilde), ad.log(bc))
    off = ad.mul(ad.constant(1.0 - b_tilde), ad.log(ad.sub(1.0, bc)))
    return ad.reduce_sum(ad.add(on, off))


def log_p_gaussian(s, b_tilde, dec):
    """Diagonal-Gaussian log-likelihood of semantics given sampled bits.

    -1/2 sum_j [ log(2 pi) + logvar_j + (s_j - mu_j)^2 / exp(logvar_j) ],
    summed over the rows of the [N, M] bits and [N, d_s] semantics.
    """
    s = np.asarray(s, dtype=np.float64)
    mu = ad.affine(b_tilde, dec.w_mu, dec.b_mu)
    logvar = ad.affine(b_tilde, dec.w_logvar, dec.b_logvar)
    if s.shape != mu.shape:
        raise ValueError(f"semantic shape {s.shape} does not match decoder output {mu.shape}")
    resid = ad.square(ad.sub(ad.constant(s), mu))
    scaled = ad.mul(resid, ad.exp(ad.mul(logvar, -1.0)))
    total = ad.reduce_sum(ad.add(ad.add(scaled, logvar), LOG_2PI))
    return ad.mul(total, -0.5)
