"""Model assembly: the full trainable parameter set, multi-modal forward
pass and single-modality encoding used for out-of-sample data.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers

FUSION_MODES = ("kronecker", "concat", "mfb")

# expansion factor of the factorized-bilinear ablation before sum pooling
MFB_FACTOR = 4


@dataclass
class TripletBatch:
    """Category-coherent training tuples: item i's sketch and image share
    a label, and ``semantics[i]`` is that class's semantic vector."""

    sketch_feats: np.ndarray  # [N, L, C]
    image_feats: np.ndarray   # [N, L, C]
    semantics: np.ndarray     # [N, d_s]
    labels: np.ndarray        # [N]

    def __len__(self):
        return self.labels.shape[0]


class FusionParams:
    """Weights for one of the fusion variants.

    Every mode projects to a final d_f^2 feature so the trunk downstream
    is identical; only the raw fused representation differs.
    """

    def __init__(self, mode, **weights):
        if mode not in FUSION_MODES:
            raise ValueError(f"unknown fusion mode {mode!r}")
        self.mode = mode
        if mode == "kronecker":
            self.kron = layers.KroneckerFusion(weights["w_sk"], weights["w_im"])
        elif mode == "concat":
            self.w_proj = layers._param(weights["w_proj"])  # [2 d_f, d_f^2]
        else:
            self.u = layers._param(weights["u"])            # [d_f, d_f * MFB_FACTOR]
            self.v = layers._param(weights["v"])            # [d_f, d_f * MFB_FACTOR]
            self.w_proj = layers._param(weights["w_proj"])  # [d_f, d_f^2]

    def named(self):
        if self.mode == "kronecker":
            return {"fusion.w_sk": self.kron.w_sk, "fusion.w_im": self.kron.w_im}
        if self.mode == "concat":
            return {"fusion.w_proj": self.w_proj}
        return {"fusion.u": self.u, "fusion.v": self.v, "fusion.w_proj": self.w_proj}


def raw_fused(h_sk, h_im, fusion):
    """The mode-specific fused rows [N, *] before any re-projection."""
    if fusion.mode == "kronecker":
        return layers.fuse(h_sk, h_im, fusion.kron)
    if fusion.mode == "concat":
        return ad.concat_cols(h_sk, h_im)
    t = ad.mul(ad.matmul(h_sk, fusion.u), ad.matmul(h_im, fusion.v))
    n, d_f = h_sk.shape
    return ad.reduce_sum(ad.reshape(t, (n, d_f, MFB_FACTOR)), axis=2)


def fuse_modalities(h_sk, h_im, fusion):
    """Fused features [N, d_f^2] for any fusion mode."""
    raw = raw_fused(h_sk, h_im, fusion)
    if fusion.mode == "kronecker":
        return raw
    return ad.relu(ad.matmul(raw, fusion.w_proj))


class ModelParams:
    """All trainable weights plus the architecture switches they imply."""

    def __init__(self, attn_sk, attn_im, fusion, gcn1, gcn2, enc_im, enc_sk,
                 dec, use_gcn=True):
        self.attn_sk = attn_sk
        self.attn_im = attn_im
        self.fusion = fusion
        self.gcn1 = gcn1
        self.gcn2 = gcn2
        self.enc_im = enc_im  # f(.) for images
        self.enc_sk = enc_sk  # g(.) for sketches
        self.dec = dec
        self.use_gcn = bool(use_gcn)

    def named(self):
        """Ordered name -> Node mapping; the order fixes serialization."""
        out = {}
        for tag, attn in (("attn_sk", self.attn_sk), ("attn_im", self.attn_im)):
            out[f"{tag}.score_weights"] = attn.score_weights
            out[f"{tag}.score_bias"] = attn.score_bias
            out[f"{tag}.proj_weights"] = attn.proj_weights
            out[f"{tag}.proj_bias"] = attn.proj_bias
        out.update(self.fusion.named())
        out["gcn1.w_theta"] = self.gcn1.w_theta
        out["gcn2.w_theta"] = self.gcn2.w_theta
        out["enc_im.w"] = self.enc_im.w
        out["enc_im.b"] = self.enc_im.b
        out["enc_sk.w"] = self.enc_sk.w
        out["enc_sk.b"] = self.enc_sk.b
        out["dec.w_mu"] = self.dec.w_mu
        out["dec.b_mu"] = self.dec.b_mu
        out["dec.w_logvar"] = self.dec.w_logvar
        out["dec.b_logvar"] = self.dec.b_logvar
        return out

    def zero_grads(self):
        for node in self.named().values():
            node.zero_grad()

    @property
    def feat_channels(self):
        return self.attn_sk.score_weights.shape[0]

    @property
    def d_f(self):
        return self.attn_sk.proj_weights.shape[1]

    @property
    def code_bits(self):
        return self.gcn2.w_theta.shape[1]

    @property
    def semantic_dim(self):
        return self.dec.w_mu.shape[1]


def _glorot(rng, fan_in, fan_out, shape):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(config, feat_channels, d_s, rng):
    """Fresh weights: uniform +-sqrt(6/(fan_in+fan_out)), zero biases.

    Draw order is fixed by construction so a seed pins every weight.
    """
    c = feat_channels
    d_f = config.d_f
    m = config.M

    def attention():
        return layers.AttentionPool(
            score_weights=_glorot(rng, c, 1, (c, 1)),
            score_bias=0.0,
            proj_weights=_glorot(rng, c, d_f, (c, d_f)),
            proj_bias=np.zeros(d_f),
        )

    attn_sk = attention()
    attn_im = attention()

    if config.fusion_mode == "kronecker":
        fusion = FusionParams(
            "kronecker",
            w_sk=_glorot(rng, d_f, d_f, (d_f, d_f)),
            w_im=_glorot(rng, d_f, d_f, (d_f, d_f)),
        )
    elif config.fusion_mode == "concat":
        fusion = FusionParams(
            "concat",
            w_proj=_glorot(rng, 2 * d_f, d_f * d_f, (2 * d_f, d_f * d_f)),
        )
    else:
        k = d_f * MFB_FACTOR
        fusion = FusionParams(
            "mfb",
            u=_glorot(rng, d_f, k, (d_f, k)),
            v=_glorot(rng, d_f, k, (d_f, k)),
            w_proj=_glorot(rng, d_f, d_f * d_f, (d_f, d_f * d_f)),
        )

    fused_dim = d_f * d_f
    gcn1 = layers.GraphConvLayer(
        _glorot(rng, fused_dim, config.gcn_hidden, (fused_dim, config.gcn_hidden)),
        "relu",
    )
    gcn2 = layers.GraphConvLayer(
        _glorot(rng, config.gcn_hidden, m, (config.gcn_hidden, m)), "sigmoid"
    )
    enc_im = layers.HashEncoder(_glorot(rng, d_f, m, (d_f, m)), np.zeros(m))
    enc_sk = layers.HashEncoder(_glorot(rng, d_f, m, (d_f, m)), np.zeros(m))
    dec = layers.GaussianDecoder(
        w_mu=_glorot(rng, m, d_s, (m, d_s)),
        b_mu=np.zeros(d_s),
        w_logvar=_glorot(rng, m, d_s, (m, d_s)),
        b_logvar=np.zeros(d_s),
    )
    return ModelParams(attn_sk, attn_im, fusion, gcn1, gcn2, enc_im, enc_sk,
                       dec, use_gcn=config.use_gcn)


def params_from_arrays(config, arrays):
    """Rebuild a ModelParams from named weight arrays (checkpoint load)."""

    def attention(tag):
        return layers.AttentionPool(
            arrays[f"{tag}.score_weights"],
            arrays[f"{tag}.score_bias"],
            arrays[f"{tag}.proj_weights"],
            arrays[f"{tag}.proj_bias"],
        )

    if config.fusion_mode == "kronecker":
        fusion = FusionParams(
            "kronecker", w_sk=arrays["fusion.w_sk"], w_im=arrays["fusion.w_im"]
        )
    elif config.fusion_mode == "concat":
        fusion = FusionParams("concat", w_proj=arrays["fusion.w_proj"])
    else:
        fusion = FusionParams(
            "mfb",
            u=arrays["fusion.u"],
            v=arrays["fusion.v"],
            w_proj=arrays["fusion.w_proj"],
        )

    return ModelParams(
        attention("attn_sk"),
        attention("attn_im"),
        fusion,
        layers.GraphConvLayer(arrays["gcn1.w_theta"], "relu"),
        layers.GraphConvLayer(arrays["gcn2.w_theta"], "sigmoid"),
        layers.HashEncoder(arrays["enc_im.w"], arrays["enc_im.b"]),
        layers.HashEncoder(arrays["enc_sk.w"], arrays["enc_sk.b"]),
        layers.GaussianDecoder(
            arrays["dec.w_mu"], arrays["dec.b_mu"],
            arrays["dec.w_logvar"], arrays["dec.b_logvar"],
        ),
        use_gcn=config.use_gcn,
    )


def forward_multimodal(batch, params, adj, eps, code_offset=None):
    """Run the full training-time network on one batch.

    Returns (b, b_tilde, f_out, g_out): code probabilities [N, M] from the
    multi-modal trunk, their sampled bits, and the two single-modality
    encoder outputs.  ``code_offset`` replaces sampling with the additive
    straight-through surrogate b + offset (gradient checking only).
    """
    h_sk = layers.attention_pool(batch.sketch_feats, params.attn_sk)
    h_im = layers.attention_pool(batch.image_feats, params.attn_im)
    fused = fuse_modalities(h_sk, h_im, params.fusion)

    if params.use_gcn:
        hidden = layers.graph_conv(fused, adj, params.gcn1)
        b = layers.graph_conv(hidden, adj, params.gcn2)
    else:
        hidden = layers.dense(fused, params.gcn1)
        b = layers.dense(hidden, params.gcn2)

    if code_offset is None:
        b_tilde = layers.stochastic_neurons(b, eps)
    else:
        b_tilde = ad.add(b, ad.constant(code_offset))

    f_out = layers.encode_soft(h_im, params.enc_im)
    g_out = layers.encode_soft(h_sk, params.enc_sk)
    return b, b_tilde, f_out, g_out


def encode_features(feat_maps, attn, enc):
    """Soft codes [N, M] for N [L, C] feature maps through one modality
    encoder: the training forward's attention pooling and hash encoder,
    with no semantics and no multi-modal trunk involved."""
    if len(feat_maps) == 0:
        return np.zeros((0, enc.w.shape[1]))
    feats = np.asarray(feat_maps, dtype=np.float64)
    return layers.encode_soft(layers.attention_pool(feats, attn), enc).data
