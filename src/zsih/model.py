"""Model assembly: the parameter table and the flat buffer that holds
every trainable weight, the multi-modal forward pass and single-modality
encoding used for out-of-sample data.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import layers

FUSION_MODES = ("kronecker", "concat", "mfb")

# expansion factor of the factorized-bilinear ablation before sum pooling
MFB_FACTOR = 4

# maps per encode block, a multiple of 64: at 49 x 64 maps, blocks of a row
# count that is not a multiple of 4 moved soft codes in the last bits
ENCODE_BLOCK = 1024


@dataclass
class TripletBatch:
    """Category-coherent training tuples: item i's sketch and image share
    a class, and ``semantics[i]`` is that class's semantic vector."""

    sketch_feats: np.ndarray  # [N, L, C]
    image_feats: np.ndarray   # [N, L, C]
    semantics: np.ndarray     # [N, d_s]

    def __len__(self):
        return self.semantics.shape[0]


def param_shapes(config, feat_channels, d_s):
    """Every weight's name and shape, in draw order and file order.

    This is the one place that knows which weights each fusion mode has;
    every mode ends in a d_f^2 feature, so the trunk downstream is the
    same.  The attention score bias is one value per score column, (1,).
    """
    c, d_f, m, hidden = feat_channels, config.d_f, config.M, config.gcn_hidden
    shapes = {}
    for tag in ("attn_sk", "attn_im"):
        shapes.update({f"{tag}.score_weights": (c, 1), f"{tag}.score_bias": (1,),
                       f"{tag}.proj_weights": (c, d_f), f"{tag}.proj_bias": (d_f,)})
    if config.fusion_mode == "kronecker":
        shapes.update({"fusion.w_sk": (d_f, d_f), "fusion.w_im": (d_f, d_f)})
    elif config.fusion_mode == "concat":
        shapes["fusion.w_proj"] = (2 * d_f, d_f * d_f)
    else:
        k = d_f * MFB_FACTOR
        shapes.update({"fusion.u": (d_f, k), "fusion.v": (d_f, k),
                       "fusion.w_proj": (d_f, d_f * d_f)})
    shapes.update({
        "gcn1.w_theta": (d_f * d_f, hidden), "gcn2.w_theta": (hidden, m),
        "enc_im.w": (d_f, m), "enc_im.b": (m,),   # f(.) for images
        "enc_sk.w": (d_f, m), "enc_sk.b": (m,),   # g(.) for sketches
        "dec.w_mu": (m, d_s), "dec.b_mu": (d_s,),
        "dec.w_logvar": (m, d_s), "dec.b_logvar": (d_s,),
    })
    return shapes


def check_shapes(shapes, arrays, what):
    """Raise ValueError naming the first weight in ``arrays`` that is
    missing, mis-shaped or extra against the table ``shapes``."""
    for name, shape in shapes.items():
        if name not in arrays:
            raise ValueError(f"{what} lacks weight {name!r}")
        if np.shape(arrays[name]) != shape:
            raise ValueError(f"{what} weight {name!r} has shape "
                             f"{np.shape(arrays[name])}, expected {shape}")
    extra = [name for name in arrays if name not in shapes]
    if extra:
        raise ValueError(f"{what} has unexpected weight {extra[0]!r}")


class ModelParams:
    """All trainable weights in one flat float64 buffer, plus the fusion
    mode that picks the layer the fusion weights feed.

    ``theta`` holds the weights back to back in table order and ``grad``
    their gradients.  Each weight is a view into ``theta`` that the layers
    read as ``params.<group>.<weight>``; ``grad_groups.<group>.<weight>``
    is the matching view into ``grad``.
    """

    def __init__(self, config, shapes, arrays):
        check_shapes(shapes, arrays, "params")
        self.shapes = shapes
        self.fusion_mode = config.fusion_mode
        self.theta = self.flatten(arrays)
        self.grad = np.zeros_like(self.theta)
        self.grad_groups = self.grouped(self.grad)
        for group, weights in vars(self.grouped(self.theta)).items():
            setattr(self, group, weights)

    def flatten(self, arrays):
        """A new flat float64 buffer holding ``arrays`` in table order."""
        return np.concatenate([np.ravel(arrays[name]) for name in self.shapes],
                              dtype=np.float64)

    def split(self, flat):
        """Views of a flat buffer as the table's weights, by name."""
        views, start = {}, 0
        for name, shape in self.shapes.items():
            stop = start + math.prod(shape)
            views[name] = flat[start:stop].reshape(shape)
            start = stop
        return views

    def grouped(self, flat):
        """``split`` as one namespace per weight group, the form the layers
        read: ``grouped(flat).gcn1.w_theta``."""
        groups = {}
        for name, view in self.split(flat).items():
            group, weight = name.split(".")
            groups.setdefault(group, {})[weight] = view
        return SimpleNamespace(**{group: SimpleNamespace(**weights)
                                  for group, weights in groups.items()})

    def name_at(self, index):
        """The name of the weight that holds flat element ``index``."""
        ends = np.cumsum([math.prod(shape) for shape in self.shapes.values()])
        return list(self.shapes)[int(np.searchsorted(ends, index, side="right"))]

    @property
    def feat_channels(self):
        return self.shapes["attn_sk.score_weights"][0]

    @property
    def code_bits(self):
        return self.shapes["gcn2.w_theta"][1]


def init_params(config, feat_channels, d_s, rng):
    """Fresh weights, drawn in table order so that a seed pins every one:
    each matrix uniform in +-sqrt(6/(fan_in+fan_out)) with its fans taken
    from its shape, every other weight zero."""
    shapes = param_shapes(config, feat_channels, d_s)
    arrays = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            arrays[name] = rng.uniform(-bound, bound, size=shape)
        else:
            arrays[name] = np.zeros(shape)
    return ModelParams(config, shapes, arrays)


def params_from_arrays(config, arrays):
    """Rebuild a ModelParams from named weight arrays (checkpoint load).

    The feature channels and the semantic dimension, which the config
    does not fix, are read off the weights that carry them.
    """

    def dim(name, axis):
        shape = np.shape(arrays.get(name))
        return shape[axis] if len(shape) == 2 else 0

    shapes = param_shapes(config, dim("attn_sk.score_weights", 0), dim("dec.w_mu", 1))
    return ModelParams(config, shapes, arrays)


# one forward_multimodal pass: the code probabilities b [N, M], the image and
# sketch encoder outputs f(.) and g(.), and the trunk's reverse pass
Trunk = namedtuple("Trunk", "b f_out g_out vjp")


def fuse_modalities(h_sk, h_im, params):
    """Fused features [N, d_f^2] for any fusion mode, as one layer node."""
    if params.fusion_mode == "kronecker":
        return layers.fuse(h_sk, h_im, params.fusion)
    if params.fusion_mode == "concat":
        return layers.fuse_concat(h_sk, h_im, params.fusion)
    return layers.fuse_mfb(h_sk, h_im, params.fusion)


def forward_multimodal(batch, params, adj):
    """Run the deterministic training-time network on one batch.

    ``adj`` is the batch's [N, N] propagation matrix, which both graph
    convolutions use as given: ``pipeline.build_adjacency``'s normalized
    kernel, or the identity for the no-GCN ablation.

    Returns a ``Trunk``; its ``vjp(g_b, g_f, g_g, grads)`` takes the
    gradients of the three outputs and adds every trunk weight's gradient
    into its view in ``grads`` (``params.grad_groups``).  No output
    depends on the sampling noise, so one pass serves every draw.
    """
    h_sk = layers.attention_pool(batch.sketch_feats, params.attn_sk)
    h_im = layers.attention_pool(batch.image_feats, params.attn_im)
    fused = fuse_modalities(h_sk.data, h_im.data, params)
    hidden = layers.graph_conv(fused.data, adj, params.gcn1, layers.relu)
    b = layers.graph_conv(hidden.data, adj, params.gcn2, layers.sigmoid)

    f_out = layers.encode_soft(h_im.data, params.enc_im)
    g_out = layers.encode_soft(h_sk.data, params.enc_sk)

    def vjp(g_b, g_f, g_g, grads):
        (g_hidden,) = b.vjp(g_b, grads.gcn2)
        (g_fused,) = hidden.vjp(g_hidden, grads.gcn1)
        g_sk_fused, g_im_fused = fused.vjp(g_fused, grads.fusion)
        (g_sk_enc,) = g_out.vjp(g_g, grads.enc_sk)
        (g_im_enc,) = f_out.vjp(g_f, grads.enc_im)
        # each attended feature feeds the fusion and its modality's encoder
        h_sk.vjp(g_sk_enc + g_sk_fused, grads.attn_sk)
        h_im.vjp(g_im_enc + g_im_fused, grads.attn_im)

    return Trunk(b.data, f_out.data, g_out.data, vjp)


def encode_features(feat_maps, attn, enc):
    """Soft codes [N, M] for N [L, C] feature maps through one modality
    encoder: the training forward's attention pooling and hash encoder,
    with no semantics and no multi-modal trunk involved.

    The maps go through in blocks of ``ENCODE_BLOCK``: each block is
    converted to float64, pooled and hash-encoded straight into its rows of
    the one [N, M] result, so the memory beside that result is one block's
    worth however large N is.  The last block takes up to
    ``ENCODE_BLOCK + 1`` maps, so no block has a single row unless N = 1:
    a one-row matrix product can round differently in the last bit, and with
    that rule every soft code is bit-identical to encoding all N maps in one
    pass with BLAS on one thread.  A single-item encode is such a one-row
    product, so it can differ from the same item's row in a batch in the
    last bits.
    """
    n = len(feat_maps)
    out = np.empty((n, enc.w.shape[1]))
    start = 0
    while True:
        stop = n if n - start <= ENCODE_BLOCK + 1 else start + ENCODE_BLOCK
        # the float64 block lives only as long as its pooling node
        pooled = layers.attention_pool(
            np.asarray(feat_maps[start:stop], dtype=np.float64), attn).data
        layers.encode_soft(pooled, enc, out=out[start:stop])
        if stop == n:
            return out
        start = stop
