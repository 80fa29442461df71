"""Independent reference implementations used to check the fast paths.

The model forward is plain numpy that runs one item at a time, its graph
built entry by entry from the batch semantics, and the weight
initialization draws one weight at a time.  The activations and the
row softmax are the plain masked and branching expressions that the
layers' kernels must equal bit for bit, and the one-pass encode is the
form that the blocked ``model.encode_features`` must equal bit for bit.
The synthetic data generator
draws one map at a time, and the batch sampler one pair at a time from
per-class lists.  For retrieval, distances are computed on unpacked bits,
rankings by explicit keyed sort, and the metric accumulations mirror the
production order so agreement can be asserted exactly: AP, precision@K and
the interpolated curve add per-query floats query by query, and the raw
per-rank curve divides integer hit counts, grouped by R, once at the end."""

import numpy as np

from zsih import layers

RECALL_LEVELS = np.linspace(0.0, 1.0, 11)


def naive_hamming(bits_a, bits_b):
    return int(np.sum(np.asarray(bits_a) != np.asarray(bits_b)))


def naive_rank(query_bits, gallery_bits):
    dists = [naive_hamming(query_bits, row) for row in gallery_bits]
    return sorted(range(len(dists)), key=lambda i: (dists[i], i))


def naive_average_precision(ranked_labels, query_label):
    hits = 0
    total = 0.0
    for rank, label in enumerate(ranked_labels, start=1):
        if label == query_label:
            hits += 1
            total += hits / rank
    return total / hits


def naive_evaluate(query_bits, query_labels, gallery_bits, gallery_labels, ks):
    """Full-protocol reference: unpacked-bit distances, keyed-sort ranking,
    loop-accumulated AP, precision@K and interpolated P-R.  The raw curve
    counts, per R, the queries with R hits that hit each rank; after the
    loop the precision at a rank is the running total of every count over
    rank + 1 and over the evaluated queries, and the recall adds, R by R
    ascending, the running total of R's counts over R, then divides by the
    evaluated queries."""
    query_bits = np.asarray(query_bits)
    gallery_bits = np.asarray(gallery_bits)
    ks = sorted(set(int(k) for k in ks))
    n = gallery_bits.shape[0]
    aps = []
    p_sum = {k: 0.0 for k in ks}
    level_sum = np.zeros(RECALL_LEVELS.size)
    hits_by_r = {}   # R -> [queries with R hits that hit rank 0, rank 1, ...]
    excluded = 0
    for qi in range(query_bits.shape[0]):
        dists = (gallery_bits != query_bits[qi][None, :]).sum(axis=1)
        order = sorted(range(n), key=lambda i: (dists[i], i))
        ranked = [gallery_labels[i] for i in order]
        rel = np.array([lab == query_labels[qi] for lab in ranked])
        r_total = int(rel.sum())
        if r_total == 0:
            excluded += 1
            continue
        aps.append(naive_average_precision(ranked, query_labels[qi]))
        prec_at = np.empty(n)
        recall_at = np.empty(n)
        counts = hits_by_r.setdefault(r_total, [0] * n)
        hits = 0
        for rank0 in range(n):
            if rel[rank0]:
                hits += 1
                counts[rank0] += 1
            prec_at[rank0] = hits / (rank0 + 1.0)
            recall_at[rank0] = hits / r_total
        for k in ks:
            p_sum[k] += float(rel[: min(k, n)].sum()) / k
        interp = prec_at.copy()
        for i in range(n - 2, -1, -1):
            if interp[i + 1] > interp[i]:
                interp[i] = interp[i + 1]
        # one forward walk finds the first rank reaching each recall level
        pos = 0
        for li, level in enumerate(RECALL_LEVELS):
            if level <= 0:
                level_sum[li] += interp[0]
                continue
            while recall_at[pos] < level:
                pos += 1
            level_sum[li] += interp[pos]
    n_eval = len(aps)
    raw_prec, raw_rec = [], []
    hits_seen = 0
    seen_by_r = dict.fromkeys(sorted(hits_by_r), 0)
    for rank0 in range(n):
        recall = 0.0
        for r_total in seen_by_r:
            seen_by_r[r_total] += hits_by_r[r_total][rank0]
            hits_seen += hits_by_r[r_total][rank0]
            recall += float(seen_by_r[r_total]) / float(r_total)
        raw_prec.append(float(hits_seen) / (rank0 + 1.0) / n_eval)
        raw_rec.append(recall / n_eval)
    return {
        "map_all": float(np.mean(np.array(aps))),
        "per_query_ap": np.array(aps),
        "precision_at": {k: p_sum[k] / n_eval for k in ks},
        "pr_curve": list(zip(RECALL_LEVELS.tolist(), (level_sum / n_eval).tolist())),
        "pr_raw": list(zip(raw_rec, raw_prec)),
        "excluded": excluded,
    }


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def two_branch_sigmoid(z):
    """The logistic function by sign, each branch on the elements it
    gathers: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z))
    elsewhere (NaN included)."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def masked_relu(z):
    return np.where(z > 0, z, 0.0)


def softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def one_shot_encode(maps, attn, enc):
    """Soft codes of all N maps in one pass: one float64 copy, one
    attention pooling and one hash encoder call over every row."""
    return layers.encode_soft(
        layers.attention_pool(np.asarray(maps, np.float64), attn).data, enc).data


def _attend(feat, w, tag):
    """One [L, C] map: softmax over locations, pooled, projected, ReLU."""
    logits = feat @ w[f"{tag}.score_weights"][:, 0] + w[f"{tag}.score_bias"]
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    pooled = weights @ feat
    return np.maximum(0.0, pooled @ w[f"{tag}.proj_weights"] + w[f"{tag}.proj_bias"])


def _fuse(h_sk, h_im, w, mode):
    """One item's fused d_f^2 vector."""
    if mode == "kronecker":
        return np.maximum(0.0, np.kron(h_sk @ w["fusion.w_sk"], h_im @ w["fusion.w_im"]))
    if mode == "concat":
        raw = np.concatenate([h_sk, h_im])
    else:
        t = (h_sk @ w["fusion.u"]) * (h_im @ w["fusion.v"])
        raw = t.reshape(h_sk.size, -1).sum(axis=1)
    return np.maximum(0.0, raw @ w["fusion.w_proj"])


def naive_adjacency(semantics, t):
    """The batch's propagation matrix entry by entry: the Gaussian kernel
    exp(-|s_j - s_k|^2 / t) with 1 on the diagonal, each entry divided by
    the square root of the degrees (kernel row sums) of its row and its
    column."""
    n = len(semantics)
    kernel = np.ones((n, n))
    for j in range(n):
        for k in range(n):
            if j != k:
                kernel[j, k] = np.exp(-np.sum((semantics[j] - semantics[k]) ** 2) / t)
    deg = [sum(row) for row in kernel]
    return np.array([[kernel[j, k] / np.sqrt(deg[j] * deg[k]) for k in range(n)]
                     for j in range(n)])


def naive_forward(sketch_feats, image_feats, w, mode, semantics, t):
    """The multi-modal forward, item by item: returns (b, f, g).

    ``w`` maps parameter names to arrays.  The graph is built from the
    batch's ``semantics`` at bandwidth ``t``; ``t`` is None for the no-GCN
    ablation, which propagates over the identity.
    """
    h_sk = np.stack([_attend(f, w, "attn_sk") for f in sketch_feats])
    h_im = np.stack([_attend(f, w, "attn_im") for f in image_feats])
    fused = np.stack([_fuse(s, i, w, mode) for s, i in zip(h_sk, h_im)])
    prop = np.eye(len(fused)) if t is None else naive_adjacency(semantics, t)
    hidden = np.maximum(0.0, prop @ fused @ w["gcn1.w_theta"])
    b = _sigmoid(prop @ hidden @ w["gcn2.w_theta"])
    f = _sigmoid(h_im @ w["enc_im.w"] + w["enc_im.b"])
    g = _sigmoid(h_sk @ w["enc_sk.w"] + w["enc_sk.b"])
    return b, f, g


def _glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def naive_init(mode, channels, d_f, hidden, m, d_s, rng):
    """Fresh weights drawn one at a time in the model's fixed order:
    returns name -> array.  Matrices are Glorot-uniform, the rest zero."""
    w = {}
    for tag in ("attn_sk", "attn_im"):
        w[f"{tag}.score_weights"] = _glorot(rng, channels, 1)
        w[f"{tag}.score_bias"] = np.zeros(1)
        w[f"{tag}.proj_weights"] = _glorot(rng, channels, d_f)
        w[f"{tag}.proj_bias"] = np.zeros(d_f)
    if mode == "kronecker":
        w["fusion.w_sk"] = _glorot(rng, d_f, d_f)
        w["fusion.w_im"] = _glorot(rng, d_f, d_f)
    elif mode == "concat":
        w["fusion.w_proj"] = _glorot(rng, 2 * d_f, d_f * d_f)
    else:
        w["fusion.u"] = _glorot(rng, d_f, 4 * d_f)
        w["fusion.v"] = _glorot(rng, d_f, 4 * d_f)
        w["fusion.w_proj"] = _glorot(rng, d_f, d_f * d_f)
    w["gcn1.w_theta"] = _glorot(rng, d_f * d_f, hidden)
    w["gcn2.w_theta"] = _glorot(rng, hidden, m)
    w["enc_im.w"] = _glorot(rng, d_f, m)
    w["enc_im.b"] = np.zeros(m)
    w["enc_sk.w"] = _glorot(rng, d_f, m)
    w["enc_sk.b"] = np.zeros(m)
    w["dec.w_mu"] = _glorot(rng, m, d_s)
    w["dec.b_mu"] = np.zeros(d_s)
    w["dec.w_logvar"] = _glorot(rng, m, d_s)
    w["dec.b_logvar"] = np.zeros(d_s)
    return w


def naive_synth(sem, per_class, length, channels, noise, rng, latent_cap=8):
    """The generator item by item: returns a list of (item_id, class_id,
    modality, [L, C] float32 map) in id order."""
    n_classes, d_s = sem.shape
    d_lat = min(d_s, latent_cap)
    q_lat, _ = np.linalg.qr(rng.normal(size=(d_s, d_lat)))
    latents = sem @ q_lat
    protos = {}
    for modality in ("sketch", "image"):
        embed, _ = np.linalg.qr(rng.normal(size=(channels, d_lat)))
        raw = latents @ embed.T
        protos[modality] = raw / np.mean(np.linalg.norm(raw, axis=1))
    items = []
    for cid in range(n_classes):
        for modality in ("sketch", "image"):
            for _ in range(per_class):
                jitter = noise * rng.normal(size=(length, channels)) / np.sqrt(channels)
                feat = (protos[modality][cid][None, :] + jitter).astype(np.float32)
                items.append((len(items), cid, modality, feat))
    return items


def naive_sample_batch(sketches, images, vectors, n_b, rng):
    """Draw n_b classes, then one sketch and one image of each, pair by
    pair.  ``sketches`` / ``images`` map class id -> list of [L, C] maps
    (only the training classes), ``vectors`` class id -> semantic vector.
    Returns (sketch maps, image maps, semantics)."""
    classes = sorted(sketches)
    picks = rng.integers(0, len(classes), size=n_b)
    sk, im, sem = [], [], []
    for idx in picks:
        cid = classes[idx]
        sk.append(sketches[cid][rng.integers(0, len(sketches[cid]))])
        im.append(images[cid][rng.integers(0, len(images[cid]))])
        sem.append(vectors[cid])
    return np.stack(sk).astype(np.float64), np.stack(im).astype(np.float64), np.stack(sem)
