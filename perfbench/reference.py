"""Naive references the benchmark checks the program's outputs against.

Distances come from unpacked bits compared with XOR, rankings from a
stable argsort, and the metric sums run in the program's order so that
agreement is exact.  Nothing here is timed.
"""

import numpy as np


def unpack(codes):
    """[N, M] 0/1 bits of a CodeMatrix, read straight from its bytes."""
    return np.unpackbits(codes.codes, axis=1, bitorder="little",
                         count=codes.n_bits)


def top_k(query_bits, gallery_bits, k):
    """The first ``k`` gallery indices by distance, copied out so that a
    caller keeping them does not keep the whole ranking alive."""
    dist = np.bitwise_xor(gallery_bits, query_bits[None, :]).sum(
        axis=1, dtype=np.uint16)
    return np.argsort(dist, kind="stable")[:k].copy()


def evaluate(query_bits, query_labels, gallery_bits, gallery_labels, ks):
    """mAP@all and precision@K of a full ranking per query.

    Returns (map_all, {K: precision}, excluded queries, mean relevant
    gallery items per evaluated query).
    """
    ks = sorted(set(int(k) for k in ks))
    n = gallery_bits.shape[0]
    aps = []
    p_sum = {k: 0.0 for k in ks}
    excluded = 0
    relevant = 0
    for bits, label in zip(query_bits, query_labels):
        order = top_k(bits, gallery_bits, n)
        rel = gallery_labels[order] == label
        r_total = int(rel.sum())
        if r_total == 0:
            excluded += 1
            continue
        hits = 0
        total = 0.0
        for rank0 in np.flatnonzero(rel):
            hits += 1
            total += hits / (rank0 + 1.0)
        aps.append(total / r_total)
        for k in ks:
            p_sum[k] += float(rel[: min(k, n)].sum()) / k
        relevant += r_total
    n_eval = len(aps)
    return (float(np.mean(np.array(aps))),
            {k: p_sum[k] / n_eval for k in ks},
            excluded,
            relevant / n_eval)
