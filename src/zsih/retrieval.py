"""Hamming-space retrieval: code binarization, bit-packed linear scan and
the mAP / precision@K / precision-recall evaluation protocol."""

import struct
from dataclasses import dataclass, field

import numpy as np

from .formats import (MODALITY_CODES, FormatError, modality_name, pack_header,
                      read_body, read_header, write_atomic)

CODE_MAGIC = b"ZSCB"
_CODE_HEADER = struct.Struct("<QIB")   # count, n_bits, modality

# interpolated precision is reported at the standard 11 recall levels
RECALL_LEVELS = np.linspace(0.0, 1.0, 11)


@dataclass
class CodeMatrix:
    """Bit-packed binary codes (LSB-first within each byte) with labels."""

    codes: np.ndarray   # [N, ceil(M/8)] uint8
    labels: np.ndarray  # [N] uint32
    n_bits: int
    modality: str = "image"

    def __post_init__(self):
        self.codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        self.labels = np.asarray(self.labels, dtype=np.uint32)
        if self.codes.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.codes.shape[0]} codes but {self.labels.shape[0]} labels"
            )
        if self.codes.shape[1] != (self.n_bits + 7) // 8:
            raise ValueError(
                f"code width {self.codes.shape[1]} bytes does not hold "
                f"{self.n_bits} bits"
            )
        if self.modality not in MODALITY_CODES:
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.n_bits < 1:
            raise ValueError(f"codes must hold at least 1 bit, got {self.n_bits}")

    def __len__(self):
        return self.codes.shape[0]

    def bits(self):
        return np.unpackbits(self.codes, axis=1, bitorder="little", count=self.n_bits)


def pack_bits(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits, axis=-1, bitorder="little")


def binarize(soft_codes, labels, modality="image"):
    """Threshold soft codes at 0.5 (the boundary itself maps to bit 1)."""
    soft = np.asarray(soft_codes, dtype=np.float64)
    if soft.ndim != 2:
        raise ValueError(f"soft codes must be [N, M], got shape {soft.shape}")
    # written so that NaN fails it, with no temporaries
    if soft.size and not (soft.min() >= 0.0 and soft.max() <= 1.0):
        raise ValueError("soft codes must lie in [0, 1]")
    return CodeMatrix(
        # packbits takes the boolean mask as it is, with no uint8 copy
        codes=np.packbits(soft >= 0.5, axis=-1, bitorder="little"),
        labels=np.asarray(labels, dtype=np.uint32),
        n_bits=soft.shape[1],
        modality=modality,
    )


def _words(packed):
    """Packed rows viewed as the widest unsigned words their byte width
    divides into."""
    for dtype in (np.uint64, np.uint32, np.uint16):
        if packed.shape[-1] % np.dtype(dtype).itemsize == 0:
            return packed.view(dtype)
    return packed


def _scan(query, gallery):
    """The distance kernel: one query row against every gallery row, both
    in the same word view (see ``_words``); uint8 while a row holds at most
    255 bits, else uint16."""
    dist = np.zeros(gallery.shape[0],
                    dtype=np.uint8 if gallery.shape[1] * gallery.itemsize * 8 <= 255
                    else np.uint16)
    # one word column at a time: XOR against a scalar runs over all N rows in
    # one inner loop, where broadcasting the query row would loop per row
    for j, word in enumerate(query):
        dist += np.bitwise_count(gallery[:, j] ^ word)
    return dist


def rank_rows(rows, n_bits, gallery):
    """Rank the gallery for each packed row of ``rows``, codes of
    ``n_bits`` bits: yields (distances, gallery indices by ascending
    distance, ties by ascending index) per row.

    The gallery must be non-empty and hold codes of the same length; both
    are checked before the first row is ranked.
    """
    if len(gallery) == 0:
        raise ValueError("empty gallery")
    if n_bits != gallery.n_bits:
        raise ValueError(
            f"code length mismatch: queries {n_bits} bits, "
            f"gallery {gallery.n_bits} bits"
        )
    gallery_words = _words(gallery.codes)

    def ranked():
        for row in _words(rows):
            dist = _scan(row, gallery_words)
            # numpy radix-sorts 8- and 16-bit keys for kind="stable"
            yield dist, dist.argsort(kind="stable")

    return ranked()


def hamming_rank(query_bits, gallery):
    """Gallery indices by ascending Hamming distance to the query bits,
    ties broken by ascending index."""
    query_bits = np.asarray(query_bits, dtype=np.uint8)
    if query_bits.ndim != 1:
        raise ValueError(f"query bits must be a vector, got shape {query_bits.shape}")
    rows = pack_bits(query_bits)[None]
    return next(rank_rows(rows, query_bits.size, gallery))[1]


def _hit_metrics(hit0, ranks):
    """The precision at each hit of a ranking whose hits sit at the 0-based
    ranks ``hit0``, and its AP; ``ranks`` holds 1..N as float64."""
    hit_prec = ranks[:hit0.size] / ranks[hit0]
    # cumsum adds left to right, as a loop over the hits does; sum() adds
    # pairwise and would differ from the oracle in the last bits
    return hit_prec, hit_prec.cumsum()[-1] / hit0.size


@dataclass
class RetrievalReport:
    map_all: float
    precision_at: dict                 # K -> mean precision
    pr_curve: list                     # (recall level, interpolated precision)
    per_query_ap: np.ndarray
    excluded_queries: int = 0
    pr_raw: list = field(default_factory=list)  # (mean recall@n, mean precision@n)


def evaluate(queries, gallery, ks):
    """Rank the gallery for every query and aggregate retrieval metrics.

    Every metric of a query comes from the 0-based ranks of its R hits
    (relevant gallery items).  Queries without a single relevant gallery
    item are not ranked: they are excluded from the averages and surfaced
    through ``excluded_queries``.  ``ks`` lists the K of precision@K.

    The raw per-rank curve is built once, after the loop, from integer
    counts: each query adds its hit ranks into the rank histogram of its
    R.  The precision at rank n is the hits of all histograms up to n,
    over n + 1 and over the evaluated queries; the recall adds, over R
    ascending, the hits of R's histogram up to n over R, then divides by
    the evaluated queries.
    """
    relevant = np.isin(queries.labels, gallery.labels)
    ranked = rank_rows(queries.codes[relevant], queries.n_bits, gallery)
    if len(queries) == 0:
        raise ValueError("no queries")
    ks = sorted(set(int(k) for k in ks))
    if ks and ks[0] < 1:
        raise ValueError(f"precision@K needs K >= 1, got K = {ks[0]}")
    if not relevant.any():
        raise ValueError("every query lacked relevant gallery items")
    n = len(gallery)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    aps = []
    p_sum = {k: 0.0 for k in ks}
    level_sum = np.zeros(RECALL_LEVELS.size)
    hits_by_r = {}   # R -> hits per rank over the queries with R hits
    for (_, order), label in zip(ranked, queries.labels[relevant]):
        hit0 = (gallery.labels == label)[order].nonzero()[0]
        r_total = hit0.size
        hit_prec, ap = _hit_metrics(hit0, ranks)
        aps.append(ap)
        for k, hits in zip(ks, hit0.searchsorted(ks)):
            p_sum[k] += float(hits) / k
        # precision only falls between hits, so the interpolated precision at
        # a hit is the largest precision at it or a later hit; the first rank
        # to reach a recall level is a hit, and the h-th hit reaches h / R
        interp = np.maximum.accumulate(hit_prec[::-1])[::-1]
        level_sum += interp[(ranks[:r_total] / r_total).searchsorted(RECALL_LEVELS)]
        # a query's hit ranks are distinct, so one fancy add counts them
        counts = hits_by_r.get(r_total)
        if counts is None:
            counts = hits_by_r[r_total] = np.zeros(n, dtype=np.intp)
        counts[hit0] += 1
    per_query_ap = np.array(aps)
    n_eval = len(aps)
    hits_seen = np.zeros(n, dtype=np.intp)
    raw_rec = np.zeros(n)
    for r_total in sorted(hits_by_r):
        cum = hits_by_r[r_total].cumsum()
        hits_seen += cum
        raw_rec += cum / r_total
    return RetrievalReport(
        map_all=float(np.mean(per_query_ap)),
        precision_at={k: p_sum[k] / n_eval for k in ks},
        pr_curve=list(zip(RECALL_LEVELS.tolist(), (level_sum / n_eval).tolist())),
        per_query_ap=per_query_ap,
        excluded_queries=len(queries) - n_eval,
        pr_raw=list(zip((raw_rec / n_eval).tolist(),
                        (hits_seen / ranks / n_eval).tolist())),
    )


def format_report(report):
    lines = [
        f"mAP@all\t{report.map_all!r}",
        f"queries\t{len(report.per_query_ap)}",
        f"excluded_queries\t{report.excluded_queries}",
    ]
    for k in sorted(report.precision_at):
        lines.append(f"precision@{k}\t{report.precision_at[k]!r}")
    return "\n".join(lines) + "\n"


def write_pr_dump(report, path):
    """Tab-separated P-R points: interpolated 11-level curve plus the raw
    per-rank averages, joined and written at once."""
    lines = ["kind\trecall\tprecision\n"]
    lines += [f"interp\t{r!r}\t{p!r}\n" for r, p in report.pr_curve]
    lines += [f"raw\t{r!r}\t{p!r}\n" for r, p in report.pr_raw]
    with write_atomic(path) as f:
        f.write("".join(lines).encode("utf-8"))


# ---------------------------------------------------------------------------
# code file format


def _record_dtype(n_bytes):
    """One ZSCB record: a little-endian u32 label, then the packed code."""
    return np.dtype([("label", "<u4"), ("code", "u1", (n_bytes,))])


def save_codes(code_matrix, path):
    records = np.empty(len(code_matrix),
                       dtype=_record_dtype(code_matrix.codes.shape[1]))
    records["label"] = code_matrix.labels
    records["code"] = code_matrix.codes
    with write_atomic(path) as f:
        f.write(pack_header(CODE_MAGIC, _CODE_HEADER, len(code_matrix),
                            code_matrix.n_bits, MODALITY_CODES[code_matrix.modality]))
        f.write(records.tobytes())
        f.write(records["label"].tobytes())


def load_codes(path):
    with open(path, "rb") as f:
        count, n_bits, mod_code = read_header(f, CODE_MAGIC, _CODE_HEADER)
        if n_bits < 1:
            raise FormatError(f"codes must hold at least 1 bit, got {n_bits}")
        record = _record_dtype((n_bits + 7) // 8)
        # the records, then the u32 label trailer: 4 more bytes per record
        body = read_body(f, count, record.itemsize + 4)
    records = np.frombuffer(body, dtype=record, count=count)
    trailer = np.frombuffer(body, dtype="<u4", offset=count * record.itemsize)
    if not np.array_equal(trailer, records["label"]):
        raise FormatError("label trailer does not match records (corrupt file)")
    return CodeMatrix(
        codes=records["code"].copy(), labels=records["label"].astype(np.uint32),
        n_bits=int(n_bits), modality=modality_name(mod_code),
    )
