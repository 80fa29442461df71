"""Dataset ingestion and generation: binary feature-map files, word-vector
text files, zero-shot class splits, and a synthetic generator whose
semantic geometry is informative by construction.
"""

import io
import logging
import struct
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .formats import (MODALITY_CODES, FormatError, modality_name, pack_header,
                      read_body, read_header, write_atomic)

logger = logging.getLogger("zsih.data")

FEATURE_MAGIC = b"ZSFT"
_FEATURE_HEADER = struct.Struct("<BIIQ")   # modality, L, C, count

# class latents live in a space of at most this many dimensions so that a
# handful of seen classes can span it
LATENT_DIM_CAP = 8


# one item of ``FeatureStore.modality_items``; feat is an [L, C] float32 view
FeatureView = namedtuple("FeatureView", "item_id class_id feat")


def feature_dtype(length, channels):
    """One ZSFT record: u64 item id, u32 class id, [L, C] little-endian f32."""
    return np.dtype([("item_id", "<u8"), ("class_id", "<u4"),
                     ("feat", "<f4", (length, channels))])


@dataclass
class FeatureStore:
    """Feature maps as one ZSFT record array per modality (``feature_dtype``
    fields ``item_id``, ``class_id`` and ``feat``).  A modality the store
    lacks is an empty array."""

    records: dict = field(default_factory=dict)  # modality -> record array
    classes: list = field(init=False)  # sorted ids with items in either modality

    def __post_init__(self):
        for modality in self.records:
            if modality not in MODALITY_CODES:
                raise ValueError(f"unknown modality {modality!r}")
        empty = np.empty(0, feature_dtype(0, 0))
        self.records = {m: self.records.get(m, empty) for m in MODALITY_CODES}
        self.classes = np.unique(np.concatenate(
            [r["class_id"] for r in self.records.values()])).tolist()

    def modality_items(self, modality):
        """One modality as per-item views, built on each call.  Kept only for
        the benchmark harness: the package works on ``records``."""
        records = self.records[modality]
        return list(map(FeatureView, records["item_id"].tolist(),
                        records["class_id"].tolist(), records["feat"]))


def save_features(store, path, modality):
    """Write one modality of a store in the ZSFT binary layout."""
    records = store.records[modality]
    length, channels = records["feat"].shape[1:]
    with write_atomic(path) as f:
        f.write(pack_header(FEATURE_MAGIC, _FEATURE_HEADER, MODALITY_CODES[modality],
                            length, channels, len(records)))
        f.write(records.tobytes())


def load_features(path):
    """Read a ZSFT feature file into a store."""
    with open(path, "rb") as f:
        mod_code, length, channels, count = read_header(f, FEATURE_MAGIC, _FEATURE_HEADER)
        # id u64, class u32 and L*C f32, sized before numpy sees L and C
        body = read_body(f, count, 12 + 4 * length * channels)
    try:
        record = feature_dtype(length, channels)
    except ValueError as err:
        raise FormatError(f"feature maps of {length} x {channels}: {err}") from None
    return FeatureStore({modality_name(mod_code): np.frombuffer(body, dtype=record)})


# ---------------------------------------------------------------------------
# semantic vectors


def text_lines(path):
    """The (line number, line) pairs of a UTF-8 text file; a line that is
    not UTF-8 is a FormatError naming it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        lines = list(enumerate(f, 1))
    for line_no, line in lines:
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise FormatError(f"{path}:{line_no}: not UTF-8 text") from None
    return lines


def read_semantic_file(path):
    """Parse a word-vector text file into key -> vector, last entry wins."""
    table = {}
    for line_no, line in text_lines(path):
        parts = line.split()
        if not parts:
            continue
        name = parts[0]
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError:
            raise FormatError(
                f"{path}:{line_no}: non-numeric semantic component"
            ) from None
        if not np.all(np.isfinite(vec)):
            raise FormatError(f"{path}:{line_no}: non-finite semantic component")
        if vec.size == 0:
            raise FormatError(f"{path}:{line_no}: class {name!r} has no vector")
        if name in table:
            logger.warning("duplicate semantic entry %r, keeping the last", name)
        table[name] = vec
    dims = {v.size for v in table.values()}
    if len(dims) > 1:
        raise FormatError(f"{path}: inconsistent semantic dimensions {sorted(dims)}")
    return table


def write_semantic_file(table, path):
    with (write_atomic(path) as raw,
          io.TextIOWrapper(raw, encoding="utf-8") as f):
        for name, vec in table.items():
            f.write(f"{name} " + " ".join(repr(float(x)) for x in vec) + "\n")


def read_synonyms(path):
    """Tab-separated missing key -> substitute key mapping."""
    out = {}
    for line_no, line in text_lines(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        try:
            missing, substitute = line.split("\t")
        except ValueError:
            raise FormatError(
                f"{path}:{line_no}: expected 'missing<TAB>substitute'"
            ) from None
        out[missing] = substitute
    return out


def load_semantics(path, class_ids, synonyms_path=None):
    """class id -> semantic vector for each of ``class_ids``.

    A class's vector is the line keyed by its decimal id, or else the line
    of the word the synonym file maps that id to; every class still
    unresolved is reported in one error.
    """
    raw = read_semantic_file(path)
    synonyms = read_synonyms(synonyms_path) if synonyms_path else {}
    keys = {c: str(c) if str(c) in raw else synonyms.get(str(c)) for c in sorted(class_ids)}
    missing = [str(c) for c, key in keys.items() if key not in raw]
    if missing:
        raise ValueError(
            "no semantic vector for classes (after synonym mapping): "
            + ", ".join(missing)
        )
    return {c: raw[key] for c, key in keys.items()}


# ---------------------------------------------------------------------------
# zero-shot split


@dataclass(frozen=True)
class ZeroShotSplit:
    seen: frozenset
    unseen: frozenset
    seed: int


def make_split(class_ids, n_unseen, seed):
    """Uniformly sample the unseen class set; the rest are seen."""
    ids = sorted(int(c) for c in class_ids)
    if not 0 < n_unseen < len(ids):
        raise ValueError(
            f"n_unseen must be in (0, {len(ids)}), got {n_unseen}"
        )
    rng = np.random.default_rng(seed)
    unseen = rng.choice(ids, size=n_unseen, replace=False)
    unseen = frozenset(int(c) for c in unseen)
    seen = frozenset(ids) - unseen
    return ZeroShotSplit(seen=seen, unseen=unseen, seed=seed)


def save_split(split, path):
    with (write_atomic(path) as raw,
          io.TextIOWrapper(raw, encoding="utf-8") as f):
        f.write(f"# seed {split.seed}\n")
        for cid in sorted(split.seen):
            f.write(f"seen\t{cid}\n")
        for cid in sorted(split.unseen):
            f.write(f"unseen\t{cid}\n")


def load_split(path):
    """Read a split file; a class listed as both seen and unseen is a
    FormatError naming its second listing."""
    seed = 0
    seen, unseen = set(), set()
    for line_no, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "seed":
                try:
                    seed = int(parts[1])
                except ValueError:
                    raise FormatError(f"{path}:{line_no}: seed {parts[1]!r} "
                                      "is not an integer") from None
            continue
        try:
            kind, cid = line.split("\t")
            cid = int(cid)
        except ValueError:
            raise FormatError(f"{path}:{line_no}: expected 'seen|unseen<TAB>id'") from None
        if kind not in ("seen", "unseen"):
            raise FormatError(f"{path}:{line_no}: unknown split kind {kind!r}")
        listed, other = (seen, unseen) if kind == "seen" else (unseen, seen)
        if cid in other:
            raise FormatError(f"{path}:{line_no}: class {cid} is both seen and unseen")
        listed.add(cid)
    return ZeroShotSplit(seen=frozenset(seen), unseen=frozenset(unseen), seed=seed)


# ---------------------------------------------------------------------------
# synthetic data


def synth_dataset(n_classes, per_class, length, channels, d_s, noise, seed):
    """Random desk-scale dataset with informative semantic structure: a
    store and the class id -> semantic vector dict.

    Semantic vectors are drawn on the unit sphere; class latents are a
    shared linear map of them, so semantically near classes get near
    latents and the in-batch adjacency carries real signal.
    """
    if min(n_classes, per_class, length, channels, d_s) <= 0:
        raise ValueError("all generator counts must be positive")
    if not (np.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    rng = np.random.default_rng(seed)
    sem = rng.normal(size=(n_classes, d_s))
    sem /= np.linalg.norm(sem, axis=1, keepdims=True)
    store = synth_from_semantics(sem, per_class, length, channels, noise, rng)
    return store, {i: sem[i].copy() for i in range(n_classes)}


def synth_from_semantics(sem, per_class, length, channels, noise, rng):
    """Generate items for given semantic vectors (one class per row).

    The class latents are ``min(d_s, LATENT_DIM_CAP, channels)`` wide: a
    modality embedding cannot hold more latent dimensions than the maps
    have channels.
    """
    n_classes, d_s = sem.shape
    d_lat = min(d_s, LATENT_DIM_CAP, channels)
    # orthonormal maps: the latent projection is an isometry up to the cap
    # and each modality embedding preserves latent distances exactly, so
    # semantic structure survives into the features
    q_lat, _ = np.linalg.qr(rng.normal(size=(d_s, d_lat)))
    latents = sem @ q_lat
    n_items = n_classes * per_class
    # item ids run class by class, a class's sketches before its images
    item_ids = np.arange(2 * n_items).reshape(n_classes, 2, per_class)
    protos, records = [], {}
    for m, modality in enumerate(("sketch", "image")):
        embed, _ = np.linalg.qr(rng.normal(size=(channels, d_lat)))
        raw = latents @ embed.T
        # one shared scale per modality keeps the map linear in the latent
        # (per-class normalization would distort the distance structure)
        protos.append(raw / np.mean(np.linalg.norm(raw, axis=1)))
        rec = records[modality] = np.empty(n_items, feature_dtype(length, channels))
        rec["item_id"] = item_ids[:, m].reshape(-1)
        rec["class_id"] = np.arange(n_items) // per_class
    for cid in range(n_classes):
        rows = slice(cid * per_class, (cid + 1) * per_class)
        for m, rec in enumerate(records.values()):
            jitter = rng.normal(size=(per_class, length, channels))
            rec["feat"][rows] = protos[m][cid] + noise * jitter / np.sqrt(channels)
    return FeatureStore(records)
