"""End-to-end training: config handling, category-coherent batch sampling,
semantic adjacency, the optimization loop and binary checkpoints."""

import io
import logging
import math
import os
import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import text_lines
from .formats import (FormatError, pack_header, read_body, read_exact, read_header,
                      write_atomic)
from .model import FUSION_MODES, TripletBatch, check_shapes, init_params, params_from_arrays
from .objective import AdamState, adam_step, batch_loss, estimate_gradients

logger = logging.getLogger("zsih.pipeline")

CHECKPOINT_MAGIC = b"ZSIH"
_CHECKPOINT_HEADER = struct.Struct("<I")   # config text length
# iteration, then the PCG64 has_uint32, uinteger, state and increment
_CHECKPOINT_TAIL = struct.Struct("<QBI16s16s")

# early stop when the trailing-window mean loss improves by less than
# CONVERGENCE_RTOL relative between consecutive windows
CONVERGENCE_WINDOW = 200
CONVERGENCE_RTOL = 1e-5


@dataclass
class ZsihConfig:
    M: int = 32
    d_f: int = 16
    gcn_hidden: int = 64
    t: float = 0.1
    N_B: int = 16
    K: int = 1
    max_iters: int = 3000
    seed: int = 0
    fusion_mode: str = "kronecker"
    use_gcn: bool = True
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8
    grad_clip: float = 0.0

    def validate(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.M < 1:
            raise ValueError("M must be at least 1")
        if self.N_B < 2:
            raise ValueError("N_B must be at least 2")
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.d_f < 1 or self.gcn_hidden < 1:
            raise ValueError("layer widths must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.fusion_mode not in FUSION_MODES:
            raise ValueError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps_hat <= 0:
            raise ValueError("eps_hat must be positive")
        if self.grad_clip < 0:
            raise ValueError("grad_clip must be non-negative")
        return self


_CONFIG_TYPES = {f.name: f.type for f in fields(ZsihConfig)}


def _coerce(key, raw):
    kind = _CONFIG_TYPES[key]
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {key!r} expects a boolean, got {raw!r}")
    if kind in (int, float):
        return kind(raw)
    return raw


def _config_entries(lines, where):
    """The ``(where, key, raw)`` entries of numbered ``key = value`` lines
    (# starts a comment); ``where(line_no)`` names each line."""
    for line_no, line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{where(line_no)}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        yield where(line_no), key, raw


def read_config(entries, config):
    """``config`` with each ``(where, key, raw)`` entry applied in order.
    Each step starts from a valid config and sets one key, so a bad value
    is a ValueError that starts with the ``where`` of its own entry."""
    for where, key, raw in entries:
        try:
            if key not in _CONFIG_TYPES:
                raise ValueError(f"unknown key {key!r}")
            config = replace(config, **{key: _coerce(key, raw)}).validate()
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
    return config


def parse_config(text):
    """Parse the flat ``key = value`` config format (# starts a comment)."""
    entries = _config_entries(enumerate(text.splitlines(), 1), "config line {}".format)
    return read_config(entries, ZsihConfig())


def format_config(config):
    lines = []
    for f in fields(ZsihConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path):
    entries = _config_entries(text_lines(path), f"{path}:{{}}".format)
    return read_config(entries, ZsihConfig())


# ---------------------------------------------------------------------------
# dataset view and batch sampling


class PairedDataset:
    """The training view of one sketch and one image record array over the
    training class ids ``classes``: each modality's maps, their rows
    grouped by class, and one semantic row per class from the class id ->
    vector dict ``semantics``."""

    def __init__(self, sketches, images, semantics, classes):
        self.classes = sorted(int(c) for c in classes)
        if not self.classes:
            raise ValueError("dataset has no classes")
        # per modality: the store's maps, its rows stably sorted by class, and
        # where each listed class's rows start in that order and their count
        self.feats = [sketches["feat"], images["feat"]]
        self.rows, starts, ends = [], [], []
        for labels in (sketches["class_id"], images["class_id"]):
            self.rows.append(np.argsort(labels, kind="stable"))
            starts.append(np.searchsorted(labels[self.rows[-1]], self.classes))
            ends.append(np.searchsorted(labels[self.rows[-1]], self.classes, side="right"))
        self.starts = np.stack(starts, axis=1)  # [n_classes, 2]
        self.counts = np.stack(ends, axis=1) - self.starts
        missing = np.array(self.classes)[np.any(self.counts == 0, axis=1)]
        if missing.size:
            raise ValueError(f"classes missing a modality: {missing.tolist()}")
        absent = [c for c in self.classes if c not in semantics]
        if absent:
            raise ValueError(f"classes without semantics: {absent}")
        self.semantics = np.stack([semantics[c] for c in self.classes])
        shapes = sorted({f.shape[1:] for f in self.feats})
        if len(shapes) != 1:
            raise ValueError(f"inconsistent feature shapes: {shapes}")
        self.feat_shape = shapes[0]

    @classmethod
    def from_stores(cls, sketch_store, image_store, semantics, classes):
        return cls(sketch_store.records["sketch"], image_store.records["image"],
                   semantics, classes)

    @property
    def semantic_dim(self):
        return self.semantics.shape[1]


def sample_batch(dataset, n_b, rng):
    """Draw N_B classes with replacement, then one sketch-image pair each
    (the per-row draws come sketch, image, sketch, image, ...)."""
    picks = rng.integers(0, len(dataset.classes), size=n_b)
    pos = dataset.starts[picks] + rng.integers(0, dataset.counts[picks])
    sketch_feats, image_feats = (
        feats[rows[p]].astype(np.float64)
        for feats, rows, p in zip(dataset.feats, dataset.rows, pos.T))
    return TripletBatch(
        sketch_feats=sketch_feats,
        image_feats=image_feats,
        semantics=dataset.semantics[picks],
    )


def build_adjacency(semantics, t):
    """The batch's propagation matrix D^{-1/2} A D^{-1/2} over the
    Gaussian kernel A[j,k] = exp(-|s_j - s_k|^2 / t), D = diag(A 1).

    A's diagonal is 1, so every degree is at least 1."""
    if t <= 0:
        raise ValueError(f"adjacency bandwidth t must be positive, got {t}")
    sem = np.asarray(semantics, dtype=np.float64)
    diff = sem[:, None, :] - sem[None, :, :]
    sq = (diff * diff).sum(axis=2)
    adj = np.exp(-sq / t)
    np.fill_diagonal(adj, 1.0)
    d_isqrt = 1.0 / np.sqrt(adj.sum(axis=1))
    return adj * d_isqrt[:, None] * d_isqrt[None, :]


# ---------------------------------------------------------------------------
# training


def train_step(batch, params, opt_state, adj, eps, config):
    """One optimization step over the [K, N, M] noise ``eps``, with the
    config's grad_clip and Adam settings; returns the loss breakdown."""
    loss, breakdown = batch_loss(batch, params, adj, eps)
    if not np.isfinite(breakdown.total):
        raise FloatingPointError(
            f"non-finite loss {breakdown.total!r} "
            f"(entropy={breakdown.entropy_term!r}, "
            f"decode={breakdown.decode_term!r}, "
            f"code_reg={breakdown.code_reg_term!r})"
        )
    grad = estimate_gradients(loss, params)
    if config.grad_clip > 0.0:
        # clip only the finite entries: adam_step's check must still see
        # an infinite one and stop the run
        np.clip(grad, -config.grad_clip, config.grad_clip, out=grad, where=np.isfinite(grad))
    adam_step(params, grad, opt_state, config)
    return breakdown


@dataclass
class Checkpoint:
    config: ZsihConfig
    params: dict       # name -> float64 array
    opt_step: int
    opt_m: dict
    opt_v: dict
    iteration: int
    rng_state: dict    # PCG64 bit-generator state
    # why training ended: "max_iters", "converged" or "diverged"; kept in
    # memory only (the file format does not store it), so None after a load
    stop_reason: str | None = None

    def build_params(self):
        """The model's weights, once ``params``, ``opt_m`` and ``opt_v``
        are all checked against the parameter table of the config and
        hold values a run can write: finite weights and first moments,
        second moments >= 0 (v += (1 - beta2) g^2 may overflow to inf)."""
        try:
            params = params_from_arrays(self.config, self.params)
            check_shapes(params.shapes, self.opt_m, "opt_m")
            check_shapes(params.shapes, self.opt_v, "opt_v")
        except ValueError as err:
            raise FormatError(f"checkpoint does not match its config: {err}") from None
        for field, flat, valid in (
                ("params", params.theta, np.isfinite),
                ("opt_m", params.flatten(self.opt_m), np.isfinite),
                ("opt_v", params.flatten(self.opt_v), lambda v: v >= 0.0)):
            bad = np.flatnonzero(~valid(flat))
            if bad.size:
                name, value = params.name_at(bad[0]), float(flat[bad[0]])
                raise FormatError(f"checkpoint {field} weight {name!r} holds {value!r}")
        return params

    def build_opt_state(self, params):
        return AdamState(self.opt_step, params.flatten(self.opt_m),
                         params.flatten(self.opt_v))


def _snapshot(config, params, opt_state, iteration, rng, stop_reason):
    return Checkpoint(
        config=config,
        params=params.split(params.theta.copy()),
        opt_step=opt_state.step,
        opt_m=params.split(opt_state.m.copy()),
        opt_v=params.split(opt_state.v.copy()),
        iteration=iteration,
        rng_state=rng.bit_generator.state,
        stop_reason=stop_reason,
    )


def _open_metrics(path, start):
    """Open a metrics log for a run going on from iteration ``start``; lines
    past it, from a run that stopped before saving, would repeat, and a last
    line with no newline is a row cut short by a killed writer."""
    kept = []
    if start and os.path.exists(path):
        with open(path, "rb") as f:
            for line_no, line in enumerate(f, 1):
                if not line.endswith(b"\n"):
                    break
                try:
                    step = int(line.split(b"\t", 1)[0])
                    text = line.decode("utf-8")
                except ValueError:   # a UnicodeDecodeError too
                    raise FormatError(f"{path}:{line_no}: malformed metrics line") from None
                if step <= start:
                    kept.append(text)
    f = open(path, "w", encoding="utf-8")
    f.writelines(kept)
    return f


def train(config, dataset, metrics_out=None, resume=None):
    """Run the full optimization loop and return the final checkpoint.

    Stops at ``max_iters`` or once the trailing-window mean loss stops
    improving (window bookkeeping is per session, so a resumed run warms
    its window from scratch).  A non-finite loss or gradient aborts with
    the last good state.  The checkpoint's ``stop_reason`` says which of
    the three ended the run.
    """
    config.validate()
    length, channels = dataset.feat_shape
    d_s = dataset.semantic_dim

    if resume is not None:
        # max_iters may be raised to extend a finished run; everything else
        # must match the checkpoint exactly
        if replace(resume.config, max_iters=0) != replace(config, max_iters=0):
            raise ValueError("resume checkpoint config does not match")
        params = resume.build_params()
        if (params.feat_channels, params.dec.w_mu.shape[1]) != (channels, d_s):
            raise ValueError(
                f"resume checkpoint takes {params.feat_channels} feature channels and "
                f"{params.dec.w_mu.shape[1]} semantic dimensions, the training data has "
                f"{channels} and {d_s}")
        opt_state = resume.build_opt_state(params)
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = resume.rng_state
        start = resume.iteration
    else:
        rng = np.random.default_rng(config.seed)
        params = init_params(config, channels, d_s, rng)
        opt_state = AdamState.init(params)
        start = 0

    close_metrics = False
    if isinstance(metrics_out, (str, bytes)) or hasattr(metrics_out, "__fspath__"):
        metrics_out = _open_metrics(metrics_out, start)
        close_metrics = True

    # the no-GCN ablation propagates over the identity: no row mixes with another
    identity = None if config.use_gcn else np.eye(config.N_B)
    history = []
    iteration = start
    stop_reason = "max_iters"
    try:
        for step in range(start + 1, config.max_iters + 1):
            batch = sample_batch(dataset, config.N_B, rng)
            adj = build_adjacency(batch.semantics, config.t) if config.use_gcn else identity
            eps = rng.random((config.K, config.N_B, config.M))
            try:
                breakdown = train_step(batch, params, opt_state, adj, eps, config)
            except FloatingPointError as err:
                logger.error("aborting at iteration %d: %s", step, err)
                stop_reason = "diverged"
                break
            iteration = step
            if metrics_out is not None:
                metrics_out.write(
                    f"{step}\t{breakdown.total!r}\t{breakdown.entropy_term!r}"
                    f"\t{breakdown.decode_term!r}\t{breakdown.code_reg_term!r}\n"
                )
            history.append(breakdown.total)
            if len(history) >= 2 * CONVERGENCE_WINDOW:
                prev = float(np.mean(history[-2 * CONVERGENCE_WINDOW:-CONVERGENCE_WINDOW]))
                cur = float(np.mean(history[-CONVERGENCE_WINDOW:]))
                if prev - cur < CONVERGENCE_RTOL * abs(prev):
                    logger.info("converged at iteration %d", step)
                    stop_reason = "converged"
                    break
    finally:
        if close_metrics:
            metrics_out.close()

    return _snapshot(config, params, opt_state, iteration, rng, stop_reason)


# ---------------------------------------------------------------------------
# checkpoint format


def _pack_array(arr):
    arr = np.asarray(arr, dtype="<f8")
    return struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape) + arr.tobytes()


def _read_array(f):
    (ndim,) = struct.unpack("<B", read_exact(f, 1, "array rank"))
    shape = struct.unpack(f"<{ndim}I", read_exact(f, 4 * ndim, "array shape"))
    raw = read_exact(f, math.prod(shape) * 8, f"array of shape {shape}")
    try:
        return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    except ValueError as err:
        # a rank over numpy's limit, or a zero dim next to dims whose
        # product numpy cannot index
        raise FormatError(f"array of shape {shape}: {err}") from None


def checkpoint_bytes(ckpt):
    cfg_text = format_config(ckpt.config).encode("utf-8")
    out = io.BytesIO()
    out.write(pack_header(CHECKPOINT_MAGIC, _CHECKPOINT_HEADER, len(cfg_text)))
    out.write(cfg_text)
    out.write(struct.pack("<I", len(ckpt.params)))
    for name, arr in ckpt.params.items():
        encoded = name.encode("utf-8")
        out.write(struct.pack("<H", len(encoded)))
        out.write(encoded)
        out.write(_pack_array(arr))
    out.write(struct.pack("<Q", ckpt.opt_step))
    for name in ckpt.params:
        out.write(_pack_array(ckpt.opt_m[name]))
        out.write(_pack_array(ckpt.opt_v[name]))
    state = ckpt.rng_state["state"]
    out.write(_CHECKPOINT_TAIL.pack(
        ckpt.iteration, ckpt.rng_state.get("has_uint32", 0),
        ckpt.rng_state.get("uinteger", 0),
        int(state["state"]).to_bytes(16, "little"),
        int(state["inc"]).to_bytes(16, "little")))
    return out.getvalue()


def save_checkpoint(ckpt, path):
    with write_atomic(path) as f:
        f.write(checkpoint_bytes(ckpt))


def load_checkpoint(path):
    with open(path, "rb") as f:
        (cfg_len,) = read_header(f, CHECKPOINT_MAGIC, _CHECKPOINT_HEADER)
        cfg_text = read_exact(f, cfg_len, "config")
        try:
            config = parse_config(cfg_text.decode("utf-8"))
        except ValueError as err:   # a UnicodeDecodeError too
            raise FormatError(f"bad checkpoint config: {err}") from None
        (n_params,) = struct.unpack("<I", read_exact(f, 4, "parameter count"))
        params = {}
        for _ in range(n_params):
            (name_len,) = struct.unpack("<H", read_exact(f, 2, "name length"))
            raw_name = read_exact(f, name_len, "parameter name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as err:
                raise FormatError(f"bad parameter name: {err}") from None
            if name in params:
                raise FormatError(f"checkpoint repeats weight {name!r}")
            params[name] = _read_array(f)
        (opt_step,) = struct.unpack("<Q", read_exact(f, 8, "optimizer step"))
        opt_m, opt_v = {}, {}
        for name in params:
            opt_m[name] = _read_array(f)
            opt_v[name] = _read_array(f)
        iteration, has_uint32, uinteger, state, inc = _CHECKPOINT_TAIL.unpack(
            read_body(f, 1, _CHECKPOINT_TAIL.size))
    rng_state = {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(state, "little"),
                  "inc": int.from_bytes(inc, "little")},
        "has_uint32": int(has_uint32),
        "uinteger": int(uinteger),
    }
    return Checkpoint(
        config=config, params=params, opt_step=opt_step,
        opt_m=opt_m, opt_v=opt_v, iteration=iteration, rng_state=rng_state,
    )
