"""The zsih benchmark: three workloads, each driving the program's public
functions from one process in a closed loop with a single client.

Every run goes through the same four phases, so every run can report
every end-to-end metric; a workload decides how much work each phase
gets.

- train: ``pipeline.train`` for a fixed number of steps, timed per step
  by a ``metrics_out`` object that stamps ``time.perf_counter()``.
- index: ``data.load_features`` -> ``model.encode_features`` ->
  ``retrieval.binarize`` -> ``save_codes`` -> ``load_codes``.
- query: one sketch at a time, encoded, ranked with
  ``retrieval.hamming_rank``, top 10 kept.
- eval: ``load_codes`` x2 -> ``evaluate`` -> ``format_report`` ->
  ``write_pr_dump``.

Correctness checks run outside the timed sections.
"""

import gc
import math
import resource
import signal
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from zsih import autodiff, data, layers, model, objective, pipeline, retrieval

import reference
from tracing import END, START, WHERE, Tracer

MODULES = {
    "autodiff": autodiff, "data": data, "layers": layers, "model": model,
    "objective": objective, "pipeline": pipeline, "retrieval": retrieval,
}

TOP_K = 10
EVAL_KS = (1, 10, 100)
SETUP_REPS = 3
SETUP_MIN_S = 1.0   # set-ups repeat until both are reached
MIN_BUILDS = 2
MIN_EVALS = 2
# calibration probes: every PROBE_EVERY_S seconds of training steps and of
# queries, and inside index builds, evaluations and set-ups.  Probing every
# 5 steps (about 0.05 s here) rather than every 20 narrowed the ten-seed
# spread of train_step_ms_p99.
PROBE_EVERY_S = 0.05
# synthetic feature maps and semantics of the README's default setting
LOCATIONS, CHANNELS, SEMANTIC_DIM, NOISE = 4, 32, 16, 0.2

clock = time.perf_counter


@dataclass(frozen=True)
class Corpus:
    """A synthetic set of ``per_class`` sketches and images per class."""

    classes: int
    per_class: int
    unseen: int           # classes held out of training
    code_bits: int
    seed: object = None   # None: drawn from --seed

    def seed_for(self, seed):
        return seed if self.seed is None else self.seed


# the README's default setting, trained on by the train phase of every workload
TRAIN_SET = Corpus(classes=20, per_class=50, unseen=5, code_bits=32)


@dataclass(frozen=True)
class Workload:
    name: str
    index_share: float    # shares of --seconds for the time-looped phases
    query_share: float
    eval_share: float
    index: object = None  # Corpus behind the index; None: the train set and its model
    index_train_steps: int = 0  # set-up training of the index's own checkpoint
    generated: object = None    # eval codes (queries, gallery, classes, bits, flip rate)
    train_set: Corpus = TRAIN_SET
    train_steps: int = 1500     # requested; p99 then has >= 10 samples beyond it
    min_queries: int = 1000


WORKLOADS = {w.name: w for w in (
    # training dominates: autodiff, layers, model and objective do nearly
    # all the work and retrieval almost none
    Workload("train", index_share=0.1, query_share=0.25, eval_share=0.1),
    # the model forward at batch 20,000 (index) and at batch 1 (query), and
    # ranking used for a top 10 of 20,000.  The corpus and its checkpoint are
    # fixed and --seed draws the query stream, so the index, and the ties the
    # ranking sorts, are the same every run.  100 set-up steps stay below
    # pipeline's 2-window convergence test.
    Workload("index_query", index_share=0.1, query_share=0.45, eval_share=0.2,
             index=Corpus(classes=100, per_class=200, unseen=5, code_bits=64, seed=0),
             index_train_steps=100),
    # the full protocol on 2,000 x 20,000 codes generated without the model:
    # retrieval does most of the work
    Workload("eval", index_share=0.1, query_share=0.25, eval_share=0.35,
             generated=(2000, 20000, 100, 64, 0.22)),
)}


def tiny(workload):
    """The same workload at a size that runs in about a second."""
    index = workload.index
    if index is not None:
        index = replace(index, classes=8, per_class=8, unseen=2)
    generated = workload.generated
    if generated is not None:
        generated = (40, 200, 10, *generated[3:])
    return replace(workload, train_set=Corpus(6, 8, 2, TRAIN_SET.code_bits),
                   train_steps=12, index=index, index_train_steps=5,
                   generated=generated, min_queries=20)


@dataclass
class Files:
    gallery_features: str
    gallery_codes: str
    eval_queries: str
    eval_gallery: str
    report: str
    pr_dump: str
    scratch: str

    @classmethod
    def under(cls, workdir):
        return cls(*(str(workdir / name) for name in (
            "gallery.zsft", "gallery.zscb", "eval_queries.zscb",
            "eval_gallery.zscb", "report.tsv", "pr.tsv", "scratch.zscb")))


@dataclass
class Inputs:
    train_set: pipeline.PairedDataset
    store: data.FeatureStore      # items behind the index, queries and unseen eval
    split: data.ZeroShotSplit
    index_ckpt: object            # the index's set-up checkpoint, or None
    eval_codes: object            # generated (queries, gallery) codes, or None


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(f"{failed} x {what}")

    def check(self, ok, what):
        self.add(1, 0 if ok else 1, what)


def generate_codes(rng, n_queries, n_gallery, n_classes, n_bits, flip):
    """Per-class prototype codes with independent seeded bit flips."""
    protos = rng.integers(0, 2, size=(n_classes, n_bits), dtype=np.uint8)

    def draw(count, modality):
        labels = rng.permutation(np.arange(count) % n_classes).astype(np.uint32)
        flips = (rng.random((count, n_bits)) < flip).astype(np.uint8)
        return retrieval.CodeMatrix(retrieval.pack_bits(protos[labels] ^ flips),
                                    labels, n_bits, modality)

    return draw(n_queries, "sketch"), draw(n_gallery, "image")


def _synth(corpus, seed):
    cseed = corpus.seed_for(seed)
    store, semantics = data.synth_dataset(
        corpus.classes, corpus.per_class, LOCATIONS, CHANNELS, SEMANTIC_DIM,
        NOISE, cseed)
    split = data.make_split(range(corpus.classes), corpus.unseen, cseed)
    dataset = pipeline.PairedDataset.from_stores(
        store, store, semantics, classes=sorted(split.seen))
    return store, split, dataset


def set_up(workload, seed, files):
    """Synthetic sets, the index's checkpoint, the gallery feature file and,
    for the eval workload, the generated code files."""
    store, split, train_set = _synth(workload.train_set, seed)
    index_ckpt = None
    if workload.index is not None:
        store, split, dataset = _synth(workload.index, seed)
        config = pipeline.ZsihConfig(M=workload.index.code_bits,
                                     seed=workload.index.seed_for(seed),
                                     max_iters=workload.index_train_steps)
        index_ckpt = pipeline.train(config, dataset)
    data.save_features(store, files.gallery_features, "image")
    eval_codes = None
    if workload.generated is not None:
        eval_codes = generate_codes(np.random.default_rng([seed, 2]), *workload.generated)
        retrieval.save_codes(eval_codes[0], files.eval_queries)
        retrieval.save_codes(eval_codes[1], files.eval_gallery)
    return Inputs(train_set, store, split, index_ckpt, eval_codes)


# ---------------------------------------------------------------------------
# machine speed


@dataclass
class Section:
    seconds: float = 0.0   # wall time net of the probes taken inside
    factor: float = 1.0    # mean speed factor of the probes around and inside


class Calibration:
    """Machine-speed probe taken next to and inside each timed section.

    On a shared machine the speed one process gets drifts by tens of
    percent over seconds as other tenants' load comes and goes, and no
    statistic taken within one run removes that.  So three fixed kernels
    that never touch zsih are timed next to each timed section: small
    matmuls, elementwise numpy and closure calls (the mix of the program's
    hot paths), an 8 MB streaming sum, and a stable argsort of 4,096 small
    integers with many ties (the ranking's sort).  The section's time is
    multiplied by the geometric mean of REFERENCE_S / kernel time,
    STREAM_REFERENCE_S / stream time and SORT_REFERENCE_S / sort time, so
    reported times read as times on a machine where the kernels take those
    references (roughly a 2-core x86_64 VM with little other load).  The
    median factor is recorded with every result.  Without the sort, the
    factor tracked 1,000 x 1,000 evaluation passes worse than no
    calibration at all, and queries against 20,000 codes worse than with
    it.

    Index builds and evaluations run for seconds, and the speed drifts
    within them.  With ``sample_every_s`` set, ``section`` also probes
    inside the block, from a SIGALRM handler, and stops ``now`` while the
    probe runs.  The traced run leaves it unset, so that no probe lands
    inside a span.
    """

    REFERENCE_S = 0.3e-3
    STREAM_REFERENCE_S = 0.5e-3
    SORT_REFERENCE_S = 0.2e-3

    def __init__(self, sample_every_s=None):
        self.sample_every_s = sample_every_s
        self.sampled_s = 0.0   # time spent in probes inside sections
        self._section_scales = None
        rng = np.random.default_rng(0)
        self._x = rng.random((16, 32))
        self._w = rng.random((32, 16)) - 0.5
        self._big = rng.random(1 << 20)
        self._ties = rng.integers(0, 65, 4096)
        self.scales = []

    def _kernel(self):
        tape = []
        for _ in range(20):
            h = np.maximum(self._x @ self._w, 0.0)
            s = 1.0 / (1.0 + np.exp(-h))
            tape.append((s, lambda g, s=s: g * s * (1.0 - s)))
        g = np.ones((16, 16))
        for s, back in reversed(tape):
            g = back(g) + s.sum(axis=0)
        return g

    def _stream(self):
        return float(self._big.sum())

    def _sort(self):
        return np.argsort(self._ties, kind="stable")

    @staticmethod
    def _mean_of_3(fn):
        # a mean, not a best: the sections timed next to the probe pay for
        # the other tenants' load on average
        t0 = clock()
        for _ in range(3):
            fn()
        return (clock() - t0) / 3

    def probe(self):
        """Time the kernels and return the factor for the section about
        to be timed."""
        small = self.REFERENCE_S / self._mean_of_3(self._kernel)
        stream = self.STREAM_REFERENCE_S / self._mean_of_3(self._stream)
        sort = self.SORT_REFERENCE_S / self._mean_of_3(self._sort)
        self.scales.append((small * stream * sort) ** (1.0 / 3.0))
        return self.scales[-1]

    def median(self):
        return statistics.median(self.scales)

    def now(self):
        """The clock, stopped while a probe runs inside a section."""
        return clock() - self.sampled_s

    def _on_alarm(self, signum, frame):
        t0 = clock()
        self._section_scales.append(self.probe())
        self.sampled_s += clock() - t0

    @contextmanager
    def section(self):
        """Time the block; yields a ``Section`` filled in when it ends."""
        result = Section()
        scales = [self.probe()]
        every = self.sample_every_s
        if every:
            self._section_scales = scales
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.siginterrupt(signal.SIGALRM, False)
            signal.setitimer(signal.ITIMER_REAL, every, every)
        start = self.now()
        try:
            yield result
        finally:
            result.seconds = self.now() - start
            if every:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        scales.append(self.probe())
        result.factor = statistics.mean(scales)


# ---------------------------------------------------------------------------
# phases


def settle():
    """Collect, then move every object alive now into the collector's
    permanent generation.  A full collection scans every tracked object, so
    without this its pause, and the step or query it lands in, would grow
    with the inputs the benchmark holds (the 40,000-item corpus of
    ``index_query``) and with what earlier phases left; after it, the
    collections of a timed phase scan only what the program allocates
    there."""
    gc.collect()
    gc.freeze()


def _at(tracer, phase=None, index=None):
    if tracer is not None:
        tracer.where = None if phase is None else (phase, index)


class StepClock:
    """``metrics_out`` for ``pipeline.train``: times each step from the
    return of one ``write`` to the next.  The first step also pays for
    parameter initialisation, and a step after a probe starts with the
    caches the probe evicted; neither is timed."""

    def __init__(self, cal, tracer=None):
        self.cal = cal
        self.tracer = tracer
        self.lines = []
        self.step_ms = []
        self.step_scale = []
        self.scale = cal.probe()
        self.probed = clock()
        self.resumed = None

    def write(self, line):
        arrived = clock()
        if self.resumed is not None:
            self.step_ms.append((arrived - self.resumed) * 1e3)
            self.step_scale.append(self.scale)
        self.lines.append(line)
        _at(self.tracer, "train", len(self.lines) + 1)
        cold = arrived - self.probed >= PROBE_EVERY_S
        if cold:
            self.scale = self.cal.probe()
            self.probed = clock()
        self.resumed = None if cold else clock()


def train(workload, seed, inputs, tally, cal, tracer=None):
    """Returns (checkpoint, the ``StepClock`` with the logged lines and the
    timed steps)."""
    config = pipeline.ZsihConfig(M=workload.train_set.code_bits, seed=seed,
                                 max_iters=workload.train_steps)
    steps = StepClock(cal, tracer)
    _at(tracer, "train", 1)
    ckpt = pipeline.train(config, inputs.train_set, metrics_out=steps)
    _at(tracer)
    totals = []
    for expected, line in enumerate(steps.lines, 1):
        step, total = line.split("\t")[:2]
        if int(step) == expected and math.isfinite(float(total)):
            totals.append(float(total))
    ran = len(steps.lines)
    # stopping early is the program's own convergence rule, not a failure,
    # when the logged losses show the rule firing at the last step
    requested = ran if ran < workload.train_steps and _converged(totals) else workload.train_steps
    tally.add(requested, requested - len(totals),
              "training step missing or with a non-finite loss")
    return ckpt, steps


def _converged(totals):
    """``pipeline.train``'s early-stop test applied to the logged losses."""
    window = pipeline.CONVERGENCE_WINDOW
    if len(totals) < 2 * window:
        return False
    prev = float(np.mean(totals[-2 * window:-window]))
    cur = float(np.mean(totals[-window:]))
    return prev - cur < pipeline.CONVERGENCE_RTOL * abs(prev)


def build_index(params, files, now=clock):
    """One index build; returns (gallery, encoded codes, encode s)."""
    items = data.load_features(files.gallery_features).modality_items("image")
    t0 = now()
    soft = model.encode_features([item.feat for item in items],
                                 params.attn_im, params.enc_im)
    encode_s = now() - t0
    codes = retrieval.binarize(soft, [item.class_id for item in items], "image")
    retrieval.save_codes(codes, files.gallery_codes)
    gallery = retrieval.load_codes(files.gallery_codes)
    return gallery, codes, encode_s


def serve_query(params, item, gallery):
    """Encode one sketch and return (its bits, the top 10 gallery indices)."""
    soft = model.encode_features([item.feat], params.attn_sk, params.enc_sk)
    bits = retrieval.binarize(soft, [item.class_id], "sketch").bits()[0]
    return bits, retrieval.hamming_rank(bits, gallery)[:TOP_K]


def run_eval(files):
    """The zero-shot protocol over the two code files; returns the report
    and the loaded codes."""
    queries = retrieval.load_codes(files.eval_queries)
    gallery = retrieval.load_codes(files.eval_gallery)
    report = retrieval.evaluate(queries, gallery, ks=EVAL_KS)
    with open(files.report, "w", encoding="utf-8") as f:
        f.write(retrieval.format_report(report))
    retrieval.write_pr_dump(report, files.pr_dump)
    return report, queries, gallery


def unseen_codes(params, inputs, gallery):
    """Sketch codes of the unseen classes, and the index's unseen images."""
    sketches = [item for item in inputs.store.modality_items("sketch")
                if item.class_id in inputs.split.unseen]
    soft = model.encode_features([item.feat for item in sketches],
                                 params.attn_sk, params.enc_sk)
    queries = retrieval.binarize(soft, [item.class_id for item in sketches], "sketch")
    keep = np.isin(gallery.labels, sorted(inputs.split.unseen))
    return queries, retrieval.CodeMatrix(gallery.codes[keep], gallery.labels[keep],
                                         gallery.n_bits, "image")


def _same_codes(a, b):
    return (a.n_bits == b.n_bits and a.modality == b.modality
            and np.array_equal(a.codes, b.codes)
            and np.array_equal(a.labels, b.labels))


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _round_trips(codes, path, files):
    """Saving what was read back must give the file's bytes again."""
    retrieval.save_codes(codes, files.scratch)
    return _read(path) == _read(files.scratch)


# ---------------------------------------------------------------------------
# one run


@dataclass
class Measured:
    setup_s: list
    steps_run: int
    step_ms: list
    build_s: list
    encode_per_s: list
    query_ms: list
    eval_s: list
    eval_queries: int
    map_all: float
    relevant_per_query: float
    gallery_size: int
    io_bytes: dict
    factors: dict


def measure(workload, seed, seconds, files, tally, cal, tracer=None, inputs=None):
    """Set up at least SETUP_REPS times and SETUP_MIN_S seconds unless
    ``inputs`` are given, then run the four phases once, traced when a
    tracer is given.  Checks run between or after the timed sections."""
    setup_s, setup_f = [], []
    given = inputs is not None
    while not given and (len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S):
        with cal.section() as done:
            inputs = set_up(workload, seed, files)
        setup_s.append(done.seconds)
        setup_f.append(done.factor)

    settle()
    ckpt, steps = train(workload, seed, inputs, tally, cal, tracer)
    params = (inputs.index_ckpt or ckpt).build_params()

    # index
    settle()
    build_s, build_f, encode_per_s, first = [], [], [], None
    start = clock()
    while len(build_s) < MIN_BUILDS or clock() - start < workload.index_share * seconds:
        _at(tracer, "build", len(build_s))
        with cal.section() as built:
            gallery, codes, encode_s = build_index(params, files, cal.now)
        _at(tracer)
        build_s.append(built.seconds)
        build_f.append(built.factor)
        encode_per_s.append(len(codes) / encode_s)
        written = _read(files.gallery_codes)
        first = written if first is None else first
        tally.check(_same_codes(gallery, codes) and written == first
                    and _round_trips(gallery, files.gallery_codes, files),
                    "index build not deterministic or ZSCB round trip differs")
    builds = len(build_s)
    io_bytes = {"data.load_features": len(_read(files.gallery_features)) * builds,
                "retrieval.save_codes": len(first) * builds,
                "retrieval.load_codes": len(first) * builds}

    # queries
    settle()
    pool = inputs.store.modality_items("sketch")
    rng = np.random.default_rng([seed, 1])
    query_ms, query_f, served = [], [], []
    start = probed = clock()
    while len(query_ms) < workload.min_queries or clock() - start < workload.query_share * seconds:
        # the query after a probe finds the caches the probe evicted (2.5x
        # slower at 1,000 items): it is served and checked but not timed
        cold = not served or clock() - probed >= PROBE_EVERY_S
        if cold:
            scale = cal.probe()
            probed = clock()
        item = pool[rng.integers(len(pool))]
        _at(tracer, "query", len(served))
        t0 = clock()
        bits, top = serve_query(params, item, gallery)
        elapsed_ms = (clock() - t0) * 1e3
        _at(tracer)
        if not cold:
            query_ms.append(elapsed_ms)
            query_f.append(scale)
        served.append((bits.tobytes(), top.copy()))  # top is a view of all N ranks
    gallery_bits = reference.unpack(gallery)
    expected = {}
    for key, top in served:
        if key not in expected:
            query_bits = np.frombuffer(key, dtype=np.uint8)
            expected[key] = reference.top_k(query_bits, gallery_bits, TOP_K)
        tally.check(np.array_equal(top, expected[key]), "query top 10 differs from reference")

    # eval
    if inputs.eval_codes is None:
        _at(tracer, "prep", 0)
        eval_codes = unseen_codes(params, inputs, gallery)
        retrieval.save_codes(eval_codes[0], files.eval_queries)
        retrieval.save_codes(eval_codes[1], files.eval_gallery)
        _at(tracer)
    else:
        eval_codes = inputs.eval_codes
    ref_map, ref_precision, ref_excluded, relevant = reference.evaluate(
        reference.unpack(eval_codes[0]), eval_codes[0].labels,
        reference.unpack(eval_codes[1]), eval_codes[1].labels, EVAL_KS)
    round_trips = (_round_trips(eval_codes[0], files.eval_queries, files)
                   and _round_trips(eval_codes[1], files.eval_gallery, files))
    eval_s, eval_f = [], []
    settle()
    start = clock()
    while len(eval_s) < MIN_EVALS or clock() - start < workload.eval_share * seconds:
        _at(tracer, "eval", len(eval_s))
        with cal.section() as evaluated:
            report, q_loaded, g_loaded = run_eval(files)
        _at(tracer)
        eval_s.append(evaluated.seconds)
        eval_f.append(evaluated.factor)
        tally.check(round_trips and _same_codes(q_loaded, eval_codes[0])
                    and _same_codes(g_loaded, eval_codes[1])
                    and report.map_all == ref_map
                    and report.precision_at == ref_precision
                    and report.excluded_queries == ref_excluded,
                    "eval differs from reference or ZSCB round trip differs")
    io_bytes["retrieval.load_codes"] += len(eval_s) * (
        len(_read(files.eval_queries)) + len(_read(files.eval_gallery)))

    return ckpt, Measured(
        setup_s=setup_s, steps_run=len(steps.lines), step_ms=steps.step_ms,
        build_s=build_s, encode_per_s=encode_per_s, query_ms=query_ms, eval_s=eval_s,
        factors={"setup": setup_f, "step": steps.step_scale, "build": build_f,
                 "query": query_f, "eval": eval_f},
        eval_queries=len(eval_codes[0]), map_all=report.map_all,
        relevant_per_query=relevant, gallery_size=len(gallery),
        io_bytes=io_bytes,
    )


def end_to_end(m, calibrated=True):
    """The end-to-end metrics; ``calibrated=False`` gives raw wall times."""
    def f(kind):
        return np.array(m.factors[kind]) if calibrated else np.ones(len(m.factors[kind]))
    step = np.array(m.step_ms) * f("step")
    query = np.array(m.query_ms) * f("query")
    return {
        "setup_s": (statistics.median(np.array(m.setup_s) * f("setup")), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_step_ms_p50": (float(np.percentile(step, 50)), "ms"),
        "train_step_ms_p99": (float(np.percentile(step, 99)), "ms"),
        "index_build_s": (statistics.median(np.array(m.build_s) * f("build")), "s"),
        "encode_items_per_s": (statistics.median(np.array(m.encode_per_s) / f("build")), "items/s"),
        "query_ms_p50": (float(np.percentile(query, 50)), "ms"),
        "query_ms_p99": (float(np.percentile(query, 99)), "ms"),
        "eval_ms_per_query": (statistics.median(np.array(m.eval_s) * f("eval")) / m.eval_queries * 1e3, "ms"),
    }


def per_layer(tracer, m, steps, overhead_ms, speed):
    """Layer metrics from the traced run's spans and counters; span times
    are scaled by the run's median calibration factor ``speed``."""
    own = [t * speed for t in tracer.self_times()]
    step_total = defaultdict(lambda: defaultdict(float))
    step_self = defaultdict(lambda: defaultdict(float))
    step_calls = defaultdict(lambda: defaultdict(int))
    phase_time = defaultdict(float)          # (phase, name) -> seconds
    phase_spans = defaultdict(list)          # (phase, name) -> durations
    for i, span in enumerate(tracer.spans):
        if span[WHERE] is None:
            continue
        phase, index = span[WHERE]
        name, duration = span[0], (span[END] - span[START]) * speed
        phase_time[phase, name] += duration
        phase_spans[phase, name].append(duration)
        if phase == "train":
            step_total[index][name] += duration
            step_self[index][name] += own[i]
            step_calls[index][name] += 1
    step_ids = range(1, steps + 1)

    def per_step(table, name, scale=1e3):
        return statistics.median(table[k][name] for k in step_ids) * scale

    gc_steps = [p * speed for where, p in tracer.gc_pauses if where and where[0] == "train"]
    build_nodes = sum(n for where, n in tracer.nodes.items() if where and where[0] == "build")
    builds = len(m.build_s)
    mb = 1024.0 * 1024.0

    def mbps(name, phases):
        seconds = sum(phase_time[p, name] for p in phases)
        return m.io_bytes[name] / mb / seconds

    encodes = phase_spans["build", "model.encode_features"]
    return {
        "pipeline.sample_batch.ms": (per_step(step_total, "pipeline.sample_batch"), "ms"),
        "pipeline.build_adjacency.ms": (per_step(step_total, "pipeline.build_adjacency"), "ms"),
        "objective.batch_loss.ms": (per_step(step_total, "objective.batch_loss"), "ms"),
        "objective.estimate_gradients.ms": (per_step(step_total, "objective.estimate_gradients"), "ms"),
        "objective.adam_step.ms": (per_step(step_total, "objective.adam_step"), "ms"),
        "model.forward_multimodal.self_ms": (per_step(step_self, "model.forward_multimodal"), "ms"),
        "layers.attention_pool.self_ms": (per_step(step_self, "layers.attention_pool"), "ms"),
        "layers.attention_pool.calls_per_step": (per_step(step_calls, "layers.attention_pool", 1), "count"),
        "layers.fuse.ms": (per_step(step_total, "layers.fuse"), "ms"),
        "layers.graph_conv.ms": (per_step(step_total, "layers.graph_conv"), "ms"),
        "layers.encode_soft.ms": (per_step(step_total, "layers.encode_soft"), "ms"),
        "layers.stochastic_neurons.ms": (per_step(step_total, "layers.stochastic_neurons"), "ms"),
        "layers.log_q.ms": (per_step(step_total, "layers.log_q"), "ms"),
        "layers.log_p_gaussian.ms": (per_step(step_total, "layers.log_p_gaussian"), "ms"),
        "autodiff.nodes_per_step": (statistics.median(tracer.nodes["train", k] for k in step_ids), "count"),
        "gc.collections_per_step": (len(gc_steps) / steps, "count"),
        "gc.pause_ms_per_step": (sum(gc_steps) * 1e3 / steps, "ms"),
        "trace.overhead_ms": (overhead_ms, "ms"),
        "data.load_features.MBps": (mbps("data.load_features", ["build"]), "MB/s"),
        "model.encode_features.us_per_item": (sum(encodes) / (builds * m.gallery_size) * 1e6, "us"),
        "autodiff.nodes_per_encoded_item": (build_nodes / (builds * m.gallery_size), "count"),
        "retrieval.binarize.ms": (statistics.median(phase_spans["build", "retrieval.binarize"]) * 1e3, "ms"),
        "retrieval.save_codes.MBps": (mbps("retrieval.save_codes", ["build"]), "MB/s"),
        "retrieval.load_codes.MBps": (mbps("retrieval.load_codes", ["build", "eval"]), "MB/s"),
        "model.encode_features.single_ms": (statistics.median(phase_spans["query", "model.encode_features"]) * 1e3, "ms"),
        "retrieval.hamming_rank.ms": (statistics.median(phase_spans["query", "retrieval.hamming_rank"]) * 1e3, "ms"),
        "retrieval.rank_useful_ratio": (TOP_K / m.gallery_size, "ratio"),
        "retrieval.evaluate.ms_per_query": (statistics.median(phase_spans["eval", "retrieval.evaluate"]) / m.eval_queries * 1e3, "ms"),
        "retrieval.write_pr_dump.ms": (statistics.median(phase_spans["eval", "retrieval.write_pr_dump"]) * 1e3, "ms"),
        "eval.relevant_per_query": (m.relevant_per_query, "count"),
        "map_unseen": (m.map_all, "mAP"),
    }


def run(workload, seed, seconds, trace, files, spans_path=None):
    """One benchmark run; returns (tally, {metric: (value, unit)}, details)."""
    try:
        return _run(workload, seed, seconds, trace, files, spans_path)
    finally:
        gc.unfreeze()


def _run(workload, seed, seconds, trace, files, spans_path):
    tally = Tally()
    cal = Calibration(None if trace else PROBE_EVERY_S)
    if not trace:
        _, m = measure(workload, seed, seconds, files, tally, cal)
        details = {"samples": {"steps_run": m.steps_run, "steps": len(m.step_ms),
                               "builds": len(m.build_s),
                               "queries": len(m.query_ms), "evals": len(m.eval_s)},
                   "speed_factor": cal.median(),
                   "raw": {k: v for k, (v, _) in end_to_end(m, calibrated=False).items()}}
        return tally, end_to_end(m), details

    # the untraced twin: same inputs and seed, so the checkpoint must match
    inputs = set_up(workload, seed, files)
    settle()
    plain_ckpt, plain = train(workload, seed, inputs, tally, cal)
    tracer = Tracer()
    with tracer.installed(MODULES):
        traced_ckpt, m = measure(workload, seed, seconds, files, tally, cal,
                                 tracer, inputs)
    same = pipeline.checkpoint_bytes(plain_ckpt) == pipeline.checkpoint_bytes(traced_ckpt)
    tally.check(same, "traced checkpoint differs from the untraced one")
    overhead = float(np.percentile(np.array(m.step_ms) * m.factors["step"], 50)
                     - np.percentile(np.array(plain.step_ms) * plain.step_scale, 50))
    if spans_path is not None:
        tracer.write(spans_path)
    details = {"spans": len(tracer.spans), "checkpoints_identical": same,
               "speed_factor": cal.median()}
    return tally, per_layer(tracer, m, m.steps_run, overhead, cal.median()), details
