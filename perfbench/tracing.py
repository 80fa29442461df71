"""Spans and counters recorded from outside the program.

A ``Tracer`` replaces the module attributes through which zsih looks up
its public functions (``pipeline.batch_loss``, ``objective.forward_multimodal``,
``layers.attention_pool`` ...) with timing wrappers, so the benchmark drives
exactly the same ``pipeline.train``, ``encode_features`` and ``evaluate``
calls as an untraced run.  Spans stay in memory and are written out once
at the end.  The backward pass runs as closures inside ``Node.backward``
and cannot be split by layer from here; ``objective.estimate_gradients``
is timed as one span.
"""

import gc
import gzip
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute looked up by the caller, span name).  The span name
# uses the module that defines the function.
TRACED_CALLS = (
    ("pipeline", "sample_batch", "pipeline.sample_batch"),
    ("pipeline", "build_adjacency", "pipeline.build_adjacency"),
    ("pipeline", "batch_loss", "objective.batch_loss"),
    ("pipeline", "estimate_gradients", "objective.estimate_gradients"),
    ("pipeline", "adam_step", "objective.adam_step"),
    ("objective", "forward_multimodal", "model.forward_multimodal"),
    ("layers", "attention_pool", "layers.attention_pool"),
    ("layers", "fuse", "layers.fuse"),
    ("layers", "graph_conv", "layers.graph_conv"),
    ("layers", "encode_soft", "layers.encode_soft"),
    ("layers", "stochastic_neurons", "layers.stochastic_neurons"),
    ("layers", "log_q", "layers.log_q"),
    ("layers", "log_p_gaussian", "layers.log_p_gaussian"),
    ("model", "encode_features", "model.encode_features"),
    ("data", "load_features", "data.load_features"),
    ("retrieval", "binarize", "retrieval.binarize"),
    ("retrieval", "save_codes", "retrieval.save_codes"),
    ("retrieval", "load_codes", "retrieval.load_codes"),
    ("retrieval", "hamming_rank", "retrieval.hamming_rank"),
    ("retrieval", "evaluate", "retrieval.evaluate"),
    ("retrieval", "format_report", "retrieval.format_report"),
    ("retrieval", "write_pr_dump", "retrieval.write_pr_dump"),
)

NAME, START, END, PARENT, WHERE = range(5)


class Tracer:
    """In-memory spans, autodiff ``Node`` constructions and gc pauses.

    ``where`` is the (phase, index) the benchmark is in, such as
    ("train", step) or ("query", i); every span, Node and collection is
    attributed to the value it holds at the time.
    """

    def __init__(self):
        self.spans = []   # [name, start, end, parent span or -1, where]
        self.where = None
        self.nodes = defaultdict(int)   # where -> Node constructions
        self.gc_pauses = []             # (where, seconds)
        self._stack = []
        self._gc_start = None

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.where]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pauses.append((self.where, time.perf_counter() - self._gc_start))
            self._gc_start = None

    @contextmanager
    def installed(self, modules):
        """Trace every call in TRACED_CALLS while the block runs.

        ``modules`` maps the short module names above to the imported
        zsih modules; ``modules["autodiff"].Node`` gets a counting
        constructor.
        """
        saved = []
        node_cls = modules["autodiff"].Node
        node_init = node_cls.__init__
        nodes = self.nodes

        def counting_init(node, *args, **kwargs):
            nodes[self.where] += 1
            node_init(node, *args, **kwargs)

        try:
            for module_name, attr, span_name in TRACED_CALLS:
                module = modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original))
            node_cls.__init__ = counting_init
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            node_cls.__init__ = node_init
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.where = None

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path):
        """Spans as gzipped TSV, times in seconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        own = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("span\tname\tstart_s\tend_s\tself_s\tparent\tphase\tindex\n")
            for i, s in enumerate(self.spans):
                phase, index = s[WHERE] if s[WHERE] is not None else ("", "")
                f.write(f"{i}\t{s[NAME]}\t{s[START] - origin:.9f}\t"
                        f"{s[END] - origin:.9f}\t{own[i]:.9f}\t{s[PARENT]}\t"
                        f"{phase}\t{index}\n")
