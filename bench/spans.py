"""Span tracing from outside the library, and the per-layer metrics derived from it.

``Tracer`` wraps public functions under the module name where their caller
looks them up (``perronkit.spectral.power_method``, not
``perronkit.power_method``), records one span per call and restores the
originals on exit.  Spans stay in memory until the run writes them out.
The run is single-threaded (PERRONKIT_THREADS unset), so a plain stack
gives each span its parent.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module where the caller looks the name up, attribute, span name, count).
# count(args, result) records work done at the boundary.
WRAPS = (
    ("perronkit.perron", "classify", "perron.classify", None),
    ("perronkit.perron", "block_spectra", "spectral.block_spectra", None),
    ("perronkit.perron", "apply", "tensor.apply", lambda args, res: args[0].nnz),
    ("perronkit.spectral", "canonical_partition", "partition.canonical_partition",
     lambda args, res: len(res.blocks)),
    ("perronkit.spectral", "principal_subtensor", "tensor.principal_subtensor", None),
    ("perronkit.spectral", "power_method", "spectral.power_method",
     lambda args, res: res.iterations),
    ("perronkit.spectral", "apply", "tensor.apply", lambda args, res: args[0].nnz),
    ("perronkit.partition", "majorization", "graph.majorization", None),
    ("perronkit.partition", "scc_condensation", "graph.scc_condensation", None),
    ("perronkit.partition", "principal_subtensor", "tensor.principal_subtensor", None),
    ("perronkit.partition", "is_genuine", "partition.is_genuine", None),
)

ROOT = "perron.positive_perron_vector"
READ = "tensor.read_tensor"

# A span is [solve id, span id, parent id or -1, name, start, end, count].
SOLVE, ID, PARENT, NAME, START, END, COUNT = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.solve = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for modname, attr, name, count in WRAPS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)

        return traced

    def call(self, name, fn, *args, count=None, **kwargs):
        """Call fn, recording a span; the benchmark uses it for its own root calls."""
        span = [self.solve, len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, 0]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        if count is not None:
            span[COUNT] = count(args, result)
        return result

    def write(self, path) -> None:
        keys = ("solve", "id", "parent", "name", "start", "end", "count")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def layer_metrics(spans: list[list], solves: int, fp_useful: int) -> dict[str, float]:
    """Per-solve layer times and counts: totals over the traced solves / solves.

    A span's self time is its duration minus its children's, which run one
    after another.  ``spectral.s`` is block_spectra without the partition it
    delegates to; ``perron.fp_s`` is the root solve span after classify returns.
    ``fp_useful`` counts the fixed-point ``apply`` calls a solve cannot avoid,
    iterations + 1 summed over the strong solves; ``perron.fp_useful_ratio``
    divides it by the calls made, so aborted gamma restarts lower it.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    time = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    partition_under_spectra = 0.0
    slowest_block: dict[int, float] = defaultdict(float)
    fp_time = 0.0
    fp_applies = 0
    root_of: dict[int, list] = {}
    for s in spans:
        dur = s[END] - s[START]
        name = s[NAME]
        time[name] += dur
        self_time[name] += dur - child_time[s[ID]]
        calls[name] += 1
        counts[name] += s[COUNT]
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if name == ROOT:
            root_of[s[SOLVE]] = s
        elif name == "spectral.power_method":
            slowest_block[s[SOLVE]] = max(slowest_block[s[SOLVE]], dur)
        elif name == "partition.canonical_partition" and parent and parent[NAME] == "spectral.block_spectra":
            partition_under_spectra += dur
        elif name == "tensor.apply" and parent and parent[NAME] == ROOT:
            fp_applies += 1
    for s in spans:
        if s[NAME] == "perron.classify":
            fp_time += root_of[s[SOLVE]][END] - s[END]

    raw = {
        "tensor.read_s": time[READ],
        "tensor.subtensor_s": time["tensor.principal_subtensor"],
        "tensor.subtensor_calls": calls["tensor.principal_subtensor"],
        "tensor.apply_s": time["tensor.apply"],
        "tensor.apply_calls": calls["tensor.apply"],
        "tensor.apply_entries": counts["tensor.apply"],
        "graph.majorization_s": time["graph.majorization"],
        "graph.majorization_calls": calls["graph.majorization"],
        "graph.scc_s": time["graph.scc_condensation"],
        "partition.s": time["partition.canonical_partition"],
        "partition.self_s": self_time["partition.canonical_partition"],
        "partition.is_genuine_s": time["partition.is_genuine"],
        "partition.blocks": counts["partition.canonical_partition"],
        "spectral.s": time["spectral.block_spectra"] - partition_under_spectra,
        "spectral.pm_s": time["spectral.power_method"],
        "spectral.pm_self_s": self_time["spectral.power_method"],
        "spectral.pm_calls": calls["spectral.power_method"],
        "spectral.pm_iterations": counts["spectral.power_method"],
        "spectral.pm_max_block_s": sum(slowest_block.values()),
        "perron.classify_self_s": self_time["perron.classify"],
        "perron.fp_s": fp_time,
        "perron.fp_apply_calls": fp_applies,
    }
    metrics = {k: v / solves for k, v in raw.items()}
    metrics["perron.fp_useful_ratio"] = fp_useful / fp_applies if fp_applies else 0.0
    return metrics
