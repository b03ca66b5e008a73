"""In-memory spans around the public callables of each knncheck module.

The wrappers are installed from the benchmark's side, at the attribute where
the caller looks a name up (``knncheck.cli.read_knng``, a class attribute
such as ``GeometricGraph.__post_init__``), so the program itself is not
edited. Spans stay in memory; self time is a span's duration minus the time
covered by its direct children. A boundary whose name a later version of
the program no longer has is listed as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import Counter, defaultdict

# Fields of one span (name, start, end, parent index, child seconds),
# kept as a list for low overhead.
_START, _END, _PARENT, _CHILD = range(1, 5)


def _path_size(args, kwargs, key, pos):
    path = kwargs.get(key, args[pos] if len(args) > pos else None)
    return os.path.getsize(path)


def _count_read(tr, args, kwargs, result):
    tr.counts["graphio.bytes_read"] += _path_size(args, kwargs, "path", 0)


def _count_write(tr, args, kwargs, result):
    tr.counts["graphio.bytes_written"] += _path_size(args, kwargs, "path", 1)


def _count_pairs(tr, args, kwargs, result):
    points = args[0] if args else kwargs.get("points", kwargs.get("coords"))
    tr.counts["exact.pairs"] += len(points) ** 2


def _count_slots(tr, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    fraction = args[1] if len(args) > 1 else kwargs["fraction"]
    k = kwargs.get("k", args[3] if len(args) > 3 else None)
    if k is None:
        k = g.k_hint
    tr.counts["generators.slots_replaced"] += math.ceil(fraction * g.n * k)


def _count_tester(tr, args, kwargs, result):
    from knncheck import tester

    session = args[0] if args else kwargs["session"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    n = session.graph.n
    c = tr.counts
    c["tester.runs"] += 1
    c["tester.rejects"] += result.decision == "reject"
    c["tester.reads.neighbor"] += result.queries.neighbor
    c["tester.reads.degree"] += result.queries.degree
    c["tester.reads.coord"] += result.queries.coord
    c["tester.s_prime"] += result.s_prime_size
    c["tester.s"] += result.s_size
    c["tester.t"] += result.t_size
    # the clamp |S'| = min(n, ...), seen from outside the tester
    sample_sizes = getattr(tester, "sample_sizes", None)
    if sample_sizes is None:
        tr.mark_absent("knncheck.tester.sample_sizes")
    else:
        c["tester.s_prime_clamped"] += sample_sizes(n, cfg)[0] >= n


# (module, attribute path, span name, counter hook or None)
BOUNDARIES = (
    ("knncheck.cli", "main", "cli.main", None),
    ("knncheck.cli", "read_knng", "graphio.read", _count_read),
    ("knncheck.cli", "write_knng", "graphio.write", _count_write),
    ("knncheck.graphio", "write_knng", "graphio.write", _count_write),
    ("knncheck.core", "GeometricGraph.__post_init__", "core.graph_init", None),
    ("knncheck.tester", "dist2_block", "core.dist2_block", None),
    ("knncheck.core", "OracleSession.degrees", "core.oracle", None),
    ("knncheck.core", "OracleSession.neighbors_all", "core.oracle", None),
    ("knncheck.core", "OracleSession.coords_many", "core.oracle", None),
    ("knncheck.tester", "sample_without_replacement", "sampling.swor", None),
    ("knncheck.generators", "sample_without_replacement", "sampling.swor", None),
    ("knncheck.exact", "build_exact_knn_graph", "exact.build", _count_pairs),
    ("knncheck.harness", "build_exact_knn_graph", "exact.build", _count_pairs),
    ("knncheck.harness", "NeighborhoodProfile", "exact.profile", _count_pairs),
    ("knncheck.exact", "NeighborhoodProfile.report", "exact.report", None),
    ("knncheck.generators", "corrupt_edges", "generators.corrupt", _count_slots),
    ("knncheck.cli", "corrupt_edges", "generators.corrupt", _count_slots),
    ("knncheck.harness", "corrupt_edges", "generators.corrupt", _count_slots),
    ("knncheck.tester", "run_tester", "tester.run", _count_tester),
    ("knncheck.cli", "run_tester", "tester.run", _count_tester),
    ("knncheck.harness", "run_tester", "tester.run", _count_tester),
    ("knncheck.cli", "run_sweep", "harness.sweep", None),
)

def _resolve(module_name, attr_path):
    """(owner, attribute name, original) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._targets = []
        for module_name, attr_path, span, hook in BOUNDARIES:
            found = _resolve(module_name, attr_path)
            if found is None:
                self.mark_absent(f"{module_name}.{attr_path}")
                continue
            self._targets.append((*found, self._wrapper(found[2], span, hook)))

    def _wrapper(self, original, span, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = [span, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
                if rec[_PARENT] >= 0:
                    spans[rec[_PARENT]][_CHILD] += rec[_END] - rec[_START]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def __enter__(self):
        for owner, attr, _original, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _wrapper in reversed(self._targets):
            setattr(owner, attr, original)
        return False

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _parent, child in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        t = self.totals()  # a missing span name reads as zeros
        c = self.counts

        def calls(name):
            return t[name][0]

        def total(name):
            return t[name][1]

        def self_time(name):
            return t[name][2]

        def ratio(a, b):
            return a / b if b else 0.0

        runs = c["tester.runs"]
        in_sweep = Counter(
            span[0] for span in self.spans
            if span[_PARENT] >= 0 and self.spans[span[_PARENT]][0] == "harness.sweep"
        )
        exact_s = total("exact.build") + total("exact.profile")
        return {
            "graphio.read_s": (total("graphio.read"), "s"),
            "graphio.read_self_s": (self_time("graphio.read"), "s"),
            "graphio.write_s": (total("graphio.write"), "s"),
            "graphio.bytes_read": (c["graphio.bytes_read"], "B"),
            "graphio.bytes_written": (c["graphio.bytes_written"], "B"),
            "graphio.read_mb_per_s": (
                ratio(c["graphio.bytes_read"] / 1e6, total("graphio.read")), "MB/s"),
            "core.graph_init_s": (total("core.graph_init"), "s"),
            "core.graph_init_calls": (calls("core.graph_init"), "count"),
            "core.dist2_block_s": (total("core.dist2_block"), "s"),
            "core.oracle_s": (total("core.oracle"), "s"),
            "core.oracle_calls": (calls("core.oracle"), "count"),
            "sampling.swor_s": (total("sampling.swor"), "s"),
            "exact.build_s": (total("exact.build"), "s"),
            "exact.profile_s": (total("exact.profile"), "s"),
            "exact.report_s": (total("exact.report"), "s"),
            "exact.pairs": (c["exact.pairs"], "count"),
            "exact.pairs_per_s": (ratio(c["exact.pairs"], exact_s), "1/s"),
            "generators.corrupt_s": (total("generators.corrupt"), "s"),
            "generators.slots_replaced": (c["generators.slots_replaced"], "count"),
            "tester.run_s": (total("tester.run"), "s"),
            "tester.self_s": (self_time("tester.run"), "s"),
            "tester.reads.neighbor": (ratio(c["tester.reads.neighbor"], runs), "count"),
            "tester.reads.degree": (ratio(c["tester.reads.degree"], runs), "count"),
            "tester.reads.coord": (ratio(c["tester.reads.coord"], runs), "count"),
            "tester.s_prime": (ratio(c["tester.s_prime"], runs), "count"),
            "tester.s": (ratio(c["tester.s"], runs), "count"),
            "tester.t": (ratio(c["tester.t"], runs), "count"),
            "tester.s_prime_clamped_frac": (ratio(c["tester.s_prime_clamped"], runs), "ratio"),
            "tester.reject_frac": (ratio(c["tester.rejects"], runs), "ratio"),
            "harness.sweep_self_s": (self_time("harness.sweep"), "s"),
            "harness.instances": (in_sweep["generators.corrupt"], "count"),
            "harness.tester_runs": (in_sweep["tester.run"], "count"),
            "cli.self_s": (self_time("cli.main"), "s"),
            "trace.absent_boundaries": (len(self.absent), "count"),
        }
