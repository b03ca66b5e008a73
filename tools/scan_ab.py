"""In-process A/B timing of two knncheck checkouts, with identical outputs checked.

Loads ``A/src/knncheck`` and ``B/src/knncheck`` side by side as the packages
``knncheck_a`` and ``knncheck_b``, runs each case on both in rounds that
alternate which side goes first, and prints per case the median [quartiles]
of the round times on each side, the median of the per-round ratios B/A and
whether every output was identical: verdict JSON (decision, evidence, sizes,
tallies) for tester runs, the sha256 of the CSV and JSON bytes for sweeps and
of every array for profiles. It exits 1 if any output differs.

    python3 tools/scan_ab.py PARENT_TREE CHANGED_TREE --rounds 15
    python3 tools/scan_ab.py PARENT_TREE CHANGED_TREE --cases theory-reject sweep-uniform

Inputs are the benchmark's shapes: uniform points on [0,1)^delta from a fixed
seed, k=10, epsilon=0.01, and the sweep's datasets. If side B's tester has
``_first_marked`` (the leaf path's search for a stop row's first witness draw),
the tester and sweep cases also report the share of B's witness stops that its
probe resolved, as those that never called it. The counting wraps two calls
per stop, inside B's timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

K, EPSILON = 10, 0.01


def load(root: Path, name: str):
    """The package at root/src/knncheck, imported as ``name``."""
    init = root / "src" / "knncheck" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def uniform(n, delta, seed=1):
    return np.random.default_rng(seed).random((n, delta))


def mixture(n, delta, seed=1):
    rng = np.random.default_rng(seed)
    return rng.random((8, delta))[rng.integers(0, 8, size=n)] + rng.normal(0.0, 0.05, size=(n, delta))


class StopCount:
    """Counts, while active, the witness stops of side B's tester and those its leaf path found.

    Witness stops are counted at the evidence check, leaf stops at ``_first_marked``;
    the rest the probe resolved. Inactive on a tester without ``_first_marked``.
    """

    def __init__(self):
        self.stops = self.leaves = 0

    @contextlib.contextmanager
    def on(self, pkg):
        tester = pkg.tester
        search, confirm = getattr(tester, "_first_marked", None), tester._evidence_confirmed
        if search is None:
            yield
            return

        def counted_search(*args):
            self.leaves += 1
            return search(*args)

        def counted_confirm(g, ev, k):
            self.stops += ev.reason == "witness"
            return confirm(g, ev, k)

        tester._first_marked, tester._evidence_confirmed = counted_search, counted_confirm
        try:
            yield
        finally:
            tester._first_marked, tester._evidence_confirmed = search, confirm


class TesterCase:
    """Tester runs over one graph, built once by side A and shared by both sides."""

    def __init__(self, pts, fraction, seeds, **cfg):
        self.pts, self.fraction, self.seeds, self.cfg = pts, fraction, seeds, cfg
        self.graphs = {}

    def setup(self, pkg):
        if not self.graphs:
            g = pkg.exact.build_exact_knn_graph(self.pts, K)
            self.arrays = (g.coords, g.indptr, pkg.generators.corrupt_edges(g, self.fraction, 7).indices
                           if self.fraction else g.indices)
        self.graphs[pkg.__name__] = pkg.core.GeometricGraph._of_valid_rows(*self.arrays, K)
        self.run(pkg)  # the first two runs record the coordinate array and build its index
        self.run(pkg)

    def run(self, pkg):
        g, tester = self.graphs[pkg.__name__], pkg.tester
        out = [tester.run_tester(pkg.core.OracleSession(g),
                                 tester.TesterConfig(k=K, epsilon=EPSILON, delta=g.delta, seed=seed, **self.cfg))
               .to_json_dict() for seed in self.seeds]
        return json.dumps(out)


class SweepCase:
    """``harness.run_sweep`` on one of the benchmark's sweep datasets; output is the CSV and JSON bytes."""

    def __init__(self, **spec):
        self.spec = spec

    def setup(self, pkg):
        pass

    def run(self, pkg):
        h = pkg.harness
        data = dict(n=self.spec["n"], delta=self.spec["delta"], distribution=self.spec["distribution"],
                    fractions=(0.0009, 0.0045, 0.009, 0.018, 0.09), seeds=(11,), corruptions_per_fraction=4)
        cfg = h.SweepConfig(k=K, grid=((0.01, 0.5), (0.1, 5.0), (0.5, 10.0)), datasets=(h.DatasetSpec(**data),),
                            bucket_bounds=(0.002, 0.006, 0.012, 0.04), min_bucket=1)
        report = h.run_sweep(cfg, 5)
        return hashlib.sha256(h.export_report(report, "csv") + h.export_report(report, "json")).hexdigest()


class ProfileCase:
    """One ``NeighborhoodProfile`` build; output is the sha256 of its arrays."""

    def __init__(self, pts):
        self.pts = pts

    def setup(self, pkg):
        pass

    def run(self, pkg):
        p = pkg.exact.NeighborhoodProfile(self.pts, K)
        arrays = (p.kth, p.knn, p.inside_indptr, p.inside_indices, p.at_indptr, p.at_indices)
        return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def cases():
    theory = dict(mode="theory")
    return {
        "theory-reject": lambda: TesterCase(uniform(16384, 2), 0.001, range(100, 125), **theory),
        "theory-accept": lambda: TesterCase(uniform(16384, 2), 0.0, range(3), **theory),
        "theory-accept-d8": lambda: TesterCase(uniform(16384, 8), 0.0, range(1), **theory),
        "theory-accept-d16": lambda: TesterCase(uniform(8192, 16), 0.0, range(1), **theory),
        "experiment-accept-d32": lambda: TesterCase(uniform(8192, 32), 0.0, range(1),
                                                    mode="experiment", c1=0.1, c2=5.0),
        "sweep-uniform": lambda: SweepCase(n=16384, delta=2, distribution="uniform"),
        "sweep-mixture": lambda: SweepCase(n=4096, delta=8, distribution="gaussian-mixture"),
        "profile-d2-n65536": lambda: ProfileCase(uniform(65536, 2)),
        "profile-mixture-d8-n4096": lambda: ProfileCase(mixture(4096, 8)),
        "profile-d16-n8192": lambda: ProfileCase(uniform(8192, 16)),
    }


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="tree of side A (the parent)")
    parser.add_argument("b", type=Path, help="tree of side B (the change)")
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--cases", nargs="*", default=list(cases()), choices=list(cases()))
    args = parser.parse_args(argv)
    sides = load(args.a, "knncheck_a"), load(args.b, "knncheck_b")
    same_everywhere = True
    for name in args.cases:
        case, count = cases()[name](), StopCount()
        with np.errstate(over="ignore"):
            for pkg in sides:
                case.setup(pkg)
            times, outputs = ([], []), ([], [])
            for r in range(args.rounds):
                for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                    with count.on(sides[1]) if i else contextlib.nullcontext():
                        start = time.perf_counter()
                        outputs[i].append(case.run(sides[i]))
                        times[i].append(time.perf_counter() - start)
        same = outputs[0] == outputs[1]
        same_everywhere &= same
        ratio = statistics.median(b / a for a, b in zip(*times))
        (ma, qa1, qa3), (mb, qb1, qb3) = (quartiles([1e3 * t for t in ts]) for ts in times)
        line = (f"{name}: A {ma:.2f} [{qa1:.2f}-{qa3:.2f}] B {mb:.2f} [{qb1:.2f}-{qb3:.2f}] ms"
                f"  ratio {ratio:.3f}  B lower in {sum(b < a for a, b in zip(*times))}/{args.rounds}  same={same}")
        if count.stops:
            line += f"  probe resolved {count.stops - count.leaves}/{count.stops} witness stops"
        print(line, flush=True)
    return 0 if same_everywhere else 1


if __name__ == "__main__":
    sys.exit(main())
