"""The benchmark's workloads: set-up, one fixed pass of ops, and output checks.

Every workload is a closed loop with one client in this process. All inputs
come from the workload seed. Each op has a kind: ``primary`` and
``secondary`` op times are reported separately. The program is called through
module attributes at call time (``cli.main``, ``tester.run_tester``), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from knncheck import cli, core, exact, generators, graphio, tester

K = 10
EPSILON = 0.01


@dataclass
class Op:
    kind: str  # "primary" or "secondary"
    key: tuple  # (input, seed): equal keys must give equal outputs
    run: Callable[[], object]  # the timed call
    check: Callable[[object], list[str]]  # failures; runs outside the timed region


def derived_seeds(seed: int, tag: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, tag]).generate_state(count, np.uint32)
    return [int(s) for s in state]


def points_for(seed: int, tag: int, n: int, delta: int) -> np.ndarray:
    return np.random.default_rng([seed, tag]).random((n, delta))


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def evidence_failures(g, evidence: dict, k: int) -> list[str]:
    """Checks rejection evidence against ground truth with exact.witnesses_of."""
    v = evidence["vertex"]
    if evidence["reason"] == "low-degree":
        return [] if g.degree(v) < k else [f"low-degree evidence at {v} has degree {g.degree(v)}"]
    u = evidence["witness"]
    nbrs = g.neighbors(v)
    if u is None or u == v or u in set(nbrs.tolist()):
        return [f"witness {u} of vertex {v} is not a non-neighbor"]
    rk = sorted(core.dist2(g.coord(v), g.coord(w)) for w in nbrs)[k - 1]
    if not core.dist2(g.coord(v), g.coord(u)) < rk:
        return [f"witness {u} is not inside the k-th neighbor distance of {v}"]
    if not exact.witnesses_of(g, v, k).incomplete:
        return [f"vertex {v} is complete under ground truth"]
    return []


class Workload:
    name = ""
    setup_repeats = 1  # set-ups per run; setup_s is their median
    # what primary_p50_s, secondary_p50_s and secondary_p90_s mean in this workload
    aliases: dict[str, str] = {}

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.records: dict[tuple, object] = {}  # key -> recorded output
        self.reads: dict[tuple, tuple[float, int]] = {}  # key -> (sum of reads/edge, runs)

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def inputs(self) -> dict:
        raise NotImplementedError

    def record(self, key: tuple, output) -> list[str]:
        """Record the output of (input, seed); later runs of the key must match it."""
        if key not in self.records:
            self.records[key] = output
            return []
        if self.records[key] != output:
            return [f"{key}: output differs from the recorded one"]
        return []

    def reads_per_edge(self) -> float:
        """Mean reads per edge over the distinct (input, seed) tester runs of the pass."""
        total = sum(r for r, _ in self.reads.values())
        runs = sum(c for _, c in self.reads.values())
        return total / runs


class FileVerify(Workload):
    """A user checking an index file: `knncheck test` and `generate corrupt` on .knng files."""

    name = "file_verify"
    n, delta = 32768, 2
    setup_repeats = 1  # one set-up builds an exact n=32768 graph, about 20 s
    aliases = {
        "primary_p50_s": "cli_test_p50_s",
        "secondary_p50_s": "cli_corrupt_p50_s",
        "secondary_p90_s": "cli_corrupt_p90_s",
    }

    def setup(self) -> None:
        corrupt_seed, = derived_seeds(self.seed, 1, 1)
        g = exact.build_exact_knn_graph(points_for(self.seed, 0, self.n, self.delta), K)
        bad = generators.corrupt_edges(g, 0.001, corrupt_seed)
        self.exact_path = str(self.work / "exact.knng")
        self.bad_path = str(self.work / "corrupted.knng")
        graphio.write_knng(g, self.exact_path)
        graphio.write_knng(bad, self.bad_path)
        self.graphs = {self.exact_path: g, self.bad_path: bad}
        self.references: dict[tuple, object] = {}

    def inputs(self) -> dict:
        return {
            "n": self.n, "delta": self.delta, "k": K, "seed": self.seed,
            "knng_bytes": {Path(p).name: Path(p).stat().st_size for p in self.graphs},
        }

    def ops(self) -> list[Op]:
        test_seeds = derived_seeds(self.seed, 2, 3)
        corrupt_seeds = derived_seeds(self.seed, 3, 3)
        files = [self.exact_path, self.bad_path, self.exact_path]
        ops = []
        for path, ts, cs in zip(files, test_seeds, corrupt_seeds):
            ops.append(self._test_op(path, ts))
            ops.append(self._corrupt_op(cs))
        return ops

    def _test_op(self, path: str, seed: int) -> Op:
        argv = ["test", path, "--k", str(K), "--epsilon", str(EPSILON), "--mode", "experiment",
                "--c1", "0.1", "--c2", "5", "--seed", str(seed), "--json"]
        key = ("test", Path(path).name, seed)

        def check(result) -> list[str]:
            code, out = result
            verdict = json.loads(out)
            g = self.graphs[path]
            if key not in self.references:
                cfg = tester.TesterConfig(k=K, epsilon=EPSILON, delta=self.delta,
                                          mode="experiment", c1=0.1, c2=5.0, seed=seed)
                self.references[key] = tester.run_tester(core.OracleSession(g), cfg).to_json_dict()
            fails = self.record(key, verdict)
            if verdict != self.references[key]:
                fails.append(f"{key}: CLI verdict differs from the library verdict")
            if code != (0 if verdict["decision"] == "accept" else 3):
                fails.append(f"{key}: exit code {code} for {verdict['decision']}")
            if path == self.exact_path and verdict["decision"] != "accept":
                fails.append(f"{key}: exact k-NN graph rejected")
            if verdict["decision"] == "reject":
                fails += evidence_failures(g, verdict["evidence"], K)
            self.reads[key] = (verdict["queries"]["total"] / (g.n * K), 1)
            return fails

        return Op("primary", key, lambda: call_cli(argv), check)

    def _corrupt_op(self, seed: int) -> Op:
        out_path = self.work / f"corrupt-{seed}.knng"
        argv = ["generate", "corrupt", self.exact_path, "--fraction", "0.01",
                "--seed", str(seed), "-o", str(out_path)]
        key = ("corrupt", seed)

        def check(result) -> list[str]:
            code, _ = result
            if code != 0:
                return [f"{key}: exit code {code}"]
            digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
            if key in self.records:
                return self.record(key, digest)
            fails = self.record(key, digest)
            expected = generators.corrupt_edges(self.graphs[self.exact_path], 0.01, seed)
            if not graphio.read_knng(out_path).equals(expected):
                fails.append(f"{key}: written graph differs from corrupt_edges")
            return fails

        return Op("secondary", key, lambda: call_cli(argv), check)


class TesterTheory(Workload):
    """Theory-mode tester runs on in-memory graphs: accept on the exact graph, reject on a corrupted one."""

    name = "tester_theory"
    n, delta = 16384, 2
    setup_repeats = 2
    aliases = {
        "primary_p50_s": "theory_accept_p50_s",
        "secondary_p50_s": "theory_reject_p50_s",
        "secondary_p90_s": "theory_reject_p90_s",
    }

    def setup(self) -> None:
        corrupt_seed, = derived_seeds(self.seed, 1, 1)
        self.exact_graph = exact.build_exact_knn_graph(points_for(self.seed, 0, self.n, self.delta), K)
        self.bad_graph = generators.corrupt_edges(self.exact_graph, 0.001, corrupt_seed)

    def inputs(self) -> dict:
        return {
            "n": self.n, "delta": self.delta, "k": K, "seed": self.seed,
            "knng_bytes": {
                name: len(graphio.graph_to_text(g).encode("utf-8"))
                for name, g in (("exact", self.exact_graph), ("corrupted", self.bad_graph))
            },
        }

    def ops(self) -> list[Op]:
        # 6 accept and 150 reject runs, each (graph, seed) twice so that the
        # second run checks the first. The reject p90 has 15 samples above it.
        accept_seeds = derived_seeds(self.seed, 2, 3)
        reject_seeds = derived_seeds(self.seed, 3, 75)
        ops = []
        for _ in range(2):
            for j, accept_seed in enumerate(accept_seeds):
                ops.append(self._op("primary", self.exact_graph, accept_seed))
                ops += [self._op("secondary", self.bad_graph, s) for s in reject_seeds[25 * j:25 * j + 25]]
        return ops

    def _op(self, kind: str, g, seed: int) -> Op:
        key = (kind, seed)

        def run():
            cfg = tester.TesterConfig(k=K, epsilon=EPSILON, delta=self.delta, mode="theory", seed=seed)
            return tester.run_tester(core.OracleSession(g), cfg)

        def check(verdict) -> list[str]:
            out = verdict.to_json_dict()
            fails = self.record(key, out)
            if g is self.exact_graph and verdict.decision != "accept":
                fails.append(f"{key}: exact k-NN graph rejected")
            if verdict.decision == "reject":
                fails += evidence_failures(g, out["evidence"], K)
            self.reads[key] = (verdict.queries.total / (g.n * K), 1)
            return fails

        return Op(kind, key, run, check)


class Sweep(Workload):
    """`knncheck sweep`: exact ground truth, corruption, bucketing and tester runs per instance."""

    name = "sweep"
    grid = [[0.01, 0.5], [0.1, 5.0], [0.5, 10.0]]
    fractions = [0.0009, 0.0045, 0.009, 0.018, 0.09]
    # near the geometric means of neighbouring distances the fractions produce
    bucket_bounds = [0.002, 0.006, 0.012, 0.04]
    corruptions = 4
    datasets = (
        ("primary", {"n": 16384, "delta": 2, "distribution": "uniform"}),
        ("secondary", {"n": 4096, "delta": 8, "distribution": "gaussian-mixture"}),
    )
    setup_repeats = 5
    aliases = {
        "primary_p50_s": "sweep_uniform_s",
        "secondary_p50_s": "sweep_delta8_s",
        "secondary_p90_s": "sweep_delta8_p90_s",
    }

    def setup(self) -> None:
        dataset_seeds = derived_seeds(self.seed, 1, len(self.datasets))
        self.configs = []
        for (kind, spec), ds in zip(self.datasets, dataset_seeds):
            config = {
                "k": K, "epsilon": EPSILON, "grid": self.grid,
                "datasets": [dict(spec, fractions=self.fractions, seeds=[ds],
                                  corruptions_per_fraction=self.corruptions)],
                "bucket_bounds": self.bucket_bounds, "trials_per_cell": 1, "min_bucket": 1,
            }
            path = self.work / f"sweep-{kind}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.configs.append((kind, path, self._expected_census(spec["n"])))

    def _expected_census(self, n: int) -> dict:
        """Instances per bucket: corrupt_edges replaces ceil(f*n*k) true neighbors,
        so each instance sits at distance ceil(f*n*k)/(n*k), give or take one edit."""
        edges = [0.0] + self.bucket_bounds + [math.inf]
        census = {}
        for f in self.fractions:
            d = math.ceil(f * n * K) / (n * K)
            b = next(i for i in range(len(edges) - 1) if edges[i] < d <= edges[i + 1])
            census[b] = census.get(b, 0) + self.corruptions
        return {(edges[b], edges[b + 1]): count for b, count in census.items()}

    def inputs(self) -> dict:
        return {
            "datasets": [dict(spec, k=K) for _, spec in self.datasets],
            "seed": self.seed,
            "knng_bytes": None,
        }

    def ops(self) -> list[Op]:
        sweep_seeds = derived_seeds(self.seed, 2, len(self.configs))
        return [self._op(kind, path, census, s)
                for (kind, path, census), s in zip(self.configs, sweep_seeds)]

    def _op(self, kind: str, config: Path, census: dict, seed: int) -> Op:
        csv_path = self.work / f"report-{kind}.csv"
        json_path = self.work / f"report-{kind}.json"
        argv = ["sweep", "--config", str(config), "-o", str(csv_path),
                "--json", str(json_path), "--seed", str(seed)]
        key = (kind, seed)

        def check(result) -> list[str]:
            code, _ = result
            if code != 0:
                return [f"{key}: exit code {code}"]
            data = json_path.read_bytes()
            fails = self.record(key, hashlib.sha256(data).hexdigest())
            rows = json.loads(data)["rows"]
            for c1, c2 in self.grid:
                got = {
                    (r["bucket_lo"], math.inf if r["bucket_hi"] is None else r["bucket_hi"]): r["instances"]
                    for r in rows if (r["c1"], r["c2"]) == (c1, c2)
                }
                if got != census:
                    fails.append(f"{key}: cell ({c1}, {c2}) census {got} != recorded {census}")
            runs = sum(r["instances"] for r in rows)
            self.reads[key] = (sum(r["instances"] * r["mean_ratio"] for r in rows), runs)
            return fails

        return Op(kind, key, lambda: call_cli(argv), check)


WORKLOADS = {w.name: w for w in (FileVerify, TesterTheory, Sweep)}
