"""Command line interface.

Exit codes: 0 success (for `test`: accept), 3 reject, 64 usage error,
65 malformed data, 66 missing or unreadable input, 71 out of memory,
73 output not written.
JSON and CSV outputs contain no timestamps or timings, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .core import EdgeBudget, OracleSession
from .exact import build_exact_knn_graph, epsilon_distance
from .generators import (
    corrupt_edges,
    dimension_lb_instances,
    line_gadget,
    sample_d1,
    sample_d2,
    tight_witness_construction,
)
from .adversary import estimate_collision_probability
from .graphio import KnngFormatError, read_knng, write_knng
from .harness import export_report, run_sweep, sweep_config_from_json
from .tester import TesterConfig, run_tester

EX_OK = 0
EX_REJECT = 3
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_OSERR = 71
EX_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


class _OutputError(Exception):
    """An output file could not be written."""


class _DataError(Exception):
    """An input file holds malformed data."""


def _write(write, *args, **kwargs) -> None:
    """Call ``write(*args, **kwargs)``; an OSError it raises becomes an _OutputError."""
    try:
        write(*args, **kwargs)
    except OSError as exc:
        raise _OutputError(exc) from exc


def _print(text: str) -> None:
    """Print ``text`` to stdout and flush it; a failed write becomes an _OutputError."""
    _write(print, text, flush=True)


def _print_json(obj) -> None:
    _print(json.dumps(obj, indent=2, sort_keys=True))


def _load_points(path: str) -> np.ndarray:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        # the delimiter comes from the first line with data; np.loadtxt drops "#" comments
        first = next(filter(str.strip, (line.split("#", 1)[0] for line in lines)), None)
        if first is None:
            raise ValueError("no points")
        pts = np.loadtxt(lines, delimiter="," if "," in first else None, dtype=np.float64, ndmin=2)
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
    except ValueError as exc:
        raise _DataError(f"{path}: {exc}") from None
    return pts


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="knncheck", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distance", help="exact distance of a graph to the k-NN property")
    d.add_argument("graph")
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--d", type=float, default=None, help="degree bound; default |E|/n")

    b = sub.add_parser("build-knn", help="exact k-NN graph of a CSV point set")
    b.add_argument("points")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("-o", "--output", required=True)

    t = sub.add_parser("test", help="run the sublinear property tester once")
    t.add_argument("graph")
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--epsilon", type=float, required=True)
    t.add_argument("--mode", choices=["theory", "experiment"], default="theory")
    t.add_argument("--c1", type=float, default=None)
    t.add_argument("--c2", type=float, default=None)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--degree-cap", type=int, default=None)
    t.add_argument("--json", action="store_true")

    g = sub.add_parser("generate", help="constructive instance generators")
    gsub = g.add_subparsers(dest="generator", required=True)

    g1 = gsub.add_parser("d1", help="gadget graph that is a k-NN graph")
    g1.add_argument("--n", type=int, required=True)
    g1.add_argument("--k", type=int, required=True)
    g1.add_argument("--seed", type=int, default=0)
    g1.add_argument("-o", "--output", required=True)

    g2 = gsub.add_parser("d2", help="gadget graph far from the property")
    g2.add_argument("--n", type=int, required=True)
    g2.add_argument("--k", type=int, required=True)
    g2.add_argument("--epsilon", type=float, required=True,
                    help="in (0, floor(m/2)/m], at most 1/2, for m = n/(k+1) gadgets: the "
                         "2*ceil(epsilon*n/(k+1)) relocation sources and targets are distinct")
    g2.add_argument("--seed", type=int, default=0)
    g2.add_argument("-o", "--output", required=True)

    gg = gsub.add_parser("gadget", help="single line gadget")
    gg.add_argument("--x", type=float, default=0.0)
    gg.add_argument("--k", type=int, required=True)
    gg.add_argument("--delta", type=int, default=1)
    gg.add_argument("-o", "--output", required=True)

    gt = gsub.add_parser("tight", help="point set attaining the k*psi_delta sharing bound")
    gt.add_argument("--delta", type=int, required=True, choices=[1, 3])
    gt.add_argument("--k", type=int, required=True)
    gt.add_argument("-o", "--output", required=True)

    gl = gsub.add_parser("dimlb", help="stale/exact pair from perturbed split clusters")
    gl.add_argument("--k", type=int, required=True)
    gl.add_argument("--epsilon", type=float, required=True)
    gl.add_argument("--c", type=int, required=True)
    gl.add_argument("-o", "--output", required=True)

    gc = gsub.add_parser("corrupt", help="replace a fraction of adjacency slots at random")
    gc.add_argument("graph")
    gc.add_argument("--fraction", type=float, required=True)
    gc.add_argument("--k", type=int, default=None)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("-o", "--output", required=True)

    a = sub.add_parser("adversary", help="duplicate-reveal probability at a query budget")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--epsilon", type=float, required=True)
    a.add_argument("--budget", type=int, required=True)
    a.add_argument("--trials", type=int, required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--json", action="store_true")

    s = sub.add_parser("sweep", help="recall/query sweep over a (c1, c2) grid")
    s.add_argument("--config", required=True)
    s.add_argument("-o", "--output", required=True, help="CSV report path")
    s.add_argument("--json", default=None, help="also write a JSON report here")
    s.add_argument("--seed", type=int, default=0)

    return p


def _cmd_distance(args) -> int:
    g = read_knng(args.graph)
    budget = EdgeBudget.provided(args.d) if args.d is not None else EdgeBudget.computed(g)
    report = epsilon_distance(g, args.k, budget)
    _print_json(
        {
            "min_edits": report.min_edits,
            "epsilon_distance": report.epsilon_distance,
            "incomplete_count": report.incomplete_count,
            "d": budget.d,
            "d_source": budget.source,
        }
    )
    return EX_OK


def _cmd_build_knn(args) -> int:
    _write(write_knng, build_exact_knn_graph(_load_points(args.points), args.k), args.output)
    _print_json({"output": args.output})
    return EX_OK


def _cmd_test(args) -> int:
    g = read_knng(args.graph)
    cfg = TesterConfig(
        k=args.k,
        epsilon=args.epsilon,
        delta=g.delta,
        mode=args.mode,
        c1=args.c1,
        c2=args.c2,
        seed=args.seed,
        degree_cap_override=args.degree_cap,
    )
    verdict = run_tester(OracleSession(g), cfg)
    if args.json:
        _print_json(verdict.to_json_dict())
    else:
        q = verdict.queries
        _print(
            f"{verdict.decision}: |S'|={verdict.s_prime_size} |S|={verdict.s_size} "
            f"|T|={verdict.t_size} queries={q.total} "
            f"(neighbor={q.neighbor} degree={q.degree} coord={q.coord}) "
            f"elapsed={verdict.elapsed:.3f}s"
        )
        if verdict.evidence is not None:
            e = verdict.evidence
            _print(f"evidence: vertex={e.vertex} witness={e.witness} reason={e.reason}")
    return EX_OK if verdict.decision == "accept" else EX_REJECT


def _cmd_generate(args) -> int:
    if args.generator == "d1":
        g = sample_d1(args.n, args.k, args.seed)
    elif args.generator == "d2":
        g = sample_d2(args.n, args.k, args.epsilon, args.seed)
    elif args.generator == "gadget":
        g = line_gadget(args.x, args.k, args.delta)
    elif args.generator == "tight":
        g, focal = tight_witness_construction(args.delta, args.k)
        _write(write_knng, g, args.output)
        _print_json({"output": args.output, "n": g.n, "focal": focal})
        return EX_OK
    elif args.generator == "dimlb":
        far, exact_g = dimension_lb_instances(args.k, args.epsilon, args.c)
        far_path = Path(args.output)
        exact_path = far_path.with_suffix(".exact.knng")
        _write(write_knng, far, far_path)
        _write(write_knng, exact_g, exact_path)
        _print_json({"far": str(far_path), "exact": str(exact_path), "n_far": far.n})
        return EX_OK
    elif args.generator == "corrupt":
        g = corrupt_edges(read_knng(args.graph), args.fraction, args.seed, k=args.k)
    else:  # pragma: no cover - argparse enforces choices
        raise ValueError(args.generator)
    _write(write_knng, g, args.output)
    _print_json({"output": args.output, "n": g.n})
    return EX_OK


def _cmd_adversary(args) -> int:
    p_hat, stderr = estimate_collision_probability(
        args.n, args.k, args.epsilon, args.budget, args.trials, args.seed
    )
    bound = args.budget**2 * args.epsilon * (args.k + 1) / args.n
    out = {
        "p_hat": p_hat,
        "stderr": stderr,
        "budget": args.budget,
        "trials": args.trials,
        "union_bound": bound,
    }
    if args.json:
        _print_json(out)
    else:
        _print(f"p_hat={p_hat} stderr={stderr} union_bound={bound}")
    return EX_OK


def _cmd_sweep(args) -> int:
    cfg = sweep_config_from_json(Path(args.config).read_text(encoding="utf-8"))
    report = run_sweep(cfg, args.seed)
    _write(Path(args.output).write_bytes, export_report(report, "csv"))
    if args.json:
        _write(Path(args.json).write_bytes, export_report(report, "json"))
    _print_json({"rows": len(report.rows), "csv": args.output, "json": args.json})
    return EX_OK


_COMMANDS = {
    "distance": _cmd_distance,
    "build-knn": _cmd_build_knn,
    "test": _cmd_test,
    "generate": _cmd_generate,
    "adversary": _cmd_adversary,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (KnngFormatError, _DataError) as exc:
        print(f"knncheck: {exc}", file=sys.stderr)
        return EX_DATAERR
    except _OutputError as exc:
        print(f"knncheck: {exc}", file=sys.stderr)
        return EX_CANTCREAT
    except OSError as exc:
        print(f"knncheck: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except MemoryError as exc:
        print(f"knncheck: out of memory: {exc}", file=sys.stderr)
        return EX_OSERR
    except (ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"knncheck: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
