"""Command line interface: subcommands, exit codes, byte-stable output."""

import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import overflow_points
from knncheck import cli, harness
from knncheck.cli import main
from knncheck.exact import build_exact_knn_graph
from knncheck.generators import line_gadget
from knncheck.graphio import read_knng, write_knng


@pytest.fixture()
def knn_graph_file(tmp_path):
    pts = np.random.default_rng(0).random((64, 2))
    path = tmp_path / "exact.knng"
    write_knng(build_exact_knn_graph(pts, 3), path)
    return path


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_accept_is_zero(self, capsys, knn_graph_file):
        code, _ = _run(capsys, ["test", str(knn_graph_file), "--k", "3",
                                "--epsilon", "0.2", "--seed", "1"])
        assert code == 0

    def test_reject_is_three(self, capsys, tmp_path, knn_graph_file):
        corrupted = tmp_path / "bad.knng"
        code, _ = _run(capsys, ["generate", "corrupt", str(knn_graph_file),
                                "--fraction", "0.5", "--seed", "2", "-o", str(corrupted)])
        assert code == 0
        code, _ = _run(capsys, ["test", str(corrupted), "--k", "3",
                                "--epsilon", "0.2", "--seed", "1"])
        assert code == 3

    def test_usage_error_is_64(self, capsys):
        assert main(["test"]) == 64
        assert main(["frobnicate"]) == 64

    def test_semantic_usage_error_is_64(self, capsys, tmp_path, knn_graph_file):
        code, _ = _run(capsys, ["test", str(knn_graph_file), "--k", "100",
                                "--epsilon", "0.2"])
        assert code == 64
        # k >= n on a well-formed points file
        points = tmp_path / "points.csv"
        points.write_text("0.1,0.2\n0.3,0.4\n")
        code, _ = _run(capsys, ["build-knn", str(points), "--k", "2", "-o", str(tmp_path / "out.knng")])
        assert code == 64

    @pytest.mark.parametrize("epsilon", ["1.0", "-0.5", "0.0"])
    def test_adversary_epsilon_out_of_range_is_64(self, capsys, epsilon):
        code = main(["adversary", "--n", "44", "--k", "3", "--epsilon", epsilon,
                     "--budget", "3", "--trials", "100"])
        err = capsys.readouterr().err
        assert code == 64
        assert f"epsilon={float(epsilon)} out of range" in err
        assert err.rstrip().endswith("allow epsilon up to 5/11 = 0.45454545454545453")

    def test_malformed_sweep_config_is_64(self, capsys, tmp_path):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({
            "k": 2, "grid": [[0.5]], "bucket_bounds": [0.05], "min_bucket": 1,
            "datasets": [{"n": 32, "delta": 2, "distribution": "uniform",
                          "fractions": [0.2], "seeds": [0]}],
        }))
        csv_path = tmp_path / "report.csv"
        code = main(["sweep", "--config", str(cfg_path), "-o", str(csv_path)])
        err = capsys.readouterr().err
        assert code == 64
        assert not csv_path.exists()
        assert len(err.splitlines()) == 1 and "grid cell" in err

    @pytest.mark.parametrize("flag, value", [("--c1", "inf"), ("--c2", "inf"), ("--c1", "nan"), ("--c2", "-inf")])
    def test_non_finite_tester_constant_is_64(self, capsys, knn_graph_file, flag, value):
        code = main(["test", str(knn_graph_file), "--k", "3", "--epsilon", "0.2", "--mode", "experiment",
                     "--c1", "0.1", "--c2", "5", f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code == 64
        assert len(err.splitlines()) == 1 and f"finite positive {flag[2:]}" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, field", [
        (dict(grid=[[float("inf"), 5.0]]), "grid"),
        (dict(grid=[[0.5, float("nan")]]), "grid"),
        (dict(grid=[[0.5, -1.0]]), "grid"),
        (dict(bucket_bounds=[0.05, float("nan")]), "bucket_bounds"),
        (dict(bucket_bounds=[float("nan")]), "bucket_bounds"),
        (dict(bucket_bounds=[0.05, float("inf")]), "bucket_bounds"),
    ])
    def test_non_finite_sweep_config_is_64(self, capsys, tmp_path, edit, field):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({
            "k": 2, "grid": [[0.5, 5.0]], "bucket_bounds": [0.05], "min_bucket": 1,
            "datasets": [{"n": 32, "delta": 2, "distribution": "uniform",
                          "fractions": [0.2], "seeds": [0]}], **edit,
        }))
        csv_path = tmp_path / "report.csv"
        code = main(["sweep", "--config", str(cfg_path), "-o", str(csv_path)])
        err = capsys.readouterr().err
        assert code == 64
        assert not csv_path.exists()
        assert len(err.splitlines()) == 1 and field in err and "finite" in err and "Traceback" not in err

    def test_sweep_dataset_with_n_not_above_k_is_64_before_any_points(self, capsys, tmp_path, monkeypatch):
        made = []
        monkeypatch.setattr(harness, "_make_points", lambda *args: made.append(args))
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({
            "k": 10, "grid": [[0.5, 5.0]], "bucket_bounds": [0.05], "min_bucket": 1,
            "datasets": [{"n": n, "delta": 2, "distribution": "uniform", "fractions": [0.2], "seeds": [0]}
                         for n in (64, 8)],
        }))
        code = main(["sweep", "--config", str(cfg_path), "-o", str(tmp_path / "report.csv")])
        err = capsys.readouterr().err
        assert code == 64 and made == []
        assert len(err.splitlines()) == 1 and "k=10" in err and "n=8" in err

    def test_distance_on_an_edgeless_graph_is_64_and_says_why(self, capsys, tmp_path):
        graph = tmp_path / "tight.knng"
        assert main(["generate", "tight", "--delta", "1", "--k", "2", "-o", str(graph)]) == 0
        capsys.readouterr()
        code = main(["distance", str(graph), "--k", "2"])
        err = capsys.readouterr().err
        assert code == 64
        assert len(err.splitlines()) == 1 and "no edges" in err and "d must be given" in err

    def test_missing_file_is_66(self, capsys):
        code, _ = _run(capsys, ["distance", "/nonexistent/g.knng", "--k", "2"])
        assert code == 66

    def test_malformed_file_is_65(self, capsys, tmp_path):
        bad = tmp_path / "bad.knng"
        # a coordinate that is no float; a byte that is not UTF-8
        for raw, line in ((b"knng 1 2 1 0\nnot-a-float\n0.0\n0\n0\n", 2),
                          (b"knng 1 2 1 1\n0.5\n\xff1.5\n1 1\n1 0\n", 3)):
            bad.write_bytes(raw)
            code = main(["distance", str(bad), "--k", "1"])
            err = capsys.readouterr().err
            assert code == 65
            assert err.startswith(f"knncheck: line {line}: ")

    @pytest.mark.parametrize("reader", ["bulk", "per-line"])
    @pytest.mark.parametrize("row, message", [
        ("1 5", "vertex 2: neighbor id out of range [0, 3)"),
        ("1 2", "vertex 2: self-loop"),
        ("2 0 0", "vertex 2: duplicate neighbor"),
    ])
    def test_a_faulty_row_is_65_through_either_reader(self, capsys, tmp_path, row, message, reader):
        # a non-ASCII space after a coordinate and after the row sends their lines through the per-line reader
        space = "\u2003" if reader == "per-line" else ""
        bad = tmp_path / "bad.knng"
        bad.write_text(f"knng 1 3 1 1\n0.0{space}\n1.0\n2.0\n1 1\n1 0\n{row}{space}\n", encoding="utf-8")
        out = tmp_path / "out.knng"
        for argv in (["test", str(bad), "--k", "1", "--epsilon", "0.1"], ["distance", str(bad), "--k", "1"],
                     ["generate", "corrupt", str(bad), "--fraction", "0.1", "--seed", "1", "-o", str(out)]):
            assert main(argv) == 65
            captured = capsys.readouterr()
            assert captured.err == f"knncheck: line 7: {message}\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("raw", [b"x,y\n0.1,0.2\n0.3,0.4\n0.5,0.6\n",
                                     b"0.1,0.2\n0.3,0.4,0.9\n0.5,0.6\n",
                                     b"0.1,0.2\nnan,0.4\n0.5,0.6\n",
                                     b"",
                                     b"# points\n# x,y\n",
                                     b"0.1,0.2\n\xff0.3,0.4\n"],
                             ids=["header", "ragged", "nan", "empty", "comments-only", "not-utf8"])
    def test_malformed_points_file_is_65(self, capsys, tmp_path, raw):
        points = tmp_path / "points.csv"
        points.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["build-knn", str(points), "--k", "1", "-o", str(tmp_path / "out.knng")])
        assert code == 65
        assert capsys.readouterr().err.startswith(f"knncheck: {points}: ")
        assert not (tmp_path / "out.knng").exists()

    def test_unwritable_output_is_73(self, capsys, tmp_path, knn_graph_file):
        missing_dir = tmp_path / "no-such-dir"
        code, _ = _run(capsys, ["generate", "corrupt", str(knn_graph_file), "--fraction",
                                "0.1", "--seed", "1", "-o", str(missing_dir / "bad.knng")])
        assert code == 73
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({
            "k": 2, "grid": [[0.5, 1.0]], "bucket_bounds": [0.05], "min_bucket": 1,
            "datasets": [{"n": 32, "delta": 2, "distribution": "uniform",
                          "fractions": [0.2], "seeds": [0]}],
        }))
        csv_path = tmp_path / "report.csv"
        for argv in (["-o", str(missing_dir / "report.csv")],
                     ["-o", str(csv_path), "--json", str(missing_dir / "report.json")]):
            code, _ = _run(capsys, ["sweep", "--config", str(cfg_path), *argv])
            assert code == 73
        # a missing input keeps its own code
        code, _ = _run(capsys, ["generate", "corrupt", str(missing_dir / "in.knng"),
                                "--fraction", "0.1", "-o", str(tmp_path / "out.knng")])
        assert code == 66

    def test_unwritable_stdout_is_73(self, monkeypatch, knn_graph_file):
        class FullStdout:
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", FullStdout())
        test = ["test", str(knn_graph_file), "--k", "3", "--epsilon", "0.2", "--seed", "1"]
        adversary = ["adversary", "--n", "44", "--k", "3", "--epsilon", "0.25",
                     "--budget", "3", "--trials", "100"]
        for argv in ([*test, "--json"], test, ["distance", str(knn_graph_file), "--k", "3"],
                     [*adversary, "--json"], adversary):
            assert main(argv) == 73, argv


    def test_out_of_memory_is_71(self, capsys, monkeypatch, tmp_path, knn_graph_file):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.33 TiB for an array")

        monkeypatch.setattr(cli, "run_tester", exhausted)
        monkeypatch.setattr(cli, "run_sweep", exhausted)
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({
            "k": 2, "grid": [[0.5, 1.0]], "bucket_bounds": [0.05], "min_bucket": 1,
            "datasets": [{"n": 32, "delta": 2, "distribution": "uniform",
                          "fractions": [0.2], "seeds": [0]}],
        }))
        for argv in (["test", str(knn_graph_file), "--k", "3", "--epsilon", "0.2", "--json"],
                     ["sweep", "--config", str(cfg_path), "-o", str(tmp_path / "report.csv")]):
            assert main(argv) == 71
            out, err = capsys.readouterr()
            assert out == "" and err == "knncheck: out of memory: Unable to allocate 1.33 TiB for an array\n"
        assert not (tmp_path / "report.csv").exists()


class TestCommands:
    def test_distance_reports_source(self, capsys, knn_graph_file):
        code, out = _run(capsys, ["distance", str(knn_graph_file), "--k", "3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["min_edits"] == 0 and obj["d_source"] == "computed"
        code, out = _run(capsys, ["distance", str(knn_graph_file), "--k", "3", "--d", "5"])
        assert json.loads(out)["d_source"] == "provided"

    def test_build_knn_from_csv(self, capsys, tmp_path):
        pts = np.random.default_rng(1).random((20, 2))
        csv_path = tmp_path / "points.csv"
        csv_path.write_text("\n".join(f"{x},{y}" for x, y in pts) + "\n")
        out_path = tmp_path / "out.knng"
        code, _ = _run(capsys, ["build-knn", str(csv_path), "--k", "2", "-o", str(out_path)])
        assert code == 0
        g = read_knng(out_path)
        assert g.n == 20 and np.all(g.degrees == 2)

    def test_build_knn_from_csv_after_comment_lines(self, capsys, tmp_path):
        rows = [f"{x},{y}" for x, y in np.random.default_rng(2).random((20, 2))]
        outputs = []
        for name, lines in (("plain", rows), ("commented", ["# points", "", "# x,y"] + rows)):
            csv_path = tmp_path / f"{name}.csv"
            csv_path.write_text("\n".join(lines) + "\n")
            out_path = tmp_path / f"{name}.knng"
            code, _ = _run(capsys, ["build-knn", str(csv_path), "--k", "2", "-o", str(out_path)])
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_overflowing_coordinates_print_no_warning(self, capsys, tmp_path):
        # squared distances that overflow are inf by design; numpy must not warn about it
        pts = overflow_points(np.random.default_rng(0), 300, 3, False)
        points, graph = tmp_path / "points.csv", tmp_path / "out.knng"
        points.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in pts))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            built = _run(capsys, ["build-knn", str(points), "--k", "5", "-o", str(graph)])
            tested = _run(capsys, ["test", str(graph), "--k", "5", "--epsilon", "0.5", "--json"])
            measured = _run(capsys, ["distance", str(graph), "--k", "5"])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert built[0] == 0 and np.array_equal(read_knng(graph).coords, pts)
        assert tested[0] == 0 and json.loads(tested[1])["decision"] == "accept"
        assert measured[0] == 0 and json.loads(measured[1])["min_edits"] == 0

    def test_generate_d1_d2(self, capsys, tmp_path):
        p1 = tmp_path / "d1.knng"
        p2 = tmp_path / "d2.knng"
        assert main(["generate", "d1", "--n", "24", "--k", "2", "--seed", "1", "-o", str(p1)]) == 0
        assert main(["generate", "d2", "--n", "24", "--k", "2", "--epsilon", "0.2",
                     "--seed", "1", "-o", str(p2)]) == 0
        capsys.readouterr()
        assert read_knng(p1).n == 24
        assert read_knng(p2).n == 24

    def test_generate_tight_and_dimlb(self, capsys, tmp_path):
        pt = tmp_path / "tight.knng"
        code, out = _run(capsys, ["generate", "tight", "--delta", "3", "--k", "2", "-o", str(pt)])
        assert code == 0 and json.loads(out)["focal"] == 0
        pl = tmp_path / "pair.knng"
        code, out = _run(capsys, ["generate", "dimlb", "--k", "1", "--epsilon", "0.1",
                                  "--c", "8", "-o", str(pl)])
        assert code == 0
        obj = json.loads(out)
        assert read_knng(obj["far"]).n == read_knng(obj["exact"]).n
        pg = tmp_path / "gadget.knng"
        code, out = _run(capsys, ["generate", "gadget", "--x", "1.5", "--k", "2", "--delta", "3",
                                  "-o", str(pg)])
        assert code == 0 and json.loads(out)["n"] == 3
        assert read_knng(pg).equals(line_gadget(1.5, 2, 3))

    def test_adversary_json(self, capsys):
        code, out = _run(capsys, ["adversary", "--n", "512", "--k", "1", "--epsilon", "0.1",
                                  "--budget", "10", "--trials", "200", "--seed", "3", "--json"])
        assert code == 0
        obj = json.loads(out)
        assert 0.0 <= obj["p_hat"] <= 1.0

    def test_sweep(self, capsys, tmp_path):
        cfg = {
            "k": 2,
            "grid": [[0.5, 1.0]],
            "datasets": [{
                "n": 64, "delta": 2, "distribution": "uniform",
                "fractions": [0.2], "seeds": [0], "corruptions_per_fraction": 2,
            }],
            "bucket_bounds": [0.05],
            "min_bucket": 1,
            "epsilon": 0.2,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        code, _ = _run(capsys, ["sweep", "--config", str(cfg_path), "-o", str(csv_path),
                                "--json", str(json_path), "--seed", "7"])
        assert code == 0
        assert csv_path.read_text().startswith("c1,c2,bucket_lo")
        assert json.loads(json_path.read_text())["metadata"]["seed"] == 7


class TestDeterminism:
    """Identical arguments and seed must produce byte-identical JSON/CSV output."""

    def _twice(self, capsys, argv):
        a_code, a_out = _run(capsys, argv)
        b_code, b_out = _run(capsys, argv)
        assert a_code == b_code
        assert a_out.encode() == b_out.encode()
        return a_out

    def test_test_json(self, capsys, knn_graph_file):
        self._twice(capsys, ["test", str(knn_graph_file), "--k", "3",
                             "--epsilon", "0.2", "--seed", "9", "--json"])

    def test_distance_json(self, capsys, knn_graph_file):
        self._twice(capsys, ["distance", str(knn_graph_file), "--k", "3"])

    def test_adversary_json(self, capsys):
        self._twice(capsys, ["adversary", "--n", "512", "--k", "1", "--epsilon", "0.1",
                             "--budget", "20", "--trials", "200", "--seed", "5", "--json"])

    def test_generate_files_identical(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.knng", tmp_path / "b.knng"
        main(["generate", "d2", "--n", "36", "--k", "2", "--epsilon", "0.2",
              "--seed", "4", "-o", str(p1)])
        main(["generate", "d2", "--n", "36", "--k", "2", "--epsilon", "0.2",
              "--seed", "4", "-o", str(p2)])
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_outputs_identical(self, capsys, tmp_path):
        cfg = {
            "k": 2,
            "grid": [[0.2, 0.5]],
            "datasets": [{
                "n": 48, "delta": 2, "distribution": "uniform",
                "fractions": [0.3], "seeds": [1],
            }],
            "bucket_bounds": [0.01],
            "min_bucket": 1,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for name in ("r1", "r2"):
            csv_path = tmp_path / f"{name}.csv"
            json_path = tmp_path / f"{name}.json"
            main(["sweep", "--config", str(cfg_path), "-o", str(csv_path),
                  "--json", str(json_path), "--seed", "3"])
            outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_sweep_under_python_O_writes_the_same_bytes(self, tmp_path):
        # python -O strips assert statements; no output may rest on one
        cfg = {
            "k": 3,
            "grid": [[0.2, 1.0], [0.5, 5.0]],
            "datasets": [
                {"n": 200, "delta": 2, "distribution": "uniform", "fractions": [0.05, 0.3], "seeds": [1]},
                {"n": 120, "delta": 8, "distribution": "gaussian-mixture", "fractions": [0.2], "seeds": [2]},
            ],
            "bucket_bounds": [0.1],
            "min_bucket": 1,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        outputs = []
        for flags in ([], ["-O"]):
            csv_path, json_path = tmp_path / f"r{len(flags)}.csv", tmp_path / f"r{len(flags)}.json"
            run = subprocess.run([sys.executable, *flags, "-m", "knncheck", "sweep", "--config", str(cfg_path),
                                  "-o", str(csv_path), "--json", str(json_path), "--seed", "5"],
                                 capture_output=True, env=env)
            assert run.returncode == 0, run.stderr
            outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_one_blas_thread_writes_the_same_bytes(self, tmp_path):
        # the exact kernel's BLAS filter values may change with OpenBLAS's threading; no output may
        rng = np.random.default_rng(6)
        points = tmp_path / "points.csv"
        np.savetxt(points, rng.random((3000, 8)), delimiter=",")
        cfg_path = tmp_path / "sweep.json"
        dataset = {"n": 1500, "delta": 16, "distribution": "gaussian-mixture", "fractions": [0.2], "seeds": [3]}
        cfg_path.write_text(json.dumps({"k": 5, "grid": [[0.2, 1.0]], "bucket_bounds": [0.1], "min_bucket": 1,
                                        "datasets": [dataset]}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        env.pop("OPENBLAS_NUM_THREADS", None)
        outputs = []
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            out = tmp_path / f"r{len(threads)}"
            for argv in (["build-knn", str(points), "--k", "10", "-o", f"{out}.knng"],
                         ["sweep", "--config", str(cfg_path), "-o", f"{out}.csv", "--json", f"{out}.json",
                          "--seed", "4"]):
                run = subprocess.run([sys.executable, "-m", "knncheck", *argv], capture_output=True,
                                     env={**env, **threads})
                assert run.returncode == 0, run.stderr
            outputs.append([Path(f"{out}.{ext}").read_bytes() for ext in ("knng", "csv", "json")])
        assert outputs[0] == outputs[1]

    def test_subprocess_rerun_identical(self, knn_graph_file):
        argv = [sys.executable, "-m", "knncheck", "test", str(knn_graph_file),
                "--k", "3", "--epsilon", "0.2", "--seed", "12", "--json"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        a = subprocess.run(argv, capture_output=True, env=env)
        b = subprocess.run(argv, capture_output=True, env=env)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
