"""Sweep harness: bucketing, precision, report export and reproducibility."""

import dataclasses
import json
import math
import weakref

import numpy as np
import pytest

from helpers import report_from_json
from knncheck import harness, tester
from knncheck.core import OracleSession
from knncheck.exact import build_exact_knn_graph
from knncheck.harness import (
    DatasetSpec,
    SweepConfig,
    SweepReport,
    SweepRow,
    export_report,
    query_budget_ratio,
    run_sweep,
    sweep_config_from_json,
)
from knncheck.tester import TesterConfig, run_tester, sample_sizes


def _small_config(**overrides):
    base = dict(
        k=3,
        grid=((0.05, 0.5), (0.5, 2.0)),
        datasets=(
            DatasetSpec(
                n=192,
                delta=2,
                distribution="uniform",
                fractions=(0.0, 0.01, 0.2),
                seeds=(0, 1, 2),
                corruptions_per_fraction=2,
            ),
        ),
        bucket_bounds=(0.05,),
        trials_per_cell=1,
        min_bucket=3,
        epsilon=0.1,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_one_corrupted_graph_alive_per_tester_run(monkeypatch):
    refs = []
    original = harness.corrupt_edges

    def corrupt(*args, **kwargs):
        g = original(*args, **kwargs)
        refs.append(weakref.ref(g))
        return g

    def tester(session, cfg):
        alive = sum(ref() is not None for ref in refs)
        assert alive <= 1, f"{alive} corrupted graphs alive during a tester run"
        return run_tester(session, cfg)

    monkeypatch.setattr(harness, "corrupt_edges", corrupt)
    monkeypatch.setattr(harness, "run_tester", tester)
    run_sweep(_small_config(), seed=11)
    assert len(refs) == 18


def test_cells_seed_their_trials_by_grid_position(monkeypatch):
    # grid values that agree to 6 decimals still get their own streams
    seeds = []

    def tester(session, cfg):
        seeds.append(cfg.seed)
        return run_tester(session, cfg)

    monkeypatch.setattr(harness, "run_tester", tester)
    spec = DatasetSpec(n=64, delta=2, distribution="uniform", fractions=(0.2,), seeds=(0,))
    run_sweep(_small_config(grid=((0.1, 5.0), (0.1000001, 5.0)), datasets=(spec,),
                            min_bucket=1), seed=11)
    assert len(seeds) == 2 and seeds[0] != seeds[1]


def test_one_all_vertex_index_per_point_set_and_the_same_bytes_without_it(monkeypatch):
    # two datasets, four point sets; cell (0.5, 2.0) draws T over half the
    # vertices or more, once per instance graph, so the first instance of a
    # point set records its array, the second builds the index and later reuse it
    cfg = _small_config(datasets=(
        _small_config().datasets[0],
        DatasetSpec(n=150, delta=3, distribution="gaussian-mixture", fractions=(0.0, 0.05),
                    seeds=(3,), corruptions_per_fraction=3),
    ), min_bucket=1)
    profiles, builds = [], []
    profile, index = harness.NeighborhoodProfile, tester.leaf_index

    def profile_spy(points, k):
        profiles.append(profile(points, k))
        return profiles[-1]

    def index_spy(pts, leaf_size):
        builds.extend(i for i, p in enumerate(profiles) if pts is p.coords)
        return index(pts, leaf_size)

    monkeypatch.setattr(harness, "NeighborhoodProfile", profile_spy)
    monkeypatch.setattr(tester, "leaf_index", index_spy)
    report = run_sweep(cfg, seed=7)
    assert len(profiles) == 4 and builds == [0, 1, 2, 3]
    monkeypatch.setattr(tester, "_graph_index", lambda g: None)
    plain = run_sweep(cfg, seed=7)
    assert export_report(report, "csv") == export_report(plain, "csv")
    assert export_report(report, "json") == export_report(plain, "json")


@pytest.fixture(scope="module")
def small_report():
    return run_sweep(_small_config(), seed=11)


class TestRunSweep:
    def test_rows_cover_grid_and_buckets(self, small_report):
        cells = {(r.c1, r.c2) for r in small_report.rows}
        assert cells == {(0.05, 0.5), (0.5, 2.0)}
        for r in small_report.rows:
            assert r.instances > 0
            assert 0 <= r.rejects <= r.instances
            assert r.recall == r.rejects / r.instances

    def test_zero_distance_instances_fall_in_no_bucket(self, small_report):
        # fraction 0.0 contributes 6 pristine instances per dataset; none may
        # appear in any bucket, and the sum over buckets stays below the total
        total_runs = sum(r.instances for r in small_report.rows)
        assert total_runs < 2 * 18  # 18 instances per cell, 6 of them pristine

    def test_bucket_assignment_partitions(self):
        cfg = _small_config()
        buckets = cfg.buckets()
        assert buckets[0][0] == 0.0 and buckets[-1][1] == math.inf
        for hi, lo in zip([b[1] for b in buckets], [b[0] for b in buckets][1:]):
            assert hi == lo

    def test_reproducible_bit_for_bit(self):
        cfg = _small_config(datasets=(
            DatasetSpec(n=96, delta=2, distribution="uniform",
                        fractions=(0.05,), seeds=(4,), corruptions_per_fraction=2),
        ), min_bucket=1)
        a = run_sweep(cfg, seed=5)
        b = run_sweep(cfg, seed=5)
        assert export_report(a, "csv") == export_report(b, "csv")
        assert export_report(a, "json") == export_report(b, "json")

    def test_gaussian_mixture_datasets_run(self):
        cfg = _small_config(datasets=(
            DatasetSpec(n=96, delta=2, distribution="gaussian-mixture",
                        fractions=(0.1,), seeds=(0,), corruptions_per_fraction=1),
        ), min_bucket=1)
        report = run_sweep(cfg, seed=1)
        assert any(r.instances for r in report.rows)

    def test_small_buckets_dropped_with_warning(self, caplog):
        cfg = _small_config(min_bucket=1000)
        with caplog.at_level("WARNING"):
            report = run_sweep(cfg, seed=2)
        assert not report.rows
        assert any("dropping bucket" in rec.message for rec in caplog.records)


class TestQueryBudgetRatio:
    def test_full_scan_ratio_exceeds_one(self):
        pts = np.random.default_rng(0).random((128, 2))
        g = build_exact_knn_graph(pts, 3)
        cfg = TesterConfig(k=3, epsilon=0.1, delta=2, seed=0)  # s' clamps to n
        v = run_tester(OracleSession(g), cfg)
        assert v.s_prime_size == g.n
        assert query_budget_ratio(v, g.n, 3) >= 1.0

    def test_experiment_mode_ratio_from_formulas(self):
        # the criterion-scale configuration, checked from the formulas alone
        n, k = 65_536, 10
        cfg = TesterConfig(k=k, epsilon=0.1, delta=2, mode="experiment", c1=0.01, c2=0.5)
        s_prime, t, _ = sample_sizes(n, cfg)
        worst = s_prime + s_prime * (2 * k + 1) + t
        assert worst / (n * k) <= 0.1

    def test_theory_mode_ratio_recorded(self):
        # sublinear regime has not kicked in at this n/epsilon; recorded, not asserted
        n, k = 65_536, 10
        cfg = TesterConfig(k=k, epsilon=0.1, delta=2)
        s_prime, t, _ = sample_sizes(n, cfg)
        worst = s_prime + s_prime * (2 * k + 1) + t
        print(f"theory-mode worst-case ratio at n={n}, k={k}: {worst / (n * k):.3f}")


class TestExportReport:
    def test_empty_report_is_header_only(self):
        data = export_report(SweepReport(rows=()), "csv")
        assert data == b"c1,c2,bucket_lo,bucket_hi,instances,rejects,recall,mean_queries,mean_ratio\n"

    def test_csv_columns_fixed(self, small_report):
        lines = export_report(small_report, "csv").decode().splitlines()
        assert lines[0] == "c1,c2,bucket_lo,bucket_hi,instances,rejects,recall,mean_queries,mean_ratio"
        assert len(lines) == 1 + len(small_report.rows)

    def test_json_round_trips_to_identical_bytes(self, small_report):
        data = export_report(small_report, "json")
        parsed = report_from_json(data)
        assert export_report(parsed, "json") == data

    def test_rejects_bounded_by_instances(self, small_report):
        for r in small_report.rows:
            assert r.rejects <= r.instances

    def test_infinite_bucket_serialized(self):
        row = SweepRow(0.1, 5.0, 0.02, math.inf, 3, 2, 2 / 3, 10.0, 0.5)
        report = SweepReport(rows=(row,), metadata={"seed": 0})
        csv_data = export_report(report, "csv").decode()
        assert "inf" in csv_data.splitlines()[1]
        parsed = report_from_json(export_report(report, "json"))
        assert parsed.rows[0].bucket_hi == math.inf

    def test_unknown_format_rejected(self, small_report):
        with pytest.raises(ValueError):
            export_report(small_report, "xml")


class TestSweepConfigSchema:
    def test_round_trip_through_json(self):
        cfg = _small_config()
        data = json.dumps(dataclasses.asdict(cfg))
        assert sweep_config_from_json(data) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            _small_config(bucket_bounds=())
        with pytest.raises(ValueError):
            _small_config(bucket_bounds=(0.0, 0.1))
        with pytest.raises(ValueError):
            _small_config(bucket_bounds=(0.2, 0.1))
        with pytest.raises(ValueError):
            _small_config(grid=())
        with pytest.raises(ValueError):
            DatasetSpec(n=96, delta=2, distribution="pareto", fractions=(0.1,), seeds=(0,))
        spec = dict(n=96, delta=2, distribution="uniform", fractions=(0.1,), seeds=(0,))
        for bad in (dict(n=3), dict(fractions=()), dict(corruptions_per_fraction=0)):
            with pytest.raises(ValueError):
                DatasetSpec(**{**spec, **bad})
        for bad in (dict(k=0), dict(datasets=("uniform",)), dict(trials_per_cell=0)):
            with pytest.raises(ValueError):
                _small_config(**bad)

    def test_integer_fields_take_numpy_ints(self):
        spec = DatasetSpec(n=np.int64(96), delta=np.int32(2), distribution="uniform",
                           fractions=(0.1,), seeds=(np.uint8(3),))
        cfg = _small_config(k=np.int64(3), datasets=(spec,))
        assert all(type(v) is int for v in (cfg.k, spec.n, spec.delta, spec.seeds[0]))
        assert json.loads(json.dumps(dataclasses.asdict(cfg)))["datasets"][0]["n"] == 96


def _valid_config_obj():
    return {
        "k": 2, "grid": [[0.1, 5.0]], "bucket_bounds": [0.05], "min_bucket": 1,
        "datasets": [{"n": 64, "delta": 2, "distribution": "uniform",
                      "fractions": [0.2], "seeds": [0]}],
    }


def _edited(edit):
    obj = _valid_config_obj()
    edit(obj)
    return obj


MALFORMED_CONFIGS = {
    "short grid cell": _edited(lambda o: o.update(grid=[[0.1]])),
    "long grid cell": _edited(lambda o: o.update(grid=[[0.1, 5.0, 7.0]])),
    "flat grid": _edited(lambda o: o.update(grid=[0.1, 5.0])),
    "list as config": [_valid_config_obj()],
    "string n": _edited(lambda o: o["datasets"][0].update(n="64")),
    "fractional n": _edited(lambda o: o["datasets"][0].update(n=64.5)),
    "float k": _edited(lambda o: o.update(k=3.0)),
    "fractional trials_per_cell": _edited(lambda o: o.update(trials_per_cell=1.5)),
    "scalar fractions": _edited(lambda o: o["datasets"][0].update(fractions=0.1)),
    "fractional seed": _edited(lambda o: o["datasets"][0].update(seeds=[0.5])),
    "unknown key": _edited(lambda o: o.update(trials_per_cel=2)),
    "missing k": _edited(lambda o: o.pop("k")),
    "zero min_bucket": _edited(lambda o: o.update(min_bucket=0)),
    "epsilon above 1": _edited(lambda o: o.update(epsilon=2.0)),
    "fraction above 1": _edited(lambda o: o["datasets"][0].update(fractions=[0.2, 1.5])),
    "infinite c1": _edited(lambda o: o.update(grid=[[float("inf"), 5.0]])),
    "nan c2": _edited(lambda o: o.update(grid=[[0.1, float("nan")]])),
    "negative c2": _edited(lambda o: o.update(grid=[[0.1, -1.0]])),
    "nan bucket bound": _edited(lambda o: o.update(bucket_bounds=[float("nan")])),
    "infinite bucket bound": _edited(lambda o: o.update(bucket_bounds=[0.05, float("inf")])),
}


class TestMalformedSweepConfig:
    def test_valid_base_parses(self):
        assert sweep_config_from_json(json.dumps(_valid_config_obj())).datasets[0].n == 64

    @pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
    def test_rejected_with_value_error(self, name):
        with pytest.raises(ValueError):
            sweep_config_from_json(json.dumps(MALFORMED_CONFIGS[name]))

    def test_message_names_class_and_field(self):
        with pytest.raises(ValueError, match="DatasetSpec.*n must be an integer"):
            sweep_config_from_json(json.dumps(MALFORMED_CONFIGS["fractional n"]))
        with pytest.raises(ValueError, match="SweepConfig.*trials_per_cel"):
            sweep_config_from_json(json.dumps(MALFORMED_CONFIGS["unknown key"]))
        with pytest.raises(ValueError, match="SweepConfig must be a JSON object"):
            sweep_config_from_json(json.dumps(MALFORMED_CONFIGS["list as config"]))
