"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _csv_bytes(tmp_path, name, seed):
    path = tmp_path / name
    workloads.write_panel_csv(str(path), seed, 6, 5, 3, (1.0, 0.5, 0.5))
    return path.read_bytes()


def _config_json(cls, seed, tmp_path):
    w = cls(seed, str(tmp_path / f"{cls.name}_{seed}"), 1)
    w.make_inputs()
    return json.dumps(w.cfg.to_dict(), sort_keys=True)


def test_same_seed_gives_identical_inputs(tmp_path):
    assert _csv_bytes(tmp_path, "a.csv", 7) == _csv_bytes(tmp_path, "b.csv", 7)
    for cls in (workloads.McCrossSection, workloads.McSerialMemory):
        assert _config_json(cls, 7, tmp_path) == _config_json(cls, 7, tmp_path)


def test_other_seed_changes_inputs(tmp_path):
    assert _csv_bytes(tmp_path, "a.csv", 7) != _csv_bytes(tmp_path, "b.csv", 8)
    for cls in (workloads.McCrossSection, workloads.McSerialMemory):
        assert _config_json(cls, 7, tmp_path) != _config_json(cls, 8, tmp_path)


def test_csv_round_trips_to_the_generated_panel(tmp_path):
    import panelcsd

    path = tmp_path / "p.csv"
    y, x = workloads.write_panel_csv(str(path), 3, 6, 5, 3, (1.0, 0.5, 0.5))
    panel = panelcsd.load_csv(str(path), id_col="firm", time_col="year")
    assert (panel.y == y).all() and (panel.x == x).all()


class _Fixed:
    """Stands in for a workload whose reference payload is fixed."""

    name = "fixed"
    seed = workloads.REFERENCE_SEED

    def __init__(self, payload):
        self.payload = payload

    def reference_payload(self, out):
        return self.payload


def test_gate_rejects_a_perturbed_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_DIR", str(tmp_path))
    payload = {"cells": [{"beta_mean": [1.0, -0.5], "n_fail": 0}],
               "ordered_ok": True}
    run.check_reference(_Fixed(payload), None, workloads.Checks(), write=True)

    exact = workloads.Checks()
    run.check_reference(_Fixed(payload), None, exact, write=False)
    assert (exact.attempted, exact.failed) == (1, 0)

    within = json.loads(json.dumps(payload))
    within["cells"][0]["beta_mean"][0] *= 1.0 + 1e-14
    ok = workloads.Checks()
    run.check_reference(_Fixed(within), None, ok, write=False)
    assert ok.failed == 0

    for perturb in ("number", "flag"):
        bad = json.loads(json.dumps(payload))
        if perturb == "number":
            bad["cells"][0]["beta_mean"][0] *= 1.0 + 1e-10
        else:
            bad["ordered_ok"] = False
        checks = workloads.Checks()
        run.check_reference(_Fixed(bad), None, checks, write=False)
        assert checks.failed == 1 and "differs" in checks.problems[0]


def test_reference_is_only_checked_for_the_reference_seed(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_DIR", str(tmp_path))
    other = _Fixed({"x": 1.0})
    other.seed = workloads.REFERENCE_SEED + 1
    checks = workloads.Checks()
    run.check_reference(other, None, checks, write=False)
    assert checks.attempted == 0


def _span(tracer, name, start, end, parent=None, **attrs):
    rec = {"id": len(tracer.spans), "name": name, "parent": parent,
           "start": start, "end": end, **attrs}
    tracer.spans.append(rec)
    return rec["id"]


def test_self_time_subtracts_the_union_of_children():
    t = spans.Tracer()
    top = _span(t, "cli.dispatch", 0.0, 5.0)
    _span(t, "panel.load_csv", 1.0, 3.0, top)
    _span(t, "estimators.fit", 2.5, 4.0, top)  # overlaps load_csv
    _span(t, "dgp.build_omega", 4.5, 6.0, top)  # runs past its parent
    kids = spans.child_index(t.spans)
    assert spans.self_time(t.spans[top], kids) == pytest.approx(5.0 - 3.0 - 0.5)


def test_cli_overhead_is_dispatch_self_time(tmp_path):
    t = spans.Tracer()
    for start in (0.0, 10.0):
        top = _span(t, "cli.dispatch", start, start + 4.0)
        _span(t, "panel.load_csv", start + 1.0, start + 3.0, top)
    desk = workloads.CliDesk.__new__(workloads.CliDesk)
    desk.csv_path = str(tmp_path / "p.csv")
    (tmp_path / "p.csv").write_text("x\n")
    got = desk.layer_metrics(t, [], workloads.Checks())
    assert got["cli.overhead_ms"] == pytest.approx(2 * 2.0e3)
    assert got["panel.load_csv_s"] == pytest.approx(2.0)
    assert got["panel.load_csv_rows_per_s"] == pytest.approx(
        desk.N * desk.T / 2.0)


def test_run_mc_overhead_is_derived_from_spans():
    t = spans.Tracer()
    _span(t, "montecarlo.run_mc", 0.0, 10.0)
    for i in range(4):
        _span(t, "montecarlo.replay_rep", 20.0 + 3 * i, 23.0 + 3 * i)
    run_mc_s = spans.total(t.spans, "montecarlo.run_mc")
    busy_s = spans.total(t.spans, "montecarlo.replay_rep")
    assert (run_mc_s, busy_s) == (10.0, 12.0)
    assert workloads.overhead_s(run_mc_s, busy_s, workers=2) == 4.0


def test_replay_reproduces_run_mc(tmp_path):
    import panelcsd

    cfg = panelcsd.McConfig(
        dgp=panelcsd.DgpSpec(cross_section=panelcsd.Equicorr(a=1.0, b=0.5),
                             beta_true=(1.0, -0.5)),
        grid=((8, 6),), reps=200, master_seed=5)
    cell = panelcsd.run_mc(cfg, workers=1).cells[0]
    got = workloads.replay_cell(spans.Tracer(), cfg, 8, 6)
    assert got["beta_mean"] == cell["beta_mean"]
    assert got["rmse"] == cell["rmse"]


def test_metric_names_match_benchmark_json():
    assert set(workloads.common_layer_metrics([])) <= set(run.PER_LAYER)
    bench = json.load(open(os.path.join(os.path.dirname(BENCH_DIR),
                                        "BENCHMARK.json")))
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
