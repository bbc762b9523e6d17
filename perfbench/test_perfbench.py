"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench
"""
import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402

TINY = 400


def _benchmark_names(kind):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    for name, spec in run.WORKLOADS.items():
        monkeypatch.setitem(run.WORKLOADS, name, dict(spec, households=TINY))


def _bench(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_emits_every_layer_metric(tiny, capsys, workload):
    result = _bench(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + run.MIN_TRACED_RUNS
    assert set(result["metrics"]) == _benchmark_names("per_layer")


def test_untraced_run_emits_every_end_to_end_metric(tiny, capsys):
    result = _bench(capsys, "--workload", "policy-sweep", "--seed", "3", "--seconds", "0",
                    "--trace", "0")
    assert result["correct"] and result["attempted"] == run.MIN_RUNS
    assert set(result["metrics"]) == _benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_between_traced_runs(tiny, tmp_path):
    work = str(tmp_path / "w")
    os.makedirs(work)
    prep = run.prepare("survey-csv-25k", 5, work)
    first, second = (run.run_once(prep, work, 1, True) for _ in range(2))
    assert not first["problems"] and not second["problems"]
    a, b = (tracer.layer_metrics(r["trace"], 0.0, 0.0) for r in (first, second))
    counts = {m: a[m][0] for m in tracer.COUNT_METRICS}
    assert counts == {m: b[m][0] for m in tracer.COUNT_METRICS}
    assert counts["rng.draws"] > 0 and counts["scenario.apply_wave_calls"] == 7


def test_absent_function_is_reported_not_fatal(monkeypatch, tmp_path):
    import nowcastsim.cli  # noqa: F401  (imports every layer)

    modules = [sys.modules[f"nowcastsim.{layer}"] for layer in tracer.LAYERS]
    for mod in modules:  # let monkeypatch undo the wrapping install does
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj):
                monkeypatch.setattr(mod, attr, obj)
    gone = sys.modules["nowcastsim.igm"].draw_residual
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if obj is gone:
                monkeypatch.delattr(mod, attr)

    t = tracer.Tracer()
    assert tracer.install(t) == ["igm.draw_residual"]
    path = str(tmp_path / "trace.npz")
    t.dump(path, {"main_return": 1.0, "run_scenario_exit": 0.5})
    metrics = tracer.layer_metrics(tracer.load(path), 1.0, 1.5)
    assert {m for m, _ in run.per_layer_names()} == set(metrics)
    assert metrics["igm.model_eval_s"][0] == 0.0
