"""Tests of the benchmark itself; kept out of the library's default test run.

    python3 -m pytest -q bench/selftest.py
"""

import json
import math
import re
import sys

import numpy as np
import pytest

import run
from tracer import Span, Tracer, self_times

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (numpy after run.py pinned the thread pools)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Reduced sizes train too little to reach the quality bounds, which
# test_quality_bounds_catch_a_wrong_trainer checks at full size instead.
TINY = {
    "pf_train": lambda: workloads.PfTrain(n=2000, outer=2, epochs=2, max_risk_err=math.inf, gap_margin=-math.inf),
    "oracle_front": lambda: workloads.OracleFront(num_lambda=51),
    "csv_pipeline": lambda: workloads.CsvPipeline(n=4000, max_excess_risk=math.inf),
}


def test_self_times_nested_and_overlapping():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("a.child", 1.5, 2.5, parent=1),
        Span("b", 2.0, 5.0, parent=0),  # overlaps its sibling a
        Span("late", 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1, 1.0, 1.0, 3.0, 3.0])


def test_tracer_spans_parents_and_summary():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap_span("m.inner", lambda: None)

    def outer_fn():
        inner()
        inner()

    tracer.wrap_span("m.outer", outer_fn)()
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("m.outer", 0.0, 5.0, None),
        ("m.inner", 1.0, 2.0, 0),
        ("m.inner", 3.0, 4.0, 0),
    ]
    summary = tracer.summary()
    assert summary["m.outer.calls"] == 1 and summary["m.inner.calls"] == 2
    assert summary["m.outer.self_s"] == pytest.approx(3.0)
    assert tracer.top_level_seconds() == pytest.approx(5.0)


def test_install_patches_every_binding_and_restores_them():
    pf = run.import_package()
    originals = {
        (mod, attr): getattr(mod, attr)
        for mod, attr in [
            (pf.model, "sgd_early_stop"), (pf.adaptive, "sgd_early_stop"), (pf.baselines, "sgd_early_stop"),
            (pf.risk, "group_risks"), (pf.model, "group_risks"), (pf.adaptive, "group_risks"),
            (pf.report, "group_risks"), (pf.oracle, "dominates"), (pf.cli, "load_csv"),
            (pf.cli, "save_csv"), (pf.cli, "split_dataset"), (pf.cli, "save_checkpoint"),
            (pf.model.MLPClassifier, "forward"),
        ]
    }
    tracer = Tracer()
    tracer.install(pf)
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn, f"{attr} in {mod.__name__} not wrapped"
        assert pf.adaptive.sgd_early_stop is pf.baselines.sgd_early_stop
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn


def test_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _corrupt_number(path, column):
    """Move the first data row's value in ``column`` by about 1%.

    The checks allow last-digit differences, so the change must be material.
    """
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[column] = repr(float(cells[column]) * 1.01 + 0.01)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "pf_train": [("train", "metrics.csv", 4), ("train", "trace.csv", 7)],
    "oracle_front": [("oracle", "front.csv", 2), ("oracle", "reference_points.csv", 1)],
    "csv_pipeline": [
        ("train", "naive/metrics.csv", 3),
        ("postproc", "post/rule.csv", 1),
        ("report", "combined.csv", 2),
    ],
}


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_passes_and_corruption_is_caught(name, tmp_path):
    workload = TINY[name]()
    result = run.measure(workload, seed=0, seconds=0, trace=1, work_root=tmp_path)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] == 3 * len(workload.outputs)  # warm-up, traced, untraced
    assert result["cross_check"] == []
    for metric in result["layer"]:
        assert NAME.fullmatch(metric), metric

    work = tmp_path / f"{name}-seed0"
    pf = run.import_package()
    for step, rel, column in CORRUPTIONS[name]:
        path = work / "rep1" / rel
        original = path.read_bytes()
        _corrupt_number(path, column)
        problems, _quality = workload.check(pf, work / "inputs", work / "rep1", 0)
        assert problems[step], f"corrupting {rel} went unnoticed"
        path.write_bytes(original)

    ckpt = work / "rep1" / ("naive/model.ckpt" if name == "csv_pipeline" else "model.ckpt")
    if ckpt.exists():
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
        problems, _quality = workload.check(pf, work / "inputs", work / "rep1", 0)
        assert problems["train"], "a truncated checkpoint went unnoticed"


def test_missing_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "pf_train", "--seed", "0", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def _break_weighted_grad(monkeypatch, how):
    """Make every later import of the package train with a wrong gradient."""
    real_import = run.import_package

    def import_broken():
        pf = real_import()
        grad = pf.model.weighted_grad

        def wrong(model, X, targets, sample_weights, loss="brier"):
            if how == "unweighted":  # the group weights of the paper's method are dropped
                return grad(model, X, targets, np.ones(len(targets)), loss)
            gW, gb = grad(model, X, targets, sample_weights, loss)
            return [0.0 * g for g in gW], [0.0 * g for g in gb]

        pf.model.weighted_grad = wrong
        return pf

    monkeypatch.setattr(run, "import_package", import_broken)


@pytest.mark.parametrize("how", [None, "unweighted", "zero"])
def test_quality_bounds_catch_a_wrong_trainer(how, tmp_path, monkeypatch):
    """At full size the correct trainer passes; trainers with a wrong gradient fail."""
    if how is not None:
        _break_weighted_grad(monkeypatch, how)
    result = run.measure(workloads.PfTrain(), seed=0, seconds=0, trace=0, work_root=tmp_path)
    if how is None:
        assert result["failed"] == 0, result["problems"]
    else:
        assert result["failed"] == 1
        assert any("exact risk" in msg for msg in result["problems"]["train"]), result["problems"]


def test_naive_quality_bound_catches_an_untrained_model(tmp_path):
    workload = workloads.CsvPipeline()
    result = run.measure(workload, seed=0, seconds=0, trace=0, work_root=tmp_path)
    assert result["failed"] == 0, result["problems"]
    pf = run.import_package()
    spec = pf.oracle.make_scenario(pf.oracle.ScenarioParams())
    act, dims, layers = workloads.read_checkpoint(tmp_path / "csv_pipeline-seed0" / "rep1" / "naive" / "model.ckpt")
    problems = workloads.Problems()
    workload.check_quality(problems, spec, (act, dims, [(0.0 * W, 0.0 * b) for W, b in layers]))
    assert problems and "Bayes naive risk" in problems[0]
