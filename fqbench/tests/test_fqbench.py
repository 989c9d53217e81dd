"""Tests of the benchmark itself.

    python3 -m pytest fqbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FQ = run.import_fqlab()


@pytest.fixture
def work():
    path = run.ROOT / ".fqbench_runs" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def test_self_times_on_synthetic_tree():
    tree = [
        ["cli.main", 0.0, 10.0, -1],
        ["correlate.correlate", 1.0, 7.0, 0],
        ["mainterm.main_term", 5.0, 6.5, 1],
        ["sieve.load", 8.0, 9.0, 0],
        ["stats.brun_titchmarsh", 12.0, 15.0, -1],
        ["sieve.residue_histogram", 12.5, 13.0, 4],
        ["arith.phi", 13.0, 14.0, 4],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 4.5, 1.5, 1.0, 1.5, 0.5, 1.0])
    assert spans.outermost_time(tree, ("correlate.", "mainterm.")) == pytest.approx(6.0)
    assert spans.outermost_time(tree, ("stats.",)) == pytest.approx(3.0)


def test_overlapping_children_are_counted_once():
    tree = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0],
            ["d", 9.0, 12.0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrong_raw_sum_counts_as_failure(work):
    bench = run.Bench(FQ, workloads.build("scan-p2", 1), work)
    op = workloads._op("correlate --p 2 --n 8 --f kfree:2 --g kfree:2 --h1 0 --h2 1")
    cache = work / "cache"
    cache.mkdir()
    with contextlib.redirect_stderr(io.StringIO()):
        bench.execute(op, cache, "ok", traced=False)
        assert (bench.attempted, bench.failures) == (1, [])
        row = bench.reference[op.key]["rows"][0]
        row["raw_re"] = repr(float(row["raw_re"]) + 1)
        bench.execute(op, cache, "wrong", traced=False)
    assert bench.attempted == 2
    assert len(bench.failures) == 1
    assert "raw_re" in bench.failures[0]["problems"][0]


def test_times_scale_by_the_probe_before_each_operation(work, monkeypatch):
    bench = run.Bench(FQ, workloads.build("scan-p2", 1), work)
    op = workloads._op("correlate --p 2 --n 8 --f kfree:2 --g kfree:2 --h1 0 --h2 1")
    cache = work / "cache"
    cache.mkdir()
    probes = iter([4.0, 1.0, 2.0, 3.0])
    monkeypatch.setattr(run, "probe", lambda: run.PROBE_REF_S * next(probes))
    assert bench.execute(op, cache, "one", traced=False)[2] == pytest.approx(1 / 4)
    # several probes: their median sets the scale
    assert bench.execute(op, cache, "three", traced=False, probes=3)[2] == pytest.approx(1 / 2)
    assert bench.probes == pytest.approx([4 * run.PROBE_REF_S, 2 * run.PROBE_REF_S])


def test_float_tolerance_and_main_term_tail():
    ref = {"rows": [{"raw_re": "100.0", "main_re": "0.5", "tail_bound": "1e-06"}],
           "exact": []}
    near = [{"raw_re": "100.00000000001", "main_re": "0.5000005", "tail_bound": "1e-06"}]
    assert checks.compare_rows(near, ref) == []
    far = [{"raw_re": "100.001", "main_re": "0.5001", "tail_bound": "1e-05"}]
    assert len(checks.compare_rows(far, ref)) == 3


@pytest.mark.parametrize("argv", [
    "correlate --p 2 --n 8 --f kfree:2 --g kfree:2 --h1 0 --h2 1",
    "correlate --p 2 --n-range 6:10:2 --f phi_ratio --g phi_ratio --h1 0 --h2 1",
    "correlate --p 2 --domain prime --n 9 --f kfree:2 --g kfree:2 --h1 0 --h2 1",
    "correlate --p 3 --n 4 --functions kfree:2,kfree:2,kfree:2 --shifts 0,1,2",
    "correlate --p 3 --domain prime --n-range 3:5 --f kfree:2 --g kfree:2 --h1 0 --h2 1",
    "chowla --p 2 --y 2 --h x --n-range 6:8",
    "dist --p 2 --n 7",
    "dist --p 2 --domain prime --n 7",
    "charfn --p 2 --n 6 --t-grid=-1:1:0.5",
    "tk --p 2 --n-range 4:7",
    "tk --p 2 --domain prime --psi first_power --h 1 --n-range 4:7",
    "diagnostics --p 2 --n 7 --h 1",
    "brun_titchmarsh --p 2 --n-max 6",
])
def test_evals_formulas_match_the_program(argv, work):
    """evals_of(argv) equals what the program reports it enumerated:
    CorrelationReport.domain_size times the shifts for correlate, the
    domain sizes seen at the stats boundary otherwise."""
    op = workloads.Op(tuple(argv.split()))
    tracer = spans.Tracer(FQ)
    bench = run.Bench(FQ, workloads.build("scan-p2", 1), work)
    bench.tracer = tracer
    cache = work / "cache"
    cache.mkdir()
    bench.check = lambda *a: []
    bench.execute(op, cache, "op", traced=True)
    counters = tracer.take("pass")[1]
    measured = counters["correlate.evals"] + counters["stats.evals"]
    assert measured == op.evals


def test_metrics_json_covers_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    doc = json.loads((run.HERE / "metrics.json").read_text())
    assert set(doc["workloads"]) == {w["name"] for w in spec["workloads"]} \
        == set(workloads.WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            assert doc[kind][m["name"]]["unit"] == m["unit"], m["name"]
    assert {m["name"] for m in spec["per_layer"]} == set(doc["per_layer"])
    for name, entry in doc["per_layer"].items():
        assert set(entry["moves"]) <= set(doc["end_to_end"]), name
        assert set(entry["workloads"]) <= set(workloads.WORKLOADS), name


def test_every_pinned_operation_has_a_reference():
    ref = json.loads((run.HERE / "reference.json").read_text())
    assert {op.key for op in workloads.pinned_ops()} == set(ref)
    for seed in (1, 2, 3):
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, seed)
            for op in wl.ops:
                assert op.check != "reference" or op.key in ref, op.key


def test_seed_changes_only_cli_small_inputs():
    for name in ("scan-p2", "scan-odd", "stats-p2"):
        assert workloads.build(name, 1) == workloads.build(name, 2)
    a, b = workloads.build("cli-small", 1), workloads.build("cli-small", 2)
    assert a == workloads.build("cli-small", 1)
    assert a != b
    assert [op.command for op in a.ops] == [op.command for op in b.ops]
