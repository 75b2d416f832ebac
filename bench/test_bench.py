"""Tests of the benchmark itself, at smoke size.

Run from the root of a checkout:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import make_alpha_pool  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
DIGEST_WORKLOADS = ("littlewood-scan", "alpha-sweep", "algebraic-maxima")


def bench(capsys, *argv, reference_path=wl.REFERENCE_FILE):
    code = run.main(list(argv), reference_path=reference_path)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke_run_passes_every_gate(capsys, name):
    code, result = bench(capsys, "--workload", name, "--smoke")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", ["littlewood-scan", "algebraic-maxima"])
def test_traced_smoke_run_reports_every_layer_metric(capsys, name):
    code, result = bench(capsys, "--workload", name, "--smoke", "--trace", "1")
    assert code == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(v >= 0 for v in metrics.values())
    assert metrics["trace.overhead"] > 0
    if name == "littlewood-scan":
        assert (metrics["littlewood.roots"], metrics["littlewood.step_roots"]) == (184, 30)
        assert metrics["intpoly.sturm_chain.calls"] > 0 and metrics["littlewood.chains_per_poly"] > 0
    else:
        assert metrics["scalars.scalar_sign.calls.algebraic"] > 0
        assert metrics["scalars.sign_at_per_alg_sign"] > 0
        assert metrics["scalars.algebraic.calls"] >= wl.POOL_SIZE  # the traced set-up


def test_tracer_restores_every_function(capsys):
    bench(capsys, "--workload", "series-eval", "--smoke", "--trace", "1")
    m = SimpleNamespace(**{n: sys.modules["takagi." + n] for n in ("intpoly", "scalars", "evaluate", "cli")})
    assert not hasattr(m.scalars.scalar_sign, "__wrapped__")
    assert not hasattr(m.evaluate.scalar_sign, "__wrapped__")
    assert not hasattr(m.evaluate.Geometric.weight, "__wrapped__")


@pytest.mark.parametrize("name", DIGEST_WORKLOADS)
def test_digest_gate_fires_on_corrupted_reference(capsys, tmp_path, name):
    reference = json.loads(wl.REFERENCE_FILE.read_text())
    reference[name] = {key: "0" * 16 for key in reference[name]}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    code, result = bench(capsys, "--workload", name, "--smoke", reference_path=path)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_missing_digest_is_a_failure(capsys, tmp_path):
    reference = json.loads(wl.REFERENCE_FILE.read_text())
    del reference["littlewood-scan"]["6"]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    code, result = bench(capsys, "--workload", "littlewood-scan", "--smoke", reference_path=path)
    assert code == 1 and result["failed"] == 1


def test_series_gate_fires_on_bad_enclosures():
    ok = SimpleNamespace(lo=Fraction(0), hi=Fraction(1, 10**13))
    assert wl.enclosure_errors("t", ok, ok) == []
    wide = SimpleNamespace(lo=Fraction(0), hi=Fraction(1, 10**11))
    assert wl.enclosure_errors("t", wide, ok)
    apart = SimpleNamespace(lo=Fraction(1), hi=Fraction(1))
    assert wl.enclosure_errors("t", ok, apart)


def test_figure_gate_fires_on_a_changed_row(tmp_path):
    class Corrupted(wl.AlphaSweep):
        def run(self, m, item):
            tp, report, row, d = super().run(m, item)
            return tp, report, row.replace("0", "1", 1), d

    m = wl.import_takagi()
    rows, errors = wl.figure1_mismatches(m, wl.AlphaSweep(), str(tmp_path / "ok"))
    assert rows == wl.FIGURE_CHECK_POINTS and errors == []
    rows, errors = wl.figure1_mismatches(m, Corrupted(), str(tmp_path / "bad"))
    assert len(errors) == rows


def test_known_scan_totals_gate_fires():
    item = wl.Item("scan(6)", 6, "6")
    assert wl.LittlewoodScan().check(None, item, SimpleNamespace(total_roots=184, total_step_roots=30)) == []
    assert wl.LittlewoodScan().check(None, item, SimpleNamespace(total_roots=184, total_step_roots=29))


def test_pool_file_matches_generator():
    specs = make_alpha_pool.pool_specs(wl.import_takagi().intpoly)
    assert len(specs) == wl.POOL_SIZE
    lines = [ln for ln in wl.POOL_FILE.read_text().splitlines() if not ln.startswith("#")]
    assert lines == specs


def test_inputs_depend_only_on_seed():
    m = wl.import_takagi()
    for workload in wl.WORKLOADS.values():
        first = [item.id for item in workload.build(m, 7, smoke=False)]
        assert first == [item.id for item in workload.build(m, 7, smoke=False)]
    sweep = wl.WORKLOADS["alpha-sweep"]
    grid = [str(a) for a in m.landsberg.default_grid(wl.SWEEP_POINTS)]
    assert [item.id for item in sweep.build(m, 0, smoke=False)] == grid[:: wl.SWEEP_STRIDE]
    assert not set(grid) & {item.id for item in sweep.build(m, 3, smoke=False)}


def test_latency_tail_keeps_ten_samples_beyond():
    label, value = run.latency_tail([i / 1000 for i in range(1, 2001)])
    assert label == "p99" and value == 1.98
    assert run.latency_tail([i / 1000 for i in range(1, 501)]) == ("p98", 0.49)
    assert run.latency_tail([1.0, 2.0, 3.0]) == ("p50", 2.0)


def test_end_to_end_scales_each_call_and_takes_the_median_pass():
    items = [wl.Item("a", None), wl.Item("b", None)]
    passes = [(0.2, 0.4), (0.1, 0.6), (0.3, 0.5)]
    records = [run.Record(item, t, [], {}, scale=2.0) for times in passes for item, t in zip(items, times)]
    setups = [(0.6, 0.3), (0.2, 0.1), (0.4, 0.2)]
    metrics, _, wall = run.end_to_end(wl.Workload(), records, setups, 40.0)
    assert metrics["items_per_s"][0] == pytest.approx(2 / 1.4)
    assert metrics["item_p50_ms"][0] == pytest.approx(700)
    assert metrics["setup_s"][0] == 0.4
    assert wall["items_per_s"] == pytest.approx(2 / 0.7) and wall["setup_s"] == 0.2


def test_each_call_is_scaled_by_the_kernel_timings_around_it(monkeypatch):
    kernels = iter([0.004, 0.002, 0.001])
    monkeypatch.setattr(run, "kernel_seconds", lambda: next(kernels))
    monkeypatch.setattr(run, "CAL_INTERVAL_S", 0.0)
    workload = wl.Workload()
    monkeypatch.setattr(workload, "run", lambda m, item: None)
    records = run.run_loop(workload, None, [wl.Item("a", None), wl.Item("b", None)], {})
    assert [r.scale for r in records] == [run.CAL_REFERENCE_S / 0.003, run.CAL_REFERENCE_S / 0.0015]


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = SPEC["command"] + ["--workload", "alpha-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
