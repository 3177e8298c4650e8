"""Failures, percentiles and the benchmark's command-line contract."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rigidlab.errors import NotUnit

from bench import run, tracer, worker
from bench.speed import REF_KERNEL_S, Speedometer
from bench.workloads import WORKLOADS, Op, Outcome

ROOT = Path(__file__).resolve().parents[2]


def _op(label, run_fn, ok=True):
    return Op("fake", label, (), run_fn, lambda answer: Outcome(ok and answer == 42, (answer,)))


def _raise():
    raise NotUnit("fake op on a zero vector")


def test_missed_reference_and_raised_errors_count_as_failed():
    ops = [_op("good", lambda: 42), _op("wrong answer", lambda: 41), _op("raises", _raise),
           _op("good again", lambda: 42)]
    records = worker.judge(worker.time_ops(ops))
    s = worker.summary(records)
    assert s["attempted"] == 4
    assert s["failed"] == 2
    assert [r.ok for r in records] == [True, False, False, True]
    assert records[1].error == "reference check failed"
    assert records[2].error.startswith("NotUnit")
    assert worker.latency_metrics(records)["ops"] == 4   # failed ops keep their latency


def _record(label, seconds):
    return worker.Record("k", label, (), seconds, True, None, (), ())


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    records = [_record(f"op{s}", s / 1000.0) for s in range(1, 101)]
    m = worker.latency_metrics(records)
    assert m["op_tail_ms"] == pytest.approx(90.0)
    assert m["tail_percentile"] == pytest.approx(90.0)
    assert m["op_p50_ms"] == pytest.approx(50.5)
    assert m["ops_per_s"] == pytest.approx(100 / 5.050)


def test_metrics_take_each_ops_median_repeat():
    records = [_record("a", 0.010), _record("b", 0.030), _record("a", 0.020), _record("b", 0.040),
               _record("a", 0.090), _record("b", 0.035)]
    m = worker.latency_metrics(records)
    assert m["ops"] == 2
    assert m["op_p50_ms"] == pytest.approx(27.5)   # median of the median repeats 20 and 35
    assert m["ops_per_s"] == pytest.approx(2 / 0.055)


def _speedometer(samples):
    """A Speedometer with the given ``(start, kernel seconds)`` samples."""
    speed = Speedometer()
    speed.starts = [t for t, _ in samples]
    speed.ends = [t + k for t, k in samples]
    return speed


def test_scaled_time_divides_out_the_kernels_slowdown():
    ref = REF_KERNEL_S
    speed = _speedometer([(0.0, 2 * ref), (1.0, 2 * ref), (2.0, ref), (3.0, ref)])
    assert speed.scaled(0.5, 0.6) == pytest.approx(0.05)          # half speed around it
    assert speed.scaled(2.5, 2.6) == pytest.approx(0.1)           # full speed
    # a span that holds a sample loses the sample's time, then takes the mean speed
    assert speed.scaled(0.5, 2.5) == pytest.approx((2.0 - 2 * ref - ref) * (0.5 + 0.5 + 1.0 + 1.0) / 4)


def test_speedometer_samples_while_running_and_disarms():
    speed = Speedometer()
    speed.start()
    try:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    finally:
        speed.stop()
    assert len(speed.starts) >= 4
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.scaled(speed.ends[0], speed.starts[-1]) > 0


def test_bound_gap_rel_is_the_median_relative_width():
    records = [worker.Record("k", "l", (), 1.0, True, None, (), iv)
               for iv in (((1.0, 2.0),), ((3.0, 4.0),), ((0.0, 1.0),))]
    assert worker.bound_gap_rel(records) == pytest.approx(0.5)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.layer_metric_names()
    assert max(m["bound"] for m in spec["end_to_end"]) == spec["end_to_end"][0]["bound"] <= 0.25


def test_run_fails_without_sources(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "kob-convex", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_workloads_avoid_code_marked_for_deletion():
    """ROADMAP items 2 and 4 delete these; the benchmark must not depend on them."""
    doomed = ("metric_from_sympy", "exp_map", ".mid", ".scale(", ".intersect(", "--jobs", "jobs=")
    for path in (ROOT / "bench").glob("*.py"):
        text = path.read_text()
        assert not [d for d in doomed if d in text], path
