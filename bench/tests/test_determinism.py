"""Seeds fix the inputs; fresh processes fix the caches."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench.workloads import ZOO_ONCE, build_model, kob_round, riemann_round, zoo_round

ROOT = Path(__file__).resolve().parents[2]


def _inputs(ops):
    return [(op.kind, op.label, op.inputs) for op in ops]


@pytest.mark.parametrize("make_round", [riemann_round, kob_round])
def test_seed_fixes_the_inputs(make_round):
    for key in ("euclid", "poincare", "sphere", "bergman-ball-2"):
        build_model(key)
    first = _inputs(make_round(3, 0))
    assert first == _inputs(make_round(3, 0))
    assert sorted(first) != sorted(_inputs(make_round(4, 0)))
    # later rounds repeat the same ops in another order
    again = _inputs(make_round(3, 1))
    assert again != first and sorted(again) == sorted(first)


def test_later_zoo_rounds_leave_out_only_the_long_verdict(tmp_path):
    first, later = _inputs(zoo_round(3, 0, tmp_path)), _inputs(zoo_round(3, 1, tmp_path))
    assert [op for op in first if op not in later] == [
        ("verdict", f"verdict[biholo-ball#{ZOO_ONCE}]", (float(ZOO_ONCE),))]
    assert len(later) == len(first) - 1


def _worker(workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-m", "bench.worker", "--workload", workload,
                           "--seed", str(seed), "--trace", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["kob-convex", "riemann-flows"])
def test_same_seed_repeats_ops_answers_and_call_counts(workload):
    first, second = _worker(workload, 5), _worker(workload, 5)
    assert first["failed"] == second["failed"] == 0
    for key in ("op_list_digest", "answer_digest", "traced_answer_digest", "call_counts"):
        assert first[key] == second[key], key
    assert first["answer_digest"] == first["traced_answer_digest"]   # tracing changes no answer
    if workload == "riemann-flows":
        # each process builds its metrics cold: a cache hit costs microseconds, the build seconds
        assert first["layers"]["riemann.bergman_ball.self_s"] > 0.1
