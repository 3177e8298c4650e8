"""The zoo-suite replay gives the suite's verdicts with the suite's per-layer work."""

from collections import Counter

from rigidlab import rigidity

from bench import worker
from bench.tracer import Tracer
from bench.workloads import build_model, zoo_round

EMIT = "cli.emit_report"


def _traced(call, metrics):
    t = Tracer()
    t.install(metrics)
    try:
        result = call()
    finally:
        t.restore()
    return t, result


def test_zoo_replay_matches_one_direct_suite_call(tmp_path):
    metrics = [build_model("poincare"), build_model("bergman-ball-2")]
    direct, summary = _traced(rigidity.counterexample_suite, metrics)
    replay, done = _traced(lambda: worker.time_ops(zoo_round(7, 0, tmp_path)), metrics)
    records = worker.judge(done)

    assert summary.passed
    assert all(r.ok for r in records), [r.error for r in records if not r.ok]
    verdicts = [r.values for r in records if r.kind == "verdict"]
    assert len(verdicts) == 22
    assert Counter((p, name, v) for p, name, _, v in verdicts) == Counter(
        (e.pipeline, e.map_name, e.verdict) for e in summary.entries)

    counts, want = replay.call_counts(), direct.call_counts()
    assert (counts.pop(EMIT), want.pop(EMIT)) == (22, 0)   # the replay also writes reports
    assert len(list(tmp_path.glob("*.json"))) == 22
    assert counts == want
