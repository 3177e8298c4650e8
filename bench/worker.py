"""One benchmark process: set up, run a workload's ops, report what it measured.

Run from the repository root (``bench/run.py`` does this for you)::

    PYTHONPATH=src:. python3 -m bench.worker --workload kob-convex --seed 1 --seconds 10 --trace 0

The worker prints ``READY <unix time> <speed factor>`` once set-up is done
(imports plus every model metric the workload uses), runs the whole rounds
of ops that fill ``--seconds`` at the workload's nominal pace, and prints one
JSON line with its measurements.  Untraced, it samples the machine's speed
all along (``bench/speed.py``) and reports times at the reference speed.
With ``--trace 1`` it runs round 1 untraced and round 0 traced instead, and
reports per-layer counts and self times.  ``--setup-only`` stops after
``READY``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from bench.speed import Speedometer

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
TAIL_BEYOND = 10   # ops that must lie beyond the reported tail percentile


@dataclass
class Record:
    kind: str
    label: str
    inputs: tuple
    seconds: float                  # reference-speed time (``bench/speed.py``)
    ok: bool
    error: str | None
    values: tuple
    intervals: tuple
    wall: float | None = None       # wall time as measured


def time_ops(ops, tracer=None, first_id: int = 0, speed=None) -> list[tuple]:
    """Run ops back to back; return ``(op, start, end, answer, error)`` for each.
    With a ``Speedometer``, the machine's speed is sampled between ops."""
    done = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + i
        if speed is not None:
            speed.sample()
        start = time.perf_counter()
        try:
            answer, error = op.run(), None
        except Exception as exc:  # a raising op counts as failed, and the loop goes on
            answer, error = None, f"{type(exc).__name__}: {exc}"
        done.append((op, start, time.perf_counter(), answer, error))
    if tracer is not None:
        tracer.op = None
    return done


def judge(done, speed=None) -> list[Record]:
    """Apply each op's reference check; an op that raised or missed it failed.

    With a ``Speedometer``, an op's ``seconds`` are at the reference speed;
    without one they are its wall time."""
    records = []
    for op, start, end, answer, error in done:
        seconds = speed.scaled(start, end) if speed is not None else end - start
        values, intervals, ok = (), (), False
        if error is None:
            try:
                outcome = op.check(answer)
            except Exception as exc:  # a check that cannot read the answer fails the op
                error = f"check {type(exc).__name__}: {exc}"
            else:
                ok, values, intervals = bool(outcome.ok), outcome.values, outcome.intervals
                if not ok:
                    error = "reference check failed"
        records.append(Record(op.kind, op.label, op.inputs, seconds, ok, error, values, intervals,
                              end - start))
    return records


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def tail_index(n: int) -> int:
    """Index (in sorted order) of the highest percentile with ``TAIL_BEYOND`` ops beyond it."""
    return max(0, n - 1 - TAIL_BEYOND)


def latency_metrics(records: list[Record]) -> dict:
    """Throughput and percentiles over distinct ops.

    Rounds repeat the same ops, spread over the run, and an op's latency is
    the median of its repeats.
    """
    repeats: dict[tuple, list[float]] = {}
    for r in records:
        repeats.setdefault((r.label, r.inputs), []).append(r.seconds)
    lat = sorted(statistics.median(v) for v in repeats.values())
    n = len(lat)
    i = tail_index(n)
    return {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * lat[i],
        "tail_percentile": 100.0 * (i + 1) / n,
        "ops": n,
    }


def bound_gap_rel(records: list[Record]) -> float:
    """Median of ``(upper - lower) / upper`` over the certified generic Kobayashi intervals."""
    gaps = [(up - lo) / up for r in records for lo, up in r.intervals if up > 0]
    return statistics.median(gaps) if gaps else 0.0


def summary(records: list[Record]) -> dict:
    failures = [f"{r.label}: {r.error}" for r in records if not r.ok]
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:10],
        "op_list_digest": digest((r.kind, r.label, r.inputs) for r in records),
        "answer_digest": digest(sorted(repr((r.label, r.values)) for r in records)),
        "bound_gap_rel": bound_gap_rel(records),
    }


def setup(workload: str):
    """Import every layer and build the workload's model metrics."""
    import rigidlab.cli  # imports every layer module

    src = (ROOT / "src").resolve()
    if src not in Path(rigidlab.cli.__file__).resolve().parents:
        raise SystemExit(f"rigidlab was imported from {rigidlab.cli.__file__}, not from {src}")
    from bench.workloads import WORKLOADS, build_model

    wl = WORKLOADS[workload]
    return wl, [build_model(key) for key in wl.models]


def run_untraced(wl, speed, seed: int, seconds: float, scratch: Path) -> tuple[dict, list[Record]]:
    """Whole rounds only, as many as fill ``seconds`` at the workload's nominal
    round time.  The count never depends on the clock, so every run of a
    workload holds the same op mix and its percentiles are comparable."""
    rounds = max(1, round(seconds / wl.round_s))
    done = []
    for r in range(rounds):
        done += time_ops(wl.make_round(seed, r, scratch), first_id=len(done), speed=speed)
    speed.stop()
    records = judge(done, speed)
    wall = sum(r.wall for r in records)
    result = {"rounds": rounds, **summary(records), **latency_metrics(records),
              "wall_s": wall, "speed": sum(r.seconds for r in records) / wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return result, records


def run_traced(wl, tracer, metrics, seed: int, scratch: Path) -> tuple[dict, list[Record]]:
    """Round 1 untraced, then round 0 with every layer wrapped.

    Round 0 holds every op (zoo-suite's later rounds leave out its 26-45 s
    verdict), so its call counts are complete; the tracing overhead compares
    the ops the two rounds share."""
    untraced = judge(time_ops(wl.make_round(seed, 1, scratch)))
    ops = wl.make_round(seed, 0, scratch)
    tracer.install(metrics)
    tracer.covered = 0.0
    try:
        done = time_ops(ops, tracer)
    finally:
        tracer.restore()
    traced = judge(done)
    shared = {(r.label, r.inputs) for r in untraced}
    wall_shared = sum(r.seconds for r in traced if (r.label, r.inputs) in shared)
    layers = tracer.layer_table()
    layers["kobayashi.bound_gap_rel"] = bound_gap_rel(traced)
    layers["harness.unattributed_s"] = sum(r.seconds for r in traced) - tracer.covered
    layers["harness.trace_overhead"] = wall_shared / sum(r.seconds for r in untraced) - 1.0
    result = {"rounds": 1, **summary(untraced + traced), "layers": layers,
              "missing": tracer.missing, "call_counts": tracer.call_counts(),
              "answer_digest": summary(untraced)["answer_digest"],
              "traced_answer_digest": summary(traced)["answer_digest"]}
    return result, traced


def write_spans(path: Path, tracer) -> None:
    with gzip.open(path, "wt") as fh:
        for span in tracer.spans:
            if span is not None:
                fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = speed = None
    if not args.trace or args.setup_only:
        speed = Speedometer()
        speed.start()
    if args.trace and not args.setup_only:
        import rigidlab.cli  # noqa: F401
        from bench.tracer import Tracer

        tracer = Tracer()
        tracer.install()       # builders run traced
    try:
        wl, metrics = setup(args.workload)
    finally:
        if tracer is not None:
            tracer.restore()
    ready = time.perf_counter()
    factor = speed.factor(speed.starts[0], ready) if speed is not None else 1.0
    print(f"READY {time.time():.6f} {factor:.6f}", flush=True)
    if args.setup_only:
        speed.stop()
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        if tracer is None:
            result, records = run_untraced(wl, speed, args.seed, args.seconds, Path(scratch))
        else:
            result, records = run_traced(wl, tracer, metrics, args.seed, Path(scratch))
    result.update(workload=args.workload, seed=args.seed, trace=args.trace)
    detail = dict(result, ops=[[r.label, r.seconds, r.wall, r.ok, r.error] for r in records])
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        write_spans(OUT_DIR / f"{stem}-spans.jsonl.gz", tracer)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
