"""rigidlab benchmark: one command that runs a workload, checks every answer
and prints every metric by name with its unit.

Run from the repository root::

    python3 bench/run.py --workload riemann-flows --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it first times set-up in fresh processes (``setup_s`` is
the median of ``SETUP_SAMPLES`` of them, the measuring process included),
then measures the workload with tracing off and prints the end-to-end
metrics.  Times are at the reference speed of ``bench/speed.py``: each
worker samples the machine's speed while it runs and scales its wall times.
With ``--trace 1`` it prints the per-layer metrics of a traced run instead.  The last line of its output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench.tracer import layer_metric_names  # noqa: E402  (needs ROOT on sys.path)

WORKLOADS = ("riemann-flows", "zoo-suite", "kob-convex")
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"))
SETUP_SAMPLES = 2
TIME_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker process; return its set-up time (wall time from spawn
    to ``READY``, at the reference speed) and its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [sys.executable, "-m", "bench.worker", *args]
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {' '.join(args)} ran past the time limit")
    finally:
        if proc.poll() is None:   # timed out or interrupted: leave no worker behind
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise WorkerFailed(f"worker {' '.join(args)} exited with code {proc.returncode}")
    _, ready, factor = lines[0].split()
    setup_s = (float(ready) - started) * float(factor)
    result = json.loads(lines[-1]) if len(lines) > 1 else None
    return setup_s, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rigidlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # run the worker clean-up

    if not (ROOT / "src" / "rigidlab" / "__init__.py").is_file():
        print(f"no rigidlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn([*common, "--setup-only"], deadline)[0])
        setup_s, res = spawn([*common, "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], deadline)
        setups.append(setup_s)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    if args.trace:
        wanted = layer_metric_names()
        values = res["layers"]
        missing = set(res["missing"])
        for name, _ in wanted:
            if name.rsplit(".", 1)[0] in missing:
                print(f"missing layer metric {name}: its wrapper target is gone", file=sys.stderr)
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in wanted if name.rsplit(".", 1)[0] not in missing}
    else:
        values = dict(res, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  rounds {res['rounds']}  "
          f"ops {res['attempted']}  failed {res['failed']}")
    if not args.trace:
        print(f"  setup samples (s): {' '.join(f'{s:.3f}' for s in setups)}")
        print(f"  op_tail_ms is the p{res['tail_percentile']:.1f} latency of {res['ops']} ops")
        print(f"  timed ops: {res['wall_s']:.3f} s wall, scaled by {res['speed']:.4f} to the reference speed")
        print(f"  failed_ratio {res['failed'] / res['attempted']:.6g}  "
              f"bound_gap_rel {res['bound_gap_rel']:.6g}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
