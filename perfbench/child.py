"""One pass of one workload in a fresh process; prints its result as one JSON line.

Started by run.py as `python -m perfbench.child` from the checkout root.
`--t0` is the parent's monotonic clock just before the process started,
so set-up time covers interpreter start, imports and input generation,
up to the first call into the program.  An untraced pass reports its
times raw and corrected for the core's speed (see speed.py); a traced
pass reports raw times only, as probes inside it would land in spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.child")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the traced pass writes its spans to")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        from perfbench.spans import Tracer

        tracer = Tracer(run_id=args.run_id)
        tracer.install()
    from perfbench import speed, workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup = time.monotonic() - args.t0
    core = statistics.median(speed.probe() for _ in range(5))
    result = {"raw_setup_s": setup, "setup_s": setup * speed.REFERENCE_S / core}
    if tracer is None:
        with speed.SpeedClock() as clock:
            outputs = workloads.run_ops(ops)
        result.update(raw_wall_s=clock.raw, wall_s=clock.scaled)
    else:
        t = time.perf_counter()
        outputs = workloads.run_ops(ops)
        result["raw_wall_s"] = time.perf_counter() - t
        result["layers"] = tracer.summary(result["raw_wall_s"])
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(ops),
        failures=workloads.check_ops(ops, outputs),
    )
    if tracer is not None and args.spans:
        tracer.write(Path(args.spans))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
