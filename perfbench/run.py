"""Benchmark of the dendrite package: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload ball-experiments --seed 0 --seconds 40 --trace 0

Every pass of a workload runs in a fresh child process (perfbench/child.py),
as a CLI user pays cold start on every run, and so that nothing cached in
one pass carries into the next.  Passes are started while the next one is
expected to end within --seconds; at least one always runs.

--trace 0 reports the end-to-end metrics: the median untraced pass time
`wall_s`, the median child set-up time `setup_s`, both corrected for the
speed of the shared core (see perfbench/speed.py), and the median child
peak RSS `peak_rss_mb`.  The summary line also gives the raw times.  --trace 1 alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see perfbench/spans.py).
Either way the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable summary, and failed operations are printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ball-experiments", "exact-networks", "quadrature")
CHILD_TIMEOUT_S = 120


def run_child(workload: str, seed: int, trace: bool, run_id: str) -> dict:
    """Run one pass in a fresh process; a crash or timeout comes back as {"error": ...}."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--run-id", run_id]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{workload}.bin")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass {run_id} did not end within {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass {run_id} exited {proc.returncode}:\n{proc.stderr[-4000:]}"}
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes (untraced, then traced when tracing) while the next is expected to fit."""
    runs = {"plain": [], "traced": [], "errors": []}
    kinds = ("plain", "traced") if trace else ("plain",)
    begin = time.monotonic()
    longest = 0.0
    k = 0
    while k == 0 or time.monotonic() - begin + longest <= seconds:
        t = time.monotonic()
        for kind in kinds:
            result = run_child(workload, seed, kind == "traced", f"{workload}-seed{seed}-{kind}{k}")
            if "error" in result:
                runs["errors"].append(result["error"])
            else:
                runs[kind].append(result)
        longest = max(longest, time.monotonic() - t)
        k += 1
    return runs


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def summarize(workload: str, seed: int, runs: dict, trace: bool) -> tuple[dict, list[str]]:
    """The result object for one workload, and readable lines describing it."""
    passes = runs["plain"] + runs["traced"]
    per_pass = max((p["attempted"] for p in passes), default=1)
    attempted = sum(p["attempted"] for p in passes) + per_pass * len(runs["errors"])
    failed = sum(len(p["failures"]) for p in passes) + per_pass * len(runs["errors"])
    plain = runs["plain"]

    def quartiles(key: str) -> str:
        xs = [p[key] for p in plain]
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        return f"median {statistics.median(xs):.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, n={len(xs)})"

    lines = [
        f"{workload} seed={seed}: wall_s {quartiles('wall_s')}; raw {quartiles('raw_wall_s')}; "
        f"setup_s {statistics.median(p['setup_s'] for p in plain):.4f} s "
        f"(raw {statistics.median(p['raw_setup_s'] for p in plain):.4f} s); "
        f"peak_rss_mb {statistics.median(p['peak_rss_mb'] for p in plain):.1f} MB; "
        f"fail_frac {failed / attempted:.4g} ({failed}/{attempted})"
    ]
    if trace:
        layers = [p["layers"] for p in runs["traced"]]
        values = {name: statistics.median(x[name] for x in layers) for name in layers[0]}
        traced_wall = statistics.median(p["raw_wall_s"] for p in runs["traced"])
        values["trace.overhead_frac"] = traced_wall / statistics.median(p["raw_wall_s"] for p in plain) - 1
        lines.append(
            f"{workload} traced: {len(layers)} passes, raw wall {traced_wall:.4f} s, "
            f"top-level spans cover {values['trace.coverage_frac']:.4f} of it"
        )
    else:
        values = {k: statistics.median(p[k] for p in plain) for k in ("wall_s", "setup_s", "peak_rss_mb")}
    metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dendrite" / "__init__.py").is_file():
        print(f"perfbench: no dendrite sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        runs = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for err in runs["errors"]:
            print(f"perfbench: {err}", file=sys.stderr)
        for p in runs["plain"] + runs["traced"]:
            for f in p["failures"]:
                print(f"perfbench: {name}: {f['op']} failed ({f['kind']}):\n{f['detail']}", file=sys.stderr)
        if not runs["plain"] or (args.trace and not runs["traced"]):
            print(f"perfbench: {name}: no pass completed", file=sys.stderr)
            return 1
        result, lines = summarize(name, args.seed, runs, bool(args.trace))
        print("\n".join(lines), flush=True)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        merged["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
