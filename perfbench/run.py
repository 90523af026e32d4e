"""qdilog benchmark: one command, every metric by name and unit, outputs checked.

    python3 perfbench/run.py --workload contour-suites --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Each pass of the workload runs in a fresh interpreter (one_pass.py),
and passes repeat while the next one still fits in --seconds (at least
MIN_PASSES).  With --trace 0 the last line holds the end-to-end metrics,
medians over the passes; with --trace 1 untraced and traced passes alternate
and the last line holds the per-layer metrics.  Any output that fails its
check is counted in "failed", and "correct" is false as soon as one does.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import tracing
import workloads
from tracing import percentile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SETUPS_PER_ROUND = 1
DEADLINE_S = 170.0  # every pass must end well inside the 180 s budget of a run

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "accuracy_decades": "decades",
    "pass_ratio": "ratio",
}


class PassError(RuntimeError):
    pass


def _pass_env() -> dict:
    env = dict(os.environ)
    env.pop("QDILOG_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # The suites' own pool is the only parallelism the workloads measure.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Start one pass process (mode: plain, trace or setup), wait, add setup_s."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_pass_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass of {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassError(f"pass of {workload} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    return out


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Rounds of passes until the next round would overrun --seconds.

    A round is SETUPS_PER_ROUND set-up-only starts plus one untraced pass,
    or with trace one untraced and one traced pass.  At least MIN_PASSES
    rounds run, whatever --seconds says.
    """
    modes = ("plain", "trace") if trace else ("setup",) * SETUPS_PER_ROUND + ("plain",)
    runs = {"plain": [], "trace": [], "setup": []}
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(runs["plain"]) >= MIN_PASSES and elapsed + longest > seconds:
            break
        if runs["plain"] and elapsed + 1.5 * longest > DEADLINE_S:
            break
        t0 = time.monotonic()
        for mode in modes:
            left = DEADLINE_S - (time.monotonic() - start)
            runs[mode].append(run_pass(workload, seed, mode, max(left, 1.0)))
        longest = max(longest, time.monotonic() - t0)
    return runs


def end_to_end(plain: list, setups: list) -> dict:
    # Every pass sends the same requests in the same order: take each
    # request's median over the passes, then percentiles over the requests.
    requests_ms = [1e3 * statistics.median(times)
                   for times in zip(*(p["requests_s"] for p in plain))]
    attempted = sum(p["attempted"] for p in plain)
    failed = sum(p["failed"] for p in plain)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in plain + setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "throughput_per_s": statistics.median(p["work"] / p["work_s"] for p in plain),
        "request_ms_p50": percentile(requests_ms, 50),
        "request_ms_p90": percentile(requests_ms, 90),
        "accuracy_decades": statistics.median(p["decades"] for p in plain),
        "pass_ratio": (attempted - failed) / attempted,
    }


def per_layer(plain: list, traced: list) -> tuple:
    """Medians of the traced passes' layer metrics plus the tracing overhead.

    The second item lists counts that differed between traced passes
    although no case ran on a pool thread (see tracing.COUNTS).
    """
    out, differing = {}, []
    for name in traced[0]["layers"]:
        vals = [t["layers"][name] for t in traced]
        if name in tracing.COUNTS and len(set(vals)) > 1:
            differing.append(name)
        out[name] = statistics.median(vals)
    pooled = out["suites.pool_busy_ratio"] > 0
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
    out["trace.count_mismatches"] = len(differing)
    return out, ([] if pooled else differing)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qdilog" / "__init__.py").is_file():
        print(f"no qdilog sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        runs = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    plain, traced = runs["plain"], runs["trace"]
    problems = [f for p in plain + traced for f in p["failures"]]
    if args.trace:
        metrics, unsteady = per_layer(plain, traced)
        units = tracing.UNITS
        for name in unsteady:
            problems.append(f"count {name} differs between traced passes")
    else:
        metrics, units = end_to_end(plain, runs["setup"]), END_TO_END_UNITS
    attempted = sum(p["attempted"] for p in plain + traced)
    failed = sum(p["failed"] for p in plain + traced)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced"
          f" and {len(traced)} traced passes, each in a fresh interpreter,"
          f" {len(runs['setup'])} more set-up-only starts")
    print(f"operations: {attempted} attempted, {failed} failed")
    for what in problems[:10]:
        print(f"FAILED: {what}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
