"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/one_pass.py --workload gb-table --seed 1 --mode plain

run.py starts this once per pass, so no state of the package (its global
log cache above all) survives from one timed pass to the next.  The line
carries the monotonic clock reading at which the inputs were ready, which
run.py turns into the set-up time.  Mode "trace" adds the per-layer metrics;
mode "setup" stops once the inputs are ready, to sample set-up time alone.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "setup"), required=True)
    args = ap.parse_args()

    import qdilog
    import qdilog.cli

    src = (ROOT / "src").resolve()
    if src not in pathlib.Path(qdilog.__file__).resolve().parents:
        raise SystemExit(f"imported qdilog from {qdilog.__file__}, not {src}")

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        out = workloads.run_body(qdilog, args.workload, inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    tally = out.pop("tally")
    out.update(
        ready=ready,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        decades=tally.min_decades,
    )
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
