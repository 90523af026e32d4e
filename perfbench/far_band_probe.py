"""Measure the one known defect the gb-table workload leaves out.

    python3 perfbench/far_band_probe.py --seed 1 --pairs 1000

At the complex modulus b = 0.6+0.1i, far-band points (|Re z| <= 50) need
tens of shift steps, and the reduction leaves double range (NaN, or a factor
that under- or overflows) or accumulates roundoff past the reflection
tolerance (ROADMAP item 4).  This draws far-band reflection pairs the way
gb-table draws its points, evaluates them with one gb_eval_many call, checks
every pair like gb-table does, and prints how many fail.  It is not part of
the timed benchmark: a workload with failing operations cannot be compared
from run to run.  Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

B = 0.6 + 0.1j
FAR_BAND = 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=1000)
    args = ap.parse_args()

    import qdilog

    rng = np.random.default_rng(args.seed)
    pairs = [complex(z) for z in
             workloads.draw_pairs(rng, B, np.full(args.pairs, FAR_BAND))]
    Q = B + 1.0 / B
    values = qdilog.gb_eval_many(pairs + [Q - z for z in pairs], B)
    tally = checks.Tally()
    for i, z in enumerate(pairs):
        checks.check_pair(tally, B, Q, z, complex(values[i]),
                          complex(values[len(pairs) + i]))
    print(f"b = {B}, far band, seed {args.seed}: {tally.failed} of"
          f" {tally.attempted} reflection pairs fail")
    for what in tally.failures[:5]:
        print(f"  {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
