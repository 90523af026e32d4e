"""Write the accuracy truth table of the strip sum at b = 0.6+0.1i.

    python3 tools/golden_strip.py [OUT.json]

Computes log G_b at 64 points of the strip from the double infinite product

    G_b(x) = zeta_bar * prod_{n>=1}(1 - e^{2 pi i (x - n/b)/b})
                      / prod_{n>=0}(1 - e^{2 pi i b (x + n b)}),

which converges geometrically because Im(b^2) > 0, summed in mpmath at 30
significant digits until a factor's log falls below 1e-35.  The route
shares no code with the package's trapezoidal strip sum: it checks that
sum, not its last bits.  The logs are principal sums of principal logs, so
they equal the package's log G_b only mod 2 pi i.

Points: 60 drawn at a fixed seed across the band Re Q/4 <= Re z <= 3 Re Q/4
with |Im z| <= 1.5, 30 in each half-plane, and 4 near the strip edges, at
Re z = 0.05 Re Q and 0.95 Re Q with Im z = +-0.4.

mpmath is needed only to write the table (it is not a dependency of the
package); the test that reads the table needs neither this script nor mpmath.
Default output: tests/data/strip_log_gb_b0.6+0.1i.json.
"""

from __future__ import annotations

import argparse
import json
import pathlib

import mpmath
import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
B = 0.6 + 0.1j
DIGITS = 30
TERM_FLOOR = mpmath.mpf("1e-35")
SEED = 5


def _log_product(e0, e1):
    """sum_{n>=0} log(1 - e^{e0 + n e1}), Re e1 < 0, to TERM_FLOOR."""
    total = mpmath.mpc(0)
    n = 0
    while True:
        u = mpmath.exp(e0 + n * e1)
        total += mpmath.log(1 - u)
        if abs(u) < TERM_FLOOR and n > 0:
            return total
        n += 1


def log_gb_product(x, b):
    """log G_b(x) from the double product, mod 2 pi i."""
    x, b = mpmath.mpc(x), mpmath.mpc(b)
    b_inv = 1 / b
    two_pi_i = 2j * mpmath.pi
    log_zeta_bar = -1j * mpmath.pi / 4 - 1j * mpmath.pi * (b**2 + b_inv**2) / 12
    top = _log_product(two_pi_i * b_inv * (x - b_inv), -two_pi_i * b_inv**2)
    bottom = _log_product(two_pi_i * b * x, two_pi_i * b**2)
    return log_zeta_bar + top - bottom


def points(b: complex) -> list:
    re_q = (b + 1 / b).real
    rng = np.random.default_rng(SEED)
    re = rng.uniform(0.25, 0.75, 60) * re_q
    im = rng.uniform(0.0, 1.5, 60) * np.repeat([1.0, -1.0], 30)
    edge = [f * re_q + y for f in (0.05, 0.95) for y in (0.4j, -0.4j)]
    return [complex(z) for z in re + 1j * im] + edge


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=pathlib.Path, nargs="?",
                    default=ROOT / "tests" / "data" / "strip_log_gb_b0.6+0.1i.json")
    args = ap.parse_args()
    mpmath.mp.dps = DIGITS
    rows = []
    for z in points(B):
        v = log_gb_product(z, B)
        rows.append(json.dumps([z.real, z.imag, float(v.real), float(v.imag)]))
    head = json.dumps({
        "b": [B.real, B.imag],
        "route": f"double product in mpmath at {DIGITS} digits, mod 2 pi i",
        "columns": ["Re z", "Im z", "Re log G_b", "Im log G_b"],
    })
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(head[:-1] + ', "points": [\n' + ",\n".join(rows) + "\n]}\n")
    print(f"wrote {len(rows)} points to {args.out}")


if __name__ == "__main__":
    main()
