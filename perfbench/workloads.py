"""Seeded inputs and timed bodies of the benchmark's three workloads.

Each workload is one closed-loop client in one process: it sends the next
request only after the previous one returned.  The package receives only the
generated inputs, through the two ways users drive it: `qdilog.cli.main`
with an argv list, and `qdilog.gb_eval_many`.

  contour-suites  the five contour-identity suites at the default grid,
                  b = 0.8, two threads; the six-nine suite gets the seed.
  gb-table        G_b tabulated at three moduli: a batched refinement sweep
                  through gb_eval_many, then about 100 CLI eval requests.
                  The far band is left out at the complex modulus, where
                  the package fails there (far_band_probe.py).
  exact-algebra   20 runs of the exact theorem31 suite at derived seeds.
"""

from __future__ import annotations

import contextlib
import io
import time

import numpy as np

import checks

WORKLOADS = ("contour-suites", "gb-table", "exact-algebra")

CONTOUR_SUITES = ("tau-binomial", "six-nine", "q-binomial", "kac", "consistency")
THREADS = 2
SUITE_B = "0.8"
EXACT_RUNS = 20

TABLE_MODULI = (0.8, 0.6, 0.6 + 0.1j)
SWEEP_CALLS = 8  # gb_eval_many calls per modulus in the batched phase
SWEEP_PAIRS = 128  # reflection pairs per call; half repeat the previous call
CLI_REQUESTS = 34  # eval requests per modulus in the CLI phase
CLI_MAX_PAIRS = 10  # requests hold 1..10 pairs (2..20 points), each size equally often
NEAR_RE = 5.0
FAR_RE = 50.0
LATTICE_GAP = 1e-3  # the CLI's pole-proximity flag distance


def _b_text(b: complex) -> str:
    return repr(b.real) if b.imag == 0 else repr(b)


def _verify_argv(suite: str, extra=()) -> list:
    return ["verify", "--suite", suite, "--format", "json", *extra]


def contour_suites_inputs(seed: int) -> list:
    out = []
    for suite in CONTOUR_SUITES:
        extra = ["--b", SUITE_B, "--threads", str(THREADS)]
        if suite == "six-nine":
            extra += ["--seed", str(seed)]
        out.append(_verify_argv(suite, extra))
    return out


def exact_algebra_inputs(seed: int) -> list:
    rng = np.random.default_rng(seed)
    seeds = rng.integers(1, 2**31 - 1, size=EXACT_RUNS)
    return [_verify_argv("theorem31-exact", ["--seed", str(int(s))]) for s in seeds]


# ---------------------------------------------------------------------------
# gb-table inputs


def _cone_distance(w: np.ndarray, b: complex) -> np.ndarray:
    """Distance from each w to {n1 b + n2 / b : n1, n2 >= 0}, exact below 1."""
    g = 1.0 / b
    g2 = abs(g) ** 2
    best = np.abs(w)
    # Re(n1 b + n2 / b) >= n1 Re b, so larger n1 lie farther than 1 away.
    n1_max = int(np.ceil((max(float(w.real.max()), 0.0) + 1.0) / b.real))
    for n1 in range(n1_max + 1):
        rem = w - n1 * b
        t = np.floor((rem.real * g.real + rem.imag * g.imag) / g2)
        for n2 in (np.maximum(t, 0.0), np.maximum(t + 1.0, 0.0)):
            best = np.minimum(best, np.abs(rem - n2 * g))
    return best


def lattice_distance(zs: np.ndarray, b: complex) -> np.ndarray:
    """Distance from each z to the nearest pole or zero of G_b (exact below 1)."""
    Q = b + 1.0 / b
    return np.minimum(_cone_distance(-zs, b), _cone_distance(zs - Q, b))


def draw_pairs(rng, b: complex, bands: np.ndarray) -> np.ndarray:
    """One point z per band id whose reflection pair (z, Q - z) keeps off the lattice.

    Band 0 lies inside the strip, band 1 at |Re z| <= 5 (a few shift
    steps), band 2 at |Re z| <= 50 (tens of steps); 0.1 <= |Im z| <= 1.
    A point too close to a pole or zero is drawn again in its band, so the
    band counts, and with them the work, do not depend on the seed.
    """
    Q = b + 1.0 / b
    centre = np.array([0.5 * Q.real, 0.0, 0.0])[bands]
    width = np.array([0.45 * Q.real, NEAR_RE, FAR_RE])[bands]
    z = np.empty(len(bands), dtype=complex)
    todo = np.arange(len(bands))
    while len(todo):
        x = centre[todo] + width[todo] * rng.uniform(-1.0, 1.0, size=len(todo))
        y = rng.uniform(0.1, 1.0, size=len(todo)) * rng.choice((-1.0, 1.0), size=len(todo))
        z[todo] = x + 1j * y
        close = (lattice_distance(z[todo], b) < LATTICE_GAP) | (
            lattice_distance(Q - z[todo], b) < LATTICE_GAP
        )
        todo = todo[close]
    return z


def _bands(rng, b: complex, n: int) -> np.ndarray:
    """Band ids for n points: the three bands equally often at real b.

    At complex b the long shift reduction of far-band points leaves double
    range or loses accuracy (ROADMAP item 4), so a share of them fails
    whatever the seed; there the points split between the strip and the
    near band.  far_band_probe.py measures that defect.
    """
    kinds = 3 if b.imag == 0.0 else 2
    return rng.permutation(np.arange(n) % kinds)


def gb_table_inputs(seed: int) -> dict:
    """Sweep calls and CLI requests per modulus, all as pair lists."""
    rng = np.random.default_rng(seed)
    sweep, requests = [], []
    half = SWEEP_PAIRS // 2
    for b in TABLE_MODULI:
        b = complex(b)
        calls = [draw_pairs(rng, b, _bands(rng, b, SWEEP_PAIRS))]
        for _ in range(SWEEP_CALLS - 1):
            keep = rng.choice(calls[-1], size=half, replace=False)
            calls.append(np.concatenate([keep, draw_pairs(rng, b, _bands(rng, b, half))]))
        sweep.append((b, [[complex(z) for z in c] for c in calls]))
        sizes = rng.permutation(np.arange(CLI_REQUESTS) % CLI_MAX_PAIRS + 1)
        points = draw_pairs(rng, b, _bands(rng, b, int(sizes.sum())))
        for part in np.split(points, np.cumsum(sizes)[:-1]):
            requests.append((b, [complex(z) for z in part]))
    return {"sweep": sweep, "requests": requests}


def eval_argv(b: complex, pairs: list) -> list:
    Q = b + 1.0 / b
    points = list(pairs) + [Q - z for z in pairs]
    return [
        "eval", "--what", "Gb", "--format", "csv", "--b", _b_text(b),
        "--points", ",".join(repr(complex(z)) for z in points),
    ]


def make_inputs(workload: str, seed: int):
    if workload == "contour-suites":
        return contour_suites_inputs(seed)
    if workload == "exact-algebra":
        return exact_algebra_inputs(seed)
    if workload == "gb-table":
        return gb_table_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Timed bodies


def _cli_call(cli, argv: list):
    """One CLI request: (exit code, stdout text, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - t0


def _verify_body(qdilog, argvs: list) -> dict:
    timed = [_cli_call(qdilog.cli, argv) for argv in argvs]
    tally = checks.Tally()
    for argv, (code, text, _) in zip(argvs, timed):
        checks.check_verify_report(tally, code, text, " ".join(argv[:3]))
    seconds = [dt for _, _, dt in timed]
    return {
        "wall_s": sum(seconds),
        "requests_s": seconds,
        "work": tally.attempted,
        "work_s": sum(seconds),
        "tally": tally,
    }


def _strip_oracle(qdilog, b: complex):
    """gb_product_oracle on strip points at complex b, None elsewhere."""
    if b.imag == 0.0:
        return None
    Q = b + 1.0 / b
    memo = {}

    def oracle(w: complex):
        if not 0.0 < w.real < Q.real:
            return None
        if w not in memo:
            memo[w] = qdilog.gb_product_oracle(w, b)
        return memo[w]

    return oracle


def _gb_table_body(qdilog, inputs: dict) -> dict:
    sweep_out, sweep_s = [], 0.0
    n_points = 0
    for b, calls in inputs["sweep"]:
        Q = b + 1.0 / b
        for pairs in calls:
            points = pairs + [Q - z for z in pairs]
            t0 = time.perf_counter()
            values = qdilog.gb_eval_many(points, b)
            sweep_s += time.perf_counter() - t0
            n_points += len(points)
            sweep_out.append((b, pairs, values))
    timed = [
        _cli_call(qdilog.cli, eval_argv(b, pairs))
        for b, pairs in inputs["requests"]
    ]

    tally = checks.Tally()
    oracles = {b: _strip_oracle(qdilog, b) for b, _ in inputs["sweep"]}
    for b, pairs, values in sweep_out:
        Q = b + 1.0 / b
        k = len(pairs)
        for i, z in enumerate(pairs):
            checks.check_pair(
                tally, b, Q, z, complex(values[i]), complex(values[k + i]), oracles[b]
            )
    for (b, pairs), (code, text, _) in zip(inputs["requests"], timed):
        checks.check_eval_request(
            tally, b, b + 1.0 / b, pairs, code, text, oracles[b]
        )
    request_s = [dt for _, _, dt in timed]
    return {
        "wall_s": sweep_s + sum(request_s),
        "requests_s": request_s,
        "work": n_points,
        "work_s": sweep_s,
        "tally": tally,
    }


def run_body(qdilog, workload: str, inputs) -> dict:
    """Run one workload's timed body, then check every output."""
    if workload == "gb-table":
        return _gb_table_body(qdilog, inputs)
    return _verify_body(qdilog, inputs)
