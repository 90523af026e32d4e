"""Pole-separating contour integration for dilogarithm-factor integrands.

An integrand here is a Symbol (Gaussian exponential times G_b factors)
integrated over one generator along a deformation of the real axis.  Each
factor whose argument depends on the variable contributes a two-parameter
fan of integrand poles: where the factor's dilogarithm hits its pole
lattice (positive exponent) or its zero lattice (negative exponent).  The
classical prescription realized below runs along the real axis, passing
above every fan that moves downward and below every fan that moves upward;
when fans touch the axis from both sides the line is bent around individual
points with small semicircles.

One function, _pole_set, lists the poles that survive cancellation in a
horizontal band as arrays (point, weight, direction).  An integral builds
one such set (_surviving): planning reads the gap edges and the cluster
near the midline from it, and integration validates its path, at every
truncation, against the same set.  The vertical asymptotics of G_b fix the
tail decay and the local oscillation rate used to size panels.

integrate_contour_steps is the integration as a step generator: it binds
the integrand to floats once, reads the fans from the bound factors, then
yields one G_b request per integrand evaluation (the probe, each tail
stretch, each Gauss-Kronrod round) and is sent the values.
integrate_contour runs it with run_steps, the lockstep driver on one
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import EvalConfig, as_modulus
from .errors import ContourUnsupportedError, ConvergenceError, DegenerateParameterError
from .quadrature import Arc, Line, integrate_steps
from .symbolic import BoundSymbol, IntegrandSpec, run_steps

# Not called here: perfbench/tracing.py rebinds contour.integrate_batch by
# name, so the name stays bound.
from .quadrature import integrate_batch  # noqa: F401

__all__ = [
    "PoleSeq",
    "Indentation",
    "ContourSpec",
    "IntegrationResult",
    "pole_sequences",
    "fan_points",
    "plan_contour",
    "integrate_contour",
    "integrate_contour_steps",
]

_DEFAULT_CFG = EvalConfig()
# Points per ladder direction that fan_points lists at most.
_FAN_CAP = 400
# Two pole fans closer than this (relative) pinch the contour.
_EPS_PINCH = 1e-8
# Narrowest vertical gap between the fan clusters that a straight baseline uses.
_GAP_MIN = 0.02
# How far past the outermost fan bases planning looks for surviving poles.
_DEPTH = 6.0
# Unit vector e^{-i}: _pole_set sorts points by their projection on it.
_KEY = complex(math.cos(1.0), -math.sin(1.0))


@dataclass(frozen=True)
class PoleSeq:
    """One fan base + n1*step_b + n2*step_binv (n1, n2 >= 0) of the integrand.

    direction is the common vertical sign of the two steps; weight is the
    multiplicity each point carries (|factor exponent|).
    """

    base: complex
    step_b: complex
    step_binv: complex
    direction: int
    weight: int


@dataclass(frozen=True)
class Indentation:
    """Semicircular bump of the baseline around x = center."""

    center: float
    radius: float
    side: str  # "above" or "below"


@dataclass(frozen=True)
class ContourSpec:
    """Piecewise path: horizontal line at baseline, bumped at indentations.

    truncation = 0 lets the integrator choose the cutoff from the decay
    analysis; a positive value fixes |Re v| <= truncation on both sides.
    gap_lo/gap_hi record the vertical room found between the descending and
    ascending pole clusters when the contour was planned.
    """

    baseline: float
    indentations: tuple = ()
    truncation: float = 0.0
    gap_lo: float = float("-inf")
    gap_hi: float = float("inf")


@dataclass
class IntegrationResult:
    value: complex
    err_estimate: float
    truncation: tuple
    n_panels: int
    n_evals: int
    contour: ContourSpec


def _classify_steps(s1: complex, s2: complex) -> int:
    for s in (s1, s2):
        if abs(s.imag) < 1e-9 * (1.0 + abs(s)):
            raise DegenerateParameterError(
                "pole ladder runs parallel to the contour; no vertical "
                "classification exists"
            )
    if (s1.imag > 0) != (s2.imag > 0):
        raise DegenerateParameterError(
            "the two ladder steps of one factor move in opposite vertical "
            "directions"
        )
    return 1 if s1.imag > 0 else -1


def pole_sequences(
    spec: IntegrandSpec, bindings: Mapping[str, complex], b
) -> tuple:
    """(pole fans, zero fans) of the integrand in the integration variable."""
    m = as_modulus(b)
    return _fans(spec.symbol.bind(spec.var, bindings, m).factors, m)


def _fans(factors, m) -> tuple:
    """pole_sequences from the (exponent, g, a0) of the bound factors; a
    factor with g = 0 does not move with the variable and has no fan."""
    poles: list[PoleSeq] = []
    zeros: list[PoleSeq] = []
    for e, g, a0 in factors:
        if g == 0:
            continue
        at_pole_lattice = ((-a0) / g, (-m.b / g, -m.b_inv / g))
        at_zero_lattice = ((m.Q - a0) / g, (m.b / g, m.b_inv / g))
        if e > 0:
            pole_loc, zero_loc = at_pole_lattice, at_zero_lattice
        else:
            pole_loc, zero_loc = at_zero_lattice, at_pole_lattice
        for target, (base, steps) in ((poles, pole_loc), (zeros, zero_loc)):
            target.append(PoleSeq(base, *steps, _classify_steps(*steps), abs(e)))
    return poles, zeros


def fan_points(seq: PoleSeq, im_lo: float, im_hi: float) -> np.ndarray:
    """Fan points with im_lo <= Im v <= im_hi as a complex array, n1 outer
    and n2 inner."""
    reach = seq.base.imag - im_lo if seq.direction < 0 else im_hi - seq.base.imag
    n1, n2 = (
        np.arange(min(_FAN_CAP, int(reach / abs(s.imag)) + 1) + 1)
        if reach >= 0
        else np.arange(0)
        for s in (seq.step_b, seq.step_binv)
    )
    p = ((seq.base + n1[:, None] * seq.step_b) + n2 * seq.step_binv).ravel()
    return p[(im_lo <= p.imag) & (p.imag <= im_hi)]


def _close_pairs(a: np.ndarray, b: np.ndarray, tol: np.ndarray):
    """Index pairs (i, j), sorted, with |a[i] - b[j]| <= tol[i].

    Candidates come from a sort along one direction, searched to twice tol
    to absorb the projection's roundoff: projecting shrinks no distance,
    and no lattice of the suites lies along it, so few points share a
    projection.
    """
    kb = (b * _KEY).real
    order = np.argsort(kb, kind="stable")
    kb, ka = kb[order], (a * _KEY).real
    lo = np.searchsorted(kb, ka - 2.0 * tol, "left")
    n = np.searchsorted(kb, ka + 2.0 * tol, "right") - lo
    i = np.repeat(np.arange(len(a)), n)
    j = order[np.arange(len(i)) + np.repeat(lo - np.cumsum(n) + n, n)]
    keep = np.abs(a[i] - b[j]) <= tol[i]
    i, j = i[keep], j[keep]
    by_pair = np.lexsort((j, i))
    return i[by_pair], j[by_pair]


def _fan_arrays(seqs, im_lo: float, im_hi: float):
    """(points, weights, directions) of the fans' points in the band."""
    pts = [fan_points(s, im_lo, im_hi) for s in seqs]
    counts = [len(p) for p in pts]
    return (
        np.concatenate([np.zeros(0, complex), *pts]),
        np.repeat(np.array([s.weight for s in seqs], dtype=int), counts),
        np.repeat(np.array([s.direction for s in seqs], dtype=int), counts),
    )


def _pole_set(pole_seqs, zero_seqs, im_lo: float, im_hi: float):
    """Non-cancelled pole points with im_lo <= Im v <= im_hi, in fan order.

    Returns arrays (point, weight, direction).  A point joins the group of
    the first point within 1e-9 (1 + |p|) that has its direction, and the
    weights in a group add.  Zeros within that distance of a group's first
    point subtract their weight, and a group left with none is dropped.
    """
    p, w, d = _fan_arrays(pole_seqs, im_lo, im_hi)
    z, zw, _ = _fan_arrays(zero_seqs, im_lo, im_hi)
    i, j = _close_pairs(p, p, 1e-9 * (1.0 + np.abs(p)))
    later = (j < i) & (d[i] == d[j])
    first = np.ones(len(p), dtype=bool)
    for i, j in zip(i[later].tolist(), j[later].tolist()):
        if first[i] and first[j]:
            w[j] += w[i]
            first[i] = False
    p, w, d = p[first], w[first], d[first]
    i, j = _close_pairs(p, z, 1e-9 * (1.0 + np.abs(p)))
    np.subtract.at(w, i, zw[j])
    return p[w > 0], w[w > 0], d[w > 0]


def plan_contour(
    spec: IntegrandSpec, bindings: Mapping[str, complex], b
) -> ContourSpec:
    """Choose a baseline (and bumps, if needed) separating the pole fans.

    With clear vertical room between the descending and ascending clusters
    the baseline runs through the middle of the gap.  Otherwise it stays on
    the midline and every pole sitting on it (or caught on the wrong side)
    is enclosed by a semicircle whose radius is a quarter of the smallest
    distance between the nearby poles.
    """
    return _plan(_surviving(*pole_sequences(spec, bindings, b)))


def _surviving(poles, zeros, contour: ContourSpec | None = None):
    """The one _pole_set of an integral: over the fan bases +- _DEPTH, and
    for a given contour out to its baseline +- (1 + its largest bump).  A
    descending fan point lies at or below its base and an ascending one at
    or above, and a planned path within _DEPTH - 0.5 of the bases, so the
    path passes every pole outside on the pole's own side."""
    ims = [s.base.imag for s in poles] or [0.0]
    im_lo, im_hi = min(ims) - _DEPTH, max(ims) + _DEPTH
    if contour is not None:
        reach = 1.0 + max((bmp.radius for bmp in contour.indentations), default=0.0)
        im_lo = min(im_lo, contour.baseline - reach)
        im_hi = max(im_hi, contour.baseline + reach)
    return _pole_set(poles, zeros, im_lo, im_hi)


def _plan(surviving) -> ContourSpec:
    """plan_contour from the integrand's surviving poles (see _surviving)."""
    pts, _, dirs = surviving
    lo = float(pts.imag[dirs < 0].max(initial=-math.inf))
    hi = float(pts.imag[dirs > 0].min(initial=math.inf))

    gap = hi - lo
    if gap > max(2 * _EPS_PINCH, _GAP_MIN):
        if math.isinf(lo) and math.isinf(hi):
            baseline = 0.0
        elif math.isinf(hi):
            baseline = lo + 0.5
        elif math.isinf(lo):
            baseline = hi - 0.5
        else:
            baseline = 0.5 * (lo + hi)
        return ContourSpec(
            baseline=baseline, indentations=(), gap_lo=lo, gap_hi=hi
        )

    y0 = 0.5 * (lo + hi)
    # The set covers this band: y0 lies within 0.01 of the fan bases' range.
    near = (y0 - 1.0 <= pts.imag) & (pts.imag <= y0 + 1.0)
    pts, dirs = pts[near], dirs[near]
    # Pinch: an ascending and a descending pole meeting leaves no room at all.
    down, up = pts[dirs < 0], pts[dirs > 0]
    pinched, _ = _close_pairs(down, up, _EPS_PINCH * (1.0 + np.abs(down)))
    if len(pinched):
        raise ContourUnsupportedError(
            f"pole fans pinch the contour near v = {complex(down[pinched[0]])}"
        )
    cluster = pts[np.abs(pts.imag - y0) <= 0.25]
    if len(cluster) >= 2:
        gaps = np.abs(cluster[:, None] - cluster[None, :])
        radius = float(gaps[np.triu_indices(len(cluster), 1)].min()) / 4.0
    else:
        radius = 0.05
    radius = min(radius, 0.1)

    bumps = []
    for p, d in zip(pts.tolist(), dirs.tolist()):
        off = p.imag - y0
        wrong_side = off >= 0 if d < 0 else off <= 0
        if abs(off) <= 0.5 * radius or wrong_side:
            if abs(off) > 0 and radius <= 1.5 * abs(off) and wrong_side:
                raise ContourUnsupportedError(
                    f"pole at v = {p} sits on the wrong side of the baseline "
                    f"and the available bump radius {radius:.3g} cannot "
                    f"enclose it"
                )
            bumps.append(
                Indentation(
                    center=p.real,
                    radius=radius,
                    side="above" if d < 0 else "below",
                )
            )
    bumps.sort(key=lambda bmp: bmp.center)
    for b1, b2 in zip(bumps[:-1], bumps[1:]):
        if b2.center - b1.center < b1.radius + b2.radius:
            raise ContourUnsupportedError(
                "indentation bumps overlap; pole spacing is too tight"
            )
    return ContourSpec(
        baseline=y0, indentations=tuple(bumps), gap_lo=lo, gap_hi=hi
    )


# ---------------------------------------------------------------------------
# Decay analysis, panel layout, integration


def _direction_coeffs(bound: BoundSymbol, d: int):
    """Leading coefficients (c2, c1) of the exponent for Re v -> d*inf.

    Factors whose argument heads to Im -> -inf on that side follow
    G_b(z) ~ zeta e^{i pi z (z - Q)} and contribute their quadratic phase;
    the rest, those with g = 0 among them, tend to a constant.
    """
    c2, c1, m = bound.c2, bound.c1, bound.m
    for e, g, a0 in bound.factors:
        if g.imag * d < 0:
            c2 += e * 1j * g * g
            c1 += e * 1j * g * (2 * a0 - m.Q)
    return c2, c1


def _tail_cutoff(c2: complex, c1: complex, y0: float, d: int, drop: float) -> float:
    """Smallest T with Re exponent down by `drop` at v = d*T + i y0."""
    a = -math.pi * c2.real
    bb = -d * math.pi * (c1.real - 2.0 * y0 * c2.imag)
    if a < -1e-12:
        raise ContourUnsupportedError(
            "integrand grows quadratically along the contour"
        )
    if a <= 1e-12:
        if bb <= 1e-9:
            raise ContourUnsupportedError(
                f"tail non-decaying toward Re v -> {'+' if d > 0 else '-'}inf"
            )
        return max(drop / bb, 3.0)
    disc = bb * bb + 4.0 * a * drop
    return max((-bb + math.sqrt(disc)) / (2.0 * a), 3.0)


def _phase_rate(c2: complex, c1: complex, x: float, y0: float) -> float:
    v = x + 1j * y0
    return math.pi * abs((2.0 * c2 * v + c1).imag) + 1.0


def _march(t_end: float, y0: float, c2: complex, c1: complex, d: int):
    """Breakpoints 0 < x1 < ... <= t_end spaced by the local phase rate."""
    xs = []
    x = 0.0
    floor = t_end / 3000.0
    while x < t_end:
        w = min(2.0, 5.0 / _phase_rate(c2, c1, d * x, y0))
        x = min(t_end, x + max(w, floor))
        xs.append(x)
    return xs


def _path_im(contour: ContourSpec, x: np.ndarray) -> np.ndarray:
    """Im of the path at each Re x: the baseline, or the arc of the first
    bump that holds x."""
    y = np.full(np.shape(x), contour.baseline)
    for bmp in reversed(contour.indentations):
        dx = x - bmp.center
        bulge = np.sqrt(np.maximum(bmp.radius**2 - dx * dx, 0.0))
        arc = contour.baseline + bulge if bmp.side == "above" else contour.baseline - bulge
        y = np.where(np.abs(dx) < bmp.radius, arc, y)
    return y


def _misplaced_poles(contour: ContourSpec, surviving):
    """Surviving poles (see _surviving) not strictly on their fan's side of
    the path, as (points, directions) in fan order."""
    pts, _, dirs = surviving
    margin = 1e-9 * (1.0 + np.abs(pts))
    path_y = _path_im(contour, pts.real)
    wrong = np.where(
        dirs < 0, ~(pts.imag < path_y - margin), ~(pts.imag > path_y + margin)
    )
    return pts[wrong], dirs[wrong]


def _validate(misplaced, t_left: float, t_right: float):
    """Refuse the path if a misplaced pole has -t_left-1 <= Re v <= t_right+1."""
    pts, dirs = misplaced
    hit = np.flatnonzero((-t_left - 1.0 <= pts.real) & (pts.real <= t_right + 1.0))
    if len(hit):
        p, d = complex(pts[hit[0]]), dirs[hit[0]]
        raise ContourUnsupportedError(
            f"{'descending' if d < 0 else 'ascending'}-fan pole at v = {p} is "
            f"not strictly {'below' if d < 0 else 'above'} the contour"
        )


def _build_segments(contour: ContourSpec, t_left: float, t_right: float, coeffs):
    y0 = contour.baseline
    bumps = sorted(contour.indentations, key=lambda bmp: bmp.center)
    for bmp in bumps:
        if bmp.center - bmp.radius < -t_left or bmp.center + bmp.radius > t_right:
            raise ContourUnsupportedError(
                "indentation lies outside the truncated contour"
            )

    def inside_bump(x: float) -> bool:
        return any(abs(x - bmp.center) < bmp.radius - 1e-15 for bmp in bumps)

    c2p, c1p = coeffs[1]
    c2m, c1m = coeffs[-1]
    pts = {0.0, -t_left, t_right}
    pts.update(_march(t_right, y0, c2p, c1p, +1))
    pts.update(-x for x in _march(t_left, y0, c2m, c1m, -1))
    for bmp in bumps:
        pts.add(bmp.center - bmp.radius)
        pts.add(bmp.center + bmp.radius)
    xs = sorted(x for x in pts if -t_left <= x <= t_right and not inside_bump(x))

    arc_edges = {
        (bmp.center - bmp.radius, bmp.center + bmp.radius): bmp for bmp in bumps
    }
    segments = []
    panels = []
    for a, b2 in zip(xs[:-1], xs[1:]):
        bmp = arc_edges.get((a, b2))
        if bmp is not None:
            th = (math.pi, 0.0) if bmp.side == "above" else (math.pi, 2 * math.pi)
            segments.append(Arc(complex(bmp.center, y0), bmp.radius, *th))
            panels.append(2)
        elif b2 - a > 1e-15:
            segments.append(Line(complex(a, y0), complex(b2, y0)))
            panels.append(1)
    return segments, panels


def integrate_contour(
    spec: IntegrandSpec,
    bindings: Mapping[str, complex],
    b,
    contour: ContourSpec | None = None,
    cfg: EvalConfig | None = None,
    rel_tol: float | None = None,
) -> IntegrationResult:
    """Integrate the symbol over its variable along a planned contour.

    The truncation point per side comes from the asymptotic exponent of the
    integrand, checked afterwards by probing the actual tail values; the
    contour is re-extended (up to three times) if the probe disagrees.
    Raises ContourUnsupportedError when no admissible contour exists and
    ConvergenceError when the quadrature cannot reach the target or the
    tail probe still disagrees after the third stretch.
    """
    return run_steps(integrate_contour_steps(spec, bindings, b, contour, cfg, rel_tol))


def integrate_contour_steps(
    spec: IntegrandSpec,
    bindings: Mapping[str, complex],
    b,
    contour: ContourSpec | None = None,
    cfg: EvalConfig | None = None,
    rel_tol: float | None = None,
):
    """Step form of integrate_contour: a generator that yields one G_b
    request (points, modulus, config) per integrand evaluation, is sent the
    values, and returns the IntegrationResult."""
    m = as_modulus(b)
    cfg = cfg or _DEFAULT_CFG
    rel_tol = cfg.rel_tol if rel_tol is None else rel_tol
    # The integrand's floats, computed once for the plan and every round.
    bound = spec.symbol.bind(spec.var, bindings, m, cfg)
    surviving = _surviving(*_fans(bound.factors, m), contour)
    if contour is None:
        contour = _plan(surviving)
    y0 = contour.baseline

    coeffs = {d: _direction_coeffs(bound, d) for d in (+1, -1)}

    tail_rel = rel_tol * 10.0 ** (-cfg.trunc_margin)
    drop = -math.log(tail_rel) + 4.0
    if contour.truncation > 0:
        t_right = t_left = contour.truncation
    else:
        t_right = _tail_cutoff(*coeffs[+1], y0, +1, drop)
        t_left = _tail_cutoff(*coeffs[-1], y0, -1, drop)

    f = bound.steps

    misplaced = _misplaced_poles(contour, surviving)
    # This window also covers the probes, so a handed-in contour that sits
    # on a pole is refused as unsupported rather than tripping the evaluator.
    _validate(misplaced, max(t_left, 1.0), max(t_right, 1.0))
    # Probe along the actual path: on the baseline this is Im = y0, inside a
    # bump it rides the arc, which keeps probes off the enclosed poles.  The
    # first tail check shares the probe's integrand call.
    probe_x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    probes = probe_x + 1j * _path_im(contour, probe_x)
    tails = np.array([-t_left + 1j * y0, t_right + 1j * y0])
    vals = np.abs((yield from f(np.concatenate([probes, tails]))))
    m0 = max(float(vals[:-2].max()), 1e-300)
    tail_vals = vals[-2:]
    n_extra_evals = vals.size

    tail_lim = 10.0 * tail_rel * m0
    for stretches in range(4):
        if contour.truncation > 0 or tail_vals.max() <= tail_lim:
            break
        if stretches == 3:
            raise ConvergenceError(
                value=None,
                achieved_error=float(tail_vals.max()),
                target=tail_lim,
                message=f"contour tail {tail_vals.max():.3e} still above "
                f"{tail_lim:.3e} at truncation ({t_left:.4g}, {t_right:.4g}) "
                "after three stretches",
            )
        if tail_vals[0] > tail_lim:
            t_left *= 1.4
        if tail_vals[1] > tail_lim:
            t_right *= 1.4
        _validate(misplaced, t_left, t_right)
        tail_vals = np.abs(
            (yield from f(np.array([-t_left + 1j * y0, t_right + 1j * y0])))
        )
        n_extra_evals += 2

    segments, panels = _build_segments(contour, t_left, t_right, coeffs)
    quad = integrate_steps(
        segments, panels, rel_tol=rel_tol, abs_floor=1e-3 * rel_tol * m0
    )
    pts = next(quad)
    while True:
        vals = yield from f(pts)
        try:
            pts = quad.send(vals)
        except StopIteration as stop:
            res = stop.value
            break

    tail_est = 0.0
    for d, tv, t_end in ((-1, tail_vals[0], t_left), (+1, tail_vals[1], t_right)):
        c2, c1 = coeffs[d]
        rate = abs(
            math.pi
            * (2.0 * c2.real * t_end * d + (c1.real - 2.0 * y0 * c2.imag))
        )
        tail_est += (float(tv) / max(rate, 0.1)) ** 2
    err = math.hypot(res.error, math.sqrt(tail_est))

    return IntegrationResult(
        value=res.value,
        err_estimate=err,
        truncation=(t_left, t_right),
        n_panels=res.n_panels,
        n_evals=res.n_evals + n_extra_evals,
        contour=contour,
    )
