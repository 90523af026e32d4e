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

Planning, validation, truncation and panel layout are all derived from the
symbol itself: fan bases and steps fix the geometry, and the vertical
asymptotics of G_b fix the tail decay and the local oscillation rate used
to size panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import EvalConfig, as_modulus
from .errors import ContourUnsupportedError, DegenerateParameterError
from .quadrature import Arc, Line, integrate_batch
from .symbolic import IntegrandSpec

__all__ = [
    "PoleSeq",
    "Indentation",
    "ContourSpec",
    "IntegrationResult",
    "pole_sequences",
    "fan_points",
    "plan_contour",
    "integrate_contour",
]

_DEFAULT_CFG = EvalConfig()
# Points per ladder direction that fan_points lists at most.
_FAN_CAP = 400
# Two pole fans closer than this (relative) pinch the contour.
_EPS_PINCH = 1e-8
# Narrowest vertical gap between the fan clusters that a straight baseline uses.
_GAP_MIN = 0.02


@dataclass(frozen=True)
class PoleSeq:
    """One fan base + n1*step_b + n2*step_binv (n1, n2 >= 0) of the integrand.

    kind is "pole" or "zero" (of the integrand); direction is the common
    vertical sign of the two steps; weight is the multiplicity each point
    carries (|factor exponent|).
    """

    base: complex
    step_b: complex
    step_binv: complex
    direction: int
    kind: str
    weight: int
    factor_index: int


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
    poles: list[PoleSeq] = []
    zeros: list[PoleSeq] = []
    for idx, f in enumerate(spec.symbol.factors):
        g = complex(f.argument.coeff(spec.var))
        if g == 0:
            continue
        a0 = f.argument.drop(spec.var).evaluate(bindings)
        at_pole_lattice = ((-a0) / g, (-m.b / g, -m.b_inv / g))
        at_zero_lattice = ((m.Q - a0) / g, (m.b / g, m.b_inv / g))
        if f.exponent > 0:
            pole_loc, zero_loc = at_pole_lattice, at_zero_lattice
        else:
            pole_loc, zero_loc = at_zero_lattice, at_pole_lattice
        w = abs(f.exponent)
        for target, (base, steps) in (
            (poles, pole_loc),
            (zeros, zero_loc),
        ):
            target.append(
                PoleSeq(
                    base=base,
                    step_b=steps[0],
                    step_binv=steps[1],
                    direction=_classify_steps(*steps),
                    kind="pole" if target is poles else "zero",
                    weight=w,
                    factor_index=idx,
                )
            )
    return poles, zeros


def fan_points(
    seq: PoleSeq,
    im_lo: float,
    im_hi: float,
    re_lo: float = -math.inf,
    re_hi: float = math.inf,
) -> list:
    """Fan points inside the box, as a list of complex positions."""
    out = []
    s1, s2 = seq.step_b, seq.step_binv
    if seq.direction < 0:
        extent1 = (seq.base.imag - im_lo) / abs(s1.imag)
        extent2 = (seq.base.imag - im_lo) / abs(s2.imag)
    else:
        extent1 = (im_hi - seq.base.imag) / abs(s1.imag)
        extent2 = (im_hi - seq.base.imag) / abs(s2.imag)
    cap1 = min(_FAN_CAP, int(extent1) + 1) if extent1 >= 0 else -1
    for n1 in range(cap1 + 1):
        p1 = seq.base + n1 * s1
        cap2 = min(_FAN_CAP, int(extent2) + 1) if extent2 >= 0 else -1
        for n2 in range(cap2 + 1):
            p = p1 + n2 * s2
            if im_lo <= p.imag <= im_hi and re_lo <= p.real <= re_hi:
                out.append(p)
    return out


def _effective_points(
    pole_seqs, zero_seqs, im_lo, im_hi, re_lo=-math.inf, re_hi=math.inf
):
    """Non-cancelled pole points in the box, with their fan direction.

    Cancellation is pointwise with multiplicity: a location is dropped when
    coincident zeros carry at least the poles' total weight there.
    """
    pole_pts: list = []
    for seq in pole_seqs:
        for p in fan_points(seq, im_lo, im_hi, re_lo, re_hi):
            pole_pts.append([p, seq.weight, seq.direction])
    zero_pts: list = []
    for seq in zero_seqs:
        for p in fan_points(seq, im_lo, im_hi, re_lo, re_hi):
            zero_pts.append([p, seq.weight])
    merged: list = []
    for p, w, d in pole_pts:
        eps = 1e-9 * (1.0 + abs(p))
        for entry in merged:
            if abs(entry[0] - p) <= eps and entry[2] == d:
                entry[1] += w
                break
        else:
            merged.append([p, w, d])
    out = []
    for p, w, d in merged:
        eps = 1e-9 * (1.0 + abs(p))
        zw = sum(zw_ for zp, zw_ in zero_pts if abs(zp - p) <= eps)
        if zw < w:
            out.append((p, w - zw, d))
    return out


def _fan_top(seq: PoleSeq, zero_seqs, depth: float = 6.0):
    """Extreme Im of the non-cancelled points of one fan, toward the axis.

    For a descending fan this is the highest survivor, for an ascending fan
    the lowest; None when everything within the search depth cancels.
    """
    if seq.direction < 0:
        im_lo, im_hi = seq.base.imag - depth, seq.base.imag + 1e-9
    else:
        im_lo, im_hi = seq.base.imag - 1e-9, seq.base.imag + depth
    eff = _effective_points([seq], zero_seqs, im_lo, im_hi)
    if not eff:
        return None
    ims = [p.imag for p, _, _ in eff]
    return max(ims) if seq.direction < 0 else min(ims)


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
    poles, zeros = pole_sequences(spec, bindings, b)
    down_tops = []
    up_bottoms = []
    for seq in poles:
        top = _fan_top(seq, zeros)
        if top is None:
            continue
        if seq.direction < 0:
            down_tops.append(top)
        else:
            up_bottoms.append(top)
    lo = max(down_tops) if down_tops else -math.inf
    hi = min(up_bottoms) if up_bottoms else math.inf

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
    near = _effective_points(poles, zeros, y0 - 1.0, y0 + 1.0)
    # Pinch: an ascending and a descending pole meeting leaves no room at all.
    for p, _, d in near:
        if d >= 0:
            continue
        for q, _, du in near:
            if du > 0 and abs(p - q) <= _EPS_PINCH * (1.0 + abs(p)):
                raise ContourUnsupportedError(
                    f"pole fans pinch the contour near v = {p}"
                )
    cluster = [p for p, _, _ in near if abs(p.imag - y0) <= 0.25]
    if len(cluster) >= 2:
        dmin = min(
            abs(p - q)
            for i, p in enumerate(cluster)
            for q in cluster[i + 1 :]
        )
        radius = dmin / 4.0
    else:
        radius = 0.05
    radius = min(radius, 0.1)

    bumps = []
    for p, _, d in near:
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


def _direction_coeffs(spec: IntegrandSpec, bindings, m, d: int):
    """Quadratic exponent (c2, c1, c0) of the integrand for Re v -> d*inf.

    Factors whose argument heads to Im -> -inf on that side follow
    G_b(z) ~ zeta e^{i pi z (z - Q)} and contribute their quadratic phase;
    the rest tend to a constant.
    """
    c2, c1, c0 = spec.symbol.gauss.polynomial_in(spec.var, bindings)
    for f in spec.symbol.factors:
        g = complex(f.argument.coeff(spec.var))
        if g == 0:
            continue
        if g.imag * d < 0:
            a0 = f.argument.drop(spec.var).evaluate(bindings)
            e = f.exponent
            c2 += e * 1j * g * g
            c1 += e * 1j * g * (2 * a0 - m.Q)
            c0 += e * 1j * a0 * (a0 - m.Q)
    return c2, c1, c0


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


def _path_im(contour: ContourSpec, x: float) -> float:
    y = contour.baseline
    for bmp in contour.indentations:
        dx = x - bmp.center
        if abs(dx) < bmp.radius:
            bulge = math.sqrt(bmp.radius**2 - dx * dx)
            return y + bulge if bmp.side == "above" else y - bulge
    return y


def _validate(contour, poles, zeros, t_left, t_right):
    """Every surviving pole must sit strictly on its fan's side of the path."""
    y0 = contour.baseline
    rmax = max((bmp.radius for bmp in contour.indentations), default=0.0)
    base_ims = [s.base.imag for s in poles]
    im_hi = max([y0] + [b for s, b in zip(poles, base_ims) if s.direction < 0]) + 1.0
    im_lo = min([y0] + [b for s, b in zip(poles, base_ims) if s.direction > 0]) - 1.0
    eff = _effective_points(
        poles, zeros, im_lo - rmax, im_hi + rmax, -t_left - 1.0, t_right + 1.0
    )
    for p, _, d in eff:
        margin = 1e-9 * (1.0 + abs(p))
        path_y = _path_im(contour, p.real)
        if d < 0 and not (p.imag < path_y - margin):
            raise ContourUnsupportedError(
                f"descending-fan pole at v = {p} is not strictly below the "
                f"contour"
            )
        if d > 0 and not (p.imag > path_y + margin):
            raise ContourUnsupportedError(
                f"ascending-fan pole at v = {p} is not strictly above the "
                f"contour"
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
    ConvergenceError when the quadrature cannot reach the target.
    """
    m = as_modulus(b)
    cfg = cfg or _DEFAULT_CFG
    rel_tol = cfg.rel_tol if rel_tol is None else rel_tol
    if contour is None:
        contour = plan_contour(spec, bindings, m)
    poles, zeros = pole_sequences(spec, bindings, m)
    y0 = contour.baseline

    coeffs = {}
    for d in (+1, -1):
        c2, c1, _ = _direction_coeffs(spec, bindings, m, d)
        coeffs[d] = (c2, c1)

    tail_rel = rel_tol * 10.0 ** (-cfg.trunc_margin)
    drop = -math.log(tail_rel) + 4.0
    if contour.truncation > 0:
        t_right = t_left = contour.truncation
    else:
        t_right = _tail_cutoff(*coeffs[+1], y0, +1, drop)
        t_left = _tail_cutoff(*coeffs[-1], y0, -1, drop)

    sym = spec.symbol

    n_extra_evals = 0

    def fbatch(vs: np.ndarray) -> np.ndarray:
        return sym.evaluate_on(spec.var, vs, bindings, m, cfg)[None, :]

    probe_x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    # Probe along the actual path: on the baseline this is Im = y0, inside a
    # bump it rides the arc, which keeps probes off the enclosed poles.
    # Validate the probed window first so a handed-in contour that sits on
    # a pole is rejected as unsupported rather than tripping the evaluator.
    _validate(contour, poles, zeros, 1.0, 1.0)
    probe_pts = probe_x + 1j * np.array(
        [_path_im(contour, x) for x in probe_x]
    )
    m0 = float(np.max(np.abs(fbatch(probe_pts)[0])))
    n_extra_evals += probe_x.size
    m0 = max(m0, 1e-300)

    for attempt in range(4):
        _validate(contour, poles, zeros, t_left, t_right)
        tails = np.array([-t_left + 1j * y0, t_right + 1j * y0])
        tail_vals = np.abs(fbatch(tails)[0])
        n_extra_evals += 2
        if attempt == 3 or contour.truncation > 0:
            break
        if tail_vals.max() <= 10.0 * tail_rel * m0:
            break
        if tail_vals[0] > 10.0 * tail_rel * m0:
            t_left *= 1.4
        if tail_vals[1] > 10.0 * tail_rel * m0:
            t_right *= 1.4

    segments, panels = _build_segments(contour, t_left, t_right, coeffs)
    res = integrate_batch(
        fbatch, segments, panels, rel_tol=rel_tol, abs_floor=1e-3 * rel_tol * m0
    )
    value = complex(res.values[0])
    quad_err = float(res.errors[0])

    tail_est = 0.0
    for d, tv, t_end in ((-1, tail_vals[0], t_left), (+1, tail_vals[1], t_right)):
        c2, c1 = coeffs[d]
        rate = abs(
            math.pi
            * (2.0 * c2.real * t_end * d + (c1.real - 2.0 * y0 * c2.imag))
        )
        tail_est += (float(tv) / max(rate, 0.1)) ** 2
    err = math.hypot(quad_err, math.sqrt(tail_est))

    return IntegrationResult(
        value=value,
        err_estimate=err,
        truncation=(t_left, t_right),
        n_panels=res.n_panels,
        n_evals=res.n_evals + n_extra_evals,
        contour=contour,
    )
