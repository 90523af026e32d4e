"""Adaptive Gauss-Kronrod quadrature over piecewise contours.

The driver integrates one function along a contour.  Each refinement round
evaluates it once, on the nodes of every panel in that round, so vectorized
special-function code is hit with large argument arrays instead of one point
at a time.  Its body is a step generator, integrate_steps, that yields
each round's points and is sent the values there; a caller can thus gather
the rounds of many integrals into one evaluation.  integrate_batch drives
it with a plain function.

Contours are sequences of segments (straight lines and circular arcs), each
parameterized on [0, 1].  Panels live in parameter space; the segment's
complex derivative is folded into the integrand so every panel reduces to a
plain integral over a real interval, handled by the 15-point Kronrod rule
with its embedded 7-point Gauss rule for the error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

# 15-point Kronrod / 7-point Gauss pair on [-1, 1].  Positive abscissae in
# decreasing order, center node last; the full symmetric rule is built below.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.02293532201052922,
    0.06309209262997855,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

NODES15 = np.array([-x for x in _XGK[:7]] + [0.0] + [x for x in reversed(_XGK[:7])])
WEIGHTS15 = np.array(list(_WGK[:7]) + [_WGK[7]] + list(reversed(_WGK[:7])))
WEIGHTS7 = np.zeros(15)
# Gauss nodes sit at the odd Kronrod positions; largest |x| first in _WG.
WEIGHTS7[[1, 13]] = _WG[0]
WEIGHTS7[[3, 11]] = _WG[1]
WEIGHTS7[[5, 9]] = _WG[2]
WEIGHTS7[7] = _WG[3]

# Refinement budget: bisection rounds, total panels, and panels split per round.
_MAX_ROUNDS = 12
_MAX_PANELS = 4000
_SPLIT_CAP = 128


@dataclass(frozen=True)
class Line:
    """Straight segment from p0 to p1, parameterized on [0, 1]."""

    p0: complex
    p1: complex


@dataclass(frozen=True)
class Arc:
    """Circular arc center + radius*exp(i*theta), theta from th0 to th1."""

    center: complex
    radius: float
    th0: float
    th1: float

    def point(self, u: np.ndarray) -> np.ndarray:
        th = self.th0 + (self.th1 - self.th0) * np.asarray(u)
        return self.center + self.radius * np.exp(1j * th)

    def tangent(self, u: np.ndarray) -> np.ndarray:
        th = self.th0 + (self.th1 - self.th0) * np.asarray(u)
        return self.radius * 1j * (self.th1 - self.th0) * np.exp(1j * th)


Segment = Line | Arc


# "Batch" in the two names below is the set of panels that one callback
# evaluates; perfbench/tracing.py rebinds integrate_batch by name and its
# README names BatchQuadResult, so both names stay.
@dataclass
class BatchQuadResult:
    """Outcome of one converged contour integration."""

    value: complex
    error: float
    n_panels: int
    n_evals: int


def integrate_batch(
    f: Callable[[np.ndarray], np.ndarray],
    segments: Sequence[Segment],
    initial_panels: Sequence[int],
    rel_tol: float,
    abs_floor: float = 0.0,
) -> BatchQuadResult:
    """Integrate one function along a piecewise contour.

    f maps a flat array of contour points to their values; each call
    receives the 15 Kronrod nodes of every panel being evaluated.  See
    integrate_steps for the rule, the target and the errors raised.
    """
    steps = integrate_steps(segments, initial_panels, rel_tol, abs_floor)
    pts = next(steps)
    while True:
        try:
            pts = steps.send(np.asarray(f(pts)))
        except StopIteration as stop:
            return stop.value


def integrate_steps(
    segments: Sequence[Segment],
    initial_panels: Sequence[int],
    rel_tol: float,
    abs_floor: float = 0.0,
):
    """Step form of integrate_batch: a generator that yields the flat array
    of contour points each round needs, is sent the integrand's values
    there, and returns the BatchQuadResult.

    The integral is driven to err <= max(rel_tol * |value|, abs_floor),
    where err is the root-sum-square of per-panel Kronrod-minus-Gauss
    differences.  Panels whose error exceeds the equal share target /
    sqrt(P) are bisected, at most the worst _SPLIT_CAP of them per round,
    until the total meets the target or the panel/round budget runs out.
    Raises ConvergenceError with the achieved error and the target if the
    total misses it.
    """
    if len(segments) != len(initial_panels):
        raise ValueError("need one initial panel count per segment")

    counts = [max(1, int(n)) for n in initial_panels]
    # (centers, halves) of n equal panels on [0, 1], for each n in use.
    layouts = {}
    for n in set(counts):
        edges = np.linspace(0.0, 1.0, n + 1)
        layouts[n] = (0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1]))
    seg_arr = np.repeat(np.arange(len(counts)), counts)
    cen_arr = np.concatenate([np.zeros(0), *(layouts[n][0] for n in counts)])
    half_arr = np.concatenate([np.zeros(0), *(layouts[n][1] for n in counts)])

    # Lines, most of a contour, are mapped for all panels at once.
    is_line = np.array([isinstance(seg, Line) for seg in segments], dtype=bool)
    starts = np.array(
        [seg.p0 if isinstance(seg, Line) else 0j for seg in segments], dtype=complex
    )
    steps = np.array(
        [seg.p1 - seg.p0 if isinstance(seg, Line) else 0j for seg in segments],
        dtype=complex,
    )

    def evaluate(panel_seg, panel_cen, panel_half):
        """Kronrod integral and error estimate of each panel."""
        u = panel_cen[:, None] + panel_half[:, None] * NODES15[None, :]
        pts = np.empty(u.shape, dtype=complex)
        tans = np.empty(u.shape, dtype=complex)
        line = is_line[panel_seg]
        on = panel_seg[line, None]
        pts[line] = starts[on] + steps[on] * u[line]
        tans[line] = steps[on]
        for i in np.unique(panel_seg[~line]).tolist():
            mask = panel_seg == i
            pts[mask] = segments[i].point(u[mask])
            tans[mask] = segments[i].tangent(u[mask])
        g = np.asarray((yield pts.ravel())).reshape(u.shape) * tans
        # Panel integral ~ half * sum(w * g); halves carry the u-space width.
        k15 = np.einsum("pi,i->p", g, WEIGHTS15) * panel_half
        g7 = np.einsum("pi,i->p", g, WEIGHTS7) * panel_half
        return k15, np.abs(k15 - g7)

    k15, err = yield from evaluate(seg_arr, cen_arr, half_arr)
    n_evals = k15.size * 15

    for _ in range(_MAX_ROUNDS):
        n_p = len(k15)
        total = np.sqrt((err**2).sum())
        target = max(rel_tol * abs(k15.sum()), abs_floor)
        # A NaN total stops here too, and raises below.
        if not total > target or n_p >= _MAX_PANELS:
            break
        # If every panel stayed within target / sqrt(P), the RSS total would
        # meet the target, so at least one panel exceeds that share (but for
        # rounding: an empty split stops the loop and raises).
        to_split = np.nonzero(err > target / np.sqrt(n_p))[0]
        if len(to_split) > _SPLIT_CAP:
            to_split = to_split[np.argsort(err[to_split])[-_SPLIT_CAP:]]
        to_split = to_split[: _MAX_PANELS - n_p]
        if len(to_split) == 0:
            break

        keep = np.ones(n_p, dtype=bool)
        keep[to_split] = False
        child_seg = np.repeat(seg_arr[to_split], 2)
        child_half = np.repeat(half_arr[to_split] * 0.5, 2)
        offsets = np.tile([-0.5, 0.5], len(to_split))
        child_cen = np.repeat(cen_arr[to_split], 2) + offsets * np.repeat(
            half_arr[to_split], 2
        )

        ck15, cerr = yield from evaluate(child_seg, child_cen, child_half)
        n_evals += ck15.size * 15
        seg_arr = np.concatenate([seg_arr[keep], child_seg])
        cen_arr = np.concatenate([cen_arr[keep], child_cen])
        half_arr = np.concatenate([half_arr[keep], child_half])
        k15 = np.concatenate([k15[keep], ck15])
        err = np.concatenate([err[keep], cerr])

    value = complex(k15.sum())
    total = float(np.sqrt((err**2).sum()))
    target = max(rel_tol * abs(value), abs_floor)
    # Written so that a NaN error counts as a failure.
    if not total <= target:
        raise ConvergenceError(value=value, achieved_error=total, target=target)
    return BatchQuadResult(
        value=value, error=total, n_panels=len(k15), n_evals=n_evals
    )
