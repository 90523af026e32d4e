"""Batched adaptive Gauss-Kronrod quadrature over piecewise contours.

The driver integrates a whole batch of integrands along one shared contour,
evaluating them through a single callback so vectorized special-function
code is hit with large argument arrays instead of one point at a time.

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

    def point(self, u: np.ndarray) -> np.ndarray:
        return self.p0 + (self.p1 - self.p0) * u

    def tangent(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(u, dtype=complex), self.p1 - self.p0)


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


@dataclass
class BatchQuadResult:
    """Outcome of one converged batched contour integration.

    values/errors are aligned with the batch axis of the integrand callback.
    """

    values: np.ndarray
    errors: np.ndarray
    n_panels: int
    n_evals: int


def _panel_nodes(seg: Segment, centers: np.ndarray, halves: np.ndarray):
    """Points and tangents at the 15 Kronrod nodes of each panel, shape [P, 15]."""
    u = centers[:, None] + halves[:, None] * NODES15[None, :]
    return seg.point(u), seg.tangent(u)


def integrate_batch(
    fbatch: Callable[[np.ndarray], np.ndarray],
    segments: Sequence[Segment],
    initial_panels: Sequence[int],
    rel_tol: float,
    abs_floor: float = 0.0,
) -> BatchQuadResult:
    """Integrate a batch of functions along a piecewise contour.

    fbatch maps a flat array of M contour points to an array [B, M]; the
    batch axis B is discovered from the first call.  Each batch element is
    driven to err <= max(rel_tol * |value|, abs_floor), where err is the
    root-sum-square of per-panel Kronrod-minus-Gauss differences.  Panels
    whose error exceeds an equal-share threshold are bisected, worst first,
    until everything converges or the panel/round budget runs out.  Raises
    ConvergenceError naming the worst unconverged element, its error and its
    target, if any element misses its target.
    """
    if len(segments) != len(initial_panels):
        raise ValueError("need one initial panel count per segment")

    seg_idx: list[int] = []
    centers: list[float] = []
    halves: list[float] = []
    for i, (seg, n) in enumerate(zip(segments, initial_panels)):
        n = max(1, int(n))
        edges = np.linspace(0.0, 1.0, n + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            seg_idx.append(i)
            centers.append(0.5 * (a + b))
            halves.append(0.5 * (b - a))

    seg_arr = np.array(seg_idx, dtype=int)
    cen_arr = np.array(centers)
    half_arr = np.array(halves)

    def evaluate(panel_seg, panel_cen, panel_half):
        """Kronrod and error contributions for a set of panels."""
        n_p = len(panel_seg)
        pts = np.empty((n_p, 15), dtype=complex)
        tans = np.empty((n_p, 15), dtype=complex)
        for i, seg in enumerate(segments):
            mask = panel_seg == i
            if not mask.any():
                continue
            p, t = _panel_nodes(seg, panel_cen[mask], panel_half[mask])
            pts[mask] = p
            tans[mask] = t
        vals = fbatch(pts.ravel())
        vals = np.atleast_2d(np.asarray(vals))
        b = vals.shape[0]
        g = vals.reshape(b, n_p, 15) * tans[None, :, :]
        # Panel integral ~ half * sum(w * g); halves carry the u-space width.
        k15 = np.einsum("bpi,i->bp", g, WEIGHTS15) * panel_half[None, :]
        g7 = np.einsum("bpi,i->bp", g, WEIGHTS7) * panel_half[None, :]
        err = np.abs(k15 - g7)
        return k15, err, n_p * 15

    k15, err, n_evals = evaluate(seg_arr, cen_arr, half_arr)

    for _ in range(_MAX_ROUNDS):
        values = k15.sum(axis=1)
        total_err = np.sqrt((err**2).sum(axis=1))
        targets = np.maximum(rel_tol * np.abs(values), abs_floor)
        bad = total_err > targets
        if not bad.any():
            break
        n_p = k15.shape[1]
        if n_p >= _MAX_PANELS:
            break
        # Equal-share threshold: if every panel stays below target/sqrt(P),
        # the RSS total meets the target.
        share = targets / np.sqrt(max(n_p, 1))
        share = np.where(share > 0, share, np.inf)
        ratio = np.where(bad[:, None], err / share[:, None], 0.0)
        panel_score = ratio.max(axis=0)
        to_split = np.nonzero(panel_score > 1.0)[0]
        if len(to_split) == 0:
            # Errors are spread too evenly to pick offenders; split the
            # largest contributors of the unconverged elements.
            contrib = np.where(bad[:, None], err, 0.0).max(axis=0)
            to_split = np.argsort(contrib)[-min(_SPLIT_CAP, n_p) :]
            to_split = to_split[contrib[to_split] > 0]
            if len(to_split) == 0:
                break
        if len(to_split) > _SPLIT_CAP:
            order = np.argsort(panel_score[to_split])
            to_split = to_split[order[-_SPLIT_CAP:]]
        if n_p + len(to_split) > _MAX_PANELS:
            to_split = to_split[: max(0, _MAX_PANELS - n_p)]
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

        ck15, cerr, ce = evaluate(child_seg, child_cen, child_half)
        n_evals += ce
        seg_arr = np.concatenate([seg_arr[keep], child_seg])
        cen_arr = np.concatenate([cen_arr[keep], child_cen])
        half_arr = np.concatenate([half_arr[keep], child_half])
        k15 = np.concatenate([k15[:, keep], ck15], axis=1)
        err = np.concatenate([err[:, keep], cerr], axis=1)

    values = k15.sum(axis=1)
    total_err = np.sqrt((err**2).sum(axis=1))
    targets = np.maximum(rel_tol * np.abs(values), abs_floor)
    # Written so that a NaN error counts as a failure.
    bad = np.nonzero(~(total_err <= targets))[0]
    if len(bad):
        worst = int(bad[np.argmax(total_err[bad])])
        raise ConvergenceError(
            value=values,
            achieved_error=float(total_err[worst]),
            target=float(targets[worst]),
            message=(
                f"{len(bad)} of {len(values)} integrals unconverged; worst is "
                f"element {worst} at error {total_err[worst]:.3e} "
                f"(target {targets[worst]:.3e})"
            ),
        )
    return BatchQuadResult(
        values=values,
        errors=total_err,
        n_panels=k15.shape[1],
        n_evals=n_evals,
    )
