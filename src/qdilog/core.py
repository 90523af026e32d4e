"""Non-compact quantum dilogarithm: evaluation anywhere in the complex plane.

The function G_b is defined by a regularized integral over a contour running
along the real axis and passing above the origin,

    log G_b(z) = log(1/zeta_b) - I(z),
    I(z) = int dt/t * e^{zt} / ((1 - e^{bt})(1 - e^{t/b})),

which converges for z in the fundamental strip 0 < Re z < Re Q, Q = b + 1/b.
Outside the strip the shift equations

    G_b(z + b)   = (1 - e^{2 pi i b z})  G_b(z)
    G_b(z + 1/b) = (1 - e^{2 pi i z/b}) G_b(z)

extend it meromorphically: simple poles at z = -n1 b - n2 / b and simple
zeros at z = Q + n1 b + n2 / b for nonnegative integers n1, n2.

Evaluation strategy: walk the argument into the middle band of the strip
with the shift equations (accumulating the exact product of shift factors),
then sum the defining integral by the trapezoidal rule on the line
Im t = c (Im z >= 0) or Im t = -c plus the residue at t = 0 (Im z < 0),
c = pi min(Re b, Re 1/b), many reduced points to one batch.
Far from the real axis the integral is skipped entirely in favor of the
asymptotic laws G_b -> 1/zeta_b (Im z -> +inf) and
G_b -> zeta_b e^{pi i z(z-Q)} (Im z -> -inf).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    ParameterDomainError,
    PoleProximityError,
    StripDomainError,
    UnsupportedParameterError,
)
# Not called here since the strip integral became a trapezoidal sum; the
# benchmark's tracer (perfbench/tracing.py) rebinds core.integrate_batch when
# it installs, so the name stays bound.
from .quadrature import integrate_batch  # noqa: F401

__all__ = [
    "ModulusParam",
    "EvalConfig",
    "StripReduction",
    "make_modulus",
    "as_modulus",
    "one_minus_exp",
    "nearest_lattice_point",
    "strip_reduce",
    "reduction_correction",
    "log_gb_strip",
    "gb_eval",
    "gb_eval_many",
    "gb_asymptotic",
    "gb_product_oracle",
    "small_gb",
    "func_eq_general",
    "pole_limit",
    "zero_limit",
]


@dataclass(frozen=True)
class ModulusParam:
    """Derived constants of the modulus b, computed once.

    q = exp(i pi b^2) and q_tilde = exp(i pi / b^2); zeta is the phase
    exp(i pi / 4 + i pi (b^2 + b^-2) / 12) and zeta_bar its exact inverse,
    so zeta * zeta_bar == 1 holds to the last bit.
    """

    b: complex
    b_inv: complex
    Q: complex
    q: complex
    q_tilde: complex
    zeta: complex
    zeta_bar: complex
    log_zeta: complex

    @property
    def min_re_step(self) -> float:
        return min(self.b.real, self.b_inv.real)


def make_modulus(b: complex) -> ModulusParam:
    """Validate b and bundle its derived constants."""
    b = complex(b)
    if not (b.real > 0.0) or not math.isfinite(b.real) or not math.isfinite(b.imag):
        raise ParameterDomainError(f"modulus must satisfy Re b > 0, got b={b}")
    b_inv = 1.0 / b
    log_zeta = 1j * math.pi / 4 + 1j * math.pi * (b * b + b_inv * b_inv) / 12
    zeta = cmath.exp(log_zeta)
    return ModulusParam(
        b=b,
        b_inv=b_inv,
        Q=b + b_inv,
        q=cmath.exp(1j * math.pi * b * b),
        q_tilde=cmath.exp(1j * math.pi * b_inv * b_inv),
        zeta=zeta,
        zeta_bar=1.0 / zeta,
        log_zeta=log_zeta,
    )


def as_modulus(b) -> ModulusParam:
    return b if isinstance(b, ModulusParam) else make_modulus(b)


@dataclass(frozen=True)
class EvalConfig:
    """Accuracy settings for direct evaluation.

    rel_tol is the relative accuracy driven for G_b values; trunc_margin
    adds that many extra decades to tail truncation so the cutoff error
    stays well below the quadrature budget.  precision="extended" runs the
    strip integrand in long-double complex arithmetic.
    """

    rel_tol: float = 1e-10
    trunc_margin: float = 2.0
    precision: str = "standard"

    # Read only by the benchmark's tracer (perfbench/tracing.py), which keys
    # the points it counts by modulus and config.
    def cache_key(self) -> tuple:
        return (self.rel_tol, self.trunc_margin, self.precision)


_DEFAULT_CFG = EvalConfig()
# Absolute snap distance: raise PoleProximityError, or return an exact 0.
_SNAP_EPS = 1e-12
# The vertical asymptotics answer once min(Re b, Re 1/b) * |Im z| reaches this.
_ASYM_THRESHOLD = 8.0


def one_minus_exp(w):
    """1 - exp(w), accurate wherever it is small.

    Accepts scalars or arrays.  Near each zero w = 2 pi i k the direct form
    cancels and loses about eps / |w - 2 pi i k| of relative accuracy;
    expm1 keeps it.
    """
    w = np.asarray(w)
    return -np.expm1(w if w.dtype.kind == "c" else w.astype(complex))[()]


# ---------------------------------------------------------------------------
# Lattice geometry


# Most factors the lattice scan or the shift product forms at once: this bounds
# a long walk's memory, and a lone far point pays numpy's overhead per block.
_BLOCK = 65_536


def _nearest_lattice(w, m: ModulusParam):
    """Nearest point n1 b + n2 / b (n1, n2 >= 0) to each w: arrays (n1, n2, d).

    For each n1 the best n2 is one of the two integers around the projection
    of w - n1 b on 1/b.  Since Re(n1 b + n2 / b) >= n1 Re b, a point's scan
    stops once n1 Re b - Re w exceeds the best distance found; the points
    still scanning take their n1 in shared blocks.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    b, g = m.b, m.b_inv
    g2 = g.real * g.real + g.imag * g.imag
    n1 = np.zeros(len(w), dtype=np.int64)
    n2 = np.zeros(len(w), dtype=np.int64)
    d = np.abs(w)
    live = np.arange(len(w))
    start = 0
    while len(live):
        last = ((w[live].real + d[live]) / b.real).max()
        width = max(1, min(int(last - start) + 1, _BLOCK // len(live)))
        rem = w[live, None] - np.arange(start, start + width) * b
        t = np.floor((rem.real * g.real + rem.imag * g.imag) / g2)
        cand = np.maximum(t[:, :, None] + (0.0, 1.0), 0.0).reshape(len(live), -1)
        dist = np.abs(rem.repeat(2, axis=1) - cand * g)
        rows = np.arange(len(live))
        j = dist.argmin(axis=1)
        win = dist[rows, j] < d[live]
        rows, j = rows[win], j[win]
        n1[live[rows]] = start + j // 2
        n2[live[rows]] = cand[rows, j]
        d[live[rows]] = dist[rows, j]
        start += width
        live = live[start * b.real - w[live].real <= d[live]]
    return n1, n2, d


def _near_lattice(z, m: ModulusParam, eps: float) -> np.ndarray:
    """Rows (near a pole, near a zero): whether each z lies within eps of one.

    The poles of G_b are -p and its zeros Q + p for p = n1 b + n2 / b
    (n1, n2 >= 0).  Every p lies in the sector |arg| <= |arg b|, which b and
    1/b bound, so only points within eps of that sector are scanned.  At
    real b the sector is the ray [0, inf).
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.concatenate([-z, z - m.Q])
    off = np.abs(np.arctan2(w.imag, w.real)) - abs(cmath.phase(m.b))
    gap = np.abs(w) * np.sin(np.minimum(np.maximum(off, 0.0), 0.5 * math.pi))
    scan = gap < eps
    near = np.zeros(len(w), dtype=bool)
    if scan.any():
        near[scan] = _nearest_lattice(w[scan], m)[2] < eps
    return near.reshape(2, -1)


def nearest_lattice_point(w: complex, m: ModulusParam):
    """Nearest point of {n1 b + n2 / b : n1, n2 >= 0} to w.

    Returns (n1, n2, point, distance).
    """
    n1, n2, d = _nearest_lattice(w, m)
    n1, n2 = int(n1[0]), int(n2[0])
    return n1, n2, n1 * m.b + n2 * m.b_inv, float(d[0])


# ---------------------------------------------------------------------------
# Strip reduction


@dataclass(frozen=True)
class StripReduction:
    """Record of the shift walk: z0 = z + n1 b + n2 / b lies in the band."""

    z0: complex
    n1: int
    n2: int


def strip_reduce(z: complex, m: ModulusParam) -> StripReduction:
    """Shift z by the lattice into the band Re Q/4 <= Re z0 <= 3 Re Q/4.

    Step choice is greedy: take the larger real step whenever it does not
    overshoot the band; the smaller step never can, since the band is half
    of Re Q wide.  The counts come in closed form: larger steps while the
    point stays at or below the band's far edge and short of the band, then
    as many smaller ones as it still needs.  A point above the band walks
    the mirror image.
    """
    z = complex(z)
    lo = 0.25 * m.Q.real
    hi = 0.75 * m.Q.real
    x, sign = z.real, 1
    if x > hi:
        x, lo, hi, sign = -x, -hi, -lo, -1
    # At b = 1 the two steps are equal and the b-step counts as the larger.
    b_big = m.b.real >= m.b_inv.real
    big, small = (m.b.real, m.b_inv.real) if b_big else (m.b_inv.real, m.b.real)
    n_big = n_small = 0
    if x < lo:
        n_big = min(math.floor((hi - x) / big), math.ceil((lo - x) / big))
        x += n_big * big
        if x < lo:
            n_small = math.ceil((lo - x) / small)
    n1, n2 = (n_big, n_small) if b_big else (n_small, n_big)
    n1, n2 = sign * n1, sign * n2
    return StripReduction(z0=z + n1 * m.b + n2 * m.b_inv, n1=n1, n2=n2)


def _shift_product(z0, n1, n2, m: ModulusParam, binv_first: bool = False):
    """C with G_b(z0 - n1 b - n2 / b) = C * G_b(z0), for arrays of walks.

    From z0 the walk takes its b-steps, then its 1/b-steps from where those
    end (the other way round with binv_first).  A step down by s onto w
    divides by 1 - e^{2 pi i s w}, a step up from w multiplies by it, so a
    leg of |n| steps takes the factors at base + j s, j < |n|, from its lower
    end.  A block of (points x steps) factors is formed at once and
    multiplied along the step axis.
    """
    w = np.asarray(z0, dtype=complex)
    c = np.ones(len(w), dtype=complex)
    legs = ((m.b_inv, n2), (m.b, n1)) if binv_first else ((m.b, n1), (m.b_inv, n2))
    for s, n in legs:
        n = np.asarray(n)
        if not n.any():
            continue
        base = w - np.maximum(n, 0) * s
        steps = np.abs(n)
        live = steps.nonzero()[0]
        j0 = 0
        while len(live):
            width = int(min(steps[live].max() - j0, max(1, _BLOCK // len(live))))
            j = j0 + np.arange(width)
            f = one_minus_exp(2j * math.pi * s * (base[live, None] + j * s))
            f[j >= steps[live, None]] = 1.0
            p = f.prod(axis=1)
            c[live] *= np.where(n[live] > 0, 1.0 / p, p)
            j0 += width
            live = live[steps[live] > j0]
        w = w - n * s
    return c


def reduction_correction(
    red: StripReduction, m: ModulusParam, order: str = "b-first"
) -> complex:
    """Exact factor C with G_b(z) = C * G_b(red.z0).

    Walks from z0 back to z, multiplying or dividing the shift-equation
    factors.  The two orders take the b-steps and the 1/b-steps in opposite
    sequence, so their factors sit at different points; they agree up to
    roundoff because the shifts commute.
    """
    if order not in ("b-first", "binv-first"):
        raise ValueError(f"unknown order {order!r}")
    c = _shift_product([red.z0], [red.n1], [red.n2], m, order == "binv-first")
    return complex(c[0])


# ---------------------------------------------------------------------------
# Strip integral


# The step is sized for a band of half-width d = _TRAP_DEPTH * c around the
# line, so the trapezoidal error e^{-2 pi d / h} is 1e-3 of the tail target.
_TRAP_DEPTH = 0.8
_STRIP_CHUNK = 384
# Nodes summed at once: a point near a strip edge needs about reach / (h Re z)
# of them (86M at Re z = 1e-6), so they go in blocks to bound the memory.
_NODE_BLOCK = 1024


def _log_gb_strip_batch(
    z0s: np.ndarray, m: ModulusParam, cfg: EvalConfig
) -> np.ndarray:
    """log G_b at strip points by the trapezoidal rule on a horizontal line.

    The integrand of I(z0) is analytic in 0 < |Im t| < 2c, c = pi min(Re b,
    Re 1/b), and decays both ways, so the sum on Im t = c converges
    geometrically.  For Im z0 < 0, e^{z0 t} decays on Im t = -c instead; that
    line passes below t = 0, whose residue adds log zeta + pi i z0 (z0 - Q).
    Nodes sit at (k + 1/4) h, so z and Q - z fall on interleaved grids.  The
    step-2h sum checks each point: err(T_h) ~ |T_h - T_2h|^2 <= 0.5 rel_tol.
    """
    tail_target = cfg.rel_tol * 10.0 ** (-cfg.trunc_margin)
    # log_gb_strip has checked that both distances are positive.
    lam_left = float(z0s.real.min())
    lam_right = float(m.Q.real - z0s.real.max())
    reach = -math.log(tail_target) + 4.0
    c = math.pi * m.min_re_step
    h = 2.0 * math.pi * _TRAP_DEPTH * c / math.log(1e3 / tail_target)
    k_lo = math.floor(-reach / lam_left / h)
    k_hi = math.ceil(reach / lam_right / h)
    ctype = np.clongdouble if cfg.precision == "extended" else np.complex128
    target = math.sqrt(0.5 * cfg.rel_tol)
    out = np.empty(len(z0s), dtype=complex)
    for rows, side in ((z0s.imag >= 0, 1.0), (z0s.imag < 0, -1.0)):
        if not rows.any():
            continue
        z = np.asarray(z0s[rows], dtype=ctype)
        t_h = t_2h = 0.0
        for k0 in range(k_lo, k_hi, _NODE_BLOCK):
            x = (np.arange(k0, min(k0 + _NODE_BLOCK, k_hi)) + 0.25) * ctype(h).real
            # Right of the origin the factors are rewritten as e^{(z0-Q)t}
            # over (1-e^{-bt})(1-e^{-t/b}), so nothing overflows.
            right = x >= 0
            sign = np.where(right, -1.0, 1.0)
            t = x + np.asarray(1j * side * c, dtype=ctype)
            w = h / (
                t * one_minus_exp(sign * m.b * t) * one_minus_exp(sign * m.b_inv * t)
            )
            e = np.outer(z, t)
            e -= np.where(right, ctype(m.Q) * t, 0.0)
            np.exp(e, out=e)
            # The subsum takes the nodes of even k.  einsum, not `@`: on two
            # cores OpenBLAS's threaded product of this shape took longer
            # than the exponentials.
            even = slice(k0 % 2, None, 2)
            t_h = t_h + np.einsum("pk,k->p", e, w)
            t_2h = t_2h + np.einsum("pk,k->p", e[:, even], w[even])
        gap = np.abs(t_h - 2.0 * t_2h)
        if not (gap <= target).all():
            worst = int(np.argmax(gap))  # a NaN gap is taken first
            raise ConvergenceError(
                value=t_h,
                achieved_error=float(gap[worst]),
                target=target,
                message=f"strip sum at z0 = {z0s[rows][worst]} unconverged: "
                f"|T_h - T_2h| = {float(gap[worst]):.3e} (target {target:.3e})",
            )
        base = -m.log_zeta if side > 0 else (
            m.log_zeta + 1j * math.pi * z0s[rows] * (z0s[rows] - m.Q)
        )
        out[rows] = base - t_h.astype(complex)
    return out


def log_gb_strip(z0s, b, cfg: EvalConfig | None = None) -> np.ndarray:
    """log G_b on points of the open strip 0 < Re z < Re Q (no reduction).

    Points far from the real axis are answered from the asymptotic laws.
    The rest are summed in the given order, in batches of at most
    _STRIP_CHUNK points by _NODE_BLOCK nodes, which bounds the memory of one
    sum however close a point sits to a strip edge.
    """
    m = as_modulus(b)
    cfg = cfg or _DEFAULT_CFG
    pts = np.atleast_1d(np.asarray(z0s, dtype=complex))
    if (pts.real <= 0).any() or (pts.real >= m.Q.real).any():
        raise StripDomainError("argument outside the open strip 0 < Re z < Re Q")
    out = np.empty(len(pts), dtype=complex)
    scale = m.min_re_step
    up = scale * pts.imag >= _ASYM_THRESHOLD
    down = scale * pts.imag <= -_ASYM_THRESHOLD
    out[up] = -m.log_zeta
    # Scalar arithmetic: numpy's vectorised complex product may fuse a
    # multiply and an add, so its last bits depend on the CPU it runs on.
    out[down] = [
        m.log_zeta + 1j * math.pi * z * (z - m.Q) for z in pts[down].tolist()
    ]
    mid = np.nonzero(~(up | down))[0]
    for i in range(0, len(mid), _STRIP_CHUNK):
        part = mid[i : i + _STRIP_CHUNK]
        out[part] = _log_gb_strip_batch(pts[part], m, cfg)
    return out


def gb_asymptotic(z: complex, b, direction: str) -> complex:
    """Vertical asymptotic value of G_b: 'up' for Im z -> +inf, 'down' otherwise."""
    m = as_modulus(b)
    z = complex(z)
    if direction == "up":
        return m.zeta_bar
    if direction == "down":
        return m.zeta * cmath.exp(1j * math.pi * z * (z - m.Q))
    raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")


# ---------------------------------------------------------------------------
# Full-plane evaluation


def _distinct(z: np.ndarray):
    """Distinct values of z sorted by (Im, Re), and the index of each z in them."""
    if len(z) < 2:
        return z, np.zeros(len(z), dtype=np.intp)
    order = np.lexsort((z.real, z.imag))
    z = z[order]
    new = np.empty(len(z), dtype=bool)
    new[:1] = True
    new[1:] = z[1:] != z[:-1]
    inverse = np.empty(len(z), dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return z[new], inverse


def gb_eval_many(zs, b, cfg: EvalConfig | None = None) -> np.ndarray:
    """G_b at many points, sharing reductions and strip batches.

    Each distinct point is reduced once, and the distinct reduced points are
    summed together, so the values depend only on this call's arguments.
    Raises ParameterDomainError at a non-finite argument, PoleProximityError
    within 1e-12 of a pole, and returns exactly 0 within 1e-12 of a zero.
    Never returns NaN or infinity: where a value leaves double range (far
    from the strip, e.g. Re z = 1000 at b = 0.8) it raises
    UnsupportedParameterError naming the first such point.  It raises that
    error up front, too, at a point whose shift walk into the strip would
    take more than rel_tol / (2 eps) steps (225,179 at rel_tol 1e-10).
    """
    m = as_modulus(b)
    cfg = cfg or _DEFAULT_CFG
    zs = np.asarray(zs, dtype=complex)
    finite = np.isfinite(zs)
    if not finite.all():
        z = complex(zs[~finite][0])
        raise ParameterDomainError(f"G_b needs a finite argument, got z = {z}")
    # Each shift step adds about 1.5 eps of roundoff to the reduction factor.
    max_steps = int(cfg.rel_tol / (2.0 * np.finfo(float).eps))
    big_step = max(m.b.real, m.b_inv.real)
    far = np.abs(zs.real - 0.5 * m.Q.real) >= (max_steps + 1) * big_step
    if far.any():
        z = complex(zs[far][0])
        raise UnsupportedParameterError(
            f"G_b(z) at z = {z}, b = {m.b} needs about "
            f"{int(abs(z.real - 0.5 * m.Q.real) / big_step)} shift steps into "
            f"the strip; beyond {max_steps} their roundoff exceeds "
            f"rel_tol = {cfg.rel_tol:g}"
        )
    pts, inverse = _distinct(zs)
    pole, zero = _near_lattice(pts, m, _SNAP_EPS)
    if pole.any():
        z = complex(zs[pole[inverse]][0])
        _, _, p, d = nearest_lattice_point(-z, m)
        raise PoleProximityError(z, -p, d)

    values = np.zeros(len(pts), dtype=complex)
    todo = (~zero).nonzero()[0]
    reds = [strip_reduce(z, m) for z in pts[todo].tolist()]
    z0s, at = _distinct(np.array([r.z0 for r in reds], dtype=complex))
    logs = log_gb_strip(z0s, m, cfg)
    # A far point's product or exponential may overflow; the finiteness
    # check below turns that into UnsupportedParameterError.
    with np.errstate(all="ignore"):
        values[todo] = _shift_product(
            z0s[at], [r.n1 for r in reds], [r.n2 for r in reds], m
        ) * np.exp(logs[at])
    out = values[inverse]
    bad = ~np.isfinite(out)
    if bad.any():
        raise UnsupportedParameterError(
            f"G_b(z) at z = {complex(zs[bad][0])}, b = {m.b} is not finite in "
            f"double precision"
        )
    return out


def gb_eval(z: complex, b, cfg: EvalConfig | None = None) -> complex:
    """G_b at one point; see gb_eval_many."""
    return complex(gb_eval_many([z], b, cfg)[0])


# ---------------------------------------------------------------------------
# Independent product representation (decaying only for Im b^2 > 0)


_ORACLE_REL_TOL = 1e-12
_ORACLE_MAX_TERMS = 200_000


def gb_product_oracle(x: complex, b) -> complex:
    """G_b via its double infinite product, a route independent of quadrature.

        G_b(x) = zeta_bar * prod_{n>=1}(1 - e^{2 pi i (x - n/b)/b})
                          / prod_{n>=0}(1 - e^{2 pi i b (x + n b)})

    Both products converge geometrically only when Im(b^2) > 0; other moduli
    are refused.  Truncation stops once the remaining factors are bounded
    below 1e-13.
    """
    m = as_modulus(b)
    if not ((m.b * m.b).imag > 0.0):
        raise UnsupportedParameterError(
            "product representation needs Im(b^2) > 0; use the integral route"
        )
    x = complex(x)
    r_num = m.q_tilde ** (-2)
    r_den = m.q**2
    total = 0j

    def log1m(u: complex) -> complex:
        if abs(u) < 1e-4:
            return -u * (1 + u * (0.5 + u * (1 / 3 + u * 0.25)))
        v = 1.0 - u
        if v == 0:
            raise PoleProximityError(x, x, 0.0)
        return cmath.log(v)

    for sign, first, ratio in (
        (+1, cmath.exp(2j * math.pi * m.b_inv * (x - m.b_inv)), r_num),
        (-1, cmath.exp(2j * math.pi * m.b * x), r_den),
    ):
        u = first
        q_abs = abs(ratio)
        for _ in range(_ORACLE_MAX_TERMS):
            total += sign * log1m(u)
            u = u * ratio
            bound = abs(u) / ((1.0 - q_abs) * max(1.0 - abs(u), 1e-3))
            if bound < _ORACLE_REL_TOL / 10.0:
                break
        else:
            raise ConvergenceError(
                value=None,
                achieved_error=float("nan"),
                target=_ORACLE_REL_TOL,
                message="product truncation did not reach its bound",
            )
    return m.zeta_bar * cmath.exp(total)


# ---------------------------------------------------------------------------
# Companions


def small_gb(x: complex, b, cfg: EvalConfig | None = None) -> complex:
    """g_b(x) = zeta_bar / G_b(Q/2 + log(x) / (2 pi i b)), principal log."""
    m = as_modulus(b)
    x = complex(x)
    if x == 0:
        raise ParameterDomainError("g_b needs a nonzero argument")
    z = m.Q / 2 + cmath.log(x) / (2j * math.pi * m.b)
    return m.zeta_bar / gb_eval(z, m, cfg)


def func_eq_general(x: complex, n1: int, n2: int, b) -> complex:
    """Shift-product P with G_b(x + n1 b + n2 / b) = P * G_b(x), n1, n2 >= 0.

    Each factor 1 - q^{2k} e^{2 pi i b x} is evaluated as
    1 - e^{2 pi i b (x + k b)} through the cancellation-safe helper.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("shift counts must be nonnegative")
    m = as_modulus(b)
    x = complex(x)
    two_pi_i = 2j * math.pi
    p = 1.0 + 0j
    for k1 in range(n1):
        p *= complex(one_minus_exp(two_pi_i * m.b * (x + k1 * m.b)))
    for k2 in range(n2):
        p *= complex(one_minus_exp(two_pi_i * m.b_inv * (x + k2 * m.b_inv)))
    return p


def _resonance_factors(n: int, base: complex, label: str) -> complex:
    """prod_{k=1..n} (1 - base^{-2k}) with a degeneracy guard."""
    p = 1.0 + 0j
    for k in range(1, n + 1):
        f = 1.0 - base ** (-2 * k)
        if abs(f) < 1e-10:
            raise DegenerateParameterError(
                f"resonance {label}^(-2*{k}) ~ 1 makes the limit ill-defined"
            )
        p *= f
    return p


def pole_limit(n1: int, n2: int, b) -> complex:
    """lim_{x->0} x G_b(x - n1 b - n2 / b): strength of the (n1, n2) pole."""
    if n1 < 0 or n2 < 0:
        raise ValueError("pole indices must be nonnegative")
    m = as_modulus(b)
    p = _resonance_factors(n1, m.q, "q") * _resonance_factors(n2, m.q_tilde, "q~")
    return 1.0 / (2.0 * math.pi * p)


def zero_limit(n1: int, n2: int, b) -> complex:
    """lim_{x->0} x / G_b(x + Q + n1 b + n2 / b): reciprocal slope at a zero."""
    if n1 < 0 or n2 < 0:
        raise ValueError("zero indices must be nonnegative")
    m = as_modulus(b)
    p = _resonance_factors(n1, m.q, "q") * _resonance_factors(n2, m.q_tilde, "q~")
    sign = -1.0 if (n1 + n2) % 2 == 0 else 1.0
    return (
        sign
        * m.q ** (-n1 * (n1 + 1))
        * m.q_tilde ** (-n2 * (n2 + 1))
        / (2.0 * math.pi * p)
    )
