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
c = pi min(Re b, Re 1/b), many reduced points to one batch.  The nodes of
that sum lie on one arithmetic progression, so its exponentials are powers:
e^{z t_k} for the 16 nodes of a row is the row's head times sigma^j,
sigma = e^{z h}, whose 16 powers come from four exponentials per point; the
row heads are walked outward from the origin by one step per row, and each
block of rows is one small matrix product.
Far from the real axis the integral is skipped entirely in favor of the
asymptotic laws G_b -> 1/zeta_b (Im z -> +inf) and
G_b -> zeta_b e^{pi i z(z-Q)} (Im z -> -inf).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, fields

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
    """Validate b and bundle its derived constants.

    Raises UnsupportedParameterError where a constant leaves double range:
    one is not finite, or q, q_tilde or zeta is 0.
    """
    b = complex(b)
    if not (b.real > 0.0) or not math.isfinite(b.real) or not math.isfinite(b.imag):
        raise ParameterDomainError(f"modulus must satisfy Re b > 0, got b={b}")
    try:
        b_inv = 1.0 / b
        log_zeta = 1j * math.pi / 4 + 1j * math.pi * (b * b + b_inv * b_inv) / 12
        zeta = cmath.exp(log_zeta)
        m = ModulusParam(
            b=b,
            b_inv=b_inv,
            Q=b + b_inv,
            q=cmath.exp(1j * math.pi * b * b),
            q_tilde=cmath.exp(1j * math.pi * b_inv * b_inv),
            zeta=zeta,
            zeta_bar=1.0 / zeta,
            log_zeta=log_zeta,
        )
    except (OverflowError, ValueError, ZeroDivisionError):
        pass
    else:
        finite = all(cmath.isfinite(getattr(m, f.name)) for f in fields(m))
        if finite and 0 not in (m.q, m.q_tilde, m.zeta):
            return m
    raise UnsupportedParameterError(
        f"the constants of modulus b={b} leave double range"
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

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ParameterDomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        if not 0.0 <= self.trunc_margin < math.inf:
            raise ParameterDomainError(
                f"trunc_margin must be finite and >= 0, got {self.trunc_margin!r}"
            )
        if self.precision not in ("standard", "extended"):
            raise ParameterDomainError(
                f"precision must be 'standard' or 'extended', got {self.precision!r}"
            )

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
# Longest shift walk gb_eval_many takes at any rel_tol: about Re z = 1e7 at
# b = 0.8 and 2 s of walking.  Above the default-tolerance bound (225,179).
_MAX_SHIFT_STEPS = 2**23


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


def _strip_reduce_many(z: np.ndarray, m: ModulusParam):
    """Arrays (z0, n1, n2): z0 = z + n1 b + n2 / b in the band Re Q/4..3 Re Q/4.

    Step choice is greedy: take the larger real step whenever it does not
    overshoot the band; the smaller step never can, since the band is half
    of Re Q wide.  The counts come in closed form: larger steps while the
    point stays at or below the band's far edge and short of the band, then
    as many smaller ones as it still needs.  A point above the band walks
    the mirror image.
    """
    lo, hi = 0.25 * m.Q.real, 0.75 * m.Q.real
    sign = np.where(z.real > hi, -1, 1)
    x = sign * z.real
    lo, hi = np.where(sign < 0, -hi, lo), np.where(sign < 0, -lo, hi)
    # At b = 1 the two steps are equal and the b-step counts as the larger.
    b_big = m.b.real >= m.b_inv.real
    big, small = (m.b.real, m.b_inv.real) if b_big else (m.b_inv.real, m.b.real)
    n_big = np.minimum(np.floor((hi - x) / big), np.ceil((lo - x) / big))
    n_big = np.where(x < lo, n_big, 0.0)
    x = x + n_big * big
    n_small = np.where(x < lo, np.ceil((lo - x) / small), 0.0)
    n_big, n_small = sign * n_big.astype(np.int64), sign * n_small.astype(np.int64)
    n1, n2 = (n_big, n_small) if b_big else (n_small, n_big)
    # Parts apart, in the order of the scalar z + n1 * b + n2 / b, so z0
    # equals that sum on any CPU (see log_gb_strip).
    z0 = ((z.real + n1 * m.b.real) + n2 * m.b_inv.real).astype(complex)
    z0.imag = (z.imag + n1 * m.b.imag) + n2 * m.b_inv.imag
    return z0, n1, n2


def strip_reduce(z: complex, m: ModulusParam) -> StripReduction:
    """Shift z by the lattice into the band Re Q/4 <= Re z0 <= 3 Re Q/4.

    A one-point wrapper over the array reduction that gb_eval_many runs.
    """
    z = complex(z)
    if not (abs(z.real) < 2.0**53 and math.isfinite(z.imag)):
        raise ParameterDomainError(f"strip_reduce needs |Re z| < 2**53, got z = {z}")
    z0, n1, n2 = _strip_reduce_many(np.array([z]), m)
    return StripReduction(z0=complex(z0[0]), n1=int(n1[0]), n2=int(n2[0]))


def _run_products(base, first, length, s):
    """Product of each run of shift factors: run i takes the steps first[i]
    to first[i] + length[i] - 1 of the walk from base[i] by s."""
    starts = length.cumsum() - length
    j = np.arange(starts[-1] + length[-1]) - (starts - first).repeat(length)
    f = one_minus_exp(2j * math.pi * s * (base.repeat(length) + j * s))
    return np.multiply.reduceat(f, starts)


def _shift_product(z0, n1, n2, m: ModulusParam):
    """C with G_b(z0 - n1 b - n2 / b) = C * G_b(z0), for arrays of walks.

    From z0 the walk takes its b-steps, then its 1/b-steps from where those
    end.  A step down by s onto w divides by 1 - e^{2 pi i s w}, a step up
    from w multiplies by it, so a leg of |n| steps takes the factors at
    base + j s, j < |n|, from its lower end.  A leg forms exactly those
    factors, one flat run per point, and multiplies each run with one
    reduceat.  Past _BLOCK factors in all, each walk is cut into pieces of
    _BLOCK steps from its own start, whole pieces go in chunks of at most
    _BLOCK factors, and a walk's piece products are multiplied in order:
    no value depends on the other points of the call.
    Taking the 1/b-steps first would form the same factors, each being
    periodic under a step of the other kind (s s' = 1), so no second order
    can check the walk; the consistency suite compares it with the scalar
    shift equation.
    """
    w = np.asarray(z0, dtype=complex)
    c = np.ones(len(w), dtype=complex)
    for s, n in ((m.b, n1), (m.b_inv, n2)):
        n = np.asarray(n)
        live = n.nonzero()[0]
        if not len(live):
            continue
        n_live = n[live]
        steps = np.abs(n_live)
        base = w[live] - np.maximum(n_live, 0) * s
        if steps.sum() <= _BLOCK:  # one chunk of whole walks
            p = _run_products(base, 0, steps, s)
        else:
            cuts = (steps - 1) // _BLOCK + 1
            heads = cuts.cumsum() - cuts
            run = np.arange(len(live)).repeat(cuts)
            first = (np.arange(len(run)) - heads.repeat(cuts)) * _BLOCK
            length = np.minimum(steps[run] - first, _BLOCK)
            ends = length.cumsum()
            edges = [0]
            while edges[-1] < len(run):
                lo = edges[-1]
                room = ends[lo] - length[lo] + _BLOCK
                edges.append(int(np.searchsorted(ends, room, side="right")))
            p = np.concatenate([
                _run_products(base[run[lo:hi]], first[lo:hi], length[lo:hi], s)
                for lo, hi in zip(edges, edges[1:])
            ])
            p = np.multiply.reduceat(p, heads)
        # Not in place: numpy multiplies a one-element array in place with
        # its reduction loop, whose last bit can differ from the array loop's.
        c[live] = c[live] * np.where(n_live > 0, 1.0 / p, p)
        w = w - n * s
    return c


def reduction_correction(red: StripReduction, m: ModulusParam) -> complex:
    """Exact factor C with G_b(z) = C * G_b(red.z0); see _shift_product."""
    return complex(_shift_product([red.z0], [red.n1], [red.n2], m)[0])


# ---------------------------------------------------------------------------
# Strip integral


# The step is sized for a band of half-width d = _TRAP_DEPTH * c around the
# line, so the trapezoidal error e^{-2 pi d / h} is 1e-3 of the tail target.
_TRAP_DEPTH = 0.8
_STRIP_CHUNK = 384
# Nodes summed at once: a point near a strip edge needs about reach / (h Re z)
# of them (86M at Re z = 1e-6), so they go in blocks to bound the memory.
_NODE_BLOCK = 1024
# Nodes per row of the factored sum (see _log_gb_strip_batch): a divisor of
# _NODE_BLOCK, and 16 because the row's powers sigma^j are products of
# sigma^1, 2, 4 and 8 (_POW2).
_ROW = 16
_POW2 = np.array([[1.0], [2.0], [4.0], [8.0]])
# Rows x points of one (_ROW x rows) by (rows x points) product, so that it
# stays under 65,536 multiply-adds: from there OpenBLAS (0.3.31) threads a
# complex product, and with OPENBLAS_NUM_THREADS unset a threaded product
# can stall.  Uncut, a 384-point band batch took 8 ms instead of 0.3 ms in 1
# of 8 processes on a 2-core box; cut, in none of 8, and no OpenBLAS worker
# thread ran.
_PRODUCT_CELLS = 65_535 // _ROW
# The offset j in a row of each weight row that _row_weights stores: the even
# j first, so that the first half of the sum is the step-2h sum.
_PARITY = np.r_[0:_ROW:2, 1:_ROW:2]


@functools.lru_cache(maxsize=32)
def _row_weights(b, b_inv, Q, h, c, side, ctype, block):
    """Read-only (walk, weights) of the rows of one block of one line.

    Block B holds the _NODE_BLOCK // _ROW rows a from B times that count on,
    so the origin is a block edge and each block lies on one side of it.
    Rows a < 0 lie left of the origin, where the weight of node t is
    h / (t (1 - e^{bt}) (1 - e^{t/b})).  Right of it the factors are
    rewritten over (1 - e^{-bt}) (1 - e^{-t/b}), so nothing overflows, and
    the weights take the row's e^{-Q j h}.  The weights form a (_ROW x rows)
    matrix whose rows are the offsets j in _PARITY order and whose columns
    are the block's rows from the origin outward, so the whole rows a batch
    sums are a leading slice.  walk is the (2, 1) column of the first node
    of the row nearest the origin and the row step away from it (-_ROW h
    left, _ROW h right), so z' walk holds the exponents of a point's first
    row head and of its step.  Blocks do not depend on the points, so every
    batch on the same line shares them; the key holds every value they come
    from, so a changed step or precision gets blocks of its own.  One entry
    is _NODE_BLOCK weights (16 KB, 32 KB extended).
    """
    hh = ctype(h).real
    n_rows = _NODE_BLOCK // _ROW
    a = block * n_rows + np.arange(n_rows)
    if block < 0:
        a = a[::-1]
    x = (a[:, None] * _ROW + _PARITY + 0.25) * hh
    t = x + np.asarray(1j * side * c, dtype=ctype)
    sign = 1.0 if block < 0 else -1.0
    w = h / (t * one_minus_exp(sign * b * t) * one_minus_exp(sign * b_inv * t))
    if block >= 0:
        w *= np.exp(-ctype(Q) * _PARITY * hh)
    w = np.ascontiguousarray(w.T)
    w.setflags(write=False)
    walk = np.array([[t[0, 0]], [_ROW * hh if block >= 0 else -_ROW * hh]], dtype=ctype)
    walk.setflags(write=False)
    return walk, w


def _log_down(z: np.ndarray, m: ModulusParam) -> np.ndarray:
    """log zeta + pi i z (z - Q): the residue at t = 0 of the sum on Im t = -c,
    and log G_b's asymptote for Im z -> -inf."""
    return m.log_zeta + 1j * math.pi * z * (z - m.Q)


def _log_gb_strip_batch(
    z0s: np.ndarray, m: ModulusParam, cfg: EvalConfig
) -> np.ndarray:
    """log G_b at strip points by the trapezoidal rule on a horizontal line.

    The integrand of I(z0) is analytic in 0 < |Im t| < 2c, c = pi min(Re b,
    Re 1/b), and decays both ways, so the sum on Im t = c converges
    geometrically.  For Im z0 < 0, e^{z0 t} decays on Im t = -c instead; that
    line passes below t = 0, whose residue adds log zeta + pi i z0 (z0 - Q).
    Nodes sit at t_k = (k + 1/4) h + i c, so z and Q - z fall on interleaved
    grids.  The step-2h sum checks each point: err(T_h) ~ |T_h - T_2h|^2 <=
    0.5 rel_tol.

    The nodes lie on one progression, so the exponentials are powers.  The
    nodes go in rows of _ROW, aligned at k = 0 mod _ROW so that no row
    straddles t = 0, and for k = a _ROW + j

        e^{z' t_k} = H_a * sigma^j,   sigma = e^{z h},

    with z' = z left of the origin and z - Q right of it, where the leftover
    e^{-Q j h} joins the node weights.  The 16 powers sigma^j are products of
    at most four of sigma^1, 2, 4, 8, each one exponential per point.  (Made
    from sigma alone, sigma^j carries j times its rounding: over 300 lone
    band points at four moduli the rms error against the same sum in
    extended precision was 1.4-2.0 times that of one exponential per node,
    against 0.8-1.5 times with the four.)  The rows go in blocks of
    _NODE_BLOCK nodes with the origin at a block edge, and the row heads of
    a block are walked outward from its row nearest the origin: one
    exponential per point there, and one for the step, e^{-z _ROW h} to the
    left and e^{(z - Q) _ROW h} to the right, so the largest terms, those
    near t = 0, carry the fewest roundings.  (The right step taken as
    sigma^16 e^{-Q _ROW h} loses the cancellation in z - Q near the right
    edge: at Re z = Re Q - 1e-3, b = 0.6+0.1i, the error against the sum in
    extended precision rose from 5e-16 to 9e-15.)  A block is then one
    product of its (_ROW x rows) weights with its (rows x points) heads, cut
    into products of at most _PRODUCT_CELLS rows x points; after the last
    block the sums are multiplied by the powers, and the first half (even k)
    gives T_2h, both halves T_h.

    The weights do not depend on the points, so each block's come from
    _row_weights, memoised across calls and shared by every batch on the
    same line.  A batch sums whole rows, a leading slice of each block's:
    the nodes the edge rows add past the reach cutoff lie below the tail
    target and change a value in its last bits at most.
    """
    tail_target = cfg.rel_tol * 10.0 ** (-cfg.trunc_margin)
    # log_gb_strip has checked that both distances are positive.
    lam_left = float(z0s.real.min())
    lam_right = float(m.Q.real - z0s.real.max())
    reach = -math.log(tail_target) + 4.0
    c = math.pi * m.min_re_step
    h = 2.0 * math.pi * _TRAP_DEPTH * c / math.log(1e3 / tail_target)
    # Rows a_lo <= a < a_hi hold every node k with -reach / lam_left <= k h
    # < reach / lam_right; _ROW is a power of two, so dividing by it is exact.
    a_lo = math.floor(-reach / lam_left / h / _ROW)
    a_hi = math.ceil(reach / lam_right / h / _ROW)
    ctype = np.clongdouble if cfg.precision == "extended" else np.complex128
    target = math.sqrt(0.5 * cfg.rel_tol)
    hh = ctype(h).real
    half = _ROW // 2
    rows_per_block = _NODE_BLOCK // _ROW
    out = np.empty(len(z0s), dtype=complex)
    up = z0s.imag >= 0
    for rows, side in ((up, 1.0), (~up, -1.0)):
        z = np.asarray(z0s[rows], dtype=ctype)
        n = len(z)
        if not n:
            continue
        # power[i] = sigma^j for j = _PARITY[i], each a product of at most
        # four of bits = sigma^1, 2, 4, 8: even[i] = sigma^{2i}, then the
        # odd j as sigma times those.
        bits = np.exp((z * hh) * _POW2)
        power = np.empty((_ROW, n), dtype=ctype)
        even = power[:half]
        even[0] = 1.0
        even[1:3] = bits[1:3]
        np.multiply(bits[1], bits[2], out=even[3])
        np.multiply(even[:4], bits[3], out=even[4:])
        np.multiply(even, bits[0], out=power[half:])
        z_right = z - m.Q
        acc = np.zeros((_ROW, n), dtype=ctype)
        for block in range(a_lo // rows_per_block, (a_hi - 1) // rows_per_block + 1):
            walk, w = _row_weights(m.b, m.b_inv, m.Q, h, c, side, ctype, block)
            # How many of the block's rows lie in [a_lo, a_hi): its first
            # ones from the origin outward.
            start = block * rows_per_block
            used = min(a_hi, start + rows_per_block) - max(a_lo, start)
            # Row heads: one exponential at the row nearest the origin, then
            # a step per row outward.
            head = np.empty((max(used, 2), n), dtype=ctype)
            np.exp((z_right if block >= 0 else z) * walk, out=head[:2])
            head[2:] = head[1]
            head = np.multiply.accumulate(head[:used], axis=0, out=head[:used])
            w = w[:, :used]
            cols = _PRODUCT_CELLS // used
            for p in range(0, n, cols):
                acc[:, p : p + cols] += w @ head[:, p : p + cols]
        acc *= power
        sums = np.add.reduce(acc.reshape(2, half, n), axis=1)
        t_h = sums[0] + sums[1]
        gap = np.abs(sums[1] - sums[0])  # |T_h - T_2h|
        if not (gap <= target).all():
            worst = int(np.argmax(gap))  # a NaN gap is taken first
            raise ConvergenceError(
                value=t_h,
                achieved_error=float(gap[worst]),
                target=target,
                message=f"strip sum at z0 = {z0s[rows][worst]} unconverged: "
                f"|T_h - T_2h| = {float(gap[worst]):.3e} (target {target:.3e})",
            )
        base = -m.log_zeta if side > 0 else _log_down(z0s[rows], m)
        out[rows] = base - t_h.astype(complex, copy=False)
    return out


def _points(zs, name: str) -> np.ndarray:
    """zs read once, as a complex array; a ragged or non-numeric zs (strings,
    None, other objects) raises ParameterDomainError naming the argument."""
    try:
        pts = np.asarray(zs)
    except ValueError as exc:
        raise ParameterDomainError(f"{name} must be a rectangular array: {exc}") from None
    if pts.dtype.kind not in "iufc":
        raise ParameterDomainError(f"{name} must be numeric, got values of dtype {pts.dtype}")
    return pts.astype(complex, copy=False)


def log_gb_strip(z0s, b, cfg: EvalConfig | None = None) -> np.ndarray:
    """log G_b on points of the open strip 0 < Re z < Re Q (no reduction).

    Points far from the real axis are answered from the asymptotic laws.
    The rest are summed in the given order, in batches of at most
    _STRIP_CHUNK points by _NODE_BLOCK nodes, which bounds the memory of one
    sum however close a point sits to a strip edge.
    """
    m = as_modulus(b)
    cfg = cfg or _DEFAULT_CFG
    pts = np.atleast_1d(_points(z0s, "z0s"))
    if (pts.real <= 0).any() or (pts.real >= m.Q.real).any():
        raise StripDomainError("argument outside the open strip 0 < Re z < Re Q")
    out = np.empty(len(pts), dtype=complex)
    scale = m.min_re_step
    up = scale * pts.imag >= _ASYM_THRESHOLD
    down = scale * pts.imag <= -_ASYM_THRESHOLD
    out[up] = -m.log_zeta
    out[down] = _log_down(pts[down], m)
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

    zs may have any shape, and the values have its shape (a scalar for a
    scalar, as a ufunc gives).  The points are reduced into the strip by
    one array reduction per call, and the distinct reduced points are
    summed together, so the values depend only on this call's arguments.
    Raises ParameterDomainError at a ragged or non-numeric zs and at a
    non-finite argument, PoleProximityError
    within 1e-12 of a pole, and returns exactly 0 within 1e-12 of a zero and
    nowhere else.  Never returns NaN, infinity, a subnormal or an underflowed
    0: where a value leaves the normal double range (far from the strip,
    e.g. Re z = 1000 or Im z = -4600 at b = 0.8) it raises
    UnsupportedParameterError naming the first such point.  It raises that
    error up front, too, at a point whose shift walk into the strip would
    take more than rel_tol / (2 eps) steps (225,179 at rel_tol 1e-10), or
    more than 2**23 at any rel_tol.
    """
    m = as_modulus(b)
    cfg = cfg or _DEFAULT_CFG
    zs = _points(zs, "zs")
    shape, zs = zs.shape, zs.ravel()
    finite = np.isfinite(zs)
    if not finite.all():
        z = complex(zs[~finite][0])
        raise ParameterDomainError(f"G_b needs a finite argument, got z = {z}")
    # Each shift step adds about 1.5 eps of roundoff to the reduction factor.
    roundoff_steps = int(cfg.rel_tol / (2.0 * np.finfo(float).eps))
    max_steps = min(roundoff_steps, _MAX_SHIFT_STEPS)
    big_step = max(m.b.real, m.b_inv.real)
    far = np.abs(zs.real - 0.5 * m.Q.real) >= (max_steps + 1) * big_step
    if far.any():
        z = complex(zs[far][0])
        why = (
            f"their roundoff exceeds rel_tol = {cfg.rel_tol:g}"
            if max_steps == roundoff_steps
            else "the walk takes too long"
        )
        raise UnsupportedParameterError(
            f"G_b(z) at z = {z}, b = {m.b} needs about "
            f"{int(abs(z.real - 0.5 * m.Q.real) / big_step)} shift steps into "
            f"the strip; beyond {max_steps} {why}"
        )
    pole, zero = _near_lattice(zs, m, _SNAP_EPS)
    if pole.any():
        z = complex(zs[pole][0])
        _, _, p, d = nearest_lattice_point(-z, m)
        raise PoleProximityError(z, -p, d)

    values = np.zeros(len(zs), dtype=complex)
    todo = (~zero).nonzero()[0]
    z0s, n1, n2 = _strip_reduce_many(zs[todo], m)
    z0s, at = _distinct(z0s)
    logs = log_gb_strip(z0s, m, cfg)
    # A far point's product or exponential may overflow or underflow; the
    # range check below turns that into UnsupportedParameterError.
    with np.errstate(all="ignore"):
        values[todo] = _shift_product(z0s[at], n1, n2, m) * np.exp(logs[at])
        tiny = (np.abs(values) < np.finfo(float).tiny) & ~zero
    bad = ~np.isfinite(values) | tiny
    if bad.any():
        raise UnsupportedParameterError(
            f"G_b(z) at z = {complex(zs[bad][0])}, b = {m.b} is not "
            f"finite or underflows in double precision"
        )
    return values.reshape(shape)[()]


def gb_eval(z: complex, b, cfg: EvalConfig | None = None) -> complex:
    """G_b at one point; see gb_eval_many."""
    z = _points(z, "z")
    if z.shape:
        raise ParameterDomainError(f"z must be one number, got an array of shape {z.shape}")
    return complex(gb_eval_many(z, b, cfg))


# ---------------------------------------------------------------------------
# Independent product representation (decaying only for Im b^2 > 0)


# Bound on the log of the factors a truncated product leaves out.
_ORACLE_TAIL = 2.0**-53
_ORACLE_MAX_TERMS = 200_000


def gb_product_oracle(x: complex, b) -> complex:
    """G_b via its double infinite product, a route independent of quadrature.

        G_b(x) = zeta_bar * prod_{n>=1}(1 - e^{2 pi i (x - n/b)/b})
                          / prod_{n>=0}(1 - e^{2 pi i b (x + n b)})

    Both products converge geometrically only when Im(b^2) > 0; other moduli
    are refused.  Factor n of a product is 1 - u_n, u_n = e^{e0 + n e1}, and
    the log of the factors from N on is at most |u_N| / ((1 - |r|)(1 - |u_N|))
    with |r| = e^{Re e1}.  Each product takes the least N that bounds this
    below 2**-53; one that needs more than 200,000 factors raises
    ConvergenceError before any is formed.  A value outside the normal
    double range raises UnsupportedParameterError.
    """
    m = as_modulus(b)
    if not ((m.b * m.b).imag > 0.0):
        raise UnsupportedParameterError(
            "product representation needs Im(b^2) > 0; use the integral route"
        )
    x = complex(x)
    two_pi_i = 2j * math.pi
    total = 0j
    with np.errstate(all="ignore"):
        for sign, e0, e1 in (
            (+1, two_pi_i * m.b_inv * (x - m.b_inv), -two_pi_i * m.b_inv * m.b_inv),
            (-1, two_pi_i * m.b * x, two_pi_i * m.b * m.b),
        ):
            # The bound is below the tail where |u_N| < c / (1 + c), that is
            # for N > n; a NaN n counts as too many factors.
            c = _ORACLE_TAIL * -np.expm1(e1.real)
            n = (np.log(c / (1 + c)) - e0.real) / e1.real
            if not n < _ORACLE_MAX_TERMS:
                raise ConvergenceError(
                    value=None,
                    achieved_error=float("nan"),
                    target=_ORACLE_TAIL,
                    message=f"product truncation needs over {_ORACLE_MAX_TERMS} terms",
                )
            u = np.exp(e0 + np.arange(max(np.floor(n) + 1, 0)) * e1)
            if (u == 1).any():
                raise PoleProximityError(x, x, 0.0)
            total += sign * np.log1p(-u).sum()
        value = complex(m.zeta_bar * np.exp(total))
    if not (cmath.isfinite(value) and abs(value) >= np.finfo(float).tiny):
        raise UnsupportedParameterError(
            f"G_b(x) at x = {x}, b = {m.b} leaves the normal double range"
        )
    return value


# ---------------------------------------------------------------------------
# Companions


def small_gb(x: complex, b, cfg: EvalConfig | None = None) -> complex:
    """g_b(x) = zeta_bar / G_b(Q/2 + log(x) / (2 pi i b)), principal log."""
    m = as_modulus(b)
    return m.zeta_bar / gb_eval(_small_gb_arg(x, m), m, cfg)


def _small_gb_arg(x: complex, m: ModulusParam) -> complex:
    """The G_b argument Q/2 + log(x) / (2 pi i b) of g_b(x)."""
    x = complex(x)
    if x == 0:
        raise ParameterDomainError("g_b needs a nonzero argument")
    return m.Q / 2 + cmath.log(x) / (2j * math.pi * m.b)


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
