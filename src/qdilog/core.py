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
then integrate the defining formula along rays plus a small semicircle over
the origin, batching many reduced points through one adaptive quadrature.
Far from the real axis the integral is skipped entirely in favor of the
asymptotic laws G_b -> 1/zeta_b (Im z -> +inf) and
G_b -> zeta_b e^{pi i z(z-Q)} (Im z -> -inf).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    ParameterDomainError,
    PoleProximityError,
    StripDomainError,
    UnsupportedParameterError,
)
from .quadrature import Arc, Line, integrate_batch

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
    "clear_cache",
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
    """Accuracy and strategy knobs for direct evaluation.

    rel_tol is the relative accuracy driven for G_b values; trunc_margin
    adds that many extra decades to tail truncation so the cutoff error
    stays well below the quadrature budget.  precision="extended" runs the
    strip integrand in long-double complex arithmetic.  pole_eps/zero_eps
    are the absolute snap distances for raising PoleProximityError and for
    returning an exact 0; asym_threshold switches to the vertical
    asymptotics once min(Re b, Re 1/b) * |Im z| exceeds it.
    """

    rel_tol: float = 1e-10
    abs_floor: float = 1e-13
    max_refine: int = 12
    trunc_margin: float = 2.0
    precision: str = "standard"
    pole_eps: float = 1e-12
    zero_eps: float = 1e-12
    asym_threshold: float = 8.0

    def cache_key(self) -> tuple:
        return (
            self.rel_tol,
            self.trunc_margin,
            self.max_refine,
            self.precision,
            self.asym_threshold,
        )


_DEFAULT_CFG = EvalConfig()


def one_minus_exp(w):
    """1 - exp(w), accurate near w = 0 where the direct form cancels.

    Accepts scalars or arrays; for |w| <= 1/4 a 14-term series keeps full
    relative accuracy on a quantity of size |w|.
    """
    arr = np.asarray(w)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.dtype.kind != "c":
        arr = arr.astype(complex)
    out = 1.0 - np.exp(arr)
    small = np.abs(arr) <= 0.25
    if small.any():
        ws = arr[small]
        term = -ws
        acc = term.copy()
        for k in range(2, 15):
            term = term * ws / k
            acc = acc + term
        out[small] = acc
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# Lattice geometry


def nearest_lattice_point(w: complex, m: ModulusParam):
    """Nearest point of {n1 b + n2 / b : n1, n2 >= 0} to w.

    Returns (n1, n2, point, distance).  The scan over n1 stops as soon as
    n1 Re b alone puts every remaining candidate farther than the best found.
    """
    b, g = m.b, m.b_inv
    g2 = g.real * g.real + g.imag * g.imag
    best_d = abs(w)
    best = (0, 0, 0j)
    n1 = 0
    while True:
        base = n1 * b
        if n1 > 0 and base.real - w.real > best_d:
            break
        rem = w - base
        t = (rem.real * g.real + rem.imag * g.imag) / g2
        cands = {max(0, math.floor(t)), max(0, math.floor(t) + 1)}
        for n2 in cands:
            p = base + n2 * g
            d = abs(w - p)
            if d < best_d:
                best_d = d
                best = (n1, n2, p)
        n1 += 1
        if n1 * b.real > w.real + best_d + 1e-12:
            break
    return best[0], best[1], best[2], best_d


def _pole_distance(z: complex, m: ModulusParam):
    """(nearest pole, distance) of G_b from z."""
    n1, n2, p, d = nearest_lattice_point(-z, m)
    return -p, d


def _zero_distance(z: complex, m: ModulusParam):
    """(nearest zero, distance) of G_b from z."""
    n1, n2, p, d = nearest_lattice_point(z - m.Q, m)
    return m.Q + p, d


def _lattice_distance(z: complex, m: ModulusParam) -> float:
    """Distance from z to the nearer of the pole and zero lattices of G_b."""
    return min(_pole_distance(z, m)[1], _zero_distance(z, m)[1])


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
    of Re Q wide.
    """
    z = complex(z)
    lo = 0.25 * m.Q.real
    hi = 0.75 * m.Q.real
    steps = sorted(
        [(m.b, "n1"), (m.b_inv, "n2")], key=lambda s: s[0].real, reverse=True
    )
    (big, big_name), (small, small_name) = steps
    counts = {"n1": 0, "n2": 0}
    x = z.real
    while x < lo:
        if x + big.real <= hi:
            counts[big_name] += 1
            x += big.real
        else:
            counts[small_name] += 1
            x += small.real
    while x > hi:
        if x - big.real >= lo:
            counts[big_name] -= 1
            x -= big.real
        else:
            counts[small_name] -= 1
            x -= small.real
    n1, n2 = counts["n1"], counts["n2"]
    return StripReduction(z0=z + n1 * m.b + n2 * m.b_inv, n1=n1, n2=n2)


def reduction_correction(
    red: StripReduction, m: ModulusParam, order: str = "b-first"
) -> complex:
    """Exact factor C with G_b(z) = C * G_b(red.z0).

    Walks from z0 back to z one shift at a time, multiplying or dividing
    the corresponding shift-equation factor.  The two orders process the
    b-steps and the 1/b-steps in opposite sequence; they agree up to
    roundoff because the factors commute.
    """
    if order == "b-first":
        steps = [(m.b, red.n1), (m.b_inv, red.n2)]
    elif order == "binv-first":
        steps = [(m.b_inv, red.n2), (m.b, red.n1)]
    else:
        raise ValueError(f"unknown order {order!r}")
    two_pi_i = 2j * math.pi
    w = red.z0
    c = 1.0 + 0j
    for s, n in steps:
        if n > 0:
            # z lies n steps below z0: G(w - s) = G(w) / (1 - e^{2 pi i s (w-s)})
            for _ in range(n):
                w = w - s
                c = c / complex(one_minus_exp(two_pi_i * s * w))
        else:
            # z lies above z0: G(w + s) = (1 - e^{2 pi i s w}) G(w)
            for _ in range(-n):
                c = c * complex(one_minus_exp(two_pi_i * s * w))
                w = w + s
    return c


# ---------------------------------------------------------------------------
# Strip integral


def _strip_fbatch(z0s: np.ndarray, m: ModulusParam, ctype):
    """Integrand batch for I(z0) along the contour, stable on both half-lines.

    For Re t >= 0 the factors are rewritten as e^{(z0-Q)t} over
    (1-e^{-bt})(1-e^{-t/b}) so nothing overflows; for Re t < 0 the direct
    form already decays.
    """
    b = ctype(m.b)
    b_inv = ctype(m.b_inv)
    Q = ctype(m.Q)
    z0c = z0s.astype(ctype)

    def fbatch(ts: np.ndarray) -> np.ndarray:
        t = ts.astype(ctype)
        out = np.empty((len(z0c), len(t)), dtype=ctype)
        pos = t.real >= 0
        if pos.any():
            tp = t[pos]
            den = tp * one_minus_exp(-b * tp) * one_minus_exp(-b_inv * tp)
            out[:, pos] = np.exp(np.outer(z0c - Q, tp)) / den
        neg = ~pos
        if neg.any():
            tn = t[neg]
            den = tn * one_minus_exp(b * tn) * one_minus_exp(b_inv * tn)
            out[:, neg] = np.exp(np.outer(z0c, tn)) / den
        return out

    return fbatch


def _log_gb_strip_batch(
    z0s: np.ndarray, m: ModulusParam, cfg: EvalConfig
) -> np.ndarray:
    """log G_b at reduced points via one shared adaptive contour integral."""
    if len(z0s) == 0:
        return np.zeros(0, dtype=complex)
    tail_target = cfg.rel_tol * 10.0 ** (-cfg.trunc_margin)
    lam_left = float(np.min(z0s.real))
    lam_right = float(m.Q.real - np.max(z0s.real))
    if lam_left <= 0 or lam_right <= 0:
        raise StripDomainError(
            "strip integral needs 0 < Re z0 < Re Q for every point"
        )
    reach = -math.log(tail_target) + 4.0
    t_left = reach / lam_left
    t_right = reach / lam_right
    r = min(math.pi * m.min_re_step, 1.0) / 4.0
    omega = max(float(np.max(np.abs(z0s.imag))), 1.0)
    cap = min(5.0 / omega, 1.5)
    segments = [
        Line(-t_left, -r),
        Arc(0j, r, math.pi, 0.0),
        Line(r, t_right),
    ]
    panels = [
        max(8, math.ceil((t_left - r) / cap)),
        4,
        max(8, math.ceil((t_right - r) / cap)),
    ]
    ctype = np.clongdouble if cfg.precision == "extended" else np.complex128
    fbatch = _strip_fbatch(np.asarray(z0s, dtype=complex), m, ctype)
    res = integrate_batch(
        fbatch,
        segments,
        panels,
        rel_tol=0.0,
        abs_floor=0.5 * cfg.rel_tol,
        max_rounds=cfg.max_refine,
    )
    if not res.converged.all():
        bad = np.nonzero(~res.converged)[0]
        worst = int(bad[np.argmax(res.errors[bad])])
        raise ConvergenceError(
            value=res.values,
            achieved_error=float(res.errors[worst]),
            target=0.5 * cfg.rel_tol,
            message=(
                f"strip integral unconverged for {len(bad)} of {len(z0s)} "
                f"points; worst error {res.errors[worst]:.3e}"
            ),
        )
    log_zeta_bar = -m.log_zeta
    return log_zeta_bar - np.asarray(res.values, dtype=complex)


_STRIP_CHUNK = 384


def log_gb_strip(z0s, b, cfg: EvalConfig | None = None) -> np.ndarray:
    """log G_b on points of the open strip 0 < Re z < Re Q (no reduction).

    Points far from the real axis are answered from the asymptotic laws.
    The rest are grouped by |Im z| // 2, so that a batch shares a fair panel
    width, and integrated in batches of at most _STRIP_CHUNK points, in
    band order and in the given order within a band.
    """
    m = as_modulus(b)
    cfg = cfg or _DEFAULT_CFG
    pts = np.asarray([complex(z) for z in np.atleast_1d(z0s)], dtype=complex)
    if np.any(pts.real <= 0) or np.any(pts.real >= m.Q.real):
        raise StripDomainError("argument outside the open strip 0 < Re z < Re Q")
    out = np.empty(len(pts), dtype=complex)
    scale = m.min_re_step
    up = scale * pts.imag >= cfg.asym_threshold
    down = scale * pts.imag <= -cfg.asym_threshold
    out[up] = -m.log_zeta
    # Scalar arithmetic: numpy's vectorised complex product may fuse a
    # multiply and an add, so its last bits depend on the CPU it runs on.
    out[down] = [
        m.log_zeta + 1j * math.pi * z * (z - m.Q) for z in pts[down].tolist()
    ]
    mid = np.nonzero(~(up | down))[0]
    bands = (np.abs(pts.imag[mid]) // 2.0).astype(int)
    for band in np.unique(bands):
        group = mid[bands == band]
        for i in range(0, len(group), _STRIP_CHUNK):
            part = group[i : i + _STRIP_CHUNK]
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
# Full-plane evaluation with cache

_LOG_CACHE: dict = {}
_CACHE_CAP = 500_000


def clear_cache() -> None:
    _LOG_CACHE.clear()


def _sorted_unique(values):
    return sorted(values, key=lambda z: (z.imag, z.real))


def gb_eval_many(zs, b, cfg: EvalConfig | None = None) -> np.ndarray:
    """G_b at many points, sharing reductions, quadrature batches and cache.

    Raises PoleProximityError within pole_eps of a pole; returns exactly 0
    within zero_eps of a zero.
    """
    m = as_modulus(b)
    cfg = cfg or _DEFAULT_CFG
    zs = [complex(z) for z in zs]
    out = np.empty(len(zs), dtype=complex)
    positions: dict = {}
    for i, z in enumerate(zs):
        positions.setdefault(z, []).append(i)

    real_b = m.b.imag == 0.0
    results: dict = {}
    reductions: dict = {}
    for z in positions:
        # The pole and zero lattices are real for real b, so distant-enough
        # imaginary parts cannot be near either lattice.
        if not (real_b and abs(z.imag) > 0.5):
            pole, d = _pole_distance(z, m)
            if d < cfg.pole_eps:
                raise PoleProximityError(z, pole, d)
            _, d = _zero_distance(z, m)
            if d < cfg.zero_eps:
                results[z] = 0j
                continue
        reductions[z] = strip_reduce(z, m)

    # This call reads only its own logs: the shared cache may be cleared,
    # here or by another thread, between the lookup and the use.
    base_key = (m.b,) + cfg.cache_key()
    logs: dict = {}
    for red in reductions.values():
        hit = _LOG_CACHE.get((red.z0, *base_key))
        if hit is not None:
            logs[red.z0] = hit
    todo = _sorted_unique({red.z0 for red in reductions.values()} - logs.keys())
    if len(_LOG_CACHE) > _CACHE_CAP:
        _LOG_CACHE.clear()
    if todo:
        for z0, lg in zip(todo, log_gb_strip(todo, m, cfg)):
            logs[z0] = _LOG_CACHE[(z0, *base_key)] = complex(lg)

    for z, red in reductions.items():
        results[z] = reduction_correction(red, m) * cmath.exp(logs[red.z0])

    for z, idxs in positions.items():
        for i in idxs:
            out[i] = results[z]
    return out


def gb_eval(z: complex, b, cfg: EvalConfig | None = None) -> complex:
    """G_b at one point; see gb_eval_many."""
    return complex(gb_eval_many([z], b, cfg)[0])


# ---------------------------------------------------------------------------
# Independent product representation (decaying only for Im b^2 > 0)


def gb_product_oracle(
    x: complex, b, rel_tol: float = 1e-12, max_terms: int = 200_000
) -> complex:
    """G_b via its double infinite product, a route independent of quadrature.

        G_b(x) = zeta_bar * prod_{n>=1}(1 - e^{2 pi i (x - n/b)/b})
                          / prod_{n>=0}(1 - e^{2 pi i b (x + n b)})

    Both products converge geometrically only when Im(b^2) > 0; other moduli
    are refused.  Truncation stops once the remaining factors are bounded
    below rel_tol / 10.
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
        for _ in range(max_terms):
            total += sign * log1m(u)
            u = u * ratio
            bound = abs(u) / ((1.0 - q_abs) * max(1.0 - abs(u), 1e-3))
            if bound < rel_tol / 10.0:
                break
        else:
            raise ConvergenceError(
                value=None,
                achieved_error=float("nan"),
                target=rel_tol,
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
