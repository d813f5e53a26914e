"""Universal oscillation kernels and their temperature-dependent maxima.

The temporal-correlation combinations computed in :mod:`lgqfi.spectral`
decompose over level pairs with oscillation kernels

    h(x)      = 2 cos x - cos 2x - 1            (three-time combination)
    h_p(x)    = (p-1) cos x - cos((p-1) x) - (p-2)   (p-time generalization)
    1 - cos x                                    (two-time combination)

each weighted, for a thermal state at inverse temperature beta, by the ratio
kernel R(x, y) = (1/4) coth^2(x/y) * h(x) with y = 2 tau / beta (and its h_p
and two-time analogues).  The certified conversion factors

    gamma(y)       = max_x R(x, y)
    gamma_p(p, y)  = max_x (1/4) coth^2(x/y) h_p(x)
    gamma_tilde(y) = max_x (1/4) coth^2(x/y) (1 - cos x)

turn measured correlation combinations into quantum Fisher information
lower bounds.  gamma has the closed form y^2/4 for y >= sqrt(8/7); all other
maxima come from one maximizer over rows, one per y (a tau grid in one
:func:`gamma_batch` call, nothing cached by y): coarse probes plus a nested
zoom on every local maximum, with the x -> 0 endpoint value as a candidate.
Each bracket zooms on its own until a closed-form bound on |f''| shows that
it cannot rise above its row's best value by more than a relative eps.

The oscillatory factors are 2*pi-periodic while coth^2(x/y) is strictly
decreasing in x > 0, so where the oscillation is positive at x > 2 pi the
kernel is below its value at x - 2 pi: the maximum lies in (0, 2 pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import _integer, _positive

__all__ = [
    "KernelResult",
    "Y_CRIT",
    "h_kernel",
    "hp_kernel",
    "R_kernel",
    "rp_kernel",
    "rtilde_kernel",
    "gamma",
    "gamma_p",
    "gamma_tilde",
    "gamma_batch",
    "hp_max",
    "gamma_zero_temperature",
    "gamma_p_zero_temperature",
    "gamma_tilde_zero_temperature",
]

#: Critical scaled time y_c = sqrt(8/7) above which gamma(y) = y^2/4 exactly.
Y_CRIT = math.sqrt(8.0 / 7.0)

#: Most coarse probes of one kernel maximization (16 MB of float64).
MAX_PROBES = 2_000_000
#: Least probes per period of the fastest oscillation and in all; zoom points.
_PROBES_PER_PERIOD, _MIN_PROBES, _ZOOM_POINTS = 64, 1024, 33
_ZOOM_STEPS = np.arange(_ZOOM_POINTS)
_SCALED_TIME = "scaled time y = 2 tau / beta"


@dataclass(frozen=True)
class KernelResult:
    """A maximized kernel value: gamma-type quantity at scaled time y.

    ``argmax_x`` is the maximizing kernel argument (0.0 when the x -> 0
    endpoint value wins); ``method`` is 'closed-form' or 'numeric'.
    """

    y: float
    value: float
    argmax_x: float
    method: str


def h_kernel(x):
    """Three-time oscillation kernel h(x) = 2 cos x - cos 2x - 1.

    Evaluated through the identity h(x) = 4 cos(x) sin^2(x/2), which is
    algebraically equal and free of cancellation near x = 0.  Bounded above
    by 1/2, attained at x = pi/3 (mod 2 pi).
    """
    x = np.asarray(x, dtype=np.float64)
    half = 0.5 * x
    out = 4.0 * np.cos(x) * np.sin(half) ** 2
    return out if out.ndim else float(out)


def hp_kernel(p: int, x):
    """p-time oscillation kernel h_p(x) = (p-1) cos x - cos((p-1) x) - (p-2).

    Evaluated as 2 sin^2((p-1) x / 2) - 2 (p-1) sin^2(x/2), the equivalent
    cancellation-free form.  Requires integer p >= 3; h_3 = h.  The supremum
    h_p^max approaches 2 from below as p grows.
    """
    return _hp(_integer(p, "p", 3), x)


def _hp(p: int, x):
    x = np.asarray(x, dtype=np.float64)
    out = 2.0 * np.sin(0.5 * (p - 1) * x) ** 2 - 2.0 * (p - 1) * np.sin(0.5 * x) ** 2
    return out if out.ndim else float(out)


def _ratio_kernel(osc: Callable[[np.ndarray], np.ndarray], alpha: float,
                  beta4: float, x, y):
    """(1/4) coth^2(x/y) * osc(x) with a quadratic series branch near x = 0.

    ``osc(x) = alpha x^2 + beta4 x^4 + O(x^6)`` near the origin; for
    |x| < 1e-4 y the kernel is evaluated as
    (1/4) [alpha y^2 + (beta4 y^2 + 2 alpha / 3) x^2], accurate to O(x^4).
    ``y`` is a positive float or an array of them broadcasting against x.
    """
    ax = np.abs(np.asarray(x, dtype=np.float64))
    small = ax < 1e-4 * y
    near = small.any()
    xg = np.where(small, y, ax) if near else ax  # finite coth where the series applies
    coth = 1.0 / np.tanh(xg / y)
    out = 0.25 * coth * coth * np.asarray(osc(xg), dtype=np.float64)
    if near:
        series = 0.25 * (alpha * y * y + (beta4 * y * y + 2.0 * alpha / 3.0) * ax * ax)
        out = np.where(small, series, out)
    return out if out.ndim else float(out)


def R_kernel(x, y: float):
    """Thermal ratio kernel R(x, y) = (1/4) coth^2(x/y) h(x): :func:`rp_kernel` at p = 3.

    Even in x; requires y > 0.  Near x = 0 it is evaluated by the series
    R = (1/4) [y^2 + (2/3 - (7/12) y^2) x^2 + O(x^4)], whose quadratic
    coefficient changes sign at y_c = sqrt(8/7): above y_c the origin is the
    maximum and gamma(y) = y^2/4 in closed form.
    """
    return rp_kernel(3, x, y)


def rp_kernel(p: int, x, y: float):
    """p-time ratio kernel (1/4) coth^2(x/y) h_p(x); h_3 is evaluated as h."""
    osc, alpha, beta4, *_ = _family(p)
    return _ratio_kernel(osc, alpha, beta4, x, _positive(y, _SCALED_TIME))


def rtilde_kernel(x, y: float):
    """Two-time ratio kernel (1/4) coth^2(x/y) (1 - cos x)."""
    osc, alpha, beta4, *_ = _family("tilde")
    return _ratio_kernel(osc, alpha, beta4, x, _positive(y, _SCALED_TIME))


def _maximize(kernel: Callable[[np.ndarray, np.ndarray], np.ndarray], ys, endpoints,
              x_max: float, periods: float, cause: str, curvature: Callable
              ) -> tuple[np.ndarray, np.ndarray]:
    """Row i: maximum of kernel(x, ys[i]) over (0, x_max] or its x -> 0 endpoint value.

    ``kernel`` maps an (r, k) block of x and the rows' (r, 1) ys to values;
    ``curvature(lo, hi, y)`` bounds |d^2 kernel / dx^2| on each bracket
    [lo, hi] of a row y (1-d arrays).  ``periods`` counts periods of the
    fastest oscillation on (0, x_max].  Chunks of rows (at most MAX_PROBES
    coarse probes) find every local maximum, then zoom them, one kernel call
    per level.  A level of spacing s leaves a bracket at most M s^2 / 8
    above its best sample, so each bracket stops on its own once that rise
    is within a relative eps of its row's best value (the endpoint value
    included), or once it is 4 ulp wide.  Returns arrays (argmax_x,
    value), ties to the first bracket, or (0.0, endpoint) where that is
    strictly larger.  Over MAX_PROBES probes a row raises ValueError naming
    ``cause``, before allocating; so does a row with a probe that is not
    finite (y^2 overflows above about 1.3e154), which would find no peak.
    """
    needed = _PROBES_PER_PERIOD * periods
    if not needed <= MAX_PROBES:
        raise ValueError(f"{cause} needs {needed:.4g} kernel probes, over {MAX_PROBES}")
    n = max(_MIN_PROBES, math.ceil(needed))
    xs = np.linspace(0.0, x_max, n + 1)[1:]
    ys = np.asarray(ys, dtype=np.float64)
    arg, val = np.empty(ys.size), np.empty(ys.size)
    chunk = max(1, MAX_PROBES // n)
    for i in range(0, ys.size, chunk):
        y = ys[i:i + chunk, None]
        vals = kernel(xs[None, :], y)
        if not np.isfinite(vals).all():
            bad = y[~np.isfinite(vals).all(axis=1), 0][0]
            raise ValueError(f"{cause} is not finite at scaled time y = {float(bad)!r}")
        arg[i:i + chunk], val[i:i + chunk] = _zoom_chunk(
            kernel, curvature, xs, y, vals, np.broadcast_to(endpoints, ys.shape)[i:i + chunk])
    wins = endpoints > val
    return np.where(wins, 0.0, arg), np.where(wins, endpoints, val)


def _zoom_chunk(kernel, curvature, xs: np.ndarray, y: np.ndarray, vals: np.ndarray,
                floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, n = vals.shape
    padded = np.full((rows, n + 2), -np.inf)
    padded[:, 1:-1] = vals
    owner, peaks = np.nonzero((vals > padded[:, :-2]) & (vals >= padded[:, 2:]))
    lo = np.where(peaks > 0, xs[np.maximum(peaks - 1, 0)], 0.5 * xs[0])
    hi = xs[np.minimum(peaks + 1, n - 1)]
    best_x, best_v = xs[peaks], vals[owner, peaks]
    row_best = np.maximum(floor, vals.max(axis=1))
    # M / 8 of a coarse bracket holds on its sub-brackets; inf or NaN keeps it open
    with np.errstate(all="ignore"):
        bound = np.broadcast_to(curvature(lo, hi, y[owner, 0]) / 8.0, lo.shape)
    # a bracket that stops leaves the working arrays; slot is its place
    final_x, final_v = np.empty_like(best_x), np.empty_like(best_v)
    slot, yb, ob = np.arange(peaks.size), y[owner], owner
    while True:
        step = (hi - lo) / (_ZOOM_POINTS - 1)
        level = kernel(lo[:, None] + step[:, None] * _ZOOM_STEPS, yb)
        top = level.argmax(axis=1)
        top_v = level.max(axis=1)
        better = top_v > best_v
        best_x = np.where(better, lo + step * top, best_x)
        best_v = np.where(better, top_v, best_v)
        np.maximum.at(row_best, ob, best_v)
        hi = lo + step * np.minimum(top + 1, _ZOOM_POINTS - 1)
        lo = lo + step * np.maximum(top - 1, 0)
        open_ = ((hi - lo > 4.0 * np.spacing(hi))
                 & ~(best_v + bound * step * step <= (1.0 + np.finfo(float).eps) * row_best[ob]))
        if not open_.all():
            final_x[slot], final_v[slot] = best_x, best_v
            if not open_.any():
                break
            lo, hi, best_x, best_v, slot, yb, ob, bound = (
                a[open_] for a in (lo, hi, best_x, best_v, slot, yb, ob, bound))
    # each row's first bracket with its largest value (lexsort is stable)
    k = np.lexsort((-final_v, owner))[np.searchsorted(owner, np.arange(rows))]
    return final_x[k], final_v[k]


def _family(family):
    """(oscillation, alpha, beta4, x_max, periods, cause, sups) of 'tilde' or a p >= 3,
    with ``sups`` bounding |osc|, |osc'| and |osc''| on the real line."""
    if isinstance(family, str) and family == "tilde":
        return ((lambda x: 2.0 * np.sin(0.5 * x) ** 2), 0.5, -1.0 / 24.0, 2.0 * math.pi, 1.0,
                "gamma_tilde", (2.0, 1.0, 1.0))
    p = _integer(family, "p", 3)
    # h_p(x) = alpha x^2 + beta4 x^4 + O(x^6)
    alpha, beta4 = 0.5 * (p - 1) * (p - 2), ((p - 1) - float(p - 1) ** 4) / 24.0
    sups = (2.0 * (p - 1), 2.0 * (p - 1), float(p * (p - 1)))
    if p == 3:
        return h_kernel, alpha, beta4, 0.5 * math.pi, 0.25, "gamma", sups
    return (lambda x: _hp(p, x)), alpha, beta4, 2.0 * math.pi, p - 1, f"gamma_p with p = {p}", sups


def _ratio_curvature(sups, lo: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bound on |f''| of f = g osc, g = (1/4) coth^2(x/y), over x >= lo > 0:
    g'' sup|osc| + 2 |g'| sup|osc'| + g sup|osc''|, with g, |g'|, g'' (decreasing) at lo."""
    u = lo / y
    coth, csch2 = 1.0 / np.tanh(u), np.sinh(u) ** -2.0
    g1 = 0.5 * coth * csch2 / y
    g2 = 0.5 * (3.0 * coth * coth - 1.0) * csch2 / (y * y)
    return g2 * sups[0] + 2.0 * g1 * sups[1] + 0.25 * coth * coth * sups[2]


def gamma_batch(family, ys) -> tuple[KernelResult, ...]:
    """Kernel maximum of one bound family at every scaled time in ``ys``.

    ``family`` is 3 for :func:`gamma` (closed form for y >= Y_CRIT), an
    integer p > 3 for :func:`gamma_p` or 'tilde' for :func:`gamma_tilde`;
    those functions are one-row calls of this one.  All rows are maximized
    together, each bit for bit as on its own.  A row whose kernel or
    maximum is not finite raises ValueError naming the family and its y.
    """
    osc, alpha, beta4, x_max, periods, cause, sups = _family(family)
    ys = np.array(ys, dtype=np.float64, ndmin=1)
    for y in ys[~(ys > 0.0)][:1]:
        _positive(y, _SCALED_TIME)
    numeric = ys < Y_CRIT if family == 3 else np.full(ys.size, True)
    # y^2 overflows above about 1.3e154: the ValueErrors below report it
    with np.errstate(over="ignore", invalid="ignore"):
        # the x -> 0 endpoint value (1/4) alpha y^2, which is gamma(y) for y >= Y_CRIT
        args, values = np.zeros(ys.size), 0.25 * alpha * ys * ys
        if numeric.any():
            args[numeric], values[numeric] = _maximize(
                lambda x, y: _ratio_kernel(osc, alpha, beta4, x, y), ys[numeric],
                values[numeric], x_max, periods, cause,
                lambda lo, hi, y: _ratio_curvature(sups, lo, y))
    if not np.isfinite(values).all():
        bad = ys[~np.isfinite(values)][0]
        raise ValueError(f"{cause} is not finite at scaled time y = {float(bad)!r}")
    return tuple(KernelResult(y=y, value=v, argmax_x=x, method="numeric" if n else "closed-form")
                 for y, v, x, n in zip(ys.tolist(), values.tolist(), args.tolist(),
                                       numeric.tolist()))


def gamma(y: float) -> KernelResult:
    """Conversion factor gamma(y) = max_x R(x, y) for the three-time bound.

    Closed form y^2/4 for y >= sqrt(8/7); otherwise the shared maximizer
    over (0, pi/2], which contains the global maximizer, with the endpoint
    value y^2/4 as a candidate.  gamma decreases to 1/8 as y -> 0.
    """
    return gamma_batch(3, y)[0]


def gamma_p(p: int, y: float) -> KernelResult:
    """Conversion factor gamma_p(y) = max_x (1/4) coth^2(x/y) h_p(x).

    For p = 3 this is gamma(y) exactly (h_3 = h, evaluated as h), so
    downstream p = 3 bounds coincide bitwise with the three-time bound.
    Other p are maximized over (0, 2 pi] with max(1024, 64 (p-1)) coarse
    probes and the x -> 0 endpoint value y^2 (p-1)(p-2)/8 as an explicit
    candidate; raises ValueError when p needs more than MAX_PROBES probes.
    Grows like p^2 y^2 / 8 at fixed y.
    """
    return gamma_batch(p, y)[0]


def gamma_tilde(y: float) -> KernelResult:
    """Conversion factor gamma_tilde(y) = max_x (1/4) coth^2(x/y) (1 - cos x).

    Maximized over (0, 2 pi] like :func:`gamma_p`, with the x -> 0 endpoint
    value y^2/8 as a candidate (it is the maximum for large y).  Approaches
    1/2 as y -> 0, attained at x = pi.
    """
    return gamma_batch("tilde", y)[0]


@lru_cache(maxsize=256)
def hp_max(p: int) -> float:
    """Supremum of h_p over one period (0, 2 pi], maximized like :func:`gamma_p`.

    Strictly below 2 for every finite p and approaching 2 as p -> infinity.
    """
    p = _integer(p, "p", 3)
    if p == 3:
        return 0.5
    osc, *_, sups = _family(p)
    _, (value,) = _maximize(lambda x, _: osc(x), [0.0], 0.0, 2.0 * math.pi, p - 1,
                            f"hp_max with p = {p}", lambda *_: sups[2])
    return float(value)


def gamma_zero_temperature() -> float:
    """Zero-temperature (y -> 0) limit of gamma: max h / 4 = 1/8 exactly."""
    return 0.125


def gamma_p_zero_temperature(p: int) -> float:
    """Zero-temperature limit of gamma_p: h_p^max / 4 (1/8 exactly for p = 3)."""
    return 0.25 * hp_max(p)


def gamma_tilde_zero_temperature() -> float:
    """Zero-temperature limit of gamma_tilde: max (1 - cos x) / 4 = 1/2 exactly."""
    return 0.5
