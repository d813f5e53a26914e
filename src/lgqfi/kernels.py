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
maxima come from one maximizer, coarse probes plus a nested zoom on every
local maximum, with the x -> 0 endpoint value (a series) as a candidate.

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
    _check_p(p)
    x = np.asarray(x, dtype=np.float64)
    out = 2.0 * np.sin(0.5 * (p - 1) * x) ** 2 - 2.0 * (p - 1) * np.sin(0.5 * x) ** 2
    return out if out.ndim else float(out)


def _check_p(p: int) -> None:
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise ValueError(f"p must be an integer, got {p!r}")
    if p < 3:
        raise ValueError(f"p must be at least 3, got {p}")


def _check_y(y: float) -> float:
    y = float(y)
    if not y > 0.0:
        raise ValueError(f"scaled time y = 2 tau / beta must be positive, got {y}")
    return y


def _ratio_kernel(osc: Callable[[np.ndarray], np.ndarray], alpha: float,
                  beta4: float, x, y: float):
    """(1/4) coth^2(x/y) * osc(x) with a quadratic series branch near x = 0.

    ``osc(x) = alpha x^2 + beta4 x^4 + O(x^6)`` near the origin; for
    |x| < 1e-4 y the kernel is evaluated as
    (1/4) [alpha y^2 + (beta4 y^2 + 2 alpha / 3) x^2], accurate to O(x^4).
    """
    y = _check_y(y)
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    out = np.empty_like(ax)
    small = ax < 1e-4 * y
    if np.any(small):
        xs = ax[small]
        out[small] = 0.25 * (alpha * y * y + (beta4 * y * y + 2.0 * alpha / 3.0) * xs * xs)
    if np.any(~small):
        xg = ax[~small]
        coth = 1.0 / np.tanh(xg / y)
        out[~small] = 0.25 * coth * coth * np.asarray(osc(xg), dtype=np.float64)
    return out if out.ndim else float(out)


def R_kernel(x, y: float):
    """Thermal ratio kernel R(x, y) = (1/4) coth^2(x/y) h(x).

    Even in x; requires y > 0.  Near x = 0 it is evaluated by the series
    R = (1/4) [y^2 + (2/3 - (7/12) y^2) x^2 + O(x^4)], whose quadratic
    coefficient changes sign at y_c = sqrt(8/7): above y_c the origin is the
    maximum and gamma(y) = y^2/4 in closed form.
    """
    return _ratio_kernel(h_kernel, 1.0, -7.0 / 12.0, x, y)


def _hp_series_coefficients(p: int) -> tuple[float, float]:
    alpha = 0.5 * (p - 1) * (p - 2)
    beta4 = ((p - 1) - float(p - 1) ** 4) / 24.0
    return alpha, beta4


def rp_kernel(p: int, x, y: float):
    """p-time ratio kernel (1/4) coth^2(x/y) h_p(x)."""
    _check_p(p)
    alpha, beta4 = _hp_series_coefficients(p)
    return _ratio_kernel(lambda xs: hp_kernel(p, xs), alpha, beta4, x, y)


def rtilde_kernel(x, y: float):
    """Two-time ratio kernel (1/4) coth^2(x/y) (1 - cos x)."""
    return _ratio_kernel(lambda xs: 2.0 * np.sin(0.5 * xs) ** 2, 0.5, -1.0 / 24.0, x, y)


def _maximize(kernel: Callable[[np.ndarray], np.ndarray], endpoint_value: float,
              x_max: float, periods: float, cause: str) -> tuple[float, float]:
    """Maximum of a kernel over (0, x_max] plus its x -> 0 endpoint value.

    ``periods`` counts periods of the fastest oscillation on (0, x_max]
    (2 pi for h and 1 - cos x, 2 pi / (p-1) for h_p).  Coarse probes find
    every local maximum; all brackets of neighbouring probes zoom together,
    one kernel call per level on a 2-D grid, to a few ulp.  Returns
    (argmax_x, value) of the largest value seen, or (0.0, endpoint_value)
    when that is strictly larger.  Over MAX_PROBES probes raise ValueError
    naming ``cause``, before allocating.
    """
    needed = _PROBES_PER_PERIOD * periods
    if not needed <= MAX_PROBES:
        raise ValueError(f"{cause} needs {needed:.4g} kernel probes, over {MAX_PROBES}")
    n = max(_MIN_PROBES, math.ceil(needed))
    xs = np.linspace(0.0, x_max, n + 1)[1:]
    vals = kernel(xs)
    padded = np.concatenate(([-np.inf], vals, [-np.inf]))
    peaks = np.flatnonzero((vals > padded[:-2]) & (vals >= padded[2:]))
    lo = np.where(peaks > 0, xs[np.maximum(peaks - 1, 0)], 0.5 * xs[0])
    hi = xs[np.minimum(peaks + 1, n - 1)]
    best_x, best_v = xs[peaks], vals[peaks]
    while np.any(hi - lo > 4.0 * np.spacing(hi)):
        step = (hi - lo) / (_ZOOM_POINTS - 1)
        level = kernel(lo[:, None] + step[:, None] * np.arange(_ZOOM_POINTS))
        top = np.argmax(level, axis=1)
        top_v = np.max(level, axis=1)
        better = top_v > best_v
        best_x = np.where(better, lo + step * top, best_x)
        best_v = np.where(better, top_v, best_v)
        hi = lo + step * np.minimum(top + 1, _ZOOM_POINTS - 1)
        lo = lo + step * np.maximum(top - 1, 0)
    k = int(np.argmax(best_v))
    if endpoint_value > best_v[k]:
        return 0.0, float(endpoint_value)
    return float(best_x[k]), float(best_v[k])


@lru_cache(maxsize=4096)
def _gamma_cached(y: float) -> KernelResult:
    if y >= Y_CRIT:
        return KernelResult(y=y, value=0.25 * y * y, argmax_x=0.0, method="closed-form")
    x_star, value = _maximize(lambda xs: R_kernel(xs, y), 0.25 * y * y,
                              0.5 * math.pi, 0.25, "gamma")
    return KernelResult(y=y, value=value, argmax_x=x_star, method="numeric")


def gamma(y: float) -> KernelResult:
    """Conversion factor gamma(y) = max_x R(x, y) for the three-time bound.

    Closed form y^2/4 for y >= sqrt(8/7); otherwise the shared maximizer
    over (0, pi/2], which contains the global maximizer, with the endpoint
    value y^2/4 as a candidate.  gamma decreases to 1/8 as y -> 0.  Results
    are cached by y.
    """
    return _gamma_cached(_check_y(y))


@lru_cache(maxsize=4096)
def _gamma_p_cached(p: int, y: float) -> KernelResult:
    alpha, _ = _hp_series_coefficients(p)
    x_star, value = _maximize(lambda xs: rp_kernel(p, xs, y), 0.25 * alpha * y * y,
                              2.0 * math.pi, p - 1, f"gamma_p with p = {p}")
    return KernelResult(y=y, value=value, argmax_x=x_star, method="numeric")


def gamma_p(p: int, y: float) -> KernelResult:
    """Conversion factor gamma_p(y) = max_x (1/4) coth^2(x/y) h_p(x).

    For p = 3 this is gamma(y) exactly (h_3 = h) and the call is delegated,
    so downstream p = 3 bounds coincide bitwise with the three-time bound.
    Other p are maximized over (0, 2 pi] with max(1024, 64 (p-1)) coarse
    probes and the x -> 0 endpoint value y^2 (p-1)(p-2)/8 as an explicit
    candidate; raises ValueError when p needs more than MAX_PROBES probes.
    Grows like p^2 y^2 / 8 at fixed y.  Results are cached by (p, y).
    """
    _check_p(p)
    y = _check_y(y)
    if p == 3:
        return _gamma_cached(y)
    return _gamma_p_cached(int(p), y)


@lru_cache(maxsize=4096)
def _gamma_tilde_cached(y: float) -> KernelResult:
    x_star, value = _maximize(lambda xs: rtilde_kernel(xs, y), 0.125 * y * y,
                              2.0 * math.pi, 1.0, "gamma_tilde")
    return KernelResult(y=y, value=value, argmax_x=x_star, method="numeric")


def gamma_tilde(y: float) -> KernelResult:
    """Conversion factor gamma_tilde(y) = max_x (1/4) coth^2(x/y) (1 - cos x).

    Maximized over (0, 2 pi] like :func:`gamma_p`, with the x -> 0 endpoint
    value y^2/8 as a candidate (it is the maximum for large y).  Approaches
    1/2 as y -> 0, attained at x = pi.  Results are cached by y.
    """
    return _gamma_tilde_cached(_check_y(y))


@lru_cache(maxsize=256)
def hp_max(p: int) -> float:
    """Supremum of h_p over one period (0, 2 pi], maximized like :func:`gamma_p`.

    Strictly below 2 for every finite p and approaching 2 as p -> infinity.
    """
    _check_p(p)
    if p == 3:
        return 0.5
    _, value = _maximize(lambda xs: hp_kernel(p, xs), 0.0, 2.0 * math.pi, p - 1,
                         f"hp_max with p = {p}")
    return value


def gamma_zero_temperature() -> float:
    """Zero-temperature (y -> 0) limit of gamma: max h / 4 = 1/8 exactly."""
    return 0.125


def gamma_p_zero_temperature(p: int) -> float:
    """Zero-temperature limit of gamma_p: h_p^max / 4 (1/8 exactly for p = 3)."""
    _check_p(p)
    if p == 3:
        return 0.125
    return 0.25 * hp_max(p)


def gamma_tilde_zero_temperature() -> float:
    """Zero-temperature limit of gamma_tilde: max (1 - cos x) / 4 = 1/2 exactly."""
    return 0.5
