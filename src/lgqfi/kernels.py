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
cases are maximized numerically by dense probing plus golden-section
refinement, with the x -> 0 endpoint handled through a series expansion.

The oscillatory factors are 2*pi-periodic while coth^2(x/y) is strictly
decreasing in x, so the global maximum over x > 0 always lies in the first
period; search domains are chosen to cover it with margin.
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
    "gamma_numeric",
    "gamma_p",
    "gamma_tilde",
    "hp_max",
    "gamma_zero_temperature",
    "gamma_p_zero_temperature",
    "gamma_tilde_zero_temperature",
]

#: Critical scaled time y_c = sqrt(8/7) above which gamma(y) = y^2/4 exactly.
Y_CRIT = math.sqrt(8.0 / 7.0)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _golden_max(f: Callable[[float], float], lo: float, hi: float,
                iters: int = 90) -> tuple[float, float]:
    """Maximize a scalar function on [lo, hi] by golden-section search."""
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def _maximize(kernel: Callable[[np.ndarray], np.ndarray], endpoint_value: float,
              x_max: float, n_probes: int) -> tuple[float, float]:
    """Maximum of a kernel over (0, x_max] plus its x -> 0 endpoint value.

    Dense uniform probes locate the best candidate; golden-section search on
    the bracketing interval refines it.  Returns (argmax_x, value), with
    argmax_x = 0.0 when the endpoint value wins.
    """
    xs = np.linspace(0.0, x_max, n_probes + 1)[1:]
    vals = np.asarray(kernel(xs), dtype=np.float64)
    best = int(np.argmax(vals))
    lo = xs[best - 1] if best > 0 else 0.5 * xs[0]
    hi = xs[best + 1] if best + 1 < xs.shape[0] else x_max
    x_ref, v_ref = _golden_max(lambda x: float(kernel(np.float64(x))), lo, hi)
    candidates = [(float(xs[best]), float(vals[best])), (x_ref, v_ref),
                  (0.0, endpoint_value)]
    x_star, v_star = max(candidates, key=lambda pair: pair[1])
    return x_star, v_star


@lru_cache(maxsize=4096)
def _gamma_cached(y: float) -> KernelResult:
    if y >= Y_CRIT:
        return KernelResult(y=y, value=0.25 * y * y, argmax_x=0.0, method="closed-form")
    x_star, value = _maximize(lambda xs: R_kernel(xs, y), 0.25 * y * y,
                              0.5 * math.pi, 4096)
    return KernelResult(y=y, value=value, argmax_x=x_star, method="numeric")


def gamma(y: float) -> KernelResult:
    """Conversion factor gamma(y) = max_x R(x, y) for the three-time bound.

    Closed form y^2/4 for y >= sqrt(8/7); otherwise a numeric maximization
    over (0, pi/2], which contains the global maximizer, refined by
    golden-section search.  gamma decreases to 1/8 as y -> 0.  Results are
    cached by y.
    """
    return _gamma_cached(_check_y(y))


def gamma_numeric(y: float) -> KernelResult:
    """Probe-based evaluation of gamma(y) regardless of branch.

    Exposed for cross-checks of the closed form against the numeric
    maximizer; uses the same probe density and refinement as the numeric
    branch of :func:`gamma` but searches (0, 2 pi] so it is meaningful on
    both sides of y_c.
    """
    y = _check_y(y)
    x_star, value = _maximize(lambda xs: R_kernel(xs, y), 0.25 * y * y,
                              2.0 * math.pi, 8192)
    return KernelResult(y=y, value=value, argmax_x=x_star, method="numeric")


@lru_cache(maxsize=4096)
def _gamma_p_cached(p: int, y: float) -> KernelResult:
    alpha, _ = _hp_series_coefficients(p)
    x_max = max(4.0 * math.pi, 8.0 * y)
    x_star, value = _maximize(lambda xs: rp_kernel(p, xs, y),
                              0.25 * alpha * y * y, x_max, 100_000)
    return KernelResult(y=y, value=value, argmax_x=x_star, method="numeric")


def gamma_p(p: int, y: float) -> KernelResult:
    """Conversion factor gamma_p(y) = max_x (1/4) coth^2(x/y) h_p(x).

    For p = 3 this is gamma(y) exactly (h_3 = h) and the call is delegated,
    so downstream p = 3 bounds coincide bitwise with the three-time bound.
    Other p are maximized over (0, max(4 pi, 8 y)] with 1e5 probes plus
    golden-section refinement and the x -> 0 endpoint value
    y^2 (p-1)(p-2)/8 as an explicit candidate.  Grows like p^2 y^2 / 8 at
    fixed y.  Results are cached by (p, y).
    """
    _check_p(p)
    y = _check_y(y)
    if p == 3:
        return _gamma_cached(y)
    return _gamma_p_cached(int(p), y)


@lru_cache(maxsize=4096)
def _gamma_tilde_cached(y: float) -> KernelResult:
    x_max = max(4.0 * math.pi, 8.0 * y)
    x_star, value = _maximize(lambda xs: rtilde_kernel(xs, y),
                              0.125 * y * y, x_max, 100_000)
    return KernelResult(y=y, value=value, argmax_x=x_star, method="numeric")


def gamma_tilde(y: float) -> KernelResult:
    """Conversion factor gamma_tilde(y) = max_x (1/4) coth^2(x/y) (1 - cos x).

    Maximized numerically like :func:`gamma_p`, with the x -> 0 endpoint
    value y^2/8 as a candidate (it is the maximum for large y).  Approaches
    1/2 as y -> 0, attained at x = pi.  Results are cached by y.
    """
    return _gamma_tilde_cached(_check_y(y))


@lru_cache(maxsize=256)
def hp_max(p: int) -> float:
    """Supremum of h_p over one period (0, 2 pi], computed numerically.

    Strictly below 2 for every finite p and approaching 2 as p -> infinity.
    """
    _check_p(p)
    if p == 3:
        return 0.5
    _, value = _maximize(lambda xs: hp_kernel(p, xs), 0.0, 2.0 * math.pi, 100_000)
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
