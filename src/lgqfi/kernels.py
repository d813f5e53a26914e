"""Universal oscillation kernels and their temperature-dependent maxima.

Each bound family is a coefficient vector a, whose correlation combination
sum_k a_k C(k tau) decomposes over level pairs with sum_k a_k cos(k x):

    h(x)      = 2 cos x - cos 2x - 1                a = (-1, 2, -1)    (three-time)
    h_p(x)    = (p-1) cos x - cos((p-1) x) - (p-2)  a_0 = -(p-2), a_1 = p-1, a_{p-1} = -1
    1 - cos x                                       a = (1, -1)         (two-time)

each weighted, for a thermal state at inverse temperature beta, by the ratio
kernel R(x, y) = (1/4) coth^2(x/y) * h(x) with y = 2 tau / beta (and its h_p
and two-time analogues).  The certified conversion factors

    gamma(y)       = max_x R(x, y)
    gamma_p(p, y)  = max_x (1/4) coth^2(x/y) h_p(x)
    gamma_tilde(y) = max_x (1/4) coth^2(x/y) (1 - cos x)

turn measured correlation combinations into quantum Fisher information
lower bounds.  gamma has the closed form y^2/4 for y >= sqrt(8/7); all other
maxima come from one maximizer over rows, one per (family, y) pair (every
family of a tau grid in one :func:`gamma_batch` call): coarse probes plus a
nested zoom on every local maximum, with the x -> 0 endpoint value as a
candidate.  Each zoom level samples 33 points across every open bracket in
one kernel call, and the two samples around its top are the next bracket.
A bracket stops once a closed-form bound on |f''| shows that it cannot rise
above its row's best value by more than a relative eps (or at 4 ulp), and
leaves the working arrays.  Plans per vector a and per ordered family list
(whose families are checked once) are cached, never by y; since no zoom point
lies below the least coarse bracket end, the series test near x = 0 runs
only in calls whose largest y can reach it.

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
_ZOOM_STEPS, _ONE_EPS = np.arange(float(_ZOOM_POINTS)), 1.0 + np.finfo(float).eps
# offsets of a bracket's lo, hi and peak from its peak probe, and those zoom points
_AROUND = np.array([[-1], [1], [0]])
_AROUND_TOP = np.clip(np.arange(_ZOOM_POINTS) + _AROUND, 0, _ZOOM_POINTS - 1)
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
    """Three-time kernel h(x) = 2 cos x - cos 2x - 1 = :func:`hp_kernel` at p = 3, at most 1/2."""
    return hp_kernel(3, x)


def hp_kernel(p: int, x):
    """p-time oscillation kernel h_p(x) = (p-1) cos x - cos((p-1) x) - (p-2).

    Evaluated as 2 sin^2((p-1) x / 2) - 2 (p-1) sin^2(x/2), the equivalent
    cancellation-free form.  Requires integer p >= 3; h_3 = h.  The supremum
    h_p^max approaches 2 from below as p grows.
    """
    x = np.asarray(x, dtype=np.float64)
    out = _osc(x, _plan(_coefficients(p))[0][5:].reshape((-1,) + (1,) * x.ndim))
    return out if out.ndim else float(out)


#: The coefficient vector of h (family 3), the only one with the closed form y^2/4
_H = ((0, -1), (1, 2), (2, -1))


def _coefficients(family) -> tuple[tuple[int, int], ...]:
    """The nonzero entries (k, a_k) of the coefficient vector a of 'tilde' or a p >= 3."""
    if isinstance(family, str) and family == "tilde":
        return ((0, 1), (1, -1))
    p = _integer(family, "p", 3)
    return ((0, 2 - p), (1, p - 1), (p - 1, -1))


@lru_cache(maxsize=32)
def _plan(a: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """(row, xs, osc, cause) of the coefficient vector a (entries summing to 0), read-only.

    Its oscillation sum_k a_k cos(k x) = sum_t w_t sin^2(c_t x) over k_t > 0,
    w_t = -2 a_t, c_t = k_t / 2, is alpha x^2 + beta4 x^4 + O(x^6) near 0.
    ``row`` holds alpha, beta4, the bounds sum_k k^j |a_k| on |osc|, |osc'|
    and |osc''| (j = 0, 1, 2), then each (w_t, c_t); ``osc`` is the
    oscillation at the coarse probes ``xs``; ``cause`` names a in errors.
    """
    k_max = a[-1][0]
    # h <= 0 on [pi/2, 3 pi/2] and h(2 pi - x) = h(x), so its maximum lies in (0, pi/2]
    turns = 0.25 if a == _H else 1.0
    row = np.array([-0.5 * sum(ak * k * k for k, ak in a), sum(ak * k ** 4 for k, ak in a) / 24.0,
                    *(float(sum(abs(ak) * k ** j for k, ak in a)) for j in (0, 1, 2)),
                    *(v for k, ak in a if k for v in (-2.0 * ak, 0.5 * k))])
    p = k_max + 1  # a vector of no named family is named by its coefficients
    cause = ("gamma_tilde" if k_max == 1 else "gamma" if a == _H else f"gamma_p with p = {p}"
             if p > 3 and a == _coefficients(p) else f"the family with vector {a}")
    xs = _grid(2.0 * math.pi * turns, k_max * turns, cause)
    osc = _osc(xs, row[5:, None])
    row.flags.writeable = xs.flags.writeable = osc.flags.writeable = False
    return row, xs, osc, cause


@lru_cache(maxsize=32, typed=True)
def _batch_plan(*families) -> tuple:
    """(causes, free, table, groups, edge) of :func:`gamma_batch`'s ``families``, each checked
    once: their causes, which have no closed form (all but h), plan rows zero-padded (width 1
    with none), per coarse-probe count (members, their (xs, osc)), and the least coarse lo."""
    vectors = tuple(map(_coefficients, families))
    plans = tuple(map(_plan, vectors))
    table = np.zeros((len(plans), max((plan[0].size for plan in plans), default=1)))
    groups = {}
    for i, plan in enumerate(plans):
        table[i, :plan[0].size] = plan[0]
        groups.setdefault(plan[1].size, []).append(i)
    return (tuple(plan[3] for plan in plans), np.array([a != _H for a in vectors], bool), table,
            tuple((np.array(m), np.array([[plans[i][j] for i in m] for j in (1, 2)]))
                  for m in groups.values()),
            min((0.5 * plan[1][0] for plan in plans), default=math.inf))


def _osc(x, terms):
    """sum_t w_t sin^2(c_t x) for terms = (w_1, c_1, w_2, ...) on axis 0, broadcasting against x."""
    return np.add.reduce(terms[0::2] * np.sin(terms[1::2] * x) ** 2, axis=0)


def _ratio_kernel(ax, row, osc=None, near=True):
    """(1/4) coth^2(ax/y) osc at ax = |x| for ``row`` = (y, *plan row) on axis 0, each
    broadcasting against ax; ``osc`` is the oscillation at ax (from the row's terms
    when None).  For ax < 1e-4 y it is the series
    (1/4) [alpha y^2 + (beta4 y^2 + 2 alpha / 3) ax^2], accurate to O(ax^4); ``near``
    False, where every ax is at least 1e-4 y, skips that test."""
    y, alpha, beta4 = row[0], row[1], row[2]
    osc = _osc(ax, row[6:]) if osc is None else osc
    small = ax < 1e-4 * y if near else False
    near = near and small.any()
    # finite coth where the series applies
    coth = 1.0 / np.tanh((np.where(small, y, ax) if near else ax) / y)
    out = 0.25 * coth * coth * osc
    if near:
        series = 0.25 * (alpha * y * y + (beta4 * y * y + 2.0 * alpha / 3.0) * ax * ax)
        out = np.where(small, series, out)
    return out


def R_kernel(x, y: float):
    """Thermal ratio kernel R(x, y) = (1/4) coth^2(x/y) h(x): :func:`rp_kernel` at p = 3.

    Even in x; requires y > 0.  Near x = 0 it is evaluated by the series
    R = (1/4) [y^2 + (2/3 - (7/12) y^2) x^2 + O(x^4)], whose quadratic
    coefficient changes sign at y_c = sqrt(8/7): above y_c the origin is the
    maximum and gamma(y) = y^2/4 in closed form.
    """
    return rp_kernel(3, x, y)


def rp_kernel(p: int, x, y: float):
    """p-time ratio kernel (1/4) coth^2(x/y) h_p(x), with h_p as in :func:`hp_kernel`."""
    ax = np.abs(np.asarray(x, dtype=np.float64))
    row = np.append(_positive(y, _SCALED_TIME), _plan(_coefficients(p))[0])
    out = _ratio_kernel(ax, row.reshape((-1,) + (1,) * ax.ndim))
    return out if out.ndim else float(out)


def rtilde_kernel(x, y: float):
    """Two-time ratio kernel (1/4) coth^2(x/y) (1 - cos x)."""
    return rp_kernel("tilde", x, y)


def _grid(x_max: float, periods: float, cause: str) -> np.ndarray:
    """Coarse probes of (0, x_max], 64 per period and at least 1024, or (over
    MAX_PROBES) a ValueError naming ``cause``, raised before allocating."""
    needed = _PROBES_PER_PERIOD * periods
    if not needed <= MAX_PROBES:
        raise ValueError(f"{cause} needs {needed:.4g} kernel probes, over {MAX_PROBES}")
    return np.linspace(0.0, x_max, max(_MIN_PROBES, math.ceil(needed)) + 1)[1:]


def _maximize(kernel: Callable, curvature: Callable, xs: np.ndarray, rows: np.ndarray,
              vals: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """Row i: maximum of kernel(x, rows[i]) over (0, xs[i, -1]] or its x -> 0 endpoint value.

    ``vals`` is the kernel at the (rows, n) coarse probes ``xs``; ``kernel``
    maps a (b, k) block of x and b parameter rows to values, and
    ``curvature(lo, hi, rows)`` bounds |d^2 kernel / dx^2| on brackets
    [lo, hi] (inf or NaN keeps a bracket open; it runs under the caller's
    error state).  Every local maximum of the probes is zoomed, one kernel
    call per level for all rows.  A level of spacing s leaves a bracket at most
    M s^2 / 8 above its best sample, so each bracket stops once that rise is
    within a relative eps of its row's best value (endpoint included), or
    once it is 4 ulp wide.  Returns the (argmax_x, value) rows, ties to the
    first bracket, or (0.0, endpoint) where that is strictly larger.
    """
    count, n = vals.shape
    pad = np.full((count, n + 2), -np.inf)
    pad[:, 1:-1] = vals
    owner, peaks = np.divmod(np.flatnonzero((vals > pad[:, :-2]) & (vals >= pad[:, 2:])), n)
    # one column per open bracket: lo, hi (around the peak; half the first probe), best x,
    # best value and M / 8
    work = np.empty((5, peaks.size))
    work[:3] = xs[owner, np.minimum(peaks + _AROUND, n - 1)]
    np.multiply(work[2], 0.5, out=work[0], where=peaks == 0)
    work[3] = vals[owner, peaks]
    lo, hi, best_x, best_v, bound = work
    row_best = np.maximum(endpoints, vals.max(axis=1))
    # a bracket that stops leaves the working arrays; slot is its place
    at = slot = np.arange(peaks.size)
    ob, rb, final = owner, rows[owner], np.empty((2, peaks.size))
    # M / 8 of a coarse bracket holds on its sub-brackets; inf or NaN keeps it open
    np.divide(curvature(lo, hi, rb), 8.0, out=bound)
    while True:
        step = (hi - lo) / (_ZOOM_POINTS - 1.0)
        x = lo[:, None] + step[:, None] * _ZOOM_STEPS
        level = kernel(x, rb)
        top = level.argmax(axis=1)
        around, top_v = x[at, _AROUND_TOP[:, top]], level[at, top]
        better = top_v > best_v
        np.copyto(best_x, around[2], where=better)
        np.copyto(best_v, top_v, where=better)
        np.maximum.at(row_best, ob, best_v)
        work[:2] = around[:2]
        # open while wider than 4 ulp and not done (its rise is within eps)
        open_ = (hi - lo > 4.0 * np.spacing(hi)) > (
            best_v + bound * step * step <= _ONE_EPS * row_best[ob])
        still = np.count_nonzero(open_)
        if still < open_.size:
            final[:, slot] = work[2:4]
            if not still:
                break
            lo, hi, best_x, best_v, bound = work = work[:, open_]
            slot, ob, rb, at = slot[open_], ob[open_], rb[open_], at[:still]
    # each row's first bracket with its largest value (lexsort is stable)
    best = final[:, np.lexsort((-final[1], owner))[np.searchsorted(owner, np.arange(count))]]
    return np.where(endpoints > best[1], (np.zeros(count), endpoints), best)


def _ratio_curvature(lo: np.ndarray, hi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Bound on |f''| over x >= lo > 0 of each gamma_batch row's kernel f = g osc,
    g = (1/4) coth^2(x/y): g'' sup|osc| + 2 |g'| sup|osc'| + g sup|osc''|, with g,
    |g'|, g'' (decreasing) at lo."""
    y = rows[:, 0]
    u = lo / y
    coth, csch2 = 1.0 / np.tanh(u), np.sinh(u) ** -2.0
    g1 = 0.5 * coth * csch2 / y
    g2 = 0.5 * (3.0 * coth * coth - 1.0) * csch2 / (y * y)
    return g2 * rows[:, 3] + 2.0 * g1 * rows[:, 4] + 0.25 * coth * coth * rows[:, 5]


def gamma_batch(family, ys):
    """Kernel maxima of one bound family, or of a list of them, at every scaled time in ``ys``.

    A family is 3 for :func:`gamma` (closed form for y >= Y_CRIT), an
    integer p > 3 for :func:`gamma_p` or 'tilde' for :func:`gamma_tilde`.
    One family gives a tuple with one result per y (those functions are
    one-row calls of this one), a list a dict of such tuples.  The numeric
    (family, y) rows share one coarse block and :func:`_maximize` call per
    MAX_PROBES probes, each bit for bit as on its own, from the family list's
    cached plan.  A row whose kernel or maximum is not finite raises ValueError
    naming the family and its y.
    """
    several = isinstance(family, (list, tuple))
    families = tuple(dict.fromkeys(family)) if several else (family,)
    causes, free, table, groups, edge = _batch_plan(*families)
    ys = np.array(ys, dtype=np.float64, ndmin=1)
    if not (ys > 0.0).all():
        _positive(ys[~(ys > 0.0)][0], _SCALED_TIME)
    # one row per (family, y), family after family: y, then the zero-padded plan row
    rows = np.empty((len(families), ys.size, 1 + table.shape[1]))
    rows[:, :, 0], rows[:, :, 1:] = ys, table[:, None]
    rows = rows.reshape(-1, rows.shape[2])
    numeric = free[:, None] | (ys < Y_CRIT)
    # every probe and zoom point x >= edge, the least coarse lo: x < 1e-4 y needs a large y
    near = bool(edge < 1e-4 * ys.max(initial=0.0))
    # y^2 overflows above about 1.3e154: the ValueErrors below report it
    with np.errstate(over="ignore", invalid="ignore"):
        # the x -> 0 endpoint value (1/4) alpha y^2, which is gamma(y) for y >= Y_CRIT
        args, values = np.zeros(len(rows)), (0.25 * table[:, :1] * ys * ys).ravel()
        for members, probes in groups:
            mi, yi = np.divmod(np.flatnonzero(numeric[members]), ys.size)
            index, step = members[mi] * ys.size + yi, max(1, MAX_PROBES // probes.shape[2])
            for i in range(0, index.size, step):
                chunk, m = index[i:i + step], mi[i:i + step]
                (xs, osc), r = probes[:, m], rows[chunk]
                vals = _ratio_kernel(xs, r.T[..., None], osc, near)
                if not np.isfinite(vals).all():  # no peak to zoom: reported below
                    values[chunk[~np.isfinite(vals).all(axis=1)]] = np.nan
                    continue
                args[chunk], values[chunk] = _maximize(
                    lambda x, rb: _ratio_kernel(x, rb.T[..., None], None, near),
                    _ratio_curvature, xs, r, vals, values[chunk])
    for bad in np.flatnonzero(~np.isfinite(values))[:1]:
        raise ValueError(f"{causes[bad // ys.size]} is not finite at scaled time "
                         f"y = {float(rows[bad, 0])!r}")
    columns = {f: tuple(map(KernelResult, ys.tolist(), v, x, map(
        ("closed-form", "numeric").__getitem__, m))) for f, v, x, m in zip(
        families, *(a.reshape(numeric.shape).tolist() for a in (values, args, numeric)))}
    return columns if several else columns[family]


def gamma(y: float) -> KernelResult:
    """Conversion factor gamma(y) = max_x R(x, y) for the three-time bound.

    Closed form y^2/4 for y >= sqrt(8/7); otherwise the shared maximizer
    over (0, pi/2], which contains the global maximizer, with the endpoint
    value y^2/4 as a candidate.  gamma decreases to 1/8 as y -> 0.
    """
    return gamma_batch(3, y)[0]


def gamma_p(p: int, y: float) -> KernelResult:
    """Conversion factor gamma_p(y) = max_x (1/4) coth^2(x/y) h_p(x).

    For p = 3 this is gamma(y) exactly (h_3 = h, the same vector a), so
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
    xs = _grid(2.0 * math.pi, p - 1, f"hp_max with p = {p}")[None]
    row = _plan(_coefficients(p))[0]
    _, (value,) = _maximize(lambda x, _: _osc(x, row[5:, None, None]), lambda *_: row[4], xs,
                            np.zeros((1, 1)), _osc(xs, row[5:, None, None]), np.zeros(1))
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
