"""Oscillation kernels and their certified thermal maxima."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lgqfi.kernels
from lgqfi.kernels import (
    R_kernel,
    Y_CRIT,
    gamma,
    gamma_batch,
    gamma_p,
    gamma_p_zero_temperature,
    gamma_tilde,
    gamma_tilde_zero_temperature,
    gamma_zero_temperature,
    h_kernel,
    hp_kernel,
    hp_max,
    rp_kernel,
    rtilde_kernel,
)
from lgqfi.response import gamma_H


def _brute_max(fn, x_max: float, points: int = 400_000) -> float:
    xs = np.linspace(0.0, x_max, points + 1)[1:]
    return float(np.max(fn(xs)))


# --------------------------------------------------------------------------
# oscillation kernels


def test_h_matches_naive_form():
    xs = np.linspace(-10.0, 10.0, 2001)
    naive = 2.0 * np.cos(xs) - np.cos(2.0 * xs) - 1.0
    np.testing.assert_allclose(h_kernel(xs), naive, atol=1e-14)


def test_h_special_values():
    assert abs(h_kernel(0.0)) < 1e-15
    assert abs(h_kernel(math.pi / 3.0) - 0.5) < 1e-15
    xs = np.linspace(0.0, 2.0 * math.pi, 200_001)
    assert np.max(h_kernel(xs)) <= 0.5 + 1e-12


@pytest.mark.parametrize("p", [3, 4, 5, 7])
def test_hp_matches_naive_form(p):
    xs = np.linspace(-8.0, 8.0, 1601)
    naive = (p - 1) * np.cos(xs) - np.cos((p - 1) * xs) - (p - 2)
    np.testing.assert_allclose(hp_kernel(p, xs), naive, atol=1e-12)


def test_hp_three_is_h():
    xs = np.linspace(0.0, 7.0, 701)
    assert np.array_equal(hp_kernel(3, xs), h_kernel(xs))


@pytest.mark.parametrize("p", [3, 4, 6, 9])
def test_hp_strictly_below_two(p):
    xs = np.linspace(0.0, 2.0 * math.pi, 300_001)
    top = np.max(hp_kernel(p, xs))
    assert top < 2.0
    assert hp_max(p) >= top - 1e-12
    assert hp_max(p) < 2.0


def test_hp_max_small_p():
    assert hp_max(3) == 0.5
    # p = 4: stationary points of 3cos x - cos 3x - 2 solve sin 3x = sin x,
    # giving x = pi/4 and the exact maximum 2 sqrt(2) - 2
    assert abs(hp_max(4) - (2.0 * math.sqrt(2.0) - 2.0)) < 1e-9


def test_hp_invalid_p():
    with pytest.raises(ValueError):
        hp_kernel(2, 1.0)
    with pytest.raises(ValueError):
        hp_kernel(3.5, 1.0)  # type: ignore[arg-type]


# --------------------------------------------------------------------------
# ratio kernels


def test_r_kernel_seam_continuity():
    # series branch engages below |x| = 1e-4 y; check continuity across it
    for y in (0.3, 1.0, 2.5):
        edge = 1e-4 * y
        below = float(R_kernel(edge * 0.999, y))
        above = float(R_kernel(edge * 1.001, y))
        assert abs(below - above) < 1e-10 * max(1.0, y * y)


def test_r_kernel_even_and_origin_limit():
    y = 0.8
    xs = np.array([0.3, 1.1, 2.7])
    np.testing.assert_allclose(R_kernel(xs, y), R_kernel(-xs, y), atol=1e-15)
    assert abs(float(R_kernel(1e-9, y)) - y * y / 4.0) < 1e-12


def test_r_kernel_direct_formula():
    y, x = 0.9, 1.3
    expected = 0.25 * (math.cosh(x / y) / math.sinh(x / y)) ** 2 * (
        2.0 * math.cos(x) - math.cos(2.0 * x) - 1.0)
    assert abs(float(R_kernel(x, y)) - expected) < 1e-13


def test_rp_and_rtilde_direct_formula():
    y, x, p = 1.1, 2.0, 5
    coth2 = (math.cosh(x / y) / math.sinh(x / y)) ** 2
    hp = (p - 1) * math.cos(x) - math.cos((p - 1) * x) - (p - 2)
    assert abs(float(rp_kernel(p, x, y)) - 0.25 * coth2 * hp) < 1e-13
    assert abs(float(rtilde_kernel(x, y)) - 0.25 * coth2 * (1.0 - math.cos(x))) < 1e-13


def test_rp_kernel_at_three_is_r_kernel():
    xs = np.concatenate([np.linspace(-30.0, 30.0, 2001), [0.0, 1e-7, -3e-5]])
    for y in (0.05, 0.5, 1.0, 3.0):
        assert np.array_equal(rp_kernel(3, xs, y), R_kernel(xs, y))


def test_kernels_require_positive_y():
    for fn in (lambda: R_kernel(1.0, 0.0), lambda: gamma(0.0),
               lambda: gamma_tilde(-1.0), lambda: gamma_p(4, 0.0)):
        with pytest.raises(ValueError):
            fn()


# --------------------------------------------------------------------------
# gamma: universal kernel maximum


def test_gamma_closed_form_above_critical():
    for y in np.linspace(Y_CRIT, 10.0, 25):
        res = gamma(float(y))
        assert res.value == y * y / 4.0
        assert res.method == "closed-form"
        assert res.argmax_x == 0.0


def test_gamma_small_y_limit():
    assert abs(gamma(1e-6).value - 0.125) < 1e-4
    assert gamma_zero_temperature() == 0.125


def test_gamma_branch_continuity():
    below = gamma(Y_CRIT * (1.0 - 1e-9)).value
    above = gamma(Y_CRIT * (1.0 + 1e-9)).value
    assert abs(below - above) < 1e-7


def test_gamma_dominates_brute_force_global():
    # cot h^2 decreases while the oscillation repeats with period 2 pi, so
    # the first period contains the global maximum; probe far beyond it
    for y in (0.2, 0.7, 1.0, 2.0):
        brute = _brute_max(lambda x: R_kernel(x, y), 20.0 * math.pi)
        value = gamma(y).value
        assert value >= brute - 1e-9
        assert value <= brute + 1e-6  # the reported value is attained


@pytest.mark.parametrize("family", [3, "tilde", 4, 5, 9], ids=str)
def test_gamma_monotone_in_y(family):
    # d ln coth^2(x/y) / d ln y = 4u / sinh 2u in (0, 2], u = x/y, at every x:
    # gamma(y) <= gamma(y') <= (y'/y)^2 gamma(y) for y < y'
    ys = np.geomspace(1e-3, 3.0, 400)
    values = np.array([r.value for r in gamma_batch(family, ys)])
    low, high, ratio = values[:-1], values[1:], ys[1:] / ys[:-1]
    assert np.all(high >= low * (1.0 - 1e-12))
    assert np.all(high <= ratio * ratio * low * (1.0 + 1e-12))


def test_gamma_argmax_attains_value():
    res = gamma(0.5)
    assert res.method == "numeric"
    assert abs(float(R_kernel(res.argmax_x, 0.5)) - res.value) < 1e-12


def test_gamma_repeats_bit_for_bit():
    assert gamma(0.37) == gamma(0.37)


# --------------------------------------------------------------------------
# gamma_p and gamma_tilde


def test_gamma_p_three_delegates_exactly():
    for y in (0.2, 1.0, 4.0):
        assert gamma_p(3, y).value == gamma(y).value


@pytest.mark.parametrize("p", [4, 5, 7])
def test_gamma_p_dominates_brute_force(p):
    for y in (0.3, 1.0, 2.5):
        brute = _brute_max(lambda x: rp_kernel(p, x, y), 20.0 * math.pi)
        value = gamma_p(p, y).value
        assert value >= brute - 1e-9
        # attainment: either an interior peak (finite grid undershoots by
        # O(spacing^2 * curvature)) or the origin supremum
        origin_sup = y * y * (p - 1) * (p - 2) / 8.0
        assert value <= max(brute + 1e-6, origin_sup + 1e-9)


def test_gamma_p_large_y_closed_value():
    # for large y the maximum sits at the origin: (1/4) alpha y^2
    assert abs(gamma_p(4, 10.0).value - 75.0) < 1e-9
    assert abs(gamma_p(5, 10.0).value - 150.0) < 1e-9


def test_gamma_p_zero_temperature_limits():
    assert gamma_p_zero_temperature(3) == 0.125
    for p in (4, 5, 6):
        assert gamma_p_zero_temperature(p) == hp_max(p) / 4.0


def test_gamma_tilde_brute_force_and_limits():
    for y in (0.3, 1.0, 2.5):
        brute = _brute_max(lambda x: rtilde_kernel(x, y), 20.0 * math.pi)
        value = gamma_tilde(y).value
        assert value >= brute - 1e-9
        assert value <= brute + 1e-6
    assert abs(gamma_tilde(1e-6).value - 0.5) < 1e-6
    assert gamma_tilde_zero_temperature() == 0.5
    assert abs(gamma_tilde(10.0).value - 12.5) < 1e-9


@pytest.mark.parametrize("kernel,value", [
    (rtilde_kernel, lambda y: gamma_tilde(y).value),
    (lambda x, y: rp_kernel(4, x, y), lambda y: gamma_p(4, y).value),
    (lambda x, y: rp_kernel(5, x, y), lambda y: gamma_p(5, y).value),
    (lambda x, y: rp_kernel(8, x, y), lambda y: gamma_p(8, y).value),
], ids=["tilde", "p4", "p5", "p8"])
def test_first_period_holds_the_maximum(kernel, value):
    # the search covers (0, 2 pi] only; beyond it coth^2 is smaller and the
    # oscillation repeats.  For small y, coth^2 rounds to 1 past 2 pi and
    # the periods tie up to rounding of the oscillation, hence 4 eps.
    for y in (0.05, 0.3, 1.0, 2.5, 10.0):
        x_hi = max(4.0 * math.pi, 8.0 * y)
        xs = np.linspace(2.0 * math.pi, x_hi, 200_001)[1:]
        tail = float(np.max(kernel(xs, y)))
        assert tail <= value(y) * (1.0 + 4.0 * np.finfo(float).eps)


@pytest.mark.parametrize("call,cause", [
    (lambda: gamma_p(10**6, 1.0), "gamma_p with p = 1000000"),
    (lambda: hp_max(10**6), "hp_max with p = 1000000"),
])
def test_probe_cap_fails_before_allocating(call, cause, monkeypatch):
    def no_probes(*args, **kwargs):
        raise AssertionError("probe array built")

    monkeypatch.setattr(np, "linspace", no_probes)
    with pytest.raises(ValueError, match=cause):
        call()


def test_gamma_decay_hierarchy():
    # at fixed y the p-family maxima grow with p, so the converted bounds
    # weaken; check the kernel side of that statement
    y = 0.8
    values = [gamma_p(p, y).value for p in (3, 4, 5, 6)]
    assert all(b > a for a, b in zip(values, values[1:]))


# --------------------------------------------------------------------------
# one maximizer over rows


_ONE_ROW = {3: gamma, "tilde": gamma_tilde, 5: lambda y: gamma_p(5, y),
            9: lambda y: gamma_p(9, y)}


def _row_ys():
    # tiny y (series branch near the origin), large y (origin maximum),
    # both sides of Y_CRIT, and a random spread in between
    rng = np.random.default_rng(97)
    edges = [1e-7, 3e-5, np.nextafter(Y_CRIT, 0.0), Y_CRIT, 40.0, 2e3]
    return np.concatenate([edges, 10.0 ** rng.uniform(-4.0, 1.5, 34)])


@pytest.mark.parametrize("family", list(_ONE_ROW), ids=str)
def test_batched_maxima_match_one_row_calls(family, monkeypatch):
    # four rows per chunk of 1024 coarse probes: 40 rows take ten chunks
    monkeypatch.setattr(lgqfi.kernels, "MAX_PROBES", 4 * 1024)
    ratio_kernel, blocks = lgqfi.kernels._ratio_kernel, []

    def recording(*args):
        out = ratio_kernel(*args)
        blocks.append(np.shape(out))
        return out

    monkeypatch.setattr(lgqfi.kernels, "_ratio_kernel", recording)
    ys = _row_ys()
    batched = gamma_batch(family, ys)
    coarse = [shape for shape in blocks if shape[-1] == 1024]
    assert len(coarse) >= 2
    assert max(math.prod(shape) for shape in blocks) <= 4 * 1024
    assert len(batched) == len(ys)
    for y, result in zip(ys.tolist(), batched):
        assert result == _ONE_ROW[family](y)
    # maximized together with the other families: in the same chunks, and all
    # 160 rows in one block
    for probes in (4 * 1024, 160 * 1024):
        monkeypatch.setattr(lgqfi.kernels, "MAX_PROBES", probes)
        together = gamma_batch(list(_ONE_ROW), ys)
        assert list(together) == list(_ONE_ROW)
        assert together[family] == batched


def test_batched_maxima_of_two_probe_counts_match_one_row_calls():
    # p = 20 needs 1216 coarse probes, the others 1024: two groups in one call
    ys = _row_ys()
    together = gamma_batch([3, "tilde", 5, 9, 20], ys)
    for family, column in together.items():
        one_row = _ONE_ROW.get(family, lambda y: gamma_p(20, y))
        assert column == tuple(one_row(y) for y in ys.tolist())


def test_kernel_caches_are_never_keyed_by_y():
    batch_plan, plan = lgqfi.kernels._batch_plan, lgqfi.kernels._plan
    assert batch_plan.cache_info().maxsize == plan.cache_info().maxsize == 32
    batch_plan.cache_clear()
    plan.cache_clear()
    gamma_batch([3, "tilde", 4, 5], [0.5])
    first = (batch_plan.cache_info().currsize, plan.cache_info().currsize)
    assert first == (1, 4)
    for y in np.linspace(0.01, 5.0, 500):
        gamma_batch([3, "tilde", 4, 5], [y])
    assert (batch_plan.cache_info().currsize, plan.cache_info().currsize) == first


def test_batched_maxima_reject_bad_rows():
    with pytest.raises(ValueError, match="must be positive"):
        gamma_batch("tilde", [0.5, 0.0])
    with pytest.raises(ValueError, match="at least 3"):
        gamma_batch(2, [0.5])
    with pytest.raises(ValueError, match="gamma_p with p = 1000000"):
        gamma_batch(10**6, [0.5])
    assert gamma_batch(4, []) == ()
    assert gamma_batch([3], []) == {3: ()}
    assert gamma_batch([], [0.5, 1.0]) == {}


@pytest.mark.parametrize("call", ["gamma_tilde(1e160)", "gamma_p(4, 1e160)", "gamma(1e160)"])
def test_overflowing_y_raises_instead_of_hanging(call):
    # y^2 overflows: every probe is NaN, which used to leave the zoom loop
    # without an exit, so the call runs in a child process with a timeout
    code = ("from lgqfi.kernels import gamma, gamma_p, gamma_tilde\n"
            f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "not finite at scaled time y = 1e+160" in proc.stdout
    assert "Warning" not in proc.stderr


def test_batch_with_an_overflowing_row_raises():
    finite = gamma_batch("tilde", [2e143])
    assert math.isfinite(finite[0].value)
    # the overflowing row used to get value inf and the finite row's argmax
    with pytest.raises(ValueError, match=r"gamma_tilde is not finite at scaled time y = 2e\+154"):
        gamma_batch("tilde", [2e143, 2e154])
    with pytest.raises(ValueError, match=r"gamma_p with p = 5 .* y = inf"):
        gamma_batch(5, [0.5, math.inf])


# --------------------------------------------------------------------------
# the curvature bound that stops each zoom bracket


def _captured(monkeypatch, module, call):
    """(kernel, curvature, first row, x_max) that ``call`` hands to ``module._maximize``."""
    maximize, seen = module._maximize, []

    def recording(kernel, curvature, xs, rows, vals, endpoints):
        seen.append((kernel, curvature, rows[:1], float(xs[0, -1])))
        return maximize(kernel, curvature, xs, rows, vals, endpoints)

    monkeypatch.setattr(module, "_maximize", recording)
    call()
    (captured,) = seen
    return captured


def _curvature_excess(kernel, curvature, row, x_max, rng, inside=None, brackets=40):
    """Largest |f''| / M over random brackets in (0, x_max] of the kernel row
    ``row``; f'' from central differences on a dense grid, at the points
    where ``inside`` holds."""
    worst = 0.0
    for _ in range(brackets):
        lo = rng.uniform(x_max / 2048.0, x_max)
        hi = min(x_max, lo + x_max * 10.0 ** rng.uniform(-3.0, 0.0))
        bound = float(np.broadcast_to(curvature(np.array([lo]), np.array([hi]), row), (1,))[0])
        step = min(1e-4, 1e-2 * (hi - lo))
        xs = np.linspace(lo, hi, 2001)
        f = [kernel(x[None, :], row)[0] for x in (xs - step, xs, xs + step)]
        second = (f[0] - 2.0 * f[1] + f[2]) / step ** 2
        keep = np.ones(xs.size, bool) if inside is None else (
            inside(xs - step) & inside(xs) & inside(xs + step))
        if keep.any():
            worst = max(worst, float(np.max(np.abs(second[keep]))) / bound)
    return worst


@pytest.mark.parametrize("family", [3, "tilde", 4, 5, 9], ids=str)
def test_curvature_bounds_the_ratio_kernels(family, monkeypatch):
    rng = np.random.default_rng(41)
    worst = 0.0
    for y in (0.03, 0.2, 0.7, 1.0, 3.0, 10.0):
        if family == 3 and y >= Y_CRIT:
            continue
        kernel, curvature, row, x_max = _captured(monkeypatch, lgqfi.kernels,
                                                  lambda: gamma_batch(family, [y]))
        monkeypatch.undo()
        assert row[0, 0] == y
        worst = max(worst, _curvature_excess(kernel, curvature, row, x_max, rng))
    # M bounds f'' everywhere, and is tight enough that M / 2 would not
    assert 0.5 < worst <= 1.0 + 1e-6


@pytest.mark.parametrize("p", [4, 5, 9])
def test_curvature_bounds_hp(p, monkeypatch):
    kernel, curvature, row, x_max = _captured(monkeypatch, lgqfi.kernels,
                                              lambda: hp_max.__wrapped__(p))
    worst = _curvature_excess(kernel, curvature, row, x_max, np.random.default_rng(p))
    assert 0.5 < worst <= 1.0 + 1e-6


@pytest.mark.parametrize("beta, tau, omega_star", [
    (0.05, 1.0, 5.0), (0.3, 2.0, 10.0), (2.0, 1.0, 6.0), (1.0, 0.5, 30.0)])
def test_curvature_bounds_gamma_h(beta, tau, omega_star, monkeypatch):
    import lgqfi.response

    kernel, curvature, row, x_max = _captured(
        monkeypatch, lgqfi.response, lambda: lgqfi.response.gamma_H(beta, tau, omega_star))
    # phi'' on h's positive lobes; where max(h, 0) kinks, phi bends upward
    worst = _curvature_excess(kernel, curvature, row, x_max, np.random.default_rng(7),
                              inside=lambda omega: h_kernel(omega * tau) > 0.0)
    assert worst <= 1.0 + 1e-6


def test_one_row_maxima_stop_within_nine_kernel_evaluations(monkeypatch):
    # each zoom level is one kernel call; a 4-ulp stop takes 12-14 of them
    ratio_kernel, calls = lgqfi.kernels._ratio_kernel, []

    def counting(*args):
        calls.append(1)
        return ratio_kernel(*args)

    monkeypatch.setattr(lgqfi.kernels, "_ratio_kernel", counting)
    rng = np.random.default_rng(300)
    ys = 2.0 * rng.uniform(0.01, 5.0, 300) / rng.uniform(0.1, 10.0, 300)
    for family in (3, "tilde", 4, 5):
        counts = []
        for y in ys:
            calls.clear()
            gamma_batch(family, [y])
            counts.append(len(calls))
        assert max(counts) <= 9, (family, max(counts))


# --------------------------------------------------------------------------
# the maximizer's output bits

_FROZEN_YS = [1e-7, 3e-5, 1e-4, 2.5e-4, 6e-4, 0.0015, 0.004, 0.01, 0.025, 0.06, 0.15, 0.3,
              0.5, 0.7, 0.9, 1.0, math.nextafter(Y_CRIT, 0.0), Y_CRIT, 1.2, 1.6, 2.2, 3.0,
              4.5, 7.0, 11.0, 17.0, 25.0, 31.6, 40.0, 2e3]

# float.hex of (value, argmax_x) at each of _FROZEN_YS, two rows a line, recorded
# on x86-64 with NumPy 2.4: the coarse probes, zoom points and stop rule fix them
_FROZEN = {
    3: """
0x1.0000000000002p-3 0x1.0c15235f3c67bp+0  0x1.0000000000002p-3 0x1.0c15235f3c67bp+0
0x1.0000000000002p-3 0x1.0c15235f3c67bp+0  0x1.0000000000002p-3 0x1.0c15235f3c67bp+0
0x1.0000000000002p-3 0x1.0c15235f3c67bp+0  0x1.0000000000002p-3 0x1.0c15235f3c67bp+0
0x1.0000000000002p-3 0x1.0c15235f3c67bp+0  0x1.0000000000002p-3 0x1.0c15235f3c67bp+0
0x1.0000000000002p-3 0x1.0c15235f3c67bp+0  0x1.000000000000ep-3 0x1.0c15235f3c67bp+0
0x1.000039ee3b1d2p-3 0x1.0c14a2b6c750bp+0  0x1.00f779b1ccc70p-3 0x1.0afdb3d5ad0abp+0
0x1.11af33abdf71fp-3 0x1.fdaa6767b149ap-1  0x1.4778a8340a81dp-3 0x1.bf30f228a8bf8p-1
0x1.b2e1ab117153fp-3 0x1.45ecb48acc424p-1  0x1.01e30f0b52e5fp-2 0x1.af149e6c6cc06p-2
0x1.2492492492491p-2 0x0.0p+0  0x1.2492492492493p-2 0x0.0p+0
0x1.70a3d70a3d70ap-2 0x0.0p+0  0x1.47ae147ae147cp-1 0x0.0p+0
0x1.35c28f5c28f5dp+0 0x0.0p+0  0x1.2000000000000p+1 0x0.0p+0
0x1.4400000000000p+2 0x0.0p+0  0x1.8800000000000p+3 0x0.0p+0
0x1.e400000000000p+4 0x0.0p+0  0x1.2100000000000p+6 0x0.0p+0
0x1.3880000000000p+7 0x0.0p+0  0x1.f347ae147ae15p+7 0x0.0p+0
0x1.9000000000000p+8 0x0.0p+0  0x1.e848000000000p+19 0x0.0p+0
""",
    "tilde": """
0x1.0000000000000p-1 0x1.921fb54442d18p+1  0x1.0000000000000p-1 0x1.921fb54442d18p+1
0x1.0000000000000p-1 0x1.921fb54442d18p+1  0x1.0000000000000p-1 0x1.921fb54442d18p+1
0x1.0000000000000p-1 0x1.921fb54442d18p+1  0x1.0000000000000p-1 0x1.921fb54442d18p+1
0x1.0000000000000p-1 0x1.921fb54442d18p+1  0x1.0000000000000p-1 0x1.921fb54442d18p+1
0x1.0000000000000p-1 0x1.921fb54442d18p+1  0x1.0000000000000p-1 0x1.921fb54442d18p+1
0x1.0000000000000p-1 0x1.921fb54442d18p+1  0x1.0000000dc7193p-1 0x1.921fb4d329e68p+1
0x1.0000ea15e19bbp-1 0x1.921c0cba79defp+1  0x1.002148b603de5p-1 0x1.91c03ca85505cp+1
0x1.00f8aa52168bap-1 0x1.8fed7545b0d5bp+1  0x1.01fb1185f7aa2p-1 0x1.8e0c55db2114dp+1
0x1.03026596f5a5ep-1 0x1.8c47245c698a1p+1  0x1.03026596f5a5ep-1 0x1.8c47245c698a1p+1
0x1.05e230c6814cep-1 0x1.87bb212e1c722p+1  0x1.18ba1b823bd70p-1 0x1.6eabd9fb55698p+1
0x1.5e9d6321d72fep-1 0x1.1fb4dd47826e6p+1  0x1.2000000000000p+0 0x0.0p+0
0x1.4400000000000p+1 0x0.0p+0  0x1.8800000000000p+2 0x0.0p+0
0x1.e400000000000p+3 0x0.0p+0  0x1.2100000000000p+5 0x0.0p+0
0x1.3880000000000p+6 0x0.0p+0  0x1.f347ae147ae15p+6 0x0.0p+0
0x1.9000000000000p+7 0x0.0p+0  0x1.e848000000000p+18 0x0.0p+0
""",
    4: """
0x1.a827999fcef32p-3 0x1.921fb54442d18p-1  0x1.a827999fcef32p-3 0x1.921fb54442d18p-1
0x1.a827999fcef32p-3 0x1.921fb54442d18p-1  0x1.a827999fcef32p-3 0x1.921fb54442d18p-1
0x1.a827999fcef32p-3 0x1.921fb54442d18p-1  0x1.a827999fcef32p-3 0x1.921fb54442d18p-1
0x1.a827999fcef32p-3 0x1.921fb54442d18p-1  0x1.a827999fcef32p-3 0x1.921fb54442d18p-1
0x1.a827999fcef32p-3 0x1.921fb54442d18p-1  0x1.a827999fee0c8p-3 0x1.921fb54442d18p-1
0x1.a833e9b0972cfp-3 0x1.920c56da0852ap-1  0x1.b1c1b774810dbp-3 0x1.8a229d02c1be2p-1
0x1.05af5de6f7e97p-2 0x1.5683e67dfe98ap-1  0x1.80c7cb8656722p-2 0x1.9d8151e6b3b05p-2
0x1.370a3d70a3d71p-1 0x0.0p+0  0x1.8000000000000p-1 0x0.0p+0
0x1.b6db6db6db6d9p-1 0x0.0p+0  0x1.b6db6db6db6dcp-1 0x0.0p+0
0x1.147ae147ae147p+0 0x0.0p+0  0x1.eb851eb851ebap+0 0x0.0p+0
0x1.d0a3d70a3d70cp+1 0x0.0p+0  0x1.b000000000000p+2 0x0.0p+0
0x1.e600000000000p+3 0x0.0p+0  0x1.2600000000000p+5 0x0.0p+0
0x1.6b00000000000p+6 0x0.0p+0  0x1.b180000000000p+7 0x0.0p+0
0x1.d4c0000000000p+8 0x0.0p+0  0x1.7675c28f5c290p+9 0x0.0p+0
0x1.2c00000000000p+10 0x0.0p+0  0x1.6e36000000000p+21 0x0.0p+0
""",
    5: """
0x1.0b8ab04fbe3a5p-2 0x1.41b2f755b3de8p-1  0x1.0b8ab04fbe3a5p-2 0x1.41b2f755b3de8p-1
0x1.0b8ab04fbe3a5p-2 0x1.41b2f755b3de8p-1  0x1.0b8ab04fbe3a5p-2 0x1.41b2f755b3de8p-1
0x1.0b8ab04fbe3a5p-2 0x1.41b2f755b3de8p-1  0x1.0b8ab04fbe3a5p-2 0x1.41b2f755b3de8p-1
0x1.0b8ab04fbe3a5p-2 0x1.41b2f755b3de8p-1  0x1.0b8ab04fbe3a5p-2 0x1.41b2f755b3de8p-1
0x1.0b8ab04fbe3a5p-2 0x1.41b2f755b3de8p-1  0x1.0b8ab05e24585p-2 0x1.41b2f755b3de8p-1
0x1.0bca0e795cd5bp-2 0x1.4149ed119d558p-1  0x1.1e2e125b3e180p-2 0x1.3068ddf88732ap-1
0x1.9e663554c1b13p-2 0x1.ab46cb794b9dap-2  0x1.7851eb851eb84p-1 0x0.0p+0
0x1.370a3d70a3d71p+0 0x0.0p+0  0x1.8000000000000p+0 0x0.0p+0
0x1.b6db6db6db6d9p+0 0x0.0p+0  0x1.b6db6db6db6dcp+0 0x0.0p+0
0x1.147ae147ae147p+1 0x0.0p+0  0x1.eb851eb851ebap+1 0x0.0p+0
0x1.d0a3d70a3d70cp+2 0x0.0p+0  0x1.b000000000000p+3 0x0.0p+0
0x1.e600000000000p+4 0x0.0p+0  0x1.2600000000000p+6 0x0.0p+0
0x1.6b00000000000p+7 0x0.0p+0  0x1.b180000000000p+8 0x0.0p+0
0x1.d4c0000000000p+9 0x0.0p+0  0x1.7675c28f5c290p+10 0x0.0p+0
0x1.2c00000000000p+11 0x0.0p+0  0x1.6e36000000000p+22 0x0.0p+0
""",
    9: """
0x1.750d42a71cafcp-2 0x1.657184db22790p-2  0x1.750d42a71cafcp-2 0x1.657184db22790p-2
0x1.750d42a71cafcp-2 0x1.657184db22790p-2  0x1.750d42a71cafcp-2 0x1.657184db22790p-2
0x1.750d42a71cafcp-2 0x1.657184db22790p-2  0x1.750d42a71cafcp-2 0x1.657184db22790p-2
0x1.750d42a71cafcp-2 0x1.657184db22790p-2  0x1.750d42a71cafcp-2 0x1.657184db22790p-2
0x1.750d42a721766p-2 0x1.657184db22790p-2  0x1.7510a420f32e7p-2 0x1.656ada2f8fa6ep-2
0x1.84d33f49b363cp-2 0x1.57e19cd9c86d1p-2  0x1.48a393560a03ap-1 0x1.5c0b630adc5fbp-3
0x1.c000000000000p+0 0x0.0p+0  0x1.b70a3d70a3d6fp+1 0x0.0p+0
0x1.6ae147ae147aep+2 0x0.0p+0  0x1.c000000000000p+2 0x0.0p+0
0x1.ffffffffffffdp+2 0x0.0p+0  0x1.0000000000001p+3 0x0.0p+0
0x1.428f5c28f5c29p+3 0x0.0p+0  0x1.1eb851eb851ecp+4 0x0.0p+0
0x1.0f0a3d70a3d72p+5 0x0.0p+0  0x1.f800000000000p+5 0x0.0p+0
0x1.1b80000000000p+7 0x0.0p+0  0x1.5700000000000p+8 0x0.0p+0
0x1.a780000000000p+9 0x0.0p+0  0x1.f9c0000000000p+10 0x0.0p+0
0x1.1170000000000p+12 0x0.0p+0  0x1.b4deb851eb853p+12 0x0.0p+0
0x1.5e00000000000p+13 0x0.0p+0  0x1.ab3f000000000p+24 0x0.0p+0
""",
    20: """
0x1.c0f6dc9deeb96p-2 0x1.88121d8a142f1p+2  0x1.c0f6dc9deeb96p-2 0x1.88121d8a142f1p+2
0x1.c0f6dc9deeb96p-2 0x1.88121d8a142f1p+2  0x1.c0f6dc9deeb96p-2 0x1.88121d8a142f1p+2
0x1.c0f6dc9deeb96p-2 0x1.88121d8a142f1p+2  0x1.c0f6dc9deeb96p-2 0x1.88121d8a142f1p+2
0x1.c0f6dc9deeb96p-2 0x1.88121d8a142f1p+2  0x1.c0f6dc9deee64p-2 0x1.41b2f7506958cp-3
0x1.c0f877246affap-2 0x1.41b03b667c440p-3  0x1.cb3c6d6d23e05p-2 0x1.39f60a1058a19p-3
0x1.ec7ae147ae147p-1 0x0.0p+0  0x1.ec7ae147ae147p+1 0x0.0p+0
0x1.5600000000000p+3 0x0.0p+0  0x1.4f28f5c28f5c2p+4 0x0.0p+0
0x1.15051eb851eb9p+5 0x0.0p+0  0x1.5600000000000p+5 0x0.0p+0
0x1.86db6db6db6d9p+5 0x0.0p+0  0x1.86db6db6db6dcp+5 0x0.0p+0
0x1.ec7ae147ae147p+5 0x0.0p+0  0x1.b5c28f5c28f5dp+6 0x0.0p+0
0x1.9dd1eb851eb87p+7 0x0.0p+0  0x1.80c0000000000p+8 0x0.0p+0
0x1.b0d8000000000p+9 0x0.0p+0  0x1.05d8000000000p+11 0x0.0p+0
0x1.434c000000000p+12 0x0.0p+0  0x1.8216000000000p+13 0x0.0p+0
0x1.a17b000000000p+14 0x0.0p+0  0x1.4d80e147ae148p+15 0x0.0p+0
0x1.0b30000000000p+16 0x0.0p+0  0x1.4628180000000p+27 0x0.0p+0
""",
}


def test_maxima_keep_their_bits():
    batch = gamma_batch(list(_FROZEN), _FROZEN_YS)
    for family, table in _FROZEN.items():
        bits = [h for r in batch[family] for h in (r.value.hex(), r.argmax_x.hex())]
        assert bits == table.split(), family
    assert [hp_max.__wrapped__(p).hex() for p in (4, 5, 9)] == [
        '0x1.a827999fcef32p-1', '0x1.0b8ab04fbe3a5p+0', '0x1.750d42a71cafcp+0']
    cases = [(0.05, 1.0, 5.0), (0.3, 2.0, 10.0), (2.0, 1.0, 6.0), (1.0, 0.5, 30.0)]
    assert [gamma_H(*case).hex() for case in cases] == [
        '0x1.001df4106bc9dp+0', '0x1.a75d4d325061bp+1',
        '0x1.1ce22381bef6ep+11', '0x1.d449afd257f95p+33']


def test_only_h_takes_the_quarter_window_and_the_closed_form(monkeypatch):
    # 1 - 2 cos x + cos 2x = 2 cos x (cos x - 1): an m = 2 vector other than h,
    # <= 0 on (0, pi/2] and largest (4) at x = pi
    vector = ((0, 1), (1, -2), (2, 1))
    coefficients = lgqfi.kernels._coefficients
    monkeypatch.setattr(lgqfi.kernels, "_coefficients",
                        lambda family: vector if family == 7 else coefficients(family))
    # plans are cached per family list: family 7 must not reach a cached h_7 plan
    monkeypatch.setattr(lgqfi.kernels, "_batch_plan", lgqfi.kernels._batch_plan.__wrapped__)
    assert lgqfi.kernels._plan(vector)[1][-1] == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert lgqfi.kernels._plan(vector)[3] == f"the family with vector {vector}"
    assert [lgqfi.kernels._plan(coefficients(p))[3] for p in ("tilde", 3, 4)] == [
        "gamma_tilde", "gamma", "gamma_p with p = 4"]
    ys = [0.3, Y_CRIT, 2.0, 40.0]
    for r in gamma_batch(7, ys):
        assert r.method == "numeric"
        assert math.pi / 2.0 < r.argmax_x <= 2.0 * math.pi
        # at least the kernel's value at x = pi, never the closed form of h
        assert r.value >= (1.0 - 1e-12) / math.tanh(math.pi / r.y) ** 2
        assert r.value != r.y * r.y / 4.0
    assert [r.value for r in gamma_batch(3, ys)] == [gamma(y).value for y in ys]
