"""Certified lower bounds, report assembly, and the depth witness."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import (
    chained_gap_instance,
    random_ground_instance,
    random_thermal_instance,
    random_unit_observable,
)
from lgqfi.bounds import (
    MAX_SITES,
    THEOREM_TOL,
    best_bound,
    bound_Kp,
    bound_pure,
    bound_thermal,
    bound_thermal_time,
    bound_thermal_weak,
    bound_two_time,
    build_report,
    depth_witness,
    thermal_time,
)
from lgqfi.errors import InvariantViolation
from lgqfi.kernels import gamma, gamma_p, gamma_tilde
from lgqfi.linalg import Operator, hermitian_eig
from lgqfi.models import build_ghz_effective, build_qubit, build_tfim
from lgqfi.spectral import correlator, lgi_K, lgi_Kp, make_state, qfi, spectral_data


def _qubit_sd(eps=1.0, theta=0.9, beta=2.0):
    h, q = build_qubit(eps, theta)
    eig = hermitian_eig(h)
    state = make_state(eig, beta=beta)
    return spectral_data(eig, q, state)


# --------------------------------------------------------------------------
# individual bound formulas


def test_thermal_time_value():
    assert abs(thermal_time(3.0) - 3.0 * math.sqrt(2.0 / 7.0)) < 1e-15
    with pytest.raises(ValueError):
        thermal_time(math.inf)
    with pytest.raises(ValueError):
        thermal_time(0.0)


@pytest.mark.parametrize("call, name", [
    (lambda: bound_thermal(math.nan, 0.5, 1.0, 1.0), "k_value"),
    (lambda: bound_thermal(1.2, math.inf, 1.0, 1.0), "q2"),
    (lambda: bound_thermal_weak(math.nan, 1.0, 1.0), "k_value"),
    (lambda: bound_thermal_time(math.inf, 0.5, 1.0, 1.0), "k_value"),
    (lambda: bound_two_time(0.5, math.nan, 1.0, 2.0), "c_tau"),
    (lambda: bound_Kp(math.nan, 0.5, 4, 1.0, 1.0), "kp_value"),
    (lambda: bound_Kp(1.0, -math.inf, 4, 1.0, math.inf), "q2"),
    (lambda: bound_pure(math.inf, 0.5), "k_value"),
    (lambda: bound_pure(1.2, math.nan), "q2"),
], ids=["thermal-k", "thermal-q2", "weak-k", "thermal-time-k", "two-time-c", "kp-k",
        "kp-q2", "pure-k", "pure-q2"])
def test_bounds_reject_non_finite_measured_values(call, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call()


def test_bound_thermal_formula():
    sd = _qubit_sd()
    tau, beta = 0.7, 2.0
    k = lgi_K(sd, tau)
    expected = (k - sd.q2_expect) / gamma(2.0 * tau / beta).value
    assert bound_thermal(k, sd.q2_expect, tau, beta) == expected


def test_bound_thermal_zero_temperature_matches_pure():
    k, q2 = 1.3, 1.0
    assert bound_thermal(k, q2, 0.5, math.inf) == bound_pure(k, q2)


def test_bound_thermal_time_equals_thermal_at_scaled_time():
    sd = _qubit_sd(eps=1.2, theta=1.1, beta=1.7)
    beta = 1.7
    tau_th = thermal_time(beta)
    for z in (1.0, 1.5, 2.0, 3.7):
        tau = z * tau_th
        k = lgi_K(sd, tau)
        via_z = bound_thermal_time(k, sd.q2_expect, z, beta)
        via_gamma = bound_thermal(k, sd.q2_expect, tau, beta)
        assert abs(via_z - via_gamma) < 1e-12 * max(1.0, abs(via_gamma))


def test_bound_thermal_time_rejects_small_z():
    with pytest.raises(ValueError):
        bound_thermal_time(1.2, 1.0, 0.99, 2.0)


def test_bound_two_time_formula_and_nonnegativity():
    sd = _qubit_sd()
    tau, beta = 1.3, 2.0
    c = float(correlator(sd, tau))
    expected = (sd.q2_expect - c) / gamma_tilde(2.0 * tau / beta).value
    assert bound_two_time(sd.q2_expect, c, tau, beta) == expected
    rng = np.random.default_rng(77)
    for _ in range(20):
        inst = random_thermal_instance(rng, int(rng.integers(2, 6)), beta=1.0)
        tau = float(rng.uniform(0.05, 4.0))
        c = float(correlator(inst.sd, tau))
        assert bound_two_time(inst.sd.q2_expect, c, tau, 1.0) >= -1e-12


def test_bound_kp_three_is_thermal_bitwise():
    sd = _qubit_sd()
    tau, beta = 0.8, 2.0
    k = lgi_K(sd, tau)
    assert bound_Kp(k, sd.q2_expect, 3, tau, beta) == bound_thermal(
        k, sd.q2_expect, tau, beta)


def test_bound_kp_formula():
    sd = _qubit_sd()
    tau, beta, p = 0.6, 2.0, 5
    kp = lgi_Kp(sd, p, tau)
    expected = (kp - (p - 2) * sd.q2_expect) / gamma_p(p, 2.0 * tau / beta).value
    assert bound_Kp(kp, sd.q2_expect, p, tau, beta) == expected


def test_bound_kp_inverse_square_decay():
    # gamma_p >= y^2 (p-1)(p-2)/8 and K_p - (p-2)<Q^2> <= 2<Q^2> give
    # bound * (p-1)(p-2) <= 4 <Q^2> beta^2 / tau^2 uniformly in p
    sd = _qubit_sd(eps=1.0, theta=1.2, beta=2.0)
    tau, beta = 0.5, 2.0
    ceiling = 4.0 * sd.q2_expect * beta * beta / (tau * tau)
    for p in range(3, 13):
        value = bound_Kp(lgi_Kp(sd, p, tau), sd.q2_expect, p, tau, beta)
        assert value * (p - 1) * (p - 2) <= ceiling + 1e-9


def test_bounds_require_positive_tau_and_beta():
    with pytest.raises(ValueError):
        bound_thermal(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        bound_thermal(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        bound_two_time(1.0, 0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        bound_Kp(1.0, 1.0, 4, 1.0, -2.0)


# --------------------------------------------------------------------------
# depth witness


def test_depth_witness_reference_values():
    assert depth_witness(16.0, 4) == 4
    assert depth_witness(4.0, 4) is None
    assert depth_witness(3.9, 4) is None
    assert depth_witness(4.5, 4) == 2
    assert depth_witness(9.0, 4) == 3  # exceeds the 2-producible ceiling 8
    for n in range(2, 13):
        assert depth_witness(float(n * n), n) == n


def test_depth_witness_ceiling_structure():
    # N = 5: ceilings b(k) = floor(N/k) k^2 + r^2 are 5, 9, 13, 17 for k=1..4
    assert depth_witness(5.5, 5) == 2
    assert depth_witness(9.5, 5) == 3
    assert depth_witness(13.5, 5) == 4
    assert depth_witness(17.5, 5) == 5


def test_depth_witness_validation():
    with pytest.raises(ValueError):
        depth_witness(-1.0, 4)
    with pytest.raises(ValueError):
        depth_witness(4.0, 0)
    with pytest.raises(ValueError):
        depth_witness(4.0, True)
    with pytest.raises(ValueError, match="n must lie in"):
        depth_witness(4.0, MAX_SITES + 1)
    with pytest.raises(ValueError, match="collective_n must lie in"):
        best_bound(_qubit_sd(), [0.5], collective_n=10**400)


def test_depth_witness_matches_a_scan_over_every_k():
    # the largest exceeded ceiling over every k in [1, N-1], at each ceiling
    # (ties) and half a unit on either side of it
    for n in range(1, 301):
        ks = np.arange(1, n)
        ceilings = (n // ks) * ks * ks + (n % ks) ** 2
        fs = np.unique(np.concatenate([[0.0], ceilings, ceilings - 0.5, ceilings + 0.5]))
        for f, exceeded in zip(fs.tolist(), fs[:, None] > ceilings[None, :]):
            assert depth_witness(f, n) == (int(ks[exceeded].max()) + 1 if exceeded.any() else None)


def test_depth_witness_is_fast_at_a_trillion_sites():
    n, f = 10**12, 1.5e18
    start = time.perf_counter()
    depth = depth_witness(f, n)
    assert time.perf_counter() - start < 0.5
    k = depth - 1  # the largest k whose ceiling f exceeds
    assert f > (n // k) * k * k + (n % k) ** 2
    assert not f > (n // (k + 1)) * (k + 1) ** 2 + (n % (k + 1)) ** 2
    assert depth_witness(float(MAX_SITES) ** 2, MAX_SITES) == MAX_SITES


# --------------------------------------------------------------------------
# report assembly


def test_report_thermal_instance_chain():
    rng = np.random.default_rng(501)
    for _ in range(25):
        dim = int(rng.integers(2, 8))
        beta = float(rng.uniform(0.2, 8.0))
        inst = random_thermal_instance(rng, dim, beta)
        tau = float(rng.uniform(0.05, 4.0))
        report = build_report(inst.sd, tau)
        f_q = qfi(inst.sd)
        assert abs(report.f_q - f_q) < 1e-12
        for name, value in report.raw_lower.items():
            assert value <= f_q + 1e-9, name
            assert report.slack[name] >= -1e-9
        assert report.fsum is not None and report.fsum >= f_q - 1e-9
        assert report.lower_pure is None
        assert report.lower_thermal >= 0.0
        assert report.lower_two_time >= 0.0
        for name in report.uninformative:
            assert report.raw_lower[name] < 0.0


def test_report_pure_state_uses_zero_temperature_kernels():
    h, q = build_ghz_effective(6, 1.0, 1.0)
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, index=1))
    tau = math.pi / 3.0
    report = build_report(sd, tau, collective_n=6)
    assert report.lower_pure == 8.0 * (report.k_tau - report.q2_expect)
    assert report.lower_thermal == report.lower_pure  # gamma -> 1/8 exactly
    assert report.fsum is None
    assert report.beta is None
    assert report.tau_th is None
    assert report.depth == 6
    assert abs(report.lower_pure - 4.0) < 1e-10  # exact saturation


def test_report_ground_state_is_pure_like():
    h, q = build_tfim(4, 1.0, 0.6)
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, beta=math.inf))
    report = build_report(sd, 0.3)
    assert report.lower_pure is not None
    assert report.fsum is None
    assert report.beta == math.inf
    assert report.tau_th is None


def test_report_weak_bound_gated_by_q2():
    # an observable with <Q^2> > 1 invalidates the (K - 1) variant
    h = Operator(np.diag([0.0, 1.0, 2.5]))
    rng = np.random.default_rng(61)
    q = Operator(2.0 * random_unit_observable(rng, 3))
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, beta=1.0))
    assert sd.q2_expect > 1.0
    report = build_report(sd, 0.4)
    assert report.lower_thermal_weak is None
    assert "thermal_weak" not in report.raw_lower


def test_report_kp_selection():
    sd = _qubit_sd()
    report = build_report(sd, 0.5, kp=(4, 6))
    assert set(report.kp_values) == {4, 6}
    assert set(report.lower_kp) == {4, 6}


def test_report_rejects_nonpositive_tau():
    sd = _qubit_sd()
    with pytest.raises(ValueError):
        build_report(sd, 0.0)


# --------------------------------------------------------------------------
# grid scan


def test_best_bound_scan():
    sd = _qubit_sd(eps=1.0, theta=1.2, beta=2.0)
    grid = [0.2, 0.5, 0.8, 1.1, 1.4]
    best = best_bound(sd, grid)
    assert len(best.reports) == len(grid)
    scores = []
    for report in best.reports:
        candidates = [report.lower_thermal, report.lower_two_time,
                      report.lower_thermal_weak]
        candidates += list(report.lower_kp.values())
        scores.append(max(c for c in candidates if c is not None))
    assert best.value == max(scores)
    assert best.tau == grid[int(np.argmax(scores))]
    at_best = best.reports[grid.index(best.tau)]
    assert (best.family, best.value) in at_best.lowers()


def test_best_bound_family_ties_and_switches():
    # GHZ at omega tau = pi/3 saturates: pure, thermal, weak and K_3 all give 4.
    h, q = build_ghz_effective(6, 1.0, 1.0)
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, index=1))
    grid = [0.5, math.pi / 3.0, 1.5]
    best = best_bound(sd, grid)
    assert (best.family, best.tau) == ("pure", grid[1])
    assert abs(best.value - 4.0) < 1e-10
    off = {"pure": False}
    assert best_bound(sd, grid, families=off).family == "thermal"
    off.update(thermal=False, thermal_weak=False)
    assert best_bound(sd, grid, families=off).family == "kp_3"
    off.update(two_time=False)
    nothing = best_bound(sd, grid, kp=(), families=off)
    assert (nothing.family, nothing.value, nothing.tau) == ("none", -math.inf, grid[0])


def _grid_instances(rng):
    for _ in range(6):
        dim = int(rng.integers(2, 7))
        yield random_thermal_instance(rng, dim, float(rng.uniform(0.2, 6.0))).sd
        ground = random_ground_instance(rng, dim)
        yield ground.sd
        yield spectral_data(ground.eig, ground.q,
                            make_state(ground.eig, index=int(rng.integers(1, dim))))
        yield spectral_data(ground.eig, ground.q, make_state(ground.eig, beta=math.inf))


def test_grid_reports_match_single_point_reports():
    rng = np.random.default_rng(83)
    for sd in _grid_instances(rng):
        taus = sorted(float(t) for t in rng.uniform(0.01, 5.0, size=5))
        for kp in [(3, 4, 5), (6, 4)]:
            best = best_bound(sd, taus, kp=kp, collective_n=3)
            for tau, report in zip(taus, best.reports):
                single = build_report(sd, tau, kp=kp, collective_n=3)
                assert report == single
                # the shared correlators reproduce the spectral functions bit for bit
                assert report.c_tau == correlator(sd, tau)
                assert report.c_2tau == correlator(sd, 2.0 * tau)
                assert report.k_tau == lgi_K(sd, tau)
                assert report.kp_values == {p: lgi_Kp(sd, p, tau) for p in kp}
                assert report.f_q == qfi(sd)
                if sd.state.is_pure or sd.state.beta == math.inf:
                    # one rule: the pure column is the thermal column at beta = inf
                    pure = 8.0 * (report.k_tau - report.q2_expect)
                    assert report.raw_lower["pure"] == report.raw_lower["thermal"] == pure


def test_best_bound_empty_grid():
    sd = _qubit_sd()
    with pytest.raises(ValueError):
        best_bound(sd, [])


# each family's allowance sum_{k>0} |a_k| merge_error(k tau), written out
_MERGE_ALLOWANCE = {
    "thermal": lambda e, tau: 2.0 * e(tau) + e(2.0 * tau),
    "two_time": lambda e, tau: e(tau),
    "kp_4": lambda e, tau: 3.0 * e(tau) + e(3.0 * tau),
}


@pytest.mark.parametrize("name", list(_MERGE_ALLOWANCE))
@pytest.mark.parametrize("slope_in_tol, raises", [(3.0, False), (0.5, True)])
def test_violation_check_allows_the_line_merge_error(monkeypatch, name, slope_in_tol, raises):
    # C is a line sum, so a family's numerator is known only to within its
    # allowance of the level-pair value; a bound that exceeds F_Q at the line
    # value but not everywhere in that range is not a violation.
    import lgqfi.bounds

    sd = chained_gap_instance(np.random.default_rng(84), 0.7).sd
    tau = 60.0
    allowance = _MERGE_ALLOWANCE[name](sd.merge_error, tau)
    assert allowance > 10.0 * THEOREM_TOL
    f_q = qfi(sd)
    slope = slope_in_tol * THEOREM_TOL / allowance
    lowers, line = lgqfi.bounds._lowers, {}

    def fake(columns, partial, maxima, i):
        # the first call takes the line sums, the floor call the lowered ones
        raw = lowers(columns, partial, maxima, i)
        family = columns[name][0]
        line.setdefault(family, partial[family])
        raw[name] = f_q + 2.0 * THEOREM_TOL + slope * (partial[family] - line[family])
        return raw

    monkeypatch.setattr(lgqfi.bounds, "_lowers", fake)
    if raises:
        with pytest.raises(InvariantViolation, match=f"'{name}'"):
            best_bound(sd, [tau], kp=(3, 4))
    else:
        assert best_bound(sd, [tau], kp=(3, 4)).reports[0].raw_lower[name] > f_q


def test_best_bound_never_exceeds_qfi():
    rng = np.random.default_rng(71)
    for _ in range(10):
        inst = random_thermal_instance(rng, int(rng.integers(2, 6)),
                                       float(rng.uniform(0.3, 5.0)))
        best = best_bound(inst.sd, [0.1, 0.4, 0.9, 1.6])
        assert best.value <= qfi(inst.sd) + 1e-9
