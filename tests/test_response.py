"""Transition lines, state classification, response QFI, moments, Holevo weight."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (
    random_ground_instance,
    random_hermitian,
    random_thermal_instance,
    random_unit_observable,
)
from lgqfi.kernels import h_kernel
from lgqfi.linalg import Operator, hermitian_eig
from lgqfi.models import build_qubit, build_tfim
from lgqfi.response import (
    export_spectrum,
    fsum_upper,
    gamma_H,
    holevo,
    holevo_bound,
    m2_commutator,
    m2_moment,
    mn_gapped_lower,
    mn_moment,
    qfi_response,
)
from lgqfi.spectral import lgi_K, make_state, qfi, spectral_data


def _qubit_spectrum(eps=1.0, theta=0.9, *, beta=None, index=None):
    h, q = build_qubit(eps, theta)
    eig = hermitian_eig(h)
    return spectral_data(eig, q, make_state(eig, beta=beta, index=index))


# --------------------------------------------------------------------------
# spectrum construction


def test_spectrum_layout():
    sd = _qubit_spectrum(beta=2.0)
    assert sd.delta[0] == 0.0
    assert sd.w_chi[0] == 0.0
    assert np.all(np.diff(sd.delta) > 0)
    assert not sd.delta.flags.writeable
    assert sd.gibbs_beta == 2.0 and not sd.ground


def test_qubit_ground_sigma_x_single_line():
    eps = 1.7
    sd = _qubit_spectrum(eps, math.pi / 2.0, index=0)
    assert sd.delta.shape[0] == 2
    assert abs(sd.delta[1] - eps) < 1e-12
    assert abs(sd.w_chi[1] + math.pi) < 1e-12
    assert abs(sd.w_s[1] - 1.0) < 1e-12
    assert abs(sd.w_s[0]) < 1e-12  # probe axis has no diagonal weight
    assert sd.ground and sd.gibbs_beta == math.inf
    assert abs(sd.delta_ir - eps) < 1e-12


def test_commuting_observable_all_weight_on_zero_line():
    h = Operator(np.diag([0.0, 0.5, 1.3]))
    q = Operator(np.diag([1.0, -1.0, 0.25]))
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, beta=1.0))
    # positive-frequency lines exist for each level pair but carry no weight
    assert np.all(sd.w_s[1:] == 0.0)
    assert np.all(sd.w_chi[1:] == 0.0)
    assert sd.delta_ir == 0.0
    assert abs(sd.w_s[0] - sd.q2_expect) < 1e-12


def test_near_uniform_weights_suppress_w_chi():
    rng = np.random.default_rng(5)
    h = Operator(random_hermitian(rng, 4))
    q = Operator(random_unit_observable(rng, 4))
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, beta=1e-12))
    assert np.max(np.abs(sd.w_chi)) < 1e-10


def test_degenerate_levels_merge_onto_zero_and_shared_lines():
    rng = np.random.default_rng(11)
    h = Operator(np.diag([1.0, 1.0, 2.0]))
    q = Operator(random_unit_observable(rng, 3))
    eig = hermitian_eig(h)
    state = make_state(eig, beta=1.5)
    sd = spectral_data(eig, q, state)
    # one zero line plus a single merged line at Delta = 1 shared by both
    # transitions out of the degenerate manifold
    assert sd.delta.shape[0] == 2
    assert abs(sd.delta[1] - 1.0) < 1e-12
    p = state.weights
    el = np.abs(sd.elements) ** 2
    zero = p[0] * el[0, 0] + p[1] * el[1, 1] + p[2] * el[2, 2]
    zero += (p[0] + p[1]) * el[0, 1]
    assert abs(sd.w_s[0] - zero) < 1e-14
    assert abs(sd.w_s[1] - (p[0] * el[0, 2] + p[1] * el[1, 2])) < 1e-14
    expected_chi = -math.pi * ((p[0] - p[2]) * el[0, 2] + (p[1] - p[2]) * el[1, 2])
    assert abs(sd.w_chi[1] - expected_chi) < 1e-14


def test_degenerate_ground_manifold_is_not_thermal():
    rng = np.random.default_rng(13)
    h = Operator(np.diag([1.0, 1.0, 2.0]))
    q = Operator(random_unit_observable(rng, 3))
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, index=0))
    assert sd.ground and sd.gibbs_beta is None
    assert abs(sd.delta_ir - 1.0) < 1e-12


def test_excited_pure_state_is_neither_thermal_nor_ground():
    sd = _qubit_spectrum(index=1)
    assert sd.gibbs_beta is None and not sd.ground
    with pytest.raises(ValueError):
        qfi_response(sd)
    with pytest.raises(ValueError):
        fsum_upper(sd)
    with pytest.raises(ValueError):
        holevo(sd)


# --------------------------------------------------------------------------
# response QFI and f-sum


def test_qfi_response_matches_spectral_qfi():
    rng = np.random.default_rng(97)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        beta = float(rng.uniform(0.1, 10.0))
        inst = random_thermal_instance(rng, dim, beta)
        sd = inst.sd
        assert abs(qfi_response(sd) - qfi(sd)) < 1e-10


def test_qfi_response_zero_temperature():
    rng = np.random.default_rng(99)
    inst = random_thermal_instance(rng, 5, math.inf)
    sd = inst.sd
    assert sd.gibbs_beta == math.inf and sd.ground
    assert abs(qfi_response(sd) - qfi(sd)) < 1e-10


def test_fsum_dominates_qfi():
    rng = np.random.default_rng(101)
    for _ in range(20):
        inst = random_thermal_instance(rng, int(rng.integers(2, 7)),
                                       float(rng.uniform(0.2, 6.0)))
        sd = inst.sd
        assert fsum_upper(sd) >= qfi_response(sd) - 1e-12


def test_fsum_qubit_closed_form():
    eps, theta, beta = 1.3, 0.8, 2.4
    sd = _qubit_spectrum(eps, theta, beta=beta)
    expected = 2.0 * beta * eps * math.tanh(0.5 * beta * eps) * math.sin(theta) ** 2
    assert abs(fsum_upper(sd) - expected) < 1e-12


def test_fsum_diverges_at_zero_temperature():
    sd = _qubit_spectrum(beta=math.inf)
    assert fsum_upper(sd) == math.inf


# --------------------------------------------------------------------------
# zero-temperature moments


def test_m2_requires_ground_state():
    sd = _qubit_spectrum(beta=2.0)
    with pytest.raises(ValueError):
        m2_moment(sd)


def test_tfim_m2_equals_4h_squared_both_paths():
    n, j, h_field = 4, 1.0, 0.7
    h_op, q_op = build_tfim(n, j, h_field)
    eig = hermitian_eig(h_op)
    sd = spectral_data(eig, q_op, make_state(eig, beta=math.inf))
    target = 4.0 * h_field**2
    assert abs(m2_moment(sd) - target) < 1e-9
    ground = eig.basis[:, 0]
    assert abs(m2_commutator(h_op, q_op, ground) - target) < 1e-12


def test_tfim_commutator_m2_is_state_independent():
    # [H, sigma^z_site] = 2ih sigma^y_site, whose square is 4h^2 * identity
    h_op, q_op = build_tfim(3, 0.9, 0.45)
    rng = np.random.default_rng(17)
    for _ in range(5):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        assert abs(m2_commutator(h_op, q_op, psi) - 4.0 * 0.45**2) < 1e-12


def test_m2_paths_agree_on_random_ground_instances():
    rng = np.random.default_rng(103)
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        inst = random_ground_instance(rng, dim)
        sd = inst.sd
        ground = inst.eig.basis[:, 0]
        assert abs(m2_moment(sd) - m2_commutator(inst.h, inst.q, ground)) < 1e-10


def test_m2_commutator_density_matrix_and_validation():
    h_op, q_op = build_tfim(3, 1.0, 0.5)
    rho = np.eye(8) / 8.0
    assert abs(m2_commutator(h_op, q_op, rho) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        m2_commutator(h_op, q_op, np.zeros(5))
    with pytest.raises(ValueError):
        m2_commutator(h_op, q_op, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        m2_commutator(h_op, Operator(np.eye(2)), np.zeros(2))


def test_qubit_moments_are_gap_powers():
    eps = 1.9
    sd = _qubit_spectrum(eps, math.pi / 2.0, index=0)
    assert abs(m2_moment(sd) - eps**2) < 1e-12
    for order in (2, 3, 4, 6):
        value = mn_moment(sd, order)
        assert abs(value - eps**order) < 1e-10
        # single line: the gap bound is saturated
        assert abs(mn_gapped_lower(sd, order) - value) < 1e-10


def test_mn_moment_validation():
    sd = _qubit_spectrum(index=0)
    with pytest.raises(ValueError):
        mn_moment(sd, 1)
    with pytest.raises(ValueError):
        mn_moment(sd, 2.5)
    with pytest.raises(ValueError):
        mn_moment(sd, True)


def test_mn_gapped_lower_none_when_gapless():
    h = Operator(np.diag([0.0, 1.0]))
    q = Operator(np.diag([1.0, -1.0]))
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, index=0))
    assert sd.delta_ir == 0.0
    assert mn_gapped_lower(sd, 4) is None


def test_mn_gap_bound_dominated_by_moment():
    rng = np.random.default_rng(107)
    for _ in range(10):
        inst = random_ground_instance(rng, int(rng.integers(2, 7)))
        sd = inst.sd
        lower = mn_gapped_lower(sd, 4)
        if lower is not None:
            assert mn_moment(sd, 4) >= lower - 1e-10


def test_short_time_curvature_bounded_by_m2():
    # h(x) = 2 cos(x) (1 - cos(x)) <= x^2, so [K - <Q^2>] / tau^2 <= M_2
    rng = np.random.default_rng(109)
    for _ in range(8):
        inst = random_ground_instance(rng, int(rng.integers(2, 7)))
        sd = inst.sd
        m2 = m2_moment(sd)
        for tau in (0.02, 0.1, 0.5, 1.0, 2.0):
            excess = lgi_K(sd, tau) - sd.q2_expect
            assert excess / tau**2 <= m2 + 1e-9


# --------------------------------------------------------------------------
# Holevo weight and its correlation bound


def test_holevo_qubit_closed_form():
    eps, theta, beta = 1.2, 0.7, 1.8
    sd = _qubit_spectrum(eps, theta, beta=beta)
    z = beta * eps
    expected = math.cos(theta) ** 2 + math.sin(theta) ** 2 * z / (2.0 * math.sinh(z))
    assert abs(holevo(sd) - expected) < 1e-12
    assert abs(holevo(sd, include_zero=False)
               - math.sin(theta) ** 2 * z / (2.0 * math.sinh(z))) < 1e-12


def test_holevo_zero_temperature_keeps_only_zero_line():
    sd = _qubit_spectrum(1.0, 0.6, beta=math.inf)
    assert holevo(sd) == sd.w_s[0]
    assert holevo(sd, include_zero=False) == 0.0


def test_holevo_commuting_observable_is_q2():
    h = Operator(np.diag([0.0, 0.5, 1.3]))
    q = Operator(np.diag([1.0, -1.0, 0.25]))
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, beta=0.9))
    assert abs(holevo(sd) - sd.q2_expect) < 1e-12


def test_gamma_h_validation():
    with pytest.raises(ValueError):
        gamma_H(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_H(math.inf, 1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_H(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_H(1.0, 1.0, -1.0)


def test_gamma_h_large_omega_tau_not_underestimated():
    # omega_star * tau = 2e4 spans about 3,200 periods of h(omega tau); a
    # probe grid that does not grow with it falls below one probe per lobe
    # and misses the peak by 0.56 %.  The envelope (1 + e^-z)(e^z - 1)/z
    # grows with omega, so the maximum lies in the last period
    # [omega_star - 2 pi / tau, omega_star], which a dense reference
    # resolves to about 1e-8 relative.
    beta, tau, omega_star = 1.0, 2000.0, 10.0
    omega = np.linspace(omega_star - 2.0 * math.pi / tau, omega_star, 200_001)
    z = beta * omega
    ref = float(np.max((1.0 + np.exp(-z)) * np.maximum(h_kernel(omega * tau), 0.0)
                       * np.expm1(z) / z))
    value = gamma_H(beta, tau, omega_star)
    assert value >= ref * (1.0 - 1e-9)
    assert value <= ref * (1.0 + 1e-6)


def test_gamma_h_probe_cap_fails_before_allocating(monkeypatch):
    def no_probes(*args, **kwargs):
        raise AssertionError("probe array built")

    monkeypatch.setattr(np, "linspace", no_probes)
    with pytest.raises(ValueError, match=r"omega_star \* tau = 1e\+07"):
        gamma_H(1.0, 1e6, 10.0)


def test_gamma_h_overflow_raises():
    # e^(beta omega) overflows past beta * omega_star ~ 709.78: the maximum
    # came out inf (a Holevo bound of 0) or, where the overflowing probes
    # were nan, a finite value below the true maximum
    with pytest.raises(ValueError, match=r"beta \* omega_star = 1000"):
        gamma_H(1.0, 1.0, 1000.0)
    with pytest.raises(ValueError, match=r"beta \* omega_star = 800"):
        gamma_H(2.0, 1.0, 400.0)
    assert math.isfinite(gamma_H(1.0, 1.0, 709.0))


def test_holevo_bound_dominated_on_random_instances():
    rng = np.random.default_rng(113)
    for _ in range(15):
        dim = int(rng.integers(2, 7))
        beta = float(rng.uniform(0.3, 5.0))
        inst = random_thermal_instance(rng, dim, beta)
        sd = inst.sd
        tau = float(rng.uniform(0.1, 2.0))
        omega_star = float(sd.delta[-1]) if sd.delta.shape[0] > 1 else 1.0
        hb = holevo_bound(sd, tau, omega_star, lgi_K(sd, tau), sd.q2_expect)
        assert hb.applicable
        assert holevo(sd) >= hb.lower - 1e-9


def test_holevo_bound_inapplicable_below_top_line():
    sd = _qubit_spectrum(2.0, 0.9, beta=1.0)
    hb = holevo_bound(sd, 0.5, 1.0, lgi_K(sd, 0.5), sd.q2_expect)
    assert not hb.applicable
    assert math.isnan(hb.gamma_h) and math.isnan(hb.lower)


def test_holevo_bound_rejects_zero_temperature():
    sd = _qubit_spectrum(beta=math.inf)
    with pytest.raises(ValueError):
        holevo_bound(sd, 0.5, 2.0, lgi_K(sd, 0.5), sd.q2_expect)


def test_holevo_contrast_family():
    # fixed correlation excess, Holevo weight shrinking as z / sinh(z)
    ratios = []
    for eps in (1.0, 2.0, 4.0, 8.0):
        sd = _qubit_spectrum(eps, math.pi / 2.0, beta=1.0)
        tau = math.pi / (3.0 * eps)
        excess = lgi_K(sd, tau) - sd.q2_expect
        assert abs(excess - 0.5) < 1e-12
        ratio = holevo(sd) / excess
        assert abs(ratio - eps / math.sinh(eps)) < 1e-10
        ratios.append(ratio)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


# --------------------------------------------------------------------------
# export


def test_export_spectrum_roundtrip(tmp_path):
    rng = np.random.default_rng(127)
    inst = random_thermal_instance(rng, 4, 1.3)
    sd = inst.sd
    path = tmp_path / "lines.csv"
    export_spectrum(sd, str(path))
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert np.array_equal(data["delta"], sd.delta)
    assert np.array_equal(data["w_S"], sd.w_s)
    assert np.array_equal(data["w_chi"], sd.w_chi)
