"""Acceptance gate: one test per headline guarantee, with timing budgets.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible in plain
``pytest -v`` runs) naming the criterion and its wall-clock time; stated
runtime budgets are enforced as assertions.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_ground_instance, random_thermal_instance
from lgqfi.bounds import bound_two_time, build_report, depth_witness
from lgqfi.kernels import R_kernel, Y_CRIT, gamma
from lgqfi.linalg import Operator, hermitian_eig
from lgqfi.models import (
    build_collective,
    build_ghz,
    build_ghz_effective,
    build_qubit,
    build_tfim,
    ghz_state,
)
from lgqfi.protocols import (
    MeterConfig,
    ProtocolEstimate,
    ProtocolInstance,
    lgi_from_protocol,
    macrorealist_oracle,
    projective_joint,
    projective_mc,
    symmetrized_correlator,
    weak_two_meter,
)
from lgqfi.response import (
    holevo,
    holevo_bound,
    m2_commutator,
    m2_moment,
    qfi_response,
)
from lgqfi.spectral import (
    correlator,
    f_terms,
    kappa_terms,
    lgi_K,
    make_state,
    qfi,
    qfi_pure,
    spectral_data,
)


@contextmanager
def criterion(capsys, number, description, budget=None):
    start = time.perf_counter()
    passed = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, over its {budget}s budget"
            )
        passed = True
    finally:
        elapsed = time.perf_counter() - start
        tag = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[{tag}] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_universal_kernel(capsys):
    with criterion(capsys, 1, "universal kernel closed form and limits", budget=5.0):
        for y in np.linspace(Y_CRIT, 10.0, 50):
            y = float(y)
            assert abs(gamma(y).value - y * y / 4.0) <= 1e-9
        assert abs(gamma(1e-6).value - 0.125) <= 1e-4
        closed_at_crit = Y_CRIT * Y_CRIT / 4.0
        # just below y_c, gamma takes its numeric branch
        assert abs(gamma(Y_CRIT * (1.0 - 1e-12)).value - closed_at_crit) <= 1e-7


def test_criterion_2_qubit_exact_identity(capsys):
    with criterion(capsys, 2, "thermal qubit exact identity on a 10x10x10 grid",
                   budget=5.0):
        theta = 0.9
        for eps in np.linspace(0.5, 3.0, 10):
            eps = float(eps)
            h, q = build_qubit(eps, theta)
            eig = hermitian_eig(h)
            for beta in np.linspace(0.5, 5.0, 10):
                beta = float(beta)
                sd = spectral_data(eig, q, make_state(eig, beta=beta))
                f_q = qfi(sd)
                for tau in np.linspace(0.1, 3.0, 10):
                    tau = float(tau)
                    lhs = f_q * float(R_kernel(eps * tau, 2.0 * tau / beta))
                    rhs = lgi_K(sd, tau) - 1.0
                    assert abs(lhs - rhs) <= 1e-10


def test_criterion_3_random_bound_chain(capsys):
    with criterion(capsys, 3, "bound chain on 500 random thermal instances",
                   budget=60.0):
        rng = np.random.default_rng(20250811)
        families = {"thermal", "thermal_weak", "two_time", "kp_3", "kp_4", "kp_5"}
        for _ in range(500):
            dim = int(rng.integers(2, 9))
            beta = float(rng.uniform(0.1, 10.0))
            tau = float(rng.uniform(0.01, 5.0))
            inst = random_thermal_instance(rng, dim, beta)
            report = build_report(inst.sd, tau)
            assert families <= set(report.raw_lower)
            assert report.fsum >= report.f_q - 1e-9
            for name, value in report.raw_lower.items():
                assert report.f_q - value >= -1e-9, name
            gamma_value = gamma(2.0 * tau / beta).value
            kappa = kappa_terms(inst.sd, tau)
            f_pair = f_terms(inst.sd)
            assert np.all(kappa <= gamma_value * f_pair + 1e-12)


def test_criterion_4_ghz_saturation(capsys):
    with criterion(capsys, 4, "GHZ saturation, Heisenberg scaling, depth witness"):
        omega = 1.0
        h, q = build_ghz_effective(8, 1.0, omega)
        eig = hermitian_eig(h)
        sd = spectral_data(eig, q, make_state(eig, index=1))
        tau_star = math.pi / (3.0 * omega)
        k_star = lgi_K(sd, tau_star)
        f_q = qfi(sd)
        assert abs(k_star - 1.5) <= 1e-12
        assert abs(f_q - 4.0) <= 1e-10
        assert abs(f_q - 8.0 * (k_star - 1.0)) <= 1e-10

        for n in range(2, 13):
            f_tilde = qfi_pure(ghz_state(n), build_collective(n)[1])
            assert abs(f_tilde - n * n) <= 1e-10
            assert depth_witness(f_tilde, n) == n

        tau_pi = math.pi / omega
        two_time = bound_two_time(sd.q2_expect, float(correlator(sd, tau_pi)),
                                  tau_pi, math.inf)
        assert abs(two_time - 4.0) <= 1e-10

        for n in (2, 3, 4):
            h_full, q_full = build_ghz(n, 1.0, omega)
            h_eff, q_eff = build_ghz_effective(n, 1.0, omega)
            eig_eff = hermitian_eig(h_eff)
            sd_eff = spectral_data(eig_eff, q_eff, make_state(eig_eff, index=1))
            inst = ProtocolInstance(hermitian_eig(h_full), q_full, ghz_state(n, +1))
            for tau in np.linspace(0.2, 6.0, 7):
                tau = float(tau)
                c_full = symmetrized_correlator(inst, 0.0, tau)
                assert abs(c_full - float(correlator(sd_eff, tau))) <= 1e-10


def test_criterion_5_tfim_curvature(capsys):
    with criterion(capsys, 5, "transverse-field chain curvature and moments",
                   budget=30.0):
        h_field = 0.5
        target = 4.0 * h_field**2
        h, q = build_tfim(8, 1.0, h_field)
        eig = hermitian_eig(h)
        sd = spectral_data(eig, q, make_state(eig, beta=math.inf))
        assert abs(qfi(sd) - 4.0) <= 1e-9
        tau = 0.02
        curvature = (lgi_K(sd, tau) - 1.0) / (tau * tau)
        assert abs(curvature - target) / target < 0.01
        assert abs(m2_moment(sd) - target) <= 1e-9
        assert abs(m2_commutator(h, q, eig.basis[:, 0]) - target) <= 1e-9


def test_criterion_6_response_identity(capsys):
    with criterion(capsys, 6, "response-function identity and sign convention"):
        rng = np.random.default_rng(20250812)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            beta = float(rng.uniform(0.1, 10.0))
            inst = random_thermal_instance(rng, dim, beta)
            assert abs(qfi_response(inst.sd) - qfi(inst.sd)) <= 1e-10
        for _ in range(50):
            inst = random_ground_instance(rng, int(rng.integers(2, 9)))
            assert m2_moment(inst.sd) > 0.0


def test_criterion_7_protocol_equivalence(capsys):
    with criterion(capsys, 7, "measurement protocols reproduce the spectral "
                              "correlator"):
        cases = [
            (build_qubit(1.1, 0.8), 2.0),
            (build_tfim(3, 1.0, 0.6), 1.0),
            (build_ghz_effective(5, 1.0, 0.9), 1.5),
        ]
        for (h, q), beta in cases:
            eig = hermitian_eig(h)
            state = make_state(eig, beta=beta)
            sd = spectral_data(eig, q, state)
            rho = (eig.basis * state.weights) @ eig.basis.conj().T
            inst = ProtocolInstance(eig, q, rho)
            for tau in (0.3, 1.1):
                joint = projective_joint(inst, 0.0, tau)
                assert abs(joint.correlator() - float(correlator(sd, tau))) <= 1e-10

        h, q = build_qubit(1.2, 0.8)
        eig = hermitian_eig(h)
        state = make_state(eig, beta=1.5)
        rho = (eig.basis * state.weights) @ eig.basis.conj().T
        est = projective_mc(ProtocolInstance(eig, q, rho), 0.0, 0.9,
                            shots=100_000, seed=2025)
        assert est.stderr < 5e-3
        assert abs(est.value - est.exact_ref) <= 5.0 * est.stderr

        rng = np.random.default_rng(20250813)
        base = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h3 = Operator(0.5 * (base + base.conj().T))
        q3 = Operator(np.diag([1.0, 0.0, -1.0]))
        eig3 = hermitian_eig(h3)
        state3 = make_state(eig3, beta=1.0)
        rho3 = (eig3.basis * state3.weights) @ eig3.basis.conj().T
        inst3 = ProtocolInstance(eig3, q3, rho3)
        tau = 0.7
        ideal = symmetrized_correlator(inst3, 0.0, tau)
        ratios = []
        for width in (1e-1, 1e-2, 1e-3):
            (est,) = weak_two_meter(inst3, tau, [MeterConfig(1.0, width)])
            ratios.append(abs(est.value - ideal) / width**2)
        assert ratios[0] > 0.0
        assert max(ratios) / min(ratios) < 1.05


def test_criterion_8_macrorealist_oracle(capsys):
    with criterion(capsys, 8, "macrorealist oracle and quantum violation"):
        rng = np.random.default_rng(20250814)
        outcomes = np.array([1.0, -1.0])
        tables = rng.dirichlet(np.ones(8), size=10_000)
        for flat in tables:
            k_value, satisfied = macrorealist_oracle(
                flat.reshape(2, 2, 2), outcomes, outcomes, outcomes)
            assert satisfied and k_value <= 1.0 + 1e-12

        h, q = build_ghz_effective(6, 1.0, 1.0)
        eig = hermitian_eig(h)
        inst = ProtocolInstance(eig, q, eig.basis[:, 1])
        tau = math.pi / 3.0

        def exact(t1, t2):
            joint = projective_joint(inst, t1, t2)
            value = joint.correlator()
            return ProtocolEstimate(value=value, stderr=0.0, shots=0,
                                    exact_ref=value, seed=None, times=(t1, t2))

        chain = lgi_from_protocol(exact(0.0, tau), exact(tau, 2 * tau),
                                  exact(0.0, 2 * tau))
        assert abs(chain.value - 1.5) <= 1e-12
        assert chain.value > 1.0 + 1e-12  # violates the macrorealist ceiling


def test_criterion_9_holevo_contrast(capsys):
    with criterion(capsys, 9, "Holevo contrast family and bandwidth-capped bound"):
        ratios = []
        for eps in (1.0, 2.0, 4.0, 8.0):
            h, q = build_qubit(eps, math.pi / 2.0)
            eig = hermitian_eig(h)
            sd = spectral_data(eig, q, make_state(eig, beta=1.0))
            tau = math.pi / (3.0 * eps)
            excess = lgi_K(sd, tau) - sd.q2_expect
            assert abs(excess - 0.5) <= 1e-12
            ratios.append(holevo(sd) / excess)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

        rng = np.random.default_rng(20250815)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            beta = float(rng.uniform(0.3, 5.0))
            inst = random_thermal_instance(rng, dim, beta)
            tau = float(rng.uniform(0.1, 2.0))
            omega_star = float(inst.sd.delta[-1]) if inst.sd.delta.shape[0] > 1 else 1.0
            hb = holevo_bound(inst.sd, tau, omega_star,
                              lgi_K(inst.sd, tau), inst.sd.q2_expect)
            assert hb.applicable
            assert holevo(inst.sd) >= hb.lower - 1e-9
