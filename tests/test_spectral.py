"""Spectral engine: stationary states, correlators, LGI combinations, QFI."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    chained_gap_instance,
    gibbs_density,
    oracle_correlator,
    oracle_qfi_fidelity,
    random_hermitian,
    random_thermal_instance,
    random_unit_observable,
)
from lgqfi.errors import InvariantViolation
from lgqfi.bounds import best_bound
from lgqfi.linalg import Eigensystem, Operator, hermitian_eig
from lgqfi.models import build_collective, build_qubit, build_tfim, ghz_state
from lgqfi.response import fsum_upper
from lgqfi.spectral import (
    LINE_MERGE_TOL,
    _pair_correlator,
    correlator,
    f_terms,
    kappa_terms,
    lgi_K,
    lgi_Kp,
    make_state,
    qfi,
    qfi_pure,
    spectral_data,
)

# --------------------------------------------------------------------------
# stationary states


def test_thermal_weights_match_direct_gibbs():
    rng = np.random.default_rng(201)
    h = Operator(random_hermitian(rng, 5))
    eig = hermitian_eig(h)
    beta = 1.7
    state = make_state(eig, beta=beta)
    direct = np.exp(-beta * (eig.energies - eig.energies[0]))
    direct /= direct.sum()
    np.testing.assert_allclose(state.weights, direct, atol=1e-14)
    assert state.kind == "thermal"
    assert not state.is_pure


def test_zero_temperature_uniform_on_ground_manifold():
    eig = hermitian_eig(Operator(np.diag([0.0, 0.0, 1.0])))
    state = make_state(eig, beta=math.inf)
    np.testing.assert_allclose(state.weights, [0.5, 0.5, 0.0], atol=1e-15)


def test_pure_state_one_hot():
    eig = hermitian_eig(Operator(np.diag([0.0, 1.0, 2.0])))
    state = make_state(eig, index=2)
    np.testing.assert_allclose(state.weights, [0.0, 0.0, 1.0], atol=0)
    assert state.is_pure
    assert state.index == 2


def test_make_state_argument_validation():
    eig = hermitian_eig(Operator(np.diag([0.0, 1.0])))
    with pytest.raises(ValueError):
        make_state(eig)
    with pytest.raises(ValueError):
        make_state(eig, beta=1.0, index=0)
    with pytest.raises(ValueError):
        make_state(eig, beta=0.0)
    with pytest.raises(ValueError):
        make_state(eig, beta=-2.0)
    with pytest.raises(ValueError):
        make_state(eig, index=5)
    with pytest.raises(ValueError):
        make_state(eig, index=-1)


def test_state_weights_read_only():
    eig = hermitian_eig(Operator(np.diag([0.0, 1.0])))
    state = make_state(eig, beta=1.0)
    with pytest.raises(ValueError):
        state.weights[0] = 0.3


# --------------------------------------------------------------------------
# correlator


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_correlator_matches_expm_oracle(dim):
    rng = np.random.default_rng(300 + dim)
    inst = random_thermal_instance(rng, dim, beta=0.9)
    rho = gibbs_density(inst.h.matrix, 0.9)
    for tau in (0.2, 0.9, 2.7):
        spectral = float(correlator(inst.sd, tau))
        brute = oracle_correlator(inst.h.matrix, inst.q.matrix, rho, tau)
        assert abs(spectral - brute) < 1e-10


def test_correlator_initial_value_and_symmetry():
    rng = np.random.default_rng(17)
    inst = random_thermal_instance(rng, 4, beta=2.0)
    assert abs(float(correlator(inst.sd, 0.0)) - inst.sd.q2_expect) < 1e-12
    assert float(correlator(inst.sd, -1.3)) == float(correlator(inst.sd, 1.3))


def test_correlator_array_input():
    rng = np.random.default_rng(18)
    inst = random_thermal_instance(rng, 3, beta=1.0)
    taus = np.array([0.1, 0.5, 2.0])
    values = correlator(inst.sd, taus)
    assert values.shape == (3,)
    for k, tau in enumerate(taus):
        assert abs(values[k] - float(correlator(inst.sd, float(tau)))) < 1e-15


def test_correlator_bounded_by_q2():
    rng = np.random.default_rng(19)
    inst = random_thermal_instance(rng, 5, beta=3.0)
    taus = np.linspace(0.0, 10.0, 400)
    assert np.all(np.abs(correlator(inst.sd, taus)) <= inst.sd.q2_expect + 1e-12)


def test_correlator_rejects_overflowing_phase():
    h, q = build_qubit(1e300, 1.0)
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, beta=1.0))
    for tau in (1e10, [1e-10, 1e10]):
        with pytest.raises(ValueError, match=r"not finite at tau = 10000000000\.0"):
            correlator(sd, tau)


# --------------------------------------------------------------------------
# LGI combinations


def test_lgi_k_definition():
    rng = np.random.default_rng(21)
    inst = random_thermal_instance(rng, 4, beta=1.5)
    tau = 0.7
    expected = 2.0 * float(correlator(inst.sd, tau)) - float(correlator(inst.sd, 2 * tau))
    assert abs(lgi_K(inst.sd, tau) - expected) < 1e-14


def test_lgi_kp_three_is_k_bitwise():
    rng = np.random.default_rng(22)
    inst = random_thermal_instance(rng, 5, beta=0.6)
    for tau in (0.2, 1.1, 3.0):
        assert lgi_Kp(inst.sd, 3, tau) == lgi_K(inst.sd, tau)


def test_lgi_kp_definition_and_validation():
    rng = np.random.default_rng(23)
    inst = random_thermal_instance(rng, 3, beta=1.0)
    tau, p = 0.5, 5
    expected = (p - 1) * float(correlator(inst.sd, tau)) - float(
        correlator(inst.sd, (p - 1) * tau))
    assert abs(lgi_Kp(inst.sd, p, tau) - expected) < 1e-14
    with pytest.raises(ValueError):
        lgi_Kp(inst.sd, 2, tau)
    with pytest.raises(ValueError):
        lgi_Kp(inst.sd, 4.5, tau)  # type: ignore[arg-type]


def test_kappa_terms_sum_to_k_excess():
    rng = np.random.default_rng(24)
    inst = random_thermal_instance(rng, 6, beta=2.0)
    tau = 0.8
    terms = kappa_terms(inst.sd, tau)
    assert abs(terms.sum() - (lgi_K(inst.sd, tau) - inst.sd.q2_expect)) < 1e-12


# --------------------------------------------------------------------------
# transition lines


def _line_cases():
    """(label, SpectralData) for the line-versus-pair comparisons."""
    for n in (6, 7, 8, 9):
        h, q = build_tfim(n, 1.0, 0.7)
        eig = hermitian_eig(h)
        for beta in (1.3, math.inf):
            yield f"tfim{n}-beta{beta}", spectral_data(eig, q, make_state(eig, beta=beta))
    dense = random_thermal_instance(np.random.default_rng(61), 128, beta=0.8)
    yield "dense128", dense.sd
    for beta in (0.5, math.inf):
        yield f"chained-beta{beta}", chained_gap_instance(np.random.default_rng(62), beta).sd


def _loop_lines(sd):
    """The level-pair merge as a plain loop over Delta-sorted pairs."""
    e, p = sd.energies, sd.state.weights
    abs_sq = np.abs(sd.elements) ** 2
    zero_ws = float(np.sum(p * np.diag(abs_sq)))
    pairs = []
    for n in range(sd.dim):
        for m in range(n + 1, sd.dim):
            d, w = e[m] - e[n], abs_sq[n, m]
            if d <= LINE_MERGE_TOL:
                zero_ws += (p[n] + p[m]) * w
            else:
                pairs.append((d, p[n] * w, -math.pi * (p[n] - p[m]) * w))
    pairs.sort(key=lambda pair: pair[0])
    lines = [[0.0, zero_ws, 0.0]]
    group: list = []
    for pair in pairs + [None]:
        if group and (pair is None or pair[0] - group[-1][0] > LINE_MERGE_TOL):
            cols = np.array(group)
            lines.append([cols[:, 0].mean(), cols[:, 1].sum(), cols[:, 2].sum()])
            group = []
        if pair is not None:
            group.append(pair)
    return np.array(lines)


def test_line_correlator_within_merge_error_of_pair_sum():
    taus = [1e-3, 0.37, 2.0, 11.5, 140.0]
    for label, sd in _line_cases():
        weight = np.where(np.arange(sd.delta.shape[0]) == 0, sd.w_s,
                          2.0 * sd.w_s + sd.w_chi / math.pi)
        for tau, pair in zip(taus, _pair_correlator(sd, taus)):
            gap = abs(correlator(sd, tau) - pair)
            allowed = sd.line_span * tau * float(np.sum(np.abs(weight)))
            assert sd.merge_error(tau) == pytest.approx(allowed, rel=1e-12, abs=0.0)
            assert gap <= allowed + 1e-14, (label, tau, gap, allowed)
        if label.startswith("chained"):
            assert sd.line_span > 5.0 * LINE_MERGE_TOL


def test_vectorized_merge_matches_loop():
    for label, sd in _line_cases():
        if sd.dim > 256:
            continue
        loop = _loop_lines(sd)
        assert sd.delta.shape[0] == loop.shape[0], label
        for got, col in ((sd.delta, 0), (sd.w_s, 1), (sd.w_chi, 2)):
            np.testing.assert_allclose(got, loop[:, col], rtol=0.0, atol=1e-14,
                                       err_msg=label)


def test_spectral_data_holds_no_pair_arrays():
    sd = random_thermal_instance(np.random.default_rng(63), 16, beta=1.0).sd
    for field in dataclasses.fields(sd):
        value = getattr(sd, field.name)
        if field.name != "elements" and isinstance(value, np.ndarray):
            assert value.size < sd.dim ** 2, field.name
            assert not value.flags.writeable, field.name


def test_qubit_correlator_analytic():
    eps, theta, beta = 1.4, 0.8, 2.2
    h, q = build_qubit(eps, theta)
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, beta=beta))
    for tau in (0.3, 1.0, 2.5):
        expected = math.cos(theta) ** 2 + math.sin(theta) ** 2 * math.cos(eps * tau)
        assert abs(float(correlator(sd, tau)) - expected) < 1e-14


# --------------------------------------------------------------------------
# quantum Fisher information


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_qfi_matches_fidelity_oracle(dim):
    rng = np.random.default_rng(400 + dim)
    inst = random_thermal_instance(rng, dim, beta=1.2)
    rho = gibbs_density(inst.h.matrix, 1.2)
    oracle = oracle_qfi_fidelity(rho, inst.q.matrix)
    value = qfi(inst.sd)
    assert abs(value - oracle) <= 1e-4 * max(1.0, oracle)


def test_qfi_pure_state_consistency():
    rng = np.random.default_rng(31)
    h = Operator(random_hermitian(rng, 4))
    q = Operator(random_unit_observable(rng, 4))
    eig = hermitian_eig(h)
    sd = spectral_data(eig, q, make_state(eig, index=0))
    assert abs(qfi(sd) - qfi_pure(eig.basis[:, 0], q)) < 1e-10


def test_qfi_quadratic_scaling():
    rng = np.random.default_rng(32)
    inst = random_thermal_instance(rng, 4, beta=0.8)
    scaled_sd = spectral_data(inst.eig, Operator(0.5 * inst.q.matrix), inst.state)
    assert abs(qfi(scaled_sd) - 0.25 * qfi(inst.sd)) < 1e-12


def test_qfi_upper_bound_and_invariances():
    rng = np.random.default_rng(33)
    inst = random_thermal_instance(rng, 6, beta=2.5)
    assert qfi(inst.sd) <= 4.0 * inst.sd.q2_expect + 1e-9
    # energy shift leaves weights and matrix elements unchanged
    shifted = Operator(inst.h.matrix + 3.7 * np.eye(6))
    eig2 = hermitian_eig(shifted)
    sd2 = spectral_data(eig2, inst.q, make_state(eig2, beta=inst.beta))
    assert abs(qfi(sd2) - qfi(inst.sd)) < 1e-10


def test_qfi_zero_when_commuting():
    eig = hermitian_eig(Operator(np.diag([0.0, 1.0, 2.0])))
    q = Operator(np.diag([1.0, -1.0, 1.0]))
    sd = spectral_data(eig, q, make_state(eig, beta=1.0))
    assert qfi(sd) == 0.0


def test_f_terms_sum_and_floor():
    rng = np.random.default_rng(34)
    inst = random_thermal_instance(rng, 5, beta=1.0)
    terms = f_terms(inst.sd)
    assert abs(terms.sum() - qfi(inst.sd)) < 1e-12
    # a pure state zeroes every pair not involving the occupied level
    h = Operator(np.diag([0.0, 1.0, 2.0]))
    eig = hermitian_eig(h)
    q = Operator(random_unit_observable(rng, 3))
    sd = spectral_data(eig, q, make_state(eig, index=0))
    pure_terms = f_terms(sd)
    assert pure_terms[1, 2] == 0.0 and pure_terms[2, 1] == 0.0


def test_qfi_pure_ghz_heisenberg():
    n = 6
    _, q_tilde = build_collective(n)
    value = qfi_pure(ghz_state(n), q_tilde)
    assert abs(value - n * n) < 1e-10


def test_qfi_pure_norm_validation():
    with pytest.raises(ValueError):
        qfi_pure(np.array([1.0, 1.0]), Operator(np.eye(2)))


def test_spectral_data_dimension_mismatch():
    eig = hermitian_eig(Operator(np.diag([0.0, 1.0])))
    state = make_state(eig, beta=1.0)
    with pytest.raises(ValueError):
        spectral_data(eig, Operator(np.eye(3)), state)


def test_weight_mismatch_raises_invariant_violation():
    eig = hermitian_eig(Operator(np.diag([0.0, 1.0])))
    state = make_state(eig, beta=1.0)
    object.__setattr__(state, "weights", np.array([0.9, 0.3]))
    with pytest.raises(InvariantViolation):
        spectral_data(eig, Operator(np.eye(2) * 0.5), state)


def _permuted_block_hamiltonian(rng):
    """Random Hermitian blocks of sizes 1-4 on randomly permuted index groups, in block form."""
    sizes = rng.integers(1, 5, size=7)
    rows = np.split(rng.permutation(int(sizes.sum())), np.cumsum(sizes)[:-1])
    return Operator(blocks=[(np.array([r for r in rows if r.size == k]),
                             np.array([random_hermitian(rng, k) for r in rows if r.size == k]))
                            for k in np.unique(sizes)])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("diagonal_q", [True, False], ids=["diagonal-q", "dense-q"])
@pytest.mark.parametrize("state", [{"beta": 0.6}, {"beta": 4.0}, {"index": 0}, {"index": 3}],
                         ids=["beta0.6", "beta4", "pure0", "pure3"])
def test_block_form_matches_dense_eigensystem(seed, diagonal_q, state):
    rng = np.random.default_rng(900 + seed)
    h = _permuted_block_hamiltonian(rng)
    q = (Operator.from_diagonal(rng.uniform(-1.0, 1.0, h.dim)) if diagonal_q
         else Operator(random_unit_observable(rng, h.dim)))
    block = hermitian_eig(h)
    assert len(block.groups) > 1 or len(block.groups[0][0]) > 1
    dense = Eigensystem(*np.linalg.eigh(h.matrix))
    sds = [spectral_data(eig, q, make_state(eig, **state)) for eig in (block, dense)]
    close = dict(rel=1e-12, abs=1e-12)

    # the lines that carry weight; the dense ones also hold the pairs no block couples
    lines = []
    for sd in sds:
        keep = np.maximum(sd.w_s, np.abs(sd.w_chi)) > 1e-20
        keep[0] = True
        lines.append(np.stack([sd.delta, sd.w_s, sd.w_chi])[:, keep])
    assert lines[0].shape == lines[1].shape
    assert lines[0].ravel().tolist() == pytest.approx(lines[1].ravel().tolist(), **close)
    taus = np.array([0.05, 0.4, 1.3, 3.0, 7.5])
    for k in range(1, 5):
        assert correlator(sds[0], k * taus).tolist() == pytest.approx(
            correlator(sds[1], k * taus).tolist(), **close)
    assert qfi(sds[0]) == pytest.approx(qfi(sds[1]), **close)
    if "beta" in state:
        assert fsum_upper(sds[0]) == pytest.approx(fsum_upper(sds[1]), **close)
    best = [best_bound(sd, taus.tolist(), kp=(3, 4, 5)) for sd in sds]
    assert best[0].value == pytest.approx(best[1].value, **close)
    assert best[0].tau == best[1].tau
