"""Measurement protocols: projective, weak-meter, and readout statistics."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import gibbs_density, random_hermitian
from lgqfi.bounds import best_bound, bound_thermal_time, depth_witness
from lgqfi.errors import InvariantViolation
from lgqfi.linalg import Operator, hermitian_eig
from lgqfi.models import build_ghz, build_ghz_effective, build_qubit, build_tfim
from lgqfi.response import m2_commutator, mn_gapped_lower
from lgqfi import protocols
from lgqfi.protocols import (
    _MC_BLOCK,
    JointDistribution,
    MeterConfig,
    ProtocolEstimate,
    ProtocolInstance,
    cluster_eigenvalues,
    lgi_from_protocol,
    macrorealist_oracle,
    noisy_readout_correlator,
    projective_joint,
    projective_mc,
    symmetrized_correlator,
    weak_two_meter,
)
from lgqfi.spectral import StationaryState, correlator, make_state, qfi_pure, spectral_data


def _instance(h, q, rho):
    return ProtocolInstance(hermitian_eig(h), q, rho)


def _exact_estimate(inst, t1, t2):
    joint = projective_joint(inst, t1, t2)
    value = joint.correlator()
    return ProtocolEstimate(value=value, stderr=0.0, shots=0, exact_ref=value,
                            seed=None, times=joint.times)


# --------------------------------------------------------------------------
# outcome clustering and meter configuration


def test_cluster_eigenvalues():
    values = np.array([1.0, 1.0 + 1e-12, 2.0, 2.0, 3.5])
    outcomes, members = cluster_eigenvalues(values)
    assert np.allclose(outcomes, [1.0, 2.0, 3.5])
    assert [list(m) for m in members] == [[0, 1], [2, 3], [4]]


def test_meter_config_validation():
    MeterConfig(coupling=1.0, width=0.0)
    with pytest.raises(ValueError):
        MeterConfig(coupling=0.0, width=1.0)
    with pytest.raises(ValueError):
        MeterConfig(coupling=1.0, width=-0.1)


_PM1 = np.array([1.0, -1.0])
_NAN_TABLE = np.full((2, 2, 2), 0.125)
_NAN_TABLE[0, 0, 0] = math.nan


@pytest.mark.parametrize("call", [
    lambda: macrorealist_oracle(_NAN_TABLE, _PM1, _PM1, _PM1),
    lambda: macrorealist_oracle(np.full((2, 2, 2), 0.125), np.array([1.0, math.nan]), _PM1, _PM1),
    lambda: depth_witness(math.nan, 8),
    lambda: bound_thermal_time(1.2, 1.0, math.nan, 2.0),
    lambda: MeterConfig(1.0, math.nan),
    lambda: MeterConfig(1.0, math.inf),
    lambda: MeterConfig(math.inf, 1.0),
    lambda: noisy_readout_correlator(np.ones(4), np.ones(4), math.nan, seed=0),
    lambda: noisy_readout_correlator(np.ones(4), np.ones(4), math.inf, seed=0),
], ids=["oracle-probability", "oracle-outcome", "depth-witness", "thermal-time",
        "meter-width-nan", "meter-width-inf", "meter-coupling-inf", "readout-noise-nan",
        "readout-noise-inf"])
def test_argument_checks_reject_non_finite_inputs(call):
    with pytest.raises(ValueError):
        call()


_QUBIT = build_qubit(1.0, 0.7)
_QUBIT_EIG = hermitian_eig(_QUBIT[0])
_QUBIT_GROUND = spectral_data(_QUBIT_EIG, _QUBIT[1], make_state(_QUBIT_EIG, beta=math.inf))
_NAN_RHO = np.full((2, 2), math.nan)


@pytest.mark.parametrize("call, message", [
    (lambda: qfi_pure([math.nan, 0.0], _QUBIT[1]), "state vector norm nan"),
    (lambda: m2_commutator(*_QUBIT, [math.nan, 0.0]), "state vector norm nan"),
    (lambda: m2_commutator(*_QUBIT, [2.0, 0.0]), "state vector norm 2.0"),
    (lambda: m2_commutator(*_QUBIT, _NAN_RHO), "density matrix is not Hermitian"),
    (lambda: m2_commutator(*_QUBIT, np.eye(2)), "density matrix trace 2.0"),
    (lambda: ProtocolInstance(_QUBIT_EIG, _QUBIT[1], [math.nan, 0.0]), "state vector norm nan"),
    (lambda: ProtocolInstance(_QUBIT_EIG, _QUBIT[1], _NAN_RHO), "density matrix is not Hermitian"),
], ids=["qfi-pure-nan", "m2-nan", "m2-norm-2", "m2-nan-matrix", "m2-trace-2",
        "instance-nan", "instance-nan-matrix"])
def test_state_arguments_are_validated(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: depth_witness(5.0, 3.7), "n must be an integer, got 3.7"),
    (lambda: depth_witness(5.0, math.inf), "n must be an integer, got inf"),
    (lambda: depth_witness(4.0, 4.0), "n must be an integer, got 4.0"),
    (lambda: mn_gapped_lower(_QUBIT_GROUND, 1), "moment order must be at least 2"),
    (lambda: mn_gapped_lower(_QUBIT_GROUND, 2.5), "moment order must be an integer"),
    (lambda: noisy_readout_correlator(np.ones(4), np.ones(4), 0.1, seed=1.5),
     "seed must be an integer"),
    (lambda: noisy_readout_correlator(np.ones(4), np.ones(4), 0.1, seed=-1),
     r"seed must lie in \[0, 18446744073709551615\]"),
    (lambda: build_tfim(3, 1.0, 0.5, site=1.5), "site must be an integer"),
    (lambda: best_bound(_QUBIT_GROUND, [0.5], kp=(3.5,)), "p must be an integer"),
], ids=["depth-n-fraction", "depth-n-inf", "depth-n-float", "gapped-order-1",
        "gapped-order-fraction", "readout-seed-fraction", "readout-seed-negative",
        "tfim-site-fraction", "best-bound-p-fraction"])
def test_integer_arguments_are_checked_not_truncated(call, message):
    with pytest.raises(ValueError, match=message):
        call()


_QUBIT_THERMAL = ProtocolInstance(_QUBIT_EIG, _QUBIT[1], make_state(_QUBIT_EIG, beta=1.0))


@pytest.mark.parametrize("call, name", [
    (lambda: projective_joint(_QUBIT_THERMAL, math.nan, 1.0), "t1"),
    (lambda: projective_joint(_QUBIT_THERMAL, 0.0, math.inf), "t2"),
    (lambda: projective_mc(_QUBIT_THERMAL, 0.0, math.nan, 10, 0), "t2"),
    (lambda: symmetrized_correlator(_QUBIT_THERMAL, math.nan, 1.0), "t1"),
    (lambda: symmetrized_correlator(_QUBIT_THERMAL, 0.0, -math.inf), "t2"),
    (lambda: weak_two_meter(_QUBIT_THERMAL, math.nan, [MeterConfig(1.0, 0.5)]), "tau"),
], ids=["joint-t1", "joint-t2", "mc-t2", "symmetrized-t1", "symmetrized-t2", "weak-tau"])
def test_protocol_times_must_be_finite(call, name):
    # a user error: ValueError, not the InvariantViolation of an internal bug
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call()


# --------------------------------------------------------------------------
# projective protocol


@pytest.mark.parametrize("case", ["qubit", "tfim", "ghz"])
def test_projective_correlator_matches_spectral(case):
    if case == "qubit":
        h, q = build_qubit(1.1, 0.8)
        beta = 2.0
    elif case == "tfim":
        h, q = build_tfim(3, 1.0, 0.6)
        beta = 1.0
    else:
        h, q = build_ghz_effective(5, 1.0, 0.9)
        beta = 1.5
    eig = hermitian_eig(h)
    state = make_state(eig, beta=beta)
    sd = spectral_data(eig, q, state)
    inst = ProtocolInstance(eig, q, gibbs_density(h.matrix, beta))
    for tau in (0.3, 1.1, 2.7):
        joint = projective_joint(inst, 0.0, tau)
        assert np.all(joint.probs >= 0.0)
        assert abs(joint.probs.sum() - 1.0) < 1e-12
        assert abs(joint.correlator() - float(correlator(sd, tau))) < 1e-10


def test_projective_stationarity():
    h, q = build_qubit(1.3, 0.7)
    inst = _instance(h, q, gibbs_density(h.matrix, 1.4))
    tau = 0.9
    a = projective_joint(inst, 0.0, tau).correlator()
    b = projective_joint(inst, 0.7, 0.7 + tau).correlator()
    assert abs(a - b) < 1e-12


def test_projective_matches_symmetrized_for_dichotomic():
    h, q = build_tfim(3, 0.8, 0.5)
    inst = _instance(h, q, gibbs_density(h.matrix, 0.7))
    for tau in (0.4, 1.6):
        assert abs(projective_joint(inst, 0.0, tau).correlator()
                   - symmetrized_correlator(inst, 0.0, tau)) < 1e-10


def test_projective_accepts_state_vector():
    h, q = build_qubit(1.0, 0.9)
    eig = hermitian_eig(h)
    psi = eig.basis[:, 0]
    joint = projective_joint(ProtocolInstance(eig, q, psi), 0.0, 0.5)
    assert abs(joint.probs.sum() - 1.0) < 1e-12


def test_projective_state_validation():
    h, q = build_qubit(1.0, 0.9)
    eig = hermitian_eig(h)
    with pytest.raises(ValueError):
        ProtocolInstance(eig, q, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        ProtocolInstance(eig, q, np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        ProtocolInstance(eig, q, np.diag([2.0, -1.0]))
    with pytest.raises(ValueError):
        ProtocolInstance(eig, q, np.eye(3) / 3.0)


@pytest.mark.parametrize("kind", ["thermal", "pure"])
def test_stationary_state_matches_dense_density_matrix(kind):
    rng = np.random.default_rng(17)
    h = Operator(random_hermitian(rng, 5))
    q = Operator(random_hermitian(rng, 5))  # not dichotomic: the meters matter
    eig = hermitian_eig(h)
    state = make_state(eig, beta=1.3) if kind == "thermal" else make_state(eig, index=2)
    from_state = ProtocolInstance(eig, q, state)
    dense = ProtocolInstance(eig, q, (eig.basis * state.weights) @ eig.basis.conj().T)
    # the stationary instance reads the state's blocks from rho_w, the dense one multiplies
    np.testing.assert_array_equal(from_state.weights, state.weights)
    assert dense.weights is None
    for t1, t2 in ((0.2, 1.1), (0.0, 0.9)):  # t1 = 0 reuses the dense instance's rho_ov
        np.testing.assert_allclose(projective_joint(from_state, t1, t2).probs,
                                   projective_joint(dense, t1, t2).probs, rtol=0.0, atol=1e-12)
    # rho(t) = rho: the stationary joint depends on the gap alone, bit for bit, and the
    # instance holds no dense H-basis state
    assert from_state.rho_h is None and from_state.rho_ov is None
    for t, gap in ((0.9, 0.9), (0.25, 1.5)):  # gaps t2 - t1 that are exact in floats
        assert (t + gap) - t == gap
        np.testing.assert_array_equal(projective_joint(from_state, t, t + gap).probs,
                                      projective_joint(from_state, 0.0, gap).probs)
    assert abs(symmetrized_correlator(from_state, 0.3, 1.4)
               - symmetrized_correlator(dense, 0.3, 1.4)) < 1e-12
    # on the weights it keeps the bits of the products with the dense diagonal rho
    rho_h = np.diag(state.weights.astype(np.complex128))
    q1, q2 = (ph.conj()[:, None] * from_state.q_h * ph
              for ph in (np.exp(-1j * eig.energies * t) for t in (0.3, 1.4)))
    assert symmetrized_correlator(from_state, 0.3, 1.4) == float(
        0.5 * np.sum((rho_h @ q1 + q1 @ rho_h) * q2.T).real)
    meters = [MeterConfig(1.0, 0.5), MeterConfig(1.0, 0.05)]
    for a, b in zip(weak_two_meter(from_state, 0.8, meters), weak_two_meter(dense, 0.8, meters)):
        assert abs(a.value - b.value) < 1e-12 and abs(a.exact_ref - b.exact_ref) < 1e-12
        # the zero-width reference is the symmetrized correlator, on either instance
        for inst, est in ((from_state, a), (dense, b)):
            assert abs(est.exact_ref - symmetrized_correlator(inst, 0.0, 0.8)) < 1e-12


@pytest.mark.parametrize("q", ["diagonal", "ghz_blocks", "dense", "shuffled_blocks"])
def test_overlap_is_built_block_by_block(q):
    # V^+ W one block of Q's eigensystem at a time.  Where the dense product adds
    # only exact zeros to one term (1 x 1 blocks) or is the same product (one
    # block), it has the same bits; a block of k >= 2 sums its k terms in an order
    # the dense product need not share, so it agrees within rounding there
    rng = np.random.default_rng(3)
    h, q_op = build_tfim(8, 1.0, 0.7)
    if q == "ghz_blocks":
        q_op = build_ghz(8, 1.0, 0.3)[0]
    elif q == "dense":
        q_op = Operator(random_hermitian(rng, 256))
    elif q == "shuffled_blocks":  # 3 x 3 blocks on shuffled indices, one 1 x 1
        m, groups = np.zeros((256, 256), dtype=complex), rng.permutation(256)
        for idx in np.split(groups, range(3, 256, 3)):
            m[np.ix_(idx, idx)] = random_hermitian(rng, idx.size)
        q_op = Operator(m)
    eig, q_eig = hermitian_eig(h), hermitian_eig(q_op)
    inst = ProtocolInstance(eig, q_op, make_state(eig, beta=1.0))
    dense = eig.basis.conj().T @ q_eig.basis
    if q in ("diagonal", "dense"):
        np.testing.assert_array_equal(inst.overlap, dense)
    else:
        np.testing.assert_allclose(inst.overlap, dense, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("weights", [[0.5, 0.5, 0.0], [1.2, -0.2], [0.5, 0.4999], [np.nan, 1.0],
                                     [[0.5, 0.5]]])
def test_stationary_state_weights_validation(weights):
    h, q = build_qubit(1.0, 0.9)
    state = StationaryState(kind="thermal", weights=np.array(weights), beta=1.0)
    with pytest.raises(ValueError, match="stationary weights"):
        ProtocolInstance(hermitian_eig(h), q, state)


def test_projective_rejects_reversed_times():
    h, q = build_qubit(1.0, 0.9)
    inst = _instance(h, q, gibbs_density(h.matrix, 1.0))
    with pytest.raises(ValueError):
        projective_joint(inst, 1.0, 0.5)


def test_projective_mc_reproducible_and_gated():
    h, q = build_qubit(1.2, 0.8)
    inst = _instance(h, q, gibbs_density(h.matrix, 1.5))
    est1 = projective_mc(inst, 0.0, 0.9, shots=20_000, seed=42)
    est2 = projective_mc(inst, 0.0, 0.9, shots=20_000, seed=42)
    assert est1.value == est2.value and est1.stderr == est2.stderr
    est3 = projective_mc(inst, 0.0, 0.9, shots=20_000, seed=43)
    assert est3.value != est1.value
    assert est1.within_gate is True
    assert est1.stderr > 0.0
    assert abs(est1.value - est1.exact_ref) <= 5.0 * est1.stderr



def _rotated(op: Operator, seed: int = 19) -> Operator:
    """``D op D^dag`` with ``D = diag(e^{i phi_k})``: complex, and unitarily equivalent."""
    d = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, op.dim))
    return Operator(d[:, None] * op.matrix * d.conj())


@pytest.mark.parametrize("case", ["tfim6-thermal", "ghz-protocol"])
def test_real_and_complex_paths_agree_on_a_rotated_instance(case):
    # a real-valued instance runs in float64, its rotated copy in complex128: the same physics
    if case == "tfim6-thermal":  # a diagonal Q commutes with D
        (h, q), state, tau = build_tfim(6, 1.0, 0.7), {"beta": 1.3}, 0.8
    else:  # docs/examples/ghz-protocol.json
        (h, q), state, tau = build_ghz_effective(6, 1.0, 1.0), {"index": 1}, math.pi / 3
    meters = [MeterConfig(1.0, width) for width in (0.1, 0.01)]
    results = []
    for pair, dtype in (((h, q), np.float64), ((_rotated(h), _rotated(q)), np.complex128)):
        eig = hermitian_eig(pair[0])
        inst = ProtocolInstance(eig, pair[1], make_state(eig, **state))
        assert inst.overlap.dtype == inst.rho_w.dtype == dtype
        mc = projective_mc(inst, 0.0, tau, 100_000, 7)
        results.append([*projective_joint(inst, 0.0, 2.0 * tau).probs.ravel(), mc.value,
                        mc.stderr, *(e.value for e in weak_two_meter(inst, tau, meters)),
                        symmetrized_correlator(inst, 0.3, 0.3 + tau)])
    np.testing.assert_allclose(results[1], results[0], rtol=0.0, atol=1e-12)

def test_projective_mc_blocks_match_one_draw_in_one_float_per_shot():
    # the draws come block by block and are tallied per outcome pair, so the
    # memory is a few blocks at any shot count; value and stderr keep the bits
    # of one shot-sized draw with np.mean and np.std (products of +-1 here)
    h, q = build_qubit(1.2, 0.8)
    inst = _instance(h, q, gibbs_density(h.matrix, 1.5))
    shots = 300_001
    tracemalloc.start()
    try:
        est = projective_mc(inst, 0.0, 0.9, shots=shots, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * _MC_BLOCK < 8 * shots

    joint = projective_joint(inst, 0.0, 0.9)
    cdf = np.cumsum(joint.probs.ravel())
    cdf[-1] = 1.0
    draws = np.random.Generator(np.random.Philox(key=42)).random(shots)
    products = np.outer(joint.outcomes, joint.outcomes).ravel()
    samples = products[np.searchsorted(cdf, draws, side="right")]
    assert est.value == float(samples.mean())
    assert est.stderr == float(samples.std(ddof=1) / math.sqrt(shots))


class _KeepDiff:
    """numpy, keeping every array np.diff returns: projective_mc's shots per bin."""

    def __init__(self):
        self.kept = []

    def __getattr__(self, name):
        return getattr(np, name)

    def diff(self, *args, **kwargs):
        self.kept.append(np.diff(*args, **kwargs))
        return self.kept[-1]


@pytest.mark.parametrize("shots", [1, _MC_BLOCK, 3 * _MC_BLOCK + 17])
@pytest.mark.parametrize("k", [1, 4, 81])
def test_projective_mc_sorted_blocks_count_as_binning_each_draw(monkeypatch, k, shots):
    draws = np.random.Generator(np.random.Philox(key=11)).random(shots)
    m, probs = math.isqrt(k), np.ones(1)
    if k > 1:  # a cdf edge equal to the first draw, zero-probability bins (the
        # last two among them) and edges just above 1 before the last is clamped
        probs = np.random.default_rng(k).random(k)
        probs[2::3] = probs[-2:] = 0.0
        probs[1:] *= (1.0 - draws[0]) / probs[1:].sum()
        probs[0] = draws[0]
        probs[1] += 1e-15
    joint = JointDistribution(outcomes=np.linspace(-1.0, 1.0, m), probs=probs.reshape(m, m),
                              times=(0.0, 1.0))
    cdf = np.cumsum(probs)
    assert k == 1 or cdf[-2] > 1.0
    cdf[-1] = 1.0
    keep = _KeepDiff()
    monkeypatch.setattr(protocols, "projective_joint", lambda inst, t1, t2: joint)
    monkeypatch.setattr(protocols, "np", keep)
    projective_mc(_QUBIT_THERMAL, 0.0, 1.0, shots, seed=11)

    (counts,) = keep.kept
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(
        counts, np.bincount(np.searchsorted(cdf, draws, side="right"), minlength=k))


def test_projective_mc_validation():
    h, q = build_qubit(1.0, 0.9)
    inst = _instance(h, q, gibbs_density(h.matrix, 1.0))
    with pytest.raises(ValueError):
        projective_mc(inst, 0.0, 0.5, shots=0, seed=1)
    with pytest.raises(ValueError):
        projective_mc(inst, 0.0, 0.5, shots=10.5, seed=1)
    with pytest.raises(ValueError):
        projective_mc(inst, 0.0, 0.5, shots=True, seed=1)
    with pytest.raises(ValueError):
        projective_mc(inst, 0.0, 0.5, shots=10, seed=-1)
    with pytest.raises(ValueError):
        projective_mc(inst, 0.0, 0.5, shots=10, seed=2**64)


def test_single_shot_has_zero_stderr():
    h, q = build_qubit(1.0, 0.9)
    inst = _instance(h, q, gibbs_density(h.matrix, 1.0))
    est = projective_mc(inst, 0.0, 0.5, shots=1, seed=7)
    assert est.stderr == 0.0
    assert est.within_gate is None or est.within_gate in (True, False)


# --------------------------------------------------------------------------
# weak two-meter protocol


def test_weak_meter_exact_for_dichotomic():
    h, q = build_qubit(1.1, 0.7)
    inst = _instance(h, q, gibbs_density(h.matrix, 1.3))
    tau = 0.8
    reference = symmetrized_correlator(inst, 0.0, tau)
    for width in (0.1, 1.0, 10.0):
        (est,) = weak_two_meter(inst, tau, [MeterConfig(coupling=1.0, width=width)])
        assert abs(est.value - reference) < 1e-12
        assert abs(est.value - est.exact_ref) < 1e-12
        assert est.seed is None and est.within_gate is None


def test_weak_meter_quadratic_backaction_for_qutrit():
    rng = np.random.default_rng(23)
    h = Operator(random_hermitian(rng, 3))
    q = Operator(np.diag([1.0, 0.0, -1.0]))
    inst = _instance(h, q, gibbs_density(h.matrix, 1.0))
    tau = 0.7
    ideal = symmetrized_correlator(inst, 0.0, tau)
    ratios = []
    for width in (1e-1, 1e-2, 1e-3):
        (est,) = weak_two_meter(inst, tau, [MeterConfig(coupling=1.0, width=width)])
        ratios.append(abs(est.value - ideal) / width**2)
    assert ratios[0] > 0.0
    assert max(ratios) / min(ratios) < 1.05


def test_weak_meter_zero_width_is_ideal():
    rng = np.random.default_rng(29)
    h = Operator(random_hermitian(rng, 3))
    q = Operator(np.diag([1.0, 0.0, -1.0]))
    inst = _instance(h, q, gibbs_density(h.matrix, 0.8))
    (est,) = weak_two_meter(inst, 0.5, [MeterConfig(coupling=2.0, width=0.0)])
    assert abs(est.value - est.exact_ref) < 1e-12



def test_weak_meter_widths_share_one_pass():
    rng = np.random.default_rng(31)
    h = Operator(random_hermitian(rng, 4))
    q = Operator(np.diag([1.0, 0.5, 0.0, -1.0]))
    inst = _instance(h, q, gibbs_density(h.matrix, 0.9))
    meters = [MeterConfig(coupling=1.3, width=w) for w in (0.0, 0.05, 0.4, 2.0)]
    together = weak_two_meter(inst, 0.6, meters)
    assert len(together) == len(meters)
    for meter, est in zip(meters, together):
        assert est == weak_two_meter(inst, 0.6, [meter])[0]
    assert weak_two_meter(inst, 0.6, []) == ()

# --------------------------------------------------------------------------
# eigenbasis arithmetic against the lab-frame formulas


def _random_density(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _random_unitary(rng, dim):
    return np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]


def _lab_frame_reference(h, q, rho, t1, t2, meter):
    """Dense lab-frame formulas: U = V e^{-iEt} V^+ and full outcome projectors."""
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    h_eig, q_eig = hermitian_eig(h), hermitian_eig(q)

    def u(t):
        return (h_eig.basis * np.exp(-1j * h_eig.energies * t)) @ h_eig.basis.conj().T

    def heisenberg(t):
        return u(t).conj().T @ q.matrix @ u(t)

    _, members = cluster_eigenvalues(q_eig.energies)
    projectors = [q_eig.basis[:, idx] @ q_eig.basis[:, idx].conj().T for idx in members]
    rho_t1, u_gap = u(t1) @ rho @ u(-t1), u(t2 - t1)
    probs = np.array([[np.trace(p_b @ u_gap @ p_a @ rho_t1 @ p_a @ u_gap.conj().T).real
                       for p_b in projectors] for p_a in projectors])
    q1, q2 = heisenberg(t1), heisenberg(t2)
    symmetrized = 0.5 * np.trace(rho @ (q1 @ q2 + q2 @ q1)).real

    w, qvals = q_eig.basis, q_eig.energies
    q_tau_w = w.conj().T @ heisenberg(t2) @ w
    gap = qvals[:, None] - qvals[None, :]
    damping = np.exp(-0.5 * (meter.coupling * meter.width * gap) ** 2)
    weak = np.sum(q_tau_w * (w.conj().T @ rho @ w).T
                  * 0.5 * (qvals[:, None] + qvals[None, :]) * damping).real
    return probs, symmetrized, weak


@pytest.mark.parametrize("case", ["mixed", "superposition", "ghz_collective",
                                  "degenerate_h"])
def test_eigenbasis_protocols_match_lab_frame(case):
    rng = np.random.default_rng(31)
    if case == "mixed":
        h = Operator(random_hermitian(rng, 6))
        q = Operator(random_hermitian(rng, 6))
        rho = _random_density(rng, 6)
    elif case == "superposition":
        h, q = build_tfim(3, 1.0, 0.7)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        rho = psi / np.linalg.norm(psi)
    elif case == "ghz_collective":
        h, q = build_ghz(4, 1.0, 0.7)
        rho = _random_density(rng, 16)
    else:
        rot = _random_unitary(rng, 6)
        h = Operator((rot * np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.5])) @ rot.conj().T)
        q = Operator(np.diag([1.0, 1.0, 0.0, 0.0, -1.0, -1.0]).astype(complex))
        rho = _random_density(rng, 6)
    inst = _instance(h, q, rho)
    if case == "ghz_collective":
        assert [len(m) for m in inst.members] == [1, 4, 6, 4, 1]
    if case == "degenerate_h":
        assert np.ptp(inst.h_eig.energies[2:5]) < 1e-12
    meter = MeterConfig(coupling=1.3, width=0.4)
    for t1, t2 in ((0.0, 0.8), (0.45, 1.7), (1.2, 1.2)):
        probs, symmetrized, weak = _lab_frame_reference(h, q, rho, t1, t2, meter)
        assert np.max(np.abs(projective_joint(inst, t1, t2).probs - probs)) <= 1e-12
        assert abs(symmetrized_correlator(inst, t1, t2) - symmetrized) <= 1e-12
        assert abs(weak_two_meter(inst, t2, [meter])[0].value - weak) <= 1e-12


# --------------------------------------------------------------------------
# three-time combination


def test_lgi_chain_exact_ghz():
    h, q = build_ghz_effective(6, 1.0, 1.0)
    eig = hermitian_eig(h)
    inst = ProtocolInstance(eig, q, eig.basis[:, 1])
    tau = math.pi / 3.0  # Omega tau = pi/3
    e12 = _exact_estimate(inst, 0.0, tau)
    e23 = _exact_estimate(inst, tau, 2.0 * tau)
    e13 = _exact_estimate(inst, 0.0, 2.0 * tau)
    chain = lgi_from_protocol(e12, e23, e13)
    assert abs(chain.value - 1.5) < 1e-12
    assert chain.stderr == 0.0
    assert chain.times == (0.0, 2.0 * tau)


def test_lgi_chain_quadrature_stderr():
    h, q = build_qubit(1.0, 0.9)
    inst = _instance(h, q, gibbs_density(h.matrix, 1.2))
    tau = 0.6
    e12 = projective_mc(inst, 0.0, tau, shots=5_000, seed=11)
    e23 = projective_mc(inst, tau, 2 * tau, shots=5_000, seed=12)
    e13 = projective_mc(inst, 0.0, 2 * tau, shots=5_000, seed=13)
    chain = lgi_from_protocol(e12, e23, e13)
    expected = math.sqrt(e12.stderr**2 + e23.stderr**2 + e13.stderr**2)
    assert abs(chain.stderr - expected) < 1e-15
    assert chain.seed is None  # seeds differ
    assert chain.shots == 15_000


def test_lgi_chain_spacing_validation():
    h, q = build_qubit(1.0, 0.9)
    inst = _instance(h, q, gibbs_density(h.matrix, 1.0))
    e12 = _exact_estimate(inst, 0.0, 0.5)
    e23_bad = _exact_estimate(inst, 0.5, 1.2)
    e13 = _exact_estimate(inst, 0.0, 1.0)
    with pytest.raises(ValueError):
        lgi_from_protocol(e12, e23_bad, e13)
    e23 = _exact_estimate(inst, 0.5, 1.0)
    e13_bad = _exact_estimate(inst, 0.0, 1.1)
    with pytest.raises(ValueError):
        lgi_from_protocol(e12, e23, e13_bad)


# --------------------------------------------------------------------------
# macrorealist oracle


def test_macrorealist_tables_always_satisfy_bound():
    rng = np.random.default_rng(31)
    outcomes = np.array([1.0, -1.0])
    for _ in range(200):
        probs = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        k_value, satisfied = macrorealist_oracle(probs, outcomes, outcomes, outcomes)
        assert satisfied
        assert k_value <= 1.0 + 1e-12


def test_macrorealist_boundary_table():
    outcomes = np.array([1.0, -1.0])
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 1] = 1.0  # deterministic (+1, +1, -1) record
    k_value, satisfied = macrorealist_oracle(probs, outcomes, outcomes, outcomes)
    assert abs(k_value - 1.0) < 1e-15
    assert satisfied


def test_macrorealist_nonbinary_outcomes():
    rng = np.random.default_rng(37)
    o1 = np.array([1.0, 0.0, -1.0])
    o2 = np.array([0.5, -0.5])
    o3 = np.array([1.0, -1.0])
    for _ in range(50):
        probs = rng.dirichlet(np.ones(12)).reshape(3, 2, 2)
        k_value, satisfied = macrorealist_oracle(probs, o1, o2, o3)
        assert satisfied and k_value <= 1.0 + 1e-12


def test_macrorealist_validation():
    outcomes = np.array([1.0, -1.0])
    good = np.full((2, 2, 2), 0.125)
    with pytest.raises(ValueError):
        macrorealist_oracle(good[:1], outcomes, outcomes, outcomes)
    with pytest.raises(ValueError):
        macrorealist_oracle(good, np.array([2.0, -1.0]), outcomes, outcomes)
    bad_neg = good.copy()
    bad_neg[0, 0, 0] = -0.01
    bad_neg[1, 1, 1] += 0.26
    with pytest.raises(ValueError):
        macrorealist_oracle(bad_neg, outcomes, outcomes, outcomes)
    with pytest.raises(ValueError):
        macrorealist_oracle(good * 0.5, outcomes, outcomes, outcomes)


# --------------------------------------------------------------------------
# noisy readout


def test_noisy_readout_unbiased_with_independent_noise():
    rng = np.random.default_rng(41)
    shots = 50_000
    q0 = rng.choice([-1.0, 1.0], size=shots)
    qtau = np.where(rng.random(shots) < 0.8, q0, -q0)  # correlated records
    est = noisy_readout_correlator(q0, qtau, noise_variance=0.5, seed=1234)
    assert abs(est.exact_ref - float(np.mean(q0 * qtau))) < 1e-15
    assert abs(est.value - est.exact_ref) <= 5.0 * est.stderr


def test_noisy_readout_correlated_noise_bias():
    rng = np.random.default_rng(43)
    shots = 4_000
    q0 = rng.choice([-1.0, 1.0], size=shots)
    qtau = rng.choice([-1.0, 1.0], size=shots)
    xi = rng.normal(0.0, 0.7, size=shots)
    est = noisy_readout_correlator(q0, qtau, 0.49, seed=0, noise=(xi, xi))
    expected_bias = float(np.mean(xi * (q0 + qtau) + xi * xi))
    assert abs((est.value - est.exact_ref) - expected_bias) < 1e-12
    # the bias tracks the noise power, far outside the unbiased gate
    assert est.value - est.exact_ref > 0.3


def test_noisy_readout_validation():
    with pytest.raises(ValueError):
        noisy_readout_correlator(np.ones(10), np.ones(9), 0.1, seed=0)
    with pytest.raises(ValueError):
        noisy_readout_correlator(np.ones(10), np.ones(10), -0.1, seed=0)
    with pytest.raises(ValueError):
        noisy_readout_correlator(np.ones(1), np.ones(1), 0.1, seed=0)
    with pytest.raises(ValueError):
        noisy_readout_correlator(np.ones(10), np.ones(10), 0.1, seed=0,
                                 noise=(np.ones(9), np.ones(10)))


def test_protocol_instance_refuses_dims_above_the_dense_cap():
    # 2^13 levels solve in block form; the instance refuses them before any dense view
    h, q = build_ghz(13, 1.0, 0.5)
    eig = hermitian_eig(h)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dim 8192 is above 2\\^12 = 4096"):
            ProtocolInstance(eig, q, make_state(eig, beta=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("state", [{"pure": {"index": 1}}, {"thermal": {"beta": 0.7}}])
def test_protocol_run_puts_q_into_h_basis_once(tmp_path, capsys, monkeypatch, state):
    # the instance's q_h is the spectral data's elements: one V^+ Q V per run
    import json

    import lgqfi.cli
    import lgqfi.linalg
    import lgqfi.spectral

    eigen_rows, calls = lgqfi.linalg._eigen_rows, []

    def counting(*args):
        calls.append(1)
        return eigen_rows(*args)

    for module in (lgqfi.linalg, lgqfi.spectral):
        monkeypatch.setattr(module, "_eigen_rows", counting)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "tfim", "params": {"n": 4, "j": 1.0, "h": 0.7}}, "state": state,
        "protocol": {"tau": 0.6, "shots": 1000, "seed": 3, "widths": [0.1], "coupling": 1.0}}))
    assert lgqfi.cli.main(["protocol", "--config", str(cfg)]) == 0
    assert "projective_chain" in capsys.readouterr().out
    assert len(calls) == 1


def test_protocol_instance_reads_q_from_spectral_data():
    h, q = build_tfim(4, 1.0, 0.7)
    eig = hermitian_eig(h)
    state = make_state(eig, beta=0.7)
    sd = spectral_data(eig, q, state)
    inst = ProtocolInstance(eig, q, sd)
    assert inst.q_h is sd.elements
    np.testing.assert_array_equal(inst.q_h, ProtocolInstance(eig, q, state).q_h)
    np.testing.assert_array_equal(inst.weights, state.weights)
    with pytest.raises(ValueError, match="not built on this eigensystem"):
        ProtocolInstance(hermitian_eig(h), q, sd)
