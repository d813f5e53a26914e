"""Model builders against explicit Kronecker-product constructions."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import lgqfi.models
from lgqfi.linalg import hermitian_eig, operator_norm
from lgqfi.models import (
    MAX_SITES,
    MEMORY_CEILING,
    ModelSpec,
    build_collective,
    build_ghz,
    build_ghz_effective,
    build_model,
    build_qubit,
    build_tfim,
    ghz_reduction_residuals,
    ghz_state,
    load_custom,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def _site_op(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Operator acting on one site; site 1 is the most significant factor."""
    out = np.eye(1, dtype=complex)
    for a in range(1, n + 1):
        out = np.kron(out, op if a == site else ID2)
    return out


def _kron_tfim(n: int, j: float, h: float, periodic: bool) -> np.ndarray:
    ham = np.zeros((2**n, 2**n), dtype=complex)
    for a in range(1, n):
        ham -= j * _site_op(SZ, a, n) @ _site_op(SZ, a + 1, n)
    if periodic and n > 2:
        ham -= j * _site_op(SZ, n, n) @ _site_op(SZ, 1, n)
    for a in range(1, n + 1):
        ham -= h * _site_op(SX, a, n)
    return ham


def _kron_ghz(n: int, j: float, omega: float) -> np.ndarray:
    ham = np.zeros((2**n, 2**n), dtype=complex)
    for a in range(1, n):
        ham -= j * _site_op(SZ, a, n) @ _site_op(SZ, a + 1, n)
    flip = np.eye(1, dtype=complex)
    for _ in range(n):
        flip = np.kron(flip, SX)
    return ham + 0.5 * omega * flip


def _kron_collective(n: int) -> np.ndarray:
    total = np.zeros((2**n, 2**n), dtype=complex)
    for a in range(1, n + 1):
        total += _site_op(SZ, a, n)
    return total / n


# --------------------------------------------------------------------------
# qubit


def test_qubit_matrices():
    eps, theta = 1.7, 0.6
    h, q = build_qubit(eps, theta)
    np.testing.assert_allclose(h.matrix, 0.5 * eps * SZ, atol=1e-15)
    expected_q = math.sin(theta) * SX + math.cos(theta) * SZ
    np.testing.assert_allclose(q.matrix, expected_q, atol=1e-15)
    # dichotomic: Q^2 = 1
    np.testing.assert_allclose(q.matrix @ q.matrix, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("eps,theta", [(0.0, 0.5), (-1.0, 0.5), (1.0, -0.1),
                                       (1.0, math.pi + 0.1)])
def test_qubit_invalid_params(eps, theta):
    with pytest.raises(ValueError):
        build_qubit(eps, theta)


# --------------------------------------------------------------------------
# transverse-field chain


@pytest.mark.parametrize("n,boundary", [(2, "open"), (3, "open"),
                                        (3, "periodic"), (4, "periodic")])
def test_tfim_matches_kron(n, boundary):
    j, h = 1.3, 0.7
    ham, q = build_tfim(n, j, h, boundary=boundary)
    np.testing.assert_allclose(
        ham.matrix, _kron_tfim(n, j, h, boundary == "periodic"), atol=1e-13)
    site = (n + 1) // 2
    np.testing.assert_allclose(q.matrix, _site_op(SZ, site, n), atol=1e-15)


def test_tfim_two_site_ring_rejected():
    with pytest.raises(ValueError, match="two-site ring"):
        build_tfim(2, 1.0, 0.5, boundary="periodic")


def test_tfim_site_selection():
    _, q = build_tfim(3, 1.0, 0.5, site=1)
    np.testing.assert_allclose(q.matrix, _site_op(SZ, 1, 3), atol=1e-15)
    _, q = build_tfim(3, 1.0, 0.5, site=3)
    np.testing.assert_allclose(q.matrix, _site_op(SZ, 3, 3), atol=1e-15)


def test_tfim_zero_field_builder_ok():
    ham, _ = build_tfim(3, 1.0, 0.0)
    np.testing.assert_allclose(ham.matrix, _kron_tfim(3, 1.0, 0.0, False), atol=1e-13)


@pytest.mark.parametrize("kwargs", [
    dict(n=1, j=1.0, h=0.5),
    dict(n=MAX_SITES + 1, j=1.0, h=0.5),
    dict(n=4, j=0.0, h=0.5),
    dict(n=4, j=-1.0, h=0.5),
    dict(n=4, j=1.0, h=0.5, boundary="twisted"),
    dict(n=4, j=1.0, h=0.5, site=0),
    dict(n=4, j=1.0, h=0.5, site=5),
])
def test_tfim_invalid_params(kwargs):
    with pytest.raises(ValueError):
        build_tfim(**kwargs)


# --------------------------------------------------------------------------
# GHZ


@pytest.mark.parametrize("n", [2, 3])
def test_ghz_matches_kron(n):
    j, omega = 1.1, 0.3
    ham, q = build_ghz(n, j, omega)
    np.testing.assert_allclose(ham.matrix, _kron_ghz(n, j, omega), atol=1e-13)
    np.testing.assert_allclose(q.matrix, _kron_collective(n), atol=1e-15)


def test_ghz_builds_two_by_two_blocks_above_the_dense_cap():
    n = MAX_SITES + 2
    ham, q = build_ghz(n, 1.0, 0.4)
    ((rows, blocks),) = ham.groups
    assert rows.shape == (2 ** (n - 1), 2) and (rows.sum(axis=1) == 2 ** n - 1).all()
    assert (blocks[:, 0, 1] == 0.2).all() and (blocks[:, 0, 0] == blocks[:, 1, 1]).all()
    assert q.diagonal is not None and q.diagonal[0] == 1.0 and q.diagonal[-1] == -1.0
    eig = hermitian_eig(ham)
    assert eig.energies[0] == pytest.approx(-(n - 1) - 0.2, abs=1e-12)


def test_builders_refuse_chains_over_the_memory_ceiling():
    with pytest.raises(ValueError, match="above the memory ceiling") as info:
        build_ghz(24, 1.0, 0.4)
    assert f"{MEMORY_CEILING:.3g} bytes" in str(info.value)
    for build in (build_collective, ghz_state):
        with pytest.raises(ValueError, match="memory ceiling"):
            build(40)
    # the largest chains the estimate admits, checked without building them
    assert lgqfi.models._sites(MAX_SITES, dense=True) == MAX_SITES
    assert lgqfi.models._sites(23, dense=False) == 23


def test_ghz_effective_matrices():
    n, j, omega = 5, 1.2, 0.4
    ham, q = build_ghz_effective(n, j, omega)
    expected = -j * (n - 1) * np.eye(2) + 0.5 * omega * SZ
    np.testing.assert_allclose(ham.matrix, expected, atol=1e-15)
    np.testing.assert_allclose(q.matrix, SX, atol=1e-15)


def test_ghz_plus_is_exact_eigenstate():
    n, j, omega = 3, 1.0, 0.5
    ham, _ = build_ghz(n, j, omega)
    psi = ghz_state(n, +1)
    image = ham.matrix @ psi
    energy = -j * (n - 1) + 0.5 * omega
    assert np.max(np.abs(image - energy * psi)) < 1e-12
    psi_m = ghz_state(n, -1)
    image_m = ham.matrix @ psi_m
    assert np.max(np.abs(image_m - (-j * (n - 1) - 0.5 * omega) * psi_m)) < 1e-12


def test_ghz_state_structure():
    psi = ghz_state(4)
    assert psi.shape == (16,)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
    assert abs(psi[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(psi[-1] - 1 / math.sqrt(2)) < 1e-15
    assert np.count_nonzero(psi) == 2
    psi_minus = ghz_state(4, -1)
    assert abs(psi_minus[-1] + 1 / math.sqrt(2)) < 1e-15


def test_ghz_reduction_residuals_exact():
    # the two fully polarized states span an exactly invariant subspace,
    # so leakage and energy mismatch vanish to rounding
    leakage, mismatch = ghz_reduction_residuals(4, 1.0, 0.3)
    assert leakage < 1e-12
    assert mismatch < 1e-12


def test_collective_observables():
    n = 4
    q, q_tilde = build_collective(n)
    np.testing.assert_allclose(q.matrix, _kron_collective(n), atol=1e-15)
    np.testing.assert_allclose(q_tilde.matrix, (n / 2.0) * q.matrix, atol=1e-15)
    assert abs(operator_norm(q) - 1.0) < 1e-15
    assert abs(operator_norm(q_tilde) - n / 2.0) < 1e-15


# --------------------------------------------------------------------------
# custom models


def _write_custom(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _mat(rows):
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in rows]


def test_load_custom_roundtrip(tmp_path):
    h = np.array([[0.5, 0.1 - 0.2j], [0.1 + 0.2j, -0.5]])
    q = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    path = _write_custom(tmp_path, {"dim": 2, "H": _mat(h), "Q": _mat(q)})
    h_op, q_op = load_custom(path)
    np.testing.assert_allclose(h_op.matrix, h, atol=1e-15)
    np.testing.assert_allclose(q_op.matrix, q, atol=1e-15)


def test_load_custom_errors(tmp_path):
    q = np.eye(2)
    with pytest.raises(ValueError, match="dim"):
        load_custom(_write_custom(tmp_path, {"H": _mat(q), "Q": _mat(q)}))
    with pytest.raises(ValueError, match="Hermitian"):
        load_custom(_write_custom(
            tmp_path, {"dim": 2, "H": _mat([[0, 1], [0, 0]]), "Q": _mat(q)}))
    with pytest.raises(ValueError, match="norm"):
        load_custom(_write_custom(
            tmp_path, {"dim": 2, "H": _mat(q), "Q": _mat(2.5 * q)}))


def test_load_custom_marginal_norm_warns(tmp_path):
    q = (1.0 + 1e-10) * np.eye(2)
    path = _write_custom(tmp_path, {"dim": 2, "H": _mat(np.eye(2)), "Q": _mat(q)})
    with pytest.warns(UserWarning, match="norm"):
        load_custom(path)


# --------------------------------------------------------------------------
# declarative dispatch


def test_build_model_qubit():
    h, q = build_model(ModelSpec("qubit", {"epsilon": 1.0, "theta": 0.5}))
    h2, q2 = build_qubit(1.0, 0.5)
    assert np.array_equal(h.matrix, h2.matrix)
    assert np.array_equal(q.matrix, q2.matrix)


def test_build_model_rejects_zero_field_tfim():
    with pytest.raises(ValueError, match="nonzero"):
        build_model(ModelSpec("tfim", {"n": 3, "j": 1.0, "h": 0.0}))


def test_build_model_ghz_observables():
    n = 3
    spec = ModelSpec("ghz", {"n": n, "j": 1.0, "omega": 0.2})
    _, q_default = build_model(spec)
    np.testing.assert_allclose(q_default.matrix, _kron_collective(n), atol=1e-15)
    spec_r = ModelSpec("ghz", {"n": n, "j": 1.0, "omega": 0.2},
                       observable="collective_rescaled")
    _, q_tilde = build_model(spec_r)
    np.testing.assert_allclose(q_tilde.matrix, (n / 2.0) * q_default.matrix,
                               atol=1e-15)


def test_build_model_errors():
    with pytest.raises(ValueError, match="unknown model kind"):
        build_model(ModelSpec("heisenberg", {}))
    with pytest.raises(ValueError, match="requires parameter"):
        build_model(ModelSpec("qubit", {"epsilon": 1.0}))
    with pytest.raises(ValueError, match="unknown parameter"):
        build_model(ModelSpec("qubit", {"epsilon": 1.0, "theta": 0.5, "phi": 0.0}))
    with pytest.raises(ValueError, match="observable"):
        build_model(ModelSpec("qubit", {"epsilon": 1.0, "theta": 0.5},
                              observable="collective"))
    with pytest.raises(ValueError, match="observable"):
        build_model(ModelSpec("ghz", {"n": 3, "j": 1.0, "omega": 0.2},
                              observable="site"))


@pytest.mark.parametrize("kind, params", [
    ("tfim", {"n": 4.7, "j": 1.0, "h": 0.5}),
    ("tfim", {"n": "6", "j": 1.0, "h": 0.5}),
    ("tfim", {"n": True, "j": 1.0, "h": 0.5}),
    ("tfim", {"n": 4, "j": 1.0, "h": 0.5, "site": 2.9}),
    ("ghz", {"n": 3.0, "j": 1.0, "omega": 0.2}),
    ("ghz_effective", {"n": "4", "j": 1.0, "omega": 0.2}),
])
def test_build_model_rejects_non_integer_counts(kind, params):
    name = "site" if "site" in params else "n"
    with pytest.raises(ValueError, match=f"parameter '{name}' must be an integer"):
        build_model(ModelSpec(kind, params))


@pytest.mark.parametrize("kind, params, name", [
    ("qubit", {"epsilon": "1.5", "theta": 0.3}, "epsilon"),
    ("tfim", {"n": 3, "j": True, "h": 0.5}, "j"),
    ("ghz_effective", {"n": 4, "j": 1.0, "omega": float("nan")}, "omega"),
])
def test_build_model_rejects_non_numeric_reals(kind, params, name):
    with pytest.raises(ValueError, match=f"parameter '{name}'"):
        build_model(ModelSpec(kind, params))


def test_build_model_accepts_numpy_integers():
    h, _ = build_model(ModelSpec("tfim", {"n": np.int64(3), "j": 1.0, "h": 0.5,
                                          "site": np.int32(1)}))
    assert h.dim == 8


def test_ground_state_ordering_ghz_effective():
    # ascending energies put the antisymmetric combination first
    ham, _ = build_ghz_effective(4, 1.0, 0.8)
    eig = hermitian_eig(ham)
    assert eig.energies[0] < eig.energies[1]
    assert abs(eig.energies[1] - eig.energies[0] - 0.8) < 1e-12
