"""Deterministic Hermitian diagonalization layer."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_hermitian
from lgqfi.errors import NumericsError
from lgqfi.linalg import (
    Operator,
    _fix_phases,
    hermitian_eig,
    operator_norm,
    to_eigenbasis,
)
from lgqfi.models import build_collective, build_ghz, build_tfim


def test_operator_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        Operator(np.zeros((2, 3)))


def test_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_operator_rejects_non_finite(bad, where):
    m = np.array([[0.0, 0.5], [0.5, 1.0]], dtype=complex)
    m[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Operator(m)


def test_operator_symmetrizes_storage():
    m = np.array([[1.0, 0.5 + 1e-13j], [0.5, -1.0]])
    op = Operator(m)
    assert np.array_equal(op.matrix, op.matrix.conj().T)
    assert not op.matrix.flags.writeable


def test_operator_stores_largest_finite_entries_exactly():
    m = np.array([[1.7e308, 0.0], [0.0, 1.0]])
    op = Operator(m)
    assert np.all(np.isfinite(op.matrix))
    assert np.array_equal(op.matrix, m)


def test_operator_properties():
    op = Operator(np.diag([3.0, -7.0]))
    assert op.dim == 2
    assert op.max_abs == 7.0
    assert operator_norm(op) == 7.0


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_eigensystem_valid(dim):
    rng = np.random.default_rng(100 + dim)
    op = Operator(random_hermitian(rng, dim, scale=3.0))
    eig = hermitian_eig(op)
    assert np.all(np.diff(eig.energies) >= 0.0)
    gram = eig.basis.conj().T @ eig.basis
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-10
    rebuilt = (eig.basis * eig.energies) @ eig.basis.conj().T
    assert np.max(np.abs(rebuilt - op.matrix)) < 1e-10 * op.max_abs


def test_energies_match_reference_solver():
    rng = np.random.default_rng(7)
    op = Operator(random_hermitian(rng, 6))
    eig = hermitian_eig(op)
    np.testing.assert_allclose(eig.energies, np.linalg.eigvalsh(op.matrix),
                               rtol=0, atol=1e-12)


def test_phase_convention():
    rng = np.random.default_rng(11)
    op = Operator(random_hermitian(rng, 5))
    eig = hermitian_eig(op)
    for n in range(5):
        col = eig.basis[:, n]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert abs(pivot.imag) < 1e-12
        assert pivot.real > 0.0


def test_determinism_bitwise():
    rng = np.random.default_rng(23)
    m = random_hermitian(rng, 6)
    a = hermitian_eig(Operator(m))
    b = hermitian_eig(Operator(m.copy()))
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.basis, b.basis)


def test_degenerate_subspace_deterministic():
    rng = np.random.default_rng(31)
    # exactly degenerate pair conjugated by a random unitary
    base = np.diag([1.0, 1.0, 2.0, -0.5])
    u = np.linalg.qr(random_hermitian(rng, 4) + 1j * np.eye(4))[0]
    m = u @ base @ u.conj().T
    m = (m + m.conj().T) / 2.0
    a = hermitian_eig(Operator(m))
    b = hermitian_eig(Operator(m.copy()))
    assert np.array_equal(a.basis, b.basis)
    rebuilt = (a.basis * a.energies) @ a.basis.conj().T
    assert np.max(np.abs(rebuilt - m)) < 1e-10 * np.max(np.abs(m))


def test_near_tie_eigenpairs_keep_their_energies():
    # levels 1e-12 apart: every column must stay the eigenvector of its own energy
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        op = Operator(u @ np.diag([2.0, 2.0 + 1e-12, 4.0]) @ u.conj().T)
        eig = hermitian_eig(op)
        residual = np.linalg.norm(op.matrix @ eig.basis - eig.basis * eig.energies, axis=0)
        assert np.max(residual) < 1e-13, seed


def _fix_phases_per_column(basis):
    """The column-by-column phase convention the vectorized pass must reproduce."""
    out = np.array(basis, copy=True)
    for n in range(out.shape[1]):
        col = out[:, n]
        pivot = col[int(np.argmax(np.abs(col)))]
        mag = abs(pivot)
        if mag > 0.0:
            out[:, n] = col * (pivot.conjugate() / mag)
    return out


def _phase_cases():
    rng = np.random.default_rng(59)
    for dim in (1, 2, 5, 16, 33):
        yield random_hermitian(rng, dim)
    u = np.linalg.qr(random_hermitian(rng, 6) + 1j * np.eye(6))[0]
    for levels in ([1.0, 1.0, 1.0, 2.0, 2.0, 3.0], [0.5, 0.5 + 1e-13, 0.5 + 2e-13, 1.0, 1.0, 4.0]):
        yield u @ np.diag(levels) @ u.conj().T
    yield np.eye(8)
    for ops in (build_ghz(4, 1.0, 0.3), build_tfim(4, 1.0, 0.7),
                build_tfim(4, 1.0, 0.7, boundary="periodic"), build_collective(4)):
        for op in ops:
            yield op.matrix


def test_vectorized_phase_pass_matches_per_column_loop():
    for m in _phase_cases():
        _, basis = np.linalg.eigh(Operator(m).matrix)
        for b in (basis, np.hstack([basis, np.zeros((basis.shape[0], 1))])):
            got, want = _fix_phases(b), _fix_phases_per_column(b)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [np.full((2, 2), 1.7e308), np.diag([1.7e308, -1.7e308])],
                         ids=["eigenvalue", "width"])
def test_overflowing_spectrum_raises(m):
    with pytest.raises(ValueError, match="dim-2 operator overflows"):
        hermitian_eig(Operator(m))


def test_eigenbasis_roundtrip():
    rng = np.random.default_rng(43)
    h = Operator(random_hermitian(rng, 4))
    q = Operator(random_hermitian(rng, 4))
    eig = hermitian_eig(h)
    elements = to_eigenbasis(q, eig)
    back = eig.basis @ elements @ eig.basis.conj().T
    assert np.max(np.abs(back - q.matrix)) < 1e-12
    # H itself becomes diagonal
    h_el = to_eigenbasis(h, eig)
    assert np.max(np.abs(h_el - np.diag(eig.energies))) < 1e-12


def test_dimension_mismatch_raises():
    rng = np.random.default_rng(5)
    eig = hermitian_eig(Operator(random_hermitian(rng, 3)))
    with pytest.raises(ValueError, match="dim"):
        to_eigenbasis(Operator(np.zeros((4, 4))), eig)


def test_validation_failure_names_dimension(monkeypatch):
    rng = np.random.default_rng(3)
    op = Operator(random_hermitian(rng, 4))

    def bad_eigh(_):
        raise np.linalg.LinAlgError("synthetic")

    monkeypatch.setattr(np.linalg, "eigh", bad_eigh)
    with pytest.raises(NumericsError, match="dim-4"):
        hermitian_eig(op)
