"""Deterministic Hermitian diagonalization layer."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph

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


# in the last two cases each block's spectrum is finite; only the merged width overflows
@pytest.mark.parametrize("m", [np.full((2, 2), 1.7e308), np.diag([1.7e308, -1.7e308]),
                               np.diag([1e308, -1e308]),
                               scipy.linalg.block_diag([[1e308, 1.0], [1.0, 1e308]], [[-1e308]])],
                         ids=["eigenvalue", "width", "two-singletons", "pair-and-singleton"])
def test_overflowing_spectrum_raises(m):
    with pytest.raises(ValueError, match=f"dim-{m.shape[0]} operator overflows"):
        hermitian_eig(Operator(m))


def _block_diagonal_case(seed):
    """A random Hermitian matrix of blocks of sizes 1-5, its rows and columns permuted.

    Some blocks repeat an earlier block exactly, and two singletons share a
    value, so equal energies occur in different blocks; one row is zero."""
    rng = np.random.default_rng(seed)
    blocks = [random_hermitian(rng, int(k)) for k in rng.integers(1, 6, size=6)]
    blocks += [blocks[1], blocks[3], np.array([[0.25]]), np.array([[0.25]]), np.array([[0.0]])]
    perm = rng.permutation(sum(b.shape[0] for b in blocks))
    dense = scipy.linalg.block_diag(*blocks)
    return dense[np.ix_(perm, perm)]


def _projectors(energies, basis, tol=1e-9):
    """(lowest energy, eigenprojector) of each cluster of energies closer than ``tol``."""
    cuts = np.flatnonzero(np.diff(energies) > tol) + 1
    return [(float(energies[idx[0]]), basis[:, idx] @ basis[:, idx].conj().T)
            for idx in np.split(np.arange(energies.shape[0]), cuts)]


@pytest.mark.parametrize("seed", range(8))
def test_block_diagonal_eigensystem(seed):
    op = Operator(_block_diagonal_case(seed))
    eig = hermitian_eig(op)
    np.testing.assert_allclose(eig.energies, np.linalg.eigvalsh(op.matrix),
                               rtol=0, atol=1e-12 * op.max_abs)
    dense_energies, dense_basis = np.linalg.eigh(op.matrix)
    assert np.max(np.abs(eig.basis.conj().T @ eig.basis - np.eye(op.dim))) < 1e-10
    _, labels = scipy.sparse.csgraph.connected_components(op.matrix != 0, directed=False)
    for n in range(op.dim):
        col = eig.basis[:, n]
        support, pivot = np.flatnonzero(col), col[np.argmax(np.abs(col))]
        assert support.size and np.unique(labels[support]).size == 1, n
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0.0, n
    got, want = _projectors(eig.energies, eig.basis), _projectors(dense_energies, dense_basis)
    assert [e for e, _ in got] == pytest.approx([e for e, _ in want], abs=1e-12)
    assert any(p.trace().real > 1.5 for _, p in got)  # some level is degenerate across blocks
    for (_, p), (_, q) in zip(got, want):
        assert np.max(np.abs(p - q)) < 1e-10


def test_block_diagonal_ties_follow_smallest_block_index():
    # the singleton at index 2 and the pair {0, 3} share the energy 1
    m = np.zeros((4, 4))
    m[np.ix_([0, 3], [0, 3])] = [[2.0, 1.0], [1.0, 2.0]]
    m[1, 1], m[2, 2] = 1.0, 5.0
    eig = hermitian_eig(Operator(m))
    assert eig.energies.tolist() == pytest.approx([1.0, 1.0, 3.0, 5.0], abs=1e-15)
    assert np.flatnonzero(eig.basis[:, 0]).tolist() == [0, 3]
    assert np.flatnonzero(eig.basis[:, 1]).tolist() == [1]


@pytest.mark.parametrize("m", [random_hermitian(np.random.default_rng(67), 7),
                               build_tfim(6, 1.0, 0.7)[0].matrix],
                         ids=["random", "tfim"])
def test_one_block_matches_dense_solver_bitwise(m):
    op = Operator(m)
    energies, basis = np.linalg.eigh(op.matrix)
    eig = hermitian_eig(op)
    assert eig.energies.tobytes() == energies.tobytes()
    assert eig.basis.tobytes() == _fix_phases(basis).tobytes()


@pytest.mark.parametrize("build", [lambda: build_tfim(6, 1.0, 0.7), lambda: build_ghz(6, 1.0, 0.3),
                                   lambda: (build_ghz(6, 1.0, 0.3)[0], build_collective(6)[1])],
                         ids=["tfim", "ghz", "collective"])
def test_diagonal_observable_single_product_is_bitwise_dense(build):
    h, q = build()
    eig = hermitian_eig(h)
    dense = eig.basis.conj().T @ q.matrix @ eig.basis
    assert to_eigenbasis(q, eig).tobytes() == dense.tobytes()


def test_non_diagonal_observable_keeps_triple_product():
    rng = np.random.default_rng(71)
    eig = hermitian_eig(build_ghz(4, 1.0, 0.3)[0])
    q = Operator(random_hermitian(rng, 16))
    dense = eig.basis.conj().T @ q.matrix @ eig.basis
    assert to_eigenbasis(q, eig).tobytes() == dense.tobytes()


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



def _rotated(matrix: np.ndarray, seed: int = 19) -> np.ndarray:
    """``D matrix D^dag`` with ``D = diag(e^{i phi_k})``: complex, with the same spectrum."""
    d = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, matrix.shape[0]))
    return d[:, None] * matrix * d.conj()


@pytest.mark.parametrize("rotate", [False, True], ids=["real", "rotated"])
@pytest.mark.parametrize("flaw, message", [("column", "not unitary"),
                                           ("energy", "reconstruction failed")])
def test_eigensystem_checks_catch_a_flawed_solution(monkeypatch, rotate, flaw, message):
    h = build_tfim(4, 1.0, 0.7)[0].matrix
    op = Operator(_rotated(h) if rotate else h)
    assert bool(op.matrix.imag.any()) is rotate
    eigh = np.linalg.eigh

    def flawed(a):  # one perturbed column, or one wrong energy
        energies, vectors = eigh(a)
        if flaw == "column":
            vectors[..., 3] *= 1.0 + 1e-6
        else:
            energies[..., 5] += 1e-6
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", flawed)
    with pytest.raises(NumericsError, match=message):
        hermitian_eig(op)


def test_real_valued_checks_make_no_complex_temporaries():
    # traced peak of hermitian_eig on tfim n = 9 (dim 512, one block): 20,981,552 bytes when
    # V^dag V - I and V E V^dag - A were formed in complex128, five times the 4 MiB basis
    h = build_tfim(9, 1.0, 0.7)[0]
    tracemalloc.start()
    try:
        eig = hermitian_eig(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not eig.basis.imag.any()
    assert peak <= 0.6 * 20_981_552

def test_block_form_operator_and_its_dense_view():
    rows = np.array([[3, 0], [1, 2]])
    blocks = np.array([[[1.0, 0.5j], [-0.5j, -1.0]], [[2.0, 0.25], [0.25, 0.0]]])
    op = Operator(blocks=[(rows, blocks), (np.array([[4]]), np.array([[[7.0]]]))])
    assert op.dim == 5 and op.max_abs == 7.0 and op.diagonal is None
    dense = np.zeros((5, 5), complex)
    dense[np.ix_([3, 0], [3, 0])], dense[np.ix_([1, 2], [1, 2])] = blocks
    dense[4, 4] = 7.0
    assert np.array_equal(op.matrix, dense) and not op.matrix.flags.writeable
    assert operator_norm(op) == pytest.approx(7.0, abs=1e-15)
    diag = Operator.from_diagonal([0.5, -1.0, 2.0])
    assert np.array_equal(diag.matrix, np.diag([0.5, -1.0, 2.0]))
    assert diag.diagonal.tolist() == [0.5, -1.0, 2.0]
    with pytest.raises(ValueError, match="partition"):
        Operator(blocks=[(np.array([[0, 1], [1, 2]]), np.zeros((2, 2, 2)))])
    skewed = blocks.copy()
    skewed[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        Operator(blocks=[(rows, skewed), (np.array([[4]]), np.array([[[7.0]]]))])
    eig = hermitian_eig(op)
    for obj, name in ((op, "groups"), (op, "dim"), (op, "matrix"), (eig, "energies"),
                      (eig, "basis")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, None)
    with pytest.raises(AttributeError, match="immutable"):
        del op.groups


def test_one_block_on_permuted_indices():
    # a single explicit block in any index order: the dense views put it in place
    rng = np.random.default_rng(3)
    dense = random_hermitian(rng, 5)
    order = rng.permutation(5)
    op = Operator(blocks=[(order[None], dense[np.ix_(order, order)][None])])
    assert np.array_equal(op.matrix, dense)
    block, twin = hermitian_eig(op), hermitian_eig(Operator(dense))
    assert np.allclose(block.energies, twin.energies, rtol=0.0, atol=1e-12)
    assert np.allclose(block.basis @ np.diag(block.energies) @ block.basis.conj().T, dense,
                       rtol=0.0, atol=1e-12)
    q = Operator.from_diagonal(rng.uniform(-1.0, 1.0, 5))
    assert np.allclose(np.abs(to_eigenbasis(q, block)), np.abs(to_eigenbasis(q, twin)),
                       rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_block_form_eigensystem_is_bitwise_its_dense_twin(seed):
    # blocks on ascending rows, given in a shuffled order: the eigensolve of the dense
    # matrix finds the same blocks, so every energy and vector keeps its bits
    dense = _block_diagonal_case(seed)
    _, labels = scipy.sparse.csgraph.connected_components(dense != 0, directed=False)
    components = [np.flatnonzero(labels == c) for c in np.random.default_rng(seed).permutation(
        labels.max() + 1)]
    op = Operator(blocks=[(np.array([c for c in components if c.size == k]),
                           np.array([dense[np.ix_(c, c)] for c in components if c.size == k]))
                          for k in {c.size for c in components}])
    block, twin = hermitian_eig(op), hermitian_eig(Operator(dense))
    assert block.energies.tobytes() == twin.energies.tobytes()
    assert block.basis.tobytes() == twin.basis.tobytes()
