"""Hermitian linear algebra in block form, with deterministic spectral output.

Everything downstream (correlators, Fisher information, transition spectra)
is built on exact diagonalization of Hermitian operators held as blocks: a
dense matrix is one block, a diagonal is all 1x1.  Two guarantees matter
here and are enforced by this module:

* validity: eigenvalues ascending with a finite spectral width, eigenvectors
  unitary, and ``V diag(E) V^dag`` reproduces each block to high accuracy
  (checked in float64 when the block and its eigenvectors are real-valued);
* determinism: identical input bits produce identical output bits at a fixed
  BLAS thread count, with a fixed phase convention, so that serialized
  results are stable.  Each block (for a dense input, each connected
  component of the nonzero pattern) is diagonalized alone; inside its
  degenerate clusters the columns are LAPACK's, and equal energies of
  different blocks go by smallest index.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NumericsError

__all__ = [
    "Operator",
    "Eigensystem",
    "hermitian_eig",
    "to_eigenbasis",
    "operator_norm",
]


#: Max allowed |A_ij - conj(A_ji)| when an :class:`Operator` is constructed.
HERMITICITY_TOL = 1e-12

#: Max allowed deviation of V^dag V from the identity.
UNITARITY_TOL = 1e-10

#: Max allowed |A - V E V^dag| relative to max |A_ij|.
RECONSTRUCTION_TOL = 1e-10


def _frozen_array(values: np.ndarray, dtype: type) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=dtype)  # callers pass arrays they own
    out.setflags(write=False)
    return out


def _immutable(self, name: str, *value: object) -> None:
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


def _real_parts(*arrays: np.ndarray) -> tuple:
    """The arrays' real parts when every imaginary part is exactly zero, else the arrays."""
    return arrays if any(a.imag.any() for a in arrays) else tuple(a.real for a in arrays)


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """A matrix or stack ``m`` as ``A/2 + A^dag/2``, read-only, once every entry is finite
    and Hermiticity holds entrywise within ``HERMITICITY_TOL``; in float64, with the same
    bits, when every imaginary part is +0.0 (a -0.0 moves the signs of the halves' zeros)."""
    x = m if np.signbit(m.imag).any() else _real_parts(m)[0]
    with np.errstate(invalid="ignore"):
        deviation = float(np.max(np.abs(x - x.conj().swapaxes(-1, -2)), initial=0.0))
    # a NaN or inf entry makes its own deviation NaN or inf
    if not np.isfinite(deviation):
        raise ValueError("matrix has a non-finite (NaN or inf) entry")
    if deviation > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |A_ij - conj(A_ji)| = "
                         f"{deviation:.3e} exceeds {HERMITICITY_TOL:.1e}")
    # halved first: entries near the float maximum cannot overflow; a real part is halved
    # as complex m / 2.0 halves it, (a + 0.0 * 0.0) / 2
    sym = m / 2.0 if x is m else np.multiply(x + 0.0, 0.5)
    return _frozen_array(np.add(sym, sym.conj().swapaxes(-1, -2), out=sym), np.complex128)


class Operator:
    """An immutable Hermitian operator in block form.

    ``groups`` holds one ``(rows, blocks)`` pair per block size k: the index
    groups ``rows`` (b, k) partition range(dim), ``blocks`` (b, k, k) are the
    entries on them, and every other entry is zero.  ``Operator(matrix)`` is
    a dense matrix as one block, ``Operator(blocks=[(rows, blocks), ...])``
    any block form, and :attr:`matrix` the dense view of either.  The
    constructor rejects non-finite entries, validates Hermiticity entrywise
    (tolerance ``HERMITICITY_TOL``) and stores each block exactly
    symmetrized, ``A/2 + A^dag/2``, read-only, so every downstream routine
    can rely on exact Hermiticity.
    """

    __setattr__ = __delattr__ = _immutable

    def __init__(self, matrix: np.ndarray | None = None, *, blocks=None) -> None:
        if blocks is None:
            m = np.asarray(matrix, dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
            if m.shape[0] < 1:
                raise ValueError("operator dimension must be at least 1")
            every = _frozen_array(np.arange(m.shape[0])[None], np.intp)
            self.__dict__.update(groups=((every, _symmetrized(m)[None]),), dim=m.shape[0])
            return
        groups = []
        for rows, m in blocks:
            rows, m = np.asarray(rows, dtype=np.intp), np.asarray(m, dtype=np.complex128)
            if rows.ndim != 2 or m.shape != rows.shape + rows.shape[1:]:
                raise ValueError(f"blocks of shape {m.shape} do not fit index groups {rows.shape}")
            if len(blocks) == len(rows) == 1:  # one block goes in index order
                order = np.argsort(rows[0])
                rows, m = rows[:, order], m[:, order[:, None], order]
            groups.append((_frozen_array(rows, np.intp), _symmetrized(m)))
        dim = sum(rows.size for rows, _ in groups)
        if dim < 1:
            raise ValueError("operator dimension must be at least 1")
        if (np.bincount(np.concatenate([r.ravel() for r, _ in groups]), minlength=dim) != 1).any():
            raise ValueError(f"block index groups must partition range({dim})")
        self.__dict__.update(groups=tuple(groups), dim=dim)

    @classmethod
    def from_diagonal(cls, values) -> Operator:
        """diag(values) as 1x1 blocks."""
        values = np.asarray(values, dtype=np.complex128)
        return cls(blocks=[(np.arange(values.size)[:, None], values[:, None, None])])

    @cached_property
    def matrix(self) -> np.ndarray:
        """The operator as one dense dim x dim array, read-only (built on first use)."""
        return _dense(self.dim, [(r[:, :, None], r[:, None, :], b) for r, b in self.groups])

    @property
    def diagonal(self) -> np.ndarray | None:
        """The diagonal entries when every off-diagonal entry is zero, else None."""
        if any(np.count_nonzero(b) != np.count_nonzero(np.diagonal(b, 0, 1, 2))
               for _, b in self.groups):
            return None
        out = np.empty(self.dim, dtype=np.complex128)
        for rows, blocks in self.groups:
            out[rows] = np.diagonal(blocks, 0, 1, 2)
        return out

    @property
    def max_abs(self) -> float:
        """Largest entry magnitude, used as the scale for relative tolerances."""
        return max(float(np.max(np.abs(blocks))) for _, blocks in self.groups)


class Eigensystem:
    """Spectral decomposition of a Hermitian operator, block by block.

    ``energies`` ascends.  ``groups`` holds one ``(rows, vectors, levels)``
    triple per block size k: column j of ``vectors[i]`` (k x k), on the
    indices ``rows[i]``, is the eigenvector of ``energies[levels[i, j]]``.
    ``Eigensystem(energies, basis)`` takes a dense eigenvector matrix as one
    block, and :attr:`basis` is the dense view of any eigensystem.
    """

    __setattr__ = __delattr__ = _immutable

    def __init__(self, energies: np.ndarray, basis: np.ndarray | None = None, *,
                 groups: tuple | None = None) -> None:
        if groups is None:
            every = np.arange(energies.shape[0])[None]
            groups = ((every, basis[None], every),)
        self.__dict__.update(energies=energies, dim=energies.shape[0], groups=groups)

    @cached_property
    def basis(self) -> np.ndarray:
        """The eigenvectors as the columns of one dense dim x dim array, read-only."""
        return _dense(self.dim, [(r[:, :, None], lv[:, None, :], v) for r, v, lv in self.groups])


def _dense(dim: int, parts) -> np.ndarray:
    """The dim x dim array with ``out[rows, columns] = values`` for each ``(rows,
    columns, values)`` part, zero elsewhere, read-only.  One part on every entry is
    one block, held in index order (a block's levels ascend): its values are returned."""
    if len(parts) == 1 and parts[0][2].size == dim * dim:
        return parts[0][2].reshape(dim, dim)
    out = np.zeros((dim, dim), dtype=parts[0][2].dtype)
    for rows, columns, values in parts:
        out[rows, columns] = values
    out.flags.writeable = False
    return out


def _fix_phases(basis: np.ndarray) -> np.ndarray:
    """Rotate each column of a matrix or stack so its largest-magnitude entry is real positive.

    A zero column stays zero.  ``np.hypot`` gives each pivot's magnitude with
    the same bits as the scalar ``abs``.
    """
    pivot = np.take_along_axis(basis, np.argmax(np.abs(basis), axis=-2)[..., None, :], axis=-2)
    mag = np.hypot(pivot.real, pivot.imag)
    return basis * np.divide(pivot.conj(), mag, out=np.ones_like(pivot), where=mag > 0.0)


def _components(matrix: np.ndarray) -> np.ndarray:
    """The smallest index of each index's connected component of the nonzero pattern: each
    pass hooks every index to its neighbours' least label (its row's first ``True`` with the
    columns sorted by label), then follows the labels to their fixed points."""
    pattern = matrix != 0
    pattern.flat[::matrix.shape[0] + 1] = True
    labels, hooked = np.arange(matrix.shape[0]), pattern.argmax(axis=1)
    while hooked.any() and (hooked != labels).any():  # all zero: one component
        labels = hooked
        while (labels[labels] != labels).any():
            labels = labels[labels]
        order = np.argsort(labels, kind="stable")
        hooked = labels[order[np.take(pattern, order, axis=1).argmax(axis=1)]]
    return hooked


def _check_overflow(energies: np.ndarray, dim: int) -> None:
    # Python floats: no overflow warning; a stack's end-to-end spread is within the merged width
    width = float(energies.flat[-1]) - float(energies.flat[0])
    if not (np.all(np.isfinite(energies)) and np.isfinite(width)):
        raise ValueError(f"the spectrum of a dim-{dim} operator overflows: an eigenvalue "
                         f"or the spectral width is not finite")


def _solve_blocks(op: Operator, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-fixed eigenpairs of ``op``'s matrix or stacked blocks, checked at ``op``'s scale."""
    try:
        energies, basis = np.linalg.eigh(blocks)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigendecomposition did not converge for a dim-{op.dim} "
                            "matrix") from exc
    _check_overflow(energies, op.dim)
    basis = _fix_phases(basis)
    scale = op.max_abs
    v, a = _real_parts(basis, blocks)  # V^dag V - I and V E V^dag - A, in float64 if real
    v = np.ascontiguousarray(v)  # a real part has no unit stride, which BLAS takes
    gram = v.conj().swapaxes(-1, -2) @ v
    gram.reshape(-1, v.shape[-1] ** 2)[:, ::v.shape[-1] + 1] -= 1.0
    unit_dev = float(np.max(np.abs(gram)))
    if not unit_dev <= UNITARITY_TOL:  # NaN fails
        raise NumericsError(f"eigenvector matrix for dim-{op.dim} operator is not unitary "
                            f"(deviation {unit_dev:.3e})")
    del gram  # freed before V E V^T: one d x d temporary at a time
    rebuilt = (v * energies[..., None, :]) @ v.conj().swapaxes(-1, -2)
    recon_dev = float(np.max(np.abs(np.subtract(rebuilt, a, out=rebuilt))))
    if not recon_dev <= RECONSTRUCTION_TOL * max(scale, 1e-300):
        raise NumericsError(f"spectral reconstruction failed for dim-{op.dim} operator "
                            f"(residual {recon_dev:.3e}, scale {scale:.3e})")
    return energies, basis


def hermitian_eig(op: Operator) -> Eigensystem:
    """Diagonalize a Hermitian operator with deterministic conventions.

    Returns an :class:`Eigensystem` with ascending eigenvalues and
    phase-fixed eigenvectors (largest-magnitude entry real positive).  Each
    block of ``op`` is diagonalized and validated on its own, one batched
    call per block size; a dense ``op`` (one block) is first split into the
    connected components of its nonzero pattern.  Equal energies of
    different blocks go in the order of the blocks' smallest indices; inside
    a block's degenerate cluster the columns are LAPACK's, in LAPACK's order:
    the same input bits give the same output bits at a fixed BLAS thread count.

    Raises ``ValueError`` if an eigenvalue or the spectral width is not
    finite (the spectrum overflows the float range), and
    :class:`~lgqfi.errors.NumericsError` if the decomposition does not
    converge or fails validation; both messages name the matrix dimension.
    """
    groups = op.groups
    if len(groups) == 1 and groups[0][0].shape[0] == 1:
        rows, matrix = groups[0][0][0], groups[0][1][0]
        labels = _components(matrix)
        if not labels.any():  # one block: its energies ascend, its rows and levels in order
            energies, vectors = _solve_blocks(op, matrix)
            return Eigensystem(_frozen_array(energies, np.float64), groups=((
                groups[0][0], _frozen_array(vectors[None], np.complex128), groups[0][0]),))
        # members[starts[c] + j] is component c's j-th index, components by smallest index;
        # counted with bincount: np.unique would import numpy.ma, half a MB
        sizes = np.bincount(labels, minlength=op.dim)[labels == np.arange(op.dim)]
        members, starts = np.argsort(labels, kind="stable"), np.cumsum(sizes) - sizes
        local = [members[starts[sizes == k][:, None] + np.arange(k)]
                 for k in np.flatnonzero(np.bincount(sizes))]
        groups = [(rows[c], matrix[c[:, :, None], c[:, None, :]]) for c in local]
    solved = [(rows, *_solve_blocks(op, blocks)) for rows, blocks in groups]
    # ascending energy, ties by the block's smallest index, then by position in the block
    order = np.lexsort([np.concatenate(keys) for keys in zip(*(
        (np.tile(np.arange(k), b), np.repeat(rows.min(axis=1), k), e.ravel())
        for (rows, e, _), (b, k) in zip(solved, (g[0].shape for g in groups))))])
    level = np.empty(op.dim, dtype=np.intp)
    level[order] = np.arange(op.dim)
    energies = np.concatenate([e.ravel() for _, e, _ in solved])[order]
    _check_overflow(energies, op.dim)
    out, start = [], 0
    for rows, e, vectors in solved:
        levels, start = level[start:start + e.size].reshape(e.shape), start + e.size
        out.append((_frozen_array(rows, np.intp), _frozen_array(vectors, np.complex128),
                    _frozen_array(levels, np.intp)))
    return Eigensystem(_frozen_array(energies, np.float64), groups=tuple(out))


def _state(rho: object, dim: int) -> np.ndarray:
    """``rho`` as a complex array: a unit vector of length ``dim``, or a dim x dim Hermitian
    density matrix with unit trace and no eigenvalue below -1e-10.  NaN fails every check."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim == 1:
        if rho.shape != (dim,):
            raise ValueError(f"state vector has length {rho.shape[0]}, expected {dim}")
        norm = float(np.linalg.norm(rho))
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"state vector norm {norm!r} differs from 1")
        return rho
    if rho.shape != (dim, dim):
        raise ValueError(f"state must be a vector or a dim-{dim} density matrix, "
                         f"got shape {rho.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
        deviation = np.max(np.abs(rho - rho.conj().T))
    if not deviation <= 1e-10:
        raise ValueError("density matrix is not Hermitian within 1e-10")
    trace = float(np.trace(rho).real)
    if not abs(trace - 1.0) <= 1e-10:
        raise ValueError(f"density matrix trace {trace!r} differs from 1")
    low = float(np.linalg.eigvalsh(rho).min())
    if not low >= -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {low!r}")
    return rho


def _eigen_rows(op: Operator, eig: Eigensystem) -> tuple[tuple, float]:
    """``op`` in the eigenbasis of ``eig`` as row stacks, and its Hermiticity loss.

    A row stack ``(levels, columns, values)`` holds Q_nm at the rows
    ``levels`` (r, 1) and the column levels ``columns`` (r, k, or 1, k when
    shared), rows in level order, values read-only; entries outside the
    stacks are zero.  A diagonal ``op`` couples each block only to itself, so
    each block size gives one stack of k entries per level, at the cost of
    sum_A d_A^3.  Any other ``op`` is one dense stack ``V^dag Q V``.  The
    Hermiticity loss is ``max |Q_nm - conj(Q_mn)|``.
    """
    if op.dim != eig.dim:
        raise ValueError(
            f"dimension mismatch: operator is dim {op.dim}, eigensystem is dim {eig.dim}"
        )
    diagonal = op.diagonal
    if diagonal is None:
        every, values = np.arange(eig.dim), eig.basis.conj().T @ op.matrix @ eig.basis
        return (((every[:, None], every[None], _frozen_array(values, np.complex128)),),
                float(np.max(np.abs(values - values.conj().T))))
    stacks, deviation = [], 0.0
    for rows, v, levels in eig.groups:  # V_A^dag diag(d_A) V_A as one scaled product per block
        values = (v.conj().swapaxes(-1, -2) * diagonal[rows][:, None, :]) @ v
        deviation = max(deviation, float(np.max(np.abs(values - values.conj().swapaxes(-1, -2)))))
        if len(rows) == 1:  # one block: its levels ascend
            stacks.append((levels.T, levels, _frozen_array(values[0], np.complex128)))
        else:  # + 0.0 is the dense product's -0.0 + 0.0 = 0.0
            order, k = np.argsort(levels.ravel()), rows.shape[1]
            stacks.append((levels.reshape(-1, 1)[order], np.repeat(levels, k, axis=0)[order],
                           _frozen_array(values.reshape(-1, k)[order] + 0.0, np.complex128)))
    return tuple(stacks), deviation


def to_eigenbasis(op: Operator, eig: Eigensystem) -> np.ndarray:
    """Matrix elements ``Q_nm = <n|Q|m>`` of ``op`` in the given eigenbasis, as a dense array."""
    return _dense(eig.dim, _eigen_rows(op, eig)[0])


def operator_norm(op: Operator) -> float:
    """Spectral norm (largest absolute eigenvalue) of a Hermitian operator."""
    return max(float(np.max(np.abs(np.linalg.eigvalsh(blocks)))) for _, blocks in op.groups)
