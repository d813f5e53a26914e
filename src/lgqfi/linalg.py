"""Dense Hermitian linear algebra with deterministic spectral output.

Everything downstream (correlators, Fisher information, transition spectra)
is built on exact diagonalization of small dense Hermitian matrices.  Two
guarantees matter here and are enforced by this module:

* validity: eigenvalues ascending with a finite spectral width, eigenvector
  matrix unitary, and the reconstruction ``V diag(E) V^dag`` reproduces the
  input to high accuracy;
* determinism: identical input bits produce identical output bits at a fixed
  BLAS thread count, with a fixed phase convention, so that serialized
  results are stable.  Each block (connected component of the nonzero
  pattern) is diagonalized alone; inside its degenerate clusters the columns
  are LAPACK's, and equal energies of different blocks go by smallest index.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Operator:
    """An immutable dense Hermitian operator.

    The constructor rejects non-finite entries, validates Hermiticity
    entrywise (tolerance ``HERMITICITY_TOL``) and stores the exactly
    symmetrized matrix ``A/2 + A^dag/2`` read-only, so every downstream
    routine can rely on exact Hermiticity.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("operator dimension must be at least 1")
        with np.errstate(invalid="ignore"):
            deviation = float(np.max(np.abs(m - m.conj().T)))
        # a NaN or inf entry makes its own deviation NaN or inf
        if not np.isfinite(deviation):
            raise ValueError("matrix has a non-finite (NaN or inf) entry")
        if deviation > HERMITICITY_TOL:
            raise ValueError(
                f"matrix is not Hermitian: max |A_ij - conj(A_ji)| = {deviation:.3e} "
                f"exceeds {HERMITICITY_TOL:.1e}"
            )
        sym = m / 2.0  # halved first: entries near the float maximum cannot overflow
        object.__setattr__(self, "matrix", _frozen_array(np.add(sym, sym.conj().T, out=sym), np.complex128))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def max_abs(self) -> float:
        """Largest entry magnitude, used as the scale for relative tolerances."""
        return float(np.max(np.abs(self.matrix)))


@dataclass(frozen=True)
class Eigensystem:
    """Spectral decomposition of a Hermitian operator.

    ``energies`` is ascending; column ``basis[:, n]`` is the eigenvector of
    ``energies[n]``.  Both arrays are read-only.
    """

    energies: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[0]


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
    gram = basis.conj().swapaxes(-1, -2) @ basis
    unit_dev = float(np.max(np.abs(gram - np.eye(blocks.shape[-1]))))
    if not unit_dev <= UNITARITY_TOL:  # NaN fails
        raise NumericsError(f"eigenvector matrix for dim-{op.dim} operator is not unitary "
                            f"(deviation {unit_dev:.3e})")
    rebuilt = (basis * energies[..., None, :]) @ basis.conj().swapaxes(-1, -2)
    recon_dev = float(np.max(np.abs(rebuilt - blocks)))
    if not recon_dev <= RECONSTRUCTION_TOL * max(scale, 1e-300):
        raise NumericsError(f"spectral reconstruction failed for dim-{op.dim} operator "
                            f"(residual {recon_dev:.3e}, scale {scale:.3e})")
    return energies, basis


def hermitian_eig(op: Operator) -> Eigensystem:
    """Diagonalize a Hermitian operator with deterministic conventions.

    Returns an :class:`Eigensystem` with ascending eigenvalues and
    phase-fixed eigenvectors (largest-magnitude entry real positive).  Each
    block (connected component of the nonzero pattern) is diagonalized and
    validated on its own, one batched call per block size, and each column
    lies on one block.  Equal energies of different blocks go in the order of
    the blocks' smallest indices; inside a block's degenerate cluster the
    columns are LAPACK's, in LAPACK's order: the same input bits give the
    same output bits at a fixed BLAS thread count.

    Raises ``ValueError`` if an eigenvalue or the spectral width is not
    finite (the spectrum overflows the float range), and
    :class:`~lgqfi.errors.NumericsError` if the decomposition does not
    converge or fails validation; both messages name the matrix dimension.
    """
    labels = _components(op.matrix)
    if not labels.any():  # one block: the whole matrix goes to LAPACK
        energies, basis = _solve_blocks(op, op.matrix)
    else:  # members[starts[c] + j] is block c's j-th index, blocks by smallest index
        # counted with bincount: np.unique would import numpy.ma, half a MB
        sizes = np.bincount(labels, minlength=op.dim)[labels == np.arange(op.dim)]
        members, starts = np.argsort(labels, kind="stable"), np.cumsum(sizes) - sizes
        energies, basis = np.empty(op.dim), np.zeros_like(op.matrix)
        for k in np.flatnonzero(np.bincount(sizes)):
            slots = starts[sizes == k][:, None] + np.arange(k)
            rows = members[slots]
            energies[slots], basis[rows[:, :, None], slots[:, None, :]] = _solve_blocks(
                op, op.matrix[rows[:, :, None], rows[:, None, :]])
        order = np.argsort(energies, kind="stable")
        energies, basis = energies[order], np.take(basis, order, axis=1)
        _check_overflow(energies, op.dim)
    return Eigensystem(energies=_frozen_array(energies, np.float64),
                       basis=_frozen_array(basis, np.complex128))


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


def to_eigenbasis(op: Operator, eig: Eigensystem) -> np.ndarray:
    """Matrix elements ``Q_nm = <n|Q|m>`` of ``op`` in the given eigenbasis."""
    if op.dim != eig.dim:
        raise ValueError(
            f"dimension mismatch: operator is dim {op.dim}, eigensystem is dim {eig.dim}"
        )
    diagonal = np.diagonal(op.matrix)
    if np.count_nonzero(op.matrix) == np.count_nonzero(diagonal):  # V^dag diag(d) V, same bits
        return (eig.basis.conj().T * diagonal) @ eig.basis
    return eig.basis.conj().T @ op.matrix @ eig.basis


def operator_norm(op: Operator) -> float:
    """Spectral norm (largest absolute eigenvalue) of a Hermitian operator."""
    return float(np.max(np.abs(np.linalg.eigvalsh(op.matrix))))
