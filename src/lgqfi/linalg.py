"""Dense Hermitian linear algebra with deterministic spectral output.

Everything downstream (correlators, Fisher information, transition spectra)
is built on exact diagonalization of small dense Hermitian matrices.  Two
guarantees matter here and are enforced by this module:

* validity: eigenvalues ascending, eigenvector matrix unitary, and the
  reconstruction ``V diag(E) V^dag`` reproduces the input to high accuracy;
* determinism: identical input bits produce identical output bits, including
  a fixed resolution of degenerate subspaces (tie-broken eigenvector order
  and a fixed phase convention), so that serialized results are stable.
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

#: Relative eigenvalue gap below which levels count as tied for ordering.
DEGENERACY_TIE_TOL = 1e-12


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
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = np.array(basis, copy=True)
    for n in range(out.shape[1]):
        col = out[:, n]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        mag = abs(pivot)
        if mag > 0.0:
            out[:, n] = col * (pivot.conjugate() / mag)
    return out


def _order_ties(energies: np.ndarray, basis: np.ndarray, scale: float) -> np.ndarray:
    """Reorder eigenvector columns inside degenerate clusters.

    Within each cluster of numerically tied eigenvalues the columns are
    sorted lexicographically by the interleaved (real, imag) parts of their
    entries.  Energies keep their ascending order; inside a cluster the
    energy/vector pairing is arbitrary at the cluster-width level, which the
    reconstruction tolerance absorbs.
    """
    out = np.array(basis, copy=True)
    gap_tol = DEGENERACY_TIE_TOL * max(1.0, scale)
    n = energies.shape[0]
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and energies[stop] - energies[stop - 1] <= gap_tol:
            stop += 1
        if stop - start > 1:
            cols = list(range(start, stop))

            def key(idx: int) -> tuple:
                col = out[:, idx]
                parts = np.empty(2 * col.shape[0])
                parts[0::2] = col.real
                parts[1::2] = col.imag
                return tuple(parts)

            order = sorted(cols, key=key)
            out[:, start:stop] = out[:, order]
        start = stop
    return out


def hermitian_eig(op: Operator) -> Eigensystem:
    """Diagonalize a Hermitian operator with deterministic conventions.

    Returns an :class:`Eigensystem` with ascending eigenvalues, phase-fixed
    eigenvectors (largest-magnitude entry real positive), and a deterministic
    column order inside degenerate clusters.  The result is validated for
    unitarity and reconstruction accuracy before being returned.

    Raises :class:`~lgqfi.errors.NumericsError` if the decomposition does not
    converge or fails validation; the message names the matrix dimension.
    """
    try:
        energies, basis = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            f"eigendecomposition did not converge for a dim-{op.dim} matrix"
        ) from exc
    basis = _fix_phases(basis)
    scale = op.max_abs
    basis = _order_ties(energies, basis, scale)

    gram = basis.conj().T @ basis
    unit_dev = float(np.max(np.abs(gram - np.eye(op.dim))))
    if unit_dev > UNITARITY_TOL:
        raise NumericsError(
            f"eigenvector matrix for dim-{op.dim} operator is not unitary "
            f"(deviation {unit_dev:.3e})"
        )
    rebuilt = (basis * energies) @ basis.conj().T
    recon_dev = float(np.max(np.abs(rebuilt - op.matrix)))
    if recon_dev > RECONSTRUCTION_TOL * max(scale, 1e-300):
        raise NumericsError(
            f"spectral reconstruction failed for dim-{op.dim} operator "
            f"(residual {recon_dev:.3e}, scale {scale:.3e})"
        )
    return Eigensystem(
        energies=_frozen_array(energies, np.float64),
        basis=_frozen_array(basis, np.complex128),
    )


def to_eigenbasis(op: Operator, eig: Eigensystem) -> np.ndarray:
    """Matrix elements ``Q_nm = <n|Q|m>`` of ``op`` in the given eigenbasis."""
    if op.dim != eig.dim:
        raise ValueError(
            f"dimension mismatch: operator is dim {op.dim}, eigensystem is dim {eig.dim}"
        )
    return eig.basis.conj().T @ op.matrix @ eig.basis


def operator_norm(op: Operator) -> float:
    """Spectral norm (largest absolute eigenvalue) of a Hermitian operator."""
    return float(np.max(np.abs(np.linalg.eigvalsh(op.matrix))))
