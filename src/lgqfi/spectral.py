"""Stationary states, symmetrized correlators, LGI combinations, and QFI.

For a stationary state rho = sum_n p_n |n><n| diagonal in the energy
eigenbasis, the symmetrized two-time correlator of an observable Q is

    C(tau) = (1/2) <{Q(tau), Q}> = sum_{n,m} (1/2)(p_n + p_m) |Q_nm|^2
             * cos(omega_nm tau),            omega_nm = E_n - E_m.

:func:`spectral_data` merges the level pairs once per instance into the
transition lines read by :mod:`lgqfi.response` (frequencies chaining within
``LINE_MERGE_TOL`` share one line at their mean), and C is a line sum:

    C(tau) = w_S[0] + sum_{Delta > 0} (2 w_S + w_chi / pi) cos(Delta tau).

As |cos(a) - cos(b)| <= |a - b|, it is within ``line_span * |tau| * sum |c_l|``
of the pair sum, with c_l the line weights in C and ``line_span`` the widest
frequency range merged into one line (:meth:`SpectralData.merge_error`).

The three-time Leggett-Garg combination is K(tau) = 2 C(tau) - C(2 tau) with
macrorealist ceiling 1, and its p-time generalization is
K_p(tau) = (p-1) C(tau) - C((p-1) tau) with ceiling p - 2.  The quantum
Fisher information of rho with respect to Q is

    F_Q = sum_{n,m} 2 (p_n - p_m)^2 / (p_n + p_m) * |Q_nm|^2,

which for pure states reduces to four times the variance of Q; it stays a
level-pair sum, since non-thermal weights do not factor through Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, _integer, _positive
from .kernels import h_kernel
from .linalg import Eigensystem, Operator, _frozen_array, _state, to_eigenbasis

__all__ = [
    "StationaryState", "SpectralData", "make_state", "spectral_data", "correlator",
    "lgi_K", "lgi_Kp", "kappa_terms", "qfi", "f_terms", "qfi_pure",
]

#: Absolute window around the minimum energy that counts as the ground manifold.
GROUND_WINDOW = 1e-10

#: Weight-sum floor below which a QFI term is skipped as numerically empty.
WEIGHT_FLOOR = 1e-14

#: Frequencies closer than this are merged into a single line.
LINE_MERGE_TOL = 1e-10

#: Weight floor below which a line does not count for the infrared gap.
LINE_WEIGHT_FLOOR = 1e-14


@dataclass(frozen=True)
class StationaryState:
    """Stationary weights over an energy eigenbasis.

    ``kind`` is 'thermal' (Gibbs weights at inverse temperature ``beta``,
    with beta = inf meaning the uniform mixture over the numerically
    degenerate ground manifold) or 'pure' (one-hot weights on eigenlevel
    ``index``).  Weights are read-only and sum to 1 within 1e-12.
    """

    kind: str
    weights: np.ndarray
    beta: float | None = None
    index: int | None = None

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"


def make_state(eig: Eigensystem, *, beta: float | None = None,
               index: int | None = None) -> StationaryState:
    """Construct a stationary state over ``eig``: thermal or pure.

    Exactly one of ``beta`` (inverse temperature in (0, inf]) or ``index``
    (eigenlevel, 0-based) must be given.  beta = inf yields the uniform
    mixture over all levels within 1e-10 of the minimum energy, which is the
    T -> 0 limit of the Gibbs weights.
    """
    if (beta is None) == (index is None):
        raise ValueError("specify exactly one of beta (thermal) or index (pure)")
    energies = eig.energies
    dim = energies.shape[0]
    if index is not None:
        index = _integer(index, "eigenlevel index", 0, dim - 1)
        weights = np.zeros(dim)
        weights[index] = 1.0
        return StationaryState(kind="pure", weights=_frozen_array(weights, np.float64),
                               index=index)

    beta = _positive(beta, "inverse temperature beta")
    if math.isinf(beta):
        mask = energies - energies[0] <= GROUND_WINDOW
        weights = mask / np.count_nonzero(mask)
    else:
        shifted = -beta * (energies - energies[0])
        weights = np.exp(shifted)
        weights /= weights.sum()
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-12:
        raise InvariantViolation(f"stationary weights sum to {total}, not 1")
    return StationaryState(kind="thermal", weights=_frozen_array(weights, np.float64), beta=beta)


@dataclass(frozen=True)
class SpectralData:
    """Everything needed to evaluate correlators, QFI and response for one instance.

    ``elements`` holds Q in the energy eigenbasis and ``q2_expect`` is
    <Q^2> = Tr[rho Q^2].  ``delta``, ``w_s`` and ``w_chi`` are the transition
    lines, built once: ``delta`` ascends from ``delta[0] = 0``, the
    zero-frequency line of diagonal and degenerate-pair weight (its w_chi is
    identically 0).  ``line_span`` is the widest frequency range merged into
    one line, which bounds how far a pair frequency lies from its line.
    Arrays are read-only.
    """

    energies: np.ndarray
    elements: np.ndarray
    state: StationaryState
    q2_expect: float
    delta: np.ndarray
    w_s: np.ndarray
    w_chi: np.ndarray
    line_span: float
    _weight: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    @property
    def gibbs_beta(self) -> float | None:
        """Gibbs inverse temperature (inf for a pure nondegenerate ground level), else None."""
        if self.state.kind == "thermal":
            return self.state.beta
        manifold = self.energies - self.energies[0] <= GROUND_WINDOW
        nondegenerate = manifold[self.state.index] and np.count_nonzero(manifold) == 1
        return math.inf if nondegenerate else None

    @property
    def ground(self) -> bool:
        """Whether the state is supported on the ground manifold."""
        if self.state.kind == "thermal":
            return math.isinf(self.state.beta)
        return bool(self.energies[self.state.index] - self.energies[0] <= GROUND_WINDOW)

    @property
    def delta_ir(self) -> float:
        """Smallest positive line frequency carrying weight, or 0.0 if none."""
        weighted = np.flatnonzero(np.maximum(self.w_s, np.abs(self.w_chi) / math.pi)[1:]
                                  > LINE_WEIGHT_FLOOR)
        return float(self.delta[1 + weighted[0]]) if weighted.size else 0.0

    def merge_error(self, tau: float) -> float:
        """Largest |C(tau)| difference between the line and level-pair sums."""
        return self.line_span * abs(tau) * float(np.sum(np.abs(self._weight)))


def spectral_data(eig: Eigensystem, q: Operator, state: StationaryState) -> SpectralData:
    """Assemble :class:`SpectralData` from an eigensystem, observable, and state."""
    if state.dim != eig.dim:
        raise ValueError(f"dimension mismatch: state has dim {state.dim}, eigensystem {eig.dim}")
    weight_sum = float(np.sum(state.weights))
    if abs(weight_sum - 1.0) > 1e-12:
        raise InvariantViolation(f"stationary weights sum to {weight_sum!r}, expected 1")
    elements = to_eigenbasis(q, eig)
    herm_dev = float(np.max(np.abs(elements - elements.conj().T)))
    if herm_dev > 1e-10:
        raise InvariantViolation(
            f"observable lost Hermiticity in the eigenbasis (deviation {herm_dev:.3e})"
        )
    abs_sq = np.abs(elements) ** 2
    q2 = float(np.sum(state.weights[:, None] * abs_sq))
    delta, w_s, w_chi, span = _merge_lines(eig.energies, abs_sq, state.weights)
    weight = 2.0 * w_s + w_chi / math.pi
    weight[0] = w_s[0]
    delta, w_s, w_chi, weight = (_frozen_array(a, np.float64) for a in (delta, w_s, w_chi, weight))
    return SpectralData(energies=eig.energies, elements=elements, state=state, q2_expect=q2,
                        delta=delta, w_s=w_s, w_chi=w_chi, line_span=span, _weight=weight)


def _merge_lines(energies: np.ndarray, abs_sq: np.ndarray, p: np.ndarray):
    """Merge the level pairs of ascending ``energies`` into transition lines.

    w_S and w_chi are as in :mod:`lgqfi.response`; pairs within
    ``LINE_MERGE_TOL`` of Delta = 0 (and the diagonal) go on the zero line.
    Returns (delta, w_s, w_chi, line_span).
    """
    upper = np.triu(np.ones(abs_sq.shape, dtype=bool), 1)
    deltas = (energies[None, :] - energies[:, None])[upper]
    pair_sq = abs_sq[upper]
    p_lo, p_hi = (np.broadcast_to(v, abs_sq.shape)[upper] for v in (p[:, None], p[None, :]))
    zero = deltas <= LINE_MERGE_TOL
    w_s_zero = float(np.sum(p * np.diag(abs_sq)))
    w_s_zero += float(np.sum((p_lo[zero] + p_hi[zero]) * pair_sq[zero]))
    span = float(np.max(deltas[zero], initial=0.0))

    pair_ws, pair_wchi = p_lo * pair_sq, -math.pi * (p_lo - p_hi) * pair_sq
    del upper, pair_sq, p_lo, p_hi
    # zero-line frequencies sort first, so the positive pairs are the tail
    pos = np.argsort(deltas, kind="stable")[np.count_nonzero(zero):]
    pairs = [deltas[pos], pair_ws[pos], pair_wchi[pos]]
    del deltas, pair_ws, pair_wchi, pos

    starts = np.flatnonzero(np.diff(pairs[0], prepend=-np.inf) > LINE_MERGE_TOL)
    counts = np.diff(np.append(starts, pairs[0].shape[0]))
    span = max(span, float(np.max(pairs[0][starts + counts - 1] - pairs[0][starts],
                                  initial=0.0)))
    lines = np.zeros((3, starts.size + 1))
    lines[1, 0] = w_s_zero
    # equal-length rows summed along axis 1 get np.sum's pairwise summation;
    # np.add.reduceat sums sequentially and moves the last bits of the lines
    for size in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == size)
        members = starts[rows, None] + np.arange(size)
        for line, values in zip(lines, pairs):
            line[1 + rows] = values[members].sum(axis=1)
    lines[0, 1:] /= counts
    return (*lines, span)


def correlator(sd: SpectralData, tau):
    """Symmetrized correlator C(tau); accepts a scalar or an array of times.

    Evaluated over the transition lines.  C(0) = <Q^2> and C is even in tau;
    |C(tau)| never exceeds <Q^2>.  Raises ``ValueError`` naming tau where a
    phase delta * tau overflows, so C is not finite.
    """
    tau_arr = np.asarray(tau, dtype=np.float64)
    values = _cos_sum(np.atleast_1d(tau_arr), sd.delta, sd._weight)
    return float(values[0]) if tau_arr.ndim == 0 else values


def _cos_sum(taus: np.ndarray, freqs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] cos(freqs[k] tau) at each tau; ``ValueError`` if not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        values = np.cos(np.multiply.outer(taus, freqs)) @ weights
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"C(tau) is not finite at tau = {float(taus[bad[0]])!r}")
    return values


def lgi_Kp(sd: SpectralData, p: int, tau: float) -> float:
    """p-time Leggett-Garg combination K_p(tau) = (p-1) C(tau) - C((p-1) tau).

    Macrorealism at the p + 1 equally spaced times 0, tau, ..., (p-1) tau
    caps this at p - 2 (for dichotomic Q); p = 3 gives the standard
    three-time combination.
    """
    p = _integer(p, "p", 3)
    return float((p - 1) * correlator(sd, tau) - correlator(sd, (p - 1) * tau))


def lgi_K(sd: SpectralData, tau: float) -> float:
    """Three-time Leggett-Garg combination K(tau) = 2 C(tau) - C(2 tau)."""
    return lgi_Kp(sd, 3, tau)


def kappa_terms(sd: SpectralData, tau: float) -> np.ndarray:
    """Level-pair decomposition of K(tau) - <Q^2>.

    Returns the matrix kappa_nm = (1/2)(p_n + p_m) |Q_nm|^2 h(omega_nm tau),
    whose sum over all ordered pairs equals K(tau) - <Q^2> identically.
    """
    omega, weight = _pair_grid(sd)
    return weight * h_kernel(omega * tau)


def _pair_grid(sd: SpectralData) -> tuple[np.ndarray, np.ndarray]:
    p = sd.state.weights
    omega = sd.energies[:, None] - sd.energies[None, :]
    return omega, 0.5 * (p[:, None] + p[None, :]) * np.abs(sd.elements) ** 2


def _pair_correlator(sd: SpectralData, tau: float) -> float:
    """C(tau) as the unmerged level-pair sum, rebuilt on demand.

    Serves only the ``tfim`` preset: its (K - 1) / tau^2 columns amplify the
    last bit of K by 1e4 at tau = 0.01, and its reference output was
    recorded with this summation order.
    """
    omega, weight = _pair_grid(sd)
    return float(_cos_sum(np.array([float(tau)]), omega.ravel(), weight.ravel())[0])


def qfi(sd: SpectralData) -> float:
    """Quantum Fisher information of the stationary state with respect to Q.

    Terms with p_n + p_m <= 1e-14 are skipped (numerically empty support).
    Postconditions 0 <= F_Q <= 4 <Q^2> are enforced.
    """
    total = float(np.sum(f_terms(sd)))
    if total < -1e-12 or total > 4.0 * sd.q2_expect + 1e-9:
        raise InvariantViolation(
            f"QFI value {total} outside [0, 4 <Q^2>] with <Q^2> = {sd.q2_expect}"
        )
    return max(total, 0.0)


def f_terms(sd: SpectralData) -> np.ndarray:
    """Level-pair decomposition of the QFI.

    Returns the matrix f_nm = 2 (p_n - p_m)^2 / (p_n + p_m) |Q_nm|^2 (zero
    where the weight sum is numerically empty); F_Q is its total sum.
    """
    p = sd.state.weights
    p_sum = p[:, None] + p[None, :]
    p_diff = p[:, None] - p[None, :]
    abs_sq = np.abs(sd.elements) ** 2
    out = np.zeros_like(p_sum)
    mask = p_sum > WEIGHT_FLOOR
    out[mask] = 2.0 * (p_diff[mask] ** 2 / p_sum[mask]) * abs_sq[mask]
    return out


def qfi_pure(psi: np.ndarray, q: Operator | np.ndarray) -> float:
    """QFI of a pure state: F_Q = 4 (<Q^2> - <Q>^2).

    ``psi`` must be normalized within 1e-10.  Accepts an
    :class:`~lgqfi.linalg.Operator` or a raw Hermitian matrix.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    matrix = q.matrix if isinstance(q, Operator) else np.asarray(q, dtype=np.complex128)
    if psi.ndim != 1 or matrix.shape != (psi.size, psi.size):
        raise ValueError(f"qfi_pure takes a state vector and a matching square observable, "
                         f"got shapes {psi.shape} and {matrix.shape}")
    psi = _state(psi, psi.size)
    q_psi = matrix @ psi
    mean = float(np.real(np.vdot(psi, q_psi)))
    second = float(np.real(np.vdot(q_psi, q_psi)))
    return 4.0 * (second - mean * mean)
