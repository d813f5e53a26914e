"""Shared helpers: random instances and independent numerical oracles.

The oracles deliberately avoid the package's spectral code paths: time
evolution goes through ``scipy.linalg.expm``, Gibbs states through a direct
matrix exponential, and the Fisher-information oracle through the Uhlmann
fidelity of a finitely rotated state.  Agreement between these and the
package is therefore a cross-implementation check, not a tautology.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from lgqfi.linalg import Eigensystem, Operator, hermitian_eig
from lgqfi.spectral import SpectralData, StationaryState, make_state, spectral_data


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


def random_unit_observable(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian matrix rescaled to unit spectral norm."""
    q = random_hermitian(rng, dim)
    return q / np.max(np.abs(np.linalg.eigvalsh(q)))


class Instance(NamedTuple):
    h: Operator
    q: Operator
    eig: Eigensystem
    state: StationaryState
    sd: SpectralData
    beta: float


def random_thermal_instance(rng: np.random.Generator, dim: int,
                            beta: float) -> Instance:
    h = Operator(random_hermitian(rng, dim))
    q = Operator(random_unit_observable(rng, dim))
    eig = hermitian_eig(h)
    state = make_state(eig, beta=beta)
    return Instance(h, q, eig, state, spectral_data(eig, q, state), beta)


def random_ground_instance(rng: np.random.Generator, dim: int) -> Instance:
    h = Operator(random_hermitian(rng, dim))
    q = Operator(random_unit_observable(rng, dim))
    eig = hermitian_eig(h)
    state = make_state(eig, index=0)
    return Instance(h, q, eig, state, spectral_data(eig, q, state), np.inf)


def chained_gap_instance(rng: np.random.Generator, beta: float) -> Instance:
    """Diagonal H whose levels 1 + k * 0.9e-10 chain, step by step, within the
    1e-10 line-merge tolerance, so merged lines span up to ~8e-10."""
    cluster = 1.0 + 0.9e-10 * np.arange(10)
    energies = np.concatenate(([0.0], cluster, [2.5, 3.7]))
    h = Operator(np.diag(energies).astype(complex))
    q = Operator(random_unit_observable(rng, energies.shape[0]))
    eig = hermitian_eig(h)
    state = make_state(eig, beta=beta)
    return Instance(h, q, eig, state, spectral_data(eig, q, state), beta)


def gibbs_density(h_matrix: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs state exp(-beta H)/Z via a direct matrix exponential."""
    shifted = h_matrix - np.min(np.linalg.eigvalsh(h_matrix)) * np.eye(h_matrix.shape[0])
    rho = scipy.linalg.expm(-beta * np.asarray(shifted, dtype=complex))
    return rho / np.trace(rho).real


def oracle_correlator(h_matrix: np.ndarray, q_matrix: np.ndarray,
                      rho: np.ndarray, tau: float) -> float:
    """(1/2) Tr[rho {Q(tau), Q}] with Q(tau) = expm(iHt) Q expm(-iHt)."""
    u = scipy.linalg.expm(-1j * np.asarray(h_matrix, dtype=complex) * tau)
    q_t = u.conj().T @ q_matrix @ u
    anti = q_t @ q_matrix + q_matrix @ q_t
    return float((0.5 * np.trace(rho @ anti)).real)


def _uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    sqrt_rho = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    ev = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(ev)) ** 2)


def oracle_qfi_fidelity(rho: np.ndarray, q_matrix: np.ndarray,
                        dtheta: float = 1e-3) -> float:
    """QFI from the Bures expansion sqrt(F) = 1 - F_Q dtheta^2 / 8 + ...

    Second-order accurate central estimate; adequate for rtol ~ 1e-4 on
    full-rank states.
    """
    u = scipy.linalg.expm(-1j * dtheta * np.asarray(q_matrix, dtype=complex))
    rotated = u @ rho @ u.conj().T
    return 8.0 * (1.0 - np.sqrt(_uhlmann_fidelity(rho, rotated))) / dtheta**2
