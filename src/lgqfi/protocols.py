"""Measurement protocols for temporal correlations.

Every protocol runs on one :class:`ProtocolInstance`, which holds the state
and Q in H's and Q's eigenbases, where time evolution is a phase per level
and a projector a block of columns.  Three routes to the correlator:

* exact projective statistics: the joint outcome distribution of ideal
  projective measurements of Q at two times, with the correlator read off
  from it.  For dichotomic observables this equals the symmetrized
  correlator used throughout the rest of the package.
* Monte Carlo sampling of the same joint distribution with a counter-based
  generator, so results are reproducible for a fixed seed and independent
  of shot-evaluation order.
* a weak two-meter scheme: both times are read out through Gaussian meters
  of coupling ``lam`` and position spread ``delta_x``; the expectation of
  the product of pointer readings is computed in closed form.  For
  dichotomic observables it is exactly meter-independent; in general it
  approaches the symmetrized correlator quadratically as the meters widen.

A macrorealist oracle evaluates K directly from any explicit joint
probability table, certifying that classical (non-invasively measurable)
statistics can never violate the three-time inequality.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, _integer
from .linalg import Eigensystem, Operator, _state, hermitian_eig, to_eigenbasis
from .spectral import StationaryState

__all__ = [
    "MeterConfig",
    "ProtocolEstimate",
    "JointDistribution",
    "ProtocolInstance",
    "cluster_eigenvalues",
    "projective_joint",
    "projective_mc",
    "symmetrized_correlator",
    "weak_two_meter",
    "lgi_from_protocol",
    "macrorealist_oracle",
    "noisy_readout_correlator",
]

#: Eigenvalues of Q closer than this are treated as one measurement outcome.
OUTCOME_TOL = 1e-9

_MAX_SEED = 2**64
#: Shots drawn per block in ``projective_mc`` (512 KB of uniforms at a time).
_MC_BLOCK = 1 << 16


@dataclass(frozen=True)
class MeterConfig:
    """Gaussian meter parameters for the weak two-meter scheme."""

    coupling: float
    width: float

    def __post_init__(self) -> None:
        if not 0.0 < self.coupling < math.inf:
            raise ValueError(f"meter coupling must be positive and finite, got {self.coupling}")
        if not 0.0 <= self.width < math.inf:
            raise ValueError(f"meter width must be nonnegative and finite, got {self.width}")


@dataclass(frozen=True)
class ProtocolEstimate:
    """A correlator estimate with its statistical error and exact reference.

    ``stderr`` is zero for exact (non-sampled) protocols.  ``within_gate``
    reports whether a sampled estimate sits within five standard errors of
    the exact reference; it is None for exact protocols, where the
    comparison carries no statistical meaning.
    """

    value: float
    stderr: float
    shots: int
    exact_ref: float
    seed: int | None
    times: tuple[float, float]

    @property
    def within_gate(self) -> bool | None:
        if self.seed is None:
            return None
        return abs(self.value - self.exact_ref) <= 5.0 * self.stderr


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome probabilities of projective Q measurements at two times.

    ``probs[a, b]`` is the probability of Q's outcome ``outcomes[a]`` at the
    first time and ``outcomes[b]`` at the second.
    """

    outcomes: np.ndarray
    probs: np.ndarray
    times: tuple[float, float]

    def correlator(self) -> float:
        """E[q(t1) q(t2)] under this joint distribution."""
        return float(np.einsum("a,b,ab->", self.outcomes, self.outcomes, self.probs).real)


def cluster_eigenvalues(values: np.ndarray, tol: float = OUTCOME_TOL):
    """Group sorted eigenvalues into measurement outcomes within ``tol``.

    Returns (outcome values, list of index arrays into ``values``).
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and values[idx] - values[clusters[-1][0]] <= tol:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    outcomes = np.array([values[c].mean() for c in clusters])
    members = [np.array(c, dtype=int) for c in clusters]
    return outcomes, members


def _as_weights(state: StationaryState, dim: int) -> np.ndarray:
    """The state's weights, held to the checks :func:`~lgqfi.linalg._state` makes of rho."""
    weights = np.asarray(state.weights, dtype=np.float64)
    if weights.shape != (dim,) or not weights.min() >= 0.0 or abs(weights.sum() - 1.0) > 1e-10:
        raise ValueError(f"stationary weights must be {dim} nonnegative numbers summing "
                         "to 1 within 1e-10")
    return weights


@dataclass(frozen=True, eq=False)
class ProtocolInstance:
    """One validated (H, Q, state) instance, shared by every protocol run on it.

    Built as ``ProtocolInstance(h_eig, q, rho)`` from H's eigensystem (basis
    V), Q and a state vector, a density matrix or a
    :class:`~lgqfi.spectral.StationaryState` over ``h_eig``, whose weights
    are rho's diagonal in H's basis.  Made once: the overlap
    ``overlap = V^+ W`` with Q's eigenbasis W (eigenvalues ``q_values``,
    grouped into ``outcomes`` by column indices ``members``), the state and
    Q in H's basis (``rho_h``, ``q_h``) and the state in Q's basis (``rho_w``).
    """

    h_eig: Eigensystem
    q: Operator
    rho: InitVar[np.ndarray | StationaryState]
    outcomes: np.ndarray = field(init=False)
    members: tuple[np.ndarray, ...] = field(init=False)
    q_values: np.ndarray = field(init=False)
    overlap: np.ndarray = field(init=False)
    rho_h: np.ndarray = field(init=False)
    q_h: np.ndarray = field(init=False)
    rho_w: np.ndarray = field(init=False)

    def __post_init__(self, rho: np.ndarray | StationaryState) -> None:
        dim, v = self.h_eig.dim, self.h_eig.basis
        if dim != self.q.dim:
            raise ValueError(f"H has dimension {dim} but Q has dimension {self.q.dim}")
        if isinstance(rho, StationaryState):
            rho_h = np.diag(_as_weights(rho, dim).astype(np.complex128))
        else:
            rho = _state(rho, dim)
            rho_h = v.conj().T @ (np.outer(rho, rho.conj()) if rho.ndim == 1 else rho) @ v
        q_eig = hermitian_eig(self.q)
        outcomes, members = cluster_eigenvalues(q_eig.energies)
        overlap = v.conj().T @ q_eig.basis
        for name, value in (("outcomes", outcomes), ("members", tuple(members)),
                            ("q_values", q_eig.energies), ("overlap", overlap),
                            ("rho_h", rho_h), ("q_h", to_eigenbasis(self.q, self.h_eig)),
                            ("rho_w", overlap.conj().T @ rho_h @ overlap)):
            object.__setattr__(self, name, value)


def projective_joint(inst: ProtocolInstance, t1: float, t2: float) -> JointDistribution:
    """Exact joint statistics of projective Q measurements at t1 then t2.

    The first measurement collapses the state onto the outcome eigenspace;
    the collapsed state evolves to t2 and is measured again:

        p(a, b) = Tr[ P_b U P_a U_1 rho U_1^+ P_a U^+ ],   U = U(t2 - t1).

    In Q's basis, with U~ = W^+ U W and rho~ = W^+ rho(t1) W, p(a, b) sums
    the diagonal of U~[:, a] rho~[a, a] U~[:, a]^+ over b's rows.
    """
    t1, t2 = float(t1), float(t2)
    if t2 < t1:
        raise ValueError(f"measurement times must be ordered, got t1={t1} > t2={t2}")
    ph, ov = np.exp(-1j * inst.h_eig.energies * t1), inst.overlap
    rho_ov = (ph[:, None] * inst.rho_h * ph.conj()) @ ov  # rho(t1) in H's basis, times V^+ W
    u_gap = (ov.conj().T * np.exp(-1j * inst.h_eig.energies * (t2 - t1))) @ ov

    probs = np.empty((len(inst.outcomes), len(inst.outcomes)))
    for a, cols in enumerate(inst.members):
        u_a = u_gap[:, cols]
        diag = ((u_a @ (ov[:, cols].conj().T @ rho_ov[:, cols])) * u_a.conj()).real.sum(axis=1)
        probs[a] = [diag[rows].sum() for rows in inst.members]
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-10:  # NaN fails
        raise InvariantViolation(
            f"projective joint probabilities sum to {total!r}, expected 1"
        )
    return JointDistribution(outcomes=inst.outcomes, probs=probs, times=(t1, t2))


def projective_mc(inst: ProtocolInstance, t1: float, t2: float, shots: int,
                  seed: int) -> ProtocolEstimate:
    """Monte Carlo estimate of the projective two-time correlator.

    Sampling uses a counter-based generator keyed by ``seed``: each shot
    consumes a fixed amount of counter stream, so the estimate is bitwise
    reproducible for the same seed regardless of how the draw is batched.
    The returned standard error uses the unbiased sample variance.
    """
    shots, seed = _integer(shots, "shots", 1), _integer(seed, "seed", 0, _MAX_SEED - 1)

    joint = projective_joint(inst, t1, t2)
    flat_probs = joint.probs.ravel()
    flat_products = np.outer(joint.outcomes, joint.outcomes).ravel()
    cdf = np.cumsum(flat_probs)
    cdf[-1] = 1.0

    rng = np.random.Generator(np.random.Philox(key=seed))
    # one stream drawn block by block: no second shot-sized array is ever live
    samples = np.empty(shots)
    for lo in range(0, shots, _MC_BLOCK):
        block = samples[lo:lo + _MC_BLOCK]
        block[:] = flat_products[np.searchsorted(cdf, rng.random(block.size), side="right")]

    value = float(samples.mean())
    # samples.std(ddof=1), with its deviations and squares written in place
    samples -= value
    stderr = (math.sqrt(float(np.square(samples, out=samples).sum()) / (shots - 1))
              / math.sqrt(shots)) if shots > 1 else 0.0
    return ProtocolEstimate(value=value, stderr=stderr, shots=shots,
                            exact_ref=joint.correlator(), seed=seed,
                            times=(float(t1), float(t2)))


def _heisenberg_h(inst: ProtocolInstance, t: float) -> np.ndarray:
    """Q(t) = U(t)^+ Q U(t) in H's basis."""
    ph = np.exp(-1j * inst.h_eig.energies * t)
    return ph.conj()[:, None] * inst.q_h * ph


def symmetrized_correlator(inst: ProtocolInstance, t1: float, t2: float) -> float:
    """Symmetrized correlator (1/2) Tr[rho {Q(t1), Q(t2)}] for any state.

    Summed in H's basis as (1/2) Tr[(rho Q1 + Q1 rho) Q2], by cyclicity.
    """
    q1 = _heisenberg_h(inst, float(t1))
    q2 = _heisenberg_h(inst, float(t2))
    return float(0.5 * np.sum((inst.rho_h @ q1 + q1 @ inst.rho_h) * q2.T).real)


def weak_two_meter(inst: ProtocolInstance, tau: float,
                   meters: Sequence[MeterConfig]) -> tuple[ProtocolEstimate, ...]:
    """Closed-form weak two-meter correlator estimates at times (0, tau).

    For each ``cfg`` in ``meters``, both readouts couple Q to the position of
    a Gaussian meter of spread ``cfg.width``; the rescaled product of pointer
    readings has expectation

        C~ = Re sum_{nm} Q(tau)_nm rho_mn (q_n + q_m)/2
             * exp[-lam^2 (q_n - q_m)^2 DX^2 / 2]

    in the Q eigenbasis; only the Gaussian factor depends on the meter.  It
    encodes the measurement back-action and disappears for dichotomic
    observables, where the weak scheme reproduces the symmetrized correlator
    at any meter strength.
    """
    tau = float(tau)
    qvals = inst.q_values
    q_tau_w = inst.overlap.conj().T @ _heisenberg_h(inst, tau) @ inst.overlap
    weighted = q_tau_w * inst.rho_w.T * (0.5 * (qvals[:, None] + qvals[None, :]))
    gap = qvals[:, None] - qvals[None, :]
    exact = symmetrized_correlator(inst, 0.0, tau)
    estimates = []
    for cfg in meters:
        value_c = np.sum(weighted * np.exp(-0.5 * (cfg.coupling * cfg.width * gap) ** 2))
        if abs(value_c.imag) > 1e-10:
            raise InvariantViolation(f"weak-meter correlator has imaginary part {value_c.imag!r}")
        estimates.append(ProtocolEstimate(value=float(value_c.real), stderr=0.0, shots=0,
                                          exact_ref=exact, seed=None, times=(0.0, tau)))
    return tuple(estimates)


def lgi_from_protocol(e12: ProtocolEstimate, e23: ProtocolEstimate,
                      e13: ProtocolEstimate) -> ProtocolEstimate:
    """Combine three pair estimates into K = C12 + C23 - C13.

    The three estimates must come from equally spaced times: t2 - t1 and
    t3 - t2 equal within 1e-12, and the (1,3) pair spanning their sum.
    Standard errors combine in quadrature (independent runs assumed).
    """
    gap12 = e12.times[1] - e12.times[0]
    gap23 = e23.times[1] - e23.times[0]
    gap13 = e13.times[1] - e13.times[0]
    if abs(gap12 - gap23) > 1e-12:
        raise ValueError(
            f"time spacings differ: t2-t1 = {gap12!r}, t3-t2 = {gap23!r}"
        )
    if abs(gap13 - (gap12 + gap23)) > 1e-12:
        raise ValueError(
            f"outer spacing {gap13!r} is not the sum of the inner spacings"
        )
    value = e12.value + e23.value - e13.value
    stderr = math.sqrt(e12.stderr**2 + e23.stderr**2 + e13.stderr**2)
    exact = e12.exact_ref + e23.exact_ref - e13.exact_ref
    shots = e12.shots + e23.shots + e13.shots
    seed = e12.seed if (e12.seed == e23.seed == e13.seed) else None
    return ProtocolEstimate(value=value, stderr=stderr, shots=shots,
                            exact_ref=exact, seed=seed,
                            times=(e12.times[0], e13.times[1]))


def macrorealist_oracle(probs: np.ndarray, outcomes1: np.ndarray,
                        outcomes2: np.ndarray, outcomes3: np.ndarray):
    """Evaluate K for an explicit three-time joint probability table.

    ``probs[a, b, c]`` is the probability of outcomes
    (outcomes1[a], outcomes2[b], outcomes3[c]); all outcome magnitudes must
    be at most 1.  Returns (K, satisfied) where ``satisfied`` certifies
    K <= 1 within 1e-12 — guaranteed for any valid table, which is the
    defining property of macrorealist statistics.
    """
    probs = np.asarray(probs, dtype=float)
    q1 = np.asarray(outcomes1, dtype=float)
    q2 = np.asarray(outcomes2, dtype=float)
    q3 = np.asarray(outcomes3, dtype=float)
    if probs.shape != (q1.size, q2.size, q3.size):
        raise ValueError(
            f"probability table shape {probs.shape} does not match outcome "
            f"grid sizes ({q1.size}, {q2.size}, {q3.size})"
        )
    for name, q in (("first", q1), ("second", q2), ("third", q3)):
        if not np.max(np.abs(q)) <= 1.0 + 1e-12:
            raise ValueError(f"{name} outcome grid exceeds magnitude 1")
    if not probs.min() >= -1e-15:
        raise ValueError(f"negative probability {probs.min()!r} in table")
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"probability table sums to {total!r}, expected 1")

    c12 = float(np.einsum("abc,a,b->", probs, q1, q2))
    c23 = float(np.einsum("abc,b,c->", probs, q2, q3))
    c13 = float(np.einsum("abc,a,c->", probs, q1, q3))
    k_value = c12 + c23 - c13
    return k_value, bool(k_value <= 1.0 + 1e-12)


def noisy_readout_correlator(q0: np.ndarray, qtau: np.ndarray,
                             noise_variance: float, seed: int,
                             noise: tuple[np.ndarray, np.ndarray] | None = None
                             ) -> ProtocolEstimate:
    """Correlator of readout records m_i = q(t_i) + xi_i with additive noise.

    Independent zero-mean readout noise leaves the product correlator
    unbiased: E[m1 m2] = E[q(0) q(tau)].  ``noise`` may supply an explicit
    pair of noise records (overriding the generator) so correlated-noise
    bias can be demonstrated directly.
    """
    seed = _integer(seed, "seed", 0, _MAX_SEED - 1)
    q0 = np.asarray(q0, dtype=float)
    qtau = np.asarray(qtau, dtype=float)
    if q0.shape != qtau.shape or q0.ndim != 1:
        raise ValueError("readout records must be 1-D arrays of equal length")
    if not 0.0 <= noise_variance < math.inf:
        raise ValueError(f"noise variance must be nonnegative and finite, got {noise_variance}")
    shots = q0.size
    if shots < 2:
        raise ValueError(f"need at least 2 shots, got {shots}")
    if noise is None:
        rng = np.random.Generator(np.random.Philox(key=seed))
        sigma = math.sqrt(noise_variance)
        xi1 = rng.normal(0.0, sigma, size=shots)
        xi2 = rng.normal(0.0, sigma, size=shots)
    else:
        xi1 = np.asarray(noise[0], dtype=float)
        xi2 = np.asarray(noise[1], dtype=float)
        if xi1.shape != q0.shape or xi2.shape != q0.shape:
            raise ValueError("explicit noise records must match the readout shape")
    products = (q0 + xi1) * (qtau + xi2)
    value = float(products.mean())
    stderr = float(products.std(ddof=1) / math.sqrt(shots))
    return ProtocolEstimate(value=value, stderr=stderr, shots=shots,
                            exact_ref=float(np.mean(q0 * qtau)), seed=seed,
                            times=(0.0, math.nan))
