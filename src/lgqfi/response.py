"""Response-based QFI, sum rules, and the Holevo weight of a transition spectrum.

For a stationary state with weights p_n the two-point function of Q defines
a discrete transition spectrum: at each positive Bohr frequency
Delta = E_m - E_n (level n below m) the absorption weight and the
dissipative response weight are

    w_S(Delta)   = sum p_n |Q_nm|^2        (structure-factor line)
    w_chi(Delta) = -pi (p_n - p_m) |Q_nm|^2   (chi'' line, <= 0 thermally)

with diagonal and degenerate-pair contributions carried on a separate
zero-frequency line.  :func:`lgqfi.spectral.spectral_data` merges the level
pairs into these lines once per instance; C(tau) and every function here
read them, with the state's classification (``gibbs_beta``, ``ground``,
``delta_ir``), from one :class:`~lgqfi.spectral.SpectralData`.  Each is a
weighted sum over lines:

* QFI through the fluctuation-dissipation identity
  F_Q = -(4/pi) sum tanh(beta Delta / 2) w_chi(Delta), exact for thermal
  states;
* the f-sum upper bound F_Q <= -(2 beta / pi) sum Delta w_chi(Delta),
  which also equals the high-frequency tail beta lim omega^2 chi'(omega)
  by Kramers-Kronig (documented identity, single implementation);
* zero-temperature spectral moments M_n = -(1/pi) sum Delta^n w_chi and the
  gap bound M_n >= Delta_IR^(n-2) M_2;
* the Holevo weight H_QQ = sum w_S(Delta) * beta Delta / (e^(beta Delta)-1),
  bounded below by correlation data through the termwise factor gamma_H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _integer, _positive
from .kernels import _maximize, h_kernel
from .linalg import Operator, _state
from .spectral import LINE_MERGE_TOL, SpectralData

__all__ = [
    "HolevoBound", "qfi_response", "fsum_upper", "m2_moment", "m2_commutator", "mn_moment",
    "mn_gapped_lower", "holevo", "gamma_H", "holevo_bound", "export_spectrum",
]

#: Largest z with e^z finite in double precision.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _require_thermal(sd: SpectralData, what: str) -> float:
    beta = sd.gibbs_beta
    if beta is None:
        raise ValueError(
            f"{what} requires Gibbs weights; this spectrum was built from a "
            "non-thermal stationary state"
        )
    return beta


def qfi_response(sd: SpectralData) -> float:
    """QFI from the dissipative response:
    F_Q = -(4/pi) sum tanh(beta Delta / 2) w_chi(Delta).

    Exact for thermal states (beta = inf included); raises ``ValueError``
    for spectra built from non-thermal states, where the identity fails.
    """
    beta = _require_thermal(sd, "the response-based QFI")
    delta = sd.delta[1:]
    w_chi = sd.w_chi[1:]
    factor = np.ones_like(delta) if math.isinf(beta) else np.tanh(0.5 * beta * delta)
    return float(-(4.0 / math.pi) * np.sum(factor * w_chi))


def fsum_upper(sd: SpectralData) -> float:
    """f-sum upper bound on the QFI: -(2 beta / pi) sum Delta w_chi(Delta).

    Follows from tanh(z) <= z applied linewise, so it always dominates
    :func:`qfi_response`.  Equal to the high-frequency response tail
    beta lim omega^2 chi'(omega) by Kramers-Kronig.  Diverges (returns inf)
    at beta = inf.
    """
    beta = _require_thermal(sd, "the f-sum bound")
    if math.isinf(beta):
        return math.inf
    return float(-(2.0 * beta / math.pi) * np.sum(sd.delta[1:] * sd.w_chi[1:]))


def m2_moment(sd: SpectralData) -> float:
    """Second spectral moment M_2 = -(1/pi) sum Delta^2 w_chi at T = 0.

    Equals the commutator expectation <[H, Q]^dag [H, Q]> in the ground
    state (see :func:`m2_commutator` for the independent evaluation).
    """
    return mn_moment(sd, 2)


def m2_commutator(h_op: Operator, q_op: Operator, state: np.ndarray) -> float:
    """M_2 evaluated directly as <[H, Q]^dag [H, Q]> in the original basis.

    ``state`` may be a normalized vector or a density matrix supported on
    the ground manifold.  This path never touches the eigendecomposition,
    so it cross-checks the spectral sum in :func:`m2_moment`.
    """
    if h_op.dim != q_op.dim:
        raise ValueError(f"dimension mismatch: H is dim {h_op.dim}, Q is dim {q_op.dim}")
    comm = h_op.matrix @ q_op.matrix - q_op.matrix @ h_op.matrix
    state = _state(state, h_op.dim)
    if state.ndim == 1:
        image = comm @ state
        return float(np.real(np.vdot(image, image)))
    return float(np.real(np.trace(state @ comm.conj().T @ comm)))


def mn_moment(sd: SpectralData, order: int) -> float:
    """n-th spectral moment M_n = -(1/pi) sum Delta^n w_chi at T = 0.

    Requires integer order >= 2; order 2 reproduces :func:`m2_moment`.
    Raises ``ValueError`` naming the order when M_n is not finite.
    """
    order = _integer(order, "moment order", 2)
    if not sd.ground:
        raise ValueError(f"M_{order} is a zero-temperature quantity; build the "
                         "spectrum from a ground-manifold state")
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        moment = float(-(1.0 / math.pi) * np.sum(sd.delta[1:] ** order * sd.w_chi[1:]))
    if not math.isfinite(moment):
        raise ValueError(f"M_{order} is not finite: Delta^{order} overflows")
    return moment


def mn_gapped_lower(sd: SpectralData, order: int) -> float | None:
    """Gap lower bound Delta_IR^(n-2) M_2 on M_n, or None when gapless.

    The bound applies only when the spectrum has an infrared gap
    (delta_ir > 0); gapless instances return None so callers can skip the
    comparison explicitly.  Requires integer order >= 2, like :func:`mn_moment`.
    """
    order = _integer(order, "moment order", 2)
    delta_ir = sd.delta_ir
    if delta_ir <= LINE_MERGE_TOL:
        return None
    return float(delta_ir ** (order - 2) * m2_moment(sd))


def holevo(sd: SpectralData, include_zero: bool = True) -> float:
    """Holevo spectral weight H_QQ = sum w_S(Delta) beta Delta / (e^(beta Delta) - 1).

    The thermal kernel weights each structure-factor line by the detailed
    balance factor; the zero-frequency line enters with kernel value 1 and
    is included by default (``include_zero=False`` drops it, which matters
    for observables with diagonal weight).  At beta = inf every positive
    line is exponentially suppressed to zero.
    """
    beta = _require_thermal(sd, "the Holevo weight")
    delta = sd.delta[1:]
    if math.isinf(beta):
        total = 0.0
    else:
        with np.errstate(over="ignore"):
            kernel = np.where(delta > 0.0, beta * delta / np.expm1(beta * delta), 1.0)
        total = float(np.sum(sd.w_s[1:] * kernel))
    if include_zero:
        total += float(sd.w_s[0])
    return total


def gamma_H(beta: float, tau: float, omega_star: float) -> float:
    """Termwise conversion factor between correlation data and H_QQ.

    gamma_H = max over omega in (0, omega_star] of
    (1 + e^(-beta omega)) * max(h(omega tau), 0) * (e^(beta omega) - 1) / (beta omega),
    built so that each line satisfies
    (p_n + p_m) |Q_nm|^2 h(Delta tau) <= gamma_H * w_S(Delta) * kernel(Delta)
    for Gibbs weights, giving H_QQ >= [K(tau) - <Q^2>] / gamma_H whenever
    the spectrum lies below omega_star.  The maximizer probes 64 times per
    period 2 pi / tau and raises ValueError past omega_star * tau = 1.96e5.
    It raises ValueError before probing once beta * omega_star passes
    ln(float max) ~ 709.78, where e^(beta omega) overflows and the maximum
    is not finite.
    """
    beta = float(beta)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    tau, omega_star = _positive(tau, "tau"), _positive(omega_star, "omega_star")
    if beta * omega_star > _LOG_FLOAT_MAX:
        raise ValueError(f"gamma_H is not finite at beta * omega_star = "
                         f"{beta * omega_star:g}: e^(beta omega) overflows past "
                         f"{_LOG_FLOAT_MAX:.6g}")

    def phi(omega: np.ndarray) -> np.ndarray:
        z = beta * omega
        h_pos = np.maximum(h_kernel(omega * tau), 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            return (1.0 + np.exp(-z)) * h_pos * np.expm1(z) / z

    _, (value,) = _maximize(lambda omega, _: phi(omega), [0.0], 0.0, omega_star,
                            omega_star * tau / (2.0 * math.pi),
                            f"gamma_H with omega_star * tau = {omega_star * tau:g}")
    return float(value)


@dataclass(frozen=True)
class HolevoBound:
    """Outcome of the correlation-based lower bound on the Holevo weight."""

    applicable: bool
    gamma_h: float
    lower: float


def holevo_bound(sd: SpectralData, tau: float, omega_star: float,
                 k_value: float, q2: float) -> HolevoBound:
    """Correlation lower bound H_QQ >= [K(tau) - <Q^2>] / gamma_H.

    The construction covers the spectrum only up to ``omega_star``; when a
    line lies above it the bound is reported inapplicable rather than
    evaluated.
    """
    beta = _require_thermal(sd, "the Holevo bound")
    if math.isinf(beta):
        raise ValueError("the Holevo bound requires a finite inverse temperature")
    if omega_star < float(sd.delta[-1]) - 1e-12:
        return HolevoBound(applicable=False, gamma_h=math.nan, lower=math.nan)
    g = gamma_H(beta, tau, omega_star)
    if g <= 0.0:
        # every pair kernel is non-positive, so K - <Q^2> <= 0 and any
        # nonnegative H_QQ satisfies the bound trivially
        return HolevoBound(applicable=True, gamma_h=g, lower=0.0)
    return HolevoBound(applicable=True, gamma_h=g, lower=(k_value - q2) / g)


def export_spectrum(sd: SpectralData, path: str) -> None:
    """Write the transition lines to ``path`` as CSV (delta, w_S, w_chi)."""
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write("delta,w_S,w_chi\n")
        for delta, w_s, w_chi in zip(sd.delta, sd.w_s, sd.w_chi):
            stream.write(f"{delta:.17g},{w_s:.17g},{w_chi:.17g}\n")
