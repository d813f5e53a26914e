"""Certified lower bounds on quantum Fisher information from temporal data.

Each bound converts measured correlation combinations into a device-relevant
lower bound on F_Q through a kernel maximum from :mod:`lgqfi.kernels`:

    pure eigenstate:   F_Q >= 8 [K(tau) - <Q^2>]
    thermal state:     F_Q >= [K(tau) - <Q^2>] / gamma(2 tau / beta)
    weak variant:      F_Q >= [K(tau) - 1] / gamma(2 tau / beta)   (<Q^2> <= 1)
    thermal time:      F_Q >= 7 [K(z tau_th) - <Q^2>] / (2 z^2),  z >= 1,
                       with tau_th = sqrt(2/7) beta
    p-time family:     F_Q >= [K_p(tau) - (p-2) <Q^2>] / gamma_p(p, 2 tau / beta)
    two-time:          F_Q >= [<Q^2> - C(tau)] / gamma_tilde(2 tau / beta)

For pure stationary states the same formulas hold with the zero-temperature
kernel limits (gamma -> 1/8, gamma_tilde -> 1/2, gamma_p -> h_p^max / 4).
Negative bound values are uninformative, never wrong; reports clamp them to
zero and flag the family.  A violated bound (lower above the actual F_Q
beyond tolerance) raises :class:`~lgqfi.errors.InvariantViolation`, since it
signals an implementation bug, not a physics outcome.

The module also hosts the entanglement-depth witness based on the
k-producibility ceiling of the rescaled collective generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InvariantViolation, _integer, _positive
from .kernels import gamma_batch, gamma_p_zero_temperature, gamma_tilde_zero_temperature
from .response import fsum_upper
from .spectral import SpectralData, correlator, qfi

__all__ = [
    "BoundReport",
    "BestBound",
    "thermal_time",
    "bound_pure",
    "bound_thermal",
    "bound_thermal_weak",
    "bound_thermal_time",
    "bound_two_time",
    "bound_Kp",
    "depth_witness",
    "build_report",
    "best_bound",
]

#: Slack allowed before declaring a bound violated (implementation bug).
THEOREM_TOL = 1e-9


def _kernel_maxima(family, taus: Sequence[float], beta: float) -> list[float]:
    """One family's kernel maximum at y = 2 tau / beta for every tau, in one call.

    ``family`` is 3 (gamma), 'tilde' or a p-time order p; beta = inf gives
    the zero-temperature limits.
    """
    if math.isinf(beta):
        return [gamma_tilde_zero_temperature() if family == "tilde"
                else gamma_p_zero_temperature(family)] * len(taus)
    return [r.value for r in gamma_batch(family, [2.0 * tau / beta for tau in taus])]


def thermal_time(beta: float) -> float:
    """Thermal time scale tau_th = sqrt(2/7) beta (finite beta only)."""
    beta = _positive(beta, "beta")
    if math.isinf(beta):
        raise ValueError("the thermal time is defined for finite beta only")
    return math.sqrt(2.0 / 7.0) * beta


def bound_pure(k_value: float, q2: float) -> float:
    """Pure-eigenstate bound F_Q >= 8 [K(tau) - <Q^2>]."""
    return 8.0 * (float(k_value) - float(q2))


def bound_thermal(k_value: float, q2: float, tau: float, beta: float) -> float:
    """Thermal bound F_Q >= [K(tau) - <Q^2>] / gamma(2 tau / beta).

    beta = inf uses the zero-temperature kernel limit 1/8 and reduces to the
    pure-eigenstate bound.
    """
    divisor = _kernel_maxima(3, [_positive(tau, "tau")], _positive(beta, "beta"))[0]
    return (float(k_value) - float(q2)) / divisor


def bound_thermal_weak(k_value: float, tau: float, beta: float) -> float:
    """Observable-independent variant F_Q >= [K(tau) - 1] / gamma(2 tau / beta).

    Valid when <Q^2> <= 1 (guaranteed for unit-norm observables); never
    stronger than :func:`bound_thermal` in that regime.
    """
    divisor = _kernel_maxima(3, [_positive(tau, "tau")], _positive(beta, "beta"))[0]
    return (float(k_value) - 1.0) / divisor


def bound_thermal_time(k_value: float, q2: float, z: float, beta: float) -> float:
    """Thermal bound in thermal-time units: F_Q >= 7 [K(z tau_th) - <Q^2>] / (2 z^2).

    ``k_value`` must be evaluated at tau = z * tau_th with z >= 1, where the
    kernel maximum is in closed form: gamma(2 z tau_th / beta) = 2 z^2 / 7.
    """
    z = float(z)
    if not z >= 1.0:
        raise ValueError(f"the thermal-time form requires z >= 1, got {z}")
    _positive(beta, "beta")
    return 7.0 * (float(k_value) - float(q2)) / (2.0 * z * z)


def bound_two_time(q2: float, c_tau: float, tau: float, beta: float) -> float:
    """Two-time bound F_Q >= [<Q^2> - C(tau)] / gamma_tilde(2 tau / beta).

    The numerator is nonnegative for any stationary state, so this bound is
    never negative (up to rounding).  beta = inf uses the zero-temperature
    limit gamma_tilde -> 1/2.
    """
    divisor = _kernel_maxima("tilde", [_positive(tau, "tau")], _positive(beta, "beta"))[0]
    return (float(q2) - float(c_tau)) / divisor


def bound_Kp(kp_value: float, q2: float, p: int, tau: float, beta: float) -> float:
    """p-time bound F_Q >= [K_p(tau) - (p-2) <Q^2>] / gamma_p(p, 2 tau / beta).

    p = 3 coincides bitwise with :func:`bound_thermal` because gamma_p
    delegates to gamma there.  At fixed tau and beta the bound decays like
    1/p^2, so small p carry the information.
    """
    divisor = _kernel_maxima(p, [_positive(tau, "tau")], _positive(beta, "beta"))[0]
    return (float(kp_value) - (p - 2) * float(q2)) / divisor


def depth_witness(f_q_tilde: float, n: int) -> int | None:
    """Entanglement depth certified by the rescaled collective QFI.

    A k-producible N-qubit state satisfies F_Q[Q_tilde] <= s k^2 + r^2 with
    s = floor(N/k) and r = N - s k.  The witness returns the certified depth
    k + 1 for the largest k in [1, N-1] whose ceiling is exceeded, or None
    when no product structure is excluded (F_Q[Q_tilde] <= N).
    """
    n = _integer(n, "n", 1)
    f_q_tilde = float(f_q_tilde)
    if not f_q_tilde >= 0.0:
        raise ValueError(f"F_Q must be nonnegative, got {f_q_tilde}")
    for k in range(n - 1, 0, -1):
        s, r = divmod(n, k)
        if f_q_tilde > s * k * k + r * r:
            return k + 1
    return None


@dataclass(frozen=True)
class BoundReport:
    """All bound families evaluated for one (instance, tau) point.

    Lower bounds are clamped to zero; families whose raw value was negative
    are listed in ``uninformative`` and their raw values kept in
    ``raw_lower`` for debugging.  ``slack`` holds F_Q minus each raw lower
    (and f-sum minus F_Q under the key 'fsum'); every entry is nonnegative
    by construction, up to the theorem tolerance and the line-merge error
    of C.  Bounds that do not apply to the state kind (the pure bound for
    finite-temperature states, the weak variant when <Q^2> > 1, the f-sum
    at infinite beta) are None.
    """

    tau: float
    beta: float | None
    tau_th: float | None
    q2_expect: float
    c_tau: float
    c_2tau: float
    k_tau: float
    kp_values: Mapping[int, float]
    f_q: float
    lower_pure: float | None
    lower_thermal: float
    lower_thermal_weak: float | None
    lower_two_time: float
    lower_kp: Mapping[int, float]
    fsum: float | None
    slack: Mapping[str, float]
    raw_lower: Mapping[str, float]
    uninformative: tuple[str, ...]
    depth: int | None

    def lowers(self, families: Mapping[str, bool] | None = None) -> list[tuple[str, float]]:
        """Clamped lower bounds as (family, value) pairs in column order.

        The order is that of ``raw_lower``: pure, thermal, thermal_weak,
        two_time, then kp_p in ``kp`` order, each present only when it
        applies to the state.  Families that ``families`` switches off are
        left out (absent keys count as on).
        """
        families = families or {}
        return [(name, max(value, 0.0)) for name, value in self.raw_lower.items()
                if families.get(name, True)]


def build_report(sd: SpectralData, tau: float, *, kp: Sequence[int] = (3, 4, 5),
                 include_fsum: bool = True,
                 collective_n: int | None = None) -> BoundReport:
    """Evaluate every applicable bound family at one tau and certify them.

    ``kp`` selects the p-time family members.  When ``collective_n`` is
    given the observable is taken to be the unit-norm collective
    magnetization of that many qubits, F_Q of the rescaled generator is
    obtained by exact quadratic scaling (N^2 F_Q / 4), and the
    entanglement-depth witness is evaluated.

    Raises :class:`~lgqfi.errors.InvariantViolation` when any computed lower
    bound exceeds F_Q beyond tolerance (or the f-sum falls below it); that
    is an implementation-bug signal, never a physics outcome.
    """
    return best_bound(sd, [tau], kp=kp, include_fsum=include_fsum,
                      collective_n=collective_n).reports[0]


def _family_bounds(div: Mapping, q2: float, pure_like: bool, k_tau: float, c_tau: float,
                   kp_vals: Mapping[int, float]) -> dict[str, float]:
    """Raw lower bound of every family at one tau, in column order, with
    ``div`` mapping 3, 'tilde' and each p to that tau's kernel maximum."""
    raw = {"pure": bound_pure(k_tau, q2)} if pure_like else {}
    raw["thermal"] = (float(k_tau) - float(q2)) / div[3]
    if q2 <= 1.0 + 1e-9:
        raw["thermal_weak"] = (float(k_tau) - 1.0) / div[3]
    raw["two_time"] = (float(q2) - float(c_tau)) / div["tilde"]
    raw.update({f"kp_{p}": (float(v) - (p - 2) * float(q2)) / div[p] for p, v in kp_vals.items()})
    return raw


@dataclass(frozen=True)
class BestBound:
    """Best certified lower bound over a tau grid, with all per-tau reports.

    ``family`` names the family that attains ``value`` at ``tau``; it is
    'none' (and ``value`` is -inf) when every family is switched off.
    """

    value: float
    tau: float
    reports: tuple[BoundReport, ...]
    family: str


def best_bound(sd: SpectralData, tau_grid: Sequence[float], *,
               kp: Sequence[int] = (3, 4, 5), include_fsum: bool = True,
               collective_n: int | None = None,
               families: Mapping[str, bool] | None = None) -> BestBound:
    """Evaluate the bound chain over a tau grid and pick the strongest bound.

    ``reports`` holds the :func:`build_report` of every tau.  What belongs
    to the instance (state kind, <Q^2>, F_Q, the f-sum and the depth
    witness) is computed once for the grid, and so is each family's kernel
    maximum at every tau, in one :func:`~lgqfi.kernels.gamma_batch` call;
    each tau then needs C only at the distinct times tau, 2 tau and
    (p-1) tau.  The best bound is the
    largest entry of :meth:`BoundReport.lowers` over the grid, with
    ``families`` switching families off.  Ties resolve to the earliest tau
    in grid order, then to the earliest family in column order, so the
    result is deterministic for a fixed grid.
    """
    taus = [_positive(t, "tau") for t in tau_grid]
    if not taus:
        raise ValueError("tau_grid must contain at least one time")
    state = sd.state
    pure_like = state.is_pure or (state.beta is not None and math.isinf(state.beta))
    beta = state.beta if state.kind == "thermal" else None
    kernel_beta = math.inf if pure_like else beta
    if kernel_beta is None:
        raise ValueError("cannot build a report for a state with no defined beta")

    q2 = sd.q2_expect
    f_q = qfi(sd)
    fsum = None
    if include_fsum and state.kind == "thermal" and not math.isinf(state.beta):
        fsum = fsum_upper(sd)
        if fsum < f_q - THEOREM_TOL:
            raise InvariantViolation(
                f"f-sum upper bound {fsum!r} fell below F_Q = {f_q!r}: "
                "implementation bug"
            )
    depth = None
    if collective_n is not None:
        f_tilde = collective_n * collective_n * f_q / 4.0
        depth = depth_witness(f_tilde, collective_n)
    tau_th = thermal_time(beta) if beta is not None and not math.isinf(beta) else None
    kp = [_integer(p, "p", 3) for p in kp]
    multiples = sorted({1, 2, *(p - 1 for p in kp)})

    # p = 3 is the thermal family's gamma, so kp (3, 4, 5) needs four calls
    maxima = {family: _kernel_maxima(family, taus, kernel_beta)
              for family in dict.fromkeys((3, "tilde", *kp))}

    reports = []
    for i, tau in enumerate(taus):
        div = {family: column[i] for family, column in maxima.items()}
        # K and K_p as in spectral.lgi_Kp, sharing one C per distinct time.
        c = {m: correlator(sd, m * tau) for m in multiples}
        k_tau = 2 * c[1] - c[2]
        kp_vals = {p: (p - 1) * c[1] - c[p - 1] for p in kp}
        raw = _family_bounds(div, q2, pure_like, k_tau, c[1], kp_vals)
        if any(value > f_q + THEOREM_TOL for value in raw.values()):
            # C is a line sum, within sd.merge_error(t) of the level-pair sum.
            # Every family rises with K and K_p and falls with C, so a bound
            # is violated only if it exceeds F_Q at the low end of that range.
            e = {m: sd.merge_error(m * tau) for m in multiples}
            floor = _family_bounds(div, q2, pure_like, k_tau - 2 * e[1] - e[2], c[1] + e[1],
                                   {p: v - (p - 1) * e[1] - e[p - 1] for p, v in kp_vals.items()})
            for name, value in raw.items():
                if floor[name] > f_q + THEOREM_TOL:
                    raise InvariantViolation(f"lower bound '{name}' = {value!r} exceeds F_Q = "
                                             f"{f_q!r} at tau = {tau}: implementation bug")

        slack = {name: f_q - value for name, value in raw.items()}
        if fsum is not None:
            slack["fsum"] = fsum - f_q
        uninformative = tuple(sorted(name for name, value in raw.items() if value < 0.0))
        clamped = {name: max(value, 0.0) for name, value in raw.items()}

        reports.append(BoundReport(
            tau=tau,
            beta=beta,
            tau_th=tau_th,
            q2_expect=q2,
            c_tau=c[1],
            c_2tau=c[2],
            k_tau=k_tau,
            kp_values=kp_vals,
            f_q=f_q,
            lower_pure=clamped.get("pure"),
            lower_thermal=clamped["thermal"],
            lower_thermal_weak=clamped.get("thermal_weak"),
            lower_two_time=clamped["two_time"],
            lower_kp={p: clamped[f"kp_{p}"] for p in kp_vals},
            fsum=fsum,
            slack=slack,
            raw_lower=raw,
            uninformative=uninformative,
            depth=depth,
        ))
    best_value, best_tau, best_family = -math.inf, taus[0], "none"
    for report in reports:
        for family, value in report.lowers(families):
            if value > best_value:
                best_value, best_tau, best_family = value, report.tau, family
    return BestBound(value=best_value, tau=best_tau, reports=tuple(reports),
                     family=best_family)
