"""Hamiltonian/observable builders for the systems studied in this package.

All builders return ``(H, Q)`` pairs of :class:`~lgqfi.linalg.Operator` with
hbar = k_B = 1.  Spin chains use the computational basis with site 1 as the
most significant qubit, and the single-site convention sigma_z = diag(+1, -1)
with basis (up, down).

Available systems:

* a single qubit with Hamiltonian (epsilon/2) sigma_z probed along a tilted
  axis Q = sin(theta) sigma_x + cos(theta) sigma_z;
* the transverse-field Ising chain
  H = -J sum_a sigma^z_a sigma^z_{a+1} - h sum_a sigma^x_a
  probed by a single-site magnetization sigma^z_a;
* a GHZ-generating chain (Ising coupling plus a collective flip term
  (Omega/2) prod_a sigma^x_a) together with its exact two-level reduction on
  the GHZ doublet;
* collective magnetization observables Q = (1/N) sum_a sigma^z_a and the
  rescaled Q_tilde = N Q / 2;
* arbitrary user-supplied (H, Q) pairs loaded from JSON.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import _integer
from .linalg import Operator, operator_norm

__all__ = [
    "ModelSpec",
    "build_model",
    "build_qubit",
    "build_tfim",
    "build_ghz",
    "build_ghz_effective",
    "build_collective",
    "ghz_state",
    "ghz_reduction_residuals",
    "load_custom",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)

#: Site caps: tfim holds H as one dense 2^n x 2^n block; the GHZ builders use
#: 2 x 2 blocks and diagonals, so the memory ceiling limits them first.
MAX_SITES = 12
MAX_GHZ_SITES = 64

#: Builders refuse a chain whose estimated peak footprint exceeds this many
#: bytes: BYTES_PER_ENTRY per stored entry of H's blocks, the sum of k^2 over
#: its block sizes k (4^n for tfim, 2^(n+1) for GHZ).  The estimate is 2.7 GB
#: for tfim at n = 12 (1.9 GB measured), and GHZ fits up to n = 23.
MEMORY_CEILING = 4 * 2**30
BYTES_PER_ENTRY = 160


def _sites(n: object, dense: bool, lo: int = 2) -> int:
    """``n`` as a site count whose chain fits ``MEMORY_CEILING``, checked before anything
    is allocated: H holds 4^n entries in one block when ``dense``, else 2^(n+1) in 2 x 2."""
    n = _integer(n, "number of sites", lo, MAX_SITES if dense else MAX_GHZ_SITES)
    need = BYTES_PER_ENTRY * (4 ** n if dense else 2 ** (n + 1))
    if need > MEMORY_CEILING:
        raise ValueError(f"a chain of {n} sites needs about {need:.3g} bytes, above the "
                         f"memory ceiling of {MEMORY_CEILING:.3g} bytes")
    return n


def _site_signs(n: int) -> np.ndarray:
    """Row a - 1: the sigma^z_a eigenvalue (+1/-1, int8) of every basis index; site 1 is the MSB."""
    idx, signs = np.arange(2 ** n), np.empty((n, 2 ** n), dtype=np.int8)
    for a in range(n):
        signs[a] = 1 - 2 * ((idx >> (n - 1 - a)) & 1)
    return signs


def _ising_bonds(signs: np.ndarray, j: float, periodic: bool = False) -> np.ndarray:
    """The diagonal of -J sum_a sigma^z_a sigma^z_{a+1} (a ring if ``periodic``)."""
    n, diag = len(signs), np.zeros(signs.shape[1])
    for a in range(n - 1 + periodic):
        diag -= j * signs[a] * signs[(a + 1) % n]
    return diag


def _collective(signs: np.ndarray, divisor: float) -> Operator:
    """(1/divisor) sum_a sigma^z_a, diagonal in the computational basis."""
    return Operator.from_diagonal(sum(signs) / divisor)


def build_qubit(epsilon: float, theta: float) -> tuple[Operator, Operator]:
    """Single qubit: H = (epsilon/2) sigma_z, Q along a tilted axis.

    ``theta`` is the polar angle of the probe axis (azimuth fixed to zero):
    Q = sin(theta) sigma_x + cos(theta) sigma_z, so ||Q|| = 1 for any theta.

    Requires epsilon > 0 and theta in [0, pi].
    """
    if not epsilon > 0.0:
        raise ValueError(f"level splitting epsilon must be positive, got {epsilon}")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"probe angle theta must lie in [0, pi], got {theta}")
    h = Operator(0.5 * epsilon * SIGMA_Z)
    q = Operator(math.sin(theta) * SIGMA_X + math.cos(theta) * SIGMA_Z)
    return h, q


def build_tfim(n: int, j: float, h: float, boundary: str = "open",
               site: int | None = None) -> tuple[Operator, Operator]:
    """Transverse-field Ising chain probed by a single-site sigma^z.

    H = -J sum_a sigma^z_a sigma^z_{a+1} - h sum_a sigma^x_a, with the bond
    sum running over a = 1..N-1 for open boundary conditions and closing the
    ring for periodic ones.  The observable is sigma^z at ``site`` (1-based;
    defaults to the middle site ceil(N/2)), which is dichotomic.

    ``h = 0`` is admitted (the chain becomes classical with degenerate
    ground states); scenario configurations require a nonzero field.
    """
    n = _sites(n, dense=True)
    if not j > 0.0:
        raise ValueError(f"Ising coupling J must be positive, got {j}")
    if boundary not in ("open", "periodic"):
        raise ValueError(f"boundary must be 'open' or 'periodic', got {boundary!r}")
    if boundary == "periodic" and n == 2:
        raise ValueError(
            "a two-site ring would duplicate its single bond; use boundary='open'"
        )
    site = (n + 1) // 2 if site is None else _integer(site, "site", 1, n)

    dim, signs = 2 ** n, _site_signs(n)
    ham = np.diag(_ising_bonds(signs, j, periodic=boundary == "periodic").astype(np.complex128))
    if h != 0.0:
        rows = np.arange(dim)
        for a in range(1, n + 1):
            flipped = rows ^ (1 << (n - a))
            ham[rows, flipped] += -h
    return Operator(ham), Operator.from_diagonal(signs[site - 1])


def build_ghz(n: int, j: float, omega: float) -> tuple[Operator, Operator]:
    """GHZ-generating chain with the normalized collective magnetization.

    H = -J sum_{a=1}^{N-1} sigma^z_a sigma^z_{a+1} + (Omega/2) prod_a sigma^x_a
    and Q = (1/N) sum_a sigma^z_a.  The collective flip term couples only the
    two fully polarized states, so the GHZ doublet spans an invariant
    two-dimensional subspace (see :func:`build_ghz_effective`).  H is built as
    the 2 x 2 blocks it splits into, on each basis state and its complement,
    and Q as a diagonal.
    """
    n = _sites(n, dense=False)
    if not j > 0.0:
        raise ValueError(f"Ising coupling J must be positive, got {j}")
    if not omega > 0.0:
        raise ValueError(f"collective flip rate Omega must be positive, got {omega}")
    half, signs = np.arange(2 ** (n - 1)), _site_signs(n)  # shared by H and Q
    rows = np.stack([half, half ^ (2 ** n - 1)], axis=1)  # index i < 2^(n-1), its complement
    blocks = np.zeros(rows.shape + (2,), dtype=np.complex128)
    blocks[:, [0, 1], [0, 1]] = _ising_bonds(signs, j)[rows]
    blocks[:, 0, 1] = blocks[:, 1, 0] = 0.5 * omega
    return Operator(blocks=[(rows, blocks)]), _collective(signs, n)


def build_ghz_effective(n: int, j: float, omega: float) -> tuple[Operator, Operator]:
    """Exact two-level reduction of the GHZ chain on its GHZ doublet.

    In the basis (|GHZ+>, |GHZ->) the Hamiltonian restricts to
    H_eff = -J (N-1) I + (Omega/2) tau_z and the collective magnetization
    restricts to Q = tau_x, which is dichotomic with Q^2 = I.
    """
    n = _integer(n, "number of sites", 2, MAX_GHZ_SITES)
    if not j > 0.0:
        raise ValueError(f"Ising coupling J must be positive, got {j}")
    if not omega > 0.0:
        raise ValueError(f"collective flip rate Omega must be positive, got {omega}")
    shift = -j * (n - 1)
    h_eff = shift * IDENTITY_2 + 0.5 * omega * SIGMA_Z
    return Operator(h_eff), Operator(SIGMA_X)


def build_collective(n: int) -> tuple[Operator, Operator]:
    """Collective magnetization pair (Q, Q_tilde) on N sites.

    Q = (1/N) sum_a sigma^z_a has ||Q|| = 1; the rescaled generator
    Q_tilde = N Q / 2 is the one whose Fisher information enters the
    entanglement-depth witness (N^2 for a GHZ state).
    """
    signs = _site_signs(_sites(n, dense=False, lo=1))
    return _collective(signs, len(signs)), _collective(signs, 2.0)


def ghz_state(n: int, sign: int = +1) -> np.ndarray:
    """The GHZ state (|all up> + sign |all down>)/sqrt(2) as a dense vector."""
    n = _sites(n, dense=False)
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    dim = 2 ** n
    vec = np.zeros(dim, dtype=np.complex128)
    vec[0] = 1.0 / math.sqrt(2.0)
    vec[dim - 1] = sign / math.sqrt(2.0)
    return vec


def ghz_reduction_residuals(n: int, j: float, omega: float) -> tuple[float, float]:
    """Validate the two-level GHZ reduction against the full chain.

    Returns ``(leakage, mismatch)`` where ``leakage`` is the largest norm of
    the component of H|GHZ+-> outside the GHZ doublet and ``mismatch`` is the
    largest deviation of the restricted matrix elements <GHZ_i|H|GHZ_j> from
    the effective two-level Hamiltonian.  Both should vanish to numerical
    precision.
    """
    h_full, _ = build_ghz(_sites(n, dense=True), j, omega)
    h_eff, _ = build_ghz_effective(n, j, omega)
    plus = ghz_state(n, +1)
    minus = ghz_state(n, -1)
    span = np.column_stack([plus, minus])
    leakage = 0.0
    for vec in (plus, minus):
        image = h_full.matrix @ vec
        outside = image - span @ (span.conj().T @ image)
        leakage = max(leakage, float(np.linalg.norm(outside)))
    restricted = span.conj().T @ h_full.matrix @ span
    mismatch = float(np.max(np.abs(restricted - h_eff.matrix)))
    return leakage, mismatch


def _complex_matrix_from_json(raw: object, dim: int, name: str, path: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=object)
    if arr.shape != (dim, dim, 2):
        raise ValueError(
            f"{path}: field '{name}' must be a {dim}x{dim} matrix of [re, im] "
            f"pairs, got shape {arr.shape}"
        )
    values = np.asarray(raw, dtype=np.float64)
    return values[..., 0] + 1j * values[..., 1]


def load_custom(path: str) -> tuple[Operator, Operator]:
    """Load a user-supplied (H, Q) pair from a JSON file.

    Schema: an object with integer ``dim`` and row-major ``H`` and ``Q``
    matrices whose entries are two-element ``[re, im]`` arrays.  Both
    matrices must be Hermitian (tolerance 1e-12 entrywise).  The observable
    norm is checked: ||Q|| <= 1 + 1e-9 is enforced, and a warning is emitted
    when ||Q|| exceeds 1, since the unit-norm convention is what makes the
    weak-coupling bound comparable across models.
    """
    try:
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read custom model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    for key in ("dim", "H", "Q"):
        if key not in payload:
            raise ValueError(f"{path}: missing required field '{key}'")
    dim = payload["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"{path}: 'dim' must be a positive integer, got {dim!r}")
    try:
        h_raw = _complex_matrix_from_json(payload["H"], dim, "H", path)
        q_raw = _complex_matrix_from_json(payload["Q"], dim, "Q", path)
    except (TypeError, ValueError) as exc:
        raise ValueError(str(exc) if str(exc).startswith(path)
                         else f"{path}: malformed matrix data: {exc}") from exc
    try:
        h_op = Operator(h_raw)
    except ValueError as exc:
        raise ValueError(f"{path}: field 'H': {exc}") from exc
    try:
        q_op = Operator(q_raw)
    except ValueError as exc:
        raise ValueError(f"{path}: field 'Q': {exc}") from exc

    norm = operator_norm(q_op)
    if norm > 1.0 + 1e-9:
        raise ValueError(
            f"{path}: observable norm ||Q|| = {norm:.12g} exceeds 1 + 1e-9; "
            "rescale Q to unit norm"
        )
    if norm > 1.0:
        warnings.warn(
            f"{path}: observable norm ||Q|| = {norm:.12g} is marginally above 1",
            stacklevel=2,
        )
    return h_op, q_op


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a model instance, as used by run configs.

    ``kind`` selects the builder ('qubit', 'tfim', 'ghz', 'ghz_effective' or
    'custom'); ``params`` holds its keyword arguments; ``observable`` picks
    the probe for kinds that support more than one ('default', 'collective',
    'collective_rescaled' — the latter for 'ghz' only).
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    observable: str = "default"


def build_model(spec: ModelSpec, *, dense: bool = False) -> tuple[Operator, Operator]:
    """Instantiate ``(H, Q)`` from a :class:`ModelSpec`.

    Raises ``ValueError`` on unknown kinds, unknown parameters, or parameter
    values outside the documented ranges.  For 'tfim' specs a nonzero
    transverse field is required (the h = 0 chain has no dynamics for Q and
    is only reachable through the direct builder call).  ``dense`` holds a
    'ghz' chain to tfim's cap and estimate, for callers that build dense
    dim x dim views of the model (protocols).
    """
    params = dict(spec.params)
    if spec.kind != "ghz" and spec.observable != "default":
        raise ValueError(
            f"model kind '{spec.kind}' supports only the default observable, "
            f"got {spec.observable!r}"
        )

    def take(name: str, default: object = None, required: bool = False) -> object:
        if required and name not in params:
            raise ValueError(f"model kind '{spec.kind}' requires parameter '{name}'")
        return params.pop(name, default)

    def real(name: str) -> float:
        value = take(name, required=True)
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"model parameter '{name}' must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError as exc:
            raise ValueError(f"model parameter '{name}': {exc}") from exc
        if not math.isfinite(number):
            raise ValueError(f"model parameter '{name}' is non-finite: {number!r}")
        return number

    def integer(name: str, required: bool = True) -> int | None:
        value = take(name, required=required)
        if value is None and not required:
            return None
        return _integer(value, f"model parameter '{name}'")

    if spec.kind == "qubit":
        pair = build_qubit(real("epsilon"), real("theta"))
    elif spec.kind == "tfim":
        n, j, h = integer("n"), real("j"), real("h")
        if h == 0.0:
            raise ValueError("tfim model specs require a nonzero transverse field h")
        boundary = str(take("boundary", "open"))
        pair = build_tfim(n, j, h, boundary=boundary, site=integer("site", required=False))
    elif spec.kind == "ghz":
        n, j, omega = integer("n"), real("j"), real("omega")
        ham, q = build_ghz(_sites(n, dense=True) if dense else n, j, omega)
        if spec.observable == "collective_rescaled":
            q = build_collective(n)[1]
        elif spec.observable not in ("default", "collective"):
            raise ValueError(
                f"ghz models support observables 'collective' or "
                f"'collective_rescaled', got {spec.observable!r}"
            )
        pair = (ham, q)
    elif spec.kind == "ghz_effective":
        pair = build_ghz_effective(integer("n"), real("j"), real("omega"))
    elif spec.kind == "custom":
        path = take("path", required=True)
        pair = load_custom(str(path))
    else:
        raise ValueError(f"unknown model kind {spec.kind!r}")
    if params:
        raise ValueError(
            f"unknown parameter(s) for model kind '{spec.kind}': {sorted(params)}"
        )
    return pair
