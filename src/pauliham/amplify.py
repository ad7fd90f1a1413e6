"""Promise-gap amplification for Pauli-sum Hamiltonians.

The transform is a shifted tensor power,

    H' = 2 ((I + H)/2)^(x k) - I,

which maps the spectrum through lambda -> 2((1 + lambda)/2)^k - 1: eigenvalue
1 stays fixed while anything bounded away from 1 is pushed toward -1
exponentially fast in k.  The price is paid in the Pauli 1-norm, which can
grow like ((1 + ||H||_P1)/2)^k; :func:`verify_amplification` measures both
effects against their closed-form bounds on concrete instances.

Promise parameters (p, q, k): a YES instance has lambda_max >= 1 - 1/p
(p = inf means lambda_max = 1 exactly) and a NO instance has
lambda_max <= 1 - 1/q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import spectra
from .paulis import Hamiltonian, linear_combine, pauli_1_norm, tensor_power
from .spectra import extremal_eigs, operator_norm

# Slack used when comparing measured floats against closed-form bounds.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class AmplifyParams:
    """Tensor power k plus the YES/NO promise thresholds (p, q).

    ``p`` may be ``math.inf`` for the exact YES case lambda_max = 1.
    """

    k: int
    p: float
    q: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"tensor power k must be >= 1, got {self.k}")
        if not self.q > 0 or math.isinf(self.q):
            raise ValueError(f"q must be a finite positive real, got {self.q}")
        if not self.p > 0:
            raise ValueError(f"p must be positive (inf allowed), got {self.p}")
        if not 1.0 / self.p < 1.0 / self.q:
            raise ValueError(
                f"YES threshold must lie above NO threshold: need 1/p < 1/q, "
                f"got p={self.p}, q={self.q}"
            )


@dataclass(frozen=True)
class AmplificationReport:
    """Closed-form bounds next to measured values for one amplification run.

    Bound fields are always filled from (p, q, k); measured fields are None
    until :func:`verify_amplification` fills them.  ``no_gap_from_one`` and
    ``no_gap_half_scale`` express the NO-case separation 1 - no_upper_bound
    in the two normalization conventions (raw eigenvalue scale on [-1, 1]
    versus the shifted [0, 1] scale); both are reported, neither is
    preferred.  ``gap_formula_in_regime`` flags whether k <= 2q, the regime
    in which the linear gap formula has been verified to hold.
    """

    k: int
    yes_lower_bound: float
    no_upper_bound: float
    no_lower_bound: float
    gap_lower_bound: float
    no_gap_from_one: float
    no_gap_half_scale: float
    gap_formula_in_regime: bool
    lambda_in: float | None = None
    lambda_out_exact: float | None = None
    pauli1_in: float | None = None
    pauli1_out: float | None = None
    pauli1_bound: float | None = None
    promise_case: str | None = None  # "yes" | "no" | "none"
    all_bounds_hold: bool | None = None


def exact_eigenvalue_map(lam: float, k: int) -> float:
    """Eigenvalue image 2((1 + lambda)/2)^k - 1 of the amplification transform.

    Fixes both endpoints: map(1) = 1 and map(-1) = -1.  Inputs may stray
    from [-1, 1] by at most 1e-9 (floating-point eigenvalues) and are
    clamped; anything farther out raises ValueError.
    """
    if k < 1:
        raise ValueError(f"tensor power k must be >= 1, got {k}")
    if not -1.0 - 1e-9 <= lam <= 1.0 + 1e-9:
        raise ValueError(f"eigenvalue {lam} outside [-1, 1]")
    lam = min(1.0, max(-1.0, lam))
    return 2.0 * ((1.0 + lam) / 2.0) ** k - 1.0


def pauli_norm_bound(pauli1: float, k: int) -> float:
    """Pauli 1-norm bound 1 + 2((1 + ||H||_P1)/2)^k of the output; inf past the float range."""
    if pauli1 < 0:
        raise ValueError(f"Pauli 1-norm must be nonnegative, got {pauli1}")
    if k < 1:
        raise ValueError(f"tensor power k must be >= 1, got {k}")
    try:
        return 1.0 + 2.0 * ((1.0 + pauli1) / 2.0) ** k
    except OverflowError:
        return math.inf


def game_promise_gap(pgap_ham: float, pauli1: float) -> float:
    """Promise gap passed down to the energy-measurement game: pgap / ||H||_P1."""
    if pauli1 <= 0:
        raise ValueError(f"Pauli 1-norm must be positive, got {pauli1}")
    return pgap_ham / pauli1


def amplification_bounds(params: AmplifyParams) -> AmplificationReport:
    """Closed-form bound values for (p, q, k); measured fields left unset.

    YES case: lambda_max(H') >= 1 - k/p.  NO case: the image of 1 - 1/q is
    sandwiched, 2(1 - k/(2q)) - 1 <= lambda_out <= 2 e^(-k/(2q)) - 1.  The
    linear gap estimate k(1/(2q) - 1/p) is reported verbatim and flagged
    when k > 2q, outside its verified regime.
    """
    k, p, q = params.k, params.p, params.q
    no_upper = 2.0 * math.exp(-k / (2.0 * q)) - 1.0
    return AmplificationReport(
        k=k,
        yes_lower_bound=1.0 - k / p,
        no_upper_bound=no_upper,
        no_lower_bound=2.0 * (1.0 - k / (2.0 * q)) - 1.0,
        gap_lower_bound=k * (1.0 / (2.0 * q) - 1.0 / p),
        no_gap_from_one=1.0 - no_upper,
        no_gap_half_scale=(1.0 - no_upper) / 2.0,
        gap_formula_in_regime=k <= 2.0 * q,
    )


def _require_unit_norm(norm: float) -> None:
    if norm > 1.0 + BOUND_SLACK:
        raise ValueError(f"operator norm {norm} exceeds 1")


def amplify(h: Hamiltonian, k: int, *, assume_norm_ok: bool = False) -> Hamiltonian:
    """Apply the shifted tensor-power transform; the k = 1 case returns H itself.

    Precondition ||H|| <= 1 is accepted without a solve on the certificate
    ||H|| <= ||H||_P1 <= 1.  Otherwise the eigensolver measures ||H||
    within the memory budget of ``spectra.DEFAULT_DENSE_LIMIT``, which
    holds its vectors up to n = 2 * DEFAULT_DENSE_LIMIT.
    ``assume_norm_ok`` waives the check, for callers that have already
    made it.

    Raises:
        CapacityError: the expanded operator would exceed
            ``paulis.DEFAULT_TERM_CAP`` terms, or the norm check needs a
            solve beyond n = 2 * DEFAULT_DENSE_LIMIT.
        ValueError: ||H|| > 1.
        ConvergenceError: the norm check's eigensolve did not converge.
    """
    if k < 1:
        raise ValueError(f"tensor power k must be >= 1, got {k}")
    if not assume_norm_ok and pauli_1_norm(h) > 1.0 + 1e-12:
        _require_unit_norm(operator_norm(h))
    shifted = linear_combine([(0.5, Hamiltonian.identity(h.n)), (0.5, h)])
    powered = tensor_power(shifted, k)
    return linear_combine(
        [(2.0, powered), (-1.0, Hamiltonian.identity(h.n * k))]
    )


def verify_amplification(
    h: Hamiltonian,
    params: AmplifyParams,
    *,
    eigen_tol: float = 1e-8,
) -> AmplificationReport:
    """Amplify H and check every measurable bound, returning the filled report.

    H's spectrum is solved once (up to n = 2 * spectra.DEFAULT_DENSE_LIMIT):
    its top eigenvalue is lambda_in and its norm is checked against
    amplify's precondition ||H|| <= 1 here, so amplify does not solve it
    again.  The eigenvalue identity lambda_out = map(lambda_in, k) is
    compared only when n*k <= DEFAULT_DENSE_LIMIT; the Pauli 1-norm
    comparison runs at any size.  An input whose lambda_max lands strictly
    between the two promise thresholds gets promise_case "none" and fails
    verification, since the transform's guarantees only speak to promised
    instances.

    Raises:
        ValueError: ||H|| > 1, with amplify's message, or ``eigen_tol`` is
            NaN or negative.
        CapacityError: n > 2 * DEFAULT_DENSE_LIMIT, or the term cap
            ``paulis.DEFAULT_TERM_CAP`` is exceeded.
        ConvergenceError: an eigensolve did not converge.
    """
    if not eigen_tol >= 0.0:  # also refuses NaN, which would fail every check
        raise ValueError(f"eigen_tol must be >= 0, got {eigen_tol}")
    report = amplification_bounds(params)
    k = params.k

    spectrum = extremal_eigs(h).require_converged()
    _require_unit_norm(max(abs(spectrum.lambda_max), abs(spectrum.lambda_min)))
    lambda_in = spectrum.lambda_max
    pauli1_in = pauli_1_norm(h)
    p1_bound = pauli_norm_bound(pauli1_in, k)

    amplified = amplify(h, k, assume_norm_ok=True)
    pauli1_out = pauli_1_norm(amplified)
    norm_ok = pauli1_out <= p1_bound + BOUND_SLACK

    lambda_out = None
    eigen_ok = True
    if h.n * k <= spectra.DEFAULT_DENSE_LIMIT:
        lambda_out = extremal_eigs(amplified).require_converged().lambda_max
        eigen_ok = abs(lambda_out - exact_eigenvalue_map(lambda_in, k)) <= eigen_tol

    if lambda_in >= 1.0 - 1.0 / params.p - BOUND_SLACK:
        case = "yes"
    elif lambda_in <= 1.0 - 1.0 / params.q + BOUND_SLACK:
        case = "no"
    else:
        case = "none"

    case_ok = case != "none"
    if lambda_out is not None and case == "yes":
        case_ok = lambda_out >= report.yes_lower_bound - BOUND_SLACK
    elif lambda_out is not None and case == "no":
        case_ok = lambda_out <= report.no_upper_bound + BOUND_SLACK

    return replace(
        report,
        lambda_in=lambda_in,
        lambda_out_exact=lambda_out,
        pauli1_in=pauli1_in,
        pauli1_out=pauli1_out,
        pauli1_bound=p1_bound,
        promise_case=case,
        all_bounds_hold=bool(norm_ok and eigen_ok and case_ok),
    )
