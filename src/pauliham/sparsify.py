"""Randomized restriction of a Hamiltonian to an importance-sampled term subset.

Draw m terms i.i.d. with probability |beta_P| / Lambda (Lambda the Pauli
1-norm) and average the signed, Lambda-rescaled picks:

    H'' = (Lambda / m) * sum_{j=1}^{m} sign(beta_{P_j}) P_j ,

merged canonically.  The estimator is unbiased term by term, and the
operator Chernoff bound controls the spectral deviation:

    Pr[ ||H - H''|| >= delta ] <= 2^n exp(-m delta^2 / 32).

:func:`empirical_deviation` measures that failure probability directly
against the dense oracle at small n.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .paulis import Hamiltonian, _TermDraw, pauli_1_norm, term_distribution
from .spectra import to_dense

# sample_restriction draws this many uniforms at a time, whatever m is.
_DRAW_CHUNK = 1 << 16

@dataclass(frozen=True)
class SparsifyParams:
    """Sample count m, target deviation delta, seed, and trial count."""

    m: int
    delta: float
    seed: int
    trials: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"sample count m must be >= 1, got {self.m}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class SparsifyReport:
    """Analytic failure bound next to measured per-trial deviations.

    ``pauli1_after_mean`` tracks the restricted operator's Pauli 1-norm so
    the norm's survival under restriction is checkable, not just the term
    count reduction.
    """

    bound: float
    bound_vacuous: bool
    empirical_failure_rate: float
    deviations: tuple[float, ...]
    terms_before: int
    terms_after_mean: float
    pauli1_before: float
    pauli1_after_mean: float
    m: int
    delta: float
    trials: int
    seed: int


def chernoff_bound(n: int, m: int, delta: float) -> float:
    """Operator-Chernoff failure bound 2^n exp(-m delta^2 / 32).

    Returned uncapped, and ``math.inf`` where the value exceeds the float
    range; a value >= 1 certifies nothing and triggers a RuntimeWarning so
    vacuous parameter choices are flagged.
    """
    if n < 1 or m < 1 or not delta > 0:
        raise ValueError(f"all parameters must be positive, got n={n}, m={m}, delta={delta}")
    exponent = -m * delta * delta / 32.0
    if n < sys.float_info.max_exp:  # 2.0**n is a float
        value = 2.0**n * math.exp(exponent)
    else:
        try:
            value = math.exp(n * math.log(2.0) + exponent)
        except OverflowError:
            value = math.inf
    if value >= 1.0:
        warnings.warn(
            f"Chernoff bound {value:.3g} >= 1 is vacuous for n={n}, m={m}, delta={delta}",
            RuntimeWarning,
            stacklevel=2,
        )
    return value


def sample_restriction(
    h: Hamiltonian, m: int, seed: "int | np.random.Generator"
) -> Hamiltonian:
    """Unbiased m-sample restriction of H (with replacement).

    The merged coefficient of term P is count(P) * (Lambda/m) * sign(beta_P),
    so E[H''] = H and ||H''||_P1 <= Lambda always.  The uniforms, drawn in
    chunks, are the values of one ``rng.random(m)``.
    """
    if m < 1:
        raise ValueError(f"sample count m must be >= 1, got {m}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    signs, probs = term_distribution(h)  # raises on the zero Hamiltonian
    lam = pauli_1_norm(h)
    draw = _TermDraw(probs, m)
    counts = np.zeros(len(probs), dtype=np.intp)
    for start in range(0, m, _DRAW_CHUNK):
        idx = draw(rng.random(min(_DRAW_CHUNK, m - start)))
        counts += np.bincount(idx, minlength=len(probs))
    picked = np.flatnonzero(counts)
    coeffs = counts[picked].astype(float) * (lam / m) * signs[picked]
    return Hamiltonian.from_columns(h.n, h.x[picked], h.z[picked], coeffs)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # Documented splitting rule: trial t draws from SeedSequence([seed, t]).
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def empirical_deviation(h: Hamiltonian, params: SparsifyParams) -> SparsifyReport:
    """Measure Pr[||H - H''|| >= delta] over independent seeded restrictions.

    Each trial draws its own restriction and evaluates the spectral
    deviation with the dense oracle, so n must be at most
    ``spectra.DEFAULT_DENSE_LIMIT``.  Trials use per-trial derived seeds
    and may run in any order.

    Raises:
        CapacityError: n exceeds the dense limit.
    """
    dense = to_dense(h)
    deviations = []
    terms_after = []
    pauli1_after = []
    for trial in range(params.trials):
        restricted = sample_restriction(h, params.m, _trial_rng(params.seed, trial))
        diff = dense - to_dense(restricted)
        deviations.append(float(np.max(np.abs(np.linalg.eigvalsh(diff)))))
        terms_after.append(restricted.num_terms)
        pauli1_after.append(pauli_1_norm(restricted))
    deviations = tuple(deviations)
    bound = chernoff_bound(h.n, params.m, params.delta)
    return SparsifyReport(
        bound=bound,
        bound_vacuous=bound >= 1.0,
        empirical_failure_rate=float(
            np.mean([d >= params.delta for d in deviations])
        ),
        deviations=deviations,
        terms_before=h.num_terms,
        terms_after_mean=float(np.mean(terms_after)),
        pauli1_before=pauli_1_norm(h),
        pauli1_after_mean=float(np.mean(pauli1_after)),
        m=params.m,
        delta=params.delta,
        trials=params.trials,
        seed=params.seed,
    )
