"""The energy-measurement game against an honest state-vector prover.

One round: draw a term P with probability |beta_P| / sum|beta_P|, measure
P on a fresh copy of psi to get a bit b in {+1, -1}, accept iff
b = sign(beta_P).  The acceptance probability works out to

    Pr[accept] = 1/2 + <psi|H|psi> / (2 ||H||_P1),

so the game's bias away from a fair coin is the energy measured on the
scale of the Pauli 1-norm, not the operator norm.

Randomness is counter-based for reproducibility: a simulation seeded with
``seed`` assigns shot i the Philox counter block i (4 uniform doubles, of
which a round consumes two).  Workers splitting shots [a, b) therefore
reproduce the sequential transcript bit for bit by starting their
generator at ``Philox(key=seed).advance(a)``.  ``shot_chunks`` splits
its shots that way: it yields them in chunks of SHOT_CHUNK consecutive
counter blocks, so a million-shot game needs one chunk's arrays, not a
million shots' worth; ``simulate`` and both CLI game formats consume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paulis import (
    Hamiltonian,
    PauliString,
    _TermDraw,
    pauli_1_norm,
    term_distribution,
)
from .spectra import StateVector, _term_expectations, pauli_expectation

# shot_chunks draws this many shots at a time; its working arrays hold
# this many entries however many shots are asked for.
SHOT_CHUNK = 1 << 16


@dataclass(frozen=True)
class GameRound:
    """One sampled term, its coefficient sign, the outcome bit, and the verdict."""

    sampled_term: PauliString
    coeff_sign: int
    outcome: int
    accepted: bool

    def __post_init__(self):
        if self.coeff_sign not in (-1, 1) or self.outcome not in (-1, 1):
            raise ValueError("coeff_sign and outcome must be +1 or -1")
        if self.accepted != (self.outcome == self.coeff_sign):
            raise ValueError("accepted flag inconsistent with outcome and sign")


@dataclass(frozen=True)
class GameTranscript:
    """Aggregate of seeded rounds plus the exact acceptance probability.

    The fields count every shot; the shots themselves are ``shot_chunks``'.
    """

    shots: int
    accept_frequency: float
    std_error: float
    exact_probability: float
    seed: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if not 0.0 <= self.accept_frequency <= 1.0:
            raise ValueError(f"accept frequency {self.accept_frequency} outside [0, 1]")
        f = self.accept_frequency
        expected = math.sqrt(f * (1.0 - f) / self.shots)
        if abs(self.std_error - expected) > 1e-12:
            raise ValueError("std_error inconsistent with sqrt(f(1-f)/shots)")


def accept_prob_exact(h: Hamiltonian, psi: StateVector) -> float:
    """Exact acceptance probability 1/2 + <H>/(2 ||H||_P1).

    Also evaluates the term-wise form sum_P Pr[P] (1/2 + sign(beta_P) <P>/2)
    and insists the two agree to 1e-12; they are the same sum rearranged, so
    disagreement signals an internal bug.
    """
    if h.n != psi.n:
        raise ValueError(f"qubit counts differ: {h.n} vs {psi.n}")
    signs, probs = term_distribution(h)  # raises on the zero Hamiltonian
    return _accept_prob(h, signs, probs, _term_expectations(h, psi))


def _accept_prob(
    h: Hamiltonian, signs: np.ndarray, probs: np.ndarray, expectations: np.ndarray
) -> float:
    """accept_prob_exact from the term distribution and the term expectations."""
    lam = pauli_1_norm(h)
    closed = 0.5 + float(h.coeffs @ expectations) / (2.0 * lam)
    termwise = float(probs @ (0.5 + 0.5 * signs * expectations))
    if abs(closed - termwise) > 1e-12:
        raise ArithmeticError(
            f"closed-form and term-wise acceptance probabilities differ: "
            f"{closed!r} vs {termwise!r}"
        )
    return min(1.0, max(0.0, closed))


def sample_term(h: Hamiltonian, rng: np.random.Generator) -> tuple[PauliString, int]:
    """Draw one term with probability proportional to |beta_P|; one uniform consumed."""
    signs, probs = term_distribution(h)
    i = int(_TermDraw(probs, 1)(rng.random()))
    return h.pauli(i), int(signs[i])


def play_round(h: Hamiltonian, psi: StateVector, rng: np.random.Generator) -> GameRound:
    """Play one round on a fresh copy of psi; consumes exactly two uniforms."""
    term, sign = sample_term(h, rng)
    p_plus = 0.5 * (1.0 + pauli_expectation(term, psi))
    outcome = 1 if rng.random() < p_plus else -1
    return GameRound(term, sign, outcome, outcome == sign)


def shot_rng(seed: int, shot: int) -> np.random.Generator:
    """Generator positioned at the given shot's counter block of the seed's stream."""
    return np.random.Generator(np.random.Philox(key=seed).advance(shot))


def shot_chunks(h: Hamiltonian, psi: StateVector, shots: int, seed: int) -> tuple:
    """(exact acceptance probability, term signs, iterator over the shots).

    Every check runs before this returns.  The iterator yields arrays
    ``(term_idx, plus, accepted)`` for the next SHOT_CHUNK counter blocks of
    ``Philox(key=seed)``: shot i is ``play_round(h, psi, shot_rng(seed, i))``.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    signs, probs = term_distribution(h)
    expectations = _term_expectations(h, psi)
    exact = _accept_prob(h, signs, probs, expectations)
    # A round is accepted iff its outcome bit (u < p_plus) equals its term's
    # entry here: 1 for a positive coefficient, 0 for a negative one and 2,
    # which no bit equals, for a zero one.
    accepting_bit = np.where(signs == 0, 2, signs > 0).astype(np.int8)
    draw = _TermDraw(probs, shots)
    p_plus = 0.5 * (1.0 + expectations)
    return exact, signs, _shot_chunks(draw, p_plus, accepting_bit, shots, seed)


def _shot_chunks(draw, p_plus, accepting_bit, shots, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    uniforms = np.empty((min(shots, SHOT_CHUNK), 4))
    for start in range(0, shots, SHOT_CHUNK):
        u = rng.random(out=uniforms[: min(SHOT_CHUNK, shots - start)])
        term_idx = draw(u[:, 0])
        plus = u[:, 1] < p_plus[term_idx]
        yield term_idx, plus, plus == accepting_bit[term_idx]


def _transcript(exact: float, chunks, shots: int, seed: int) -> GameTranscript:
    """The GameTranscript of ``shot_chunks``' exact probability and chunks."""
    accepted = sum(int(np.count_nonzero(verdicts)) for _, _, verdicts in chunks)
    freq = accepted / shots
    return GameTranscript(
        shots=shots,
        accept_frequency=freq,
        std_error=math.sqrt(freq * (1.0 - freq) / shots),
        exact_probability=exact,
        seed=seed,
    )


def simulate(h: Hamiltonian, psi: StateVector, shots: int, seed: int) -> GameTranscript:
    """Seed-deterministic transcript of many rounds.

    Equivalent, bit for bit, to ``play_round(h, psi, shot_rng(seed, i))``
    for i in range(shots): it counts the accepted rounds of ``shot_chunks``.
    Working memory is O(SHOT_CHUNK + T + 2^n) for T terms on n qubits.
    """
    exact, _, chunks = shot_chunks(h, psi, shots, seed)
    return _transcript(exact, chunks, shots, seed)
