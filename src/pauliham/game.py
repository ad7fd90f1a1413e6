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
its shots that way: it yields chunks of SHOT_CHUNK consecutive counter
blocks in counter order, drawn in batches of one chunk per drawing thread
(the consumer's, and worker threads up to one per usable core) while the
consumer waits for the next chunk.  So a million-shot game needs a
batch's arrays, not a million shots' worth, and its shots are the same
however many threads drew them; ``simulate`` and both CLI game formats
consume them.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from queue import Empty, SimpleQueue

import numpy as np

from .paulis import (
    Hamiltonian,
    PauliString,
    _TermDraw,
    pauli_1_norm,
    term_distribution,
)
from .spectra import StateVector, _term_expectations, pauli_expectation

# shot_chunks yields this many shots at a time; its arrays hold this many
# entries however many shots are asked for.
SHOT_CHUNK = 1 << 16
# Threads draw the chunks in pieces of this many counter blocks (4 uniforms
# each), each piece through its thread's own reused buffer.
_DRAW_STEP = 1 << 13
# Each drawing thread adds about 1 MiB (a chunk's arrays, its buffer and
# the draw's temporaries), so this many keep the stream within a few MiB
# on any host.
_MAX_WORKERS = 4


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

    Every check runs before this returns, the seed's Philox key included.
    The iterator yields arrays ``(term_idx, plus, accepted)`` for the next
    SHOT_CHUNK counter blocks of ``Philox(key=seed)``: shot i is
    ``play_round(h, psi, shot_rng(seed, i))``.  The iterator draws its
    chunks in batches, one chunk per drawing thread (the consumer's, and
    up to _MAX_WORKERS - 1 worker threads), only while its consumer waits
    in next(), and yields them in counter order.  No thread outlives an
    iterator that is exhausted, closed or raising, and one never closed
    does not keep the interpreter from exiting.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    signs, probs = term_distribution(h)
    expectations = _term_expectations(h, psi)
    exact = _accept_prob(h, signs, probs, expectations)
    # A round is accepted iff its outcome bit (u < p_plus) equals its term's
    # entry here: 1 for a positive coefficient, 0 for a negative one (a
    # canonical Hamiltonian holds no zero coefficient).
    accepting_bit = signs > 0
    p_plus = 0.5 * (1.0 + expectations)
    # builds Philox(key=seed), so it raises ValueError unless 0 <= seed < 2**128
    drawer = _ShotDrawer(
        _TermDraw(probs, shots), p_plus, accepting_bit, seed, min(_DRAW_STEP, SHOT_CHUNK, shots)
    )
    return exact, signs, _shot_chunks(drawer, shots)


def _worker_count(chunks: int) -> int:
    """Threads drawing ``chunks`` chunks, the consumer's included: the
    usable cores, at most one per chunk and at most _MAX_WORKERS."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, chunks, _MAX_WORKERS))


def _shot_chunks(drawer, shots):
    # The chunks are drawn in batches of one per drawing thread, and only
    # while the consumer waits in next(): the consumer queues the batch in
    # pieces of at most _DRAW_STEP shots, draws every piece the workers
    # have not taken, and yields the batch once it is whole.  So a slow
    # consumer (the CSV writer) never shares the interpreter lock with a
    # draw, a worker that the OS does not run holds up at most one piece,
    # and at most a batch of chunks exists.
    starts = range(0, shots, SHOT_CHUNK)
    width = _worker_count(len(starts))
    tasks, results = SimpleQueue(), SimpleQueue()
    # Daemon threads: an iterator that is never closed must not keep the
    # interpreter from exiting while its workers wait in tasks.get().
    threads = [
        threading.Thread(
            target=_work, args=(tasks, results, drawer.twin), name="pauliham-shots", daemon=True
        )
        for _ in range(width - 1)
    ]
    try:
        for thread in threads:
            thread.start()
        for first in range(0, len(starts), width):
            # A chunk's arrays are allocated on this thread, which frees
            # them: allocated on the workers, they raised the sample
            # benchmark's peak resident set by 4 MB (per-thread malloc heaps).
            counts = [min(SHOT_CHUNK, shots - start) for start in starts[first : first + width]]
            batch = [(np.empty(c, np.intp), np.empty(c, bool), np.empty(c, bool)) for c in counts]
            pieces = _queue_pieces(tasks, starts[first:], batch, drawer.rows)
            _draw_queued(tasks, results, drawer)
            errors = {}
            for i, error in (results.get() for _ in range(pieces)):
                if error is not None:
                    errors.setdefault(i, error)
            for i in range(len(batch)):
                if i in errors:
                    raise errors[i]
                yield batch[i]
            del batch  # so the next batch is not allocated beside this one
    finally:
        for _ in threads:
            tasks.put(None)
        # An iterator collected at interpreter exit does not wait: a daemon
        # worker that wakes then may never run again (Python 3.14 parks it).
        if not sys.is_finalizing():
            for thread in threads:
                if thread.ident is not None:
                    thread.join()


def _queue_pieces(tasks, starts, batch, step):
    """Queue the chunks of ``batch``, which start at ``starts``, as tasks
    ``(chunk index, first counter block, array views)`` of at most ``step``
    shots each; return how many were queued."""
    pieces = 0
    for i, (start, chunk) in enumerate(zip(starts, batch)):
        for lo in range(0, len(chunk[0]), step):
            tasks.put((i, start + lo, [column[lo : lo + step] for column in chunk]))
            pieces += 1
    return pieces


def _draw_queued(tasks, results, drawer):
    """Draw queued pieces on this thread until none is left."""
    while True:
        try:
            task = tasks.get_nowait()
        except Empty:
            return
        results.put(_draw_task(drawer, task))


def _work(tasks, results, make_drawer):
    """A worker thread: draw queued pieces until a None arrives.

    Threads and queues, not a ``concurrent.futures`` pool: importing that
    package (logging included) takes about 6 ms, and the heap it left in
    the benchmark's worker raised the spectral workload's peak resident
    set by about 7 MB in 8 of 15 runs.
    """
    drawer = make_drawer()
    while (task := tasks.get()) is not None:
        results.put(_draw_task(drawer, task))
        del task  # its arrays are the consumer's now


def _draw_task(drawer, task):
    """Draw the piece ``task = (i, start, arrays)``; return ``(i, the error
    it raised or None)``, so a worker's error reaches the consumer."""
    i, start, arrays = task
    try:
        drawer(start, arrays)
    except Exception as exc:
        return i, exc
    return i, None


class _ShotDrawer:
    """One thread's draws: its own ``Philox(key=seed)`` and uniform buffer,
    reused for every piece it draws.

    It runs on worker threads, so it calls only numpy and private helpers.
    """

    def __init__(self, draw, p_plus, accepting_bit, seed, rows):
        self._draw, self._p_plus, self._accepting_bit = draw, p_plus, accepting_bit
        self._seed, self.rows = seed, rows
        self._bits = np.random.Philox(key=seed)
        self._origin = self._bits.state  # counter 0; rebuilding costs 20 us
        self._rng = np.random.Generator(self._bits)
        self._uniforms = np.empty((rows, 4))
        self._at = 0  # the counter block the next uniforms come from

    def twin(self) -> "_ShotDrawer":
        """A drawer of the same shots, for another thread."""
        return _ShotDrawer(self._draw, self._p_plus, self._accepting_bit, self._seed, self.rows)

    def __call__(self, start, arrays):
        """Fill ``arrays = (term_idx, plus, accepted)``, at most ``rows``
        long, with the shots from ``Philox(key=seed).advance(start)``."""
        term_idx, plus, accepted = arrays
        if start != self._at:
            self._bits.state = self._origin
            self._bits.advance(start)
        self._at = None  # unknown until the piece is drawn
        u = self._rng.random(out=self._uniforms[: len(term_idx)])
        term_idx[:] = self._draw(u[:, 0])
        np.less(u[:, 1], self._p_plus[term_idx], out=plus)
        np.equal(plus, self._accepting_bit[term_idx], out=accepted)
        # 4 uniforms a shot use up whole counter blocks, so the generator
        # now stands at the next shot's block
        self._at = start + len(term_idx)


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
    Working memory is O(threads x SHOT_CHUNK + T + 2^n) for T terms on n
    qubits, with at most _MAX_WORKERS drawing threads.
    """
    exact, _, chunks = shot_chunks(h, psi, shots, seed)
    return _transcript(exact, chunks, shots, seed)
