import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pauliham.game as game
import pauliham.spectra as spectra
from pauliham.amplify import amplify
from pauliham.game import (
    GameRound,
    GameTranscript,
    accept_prob_exact,
    play_round,
    sample_term,
    shot_chunks,
    shot_rng,
    simulate,
)
from pauliham.paulis import (
    DimensionMismatchError,
    Hamiltonian,
    PauliString,
    hadamard_power,
    linear_combine,
    pauli_1_norm,
    parse_pauli,
    random_local,
)
from pauliham.spectra import StateVector, extremal_eigs, pauli_expectation

from conftest import kron_dense, random_hamiltonian, random_state


def _z() -> Hamiltonian:
    return Hamiltonian.from_labels({"Z": 1.0})


class TestGameRound:
    def test_consistency_enforced(self):
        p = parse_pauli("Z")
        assert GameRound(p, 1, 1).accepted and GameRound(p, -1, -1).accepted
        assert not GameRound(p, 1, -1).accepted and not GameRound(p, -1, 1).accepted
        with pytest.raises(ValueError):
            GameRound(p, 0, 1)
        with pytest.raises(ValueError):
            GameRound(p, 1, 0)
        with pytest.raises(AttributeError):
            GameRound(p, 1, 1).accepted = False

    def test_verdict_is_outcome_equals_sign(self, rng):
        h = random_hamiltonian(rng, 3, max_terms=8)
        psi = random_state(rng, 3)
        rounds = [play_round(h, psi, shot_rng(11, shot)) for shot in range(200)]
        assert {r.accepted for r in rounds} == {True, False}
        assert all(r.accepted == (r.outcome == r.coeff_sign) for r in rounds)


class TestAcceptProbExact:
    def test_z_on_ground(self):
        assert accept_prob_exact(_z(), StateVector.basis(1, 0)) == 1.0

    def test_zero_bias(self):
        # <X> vanishes on |0>, so the game is a fair coin
        assert accept_prob_exact(
            Hamiltonian.from_labels({"X": 1.0}), StateVector.basis(1, 0)
        ) == pytest.approx(0.5)

    def test_hadamard_top_eigenvector(self):
        # oracle: eigenvector from the independent kron matrix, then the formula
        h = hadamard_power(1)
        vals, vecs = np.linalg.eigh(kron_dense(h))
        psi = StateVector.normalized(1, vecs[:, -1])
        want = 0.5 + vals[-1] / (2.0 * pauli_1_norm(h))
        got = accept_prob_exact(h, psi)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.8535533905932737, abs=1e-12)

    def test_zero_hamiltonian_rejected(self):
        zero = linear_combine([(1.0, _z()), (-1.0, _z())])
        with pytest.raises(ValueError):
            accept_prob_exact(zero, StateVector.basis(1, 0))

    def test_dimension_mismatch(self):
        # a ValueError too, so the CLI's exit code stays 2
        with pytest.raises(DimensionMismatchError, match="qubit counts differ: 1 vs 2"):
            accept_prob_exact(_z(), StateVector.basis(2, 0))

    def test_closed_equals_termwise(self, rng):
        # both sides of the acceptance identity, recomputed independently
        for i in range(20):
            n = int(rng.integers(1, 5))
            h = random_hamiltonian(rng, n, include_identity=(i % 3 == 0))
            psi = random_state(rng, n)
            lam = pauli_1_norm(h)
            closed = 0.5 + sum(
                c * pauli_expectation(p, psi) for p, c in h.terms.items()
            ) / (2.0 * lam)
            termwise = sum(
                (abs(c) / lam) * (0.5 + 0.5 * math.copysign(1.0, c) * pauli_expectation(p, psi))
                for p, c in h.terms.items()
            )
            assert abs(closed - termwise) <= 1e-12
            assert accept_prob_exact(h, psi) == pytest.approx(closed, abs=1e-12)

    def test_scale_invariance(self, rng):
        for theta in (0.1, 3.0, 250.0):
            h = random_hamiltonian(rng, 2)
            psi = random_state(rng, 2)
            scaled = linear_combine([(theta, h)])
            assert accept_prob_exact(scaled, psi) == pytest.approx(
                accept_prob_exact(h, psi), abs=1e-12
            )

    def test_bias_sign_matches_energy(self, rng):
        from pauliham.spectra import expectation

        for _ in range(20):
            h = random_hamiltonian(rng, 3)
            psi = random_state(rng, 3)
            bias = accept_prob_exact(h, psi) - 0.5
            energy = expectation(h, psi)
            if abs(energy) > 1e-9:
                assert math.copysign(1.0, bias) == math.copysign(1.0, energy)

    def test_top_eigenvector_maximizes(self, rng):
        h = random_hamiltonian(rng, 3)
        res = extremal_eigs(h)
        top = accept_prob_exact(h, res.eigvec_max)
        assert top == pytest.approx(
            0.5 + res.lambda_max / (2.0 * pauli_1_norm(h)), abs=1e-12
        )
        for _ in range(10):
            assert accept_prob_exact(h, random_state(rng, 3)) <= top + 1e-12


class TestSampleTerm:
    def test_single_term_always(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            term, sign = sample_term(_z(), rng)
            assert term.label == "Z" and sign == 1

    def test_weighted_three_to_one(self):
        h = Hamiltonian.from_labels({"X": 3.0, "Z": 1.0})
        rng = np.random.default_rng(11)
        draws = sum(sample_term(h, rng)[0].label == "X" for _ in range(100_000))
        f = draws / 100_000
        sigma = math.sqrt(0.75 * 0.25 / 100_000)
        assert abs(f - 0.75) <= 4 * sigma

    def test_signed_half_half(self):
        h = Hamiltonian.from_labels({"X": 1.0, "Z": -1.0})
        rng = np.random.default_rng(23)
        counts = {"X": 0, "Z": 0}
        signs = set()
        for _ in range(100_000):
            term, sign = sample_term(h, rng)
            counts[term.label] += 1
            signs.add((term.label, sign))
        assert signs == {("X", 1), ("Z", -1)}
        # chi-square against the fifty-fifty target, 1 dof
        expected = 50_000.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 16.0  # 4-sigma-equivalent threshold for 1 dof

    def test_zero_rejected(self):
        zero = linear_combine([(1.0, _z()), (-1.0, _z())])
        with pytest.raises(ValueError):
            sample_term(zero, np.random.default_rng(0))


class TestPlayRound:
    def test_deterministic_accept(self):
        psi = StateVector.basis(1, 0)
        for shot in range(50):
            r = play_round(_z(), psi, shot_rng(3, shot))
            assert r.outcome == 1 and r.accepted

    def test_fair_coin_on_x(self):
        h = Hamiltonian.from_labels({"X": 1.0})
        psi = StateVector.basis(1, 0)
        accepts = sum(
            play_round(h, psi, shot_rng(5, shot)).accepted for shot in range(20_000)
        )
        f = accepts / 20_000
        assert abs(f - 0.5) <= 4 * math.sqrt(0.25 / 20_000)

    def test_never_accepts_excited_state(self):
        psi = StateVector.basis(1, 1)
        for shot in range(50):
            r = play_round(_z(), psi, shot_rng(9, shot))
            assert r.outcome == -1 and not r.accepted

    def test_identity_term_outcome_is_plus_one(self):
        # amplified operators always carry an identity term; measuring it is
        # deterministic, acceptance depends only on the coefficient sign
        h = amplify(_z(), 2)
        assert h.coefficient(parse_pauli("II")) == pytest.approx(-0.5)
        psi = StateVector.basis(2, 3)
        seen_identity = 0
        for shot in range(300):
            r = play_round(h, psi, shot_rng(21, shot))
            if r.sampled_term.is_identity():
                seen_identity += 1
                assert r.outcome == 1
                assert r.coeff_sign == -1 and not r.accepted
        assert seen_identity > 0


def _shots(h, psi, shots, seed):
    """Every shot of ``shot_chunks`` as (term label, sign, outcome, verdict)."""
    _, signs, chunks = shot_chunks(h, psi, shots, seed)
    term_idx, plus, accepted = (np.concatenate(column) for column in zip(*chunks))
    labels = h.labels()
    return [
        (labels[i], sign, 1 if p else -1, a)
        for i, sign, p, a in zip(
            term_idx.tolist(), signs[term_idx].tolist(), plus.tolist(), accepted.tolist()
        )
    ]


class TestSimulate:
    def test_all_accept(self):
        t = simulate(_z(), StateVector.basis(1, 0), 500, seed=1)
        assert t.accept_frequency == 1.0
        assert t.exact_probability == 1.0
        assert t.std_error == 0.0
        assert t.shots == 500

    def test_seed_reproducible(self):
        h = hadamard_power(1)
        psi = extremal_eigs(h).eigvec_max
        a = simulate(h, psi, 2000, seed=42)
        b = simulate(h, psi, 2000, seed=42)
        assert a == b
        assert _shots(h, psi, 2000, seed=42) == _shots(h, psi, 2000, seed=42)
        assert _shots(h, psi, 2000, seed=43) != _shots(h, psi, 2000, seed=42)

    def test_vectorized_equals_sequential(self):
        h = Hamiltonian.from_labels({"X": 1.0, "Z": -0.5, "Y": 0.25})
        psi = StateVector.normalized(1, [1.0, 0.5 - 0.25j])
        replayed = [play_round(h, psi, shot_rng(77, i)) for i in range(64)]
        assert _shots(h, psi, 64, seed=77) == [
            (r.sampled_term.label, r.coeff_sign, r.outcome, r.accepted) for r in replayed
        ]
        t = simulate(h, psi, 64, seed=77)
        assert t.accept_frequency == sum(r.accepted for r in replayed) / 64

    def test_vectorized_equals_sequential_across_chunks(self, monkeypatch):
        # 64 shots in chunks of 7, drawn through the guide table of 3 terms
        # (32 buckets), replayed shot by shot from each shot's counter block
        monkeypatch.setattr(game, "SHOT_CHUNK", 7)
        self.test_vectorized_equals_sequential()

    def test_frequency_tracks_exact(self):
        h = hadamard_power(1)
        psi = extremal_eigs(h).eigvec_max
        t = simulate(h, psi, 200_000, seed=4)
        assert t.std_error == pytest.approx(
            math.sqrt(t.accept_frequency * (1 - t.accept_frequency) / t.shots)
        )
        assert abs(t.accept_frequency - t.exact_probability) <= 4 * t.std_error

    def test_counts_every_chunk(self):
        t = simulate(_z(), StateVector.basis(1, 0), 20_000, seed=2)
        assert t.accept_frequency == 1.0
        _, _, chunks = shot_chunks(_z(), StateVector.basis(1, 0), 20_000, seed=2)
        counts = [(len(accepted), int(accepted.sum())) for _, _, accepted in chunks]
        assert np.sum(counts, axis=0).tolist() == [20_000, 20_000]

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            simulate(_z(), StateVector.basis(1, 0), 0, seed=0)

    def test_transcript_invariants_validated(self):
        with pytest.raises(ValueError):
            GameTranscript(0, 0.5, 0.5, 0)  # no shots
        for freq in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                GameTranscript(10, freq, 0.5, 0)

    def test_std_error_is_derived(self, rng):
        h = random_hamiltonian(rng, 3, max_terms=8)
        psi = random_state(rng, 3)
        for shots, seed in ((1, 0), (7, 1), (999, 2), (65_537, 3)):
            t = simulate(h, psi, shots, seed)
            f = t.accept_frequency
            assert t.std_error == math.sqrt(f * (1 - f) / shots)


def test_simulate_computes_each_expectation_once(monkeypatch, rng):
    h = random_hamiltonian(rng, 4, max_terms=6)
    psi = random_state(rng, 4)
    seen = []
    mask_expectation = spectra._mask_expectation

    def counting(x, z, state):
        seen.append(PauliString(h.n, x, z))
        return mask_expectation(x, z, state)

    monkeypatch.setattr(spectra, "_mask_expectation", counting)
    transcript = simulate(h, psi, 500, seed=3)
    assert len(seen) == h.num_terms
    assert sorted(p.label for p in seen) == h.labels()
    # the shared expectations still feed the closed-form/term-wise cross-check
    assert transcript.exact_probability == accept_prob_exact(h, psi)


class TestStreamedShots:
    @pytest.fixture(scope="class")
    def instance(self):
        h = random_local(6, 3, 40, seed=5)
        # 10^5 shots are enough draws for the guide table of this many terms
        assert 100_000 >= 1 << (h.num_terms.bit_length() + 3)
        return h, random_state(np.random.default_rng(2024), 6)

    @pytest.mark.parametrize("record", [False, True])
    def test_chunk_size_invariance(self, instance, record, monkeypatch):
        # record=False checks the simulate transcript, record=True every
        # shot's arrays from shot_chunks
        h, psi = instance

        def run():
            if not record:
                return simulate(h, psi, 100_000, seed=13)
            _, _, chunks = shot_chunks(h, psi, 100_000, seed=13)
            return [np.concatenate(column) for column in zip(*chunks)]

        reference = run()
        if record:
            assert all(len(column) == 100_000 for column in reference)
        for chunk in (1, 3, 4096):
            monkeypatch.setattr(game, "SHOT_CHUNK", chunk)
            result = run()
            if record:
                for column, expected in zip(result, reference):
                    assert np.array_equal(column, expected)
            else:
                assert result == reference

    def test_memory_independent_of_shots(self, instance):
        h, psi = instance
        tracemalloc.start()
        try:
            simulate(h, psi, 2_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one chunk of uniforms is 2 MiB; drawing all 8e6 at once took 64 MiB
        assert peak < 6 * 2**20


def _workers(monkeypatch, workers):
    monkeypatch.setattr(game, "_worker_count", lambda chunks: min(workers, chunks))


class TestWorkerThreads:
    H = Hamiltonian.from_labels({"XI": 1.0, "ZZ": -0.5, "YX": 0.25, "IZ": 0.0625})
    SHOTS = 3 * 4096 + 100

    @pytest.fixture(scope="class")
    def replayed(self):
        psi = random_state(np.random.default_rng(31), 2)
        rounds = [play_round(self.H, psi, shot_rng(19, i)) for i in range(self.SHOTS)]
        return psi, [(r.sampled_term.label, r.coeff_sign, r.outcome, r.accepted) for r in rounds]

    @pytest.mark.parametrize("chunk", [7, 4096])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_shots_for_any_worker_count(self, replayed, monkeypatch, chunk, workers):
        # with a short switch interval the workers hand over the interpreter
        # lock as often as they can, so out-of-order completions are likely
        psi, want = replayed
        monkeypatch.setattr(game, "SHOT_CHUNK", chunk)
        _workers(monkeypatch, workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _shots(self.H, psi, self.SHOTS, seed=19)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_draw_step_invariance(self, replayed, monkeypatch):
        # chunks drawn in pieces of 5 counter blocks, and in one piece each
        psi, want = replayed
        for step in (5, 1 << 16):
            monkeypatch.setattr(game, "_DRAW_STEP", step)
            assert _shots(self.H, psi, self.SHOTS, seed=19) == want

    @pytest.fixture
    def stream(self, monkeypatch):
        """A 12-chunk stream on three drawing threads, and the thread count before it."""
        monkeypatch.setattr(game, "SHOT_CHUNK", 1000)
        _workers(monkeypatch, 3)
        before = threading.active_count()
        _, _, chunks = shot_chunks(self.H, StateVector.basis(2, 0), 12_000, seed=5)
        assert threading.active_count() == before  # no thread before the first chunk
        return chunks, before

    def test_no_thread_outlives_a_closed_stream(self, stream):
        chunks, before = stream
        next(chunks)
        assert threading.active_count() > before
        chunks.close()
        assert threading.active_count() == before

    def test_no_thread_outlives_an_exhausted_stream(self, stream):
        chunks, before = stream
        assert sum(len(term_idx) for term_idx, _, _ in chunks) == 12_000
        assert threading.active_count() == before

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        # the consumer draws a one-chunk batch itself
        _workers(monkeypatch, 3)
        before = threading.active_count()
        _, _, chunks = shot_chunks(self.H, StateVector.basis(2, 0), 500, seed=5)
        assert [threading.active_count() for _ in chunks] == [before]

    def test_worker_error_reaches_the_consumer(self, stream, monkeypatch):
        chunks, before = stream
        draw_chunk = game._ShotDrawer.__call__

        def failing(drawer, start, chunk):
            if start == 4000:
                raise RuntimeError("draw failed")
            draw_chunk(drawer, start, chunk)

        monkeypatch.setattr(game._ShotDrawer, "__call__", failing)
        seen, error = [], []

        def consume():
            try:
                seen.extend(len(term_idx) for term_idx, _, _ in chunks)
            except RuntimeError as exc:
                error.append(exc)

        consumer = threading.Thread(target=consume)
        consumer.start()
        consumer.join(timeout=60)
        assert not consumer.is_alive()
        assert seen == [1000] * 4 and str(error[0]) == "draw failed"
        assert threading.active_count() == before

    def test_no_draw_while_the_consumer_works(self, stream, monkeypatch):
        # chunks are drawn only while the consumer waits in next(), so a
        # slow consumer (the CSV writer) never shares the interpreter lock
        # with a draw
        chunks, _ = stream
        call = game._ShotDrawer.__call__
        busy, overlaps = [False], []

        def watched(drawer, start, chunk):
            overlaps.append(busy[0])
            call(drawer, start, chunk)
            overlaps.append(busy[0])

        monkeypatch.setattr(game._ShotDrawer, "__call__", watched)
        for _ in chunks:
            busy[0] = True
            time.sleep(0.002)
            busy[0] = False
        assert len(overlaps) == 24 and not any(overlaps)

    @pytest.mark.parametrize(
        "script",
        [
            """
            _, _, chunks = game.shot_chunks(H, StateVector.basis(2, 0), 12_000, 5)
            next(chunks)
            """,
            """
            def consume():
                _, _, chunks = game.shot_chunks(H, StateVector.basis(2, 0), 12_000, 5)
                next(chunks)
                raise RuntimeError("consumer failed")
            consume()
            """,
        ],
        ids=["module-global", "uncaught-error"],
    )
    def test_unclosed_stream_lets_the_interpreter_exit(self, script):
        # a partly read stream still alive at exit, in a global or in the
        # frame an uncaught error's traceback keeps, with idle workers
        code = textwrap.dedent(
            """
            import pauliham.game as game
            from pauliham.paulis import Hamiltonian
            from pauliham.spectra import StateVector
            game.SHOT_CHUNK = 1000
            game._worker_count = lambda chunks: min(3, chunks)
            H = Hamiltonian.from_labels({"XI": 1.0, "ZZ": -0.5})
            """
        ) + textwrap.dedent(script)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == (1 if "raise" in script else 0), done.stderr

    def test_worker_count_follows_usable_cores(self, monkeypatch):
        monkeypatch.setattr(game.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [game._worker_count(c) for c in (1, 2, 3, 100)] == [1, 2, 3, 3]
        monkeypatch.delattr(game.os, "sched_getaffinity")
        monkeypatch.setattr(game.os, "cpu_count", lambda: None)
        assert game._worker_count(100) == 1
        monkeypatch.setattr(game.os, "cpu_count", lambda: 64)
        assert game._worker_count(100) == game._MAX_WORKERS
