import json
import math
import os
import signal
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pauliham.cli as cli
import pauliham.game as game
import pauliham.serialize as serialize
from pauliham.cli import EXIT_CONVERGENCE, main
from pauliham.game import play_round, shot_rng
from pauliham.paulis import (
    Hamiltonian,
    hadamard_power,
    parse_pauli,
    pauli_1_norm,
    random_local,
    xxzz_chain,
)
from pauliham.serialize import (
    SchemaError,
    load_hamiltonian,
    load_state,
    save_hamiltonian,
    save_state,
)
from pauliham.spectra import ConvergenceError, StateVector, extremal_eigs, to_dense


class TestHamiltonianFiles:
    def test_round_trip(self, tmp_path, rng):
        from conftest import random_hamiltonian

        path = tmp_path / "h.json"
        h = random_hamiltonian(rng, 3)
        save_hamiltonian(h, path)
        loaded = load_hamiltonian(path)
        assert loaded.n == h.n
        assert loaded.terms.keys() == h.terms.keys()
        for p, c in h.terms.items():
            assert loaded.coefficient(p) == pytest.approx(c, abs=1e-12)

    def test_single_term(self, tmp_path):
        path = tmp_path / "z.json"
        path.write_text('{"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0}]}')
        h = load_hamiltonian(path)
        assert h.terms == {parse_pauli("Z"): 1.0}

    def test_duplicates_merge(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"n": 1, "terms": [{"pauli": "X", "coeff": 0.5},'
            ' {"pauli": "X", "coeff": 0.5}]}'
        )
        h = load_hamiltonian(path)
        assert h.terms == {parse_pauli("X"): 1.0}

    def test_illegal_letter_names_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "terms": [{"pauli": "XQ", "coeff": 1.0}]}')
        with pytest.raises(SchemaError, match="position 2"):
            load_hamiltonian(path)

    def test_inconsistent_length(self, tmp_path):
        path = tmp_path / "len.json"
        path.write_text('{"n": 2, "terms": [{"pauli": "X", "coeff": 1.0}]}')
        with pytest.raises(SchemaError, match="length"):
            load_hamiltonian(path)

    def test_non_finite_coeff(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"n": 1, "terms": [{"pauli": "X", "coeff": Infinity}]}')
        with pytest.raises(SchemaError, match="non-finite"):
            load_hamiltonian(path)

    def test_missing_fields_named(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"terms": []}')
        with pytest.raises(SchemaError, match="'n'"):
            load_hamiltonian(path)
        path.write_text('{"n": 1}')
        with pytest.raises(SchemaError, match="'terms'"):
            load_hamiltonian(path)

    def test_extra_keys_ignored(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(
            '{"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0}], "config": {"a": 1}}'
        )
        assert load_hamiltonian(path).num_terms == 1


class TestStateFiles:
    def test_round_trip(self, tmp_path, rng):
        from conftest import random_state

        psi = random_state(rng, 2)
        path = tmp_path / "s.json"
        save_state(psi, path)
        loaded = load_state(path)
        assert np.allclose(loaded.amplitudes, psi.amplitudes, atol=1e-12)

    def test_small_norm_drift_renormalized(self, tmp_path):
        path = tmp_path / "d.json"
        amp = 1.0 + 5e-7
        path.write_text(json.dumps({"n": 1, "amplitudes": [[amp, 0.0], [0.0, 0.0]]}))
        psi = load_state(path)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_large_norm_drift_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[1.1, 0.0], [0.0, 0.0]]}))
        with pytest.raises(SchemaError, match="norm"):
            load_state(path)

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 2, "amplitudes": [[1.0, 0.0]]}))
        with pytest.raises(SchemaError, match="entries"):
            load_state(path)

    def test_bad_pair(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[1.0, 0.0], [0.0]]}))
        with pytest.raises(SchemaError, match=r"amplitudes\[1\]"):
            load_state(path)

    @pytest.mark.parametrize("n", [20_000, 10**11])
    def test_huge_n_is_schema_error(self, tmp_path, n):
        # the count is refused without forming 2^n (12.5 GB at n = 10^11)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": n, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        with pytest.raises(SchemaError, match=rf"amplitudes has 2 entries, expected 2\^{n}"):
            load_state(path)


INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
# h6 has coefficients of both signs; psi6 is a fixed random 6-qubit state.
H6_GAME = ["game", "--ham", str(INPUTS / "h6.json"), "--state", str(INPUTS / "psi6.json")]


def _write_ham(path, labels):
    save_hamiltonian(Hamiltonian.from_labels(labels), path)


class TestCli:
    def test_build_then_norms_hadamard3(self, tmp_path, capsys):
        ham = tmp_path / "had3.json"
        assert main(["build", "--kind", "hadamard-power", "--n", "3", "--out", str(ham)]) == 0
        assert main(["norms", "--ham", str(ham)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pauli_1_norm"] == pytest.approx(2.0 ** 1.5, abs=1e-9)
        assert doc["operator_norm"] == pytest.approx(1.0, abs=1e-9)
        assert doc["config"]["subcommand"] == "norms"

    def test_amplify_then_norms(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        out = tmp_path / "hp.json"
        _write_ham(z, {"Z": 1.0})
        assert main(["amplify", "--ham", str(z), "--k", "3", "--out", str(out)]) == 0
        assert main(["norms", "--ham", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pauli_1_norm"] == pytest.approx(2.5, abs=1e-12)

    def test_verify_lemma_conforming(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        _write_ham(z, {"Z": 1.0})
        code = main(["verify-lemma", "--ham", str(z), "--p", "inf", "--q", "5", "--k", "10"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["all_bounds_hold"] is True
        assert doc["promise_case"] == "yes"
        assert doc["config"]["p"] == "inf"
        # one key per report field
        for key in (
            "k", "lambda_in", "lambda_out_exact", "yes_lower_bound",
            "no_upper_bound", "no_lower_bound", "pauli1_in", "pauli1_out",
            "pauli1_bound", "gap_lower_bound", "all_bounds_hold",
            "no_gap_from_one", "no_gap_half_scale", "gap_formula_in_regime",
        ):
            assert key in doc

    def test_verify_lemma_promise_violation_exits_4(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        _write_ham(h, {"Z": 0.9})
        code = main(["verify-lemma", "--ham", str(h), "--p", "inf", "--q", "5", "--k", "4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert doc["all_bounds_hold"] is False

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_nan_or_negative_tolerance_exits_2(self, tmp_path, capsys, value):
        h = tmp_path / "h.json"
        out = tmp_path / "out.json"
        _write_ham(h, {"Z": 1.0})
        assert main(["spectrum", "--ham", str(h), "--tol", value, "--out", str(out)]) == 2
        assert "tol must be >= 0" in capsys.readouterr().err
        argv = ["verify-lemma", "--ham", str(h), "--p", "inf", "--q", "5", "--k", "3"]
        assert main(argv + ["--eigen-tol", value, "--out", str(out)]) == 2
        assert "eigen_tol must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv) == 0  # the same run with the default tolerance verifies

    def test_spectrum(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        _write_ham(h, {"XX": 1.0, "ZZ": 1.0})
        assert main(["spectrum", "--ham", str(h)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda_max"] == pytest.approx(2.0, abs=1e-12)
        assert doc["lambda_min"] == pytest.approx(-2.0, abs=1e-12)
        assert doc["method"] == "iterative" and doc["converged"] is True
        want = np.linalg.eigvalsh(to_dense(load_hamiltonian(h)))
        assert (doc["lambda_max"], doc["lambda_min"]) == pytest.approx((want[-1], want[0]), abs=1e-12)

    def test_game_with_top_eig(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        _write_ham(z, {"Z": 1.0})
        assert main([
            "game", "--ham", str(z), "--state", "top-eig",
            "--shots", "100", "--seed", "3",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accept_frequency"] == 1.0
        assert doc["exact_probability"] == 1.0
        assert len(doc["rounds"]) == 100

    def test_game_with_state_file(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        psi = tmp_path / "psi.json"
        _write_ham(z, {"Z": 1.0})
        save_state(StateVector.basis(1, 1), psi)
        assert main([
            "game", "--ham", str(z), "--state", str(psi),
            "--shots", "50", "--seed", "3",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accept_frequency"] == 0.0

    def test_game_rounds_elided_in_json(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        _write_ham(z, {"Z": 1.0})
        assert main([
            "game", "--ham", str(z), "--state", "top-eig",
            "--shots", "20000", "--seed", "3",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rounds_elided"] is True and doc["rounds"] == []

    def test_game_csv(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        _write_ham(z, {"Z": 1.0})
        assert main([
            "game", "--ham", str(z), "--state", "top-eig",
            "--shots", "5", "--seed", "3", "--format", "csv",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "round,pauli,coeff_sign,outcome,accepted"
        assert len(lines) == 6

    def test_sparsify_json_and_csv(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        _write_ham(h, {"XX": 1.0, "ZZ": 1.0})
        assert main([
            "sparsify", "--ham", str(h), "--m", "512", "--delta", "0.5",
            "--trials", "20", "--seed", "1",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 512 and len(doc["deviations"]) == 20
        assert main([
            "sparsify", "--ham", str(h), "--m", "512", "--delta", "0.5",
            "--trials", "20", "--seed", "1", "--format", "csv",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "trial,deviation,failed"
        assert len(lines) == 21

    def test_exit_code_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "terms": [{"pauli": "XQ", "coeff": 1.0}]}')
        assert main(["norms", "--ham", str(bad)]) == 2
        assert main(["norms", "--ham", str(tmp_path / "missing.json")]) == 2

    def test_exit_code_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["norms", "--no-such-flag"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_exit_code_capacity_error(self, tmp_path, capsys):
        h = tmp_path / "h2.json"
        save_hamiltonian(hadamard_power(2), h)
        assert main(["amplify", "--ham", str(h), "--k", "12", "--out", str(tmp_path / "o.json")]) == 3

    def test_verify_lemma_huge_k_exits_3(self, tmp_path, capsys):
        # its Pauli 1-norm bound overflows a float and its 3^5000 terms the cap
        h = tmp_path / "had1.json"
        assert main(["build", "--kind", "hadamard-power", "--n", "1", "--out", str(h)]) == 0
        argv = ["verify-lemma", "--ham", str(h), "--p", "inf", "--q", "10", "--k", "5000"]
        assert main(argv) == 3
        assert "capacity error" in capsys.readouterr().err

    def test_exit_code_convergence_error(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        vec = tmp_path / "top.json"
        save_hamiltonian(random_local(6, 2, 12, seed=1), h)
        argv = ["spectrum", "--ham", str(h), "--tol", "1e-14", "--max-iters", "2"]
        # an unconverged spectrum is still reported ...
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is False
        # ... but its Ritz vector is not saved as an eigenvector
        assert main(argv + ["--eigvec-out", str(vec)]) == EXIT_CONVERGENCE == 5
        assert "convergence error" in capsys.readouterr().err
        assert not vec.exists()

    def test_norms_convergence_error_exits_5(self, tmp_path, capsys, monkeypatch):
        import pauliham.cli

        def unconverged(ham):
            raise ConvergenceError("eigensolver did not converge")

        h = tmp_path / "h.json"
        _write_ham(h, {"XX": 1.0, "ZZ": 1.0})
        monkeypatch.setattr(pauliham.cli, "operator_norm", unconverged)
        assert main(["norms", "--ham", str(h)]) == 5
        assert "norms: convergence error" in capsys.readouterr().err

    def test_spectrum_output_byte_identical(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        save_hamiltonian(random_local(9, 3, 30, seed=4), h)
        runs = []
        for _ in range(2):
            assert main(["spectrum", "--ham", str(h)]) == 0
            runs.append(capsys.readouterr().out.encode())
        assert runs[0] == runs[1]

    def test_top_eig_beyond_old_dense_limit(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        save_hamiltonian(xxzz_chain(13), h)
        assert main(["game", "--ham", str(h), "--state", "top-eig", "--shots", "100", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # top eigenvalue of the open XX+ZZ chain over its Pauli 1-norm 24
        lam = extremal_eigs(xxzz_chain(13)).lambda_max
        assert doc["exact_probability"] == pytest.approx(0.5 + lam / 48.0, abs=1e-9)

    def test_cli_import_does_not_load_scipy(self):
        import subprocess
        import sys

        code = "import sys, pauliham.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_cli_import_does_not_load_test_dependencies(self):
        # scipy and hypothesis are test extras (pyproject.toml), not runtime needs
        import subprocess
        import sys

        code = (
            "import sys, pauliham.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis'}))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_norm_check_beyond_solver_budget_exits_3(self, tmp_path, capsys):
        # ||H||_P1 = 1.2 > 1 at n = 40: a solve would need 2^40-entry vectors
        h = tmp_path / "wide.json"
        _write_ham(h, {"X" + "I" * 39: 0.6, "Z" + "I" * 39: 0.6})
        out = tmp_path / "o.json"
        assert main(["amplify", "--ham", str(h), "--k", "2", "--out", str(out)]) == 3
        assert "got n=40" in capsys.readouterr().err
        assert not out.exists()

    def test_coeff_too_large_for_float_exits_2(self, tmp_path, capsys):
        h = tmp_path / "huge.json"
        h.write_text(
            '{"n": 1, "terms": [{"pauli": "X", "coeff": 1.0},'
            ' {"pauli": "Z", "coeff": 1' + "0" * 400 + "}]}"
        )
        assert main(["norms", "--ham", str(h)]) == 2
        assert "terms[1].coeff is non-finite as a float" in capsys.readouterr().err

    def test_amplitude_too_large_for_float_exits_2(self, tmp_path, capsys):
        h = tmp_path / "z.json"
        _write_ham(h, {"Z": 1.0})
        psi = tmp_path / "huge.json"
        psi.write_text('{"n": 1, "amplitudes": [[0, 0], [1' + "0" * 400 + ", 0]]}")
        argv = ["game", "--ham", str(h), "--state", str(psi), "--shots", "10", "--seed", "1"]
        assert main(argv) == 2
        assert "amplitudes[1] is non-finite as a float" in capsys.readouterr().err

    def test_norm_precondition_is_input_error(self, tmp_path):
        h = tmp_path / "big.json"
        _write_ham(h, {"Z": 2.0})
        assert main(["amplify", "--ham", str(h), "--k", "2", "--out", str(tmp_path / "o.json")]) == 2

    def test_deterministic_output_and_sidecar(self, tmp_path):
        z = tmp_path / "z.json"
        _write_ham(z, {"Z": 1.0})
        out = tmp_path / "a.json"
        argv = [
            "game", "--ham", str(z), "--state", "top-eig",
            "--shots", "200", "--seed", "9", "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        # identical config + inputs give byte-identical primary output
        assert out.read_bytes() == first
        doc = json.loads(first)
        assert "config" in doc and doc["config"]["seed"] == 9
        with open(str(out) + ".log") as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 2 and all("game" in line for line in lines)

    def test_build_random_local(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main([
            "build", "--kind", "random-local", "--n", "4", "--ell", "2",
            "--m", "6", "--seed", "7", "--out", str(out),
        ]) == 0
        h = load_hamiltonian(out)
        assert h.n == 4

    def test_env_overrides_dense_limit(self, tmp_path):
        # PAULIHAM_DENSE_LIMIT is read at import, so probe via a subprocess
        import os
        import subprocess
        import sys

        ham = tmp_path / "h.json"
        _write_ham(ham, {"XX": 1.0, "ZZ": 1.0})
        env = dict(os.environ, PAULIHAM_DENSE_LIMIT="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pauliham", "spectrum", "--ham", str(ham)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["method"] == "iterative"
        assert doc["lambda_max"] == pytest.approx(2.0, abs=1e-6)

    def test_env_overrides_term_cap(self, tmp_path):
        # PAULIHAM_TERM_CAP is read at import, so probe via a subprocess
        import os
        import subprocess
        import sys

        ham = tmp_path / "h.json"
        _write_ham(ham, {"XX": 0.5, "ZZ": 0.5})  # (I + H)/2 has 3 terms: 27 at k = 3
        assert main(["amplify", "--ham", str(ham), "--k", "3", "--out", str(tmp_path / "a.json")]) == 0
        env = dict(os.environ, PAULIHAM_TERM_CAP="26")
        proc = subprocess.run(
            [sys.executable, "-m", "pauliham", "amplify", "--ham", str(ham), "--k", "3"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3
        assert "capacity error" in proc.stderr
        assert "cap is 26" in proc.stderr
        assert proc.stdout == ""

    def test_spectrum_eigvec_out_feeds_game(self, tmp_path, capsys):
        ham = tmp_path / "had.json"
        vec = tmp_path / "top.json"
        save_hamiltonian(hadamard_power(1), ham)
        assert main(["spectrum", "--ham", str(ham), "--eigvec-out", str(vec), "--out", str(tmp_path / "s.json")]) == 0
        assert main([
            "game", "--ham", str(ham), "--state", str(vec),
            "--shots", "100", "--seed", "1",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exact_probability"] == pytest.approx(0.8535533905932737, abs=1e-9)


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedOutput:
    def test_game_csv_memory_independent_of_shots(self, tmp_path):
        ham = tmp_path / "h.json"
        _write_ham(ham, {"XZ": 0.5, "ZI": -0.3, "YY": 0.2})
        out = tmp_path / "g.csv"

        def peak(shots):
            argv = [
                "game", "--ham", str(ham), "--state", "top-eig", "--shots", str(shots),
                "--seed", "1", "--format", "csv", "--out", str(out),
            ]
            code, traced = _traced_peak(main, argv)
            assert code == 0
            return traced

        small, large = peak(200_000), peak(2_000_000)
        with open(out) as fh:
            assert sum(1 for _ in fh) == 2_000_001
        # rows are written one shot chunk at a time; holding every round
        # before writing would take hundreds of MB at 2e6 shots
        assert large < small + 2**20

    def test_failing_csv_game_writes_nothing(self, tmp_path):
        ham, psi, out = tmp_path / "h.json", tmp_path / "psi.json", tmp_path / "g.csv"
        _write_ham(ham, {"ZZ": 1.0})
        save_state(StateVector.basis(1, 0), psi)  # one qubit against two
        argv = ["game", "--ham", str(ham), "--seed", "1", "--format", "csv", "--out", str(out)]
        assert main(argv + ["--state", "top-eig", "--shots", "0"]) == 2
        assert main(argv + ["--state", str(psi), "--shots", "10"]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.json", "psi.json"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_invalid_seed_writes_nothing(self, tmp_path, capsys, fmt, seed):
        # The Philox key is checked before the output file is opened, not
        # when the first shot chunk is drawn.
        ham, out = tmp_path / "h.json", tmp_path / f"g.{fmt}"
        _write_ham(ham, {"ZZ": 1.0})
        argv = [
            "game", "--ham", str(ham), "--state", "top-eig", "--shots", "10",
            "--seed", str(seed), "--format", fmt, "--out", str(out),
        ]
        assert main(argv) == 2
        assert "key must be positive" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["h.json"]

    def test_save_hamiltonian_memory_independent_of_terms(self, tmp_path, monkeypatch):
        h = hadamard_power(16)  # 65,536 terms, 1.5 MiB of columns
        save_hamiltonian(hadamard_power(2), tmp_path / "warm.json")
        monkeypatch.setattr(serialize, "TERM_CHUNK", 1024)
        chunked = tmp_path / "chunked.json"
        _, peak = _traced_peak(save_hamiltonian, h, chunked)
        # The text is held 1024 terms at a time; what grows with the term
        # count is the sorted copy of the coefficient bits for the table of
        # distinct coefficients, 8 B/term.  The whole text would take 19 MB.
        assert peak < 2**20
        monkeypatch.setattr(serialize, "TERM_CHUNK", 1 << 20)
        whole = tmp_path / "whole.json"
        save_hamiltonian(h, whole)
        assert chunked.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_game_formats_only_the_labels_its_shots_reach(self, tmp_path, monkeypatch, fmt):
        # 40 shots on 2,000 terms: at most 40 labels are formatted
        h, ham = random_local(8, 3, 2000, seed=2), tmp_path / "h.json"
        save_hamiltonian(h, ham)
        save_state(StateVector.normalized(8, np.ones(256)), tmp_path / "psi.json")
        formatted = []

        def counted(x, z, n):
            formatted.append(len(x))
            return serialize.format_labels(x, z, n)

        monkeypatch.setattr(cli, "format_labels", counted)
        argv = ["game", "--ham", str(ham), "--state", str(tmp_path / "psi.json")]
        assert main(argv + ["--shots", "40", "--seed", "1", "--format", fmt]) == 0
        assert h.num_terms > 1000 and 0 < sum(formatted) <= 40

    def test_game_rows_replay_play_round(self, capsys):
        # every CSV row and every JSON round is its shot's play_round
        h, psi = load_hamiltonian(INPUTS / "h6.json"), load_state(INPUTS / "psi6.json")
        want = [play_round(h, psi, shot_rng(13, i)) for i in range(300)]
        assert {(r.coeff_sign, r.outcome) for r in want} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        argv = H6_GAME + ["--shots", "300", "--seed", "13"]
        assert main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"{i},{r.sampled_term.label},{r.coeff_sign},{r.outcome},{int(r.accepted)}"
            for i, r in enumerate(want)
        ]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["rounds"] == [
            {
                "accepted": r.accepted,
                "coeff_sign": r.coeff_sign,
                "outcome": r.outcome,
                "pauli": r.sampled_term.label,
            }
            for r in want
        ]


def _csv_game_process():
    """``pauliham game`` writing a 10^6-shot CSV game into a pipe."""
    argv = [sys.executable, "-m", "pauliham.cli", *H6_GAME]
    argv += ["--shots", "1000000", "--seed", "1", "--format", "csv"]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


class TestQuietExits:
    def _assert_quiet(self, proc, code):
        try:
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == code, err
        assert b"Traceback" not in err and b"Exception ignored" not in err, err

    def test_closed_pipe_exits_141(self):
        proc = _csv_game_process()
        assert proc.stdout.readline() == b"round,pauli,coeff_sign,outcome,accepted\n"
        proc.stdout.readline()
        proc.stdout.close()
        self._assert_quiet(proc, 141)

    def test_interrupt_exits_130(self):
        # the game cannot finish before the signal: the full pipe blocks it
        proc = _csv_game_process()
        proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        self._assert_quiet(proc, 130)

    @staticmethod
    def _interrupt_second_chunk(monkeypatch):
        """Make a CSV game raise KeyboardInterrupt on its second shot chunk,
        drawn with three threads."""
        monkeypatch.setattr(game, "SHOT_CHUNK", 1000)
        monkeypatch.setattr(game, "_worker_count", lambda chunks: min(3, chunks))
        real_rows = cli._csv_rows

        def rows(start, texts):
            if start:
                raise KeyboardInterrupt
            return real_rows(start, texts)

        monkeypatch.setattr(cli, "_csv_rows", rows)
        return H6_GAME + ["--shots", "10000", "--seed", "1", "--format", "csv", "--out"]

    def test_interrupted_write_removes_its_file(self, tmp_path, monkeypatch):
        argv = self._interrupt_second_chunk(monkeypatch)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):  # in-process, main raises it
            main(argv + [str(tmp_path / "g.csv")])
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == before

    def test_interrupted_write_keeps_symlink_and_fifo(self, tmp_path, monkeypatch):
        argv = self._interrupt_second_chunk(monkeypatch)
        target, link, fifo = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "fifo"
        target.write_text("", encoding="utf-8")
        link.symlink_to(target)
        with pytest.raises(KeyboardInterrupt):
            main(argv + [str(link)])
        assert link.is_symlink() and target.is_file()
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write won't block
        try:
            with pytest.raises(KeyboardInterrupt):
                main(argv + [str(fifo)])
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
