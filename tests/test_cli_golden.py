"""Byte-for-byte output of the subcommands and of the file writer, ``serialize._write``.

The files under ``tests/golden/`` pin exact bytes: key order, float
formatting, term order and the embedded config.  Paths are relative to
the working directory so the recorded config does not depend on where
tests run.  Every case is run twice: with ``--out`` and to stdout.

``inputs/h6.json`` lists its terms out of canonical order and repeats one
label, so the game and sparsify cases pin the canonical term order that
sampling walks and the merge on load.  Its coefficients are multiples of
1/16, so every sum over its terms is exact in any order.
``inputs/psi6.json`` is a fixed random 6-qubit state.
"""

from pathlib import Path

import pytest

from pauliham.cli import main
from pauliham.serialize import _json_document, _terms_json, _write, load_hamiltonian

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    # XI and ZZ anticommute, so the operator norm is exactly 1.
    "unit.json": '{"n": 2, "terms": [{"pauli": "XI", "coeff": 0.6}, {"pauli": "ZZ", "coeff": 0.8}]}',
    "big.json": '{"n": 1, "terms": [{"pauli": "Z", "coeff": 2.0}]}',
}
INPUT_FILES = ["h6.json", "psi6.json"]

CASES = {
    "build_xxzz_chain.json": ["build", "--kind", "xxzz-chain", "--n", "4"],
    "build_hadamard_power.json": ["build", "--kind", "hadamard-power", "--n", "3"],
    "build_random_local.json": [
        "build", "--kind", "random-local", "--n", "5", "--ell", "2", "--m", "8", "--seed", "11",
    ],
    # 12 draws from the 6 strings of weight 1 on 2 qubits: repeats merge by
    # summation in draw order.
    "build_random_local_repeats.json": [
        "build", "--kind", "random-local", "--n", "2", "--ell", "1", "--m", "12", "--seed", "3",
    ],
    "amplify_unit.json": ["amplify", "--ham", "unit.json", "--k", "3"],
    "amplify_assume_norm_ok.json": ["amplify", "--ham", "big.json", "--k", "2", "--assume-norm-ok"],
    "game_h6.csv": [
        "game", "--ham", "h6.json", "--state", "psi6.json", "--shots", "400", "--seed", "7",
        "--format", "csv",
    ],
    "game_h6.json": [
        "game", "--ham", "h6.json", "--state", "psi6.json", "--shots", "60", "--seed", "11",
    ],
    # Four shot chunks, the last one partial; the rounds are elided, so this
    # pins the aggregate of a multi-chunk run.
    "game_h6_big.json": [
        "game", "--ham", "h6.json", "--state", "psi6.json", "--shots", "200003", "--seed", "7",
        "--format", "json",
    ],
    "sparsify_h6.json": [
        "sparsify", "--ham", "h6.json", "--m", "200", "--delta", "1.0", "--trials", "3",
        "--seed", "5",
    ],
    "sparsify_h6.csv": [
        "sparsify", "--ham", "h6.json", "--m", "200", "--delta", "1.0", "--trials", "3",
        "--seed", "5", "--format", "csv",
    ],
    "norms_h6.json": ["norms", "--ham", "h6.json"],
    "norms_unit.json": ["norms", "--ham", "unit.json"],
    "spectrum_h6.json": ["spectrum", "--ham", "h6.json"],
}


def write_inputs(directory: Path) -> None:
    for file, text in INPUTS.items():
        (directory / file).write_text(text, encoding="utf-8")
    for file in INPUT_FILES:
        (directory / file).write_bytes((GOLDEN / "inputs" / file).read_bytes())


def run_case(name: str, directory: Path) -> bytes:
    """Write the inputs into ``directory``, run one case there, return its output bytes."""
    write_inputs(directory)
    assert main(CASES[name] + ["--out", name]) == 0
    return (directory / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name, tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_bytes_unchanged(name, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    inputs = sorted(tmp_path.iterdir())
    assert main(CASES[name]) == 0
    expected = (GOLDEN / name).read_bytes()
    if name.endswith(".json"):
        # the recorded config names the --out file; without one it is null
        out = f'"out": "{name}"'.encode()
        assert expected.count(out) == 1
        expected = expected.replace(out, b'"out": null')
    assert capsysbinary.readouterr().out == expected
    assert sorted(tmp_path.iterdir()) == inputs  # no file and no sidecar log


# Extra keys sort around "n" and "terms"; the strings hold the word
# "terms", quotes, a backslash, a newline and non-ASCII characters.
EXTRA = {
    "config": {
        "kind": 'terms "quoted" \\ back',
        "note": "Δ ≤ 1\n\"terms\": [",
        "k": 3,
        "p": "inf",
        "flags": [True, None, 0.1],
        "nested": {"z": [], "a": {}},
    },
    "a_first": 1.5,
    "o_middle": "between n and terms",
    "zz_last": ["x"],
}


def test_save_hamiltonian_bytes_unchanged(tmp_path):
    write_inputs(tmp_path)
    out = tmp_path / "saved.json"
    h = load_hamiltonian(tmp_path / "h6.json")
    _write(out, _json_document({"n": h.n, "terms": _terms_json(h), **EXTRA}, ("terms",)))
    assert out.read_bytes() == (GOLDEN / "save_extra_h6.json").read_bytes()
