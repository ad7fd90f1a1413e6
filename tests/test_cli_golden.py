"""Byte-for-byte output of the Hamiltonian-writing subcommands.

The files under ``tests/golden/`` were written by ``build`` and
``amplify`` and pin their exact bytes: key order, float formatting,
term order and the embedded config.  Paths are relative to the working
directory so the recorded config does not depend on where tests run.
"""

from pathlib import Path

import pytest

from pauliham.cli import main

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    # XI and ZZ anticommute, so the operator norm is exactly 1.
    "unit.json": '{"n": 2, "terms": [{"pauli": "XI", "coeff": 0.6}, {"pauli": "ZZ", "coeff": 0.8}]}',
    "big.json": '{"n": 1, "terms": [{"pauli": "Z", "coeff": 2.0}]}',
}

CASES = {
    "build_xxzz_chain.json": ["build", "--kind", "xxzz-chain", "--n", "4"],
    "build_hadamard_power.json": ["build", "--kind", "hadamard-power", "--n", "3"],
    "build_random_local.json": [
        "build", "--kind", "random-local", "--n", "5", "--ell", "2", "--m", "8", "--seed", "11",
    ],
    "amplify_unit.json": ["amplify", "--ham", "unit.json", "--k", "3"],
    "amplify_assume_norm_ok.json": ["amplify", "--ham", "big.json", "--k", "2", "--assume-norm-ok"],
}


def run_case(name: str, directory: Path) -> bytes:
    """Write the inputs into ``directory``, run one case there, return its output bytes."""
    for file, text in INPUTS.items():
        (directory / file).write_text(text, encoding="utf-8")
    assert main(CASES[name] + ["--out", name]) == 0
    return (directory / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name, tmp_path) == (GOLDEN / name).read_bytes()
