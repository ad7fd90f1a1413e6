"""Shared oracles and instance generators.

The dense oracle here is built from literal 2x2 matrices with np.kron and
stays independent of the library's own dense-matrix path, so tests that
compare the two are genuine cross-checks.  Qubit i sits at label position
i and at bit i of the basis index, so the kron product runs over the
reversed label (most significant factor first).
"""

import os
from pathlib import Path

import numpy as np
import pytest

import pauliham.paulis as paulis
import pauliham.spectra as spectra
from pauliham.paulis import Hamiltonian, PauliString, parse_pauli
from pauliham.spectra import StateVector

# Interpreters that tests start import the package from this checkout too,
# as the in-process tests do through pytest's ``pythonpath`` setting.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

SITE_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_pauli(label: str) -> np.ndarray:
    """Dense matrix of a Pauli label via plain kron products."""
    mat = np.eye(1, dtype=complex)
    for ch in reversed(label):
        mat = np.kron(mat, SITE_MATRICES[ch])
    return mat


def kron_dense(h: Hamiltonian) -> np.ndarray:
    """Independent dense builder for a whole Hamiltonian."""
    dim = 1 << h.n
    mat = np.zeros((dim, dim), dtype=complex)
    for p, c in h.terms.items():
        mat += c * kron_pauli(p.label)
    return mat


ALL_LABELS_1 = ["I", "X", "Y", "Z"]
ALL_LABELS_2 = [a + b for a in ALL_LABELS_1 for b in ALL_LABELS_1]


def random_pauli(rng: np.random.Generator, n: int) -> PauliString:
    return PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))


def random_hamiltonian(
    rng: np.random.Generator,
    n: int,
    max_terms: int = 6,
    include_identity: bool = False,
) -> Hamiltonian:
    """Random nonzero Hamiltonian with standard-normal coefficients."""
    count = int(rng.integers(1, max_terms + 1))
    pairs = []
    for _ in range(count):
        p = random_pauli(rng, n)
        if p.is_identity() and not include_identity:
            p = PauliString(n, 1, 0)
        pairs.append((p, float(rng.normal())))
    if include_identity:
        pairs.append((PauliString.identity(n), float(rng.normal())))
    h = Hamiltonian.from_pairs(n, pairs)
    if h.is_zero():  # coefficients may collide and cancel; retry
        return random_hamiltonian(rng, n, max_terms, include_identity)
    return h


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector.normalized(n, amps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# The library's limits are module constants read when a function runs;
# a test lowers one through the ``limits`` fixture below.
_LIMITS = {
    "term_cap": (paulis, "DEFAULT_TERM_CAP"),
    "dense_limit": (spectra, "DEFAULT_DENSE_LIMIT"),
    "imag_tolerance": (paulis, "_IMAG_TOLERANCE"),
}


@pytest.fixture
def limits(monkeypatch):
    """Setter of the limit constants for one test, e.g. ``limits(term_cap=8)``.

    Keywords are ``term_cap``, ``dense_limit`` and ``imag_tolerance``; each
    value is restored when the test ends.
    """

    def set_limits(**values):
        for name, value in values.items():
            monkeypatch.setattr(*_LIMITS[name], value)

    return set_limits
