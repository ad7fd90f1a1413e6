"""The library's public surface: its limits, its game records and its docs.

The term cap, the dense limit and the two tolerances are each set in one
place (``paulis.DEFAULT_TERM_CAP``, ``spectra.DEFAULT_DENSE_LIMIT``,
``paulis.DEFAULT_PRUNE_TOLERANCE`` and ``paulis._IMAG_TOLERANCE``), not
per call.  ``simulate`` keeps no per-round records: every shot comes from
``shot_chunks``, and the 10,000-round limit of the JSON game report is
``cli.ROUND_RECORD_LIMIT``.  This sweep keeps a keyword or an instance
field for them from coming back, and every exported name in README.md.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pauliham
import pauliham.game
from pauliham import GameTranscript, Hamiltonian

README = Path(__file__).parent.parent / "README.md"

REMOVED = {"term_cap", "dense_limit", "prune_tolerance", "imag_tolerance", "record_rounds"}


def _public_callables():
    for name, obj in sorted(vars(pauliham).items()):
        if name.startswith("_") or not callable(obj):
            continue
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    yield f"{name}.{attr}", getattr(obj, attr)
                elif inspect.isfunction(member):
                    yield f"{name}.{attr}", member


CALLABLES = list(_public_callables())


def test_sweep_covers_the_constructors():
    names = {name for name, _ in CALLABLES}
    assert {
        "Hamiltonian",
        "Hamiltonian.from_columns",
        "Hamiltonian.from_pairs",
        "Hamiltonian.from_labels",
        "tensor",
        "apply_polynomial",
        "extremal_eigs",
        "amplify",
        "empirical_deviation",
    } <= names


def test_no_limit_keywords():
    offenders = [
        (name, param)
        for name, obj in CALLABLES
        for param in inspect.signature(obj).parameters
        if param in REMOVED
    ]
    assert offenders == []


def test_hamiltonian_has_no_tolerance_field():
    h = Hamiltonian.from_labels({"XZ": 1.0})
    assert not hasattr(h, "prune_tolerance")
    assert "prune_tolerance" not in Hamiltonian.__slots__


def test_game_keeps_no_round_records():
    assert "rounds" not in {f.name for f in dataclasses.fields(GameTranscript)}
    assert not hasattr(pauliham.game, "ROUND_RECORD_LIMIT")


def test_every_exported_name_in_readme():
    text = README.read_text(encoding="utf-8")
    exported = [
        name
        for name, obj in vars(pauliham).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    ]
    missing = [name for name in sorted(exported) if not re.search(rf"\b{name}\b", text)]
    assert missing == []
