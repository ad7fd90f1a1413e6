"""The library's public surface: its limits, its game records and its docs.

The term cap, the dense limit and the two tolerances are each set in one
place (``paulis.DEFAULT_TERM_CAP``, ``spectra.DEFAULT_DENSE_LIMIT``,
``paulis.DEFAULT_PRUNE_TOLERANCE`` and ``paulis._IMAG_TOLERANCE``), not
per call.  ``simulate`` keeps no per-round records: every shot comes from
``shot_chunks``, and the 10,000-round limit of the JSON game report is
``cli.ROUND_RECORD_LIMIT``.  A round's verdict, a transcript's standard
error and a spectral result's solver name are derived, not stored.  This
sweep keeps a keyword or an instance field for any of them from coming
back, and every exported name in README.md.  Every file the package
writes goes through one writer, ``serialize._write``, which removes a
half-written file; a scan of its source keeps a second write path (an
``open`` that writes or appends anywhere else, bar the CLI's ``<out>.log``
sidecar append) from coming back.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pauliham
import pauliham.game
import pauliham.serialize
from pauliham import GameRound, GameTranscript, Hamiltonian, SpectralResult

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


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_game_keeps_no_round_records():
    assert "rounds" not in _field_names(GameTranscript)
    assert not hasattr(pauliham.game, "ROUND_RECORD_LIMIT")


def test_derived_values_are_not_fields():
    assert "accepted" not in _field_names(GameRound)
    assert "std_error" not in _field_names(GameTranscript)
    assert "method" not in _field_names(SpectralResult)
    assert SpectralResult.method == "iterative"


def test_every_exported_name_in_readme():
    text = README.read_text(encoding="utf-8")
    exported = [
        name
        for name, obj in vars(pauliham).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    ]
    missing = [name for name in sorted(exported) if not re.search(rf"\b{name}\b", text)]
    assert missing == []


class _FileWrites(ast.NodeVisitor):
    """Each call of built-in ``open`` in a mode that writes, or of a
    ``write_text``/``write_bytes`` method, as (module.function, mode)."""

    def __init__(self, module: str):
        self.module, self.scopes, self.found = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Call(self, node):
        func, mode = node.func, None
        if isinstance(func, ast.Name) and func.id == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            arg = node.args[1] if len(node.args) > 1 else next(iter(modes), None)
            literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            if arg is not None and not (literal and set(arg.value).isdisjoint("wax+")):
                mode = arg.value if literal else "?"
        elif isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            mode = func.attr
        if mode is not None:
            self.found.append((f"{self.module}.{self.scopes[-1]}", mode))
        self.generic_visit(node)


def test_one_file_writer():
    found = []
    for path in sorted(Path(pauliham.__file__).parent.glob("*.py")):
        visitor = _FileWrites(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    # the one writer, and the CLI's sidecar, which only appends
    assert found == [("cli._emit", "a"), ("serialize._write", "w")]
    assert not hasattr(pauliham.serialize, "hamiltonian_json")
    assert list(inspect.signature(pauliham.save_hamiltonian).parameters) == ["h", "path"]
