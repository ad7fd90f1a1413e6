"""JSON file formats for Hamiltonians and state vectors.

Hamiltonian files:

    {"n": 2, "terms": [{"pauli": "XX", "coeff": 1.0}, ...]}

Terms are saved in canonical label order, written TERM_CHUNK terms at a
time, and duplicate labels merge by summation on load; unknown top-level
keys (e.g. embedded run configs) are ignored.  State files:

    {"n": 1, "amplitudes": [[re, im], ...]}

with exactly 2^n entries, written TERM_CHUNK pairs at a time; a norm
within 1e-6 of 1 is renormalized exactly, anything farther off is
rejected.  Both writers give the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` and a newline, through one document writer.
Every file pauliham writes, CLI reports included, goes through one file
writer, ``_write``: a write that fails or is interrupted removes the
regular file it was writing.
"""

from __future__ import annotations

import json
import math
import os
import stat
from collections.abc import Callable, Collection, Iterable, Iterator
from contextlib import suppress
from pathlib import Path
from typing import Any

import numpy as np

from .paulis import (
    DimensionMismatchError,
    Hamiltonian,
    PauliParseError,
    format_labels,
    parse_labels,
    parse_pauli,
)
from .spectra import StateVector

STATE_NORM_TOLERANCE = 1e-6

# The writers format the term list and the amplitude list this many
# entries at a time.
TERM_CHUNK = 1 << 14

# The encoder json.dumps(value, indent=2, sort_keys=True) builds, built once.
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


class SchemaError(ValueError):
    """A file does not match its JSON schema; the message names the field."""


def _write(path: "str | Path", pieces: Iterable[str], then: "Callable[[], object] | None" = None) -> None:
    """Write the pieces to ``path``, then call ``then`` if given.

    If either fails or is interrupted, the file is removed when ``path``
    names a regular file itself: never a device, a FIFO, or a symlink or the
    file it points to.
    """
    regular = False
    try:
        with open(path, "w", encoding="utf-8") as fh:
            st = os.fstat(fh.fileno())
            regular = stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.lstat(path))
            fh.writelines(pieces)
        if then is not None:
            then()
    except BaseException:
        if regular:
            with suppress(OSError):  # the first error is the one to report
                os.remove(path)
        raise


def _read(path: "str | Path", field: str) -> tuple[int, list]:
    """The JSON object in ``path``: its integer ``n`` >= 1 and its list ``field``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise SchemaError(f"{path}: field 'n' must be an integer")
    if n < 1:
        raise SchemaError(f"{path}: field 'n' must be >= 1, got {n}")
    entries = doc.get(field)
    if not isinstance(entries, list):
        raise SchemaError(f"{path}: field {field!r} must be a list")
    return n, entries


def _finite(value: "int | float") -> bool:
    """math.isfinite, False also for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _entry_fault(entry: Any) -> "str | None":
    """What is wrong with a term entry's fields, as the end of its error message, or None."""
    if not isinstance(entry, dict):
        return " must be an object"
    if not isinstance(entry.get("pauli"), str):
        return ".pauli must be a string"
    coeff = entry.get("coeff")
    if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
        return ".coeff must be a real number"
    if not _finite(coeff):
        return f".coeff is non-finite as a float: {coeff}"
    return None


def load_hamiltonian(path: "str | Path") -> Hamiltonian:
    """Load and canonicalize a Hamiltonian JSON file.

    Labels are parsed all at once (``parse_labels``); only a file with a
    bad entry is walked term by term, to name the first one.

    Raises:
        SchemaError: missing/ill-typed fields, inconsistent string lengths,
            coefficients not finite as floats, or illegal Pauli letters; the
            message names the offending entry.
    """
    n, entries = _read(path, "terms")
    x = z = None
    if not any(map(_entry_fault, entries)):
        try:
            x, z = parse_labels([entry["pauli"] for entry in entries], n)
        except (PauliParseError, DimensionMismatchError):
            pass
    for i, entry in enumerate(entries if x is None else ()):
        fault = _entry_fault(entry)
        if fault is None:
            try:
                width = parse_pauli(entry["pauli"]).n
            except PauliParseError as exc:
                fault = f".pauli: {exc}"
            else:
                fault = None if width == n else f".pauli has length {width}, expected n={n}"
        if fault is not None:
            raise SchemaError(f"{path}: terms[{i}]{fault}")
    return Hamiltonian.from_columns(n, x, z, [float(entry["coeff"]) for entry in entries])


def _terms_json(h: Hamiltonian) -> Iterator[str]:
    """The "terms" list as json.dumps(indent=2) writes it one level down, in pieces."""
    if h.is_zero():
        yield "[]"
        return
    # Expanded operators repeat few distinct coefficients: format each one
    # (by its bits, so 0.0 and -0.0 stay apart) once.
    bits = np.unique(h.coeffs.view(np.int64))
    few = 2 * len(bits) <= h.num_terms
    table = np.array([repr(c) for c in bits.view(np.float64).tolist()] if few else [], object)
    for start in range(0, h.num_terms, TERM_CHUNK):
        part = slice(start, start + TERM_CHUNK)
        chunk = h.coeffs[part]
        reprs = table[np.searchsorted(bits, chunk.view(np.int64))] if few else map(repr, chunk.tolist())
        items = ",\n".join(
            f'    {{\n      "coeff": {c},\n      "pauli": "{p}"\n    }}'
            for p, c in zip(format_labels(h.x[part], h.z[part], h.n), reprs)
        )
        yield ("[\n" if start == 0 else ",\n") + items
    yield "\n  ]"


def _json_document(doc: dict, streamed: Collection[str] = ()) -> Iterator[str]:
    """Pieces of ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, byte for byte.

    The value of each key in ``streamed`` is already text, in pieces: the
    list as json.dumps writes it one level down.
    """
    for i, key in enumerate(sorted(doc)):
        yield ("," if i else "{") + f"\n  {json.dumps(key)}: "
        if key in streamed:
            yield from doc[key]
        else:
            # one level down: every line after the first moves in by two spaces
            yield _ENCODER.encode(doc[key]).replace("\n", "\n  ")
    yield "\n}\n"


def save_hamiltonian(h: Hamiltonian, path: "str | Path") -> None:
    """Write a Hamiltonian in canonical term order; deterministic bytes."""
    _write(path, _json_document({"n": h.n, "terms": _terms_json(h)}, ("terms",)))


def load_state(path: "str | Path") -> StateVector:
    """Load a state-vector JSON file, renormalizing small norm drift.

    Raises:
        SchemaError: wrong amplitude count or shape, entries not finite as
            floats, or a norm farther than 1e-6 from 1.
    """
    n, raw = _read(path, "amplitudes")
    # 2^n has n + 1 bits: other lengths are refused without forming 2^n
    if len(raw).bit_length() != n + 1 or len(raw) != 1 << n:
        expected = 1 << n if n < 64 else f"2^{n}"
        raise SchemaError(f"{path}: amplitudes has {len(raw)} entries, expected {expected}")
    amps = np.empty(1 << n, dtype=np.complex128)
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entry)
        ):
            raise SchemaError(f"{path}: amplitudes[{i}] must be a [re, im] pair")
        if not (_finite(entry[0]) and _finite(entry[1])):
            raise SchemaError(f"{path}: amplitudes[{i}] is non-finite as a float")
        amps[i] = complex(entry[0], entry[1])
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > STATE_NORM_TOLERANCE:
        raise SchemaError(
            f"{path}: state norm {norm!r} deviates from 1 by more than "
            f"{STATE_NORM_TOLERANCE}"
        )
    return StateVector.normalized(n, amps)


def _amplitudes_json(psi: StateVector) -> Iterator[str]:
    """The "amplitudes" list as json.dumps(indent=2) writes it one level down, in pieces."""
    pairs = psi.amplitudes.view(np.float64).reshape(-1, 2)
    for start in range(0, len(pairs), TERM_CHUNK):
        chunk = pairs[start : start + TERM_CHUNK].tolist()
        # a state is finite, and json writes a finite float as repr does
        items = ",\n".join(f"    [\n      {re!r},\n      {im!r}\n    ]" for re, im in chunk)
        yield ("[\n" if start == 0 else ",\n") + items
    yield "\n  ]"


def _state_json(psi: StateVector) -> Iterator[str]:
    """Pieces of a state file: the amplitudes as [re, im] pairs, TERM_CHUNK pairs per piece."""
    return _json_document({"n": psi.n, "amplitudes": _amplitudes_json(psi)}, ("amplitudes",))


def save_state(psi: StateVector, path: "str | Path") -> None:
    """Write a state's amplitudes as [re, im] pairs, TERM_CHUNK pairs per piece."""
    _write(path, _state_json(psi))
