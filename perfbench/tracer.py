"""Per-layer tracing by wrapping the package's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules in
every module namespace that binds it (``pauliham.cli.extremal_eigs`` and
``pauliham.spectra.extremal_eigs`` get the same wrapper), so calls between
modules are seen too; ``uninstall`` puts the originals back.  The package
code itself is unchanged.

Spans are recorded only inside a task (``Tracer.task``), with a parent
link, and kept in memory.  Self time of a span is its duration minus the
durations of its direct children.  Named counters are taken at the same
boundaries from arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "serialize", "paulis", "spectra", "amplify", "game", "sparsify")


def _path_size(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# Named counters, keyed by the traced function: increments taken from a
# call's arguments and result.
_COUNTERS = {
    "spectra.extremal_eigs": lambda a, k, r: {
        "spectra.extremal_eigs.iterations": r.iterations,
        "spectra.extremal_eigs.dense_calls": int(r.method == "dense"),
    },
    "game.simulate": lambda a, k, r: {"game.simulate.shots": r.shots},
    "sparsify.empirical_deviation": lambda a, k, r: {"sparsify.trials": r.trials},
    "serialize.load_hamiltonian": lambda a, k, r: {"serialize.bytes_read": _path_size(a, k)},
    "serialize.load_state": lambda a, k, r: {"serialize.bytes_read": _path_size(a, k)},
}


class Tracer:
    def __init__(self):
        self._modules = [importlib.import_module("pauliham")] + [
            importlib.import_module(f"pauliham.{name}") for name in LAYERS
        ]
        self._hamiltonian = importlib.import_module("pauliham.paulis").Hamiltonian
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new collection period (one pass)."""
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)

    # -------------------------------------------------------- patching

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("pauliham.") or layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        count = _COUNTERS.get(name)
        counts_terms = name.startswith("paulis.")
        stack = self._stack
        hamiltonian = self._hamiltonian

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            result = self._span(name, fn, args, kwargs)
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.counters[key] += amount
            if counts_terms and isinstance(result, hamiltonian):
                self.counters["paulis.terms_out"] += result.num_terms
            return result

        return traced

    # ----------------------------------------------------------- spans

    def _enter(self) -> tuple[list, int, float]:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, parent, time.perf_counter()

    def _exit(self, name: str, frame: list, parent: int, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        duration = t1 - t0
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - frame[1]
        self.spans.append((frame[0], parent, name, t0, t1))

    def _span(self, name, fn, args, kwargs):
        entered = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, *entered)

    @contextmanager
    def task(self, kind: str):
        """Root span of one benchmark task; functions are traced only inside one."""
        entered = self._enter()
        try:
            yield
        finally:
            self._exit(f"task.{kind}", *entered)

    def snapshot(self) -> dict:
        """Per-function calls and self seconds plus the named counters."""
        out = dict(self.counters)
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
        return out
