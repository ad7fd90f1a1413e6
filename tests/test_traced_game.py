"""The benchmark's tracer around a game whose shots are drawn on worker threads.

``perfbench/tracer.py`` wraps every public function of the package with one
span stack that is not thread-safe, so the shot-drawing threads must call
only private helpers and numpy: every wrapped call has to run on the main
thread, and tracing must not change a byte of the output.
"""

import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest

from pauliham import cli
from pauliham.paulis import random_local
from pauliham.serialize import save_hamiltonian, save_state

from conftest import random_state

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wrapped_functions_run_on_the_main_thread(tmp_path, fmt):
    ham, psi, out = tmp_path / "h.json", tmp_path / "psi.json", tmp_path / f"g.{fmt}"
    save_hamiltonian(random_local(6, 3, 40, seed=5), ham)
    save_state(random_state(np.random.default_rng(2024), 6), psi)
    argv = [
        "game", "--ham", str(ham), "--state", str(psi), "--shots", "200000",
        "--seed", "3", "--format", fmt, "--out", str(out),
    ]
    assert cli.main(argv) == 0
    plain = out.read_bytes()

    tracer = _tracer()
    calls = []
    span = tracer._span

    def recording(name, fn, args, kwargs):
        calls.append((name, threading.current_thread() is threading.main_thread()))
        return span(name, fn, args, kwargs)

    tracer._span = recording  # every wrapped call inside a task goes through it
    tracer.install()
    try:
        with tracer.task("game"):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert ("game.shot_chunks", True) in calls
    assert [name for name, on_main in calls if not on_main] == []
    assert out.read_bytes() == plain
