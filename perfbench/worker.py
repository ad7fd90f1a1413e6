"""Timed execution of one benchmark run, in a process of its own.

``run.py`` starts this script so that the peak resident set it reports
belongs to the workload alone: this process imports only numpy, the
package and the input generator, and runs no oracle.

It runs passes over the workload's task list until the time budget is
spent, and writes each task's latency, exit status and output digest, and
the calibration kernels' times measured right after it (``calibrate.py``),
to ``records.json`` in the run directory.  With ``--trace 1`` every pass runs
twice on the same inputs, first plain and then traced, so the two can be
compared byte for byte and the tracing overhead measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import pauliham.cli
import pauliham.game
import pauliham.paulis
import pauliham.serialize
import pauliham.spectra
from calibrate import kernel_seconds
from tracer import Tracer
from workloads import make_pass


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _hamiltonian_doc(h) -> dict:
    return {"n": h.n, "terms": sorted([p.label, c] for p, c in h.terms.items())}


def _call(task):
    """Load the inputs of a library task; return the timed call and its writer."""
    h = pauliham.serialize.load_hamiltonian(task.files["ham"])
    out = task.files["out"]
    if task.call == "matvec":
        v = np.load(task.files["vec"])
        return lambda: pauliham.spectra.matvec(h, v), lambda r: np.save(out, r)
    if task.call == "poly":
        poly = task.params["poly"]
        return lambda: pauliham.paulis.apply_polynomial(h, poly), lambda r: _dump(out, _hamiltonian_doc(r))
    psi = pauliham.serialize.load_state(task.files["state"])
    rng = np.random.default_rng(task.params["seed"])
    batch = task.params["batch"]

    def play():
        return [pauliham.game.play_round(h, psi, rng) for _ in range(batch)]

    def write(played):
        _dump(out, [[r.sampled_term.label, r.coeff_sign, r.outcome, r.accepted] for r in played])

    return play, write


def run_task(task, tracer: Tracer | None) -> dict:
    """Time one task; inputs are loaded and outputs written outside the timing."""
    fn, write = (lambda: pauliham.cli.main(task.argv)), None
    if task.call is not None:
        fn, write = _call(task)
    out = Path(task.files["out"])
    out.unlink(missing_ok=True)
    error, exit_code = None, 0
    # Every task starts from the same collector state: without this, whether a
    # full collection over the worker's growing heap lands inside a short task
    # depends on the allocation history of the whole run.
    gc.collect()
    gc.freeze()
    span = tracer.task(task.kind) if tracer else nullcontext()
    t0 = time.perf_counter()
    with span:
        try:
            value = fn()
        except SystemExit as exc:  # argparse usage errors
            value, exit_code = None, exc.code
        except Exception as exc:  # any raise is a failed task, not a crashed run
            value, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if task.call is None:
        exit_code = value if value is not None else exit_code
    elif error is None:
        write(value)
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    if tracer and task.call is None and out.exists():
        tracer.counters["serialize.bytes_written"] += out.stat().st_size
    return {
        "kind": task.kind,
        "metric": task.metric,
        "kernel": task.kernel,
        "seconds": seconds,
        "kernel_s": kernel_seconds(),
        "exit": exit_code,
        "error": error,
        "digest": digest,
        "files": {k: str(v) for k, v in task.files.items()},
        "params": task.params,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args()
    # The sparsify probes use vacuous Chernoff parameters on purpose.
    warnings.simplefilter("ignore", RuntimeWarning)

    tracer = Tracer() if args.trace else None
    modes = ("plain", "traced") if tracer else ("plain",)
    tasks, layers = [], []
    start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        task_list = make_pass(args.workload, args.seed, index, args.dir / f"p{index:03d}", args.tiny)
        for mode in modes:
            traced = mode == "traced"
            if traced:
                tracer.reset()
                tracer.install()
            results = [run_task(t, tracer if traced else None) for t in task_list]
            if traced:
                tracer.uninstall()
                layers.append(tracer.snapshot())
            for i, rec in enumerate(results):
                tasks.append(dict(rec, task=i, mode=mode, **{"pass": index}))
        index += 1
        # Start another pass only if it should end within the budget.
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        with open(args.dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:  # the last traced pass
                fh.write(json.dumps(span) + "\n")
    _dump(args.dir / "records.json", {"tasks": tasks, "layers": layers, "peak_rss_kb": peak_kb})


if __name__ == "__main__":
    main()
