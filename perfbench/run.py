"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workloads, metrics and units are those
of ``BENCHMARK.json``.  A run

1. times ``import pauliham.cli`` in several fresh interpreters (``setup_s``);
2. starts ``worker.py`` in its own process, which writes seeded inputs and
   runs passes over the workload's task list for ``--seconds`` seconds;
3. checks every task's output against ``oracle.py`` and, with
   ``--trace 1``, that the plain and traced passes wrote identical bytes;
4. prints the machine record and, per metric, the median, the highest
   percentile with at least ten samples beyond it and the sample count,
   then as its last line one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
   the per-layer metrics with ``--trace 1``.

Every end-to-end time is scaled to the reference machine's speed by the
calibration kernel timed next to it (``calibrate.py``); the summary line
also gives each metric's raw wall-time median (``raw_median``) and the
kernels' medians.  ``pass_s``
is the sum of one pass's task times.  Per-layer times are raw.

A task fails if it raises, exits non-zero, reports ``converged: false`` or
lands outside the oracle's tolerance; ``correct`` is false only for the
last kind, or for traced output that differs from plain output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread (never more than nproc) keeps runs comparable on a shared
# machine; numpy is imported only later, and every child process inherits it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import calibrate  # noqa: E402  (imports numpy, so after the BLAS pin)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
SETUP_REPEATS = 8  # half before the timed passes, half after
IMPORT_PROBE = "import time; t = time.perf_counter(); import pauliham.cli; print(repr(time.perf_counter() - t))"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"  # the same string hashing, so the same dict layouts, in every run
    return env


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """Seconds to import pauliham.cli in fresh interpreters, as every CLI call pays.

    Each import time comes with the median of three ``interp`` calibration
    kernel times taken just before it.
    """
    times = []
    for _ in range(repeats):
        kernel = statistics.median(calibrate.kernel_seconds()["interp"] for _ in range(3))
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append((float(out.stdout), kernel))
    return times


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_bytes / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "commit": commit,
    }


def summarize(samples: list[float]) -> dict:
    """Median, the highest whole percentile with >= 10 samples beyond it, and count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail_pct": None, "tail": None}
    if n > 10:
        out["tail_pct"] = 100 * (n - 10) // n
        out["tail"] = ordered[n - 11]
    return out


def classify(records: list[dict], wrong_reference: bool) -> tuple[list[str], bool]:
    """Status per record ("ok", "error", "not_converged", "wrong") and overall correctness."""
    from oracle import CHECKS, NOT_CONVERGED

    correct = True
    verdict: dict[tuple[int, int], str] = {}
    digests: dict[tuple[int, int], set] = {}
    for rec in records:
        key = (rec["pass"], rec["task"])
        digests.setdefault(key, set()).add(rec["digest"])
        if key in verdict:
            continue
        if rec["error"] is not None or rec["exit"] != 0:
            verdict[key] = "error"
            continue
        shift = 1.0 if wrong_reference and rec["kind"] == "norms" else 0.0
        message = CHECKS[rec["kind"]](rec, shift)
        if message is None:
            verdict[key] = "ok"
        elif message == NOT_CONVERGED:
            verdict[key] = "not_converged"
        else:
            verdict[key] = "wrong"
            correct = False
            print(f"oracle mismatch: pass {key[0]} task {key[1]} ({rec['kind']}): {message}", file=sys.stderr)
    for key, seen in digests.items():
        if len(seen) > 1:  # plain and traced passes wrote different bytes
            verdict[key] = "wrong"
            correct = False
            print(f"traced output differs: pass {key[0]} task {key[1]}", file=sys.stderr)
    return [verdict[(r["pass"], r["task"])] for r in records], correct


def pass_sums(records: list[dict], values: list[float]) -> list[float]:
    """Per pass, the sum of its tasks' values."""
    sums: dict[int, float] = {}
    for rec, value in zip(records, values):
        sums[rec["pass"]] = sums.get(rec["pass"], 0.0) + value
    return list(sums.values())


def end_to_end(result: dict, statuses: list[str], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    plain = [r for r in result["tasks"] if r["mode"] == "plain"]
    raw_times = [r["seconds"] for r in plain]
    scales = {
        name: calibrate.scales([r["kernel_s"][name] for r in plain], reference)
        for name, reference in calibrate.REFERENCE_S.items()
    }
    scaled = [t * scales[r["kernel"]][i] for i, (r, t) in enumerate(zip(plain, raw_times))]
    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for rec, t, value in zip(plain, raw_times, scaled):
        samples.setdefault(rec["metric"], []).append(value)
        raw.setdefault(rec["metric"], []).append(t)
    samples["pass_s"], raw["pass_s"] = pass_sums(plain, scaled), pass_sums(plain, raw_times)
    samples["setup_s"] = [t * calibrate.REFERENCE_S["interp"] / kernel for t, kernel in setup]
    raw["setup_s"] = [t for t, _ in setup]
    detail = {name: dict(summarize(values), raw_median=statistics.median(raw[name]))
              for name, values in samples.items()}
    for name in calibrate.KERNELS:
        detail[f"kernel.{name}_s"] = summarize([r["kernel_s"][name] for r in plain])
    failed = sum(s != "ok" for s in statuses)
    values = {name: d["median"] for name, d in detail.items()}
    values["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    values["ok_frac"] = 1.0 - failed / len(statuses)
    return values, detail


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    names = {name for snap in layers for name in snap}
    values = {name: statistics.median(snap.get(name, 0) for snap in layers) for name in names}
    by_mode: dict[str, list[float]] = {}
    for mode in ("plain", "traced"):
        records = [r for r in result["tasks"] if r["mode"] == mode]
        by_mode[mode] = pass_sums(records, [r["seconds"] for r in records])
    values["trace.overhead_frac"] = statistics.median(by_mode["traced"]) / statistics.median(by_mode["plain"]) - 1.0
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (see smoke.py)")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="shift the norms oracle's reference, to show wrong answers are caught")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "pauliham" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no pauliham sources under {SRC} or no {spec_path.name}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))

    setup = measure_setup(SETUP_REPEATS // 2)
    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", str(run_dir),
    ] + (["--tiny"] if args.tiny else [])
    with open(run_dir / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              timeout=args.seconds + 120)
    if proc.returncode != 0:
        print((run_dir / "worker.log").read_text(encoding="utf-8")[-4000:], file=sys.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    setup += measure_setup(SETUP_REPEATS - len(setup))
    result = json.loads((run_dir / "records.json").read_text(encoding="utf-8"))
    statuses, correct = classify(result["tasks"], args.wrong_reference)

    values, detail = end_to_end(result, statuses, setup)
    wanted = spec["end_to_end"]
    if args.trace:
        values.update(per_layer(result))
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not args.trace:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    counts = {s: statuses.count(s) for s in sorted(set(statuses))}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_record(), "statuses": counts, "detail": detail,
    }
    (ROOT / ".bench_out" / f"{run_dir.name}.json").write_text(
        json.dumps(dict(summary, metrics=metrics), indent=1), encoding="utf-8")
    spans = run_dir / "spans.jsonl"
    if spans.exists():
        spans.replace(run_dir.parent / f"{run_dir.name}-spans.jsonl")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(summary))
    print(json.dumps({
        "correct": correct, "attempted": len(statuses),
        "failed": len(statuses) - counts.get("ok", 0), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
