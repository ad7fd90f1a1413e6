"""Seeded task lists for the benchmark workloads.

Every input is written here with numpy and json, in the file formats that
``pauliham.serialize`` documents; the program under test only ever sees the
generated files.  Each pass of a workload draws fresh coefficients from
``(seed, pass)``, because a CLI user runs one fresh process per call and
never benefits from in-process memoisation across inputs.

A task is either an in-process ``pauliham.cli.main(argv)`` call or one of
three direct library calls that no subcommand reaches: ``matvec``,
``apply_polynomial`` (``poly``) and a batch of ``play_round`` (``rounds``).
Every workload runs every task kind, so that every end-to-end metric is
defined on every workload; the kinds a workload is not about run at small
"probe" sizes that leave its dominant layer unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SITES = "XYZ"


@dataclass
class Task:
    """One timed call and what its oracle needs.

    ``kind`` selects the oracle check, ``metric`` the end-to-end latency the
    call feeds.  CLI tasks carry ``argv``; library tasks carry ``call``.
    ``files`` maps roles (``ham``, ``state``, ``vec``, ``out``) to paths.
    ``kernel`` names the calibration kernel that scales its time
    (``calibrate.py``).
    """

    kind: str
    metric: str
    files: dict
    params: dict = field(default_factory=dict)
    argv: list | None = None
    call: str | None = None
    kernel: str = "interp"


# ---------------------------------------------------------------- inputs


def random_labels(rng: np.random.Generator, n: int, ell: int, m: int) -> list[str]:
    """m distinct labels, each with exactly ell non-identity sites."""
    if m > math.comb(n, ell) * 3**ell:
        raise ValueError(f"only {math.comb(n, ell) * 3**ell} labels of weight {ell} on {n} qubits")
    seen: dict[str, None] = {}
    while len(seen) < m:
        chars = ["I"] * n
        for site in rng.choice(n, size=ell, replace=False):
            chars[int(site)] = SITES[int(rng.integers(3))]
        seen.setdefault("".join(chars))
    return list(seen)


def write_ham(path: Path, n: int, labels, coeffs) -> None:
    doc = {"n": n, "terms": [{"pauli": p, "coeff": float(c)} for p, c in zip(labels, coeffs)]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def write_state(path: Path, amps: np.ndarray) -> None:
    doc = {"n": int(amps.size).bit_length() - 1, "amplitudes": [[a.real, a.imag] for a in amps.tolist()]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def _anticommuting_pair(rng: np.random.Generator, nq: int) -> tuple[str, str]:
    """Two distinct non-identity labels on nq qubits that anticommute."""
    while True:
        a, b = ("".join("IXYZ"[int(i)] for i in rng.integers(4, size=nq)) for _ in range(2))
        if "I" * nq in (a, b):
            continue
        clashes = sum(x != "I" and y != "I" and x != y for x, y in zip(a, b))
        if clashes % 2 == 1:
            return a, b


def unit_norm_pair(rng: np.random.Generator, nq: int, scale: float = 1.0):
    """scale * (cos t P + sin t Q) with P, Q anticommuting: operator norm = scale.

    Both |cos t| and |sin t| stay >= 0.34 so no term of a tensor power up to
    k = 12 falls under the library's 1e-12 prune tolerance.
    """
    p, q = _anticommuting_pair(rng, nq)
    t = rng.uniform(0.35, math.pi / 2 - 0.35)
    signs = rng.choice([-1.0, 1.0], size=2)
    return [p, q], [scale * signs[0] * math.cos(t), scale * signs[1] * math.sin(t)]


# ----------------------------------------------------------------- tasks
# Each factory writes its inputs into ``d`` and returns one Task.


def norms(rng, d, n, ell, m, kernel="interp"):
    labels = random_labels(rng, n, ell, m)
    write_ham(d / "h.json", n, labels, rng.uniform(-1, 1, m))
    files = {"ham": d / "h.json", "out": d / "out.json"}
    argv = ["norms", "--ham", str(files["ham"]), "--out", str(files["out"])]
    return Task("norms", "norms_s", files, argv=argv, kernel=kernel)


def spectrum_local(rng, d, n, ell, m, max_iters=None, kernel="interp"):
    """Random local terms; dense path for n <= 12, budgeted iteration above."""
    labels = random_labels(rng, n, ell, m)
    write_ham(d / "h.json", n, labels, rng.uniform(-1, 1, m))
    files = {"ham": d / "h.json", "out": d / "out.json"}
    argv = ["spectrum", "--ham", str(files["ham"]), "--out", str(files["out"])]
    if max_iters is not None:
        argv[3:3] = ["--max-iters", str(max_iters)]
    return Task("spectrum", "spectrum_s", files, argv=argv, kernel=kernel)


def spectrum_chain(rng, d, n, tol):
    """Open XX+ZZ chain with couplings uniform in [0.9, 1.1].

    The narrow coupling range keeps the power-iteration count within a
    few percent across seeds, so the workload stays steady.
    """
    labels, coeffs = [], []
    for i in range(n - 1):
        for s in "XZ":
            labels.append("I" * i + s + s + "I" * (n - i - 2))
            coeffs.append(rng.uniform(0.9, 1.1))
    write_ham(d / "h.json", n, labels, coeffs)
    files = {"ham": d / "h.json", "out": d / "out.json"}
    argv = ["spectrum", "--ham", str(files["ham"]), "--tol", repr(tol), "--out", str(files["out"])]
    return Task("spectrum", "spectrum_s", files, argv=argv)


def build(rng, d, kind, n, ell=None, m=None):
    files = {"out": d / "out.json"}
    argv = ["build", "--kind", kind, "--n", str(n), "--out", str(files["out"])]
    params = {"model": kind, "n": n}
    if kind == "random-local":
        seed = int(rng.integers(2**31))
        argv[5:5] = ["--ell", str(ell), "--m", str(m), "--seed", str(seed)]
        params.update(ell=ell, m=m)
    return Task("build", "build_s", files, params, argv=argv)


def amplify(rng, d, nq, k):
    labels, coeffs = unit_norm_pair(rng, nq)
    write_ham(d / "h.json", nq, labels, coeffs)
    files = {"ham": d / "h.json", "out": d / "out.json"}
    argv = ["amplify", "--ham", str(files["ham"]), "--k", str(k), "--out", str(files["out"])]
    return Task("amplify", "amplify_s", files, {"k": k}, argv=argv)


def verify(rng, d, nq, k, case):
    """YES instances have lambda_max = 1; NO instances lambda_max <= 0.8 < 1 - 1/q."""
    scale = 1.0 if case == "yes" else rng.uniform(0.5, 0.8)
    labels, coeffs = unit_norm_pair(rng, nq, scale)
    write_ham(d / "h.json", nq, labels, coeffs)
    files = {"ham": d / "h.json", "out": d / "out.json"}
    argv = [
        "verify-lemma", "--ham", str(files["ham"]), "--p", "inf", "--q", "10",
        "--k", str(k), "--out", str(files["out"]),
    ]
    return Task("verify", "verify_s", files, {"k": k, "q": 10.0, "case": case}, argv=argv)


def game(rng, d, n, ell, m, shots, fmt):
    labels = random_labels(rng, n, ell, m)
    write_ham(d / "h.json", n, labels, rng.uniform(-1, 1, m))
    write_state(d / "psi.json", random_state(rng, n))
    files = {"ham": d / "h.json", "state": d / "psi.json", "out": d / f"out.{fmt}"}
    seed = int(rng.integers(2**31))
    argv = [
        "game", "--ham", str(files["ham"]), "--state", str(files["state"]),
        "--shots", str(shots), "--seed", str(seed), "--format", fmt, "--out", str(files["out"]),
    ]
    return Task("game", "game_s", files, {"shots": shots, "format": fmt}, argv=argv)


def sparsify(rng, d, n, ell, m, samples, trials):
    labels = random_labels(rng, n, ell, m)
    write_ham(d / "h.json", n, labels, rng.uniform(-1, 1, m))
    files = {"ham": d / "h.json", "out": d / "out.json"}
    seed = int(rng.integers(2**31))
    argv = [
        "sparsify", "--ham", str(files["ham"]), "--m", str(samples), "--delta", "1.0",
        "--trials", str(trials), "--seed", str(seed), "--out", str(files["out"]),
    ]
    return Task("sparsify", "sparsify_s", files, {"seed": seed, "m": samples, "trials": trials}, argv=argv)


def matvec(rng, d, n, ell, m, kernel="interp"):
    labels = random_labels(rng, n, ell, m)
    write_ham(d / "h.json", n, labels, rng.uniform(-1, 1, m))
    np.save(d / "v.npy", random_state(rng, n))
    files = {"ham": d / "h.json", "vec": d / "v.npy", "out": d / "out.npy"}
    return Task("matvec", "matvec_s", files, call="matvec", kernel=kernel)


def poly(rng, d, n, ell, m, degree):
    labels = random_labels(rng, n, ell, m)
    write_ham(d / "h.json", n, labels, rng.uniform(-1, 1, m) / math.sqrt(m))
    files = {"ham": d / "h.json", "out": d / "out.json"}
    coeffs = rng.uniform(-1, 1, degree + 1).tolist()
    return Task("poly", "poly_s", files, {"poly": coeffs}, call="poly")


def rounds(rng, d, n, ell, m, batch):
    labels = random_labels(rng, n, ell, m)
    write_ham(d / "h.json", n, labels, rng.uniform(-1, 1, m))
    write_state(d / "psi.json", random_state(rng, n))
    files = {"ham": d / "h.json", "state": d / "psi.json", "out": d / "out.json"}
    return Task("rounds", "rounds_s", files, {"seed": int(rng.integers(2**31)), "batch": batch}, call="rounds")


# ------------------------------------------------------------- workloads
# (factory, keyword arguments, repetitions per pass).  Where one metric
# gathers tasks of different sizes, the size it is about repeats most often
# in a pass, so the median falls inside that group on every run.

# Probes take about 5-40 ms each: shorter calls are dominated by argparse
# and file writes, whose cost swings with the shared host's I/O rather
# than with the program.  Single probe calls still vary by about 15%, so
# each runs eight times a pass to steady its median.
_PROBES = [
    (build, dict(kind="xxzz-chain", n=64), 8),
    (norms, dict(n=8, ell=2, m=16), 8),
    (spectrum_local, dict(n=8, ell=2, m=16), 8),
    (amplify, dict(nq=1, k=5), 8),
    (verify, dict(nq=1, k=5, case="yes"), 8),
    (game, dict(n=5, ell=2, m=20, shots=2000, fmt="json"), 8),
    (sparsify, dict(n=5, ell=2, m=20, samples=60, trials=4), 8),
    (matvec, dict(n=15, ell=2, m=20), 8),
    (poly, dict(n=6, ell=2, m=16, degree=3), 8),
    (rounds, dict(n=6, ell=2, m=40, batch=100), 8),
]


def _with_probes(main: list) -> list:
    """Main tasks plus a probe of every kind the main list does not run."""
    covered = {factory for factory, _, _ in main}
    return main + [probe for probe in _PROBES if probe[0] not in covered]


WORKLOADS = {
    # Few terms at large n: the eigensolver and matvec kernel do the work.
    # The dense n = 9 solves and the n = 19 matvecs spend nearly all their
    # time in LAPACK and numpy on 4-8 MiB arrays; their speed barely follows
    # the interpreter kernel, so the memory kernel scales them.
    "spectral": _with_probes([
        (norms, dict(n=9, ell=3, m=40, kernel="memory"), 3),
        (spectrum_local, dict(n=9, ell=3, m=40, kernel="memory"), 2),
        (spectrum_chain, dict(n=13, tol=1e-6), 1),
        # Fixed iteration budget: power iteration does not converge here.
        (spectrum_local, dict(n=13, ell=3, m=40, max_iters=50), 3),
        (matvec, dict(n=19, ell=2, m=38, kernel="memory"), 3),
    ]),
    # Few qubits, many terms: expansion, merging, sorting and JSON writes.
    "expand": _with_probes([
        (build, dict(kind="hadamard-power", n=10), 2),
        (build, dict(kind="random-local", n=10, ell=3, m=60), 1),
        (amplify, dict(nq=2, k=9), 1),
        (amplify, dict(nq=1, k=10), 2),
        (verify, dict(nq=1, k=9, case="yes"), 1),
        (verify, dict(nq=2, k=4, case="no"), 1),
        (verify, dict(nq=1, k=8, case="no"), 1),
        (poly, dict(n=8, ell=2, m=24, degree=3), 1),
        (poly, dict(n=8, ell=2, m=24, degree=4), 2),
    ]),
    # Sampling paths, pauli_expectation and file reads.
    "sample": _with_probes([
        (game, dict(n=10, ell=3, m=1024, shots=1_000_000, fmt="json"), 2),
        (game, dict(n=10, ell=3, m=1024, shots=10_000, fmt="csv"), 1),
        (sparsify, dict(n=8, ell=3, m=200, samples=400, trials=20), 1),
        (rounds, dict(n=10, ell=3, m=400, batch=200), 2),
    ]),
}

# Sizes for the benchmark's own smoke test: every kind, seconds per run.
TINY = [probe[:2] + (1,) for probe in _PROBES] + [(spectrum_local, dict(n=13, ell=2, m=8, max_iters=5), 1)]


def make_pass(workload: str, seed: int, index: int, root: Path, tiny: bool = False) -> list[Task]:
    """Write the inputs of one pass under ``root`` and return its tasks.

    Repetitions go round-robin (every kind once, then every kind again), so
    the samples of one metric are spread over the pass instead of sharing
    one moment of the machine's speed.
    """
    rng = np.random.default_rng([seed, index])
    entries = TINY if tiny else WORKLOADS[workload]
    tasks = []
    for rep in range(max(reps for _, _, reps in entries)):
        for factory, kwargs, reps in entries:
            if rep < reps:
                d = root / f"t{len(tasks):02d}"
                d.mkdir(parents=True)
                tasks.append(factory(rng, d, **kwargs))
    return tasks
