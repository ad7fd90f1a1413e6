"""Host-speed calibration: fixed kernels timed next to every task.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.8x over minutes, far more than a regression bound.  So right after
every task the benchmark times two fixed kernels that never call the
package, one for each kind of work whose speed the host moves differently:

* ``interp``: JSON decode and encode, dict merges of label strings and
  sorting, the interpreter-bound work of most tasks;
* ``memory``: a gather and multiply-add over a 4 MiB complex vector, like
  the numpy and LAPACK work on arrays of megabytes that makes up nearly all
  of a few large tasks (``Task.kernel`` names them).

A task's reported time is its wall time scaled by ``REFERENCE_S[k] / t``,
where ``t`` is the median time of its kernel ``k`` over the ``WINDOW``
tasks around it (so over a few seconds) and ``REFERENCE_S[k]`` is that
kernel's median time inside benchmark runs on the reference machine
(2-core Xeon VM, Python 3.11, numpy 2.4 with one OpenBLAS thread).  A
metric therefore reads in seconds of the reference machine: a change to
the program moves it in proportion, a change in the host's speed largely
cancels.  The raw wall-time medians are printed beside it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REFERENCE_S = {"interp": 3.0e-3, "memory": 2.0e-3}
WINDOW = 9

_RNG = np.random.default_rng(12345)
_TEXT = json.dumps({"terms": [
    {"pauli": "".join("IXYZ"[int(i)] for i in _RNG.integers(4, size=12)), "coeff": float(c)}
    for c in _RNG.uniform(-1, 1, 400)
]})
_MATRIX = _RNG.normal(size=(24, 24))
_MATRIX = _MATRIX + _MATRIX.T
_STREAM = _RNG.normal(size=1 << 19)  # 4 MiB
_SCRATCH = np.empty_like(_STREAM)
_VECTOR = _RNG.normal(size=1 << 18) + 1j * _RNG.normal(size=1 << 18)  # 4 MiB
_FLIP = np.arange(1 << 18) ^ 0b101101101101101101  # a Pauli string's bit flip


def _interp() -> None:
    terms: dict[str, float] = {}
    for term in json.loads(_TEXT)["terms"]:
        label = term["pauli"]
        terms[label] = terms.get(label, 0.0) + term["coeff"]
        terms[label[::-1]] = terms.get(label[::-1], 0.0) - 0.5 * term["coeff"]
    items = sorted(terms.items())
    json.dumps(items)
    np.linalg.eigvalsh(_MATRIX)
    np.multiply(_STREAM, 0.5, out=_SCRATCH)


def _memory() -> None:
    (0.5 * _VECTOR[_FLIP] + _VECTOR).sum()


KERNELS = {"interp": _interp, "memory": _memory}


def kernel_seconds() -> dict[str, float]:
    """Per kernel, the faster of two back-to-back runs, so one interrupt does not count."""
    out = {}
    for name, kernel in KERNELS.items():
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return out


def scales(kernel_times: list[float], reference: float) -> list[float]:
    """Per sample, ``reference`` over the median kernel time of its WINDOW neighbours."""
    n, half = len(kernel_times), WINDOW // 2
    out = []
    for i in range(n):
        lo = max(0, min(i - half, n - WINDOW))
        out.append(reference / statistics.median(kernel_times[lo:lo + WINDOW]))
    return out
