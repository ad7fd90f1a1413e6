"""Independent references for every task kind.

Nothing here uses pauliham's numerics.  A Pauli string is the kron product
of the literal 2x2 site matrices, kept as one (row, value) pair per column
because a Pauli string has exactly one nonzero per column.  Qubit i is
label position i and bit i of the basis index, so the kron product runs
over the reversed label.  Eigenvalues come from numpy's ``eigvalsh`` for
n <= 10 and from scipy's ``eigsh`` on a sparse matrix built here for larger
n; scipy is used by the benchmark only.

Each ``check_*`` returns None when the task's output agrees with the
reference within ``TOLERANCES``, or a message saying what disagreed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Per task kind; "abs" is absolute, "rel" relative to max(1, |reference|).
TOLERANCES = {
    "build": {"rel": 1e-15},
    "norms": {"rel": 1e-9},
    "spectrum.dense": {"rel": 1e-9},
    # Converged power iteration: residual <= --tol bounds the eigenvalue error.
    "spectrum.iterative": {"rel": 1e-5},
    "amplify": {"rel": 1e-9, "terms": "exactly 3^k"},
    "verify": {"abs": 1e-8},
    "game": {"exact_abs": 1e-10, "frequency_sigmas": 6.0},
    "sparsify": {"rel": 1e-9},
    "matvec": {"rel": 1e-10},
    "poly": {"rel": 1e-9},
    # Outcomes are compared exactly unless the uniform lies this close to p_plus.
    "rounds": {"boundary": 1e-9},
}

NOT_CONVERGED = "not converged"

_SITE_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
# Column form of each site matrix: the row of its nonzero, and the value there.
_SITE_ROWS = {ch: tuple(np.abs(m).argmax(axis=0)) for ch, m in _SITE_MATRICES.items()}
_SITE_VALS = {ch: tuple(m[_SITE_ROWS[ch], [0, 1]]) for ch, m in _SITE_MATRICES.items()}


def columns(labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Per label, the row index and value of the single nonzero in each column.

    Both arrays have shape (len(labels), 2^n) and are built as the kron
    product of the 2x2 site matrices, most significant qubit (n - 1) first.
    """
    rows = np.zeros((len(labels), 1), dtype=np.int64)
    vals = np.ones((len(labels), 1), dtype=np.complex128)
    for q in reversed(range(len(labels[0]))):
        site_rows = np.array([_SITE_ROWS[label[q]] for label in labels])
        site_vals = np.array([_SITE_VALS[label[q]] for label in labels], dtype=np.complex128)
        rows = (2 * rows[:, :, None] + site_rows[:, None, :]).reshape(len(labels), -1)
        vals = (vals[:, :, None] * site_vals[:, None, :]).reshape(len(labels), -1)
    return rows, vals


def dense(rows: np.ndarray, vals: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_l coeffs[l] P_l as a dense matrix, from ``columns`` output."""
    dim = rows.shape[1]
    flat = (rows * dim + np.arange(dim)).ravel()
    weights = (coeffs[:, None] * vals).ravel()
    re = np.bincount(flat, weights.real, dim * dim)
    im = np.bincount(flat, weights.imag, dim * dim)
    return (re + 1j * im).reshape(dim, dim)


def expectations(labels: list[str], psi: np.ndarray) -> np.ndarray:
    """<psi|P|psi> for each label."""
    rows, vals = columns(labels)
    return np.einsum("lc,lc,c->l", psi[rows].conj(), vals, psi).real


class Ham:
    """A Hamiltonian file read with plain json."""

    def __init__(self, path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        self.n = doc["n"]
        self.labels = [t["pauli"] for t in doc["terms"]]
        self.coeffs = np.array([t["coeff"] for t in doc["terms"]], dtype=float)

    def dense(self) -> np.ndarray:
        return dense(*columns(self.labels), self.coeffs)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H vec, contracting each site matrix into the state tensor in turn."""
        n = self.n
        state = vec.reshape((2,) * n)  # axis n - 1 - q is qubit q
        out = np.zeros_like(state, dtype=np.complex128)
        for label, c in zip(self.labels, self.coeffs):
            term = state
            for q, ch in enumerate(label):
                if ch != "I":
                    axis = n - 1 - q
                    term = np.moveaxis(np.tensordot(_SITE_MATRICES[ch], term, axes=(1, axis)), 0, axis)
            out += c * term
        return out.reshape(-1)

    def extremes(self) -> tuple[float, float]:
        """(lambda_max, lambda_min)."""
        if self.n <= 10:
            vals = np.linalg.eigvalsh(self.dense())
            return float(vals[-1]), float(vals[0])
        import scipy.sparse as sp
        from scipy.sparse.linalg import eigsh

        rows, vals = columns(self.labels)
        dim = rows.shape[1]
        cols = np.broadcast_to(np.arange(dim), rows.shape)
        mat = sp.csr_matrix(((self.coeffs[:, None] * vals).ravel(), (rows.ravel(), cols.ravel())), shape=(dim, dim))
        v0 = np.random.default_rng(0).normal(size=dim).astype(np.complex128)
        hi = eigsh(mat, k=1, which="LA", tol=1e-12, v0=v0, return_eigenvectors=False)
        lo = eigsh(mat, k=1, which="SA", tol=1e-12, v0=v0, return_eigenvectors=False)
        return float(hi[0]), float(lo[0])


def _load_state(path) -> np.ndarray:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    amps = np.array(doc["amplitudes"], dtype=float)
    psi = amps[:, 0] + 1j * amps[:, 1]
    return psi / np.linalg.norm(psi)


def _close(got, want, rel) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _out(rec):
    return json.loads(Path(rec["files"]["out"]).read_text(encoding="utf-8"))


def _amplified_pauli1(a: float, b: float, k: int) -> float:
    """Pauli 1-norm of 2((I + aP + bQ)/2)^(x k) - I for two non-identity strings."""
    return abs(2.0 * 0.5**k - 1.0) + 2.0 * (((1.0 + abs(a) + abs(b)) / 2.0) ** k - 0.5**k)


# ------------------------------------------------------------- checks
# ``shift`` is added to one reference; the benchmark's own smoke test sets
# it to show that a wrong reference is caught.


def check_build(rec, shift=0.0):
    doc = _out(rec)
    p = rec["params"]
    n = p["n"]
    labels = [t["pauli"] for t in doc["terms"]]
    coeffs = [t["coeff"] for t in doc["terms"]]
    if doc["n"] != n or labels != sorted(labels):
        return "qubit count or canonical order"
    if p["model"] == "hadamard-power":
        want = {"".join("XZ"[(b >> i) & 1] for i in range(n)) for b in range(1 << n)}
        ok = all(_close(c, 2.0 ** (-n / 2) + shift, TOLERANCES["build"]["rel"]) for c in coeffs)
    elif p["model"] == "xxzz-chain":
        want = {"I" * i + s + s + "I" * (n - i - 2) for i in range(n - 1) for s in "XZ"}
        ok = all(c == 1.0 + shift for c in coeffs)
    else:
        want = set(labels)
        # Repeated draws merge by summation, so only the total is bounded.
        ok = (
            len(labels) <= p["m"]
            and all(sum(ch != "I" for ch in lab) == p["ell"] for lab in labels)
            and math.fsum(abs(c) for c in coeffs) <= p["m"] + shift
        )
    return None if ok and set(labels) == want and len(labels) == len(want) else "terms"


def check_norms(rec, shift=0.0):
    doc, h = _out(rec), Ham(rec["files"]["ham"])
    hi, lo = h.extremes()
    rel = TOLERANCES["norms"]["rel"]
    if not _close(doc["pauli_1_norm"], float(np.abs(h.coeffs).sum()) + shift, rel):
        return f"pauli_1_norm {doc['pauli_1_norm']}"
    if not _close(doc["operator_norm"], max(abs(hi), abs(lo)), rel):
        return f"operator_norm {doc['operator_norm']}"
    return None


def check_spectrum(rec, shift=0.0):
    doc = _out(rec)
    if not doc["converged"]:
        return NOT_CONVERGED
    hi, lo = Ham(rec["files"]["ham"]).extremes()
    rel = TOLERANCES[f"spectrum.{doc['method']}"]["rel"]
    if not (_close(doc["lambda_max"], hi + shift, rel) and _close(doc["lambda_min"], lo, rel)):
        return f"eigenvalues {doc['lambda_max']}, {doc['lambda_min']} vs {hi}, {lo}"
    return None


def check_amplify(rec, shift=0.0):
    doc, h = _out(rec), Ham(rec["files"]["ham"])
    k = rec["params"]["k"]
    if doc["n"] != h.n * k or len(doc["terms"]) != 3**k:
        return f"{len(doc['terms'])} terms on {doc['n']} qubits"
    got = math.fsum(abs(t["coeff"]) for t in doc["terms"])
    want = _amplified_pauli1(*h.coeffs, k) + shift
    return None if _close(got, want, TOLERANCES["amplify"]["rel"]) else f"Pauli 1-norm {got} vs {want}"


def check_verify(rec, shift=0.0):
    doc, h = _out(rec), Ham(rec["files"]["ham"])
    k, case = rec["params"]["k"], rec["params"]["case"]
    lam_in = h.extremes()[0]
    lam_out = 2.0 * ((1.0 + lam_in) / 2.0) ** k - 1.0 + shift
    tol = TOLERANCES["verify"]["abs"]
    if abs(doc["lambda_in"] - lam_in) > tol or abs(doc["lambda_out_exact"] - lam_out) > tol:
        return f"lambda_in {doc['lambda_in']}, lambda_out {doc['lambda_out_exact']} vs {lam_in}, {lam_out}"
    if not _close(doc["pauli1_out"], _amplified_pauli1(*h.coeffs, k), tol):
        return f"pauli1_out {doc['pauli1_out']}"
    if doc["promise_case"] != case or doc["all_bounds_hold"] is not True:
        return f"promise_case {doc['promise_case']}, all_bounds_hold {doc['all_bounds_hold']}"
    return None


def _accept_probability(h: Ham, psi: np.ndarray) -> float:
    energy = float(h.coeffs @ expectations(h.labels, psi))
    return 0.5 + energy / (2.0 * float(np.abs(h.coeffs).sum()))


def _check_rounds(h: Ham, rows) -> str | None:
    sign = {label: 1 if c > 0 else -1 for label, c in zip(h.labels, h.coeffs)}
    for label, coeff_sign, outcome, accepted in rows:
        if sign.get(label) != coeff_sign or bool(accepted) != (outcome == coeff_sign):
            return f"inconsistent round {label} {coeff_sign} {outcome} {accepted}"
    return None


def check_game(rec, shift=0.0):
    h = Ham(rec["files"]["ham"])
    p = _accept_probability(h, _load_state(rec["files"]["state"])) + shift
    shots = rec["params"]["shots"]
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / shots)
    tol = TOLERANCES["game"]
    if rec["params"]["format"] == "csv":
        with open(rec["files"]["out"], newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))[1:]
        rows = [(r[1], int(r[2]), int(r[3]), int(r[4])) for r in table]
        if len(rows) != shots:
            return f"{len(rows)} rows for {shots} shots"
        freq = sum(r[3] for r in rows) / shots
    else:
        doc = _out(rec)
        rows = [(r["pauli"], r["coeff_sign"], r["outcome"], r["accepted"]) for r in doc["rounds"]]
        freq = doc["accept_frequency"]
        if doc["shots"] != shots or abs(doc["exact_probability"] - p) > tol["exact_abs"]:
            return f"exact_probability {doc['exact_probability']} vs {p}"
        if abs(doc["std_error"] - math.sqrt(freq * (1 - freq) / shots)) > 1e-12:
            return "std_error"
        if doc["rounds_elided"] != (not rows) or (rows and len(rows) != shots):
            return "round records"
    if abs(freq - p) > tol["frequency_sigmas"] * sigma:
        return f"accept frequency {freq} vs probability {p} (sigma {sigma:.2e})"
    return _check_rounds(h, rows)


def _canonical(h: Ham):
    order = sorted(range(len(h.labels)), key=h.labels.__getitem__)
    return [h.labels[i] for i in order], h.coeffs[order]


def check_sparsify(rec, shift=0.0):
    """Re-draw every trial by the documented rule (SeedSequence([seed, trial]))."""
    doc, h = _out(rec), Ham(rec["files"]["ham"])
    p = rec["params"]
    labels, coeffs = _canonical(h)
    lam = float(np.abs(coeffs).sum())
    weights = np.abs(coeffs)
    cum = np.cumsum(weights / weights.sum())
    cum[-1] = 1.0
    rows, vals = columns(labels)
    rel = TOLERANCES["sparsify"]["rel"]
    deviations, sizes = [], []
    for trial in range(p["trials"]):
        rng = np.random.default_rng(np.random.SeedSequence([p["seed"], trial]))
        idx = np.minimum(np.searchsorted(cum, rng.random(p["m"]), side="right"), len(labels) - 1)
        counts = np.bincount(idx, minlength=len(labels))
        diff_coeffs = coeffs - counts * (lam / p["m"]) * np.sign(coeffs)
        diff = dense(rows, vals, diff_coeffs)
        deviations.append(float(np.max(np.abs(np.linalg.eigvalsh(diff)))) + shift)
        sizes.append(int(np.count_nonzero(counts)))
    if len(doc["deviations"]) != p["trials"] or not all(
        _close(got, want, rel) for got, want in zip(doc["deviations"], deviations)
    ):
        return f"deviations {doc['deviations'][:3]} vs {deviations[:3]}"
    if doc["terms_before"] != len(labels) or not _close(doc["pauli1_before"], lam, rel):
        return "terms_before or pauli1_before"
    if not _close(doc["terms_after_mean"], float(np.mean(sizes)), rel):
        return f"terms_after_mean {doc['terms_after_mean']}"
    return None


def check_matvec(rec, shift=0.0):
    got = np.load(rec["files"]["out"])
    want = Ham(rec["files"]["ham"]).apply(np.load(rec["files"]["vec"])) + shift
    err = float(np.max(np.abs(got - want)))
    scale = max(1.0, float(np.max(np.abs(want))))
    return None if err <= TOLERANCES["matvec"]["rel"] * scale else f"max error {err:.3e}"


def check_poly(rec, shift=0.0):
    """Coefficients are Tr(P f(H)) / 2^n; Parseval rules out missing terms."""
    doc, h = _out(rec), Ham(rec["files"]["ham"])
    dense = h.dense()
    f = np.zeros_like(dense)
    power = np.eye(dense.shape[0], dtype=np.complex128)
    for j, cj in enumerate(rec["params"]["poly"]):
        if j:
            power = power @ dense
        f += cj * power
    dim = dense.shape[0]
    scale = max(1.0, float(np.linalg.norm(f)) / math.sqrt(dim))
    tol = TOLERANCES["poly"]["rel"] * scale
    labels = [label for label, _ in doc["terms"]]
    rows, vals = columns(labels)
    want = np.einsum("lc,lc->l", vals, f[np.arange(dim), rows]).real / dim + shift
    for (label, coeff), w in zip(doc["terms"], want):
        if abs(coeff - w) > tol:
            return f"coefficient of {label}: {coeff} vs {w}"
    parseval = math.fsum(c * c for _, c in doc["terms"]) * dim
    if not _close(parseval, float(np.linalg.norm(f)) ** 2, TOLERANCES["poly"]["rel"]):
        return "terms missing (Parseval)"
    return None


def check_rounds(rec, shift=0.0):
    """Replay every round with the same generator and the reference expectations."""
    h = Ham(rec["files"]["ham"])
    psi = _load_state(rec["files"]["state"])
    labels, coeffs = _canonical(h)
    weights = np.abs(coeffs)
    cum = np.cumsum(weights / weights.sum())
    cum[-1] = 1.0
    expect = dict(zip(labels, expectations(labels, psi)))
    rng = np.random.default_rng(rec["params"]["seed"])
    played = _out(rec)
    if len(played) != rec["params"]["batch"]:
        return f"{len(played)} rounds"
    for label, coeff_sign, outcome, accepted in played:
        i = min(int(np.searchsorted(cum, rng.random(), side="right")), len(labels) - 1)
        p_plus = 0.5 * (1.0 + expect[labels[i]]) + shift
        u = rng.random()
        want = 1 if u < p_plus else -1
        if label != labels[i] or coeff_sign != (1 if coeffs[i] > 0 else -1):
            return f"sampled {label} vs {labels[i]}"
        if abs(u - p_plus) > TOLERANCES["rounds"]["boundary"] and outcome != want:
            return f"outcome of {label}"
        if accepted != (outcome == coeff_sign):
            return "accepted flag"
    return None


CHECKS = {
    "build": check_build,
    "norms": check_norms,
    "spectrum": check_spectrum,
    "amplify": check_amplify,
    "verify": check_verify,
    "game": check_game,
    "sparsify": check_sparsify,
    "matvec": check_matvec,
    "poly": check_poly,
    "rounds": check_rounds,
}
