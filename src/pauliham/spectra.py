"""Spectra of Pauli-sum Hamiltonians without building their matrices.

Every eigenvalue question goes through one solver, :func:`extremal_eigs`:
a Lanczos iteration with full reorthogonalisation (Lanczos 1950; Paige
1972; Parlett, *The Symmetric Eigenvalue Problem*) that takes both ends of
the spectrum from one Krylov space, started from a fixed seeded vector so
its output is deterministic.  Its stopping test is the Ritz residual
``||H y - theta y||`` of each extremal Ritz pair, which the Lanczos
relation gives without extra matvecs.

H is applied by one grouped matvec kernel, shared by :func:`matvec` and
the solver.  A string P = phase * X^x Z^z maps basis state |j> to
phase * (-1)^<z,j> |j ^ x>, so the terms sharing an ``x_mask`` act as one
real diagonal followed by one gather:

    (H v)[i] = sum_x d_x[i] * v[i ^ x],   d_x[i] = sum_t c_t (-i)^|x&z_t| (-1)^<z_t,i>.

A group whose terms carry an odd number of Y factors is purely imaginary
(the (-i) above), so each group is split by that parity and every
diagonal stays real.  The kernel never materialises a matrix, nor any
work array of the vector's length: it builds H v one cache-sized block of
2^13 amplitudes at a time, adding each group's share to the block in turn.
A block starting at ``a`` reads one contiguous slice of v, permuted
within the block, and its row of d_x depends on ``a`` only through the
parities popcount(z_t & a) & 1 of the group's terms.  Each distinct row
is built once and memoised while the rows fit a byte budget: half the
input vector's bytes in ``matvec``, the dense budget below in the solver.
Every output element gets the same float operations in the same order
as one full-vector pass per group, so the results do not depend on the
block size.

``DEFAULT_DENSE_LIMIT`` (``PAULIHAM_DENSE_LIMIT``, default 12, read at
import; the functions read the constant when they run) sets one byte
budget, 16 * 4^limit bytes, which is what :func:`to_dense` needs at
n = limit.  It bounds ``to_dense`` itself, and caps the solver's Krylov
basis and the diagonal rows its kernel memoises; a basis that fills up
restarts from its extremal Ritz vectors.  The solver refuses
n > 2 * limit, where one 2^n vector alone is over it.  No function takes
the limit as an argument.
``to_dense`` is the brute-force oracle the tests check the solver against,
and the sparsification experiment's exact deviation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .paulis import (
    CapacityError,
    DimensionMismatchError,
    Hamiltonian,
    PauliString,
    _PHASE_VALUES,
    pauli_1_norm,
)

DEFAULT_DENSE_LIMIT = int(os.environ.get("PAULIHAM_DENSE_LIMIT", "12"))
DEFAULT_EIG_TOL = 1e-8
DEFAULT_MAX_ITERS = 100_000

# A next Lanczos direction shorter than this fraction of ||H||_P1 (>= ||H||)
# is an exact breakdown: the Krylov space is invariant, its Ritz values exact.
_BREAKDOWN = 1e-12
# The basis never holds fewer vectors than this, whatever the budget; one
# matvec already needs a few vector-sized work buffers.
_MIN_BASIS = 8
# Krylov vectors are allocated in blocks of at most this many bytes.
_BLOCK_BYTES = 1 << 22
# The matvec kernel builds H v in blocks of 2^13 amplitudes (128 KiB of
# complex), so that a block and the inputs it gathers stay in cache.
_KERNEL_BLOCK_BITS = 13


class ConvergenceError(RuntimeError):
    """An eigensolve stopped before its residual reached the tolerance."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector over the 2^n basis states.

    The amplitude array is copied and marked read-only on construction;
    the Euclidean norm must be 1 within 1e-9.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise DimensionMismatchError(
                f"state on {self.n} qubits needs {1 << self.n} amplitudes, got {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state vector norm {norm!r} is not 1 within 1e-9")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n: int, index: int) -> "StateVector":
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n, amps)

    @classmethod
    def normalized(cls, n: int, amplitudes) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(n, amps / norm)

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Extremal eigenvalues, the top Ritz vector, and how far the solve got.

    ``iterations`` counts matvecs, across restarts.  ``residual`` is the
    Ritz residual of the worse of the two ends, and ``converged`` is
    ``residual <= tol``.  A non-converged run is returned rather than
    raised, so callers always see the achieved residual.  ``method`` is
    always "iterative"; it names the solver in the CLI's output.
    """

    lambda_max: float
    lambda_min: float
    eigvec_max: StateVector
    method: str
    iterations: int
    residual: float
    converged: bool = True

    def require_converged(self) -> "SpectralResult":
        """This result, for callers that must not use an unconverged one.

        Raises:
            ConvergenceError: the solve stopped above its tolerance.
        """
        if not self.converged:
            raise ConvergenceError(
                f"eigensolver did not converge in {self.iterations} matvecs "
                f"(residual {self.residual:.3e})"
            )
        return self


def _term_action(x: int, z: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Column permutation and per-column values of the Pauli string with masks x, z.

    P|i> = phase * (-1)^<z,i> |i ^ x> with phase = i^|x & z|.
    """
    idx = np.arange(dim, dtype=np.int64)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.int64(z)) & 1)
    phase = _PHASE_VALUES[(x & z).bit_count() % 4]
    return idx ^ np.int64(x), phase * signs


def _term_columns(h: Hamiltonian):
    """(x, z, coeff) of every term as Python numbers, in canonical order.

    A state vector needs n < 64, so one mask word holds every string.
    """
    return zip(h.x[:, 0].tolist(), h.z[:, 0].tolist(), h.coeffs.tolist())


def _dense_budget(limit: int) -> int:
    """Bytes of the 2^limit x 2^limit complex matrix ``to_dense`` may build."""
    return 16 << (2 * limit)


def to_dense(h: Hamiltonian) -> np.ndarray:
    """Brute-force 2^n x 2^n Hermitian matrix of a Hamiltonian.

    Raises:
        CapacityError: n exceeds DEFAULT_DENSE_LIMIT.
    """
    if h.n > DEFAULT_DENSE_LIMIT:
        raise CapacityError(f"dense path limited to n <= {DEFAULT_DENSE_LIMIT}, got n={h.n}")
    dim = 1 << h.n
    idx = np.arange(dim, dtype=np.int64)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for x, z, c in _term_columns(h):
        rows, values = _term_action(x, z, dim)
        mat[rows, idx] += c * values
    return mat


class _GroupedKernel:
    """H v one block of 2^_KERNEL_BLOCK_BITS amplitudes at a time.

    For each block of the output, each (x mask, Y parity) group in sorted
    order adds its diagonal row times its gathered inputs, so the block,
    its row and its inputs stay in cache.  The block starting at ``a``
    reads the contiguous inputs ``v[a ^ x_hi :]``, permuted by the in-block
    index ``j ^ x_lo``.  Its row depends on ``a`` only through the group's
    parity pattern, the bits popcount(z_t & a) & 1 of its terms, so each
    distinct (group, pattern) row is built once, on the indices of the
    first block that needs it, and memoised while the rows fit in
    ``keep_bytes``; the rest are rebuilt in a shared buffer whenever a
    block needs them.  Each output element gets the same float operations,
    in the same order, as a full-vector pass per group would give it.
    """

    def __init__(self, h: Hamiltonian, keep_bytes: int):
        dim = 1 << h.n
        groups: dict[tuple[int, int], list[tuple[int, float]]] = {}
        for x, z, c in _term_columns(h):
            y = (x & z).bit_count()
            # (-i)^y = (-1)^(y // 2) for even y, and that times -i for odd y
            groups.setdefault((x, y & 1), []).append((z, -c if y & 2 else c))
        ordered = sorted(groups.items())
        size = min(dim, 1 << _KERNEL_BLOCK_BITS)
        low = size - 1
        self.dim = dim
        self._size = size
        self._groups = [(x & ~low, x & low, odd) for (x, odd), _ in ordered]
        self._terms = [terms for _, terms in ordered]
        self._slots, self._first = _row_slots(self._terms, size, dim // size)
        self._rows: list[np.ndarray | None] = [None] * len(self._first)
        self._row_bytes = 8 * size
        self._keep_bytes = keep_bytes
        self.kept_bytes = 0  # bytes of memoised rows, never above keep_bytes
        self._in_block = np.arange(size, dtype=np.intp)
        self._index = np.empty(size, dtype=np.intp)
        self._masked = np.empty(size, dtype=np.intp)
        self._parity = np.empty(size, dtype=np.uint8)
        self._step = np.empty(size)
        self._gathered = np.empty(size, dtype=np.complex128)
        self._scratch_row = np.empty(size)

    def _row(self, slot: int) -> np.ndarray:
        """Diagonal row of one (group, pattern) slot, memoised if it fits.

        row[j] = sum_t c_t (-1)^popcount(z_t & (a + j)) for the slot's first
        block ``a``: filled with sum_t c_t, then 2 c_t subtracted term by
        term where the parity is odd.  A masked subtract costs one step per
        run of the mask, so for a mask of 2048 runs or more (z_t's lowest
        bit at most size / 2048) the row subtracts a looked-up 2 c_t or
        +0.0, which changes no bit, from every element instead.
        """
        size = self._size
        keep = self.kept_bytes + self._row_bytes <= self._keep_bytes
        row = np.empty(size) if keep else self._scratch_row
        group, start = self._first[slot]
        terms = self._terms[group]
        row.fill(sum(c for _, c in terms))
        index = self._in_block
        if start:
            index = np.bitwise_or(index, start, out=self._index)
        masked, parity, step = self._masked, self._parity, self._step
        for z, c in terms:
            if not z:
                continue
            np.bitwise_and(index, z, out=masked)
            if size >= 2048 * (z & -z):
                np.bitwise_count(masked, out=masked)
                np.bitwise_and(masked, 1, out=masked)
                np.take((0.0, 2.0 * c), masked, out=step, mode="wrap")
                np.subtract(row, step, out=row)
            else:
                np.bitwise_count(masked, out=parity)
                np.bitwise_and(parity, 1, out=parity)
                np.subtract(row, 2.0 * c, out=row, where=parity.view(np.bool_))
        if keep:
            self._rows[slot] = row
            self.kept_bytes += self._row_bytes
        return row

    def apply(self, v: np.ndarray) -> np.ndarray:
        size, rows = self._size, self._rows
        in_block, index, vals = self._in_block, self._index, self._gathered
        whole = size == self.dim  # one block: its inputs are all of v
        # local names: the loop below runs once per (block, group)
        xor, take, multiply, add = np.bitwise_xor, np.take, np.multiply, np.add
        out = np.zeros(self.dim, dtype=np.complex128)
        for start, slots in zip(range(0, self.dim, size), self._slots):
            block = out[start : start + size]
            for (x_hi, x_lo, odd), slot in zip(self._groups, slots.tolist()):
                row = rows[slot]
                if row is None:
                    row = self._row(slot)
                src = v if whole else v[start ^ x_hi : (start ^ x_hi) + size]
                if x_lo:
                    xor(in_block, x_lo, out=index)
                    # the indices are in range; "wrap" skips the copy "raise" makes
                    take(src, index, out=vals, mode="wrap")
                    multiply(vals, row, out=vals)
                else:
                    multiply(src, row, out=vals)
                if odd:
                    multiply(vals, -1j, out=vals)
                add(block, vals, out=block)
        return out


def _row_slots(
    terms: list[list[tuple[int, float]]], size: int, blocks: int
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Which distinct diagonal row each (block, group) pair uses.

    Returns ``slots[b][g]``, the row slot of group g in block b, and for
    every slot its (group, first block start).  Blocks share a slot when
    the group's terms have the same parity pattern popcount(z_t & a) & 1
    at their starts a.  The patterns are computed for all terms and blocks
    at once and compared as bytes, so any number of terms fits a key.
    """
    if blocks == 1:
        return np.arange(len(terms)).reshape(1, -1), [(g, 0) for g in range(len(terms))]
    starts = np.cumsum([0] + [len(group) for group in terms]).tolist()
    high = np.array([z for group in terms for z, _ in group], dtype=np.uint64) // np.uint64(size)
    # (blocks, terms): z_t & a = (high_t & b) * size for the start a = b * size
    patterns = np.bitwise_count(high & np.arange(blocks, dtype=np.uint64)[:, None]) & 1
    slots = np.empty((blocks, len(terms)), dtype=np.int32)
    first: list[tuple[int, int]] = []
    for g, (lo, hi) in enumerate(zip(starts, starts[1:])):
        raw = patterns[:, lo:hi].tobytes()
        seen: dict[bytes, int] = {}
        for b in range(blocks):
            key = raw[b * (hi - lo) : (b + 1) * (hi - lo)]
            slot = seen.get(key)
            if slot is None:
                slot = seen[key] = len(first)
                first.append((g, b * size))
            slots[b, g] = slot
    return slots, first


def matvec(h: Hamiltonian, v: "StateVector | np.ndarray") -> np.ndarray:
    """Apply H to a state without building the dense matrix."""
    arr = v.amplitudes if isinstance(v, StateVector) else np.asarray(v, np.complex128)
    if arr.shape != (1 << h.n,):
        raise DimensionMismatchError(
            f"vector of shape {arr.shape} does not match n={h.n}"
        )
    # memoised rows may take half the bytes of the input vector
    return _GroupedKernel(h, keep_bytes=arr.nbytes // 2).apply(arr)


def pauli_expectation(p: PauliString, psi: StateVector) -> float:
    """<psi|P|psi> for a single Pauli string; always real in [-1, 1]."""
    if p.n != psi.n:
        raise DimensionMismatchError(f"qubit counts differ: {p.n} vs {psi.n}")
    return _mask_expectation(p.x_mask, p.z_mask, psi)


def _mask_expectation(x: int, z: int, psi: StateVector) -> float:
    cols, values = _term_action(x, z, psi.dim)
    val = complex(np.vdot(psi.amplitudes, (values * psi.amplitudes)[cols]))
    if abs(val.imag) > 1e-10:
        raise ArithmeticError(f"Pauli expectation has imaginary residue {val.imag:.3e}")
    return val.real


def _term_expectations(h: Hamiltonian, psi: StateVector) -> np.ndarray:
    """float64[T] of <psi|P|psi> for every term P of H, in canonical order."""
    if h.n != psi.n:
        raise DimensionMismatchError(f"qubit counts differ: {h.n} vs {psi.n}")
    values = [_mask_expectation(x, z, psi) for x, z, _ in _term_columns(h)]
    return np.array(values, dtype=float)


def expectation(h: Hamiltonian, psi: StateVector) -> float:
    """Energy <psi|H|psi>, accumulated term-wise as sum_P beta_P <P>, left to right."""
    return float(sum((h.coeffs * _term_expectations(h, psi)).tolist()))


class _KrylovBasis:
    """Orthonormal Krylov vectors, allocated block by block as the basis grows."""

    def __init__(self, dim: int, capacity: int, first: np.ndarray):
        self._rows = max(1, min(capacity, _BLOCK_BYTES // (16 * dim)))
        self._capacity = capacity
        self._blocks: list[np.ndarray] = []
        self.size = 0
        self.append(first)

    def append(self, v: np.ndarray) -> None:
        if self.size == len(self._blocks) * self._rows:
            rows = min(self._rows, self._capacity - self.size)
            self._blocks.append(np.empty((rows, v.shape[0]), dtype=np.complex128))
        self._blocks[-1][self.size % self._rows] = v
        self.size += 1

    def row(self, i: int) -> np.ndarray:
        """Basis vector i; negative i counts from the newest."""
        i %= self.size
        return self._blocks[i // self._rows][i % self._rows]

    def _filled(self):
        for b, block in enumerate(self._blocks):
            yield block[: self.size - b * self._rows]

    def orthogonalize(self, w: np.ndarray) -> None:
        """Remove every basis direction from w in place, block by block."""
        for block in self._filled():
            coeffs = (block @ w.conj()).conj()  # never copies the block
            w -= coeffs @ block

    def combine(self, s: np.ndarray) -> np.ndarray:
        """sum_i s[i] q_i."""
        out = np.zeros(self._blocks[0].shape[1], dtype=np.complex128)
        start = 0
        for block in self._filled():
            out += s[start : start + len(block)] @ block
            start += len(block)
        return out


def _ritz(alphas: list[float], betas: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Lanczos tridiagonal matrix (len(betas) == len(alphas) - 1)."""
    off = np.asarray(betas, dtype=float)
    return np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))


def extremal_eigs(
    h: Hamiltonian,
    *,
    tol: float = DEFAULT_EIG_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SpectralResult:
    """Largest and smallest eigenvalues of H, with the top Ritz vector.

    Lanczos with full reorthogonalisation from the fixed start vector of
    ``default_rng(7)``.  Both ends come from the one Krylov space.  The
    Ritz values are checked every few steps, and the solve stops when the
    Ritz residual of both ends is at most ``tol``, when the Krylov space
    becomes invariant (an exact breakdown), or after ``max_iters``
    matvecs.  The basis lives within the ``to_dense`` byte budget of
    DEFAULT_DENSE_LIMIT; when it is full the iteration restarts from the
    normalised sum of the two extremal Ritz vectors.

    Raises:
        ValueError: ``tol`` is NaN or negative, or ``max_iters`` < 1.
        CapacityError: n > 2 * DEFAULT_DENSE_LIMIT, where one vector alone
            exceeds the budget.
    """
    if h.is_zero():
        raise ValueError("extremal_eigs needs a nonzero Hamiltonian")
    if not tol >= 0.0:  # also refuses NaN, which no residual is ever <= to
        raise ValueError(f"tol must be >= 0, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    budget = _dense_budget(DEFAULT_DENSE_LIMIT)
    if 16 << h.n > budget:
        raise CapacityError(
            f"eigensolver limited to n <= {2 * DEFAULT_DENSE_LIMIT} (one 2^n vector "
            f"within the dense budget of limit {DEFAULT_DENSE_LIMIT}), got n={h.n}"
        )
    dim = 1 << h.n
    kernel = _GroupedKernel(h, keep_bytes=budget)
    capacity = min(dim, max(_MIN_BASIS, budget // (16 * dim)))
    breakdown = _BREAKDOWN * pauli_1_norm(h)

    rng = np.random.default_rng(7)  # fixed start for a deterministic contract
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    matvecs = 0
    while True:  # one pass per restart
        basis = _KrylovBasis(dim, capacity, v)
        alphas: list[float] = []
        betas: list[float] = []
        while True:
            q = basis.row(-1)
            w = kernel.apply(q)
            matvecs += 1
            alphas.append(float(np.vdot(q, w).real))
            # The three-term recurrence, then one full Gram-Schmidt pass: the
            # pass alone, on w = H q, loses orthogonality when w lies mostly
            # in the basis; after the recurrence one pass keeps it near 1e-15.
            w -= alphas[-1] * q
            if betas:
                w -= betas[-1] * basis.row(-2)
            basis.orthogonalize(w)
            beta = float(np.linalg.norm(w))
            j = len(alphas)
            # an invariant Krylov space (exact breakdown) has exact Ritz values
            stop = beta <= breakdown or j == dim or matvecs >= max_iters
            if stop or j == capacity or j % max(4, j // 16) == 0:
                theta, s = _ritz(alphas, betas)
                residual = beta * max(abs(s[-1, 0]), abs(s[-1, -1]))
                if stop or residual <= tol:
                    return SpectralResult(
                        lambda_max=float(theta[-1]),
                        lambda_min=float(theta[0]),
                        eigvec_max=StateVector.normalized(h.n, basis.combine(s[:, -1])),
                        method="iterative",
                        iterations=matvecs,
                        residual=float(residual),
                        converged=bool(residual <= tol),
                    )
                if j == capacity:
                    v = basis.combine(s[:, 0] + s[:, -1])
                    v /= np.linalg.norm(v)
                    break
            betas.append(beta)
            w /= beta
            basis.append(w)


def operator_norm(h: Hamiltonian, **kwargs) -> float:
    """Spectral norm max(|lambda_max|, |lambda_min|).

    Raises:
        ConvergenceError: the eigensolve stopped above its tolerance.
    """
    result = extremal_eigs(h, **kwargs).require_converged()
    return max(abs(result.lambda_max), abs(result.lambda_min))
