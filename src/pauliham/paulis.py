"""Pauli string and Hamiltonian algebra on symplectic bit masks.

A Pauli string on n qubits is two bit masks, the symplectic encoding of
Aaronson and Gottesman (2004): bit i of ``x``/``z`` gives the (x, z) code
of qubit i, with (0,0)=I, (1,0)=X, (0,1)=Z and (1,1)=Y.  Qubit i is
position i of the letter label, so ``parse_pauli("XZ")`` puts X on qubit 0.

The single-site convention is the Hermitian one,

    sigma(x, z) = i^(x*z) X^x Z^z,

so every encoded string is Hermitian and squares to the identity, and the
product of two strings is a third string times a power of i (e.g.
X*Z = -iY).  Keeping the basis Hermitian is what lets Hamiltonian
coefficients stay real.

Two representations share that encoding:

* :class:`PauliString` is one string, its masks Python integers of any
  width.  It is the per-term view that ``pauli_mul``, ``commutes``,
  ``pauli_expectation`` and the game's rounds work on.
* :class:`Hamiltonian` is a column store: ``x`` and ``z`` are
  ``uint64[T, W]`` arrays with W = ceil(n / 64) words (qubit i at bit
  i % 64 of word i // 64), and ``coeffs`` is ``float64[T]``.  At n <= 64 a
  term takes 24 bytes.  Every operation below reads and writes the
  columns; no per-term objects are built.

The rows of a Hamiltonian are always in canonical order: label order with
I < X < Y < Z and qubit 0 most significant, the order of files and of
sampling.  Canonicalising sorts rows with a stable sort on keys that
encode that order, sums repeated strings in the order they arrived (the
floats a sequential sum gives), and drops coefficients at or below
DEFAULT_PRUNE_TOLERANCE.

That tolerance and the term cap DEFAULT_TERM_CAP are module constants,
read when a function runs; no function takes them as arguments.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

# Coefficients with magnitude <= this are dropped from canonical term maps.
DEFAULT_PRUNE_TOLERANCE = 1e-12

# apply_polynomial's complex phases must cancel to within this; a larger
# imaginary residue is an algebra bug, not rounding.
_IMAG_TOLERANCE = 1e-8

# Tensor products and polynomial expansion refuse to materialize more
# terms than this; the (m+1)^k blow-up of repeated tensoring is inherent
# to the constructions built on top of this module.
DEFAULT_TERM_CAP = int(os.environ.get("PAULIHAM_TERM_CAP", str(2**22)))

_PHASE_VALUES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_PHASE_ARRAY = np.array(_PHASE_VALUES)

_WORD_MASK = (1 << 64) - 1
# Site letters indexed by x + 2z, and the inverse map from label bytes
# (255 marks a byte that is not a Pauli letter).
_LETTERS = np.frombuffer(b"IXZY", dtype=np.uint8)
_CODES = np.full(256, 255, dtype=np.uint8)
_CODES[_LETTERS] = np.arange(4, dtype=np.uint8)


class PauliParseError(ValueError):
    """A Pauli label is empty or contains a letter outside I, X, Y, Z."""


class DimensionMismatchError(ValueError):
    """Operands act on different qubit counts."""


class CapacityError(RuntimeError):
    """An operation would exceed the configured term or dimension cap."""


class HermiticityError(ArithmeticError):
    """A result that must be Hermitian has a non-cancelling imaginary part."""


@dataclass(frozen=True)
class PauliString:
    """Hermitian tensor product of single-qubit Paulis, as two bit masks.

    Attributes:
        n: Number of qubits (label length).
        x_mask: Bit i set iff qubit i carries X or Y.
        z_mask: Bit i set iff qubit i carries Z or Y.
    """

    n: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        full = (1 << self.n) - 1
        if not 0 <= self.x_mask <= full or not 0 <= self.z_mask <= full:
            raise ValueError(f"mask out of range for n={self.n}")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @functools.cached_property
    def label(self) -> str:
        return format_pauli(self)

    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x_mask | self.z_mask).bit_count()

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"


@dataclass(frozen=True)
class Phase:
    """A power of i: the value i**exponent with exponent mod 4."""

    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % 4)

    @property
    def value(self) -> complex:
        return _PHASE_VALUES[self.exponent]

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.exponent + other.exponent)

    def __repr__(self) -> str:
        return f"Phase({('1', 'i', '-1', '-i')[self.exponent]})"


def parse_pauli(text: str) -> PauliString:
    """Parse a label over I, X, Y, Z into a PauliString.

    Raises:
        PauliParseError: empty label, or an illegal character (the message
            names the 1-based offending position).
    """
    if not text:
        raise PauliParseError("empty Pauli label")
    x = z = 0
    for i, ch in enumerate(text):
        if ch == "I":
            continue
        if ch == "X":
            x |= 1 << i
        elif ch == "Y":
            x |= 1 << i
            z |= 1 << i
        elif ch == "Z":
            z |= 1 << i
        else:
            raise PauliParseError(
                f"illegal character {ch!r} at position {i + 1} (expected I, X, Y or Z)"
            )
    return PauliString(len(text), x, z)


def format_pauli(p: PauliString) -> str:
    """Inverse of parse_pauli."""
    site = "IXZY"  # indexed by x + 2z
    out = []
    for i in range(p.n):
        xi = (p.x_mask >> i) & 1
        zi = (p.z_mask >> i) & 1
        out.append(site[xi + 2 * zi])
    return "".join(out)


# ------------------------------------------------------------ mask columns


def _words(n: int) -> int:
    return (n + 63) // 64


def _pack(masks: Sequence[int], n: int) -> np.ndarray:
    """uint64[T, W] column of Python-integer masks."""
    w = _words(n)
    if w == 1:
        return np.array(masks, dtype=np.uint64).reshape(-1, 1)
    rows = [[(m >> (64 * k)) & _WORD_MASK for k in range(w)] for m in masks]
    return np.array(rows, dtype=np.uint64).reshape(-1, w)


def _unpack(row: np.ndarray) -> int:
    """Python-integer mask of one uint64[W] row."""
    return sum(int(word) << (64 * k) for k, word in enumerate(row.tolist()))


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """uint8[T, n] array of bit i of each row, from uint64[T, W] columns."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :n]


def _from_bits(bits: np.ndarray, w: int) -> np.ndarray:
    """Inverse of _bits: uint64[T, W] columns of a uint8[T, n] bit array."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((len(bits), 8 * w), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.view("<u8").astype(np.uint64, copy=False)


def _label_error(label: str, n: int) -> None:
    """Raise the error parse_pauli and the length check give for one label."""
    p = parse_pauli(label)
    if p.n != n:
        raise DimensionMismatchError(f"term {label} has {p.n} qubits, expected {n}")


def parse_labels(labels: Sequence[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mask columns (x, z) of many length-n labels at once.

    The vectorised parse_pauli: labels that all have length n are read as
    one ``S{n}`` byte array and mapped through a lookup table, so no
    per-label objects are built.  Otherwise, or when a byte is no Pauli
    letter, the labels are parsed one by one up to the first bad one, for
    its message.

    Raises:
        PauliParseError: a label is empty or has an illegal character.
        DimensionMismatchError: a label's length is not n.
    """
    w = _words(n)
    if not labels:
        empty = np.zeros((0, w), dtype=np.uint64)
        return empty, empty.copy()
    raw = None
    # Checked first: a fixed-width array would cut longer labels short,
    # and a large n would make it large.
    if set(map(len, labels)) == {n}:
        try:
            raw = np.array(labels, dtype=f"S{n}").view(np.uint8).reshape(len(labels), n)
        except UnicodeEncodeError:
            pass
    if raw is not None:
        codes = _CODES[raw]
        bad = (codes == 255).any(axis=1)
    if raw is None or bad.any():
        rows = range(len(labels)) if raw is None else np.flatnonzero(bad).tolist()
        for i in rows:
            _label_error(labels[i], n)
    return _from_bits(codes & 1, w), _from_bits(codes >> 1, w)


def format_labels(x: np.ndarray, z: np.ndarray, n: int) -> list[str]:
    """Labels of mask columns; the vectorised format_pauli."""
    if len(x) == 0:
        return []
    chars = _LETTERS[_bits(x, n) + 2 * _bits(z, n)]
    return chars.view(f"S{n}").ravel().astype(f"U{n}").tolist()


# _SPREAD_BYTE[v] holds bit j of the byte v at bit 2(7 - j): the bits
# reversed, so that the lowest-numbered qubit is the most significant, and
# spread out to leave room for the second bit of a 2-bit digit.
_BYTES = np.arange(256, dtype=np.uint64)
_SPREAD_BYTE = sum(((_BYTES >> j) & 1) << (14 - 2 * j) for j in range(8))


def _sort_keys(x: np.ndarray, z: np.ndarray, n: int) -> list[np.ndarray]:
    """uint64 keys whose lexicographic order is label order, most significant first.

    Letter order I < X < Y < Z is the 2-bit digit 2z + (x ^ z).  Each key
    holds the digits of 32 qubits, the lowest-numbered qubit in the top bits.
    """
    zb = np.ascontiguousarray(z, dtype="<u8").view(np.uint8)  # byte b: qubits 8b..8b+7
    tb = np.ascontiguousarray(x ^ z, dtype="<u8").view(np.uint8)
    keys = []
    for chunk in range((n + 31) // 32):
        key = np.zeros(len(zb), dtype=np.uint64)
        for b in range(4 * chunk, min(4 * chunk + 4, (n + 7) // 8)):
            digits = (_SPREAD_BYTE[zb[:, b]] << 1) | _SPREAD_BYTE[tb[:, b]]
            key |= digits << (48 - 16 * (b % 4))
        keys.append(key)
    return keys


def _canonical(
    n: int, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows in label order, repeats summed in row order, |c| <= the prune tolerance dropped.

    Raises:
        ValueError: a (summed) coefficient is not finite.
    """
    if len(coeffs) > 1:
        keys = _sort_keys(x, z, n)
        order = np.argsort(keys[0], kind="stable") if len(keys) == 1 else np.lexsort(keys[::-1])
        new = np.zeros(len(order) - 1, dtype=bool)
        for key in keys:
            ordered = key[order]
            new |= ordered[1:] != ordered[:-1]
        if new.all():
            x, z, coeffs = x[order], z[order], coeffs[order]
        else:
            starts = np.flatnonzero(np.concatenate(([True], new)))
            segment = np.empty(len(order), dtype=np.intp)
            segment[order] = np.cumsum(np.concatenate(([0], new)))
            summed = np.zeros(len(starts), dtype=coeffs.dtype)
            # ufunc.at adds in index order: each sum runs in row order.  An
            # overflow is reported below as a non-finite coefficient.
            with np.errstate(over="ignore", invalid="ignore"):
                np.add.at(summed, segment, coeffs)
            first = order[starts]  # a stable sort puts the first occurrence first
            x, z, coeffs = x[first], z[first], summed
    return _finish(n, x, z, coeffs)


def _finish(n: int, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray):
    """Canonical rows with small |c| dropped; raises ValueError on a non-finite one."""
    finite = np.isfinite(coeffs)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"non-finite coefficient for {format_labels(x[i : i + 1], z[i : i + 1], n)[0]}")
    keep = np.abs(coeffs) > DEFAULT_PRUNE_TOLERANCE
    if not keep.all():
        x, z, coeffs = x[keep], z[keep], coeffs[keep]
    return x, z, coeffs


def _ycount(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Number of Y sites per row, |x & z|."""
    return np.bitwise_count(x & z).sum(axis=-1, dtype=np.int64)


class Hamiltonian:
    """Canonical real-weighted sum of Pauli strings, stored as columns.

    ``x`` and ``z`` are read-only ``uint64[T, W]`` mask columns and
    ``coeffs`` the read-only ``float64[T]`` coefficients, in canonical
    label order.  Each string appears at most once and no stored
    coefficient has magnitude <= ``DEFAULT_PRUNE_TOLERANCE``.  Because the
    Pauli strings form an orthogonal operator basis, this decomposition is
    unique, which makes the Pauli 1-norm below a plain coefficient sum.

    ``Hamiltonian(n, {PauliString: coeff})`` builds one from a term map;
    ``terms`` gives that map back, read-only, built on first use.
    Instances are immutable.
    """

    __slots__ = ("n", "x", "z", "coeffs", "_terms")

    def __init__(self, n: int, terms: Mapping[PauliString, float]):
        x, z, coeffs = _pair_columns(n, list(terms.items()))
        self._set(n, *_canonical(n, x, z, coeffs))

    def _set(self, n, x, z, coeffs) -> None:
        for column in (x, z, coeffs):
            column.flags.writeable = False
        for name, value in (("n", n), ("x", x), ("z", z), ("coeffs", coeffs), ("_terms", None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, n, x, z, coeffs) -> "Hamiltonian":
        """Wrap columns that are already canonical."""
        h = object.__new__(cls)
        h._set(n, x, z, coeffs)
        return h

    @classmethod
    def _build(cls, n, x, z, coeffs) -> "Hamiltonian":
        return cls._of(n, *_canonical(n, x, z, coeffs))

    def __setattr__(self, name, value):
        raise AttributeError(f"Hamiltonian is immutable; cannot set {name!r}")

    @classmethod
    def from_columns(cls, n: int, x, z, coeffs) -> "Hamiltonian":
        """Build from mask columns (``uint64[T, W]``) and coefficients.

        Rows may come in any order; repeated strings merge by summation in
        row order.  The columns are copied, so the caller's arrays stay
        writable.
        """
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        w = _words(n)
        x = np.array(x, dtype=np.uint64).reshape(-1, w)
        z = np.array(z, dtype=np.uint64).reshape(-1, w)
        coeffs = np.array(coeffs, dtype=float).reshape(-1)
        if not len(x) == len(z) == len(coeffs):
            raise ValueError(f"column lengths differ: {len(x)}, {len(z)}, {len(coeffs)}")
        if n % 64 and len(x) and ((x[:, -1] | z[:, -1]) >> (n % 64)).any():
            raise ValueError(f"mask out of range for n={n}")
        return cls._build(n, x, z, coeffs)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[PauliString, float]]) -> "Hamiltonian":
        """Build from (string, coefficient) pairs, merging duplicates by summation."""
        return cls._build(n, *_pair_columns(n, list(pairs)))

    @classmethod
    def from_labels(cls, labels: Mapping[str, float]) -> "Hamiltonian":
        """Build from a {label: coefficient} mapping, e.g. {"XX": 1.0, "ZZ": 1.0}."""
        if not labels:
            raise ValueError("cannot infer qubit count from an empty label map")
        names = list(labels)
        n = len(names[0])
        if n < 1:
            raise PauliParseError("empty Pauli label")
        x, z = parse_labels(names, n)
        coeffs = np.array([float(c) for c in labels.values()])
        return cls._build(n, x, z, coeffs)

    @classmethod
    def identity(cls, n: int) -> "Hamiltonian":
        zero = np.zeros((1, _words(n)), dtype=np.uint64)
        return cls.from_columns(n, zero, zero, [1.0])

    @property
    def num_terms(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return self.num_terms == 0

    def pauli(self, i: int) -> PauliString:
        """Term i (canonical order) as a PauliString."""
        return PauliString(self.n, _unpack(self.x[i]), _unpack(self.z[i]))

    def labels(self) -> list[str]:
        """Term labels in canonical order."""
        return format_labels(self.x, self.z, self.n)

    @property
    def terms(self) -> Mapping[PauliString, float]:
        """Read-only {PauliString: coefficient} map in canonical order."""
        if self._terms is None:
            paulis = (self.pauli(i) for i in range(self.num_terms))
            terms = MappingProxyType(dict(zip(paulis, self.coeffs.tolist())))
            object.__setattr__(self, "_terms", terms)
        return self._terms

    def coefficient(self, p: PauliString) -> float:
        return self.terms.get(p, 0.0)

    def __eq__(self, other):
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Hamiltonian(n={self.n}, terms={self.num_terms})"


def _pair_columns(n: int, pairs: list[tuple[PauliString, float]]):
    """Mask and coefficient columns of (PauliString, coefficient) pairs."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    for p, _ in pairs:
        if p.n != n:
            raise DimensionMismatchError(f"term {p.label} has {p.n} qubits, expected {n}")
    x = _pack([p.x_mask for p, _ in pairs], n)
    z = _pack([p.z_mask for p, _ in pairs], n)
    return x, z, np.array([float(c) for _, c in pairs])


def _require_same_n(p: PauliString, q: PauliString) -> None:
    if p.n != q.n:
        raise DimensionMismatchError(f"qubit counts differ: {p.n} vs {q.n}")


def pauli_mul(p: PauliString, q: PauliString) -> tuple[Phase, PauliString]:
    """Product of two Pauli strings: P*Q = i^e * R.

    The masks of R are the XOR of the input masks; the exponent e follows
    from sigma(x,z) = i^(x*z) X^x Z^z and Z^z X^x = (-1)^(z&x) X^x Z^z,
    summed over sites:

        e = |x_p & z_p| + |x_q & z_q| - |x_r & z_r| + 2 |z_p & x_q|  (mod 4).

    Squaring any string gives (Phase(1), identity).
    """
    _require_same_n(p, q)
    xr = p.x_mask ^ q.x_mask
    zr = p.z_mask ^ q.z_mask
    e = (
        (p.x_mask & p.z_mask).bit_count()
        + (q.x_mask & q.z_mask).bit_count()
        - (xr & zr).bit_count()
        + 2 * (p.z_mask & q.x_mask).bit_count()
    )
    return Phase(e), PauliString(p.n, xr, zr)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the symplectic form <x_p, z_q> + <x_q, z_p> is even."""
    _require_same_n(p, q)
    return ((p.x_mask & q.z_mask) ^ (p.z_mask & q.x_mask)).bit_count() % 2 == 0


def pauli_1_norm(h: Hamiltonian) -> float:
    """Sum of absolute coefficients over the canonical decomposition.

    Always an upper bound on the operator norm; zero iff h is the zero
    operator.  Summed left to right in canonical order.
    """
    return float(sum(np.abs(h.coeffs).tolist()))


def term_distribution(h: Hamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Importance distribution over terms: Pr[P] = |beta_P| / sum |beta_P|.

    Returns (signs, probs), entry i for term i in canonical order
    (``h.pauli(i)``).  Raises ValueError on the zero Hamiltonian.
    """
    if h.is_zero():
        raise ValueError("zero Hamiltonian has no term distribution")
    weights = np.abs(h.coeffs)
    return np.sign(h.coeffs).astype(int), weights / weights.sum()


class _TermDraw:
    """Inverse-CDF draw of term indices from ``term_distribution`` probabilities.

    ``draw(u)`` maps each uniform u in [0, 1) to
    ``min(searchsorted(cum, u, "right"), T - 1)``, where ``cum`` is the
    running sum of ``probs`` with its last entry set to exactly 1.0.  This
    is the one draw rule of the game and of sparsification.

    A caller planning at least as many draws as there are buckets gets a
    guide table (Chen and Asau 1974, "indexed search"): 2^b buckets of
    [0, 1), b = bit_length(T) + 3, each holding the index every draw in
    it maps to, or -1 when a running sum falls inside the bucket.  Draws
    in a marked bucket fall back to the search, so both ways give the same
    indices; the table costs a search of 2^b sorted edges to build, so
    fewer draws (``play_round`` makes one) search directly.
    """

    def __init__(self, probs: np.ndarray, draws: int):
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        self._cum = cum
        self._guide = None
        buckets = 1 << (len(cum).bit_length() + 3)
        if draws >= buckets:
            edges = np.arange(buckets + 1) / buckets
            # The top bucket ends at the largest uniform, below cum[-1] = 1.0.
            edges[-1] = np.nextafter(1.0, 0.0)
            first = np.searchsorted(cum, edges, side="right")
            self._guide = np.where(first[1:] == first[:-1], first[:-1], -1)
            self._buckets = float(buckets)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Term index of each uniform in ``u``.

        The minimum with T - 1 is never needed: cum[-1] = 1.0 exceeds
        every u in [0, 1).
        """
        if self._guide is None:
            return np.searchsorted(self._cum, u, side="right")
        idx = self._guide[(u * self._buckets).astype(np.intp)]
        miss = np.flatnonzero(idx < 0)
        idx[miss] = np.searchsorted(self._cum, u[miss], side="right")
        return idx


def _shifted_into(masks: np.ndarray, shift: int, w: int) -> np.ndarray:
    """uint64[T, w] columns of masks moved up by ``shift`` qubits."""
    out = np.zeros((len(masks), w), dtype=np.uint64)
    word, bit = divmod(shift, 64)
    for k in range(masks.shape[1]):
        out[:, word + k] |= masks[:, k] << bit
        if bit and word + k + 1 < w:
            out[:, word + k + 1] |= masks[:, k] >> (64 - bit)
    return out


def tensor(a: Hamiltonian, b: Hamiltonian) -> Hamiltonian:
    """Tensor product A (x) B on n_a + n_b qubits.

    Qubits of ``a`` keep their positions; qubits of ``b`` are shifted up by
    ``a.n``.  Concatenation of labels is injective, so the Pauli 1-norm is
    exactly multiplicative, and it preserves order: the outer product of
    two canonical term lists is canonical without a sort.

    Raises:
        CapacityError: the product would hold more than DEFAULT_TERM_CAP terms.
    """
    count = a.num_terms * b.num_terms
    if count > DEFAULT_TERM_CAP:
        raise CapacityError(f"tensor product needs {count} terms, cap is {DEFAULT_TERM_CAP}")
    n = a.n + b.n
    w = _words(n)
    columns = []
    for ma, mb in ((a.x, b.x), (a.z, b.z)):
        out = np.zeros((a.num_terms, b.num_terms, w), dtype=np.uint64)
        out[:, :, : ma.shape[1]] = ma[:, None, :]
        out |= _shifted_into(mb, a.n, w)[None, :, :]
        columns.append(out.reshape(count, w))
    coeffs = np.multiply.outer(a.coeffs, b.coeffs).ravel()
    return Hamiltonian._of(n, *_finish(n, *columns, coeffs))


def tensor_power(a: Hamiltonian, k: int) -> Hamiltonian:
    """k-fold tensor power of a Hamiltonian."""
    if k < 1:
        raise ValueError(f"tensor power needs k >= 1, got {k}")
    # Even 2^k exceeds the cap from k = bit_length(cap) on: refuse without num_terms^k.
    huge = k >= DEFAULT_TERM_CAP.bit_length()
    if a.num_terms > 1 and (huge or a.num_terms**k > DEFAULT_TERM_CAP):
        raise CapacityError(
            f"tensor power needs {a.num_terms}^{k} terms, cap is {DEFAULT_TERM_CAP}"
        )
    out = a
    for _ in range(k - 1):
        out = tensor(out, a)
    return out


def linear_combine(coeff_pairs: Sequence[tuple[float, Hamiltonian]]) -> Hamiltonian:
    """Coefficient-wise sum c_1*H_1 + ... with canonical merging and pruning."""
    if not coeff_pairs:
        raise ValueError("linear_combine needs at least one (coeff, Hamiltonian) pair")
    n = coeff_pairs[0][1].n
    for _, h in coeff_pairs:
        if h.n != n:
            raise DimensionMismatchError(f"qubit counts differ: {h.n} vs {n}")
    x = np.concatenate([h.x for _, h in coeff_pairs])
    z = np.concatenate([h.z for _, h in coeff_pairs])
    coeffs = np.concatenate([h.coeffs * coeff for coeff, h in coeff_pairs])
    return Hamiltonian._build(n, x, z, coeffs)


def _operator_product(a, b, n: int):
    """Canonical columns of the product of two complex-weighted Pauli sums.

    ``a`` and ``b`` are (x, z, coefficients).  Pair (i, j) is
    P_i Q_j = i^e R with the masks of R the XOR of the inputs and e the
    phase exponent of :func:`pauli_mul`, all pairs at once.
    """
    ax, az, ac = a
    bx, bz, bc = b
    count = len(ac) * len(bc)
    # Pairwise products bound the work done, so the cap applies pre-merge.
    if count > DEFAULT_TERM_CAP:
        raise CapacityError(
            f"operator product needs {count} pairwise terms, cap is {DEFAULT_TERM_CAP}"
        )
    w = ax.shape[1]
    x = (ax[:, None, :] ^ bx[None, :, :]).reshape(count, w)
    z = (az[:, None, :] ^ bz[None, :, :]).reshape(count, w)
    cross = np.bitwise_count(az[:, None, :] & bx[None, :, :]).sum(axis=-1, dtype=np.int64)
    ay, by = _ycount(ax, az), _ycount(bx, bz)
    e = (ay[:, None] + by[None, :] + 2 * cross).reshape(count) - _ycount(x, z)
    coeffs = np.multiply.outer(ac, bc).reshape(count) * _PHASE_ARRAY[e & 3]
    return _canonical(n, x, z, coeffs)


def _real_part(coeffs: np.ndarray) -> np.ndarray:
    """Real parts of coefficients whose imaginary parts must have cancelled.

    Raises:
        HermiticityError: an imaginary part exceeds ``_IMAG_TOLERANCE``.
    """
    residue = float(np.abs(coeffs.imag).max(initial=0.0))
    if residue > _IMAG_TOLERANCE:
        raise HermiticityError(
            f"imaginary residue {residue:.3e} exceeds {_IMAG_TOLERANCE:.3e}"
        )
    return np.ascontiguousarray(coeffs.real)


def apply_polynomial(h: Hamiltonian, poly: Sequence[float]) -> Hamiltonian:
    """Evaluate f(H) = sum_j c_j H^j in the Pauli basis.

    ``poly`` lists c_0..c_d.  Powers of a Hermitian operator are Hermitian,
    so the complex phases introduced by term products must cancel; a
    residual imaginary part above ``_IMAG_TOLERANCE`` (1e-8) signals an
    algebra bug and raises :class:`HermiticityError`.  A product forming
    more than DEFAULT_TERM_CAP pairwise terms raises :class:`CapacityError`.
    """
    if len(poly) == 0:
        raise ValueError("polynomial needs at least the constant coefficient")
    base = (h.x, h.z, h.coeffs.astype(complex))
    zero = np.zeros((1, h.x.shape[1]), dtype=np.uint64)
    power = (zero, zero, np.ones(1, dtype=complex))
    parts = []
    for j, cj in enumerate(poly):
        if j > 0:
            power = _operator_product(power, base, h.n)
        if cj != 0.0:
            parts.append((power[0], power[1], cj * power[2]))
    if not parts:
        return Hamiltonian.from_columns(h.n, zero[:0], zero[:0], [])
    x, z, coeffs = _canonical(
        h.n, *(np.concatenate([part[i] for part in parts]) for i in range(3))
    )
    # The rows are canonical already: only real parts within the prune
    # tolerance are left to drop.
    return Hamiltonian._of(h.n, *_finish(h.n, x, z, _real_part(coeffs)))


def hadamard_power(n: int) -> Hamiltonian:
    """n-fold tensor power of (X + Z)/sqrt(2).

    All 2^n strings over {X, Z}, each with coefficient 2^(-n/2); the
    operator norm stays 1 while the Pauli 1-norm grows as 2^(n/2).
    """
    if n < 1:
        raise ValueError(f"hadamard_power needs n >= 1, got {n}")
    if 2**n > DEFAULT_TERM_CAP:
        raise CapacityError(
            f"hadamard_power(n={n}) needs {2**n} terms, cap is {DEFAULT_TERM_CAP}"
        )
    coeff = 2.0 ** (-n / 2.0)
    z = np.arange(1 << n, dtype=np.uint64).reshape(-1, 1)  # 2^n <= cap: one word
    x = np.uint64((1 << n) - 1) ^ z
    return Hamiltonian.from_columns(n, x, z, np.full(1 << n, coeff))


def xxzz_chain(n: int) -> Hamiltonian:
    """Open chain sum_i (X_i X_{i+1} + Z_i Z_{i+1}); 2(n-1) unit terms."""
    if n < 2:
        raise ValueError(f"xxzz_chain needs n >= 2, got {n}")
    bonds = [(1 << i) | (1 << (i + 1)) for i in range(n - 1)]
    x = _pack([m for bond in bonds for m in (bond, 0)], n)
    z = _pack([m for bond in bonds for m in (0, bond)], n)
    return Hamiltonian.from_columns(n, x, z, np.ones(2 * (n - 1)))


def random_local(n: int, ell: int, m: int, seed: int) -> Hamiltonian:
    """m seeded random strings acting on exactly ell sites, coefficients uniform in [-1, 1].

    Repeated draws of the same string merge by summation, so the result may
    hold fewer than m terms.
    """
    if not 1 <= ell <= n:
        raise ValueError(f"locality must satisfy 1 <= ell <= n, got ell={ell}, n={n}")
    if m < 1:
        raise ValueError(f"term count must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    xs, zs, coeffs = [], [], []
    for _ in range(m):
        sites = rng.choice(n, size=ell, replace=False)
        codes = rng.integers(1, 4, size=ell)  # 1=X, 2=Y, 3=Z
        x = z = 0
        for site, code in zip(sites, codes):
            if code != 3:
                x |= 1 << int(site)
            if code != 1:
                z |= 1 << int(site)
        xs.append(x)
        zs.append(z)
        coeffs.append(rng.uniform(-1.0, 1.0))
    return Hamiltonian.from_columns(n, _pack(xs, n), _pack(zs, n), coeffs)


MODEL_KINDS = ("hadamard_power", "xxzz_chain", "random_local")


def build_model(
    kind: str,
    *,
    n: int,
    ell: int | None = None,
    m: int | None = None,
    seed: int | None = None,
) -> Hamiltonian:
    """Construct one of the named model families.

    ``hadamard_power`` and ``xxzz_chain`` take only n; ``random_local``
    additionally needs ell, m and seed.
    """
    if kind == "hadamard_power":
        return hadamard_power(n)
    if kind == "xxzz_chain":
        return xxzz_chain(n)
    if kind == "random_local":
        if ell is None or m is None or seed is None:
            raise ValueError("random_local needs ell, m and seed")
        return random_local(n, ell, m, seed)
    raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
