"""The column store behind Hamiltonian, checked against per-term dict code.

The reference functions below are the dict-of-PauliString loops the
columns replaced.  Where the arithmetic is the same (merging, tensor
products, linear combinations) the results must be equal to the bit;
products in ``apply_polynomial`` sum in another order and are compared
within 1e-12.
"""

import tracemalloc

import numpy as np
import pytest

import pauliham.paulis as paulis
from pauliham.amplify import amplify
from pauliham.paulis import (
    CapacityError,
    DimensionMismatchError,
    Hamiltonian,
    HermiticityError,
    PauliParseError,
    PauliString,
    apply_polynomial,
    format_labels,
    linear_combine,
    parse_labels,
    parse_pauli,
    pauli_mul,
    tensor,
    tensor_power,
)
from pauliham.serialize import load_hamiltonian, save_hamiltonian

from conftest import random_hamiltonian, random_pauli


def dict_merge(pairs, tolerance=1e-12):
    acc = {}
    for p, c in pairs:
        acc[p] = acc.get(p, 0.0) + c
    return {p: c for p, c in acc.items() if abs(c) > tolerance}


def dict_terms(h):
    return {p: c for p, c in h.terms.items()}


def dict_tensor(a, b):
    n = a.n + b.n
    return {
        PauliString(n, pa.x_mask | (pb.x_mask << a.n), pa.z_mask | (pb.z_mask << a.n)): ca * cb
        for pa, ca in a.terms.items()
        for pb, cb in b.terms.items()
    }


def dict_square(h):
    acc = {}
    for pa, ca in h.terms.items():
        for pb, cb in h.terms.items():
            phase, r = pauli_mul(pa, pb)
            acc[r] = acc.get(r, 0.0) + ca * cb * phase.value
    return {p: c.real for p, c in acc.items() if abs(c) > 1e-12}


class TestColumns:
    def test_layout_and_bytes_per_term(self):
        h = amplify(Hamiltonian.from_labels({"X": 0.6, "Z": 0.8}), 8)
        assert h.num_terms == 3**8
        assert h.x.dtype == h.z.dtype == np.uint64 and h.coeffs.dtype == np.float64
        assert h.x.shape == h.z.shape == (h.num_terms, 1)
        assert (h.x.nbytes + h.z.nbytes + h.coeffs.nbytes) / h.num_terms <= 40

    def test_words_beyond_64_qubits(self):
        label = "I" * 64 + "X" + "I" * 5 + "Z"
        h = Hamiltonian.from_labels({label: 1.0, "Y" + "I" * 70: 2.0})
        assert h.x.shape == (2, 2)
        assert h.labels() == sorted([label, "Y" + "I" * 70])
        assert h.pauli(0).label == h.labels()[0]
        assert h.pauli(0) == parse_pauli(h.labels()[0])

    def test_immutable(self):
        h = Hamiltonian.from_labels({"XZ": 1.0})
        with pytest.raises(AttributeError):
            h.n = 3
        with pytest.raises(ValueError):
            h.coeffs[0] = 2.0
        with pytest.raises(TypeError):
            h.terms[parse_pauli("XZ")] = 2.0

    def test_terms_view_in_canonical_order(self):
        h = Hamiltonian.from_labels({"ZZ": 1.0, "IX": 2.0, "XI": 3.0, "YY": 4.0})
        assert [p.label for p in h.terms] == ["IX", "XI", "YY", "ZZ"]
        assert list(h.terms.values()) == [2.0, 3.0, 4.0, 1.0]

    def test_from_columns_checks(self):
        with pytest.raises(ValueError, match="out of range"):
            Hamiltonian.from_columns(2, [4], [0], [1.0])
        with pytest.raises(ValueError, match="lengths"):
            Hamiltonian.from_columns(2, [1, 2], [0], [1.0])
        with pytest.raises(ValueError, match="non-finite"):
            Hamiltonian.from_columns(2, [1], [0], [float("inf")])

    def test_merged_sum_overflow_is_non_finite(self):
        x = parse_pauli("X")
        with pytest.raises(ValueError, match="non-finite coefficient for X"):
            Hamiltonian.from_pairs(1, [(x, 1e308), (x, 1e308)])

    def test_few_pauli_strings_built_on_the_hot_path(self, monkeypatch, tmp_path):
        built = []
        post_init = PauliString.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        h = Hamiltonian.from_labels({"X": 0.6, "Z": 0.8})
        monkeypatch.setattr(PauliString, "__post_init__", counting)
        out = amplify(h, 8)
        save_hamiltonian(out, tmp_path / "a.json")
        assert out.num_terms == 3**8
        assert len(built) < 100


class TestAgainstDictReference:
    def test_merge_sums_in_input_order(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            pairs = [(random_pauli(rng, n), float(rng.normal())) for _ in range(20)]
            h = Hamiltonian.from_pairs(n, pairs)
            assert dict_terms(h) == dict_merge(pairs)

    def test_random_local_matches_draw_order_merge(self):
        h = paulis.random_local(2, 1, 40, seed=9)
        rng = np.random.default_rng(9)
        pairs = []
        for _ in range(40):
            site = int(rng.choice(2, size=1, replace=False)[0])
            code = int(rng.integers(1, 4, size=1)[0])
            x = (code != 3) << site
            z = (code != 1) << site
            pairs.append((PauliString(2, x, z), rng.uniform(-1.0, 1.0)))
        assert dict_terms(h) == dict_merge(pairs)

    def test_tensor_bitwise(self, rng):
        for _ in range(20):
            a = random_hamiltonian(rng, int(rng.integers(1, 4)))
            b = random_hamiltonian(rng, int(rng.integers(1, 4)))
            assert dict_terms(tensor(a, b)) == dict_tensor(a, b)

    def test_tensor_across_word_boundary(self, rng):
        def wide(n, count, coeff):
            labels = {"".join(rng.choice(list("IXYZ"), size=n)): coeff for _ in range(count)}
            return Hamiltonian.from_labels(labels)

        a, b = wide(60, 4, 1.5), wide(70, 3, -0.5)
        out = tensor(a, b)
        assert out.x.shape[1] == 3
        assert dict_terms(out) == dict_tensor(a, b)
        assert out.labels() == sorted(pa + pb for pa in a.labels() for pb in b.labels())

    def test_linear_combine_bitwise(self, rng):
        for _ in range(20):
            a = random_hamiltonian(rng, 3)
            b = random_hamiltonian(rng, 3)
            want = dict_merge(
                [(p, c * 0.3) for p, c in a.terms.items()]
                + [(p, c * -1.7) for p, c in b.terms.items()]
            )
            assert dict_terms(linear_combine([(0.3, a), (-1.7, b)])) == want

    def test_square_matches_pairwise_products(self, rng):
        for _ in range(20):
            h = random_hamiltonian(rng, int(rng.integers(1, 5)), max_terms=8)
            got = dict_terms(apply_polynomial(h, [0.0, 0.0, 1.0]))
            want = dict_square(h)
            assert got.keys() == want.keys()
            for p, c in want.items():
                assert got[p] == pytest.approx(c, abs=1e-12)

    def test_tensor_power_counts_and_cap(self, limits):
        h = Hamiltonian.from_labels({"I": 0.5, "X": 0.3, "Z": 0.2})
        assert tensor_power(h, 5).num_terms == 3**5
        limits(term_cap=3**5 - 1)
        with pytest.raises(CapacityError):
            tensor_power(h, 5)

    def test_tensor_power_huge_k_refused_without_the_count(self):
        # 2^(10^8) would be a 12.5 MB integer
        h = Hamiltonian.from_labels({"I": 0.5, "X": 0.5})
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"2\^100000000 terms"):
                tensor_power(h, 10**8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestLabelColumns:
    def test_round_trip(self, rng):
        for n in (1, 7, 63, 64, 65, 130):
            labels = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(25)]
            x, z = parse_labels(labels, n)
            assert format_labels(x, z, n) == labels
            for label, xm, zm in zip(labels, x, z):
                p = parse_pauli(label)
                assert (paulis._unpack(xm), paulis._unpack(zm)) == (p.x_mask, p.z_mask)

    @pytest.mark.parametrize(
        "labels, error, message",
        [
            (["XY", "XQ"], PauliParseError, "position 2"),
            (["XY", ""], PauliParseError, "empty"),
            (["XY", "XYZ"], DimensionMismatchError, "3 qubits"),
            (["XY", "X"], DimensionMismatchError, "1 qubits"),
            (["XY", "Xé"], PauliParseError, "position 2"),
            (["XY", "X\x00"], PauliParseError, "position 2"),
            # a fixed-width byte array would cut these down to "XY"
            (["XY", "XY\x00"], PauliParseError, "position 3"),
            (["XY", "XY\x00Q"], PauliParseError, "position 3"),
        ],
    )
    def test_first_bad_label_named(self, labels, error, message):
        with pytest.raises(error, match=message):
            parse_labels(labels, 2)

    def test_load_names_first_bad_entry(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(
            '{"n": 2, "terms": [{"pauli": "XX", "coeff": 1}, {"pauli": "XQ", "coeff": 1},'
            ' {"pauli": "ZZ", "coeff": "bad"}]}',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"terms\[1\]\.pauli: illegal character 'Q'"):
            load_hamiltonian(path)

    def test_load_names_type_fault_before_later_bad_label(self, tmp_path):
        # a type fault in entry 1 is named before a bad label in entry 2
        path = tmp_path / "h.json"
        path.write_text(
            '{"n": 2, "terms": [{"pauli": "XX", "coeff": 1}, {"pauli": "ZZ", "coeff": "bad"},'
            ' {"pauli": "XQ", "coeff": 1}]}',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"terms\[1\]\.coeff must be a real number"):
            load_hamiltonian(path)

    def test_load_large_n_short_labels(self, tmp_path):
        # refused from the label lengths, before anything of size n is built
        path = tmp_path / "h.json"
        path.write_text(
            '{"n": 100000000000, "terms": [{"pauli": "X", "coeff": 1.0}]}', encoding="utf-8"
        )
        with pytest.raises(ValueError, match=r"terms\[0\]\.pauli has length 1, expected n=100000000000"):
            load_hamiltonian(path)


class TestHermiticity:
    def test_residue_check_in_apply_polynomial(self, monkeypatch):
        # an operator product that forgets its phases leaves imaginary parts
        real_product = paulis._operator_product

        def skewed(a, b, n):
            x, z, c = real_product(a, b, n)
            return x, z, c + 1e-3j

        monkeypatch.setattr(paulis, "_operator_product", skewed)
        with pytest.raises(HermiticityError, match="imaginary residue"):
            apply_polynomial(Hamiltonian.from_labels({"X": 1.0}), [0.0, 0.0, 1.0])
