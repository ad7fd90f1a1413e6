import math

import numpy as np
import pytest

from pauliham.paulis import (
    CapacityError,
    DimensionMismatchError,
    Hamiltonian,
    HermiticityError,
    PauliParseError,
    PauliString,
    Phase,
    apply_polynomial,
    build_model,
    commutes,
    format_pauli,
    hadamard_power,
    linear_combine,
    parse_pauli,
    pauli_1_norm,
    pauli_mul,
    random_local,
    tensor,
    tensor_power,
    xxzz_chain,
)
from pauliham.paulis import _real_part
from pauliham.spectra import operator_norm

from conftest import ALL_LABELS_2, kron_dense, kron_pauli, random_hamiltonian


class TestParseFormat:
    def test_identity(self):
        p = parse_pauli("I")
        assert (p.x_mask, p.z_mask) == (0, 0)

    def test_xz_masks(self):
        # X on qubit 0, Z on qubit 1: per-site vectors x=10, z=01
        p = parse_pauli("XZ")
        assert (p.x_mask, p.z_mask) == (0b01, 0b10)

    def test_y_sets_both_bits(self):
        p = parse_pauli("Y")
        assert (p.x_mask, p.z_mask) == (1, 1)

    @pytest.mark.parametrize("label", ["I", "XZ", "Y", "IXYZ", "ZZZZZZZZ"])
    def test_round_trip(self, label):
        assert format_pauli(parse_pauli(label)) == label

    def test_round_trip_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 70))  # crosses the 64-bit word boundary
            label = "".join(rng.choice(list("IXYZ"), size=n))
            assert format_pauli(parse_pauli(label)) == label

    def test_empty_rejected(self):
        with pytest.raises(PauliParseError, match="empty"):
            parse_pauli("")

    def test_illegal_char_names_position(self):
        with pytest.raises(PauliParseError, match="position 2"):
            parse_pauli("XQ")

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            PauliString(1, 2, 0)
        with pytest.raises(ValueError):
            PauliString(0, 0, 0)


class TestPhase:
    def test_normalized_mod_4(self):
        assert Phase(5).exponent == 1
        assert Phase(-1).exponent == 3

    def test_values(self):
        assert [Phase(e).value for e in range(4)] == [1, 1j, -1, -1j]

    def test_composition(self):
        assert (Phase(3) * Phase(2)).exponent == 1


class TestPauliMul:
    def test_involution_single(self):
        x = parse_pauli("X")
        phase, r = pauli_mul(x, x)
        assert phase == Phase(0) and r.is_identity()

    def test_xz_is_minus_i_y(self):
        phase, r = pauli_mul(parse_pauli("X"), parse_pauli("Z"))
        assert phase.value == -1j and r.label == "Y"

    def test_yy_is_identity(self):
        phase, r = pauli_mul(parse_pauli("Y"), parse_pauli("Y"))
        assert phase == Phase(0) and r.is_identity()

    def test_mismatched_n(self):
        with pytest.raises(DimensionMismatchError):
            pauli_mul(parse_pauli("X"), parse_pauli("XX"))

    def test_matches_dense_product_exhaustive_n2(self):
        # i^e * dense(R) must equal dense(P) @ dense(Q) for all 256 pairs
        for a in ALL_LABELS_2:
            for b in ALL_LABELS_2:
                phase, r = pauli_mul(parse_pauli(a), parse_pauli(b))
                assert np.allclose(
                    phase.value * kron_pauli(r.label), kron_pauli(a) @ kron_pauli(b)
                ), (a, b)

    def test_involution_exhaustive_n2(self):
        for a in ALL_LABELS_2:
            phase, r = pauli_mul(parse_pauli(a), parse_pauli(a))
            assert phase == Phase(0) and r.is_identity()

    def test_involution_random_n6(self, rng):
        from conftest import random_pauli

        for _ in range(200):
            p = random_pauli(rng, 6)
            phase, r = pauli_mul(p, p)
            assert phase == Phase(0) and r.is_identity()

    @pytest.mark.parametrize("labels", [["I", "X", "Y", "Z"], ALL_LABELS_2])
    def test_associative_exhaustive_small_n(self, labels):
        for a in labels:
            for b in labels:
                for c in labels:
                    p, q, r = map(parse_pauli, (a, b, c))
                    ph1, pq = pauli_mul(p, q)
                    ph2, left = pauli_mul(pq, r)
                    ph3, qr = pauli_mul(q, r)
                    ph4, right = pauli_mul(p, qr)
                    assert left == right
                    assert ph1 * ph2 == ph3 * ph4

    def test_associative_random_n6(self, rng):
        from conftest import random_pauli

        for _ in range(300):
            p, q, r = (random_pauli(rng, 6) for _ in range(3))
            ph1, pq = pauli_mul(p, q)
            ph2, left = pauli_mul(pq, r)
            ph3, qr = pauli_mul(q, r)
            ph4, right = pauli_mul(p, qr)
            assert left == right and ph1 * ph2 == ph3 * ph4


class TestCommutes:
    def test_examples(self):
        assert commutes(parse_pauli("XX"), parse_pauli("ZZ"))
        assert not commutes(parse_pauli("X"), parse_pauli("Z"))
        assert commutes(parse_pauli("XI"), parse_pauli("IZ"))

    def test_against_dense_commutator(self, rng):
        for a in ALL_LABELS_2:
            for b in ALL_LABELS_2:
                ma, mb = kron_pauli(a), kron_pauli(b)
                dense_commutes = np.allclose(ma @ mb, mb @ ma)
                assert commutes(parse_pauli(a), parse_pauli(b)) == dense_commutes

    def test_mismatched_n(self):
        with pytest.raises(DimensionMismatchError):
            commutes(parse_pauli("X"), parse_pauli("XX"))


class TestHamiltonianType:
    def test_merge_and_prune(self):
        x = parse_pauli("X")
        h = Hamiltonian.from_pairs(1, [(x, 0.5), (x, 0.5), (parse_pauli("Z"), 1e-15)])
        assert h.terms == {x: 1.0}

    def test_key_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            Hamiltonian(2, {parse_pauli("X"): 1.0})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian(1, {parse_pauli("X"): float("nan")})

    def test_from_labels(self):
        h = Hamiltonian.from_labels({"XX": 1.0, "ZZ": 1.0})
        assert h.n == 2 and h.num_terms == 2

    def test_coefficient_lookup(self):
        h = Hamiltonian.from_labels({"X": 2.0})
        assert h.coefficient(parse_pauli("X")) == 2.0
        assert h.coefficient(parse_pauli("Z")) == 0.0


class TestTensor:
    def test_z_tensor_i(self):
        out = tensor(Hamiltonian.from_labels({"Z": 1.0}), Hamiltonian.from_labels({"I": 1.0}))
        assert out.terms == {parse_pauli("ZI"): 1.0}

    def test_distributivity(self):
        xz = Hamiltonian.from_labels({"X": 1.0, "Z": 1.0})
        out = tensor(xz, xz)
        assert {p.label: c for p, c in out.terms.items()} == {
            "XX": 1.0, "XZ": 1.0, "ZX": 1.0, "ZZ": 1.0,
        }

    def test_hadamard_norm_gap_doubles(self):
        h = hadamard_power(1)
        assert pauli_1_norm(tensor(h, h)) == pytest.approx(2.0, abs=1e-12)

    def test_norm_multiplicative_exact_dyadic(self, rng):
        # dyadic coefficients make the product sums exact in floating point
        for _ in range(20):
            a = Hamiltonian.from_pairs(
                2,
                [
                    (p, float(rng.integers(-8, 9)) / 4.0)
                    for p in (parse_pauli(s) for s in rng.choice(ALL_LABELS_2, 3, replace=False))
                ],
            )
            b = Hamiltonian.from_pairs(
                1,
                [(parse_pauli(s), float(rng.integers(1, 9)) / 2.0) for s in ("X", "Z")],
            )
            if a.is_zero():
                continue
            assert pauli_1_norm(tensor(a, b)) == pauli_1_norm(a) * pauli_1_norm(b)

    def test_norm_multiplicative_float(self, rng):
        for _ in range(20):
            a = random_hamiltonian(rng, 2)
            b = random_hamiltonian(rng, 2)
            got = pauli_1_norm(tensor(a, b))
            want = pauli_1_norm(a) * pauli_1_norm(b)
            assert got == pytest.approx(want, rel=1e-12)

    def test_capacity_error(self, limits):
        h = hadamard_power(2)
        limits(term_cap=8)
        with pytest.raises(CapacityError):
            tensor(h, h)

    def test_tensor_power_capacity(self):
        with pytest.raises(CapacityError):
            tensor_power(hadamard_power(2), 12)


class TestLinearCombine:
    def test_cancellation_to_zero(self):
        z = Hamiltonian.from_labels({"Z": 1.0})
        out = linear_combine([(1.0, z), (-1.0, z)])
        assert out.is_zero()

    def test_projector_form(self):
        out = linear_combine(
            [(0.5, Hamiltonian.identity(1)), (0.5, Hamiltonian.from_labels({"Z": 1.0}))]
        )
        assert {p.label: c for p, c in out.terms.items()} == {"I": 0.5, "Z": 0.5}

    def test_merging(self):
        x = Hamiltonian.from_labels({"X": 1.0})
        xz = Hamiltonian.from_labels({"X": 1.0, "Z": 1.0})
        out = linear_combine([(2.0, x), (3.0, xz)])
        assert {p.label: c for p, c in out.terms.items()} == {"X": 5.0, "Z": 3.0}

    def test_mismatched_n(self):
        with pytest.raises(DimensionMismatchError):
            linear_combine(
                [(1.0, Hamiltonian.from_labels({"X": 1.0})),
                 (1.0, Hamiltonian.from_labels({"XX": 1.0}))]
            )

    def test_triangle_inequality(self, rng):
        for _ in range(30):
            a = random_hamiltonian(rng, 3)
            b = random_hamiltonian(rng, 3)
            s = linear_combine([(1.0, a), (1.0, b)])
            assert pauli_1_norm(s) <= pauli_1_norm(a) + pauli_1_norm(b) + 1e-12


class TestApplyPolynomial:
    def test_x_squared_is_identity(self):
        out = apply_polynomial(Hamiltonian.from_labels({"X": 1.0}), [0.0, 0.0, 1.0])
        assert out.terms == {PauliString.identity(1): 1.0}

    def test_identity_polynomial(self, rng):
        h = random_hamiltonian(rng, 2)
        out = apply_polynomial(h, [0.0, 1.0])
        assert out.n == h.n
        for p, c in h.terms.items():
            assert out.coefficient(p) == pytest.approx(c, abs=1e-14)

    def test_hadamard_squared_dense_oracle(self):
        h = hadamard_power(1)
        out = apply_polynomial(h, [0.0, 0.0, 1.0])
        dense = kron_dense(h)
        assert np.allclose(kron_dense(out), dense @ dense, atol=1e-12)

    def test_square_matches_dense_square(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            h = random_hamiltonian(rng, n, max_terms=5)
            out = apply_polynomial(h, [0.0, 0.0, 1.0])
            dense = kron_dense(h)
            assert np.max(np.abs(kron_dense(out) - dense @ dense)) < 1e-10

    def test_cubic_matches_dense(self, rng):
        h = random_hamiltonian(rng, 2, max_terms=4)
        out = apply_polynomial(h, [1.0, -2.0, 0.0, 0.5])
        dense = kron_dense(h)
        want = np.eye(4) - 2.0 * dense + 0.5 * dense @ dense @ dense
        assert np.max(np.abs(kron_dense(out) - want)) < 1e-10

    def test_empty_polynomial_rejected(self):
        with pytest.raises(ValueError):
            apply_polynomial(Hamiltonian.from_labels({"X": 1.0}), [])

    def test_blow_up_capacity(self, limits):
        h = hadamard_power(2)
        limits(term_cap=8)
        with pytest.raises(CapacityError):
            apply_polynomial(h, [0.0, 0.0, 1.0])

    def test_hermiticity_error_surfaces(self, limits):
        # apply_polynomial's residue check, on coefficients that did not cancel
        limits(imag_tolerance=1e-10)
        with pytest.raises(HermiticityError):
            _real_part(np.array([1.0 + 0.5j]))
        assert _real_part(np.array([1.0 + 1e-12j])).tolist() == [1.0]


class TestPauli1Norm:
    def test_hadamard_is_sqrt2(self):
        assert pauli_1_norm(hadamard_power(1)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_single_z(self):
        assert pauli_1_norm(Hamiltonian.from_labels({"Z": 1.0})) == 1.0

    def test_hadamard_tensor_powers(self):
        for n in range(1, 9):
            assert pauli_1_norm(hadamard_power(n)) == pytest.approx(
                2.0 ** (n / 2.0), abs=1e-9
            )

    def test_zero_iff_zero_operator(self):
        z = Hamiltonian.from_labels({"Z": 1.0})
        assert pauli_1_norm(linear_combine([(1.0, z), (-1.0, z)])) == 0.0

    def test_upper_bounds_operator_norm(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 7))
            h = random_hamiltonian(rng, n)
            assert operator_norm(h) <= pauli_1_norm(h) + 1e-9


class TestModels:
    def test_hadamard_power_1(self):
        h = hadamard_power(1)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert {p.label: c for p, c in h.terms.items()} == pytest.approx(
            {"X": inv_sqrt2, "Z": inv_sqrt2}
        )

    def test_xxzz_chain_3(self):
        h = xxzz_chain(3)
        assert h.num_terms == 4
        assert all(c == 1.0 for c in h.terms.values())
        assert pauli_1_norm(h) == 4.0
        labels = {p.label for p in h.terms}
        assert labels == {"XXI", "IXX", "ZZI", "IZZ"}

    def test_random_local_deterministic(self):
        a = random_local(n=4, ell=2, m=6, seed=7)
        b = random_local(n=4, ell=2, m=6, seed=7)
        assert a.terms == b.terms

    def test_random_local_locality(self):
        h = random_local(n=5, ell=2, m=20, seed=3)
        assert all(p.weight() == 2 for p in h.terms)

    def test_build_model_dispatch(self):
        assert build_model("xxzz_chain", n=4).num_terms == 6
        assert build_model("hadamard_power", n=2).num_terms == 4
        assert build_model("random_local", n=3, ell=1, m=2, seed=0).n == 3

    def test_build_model_invalid(self):
        with pytest.raises(ValueError):
            build_model("ising", n=2)
        with pytest.raises(ValueError):
            build_model("random_local", n=3)  # missing params
        with pytest.raises(ValueError):
            xxzz_chain(1)
        with pytest.raises(ValueError):
            random_local(n=2, ell=3, m=1, seed=0)


def test_sorted_terms_is_label_order():
    h = Hamiltonian.from_labels({"ZZ": 1.0, "IX": 2.0, "XI": 3.0})
    assert h.labels() == ["IX", "XI", "ZZ"]
