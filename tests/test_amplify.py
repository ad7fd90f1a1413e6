import math

import numpy as np
import pytest

from pauliham.amplify import (
    AmplifyParams,
    amplification_bounds,
    amplify,
    exact_eigenvalue_map,
    game_promise_gap,
    pauli_norm_bound,
    verify_amplification,
)
from pauliham.paulis import (
    CapacityError,
    Hamiltonian,
    hadamard_power,
    linear_combine,
    pauli_1_norm,
    xxzz_chain,
)
from pauliham.spectra import extremal_eigs, operator_norm, to_dense

from conftest import kron_dense, random_hamiltonian


class TestAmplifyParams:
    def test_accepts_infinite_p(self):
        params = AmplifyParams(k=3, p=math.inf, q=5.0)
        assert math.isinf(params.p)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            AmplifyParams(k=0, p=10.0, q=5.0)

    def test_rejects_inverted_promises(self):
        # YES threshold must sit above NO threshold
        with pytest.raises(ValueError):
            AmplifyParams(k=1, p=5.0, q=10.0)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            AmplifyParams(k=1, p=10.0, q=0.0)


class TestExactEigenvalueMap:
    def test_fixed_points(self):
        for k in (1, 2, 5, 17):
            assert exact_eigenvalue_map(1.0, k) == 1.0
            assert exact_eigenvalue_map(-1.0, k) == -1.0

    def test_no_case_value(self):
        # 2 * 0.9^10 - 1, the image of 1 - 1/q at q=5, k=10
        got = exact_eigenvalue_map(1.0 - 1.0 / 5.0, 10)
        assert got == pytest.approx(2.0 * 0.9**10 - 1.0, abs=1e-15)
        assert got == pytest.approx(-0.3026431198, abs=1e-9)

    def test_strictly_increasing(self):
        # near -1 the image increments underflow double precision, so the
        # strict comparison runs where they are representable and the full
        # interval is checked non-decreasing
        strict_grid = np.linspace(-0.9, 0.999, 200)
        full_grid = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 200)
        for k in range(1, 9):
            strict = [exact_eigenvalue_map(x, k) for x in strict_grid]
            assert all(a < b for a, b in zip(strict, strict[1:]))
            full = [exact_eigenvalue_map(x, k) for x in full_grid]
            assert all(a <= b for a, b in zip(full, full[1:]))

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            exact_eigenvalue_map(1.5, 2)
        with pytest.raises(ValueError):
            exact_eigenvalue_map(-1.1, 2)
        # floating-point slop just outside the interval is tolerated
        assert exact_eigenvalue_map(1.0 + 1e-12, 3) == 1.0


class TestPauliNormBound:
    def test_unit_norm_gives_three(self):
        for k in range(1, 12):
            assert pauli_norm_bound(1.0, k) == 3.0

    def test_sqrt2_squared(self):
        want = 1.0 + 2.0 * ((1.0 + math.sqrt(2.0)) / 2.0) ** 2
        assert pauli_norm_bound(math.sqrt(2.0), 2) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(3.914213562373095, abs=1e-12)

    def test_zero_norm(self):
        assert pauli_norm_bound(0.0, 5) == 1.0625

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pauli_norm_bound(-0.5, 2)

    def test_overflow_is_inf(self):
        # ((1 + sqrt 2)/2)^5000 is far beyond the largest float
        assert pauli_norm_bound(math.sqrt(2.0), 5000) == math.inf


class TestAmplificationBounds:
    def test_infinite_p(self):
        report = amplification_bounds(AmplifyParams(k=20, p=math.inf, q=10.0))
        assert report.yes_lower_bound == 1.0
        assert report.no_upper_bound == pytest.approx(
            2.0 * math.exp(-1.0) - 1.0, abs=1e-15
        )
        assert report.no_upper_bound == pytest.approx(-0.2642411176571153, abs=1e-12)

    def test_finite_p(self):
        report = amplification_bounds(AmplifyParams(k=20, p=100.0, q=10.0))
        assert report.yes_lower_bound == pytest.approx(0.8)
        assert report.gap_lower_bound == pytest.approx(
            20.0 * (1.0 / 20.0 - 1.0 / 100.0)
        )
        assert report.gap_lower_bound == pytest.approx(0.8)

    def test_measured_fields_unset(self):
        report = amplification_bounds(AmplifyParams(k=2, p=math.inf, q=2.0))
        assert report.lambda_out_exact is None
        assert report.pauli1_out is None
        assert report.all_bounds_hold is None

    def test_both_normalizations_exposed(self):
        report = amplification_bounds(AmplifyParams(k=10, p=math.inf, q=5.0))
        assert report.no_gap_from_one == pytest.approx(1.0 - report.no_upper_bound)
        assert report.no_gap_half_scale == pytest.approx(report.no_gap_from_one / 2.0)

    def test_regime_flag(self):
        assert amplification_bounds(AmplifyParams(k=10, p=math.inf, q=5.0)).gap_formula_in_regime
        assert not amplification_bounds(AmplifyParams(k=11, p=math.inf, q=5.0)).gap_formula_in_regime


class TestSandwich:
    def test_no_case_sandwich_within_regime(self):
        # 2(1 - k/(2q)) - 1 <= map(1 - 1/q, k) <= 2 e^(-k/(2q)) - 1 for k <= 2q
        for q in (2.0, 5.0, 10.0, 25.0):
            for k in range(1, int(2 * q) + 1):
                lam = exact_eigenvalue_map(1.0 - 1.0 / q, k)
                report = amplification_bounds(AmplifyParams(k=k, p=math.inf, q=q))
                assert report.no_lower_bound - 1e-9 <= lam <= report.no_upper_bound + 1e-9

    def test_gap_formula_verified_in_regime(self):
        # with p = inf the amplified separation 1 - no_upper = 2(1 - e^(-x))
        # dominates the linear estimate k/(2q) exactly when x = k/(2q) is small;
        # inside k <= 2q it always holds, and it provably breaks for large x
        for q in (1.0, 2.0, 5.0, 10.0):
            for k in range(1, int(2 * q) + 1):
                report = amplification_bounds(AmplifyParams(k=k, p=math.inf, q=q))
                separation = report.yes_lower_bound - report.no_upper_bound
                assert separation >= report.gap_lower_bound - 1e-12
                assert report.gap_formula_in_regime
        broken = amplification_bounds(AmplifyParams(k=4, p=math.inf, q=1.0))
        assert not broken.gap_formula_in_regime
        assert broken.yes_lower_bound - broken.no_upper_bound < broken.gap_lower_bound


class TestAmplify:
    def test_z_cubed_pauli_form(self):
        # oracle: 2|000><000| - I expanded brute force over the 8 diagonal strings
        out = amplify(Hamiltonian.from_labels({"Z": 1.0}), 3)
        got = {p.label: c for p, c in out.terms.items()}
        want = {"III": -0.75}
        for label in ("IIZ", "IZI", "ZII", "IZZ", "ZIZ", "ZZI", "ZZZ"):
            want[label] = 0.25
        assert got == pytest.approx(want)
        assert pauli_1_norm(out) == pytest.approx(2.5)
        proj = np.zeros((8, 8))
        proj[0, 0] = 1.0
        assert np.max(np.abs(kron_dense(out) - (2.0 * proj - np.eye(8)))) < 1e-12

    def test_k1_fixed_point(self, rng):
        h = random_hamiltonian(rng, 2)
        h = linear_combine([(1.0 / (2.0 * operator_norm(h)), h)])
        out = amplify(h, 1)
        assert out.terms == h.terms

    def test_top_eigenvalue_one_preserved(self):
        h = Hamiltonian.from_labels({"XX": 0.5, "ZZ": 0.5})
        out = amplify(h, 2)
        assert extremal_eigs(out).lambda_max == pytest.approx(1.0, abs=1e-10)

    def test_norm_precondition_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            amplify(Hamiltonian.from_labels({"Z": 2.0}), 2)

    def test_assume_norm_ok_override(self):
        out = amplify(Hamiltonian.from_labels({"Z": 2.0}), 2, assume_norm_ok=True)
        assert out.n == 2

    def test_certificate_path_beyond_dense_limit(self, limits):
        h = Hamiltonian.from_labels({"Z" * 6: 0.5})
        limits(dense_limit=3)
        out = amplify(h, 2)  # P1 <= 1 certificate, no dense check
        assert out.n == 12

    def test_uncertifiable_norm_rejected(self, limits):
        # n = 6 is beyond the dense limit 3 and ||H||_P1 > 1, so the
        # eigensolver decides.  X and Z on qubit 0 anticommute:
        # ||0.6 X + 0.6 Z|| = 0.6 sqrt(2) <= 1 < 1.2 = ||H||_P1.
        accepted = Hamiltonian.from_labels({"XIIIII": 0.6, "ZIIIII": 0.6})
        assert pauli_1_norm(accepted) > 1.0
        limits(dense_limit=3)
        out = amplify(accepted, 2)
        assert out.n == 12 and out.num_terms == 9
        # XXXXXX and ZZZZZZ commute, so ||H|| = 0.9 + 0.9 > 1.
        refused = Hamiltonian.from_labels({"X" * 6: 0.9, "Z" * 6: 0.9})
        with pytest.raises(ValueError, match="operator norm .* exceeds 1"):
            amplify(refused, 2)

    def test_norm_check_beyond_solver_budget_refused(self, limits):
        # one 2^7 vector exceeds the budget of limit 3 (n <= 6): refused
        # before any solve, where the certificate ||H||_P1 <= 1 cannot help
        h = Hamiltonian.from_labels({"XIIIIII": 0.6, "ZIIIIII": 0.6})
        limits(dense_limit=3)
        with pytest.raises(CapacityError, match="n <= 6"):
            amplify(h, 2)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            amplify(hadamard_power(2), 12)

    def test_operator_norm_stays_below_one(self, rng):
        for _ in range(5):
            h = random_hamiltonian(rng, 2, max_terms=3)
            h = linear_combine([(1.0 / operator_norm(h), h)])
            for k in (1, 2, 3):
                assert operator_norm(amplify(h, k)) <= 1.0 + 1e-9

    def test_eigen_identity_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 3))
            h = random_hamiltonian(rng, n, max_terms=4)
            h = linear_combine([(1.0 / operator_norm(h), h)])
            lam_in = extremal_eigs(h).lambda_max
            for k in (1, 2, 3):
                lam_out = extremal_eigs(amplify(h, k)).lambda_max
                assert lam_out == pytest.approx(
                    exact_eigenvalue_map(lam_in, k), abs=1e-8
                )

    def test_pauli_norm_bound_respected(self, rng):
        for _ in range(10):
            h = random_hamiltonian(rng, 2, max_terms=3)
            h = linear_combine([(1.0 / operator_norm(h), h)])
            p1 = pauli_1_norm(h)
            for k in (1, 2, 3, 4):
                assert pauli_1_norm(amplify(h, k)) <= pauli_norm_bound(p1, k) + 1e-9


class TestVerifyAmplification:
    def test_yes_case_z(self):
        report = verify_amplification(
            Hamiltonian.from_labels({"Z": 1.0}), AmplifyParams(k=3, p=math.inf, q=5.0)
        )
        assert report.promise_case == "yes"
        assert report.lambda_out_exact == pytest.approx(1.0, abs=1e-12)
        assert report.pauli1_out == pytest.approx(2.5)
        assert report.pauli1_bound == pytest.approx(3.0)
        assert report.all_bounds_hold

    def test_no_case_exact_threshold(self):
        report = verify_amplification(
            Hamiltonian.from_labels({"Z": 0.8}), AmplifyParams(k=10, p=math.inf, q=5.0)
        )
        assert report.promise_case == "no"
        assert report.lambda_out_exact == pytest.approx(2.0 * 0.9**10 - 1.0, abs=1e-10)
        assert report.lambda_out_exact <= report.no_upper_bound
        assert report.no_upper_bound == pytest.approx(2.0 / math.e - 1.0, abs=1e-12)
        assert report.all_bounds_hold

    def test_hadamard_norm_growth(self):
        h = hadamard_power(1)
        report = verify_amplification(h, AmplifyParams(k=4, p=math.inf, q=10.0))
        # independent enumeration: (I + H)/2 has P1 (1 + sqrt 2)/2 and identity
        # weight 1/2, so the k-fold power has P1 ((1 + sqrt 2)/2)^4 with identity
        # weight 1/16; undo the final shift to get the exact output norm
        core = ((1.0 + math.sqrt(2.0)) / 2.0) ** 4
        ident = 0.5**4
        want_out = 2.0 * (core - ident) + abs(2.0 * ident - 1.0)
        assert report.pauli1_out == pytest.approx(want_out, abs=1e-12)
        assert report.pauli1_bound == pytest.approx(1.0 + 2.0 * core, abs=1e-12)
        assert report.pauli1_bound == pytest.approx(5.246320343559642, abs=1e-12)
        assert report.pauli1_out <= report.pauli1_bound
        assert report.pauli1_out / report.pauli1_in > 1.0

    def test_promise_violation_fails_verification(self):
        report = verify_amplification(
            Hamiltonian.from_labels({"Z": 0.9}), AmplifyParams(k=4, p=math.inf, q=5.0)
        )
        assert report.promise_case == "none"
        assert not report.all_bounds_hold

    @pytest.mark.parametrize("eigen_tol", [math.nan, -1.0])
    def test_eigen_tol_must_be_a_nonnegative_number(self, eigen_tol):
        # a NaN tolerance fails every eigenvalue check: "verification failed"
        with pytest.raises(ValueError, match="eigen_tol must be >= 0"):
            verify_amplification(
                Hamiltonian.from_labels({"Z": 1.0}),
                AmplifyParams(k=3, p=math.inf, q=5.0),
                eigen_tol=eigen_tol,
            )

    def test_norm_only_beyond_dense_limit(self, limits):
        limits(dense_limit=2)
        report = verify_amplification(
            Hamiltonian.from_labels({"Z": 0.5}),
            AmplifyParams(k=4, p=math.inf, q=2.0),
        )
        assert report.lambda_out_exact is None
        assert report.pauli1_out is not None


class TestGamePromiseGap:
    def test_division(self):
        assert game_promise_gap(0.8, 2.5) == pytest.approx(0.32)

    def test_identity_scale(self):
        assert game_promise_gap(0.37, 1.0) == 0.37

    def test_xxzz_chain_example(self):
        lam = pauli_1_norm(xxzz_chain(11))
        assert lam == 20.0
        assert game_promise_gap(1.0 / 10.0, lam) == pytest.approx(0.005)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            game_promise_gap(0.5, 0.0)
