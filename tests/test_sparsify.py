import math
import tracemalloc

import numpy as np
import pytest

from pauliham.amplify import amplify
from pauliham.paulis import (
    Hamiltonian,
    hadamard_power,
    pauli_1_norm,
    parse_pauli,
    random_local,
    term_distribution,
    xxzz_chain,
)
from pauliham.sparsify import (
    SparsifyParams,
    chernoff_bound,
    empirical_deviation,
    sample_restriction,
)


class TestParams:
    def test_validation(self):
        SparsifyParams(m=1, delta=0.5, seed=0)
        with pytest.raises(ValueError):
            SparsifyParams(m=0, delta=0.5, seed=0)
        with pytest.raises(ValueError):
            SparsifyParams(m=4, delta=0.0, seed=0)
        with pytest.raises(ValueError):
            SparsifyParams(m=4, delta=0.5, seed=0, trials=0)


class TestChernoffBound:
    def test_reference_value(self):
        assert chernoff_bound(2, 512, 0.5) == pytest.approx(
            4.0 * math.exp(-4.0), abs=1e-12
        )

    def test_exactly_one_third(self):
        # solve m delta^2 / 32 = n ln 2 + ln 3 so the bound collapses to 1/3
        n, m = 2, 100
        delta = math.sqrt(32.0 * (n * math.log(2.0) + math.log(3.0)) / m)
        assert chernoff_bound(n, m, delta) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_vacuous_flagged(self):
        with pytest.warns(RuntimeWarning, match="vacuous"):
            value = chernoff_bound(10, 10, 0.1)
        assert value > 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            chernoff_bound(0, 10, 0.5)

    def test_beyond_float_range_of_two_to_the_n(self):
        # 2^1100 is no float, but 2^1100 exp(-10^9 / 32) underflows to 0.0
        assert chernoff_bound(1100, 10**9, 1.0) == 0.0
        with pytest.warns(RuntimeWarning, match="vacuous"):
            assert chernoff_bound(2000, 1, 1.0) == math.inf
        # near the top of the float range: 2^1024 exp(-1100 / 32)
        with pytest.warns(RuntimeWarning, match="vacuous"):
            assert chernoff_bound(1024, 1100, 1.0) == pytest.approx(
                2.0**1000 * math.exp(-1100 / 32.0) * 2.0**24, rel=1e-12
            )

    @pytest.mark.filterwarnings("ignore:Chernoff bound")
    @pytest.mark.parametrize("n, m, delta", [(2, 512, 0.5), (6, 200, 0.9), (1023, 10**4, 1.0)])
    def test_same_bits_as_power_formula(self, n, m, delta):
        assert chernoff_bound(n, m, delta) == 2.0**n * math.exp(-m * delta * delta / 32.0)


class TestSampleRestriction:
    def test_single_term_reproduced_exactly(self):
        h = Hamiltonian.from_labels({"XZ": -0.7})
        for m in (1, 4, 33):
            out = sample_restriction(h, m, seed=0)
            assert out.terms == h.terms

    def test_two_term_enumeration(self):
        # with one X draw and one Z draw at m = 2, the estimator returns H itself
        h = Hamiltonian.from_labels({"X": 0.5, "Z": 0.5})
        found = False
        for seed in range(60):
            out = sample_restriction(h, 2, seed=seed)
            if out.num_terms == 2:
                found = True
                assert out.coefficient(parse_pauli("X")) == pytest.approx(0.5)
                assert out.coefficient(parse_pauli("Z")) == pytest.approx(0.5)
        assert found

    def test_unbiased_coefficients(self):
        h = Hamiltonian.from_labels({"XX": 0.6, "ZZ": -0.3, "IX": 0.1})
        m, trials = 32, 10_000
        sums = {p: 0.0 for p in h.terms}
        for trial in range(trials):
            out = sample_restriction(h, m, seed=trial)
            for p in sums:
                sums[p] += out.coefficient(p)
        lam = pauli_1_norm(h)
        for p, coeff in h.terms.items():
            mean = sums[p] / trials
            prob = abs(coeff) / lam
            # per-trial coefficient is (lam/m) sign * Binomial(m, prob)
            sigma = (lam / m) * math.sqrt(m * prob * (1 - prob)) / math.sqrt(trials)
            assert abs(mean - coeff) <= 4 * sigma

    def test_pauli_norm_preserved(self):
        # same-sign contributions per term never cancel, so the restricted
        # norm equals the original Pauli 1-norm exactly
        h = Hamiltonian.from_labels({"XX": 0.6, "ZZ": -0.3, "IX": 0.1})
        lam = pauli_1_norm(h)
        for seed in range(10):
            out = sample_restriction(h, 16, seed=seed)
            assert pauli_1_norm(out) == pytest.approx(lam, abs=1e-9)
            assert pauli_1_norm(out) <= lam + 1e-9

    def test_zero_rejected(self):
        h = Hamiltonian.from_labels({"X": 1.0})
        zero = Hamiltonian(1, {})
        with pytest.raises(ValueError):
            sample_restriction(zero, 4, seed=0)
        with pytest.raises(ValueError):
            sample_restriction(h, 0, seed=0)

    def test_large_m_drawn_in_bounded_memory(self):
        # 3e6 draws at once took 24 MB of uniforms and 24 MB of indices;
        # the counts are those of one inverse-CDF search over them all
        h = random_local(6, 3, 40, seed=5)
        m = 3_000_000
        tracemalloc.start()
        try:
            out = sample_restriction(h, m, seed=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

        signs, probs = term_distribution(h)
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        u = np.random.default_rng(8).random(m)
        counts = np.bincount(np.searchsorted(cum, u, side="right"), minlength=len(probs))
        del u
        picked = np.flatnonzero(counts)
        want = Hamiltonian.from_columns(
            h.n, h.x[picked], h.z[picked], counts[picked] * (pauli_1_norm(h) / m) * signs[picked]
        )
        assert out.labels() == want.labels()
        assert np.array_equal(out.coeffs, want.coeffs)


class TestEmpiricalDeviation:
    @pytest.mark.filterwarnings("ignore:Chernoff bound")
    def test_single_term_never_deviates(self):
        h = Hamiltonian.from_labels({"XZ": -0.7})
        report = empirical_deviation(h, SparsifyParams(m=8, delta=0.1, seed=0, trials=20))
        assert report.deviations == tuple([0.0] * 20)
        assert report.empirical_failure_rate == 0.0

    def test_failure_rate_within_bound(self):
        h = xxzz_chain(2)
        params = SparsifyParams(m=512, delta=0.5, seed=7, trials=200)
        report = empirical_deviation(h, params)
        slack = 3.0 * math.sqrt(report.bound / params.trials)
        assert report.empirical_failure_rate <= report.bound + slack
        assert not report.bound_vacuous
        assert report.terms_before == 2
        assert 1.0 <= report.terms_after_mean <= 2.0

    @pytest.mark.filterwarnings("ignore:Chernoff bound")
    def test_mean_deviation_non_increasing_in_m(self):
        h = xxzz_chain(2)
        means = []
        for m in (16, 64, 256):
            report = empirical_deviation(
                h, SparsifyParams(m=m, delta=0.5, seed=11, trials=200)
            )
            means.append(float(np.mean(report.deviations)))
        assert means[0] >= means[1] >= means[2]

    @pytest.mark.filterwarnings("ignore:Chernoff bound")
    def test_restricted_norm_stays_at_lambda(self):
        # sparsifying an amplified operator thins terms but not the 1-norm
        h = amplify(hadamard_power(1), 3)
        lam = pauli_1_norm(h)
        report = empirical_deviation(h, SparsifyParams(m=24, delta=1.0, seed=3, trials=50))
        assert report.pauli1_before == pytest.approx(lam)
        assert report.pauli1_after_mean == pytest.approx(lam, abs=1e-9)
        assert report.terms_after_mean < report.terms_before

    @pytest.mark.filterwarnings("ignore:Chernoff bound")
    def test_trials_reproducible(self):
        h = xxzz_chain(2)
        params = SparsifyParams(m=32, delta=0.5, seed=5, trials=25)
        a = empirical_deviation(h, params)
        b = empirical_deviation(h, params)
        assert a == b
