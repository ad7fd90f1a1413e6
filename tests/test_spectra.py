import math
import tracemalloc

import numpy as np
import pytest

import pauliham.spectra as spectra
from pauliham.amplify import amplify
from pauliham.paulis import (
    CapacityError,
    DimensionMismatchError,
    Hamiltonian,
    PauliString,
    hadamard_power,
    linear_combine,
    random_local,
    tensor_power,
    xxzz_chain,
)
from pauliham.spectra import (
    ConvergenceError,
    SpectralResult,
    StateVector,
    expectation,
    extremal_eigs,
    matvec,
    operator_norm,
    pauli_expectation,
    to_dense,
)

from conftest import SITE_MATRICES, kron_dense, random_hamiltonian, random_pauli, random_state


class TestStateVector:
    def test_basis(self):
        psi = StateVector.basis(2, 3)
        assert psi.amplitudes[3] == 1.0 and np.count_nonzero(psi.amplitudes) == 1

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_normalized_constructor(self):
        psi = StateVector.normalized(1, [3.0, 4.0])
        assert np.allclose(psi.amplitudes, [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            StateVector.normalized(1, [0.0, 0.0])

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_amplitudes_read_only(self):
        psi = StateVector.basis(1, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.5


class TestToDense:
    def test_z(self):
        assert np.array_equal(
            to_dense(Hamiltonian.from_labels({"Z": 1.0})), np.diag([1.0, -1.0])
        )

    def test_x(self):
        assert np.array_equal(
            to_dense(Hamiltonian.from_labels({"X": 1.0})),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        )

    def test_xxzz_eigenvalues(self):
        # independent oracle: eigensolve of the kron-built matrix
        h = Hamiltonian.from_labels({"XX": 1.0, "ZZ": 1.0})
        vals = np.linalg.eigvalsh(kron_dense(h))
        assert np.allclose(sorted(vals), [-2.0, 0.0, 0.0, 2.0])
        assert np.allclose(np.linalg.eigvalsh(to_dense(h)), vals)

    def test_matches_kron_oracle(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 5))
            h = random_hamiltonian(rng, n, include_identity=True)
            assert np.max(np.abs(to_dense(h) - kron_dense(h))) < 1e-12

    def test_hermitian(self, rng):
        for _ in range(10):
            h = random_hamiltonian(rng, 3)
            m = to_dense(h)
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12

    def test_dense_limit(self, limits):
        h = xxzz_chain(5)
        limits(dense_limit=4)
        with pytest.raises(CapacityError):
            to_dense(h)


class TestMatvec:
    def test_x_flips(self):
        out = matvec(Hamiltonian.from_labels({"X": 1.0}), StateVector.basis(1, 0))
        assert np.allclose(out, [0.0, 1.0])

    def test_z_signs(self):
        out = matvec(Hamiltonian.from_labels({"Z": 1.0}), StateVector.basis(1, 1))
        assert np.allclose(out, [0.0, -1.0])

    def test_matches_dense(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            h = random_hamiltonian(rng, n, include_identity=True)
            psi = random_state(rng, n)
            want = kron_dense(h) @ psi.amplitudes
            assert np.max(np.abs(matvec(h, psi) - want)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matvec(Hamiltonian.from_labels({"XX": 1.0}), StateVector.basis(1, 0))


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(
            Hamiltonian.from_labels({"Z": 1.0}), StateVector.basis(1, 0)
        ) == pytest.approx(1.0)

    def test_x_on_plus(self):
        plus = StateVector.normalized(1, [1.0, 1.0])
        assert expectation(
            Hamiltonian.from_labels({"X": 1.0}), plus
        ) == pytest.approx(1.0)

    def test_matches_dense_quadratic_form(self, rng):
        for _ in range(10):
            h = random_hamiltonian(rng, 4, include_identity=True)
            psi = random_state(rng, 4)
            want = np.vdot(psi.amplitudes, kron_dense(h) @ psi.amplitudes).real
            assert expectation(h, psi) == pytest.approx(want, abs=1e-10)

    def test_single_pauli_within_unit_interval(self, rng):
        from conftest import random_pauli

        for _ in range(30):
            p = random_pauli(rng, 3)
            psi = random_state(rng, 3)
            assert -1.0 - 1e-12 <= pauli_expectation(p, psi) <= 1.0 + 1e-12

    def test_within_spectral_range(self, rng):
        for _ in range(10):
            h = random_hamiltonian(rng, 3)
            psi = random_state(rng, 3)
            res = extremal_eigs(h)
            val = expectation(h, psi)
            assert res.lambda_min - 1e-9 <= val <= res.lambda_max + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(Hamiltonian.from_labels({"XX": 1.0}), StateVector.basis(1, 0))


def _oracle(h):
    """(lambda_max, lambda_min) from numpy's eigvalsh on the library's dense matrix."""
    vals = np.linalg.eigvalsh(to_dense(h))
    return vals[-1], vals[0]


def _ritz_residual(h, res):
    y = res.eigvec_max.amplitudes
    return float(np.linalg.norm(matvec(h, y) - res.lambda_max * y))


def _amplified(scale, k):
    """2((I + H)/2)^(x k) - I for H = scale * (0.6 X + 0.8 Z), whose norm is scale."""
    return amplify(Hamiltonian.from_labels({"X": 0.6 * scale, "Z": 0.8 * scale}), k)


class TestExtremalEigs:
    def test_hadamard_unit_norm(self):
        h = hadamard_power(1)
        res = extremal_eigs(h)
        assert res.lambda_max == pytest.approx(1.0, abs=1e-12)
        assert res.lambda_min == pytest.approx(-1.0, abs=1e-12)
        assert (res.lambda_max, res.lambda_min) == pytest.approx(_oracle(h), abs=1e-12)
        assert res.method == "iterative" and res.converged

    def test_z(self):
        res = extremal_eigs(Hamiltonian.from_labels({"Z": 1.0}))
        assert (res.lambda_max, res.lambda_min) == (1.0, -1.0)

    def test_half_xxzz(self):
        h = Hamiltonian.from_labels({"XX": 0.5, "ZZ": 0.5})
        assert extremal_eigs(h).lambda_max == pytest.approx(1.0, abs=1e-12)

    def test_dense_eigvec_is_eigenvector(self, rng):
        h = random_hamiltonian(rng, 3)
        res = extremal_eigs(h)
        hv = matvec(h, res.eigvec_max)
        assert np.max(np.abs(hv - res.lambda_max * res.eigvec_max.amplitudes)) < 1e-9

    def test_zero_rejected(self):
        z = Hamiltonian.from_labels({"Z": 1.0})
        with pytest.raises(ValueError):
            extremal_eigs(linear_combine([(1.0, z), (-1.0, z)]))

    def test_iterative_matches_dense(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 9))
            h = random_hamiltonian(rng, n, max_terms=5)
            want_max, want_min = _oracle(h)
            iterative = extremal_eigs(h, tol=1e-9)
            assert iterative.converged
            assert iterative.lambda_max == pytest.approx(want_max, abs=1e-6)
            assert iterative.lambda_min == pytest.approx(want_min, abs=1e-6)
            assert iterative.residual <= 1e-9
            assert _ritz_residual(h, iterative) <= 1e-8

    def test_iterative_auto_beyond_dense_limit(self, rng, limits):
        # n above dense_limit: to_dense refuses, the solver still runs
        h = random_hamiltonian(rng, 4, max_terms=4)
        want = _oracle(h)  # the oracle needs the default limit
        limits(dense_limit=3)
        with pytest.raises(CapacityError):
            to_dense(h)
        res = extremal_eigs(h)
        assert res.method == "iterative" and res.converged
        assert (res.lambda_max, res.lambda_min) == pytest.approx(want, abs=1e-9)

    def test_refuses_vectors_beyond_budget(self, limits):
        # limit 3 budgets 16 * 4^3 B: one vector of dim 2^6 fits, 2^7 does not
        limits(dense_limit=3)
        assert extremal_eigs(Hamiltonian.from_labels({"Z" * 6: 1.0})).converged
        with pytest.raises(CapacityError, match="n <= 6.*got n=7"):
            extremal_eigs(Hamiltonian.from_labels({"Z" * 7: 1.0}))

    def test_non_convergence_is_explicit(self, rng):
        h = random_hamiltonian(rng, 4, max_terms=5)
        res = extremal_eigs(h, tol=1e-14, max_iters=2)
        assert isinstance(res, SpectralResult)
        assert not res.converged
        assert res.residual > 0.0
        assert res.iterations == 2
        with pytest.raises(ConvergenceError):
            res.require_converged()
        with pytest.raises(ConvergenceError):
            operator_norm(h, tol=1e-14, max_iters=2)

    def test_max_iters_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="max_iters"):
            extremal_eigs(random_hamiltonian(rng, 2), max_iters=0)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_tol_must_be_a_nonnegative_number(self, tol):
        # no residual is <= NaN or a negative tol, so such a solve would run
        # the whole Krylov space and then report itself unconverged
        with pytest.raises(ValueError, match="tol must be >= 0"):
            extremal_eigs(random_local(9, 3, 30, seed=1), tol=tol)


class TestLanczosOracle:
    """The solver against eigvalsh(to_dense(h)) across operator families."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seed_sweep(self, seed):
        rng = np.random.default_rng([seed, 2024])
        for n in range(2, 11):
            cases = [
                random_local(n, min(n, 3), 12, seed=int(rng.integers(2**31))),
                random_hamiltonian(rng, n, max_terms=8),
                random_hamiltonian(rng, n, max_terms=8, include_identity=True),
                # diagonal only: a few distinct eigenvalues, early breakdown
                Hamiltonian.from_pairs(
                    n,
                    [(PauliString(n, 0, int(rng.integers(1, 1 << n))), float(rng.normal())) for _ in range(3)],
                ),
                # one term: eigenvalues +-c, breakdown after two steps
                Hamiltonian.from_pairs(n, [(random_pauli(rng, n), float(rng.normal()))]),
            ]
            for h in cases:
                if h.is_zero():
                    continue
                res = extremal_eigs(h)
                assert res.converged
                assert (res.lambda_max, res.lambda_min) == pytest.approx(_oracle(h), abs=1e-9)

    @pytest.mark.parametrize("scale,k", [(1.0, 3), (1.0, 9), (0.7, 4), (0.7, 8)])
    def test_amplified_yes_and_no(self, scale, k):
        h = _amplified(scale, k)
        res = extremal_eigs(h)
        assert res.converged
        assert (res.lambda_max, res.lambda_min) == pytest.approx(_oracle(h), abs=1e-9)
        assert res.lambda_max == pytest.approx(2.0 * ((1.0 + scale) / 2.0) ** k - 1.0, abs=1e-9)

    def test_yes_instance_breaks_down_after_two_steps(self):
        # (I + H)/2 is a projector when ||H|| = 1 with eigenvalues +-1, so the
        # amplified operator has only the eigenvalues +-1
        res = extremal_eigs(_amplified(1.0, 6))
        assert res.iterations == 2
        assert res.converged and res.residual <= 1e-12
        assert (res.lambda_max, res.lambda_min) == pytest.approx((1.0, -1.0), abs=1e-12)

    def test_eigenvector_residual_beyond_old_dense_limit(self):
        h = random_local(13, 3, 30, seed=5)
        res = extremal_eigs(h)
        assert res.converged
        assert res.eigvec_max.n == 13
        assert _ritz_residual(h, res) <= 1e-7
        assert expectation(h, res.eigvec_max) == pytest.approx(res.lambda_max, abs=1e-9)

    def test_small_budget_restarts_and_converges(self, rng, limits):
        # budget 16 * 4^6 B holds 16 vectors of dim 2^10, far fewer than the
        # iterations needed, so the solve restarts several times
        h = random_local(10, 3, 30, seed=3)
        roomy = extremal_eigs(h)
        want = _oracle(h)  # the oracle needs the default limit
        limits(dense_limit=7)
        tight = extremal_eigs(h)
        assert tight.converged
        assert tight.iterations > 16 * 3 and tight.iterations > roomy.iterations
        assert (tight.lambda_max, tight.lambda_min) == pytest.approx(want, abs=1e-9)
        assert _ritz_residual(h, tight) <= 1e-7

    def test_deterministic(self, rng):
        h = random_hamiltonian(rng, 7, max_terms=10)
        a, b = extremal_eigs(h), extremal_eigs(h)
        assert (a.lambda_max, a.lambda_min, a.iterations, a.residual) == (
            b.lambda_max, b.lambda_min, b.iterations, b.residual
        )
        assert np.array_equal(a.eigvec_max.amplitudes, b.eigvec_max.amplitudes)

    def test_matches_scipy_eigsh(self):
        sparse = pytest.importorskip("scipy.sparse")
        linalg = pytest.importorskip("scipy.sparse.linalg")
        h = random_local(13, 3, 40, seed=11)
        site = {label: sparse.csr_matrix(m) for label, m in SITE_MATRICES.items()}
        mat = sparse.csr_matrix((1 << h.n, 1 << h.n), dtype=complex)
        for p, c in h.terms.items():
            term = sparse.identity(1, dtype=complex, format="csr")
            for ch in reversed(p.label):  # qubit 0 is the least significant factor
                term = sparse.kron(term, site[ch], format="csr")
            mat = mat + c * term
        dim = 1 << h.n
        v0 = np.random.default_rng(0).normal(size=dim).astype(complex)
        hi = linalg.eigsh(mat, k=1, which="LA", tol=1e-12, v0=v0, return_eigenvectors=False)[0]
        lo = linalg.eigsh(mat, k=1, which="SA", tol=1e-12, v0=v0, return_eigenvectors=False)[0]
        res = extremal_eigs(h)
        assert res.converged
        assert (res.lambda_max, res.lambda_min) == pytest.approx((hi, lo), abs=1e-9)


def _reference_matvec(h, v):
    """H v by one full-length diagonal and one full-length gather per group.

    The formula the blocked kernel must reproduce bit for bit: groups by
    (x mask, Y parity) in sorted order, each diagonal filled with the sum of
    its coefficients and then 2 c subtracted, term by term, where the
    parity of z & i is odd.
    """
    groups = {}
    for x, z, c in zip(h.x[:, 0].tolist(), h.z[:, 0].tolist(), h.coeffs.tolist()):
        y = (x & z).bit_count()
        groups.setdefault((x, y & 1), []).append((z, -c if y & 2 else c))
    index = np.arange(1 << h.n)
    out = np.zeros(1 << h.n, dtype=np.complex128)
    for (x, odd), terms in sorted(groups.items()):
        diag = np.full(1 << h.n, sum(c for _, c in terms))
        for z, c in terms:
            if z:
                odd_parity = (np.bitwise_count(index & z) & 1).astype(bool)
                np.subtract(diag, 2.0 * c, out=diag, where=odd_parity)
        vals = v[index ^ x] * diag
        if odd:
            vals = vals * -1j
        out += vals
    return out


def _bits_equal(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _straddling_hamiltonian(rng):
    """Terms at n = block bits + 2 (four blocks) that exercise every kernel path."""
    n = spectra._KERNEL_BLOCK_BITS + 2
    top, edge = 1 << (n - 1), 1 << (n - 2)  # the two block-index bits
    below = edge >> 1  # highest in-block bit
    pairs = [
        (0, 0),  # identity
        (below | edge, (below >> 1) | top),  # x and z straddle the boundary
        (edge | 1, edge),  # one Y: odd parity
        (below | edge, below | edge),  # two Ys: even parity
        (top, top | 1),
        (0, edge | top | 5),  # diagonal only, low and high z bits
        (3, 0),
    ]
    # one x mask with 10 terms whose z masks avoid x, so they form one
    # even group; their high z bits are 0 or the top bit only, so blocks 0
    # and 1 (and 2 and 3) share each row
    shared = edge | 4
    pairs += [(shared, z) for z in (0, 1, 2, 3, 8, 9, below, top, top | 1, top | 3)]
    return Hamiltonian.from_pairs(
        n, [(PauliString(n, x, z), float(rng.uniform(-1.0, 1.0))) for x, z in pairs]
    )


def _random_vector(rng, n):
    return rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)


class TestGroupedKernel:
    def test_matvec_matches_dense_at_larger_n(self, rng):
        for n in (7, 9):
            h = random_hamiltonian(rng, n, max_terms=20, include_identity=True)
            psi = random_state(rng, n)
            assert np.max(np.abs(matvec(h, psi) - kron_dense(h) @ psi.amplitudes)) < 1e-10

    def test_shared_x_masks_and_mixed_y_parity(self):
        # X, Y share x; XZ, YZ, XI, YY... groups mixing odd and even Y counts
        h = Hamiltonian.from_labels(
            {"XI": 0.3, "YI": -0.7, "XZ": 0.2, "YZ": 0.5, "YY": 0.4, "XY": -0.1, "ZZ": 1.1, "II": 0.25}
        )
        psi = StateVector.normalized(2, [1.0, 2.0 - 1.0j, -0.5j, 0.3])
        assert np.max(np.abs(matvec(h, psi) - kron_dense(h) @ psi.amplitudes)) < 1e-12

    def test_blocks_bit_identical_to_full_vector_formula(self, rng):
        h = _straddling_hamiltonian(rng)
        v = _random_vector(rng, h.n)
        want = _reference_matvec(h, v)
        assert _bits_equal(matvec(h, v), want)
        blocks = 1 << (h.n - spectra._KERNEL_BLOCK_BITS)
        # every row memoised, then none: the memo changes no bit
        kept = spectra._GroupedKernel(h, keep_bytes=1 << 30)
        assert len(kept._first) < blocks * len(kept._groups)  # blocks share rows
        assert _bits_equal(kept.apply(v), want)
        assert _bits_equal(kept.apply(v), want)  # from the filled memo
        assert _bits_equal(spectra._GroupedKernel(h, keep_bytes=0).apply(v), want)

    @pytest.mark.parametrize("n", [spectra._KERNEL_BLOCK_BITS - 3, spectra._KERNEL_BLOCK_BITS + 2])
    def test_random_terms_bit_identical(self, rng, n):
        for h in (
            random_local(n, 4, 60, seed=int(rng.integers(2**31))),
            random_hamiltonian(rng, n, max_terms=30, include_identity=True),
        ):
            v = _random_vector(rng, n)
            assert _bits_equal(matvec(h, v), _reference_matvec(h, v))

    def test_matvec_working_memory_within_input_size(self, rng):
        h = random_local(18, 2, 36, seed=1)
        v = _random_vector(rng, 18)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = matvec(h, v)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the full-vector kernel took about 10.4 MiB besides its output here
        assert peak - out.nbytes <= v.nbytes

    def test_solver_memo_within_dense_budget(self, rng, limits, monkeypatch):
        kernels = []

        class Recorded(spectra._GroupedKernel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                kernels.append(self)

        monkeypatch.setattr(spectra, "_GroupedKernel", Recorded)
        limits(dense_limit=7)  # 256 KiB: four of the 64 KiB rows at n = 14
        h = random_local(14, 3, 60, seed=2)
        extremal_eigs(h, max_iters=12)
        (kernel,) = kernels
        budget = 16 << (2 * 7)
        assert 0 < kernel.kept_bytes <= budget
        assert len(kernel._first) * 8 << spectra._KERNEL_BLOCK_BITS > budget
        # a partly filled memo, the rest rebuilt per block: still the same bits
        v = _random_vector(rng, h.n)
        assert _bits_equal(kernel.apply(v), _reference_matvec(h, v))

    def test_multi_block_solve_pinned(self):
        # recorded with the full-vector kernel; any changed bit in the
        # four-block path moves the Krylov space and these values
        res = extremal_eigs(random_local(15, 3, 40, seed=4))
        assert res.converged
        assert res.lambda_max == 7.208073213125924
        assert res.lambda_min == -7.208073213125918
        assert res.iterations == 255
        assert repr(res.residual) == "6.429586139348615e-09"


def test_psd_tensor_power_top_eigenvalue(rng):
    # lambda_max(M^(x k)) = lambda_max(M)^k for PSD M = (I + H)/2, ||H|| <= 1,
    # verified dense (via kron powers) for n*k <= 10
    for _ in range(5):
        n = int(rng.integers(1, 3))
        h = random_hamiltonian(rng, n, max_terms=3)
        h = linear_combine([(1.0 / operator_norm(h), h)])
        m = linear_combine([(0.5, Hamiltonian.identity(n)), (0.5, h)])
        lam = extremal_eigs(m).lambda_max
        dense_m = to_dense(m)
        powered = dense_m
        for k in range(2, 1 + 10 // n):
            powered = np.kron(powered, dense_m)
            assert np.linalg.eigvalsh(powered)[-1] == pytest.approx(lam**k, abs=1e-10)


def test_tensor_power_matches_kron_oracle(rng):
    h = random_hamiltonian(rng, 2, max_terms=3)
    m = linear_combine([(0.5, Hamiltonian.identity(2)), (0.5, h)])
    dense_m = to_dense(m)
    assert np.max(np.abs(to_dense(tensor_power(m, 2)) - np.kron(dense_m, dense_m))) < 1e-12


def test_operator_norm_helper():
    h = Hamiltonian.from_labels({"XX": 1.0, "ZZ": 1.0})
    assert operator_norm(h) == pytest.approx(2.0, abs=1e-12)
