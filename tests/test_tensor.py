"""Tensor algebra unit tests.

Oracles are kept independent of the implementation: the transform is checked
against an explicitly built DFT matrix, the t-product against the
block-circulant matmul route, tnn against the block-circulant nuclear norm
and against characteristic-polynomial roots obtained from the closed-form
trigonometric cubic solver, and the rfft shrinkage and tnn against the
full-spectrum slice-by-slice implementations in ``tensor_oracle``.  The
thread-pooled per-slice shrinkage through each slice's Gram matrix must
give the same bits at every thread count as on one thread, and agree with
the batched-SVD pass kept in ``tensor_oracle`` to 1e-12 relative.
"""

import math
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensor_oracle as oracle
from fedceo import tensor as tz
from fedceo.errors import NoConvergence, NonFinite, ParseError, ShapeMismatch


def naive_dft_mode3(t):
    """Mode-3 DFT via an explicitly constructed transform matrix."""
    n3 = t.shape[2]
    j, k = np.meshgrid(np.arange(n3), np.arange(n3), indexing="ij")
    fmat = np.exp(-2j * np.pi * j * k / n3)
    return np.einsum("abk,jk->abj", t.astype(complex), fmat)


def hermitian3_eigvals_cubic(h):
    """Eigenvalues of a 3x3 Hermitian matrix from its characteristic
    polynomial, solved in closed form (trigonometric method).  No calls
    into any eigensolver or SVD."""
    a = -float(np.trace(h).real)
    minors = (
        h[1, 1] * h[2, 2] - h[1, 2] * h[2, 1]
        + h[0, 0] * h[2, 2] - h[0, 2] * h[2, 0]
        + h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    )
    b = float(minors.real)
    det = np.linalg.det(h)  # det of a 3x3 via LU; not an eigensolver
    c = -float(det.real)
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    if p >= -1e-30:
        # near-triple root
        return np.full(3, shift - np.cbrt(q))
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg) / 3.0
    roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift for k in range(3)]
    return np.array(sorted(roots, reverse=True))


@pytest.fixture
def small_pools(monkeypatch):
    """Let stacks of any size use a thread pool, so small ones test it."""
    monkeypatch.setattr(tz, "MIN_WORK_PER_THREAD", 1)


def rel_err(got, want):
    denom = np.linalg.norm(np.asarray(want).ravel())
    return np.linalg.norm((np.asarray(got) - np.asarray(want)).ravel()) / max(denom, 1e-300)


def input_rel_err(got, want, t):
    """||got - want|| / ||t||, in units that keep entries near 1e200 finite."""
    unit = np.ldexp(1.0, int(np.frexp(np.abs(t).max())[1]))
    return np.linalg.norm(((got - want) / unit).ravel()) / np.linalg.norm((t / unit).ravel())


class TestDftMode3:
    def test_two_point_examples(self):
        spec = oracle.dft_mode3(np.array([1.0, 1.0]).reshape(1, 1, 2))
        npt.assert_allclose(spec.ravel(), [2.0, 0.0], atol=1e-14)
        spec = oracle.dft_mode3(np.array([1.0, -1.0]).reshape(1, 1, 2))
        npt.assert_allclose(spec.ravel(), [0.0, 2.0], atol=1e-14)

    def test_idft_examples(self):
        out = oracle.idft_mode3(np.array([2.0, 0.0], dtype=complex).reshape(1, 1, 2))
        npt.assert_allclose(out.ravel(), [1.0, 1.0], atol=1e-14)

    def test_matches_naive_dft_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            shape = tuple(rng.integers(1, 9, size=3))
            t = rng.standard_normal(shape)
            npt.assert_allclose(oracle.dft_mode3(t), naive_dft_mode3(t), atol=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            t = rng.standard_normal(tuple(rng.integers(1, 12, size=3)))
            back = oracle.idft_mode3(oracle.dft_mode3(t))
            assert rel_err(back, t) <= 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            t = rng.standard_normal(tuple(rng.integers(1, 12, size=3)))
            spec = oracle.dft_mode3(t)
            lhs = np.linalg.norm(spec.ravel()) ** 2
            rhs = t.shape[2] * np.linalg.norm(t.ravel()) ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1e-300)

    def test_asymmetric_spectrum_rejected(self):
        spec = np.zeros((1, 1, 4), dtype=complex)
        spec[0, 0, 1] = 1.0 + 1.0j  # no conjugate partner in slice 3
        with pytest.raises(oracle.SymmetryViolation):
            oracle.idft_mode3(spec)

    def test_nonfinite_rejected(self):
        bad = np.ones((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(NonFinite):
            oracle.dft_mode3(bad)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeMismatch):
            oracle.dft_mode3(np.ones((2, 2)))


class TestBcircAndTProduct:
    def test_bcirc_two_slices(self):
        t = np.array([3.0, 7.0]).reshape(1, 1, 2)
        npt.assert_array_equal(oracle.bcirc(t), [[3.0, 7.0], [7.0, 3.0]])

    def test_bcirc_first_column_is_unfold(self):
        rng = np.random.default_rng(20)
        t = rng.standard_normal((3, 2, 4))
        npt.assert_array_equal(oracle.bcirc(t)[:, :2], oracle.unfold(t))

    def test_fold_unfold_inverse(self):
        rng = np.random.default_rng(21)
        t = rng.standard_normal((4, 3, 5))
        npt.assert_array_equal(oracle.fold(oracle.unfold(t), t.shape), t)

    def test_fourier_route_matches_bcirc_route(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n1, p, n4, n3 = rng.integers(1, 9, size=4)
            a = rng.standard_normal((n1, p, n3))
            b = rng.standard_normal((p, n4, n3))
            via_fft = oracle.t_product(a, b)
            via_mat = oracle.fold(oracle.bcirc(a) @ oracle.unfold(b), (n1, n4, n3))
            assert rel_err(via_fft, via_mat) <= 1e-9

    def test_single_slice_is_matmul(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 3, 1))
        b = rng.standard_normal((3, 5, 1))
        npt.assert_allclose(
            oracle.t_product(a, b)[:, :, 0], a[:, :, 0] @ b[:, :, 0], atol=1e-12
        )

    def test_identity_element(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((5, 4, 6))
        npt.assert_allclose(oracle.t_product(a, oracle.identity_tensor(4, 6)), a, atol=1e-12)
        npt.assert_allclose(oracle.t_product(oracle.identity_tensor(5, 6), a), a, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            oracle.t_product(np.ones((2, 3, 4)), np.ones((2, 3, 4)))
        with pytest.raises(ShapeMismatch):
            oracle.t_product(np.ones((2, 3, 4)), np.ones((3, 2, 5)))

    def test_conj_transpose_involution_and_product_rule(self):
        rng = np.random.default_rng(25)
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((4, 2, 5))
        npt.assert_array_equal(oracle.conj_transpose(oracle.conj_transpose(a)), a)
        lhs = oracle.conj_transpose(oracle.t_product(a, b))
        rhs = oracle.t_product(oracle.conj_transpose(b), oracle.conj_transpose(a))
        npt.assert_allclose(lhs, rhs, atol=1e-10)


class TestTruncatedSvdMatrix:
    def test_diagonal_example(self):
        out = oracle.truncated_svd_matrix(np.diag([5.0, 2.0, 0.5]), 1.0)
        npt.assert_allclose(out, np.diag([4.0, 1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(40)
        m = rng.standard_normal((5, 7))
        assert rel_err(oracle.truncated_svd_matrix(m, 0.0), m) <= 1e-12

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            oracle.truncated_svd_matrix(np.eye(2), -0.1)

    def test_minimizes_quadratic_plus_nuclear(self):
        # prox property: out minimizes coeff*||x - m||_F^2 + ||x||_* with
        # tau = 1/(2*coeff); verified against random unit perturbations
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = rng.standard_normal((4, 5))
            coeff = float(rng.uniform(0.2, 3.0))
            out = oracle.truncated_svd_matrix(m, 1.0 / (2.0 * coeff))

            def objective(x):
                sv = np.linalg.svd(x, compute_uv=False)
                return coeff * np.sum((x - m) ** 2) + sv.sum()

            base = objective(out)
            for _ in range(40):
                d = rng.standard_normal((4, 5))
                d /= np.linalg.norm(d)
                for eps in (1e-3, 1e-2):
                    assert base <= objective(out + eps * d) + 1e-9


class TestTsvd:
    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(50)
        for shape in [(16, 8, 8), (5, 7, 4), (3, 3, 1), (2, 6, 5), (6, 2, 6), (1, 1, 3)]:
            t = rng.standard_normal(shape)
            f = oracle.tsvd(t)
            assert rel_err(f.reconstruct(), t) <= 1e-8
            n1, n2, n3 = shape
            uu = oracle.t_product(oracle.conj_transpose(f.u), f.u)
            vv = oracle.t_product(oracle.conj_transpose(f.v), f.v)
            assert np.abs(uu - oracle.identity_tensor(n1, n3)).max() <= 1e-8
            assert np.abs(vv - oracle.identity_tensor(n2, n3)).max() <= 1e-8

    def test_f_diagonal_nonincreasing(self):
        rng = np.random.default_rng(51)
        t = rng.standard_normal((6, 4, 5))
        f = oracle.tsvd(t)
        spec = np.fft.fft(f.s, axis=2)
        for i in range(5):
            sl = spec[:, :, i]
            diag = np.real(np.diagonal(sl)).copy()
            mask = ~np.eye(6, 4, dtype=bool)
            assert np.abs(sl[mask]).max() <= 1e-10 * max(1.0, diag.max())
            assert np.abs(np.imag(np.diagonal(sl))).max() <= 1e-10 * max(1.0, diag.max())
            assert np.all(np.diff(diag) <= 1e-9 * max(1.0, diag.max()))
            assert np.all(diag >= -1e-10)

    def test_zero_tensor(self):
        f = oracle.tsvd(np.zeros((3, 4, 2)))
        npt.assert_allclose(f.s, 0.0, atol=1e-15)
        npt.assert_allclose(f.reconstruct(), 0.0, atol=1e-12)

    def test_single_slice_matches_matrix_svd(self):
        rng = np.random.default_rng(52)
        m = rng.standard_normal((5, 3))
        f = oracle.tsvd(m[:, :, None])
        sv = np.linalg.svd(m, compute_uv=False)
        npt.assert_allclose(np.diagonal(f.s[:, :, 0]), sv, atol=1e-12)


class TestTruncatedTsvd:
    def test_diagonal_two_slice_example(self):
        t = np.zeros((2, 2, 2))
        t[:, :, 0] = np.diag([2.0, 1.0])
        t[:, :, 1] = np.diag([2.0, 1.0])
        out, _ = tz.truncated_tsvd(t, 1.0)
        expected = np.diag([1.5, 0.5])
        npt.assert_allclose(out[:, :, 0], expected, atol=1e-12)
        npt.assert_allclose(out[:, :, 1], expected, atol=1e-12)

    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(60)
        t = rng.standard_normal((5, 4, 3))
        assert rel_err(tz.truncated_tsvd(t, 0.0)[0], t) <= 1e-12

    def test_huge_threshold_annihilates(self):
        rng = np.random.default_rng(61)
        t = rng.standard_normal((5, 4, 3))
        npt.assert_allclose(tz.truncated_tsvd(t, 1e6)[0], 0.0, atol=1e-9)

    def test_matches_slicewise_oracle(self):
        # independent route: transform, soft-threshold every slice's
        # singular values with plain matrix calls, transform back
        rng = np.random.default_rng(62)
        for _ in range(15):
            shape = tuple(rng.integers(1, 8, size=3))
            t = rng.standard_normal(shape)
            tau = float(rng.uniform(0.0, 2.0))
            spec = naive_dft_mode3(t)
            out = np.empty_like(spec)
            for i in range(shape[2]):
                u, s, vh = np.linalg.svd(spec[:, :, i], full_matrices=False)
                out[:, :, i] = (u * np.maximum(s - tau, 0.0)) @ vh
            n3 = shape[2]
            j, k = np.meshgrid(np.arange(n3), np.arange(n3), indexing="ij")
            finv = np.exp(2j * np.pi * j * k / n3) / n3
            oracle = np.einsum("abk,jk->abj", out, finv).real
            assert rel_err(tz.truncated_tsvd(t, tau)[0], oracle) <= 1e-9

    def test_output_tnn_nonincreasing_in_threshold(self):
        rng = np.random.default_rng(63)
        t = rng.standard_normal((6, 5, 4))
        values = [tz.tnn(tz.truncated_tsvd(t, tau)[0]) for tau in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))

    def test_identical_slices_reduce_to_matrix_shrinkage(self):
        rng = np.random.default_rng(64)
        for k in range(2, 9):
            w = rng.standard_normal((5, 4))
            top = np.linalg.svd(w, compute_uv=False)[0]
            tau = 0.4 * top
            stack = np.repeat(w[:, :, None], k, axis=2)
            out, _ = tz.truncated_tsvd(stack, tau)
            ref = oracle.truncated_svd_matrix(w, tau / k)
            for i in range(k):
                assert np.abs(out[:, :, i] - ref).max() <= 1e-9

    @pytest.mark.parametrize("k", range(1, 9))
    def test_distinct_slices_shrink_their_mean_by_the_matrix_rule(self, k):
        # Fourier slice 0 is the sum of the K slices, so their mean after
        # smoothing is the matrix rule at tau / K on their mean, and it moves
        # by the part of the sum's spectrum that is cut off, divided by K.
        rng = np.random.default_rng(70 + k)
        for shape in ((5, 4), (3, 7), (1, 6), (8, 8)):
            t = rng.standard_normal(shape + (k,))
            s0 = np.linalg.svd(t.sum(axis=2), compute_uv=False)
            for tau in (0.0, 0.5 * float(np.median(s0)), float(s0.max()), 2.0 * float(s0.max())):
                mean = tz.truncated_tsvd(t, tau)[0].mean(axis=2)
                ref = oracle.truncated_svd_matrix(t.mean(axis=2), tau / k)
                assert np.abs(mean - ref).max() <= 1e-12
                shift = np.linalg.norm(t.mean(axis=2) - mean)
                assert abs(shift - np.sqrt(np.sum(np.minimum(s0, tau) ** 2)) / k) <= 1e-12

    @pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 50])
    def test_returned_tnn_is_tnn_of_the_result(self, n3):
        rng = np.random.default_rng(65 + n3)
        t = rng.standard_normal((6, 4, n3))
        sv = tz.fourier_singular_values(t)
        # no shrinkage, a threshold inside the spectrum, one that zeroes it
        for tau in (0.0, float(np.median(sv)), 2.0 * float(sv.max())):
            out, norm = tz.truncated_tsvd(t, tau)
            for want in (tz.tnn(out), oracle.tnn(out)):
                assert abs(norm - want) <= 1e-12 * want
        assert norm == 0.0 and not out.any()

    def test_nonfinite_result_rejected(self):
        # finite input whose singular value overflows float64
        with pytest.raises(NonFinite):
            tz.truncated_tsvd(np.full((4, 4, 1), 1e308), 0.0)

    @pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2)])
    def test_empty_slices_shrink_to_empty(self, shape):
        out, norm = tz.truncated_tsvd(np.zeros(shape), 0.5)
        assert out.shape == shape and norm == 0.0

    def test_nonfinite_result_is_left_in_out(self):
        out = np.zeros((4, 4, 1))
        with pytest.raises(NonFinite):
            tz.truncated_tsvd(np.full((4, 4, 1), 1e308), 0.0, out=out)
        assert not np.all(np.isfinite(out))

    @pytest.mark.parametrize("out", [np.empty((3, 4, 4)), np.empty((3, 4, 5), np.float32),
                                     np.empty((3, 4, 5), complex), np.zeros((3, 4, 5)).tolist()],
                             ids=["shape", "float32", "complex", "list"])
    def test_out_must_be_a_float64_array_of_the_input_shape(self, out):
        t = np.random.default_rng(76).standard_normal((3, 4, 5))
        with pytest.raises(ShapeMismatch):
            tz.truncated_tsvd(t, 0.1, out=out)

    def test_nonfinite_norm_rejected(self):
        # The singular value 4e308 overflows, though no entry of the
        # shrunk slice does.
        with pytest.raises(NonFinite):
            tz.truncated_tsvd(np.full((16, 1, 1), 1e308), 0.0)

    def test_nonfinite_result_rejected_from_pool_threads(self, small_pools):
        # Every Fourier slice of this stack is its first frontal slice, so
        # all 3 distinct slices overflow, on 2 threads; a RuntimeWarning
        # raised in a worker (an error under this suite's filter) means a
        # thread ran without the error state.
        stack = np.zeros((4, 4, 4))
        stack[:, :, 0] = 1e308
        with pytest.raises(NonFinite):
            tz.truncated_tsvd(stack, 0.0, threads=2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_svd_failure_on_one_slice_is_no_convergence(self, monkeypatch, small_pools,
                                                        threads):
        t = np.random.default_rng(66).standard_normal((5, 4, 4))
        bad = np.fft.rfft(t, axis=2)[:, :, 1]
        gram = bad.conj().T @ bad  # the slice is scaled by a power of two first
        real_eigh = np.linalg.eigh

        def flaky(a, *args, **kwargs):
            if np.allclose(a * (np.trace(gram).real / np.trace(a).real), gram, rtol=1e-12):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", flaky)
        with pytest.raises(NoConvergence, match="Fourier slice 1"):
            tz.truncated_tsvd(t, 0.1, threads=threads)


@st.composite
def conditioned_stacks(draw):
    """A stack and a threshold.  Each frontal slice has singular values
    spread evenly over up to 14 decades; the clients may be identical
    (Fourier slices 1 .. n3 - 1 are then zero: exactly for n3 = 2, 3, 4 and
    9, up to rounding for others), and the entries may sit near 1e-200 or
    1e200."""
    kind = draw(st.sampled_from(["tall", "wide", "row", "column"]))
    a, b = sorted(draw(st.lists(st.integers(2, 12), min_size=2, max_size=2)))
    n1, n2 = {"tall": (b, a), "wide": (a, b), "row": (1, b), "column": (b, 1)}[kind]
    n3 = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 50]))
    decades = draw(st.sampled_from([0.0, 2.0, 6.0, 10.0, 14.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = min(n1, n2)
    frontal = []
    for _ in range(1 if draw(st.booleans()) else n3):
        q1 = np.linalg.qr(rng.standard_normal((n1, k)))[0]
        q2 = np.linalg.qr(rng.standard_normal((n2, k)))[0]
        frontal.append((q1 * np.logspace(0.0, -decades, k)) @ q2.T)
    t = np.stack([frontal[i % len(frontal)] for i in range(n3)], axis=2)
    t *= 10.0 ** draw(st.sampled_from([-200, 0, 200]))
    sv = tz.fourier_singular_values(t).ravel()
    where = draw(st.sampled_from(["zero", "quantile", "above"]))
    tau = {"zero": 0.0,
           "quantile": float(np.quantile(sv, draw(st.floats(0.0, 1.0)))),
           "above": 1.5 * float(sv.max())}[where]
    return t, tau


class TestGramRouteMatchesBatchedSvd:
    # Both routes round to a share of the input, since the shrinkage is
    # 1-Lipschitz; so errors are relative to the input's Frobenius norm and
    # tensor nuclear norm.  Relative to the output they would compare
    # rounding noise whenever tau sits at a singular value at the top of
    # the spectrum.
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(conditioned_stacks())
    def test_agrees_with_the_batched_svd_oracle(self, case):
        t, tau = case
        got, norm = tz.truncated_tsvd(t, tau)
        want, want_norm = oracle.truncated_tsvd_batched(t, tau)
        assert input_rel_err(got, want, t) <= 1e-12
        assert abs(norm - want_norm) <= 1e-12 * oracle.tnn(t)

    def test_huge_entries_smooth_like_the_oracle(self):
        # Their Gram matrix would overflow if the slices were not scaled.
        t = np.random.default_rng(74).standard_normal((6, 5, 4)) * 1e200
        tau = float(np.median(tz.fourier_singular_values(t)))
        got, norm = tz.truncated_tsvd(t, tau)
        want, want_norm = oracle.truncated_tsvd_batched(t, tau)
        assert np.all(np.isfinite(got))
        assert rel_err(got / 1e200, want / 1e200) <= 1e-12
        assert abs(norm - want_norm) <= 1e-12 * want_norm

    def test_small_singular_values_near_the_threshold(self):
        # 12 decades in 13 singular values, tau at each of them: the Gram
        # matrix alone resolves the small ones to about eps * s_max**2 / s.
        rng = np.random.default_rng(75)
        q1 = np.linalg.qr(rng.standard_normal((40, 13)))[0]
        q2 = np.linalg.qr(rng.standard_normal((13, 13)))[0]
        t = ((q1 * np.logspace(0.0, -12.0, 13)) @ q2.T)[:, :, None]
        for tau in np.logspace(0.0, -12.0, 13):
            got, norm = tz.truncated_tsvd(t, tau)
            want, want_norm = oracle.truncated_tsvd_batched(t, tau)
            assert input_rel_err(got, want, t) <= 1e-12
            assert abs(norm - want_norm) <= 1e-12 * oracle.tnn(t)


class TestSliceParallel:
    # Bit identity is against the package's own serial result; agreement
    # with the batched-SVD oracle is to the bound of
    # TestRfftMatchesFullSpectrumOracle.
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize("n3", [1, 2, 3, 4, 9, 50])
    def test_matches_batched_oracle_bit_for_bit(self, small_pools, n3, threads):
        rng = np.random.default_rng(100 + n3)
        for shape in ((6, 4, n3), (3, 7, n3)):
            t = rng.standard_normal(shape)
            sv = tz.fourier_singular_values(t)
            for tau in (0.0, float(np.median(sv)), 2.0 * float(sv.max())):
                serial, serial_norm = tz.truncated_tsvd(t, tau, threads=1)
                got, norm = tz.truncated_tsvd(t, tau, threads=threads)
                assert got.shape == serial.shape == t.shape
                assert got.tobytes() == serial.tobytes()
                assert norm == serial_norm
                want, want_norm = oracle.truncated_tsvd_batched(t, tau)
                assert rel_err(got, want) <= 1e-12
                assert abs(norm - want_norm) <= 1e-12 * want_norm

    @pytest.mark.parametrize("shape", [(0, 4, 6), (1, 5, 6), (7, 3, 9), (3, 40, 8),
                                       (2, 64, 5), (9, 9, 1)],
                             ids=["n1=0", "n1=1", "odd-n1", "wide", "wide-n1=2", "n3=1"])
    def test_row_blocks_of_the_transforms_keep_every_bit(self, small_pools, shape):
        # The transforms split the n1 axis into one block per thread:
        # fewer rows than threads, an odd split and wide slices.
        t = np.random.default_rng(72).standard_normal(shape)
        want, want_norm = tz.truncated_tsvd(t, 0.3, threads=1)
        got, norm = tz.truncated_tsvd(t, 0.3, threads=2)
        assert got.shape == shape and got.tobytes() == want.tobytes()
        assert norm == want_norm

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("shape", [(6, 4, 4), (6, 4, 5), (6, 4, 1),
                                       (3, 7, 4), (3, 7, 5), (3, 7, 1)],
                             ids=["tall-even", "tall-odd", "tall-n3=1",
                                  "wide-even", "wide-odd", "wide-n3=1"])
    def test_writing_over_the_input_keeps_every_bit(self, lifted_floors, shape, threads):
        # Every Fourier slice is a multiple of one matrix whose singular
        # values span 6 decades, so a threshold below RESOLVED times each
        # slice's largest takes the re-shrink, which reads the slice again
        # after its result is written.
        n1, n2, n3 = shape
        k = min(n1, n2)
        rng = np.random.default_rng(77 + n3)
        base = ((np.linalg.qr(rng.standard_normal((n1, k)))[0] * np.logspace(0, -6, k))
                @ np.linalg.qr(rng.standard_normal((n2, k)))[0].T)
        t = base[:, :, None] * rng.uniform(0.5, 1.5, n3)
        sv = tz.fourier_singular_values(t)
        for tau in (0.0, 0.5 * tz.RESOLVED * float(sv.max(axis=1).min()), 0.5 * float(sv.max())):
            want, want_norm = tz.truncated_tsvd(t.copy(), tau, threads=threads)
            given = t.copy()
            got, norm = tz.truncated_tsvd(given, tau, threads=threads, out=given)
            assert got is given
            assert got.tobytes() == want.tobytes() and norm == want_norm

    @pytest.mark.parametrize("threads", [1, 2])
    def test_result_keeps_each_client_together(self, small_pools, threads):
        # Client-major: a smoothed stack of uploads unstacks into a
        # C-ordered (K, P) array, whose mean sums in the same order on
        # any thread count.
        t = np.random.default_rng(73).standard_normal((6, 5, 4))
        out, _ = tz.truncated_tsvd(t, 0.3, threads=threads)
        assert np.moveaxis(out, 2, 0).flags.c_contiguous

    def test_more_workers_than_cores_under_fast_switching(self, small_pools):
        # Each worker writes only its own slices of the shared buffers; a
        # lost or misplaced write would break bit identity.
        t = np.random.default_rng(68).standard_normal((40, 30, 50))
        want, want_norm = tz.truncated_tsvd(t, 1.0, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, norm = tz.truncated_tsvd(t, 1.0, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes() and norm == want_norm
        svd, svd_norm = oracle.truncated_tsvd_batched(t, 1.0)
        assert rel_err(got, svd) <= 1e-12 and abs(norm - svd_norm) <= 1e-12 * svd_norm

    def test_pool_is_capped_at_the_slice_count(self, small_pools, pool_sizes):
        rng = np.random.default_rng(67)
        three = rng.standard_normal((3, 2, 5))  # 5 // 2 + 1 = 3 distinct slices
        got, _ = tz.truncated_tsvd(three, 0.1, threads=10**6)
        assert pool_sizes == [3]
        want, _ = tz.truncated_tsvd(three, 0.1, threads=1)
        assert got.tobytes() == want.tobytes()
        assert rel_err(got, oracle.truncated_tsvd_batched(three, 0.1)[0]) <= 1e-12
        # One slice, or one thread, takes no executor at all.
        tz.truncated_tsvd(rng.standard_normal((3, 2, 1)), 0.1, threads=10**6)
        tz.truncated_tsvd(three, 0.1, threads=1)
        assert pool_sizes == [3]

    def test_each_thread_gets_a_minimum_of_work(self, pool_sizes):
        # (64, 64) slices: 64**3 = MIN_WORK_PER_THREAD / 2 units each.
        assert 2 * 64**3 == tz.MIN_WORK_PER_THREAD
        rng = np.random.default_rng(69)
        for n3, pools in [(2, []), (4, []), (6, [2]), (8, [2]), (14, [4])]:
            pool_sizes.clear()
            tz.truncated_tsvd(rng.standard_normal((64, 64, n3)), 1.0, threads=8)
            assert pool_sizes == pools, n3
        # Stacks the size of the benchmark's desk and cli runs stay serial.
        for shape in [(20, 10, 5), (32, 64, 10), (64, 10, 10), (1, 64, 10)]:
            tz.truncated_tsvd(rng.standard_normal(shape), 1.0, threads=8)
        assert pool_sizes == [4]


class TestTnn:
    def test_examples(self):
        assert tz.tnn(np.array([3.0, 3.0]).reshape(1, 1, 2)) == pytest.approx(3.0, abs=1e-12)
        assert tz.tnn(np.zeros((4, 3, 2))) == 0.0

    def test_single_slice_is_nuclear_norm(self):
        rng = np.random.default_rng(70)
        m = rng.standard_normal((5, 6))
        sv = np.linalg.svd(m, compute_uv=False)
        assert tz.tnn(m[:, :, None]) == pytest.approx(sv.sum(), rel=1e-12)

    def test_matches_bcirc_route(self):
        rng = np.random.default_rng(71)
        for n3 in (1, 2, 3):
            t = rng.standard_normal((5, 4, n3))
            via_bcirc = np.linalg.svd(oracle.bcirc(t), compute_uv=False).sum() / n3
            assert tz.tnn(t) == pytest.approx(via_bcirc, rel=1e-10)

    def test_matches_char_poly_roots(self):
        # every Fourier slice's singular values from the cubic, no SVD
        rng = np.random.default_rng(73)
        for n3 in (1, 2, 3, 4, 5):
            t = rng.standard_normal((3, 3, n3))
            spec = naive_dft_mode3(t)
            total = sum(
                np.sqrt(np.maximum(hermitian3_eigvals_cubic(m.conj().T @ m), 0.0)).sum()
                for m in np.moveaxis(spec, 2, 0)
            )
            assert tz.tnn(t) == pytest.approx(total / n3, rel=1e-8)

    def test_triangle_inequality_and_scaling(self):
        rng = np.random.default_rng(72)
        a = rng.standard_normal((4, 5, 3))
        b = rng.standard_normal((4, 5, 3))
        assert tz.tnn(a + b) <= tz.tnn(a) + tz.tnn(b) + 1e-10
        assert tz.tnn(2.5 * a) == pytest.approx(2.5 * tz.tnn(a), rel=1e-10)


class TestRfftMatchesFullSpectrumOracle:
    # n3 = 1, 2, odd and even; n1 < n2 and n1 > n2
    SHAPES = [(4, 7, 1), (7, 4, 1), (3, 5, 2), (5, 3, 2), (4, 6, 5),
              (6, 4, 7), (5, 8, 6), (8, 5, 10), (1, 9, 4), (9, 1, 3)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_truncated_tsvd(self, shape):
        rng = np.random.default_rng(sum(shape))
        t = rng.standard_normal(shape)
        for tau in (0.0, 0.3, 1.5, 1e3):
            want = oracle.truncated_tsvd(t, tau)
            got, _ = tz.truncated_tsvd(t, tau)
            assert got.shape == want.shape
            assert rel_err(got, want) <= 1e-12

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_tnn(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        t = rng.standard_normal(shape)
        want = oracle.tnn(t)
        assert abs(tz.tnn(t) - want) <= 1e-12 * want


class TestProxObjective:
    def test_shrinkage_minimizes(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            target = rng.standard_normal((6, 5, 4))
            coeff = float(rng.uniform(0.2, 3.0))
            w, _ = tz.truncated_tsvd(target, 1.0 / (2.0 * coeff))
            base = oracle.prox_objective(w, target, coeff)
            assert base <= oracle.prox_objective(target, target, coeff) + 1e-9
            assert base <= oracle.prox_objective(np.zeros_like(target), target, coeff) + 1e-9
            for _ in range(20):
                d = rng.standard_normal(target.shape)
                d /= np.linalg.norm(d)
                assert base <= oracle.prox_objective(w + 1e-2 * d, target, coeff) + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            oracle.prox_objective(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), 0.0)
        with pytest.raises(ShapeMismatch):
            oracle.prox_objective(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)), 1.0)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(90)
        tensors = [rng.standard_normal(tuple(rng.integers(1, 7, size=3))) for _ in range(4)]
        path = tmp_path / "stack.t3r"
        tz.save_tensors(path, tensors)
        loaded = tz.load_tensors(path)
        assert len(loaded) == 4
        for got, want in zip(loaded, tensors):
            npt.assert_array_equal(got, want)

    def test_layout_is_slice_major_row_major(self, tmp_path):
        t = np.arange(12.0).reshape(2, 3, 2, order="C")  # t[i,j,k]
        path = tmp_path / "one.t3r"
        tz.save_tensors(path, [t])
        raw = path.read_bytes()
        assert raw[:4] == b"T3R1"
        dims = np.frombuffer(raw[4:16], dtype="<u4")
        npt.assert_array_equal(dims, [2, 3, 2])
        payload = np.frombuffer(raw[16:], dtype="<f8")
        expected = np.concatenate([t[:, :, 0].ravel(), t[:, :, 1].ravel()])
        npt.assert_array_equal(payload, expected)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.t3r"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ParseError):
            tz.load_tensors(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(91)
        path = tmp_path / "cut.t3r"
        tz.save_tensors(path, [rng.standard_normal((3, 3, 3))])
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            tz.load_tensors(path)
