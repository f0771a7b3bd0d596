"""Clipping, noise calibration, budget arithmetic, and stream determinism."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import dp_oracle
from fedceo.dp import DpConfig, PrivacyBudget, clip_update, gaussianize, privacy_budget, rng_stream
from fedceo.config import RunConfig
from fedceo.errors import NonFinite, ValidationError


def noise_streams(seed, clients, round_no=0):
    return [rng_stream(seed, round_no=round_no, client=c, purpose="noise") for c in clients]


class TestClipUpdate:
    def test_inside_ball_bit_identical(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((3, 40))
        v *= 0.5 / np.linalg.norm(v, axis=1, keepdims=True)
        out = v.copy()
        clip_update(out, 1.0)
        npt.assert_array_equal(out, v)

    def test_outside_ball_lands_on_sphere(self):
        v = np.array([np.full(16, 10.0), np.full(16, 0.1)])
        out = v.copy()
        clip_update(out, 2.0)
        assert np.linalg.norm(out[0]) == pytest.approx(2.0, rel=1e-12)
        # direction preserved; the row inside the ball is untouched
        cos = out[0] @ v[0] / (np.linalg.norm(out[0]) * np.linalg.norm(v[0]))
        assert cos == pytest.approx(1.0, abs=1e-12)
        npt.assert_array_equal(out[1], v[1])

    def test_zero_vector(self):
        out = np.zeros((2, 5))
        clip_update(out, 1.0)
        npt.assert_array_equal(out, np.zeros((2, 5)))

    def test_norm_bound_property(self):
        rng = np.random.default_rng(2)
        clip_c = 0.7
        for _ in range(200):
            v = rng.standard_normal(rng.integers(1, 50)) * rng.uniform(0.01, 100)
            out = v[None].copy()
            clip_update(out, clip_c)
            assert np.linalg.norm(out) <= clip_c * (1 + 1e-12)
            assert np.linalg.norm(out) <= np.linalg.norm(v) * (1 + 1e-12)

    def test_validation(self):
        with pytest.raises(NonFinite):
            clip_update(np.array([[1.0, 2.0], [1.0, np.nan], [0.5, 0.5]]), 1.0)
        # The clip bound's rule lives in DpConfig; clip_update takes its value.
        with pytest.raises(ValidationError) as err:
            DpConfig(clip_c=0.0)
        assert err.value.field == "dp.clip_c"

    def test_finite_update_with_overflowing_norm_rejected(self):
        # Every entry is finite but the squared norm is not: dividing by
        # an infinite norm would silently upload zeros.
        rows = np.ones((3, 4))
        rows[1] = 1e200
        with pytest.raises(NonFinite, match="diverged"):
            clip_update(rows, 1.0)


class TestGaussianize:
    def test_vanishing_sigma_recovers_sgd_step(self):
        rng = np.random.default_rng(3)
        start, delta = rng.standard_normal((4, 30)), rng.standard_normal((4, 30))
        dp = DpConfig(clip_c=1.0, sigma=1e-300)
        out = delta.copy()
        gaussianize(out, dp, 4, noise_streams(0, range(4)))
        npt.assert_allclose(start + 0.1 * out, start + 0.1 * delta, atol=1e-12)

    def test_deterministic_replay(self):
        rng = np.random.default_rng(4)
        delta = np.tile(rng.standard_normal(30), (2, 1))
        dp = DpConfig(sigma=2.0)
        a, b, c = delta.copy(), delta.copy(), delta.copy()
        gaussianize(a, dp, 4, noise_streams(7, (2, 1), round_no=3))
        gaussianize(b, dp, 4, noise_streams(7, (2, 1), round_no=3))
        npt.assert_array_equal(a, b)
        gaussianize(c, dp, 4, noise_streams(7, (1, 2), round_no=3))
        assert not np.array_equal(a, c)
        # row k draws from rngs[k]: swapping the streams swaps the rows
        npt.assert_array_equal(a[::-1], c)

    def test_noise_scale(self):
        # empirical std must match sigma * clip_c / sqrt(k)
        dp = DpConfig(clip_c=1.0, sigma=2.0)
        n = 100_000
        out = np.zeros((1, n))
        gaussianize(out, dp, 4, [rng_stream(11, purpose="noise")])
        assert np.std(out) == pytest.approx(1.0, rel=0.02)
        assert abs(np.mean(out)) < 0.02


class TestMatchesPerClientOracle:
    """Whole-array clip and noise, then ``start + lr * update``, against
    the per-client loop they replaced: equal bit for bit."""

    @staticmethod
    def whole_array(deltas, starts, lr, dp, rngs):
        uploads = deltas.copy()
        clip_update(uploads, dp.clip_c)
        gaussianize(uploads, dp, len(uploads), rngs)
        uploads *= lr
        uploads += starts
        return uploads

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_bit_identical(self, k):
        rng = np.random.default_rng(k)
        for trial in range(20):
            p = int(rng.integers(1, 300))
            deltas = rng.standard_normal((k, p)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
            starts = rng.standard_normal((k, p))
            clip_c = float(rng.uniform(0.1, 10))
            if trial % 2:
                deltas[trial % k] = 0.0
            if k > 1:
                # one row exactly on the sphere: its norm is the clip bound
                clip_c = float(np.linalg.norm(deltas[(trial + 1) % k]))
            dp = DpConfig(clip_c=clip_c, sigma=float(rng.uniform(0.1, 4)))
            lr = float(rng.uniform(0.01, 1))
            got = self.whole_array(deltas, starts, lr, dp, noise_streams(trial, range(k)))
            want = dp_oracle.privatize_rows(deltas, starts, lr, dp, k,
                                            noise_streams(trial, range(k)))
            npt.assert_array_equal(got, want)


class TestPrivacyBudget:
    def test_frozen_reference_value(self):
        dp = DpConfig(sigma=2.0, delta=1e-2)
        got = privacy_budget(dp, n_total=100, k_selected=10, rounds=100)
        assert got.epsilon == pytest.approx(0.1 * math.sqrt(100 * math.log(100)) / 2.0, abs=1e-12)
        assert got.epsilon == pytest.approx(1.0729830131445025, abs=1e-5)

    def test_monotonicity(self):
        def eps(sigma=2.0, rounds=100, k=10, delta=1e-2):
            return privacy_budget(
                DpConfig(sigma=sigma, delta=delta), 100, k, rounds
            ).epsilon

        assert eps(sigma=0.5) > eps(sigma=1.0) > eps(sigma=2.0) > eps(sigma=4.0)
        assert eps(rounds=25) < eps(rounds=100) < eps(rounds=400)
        assert eps(k=5) < eps(k=10) < eps(k=20)
        assert eps(delta=1e-1) < eps(delta=1e-2) < eps(delta=1e-5)

    def test_validity_gate(self):
        # at sigma=2 the epsilon (1.073) exceeds the gate p^2*T = 1.0
        tight = privacy_budget(DpConfig(sigma=2.0, delta=1e-2), 100, 10, 100)
        assert isinstance(tight, PrivacyBudget)
        assert tight.validity_bound == pytest.approx(0.01 * 100)
        assert not tight.lemma_valid
        # doubling sigma halves epsilon and the gate holds
        loose = privacy_budget(DpConfig(sigma=4.0, delta=1e-2), 100, 10, 100)
        assert loose.epsilon == pytest.approx(tight.epsilon / 2.0, rel=1e-12)
        assert loose.lemma_valid

    def test_invalid_delta(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError) as err:
                DpConfig(delta=bad)
            assert str(err.value) == f"dp.delta: must lie in (0, 1), got {bad}"

    @pytest.mark.parametrize("dp,rounds", [(DpConfig(sigma=1e-320), 10),
                                           (DpConfig(), 10**400)],
                             ids=["epsilon", "validity-bound"])
    def test_overflow_raises_non_finite(self, dp, rounds):
        # Both values are written to the run manifest, where JSON has no inf;
        # a round count beyond float64 overflows the bound as well as epsilon.
        with pytest.raises(NonFinite, match="privacy budget overflows"):
            privacy_budget(dp, n_total=10, k_selected=10, rounds=rounds)

    def test_argument_validation(self):
        # The budget's argument rules live in RunConfig and DpConfig.
        for kwargs, field in [(dict(n_total=10, k_selected=11), "k_selected"),
                              (dict(n_total=10, k_selected=0), "k_selected"),
                              (dict(rounds=0), "rounds")]:
            with pytest.raises(ValidationError) as err:
                RunConfig(**kwargs)
            assert err.value.field == field
        with pytest.raises(ValidationError) as err:
            DpConfig(delta=1.0)
        assert err.value.field == "dp.delta"


class TestRngStream:
    def test_replay_bit_identical(self):
        a = rng_stream(42, round_no=5, client=3, purpose="train").standard_normal(100)
        b = rng_stream(42, round_no=5, client=3, purpose="train").standard_normal(100)
        npt.assert_array_equal(a, b)

    def test_distinct_coordinates_distinct_streams(self):
        base = rng_stream(42, round_no=5, client=3, purpose="train").standard_normal(64)
        for kwargs in (
            dict(round_no=6, client=3, purpose="train"),
            dict(round_no=5, client=4, purpose="train"),
            dict(round_no=5, client=3, purpose="noise"),
        ):
            other = rng_stream(42, **kwargs).standard_normal(64)
            assert not np.array_equal(base, other)

    def test_cross_stream_correlation_small(self):
        n = 100_000
        a = rng_stream(0, round_no=1, client=0, purpose="noise").standard_normal(n)
        b = rng_stream(0, round_no=2, client=0, purpose="noise").standard_normal(n)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) <= 0.02

    def test_unknown_purpose(self):
        with pytest.raises(ValueError):
            rng_stream(0, purpose="nope")

    def test_negative_seed(self):
        with pytest.raises(ValueError):
            rng_stream(-1, purpose="noise")
