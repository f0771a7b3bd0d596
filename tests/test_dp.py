"""Clipping, noise calibration, budget arithmetic, and stream determinism."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from fedceo.dp import DpConfig, PrivacyBudget, clip_update, gaussianize, privacy_budget, rng_stream
from fedceo.config import RunConfig
from fedceo.errors import DimMismatch, InvalidDelta, NonFinite, ValidationError


class TestClipUpdate:
    def test_inside_ball_bit_identical(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(40)
        v *= 0.5 / np.linalg.norm(v)
        npt.assert_array_equal(clip_update(v, 1.0), v)

    def test_outside_ball_lands_on_sphere(self):
        v = np.full(16, 10.0)
        out = clip_update(v, 2.0)
        assert np.linalg.norm(out) == pytest.approx(2.0, rel=1e-12)
        # direction preserved
        cos = out @ v / (np.linalg.norm(out) * np.linalg.norm(v))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector(self):
        npt.assert_array_equal(clip_update(np.zeros(5), 1.0), np.zeros(5))

    def test_norm_bound_property(self):
        rng = np.random.default_rng(2)
        clip_c = 0.7
        for _ in range(200):
            v = rng.standard_normal(rng.integers(1, 50)) * rng.uniform(0.01, 100)
            out = clip_update(v, clip_c)
            assert np.linalg.norm(out) <= clip_c * (1 + 1e-12)
            assert np.linalg.norm(out) <= np.linalg.norm(v) * (1 + 1e-12)

    def test_validation(self):
        with pytest.raises(NonFinite):
            clip_update(np.array([1.0, np.nan]), 1.0)
        # The clip bound's rule lives in DpConfig; clip_update takes its value.
        with pytest.raises(ValidationError) as err:
            DpConfig(clip_c=0.0)
        assert err.value.field == "dp.clip_c"

    def test_finite_update_with_overflowing_norm_rejected(self):
        # Every entry is finite but the squared norm is not: dividing by
        # an infinite norm would silently upload zeros.
        with pytest.raises(NonFinite, match="diverged"):
            clip_update(np.full(4, 1e200), 1.0)


class TestGaussianize:
    def test_vanishing_sigma_recovers_sgd_step(self):
        rng = np.random.default_rng(3)
        start, delta = rng.standard_normal(30), rng.standard_normal(30)
        dp = DpConfig(clip_c=1.0, sigma=1e-300)
        out = gaussianize(start, delta, 0.1, dp, 4, rng_stream(0, purpose="noise"))
        npt.assert_allclose(out, start + 0.1 * delta, atol=1e-12)

    def test_deterministic_replay(self):
        rng = np.random.default_rng(4)
        start, delta = rng.standard_normal(30), rng.standard_normal(30)
        dp = DpConfig(sigma=2.0)
        a = gaussianize(start, delta, 0.1, dp, 4, rng_stream(7, round_no=3, client=2, purpose="noise"))
        b = gaussianize(start, delta, 0.1, dp, 4, rng_stream(7, round_no=3, client=2, purpose="noise"))
        npt.assert_array_equal(a, b)
        c = gaussianize(start, delta, 0.1, dp, 4, rng_stream(7, round_no=3, client=1, purpose="noise"))
        assert not np.array_equal(a, c)

    def test_noise_scale(self):
        # empirical std must match sigma * clip_c / sqrt(k)
        dp = DpConfig(clip_c=1.0, sigma=2.0)
        n = 100_000
        out = gaussianize(
            np.zeros(n), np.zeros(n), 1.0, dp, 4, rng_stream(11, purpose="noise")
        )
        assert np.std(out) == pytest.approx(1.0, rel=0.02)
        assert abs(np.mean(out)) < 0.02

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            gaussianize(np.zeros(3), np.zeros(4), 0.1, DpConfig(), 2, rng_stream(0, purpose="noise"))


class TestPrivacyBudget:
    def test_frozen_reference_value(self):
        dp = DpConfig(sigma=2.0, delta=1e-2, c1=1.0, c2=1.0)
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
        # at sigma=2 the epsilon (1.073) exceeds the gate c1*p^2*T = 1.0
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
            with pytest.raises(InvalidDelta):
                DpConfig(delta=bad)

    @pytest.mark.parametrize("dp,rounds", [(DpConfig(sigma=1e-320), 10),
                                           (DpConfig(c1=1e308), 10**9)],
                             ids=["epsilon", "validity-bound"])
    def test_overflow_raises_non_finite(self, dp, rounds):
        # Both values are written to the run manifest, where JSON has no inf.
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
        with pytest.raises(InvalidDelta) as err:
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
