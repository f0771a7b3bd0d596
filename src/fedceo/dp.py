"""Client-side differential privacy pieces: norm clipping, calibrated
Gaussian noise, the closed-form privacy budget, and the deterministic
random streams every stochastic step draws from.

Randomness is counter-based: each (seed, round, client, purpose) triple
names its own Philox stream, so a draw never depends on scheduling order,
thread count, or how many draws other components made.  Replaying a round
for one client replays exactly its noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, InvalidDelta, NonFinite, ValidationError

# Stable codes for the stream purposes; values are part of the on-disk
# reproducibility contract, so append only, never renumber.
_PURPOSES = {
    "select": 0,
    "init": 1,
    "train": 2,
    "noise": 3,
    "data": 4,
    "partition": 5,
    "eval": 6,
    "attack": 7,
}


def rng_stream(seed: int, *, round_no: int = 0, client: int = 0, purpose: str) -> np.random.Generator:
    """Independent Philox generator for one (seed, round, client, purpose).

    Equal arguments always produce the identical draw sequence; distinct
    arguments produce statistically independent streams.
    """
    try:
        code = _PURPOSES[purpose]
    except KeyError:
        raise ValueError(f"unknown stream purpose {purpose!r}") from None
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(round_no, client, code))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class DpConfig:
    """Privacy knobs shared by the clipping and noising steps.

    clip_c bounds the l2 norm of an update; sigma is the noise multiplier;
    delta is the failure probability in the (epsilon, delta) guarantee;
    c1 and c2 are the constants of the budget bound and its validity gate.
    """

    clip_c: float = 1.0
    sigma: float = 1.0
    delta: float = 1e-2
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        for name in ("clip_c", "sigma", "c1", "c2"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValidationError(f"must be positive, got {value}", field=f"dp.{name}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidDelta(f"must lie in (0, 1), got {self.delta}", field="dp.delta")


def clip_update(delta: np.ndarray, clip_c: float) -> np.ndarray:
    """Scale ``delta`` so its l2 norm is at most ``clip_c``.

    Updates already inside the ball are returned unchanged (the scale
    factor is exactly 1.0, so the output is bit-identical).
    """
    arr = np.asarray(delta, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFinite("update contains NaN or infinity: local training diverged")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr.ravel()))
    if not math.isfinite(norm):
        raise NonFinite("update norm overflows: local training diverged")
    return arr / max(1.0, norm / clip_c)


def gaussianize(
    start: np.ndarray,
    clipped: np.ndarray,
    eta: float,
    dp: DpConfig,
    k_selected: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Noisy upload: start + eta * (clipped + z), z ~ N(0, sigma^2 c^2 / K).

    The 1/K variance split makes the K aggregated uploads carry the same
    total noise a central server would have added once.
    """
    a, b = np.asarray(start, dtype=np.float64), np.asarray(clipped, dtype=np.float64)
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    scale = dp.sigma * dp.clip_c / math.sqrt(k_selected)
    noise = rng.standard_normal(a.shape) * scale
    return a + eta * (b + noise)


class PrivacyBudget(NamedTuple):
    epsilon: float
    lemma_valid: bool
    validity_bound: float


def privacy_budget(dp: DpConfig, n_total: int, k_selected: int, rounds: int) -> PrivacyBudget:
    """Closed-form epsilon after ``rounds`` rounds of subsampled noisy updates.

    epsilon = c2 * p * sqrt(rounds * ln(1/delta)) / sigma with sampling
    ratio p = k_selected / n_total (natural log).  The bound is only a
    guarantee while epsilon < c1 * p^2 * rounds; `lemma_valid` reports that
    gate and `validity_bound` the right-hand side; either overflowing
    raises :class:`NonFinite`.
    """
    p = k_selected / n_total
    epsilon = dp.c2 * p * math.sqrt(rounds * math.log(1.0 / dp.delta)) / dp.sigma
    bound = dp.c1 * p * p * rounds
    if not (math.isfinite(epsilon) and math.isfinite(bound)):
        raise NonFinite(f"privacy budget overflows: epsilon {epsilon}, bound {bound}")
    return PrivacyBudget(epsilon=epsilon, lemma_valid=epsilon < bound, validity_bound=bound)
