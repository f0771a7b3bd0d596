"""Client-side differential privacy pieces: norm clipping and calibrated
Gaussian noise, each applied in place to every row of a round's (K, P)
array of client deltas, the closed-form privacy budget, and the
deterministic random streams every stochastic step draws from.

Randomness is counter-based: each (seed, round, client, purpose) triple
names its own Philox stream, so a draw never depends on scheduling order,
thread count, or how many draws other components made.  Replaying a round
for one client replays exactly its noise, and the rows of a round's noise
can be drawn on several threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonFinite, ValidationError
from .parallel import row_blocks, thread_map

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
    delta is the failure probability in the (epsilon, delta) guarantee.
    """

    clip_c: float = 1.0
    sigma: float = 1.0
    delta: float = 1e-2

    def __post_init__(self):
        for name in ("clip_c", "sigma"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValidationError(f"must be positive, got {value}", field=f"dp.{name}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"must lie in (0, 1), got {self.delta}", field="dp.delta")


def clip_update(deltas: np.ndarray, clip_c: float) -> None:
    """Scale each row of the (K, P) array ``deltas``, in place, so its l2
    norm is at most ``clip_c``.

    Rows already inside the ball keep every bit (their scale is exactly
    1.0).  A row whose norm is not finite, from a NaN or infinite entry or
    from finite entries whose squared norm overflows, raises
    :class:`NonFinite` rather than being divided down to zeros.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # One norm call per row: norm(axis=1) sums in another order.
        norms = np.array([np.linalg.norm(row) for row in deltas])
    if not np.isfinite(norms).all():
        raise NonFinite("update norm is not finite: local training diverged")
    deltas /= np.maximum(1.0, norms / clip_c)[:, None]


# Noise draws (entries of the (K, P) array) that each thread of a pool
# must get.  On a 2-CPU host, 2 threads were slower than 1 on the 26,880
# draws of a benchmark cli round and took 0.51-0.69 of the time on every
# array of 163,840 draws and more.
MIN_DRAWS_PER_THREAD = 1 << 17


def gaussianize(clipped: np.ndarray, dp: DpConfig, k_selected: int,
                rngs: list[np.random.Generator], *, threads: int = 1) -> None:
    """Add z ~ N(0, sigma^2 c^2 / K) to each row k of the (K, P) array
    ``clipped``, in place, drawn from ``rngs[k]``.

    The 1/K variance split makes the K aggregated uploads carry the same
    total noise a central server would have added once.  The rows are
    split into contiguous blocks on up to ``threads`` threads, never more
    than there are rows or multiples of :data:`MIN_DRAWS_PER_THREAD` in
    the array; a row's noise does not depend on the thread count.
    """
    scale = dp.sigma * dp.clip_c / math.sqrt(k_selected)
    k, p = clipped.shape
    workers = min(threads, k, clipped.size // MIN_DRAWS_PER_THREAD)

    def add_noise(rows: slice) -> None:
        noise = np.empty(p)
        for row, rng in zip(clipped[rows], rngs[rows]):
            rng.standard_normal(out=noise)
            noise *= scale
            row += noise

    with thread_map(workers) as run:
        run(add_noise, row_blocks(k, workers))


class PrivacyBudget(NamedTuple):
    epsilon: float
    lemma_valid: bool
    validity_bound: float


def privacy_budget(dp: DpConfig, n_total: int, k_selected: int, rounds: int) -> PrivacyBudget:
    """Closed-form epsilon after ``rounds`` rounds of subsampled noisy updates.

    This is the moments-accountant lemma (Abadi et al., "Deep Learning with
    Differential Privacy", CCS 2016, Theorem 1) with its two absolute
    constants c1 = c2 = 1: epsilon = p * sqrt(rounds * ln(1/delta)) / sigma
    with sampling ratio p = k_selected / n_total (natural log).  The bound
    is only a guarantee while epsilon < p^2 * rounds; `lemma_valid` reports
    that gate and `validity_bound` the right-hand side; either overflowing
    float64, ``rounds`` included, raises :class:`NonFinite`.
    """
    p = k_selected / n_total
    try:
        rounds = float(rounds)
    except OverflowError:
        rounds = math.inf
    epsilon = p * math.sqrt(rounds * math.log(1.0 / dp.delta)) / dp.sigma
    bound = p * p * rounds
    if not (math.isfinite(epsilon) and math.isfinite(bound)):
        raise NonFinite(f"privacy budget overflows: epsilon {epsilon}, bound {bound}")
    return PrivacyBudget(epsilon=epsilon, lemma_valid=epsilon < bound, validity_bound=bound)
