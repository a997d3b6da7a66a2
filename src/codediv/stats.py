"""Paired significance testing and aggregate change reporting.

Comparisons are prompt-aligned: two models evaluated on the same prompt set
yield paired per-prompt metric values. The bootstrap test resamples prompts
with replacement and reports the one-sided p-value for "B better than A"
(fraction of resampled mean differences <= 0). Change reports count strict
per-prompt improvements and regressions; ties belong to neither side.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_RESAMPLES = 10_000
MIN_RESAMPLES = 1_000
_RESAMPLE_CHUNK = 1_000


@dataclass(frozen=True)
class PairedSeries:
    """Prompt-aligned metric values for two systems."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError("paired series must be 1-D and of equal length")

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class ChangeReport:
    up_pct: float
    down_pct: float
    mean_delta: float
    n: int


def paired_bootstrap(a, b, resamples=DEFAULT_RESAMPLES, seed=0) -> float:
    """One-sided bootstrap p-value for mean(b - a) > 0.

    Deterministic for a fixed seed: resample indices are drawn in fixed-size
    chunks from one generator, so the p-value never depends on scheduling.
    """
    series = PairedSeries(a, b)
    if series.n < 2:
        raise ValueError("paired bootstrap needs at least 2 paired values")
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}")
    diffs = series.b - series.a
    rng = np.random.default_rng(seed)
    at_or_below_zero = 0
    remaining = resamples
    while remaining > 0:
        chunk = min(_RESAMPLE_CHUNK, remaining)
        idx = rng.integers(0, series.n, size=(chunk, series.n))
        means = diffs[idx].mean(axis=1)
        at_or_below_zero += int((means <= 0.0).sum())
        remaining -= chunk
    return at_or_below_zero / resamples


def aggregate_changes(a, b) -> ChangeReport:
    """Fractions of strict per-prompt improvements/regressions and mean delta."""
    series = PairedSeries(a, b)
    if series.n == 0:
        raise ValueError("aggregate_changes needs at least one pair")
    delta = series.b - series.a
    up = int((delta > 0).sum())
    down = int((delta < 0).sum())
    return ChangeReport(
        up_pct=100.0 * up / series.n,
        down_pct=100.0 * down / series.n,
        mean_delta=float(delta.mean()),
        n=series.n,
    )


def pearson(x, y) -> float:
    """Sample Pearson correlation; undefined under zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson needs two equal-length series with n >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float((dx * dx).sum())
    vy = float((dy * dy).sum())
    if vx == 0.0 or vy == 0.0:
        raise ValueError("pearson undefined for a zero-variance series")
    return float((dx * dy).sum() / np.sqrt(vx * vy))


def seed_summary(values):
    """(mean, sample std) across independent runs; std absent for one run."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("seed_summary needs at least one value")
    mean = float(values.mean())
    if values.size < 2:
        return mean, None
    return mean, float(values.std(ddof=1))
