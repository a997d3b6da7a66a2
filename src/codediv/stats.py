"""Paired significance testing and aggregate change reporting.

Comparisons are prompt-aligned: two models evaluated on the same prompt set
yield paired per-prompt metric values. The bootstrap test resamples prompts
with replacement and reports the one-sided p-value for "B better than A"
(fraction of resampled mean differences <= 0). Change reports count strict
per-prompt improvements and regressions; ties belong to neither side.
"""

import numpy as np

DEFAULT_RESAMPLES = 10_000
MIN_RESAMPLES = 1_000
_RESAMPLE_CHUNK = 1_000


def _paired_diffs(a, b) -> np.ndarray:
    """Per-prompt differences b - a of two prompt-aligned series."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired series must be 1-D and of equal length")
    return b - a


def paired_bootstrap(a, b, resamples=DEFAULT_RESAMPLES, seed=0) -> float:
    """One-sided bootstrap p-value for mean(b - a) > 0.

    Deterministic for a fixed seed: resample indices are drawn in fixed-size
    chunks from one generator, so the p-value never depends on scheduling.
    """
    diffs = _paired_diffs(a, b)
    n = len(diffs)
    if n < 2:
        raise ValueError("paired bootstrap needs at least 2 paired values")
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}")
    rng = np.random.default_rng(seed)
    at_or_below_zero = 0
    remaining = resamples
    while remaining > 0:
        chunk = min(_RESAMPLE_CHUNK, remaining)
        idx = rng.integers(0, n, size=(chunk, n))
        means = diffs[idx].mean(axis=1)
        at_or_below_zero += int((means <= 0.0).sum())
        remaining -= chunk
    return at_or_below_zero / resamples


def aggregate_changes(a, b) -> dict:
    """Percentages of strict per-prompt improvements and regressions and the
    mean delta, keyed ``up_pct``, ``down_pct``, ``mean_delta`` and ``n``."""
    delta = _paired_diffs(a, b)
    n = len(delta)
    if n == 0:
        raise ValueError("aggregate_changes needs at least one pair")
    up = int((delta > 0).sum())
    down = int((delta < 0).sum())
    return {
        "up_pct": 100.0 * up / n,
        "down_pct": 100.0 * down / n,
        "mean_delta": float(delta.mean()),
        "n": n,
    }

