"""Group rewards and per-sample advantages for the training objectives.

Scale conventions, fixed across the package:

* Verifier outcomes c in {0, 1} map to signed rewards r = 2c - 1 in
  {-1, +1}. Base (correctness) advantages are computed on the signed
  scale and mean-centered by default.
* The group-max leave-one-out advantage (``passk_loo``) is evaluated on
  the signed scale, so a uniquely-correct sample scores raw +2, then the
  group is mean-centered. The affine map changes magnitudes only, never
  orderings.
* Subset-averaged leave-one-out (``pkpo``) is evaluated on the {0, 1}
  scale where a correct sample's advantage has the closed form
  C(n-m, k-1) / C(n-1, k-1): the probability that a k-subset containing
  it contains no other correct sample. Incorrect samples score 0.

The diversity advantage is the leave-one-out change of group diversity:
positive for samples that make the group less redundant, negative for
near-duplicates of other generations.
"""

from dataclasses import dataclass, field
from math import comb, isfinite

import numpy as np

from .similarity import SimMatrix

# Every objective name the CLI and the simulator accept; "diversity_only" is
# an alias of "diversity".
OBJECTIVES = ("base", "passk_loo", "pkpo", "diversity", "diversity_only", "combined", "entropy")
# The objectives whose credit reads the group's similarity matrix.
MATRIX_OBJECTIVES = ("diversity", "diversity_only", "combined")


@dataclass(frozen=True)
class GroupOutcome:
    """Signed rewards for one sampled group."""

    r: np.ndarray  # values in {-1, +1}
    m: int  # number of +1 entries

    @classmethod
    def from_flags(cls, correct_flags) -> "GroupOutcome":
        flags = np.asarray(correct_flags, dtype=bool)
        r = np.where(flags, 1.0, -1.0)
        return cls(r=r, m=int(flags.sum()))

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def correct(self) -> np.ndarray:
        return self.r > 0


@dataclass(frozen=True)
class AdvantageVector:
    objective: str
    a: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.a).all():
            raise ValueError("advantages must be finite")


def base_advantages(outcome: GroupOutcome, centered=True) -> AdvantageVector:
    """Per-sample signed reward with the group mean as baseline."""
    a = outcome.r.astype(np.float64)
    if centered:
        a = a - a.mean()
    return AdvantageVector("base", a, {"centered": centered})


def passk_loo_advantages(outcome: GroupOutcome, centered=True) -> AdvantageVector:
    """Leave-one-out advantage of the group-max reward, over the whole group.

    Raw value: max_j r_j - max_{j != i} r_j on signed rewards, positive
    exactly for a uniquely-correct sample. A single-sample group has no
    leave-one-out contrast and scores 0 by convention.
    """
    r = outcome.r.astype(np.float64)
    n = len(r)
    if n == 1:
        a = np.zeros(1)
    else:
        order = np.sort(r)
        top, second = order[-1], order[-2]
        # max over the others drops to the runner-up only for a unique max
        # holder; all other samples leave the group max untouched.
        unique_top = (r == top) & (np.count_nonzero(r == top) == 1)
        others_max = np.where(unique_top, second, top)
        a = top - others_max
    if centered:
        a = a - a.mean()
    return AdvantageVector("passk_loo", a, {"centered": centered})


def pkpo_advantages(outcome: GroupOutcome, k: int) -> AdvantageVector:
    """Closed-form subset-averaged leave-one-out advantage ({0,1} scale)."""
    n = outcome.n
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the group size n={n}")
    m = outcome.m
    correct_value = comb(n - m, k - 1) / comb(n - 1, k - 1)
    a = np.where(outcome.correct, correct_value, 0.0)
    return AdvantageVector("pkpo", a, {"k": k})


def diversity_advantages(matrix: SimMatrix) -> AdvantageVector:
    """Leave-one-out change of group diversity (one minus mean similarity).

    A_i = JDiv(Y) - JDiv(Y without i); needs n >= 3 so the reduced group
    still has a pair.
    """
    scores = matrix.scores
    n = matrix.n
    if n < 3:
        raise ValueError("diversity LOO undefined for groups smaller than 3")
    row = scores.sum(axis=1) - np.diag(scores)  # similarity mass of each sample
    total = row.sum() / 2.0
    jdiv_full = 1.0 - 2.0 * total / (n * (n - 1))
    jdiv_without = 1.0 - 2.0 * (total - row) / ((n - 1) * (n - 2))
    return AdvantageVector("diversity", jdiv_full - jdiv_without)


def combined_advantages(outcome: GroupOutcome, matrix: SimMatrix, lambda_div: float) -> AdvantageVector:
    """Correctness advantages plus lambda_div times the diversity advantages."""
    if not isfinite(lambda_div):
        raise ValueError(f"lambda_div must be finite, got {lambda_div}")
    if lambda_div < 0:
        raise ValueError("lambda_div must be >= 0")
    base = base_advantages(outcome).a
    div = diversity_advantages(matrix).a
    return AdvantageVector("combined", base + lambda_div * div, {"lambda_div": lambda_div})


def advantages(objective, outcome=None, matrix=None, k=None, lambda_div=None) -> AdvantageVector:
    """Dispatch to the estimator for ``objective``.

    ``diversity_only`` is accepted as an alias for ``diversity``. The
    ``entropy`` objective carries the same group advantages as ``base``;
    its entropy bonus is an analytic policy-level term applied by the
    simulator, not a per-sample group credit.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    name = "diversity" if objective == "diversity_only" else objective
    if name == "base":
        return base_advantages(outcome)
    if name == "passk_loo":
        return passk_loo_advantages(outcome)
    if name == "pkpo":
        return pkpo_advantages(outcome, k if k is not None else outcome.n)
    if name == "diversity":
        return diversity_advantages(matrix)
    if name == "combined":
        return combined_advantages(outcome, matrix, 1.0 if lambda_div is None else lambda_div)
    vec = base_advantages(outcome)
    return AdvantageVector("entropy", vec.a, dict(vec.params))
