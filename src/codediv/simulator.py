"""Synthetic policy-gradient simulator for group-sampling objectives.

A prompt is modeled as a finite set of implementation templates with fixed
correctness and a fixed template-to-template similarity matrix; the policy
is a categorical distribution over templates (softmax of logits). Each
training step samples a group of templates, scores it with the rewards
module, and applies the exact score-function gradient of the categorical
log-likelihood. That strips away everything about real RLVR except credit
assignment, which is the mechanism under study: correctness-only credit
concentrates the policy on one template family and drains group diversity,
a combined correctness+diversity objective keeps several correct families
alive, and diversity alone walks away from correctness.

A trace has one row per step, a dict with keys ``step``, ``pass_at``
(k -> value), ``jdiv``, ``entropy`` and ``logits``. The metrics are exact
expectations under the policy ``p``: with ``q`` its mass on correct
templates, pass@k is ``1-(1-q)^k`` (the expected value of the unbiased
pass@k estimator over i.i.d. draws), ``jdiv``, the expected group
diversity, is ``1 - pᵀSp`` for the template similarity matrix ``S``, and
``entropy`` and ``logits`` are the policy's.
"""

import json
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import rewards
from .similarity import SimMatrix

DEFAULT_STEPS = 400
DEFAULT_K_LIST = (1, 10)


@dataclass(frozen=True)
class TemplateWorld:
    """Fixed implementation templates standing in for a prompt's solutions."""

    correct: np.ndarray  # (T,) bool
    similarity: np.ndarray  # (T, T) in [0, 1], symmetric, unit diagonal

    def __post_init__(self):
        correct = np.asarray(self.correct, dtype=bool)
        sim = np.asarray(self.similarity, dtype=np.float64)
        object.__setattr__(self, "correct", correct)
        object.__setattr__(self, "similarity", sim)
        t = len(correct)
        if sim.shape != (t, t):
            raise ValueError("similarity must be (T, T) for T templates")
        if not np.allclose(sim, sim.T):
            raise ValueError("similarity must be symmetric")
        if not np.allclose(np.diag(sim), 1.0):
            raise ValueError("similarity must have a unit diagonal")
        if sim.min() < 0.0 or sim.max() > 1.0:
            raise ValueError("similarity values must lie in [0, 1]")
        if correct.all() or not correct.any():
            raise ValueError("world needs at least one correct and one incorrect template")

    @property
    def n_templates(self) -> int:
        return len(self.correct)


def family_world(families=6, per_family=2, correct_families=3, within=0.9, cross=0.1) -> TemplateWorld:
    """Templates partitioned into families: near-duplicates within a family,
    mostly dissimilar across families, correctness assigned per family."""
    if not 0 < correct_families < families:
        raise ValueError("correct_families must leave at least one incorrect family")
    t = families * per_family
    family = np.repeat(np.arange(families), per_family)
    sim = np.where(family[:, None] == family[None, :], within, cross)
    np.fill_diagonal(sim, 1.0)
    correct = family < correct_families
    return TemplateWorld(correct=correct, similarity=sim)


def default_world() -> TemplateWorld:
    return family_world()


@dataclass(frozen=True)
class CategoricalPolicy:
    logits: np.ndarray
    temperature: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "logits", np.asarray(self.logits, dtype=np.float64))
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    def probs(self) -> np.ndarray:
        z = self.logits / self.temperature
        z = z - z.max()
        e = np.exp(z)
        return e / e.sum()


def initial_policy(world: TemplateWorld, correct_bonus=1.0, temperature=1.0) -> CategoricalPolicy:
    """Pretrained-model stand-in: correct templates start with a logit bonus,
    so the initial policy already prefers (but is not locked to) correct code."""
    logits = np.where(world.correct, correct_bonus, 0.0)
    return CategoricalPolicy(logits=logits, temperature=temperature)


@dataclass(frozen=True)
class StepParams:
    """The settings of one training step. A config sets each field by its
    name, at the top level or per objective; an integer field's
    ``minimum`` is the least value a config may give. Defaults validated
    against the directional acceptance run (20 seeds): see
    tests/test_acceptance.py."""

    group_size: int = field(default=8, metadata={"minimum": 2})
    lr: float = 0.15
    k: int | None = None  # pkpo subset size; defaults to the group size
    lambda_div: float = 2.0
    entropy_beta: float = 0.05

    def __post_init__(self):
        # Diversity-based objectives need group_size >= 3; that constraint
        # lives in the rewards module and propagates from there.
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")


def sample_group(probs: np.ndarray, world: TemplateWorld, n: int, rng):
    """Draw n i.i.d. templates from ``probs``; read correctness and
    similarity off the world."""
    draws = rng.choice(world.n_templates, size=n, p=probs)
    outcome = rewards.GroupOutcome.from_flags(world.correct[draws])
    matrix = SimMatrix(world.similarity[np.ix_(draws, draws)])
    return draws, outcome, matrix


def _entropy_gradient(probs: np.ndarray, temperature: float) -> np.ndarray:
    log_p = np.log(np.clip(probs, 1e-300, None))
    entropy = float(-(probs * log_p).sum())
    return -probs * (log_p + entropy) / temperature


def _policy_gradient(probs: np.ndarray, draws, advantages, temperature: float) -> np.ndarray:
    """sum_i A_i * grad_theta log pi(t_i) for a categorical softmax policy.

    The per-draw score function is (onehot(t_i) - pi)/temperature, so the
    result is linear in the advantages."""
    grad = np.zeros_like(probs)
    np.add.at(grad, draws, advantages)
    grad -= float(np.sum(advantages)) * probs
    return grad / temperature


def _group_advantages(objective: str, params: StepParams, outcome, matrix):
    return rewards.advantages(
        objective,
        outcome=outcome,
        matrix=matrix,
        k=params.k if params.k is not None else params.group_size,
        lambda_div=params.lambda_div,
    )


def step(policy: CategoricalPolicy, world: TemplateWorld, objective: str, params: StepParams, rng) -> CategoricalPolicy:
    """One policy-gradient update from one sampled group.

    theta <- theta + lr * sum_i A_i * grad log pi(t_i). The entropy
    objective adds beta times the analytic entropy gradient to the same
    update.
    """
    probs = policy.probs()
    draws, outcome, matrix = sample_group(probs, world, params.group_size, rng)
    vec = _group_advantages(objective, params, outcome, matrix)
    grad = _policy_gradient(probs, draws, vec.a, policy.temperature)
    if objective == "entropy":
        grad += params.entropy_beta * _entropy_gradient(probs, policy.temperature)
    return CategoricalPolicy(logits=policy.logits + params.lr * grad, temperature=policy.temperature)


@dataclass
class TrainingTrace:
    objective: str
    seed: int
    records: list = field(default_factory=list)  # one dict per traced step

    def to_jsonl_lines(self):
        # String keys, so that pass@k keys sort as text, as JSON reads them.
        for r in self.records:
            yield json.dumps({**r, "pass_at": {str(k): v for k, v in r["pass_at"].items()}}, sort_keys=True)


def _evaluate(policy: CategoricalPolicy, world: TemplateWorld, k_list) -> dict:
    """Exact expected pass@k, group diversity and entropy of the policy."""
    probs = policy.probs()
    q = float(probs[world.correct].sum())
    nz = probs[probs > 0]
    # Expected pairwise similarity of two i.i.d. draws is pᵀSp, whatever
    # the group size, so it is also the expected mean over a group's pairs.
    return {
        "pass_at": {k: q if k == 1 else 1.0 - (1.0 - q) ** k for k in sorted(k_list)},
        "jdiv": float(1.0 - probs @ world.similarity @ probs),
        "entropy": float(-(nz * np.log(nz)).sum()),
    }


def run(
    world: TemplateWorld,
    objective: str,
    *,
    steps: int = DEFAULT_STEPS,
    seed: int = 0,
    params: StepParams | None = None,
    init_correct_bonus: float = 1.0,
    temperature: float = 1.0,
    k_list: tuple = DEFAULT_K_LIST,
) -> TrainingTrace:
    """Train one policy and trace metrics at step 0 and after every update.

    Each record is a dict with keys ``step``, ``pass_at`` (k -> value),
    ``jdiv``, ``entropy`` and ``logits`` (a list of floats). Deterministic
    for a fixed seed: every objective sees identical training draws under
    the same seed.
    """
    if objective not in rewards.OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    params = params or StepParams()
    if params.group_size < 2:
        raise ValueError("run needs group_size >= 2 to trace group diversity")
    train_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    policy = initial_policy(world, correct_bonus=init_correct_bonus, temperature=temperature)
    trace = TrainingTrace(objective=objective, seed=seed)
    for t in range(steps + 1):
        if t > 0:
            policy = step(policy, world, objective, params, train_rng)
        trace.records.append({"step": t, **_evaluate(policy, world, k_list), "logits": policy.logits.tolist()})
    return trace


@dataclass
class SimulationConfig:
    """Declarative multi-run simulation: a world, objectives, seeds."""

    world: TemplateWorld
    objectives: list  # of (name, StepParams)
    seeds: list
    steps: int
    init_correct_bonus: float
    temperature: float
    k_list: tuple

    @classmethod
    def from_dict(cls, raw: dict) -> "SimulationConfig":
        def fail(name, why):
            raise ValueError(f"invalid config field {name!r}: {why}")

        def number(name, value, positive=False):
            # False for NaN, inf and ints beyond the float range alike.
            finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
            if isinstance(value, bool) or not finite:
                fail(name, f"expected a finite number, got {value!r}")
            if positive and value <= 0:
                fail(name, f"expected a number > 0, got {value!r}")
            return value

        def integer(name, value, minimum):
            if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
                fail(name, f"expected an integer >= {minimum}, got {value!r}")
            return value

        if not isinstance(raw, dict):
            raise ValueError(f"invalid config: expected an object, got {type(raw).__name__}")
        # Each key is popped as it is read, so what is left is unknown.
        raw = dict(raw)
        world_raw = raw.pop("world", "default")
        if world_raw == "default":
            world = default_world()
        elif isinstance(world_raw, dict) and "similarity" in world_raw:
            world_raw = dict(world_raw)
            correct = world_raw.pop("correct", None)
            similarity = world_raw.pop("similarity")
            if world_raw:
                fail("world", f"unknown keys {sorted(world_raw)}")
            if not isinstance(correct, list) or not all(isinstance(c, bool) for c in correct):
                fail("world", f"'correct' must be a list of true/false values, got {correct!r}")
            if not isinstance(similarity, list) or not all(isinstance(row, list) for row in similarity):
                fail("world", f"'similarity' must be a list of rows of numbers, got {similarity!r}")
            for row in similarity:
                for value in row:
                    number("world.similarity", value)
            try:
                world = TemplateWorld(correct=correct, similarity=similarity)
            except (TypeError, ValueError) as err:
                fail("world", err)
        elif isinstance(world_raw, dict):
            for key in ("families", "per_family", "correct_families"):
                if key in world_raw:
                    integer(key, world_raw[key], 1)
            try:
                world = family_world(**world_raw)
            except (TypeError, ValueError) as err:
                fail("world", err)
        else:
            fail("world", "expected 'default' or an object")

        objectives = []
        raw_objectives = raw.pop("objectives", None)
        if not isinstance(raw_objectives, list) or not raw_objectives:
            fail("objectives", "expected a non-empty list")
        step_fields = fields(StepParams)
        base_params = {f.name: raw.pop(f.name, f.default) for f in step_fields}
        for entry in raw_objectives:
            if isinstance(entry, str):
                entry = {"name": entry}
            if not isinstance(entry, dict) or "name" not in entry:
                fail("objectives", "each entry needs a 'name'")
            entry = dict(entry)
            name = entry.pop("name")
            if name not in rewards.OBJECTIVES:
                fail("objectives", f"unknown objective {name!r}")
            merged = {key: entry.pop(key, value) for key, value in base_params.items()}
            if entry:
                fail("objectives", f"{name!r}: unknown keys {sorted(entry)}")
            for f in step_fields:
                value = merged[f.name]
                if f.type is float:
                    number(f.name, value)
                elif value is not None or f.default is not None:
                    integer(f.name, value, f.metadata.get("minimum", 1))
            params = StepParams(**merged)
            # Score one group of this size now, so that what the rewards
            # module refuses (pkpo's k above the group size, a diversity
            # term on fewer than 3 samples, a negative lambda_div) fails
            # here, before any trace is written.
            n = params.group_size
            try:
                _group_advantages(
                    name, params, rewards.GroupOutcome.from_flags(np.arange(n) == 0), SimMatrix(np.eye(n))
                )
            except ValueError as err:
                fail("objectives", f"{name!r}: {err}")
            objectives.append((name, params))

        seeds = raw.pop("seeds", [0])
        if not isinstance(seeds, list):
            fail("seeds", "expected a list of integers")
        for seed in seeds:
            integer("seeds", seed, 0)
        steps = integer("steps", raw.pop("steps", DEFAULT_STEPS), 0)

        eval_raw = raw.pop("eval", {})
        if not isinstance(eval_raw, dict):
            fail("eval", "expected an object")
        unknown = sorted(set(eval_raw) - {"k_list"})
        if unknown:
            fail("eval", f"unknown keys {unknown}; only 'k_list' is accepted")
        k_list = eval_raw.get("k_list", DEFAULT_K_LIST)
        if not isinstance(k_list, (list, tuple)) or not all(
            isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in k_list
        ):
            fail("eval", "'k_list' must be a list of integers >= 1")

        bonus = number("init_correct_bonus", raw.pop("init_correct_bonus", 1.0))
        temperature = number("temperature", raw.pop("temperature", 1.0), positive=True)
        # The initial softmax scales the correct templates' logit by 1/temperature.
        if abs(bonus / temperature) > sys.float_info.max:
            fail("temperature", f"init_correct_bonus / temperature = {bonus!r} / {temperature!r} overflows")
        if raw:
            fail(min(raw), "unknown key")
        return cls(
            world=world,
            objectives=objectives,
            seeds=seeds,
            steps=steps,
            init_correct_bonus=bonus,
            temperature=temperature,
            k_list=tuple(k_list),
        )
