"""Synthetic policy-gradient simulator for group-sampling objectives.

A prompt is modeled as a finite set of implementation templates with fixed
correctness and a fixed template-to-template similarity matrix. The policy
is its logits, one per template: a categorical distribution over templates,
the softmax of ``logits / temperature``, which ``run`` computes once per
step for both the next update and the trace row. Each training step
samples a group of templates, scores it with the rewards module, and
returns the exact score-function gradient step of the categorical
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

import inspect
import math
import sys
from dataclasses import MISSING, dataclass, field, fields

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
    similarity off the world.

    The draws are ``rng.choice(T, size=n, p=probs)``'s own inverse-CDF
    lookup, so they consume the same random numbers and give the same
    templates. Of ``choice``'s checks on ``p`` only the one a softmax can
    fail is kept: a NaN, a +inf or all -inf logits make it NaN."""
    cdf = probs.cumsum()
    if math.isnan(cdf[-1]):
        raise ValueError("Probabilities contain NaN")
    cdf /= cdf[-1]
    draws = cdf.searchsorted(rng.random(n), side="right")
    outcome = rewards.GroupOutcome.from_flags(world.correct[draws])
    matrix = SimMatrix(world.similarity[draws[:, None], draws])
    return draws, outcome, matrix


def _entropy_gradient(probs: np.ndarray, temperature: float) -> np.ndarray:
    log_p = np.log(np.clip(probs, 1e-300, None))
    entropy = float(-(probs * log_p).sum())
    return -probs * (log_p + entropy) / temperature


def _policy_gradient(probs: np.ndarray, draws, advantages, temperature: float) -> np.ndarray:
    """sum_i A_i * grad_theta log pi(t_i) for a categorical softmax policy.

    The per-draw score function is (onehot(t_i) - pi)/temperature, so the
    result is linear in the advantages."""
    grad = np.bincount(draws, weights=advantages, minlength=len(probs))
    grad -= float(advantages.sum()) * probs
    return grad / temperature


def _group_advantages(objective: str, params: StepParams, outcome, matrix):
    return rewards.advantages(
        objective,
        outcome=outcome,
        matrix=matrix,
        k=params.k,
        lambda_div=params.lambda_div,
    )


def _softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    """The policy's probabilities: the softmax of ``logits / temperature``.
    numpy warns here of a non-finite logit."""
    z = logits / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def step(
    probs: np.ndarray, world: TemplateWorld, objective: str, params: StepParams, rng, temperature: float
) -> np.ndarray:
    """One policy-gradient update from one sampled group. The policy is its
    logits, and ``probs`` is their softmax at ``temperature``.

    Returns the change to the logits, lr * sum_i A_i * grad log pi(t_i).
    The entropy objective adds beta times the analytic entropy gradient to
    the same update.
    """
    draws, outcome, matrix = sample_group(probs, world, params.group_size, rng)
    vec = _group_advantages(objective, params, outcome, matrix)
    grad = _policy_gradient(probs, draws, vec.a, temperature)
    if objective == "entropy":
        grad += params.entropy_beta * _entropy_gradient(probs, temperature)
    return params.lr * grad


def _evaluate(probs: np.ndarray, world: TemplateWorld, k_list) -> dict:
    """Exact expected pass@k, group diversity and entropy of the policy."""
    q = float(probs[world.correct].sum())
    nz = probs[probs > 0]
    # Expected pairwise similarity of two i.i.d. draws is pᵀSp, whatever
    # the group size, so it is also the expected mean over a group's pairs.
    return {
        "pass_at": {k: q if k == 1 else 1.0 - (1.0 - q) ** k for k in sorted(k_list)},
        "jdiv": float(1.0 - probs @ world.similarity @ probs),
        "entropy": float(-(nz * np.log(nz)).sum()),
    }


def _fail(name, why):
    raise ValueError(f"invalid config field {name!r}: {why}")


def _check_reach(world, objective, params, steps, init_correct_bonus, temperature):
    """Refuse a run unless, by a sufficient bound, no logit nor any value on
    the way to it can overflow. A sample's credit is at most 2(1+|λ|) and T
    times an entropy-gradient term at most 1 + ln M for M templates, so a
    step moves a logit by at most |lr|·G/T, G = n·2(1+|λ|) + |β|·(1 + ln M),
    and the softmax subtracts two logits over T. Python floats do not warn."""
    t, bonus, p = temperature, init_correct_bonus, params
    lam = abs(p.lambda_div) if objective == "combined" else 0.0
    spread = 1.0 + math.log(world.n_templates) if objective == "entropy" else 0.0
    gain = (p.group_size * 2.0 * (1.0 + lam) + abs(p.entropy_beta) * spread) / t
    span = float(steps) if steps <= sys.float_info.max else math.inf
    reach = 2.0 * ((abs(bonus) + span * abs(p.lr) * gain) / t)
    if not all(map(math.isfinite, (gain, spread / t, reach))):
        why = f"{bonus!r} / {t!r} with lr {p.lr!r} over {steps} steps of {objective!r} overflows the logits"
        _fail("temperature", f"init_correct_bonus / temperature = {why}")


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
) -> list:
    """Train one policy; return its trace, the rows that the module
    docstring describes at step 0 and after every update. Deterministic
    for a fixed seed: every objective sees identical training draws under
    the same seed.
    """
    if objective not in rewards.OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    params = params or StepParams()
    if params.group_size < 2:
        raise ValueError("run needs group_size >= 2 to trace group diversity")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    train_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    _check_reach(world, objective, params, steps, init_correct_bonus, temperature)
    # Pretrained-model stand-in: correct templates start with a logit bonus,
    # so the policy already prefers (but is not locked to) correct code.
    logits = np.where(world.correct, init_correct_bonus, 0.0)
    trace = []
    for t in range(steps + 1):
        if t > 0:
            logits = logits + step(probs, world, objective, params, train_rng, temperature)
        probs = _softmax(logits, temperature)
        trace.append({"step": t, **_evaluate(probs, world, k_list), "logits": logits.tolist()})
    return trace


def _check(name, value, kind, floor=None):
    """Return config field ``name``'s value, or refuse it. An ``int`` takes
    an integer >= ``floor`` (1 if unset), a ``list`` a list of them, and a
    ``float`` a finite number, above ``floor`` if one is set."""
    if kind is list:
        if not isinstance(value, list):
            _fail(name, f"expected a list of integers >= {floor}, got {value!r}")
        return [_check(name, v, int, floor) for v in value]
    if kind is not float:  # int, or int | None
        floor = 1 if floor is None else floor
        if isinstance(value, bool) or not isinstance(value, int) or value < floor:
            _fail(name, f"expected an integer >= {floor}, got {value!r}")
    # abs(value) <= max is False for NaN, inf and ints beyond the float range alike.
    elif isinstance(value, bool) or not (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max):
        _fail(name, f"expected a finite number, got {value!r}")
    elif floor is not None and value <= floor:
        _fail(name, f"expected a number > {floor}, got {value!r}")
    return value


def _read(raw: dict, source) -> dict:
    """Pop and check from ``raw`` each key that ``source`` declares: a
    dataclass its fields with a default, floored by their ``minimum``, and
    a function its keywords, typed by their defaults. A missing key takes
    its default, and a None default also admits None."""
    if isinstance(source, type):
        keys = [(f.name, f.type, f.metadata.get("minimum"), f.default) for f in fields(source)]
    else:
        keys = [(p.name, type(p.default), None, p.default) for p in inspect.signature(source).parameters.values()]
    values = {}
    for name, kind, floor, default in keys:
        if default is not MISSING:
            value = raw.pop(name, default)
            values[name] = value if value is None and default is None else _check(name, value, kind, floor)
    return values


def _read_world(raw) -> TemplateWorld:
    if raw == "default":
        return default_world()
    if not isinstance(raw, dict):
        _fail("world", "expected 'default' or an object")
    raw = dict(raw)
    if "similarity" not in raw:
        make, values = family_world, _read(raw, family_world)
    else:
        correct, similarity = raw.pop("correct", None), raw.pop("similarity")
        if not isinstance(correct, list) or not all(isinstance(c, bool) for c in correct):
            _fail("world", f"'correct' must be a list of true/false values, got {correct!r}")
        if not isinstance(similarity, list) or not all(isinstance(row, list) for row in similarity):
            _fail("world", f"'similarity' must be a list of rows of numbers, got {similarity!r}")
        similarity = [[_check("world.similarity", value, float) for value in row] for row in similarity]
        make, values = TemplateWorld, {"correct": correct, "similarity": similarity}
    if raw:
        _fail("world", f"unknown keys {sorted(raw)}")
    try:
        return make(**values)
    except ValueError as err:
        _fail("world", err)


@dataclass
class SimulationConfig:
    """Declarative multi-run simulation: a world, objectives, seeds. A
    config sets each field with a default by its name at the top level."""

    world: TemplateWorld
    objectives: list  # of (name, StepParams)
    seeds: list
    k_list: tuple
    steps: int = field(default=DEFAULT_STEPS, metadata={"minimum": 0})
    init_correct_bonus: float = 1.0
    temperature: float = field(default=1.0, metadata={"minimum": 0})

    @classmethod
    def from_dict(cls, raw: dict) -> "SimulationConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"invalid config: expected an object, got {type(raw).__name__}")
        # Each key is popped as it is read, so what is left is unknown.
        raw = dict(raw)
        world = _read_world(raw.pop("world", "default"))
        top = _read(raw, cls)
        # A step parameter set at the top level is each objective's default.
        step_defaults = {f.name: raw.pop(f.name) for f in fields(StepParams) if f.name in raw}
        raw_objectives = raw.pop("objectives", None)
        if not isinstance(raw_objectives, list) or not raw_objectives:
            _fail("objectives", "expected a non-empty list")
        objectives = []
        for entry in raw_objectives:
            entry = {"name": entry} if isinstance(entry, str) else entry
            if not isinstance(entry, dict) or entry.get("name") not in rewards.OBJECTIVES:
                _fail("objectives", f"each entry needs a 'name' in {list(rewards.OBJECTIVES)}, got {entry!r}")
            entry = {**step_defaults, **entry}
            name = entry.pop("name")
            params = StepParams(**_read(entry, StepParams))
            if entry:
                _fail("objectives", f"{name!r}: unknown keys {sorted(entry)}")
            # Score one group now: what rewards refuses (pkpo's k > n, diversity on n < 3) fails here.
            try:
                eye = np.eye(params.group_size)
            except (MemoryError, ValueError):  # ValueError: a size beyond numpy's array limits
                n = params.group_size
                _fail("group_size", f"too large to allocate a {n} x {n} similarity matrix")
            try:
                _group_advantages(name, params, rewards.GroupOutcome.from_flags(eye[0]), SimMatrix(eye))
            except ValueError as err:
                _fail("objectives", f"{name!r}: {err}")
            objectives.append((name, params))
        seeds = _check("seeds", raw.pop("seeds", [0]), list, 0)
        eval_raw = raw.pop("eval", {})
        if not isinstance(eval_raw, dict) or set(eval_raw) - {"k_list"}:
            _fail("eval", f"expected an object whose only key is 'k_list', got {eval_raw!r}")
        k_list = _check("eval", eval_raw.get("k_list", list(DEFAULT_K_LIST)), list, 1)
        if max(k_list, default=0) > sys.float_info.max:
            _fail("eval", f"k {max(k_list)} is beyond the float range that pass@k = 1-(1-q)^k needs")
        if raw:
            _fail(min(raw), "unknown key")
        return cls(world, objectives, seeds, tuple(k_list), **top)

    def __post_init__(self):
        for name, params in self.objectives:
            _check_reach(self.world, name, params, self.steps, self.init_correct_bonus, self.temperature)
