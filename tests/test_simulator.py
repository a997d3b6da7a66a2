import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from codediv.metrics import pass_at_k
from codediv.rewards import OBJECTIVES
from codediv.simulator import (
    CategoricalPolicy,
    SimulationConfig,
    StepParams,
    TemplateWorld,
    _entropy_gradient,
    _evaluate,
    _policy_gradient,
    default_world,
    family_world,
    initial_policy,
    run,
    sample_group,
    step,
)

from conftest import expected_logit_step


class TestTemplateWorld:
    def test_family_structure(self):
        world = family_world(families=3, per_family=2, correct_families=1)
        assert world.n_templates == 6
        assert world.correct.tolist() == [True, True, False, False, False, False]
        assert world.similarity[0, 1] == 0.9
        assert world.similarity[0, 2] == 0.1
        assert np.allclose(np.diag(world.similarity), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            TemplateWorld(correct=[True, False], similarity=[[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError, match="unit diagonal"):
            TemplateWorld(correct=[True, False], similarity=[[0.5, 0.2], [0.2, 1.0]])
        with pytest.raises(ValueError, match="correct and one incorrect"):
            TemplateWorld(correct=[True, True], similarity=np.eye(2))
        with pytest.raises(ValueError):
            family_world(correct_families=0)

    def test_default_world_nondegenerate(self):
        world = default_world()
        assert world.correct.any() and (~world.correct).any()


@pytest.fixture
def softmax_calls(monkeypatch):
    """The length of each array that numpy exponentiates: one per softmax."""
    calls = []
    exp = np.exp

    def counting(x, *args, **kwargs):
        calls.append(len(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    return calls


class TestCategoricalPolicy:
    @pytest.mark.parametrize("objective", ["base", "combined", "entropy"])
    def test_one_softmax_per_policy(self, softmax_calls, objective):
        world = default_world()
        run(world, objective, steps=7, seed=3)
        assert softmax_calls == [world.n_templates] * 8

    def test_probs_read_only(self):
        policy = CategoricalPolicy(logits=np.array([0.0, 1.0, -2.0]))
        with pytest.raises(ValueError, match="read-only"):
            policy.probs()[0] = 1.0
        assert policy.probs() is policy.probs()

    @pytest.mark.parametrize("logits", [[math.inf, 0.0], [-math.inf, -math.inf], [math.nan, 0.0]])
    def test_non_finite_logits_fail_at_first_use(self, logits):
        world = TemplateWorld(correct=[True, False], similarity=np.eye(2))
        policy = CategoricalPolicy(logits=logits)
        if not math.isnan(logits[0]):
            # inf - inf: numpy's invalid-value warning, an error in this suite.
            with pytest.raises(RuntimeWarning, match="invalid value"):
                policy.probs()
        # Where numpy only warns, the draw refuses the NaN softmax as
        # Generator.choice did.
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^Probabilities contain NaN$"):
            step(policy, world, "base", StepParams(), np.random.default_rng(0))

    def test_probs_normalize(self):
        policy = CategoricalPolicy(logits=np.array([0.0, 1.0, -2.0]))
        p = policy.probs()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p > 0).all()

    def test_temperature_flattens(self):
        logits = np.array([2.0, 0.0])
        hot = CategoricalPolicy(logits=logits, temperature=5.0).probs()
        cold = CategoricalPolicy(logits=logits, temperature=0.5).probs()
        assert hot[0] < cold[0]

    def test_entropy_uniform_max(self):
        uniform = CategoricalPolicy(logits=np.zeros(4))
        world = TemplateWorld(correct=[True, False, False, False], similarity=np.eye(4))
        assert _evaluate(uniform, world, (1,))["entropy"] == pytest.approx(np.log(4.0), abs=1e-12)

    def test_saturated_entropy_is_negative_zero(self):
        # Templates with zero mass are left out of the sum, so a policy on
        # one template has entropy -0.0, which traces write as such.
        world = default_world()
        logits = np.zeros(world.n_templates)
        logits[0] = 1e6
        entropy = _evaluate(CategoricalPolicy(logits=logits), world, (1,))["entropy"]
        assert entropy == 0.0 and math.copysign(1.0, entropy) == -1.0

    def test_initial_policy_prefers_correct(self):
        world = default_world()
        policy = initial_policy(world, correct_bonus=1.0)
        p = policy.probs()
        assert p[world.correct].sum() > 0.5


class TestSampleGroup:
    def test_concentrated_policy_duplicate_group(self):
        world = default_world()
        logits = np.full(world.n_templates, -30.0)
        logits[0] = 30.0
        policy = CategoricalPolicy(logits=logits)
        draws, outcome, matrix = sample_group(policy.probs(), world, 6, np.random.default_rng(0))
        assert set(draws.tolist()) == {0}
        assert outcome.m == 6
        assert np.array_equal(matrix.scores, np.ones((6, 6)))

    def test_two_template_block_structure(self):
        world = TemplateWorld(
            correct=[True, False],
            similarity=np.array([[1.0, 0.3], [0.3, 1.0]]),
        )
        policy = CategoricalPolicy(logits=np.zeros(2))
        draws, _, matrix = sample_group(policy.probs(), world, 50, np.random.default_rng(1))
        for a in range(50):
            for b in range(50):
                expected = 1.0 if draws[a] == draws[b] else 0.3
                assert matrix.scores[a, b] == expected

    def test_seeded_determinism(self):
        world = default_world()
        policy = initial_policy(world)
        d1, o1, m1 = sample_group(policy.probs(), world, 8, np.random.default_rng(7))
        d2, o2, m2 = sample_group(policy.probs(), world, 8, np.random.default_rng(7))
        assert np.array_equal(d1, d2)
        assert np.array_equal(o1.r, o2.r)
        assert m1 == m2

    def test_draws_equal_generator_choice(self, rng):
        # sample_group repeats Generator.choice's inverse-CDF lookup; every
        # trace depends on the two drawing the same templates from the same
        # stream, so a numpy change that breaks this must fail here.
        worlds = {}
        zero_mass = 0
        for trial in range(2000):
            t = int(rng.integers(2, 31))
            if t not in worlds:
                sim = rng.uniform(0.0, 1.0, size=(t, t))
                sim = (sim + sim.T) / 2.0
                np.fill_diagonal(sim, 1.0)
                worlds[t] = TemplateWorld(correct=np.arange(t) % 2 == 0, similarity=sim)
            world = worlds[t]
            logits = rng.uniform(-1.0, 1.0, size=t) * rng.uniform(0.0, 30.0)
            if trial % 4 == 0:
                # Logits this far below the top underflow to exactly 0 mass.
                logits[rng.permutation(t)[: int(rng.integers(1, t))]] = -1000.0
            probs = CategoricalPolicy(logits=logits).probs()
            zero_mass += bool((probs == 0.0).any())
            n = int(rng.integers(1, 21))
            seed = int(rng.integers(2**32))
            ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                draws, outcome, matrix = sample_group(probs, world, n, ours)
                expected = twin.choice(t, size=n, p=probs)
                assert np.array_equal(draws, expected)
                assert np.array_equal(outcome.r, np.where(world.correct[expected], 1.0, -1.0))
                assert np.array_equal(matrix.scores, world.similarity[np.ix_(expected, expected)])
        assert zero_mass >= 400

    def test_policy_gradient_equals_add_at(self, rng):
        def add_at_gradient(probs, draws, advantages, temperature):
            grad = np.zeros_like(probs)
            np.add.at(grad, draws, advantages)
            grad -= float(np.sum(advantages)) * probs
            return grad / temperature

        for _ in range(500):
            t = int(rng.integers(2, 13))
            probs = CategoricalPolicy(logits=rng.normal(0.0, 3.0, size=t)).probs()
            # Many more draws than templates, so most templates repeat.
            draws = rng.integers(0, t, size=int(rng.integers(1, 41)))
            advantages = rng.normal(0.0, 2.0, size=len(draws))
            temperature = float(rng.uniform(0.1, 3.0))
            got = _policy_gradient(probs, draws, advantages, temperature)
            assert got.tobytes() == add_at_gradient(probs, draws, advantages, temperature).tobytes()


class TestStep:
    def test_all_zero_advantages_leave_policy_unchanged(self):
        # A fully correct, fully duplicated group gives centered-base
        # advantages of exactly zero.
        world = TemplateWorld(
            correct=[True, False], similarity=np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        logits = np.array([40.0, -40.0])
        policy = CategoricalPolicy(logits=logits)
        updated = step(policy, world, "base", StepParams(group_size=4, lr=0.5), np.random.default_rng(0))
        assert np.array_equal(updated.logits, logits)

    def test_hand_gradient_single_sample(self):
        # Uniform policy over two templates, one drawn sample with advantage
        # +1 (pkpo at k=1 for a correct draw): drawn logit moves by
        # lr*(1-0.5), the other by -lr*0.5.
        world = TemplateWorld(
            correct=[True, False], similarity=np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        policy = CategoricalPolicy(logits=np.zeros(2))
        lr = 0.3
        rng = np.random.default_rng(3)
        probe = np.random.default_rng(3)
        drawn = int(probe.choice(2, size=1, p=[0.5, 0.5])[0])
        updated = step(policy, world, "pkpo", StepParams(group_size=1, lr=lr, k=1), rng)
        advantage = 1.0 if drawn == 0 else 0.0
        expected = np.zeros(2)
        expected[drawn] += lr * advantage * 0.5
        expected[1 - drawn] -= lr * advantage * 0.5
        assert np.allclose(updated.logits, expected, atol=1e-12)

    def test_gradient_linearity_in_advantages(self):
        probs = CategoricalPolicy(logits=np.array([0.3, -0.2, 0.1])).probs()
        draws = np.array([0, 2, 2, 1])
        a = np.array([0.5, -1.0, 0.25, 2.0])
        g1 = _policy_gradient(probs, draws, a, 1.0)
        g3 = _policy_gradient(probs, draws, 3.0 * a, 1.0)
        assert np.allclose(g3, 3.0 * g1, atol=1e-12)

    def test_entropy_gradient_matches_finite_differences(self):
        logits = np.array([0.4, -0.3, 0.9, 0.0])
        temperature = 1.3
        analytic = _entropy_gradient(
            CategoricalPolicy(logits=logits, temperature=temperature).probs(), temperature
        )
        world = TemplateWorld(correct=[True, False, False, False], similarity=np.eye(4))

        def entropy(z):
            return _evaluate(CategoricalPolicy(logits=z, temperature=temperature), world, (1,))["entropy"]

        eps = 1e-6
        numeric = np.zeros_like(logits)
        for i in range(len(logits)):
            up = logits.copy()
            up[i] += eps
            down = logits.copy()
            down[i] -= eps
            h_up = entropy(up)
            h_down = entropy(down)
            numeric[i] = (h_up - h_down) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            step(
                initial_policy(default_world()),
                default_world(),
                "sgd",
                StepParams(),
                np.random.default_rng(0),
            )


class TestRun:
    def test_trace_length_and_initial_record(self):
        trace = run(default_world(), "base", steps=5, seed=0)
        assert len(trace.records) == 6
        assert trace.records[0]["step"] == 0

    def test_zero_lr_constant_trace(self):
        trace = run(default_world(), "base", steps=4, seed=1, params=StepParams(lr=0.0))
        lines = list(trace.to_jsonl_lines())
        assert all(
            json.loads(line)["jdiv"] == json.loads(lines[0])["jdiv"]
            and json.loads(line)["pass_at"] == json.loads(lines[0])["pass_at"]
            and json.loads(line)["logits"] == json.loads(lines[0])["logits"]
            for line in lines
        )

    @pytest.mark.parametrize(
        "values",
        [{"temperature": 1e-310, "init_correct_bonus": 0}, {"params": StepParams(lr=1e308)}],
        ids=["denormal-temperature", "huge-lr"],
    )
    def test_overflowing_run_refused(self, values):
        # run applies the bound a config does, before numpy can warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="'temperature': init_correct_bonus / temperature = .* overflows"):
                run(default_world(), "base", steps=2, **values)

    def test_deterministic_reruns(self):
        first = run(default_world(), "combined", steps=8, seed=3)
        second = run(default_world(), "combined", steps=8, seed=3)
        assert list(first.to_jsonl_lines()) == list(second.to_jsonl_lines())

    def test_lambda_zero_combined_matches_base(self):
        base = run(default_world(), "base", steps=10, seed=5)
        combined = run(
            default_world(), "combined", steps=10, seed=5, params=StepParams(lambda_div=0.0)
        )
        for rb, rc in zip(base.records, combined.records):
            assert rb["logits"] == rc["logits"]

    def test_policy_stays_normalized(self):
        trace = run(default_world(), "passk_loo", steps=20, seed=2)
        for record in trace.records:
            p = CategoricalPolicy(logits=np.array(record["logits"])).probs()
            assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_pkpo_objective_runs(self):
        trace = run(default_world(), "pkpo", steps=10, seed=0, params=StepParams(k=4))
        assert len(trace.records) == 11

    def test_entropy_objective_raises_entropy_vs_base(self):
        base = run(default_world(), "base", steps=60, seed=4)
        reg = run(
            default_world(), "entropy", steps=60, seed=4, params=StepParams(entropy_beta=2.0)
        )
        assert reg.records[-1]["entropy"] > base.records[-1]["entropy"]

    def test_directional_smoke(self):
        # Three-seed smoke version of the 20-seed acceptance run.
        world = default_world()
        for seed in range(3):
            base = run(world, "base", steps=300, seed=seed)
            combined = run(world, "combined", steps=300, seed=seed)
            diversity = run(world, "diversity_only", steps=300, seed=seed)
            assert base.records[-1]["jdiv"] < base.records[0]["jdiv"]
            assert combined.records[-1]["jdiv"] > base.records[-1]["jdiv"]
            assert diversity.records[-1]["pass_at"][1] < diversity.records[0]["pass_at"][1]


class TestSimulationConfig:
    def test_default_world_and_objectives(self):
        config = SimulationConfig.from_dict(
            {"objectives": ["base", {"name": "combined", "lambda_div": 4.0}], "seeds": [0, 1]}
        )
        assert len(config.objectives) == 2
        assert config.objectives[1][1].lambda_div == 4.0

    def test_explicit_matrix_world(self):
        config = SimulationConfig.from_dict(
            {
                "world": {
                    "correct": [True, False],
                    "similarity": [[1.0, 0.2], [0.2, 1.0]],
                },
                "objectives": ["base"],
            }
        )
        assert config.world.n_templates == 2

    def test_family_world_params(self):
        config = SimulationConfig.from_dict(
            {"world": {"families": 3, "per_family": 2, "correct_families": 1}, "objectives": ["base"]}
        )
        assert config.world.n_templates == 6

    def test_accepts_every_objective(self):
        config = SimulationConfig.from_dict({"objectives": list(OBJECTIVES)})
        assert [name for name, _ in config.objectives] == list(OBJECTIVES)
        for name, params in config.objectives:
            assert len(run(config.world, name, steps=2, params=params).records) == 3

    def test_errors_name_field(self):
        with pytest.raises(ValueError, match="'objectives'"):
            SimulationConfig.from_dict({"objectives": []})
        with pytest.raises(ValueError, match="'objectives'"):
            SimulationConfig.from_dict({"objectives": [{"name": "nope"}]})
        with pytest.raises(ValueError, match="'seeds'"):
            SimulationConfig.from_dict({"objectives": ["base"], "seeds": "0"})
        with pytest.raises(ValueError, match="'steps'"):
            SimulationConfig.from_dict({"objectives": ["base"], "steps": -1})
        with pytest.raises(ValueError, match="'world'"):
            SimulationConfig.from_dict({"objectives": ["base"], "world": {"families": 1, "correct_families": 1}})
        with pytest.raises(ValueError, match="'eval'"):
            SimulationConfig.from_dict({"objectives": ["base"], "eval": {"groups": 10}})
        for removed in ({"groups": 1000}, {"n": 50}, {"groups": 1000, "n": 12, "k_list": [1, 4]}):
            with pytest.raises(ValueError, match="'eval'"):
                SimulationConfig.from_dict({"objectives": ["base"], "eval": removed})
        for k_list in ([0], [1, -2], [1.5], ["2"], [True], 10, "1,10"):
            with pytest.raises(ValueError, match="'eval'"):
                SimulationConfig.from_dict({"objectives": ["base"], "eval": {"k_list": k_list}})

    @pytest.mark.parametrize(
        "raw, field, key",
        [
            ({"objectives": [{"name": "combined", "lamda_div": 0.5}]}, "objectives", "lamda_div"),
            ({"objectives": ["base"], "stpes": 10}, "stpes", "stpes"),
            (
                {"objectives": ["base"], "world": {"correct": [True, False], "similarity": np.eye(2).tolist(), "x": 1}},
                "world",
                "x",
            ),
            ({"objectives": ["base"], "world": {"families": 3, "per_famly": 2}}, "world", "per_famly"),
        ],
        ids=["objective-entry", "top-level", "explicit-world", "family-world"],
    )
    def test_unknown_keys_refused(self, raw, field, key):
        with pytest.raises(ValueError, match=f"field '{field}'") as info:
            SimulationConfig.from_dict(raw)
        assert key in str(info.value)

    def test_every_step_param_read_at_top_level_and_per_objective(self):
        top = {"group_size": 5, "lr": 0.3, "k": 2, "lambda_div": 0.5, "entropy_beta": 0.2}
        per = {"group_size": 6, "lr": 0.1, "k": 3, "lambda_div": 1.5, "entropy_beta": 0.4}
        config = SimulationConfig.from_dict({"objectives": ["pkpo", {"name": "pkpo", **per}], **top})
        assert config.objectives == [("pkpo", StepParams(**top)), ("pkpo", StepParams(**per))]
        assert SimulationConfig.from_dict({"objectives": ["base"]}).objectives == [("base", StepParams())]

    @pytest.mark.parametrize("correct", [["", "x"], [1, 0], [0.0, 1.0], ["no", "yes"], None, "TF"])
    def test_world_correct_must_be_booleans(self, correct):
        world = {"correct": correct, "similarity": np.eye(2).tolist()}
        with pytest.raises(ValueError, match="field 'world': 'correct' must be a list of true/false"):
            SimulationConfig.from_dict({"objectives": ["base"], "world": world})

    @pytest.mark.parametrize(
        "values",
        [
            {"temperature": 1e-310},
            {"init_correct_bonus": 1e308, "temperature": 0.1},
            {"init_correct_bonus": -1e308, "temperature": 0.5},
        ],
    )
    def test_overflowing_initial_softmax_refused(self, values):
        with pytest.raises(ValueError, match="'temperature': init_correct_bonus / temperature = .* overflows"):
            SimulationConfig.from_dict({"objectives": ["base"], **values})

    # Every refusal from_dict makes, with its full text. A dict case runs
    # with "objectives": ["base"] unless it sets its own objectives.
    REFUSALS = {
        "not-an-object": ([{"objectives": ["base"]}], "invalid config: expected an object, got list"),
        "top-level-unknown": ({"stpes": 10}, "invalid config field 'stpes': unknown key"),
        "world-not-object": ({"world": "big"}, "invalid config field 'world': expected 'default' or an object"),
        "explicit-world-unknown": (
            {"world": {"correct": [True, False], "similarity": np.eye(2).tolist(), "x": 1}},
            "invalid config field 'world': unknown keys ['x']",
        ),
        "explicit-world-correct": (
            {"world": {"correct": [1, 0], "similarity": np.eye(2).tolist()}},
            "invalid config field 'world': 'correct' must be a list of true/false values, got [1, 0]",
        ),
        "explicit-world-rows": (
            {"world": {"correct": [True, False], "similarity": "x"}},
            "invalid config field 'world': 'similarity' must be a list of rows of numbers, got 'x'",
        ),
        "explicit-world-value": (
            {"world": {"correct": [True, False], "similarity": [["1", 0.2], [0.2, 1.0]]}},
            "invalid config field 'world.similarity': expected a finite number, got '1'",
        ),
        "explicit-world-asymmetric": (
            {"world": {"correct": [True, False], "similarity": [[1.0, 0.2], [0.3, 1.0]]}},
            "invalid config field 'world': similarity must be symmetric",
        ),
        "explicit-world-shape": (
            {"world": {"correct": [True, False], "similarity": [[1.0]]}},
            "invalid config field 'world': similarity must be (T, T) for T templates",
        ),
        "family-world-integer": (
            {"world": {"families": 2.5, "correct_families": 1}},
            "invalid config field 'families': expected an integer >= 1, got 2.5",
        ),
        "family-world-correct-families": (
            {"world": {"families": 1, "correct_families": 1}},
            "invalid config field 'world': correct_families must leave at least one incorrect family",
        ),
        "family-world-range": (
            {"world": {"within": 1.5}},
            "invalid config field 'world': similarity values must lie in [0, 1]",
        ),
        "family-world-unknown": (
            {"world": {"families": 3, "per_famly": 2}},
            "invalid config field 'world': unknown keys ['per_famly']",
        ),
        "family-world-nan": (
            {"world": {"within": float("nan")}},
            "invalid config field 'within': expected a finite number, got nan",
        ),
        "family-world-bool": (
            {"world": {"families": 3, "correct_families": 1, "within": True}},
            "invalid config field 'within': expected a finite number, got True",
        ),
        "family-world-list": (
            {"world": {"within": [0.9]}},
            "invalid config field 'within': expected a finite number, got [0.9]",
        ),
        "objectives-missing": ({"objectives": None}, "invalid config field 'objectives': expected a non-empty list"),
        "objectives-empty": ({"objectives": []}, "invalid config field 'objectives': expected a non-empty list"),
        "objective-no-name": (
            {"objectives": [{"lr": 0.1}]},
            "invalid config field 'objectives': each entry needs a 'name' in ['base', 'passk_loo', 'pkpo',"
            " 'diversity', 'diversity_only', 'combined', 'entropy'], got {'lr': 0.1}",
        ),
        "objective-unknown": (
            {"objectives": ["nope"]},
            "invalid config field 'objectives': each entry needs a 'name' in ['base', 'passk_loo', 'pkpo',"
            " 'diversity', 'diversity_only', 'combined', 'entropy'], got {'name': 'nope'}",
        ),
        "objective-entry-unknown": (
            {"objectives": [{"name": "combined", "lamda_div": 0.5}]},
            "invalid config field 'objectives': 'combined': unknown keys ['lamda_div']",
        ),
        "lr": ({"lr": "x"}, "invalid config field 'lr': expected a finite number, got 'x'"),
        "lr-per-objective": (
            {"objectives": [{"name": "base", "lr": float("inf")}]},
            "invalid config field 'lr': expected a finite number, got inf",
        ),
        "group-size": ({"group_size": 1}, "invalid config field 'group_size': expected an integer >= 2, got 1"),
        "k": ({"k": 0}, "invalid config field 'k': expected an integer >= 1, got 0"),
        "pkpo-k": (
            {"objectives": [{"name": "pkpo", "k": 20}]},
            "invalid config field 'objectives': 'pkpo': k=20 exceeds the group size n=8",
        ),
        "diversity-group-size": (
            {"objectives": ["diversity"], "group_size": 2},
            "invalid config field 'objectives': 'diversity': diversity LOO undefined for groups smaller than 3",
        ),
        "combined-negative-lambda": (
            {"objectives": ["combined"], "lambda_div": -1.0},
            "invalid config field 'objectives': 'combined': lambda_div must be >= 0",
        ),
        "seeds-not-list": ({"seeds": "0"}, "invalid config field 'seeds': expected a list of integers >= 0, got '0'"),
        "seed": ({"seeds": [0, -1]}, "invalid config field 'seeds': expected an integer >= 0, got -1"),
        "steps": ({"steps": -1}, "invalid config field 'steps': expected an integer >= 0, got -1"),
        "eval-not-object": (
            {"eval": [1]},
            "invalid config field 'eval': expected an object whose only key is 'k_list', got [1]",
        ),
        "eval-unknown": (
            {"eval": {"groups": 10}},
            "invalid config field 'eval': expected an object whose only key is 'k_list', got {'groups': 10}",
        ),
        "eval-k-list": ({"eval": {"k_list": [1, 0]}}, "invalid config field 'eval': expected an integer >= 1, got 0"),
        "eval-k-list-type": (
            {"eval": {"k_list": 10}},
            "invalid config field 'eval': expected a list of integers >= 1, got 10",
        ),
        "bonus": (
            {"init_correct_bonus": "x"},
            "invalid config field 'init_correct_bonus': expected a finite number, got 'x'",
        ),
        "temperature-type": (
            {"temperature": "hot"},
            "invalid config field 'temperature': expected a finite number, got 'hot'",
        ),
        "temperature-zero": ({"temperature": 0}, "invalid config field 'temperature': expected a number > 0, got 0"),
        "initial-softmax": (
            {"init_correct_bonus": 1e308, "temperature": 0.1},
            "invalid config field 'temperature': init_correct_bonus / temperature = 1e+308 / 0.1"
            " with lr 0.15 over 400 steps of 'base' overflows the logits",
        ),
        "denormal-temperature": (
            {"temperature": 1e-310, "init_correct_bonus": 0},
            "invalid config field 'temperature': init_correct_bonus / temperature = 0 / 1e-310"
            " with lr 0.15 over 400 steps of 'base' overflows the logits",
        ),
        "denormal-temperature-zero-lr": (
            {"temperature": 1e-310, "init_correct_bonus": 0, "lr": 0.0},
            "invalid config field 'temperature': init_correct_bonus / temperature = 0 / 1e-310"
            " with lr 0.0 over 400 steps of 'base' overflows the logits",
        ),
        "huge-lr": (
            {"lr": 1e308, "steps": 5},
            "invalid config field 'temperature': init_correct_bonus / temperature = 1.0 / 1.0"
            " with lr 1e+308 over 5 steps of 'base' overflows the logits",
        ),
        "huge-entropy-beta": (
            {"objectives": ["base", "entropy"], "entropy_beta": 1e308},
            "invalid config field 'temperature': init_correct_bonus / temperature = 1.0 / 1.0"
            " with lr 0.15 over 400 steps of 'entropy' overflows the logits",
        ),
        "huge-lambda-div": (
            {"objectives": ["base", "combined"], "lambda_div": 1e308},
            "invalid config field 'temperature': init_correct_bonus / temperature = 1.0 / 1.0"
            " with lr 0.15 over 400 steps of 'combined' overflows the logits",
        ),
        "int-lr-beyond-float-range-in-product": (
            {"lr": 10**308, "steps": 10},
            "invalid config field 'temperature': init_correct_bonus / temperature = 1.0 / 1.0"
            f" with lr {10**308} over 10 steps of 'base' overflows the logits",
        ),
        "steps-beyond-float-range": (
            {"lr": 0.0, "steps": 10**400},
            "invalid config field 'temperature': init_correct_bonus / temperature = 1.0 / 1.0"
            f" with lr 0.0 over {10**400} steps of 'base' overflows the logits",
        ),
    }

    @pytest.mark.parametrize("raw, message", list(REFUSALS.values()), ids=list(REFUSALS))
    def test_refusal_text(self, raw, message):
        if isinstance(raw, dict):
            raw = {"objectives": ["base"], **raw}
        with pytest.raises(ValueError) as info:
            SimulationConfig.from_dict(raw)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "values",
        [
            {"init_correct_bonus": 1e308, "temperature": 1e300},
            {"init_correct_bonus": -1e308, "temperature": 1e308, "objectives": ["entropy"]},
            {"lr": 10**308, "steps": 0},
            {"lr": 10**300, "steps": 3},
        ],
        ids=["bonus-over-large-temperature", "entropy-large-temperature", "huge-lr-no-steps", "int-lr"],
    )
    def test_extreme_configs_inside_the_bound_run(self, values):
        # The overflow bound divides by the temperature before doubling and
        # multiplies in floats, so these finite runs are not refused.
        config = SimulationConfig.from_dict({"objectives": ["base"], "steps": 3, **values})
        (name, params), = config.objectives
        trace = run(
            config.world,
            name,
            steps=config.steps,
            params=params,
            init_correct_bonus=config.init_correct_bonus,
            temperature=config.temperature,
        )
        assert all(math.isfinite(x) for row in trace.records for x in row["logits"])

    def test_k_list(self):
        assert SimulationConfig.from_dict({"objectives": ["base"]}).k_list == (1, 10)
        config = SimulationConfig.from_dict({"objectives": ["base"], "eval": {"k_list": [4, 1]}})
        assert config.k_list == (4, 1)
        trace = run(config.world, "base", steps=1, k_list=config.k_list)
        assert sorted(trace.records[-1]["pass_at"]) == [1, 4]


def _exact_pass_at_k(n, m, k):
    """The unbiased pass@k estimator, 1 - C(n-m, k)/C(n, k), as a fraction."""
    return 1 - Fraction(math.comb(n - m, k), math.comb(n, k))


def _monte_carlo_evaluate(policy, world, group_size, k_list, rng, groups=20_000, n=50):
    """Sampling estimate of what _evaluate computes in closed form.

    Returns {name: (mean, standard error)} for each pass@k (k >= 2), from
    the unbiased estimator on i.i.d. groups of n draws, and for jdiv, the
    mean pairwise dissimilarity of i.i.d. groups of group_size draws.
    """
    probs = policy.probs()
    out = {}
    draws = rng.choice(world.n_templates, size=(groups, n), p=probs)
    m_per_group = world.correct[draws].sum(axis=1)
    for k in k_list:
        if k == 1:
            continue
        table = np.array([pass_at_k(n, m, k) for m in range(n + 1)])
        values = table[m_per_group]
        out[f"pass@{k}"] = (values.mean(), values.std(ddof=1) / math.sqrt(groups))
    jdraws = rng.choice(world.n_templates, size=(groups, group_size), p=probs)
    sims = world.similarity[jdraws[:, :, None], jdraws[:, None, :]]
    iu = np.triu_indices(group_size, k=1)
    values = 1.0 - sims[:, iu[0], iu[1]].mean(axis=1)
    out["jdiv"] = (values.mean(), values.std(ddof=1) / math.sqrt(groups))
    return out


class TestClosedFormEvaluation:
    def test_pass_at_k_expectation_exact(self):
        # E[estimator] over m ~ Binomial(n, q) is 1-(1-q)^k for every n >= k.
        for q in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(5, 6), Fraction(1)):
            for n in range(1, 13):
                for k in range(1, n + 1):
                    expected = sum(
                        math.comb(n, m) * q**m * (1 - q) ** (n - m) * _exact_pass_at_k(n, m, k)
                        for m in range(n + 1)
                    )
                    assert expected == 1 - (1 - q) ** k, (q, n, k)
                    for m in range(n + 1):
                        assert pass_at_k(n, m, k) == pytest.approx(
                            float(_exact_pass_at_k(n, m, k)), abs=1e-12
                        )

    def test_jdiv_expectation_exact(self):
        # Enumerate all T^n groups: E[1 - mean pairwise S] equals 1 - p^T S p.
        p = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        s = [
            [Fraction(1), Fraction(3, 4), Fraction(1, 5)],
            [Fraction(3, 4), Fraction(1), Fraction(0)],
            [Fraction(1, 5), Fraction(0), Fraction(1)],
        ]
        t, n = 3, 3
        pairs = list(itertools.combinations(range(n), 2))
        expected = Fraction(0)
        for group in itertools.product(range(t), repeat=n):
            weight = math.prod(p[g] for g in group)
            mean_sim = sum(s[group[i]][group[j]] for i, j in pairs) / len(pairs)
            expected += weight * (1 - mean_sim)
        closed = 1 - sum(p[a] * s[a][b] * p[b] for a in range(t) for b in range(t))
        assert expected == closed

        world = TemplateWorld(correct=[True, False, True], similarity=np.array(s, dtype=float))
        policy = CategoricalPolicy(logits=np.log(np.array(p, dtype=float)))
        metrics = _evaluate(policy, world, (1, 2))
        assert metrics["jdiv"] == pytest.approx(float(closed), abs=1e-12)
        q = p[0] + p[2]
        assert metrics["pass_at"][1] == pytest.approx(float(q), abs=1e-12)
        assert metrics["pass_at"][2] == pytest.approx(float(1 - (1 - q) ** 2), abs=1e-12)

    def test_pass_at_1_is_correct_mass(self):
        world = default_world()
        policy = CategoricalPolicy(logits=np.linspace(-1.0, 2.0, world.n_templates))
        probs = policy.probs()
        assert _evaluate(policy, world, (1,))["pass_at"][1] == float(probs[world.correct].sum())

    def test_monte_carlo_agrees_within_four_standard_errors(self):
        world = default_world()
        rng = np.random.default_rng(2024)
        k_list = (1, 4, 10)
        group_size = 8
        for _ in range(3):
            policy = CategoricalPolicy(logits=rng.normal(0.0, 1.5, size=world.n_templates))
            exact = _evaluate(policy, world, k_list)
            sampled = _monte_carlo_evaluate(policy, world, group_size, k_list, rng)
            for k in k_list[1:]:
                mean, se = sampled[f"pass@{k}"]
                assert abs(mean - exact["pass_at"][k]) <= 4 * se, (k, mean, se)
            mean, se = sampled["jdiv"]
            assert abs(mean - exact["jdiv"]) <= 4 * se, (mean, se)


class TestExpectedCredit:
    """The mean logit change of sampled updates against its closed form."""

    UPDATES = 3000

    @pytest.mark.parametrize("objective", ["base", "entropy", "diversity", "combined", "passk_loo", "pkpo"])
    def test_mean_update_agrees_within_four_standard_errors(self, objective):
        world = default_world()
        # entropy_beta well above its default, so the entropy term shows above the noise.
        params = StepParams(group_size=8, k=4, lambda_div=2.0, entropy_beta=1.0)
        policy = CategoricalPolicy(logits=np.random.default_rng(7).normal(0.0, 1.0, size=world.n_templates))
        rng = np.random.default_rng(2026)
        # Each update is one independent sample; draws within a group are not.
        deltas = np.array(
            [step(policy, world, objective, params, rng).logits - policy.logits for _ in range(self.UPDATES)]
        )
        exact = expected_logit_step(
            objective,
            policy.probs(),
            world.correct,
            world.similarity,
            params.group_size,
            params.lr,
            k=params.k,
            lambda_div=params.lambda_div,
            entropy_beta=params.entropy_beta,
        )
        se = deltas.std(axis=0, ddof=1) / np.sqrt(self.UPDATES)
        z = (deltas.mean(axis=0) - exact) / se
        assert np.abs(z).max() <= 4.0, np.round(z, 2)


class TestMeanFieldFloor:
    """Without sampling noise, base and combined both settle at the diversity
    of the uniform policy over the correct templates. Sampled base training
    falls below that floor; the diversity credit of combined holds it there."""

    SEEDS = range(8)

    def _floor(self, world):
        uniform_correct = world.correct / world.correct.sum()
        return float(1.0 - uniform_correct @ world.similarity @ uniform_correct)

    @pytest.mark.parametrize("objective", ["base", "combined"])
    def test_expected_updates_settle_at_the_floor(self, objective):
        world = default_world()
        params = StepParams()
        policy = initial_policy(world)
        for _ in range(400):
            delta = expected_logit_step(
                objective,
                policy.probs(),
                world.correct,
                world.similarity,
                params.group_size,
                params.lr,
                lambda_div=params.lambda_div,
            )
            policy = CategoricalPolicy(logits=policy.logits + delta)
        floor = self._floor(world)
        assert floor == pytest.approx(0.6167, abs=1e-4)
        assert _evaluate(policy, world, (1,))["jdiv"] == pytest.approx(floor, abs=0.005)

    def test_sampled_base_collapses_below_the_floor_and_combined_does_not(self):
        world = default_world()
        floor = self._floor(world)
        base = [run(world, "base", seed=seed).records[-1]["jdiv"] for seed in self.SEEDS]
        combined = [run(world, "combined", seed=seed).records[-1]["jdiv"] for seed in self.SEEDS]
        assert max(base) < floor, base
        assert np.mean(base) <= floor - 0.2, base
        assert abs(np.mean(combined) - floor) <= 0.02, combined
