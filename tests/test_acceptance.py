"""Acceptance suite: one test per release criterion.

Each criterion prints a single ``ACCEPTANCE <nn> <name>: PASS/FAIL`` line
(run with ``pytest tests/test_acceptance.py -s`` to watch them stream).
Expected values come from independent oracles in the test suite: subset
enumeration for pass@k and the subset-averaged leave-one-out advantages,
a direct extension-scan matcher for greedy string tiling, and hand
entropy/diversity arithmetic for the fixtures.
"""

import contextlib
import itertools
import json
import math
import os
import time

import numpy as np

from codediv.cli import main
from codediv.metrics import pass_at_k, vendi_score
from codediv.rewards import (
    GroupOutcome,
    diversity_advantages,
    passk_loo_advantages,
    pkpo_advantages,
)
from codediv.similarity import (
    SimMatrix,
    avg_similarity,
    clusters,
    effective_clusters,
    gst_match,
    jdiv,
    pairwise_matrix,
)
from codediv.simulator import StepParams, default_world, run
from codediv.tokenizer import tokenize

from conftest import RENAMED_PAIR, VARIANT_PAIR, brute_force_tiles, pkpo_bruteforce_oracle


@contextlib.contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.perf_counter() - start:.1f}s)")


def test_01_pass_at_k_oracle_equivalence():
    with criterion(1, "pass@k oracle equivalence"):
        start = time.perf_counter()
        for n in range(1, 13):
            for m in range(0, n + 1):
                for k in range(1, n + 1):
                    hits = 0
                    total = 0
                    for subset in itertools.combinations(range(n), k):
                        total += 1
                        hits += any(i < m for i in subset)
                    expected = hits / total
                    value = pass_at_k(n, m, k)
                    assert abs(value - expected) <= 1e-12, (n, m, k)
                    if n - m < k:
                        assert value == 1.0, (n, m, k)
        assert time.perf_counter() - start < 10.0


def test_02_pkpo_oracle_equivalence():
    with criterion(2, "PKPO oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        for n in range(1, 11):
            for m in range(0, n + 1):
                canonical = [i < m for i in range(n)]
                shuffled = list(canonical)
                rng.shuffle(shuffled)
                for flags in (canonical, shuffled):
                    outcome = GroupOutcome.from_flags(flags)
                    for k in range(1, n + 1):
                        closed = pkpo_advantages(outcome, k).a
                        brute = pkpo_bruteforce_oracle(outcome, k)
                        assert np.array_equal(closed, brute), (flags, k)
        assert time.perf_counter() - start < 30.0


def test_03_passk_loo_pivotality():
    with criterion(3, "pass@k-LOO pivotality"):
        for n in range(2, 11):
            for bits in itertools.product([0, 1], repeat=n):
                outcome = GroupOutcome.from_flags([b == 1 for b in bits])
                raw = passk_loo_advantages(outcome, centered=False).a
                unique = sum(bits) == 1
                for i, bit in enumerate(bits):
                    if bit and unique:
                        assert raw[i] > 0.0
                        assert raw[i] == 2.0  # signed scale
                    else:
                        assert raw[i] == 0.0
                centered = passk_loo_advantages(outcome).a
                assert abs(centered.sum()) <= 1e-9
        # Single-sample groups have no leave-one-out contrast: 0 by convention.
        assert passk_loo_advantages(GroupOutcome.from_flags([True])).a.tolist() == [0.0]


def test_04_rename_invariance_pairs():
    with criterion(4, "rename invariance of the fixture pairs"):
        streams = [tokenize(s) for s in RENAMED_PAIR]
        match = gst_match(streams[0], streams[1], min_match=5)
        score = avg_similarity(match, len(streams[0]), len(streams[1]))
        assert score == 1.0
        variant_streams = [tokenize(s) for s in VARIANT_PAIR]
        variant_score = avg_similarity(
            gst_match(variant_streams[0], variant_streams[1], min_match=5),
            len(variant_streams[0]),
            len(variant_streams[1]),
        )
        assert variant_score < score


def test_05_jdiv_cluster_algebra():
    with criterion(5, "JDiv and cluster algebra"):
        n = 6
        duplicates = SimMatrix(np.ones((n, n)))
        assert jdiv(duplicates) == 0.0
        assert effective_clusters(clusters(duplicates, tau=0.7)) == 1.0
        dissimilar = SimMatrix(np.eye(n))
        assert jdiv(dissimilar) == 1.0
        assert abs(effective_clusters(clusters(dissimilar, tau=0.7)) - n) <= 1e-9

        hand = SimMatrix(np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]]))
        assert abs(jdiv(hand) - (1.0 - (0.5 + 0.5 + 1.0) / 3.0)) <= 1e-9

        # Threshold graph with components {0,1}, {2}, {3}: sizes 2,1,1.
        scores = np.eye(4)
        scores[0, 1] = scores[1, 0] = 0.9
        ids = clusters(SimMatrix(scores), tau=0.7)
        assert ids == (0, 0, 1, 2)
        expected = math.exp(
            -(0.5 * math.log(0.5) + 0.25 * math.log(0.25) + 0.25 * math.log(0.25))
        )
        assert abs(effective_clusters(ids) - expected) <= 1e-9


def _random_group_matrix(rng):
    kind = rng.integers(0, 2)
    if kind == 0:
        n = int(rng.integers(3, 10))
        scores = rng.uniform(0.0, 0.99, size=(n, n))
        scores = (scores + scores.T) / 2
    else:
        families = int(rng.integers(2, 4))
        per = int(rng.integers(1, 4))
        n = families * per
        member = np.repeat(np.arange(families), per)
        within = rng.uniform(0.7, 0.95)
        cross = rng.uniform(0.0, 0.3)
        scores = np.where(member[:, None] == member[None, :], within, cross)
    np.fill_diagonal(scores, 1.0)
    return scores


def test_06_diversity_loo_sign_law():
    with criterion(6, "diversity-LOO duplicate sign law"):
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            scores = _random_group_matrix(rng)
            n = scores.shape[0]
            # Duplicate an at-least-averagely-similar sample; duplicating a
            # far outlier can legitimately raise diversity (see ledger).
            j = int(np.argmax(scores.sum(axis=1)))
            grown = np.ones((n + 1, n + 1))
            grown[:n, :n] = scores
            grown[n, :n] = scores[j, :]
            grown[:n, n] = scores[:, j]
            grown[n, j] = grown[j, n] = 1.0
            vec = diversity_advantages(SimMatrix(grown)).a
            assert vec[j] < 0.0
            assert vec[n] < 0.0


def test_07_vendi_limits():
    with criterion(7, "Vendi limits and rotation invariance"):
        assert abs(vendi_score(np.tile([2.0, -1.0, 0.5], (8, 1))) - 1.0) <= 1e-9
        for n in (2, 5, 30):
            assert abs(vendi_score(np.eye(n)) - n) <= 1e-9
        rng = np.random.default_rng(99)
        for n in (3, 17, 50):
            vectors = rng.normal(size=(n, n))
            base = vendi_score(vectors)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            assert abs(vendi_score(vectors @ q) - base) <= 1e-8


def test_08_simulator_directionality():
    with criterion(8, "simulator training-dynamics directionality"):
        start = time.perf_counter()
        world = default_world()
        seeds = range(20)
        params = StepParams()  # validated defaults, lambda_div included
        base, combined, diversity = {}, {}, {}
        for seed in seeds:
            base[seed] = run(world, "base", seed=seed, params=params)
            combined[seed] = run(world, "combined", seed=seed, params=params)
            diversity[seed] = run(world, "diversity_only", seed=seed, params=params)

        a_hits = sum(base[s].records[-1]["jdiv"] < base[s].records[0]["jdiv"] for s in seeds)
        b_hits = sum(
            combined[s].records[-1]["jdiv"] > base[s].records[-1]["jdiv"]
            and combined[s].records[-1]["pass_at"][1] >= 0.9 * base[s].records[-1]["pass_at"][1]
            for s in seeds
        )
        c_hits = sum(
            diversity[s].records[-1]["pass_at"][1] < diversity[s].records[0]["pass_at"][1] for s in seeds
        )
        assert a_hits >= 16, f"base JDiv decline in only {a_hits}/20 seeds"
        assert b_hits >= 16, f"combined above base in only {b_hits}/20 seeds"
        assert c_hits >= 16, f"diversity-only pass@1 collapse in only {c_hits}/20 seeds"
        assert time.perf_counter() - start < 300.0


def test_09_bootstrap_calibration():
    from codediv.stats import paired_bootstrap

    with criterion(9, "bootstrap calibration and power"):
        gen = np.random.default_rng(123)
        rejections = 0
        trials = 1000
        for t in range(trials):
            noise = gen.uniform(-0.5, 0.5, size=200)
            a = gen.uniform(0, 1, size=200)
            rejections += paired_bootstrap(a, a + noise, resamples=1000, seed=t) < 0.05
        rate = rejections / trials
        assert 0.03 <= rate <= 0.07, f"null rejection rate {rate}"

        gen = np.random.default_rng(456)
        hits = 0
        for t in range(100):
            a = gen.uniform(0, 1, size=500)
            b = a + 0.1 + gen.uniform(-0.5, 0.5, size=500)
            hits += paired_bootstrap(a, b, resamples=10000, seed=t) < 0.05
        assert hits >= 95, f"power {hits}/100"


def _synthetic_group(rng, programs=200, mean_tokens=150, vocab=44):
    """Streams resembling sampled generations: template families plus noise."""
    templates = [
        rng.integers(0, vocab, size=int(rng.normal(mean_tokens, 15))).astype(np.intc)
        for _ in range(20)
    ]
    group = []
    for _ in range(programs):
        base = templates[int(rng.integers(0, len(templates)))].copy()
        mutations = rng.random(len(base)) < 0.1
        base[mutations] = rng.integers(0, vocab, size=int(mutations.sum()))
        group.append(base)
    return group


def test_10_gst_performance_and_backend_identity():
    with criterion(10, "GST performance and backend identity"):
        rng = np.random.default_rng(7)
        group = _synthetic_group(rng)
        sizes = [len(s) for s in group]
        assert 120 <= np.mean(sizes) <= 180

        # The oracle loop runs first, so a slow matcher still gets its tiles
        # checked before the timing bound can fail.
        for trial in range(10_000):
            la = int(rng.integers(0, 50))
            lb = int(rng.integers(0, 50))
            alphabet = int(rng.integers(2, 9))
            a = rng.integers(0, alphabet, size=la).astype(np.intc)
            b = rng.integers(0, alphabet, size=lb).astype(np.intc)
            min_match = int(rng.integers(1, 6))
            tiles = list(gst_match(a, b, min_match).tiles)
            expected = brute_force_tiles(a, b, min_match)
            assert tiles == expected, (trial, a.tolist(), b.tolist(), min_match)

        start = time.perf_counter()
        matrix = pairwise_matrix(group, min_match=5)
        elapsed = time.perf_counter() - start
        assert matrix.n == 200
        assert elapsed < 5.0, f"19,900 pairs took {elapsed:.2f}s"


def _run_twice(tmp_path, name, argv_builder):
    out1 = tmp_path / f"{name}_1"
    out2 = tmp_path / f"{name}_2"
    assert main(argv_builder(str(out1))) == 0
    assert main(argv_builder(str(out2))) == 0
    blobs = []
    for out in (out1, out2):
        blobs.append(
            {
                f: open(os.path.join(out, f), "rb").read()
                for f in sorted(os.listdir(out))
            }
        )
    assert blobs[0].keys() == blobs[1].keys()
    for fname in blobs[0]:
        if fname == "manifest.json":
            # identical here too: same inputs, same params, no timestamps
            pass
        assert blobs[0][fname] == blobs[1][fname], f"{name}/{fname}"


def test_11_cli_determinism(tmp_path):
    with criterion(11, "CLI determinism"):
        sources = [
            "def f(xs):\n    return [x * x for x in xs]\n",
            "def f(items):\n    return [y * y for y in items]\n",
            "def f(xs):\n    total = 0\n    for x in xs:\n        total += x * x\n    return total\n",
            "def g(n):\n    while n > 1:\n        n -= 1\n    return n\n",
        ]
        lines = []
        for p in range(3):
            for i, src in enumerate(sources):
                lines.append(
                    json.dumps(
                        {
                            "prompt_id": f"p{p}",
                            "sample_id": i,
                            "source": src,
                            "correct": (i + p) % 2 == 0,
                        }
                    )
                )
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n")

        _run_twice(tmp_path, "similarity", lambda out: [
            "similarity", "--corpus", str(corpus), "--out", out,
        ])
        _run_twice(tmp_path, "report", lambda out: [
            "report", "--corpus", str(corpus), "--k", "1,2", "--out", out,
        ])
        _run_twice(tmp_path, "advantages", lambda out: [
            "advantages", "--corpus", str(corpus), "--objective", "combined",
            "--lambda-div", "2.0", "--out", out,
        ])

        report_dir = tmp_path / "report_1"
        report_path = str(report_dir / "report.json")
        _run_twice(tmp_path, "compare", lambda out: [
            "compare", "--report-a", report_path, "--report-b", report_path,
            "--resamples", "1000", "--seed", "3", "--out", out,
        ])

        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "objectives": ["base", {"name": "combined", "lambda_div": 2.0}],
                    "seeds": [0],
                    "steps": 5,
                    "eval": {"k_list": [1, 4]},
                }
            )
        )
        _run_twice(tmp_path, "simulate", lambda out: [
            "simulate", "--config", str(config), "--out", out,
        ])
