import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codediv import similarity
from codediv.similarity import (
    Clustering,
    MatchSet,
    SimMatrix,
    avg_similarity,
    clusters,
    effective_clusters,
    gst_match,
    jdiv,
    lex_tokens,
    one_gram_div,
    one_gram_matrix,
    one_gram_similarity,
    pairwise_matrix,
    similarity_score,
)
from codediv.tokenizer import tokenize

from conftest import RENAMED_PAIR, VARIANT_PAIR, brute_force_tiles, random_id_stream

IDS = st.lists(st.integers(0, 6), min_size=0, max_size=30).map(
    lambda xs: np.asarray(xs, dtype=np.intc)
)


def as_ids(values):
    return np.asarray(values, dtype=np.intc)


class TestGstMatch:
    def test_self_match_single_tile(self):
        stream = as_ids([3, 1, 4, 1, 5, 9, 2, 6])
        match = gst_match(stream, stream, min_match=5)
        assert match.tiles == ((0, 0, 8),)
        assert match.matched_tokens == 8

    def test_disjoint_alphabets_empty(self):
        a = as_ids([0, 1, 2, 3, 4, 0, 1])
        b = as_ids([5, 6, 7, 8, 9, 5, 6])
        match = gst_match(a, b, min_match=1)
        assert match.tiles == ()
        assert match.matched_tokens == 0

    def test_two_swapped_runs(self):
        # Two runs of five distinct kinds each, swapped between streams.
        a = as_ids([0] * 5 + [1] * 5)
        b = as_ids([1] * 5 + [0] * 5)
        expected = brute_force_tiles(a, b, 5)
        match = gst_match(a, b, min_match=5)
        assert list(match.tiles) == expected
        assert match.matched_tokens == 10
        assert {t[2] for t in match.tiles} == {5}

    def test_min_match_validation(self):
        with pytest.raises(ValueError):
            gst_match(as_ids([1, 2]), as_ids([1, 2]), min_match=0)

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(300):
            a = random_id_stream(rng, max_len=24, alphabet=4)
            b = random_id_stream(rng, max_len=24, alphabet=4)
            min_match = int(rng.integers(1, 4))
            expected = brute_force_tiles(a, b, min_match)
            assert list(gst_match(a, b, min_match).tiles) == expected

    def test_tiles_nonoverlapping_and_bounded(self, rng):
        for _ in range(200):
            a = random_id_stream(rng, max_len=40, alphabet=3)
            b = random_id_stream(rng, max_len=40, alphabet=3)
            match = gst_match(a, b, min_match=2)
            seen_a = set()
            seen_b = set()
            for i, j, length in match.tiles:
                assert length >= 2
                span_a = set(range(i, i + length))
                span_b = set(range(j, j + length))
                assert not (span_a & seen_a)
                assert not (span_b & seen_b)
                seen_a |= span_a
                seen_b |= span_b
            assert match.matched_tokens <= min(len(a), len(b))

    def test_monotone_in_min_match(self, rng):
        for _ in range(100):
            a = random_id_stream(rng, max_len=30, alphabet=4)
            b = random_id_stream(rng, max_len=30, alphabet=4)
            matched = [
                gst_match(a, b, min_match=mm).matched_tokens for mm in (4, 3, 2, 1)
            ]
            assert matched == sorted(matched)


class TestBackends:
    # gst_match against the brute-force oracle on random pairs and on
    # hypothesis examples.

    def test_hashed_equals_bruteforce(self, rng):
        for _ in range(500):
            a = random_id_stream(rng, max_len=50, alphabet=5)
            b = random_id_stream(rng, max_len=50, alphabet=5)
            min_match = int(rng.integers(1, 6))
            expected = brute_force_tiles(a, b, min_match)
            assert list(gst_match(a, b, min_match).tiles) == expected

    @given(a=IDS, b=IDS, min_match=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_backend_agreement_property(self, a, b, min_match):
        assert list(gst_match(a, b, min_match).tiles) == brute_force_tiles(a, b, min_match)


def period3_stream(lines):
    # ``a = b`` is ASSIGN IDENT IDENT: a stream that repeats with period 3.
    return tokenize("".join(f"v{i % 7} = w{i % 5}\n" for i in range(lines)))


# Each bound is a fixed multiple of a measurement on a quiet 2-core x86
# host (Python 3.11): the best of three untraced runs for the time, and the
# tracemalloc peak of one traced run for the memory.
TIME_FACTOR = 10
MEMORY_FACTOR = 4


def bounded_match(a, b, measured_s, measured_mb, runs=3):
    """gst_match(a, b), asserting its time and memory stay within the bounds."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        match = gst_match(a, b)
        times.append(time.perf_counter() - start)
    assert min(times) < TIME_FACTOR * measured_s, f"{min(times):.3f}s"
    tracemalloc.start()
    try:
        assert gst_match(a, b) == match
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < MEMORY_FACTOR * measured_mb, f"{peak_mb:.2f} MB"
    return match


class TestHostileShapes:
    @pytest.mark.parametrize(
        "lines_a, lines_b, measured_s, measured_mb, expected",
        [
            (1000, 1000, 0.011, 0.59, ((0, 0, 3002),)),
            (1000, 800, 0.010, 0.53, ((0, 0, 2401),)),
        ],
        ids=["1000x1000", "1000x800"],
    )
    def test_period3_pairs(self, lines_a, lines_b, measured_s, measured_mb, expected):
        a, b = period3_stream(lines_a), period3_stream(lines_b)
        assert (len(a), len(b)) == (3 * lines_a + 2, 3 * lines_b + 2)
        assert bounded_match(a, b, measured_s, measured_mb).tiles == expected

    def test_long_pinned_pair(self, rng):
        # 10,500 tokens a side. The expected tiles were pinned from a
        # per-round dynamic program (brute force is too slow at this size).
        # Wide alphabet keeps chance runs (and so tiling rounds) rare.
        n = 10_500
        a = rng.integers(0, 40, size=n).astype(np.intc)
        b = rng.integers(0, 40, size=n).astype(np.intc)
        b[2000:2400] = a[1000:1400]  # one long shared block
        match = bounded_match(a, b, measured_s=0.40, measured_mb=3.72, runs=1)
        assert match.tiles == ((1000, 2000, 400), (10443, 7447, 5))


class TestAvgSimilarity:
    def test_identical_full_score(self):
        ids = as_ids([1, 2, 3, 4, 5, 6])
        assert similarity_score(ids, ids, min_match=5) == 1.0

    def test_empty_match_zero(self):
        assert avg_similarity(MatchSet.from_tiles([]), 10, 10) == 0.0

    def test_two_run_example_full_score(self):
        a = as_ids([0] * 5 + [1] * 5)
        b = as_ids([1] * 5 + [0] * 5)
        assert similarity_score(a, b, min_match=5) == 1.0

    def test_short_common_runs_score_zero(self):
        # Shared material exists, but every common run is below min_match.
        a = as_ids([1, 2, 3, 4, 5, 6])
        b = as_ids([1, 2, 9, 4, 5, 8])
        assert similarity_score(a, b, min_match=3) == 0.0
        assert similarity_score(a, b, min_match=2) > 0.0

    def test_empty_stream_conventions(self):
        empty = MatchSet.from_tiles([])
        assert avg_similarity(empty, 0, 0) == 1.0
        assert avg_similarity(empty, 0, 7) == 0.0
        assert avg_similarity(empty, 7, 0) == 0.0

    @given(a=IDS, b=IDS)
    @settings(max_examples=150, deadline=None)
    def test_score_symmetry(self, a, b):
        assert similarity_score(a, b, 3) == similarity_score(b, a, 3)


class TestPairwiseMatrix:
    def test_single_stream(self):
        matrix = pairwise_matrix([tokenize("x = 1\n")])
        assert matrix.n == 1
        assert matrix.scores[0, 0] == 1.0

    def test_duplicates_off_diagonal_one(self):
        stream = tokenize(RENAMED_PAIR[0])
        matrix = pairwise_matrix([stream, stream])
        assert matrix.scores[0, 1] == 1.0

    def test_renamed_pair_scores_one(self):
        matrix = pairwise_matrix([tokenize(s) for s in RENAMED_PAIR])
        assert matrix.scores[0, 1] == 1.0

    def test_variant_pair_scores_below_renamed(self):
        renamed = pairwise_matrix([tokenize(s) for s in RENAMED_PAIR]).scores[0, 1]
        variant = pairwise_matrix([tokenize(s) for s in VARIANT_PAIR]).scores[0, 1]
        assert variant < renamed

    def test_group_matches_bruteforce_cells(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            alphabet = int(rng.integers(2, 9))
            min_match = int(rng.integers(1, 6))
            group = [random_id_stream(rng, max_len=40, alphabet=alphabet) for _ in range(n)]
            expected = np.eye(n)
            for i in range(n):
                for j in range(i + 1, n):
                    match = MatchSet.from_tiles(brute_force_tiles(group[i], group[j], min_match))
                    score = avg_similarity(match, len(group[i]), len(group[j]))
                    expected[i, j] = expected[j, i] = score
            assert np.array_equal(pairwise_matrix(group, min_match).scores, expected)

    def test_asymmetric_pair_keeps_its_order(self):
        # The tie break makes tiling asymmetric: (a, b) matches 2 tokens and
        # (b, a) all 4. Stream 2 repeats stream 0, so cell (1, 2) is the
        # reversed pair and must not reuse cell (0, 1).
        group = [as_ids([0, 0, 1, 0]), as_ids([1, 0, 0, 0]), as_ids([0, 0, 1, 0])]
        scores = pairwise_matrix(group, min_match=2).scores
        assert scores[0, 1] == scores[1, 0] == 0.5
        assert scores[1, 2] == scores[2, 1] == 1.0
        assert scores[0, 2] == 1.0

    def test_duplicate_heavy_groups_match_bruteforce_cells(self, rng):
        for _ in range(200):
            min_match = int(rng.integers(1, 5))
            alphabet = int(rng.integers(1, 4))
            # A small pool, so most groups repeat streams. It holds an empty
            # stream, one shorter than min_match, and the asymmetric pair
            # above with each token widened to k: for min_match >= 2 one
            # order matches 2k tokens and the other 4k. Random pairs are
            # rarely asymmetric.
            k = (min_match + 1) // 2
            pool = [as_ids([]), random_id_stream(rng, max_len=min_match - 1, alphabet=alphabet)]
            pool += [random_id_stream(rng, max_len=12, alphabet=alphabet) for _ in range(2)]
            pool += [as_ids([0] * 2 * k + [1] * k + [0] * k), as_ids([1] * k + [0] * 3 * k)]
            n = int(rng.integers(2, 9))
            group = [pool[int(k)] for k in rng.integers(0, len(pool), size=n)]
            expected = np.eye(n)
            for i in range(n):
                for j in range(i + 1, n):
                    match = MatchSet.from_tiles(brute_force_tiles(group[i], group[j], min_match))
                    score = avg_similarity(match, len(group[i]), len(group[j]))
                    expected[i, j] = expected[j, i] = score
            assert np.array_equal(pairwise_matrix(group, min_match).scores, expected)

    def test_tiles_each_distinct_ordered_pair_once(self, rng, monkeypatch):
        calls = []

        def counting(a, b, min_match):
            calls.append((a.tobytes(), b.tobytes()))
            return gst_match(a, b, min_match)

        monkeypatch.setattr(similarity, "gst_match", counting)
        for _ in range(100):
            pool = [random_id_stream(rng, max_len=10, alphabet=3) for _ in range(3)]
            n = int(rng.integers(1, 9))
            group = [pool[int(k)] for k in rng.integers(0, len(pool), size=n)]
            calls.clear()
            pairwise_matrix(group, min_match=2)
            keys = {
                (group[i].tobytes(), group[j].tobytes()) for i in range(n) for j in range(i + 1, n)
            }
            assert len(calls) == len(keys)
            assert set(calls) == keys

    def test_symmetric_unit_diagonal(self, rng):
        streams = [random_id_stream(rng, max_len=30) for _ in range(6)]
        matrix = pairwise_matrix(streams, min_match=3)
        assert np.array_equal(matrix.scores, matrix.scores.T)
        assert np.array_equal(np.diag(matrix.scores), np.ones(6))
        assert matrix.scores.min() >= 0.0 and matrix.scores.max() <= 1.0


class TestJDiv:
    def test_duplicate_group_zero(self):
        assert jdiv(SimMatrix(np.ones((4, 4)))) == 0.0

    def test_disjoint_group_one(self):
        assert jdiv(SimMatrix(np.eye(4))) == 1.0

    def test_hand_computed_three(self):
        scores = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]])
        assert jdiv(SimMatrix(scores)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_too_small(self):
        with pytest.raises(ValueError, match="smaller than 2"):
            jdiv(SimMatrix(np.ones((1, 1))))

    def test_duplicate_append_never_increases(self, rng):
        # Holds when the duplicated sample is at least averagely similar to
        # the rest (in particular the most redundant one). Duplicating a
        # far outlier can legitimately raise diversity, so j is not free.
        for _ in range(50):
            n = int(rng.integers(2, 7))
            scores = rng.uniform(0, 1, size=(n, n))
            scores = (scores + scores.T) / 2
            np.fill_diagonal(scores, 1.0)
            base = jdiv(SimMatrix(scores))

            j = int(np.argmax(scores.sum(axis=1)))
            grown = np.ones((n + 1, n + 1))
            grown[:n, :n] = scores
            grown[n, :n] = scores[j, :]
            grown[:n, n] = scores[:, j]
            grown[n, j] = grown[j, n] = 1.0
            grown[n, n] = 1.0
            assert jdiv(SimMatrix(grown)) <= base + 1e-12

    def test_duplicate_of_outlier_can_increase(self):
        # Regression pin for the boundary of the law above: duplicating the
        # lone outlier of an otherwise redundant group raises diversity.
        scores = np.full((5, 5), 0.99)
        scores[4, :] = scores[:, 4] = 0.01
        np.fill_diagonal(scores, 1.0)
        base = jdiv(SimMatrix(scores))
        grown = np.ones((6, 6))
        grown[:5, :5] = scores
        grown[5, :5] = scores[4, :]
        grown[:5, 5] = scores[:, 4]
        grown[5, 4] = grown[4, 5] = 1.0
        assert jdiv(SimMatrix(grown)) > base


class TestClusters:
    def test_all_similar_single_cluster(self):
        clustering = clusters(SimMatrix(np.ones((5, 5))), tau=0.7)
        assert clustering.assignment == (0,) * 5
        assert clustering.sizes == {0: 5}

    def test_all_dissimilar_singletons(self):
        clustering = clusters(SimMatrix(np.eye(5)), tau=0.7)
        assert clustering.assignment == (0, 1, 2, 3, 4)
        assert all(size == 1 for size in clustering.sizes.values())

    def test_transitive_chain(self):
        scores = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.8], [0.1, 0.8, 1.0]])
        clustering = clusters(SimMatrix(scores), tau=0.7)
        assert clustering.assignment == (0, 0, 0)

    def test_strict_threshold(self):
        scores = np.array([[1.0, 0.7], [0.7, 1.0]])
        assert clusters(SimMatrix(scores), tau=0.7).n_clusters == 2
        assert clusters(SimMatrix(scores), tau=0.7, strict=False).n_clusters == 1

    def test_reorder_invariance(self, rng):
        n = 7
        scores = rng.uniform(0, 1, size=(n, n))
        scores = (scores + scores.T) / 2
        np.fill_diagonal(scores, 1.0)
        perm = rng.permutation(n)
        permuted = scores[np.ix_(perm, perm)]
        original = clusters(SimMatrix(scores), tau=0.5)
        shuffled = clusters(SimMatrix(permuted), tau=0.5)
        assert sorted(original.sizes.values()) == sorted(shuffled.sizes.values())
        assert effective_clusters(original) == pytest.approx(
            effective_clusters(shuffled), abs=1e-12
        )


class TestEffectiveClusters:
    def test_one_cluster(self):
        assert effective_clusters(clusters(SimMatrix(np.ones((6, 6))))) == 1.0

    def test_uniform_singletons(self):
        assert effective_clusters(clusters(SimMatrix(np.eye(6)))) == pytest.approx(6.0)

    def test_two_one_one_split(self):
        clustering = Clustering(assignment=(0, 0, 1, 2), sizes={0: 2, 1: 1, 2: 1}, tau=0.7)
        expected = math.exp(
            -(0.5 * math.log(0.5) + 0.25 * math.log(0.25) + 0.25 * math.log(0.25))
        )
        value = effective_clusters(clustering)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_bounds(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            scores = rng.uniform(0, 1, size=(n, n))
            scores = (scores + scores.T) / 2
            np.fill_diagonal(scores, 1.0)
            clustering = clusters(SimMatrix(scores), tau=0.6)
            eff = effective_clusters(clustering)
            assert 1.0 - 1e-12 <= eff <= clustering.n_clusters + 1e-12 <= n + 1e-12


class TestOneGram:
    def test_identical_sources(self):
        src = "def f(x):\n    return x + 1\n"
        assert one_gram_similarity(src, src) == 1.0

    def test_disjoint_sources(self):
        assert one_gram_similarity("alpha beta", "gamma delta") == 0.0

    def test_multiset_overlap(self):
        # Token multisets [a, a, b] and [a, b, b]: intersection size 2.
        assert one_gram_similarity("a a b", "a b b") == pytest.approx(2.0 / 3.0)

    def test_empty_conventions(self):
        assert one_gram_similarity("", "") == 1.0
        assert one_gram_similarity("", "x") == 0.0

    def test_div_from_pair(self):
        assert one_gram_div(["a a b", "a b b"]) == pytest.approx(1.0 / 3.0)

    def test_div_trivials(self):
        assert one_gram_div(["x = 1", "x = 1"]) == 0.0
        assert one_gram_div(["alpha", "beta"]) == 1.0
        with pytest.raises(ValueError):
            one_gram_div(["only"])

    def test_matrix_lexes_each_source_once(self, monkeypatch):
        calls = []

        def counting_lex(text):
            calls.append(text)
            return lex_tokens(text)

        monkeypatch.setattr(similarity, "lex_tokens", counting_lex)
        sources = [f"x{i} = f(y, {i})" for i in range(6)]
        one_gram_div(sources)
        assert sorted(calls) == sorted(sources)

    def test_rename_sensitivity_vs_structural(self):
        # The lexical metric sees renamed programs as different while the
        # structural pipeline does not; that gap is the point of having both.
        lexical = one_gram_matrix(list(RENAMED_PAIR)).scores[0, 1]
        structural = pairwise_matrix([tokenize(s) for s in RENAMED_PAIR]).scores[0, 1]
        assert lexical < structural == 1.0


class TestSerialization:
    def test_text_round_trip(self, rng):
        scores = rng.uniform(0, 1, size=(4, 4))
        scores = (scores + scores.T) / 2
        np.fill_diagonal(scores, 1.0)
        matrix = SimMatrix(scores)
        again = SimMatrix.from_text(matrix.to_text())
        assert matrix == again

    def test_golden_forms(self):
        matrix = SimMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert matrix.to_text() == "2\n1.0 0.5\n0.5 1.0\n"
