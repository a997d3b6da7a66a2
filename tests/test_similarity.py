import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codediv import similarity
from codediv.similarity import (
    SimMatrix,
    clusters,
    count_lex_tokens,
    effective_clusters,
    gst_match,
    jdiv,
    lex_tokens,
    one_gram_div,
    one_gram_matrix,
    pairwise_matrix,
)
from codediv.tokenizer import tokenize

from conftest import RENAMED_PAIR, VARIANT_PAIR, bounded_call, brute_force_tiles, random_id_stream

IDS = st.lists(st.integers(0, 6), min_size=0, max_size=30).map(
    lambda xs: np.asarray(xs, dtype=np.intc)
)


# Ids that collide if truncated to 32 bits (1 and 1 + 2**32) or that need
# more than 32 bits.
WIDE_IDS = st.lists(
    st.sampled_from([-1, 1, 1 + 2**32, 2**31, -(2**40)]), min_size=0, max_size=30
).map(lambda xs: np.asarray(xs, dtype=np.int64))


def as_ids(values):
    return np.asarray(values, dtype=np.intc)


def content_order(a, b):
    """The pair in the order ``pairwise_matrix`` tiles it: the shorter
    stream first, and of two equally long ones the smaller id list."""
    key_a, key_b = (len(a), np.asarray(a).tolist()), (len(b), np.asarray(b).tolist())
    return (a, b) if key_a <= key_b else (b, a)


def dice(matched, len_a, len_b):
    """The pair score of two streams that are not both empty."""
    return 2 * matched / (len_a + len_b)


def brute_force_cell(a, b, min_match):
    """A matrix cell of ``a`` and ``b``: 1.0 if the streams are equal, which
    match in full at any length; else the brute-force tiles of the pair in
    content order, scored."""
    if np.array_equal(a, b):
        return 1.0
    a, b = content_order(a, b)
    return dice(sum(tile[2] for tile in brute_force_tiles(a, b, min_match)), len(a), len(b))


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
        # A bool is refused like np.True_, not read as 1 or 0.
        for min_match in (0, True, False):
            with pytest.raises(ValueError, match=f"min_match must be an integer >= 1, got {min_match}"):
                gst_match(as_ids([1, 2]), as_ids([1, 2]), min_match=min_match)

    def test_numpy_integer_min_match(self):
        a = as_ids([1, 2, 3, 4, 5, 6, 1, 2, 3])
        assert gst_match(a, a[2:], min_match=np.int64(2)).tiles == ((2, 0, 7),)

    @pytest.mark.parametrize(
        "ids",
        [
            np.array([1.7] * 6),
            np.array([1.0] * 6),
            np.array([[1, 2], [3, 4]]),
            np.array([2**64 - 1] * 6, dtype=np.uint64),  # would read as -1 in int64
        ],
    )
    def test_ids_not_exact_in_int64_rejected(self, ids):
        with pytest.raises(ValueError):
            gst_match(ids, np.array([-1] * 6), min_match=5)

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

    @given(a=WIDE_IDS, b=WIDE_IDS, min_match=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_wide_ids_property(self, a, b, min_match):
        assert list(gst_match(a, b, min_match).tiles) == brute_force_tiles(a, b, min_match)


def period3_stream(lines):
    # ``a = b`` is ASSIGN IDENT IDENT: a stream that repeats with period 3.
    return tokenize("".join(f"v{i % 7} = w{i % 5}\n" for i in range(lines)))


def shared_pair(rng, max_len, alphabet):
    """A random stream and one built from slices of it and random filler."""
    a = random_id_stream(rng, max_len=max_len, alphabet=alphabet)
    pieces = []
    for _ in range(int(rng.integers(1, 4))):
        start = int(rng.integers(0, len(a) + 1))
        pieces += [a[start : int(rng.integers(start, len(a) + 1))]]
        pieces += [random_id_stream(rng, max_len=6, alphabet=alphabet)]
    return a, np.concatenate(pieces).astype(np.intc)


def kgram_hits(a, b, k):
    """Pairs of equal k-grams of ``a`` and ``b``, counted directly."""
    grams_b = Counter(tuple(b[j : j + k]) for j in range(len(b) - k + 1))
    return sum(grams_b[tuple(a[i : i + k])] for i in range(len(a) - k + 1))


@pytest.fixture
def probe_calls(monkeypatch):
    """The pairs that are left to the length-probe tiler."""
    calls = []
    probe = similarity._probe_tiles

    def counting(ka, kb, min_match):
        # Each keyed stream starts with its ids.
        calls.append((len(ka[0]), len(kb[0])))
        return probe(ka, kb, min_match)

    monkeypatch.setattr(similarity, "_probe_tiles", counting)
    return calls


class TestTilingPaths:
    # A pair is tiled maximal matches first from its exact k-gram hits, or
    # by length probes when the hits outnumber PROBE_HITS_PER_TOKEN per
    # token. Both paths must give the brute-force tiles.

    @pytest.mark.parametrize("bound", [0, math.inf], ids=["probes", "kgram_hits"])
    def test_each_path_equals_bruteforce(self, rng, monkeypatch, probe_calls, bound):
        monkeypatch.setattr(similarity, "PROBE_HITS_PER_TOKEN", bound)
        for _ in range(300):
            a, b = shared_pair(rng, max_len=40, alphabet=int(rng.integers(1, 6)))
            # 8 and 11 key k-grams by rank level 3, past level 2 of the default.
            min_match = int(rng.choice([1, 2, 3, 5, 8, 11]))
            assert list(gst_match(a, b, min_match).tiles) == brute_force_tiles(a, b, min_match)
        assert bool(probe_calls) == (bound == 0)

    def test_hit_bound_selects_path(self, rng, probe_calls):
        # Period-3 and small-alphabet pairs lie above the bound, pairs over
        # a wider alphabet below it.
        cases = [(period3_stream(la).ids, period3_stream(lb).ids) for la, lb in ((30, 30), (25, 14))]
        cases += [(as_ids([0] * 60), as_ids([0] * 50)), (as_ids([0, 1] * 20), as_ids([1, 0] * 15))]
        for _ in range(300):
            cases.append(shared_pair(rng, max_len=40, alphabet=int(rng.integers(1, 9))))
        sides = Counter()
        for a, b in cases:
            for min_match in (1, 3, 8):
                probe_calls.clear()
                tiles = list(gst_match(a, b, min_match).tiles)
                assert tiles == brute_force_tiles(a, b, min_match)
                hits = kgram_hits(a, b, min_match)
                probed = hits > similarity.PROBE_HITS_PER_TOKEN * (len(a) + len(b))
                assert len(probe_calls) == probed
                sides[min_match, probed] += 1
        assert all(sides[min_match, probed] >= 5 for min_match in (1, 3, 8) for probed in (0, 1))

    def test_group_probes_equal_bruteforce(self, rng, monkeypatch, probe_calls):
        # Every pair of a group takes the probe path, keyed by the group's
        # shared rank tables at each stream's offset. Rows are tiled shortest
        # stream first, so a short stream keeps the first pairs' extension
        # low and a longer pair tiled later must grow the tables again. Two
        # streams spell a k-gram across their boundary and a third holds it;
        # empty streams and streams shorter than k sit among random ones.
        monkeypatch.setattr(similarity, "PROBE_HITS_PER_TOKEN", 0)
        regrown = 0
        for _ in range(150):
            min_match = int(rng.choice([1, 2, 3, 5, 8, 11]))
            alphabet = int(rng.integers(1, 6))
            gram = rng.integers(0, alphabet, size=min_match)
            cut = int(rng.integers(0, min_match + 1))
            group = [
                random_id_stream(rng, max_len=16, alphabet=alphabet),
                np.concatenate((random_id_stream(rng, 20, alphabet), gram[:cut])),
                np.concatenate((gram[cut:], random_id_stream(rng, 20, alphabet))),
                np.concatenate((random_id_stream(rng, 20, alphabet), gram, random_id_stream(rng, 20, alphabet))),
            ]
            for kind in rng.integers(0, 3, size=4):
                max_len = (0, min_match - 1, 60)[kind]
                group.append(random_id_stream(rng, max_len=max_len, alphabet=alphabet))
            group = group[: int(rng.integers(3, 9))]
            probe_calls.clear()
            scores = pairwise_matrix(group, min_match).scores
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    assert scores[i, j] == brute_force_cell(group[i], group[j], min_match)
            levels = [min(pair).bit_length() for pair in probe_calls]
            regrown += any(later > levels[0] for later in levels[1:])
        assert regrown >= 30  # of 150 groups

    def test_corpus_pairs_never_probe_and_period3_pairs_always_do(self, rng, probe_calls):
        # Program-sized streams over a token-kind-sized alphabet, half of
        # them mutated copies of one another, as sampled generations are.
        for _ in range(300):
            a = rng.integers(0, 44, size=int(rng.integers(100, 300)))
            b = a.copy() if rng.random() < 0.5 else rng.integers(0, 44, size=len(a))
            mutations = rng.random(len(b)) < rng.uniform(0.0, 0.3)
            b[mutations] = rng.integers(0, 44, size=int(mutations.sum()))
            gst_match(a, b)
        assert probe_calls == []
        # From 25 lines a side, a period-3 pair is above the bound.
        sizes = [(25, 25), (40, 25), (200, 200), (1000, 800)]
        for la, lb in sizes:
            gst_match(period3_stream(la), period3_stream(lb))
        assert probe_calls == [(3 * la + 2, 3 * lb + 2) for la, lb in sizes]

    def test_both_paths_in_one_group(self, rng, probe_calls):
        # Period-3 streams are above the hit bound against one another and
        # random streams below it against anything, so one row of the group
        # join sends some of its pairs to the probes and joins the rest.
        for _ in range(8):
            lines = rng.choice(np.arange(25, 31), size=3, replace=False)
            streams = [(period3_stream(int(n)).ids, True) for n in lines]
            for _ in range(3):
                streams.append((rng.integers(0, 44, size=int(rng.integers(60, 100))), False))
            group, periodic = zip(*(streams[int(i)] for i in rng.permutation(len(streams))))
            probe_calls.clear()
            scores = pairwise_matrix(group).scores
            expected = []
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    assert scores[i, j] == brute_force_cell(group[i], group[j], 5)
                    if periodic[i] and periodic[j]:
                        expected.append(tuple(map(len, content_order(group[i], group[j]))))
            assert sorted(probe_calls) == sorted(expected)

    def test_row_batches_split_and_join(self, rng, monkeypatch, probe_calls):
        # Rows are joined in batches whose hits fit PROBE_HITS_PER_TOKEN per
        # token of the group's two longest streams. 12 to 18 near-duplicate
        # streams overflow that budget every few rows, period-3 rows lie
        # above it alone, and empty streams and streams shorter than k add
        # no hits. Two to five near-duplicates fit in one batch. Either way
        # every cell is the brute-force cell and every period-3 pair is
        # probed.
        batches = []
        row_batches = similarity._row_batches

        def recording(row_hits, budget):
            runs = list(row_batches(row_hits, budget))
            batches.append((row_hits, budget, runs))
            return runs

        monkeypatch.setattr(similarity, "_row_batches", recording)
        for trial in range(16):
            splits = trial % 2
            base = rng.integers(0, 44, size=int(rng.integers(40, 61)))
            streams = []
            for _ in range(int(rng.integers(12, 19) if splits else rng.integers(2, 6))):
                copy = base.copy()
                mutated = rng.random(len(copy)) < 0.05
                copy[mutated] = rng.integers(0, 44, size=int(mutated.sum()))
                streams.append((copy, False))
            if splits:
                for n in rng.choice(np.arange(25, 31), size=3, replace=False):
                    streams.append((period3_stream(int(n)).ids, True))
            streams += [(as_ids([]), False), (random_id_stream(rng, max_len=4, alphabet=44), False)]
            group, periodic = zip(*(streams[int(i)] for i in rng.permutation(len(streams))))
            probe_calls.clear()
            batches.clear()
            scores = pairwise_matrix(group).scores
            expected, hits, pairs = [], 0, set()
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    assert scores[i, j] == brute_force_cell(group[i], group[j], 5)
                    pair = tuple(tuple(np.asarray(s).tolist()) for s in content_order(group[i], group[j]))
                    if pair[0] != pair[1] and pair not in pairs:
                        pairs.add(pair)
                        hits += kgram_hits(*pair, 5)
                    if periodic[i] and periodic[j]:
                        expected.append(tuple(map(len, content_order(group[i], group[j]))))
            assert sorted(probe_calls) == sorted(expected)
            # The batches are consecutive runs over the rows with pairs, one
            # per distinct stream but the last; each fits the budget or holds
            # one row, and the row totals are exact.
            ((row_hits, budget, runs),) = batches
            assert len(row_hits) == len({tuple(np.asarray(s).tolist()) for s in group}) - 1
            assert row_hits.sum() == hits
            assert [s0 for s0, _ in runs] == [0] + [s1 for _, s1 in runs[:-1]]
            assert runs[-1][1] == len(row_hits)
            assert all(s1 - s0 == 1 or row_hits[s0:s1].sum() <= budget for s0, s1 in runs)
            if splits:  # some batches join several rows, and more than one does
                assert sum(s1 - s0 > 1 for s0, s1 in runs) >= 2
            else:
                assert len(runs) == 1 and row_hits.sum() > 0


# A time is the slowest of six processes' best of three runs (of one run
# for the 10,500-token pair) and a memory figure one traced run's peak. The
# constants are only ever lowered. Measured on the batched group join, the
# period-3 pairs, which go to the length probes, take 3-6 ms and peak at
# 0.9-1.0 MB; the 10,500-token pair takes 7-9 ms and peaks at 2.0 MB; the
# 12,000-token pairs take 7-11 ms and peak at 3.0 MB. Each is at or above
# its constant, so the constants stay as earlier matchers set them.


class TestHostileShapes:
    @pytest.mark.parametrize(
        "lines_a, lines_b, measured_s, measured_mb, expected",
        [
            (1000, 1000, 0.0041, 0.59, ((0, 0, 3002),)),
            (1000, 800, 0.0041, 0.53, ((0, 0, 2401),)),
        ],
        ids=["1000x1000", "1000x800"],
    )
    def test_period3_pairs(self, lines_a, lines_b, measured_s, measured_mb, expected):
        a, b = period3_stream(lines_a), period3_stream(lines_b)
        assert (len(a), len(b)) == (3 * lines_a + 2, 3 * lines_b + 2)
        assert bounded_call(lambda: gst_match(a, b), measured_s, measured_mb).tiles == expected

    def test_long_pinned_pair(self, rng):
        # 10,500 tokens a side. The expected tiles were pinned from a
        # per-round dynamic program (brute force is too slow at this size).
        # Wide alphabet keeps chance runs (and so tiling rounds) rare.
        n = 10_500
        a = rng.integers(0, 40, size=n).astype(np.intc)
        b = rng.integers(0, 40, size=n).astype(np.intc)
        b[2000:2400] = a[1000:1400]  # one long shared block
        match = bounded_call(lambda: gst_match(a, b), measured_s=0.0067, measured_mb=1.87, runs=1)
        assert match.tiles == ((1000, 2000, 400), (10443, 7447, 5))

    @pytest.mark.parametrize(
        "shape, measured_s, measured_mb, expected",
        [
            ("near_dup", 0.0072, 1.88, ((5000, 5400, 7000), (0, 0, 5000))),
            (
                "reordered",
                0.0073,
                1.85,
                (
                    (6500, 0, 3000),
                    (1500, 9500, 2500),
                    (4000, 7000, 2500),
                    (9500, 4500, 2500),
                    (0, 3000, 1500),
                ),
            ),
        ],
        ids=["near_dup", "reordered"],
    )
    def test_long_edited_pairs(self, rng, shape, measured_s, measured_mb, expected):
        # 12,000 tokens against an edited copy. The expected tiles were pinned
        # from the earlier window-hash matcher; the 200-kind
        # alphabet leaves no chance tile of min_match tokens.
        a = rng.integers(0, 200, size=12_000)
        if shape == "near_dup":  # one 400-token block inserted
            b = np.concatenate((a[:5000], rng.integers(0, 200, size=400), a[5000:]))
        else:  # five blocks of unequal length, reordered
            blocks = np.split(a, [1500, 4000, 6500, 9500])
            b = np.concatenate([blocks[i] for i in (3, 0, 4, 2, 1)])
        assert bounded_call(lambda: gst_match(a, b), measured_s, measured_mb).tiles == expected


class TestPairScore:
    def test_identical_full_score(self):
        ids = as_ids([1, 2, 3, 4, 5, 6])
        assert pairwise_matrix([ids, ids], min_match=5).scores[0, 1] == 1.0

    def test_empty_match_zero(self):
        a, b = as_ids([0] * 10), as_ids([1] * 10)
        assert pairwise_matrix([a, b], min_match=5).scores[0, 1] == 0.0

    def test_two_run_example_full_score(self):
        a = as_ids([0] * 5 + [1] * 5)
        b = as_ids([1] * 5 + [0] * 5)
        assert pairwise_matrix([a, b], min_match=5).scores[0, 1] == 1.0

    def test_short_common_runs_score_zero(self):
        # Shared material exists, but every common run is below min_match.
        a = as_ids([1, 2, 3, 4, 5, 6])
        b = as_ids([1, 2, 9, 4, 5, 8])
        assert pairwise_matrix([a, b], min_match=3).scores[0, 1] == 0.0
        assert pairwise_matrix([a, b], min_match=2).scores[0, 1] > 0.0

    def test_empty_stream_conventions(self):
        empty, seven = as_ids([]), as_ids([1] * 7)
        assert pairwise_matrix([empty, empty]).scores[0, 1] == 1.0
        assert pairwise_matrix([empty, seven]).scores[0, 1] == 0.0
        assert pairwise_matrix([seven, empty]).scores[0, 1] == 0.0

    @given(a=IDS, b=IDS)
    # Tiled as (a, b) this pair matches 6 tokens, as (b, a) only 3.
    @example(a=as_ids([0, 2, 2, 0, 2, 0]), b=as_ids([2, 0, 2, 2, 1, 0, 2, 0]))
    @settings(max_examples=150, deadline=None)
    def test_score_symmetry(self, a, b):
        assert pairwise_matrix([a, b], 3).scores[0, 1] == pairwise_matrix([b, a], 3).scores[0, 1]


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
                    expected[i, j] = expected[j, i] = brute_force_cell(group[i], group[j], min_match)
            assert np.array_equal(pairwise_matrix(group, min_match).scores, expected)

    def test_asymmetric_pair_scores_the_same_in_either_order(self):
        # The tie break makes tiling asymmetric: (a, b) matches 2 tokens and
        # (b, a) all 4. a comes first in content order (equal lengths, the
        # smaller ids), so every cell of the pair scores (a, b), whichever
        # sample comes first.
        a, b = as_ids([0, 0, 1, 0]), as_ids([1, 0, 0, 0])
        assert (gst_match(a, b, 2).matched_tokens, gst_match(b, a, 2).matched_tokens) == (2, 4)
        for group in ([a, b, a], [b, a, b]):
            scores = pairwise_matrix(group, min_match=2).scores
            assert scores[0, 1] == scores[1, 2] == 0.5
            assert scores[0, 2] == 1.0

    @pytest.mark.parametrize("bound", [0, similarity.PROBE_HITS_PER_TOKEN], ids=["probes", "default"])
    @given(
        streams=st.lists(IDS, max_size=3),
        picks=st.lists(st.integers(0, 8), min_size=1, max_size=8),
        min_match=st.integers(1, 5),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_permuted_group_gives_permuted_matrix(self, bound, streams, picks, min_match, data):
        # A small pool, so groups repeat streams: an empty stream, one
        # shorter than min_match, two pairs that tile differently in their
        # two orders (at min_match 2 and 3) and random streams. A bound of 0
        # sends every pair with a k-gram hit to the length probes.
        short = data.draw(st.lists(st.integers(0, 6), max_size=min_match - 1))
        pool = [as_ids([]), as_ids(short), as_ids([0, 0, 1, 0]), as_ids([1, 0, 0, 0])]
        pool += [as_ids([0, 2, 2, 0, 2, 0]), as_ids([2, 0, 2, 2, 1, 0, 2, 0]), *streams]
        group = [pool[p % len(pool)] for p in picks]
        order = data.draw(st.permutations(range(len(group))))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "PROBE_HITS_PER_TOKEN", bound)
            scores = pairwise_matrix(group, min_match).scores
            permuted = pairwise_matrix([group[i] for i in order], min_match).scores
        assert np.array_equal(permuted, scores[np.ix_(order, order)])

    def test_duplicate_heavy_groups_match_bruteforce_cells(self, rng):
        for _ in range(200):
            min_match = int(rng.integers(1, 5))
            alphabet = int(rng.integers(1, 4))
            # A small pool, so most groups repeat streams. It holds an empty
            # stream, one shorter than min_match, and the asymmetric pair
            # above with each token widened to k: for min_match >= 2 one
            # order matches 2k tokens and the other 4k, and only the content
            # order may score. Random pairs are rarely asymmetric.
            k = (min_match + 1) // 2
            pool = [as_ids([]), random_id_stream(rng, max_len=min_match - 1, alphabet=alphabet)]
            pool += [random_id_stream(rng, max_len=12, alphabet=alphabet) for _ in range(2)]
            pool += [as_ids([0] * 2 * k + [1] * k + [0] * k), as_ids([1] * k + [0] * 3 * k)]
            n = int(rng.integers(2, 9))
            group = [pool[int(k)] for k in rng.integers(0, len(pool), size=n)]
            expected = np.eye(n)
            for i in range(n):
                for j in range(i + 1, n):
                    expected[i, j] = expected[j, i] = brute_force_cell(group[i], group[j], min_match)
            assert np.array_equal(pairwise_matrix(group, min_match).scores, expected)

    def test_tiles_each_distinct_unordered_pair_once(self, rng, monkeypatch):
        # Every pair of distinct streams is tiled by the heap once, in
        # content order, whichever order its samples come in; a stream
        # paired with itself is not tiled.
        calls = []
        tile_runs = similarity._tile_runs

        def counting(a, b, heap, min_match):
            calls.append((tuple(a.tolist()), tuple(b.tolist())))
            return tile_runs(a, b, heap, min_match)

        monkeypatch.setattr(similarity, "_tile_runs", counting)
        for _ in range(100):
            pool = [random_id_stream(rng, max_len=10, alphabet=3) for _ in range(3)]
            n = int(rng.integers(1, 9))
            group = [pool[int(k)] for k in rng.integers(0, len(pool), size=n)]
            calls.clear()
            scores = pairwise_matrix(group, min_match=2).scores
            cells = [
                (i, j, tuple(group[i].tolist()), tuple(group[j].tolist()))
                for i in range(n)
                for j in range(i + 1, n)
            ]
            keys = {content_order(a, b) for _, _, a, b in cells if a != b}
            assert len(calls) == len(keys)
            assert set(calls) == keys
            for i, j, a, b in cells:
                if a == b:  # a full match, whatever the length
                    assert scores[i, j] == 1.0

    def test_near_duplicate_group_memory_is_bounded(self):
        # Collapsed sampling: 64 copies of one 150-token program over 44
        # kinds, 2% of each copy's tokens mutated, so every pair shares
        # most of its k-grams. The group join expands one batch of rows at
        # a time, here mostly a single row, since one row's hits overflow
        # the batch budget, and it scores each pair's tiles as they come: it
        # peaks at 1.57 MB. Joining the whole group at once peaked at 22.3
        # MB. The bounds were measured like TestHostileShapes' below.
        rng = np.random.default_rng(0)
        base = rng.integers(0, 44, size=150)
        group = []
        for _ in range(64):
            copy = base.copy()
            mutated = rng.random(150) < 0.02
            copy[mutated] = rng.integers(0, 44, size=int(mutated.sum()))
            group.append(copy)
        matrix = bounded_call(lambda: pairwise_matrix(group), measured_s=0.054, measured_mb=1.57)
        for i, j in rng.choice(64, size=(40, 2)):
            if i != j:
                i, j = min(i, j), max(i, j)
                assert matrix.scores[i, j] == brute_force_cell(group[i], group[j], 5)

    def test_keys_never_match_across_stream_boundaries(self, rng):
        # The group's distinct streams are ranked as one concatenation. Here
        # a k-gram of the last stream is spelled across boundaries: by the
        # tail of one stream, any middle pieces as whole streams shorter
        # than k, and the head of the next. Empty and short streams sit
        # between the spellings. No cell may match the spelled k-gram.
        for _ in range(150):
            min_match = int(rng.choice([2, 3, 5, 8]))
            alphabet = int(rng.integers(2, 6))
            gram = rng.integers(0, alphabet, size=min_match)
            group = []
            for _ in range(2):
                n_cuts = min(int(rng.integers(1, 3)), min_match - 1)
                cuts = np.sort(rng.choice(np.arange(1, min_match), n_cuts, replace=False))
                pieces = np.split(gram, cuts)
                group.append(np.concatenate((random_id_stream(rng, 8, alphabet), pieces[0])))
                group += pieces[1:-1]
                group.append(np.concatenate((pieces[-1], random_id_stream(rng, 8, alphabet))))
                group.append(as_ids([]))
                group.append(random_id_stream(rng, min_match - 1, alphabet))
            witness = (random_id_stream(rng, 6, alphabet), gram, random_id_stream(rng, 6, alphabet))
            group.append(np.concatenate(witness))
            scores = pairwise_matrix(group, min_match).scores
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    a, b = content_order(group[i], group[j])
                    if np.array_equal(a, b):
                        direct = 1.0
                    else:
                        direct = dice(gst_match(a, b, min_match).matched_tokens, len(a), len(b))
                    assert scores[i, j] == direct == brute_force_cell(a, b, min_match)

    def test_equal_programs_shorter_than_min_match_are_duplicates(self):
        # `pass` is 3 tokens and `import os` 4, both below the default
        # min_match of 5; equal streams still match in full, while a short
        # stream matches nothing in a different one.
        assert len(tokenize("pass\n")) == 3
        assert pairwise_matrix([tokenize("pass\n")] * 2).scores[0, 1] == 1.0
        assert pairwise_matrix([tokenize("import os\n"), tokenize("import sys\n")]).scores[0, 1] == 1.0
        assert pairwise_matrix([tokenize("pass\n"), tokenize("import os\n")]).scores[0, 1] == 0.0
        matrix = pairwise_matrix([tokenize("pass\n")] * 8)
        assert jdiv(matrix) == 0.0
        assert clusters(matrix) == (0,) * 8
        assert effective_clusters(clusters(matrix)) == 1.0

    def test_huge_min_match_equals_one_past_longest(self, rng):
        # A stream shorter than k keys nothing and ranking stops at the
        # longest keyed stream, so no k is too large to index or rank.
        for _ in range(20):
            pool = [random_id_stream(rng, max_len=30, alphabet=3) for _ in range(4)]
            group = [pool[int(k)] for k in rng.integers(0, len(pool), size=6)]
            past = max(len(s) for s in group) + 1
            expected = pairwise_matrix(group, past).scores
            for min_match in (10**20, 2**63):
                assert np.array_equal(pairwise_matrix(group, min_match).scores, expected)
                assert gst_match(group[0], group[1], min_match).tiles == ()

    @pytest.mark.parametrize("min_match", [0, -1, 2.5, True, False])
    def test_min_match_checked_for_any_group(self, min_match):
        # A single stream has no pair to tile; min_match is checked anyway.
        for group in ([[1, 2, 3]], [[1, 2, 3], [1, 2, 3]]):
            with pytest.raises(ValueError, match="min_match"):
                pairwise_matrix(group, min_match=min_match)

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


def closure_cluster_ids(scores, tau):
    """Cluster ids from the transitive closure of ``scores > tau``, computed by
    repeated boolean squaring and numbered by each cluster's first member."""
    n = len(scores)
    reach = (scores > tau) | np.eye(n, dtype=bool)
    while True:
        squared = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(squared, reach):
            break
        reach = squared
    first_member = [int(np.flatnonzero(row)[0]) for row in reach]
    numbering = {}
    return tuple(numbering.setdefault(f, len(numbering)) for f in first_member)


class TestClusters:
    def test_all_similar_single_cluster(self):
        assert clusters(SimMatrix(np.ones((5, 5))), tau=0.7) == (0,) * 5

    def test_all_dissimilar_singletons(self):
        assert clusters(SimMatrix(np.eye(5)), tau=0.7) == (0, 1, 2, 3, 4)

    def test_transitive_chain(self):
        scores = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.8], [0.1, 0.8, 1.0]])
        assert clusters(SimMatrix(scores), tau=0.7) == (0, 0, 0)

    def test_strict_threshold(self):
        scores = np.array([[1.0, 0.7], [0.7, 1.0]])
        assert clusters(SimMatrix(scores), tau=0.7) == (0, 1)
        above = np.nextafter(0.7, 1.0)
        assert clusters(SimMatrix(np.array([[1.0, above], [above, 1.0]])), tau=0.7) == (0, 0)

    def test_reorder_invariance(self, rng):
        n = 7
        scores = rng.uniform(0, 1, size=(n, n))
        scores = (scores + scores.T) / 2
        np.fill_diagonal(scores, 1.0)
        perm = rng.permutation(n)
        permuted = scores[np.ix_(perm, perm)]
        original = clusters(SimMatrix(scores), tau=0.5)
        shuffled = clusters(SimMatrix(permuted), tau=0.5)
        assert sorted(Counter(original).values()) == sorted(Counter(shuffled).values())
        assert effective_clusters(original) == pytest.approx(
            effective_clusters(shuffled), abs=1e-12
        )

    def test_ids_equal_transitive_closure(self):
        rng = np.random.default_rng(20261019)
        cluster_counts = set()
        for trial in range(500):
            n = int(rng.integers(0, 41))
            tau = (0.0, 1.0, 0.7, float(rng.uniform(0, 1)))[trial % 4]
            shape = trial % 10
            if shape == 0:
                scores = np.ones((n, n))  # all duplicates
            elif shape == 1:
                scores = np.eye(n)
            else:
                # Mostly low scores, so the components vary in size.
                scores = rng.uniform(0, 1, size=(n, n)) ** rng.uniform(1, 30)
                scores[rng.uniform(0, 1, size=(n, n)) < 0.2] = tau
                if shape == 2:
                    scores[rng.uniform(0, 1, size=(n, n)) < 0.1] = np.nan
                scores = np.triu(scores, 1)
                scores = scores + scores.T
                np.fill_diagonal(scores, 1.0)
            expected = closure_cluster_ids(scores, tau)
            assert clusters(SimMatrix(scores), tau=tau) == expected, (trial, n, tau)
            cluster_counts.add(len(set(expected)))
        # The trials cover empty groups, one cluster and many-cluster splits.
        assert {0, 1}.issubset(cluster_counts) and len(cluster_counts) > 20


class TestEffectiveClusters:
    def test_one_cluster(self):
        assert effective_clusters(clusters(SimMatrix(np.ones((6, 6))))) == 1.0

    def test_uniform_singletons(self):
        assert effective_clusters(clusters(SimMatrix(np.eye(6)))) == pytest.approx(6.0)

    def test_two_one_one_split(self):
        expected = math.exp(
            -(0.5 * math.log(0.5) + 0.25 * math.log(0.25) + 0.25 * math.log(0.25))
        )
        value = effective_clusters((0, 0, 1, 2))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_bounds(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            scores = rng.uniform(0, 1, size=(n, n))
            scores = (scores + scores.T) / 2
            np.fill_diagonal(scores, 1.0)
            ids = clusters(SimMatrix(scores), tau=0.6)
            eff = effective_clusters(ids)
            assert 1.0 - 1e-12 <= eff <= max(ids) + 1 + 1e-12 <= n + 1e-12


class TestOneGram:
    def test_identical_sources(self):
        src = "def f(x):\n    return x + 1\n"
        assert one_gram_matrix([src, src]).scores[0, 1] == 1.0

    def test_disjoint_sources(self):
        assert one_gram_matrix(["alpha beta", "gamma delta"]).scores[0, 1] == 0.0

    def test_multiset_overlap(self):
        # Token multisets [a, a, b] and [a, b, b]: intersection size 2.
        assert one_gram_matrix(["a a b", "a b b"]).scores[0, 1] == pytest.approx(2.0 / 3.0)

    def test_empty_conventions(self):
        assert one_gram_matrix(["", ""]).scores[0, 1] == 1.0
        assert one_gram_matrix(["", "x"]).scores[0, 1] == 0.0

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

    def test_matrix_equals_counter_oracle(self, rng):
        # The Dice overlap of each pair's token multisets, by Counter
        # intersection. Sources draw from a small pool of words, so tokens
        # repeat within and across them; some are empty or only spaces.
        words = ["x", "x1", "é", "größe", "变量", "_", "0", "+", "(", ")", ":", "ab", "λ"]

        def dice(a, b):
            ca, cb = Counter(lex_tokens(a)), Counter(lex_tokens(b))
            la, lb = sum(ca.values()), sum(cb.values())
            if la == 0 and lb == 0:
                return 1.0
            if la == 0 or lb == 0:
                return 0.0
            return 2.0 * sum((ca & cb).values()) / (la + lb)

        for _ in range(300):
            n = int(rng.integers(1, 9))
            sources = [
                " ".join(rng.choice(words, size=int(rng.integers(0, 20))))
                for _ in range(n)
            ]
            sources[int(rng.integers(0, n))] = rng.choice(["", "  \n"])
            expected = np.eye(n)
            for i in range(n):
                for j in range(i + 1, n):
                    expected[i, j] = expected[j, i] = dice(sources[i], sources[j])
            assert np.array_equal(one_gram_matrix(sources).scores, expected)

    def test_rename_sensitivity_vs_structural(self):
        # The lexical metric sees renamed programs as different while the
        # structural pipeline does not; that gap is the point of having both.
        lexical = one_gram_matrix(list(RENAMED_PAIR)).scores[0, 1]
        structural = pairwise_matrix([tokenize(s) for s in RENAMED_PAIR]).scores[0, 1]
        assert lexical < structural == 1.0


# Text for the lexical token count. ASCII text is counted from a byte
# class table and other text by the regex, so a third of the examples are
# ASCII only: word, space and punctuation characters, the controls \s also
# matches (\x1c-\x1f), NUL and a lone \r. Another third adds non-ASCII
# letters, digits and spaces; the last is any text.
LEX_ASCII = list("ab_Z09 \t\n\r\v\f\x00\x1c\x1d\x1e\x1f+.(#'\"\\")
LEX_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from(LEX_ASCII)),
    st.text(alphabet=st.sampled_from(LEX_ASCII + ["é", "变", "٣", "²", "\u00a0", "\u2028", "\u3000"])),
    st.text(),
)


class TestCountLexTokens:
    @given(text=LEX_TEXT)
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_equals_regex_count(self, text):
        assert count_lex_tokens(text) == len(lex_tokens(text))


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
