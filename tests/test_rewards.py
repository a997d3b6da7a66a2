import itertools

import numpy as np
import pytest

from codediv.rewards import (
    MATRIX_OBJECTIVES,
    OBJECTIVES,
    AdvantageVector,
    GroupOutcome,
    advantages,
    base_advantages,
    combined_advantages,
    diversity_advantages,
    passk_loo_advantages,
    pkpo_advantages,
)
from codediv.similarity import SimMatrix

from conftest import pkpo_bruteforce_oracle


def outcome(*flags):
    return GroupOutcome.from_flags(flags)


def all_flag_vectors(n):
    return itertools.product([False, True], repeat=n)


class TestGroupOutcome:
    def test_signed_mapping(self):
        out = outcome(True, False, True)
        assert out.r.tolist() == [1.0, -1.0, 1.0]
        assert out.m == 2
        assert out.n == 3


class TestBaseAdvantages:
    def test_balanced_group_already_centered(self):
        vec = base_advantages(outcome(True, True, False, False))
        assert vec.a.tolist() == [1.0, 1.0, -1.0, -1.0]

    def test_all_correct_no_contrast(self):
        assert base_advantages(outcome(True, True, True)).a.tolist() == [0.0, 0.0, 0.0]

    def test_hand_centering(self):
        vec = base_advantages(outcome(True, False, False))
        assert np.allclose(vec.a, [4 / 3, -2 / 3, -2 / 3], atol=1e-12)

    def test_raw_variant(self):
        vec = base_advantages(outcome(True, False), centered=False)
        assert vec.a.tolist() == [1.0, -1.0]

    def test_centered_sums_to_zero(self):
        for n in range(1, 8):
            for flags in all_flag_vectors(n):
                assert abs(base_advantages(outcome(*flags)).a.sum()) < 1e-9


class TestPassKLoo:
    def test_unique_correct_pivotal(self):
        raw = passk_loo_advantages(outcome(True, False, False), centered=False)
        assert raw.a.tolist() == [2.0, 0.0, 0.0]
        centered = passk_loo_advantages(outcome(True, False, False))
        assert np.allclose(centered.a, [4 / 3, -2 / 3, -2 / 3], atol=1e-12)

    def test_two_correct_nobody_pivotal(self):
        assert passk_loo_advantages(outcome(True, True, False)).a.tolist() == [0.0, 0.0, 0.0]

    def test_all_incorrect_zero(self):
        assert passk_loo_advantages(outcome(False, False, False)).a.tolist() == [0.0, 0.0, 0.0]

    def test_single_sample_convention(self):
        assert passk_loo_advantages(outcome(True)).a.tolist() == [0.0]

    def test_pivotality_law_exhaustive(self):
        # Raw advantage is +2 exactly for the unique correct sample, else 0.
        for n in range(2, 11):
            for flags in all_flag_vectors(n):
                out = outcome(*flags)
                raw = passk_loo_advantages(out, centered=False).a
                m = sum(flags)
                for i, flag in enumerate(flags):
                    if flag and m == 1:
                        assert raw[i] == 2.0
                    else:
                        assert raw[i] == 0.0
                centered = passk_loo_advantages(out).a
                assert abs(centered.sum()) < 1e-9


class TestPkpo:
    def test_closed_form_example(self):
        vec = pkpo_advantages(outcome(True, True, False, False), k=2)
        # C(2,1)/C(3,1) = 2/3 for correct samples, 0 for incorrect.
        assert np.allclose(vec.a, [2 / 3, 2 / 3, 0.0, 0.0], atol=1e-12)

    def test_k_one_is_correctness(self):
        vec = pkpo_advantages(outcome(True, False, True), k=1)
        assert vec.a.tolist() == [1.0, 0.0, 1.0]

    def test_all_incorrect_zero_vector(self):
        assert pkpo_advantages(outcome(False, False, False), k=2).a.tolist() == [0.0] * 3

    def test_all_correct_never_pivotal(self):
        vec = pkpo_advantages(outcome(True, True, True, True), k=2)
        assert vec.a.tolist() == [0.0] * 4

    def test_k_equals_n_matches_group_loo_on_binary_scale(self):
        # Single subset: pkpo equals the {0,1}-scale group LOO, which is the
        # signed-scale raw passk_loo divided by two.
        for flags in all_flag_vectors(5):
            out = outcome(*flags)
            pk = pkpo_advantages(out, k=5).a
            raw_signed = passk_loo_advantages(out, centered=False).a
            assert np.allclose(pk, raw_signed / 2.0, atol=1e-12)

    def test_matches_bruteforce_everywhere(self):
        for n in range(1, 8):
            for flags in all_flag_vectors(n):
                out = outcome(*flags)
                for k in range(1, n + 1):
                    closed = pkpo_advantages(out, k).a
                    brute = pkpo_bruteforce_oracle(out, k)
                    assert np.array_equal(closed, brute), (flags, k)

    def test_monotone_in_m(self):
        n, k = 8, 3
        values = []
        for m in range(1, n + 1):
            out = outcome(*([True] * m + [False] * (n - m)))
            values.append(pkpo_advantages(out, k).a[0])
        assert values == sorted(values, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            pkpo_advantages(outcome(True, False), k=3)
        with pytest.raises(ValueError):
            pkpo_advantages(outcome(True, False), k=0)
        with pytest.raises(ValueError):
            pkpo_bruteforce_oracle(GroupOutcome.from_flags([True] * 21), k=2)


class TestDiversityAdvantages:
    def test_all_duplicates_zero(self):
        vec = diversity_advantages(SimMatrix(np.ones((4, 4))))
        assert np.allclose(vec.a, 0.0, atol=1e-12)

    def test_hand_example(self):
        scores = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        vec = diversity_advantages(SimMatrix(scores))
        assert np.allclose(vec.a, [-2 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_matches_direct_recomputation(self, rng):
        from codediv.similarity import jdiv

        for _ in range(50):
            n = int(rng.integers(3, 9))
            scores = rng.uniform(0, 1, size=(n, n))
            scores = (scores + scores.T) / 2
            np.fill_diagonal(scores, 1.0)
            vec = diversity_advantages(SimMatrix(scores)).a
            full = jdiv(SimMatrix(scores))
            for i in range(n):
                keep = [j for j in range(n) if j != i]
                reduced = jdiv(SimMatrix(scores[np.ix_(keep, keep)]))
                assert vec[i] == pytest.approx(full - reduced, abs=1e-12)
            # Closed form: A_i = (2/(n-2))·(s̄ - u_i), with s̄ the group's
            # mean pairwise similarity and u_i sample i's mean similarity
            # to the others, so the credit's scale shrinks as 1/n.
            off_diagonal = scores.sum(axis=1) - 1.0
            mean_pair = off_diagonal.sum() / (n * (n - 1))
            closed = 2.0 / (n - 2) * (mean_pair - off_diagonal / (n - 1))
            assert vec == pytest.approx(closed, abs=1e-12)

    def test_too_small(self):
        with pytest.raises(ValueError, match="diversity LOO undefined"):
            diversity_advantages(SimMatrix(np.ones((2, 2))))

    def test_duplicate_of_redundant_sample_penalized(self, rng):
        # Both copies of a duplicated at-least-averagely-similar sample get
        # strictly negative advantage whenever some pair is non-duplicate.
        for _ in range(200):
            n = int(rng.integers(2, 8))
            scores = rng.uniform(0, 1, size=(n, n))
            scores = (scores + scores.T) / 2
            np.fill_diagonal(scores, 1.0)
            j = int(np.argmax(scores.sum(axis=1)))
            grown = np.ones((n + 1, n + 1))
            grown[:n, :n] = scores
            grown[n, :n] = scores[j, :]
            grown[:n, n] = scores[:, j]
            grown[n, j] = grown[j, n] = 1.0
            vec = diversity_advantages(SimMatrix(grown)).a
            assert vec[j] < 0.0
            assert vec[n] < 0.0
            assert vec[j] == pytest.approx(vec[n], abs=1e-12)


class TestCombinedAdvantages:
    def _matrix(self, rng, n):
        scores = rng.uniform(0, 1, size=(n, n))
        scores = (scores + scores.T) / 2
        np.fill_diagonal(scores, 1.0)
        return SimMatrix(scores)

    def test_lambda_zero_reduces_to_base(self, rng):
        out = outcome(True, False, True, False)
        matrix = self._matrix(rng, 4)
        combined = combined_advantages(out, matrix, 0.0)
        assert np.array_equal(combined.a, base_advantages(out).a)

    def test_equal_correctness_reduces_to_diversity(self, rng):
        out = outcome(True, True, True)
        matrix = self._matrix(rng, 3)
        combined = combined_advantages(out, matrix, 1.0)
        assert np.allclose(combined.a, diversity_advantages(matrix).a, atol=1e-12)

    def test_componentwise_sum(self, rng):
        out = outcome(True, False, False)
        matrix = self._matrix(rng, 3)
        combined = combined_advantages(out, matrix, 4.0)
        expected = base_advantages(out).a + 4.0 * diversity_advantages(matrix).a
        assert np.allclose(combined.a, expected, atol=1e-12)

    def test_linear_in_lambda(self, rng):
        out = outcome(True, False, True, False, True)
        matrix = self._matrix(rng, 5)
        a0 = combined_advantages(out, matrix, 0.0).a
        a1 = combined_advantages(out, matrix, 1.0).a
        a3 = combined_advantages(out, matrix, 3.0).a
        assert np.allclose(a3, a0 + 3.0 * (a1 - a0), atol=1e-12)

    def test_negative_lambda_rejected(self, rng):
        with pytest.raises(ValueError):
            combined_advantages(outcome(True, False, False), self._matrix(rng, 3), -1.0)
        # NaN passes a "< 0" test, so non-finite values need their own check.
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                combined_advantages(outcome(True, False, False), self._matrix(rng, 3), value)


class TestDispatcher:
    def test_known_objectives(self, rng):
        out = outcome(True, False, False)
        scores = rng.uniform(0, 1, size=(3, 3))
        matrix = SimMatrix((scores + scores.T) / 2)
        np.fill_diagonal(matrix.scores, 1.0)
        for name in OBJECTIVES:
            vec = advantages(name, outcome=out, matrix=matrix, k=2, lambda_div=1.5)
            assert isinstance(vec, AdvantageVector)
            assert len(vec.a) == 3

    def test_only_matrix_objectives_need_a_matrix(self):
        # The CLI builds a similarity matrix only for MATRIX_OBJECTIVES.
        assert set(MATRIX_OBJECTIVES) <= set(OBJECTIVES)
        out = outcome(True, False, False)
        for name in sorted(set(OBJECTIVES) - set(MATRIX_OBJECTIVES)):
            assert len(advantages(name, outcome=out, matrix=None, k=2).a) == 3

    def test_diversity_only_alias(self, rng):
        scores = rng.uniform(0, 1, size=(4, 4))
        matrix = SimMatrix((scores + scores.T) / 2)
        np.fill_diagonal(matrix.scores, 1.0)
        direct = diversity_advantages(matrix).a
        assert np.array_equal(advantages("diversity_only", matrix=matrix).a, direct)

    def test_entropy_group_credit_equals_base(self):
        out = outcome(True, False, True)
        assert np.array_equal(advantages("entropy", outcome=out).a, base_advantages(out).a)

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            advantages("mystery", outcome=outcome(True))
