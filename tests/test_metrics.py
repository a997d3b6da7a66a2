import itertools
import json
import math

import numpy as np
import pytest

from codediv.cli import main
from codediv.ingest import parse_corpus
from codediv.metrics import (
    correct_only_view,
    embeddings_for_group,
    load_embeddings,
    pass_at_k,
    vendi_score,
)
from codediv.similarity import SimMatrix, jdiv

from conftest import BAD_NORM_VECTORS, group_of


def pass_at_k_enumeration(n, m, k):
    """Oracle: fraction of k-subsets of n samples hitting >= 1 correct.

    The first m indices are the correct samples; enumeration over
    itertools.combinations is independent of the product-form estimator.
    """
    hits = 0
    total = 0
    for subset in itertools.combinations(range(n), k):
        total += 1
        if any(i < m for i in subset):
            hits += 1
    return hits / total


class TestPassAtK:
    def test_none_correct(self):
        assert pass_at_k(5, 0, 2) == 0.0

    def test_all_correct(self):
        assert pass_at_k(5, 5, 1) == 1.0

    def test_enumerated_example(self):
        # 10 2-subsets of 5 samples, 7 contain one of the 2 correct.
        assert pass_at_k_enumeration(5, 2, 2) == pytest.approx(0.7)
        assert pass_at_k(5, 2, 2) == pytest.approx(0.7, abs=1e-12)
        assert type(pass_at_k(5, 2, 2)) is float and type(pass_at_k(5, 4, 2)) is float

    def test_boundary_value_one(self):
        assert pass_at_k(5, 4, 2) == 1.0  # n - m < k
        assert pass_at_k(3, 3, 3) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pass_at_k(5, 2, 6)
        with pytest.raises(ValueError):
            pass_at_k(5, 2, 0)
        with pytest.raises(ValueError):
            pass_at_k(5, 6, 2)

    def test_matches_enumeration_small(self):
        for n in range(1, 9):
            for m in range(0, n + 1):
                for k in range(1, n + 1):
                    expected = pass_at_k_enumeration(n, m, k)
                    assert pass_at_k(n, m, k) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_k_and_m(self):
        n = 12
        for m in range(n + 1):
            values = [pass_at_k(n, m, k) for k in range(1, n + 1)]
            assert values == sorted(values)
        for k in (1, 4, 9):
            values = [pass_at_k(n, m, k) for m in range(n + 1)]
            assert values == sorted(values)

    def test_pass_at_one_is_success_rate(self):
        for n in (1, 7, 200):
            for m in (0, n // 2, n):
                assert pass_at_k(n, m, 1) == pytest.approx(m / n, abs=1e-12)

    def test_large_n_no_overflow(self):
        value = pass_at_k(200, 37, 100)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(1.0 - math.comb(163, 100) / math.comb(200, 100), rel=1e-12)


class TestDatasetPassAtK:
    """The dataset pass@k of ``codediv report``: the unweighted mean over prompts."""

    def _corpus(self, tmp_path, spec):
        lines = [
            json.dumps({"prompt_id": pid, "sample_id": sid, "source": f"x = {sid}\n", "correct": sid < m})
            for pid, (n, m) in spec.items()
            for sid in range(n)
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        return corpus

    def _dataset_pass_at(self, tmp_path, spec, k):
        corpus = self._corpus(tmp_path, spec)
        out = tmp_path / "out"
        assert main(["report", "--corpus", str(corpus), "--k", str(k), "--out", str(out)]) == 0
        with open(out / "report.json") as fh:
            report = json.load(fh)
        prompts = report["prompts"]
        for pid, (n, m) in spec.items():
            assert prompts[pid]["pass_at"][str(k)] == pass_at_k(n, m, k)
        return report["dataset"]["pass_at"][str(k)]

    def test_mean_over_prompts(self, tmp_path):
        # Unequal group sizes tell an unweighted mean from a sample-weighted one.
        value = self._dataset_pass_at(tmp_path, {"a": (5, 2), "b": (3, 0)}, 2)
        expected = (pass_at_k(5, 2, 2) + pass_at_k(3, 0, 2)) / 2
        assert value == pytest.approx(expected, abs=1e-12)

    def test_single_prompt(self, tmp_path):
        value = self._dataset_pass_at(tmp_path, {"a": (4, 1)}, 2)
        assert value == pytest.approx(pass_at_k(4, 1, 2))

    def test_all_correct_gives_one(self, tmp_path):
        assert self._dataset_pass_at(tmp_path, {"a": (3, 3), "b": (5, 5)}, 2) == 1.0

    def test_undersized_group_names_prompt(self, tmp_path, capsys):
        # Only the undersized prompt is named, wherever it sorts.
        corpus = self._corpus(tmp_path, {"big": (5, 2), "tiny": (1, 1)})
        out = tmp_path / "out"
        assert main(["report", "--corpus", str(corpus), "--k", "1,3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: param: pass@3 needs n >= 3; prompt 'tiny' has n=1\n"
        assert not out.exists()


class TestVendiScore:
    def test_identical_vectors(self):
        vectors = np.tile([1.0, 2.0, 3.0], (5, 1))
        assert vendi_score(vectors) == pytest.approx(1.0, abs=1e-9)

    def test_orthonormal_vectors(self):
        assert vendi_score(np.eye(7)) == pytest.approx(7.0, abs=1e-9)

    def test_duplicate_plus_orthogonal(self):
        # Kernel eigenvalues {2, 1, 0}/3: exp of the {2/3, 1/3} entropy.
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        expected = math.exp(-(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3)))
        assert vendi_score(vectors) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(1.8899, abs=1e-4)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(6, 4))
        scaled = vectors * rng.uniform(0.1, 10.0, size=(6, 1))
        assert vendi_score(scaled) == pytest.approx(vendi_score(vectors), abs=1e-9)

    def test_reorder_and_rotation_invariance(self):
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(10, 6))
        base = vendi_score(vectors)
        perm = rng.permutation(10)
        assert vendi_score(vectors[perm]) == pytest.approx(base, abs=1e-9)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        assert vendi_score(vectors @ q) == pytest.approx(base, abs=1e-8)

    def test_zero_norm_rejected(self):
        vectors = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="sample 1"):
            vendi_score(vectors)

    @pytest.mark.parametrize("vector", BAD_NORM_VECTORS.values(), ids=BAD_NORM_VECTORS)
    def test_norm_must_be_positive_and_finite(self, vector):
        # The suite turns a numpy RuntimeWarning into an error, so this also
        # checks that an overflowing norm is refused without one.
        with pytest.raises(ValueError, match="^embedding of sample 0 has norm (0.0|inf), not a positive finite number$"):
            vendi_score([vector, [1.0] * len(vector)])

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="2-D"):
            vendi_score([1.0, 2.0])
        with pytest.raises(ValueError, match="at least one"):
            vendi_score(np.zeros((0, 3)))

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            vectors = rng.normal(size=(n, 5))
            value = vendi_score(vectors)
            assert 1.0 - 1e-9 <= value <= n + 1e-9


class TestCorrectOnlyView:
    def _group(self, flags):
        lines = [
            json.dumps(
                {"prompt_id": "p", "sample_id": i, "source": f"v = {i}\n", "correct": flag}
            )
            for i, flag in enumerate(flags)
        ]
        return group_of(parse_corpus(lines), "p")

    def test_all_correct_identity(self):
        group = self._group([True, True, True])
        matrix = SimMatrix(np.eye(3))
        assert correct_only_view(group, matrix) == matrix

    def test_none_correct_empty(self):
        group = self._group([False, False])
        sub_matrix = correct_only_view(group, SimMatrix(np.eye(2)))
        assert sub_matrix.n == 0
        with pytest.raises(ValueError):
            jdiv(sub_matrix)  # reported as absent by callers

    def test_index_selection(self):
        group = self._group([True, False, True])
        scores = np.array([[1.0, 0.2, 0.8], [0.2, 1.0, 0.4], [0.8, 0.4, 1.0]])
        sub_matrix = correct_only_view(group, SimMatrix(scores))
        assert sub_matrix.scores.tolist() == [[1.0, 0.8], [0.8, 1.0]]

    def test_duplicate_correct_samples_have_zero_jdiv(self):
        group = self._group([True, False, True])
        scores = np.array([[1.0, 0.1, 1.0], [0.1, 1.0, 0.1], [1.0, 0.1, 1.0]])
        sub_matrix = correct_only_view(group, SimMatrix(scores))
        assert jdiv(sub_matrix) == 0.0


class TestEmbeddingIO:
    def test_load_and_align(self):
        lines = [
            json.dumps({"prompt_id": "p", "sample_id": 1, "vector": [0.0, 1.0]}),
            json.dumps({"prompt_id": "p", "sample_id": 0, "vector": [1.0, 0.0]}),
        ]
        table = load_embeddings(lines)
        corpus = parse_corpus(
            [
                json.dumps({"prompt_id": "p", "sample_id": 0, "source": "a", "correct": True}),
                json.dumps({"prompt_id": "p", "sample_id": 1, "source": "b", "correct": True}),
            ]
        )
        group = group_of(corpus, "p")
        emb = embeddings_for_group(table, group)
        assert emb.dtype == np.float64 and emb.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_dimension_mismatch(self):
        lines = [
            json.dumps({"prompt_id": "p", "sample_id": 0, "vector": [1.0, 0.0]}),
            json.dumps({"prompt_id": "p", "sample_id": 1, "vector": [1.0]}),
        ]
        with pytest.raises(ValueError, match="line 2"):
            load_embeddings(lines)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            load_embeddings([json.dumps({"prompt_id": "p", "sample_id": 0, "vector": [float("nan")]})])
        with pytest.raises(ValueError, match="NaN or Inf"):
            vendi_score(np.array([[np.inf, 1.0]]))

    @pytest.mark.parametrize(
        "vector", [["a"], [[1], [2, 3]], {"x": 1.0}, [True, False]], ids=repr
    )
    def test_vector_checked_with_its_line(self, vector):
        lines = [
            json.dumps({"prompt_id": "p", "sample_id": 0, "vector": [1.0]}),
            json.dumps({"prompt_id": "p", "sample_id": 1, "vector": vector}),
        ]
        with pytest.raises(ValueError, match="^embeddings line 2: vector must be a list of numbers"):
            load_embeddings(lines)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("prompt_id", ["p"]),
            ("prompt_id", 3),
            ("sample_id", {"a": 1}),
            ("sample_id", True),
            ("sample_id", -1),
            ("sample_id", 0.0),
            ("sample_id", "0"),
        ],
    )
    def test_key_types_checked(self, key, value):
        record = {"prompt_id": "p", "sample_id": 0, "vector": [1.0]}
        record[key] = value
        lines = [json.dumps({"prompt_id": "p", "sample_id": 1, "vector": [1.0]}), json.dumps(record)]
        with pytest.raises(ValueError, match=f"^embeddings line 2: field '{key}' must be"):
            load_embeddings(lines)

    @pytest.mark.parametrize("vector", BAD_NORM_VECTORS.values(), ids=BAD_NORM_VECTORS)
    def test_norm_must_be_positive_and_finite(self, vector):
        lines = [
            json.dumps({"prompt_id": "p", "sample_id": 0, "vector": [1.0, 0.0]}),
            json.dumps({"prompt_id": "p", "sample_id": 1, "vector": vector}),
        ]
        with pytest.raises(ValueError, match="^embeddings line 2: vector norm is (0.0|inf), not a positive finite number$"):
            load_embeddings(lines)

    def test_missing_vector_named(self):
        with pytest.raises(ValueError, match="^embeddings line 1: missing field 'vector'$"):
            load_embeddings([json.dumps({"prompt_id": "p", "sample_id": 0})])

    def test_missing_sample_named(self):
        corpus = parse_corpus([json.dumps({"prompt_id": "p", "sample_id": 5, "source": "a", "correct": True})])
        group = group_of(corpus, "p")
        with pytest.raises(ValueError, match="sample 5"):
            embeddings_for_group({}, group)
