"""Finite-budget executable metrics and embedding-space diversity.

pass@k is estimated from n >= k samples with m correct via the unbiased
estimator 1 - C(n-m, k)/C(n, k), evaluated in the stable product form
1 - prod_{i=n-m+1..n} (1 - k/i) so n in the hundreds never touches large
binomials. The Vendi score is the exponential of the von Neumann entropy
of the cosine-kernel spectrum over sample embeddings: 1 for n identical
vectors, n for n orthonormal ones.
"""

import json

import numpy as np

from .similarity import SimMatrix

EIGENVALUE_TOLERANCE = 1e-10


def pass_at_k(n: int, m: int, k: int) -> float:
    """Unbiased pass@k estimate from n samples with m correct."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the group size n={n}")
    if not 0 <= m <= n:
        raise ValueError(f"m={m} must be within [0, n={n}]")
    if n - m < k:
        return 1.0
    return float(1.0 - np.prod(1.0 - k / np.arange(n - m + 1, n + 1)))


def vendi_score(vectors) -> float:
    """Effective number of distinct samples in embedding space.

    ``vectors`` is an (n, d) array-like of finite values, one row per
    sample, n >= 1 and no zero row. The score is exp of the Shannon entropy
    of the eigenvalues of K/n, K the cosine similarity kernel of the
    L2-normalized rows. Tiny or negative eigenvalues (floating-point
    residue) are clamped to zero.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("embeddings must be a 2-D array (n, d)")
    if not np.isfinite(vectors).all():
        raise ValueError("embeddings contain NaN or Inf")
    n = vectors.shape[0]
    if n < 1:
        raise ValueError("vendi score needs at least one embedding")
    norms = np.linalg.norm(vectors, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm embedding for sample {int(zero[0])}")
    unit = vectors / norms[:, None]
    kernel = unit @ unit.T
    eigvals = np.linalg.eigvalsh(kernel / n)
    eigvals = np.where(eigvals < EIGENVALUE_TOLERANCE, 0.0, eigvals)
    positive = eigvals[eigvals > 0.0]
    entropy = float(-(positive * np.log(positive)).sum())
    return float(np.exp(entropy))


def correct_only_view(group, matrix: SimMatrix) -> SimMatrix:
    """The rows and columns of ``matrix`` that belong to correct samples.

    Sample order is preserved. The view may be empty (``n == 0``); callers
    then report the correct-only diagnostics as absent.
    """
    idx = [i for i, s in enumerate(group.samples) if s.correct]
    return SimMatrix(matrix.scores[np.ix_(idx, idx)])


def load_embeddings(lines):
    """Parse line-delimited embedding records {prompt_id, sample_id, vector}.

    Returns {prompt_id: {sample_id: vector}}, each vector a flat finite
    ``float64`` array. The keys are typed as in a corpus record: a string
    and an integer >= 0. The dimension must be uniform across the whole
    stream. Every bad record is a ValueError naming its line.
    """
    table: dict = {}
    dim = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"embeddings line {lineno}: invalid JSON: {err}") from err
        try:
            prompt_id = record["prompt_id"]
            sample_id = record["sample_id"]
            vector = record["vector"]
        except (KeyError, TypeError) as err:
            raise ValueError(f"embeddings line {lineno}: missing field: {err}") from err
        if not isinstance(prompt_id, str):
            raise ValueError(f"embeddings line {lineno}: field 'prompt_id' must be a string")
        if isinstance(sample_id, bool) or not isinstance(sample_id, int) or sample_id < 0:
            raise ValueError(f"embeddings line {lineno}: field 'sample_id' must be an integer >= 0")
        if isinstance(vector, list) and any(isinstance(x, bool) for x in vector):
            raise ValueError(
                f"embeddings line {lineno}: vector must be a list of numbers, not booleans"
            )
        try:
            vector = np.asarray(vector, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise ValueError(f"embeddings line {lineno}: vector must be a list of numbers: {err}") from err
        if vector.ndim != 1:
            raise ValueError(f"embeddings line {lineno}: vector must be flat")
        if not np.isfinite(vector).all():
            raise ValueError(f"embeddings line {lineno}: vector contains NaN or Inf")
        if dim is None:
            dim = vector.size
        elif vector.size != dim:
            raise ValueError(
                f"embeddings line {lineno}: dimension {vector.size} != corpus dimension {dim}"
            )
        table.setdefault(prompt_id, {})[sample_id] = vector
    return table


def embeddings_for_group(table, group) -> np.ndarray:
    """The group's embeddings stacked in sample order: an (n, d) ``float64``
    array, (0, 1) for an empty group."""
    by_sample = table.get(group.prompt_id, {})
    rows = []
    for s in group.samples:
        if s.sample_id not in by_sample:
            raise ValueError(
                f"no embedding for prompt {group.prompt_id!r} sample {s.sample_id}"
            )
        rows.append(by_sample[s.sample_id])
    return np.stack(rows) if rows else np.zeros((0, 1))
