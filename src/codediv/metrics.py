"""Finite-budget executable metrics and embedding-space diversity.

pass@k is estimated from n >= k samples with m correct via the unbiased
estimator 1 - C(n-m, k)/C(n, k), evaluated in the stable product form
1 - prod_{i=n-m+1..n} (1 - k/i) so n in the hundreds never touches large
binomials. The Vendi score is the exponential of the von Neumann entropy
of the cosine-kernel spectrum over sample embeddings: 1 for n identical
vectors, n for n orthonormal ones.
"""

import numpy as np

from .ingest import keyed_records
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
    sample, n >= 1, and no row zero or empty; a row's scale does not matter,
    however small or large. Any other input, an integer beyond the float
    range too, is a ValueError. The score is exp of the Shannon entropy of
    the eigenvalues of K/n, K the cosine similarity kernel of the
    L2-normalized rows. Tiny or negative eigenvalues (floating-point
    residue) are clamped to zero.
    """
    try:
        vectors = np.asarray(vectors, dtype=np.float64)
    except OverflowError as err:  # an int beyond the float range
        raise ValueError(f"embeddings must be numbers within the float range: {err}") from err
    if vectors.ndim != 2:
        raise ValueError("embeddings must be a 2-D array (n, d)")
    if not np.isfinite(vectors).all():
        raise ValueError("embeddings contain NaN or Inf")
    n = vectors.shape[0]
    if n < 1:
        raise ValueError("vendi score needs at least one embedding")
    bad = np.flatnonzero(~vectors.any(axis=1))
    if bad.size:
        raise ValueError(f"embedding of sample {bad[0]} has norm 0.0, not a positive finite number")
    # Each row times the power of two that brings its largest magnitude into
    # [0.5, 1), so no norm underflows or overflows. The scaling is exact: a
    # row's direction, all the cosine kernel reads, keeps every bit.
    vectors = np.ldexp(vectors, -np.frexp(np.abs(vectors).max(axis=1, keepdims=True))[1])
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
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
    idx = [i for i, correct in enumerate(group.correct) if correct]
    return SimMatrix(matrix.scores[np.ix_(idx, idx)])


def load_embeddings(lines):
    """Parse line-delimited embedding records {prompt_id, sample_id, vector}.

    Returns {prompt_id: {sample_id: vector}}, each vector a flat finite
    ``float64`` array that is not zero or empty. Lines are read
    by ``ingest.keyed_records``, so the keys are typed and unique as in a
    corpus. The dimension must be uniform across the whole stream. Every
    bad record is a ValueError naming its line.
    """
    table: dict = {}
    dim = None
    for label, record, (prompt_id, sample_id) in keyed_records(lines, where="embeddings line"):
        if "vector" not in record:
            raise ValueError(f"{label}: missing field 'vector'")
        vector = record["vector"]
        if isinstance(vector, list):
            if any(isinstance(x, bool) for x in vector):
                raise ValueError(f"{label}: vector must be a list of numbers, not booleans")
            # A nested list is left to the flatness check below.
            for x in vector:
                if not isinstance(x, (int, float, list)):
                    raise ValueError(f"{label}: vector must be a list of numbers, got {x!r}")
        try:
            vector = np.asarray(vector, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as err:  # OverflowError: an int beyond the float range
            raise ValueError(f"{label}: vector must be a list of numbers: {err}") from err
        if vector.ndim != 1:
            raise ValueError(f"{label}: vector must be flat")
        if not np.isfinite(vector).all():
            raise ValueError(f"{label}: vector contains NaN or Inf")
        if not vector.any():
            raise ValueError(f"{label}: vector norm is 0.0, not a positive finite number")
        if dim is None:
            dim = vector.size
        elif vector.size != dim:
            raise ValueError(f"{label}: dimension {vector.size} != corpus dimension {dim}")
        table.setdefault(prompt_id, {})[sample_id] = vector
    return table


def embeddings_for_group(table, group) -> np.ndarray:
    """The group's embeddings stacked in sample order: an (n, d) ``float64``
    array, (0, 1) for an empty group."""
    by_sample = table.get(group.prompt_id, {})
    rows = []
    for sample_id in group.sample_ids:
        if sample_id not in by_sample:
            raise ValueError(f"no embedding for prompt {group.prompt_id!r} sample {sample_id}")
        rows.append(by_sample[sample_id])
    return np.stack(rows) if rows else np.zeros((0, 1))
