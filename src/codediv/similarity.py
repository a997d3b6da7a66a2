"""Pairwise program similarity and group redundancy diagnostics.

The pairwise score is greedy string tiling over structural token streams
with the Dice-style average metric 2*matched/(len_a+len_b). Group-level
diagnostics derived from the resulting matrix: diversity (one minus the
mean pairwise similarity), threshold clustering via connected components,
and the effective cluster count (exponential of the cluster-size entropy).

A lexical 1-gram variant over surface tokens is provided as a cheaper,
rename-sensitive control metric.

The GST inner loop dominates runtime on real corpora. A pair goes to the
compiled dynamic-programming kernel (codediv._gst) when the extension was
built and both streams are at most EXACT_MATCH_LIMIT tokens; every other
pair goes to the hash-accelerated pure-Python matcher in codediv._gst_py.
The tests check both against a brute-force tiling oracle, tile for tile.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _gst_py
from .tokenizer import TokenStream

try:
    from . import _gst as _gst_ext
except ImportError:  # extension not built
    _gst_ext = None

#: Name of the exact-GST backend picked at import.
GST_BACKEND = "compiled" if _gst_ext is not None else "python"

#: Streams above this length go through the hash-accelerated matcher.
EXACT_MATCH_LIMIT = 10_000

DEFAULT_MIN_MATCH = 5
DEFAULT_TAU = 0.7


@dataclass(frozen=True)
class MatchSet:
    """Non-overlapping tiles from one greedy-string-tiling run."""

    tiles: tuple  # ((start_a, start_b, length), ...)
    matched_tokens: int

    @classmethod
    def from_tiles(cls, tiles):
        return cls(tiles=tuple(tiles), matched_tokens=sum(t[2] for t in tiles))


def _as_ids(stream):
    if isinstance(stream, TokenStream):
        return stream.ids
    return np.ascontiguousarray(stream, dtype=np.intc)


def gst_match(a, b, min_match=DEFAULT_MIN_MATCH):
    """Greedy string tiling between two token streams (or id arrays).

    Repeatedly marks the longest common unmarked run of at least
    ``min_match`` tokens; ties break to the smallest start in ``a``, then
    in ``b``. Deterministic for fixed inputs.
    """
    if min_match < 1:
        raise ValueError("min_match must be >= 1")
    a_ids = _as_ids(a)
    b_ids = _as_ids(b)
    if _gst_ext is not None and max(len(a_ids), len(b_ids)) <= EXACT_MATCH_LIMIT:
        tiles = _gst_ext.exact_tiles(a_ids, b_ids, min_match)
    else:
        tiles = _gst_py.hashed_tiles(a_ids, b_ids, min_match)
    return MatchSet.from_tiles(tiles)


def avg_similarity(match: MatchSet, len_a: int, len_b: int) -> float:
    """Average similarity 2*matched/(len_a+len_b), clamped to [0, 1].

    Two empty streams count as duplicates (1.0); one empty stream scores 0.
    """
    if len_a == 0 and len_b == 0:
        return 1.0
    if len_a == 0 or len_b == 0:
        return 0.0
    return min(1.0, max(0.0, 2.0 * match.matched_tokens / (len_a + len_b)))


def similarity_score(a, b, min_match=DEFAULT_MIN_MATCH) -> float:
    la = len(_as_ids(a))
    lb = len(_as_ids(b))
    return avg_similarity(gst_match(a, b, min_match), la, lb)


@dataclass
class SimMatrix:
    """Symmetric pairwise similarity scores for one sampled group."""

    scores: np.ndarray  # (n, n) float64, unit diagonal

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2 or self.scores.shape[0] != self.scores.shape[1]:
            raise ValueError("similarity matrix must be square")

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SimMatrix):
            return NotImplemented
        return self.scores.shape == other.scores.shape and bool(
            np.array_equal(self.scores, other.scores)
        )

    # Stable text serialization for outputs and golden tests: repr
    # round-trips float64 exactly.

    def to_text(self) -> str:
        lines = [str(self.n)]
        for row in self.scores:
            lines.append(" ".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SimMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        n = int(lines[0])
        rows = [[float(v) for v in ln.split()] for ln in lines[1 : n + 1]]
        return cls(np.array(rows, dtype=np.float64).reshape(n, n))


def pairwise_matrix(group, min_match=DEFAULT_MIN_MATCH) -> SimMatrix:
    """Score every unordered pair in a group of token streams."""
    ids = [_as_ids(s) for s in group]
    n = len(ids)
    if n < 1:
        raise ValueError("pairwise_matrix needs at least one stream")
    scores = np.eye(n, dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            s = avg_similarity(
                gst_match(ids[i], ids[j], min_match), len(ids[i]), len(ids[j])
            )
            scores[i, j] = s
            scores[j, i] = s
    return SimMatrix(scores)


def _scores_of(matrix):
    if isinstance(matrix, SimMatrix):
        return matrix.scores
    return np.asarray(matrix, dtype=np.float64)


def jdiv(matrix) -> float:
    """Group diversity: one minus the mean pairwise similarity."""
    scores = _scores_of(matrix)
    n = scores.shape[0]
    if n < 2:
        raise ValueError("JDiv undefined for groups smaller than 2")
    iu = np.triu_indices(n, k=1)
    return float(1.0 - scores[iu].mean())


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


@dataclass
class Clustering:
    """Connected components of the similarity-threshold graph."""

    assignment: tuple  # sample index -> cluster id
    sizes: dict = field(repr=False)  # cluster id -> member count
    tau: float = DEFAULT_TAU

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)


def clusters(matrix, tau=DEFAULT_TAU, strict=True) -> Clustering:
    """Cluster samples whose similarity exceeds ``tau``.

    Edges use strict inequality by default ("exceeds"); pass strict=False
    for >=. Cluster ids are assigned in order of each cluster's smallest
    member index.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    scores = _scores_of(matrix)
    n = scores.shape[0]
    uf = _UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            linked = scores[i, j] > tau if strict else scores[i, j] >= tau
            if linked:
                uf.union(i, j)
    ids = {}
    assignment = []
    for i in range(n):
        root = uf.find(i)
        if root not in ids:
            ids[root] = len(ids)
        assignment.append(ids[root])
    sizes = Counter(assignment)
    return Clustering(assignment=tuple(assignment), sizes=dict(sizes), tau=tau)


def effective_clusters(clustering: Clustering) -> float:
    """exp of the Shannon entropy of the cluster-size distribution."""
    total = sum(clustering.sizes.values())
    if total == 0:
        raise ValueError("effective_clusters needs at least one sample")
    entropy = 0.0
    for size in clustering.sizes.values():
        p = size / total
        if p > 0.0:
            entropy -= p * math.log(p)
    return math.exp(entropy)


# Lexical tokens: identifiers/numbers verbatim, every other non-space
# character on its own. Used by the 1-gram metric and by length reporting.
_LEX_RE = re.compile(r"\w+|[^\w\s]")


def lex_tokens(text: str):
    return _LEX_RE.findall(text)


def _lex_counts(text):
    tokens = lex_tokens(text)
    return Counter(tokens), len(tokens)


def _dice(a, b):
    (ca, la), (cb, lb) = a, b
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    common = sum((ca & cb).values())
    return 2.0 * common / (la + lb)


def one_gram_similarity(a: str, b: str) -> float:
    """Sorensen-Dice overlap of lexical token multisets."""
    return _dice(_lex_counts(a), _lex_counts(b))


def one_gram_matrix(sources) -> SimMatrix:
    n = len(sources)
    if n < 1:
        raise ValueError("one_gram_matrix needs at least one source")
    counts = [_lex_counts(src) for src in sources]
    scores = np.eye(n, dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            s = _dice(counts[i], counts[j])
            scores[i, j] = s
            scores[j, i] = s
    return SimMatrix(scores)


def one_gram_div(sources) -> float:
    """1-gram diversity: one minus mean pairwise lexical overlap."""
    if len(sources) < 2:
        raise ValueError("JDiv undefined for groups smaller than 2")
    return jdiv(one_gram_matrix(sources))
