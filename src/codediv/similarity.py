"""Pairwise program similarity and group redundancy diagnostics.

The pairwise score is greedy string tiling over structural token streams
with the Dice-style average metric 2*matched/(len_a+len_b). Group-level
diagnostics derived from the resulting matrix: diversity (one minus the
mean pairwise similarity), threshold clustering via connected components,
and the effective cluster count (exponential of the cluster-size entropy).

A lexical 1-gram variant over surface tokens is provided as a cheaper,
rename-sensitive control metric.

Each tiling round marks the longest common unmarked run of at least
``min_match`` tokens; ties go to the smallest start in the first stream,
then the smallest start in the second. The run is found by binary search on
its length, comparing window hashes mod 2^61-1; every hash hit is verified
against the tokens, so collisions cannot change a tile. Marking only
removes runs, so tile lengths never grow from one round to the next and
each search is capped at the previous tile's length. The tests check the
tiles against a brute-force extension-scan oracle, tile for tile.

A group's matrix tiles each distinct ordered pair of streams once. Renamed
copies, the redundancy this package measures, share one structural stream,
so their cells reuse a score instead of tiling again. The pair is keyed in
order (lower sample index first), not as a set, because the tie break makes
tiling asymmetric; the matrix is then the same as tiling every pair.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .tokenizer import TokenStream

#: There is one matcher, written in Python. The name must stay:
#: report.json and the manifests record it as ``gst_backend``, and
#: ``perfbench/run.py`` reads ``codediv.GST_BACKEND`` directly.
GST_BACKEND = "python"

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


_MOD = (1 << 61) - 1
_BASE = 1_000_003


class _PrefixHash:
    """Polynomial prefix hashes mod 2^61-1 for O(1) window hashes."""

    def __init__(self, ids):
        n = len(ids)
        h = [0] * (n + 1)
        p = [1] * (n + 1)
        for i in range(n):
            h[i + 1] = (h[i] * _BASE + int(ids[i]) + 1) % _MOD
            p[i + 1] = (p[i] * _BASE) % _MOD
        self._h = h
        self._p = p

    def window(self, start, length):
        return (self._h[start + length] - self._h[start] * self._p[length]) % _MOD


_UNMARKED = re.compile(rb"\x00+")


def _free_runs(marked):
    """Maximal [start, stop) spans of unmarked positions."""
    return [m.span() for m in _UNMARKED.finditer(marked)]


def _first_window_match(a, b, ha, hb, runs_a, runs_b, length):
    """Smallest (i, j) where an unmarked common window of ``length`` starts."""
    table = {}
    for s, e in runs_b:
        for j in range(s, e - length + 1):
            table.setdefault(hb.window(j, length), []).append(j)
    if not table:
        return None
    for s, e in runs_a:
        for i in range(s, e - length + 1):
            candidates = table.get(ha.window(i, length))
            if candidates is None:
                continue
            window = a[i : i + length]
            for j in candidates:
                if np.array_equal(window, b[j : j + length]):
                    return i, j
    return None


def _hashed_tiles(a, b, min_match):
    """All tiles of the greedy string tiling of int arrays ``a`` and ``b``."""
    la, lb = len(a), len(b)
    tiles = []
    if la == 0 or lb == 0:
        return tiles
    ha, hb = _PrefixHash(a), _PrefixHash(b)
    marked_a = bytearray(la)
    marked_b = bytearray(lb)
    while True:
        runs_a = _free_runs(marked_a)
        runs_b = _free_runs(marked_b)
        if not runs_a or not runs_b:
            break
        cap = min(max(e - s for s, e in runs_a), max(e - s for s, e in runs_b))
        if cap < min_match:
            break
        # The longest common unmarked run has a unique length L*; any common
        # window of length L* starts exactly where a maximal run starts, so
        # the first hit at L* is the tie break's run.
        lo, hi = min_match, min(cap, tiles[-1][2]) if tiles else cap
        best = None
        while lo <= hi:
            mid = (lo + hi) // 2
            hit = _first_window_match(a, b, ha, hb, runs_a, runs_b, mid)
            if hit is None:
                hi = mid - 1
            else:
                best = (mid, hit)
                lo = mid + 1
        if best is None:
            break
        length, (i, j) = best
        tiles.append((i, j, length))
        marked_a[i : i + length] = b"\x01" * length
        marked_b[j : j + length] = b"\x01" * length
    return tiles


def gst_match(a, b, min_match=DEFAULT_MIN_MATCH):
    """Greedy string tiling between two token streams (or id arrays).

    Repeatedly marks the longest common unmarked run of at least
    ``min_match`` tokens; ties break to the smallest start in ``a``, then
    in ``b``. Deterministic for fixed inputs.
    """
    if min_match < 1:
        raise ValueError("min_match must be >= 1")
    return MatchSet.from_tiles(_hashed_tiles(_as_ids(a), _as_ids(b), min_match))


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
    """Score every unordered pair in a group of token streams.

    Streams with the same ids are represented by the first of them, and each
    distinct ordered pair of representatives is tiled once; every cell that
    repeats the pair gets the same score. The pair keeps its order (lower
    index first) because the tie break makes tiling asymmetric:
    ``gst_match([0,0,1,0], [1,0,0,0], 2)`` matches 2 tokens, the reversed
    call 4. So the matrix equals tiling every pair (i, j), i < j, directly.
    """
    ids = [_as_ids(s) for s in group]
    n = len(ids)
    if n < 1:
        raise ValueError("pairwise_matrix needs at least one stream")
    # _as_ids returns C-contiguous intc arrays, so equal bytes mean equal ids.
    first = {}
    rep = [first.setdefault(a.tobytes(), i) for i, a in enumerate(ids)]
    scored = {}  # (rep[i], rep[j]) -> score
    scores = np.eye(n, dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            key = (rep[i], rep[j])
            s = scored.get(key)
            if s is None:
                a, b = ids[key[0]], ids[key[1]]
                s = avg_similarity(gst_match(a, b, min_match), len(a), len(b))
                scored[key] = s
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
