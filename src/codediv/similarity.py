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
then the smallest start in the second. Windows are compared by exact rank
keys: prefix doubling ranks every 2^q-gram of the streams, concatenated,
and a window of length L, 2^q <= L < 2^(q+1), is keyed by the ranks of its
first and last 2^q-grams. A window inside one stream reads only that
stream's tokens, so equal keys mean equal windows in any two streams;
there is nothing to verify and any integer ids work.

A pair is tiled maximal matches first, as in RKR-GST (Wise 1993), on which
JPlag is built. Its equal k-grams (k = ``min_match``) are found by
searching the first stream's keys among the second's, sorted beforehand,
and join along their diagonals into the maximal common runs, which a heap
hands out longest first, in tie-break order; a run that overlaps an
earlier tile goes back as its unmarked pieces. Long repetitive pairs have
millions of k-gram hits but few runs. A pair with more than
``PROBE_HITS_PER_TOKEN`` hits per token is therefore tiled by binary search
on each round's tile length instead, from rank tables of that pair alone,
with each search capped at the previous tile's length. The tests check both
against a brute-force extension-scan oracle, tile for tile.

A group's matrix ranks its distinct streams and sorts their k-gram keys
once; each distinct ordered pair then only joins presorted keys. Renamed
copies, the redundancy this package measures, share one structural stream,
so their cells reuse a score instead of tiling again. The pair is keyed in
order (lower sample index first), not as a set, because the tie break makes
tiling asymmetric; the matrix is then the same as tiling every pair.
"""

import heapq
import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .tokenizer import TokenStream

#: Tiling is Python and NumPy, with no compiled backend. The name must stay:
#: report.json and the manifests record it as ``gst_backend``, and
#: ``perfbench/run.py`` reads ``codediv.GST_BACKEND`` directly.
GST_BACKEND = "python"

DEFAULT_MIN_MATCH = 5
DEFAULT_TAU = 0.7

#: A pair with more exact k-gram hits than this many per token is tiled by
#: length probes instead: repetitive streams give hits by the million but
#: few runs. On random pairs of 100-600 tokens the two paths cost about the
#: same at 4-16 hits per token.
PROBE_HITS_PER_TOKEN = 8


@dataclass(frozen=True)
class MatchSet:
    """Non-overlapping tiles from one greedy-string-tiling run."""

    tiles: tuple  # ((start_a, start_b, length), ...)
    matched_tokens: int

    @classmethod
    def from_tiles(cls, tiles):
        return cls(tiles=tuple(tiles), matched_tokens=sum(t[2] for t in tiles))


def _as_ids(stream):
    """C-contiguous int64 ids of a token stream or a 1-D integer sequence."""
    if isinstance(stream, TokenStream):
        stream = stream.ids
    ids = np.asarray(stream)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError(f"token ids must be a 1-D integer sequence, got {ids.dtype} {ids.shape}")
    if ids.dtype == np.uint64 and ids.size and ids.max() > np.iinfo(np.int64).max:
        raise ValueError("token ids must fit in int64")
    return np.ascontiguousarray(ids, dtype=np.int64)


def _ranks(values):
    """The rank of each value among the distinct ``values``, from 0."""
    return np.unique(values, return_inverse=True)[1].ravel()  # shape differs in numpy 2.0.x


def _rank_tables(tables, levels):
    """Extend prefix-doubling rank tables in place up to level ``levels``.

    ``r[q][p]`` is the rank of the 2^q-gram at ``p`` among those of one
    array; ``tables`` holds levels 0 to some q. Level q+1 ranks the pairs
    (r_q[p], r_q[p+2^q]+1), with 0 past the end, so equal ranks mean equal
    grams.
    """
    r = tables[-1]
    n = len(r)
    for q in range(len(tables) - 1, levels):
        span = 1 << q
        nxt = np.zeros(n, dtype=np.int64)
        nxt[: max(n - span, 0)] = r[span:] + 1
        r = _ranks(r * (n + 1) + nxt)
        tables.append(r)
    return tables


def _window_keys(ranks, starts, length):
    """Exact keys of the windows of ``length`` tokens at ``starts``.

    A window is keyed by the ranks of its first and last 2^q-grams,
    2^q <= length < 2^(q+1), so equal keys mean equal windows.
    """
    q = length.bit_length() - 1
    r = ranks[q]
    return r[starts] * (len(r) + 1) + r[starts + (length - (1 << q))]


def _free_run_lengths(marked):
    """Distance from each position to the next marked one (or the end)."""
    pos = np.arange(len(marked))
    stop = np.where(marked, pos, len(marked))
    return np.minimum.accumulate(stop[::-1])[::-1] - pos


def _probe_tiles(a, b, min_match, ranks):
    """Tiles found by binary-searching each round's tile length.

    ``ranks`` holds the low levels of ``_rank_tables`` over ``a`` then
    ``b``; the levels the probes need are added to it.
    """
    la, lb = len(a), len(b)
    n = la + lb
    _rank_tables(ranks, min(la, lb).bit_length() - 1)
    marked = np.zeros(n, dtype=bool)  # a's positions, then b's
    tiles = []

    def first_hit(run, length):
        # ``run`` holds each position's free-run length, so windows over
        # marked tokens are left out.
        ps = np.flatnonzero(run >= length)
        keys = _window_keys(ranks, ps, length).tolist()
        ps = ps.tolist()
        split = bisect_left(ps, la)
        first = dict(zip(reversed(keys[split:]), reversed(ps[split:])))
        for key, i in zip(keys[:split], ps[:split]):
            j = first.get(key)
            if j is not None:
                return i, j - la
        return None

    while True:
        run = np.concatenate((_free_run_lengths(marked[:la]), _free_run_lengths(marked[la:])))
        cap = min(int(run[:la].max()), int(run[la:].max()))
        if tiles:
            cap = min(cap, tiles[-1][2])
        # The longest common unmarked run has a unique length L*; any common
        # window of length L* starts exactly where a maximal run starts, so
        # the first hit at L* is the tie break's run.
        lo, hi = min_match, cap
        best = None
        while lo <= hi:
            mid = (lo + hi) // 2
            hit = first_hit(run, mid)
            if hit is None:
                hi = mid - 1
            else:
                best = (mid, hit)
                lo = mid + 1
        if best is None:
            break
        length, (i, j) = best
        tiles.append((i, j, length))
        marked[i : i + length] = True
        marked[la + j : la + j + length] = True
    return tiles


def _next(buf, value, start, stop):
    """The first position in [start, stop) of ``buf`` holding ``value``, else stop."""
    pos = buf.find(value, start, stop)
    return stop if pos < 0 else pos


def _keyed(streams, k):
    """Each stream's ``(ids, keys, order, sorted keys)`` of its k-grams.

    The group's streams are ranked once, concatenated. A k-gram inside one
    stream reads only that stream's tokens, so its key is exact across the
    whole group: equal keys mean equal k-grams, in any two streams.
    """
    ranks = _rank_tables([_ranks(np.concatenate(streams))], k.bit_length() - 1)
    keyed = []
    offset = 0
    for ids in streams:
        keys = _window_keys(ranks, np.arange(offset, offset + len(ids) - k + 1), k)
        order = np.argsort(keys)
        keyed.append((ids, keys, order, keys[order]))
        offset += len(ids)
    return keyed


def _tiles(ka, kb, k):
    """All tiles of the greedy string tiling of two streams keyed by ``_keyed``."""
    a, keys_a = ka[:2]
    b, _, order, sorted_b = kb
    la, lb = len(a), len(b)
    if min(la, lb) < k:
        return []
    lo = np.searchsorted(sorted_b, keys_a, "left")
    counts = np.searchsorted(sorted_b, keys_a, "right") - lo
    hits = int(counts.sum())
    if hits > PROBE_HITS_PER_TOKEN * (la + lb):
        return _probe_tiles(a, b, k, [_ranks(np.concatenate((a, b)))])
    if hits == 0:
        return []
    # Every pair of equal k-grams, by its starts i in a and j in b, packed
    # as (i - j + lb) * (la + 1) + i and sorted: by diagonal, then by i.
    # Consecutive hits of one diagonal's run differ by exactly 1, and hits
    # on two diagonals by at least k + 1.
    in_a = np.repeat(np.arange(la - k + 1), counts)
    in_b = order[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(hits)]
    packed = np.sort((in_a - in_b + lb) * (la + 1) + in_a)
    gap = np.diff(packed, prepend=-2, append=packed[-1] + 2) != 1
    first, last = packed[gap[:-1]], packed[gap[1:]]
    diagonal, i = np.divmod(first, la + 1)
    lengths = last - first + k
    heap = list(zip((-lengths).tolist(), i.tolist(), (i - diagonal + lb).tolist()))
    heapq.heapify(heap)

    # Maximal matches first. Each maximal unmarked common run of at least k
    # tokens lies inside one heap entry, and entries pop longest first, so a
    # popped entry with no marked token is a longest unmarked run; equal
    # lengths pop by (i, j), the tie break. An entry that overlaps a tile
    # goes back as its unmarked pieces of at least k tokens.
    marked_a, marked_b = bytearray(la), bytearray(lb)
    tiles = []
    while heap:
        neg, i, j = heapq.heappop(heap)
        end_a, end_b = i - neg, j - neg
        if marked_a.find(1, i, end_a) < 0 and marked_b.find(1, j, end_b) < 0:
            tiles.append((i, j, -neg))
            marked_a[i:end_a] = marked_b[j:end_b] = b"\1" * -neg
            continue
        while end_a - i >= k:
            if marked_a[i]:
                skip = _next(marked_a, 0, i, end_a) - i
            elif marked_b[j]:
                skip = _next(marked_b, 0, j, end_b) - j
            else:
                skip = min(_next(marked_a, 1, i, end_a) - i, _next(marked_b, 1, j, end_b) - j)
                if skip >= k:
                    heapq.heappush(heap, (-skip, i, j))
            i += skip
            j += skip
    return tiles


def _check_min_match(min_match):
    if not isinstance(min_match, (int, np.integer)) or min_match < 1:
        raise ValueError(f"min_match must be an integer >= 1, got {min_match!r}")


def gst_match(a, b, min_match=DEFAULT_MIN_MATCH):
    """Greedy string tiling between two token streams (or id arrays).

    Repeatedly marks the longest common unmarked run of at least
    ``min_match`` tokens; ties break to the smallest start in ``a``, then
    in ``b``. Deterministic for fixed inputs.
    """
    _check_min_match(min_match)
    k = int(min_match)
    return MatchSet.from_tiles(_tiles(*_keyed([_as_ids(a), _as_ids(b)], k), k))


def avg_similarity(match: MatchSet, len_a: int, len_b: int) -> float:
    """Average similarity 2*matched/(len_a+len_b), clamped to [0, 1].

    Two empty streams count as duplicates (1.0); one empty stream scores 0.
    """
    if len_a == 0 and len_b == 0:
        return 1.0
    if len_a == 0 or len_b == 0:
        return 0.0
    return min(1.0, max(0.0, 2.0 * match.matched_tokens / (len_a + len_b)))


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
    _check_min_match(min_match)
    ids = [_as_ids(s) for s in group]
    n = len(ids)
    if n < 1:
        raise ValueError("pairwise_matrix needs at least one stream")
    # _as_ids returns C-contiguous int64 arrays, so equal bytes mean equal ids.
    first = {}
    rep = [first.setdefault(a.tobytes(), i) for i, a in enumerate(ids)]
    k = int(min_match)
    keyed = dict(zip(first.values(), _keyed([ids[i] for i in first.values()], k)))
    scored = {}  # (rep[i], rep[j]) -> score
    scores = np.eye(n, dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            key = (rep[i], rep[j])
            s = scored.get(key)
            if s is None:
                a, b = keyed[key[0]], keyed[key[1]]
                match = MatchSet.from_tiles(_tiles(a, b, k))
                s = avg_similarity(match, len(a[0]), len(b[0]))
                scored[key] = s
            scores[i, j] = s
            scores[j, i] = s
    return SimMatrix(scores)


def jdiv(matrix: SimMatrix) -> float:
    """Group diversity: one minus the mean pairwise similarity."""
    n = matrix.n
    if n < 2:
        raise ValueError("JDiv undefined for groups smaller than 2")
    iu = np.triu_indices(n, k=1)
    return float(1.0 - matrix.scores[iu].mean())


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


def clusters(matrix: SimMatrix, tau=DEFAULT_TAU) -> tuple:
    """Cluster id of each sample, linking samples whose similarity exceeds ``tau``.

    Two samples are linked only when their score is strictly above ``tau``;
    a score equal to ``tau`` does not link them. Clusters are the connected
    components, numbered 0, 1, ... in order of each one's smallest member
    index, so there are ``max(ids) + 1`` of them.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    scores = matrix.scores
    n = matrix.n
    uf = _UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if scores[i, j] > tau:
                uf.union(i, j)
    cluster_id = {}  # root -> id, numbered in order of first member
    return tuple(cluster_id.setdefault(uf.find(i), len(cluster_id)) for i in range(n))


def effective_clusters(ids) -> float:
    """exp of the Shannon entropy of the cluster sizes of cluster ids ``ids``."""
    total = len(ids)
    if total == 0:
        raise ValueError("effective_clusters needs at least one sample")
    entropy = 0.0
    # Counter keeps first-appearance order, which for the ids from clusters
    # is cluster-id order; the sum's rounding depends on that order.
    for size in Counter(ids).values():
        p = size / total
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


def one_gram_matrix(sources) -> SimMatrix:
    """Sorensen-Dice overlap of the lexical token multisets of every pair."""
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
