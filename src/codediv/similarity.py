"""Pairwise program similarity and group redundancy diagnostics.

The pairwise score is greedy string tiling over structural token streams
with the Dice-style average metric 2*matched/(len_a+len_b), computed in one
place (``_dice``). Equal streams match in full at any length, so two copies
of a program shorter than ``min_match`` are duplicates, while a short
stream matches nothing in a different one. Group-level diagnostics derived
from the resulting matrix: diversity (one minus the mean pairwise
similarity), threshold clustering via connected components, and the
effective cluster count (exponential of the cluster-size entropy).

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
JPlag is built. Its equal k-grams (k = ``min_match``) join along their
diagonals into the maximal common runs, which a heap hands out longest
first, in tie-break order; a run that overlaps an earlier tile goes back as
its unmarked pieces. Long repetitive pairs have millions of k-gram hits but
few runs. A pair with more than ``PROBE_HITS_PER_TOKEN`` hits per token is
therefore tiled by binary search on each round's tile length instead,
capped at the previous tile's length; it keys windows by its group's rank
tables, grown to the levels it needs and kept for the group's later pairs.
The tests check both against a brute-force extension-scan oracle, tile for
tile.

A group is tiled in batches of consecutive rows. Its distinct streams are
ranked once and their k-gram windows sorted once by key and stream; the
streams of a batch then join their keys with those of all later streams in
one pass. The pass counts every pair's hits from per-(key, stream) window
counts before expanding any, so a pair above the hit bound goes to the
probes unexpanded. A batch holds at most the hits that one pair below the
bound may expand, or one row's, never the whole group's, and each pair's
tiles are scored as they come. ``gst_match`` is a group of two. Renamed
copies, the redundancy this package measures, share one structural stream,
so their cells reuse a score instead of tiling again.
A group's distinct streams are ranked by content and each pair is tiled
once, lower rank first, so permuting the samples permutes the matrix.

The 1-gram metric maps a group's lexical tokens to one vocabulary and
counts them per source, so a pair's multiset overlap is the sum of the
smaller of its two count rows.
"""

import heapq
import math
import re
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
#: same at 4-16 hits per token. The group join batches rows while their hits
#: fit this many per token of the group's two longest streams.
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


def _probe_tiles(ka, kb, min_match):
    """Tiles of two streams, each given as ``(ids, rank tables, offset)``, by
    binary search on each round's tile length. Windows are keyed at their
    streams' offsets by the group's rank tables, which gain in place the
    levels the probes need.
    """
    a, ranks, offset_a = ka
    b, _, offset_b = kb
    _rank_tables(ranks, min(len(a), len(b)).bit_length() - 1)
    marked_a, marked_b = np.zeros(len(a), dtype=bool), np.zeros(len(b), dtype=bool)
    tiles = []

    def first_hit(run_a, run_b, length):
        # Windows over marked tokens are left out. The first window of a
        # whose key b has wins; b's stable order puts its smallest j first.
        ps_a, ps_b = np.flatnonzero(run_a >= length), np.flatnonzero(run_b >= length)
        keys_a = _window_keys(ranks, offset_a + ps_a, length)
        keys_b = _window_keys(ranks, offset_b + ps_b, length)
        order = np.argsort(keys_b, kind="stable")
        sorted_b = keys_b[order]
        at = np.minimum(np.searchsorted(sorted_b, keys_a), len(order) - 1)
        found = np.flatnonzero(sorted_b[at] == keys_a)
        return (int(ps_a[found[0]]), int(ps_b[order[at[found[0]]]])) if found.size else None

    while True:
        run_a, run_b = _free_run_lengths(marked_a), _free_run_lengths(marked_b)
        cap = min(int(run_a.max()), int(run_b.max()))
        if tiles:
            cap = min(cap, tiles[-1][2])
        # The longest common unmarked run has a unique length L*; any common
        # window of length L* starts exactly where a maximal run starts, so
        # the first hit at L* is the tie break's run.
        lo, hi = min_match, cap
        best = None
        while lo <= hi:
            mid = (lo + hi) // 2
            hit = first_hit(run_a, run_b, mid)
            if hit is None:
                hi = mid - 1
            else:
                best = (mid, hit)
                lo = mid + 1
        if best is None:
            break
        length, (i, j) = best
        tiles.append((i, j, length))
        marked_a[i : i + length] = marked_b[j : j + length] = True
    return tiles


def _next(buf, value, start, stop):
    """The first position in [start, stop) of ``buf`` holding ``value``, else stop."""
    pos = buf.find(value, start, stop)
    return stop if pos < 0 else pos


def _tile_runs(a, b, heap, k):
    """Tiles of streams ``a`` and ``b`` from a list of their maximal common
    runs of at least k tokens, each ``(-length, i, j)``, i in a and j in b.

    Maximal matches first. Each maximal unmarked common run of at least k
    tokens lies inside one heap entry, and entries pop longest first, so a
    popped entry with no marked token is a longest unmarked run; equal
    lengths pop by (i, j), the tie break. An entry that overlaps a tile goes
    back as its unmarked pieces of at least k tokens.
    """
    if not heap:
        return []
    heapq.heapify(heap)
    marked_a, marked_b = bytearray(len(a)), bytearray(len(b))
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


def _row_batches(row_hits, budget):
    """Consecutive runs ``(s0, s1)`` over the rows of ``row_hits``, each as long
    as its hits sum to at most ``budget``; a row above it is a run alone."""
    before = np.concatenate(([0], np.cumsum(row_hits)))
    s0 = 0
    while s0 < len(row_hits):
        s1 = max(int(np.searchsorted(before, before[s0] + budget, "right")) - 1, s0 + 1)
        yield s0, s1
        s0 = s1


def _group_tiles(streams, k):
    """The tiles of each pair ``(s, t)``, s < t, of a group's token id
    arrays, yielded as ``((s, t), tiles)`` in row order.

    The streams are ranked once, concatenated, and the group's k-gram
    windows are sorted once by key, then by stream. The windows of one key
    in one stream form a (key, stream) group. Consecutive rows are joined
    in batches, each row's groups with the later streams' groups of the
    same keys, all at once. A batch counts each pair's hits exactly from
    the group sizes before expanding any, leaves the pairs above the hit
    bound to the length probes, and cuts the other pairs' hits into their
    maximal common runs. A batch holds at most ``PROBE_HITS_PER_TOKEN``
    hits per token of the group's two longest streams, the most one pair
    may expand, or else one row's hits, rather than the whole group's.
    """
    m = len(streams)
    lengths = np.array([len(ids) for ids in streams])
    k = min(k, int(lengths.max()) + 1)  # any k past the longest stream keys nothing; this one fits int64
    windows = [max(n - k + 1, 0) for n in lengths.tolist()]  # a stream shorter than k keys nothing
    offsets = np.cumsum(lengths) - lengths
    # Ranking stops at the level that keys a k-gram, or at level 0 if no
    # stream holds one.
    ranks = _rank_tables([_ranks(np.concatenate(streams))], k.bit_length() - 1 if any(windows) else 0)
    keyed = [(ids, ranks, int(offset)) for ids, offset in zip(streams, offsets)]

    owner = np.repeat(np.arange(m), windows)
    starts = np.arange(len(owner)) - np.repeat(np.cumsum(windows) - windows, windows)
    keys = _window_keys(ranks, offsets[owner] + starts, k) if len(owner) else owner
    order = np.argsort(keys, kind="stable")
    keys, owner, starts = keys[order], owner[order], starts[order]
    new_key = np.diff(keys, prepend=-1) != 0
    del keys, order  # the batches keep only the arrays they read
    first = np.flatnonzero(new_key | (np.diff(owner, prepend=-1) != 0))
    size = np.diff(first, append=len(owner))  # windows of each (key, stream) group
    owner = owner[first]
    # A key's groups are contiguous, by stream; key_end[g] is one past them.
    new_key = new_key[first]
    key_end = np.append(np.flatnonzero(new_key), len(first))[np.cumsum(new_key)]
    by_owner = np.argsort(owner, kind="stable")
    row_groups = np.searchsorted(owner[by_owner], np.arange(m + 1))
    width = int(lengths.max()) + 1
    # Row s's hits (exact below 2^53): each window of its groups times the
    # windows from the group's end to its key's. The last row has no pairs.
    row_hits = np.bincount(
        owner, weights=size * (np.append(first, len(starts))[key_end] - first - size), minlength=m
    )[:-1]

    def join_rows(s0, s1):
        """Which pairs of rows s0..s1-1 go to the probes, and the runs of
        the others: pair (s, t) is p = (s - s0) * m + t, its runs
        ``bounds[p]:bounds[p + 1]`` of the run lists (-length, start in s,
        start in t)."""
        ga = by_owner[row_groups[s0] : row_groups[s1]]
        later = key_end[ga] - ga - 1  # groups of later streams with ga's key
        gb = np.repeat(ga + 1 - np.cumsum(later) + later, later) + np.arange(later.sum())
        ga = np.repeat(ga, later)
        pair, pair_hits = (owner[ga] - s0) * m + owner[gb], size[ga] * size[gb]
        hits = np.bincount(pair, weights=pair_hits, minlength=(s1 - s0) * m)
        # Only two empty streams have 0 tokens; the floor keeps an infinite
        # factor off them, and moves no bound of a pair with hits.
        probed = hits > PROBE_HITS_PER_TOKEN * np.maximum(lengths[s0:s1, None] + lengths, 1).ravel()
        join = ~probed[pair]
        ga, gb, pair, pair_hits = ga[join], gb[join], pair[join], pair_hits[join]
        # Hit h of group pair p pairs window q of ga's group with window r
        # of gb's. Hits in s and t are packed as (pair * 2 * width + i - j +
        # width) * width + i and sorted: by pair, diagonal, then i.
        # Consecutive hits of one diagonal's run differ by exactly 1, and
        # hits on two diagonals or pairs by at least k + 1.
        p = np.repeat(np.arange(len(pair_hits)), pair_hits)
        q, r = np.divmod(np.arange(len(p)) - (np.cumsum(pair_hits) - pair_hits)[p], size[gb][p])
        i, j = starts[first[ga][p] + q], starts[first[gb][p] + r]
        packed = np.sort((pair[p] * 2 * width + i - j + width) * width + i)
        gap = np.diff(packed, prepend=-2, append=packed[-1:] + 2) != 1
        head, tail = packed[gap[:-1]], packed[gap[1:]]
        diagonal, i = np.divmod(head, width)
        pair, diagonal = np.divmod(diagonal, 2 * width)
        bounds = np.searchsorted(pair, np.arange(len(hits) + 1))
        return probed.tolist(), bounds.tolist(), (head - tail - k).tolist(), i.tolist(), (i - diagonal + width).tolist()

    budget = PROBE_HITS_PER_TOKEN * max(int(np.sort(lengths)[-2:].sum()), 1)
    for s0, s1 in _row_batches(row_hits, budget):
        probed, bounds, neg, in_s, in_t = join_rows(s0, s1)
        for s in range(s0, s1):
            for t in range(s + 1, m):
                p = (s - s0) * m + t
                if probed[p]:
                    yield (s, t), _probe_tiles(keyed[s], keyed[t], k)
                else:
                    runs = slice(bounds[p], bounds[p + 1])
                    heap = list(zip(neg[runs], in_s[runs], in_t[runs]))
                    yield (s, t), _tile_runs(streams[s], streams[t], heap, k)


def _check_min_match(min_match):
    if isinstance(min_match, bool) or not isinstance(min_match, (int, np.integer)) or min_match < 1:
        raise ValueError(f"min_match must be an integer >= 1, got {min_match!r}")


def gst_match(a, b, min_match=DEFAULT_MIN_MATCH):
    """Greedy string tiling between two token streams (or id arrays).

    Repeatedly marks the longest common unmarked run of at least
    ``min_match`` tokens; ties break to the smallest start in ``a``, then
    in ``b``. Deterministic for fixed inputs.
    """
    _check_min_match(min_match)
    return MatchSet.from_tiles(next(_group_tiles([_as_ids(a), _as_ids(b)], int(min_match)))[1])


def _dice(common, total):
    """``2 * common / total`` elementwise, as Python floats compute it; a
    total of 0, a pair of empty inputs, counts as duplicates and scores 1."""
    return np.where(total > 0, 2.0 * common / np.maximum(total, 1), 1.0)


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

    Streams with the same ids share one score, and each pair of distinct
    streams is tiled once in content order: the shorter first, and of two
    equally long ones the one whose ids compare lower as a list. So a score
    depends only on the two programs. A stream paired with an equal one is
    not tiled: it matches in full, so equal programs score 1.0 even when
    they are shorter than ``min_match``.
    """
    _check_min_match(min_match)
    ids = [_as_ids(s) for s in group]
    n = len(ids)
    if n < 1:
        raise ValueError("pairwise_matrix needs at least one stream")
    # _as_ids returns C-contiguous int64 arrays, so equal bytes mean equal
    # ids. rep is each sample's rank among the distinct streams; a Python
    # list compares the same on every platform, unlike the raw bytes.
    distinct = {a.tobytes(): a for a in ids}
    streams = sorted(distinct.values(), key=lambda a: (len(a), a.tolist()))
    rank = {a.tobytes(): r for r, a in enumerate(streams)}
    rep = [rank[a.tobytes()] for a in ids]
    k = int(min_match)
    lengths = np.array([len(a) for a in streams])
    # A stream matches an equal one in full, shorter than k or not.
    matched = np.diag(lengths)
    for (s, t), tiles in _group_tiles(streams, k):
        matched[s, t] = matched[t, s] = sum(tile[2] for tile in tiles)
    # The Dice score of every cell at once, the diagonal's 1.0 included: a
    # stream paired with an empty one matches nothing and scores 0, and two
    # empty streams score 1. Tiles are disjoint in both streams, so
    # 2 * matched <= total and no score exceeds 1.
    return SimMatrix(_dice(matched, lengths[:, None] + lengths)[np.ix_(rep, rep)])


def jdiv(matrix: SimMatrix) -> float:
    """Group diversity: one minus the mean pairwise similarity."""
    n = matrix.n
    if n < 2:
        raise ValueError("JDiv undefined for groups smaller than 2")
    iu = np.triu_indices(n, k=1)
    return float(1.0 - matrix.scores[iu].mean())


def clusters(matrix: SimMatrix, tau=DEFAULT_TAU) -> tuple:
    """Cluster id of each sample, linking samples whose similarity exceeds ``tau``.

    Two samples are linked only when their score is strictly above ``tau``
    (a NaN score never links); a score equal to ``tau`` does not link them.
    Clusters are the connected components, numbered 0, 1, ... in order of
    each one's smallest member index, so there are ``max(ids) + 1`` of them.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    linked = (matrix.scores > tau).tolist()
    ids = [-1] * len(linked)
    next_id = 0
    for start in range(len(ids)):
        if ids[start] < 0:
            # start is the smallest member of its cluster: number everything
            # reachable from it.
            ids[start] = next_id
            reached = [start]
            for i in reached:
                for j, link in enumerate(linked[i]):
                    if link and ids[j] < 0:
                        ids[j] = next_id
                        reached.append(j)
            next_id += 1
    return tuple(ids)


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


# Each ASCII character's class under _LEX_RE's \w and \s: "w" word, " "
# space, "p" any other character, which is a token by itself. count_lex_tokens
# translates only ASCII text, so the upper half of the table is never read.
_LEX_CLASSES = bytes(
    ord("w" if re.match(r"\w", chr(c)) else " " if re.match(r"\s", chr(c)) else "p") for c in range(128)
).ljust(256)


def count_lex_tokens(text: str) -> int:
    """``len(lex_tokens(text))`` without building the tokens.

    For ASCII text one byte per character gives its class; a token is a
    punctuation byte or the start of a word run.
    """
    if not text.isascii():
        return len(lex_tokens(text))
    classes = text.encode("ascii").translate(_LEX_CLASSES)
    return classes.count(b"p") + classes.startswith(b"w") + classes.count(b" w") + classes.count(b"pw")


def one_gram_matrix(sources) -> SimMatrix:
    """Sorensen-Dice overlap of the lexical token multisets of every pair.

    Tokens map to one vocabulary for the group, so a pair's multiset
    intersection is the sum of the smaller of its two count rows. Two
    empty sources score 1.0; one empty source scores 0.
    """
    n = len(sources)
    if n < 1:
        raise ValueError("one_gram_matrix needs at least one source")
    counted = [Counter(lex_tokens(src)) for src in sources]
    vocab = {tok: v for v, tok in enumerate(set().union(*counted))}
    counts = np.zeros((n, len(vocab)), dtype=np.int64)
    for row, tokens in zip(counts, counted):
        row[[vocab[tok] for tok in tokens]] = list(tokens.values())
    sizes = counts.sum(1)
    scores = np.eye(n, dtype=np.float64)
    for i in range(n - 1):
        common = np.minimum(counts[i], counts[i + 1 :]).sum(1)
        scores[i, i + 1 :] = scores[i + 1 :, i] = _dice(common, sizes[i] + sizes[i + 1 :])
    return SimMatrix(scores)


def one_gram_div(sources) -> float:
    """1-gram diversity: one minus mean pairwise lexical overlap."""
    if len(sources) < 2:
        raise ValueError("JDiv undefined for groups smaller than 2")
    return jdiv(one_gram_matrix(sources))
