"""Greedy string tiling over token-id arrays, pure Python.

Each round marks the longest common unmarked substring of at least
``min_match`` tokens; ties go to the smallest start in the first stream,
then the smallest start in the second. ``hashed_tiles`` finds that run by
binary search on its length, comparing window hashes mod 2^61-1; every hash
hit is verified against the tokens, so collisions cannot change a tile.
Marking only removes runs, so tile lengths never grow from one round to
the next and each search is capped at the previous tile's length. The
tests check its tiles against a brute-force extension-scan oracle.
"""

import numpy as np

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


def _free_runs(marked):
    """Maximal [start, stop) spans of unmarked positions."""
    runs = []
    start = None
    for i, m in enumerate(marked):
        if not m and start is None:
            start = i
        elif m and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(marked)))
    return runs


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


def hashed_tiles(a, b, min_match):
    """All tiles of the greedy string tiling of int arrays ``a`` and ``b``."""
    la, lb = len(a), len(b)
    tiles = []
    if la == 0 or lb == 0:
        return tiles
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
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
        for idx in range(i, i + length):
            marked_a[idx] = 1
        for idx in range(j, j + length):
            marked_b[idx] = 1
    return tiles
