#!/usr/bin/env python3
"""Benchmark the greedy-string-tiling matchers on synthetic token streams.

Times the compiled kernel (codediv._gst, when built) and the pure-Python
hash-accelerated matcher on identical pair sets, reporting per-pair cost
and the projected time for a full 200-program group (19,900 pairs).

    python3 benchmarks/bench_gst.py
    python3 benchmarks/bench_gst.py --programs 100 --pairs 2000
"""

import argparse
import time

import numpy as np

from codediv import _gst_py
from codediv.similarity import GST_BACKEND


def synthetic_group(rng, programs, mean_tokens, vocab=44, families=20, mutation=0.1):
    templates = [
        rng.integers(0, vocab, size=max(5, int(rng.normal(mean_tokens, 15)))).astype(np.intc)
        for _ in range(families)
    ]
    group = []
    for _ in range(programs):
        base = templates[int(rng.integers(0, families))].copy()
        flips = rng.random(len(base)) < mutation
        base[flips] = rng.integers(0, vocab, size=int(flips.sum()))
        group.append(base)
    return group


def time_backend(label, fn, pairs, min_match):
    start = time.perf_counter()
    matched = 0
    for a, b in pairs:
        matched += sum(t[2] for t in fn(a, b, min_match))
    elapsed = time.perf_counter() - start
    per_pair_us = 1e6 * elapsed / len(pairs)
    full_group_s = per_pair_us * 19_900 / 1e6
    print(
        f"{label:<16} {elapsed:8.3f}s total   {per_pair_us:9.1f} us/pair   "
        f"~{full_group_s:7.2f}s per 200-program group   (checksum {matched})"
    )
    return per_pair_us


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--programs", type=int, default=200)
    parser.add_argument("--tokens", type=int, default=150, help="mean stream length")
    parser.add_argument("--pairs", type=int, default=1000, help="sampled pairs per backend")
    parser.add_argument("--min-match", type=int, default=5, dest="min_match")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    group = synthetic_group(rng, args.programs, args.tokens)
    index_pairs = set()
    while len(index_pairs) < min(args.pairs, args.programs * (args.programs - 1) // 2):
        i, j = rng.integers(0, args.programs, size=2)
        if i < j:
            index_pairs.add((int(i), int(j)))
    pairs = [(group[i], group[j]) for i, j in sorted(index_pairs)]
    print(
        f"{len(pairs)} pairs, mean stream length "
        f"{np.mean([len(s) for s in group]):.0f}, min_match {args.min_match}, "
        f"active backend: {GST_BACKEND}"
    )

    if GST_BACKEND == "compiled":
        from codediv import _gst

        compiled = time_backend("compiled exact", _gst.exact_tiles, pairs, args.min_match)
    else:
        compiled = None
        print("compiled exact   (extension not built)")
    py_hashed = time_backend("python hashed", _gst_py.hashed_tiles, pairs, args.min_match)

    if compiled:
        print(f"speedup: compiled is {py_hashed / compiled:.1f}x python-hashed on these streams")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
