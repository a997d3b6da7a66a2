"""Output checks for the codediv benchmark.

Each check recomputes what it verifies from the written output and the
generator's ground truth, with the standard library only: none of them
calls back into codediv. Every function returns a list of failure
messages; an empty list means the output passed.
"""

import hashlib
import json
import math
import os
from fractions import Fraction

PASS_TOL = 1e-12  # product form vs exact rational: a few ulps apart
ADV_TOL = 1e-9
# Simulator traces estimate pass@k and diversity by Monte-Carlo today; the
# closed forms below hold in expectation. The tolerance is fixed so the
# check keeps holding when evaluation switches to the closed forms.
SIM_TOL = 0.05


def read_matrix(path):
    """Parse a ``similarity`` output file: n, then n rows of repr floats."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    n = int(lines[0])
    rows = [[float(v) for v in ln.split()] for ln in lines[1 : n + 1]]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"{path}: not an {n}x{n} matrix")
    return rows


def matrix_shape(rows, label):
    """Symmetric, unit diagonal, every cell within [0, 1]."""
    bad = []
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 1.0:
            bad.append(f"{label}: diagonal [{i}][{i}] = {rows[i][i]!r}")
        for j in range(n):
            v = rows[i][j]
            if not 0.0 <= v <= 1.0:
                bad.append(f"{label}: [{i}][{j}] = {v!r} outside [0, 1]")
            if j > i and v != rows[j][i]:
                bad.append(f"{label}: [{i}][{j}] != [{j}][{i}]")
    return bad


def renames_exact(rows, renames, label):
    """Pairs rendered from one template under two namings score exactly 1."""
    bad = []
    for ids in renames:
        for x in ids:
            for y in ids:
                if x < y and rows[x][y] != 1.0:
                    bad.append(f"{label}: rename pair ({x}, {y}) scored {rows[x][y]!r}")
    return bad


def greedy_tiling_matched(a, b, min_match):
    """Matched tokens of greedy string tiling, by a diagonal run scan.

    Each round scans every diagonal for maximal runs of equal, unmarked
    tokens and marks the longest (smallest start in ``a``, then in ``b``).
    """
    a, b = list(a), list(b)
    la, lb = len(a), len(b)
    used_a, used_b = [False] * la, [False] * lb
    matched = 0
    while True:
        best = (0, 0, 0)  # (length, -start_a, -start_b)
        for d in range(-(la - 1), lb):
            i = max(0, -d)
            run = 0
            while i < la and i + d < lb:
                j = i + d
                if a[i] == b[j] and not used_a[i] and not used_b[j]:
                    run += 1
                else:
                    if run:
                        best = max(best, (run, run - i, run - j))
                    run = 0
                i += 1
            if run:
                best = max(best, (run, run - i, run - i - d))
        length = best[0]
        if length < min_match:
            return matched
        sa, sb = -best[1], -best[2]
        for k in range(length):
            used_a[sa + k] = used_b[sb + k] = True
        matched += length


def tiled_score(a, b, min_match):
    """Average similarity 2*matched/(len_a+len_b) with the empty-stream rules."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return min(1.0, max(0.0, 2.0 * greedy_tiling_matched(a, b, min_match) / (len(a) + len(b))))


def tiling_agrees(rows, streams, pairs, min_match, label):
    bad = []
    for i, j in pairs:
        want = tiled_score(streams[i], streams[j], min_match)
        if rows[i][j] != want:
            bad.append(f"{label}: pair ({i}, {j}) scored {rows[i][j]!r}, tiling gives {want!r}")
    return bad


def exact_pass_at_k(n, m, k):
    return Fraction(1) - Fraction(math.comb(n - m, k), math.comb(n, k))


def report_prompts(report, truth, label):
    """n, m and pass@k of every prompt against ground truth and exact pass@k."""
    bad = []
    prompts = report["prompts"]
    if sorted(prompts) != sorted(truth):
        return [f"{label}: prompts {sorted(prompts)} != {sorted(truth)}"]
    for pid, want in truth.items():
        got = prompts[pid]
        if (got["n"], got["m"]) != (want["n"], want["m"]):
            bad.append(f"{label}: {pid} n,m = {got['n']},{got['m']} want {want['n']},{want['m']}")
            continue
        for k, value in got["pass_at"].items():
            exact = exact_pass_at_k(want["n"], want["m"], int(k))
            if abs(value - float(exact)) > PASS_TOL:
                bad.append(f"{label}: {pid} pass@{k} = {value!r}, exact {float(exact)!r}")
    return bad


def upper_mean(rows):
    n = len(rows)
    return math.fsum(rows[i][j] for i in range(n) for j in range(i + 1, n)) / (n * (n - 1) // 2)


def jdiv_matches(report_value, rows, label):
    want = 1.0 - upper_mean(rows)
    if report_value is None or abs(report_value - want) > PASS_TOL:
        return [f"{label}: jdiv {report_value!r}, matrix gives {want!r}"]
    return []


def combined_advantages(rows, correct, lambda_div):
    """base + lambda * leave-one-out diversity, by literal recomputation."""
    n = len(rows)
    r = [1.0 if c else -1.0 for c in correct]
    mean_r = math.fsum(r) / n
    full = 1.0 - upper_mean(rows)
    out = []
    for i in range(n):
        keep = [x for x in range(n) if x != i]
        without = 1.0 - upper_mean([[rows[x][y] for y in keep] for x in keep])
        out.append(r[i] - mean_r + lambda_div * (full - without))
    return out


def advantages_match(got, rows, correct, lambda_div, label):
    want = combined_advantages(rows, correct, lambda_div)
    if len(got) != len(want):
        return [f"{label}: {len(got)} advantages for {len(want)} samples"]
    return [
        f"{label}: advantage[{i}] = {g!r}, recomputed {w!r}"
        for i, (g, w) in enumerate(zip(got, want))
        if abs(g - w) > ADV_TOL
    ]


def default_world():
    """The simulator's documented default: 6 families x 2, first 3 correct."""
    fam = [t // 2 for t in range(12)]
    sim = [[1.0 if a == b else (0.9 if fam[a] == fam[b] else 0.1) for b in range(12)] for a in range(12)]
    return [f < 3 for f in fam], sim


def softmax(logits):
    top = max(logits)
    e = [math.exp(x - top) for x in logits]
    total = math.fsum(e)
    return [x / total for x in e]


def trace_records(lines, label, correct, sim):
    """pass@1 exact from the logits; pass@k and diversity near closed forms."""
    bad = []
    for line in lines:
        rec = json.loads(line)
        p = softmax(rec["logits"])
        q = math.fsum(pi for pi, c in zip(p, correct) if c)
        for k, value in rec["pass_at"].items():
            if k == "1":
                ok = abs(value - q) <= PASS_TOL
            else:
                ok = abs(value - (1.0 - (1.0 - q) ** int(k))) <= SIM_TOL
            if not ok:
                bad.append(f"{label}: step {rec['step']} pass@{k} = {value!r}, q = {q!r}")
        div = 1.0 - math.fsum(p[a] * sim[a][b] * p[b] for a in range(len(p)) for b in range(len(p)))
        if abs(rec["jdiv"] - div) > SIM_TOL:
            bad.append(f"{label}: step {rec['step']} jdiv = {rec['jdiv']!r}, closed form {div!r}")
        if len(bad) > 5:
            break
    return bad


def digest_dir(path):
    """sha256 over every file below ``path``: relative names and contents."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
