import ast
import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

# Two list-comprehension solutions that differ only by a consistent variable
# renaming: the canonical duplicate-implementation pair.
RENAMED_PAIR = (
    """def max_val(lst):
    numbers = [x for x in lst
               if isinstance(x, int)]
    return max(numbers)
""",
    """def max_val(het_list):
    numbers = [item for item in het_list
               if isinstance(item, int)]
    return max(numbers)
""",
)

# Same task solved with genuinely different control structure (explicit loop
# with a running maximum vs. a comprehension): similar surface, lower
# structural similarity than the renamed pair.
VARIANT_PAIR = (
    """def max_val(het_list):
    max_value = float('-inf')
    for item in het_list:
        if (isinstance(item, int) or (isinstance(item, str)
                and item.isdigit())):
            num = int(item)
            max_value = num if num > max_value else max_value
    return max_value
""",
    """def max_val(het_list):
    numbers = [
        int(item) for item in het_list
        if (isinstance(item, int) or (isinstance(item, str)
             and item.isdigit()))
    ]
    return max(numbers) if numbers else None
""",
)

# Valid programs nested 600 deep, past the default recursion limit of a
# recursive AST walk. The emitter walks BinOp spines and
# Attribute/Call/Subscript spines iteratively, so all four stay structural.
DEEP_EXPRESSIONS = {
    "binop_chain": "x = " + "+".join(["1"] * 600) + "\n",
    "attribute_chain": "x = a" + ".b" * 600 + "\n",
    "call_chain": "x = a" + ".b()" * 600 + "\n",
    "subscript_chain": "x = a" + "[0]" * 600 + "\n",
    "not_chain": "x = " + "not " * 600 + "y\n",
    "negation_chain": "x = " + "-" * 600 + "y\n",
}

# A 1,501-branch if/elif chain: elif branches nest in ``orelse`` lists,
# deeper than the default recursion limit of a recursive walk.
LONG_ELIF_CHAIN = "if a:\n    pass\n" + "elif a:\n    def f():\n        'doc'\n" * 1500


# Worst-case bounds: each is a fixed multiple of a measurement on a quiet
# 2-core x86 host (Python 3.11), the best of three untraced runs for the
# time and the tracemalloc peak of one traced run for the memory.
TIME_FACTOR = 10
MEMORY_FACTOR = 4


def bounded_call(call, measured_s, measured_mb, runs=3):
    """call(), asserting its time and memory stay within the bounds."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    assert min(times) < TIME_FACTOR * measured_s, f"{min(times):.4f}s"
    tracemalloc.start()
    try:
        assert call() == result
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < MEMORY_FACTOR * measured_mb, f"{peak_mb:.3f} MB"
    return result


def brute_force_tiles(a, b, min_match):
    """Independent greedy-tiling oracle: direct extension scan, no DP.

    Finds the longest common unmarked run by extending every position pair,
    keeping the first (smallest start_a, then start_b) maximal run.
    """
    a = [int(x) for x in a]
    b = [int(x) for x in b]
    used_a = [False] * len(a)
    used_b = [False] * len(b)
    tiles = []
    while True:
        best_len, best_i, best_j = 0, -1, -1
        for i in range(len(a)):
            for j in range(len(b)):
                length = 0
                while (
                    i + length < len(a)
                    and j + length < len(b)
                    and not used_a[i + length]
                    and not used_b[j + length]
                    and a[i + length] == b[j + length]
                ):
                    length += 1
                if length > best_len:
                    best_len, best_i, best_j = length, i, j
        if best_len < min_match:
            break
        tiles.append((best_i, best_j, best_len))
        for k in range(best_len):
            used_a[best_i + k] = True
            used_b[best_j + k] = True
    return tiles


def _scan_line_oracle(line, quote):
    """One line of the reference scanner: (comment start or None, open quote)."""
    i = 0
    while i < len(line):
        ch = line[i]
        if quote is not None:
            if ch == "\\":
                i += 2  # escaped char never terminates the string
                continue
            if line.startswith(quote, i):
                i += len(quote)
                quote = None
                continue
            i += 1
            continue
        if ch in "'\"":
            triple = ch * 3
            if line.startswith(triple, i):
                quote = triple
                i += 3
            else:
                quote = ch
                i += 1
            continue
        if ch == "#":
            return i, None
        i += 1
    if quote is not None and len(quote) == 1 and i <= len(line):
        quote = None
    return None, quote


def strip_comments_oracle(source):
    """Reference comment scanner: the state machine one character at a time.

    Returns (lines_without_newlines, removed_any), like
    ``ingest._strip_comments``. Lines are split at "\n"; every "\r" in a
    line but a final one (which belongs to a "\r\n") also ends a line for
    ast, so the line is scanned in pieces split there.
    """
    out = []
    removed = False
    quote = None  # active string delimiter, e.g. "'" or '"""'
    for line in source.split("\n"):
        pieces = line.split("\r")
        if len(pieces) > 1 and pieces[-1] == "":
            pieces[-2:] = [pieces[-2] + "\r"]
        kept = []
        for piece in pieces:
            cut, quote = _scan_line_oracle(piece, quote)
            if cut is None:
                kept.append(piece)
            else:
                removed = True
                piece = piece[:cut].rstrip(" \t")
                if piece:
                    kept.append(piece)
        if kept:
            out.append("\r".join(kept))
    return out, removed


def docstring_spans_oracle(source):
    """Reference docstring finder: parses and visits every node with ast.walk."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                spans.append((stmt.lineno, stmt.col_offset, stmt.end_lineno, stmt.end_col_offset))
            else:
                break
    return spans


def strip_comments_docstrings_oracle(source):
    """Reference ``strip_comments_docstrings`` built on the two oracles above."""
    lines, _ = strip_comments_oracle(source)
    stripped = "\n".join(lines)
    try:
        spans = docstring_spans_oracle(stripped)
    except (SyntaxError, ValueError, MemoryError, RecursionError):
        return stripped
    # ast ends its lines at "\r\n", "\r" or "\n" and counts columns in UTF-8
    # bytes: find each position's offset in ``stripped`` from ast's own lines.
    ast_lines = re.split(r"(?<=\r\n)|(?<=\r)(?!\n)|(?<=\n)", stripped)

    def offset(lineno, col):
        line = ast_lines[lineno - 1]
        return sum(map(len, ast_lines[: lineno - 1])) + len(line.encode()[:col].decode())

    def line_and_char(pos):
        return stripped.count("\n", 0, pos), pos - (stripped.rfind("\n", 0, pos) + 1)

    for lineno, col, end_lineno, end_col in sorted(spans, reverse=True):
        first, start = line_and_char(offset(lineno, col))
        last, end = line_and_char(offset(end_lineno, end_col))
        merged = lines[first][:start] + lines[last][end:]
        if merged.strip():
            lines[first:last + 1] = [merged]
        else:
            lines[first:last + 1] = []
    return "\n".join(lines)


_ENUMERATION_LIMIT = 20


def pkpo_bruteforce_oracle(outcome, k):
    """Ground truth for pkpo_advantages by literal subset enumeration.

    Averages each sample's leave-one-out advantage over every k-subset
    containing it, on the {0,1} scale. Exponential in n; refuses n above
    the enumeration bound.
    """
    n = outcome.n
    if n > _ENUMERATION_LIMIT:
        raise ValueError(f"enumeration oracle limited to n <= {_ENUMERATION_LIMIT}")
    if k < 1 or k > n:
        raise ValueError("k must satisfy 1 <= k <= n")
    c = outcome.correct.astype(np.int64)
    totals = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    for subset in itertools.combinations(range(n), k):
        members = np.array(subset)
        full = c[members].max()
        for i in subset:
            rest = [j for j in subset if j != i]
            without = c[rest].max() if rest else 0
            totals[i] += full - without
            counts[i] += 1
    return totals / counts


def expected_credit(objective, p, correct, similarity, n, k=None, lambda_div=1.0):
    """Closed form of ``a_t = E[A_i | sample i drew template t]`` for a group
    of n i.i.d. draws from the policy ``p`` over templates with correctness
    ``correct`` and template similarity ``similarity``.

    With q = p.c, r = 2c - 1, u = Sp and s = pᵀSp:

    * base and entropy: (n-1)/n (r_t - (2q-1))
    * diversity: (2/n)(s - u_t); combined is base plus lambda_div times it
    * passk_loo: (n-1)/n 2 [c_t (1-q)^(n-1) - (1-c_t) q (1-q)^(n-2)]
    * pkpo: c_t sum_j Bin(j; n-1, q) C(n-1-j, k-1)/C(n-1, k-1)
    """
    c = np.asarray(correct, dtype=np.float64)
    q = float(p @ c)
    base = (n - 1) / n * ((2.0 * c - 1.0) - (2.0 * q - 1.0))
    u = similarity @ p
    diversity = 2.0 / n * (float(p @ u) - u)
    if objective in ("base", "entropy"):
        return base
    if objective in ("diversity", "diversity_only"):
        return diversity
    if objective == "combined":
        return base + lambda_div * diversity
    if objective == "passk_loo":
        return (n - 1) / n * 2.0 * (c * (1 - q) ** (n - 1) - (1 - c) * q * (1 - q) ** (n - 2))
    if objective == "pkpo":
        k = n if k is None else k
        unique = sum(
            math.comb(n - 1, j) * q**j * (1 - q) ** (n - 1 - j)
            * math.comb(n - 1 - j, k - 1) / math.comb(n - 1, k - 1)
            for j in range(n)
        )
        return c * unique
    raise ValueError(f"no closed form for {objective!r}")


def expected_logit_step(objective, p, correct, similarity, n, lr, temperature=1.0,
                        k=None, lambda_div=1.0, entropy_beta=0.0):
    """Expected logit change of one policy-gradient update on a group of n.

    lr n (p*a - (p.a) p) / temperature for the credit a above; the entropy
    objective adds lr entropy_beta times the entropy gradient
    -p (log p + H) / temperature.
    """
    a = expected_credit(objective, p, correct, similarity, n, k, lambda_div)
    delta = lr * n * (p * a - float(p @ a) * p) / temperature
    if objective == "entropy":
        log_p = np.log(p)
        delta += lr * entropy_beta * -p * (log_p - float(p @ log_p)) / temperature
    return delta


def random_id_stream(rng, max_len=40, alphabet=8):
    n = int(rng.integers(0, max_len + 1))
    return np.asarray(rng.integers(0, alphabet, size=n), dtype=np.intc)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
