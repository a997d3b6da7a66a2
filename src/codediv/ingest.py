"""Corpus loading and code extraction.

A corpus is one JSON record per line with fields ``prompt_id`` (str),
``sample_id`` (int), ``text`` (str) and/or ``source`` (str), and ``correct``
(bool). ``text`` is a raw model completion from which executable code is
extracted; a record carrying ``source`` is treated as pre-extracted and
skips extraction. Records group by prompt into SampleGroup, the unit every
downstream metric operates on; a corpus is the list of its groups in
``prompt_id`` order. ``length_stats`` summarizes it as the plain dict that
``report.json`` stores under ``lengths``.

Both keyed inputs, the corpus and the embeddings file that ``metrics``
reads, go through ``keyed_records``: one reader of the line, JSON and key
rules, so the two files refuse the same malformed lines with the same texts.
"""

import ast
import json
import re
from dataclasses import dataclass

from .similarity import count_lex_tokens
from .tokenizer import NOT_PARSED, parse


class CorpusError(ValueError):
    """Raised for malformed corpus input; message carries the line number."""


@dataclass(frozen=True)
class SampleGroup:
    """All generations for one prompt, as columns in ``sample_id`` order:
    the raw completions ``texts``, the extracted code ``sources`` ("" where
    a completion has no fenced block) and the ``correct`` flags."""

    prompt_id: str
    sample_ids: tuple
    texts: tuple
    sources: tuple
    correct: tuple

    @property
    def n(self) -> int:
        return len(self.sample_ids)

    @property
    def m(self) -> int:
        return sum(self.correct)


def keyed_records(lines, where="line"):
    """Yield ``(label, record, key)`` for each non-blank line of ``lines``.

    Each line is one JSON object keyed by ``prompt_id``, a string of valid
    Unicode text, and ``sample_id``, an integer >= 0; ``key`` is the pair
    and ``label`` is ``"<where> <line number>"``. Raises CorpusError naming
    the line for invalid JSON (JSON nested too deeply to decode included), a
    record that is not an object, a mistyped key and a key seen on an
    earlier line.
    """
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        label = f"{where} {lineno}"
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as err:  # RecursionError: nested too deeply
            raise CorpusError(f"{label}: invalid JSON record: {err}") from err
        if not isinstance(record, dict):
            raise CorpusError(f"{label}: record must be an object")
        prompt_id = record.get("prompt_id")
        if not isinstance(prompt_id, str):
            raise CorpusError(f"{label}: field 'prompt_id' must be a string")
        try:
            # JSON allows a lone surrogate, which no output file can encode.
            prompt_id.encode("utf-8")
        except UnicodeEncodeError as err:
            raise CorpusError(f"{label}: field 'prompt_id' must be valid Unicode text ({err.reason})") from err
        sample_id = record.get("sample_id")
        if isinstance(sample_id, bool) or not isinstance(sample_id, int) or sample_id < 0:
            raise CorpusError(f"{label}: field 'sample_id' must be an integer >= 0")
        key = (prompt_id, sample_id)
        if key in seen:
            raise CorpusError(f"{label}: duplicate sample (prompt_id={prompt_id!r}, sample_id={sample_id})")
        seen.add(key)
        yield label, record, key


def parse_corpus(lines) -> list:
    """Parse line-delimited records into SampleGroups sorted by prompt_id.

    Lines are read by ``keyed_records``. A text with no fenced block has
    source "", and a record with only a source has that source as its
    text. Raises CorpusError naming the offending line for a missing or
    mistyped ``correct``, ``text`` or ``source``.
    """
    groups: dict = {}
    for label, record, (prompt_id, sample_id) in keyed_records(lines):
        if "correct" not in record:
            raise CorpusError(f"{label}: missing field 'correct'")
        correct = record["correct"]
        if not isinstance(correct, bool):
            raise CorpusError(f"{label}: field 'correct' must be a boolean")

        text = record.get("text")
        source = record.get("source")
        if source is not None and not isinstance(source, str):
            raise CorpusError(f"{label}: field 'source' must be a string")
        if text is not None and not isinstance(text, str):
            raise CorpusError(f"{label}: field 'text' must be a string")
        if text is None and source is None:
            raise CorpusError(f"{label}: record needs 'text' or 'source'")

        if source is None:
            source = extract_code(text) or ""
        if text is None:
            text = source
        groups.setdefault(prompt_id, []).append((sample_id, text, source, correct))

    # Keys are unique, so each prompt's rows sort by sample_id alone.
    return [SampleGroup(pid, *zip(*sorted(rows))) for pid, rows in sorted(groups.items())]


def load_corpus(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh)


def extract_code(text: str):
    """Contents of the last python-tagged or untagged fenced block.

    Returns None when the completion contains no fenced block. A fence left
    open at end of text counts as a block running to the end (truncated
    generations). Fence lines themselves are excluded.
    """
    lines = text.split("\n")
    blocks = []
    open_tag = None
    block_start = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped.startswith("```"):
            continue
        if open_tag is None:
            open_tag = stripped[3:].strip().lower()
            block_start = i + 1
        else:
            blocks.append((open_tag, lines[block_start:i]))
            open_tag = None
    if open_tag is not None:
        blocks.append((open_tag, lines[block_start:]))

    for tag, body in reversed(blocks):
        if tag in ("", "python"):
            if not body:
                return ""
            return "\n".join(body) + ("\n" if body[-1] != "" else "")
    return None


# Characters that can change the comment scanner's state: outside a string,
# a quote opens one and '#' starts a comment; inside, a backslash escapes the
# next character and the delimiter's character may close it.
_OUTSIDE_STRING = re.compile(r"['\"#]")
_INSIDE_STRING = {"'": re.compile(r"[\\']"), '"': re.compile(r'[\\"]')}


# ast also ends a line at a lone "\r"; these lines end only at "\n" (a
# "\r" that ends one belongs to a "\r\n").
_LONE_CR = re.compile(r"\r(?!$)")


def _scan_line(line, quote):
    """Scan one line entered inside string ``quote`` (None: outside any).

    Returns (index of the comment's '#' or None, delimiter open at its end).
    """
    i = 0
    while True:
        # Jump to the next character that can change the state.
        found = (_OUTSIDE_STRING if quote is None else _INSIDE_STRING[quote[0]]).search(line, i)
        if found is None:
            i = max(i, len(line))
            break
        i = found.start()
        ch = line[i]
        if quote is not None:
            if ch == "\\":
                i += 2  # escaped char never terminates the string
            elif line.startswith(quote, i):
                i += len(quote)
                quote = None
            else:
                i += 1
        elif ch == "#":
            return i, None
        elif line.startswith(ch * 3, i):
            quote = ch * 3
            i += 3
        else:
            quote = ch
            i += 1
    if quote is not None and len(quote) == 1 and i <= len(line):
        # Unterminated single-quote string without a trailing backslash
        # continuation (i overshoots by one when a backslash ate the
        # line end): close it so later lines scan sanely.
        quote = None
    return None, quote


def _strip_comments(source: str):
    """Remove '#' comments outside string literals.

    Returns (lines_without_newlines, removed_any). A lone "\r" ends a line
    for ast, so a line holding one is scanned in pieces split there and its
    kept pieces are joined by "\r" again. Pieces reduced to nothing by
    comment removal are dropped, and so are lines left with no piece;
    untouched pieces stay byte-identical, so when nothing is removed the
    lines join back to ``source`` exactly.
    """
    out = []
    removed = False
    quote = None  # active string delimiter, e.g. "'" or '"""'
    for line in source.split("\n"):
        kept = []
        for piece in _LONE_CR.split(line) if "\r" in line else (line,):
            cut, quote = _scan_line(piece, quote)
            if cut is None:
                kept.append(piece)
            else:
                removed = True
                piece = piece[:cut].rstrip(" \t")
                if piece:
                    kept.append(piece)
                # comment-only pieces collapse away entirely
        if kept:
            out.append("\r".join(kept))
    return out, removed


# Fields that hold statement lists, on statements and on the except
# handlers and match cases that carry bodies of their own.
_STATEMENT_LISTS = ("body", "orelse", "finalbody", "handlers", "cases")
_DOCSTRING_OWNERS = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstring_spans(tree):
    """(lineno, col, end_lineno, end_col) of leading string statements.

    Covers the maximal leading run of bare string-literal statements in
    every module, function, and class body; taking the whole run (not just
    the first statement) is what makes stripping idempotent. Definitions
    are statements, so only statement lists are walked, never expressions;
    the walk uses an explicit stack because long elif chains nest deeply.
    """
    spans = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, _DOCSTRING_OWNERS):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    spans.append((stmt.lineno, stmt.col_offset, stmt.end_lineno, stmt.end_col_offset))
                else:
                    break
        for name in _STATEMENT_LISTS:
            stack.extend(getattr(node, name, ()))
    return spans


def _ast_line_starts(lines):
    """(index in ``lines``, character offset) where each of ast's lines starts."""
    starts = []
    for i, line in enumerate(lines):
        starts.append((i, 0))
        starts.extend((i, cr.end()) for cr in _LONE_CR.finditer(line))
    return starts


def _position(lines, starts, lineno, col):
    """(index in ``lines``, character index) of an ast position.

    ``starts`` is ``_ast_line_starts(lines)``, or None when no line holds a
    lone "\r". ast columns count UTF-8 bytes, not characters.
    """
    i, offset = starts[lineno - 1] if starts else (lineno - 1, 0)
    rest = lines[i][offset:]
    if not rest.isascii():
        col = len(rest.encode("utf-8")[:col].decode("utf-8"))
    return i, offset + col


def strip_comments_docstrings(source: str, tree=NOT_PARSED) -> str:
    """Remove comments and docstring-position string statements.

    ``tree`` is ``tokenizer.parse(source)`` when the caller already has it.
    It is reused only when no comment was removed, since the text is then
    ``source`` byte for byte; otherwise the comment-free text is parsed.
    Comment stripping never fails; docstring removal needs a parse and is
    skipped for unparseable source. All surviving code is byte-identical;
    lines emptied by a removal are dropped.
    """
    lines, removed = _strip_comments(source)
    stripped = "\n".join(lines)
    if removed or tree is NOT_PARSED:
        tree = parse(stripped)
    if tree is None:
        return stripped
    starts = _ast_line_starts(lines) if "\r" in stripped else None
    for lineno, col, end_lineno, end_col in sorted(_docstring_spans(tree), reverse=True):
        first, start = _position(lines, starts, lineno, col)
        last, end = _position(lines, starts, end_lineno, end_col)
        merged = lines[first][:start] + lines[last][end:]
        if merged.strip():
            lines[first:last + 1] = [merged]
        else:
            lines[first:last + 1] = []
    return "\n".join(lines)


def _length_summary(values) -> dict:
    values = sorted(values)
    if not values:
        return {"count": 0, "mean": 0.0, "median": 0.0, "p90": 0.0, "max": 0}
    n = len(values)
    # p90 by linear interpolation between order statistics.
    pos = 0.9 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return {
        "count": n,
        "mean": sum(values) / n,
        "median": (values[(n - 1) // 2] + values[n // 2]) / 2,
        "p90": float(values[lo] + (pos - lo) * (values[hi] - values[lo])),
        "max": values[-1],
    }


def length_stats(corpus) -> dict:
    """Raw-completion and extracted-code length summaries over the corpus.

    Keys ``raw_chars``, ``code_chars``, ``raw_tokens`` and ``code_tokens``,
    each a dict of ``count``, ``mean``, ``median``, ``p90`` and ``max``.
    """
    raw = [text for group in corpus for text in group.texts]
    code = [source for group in corpus for source in group.sources]
    return {
        "raw_chars": _length_summary([len(t) for t in raw]),
        "code_chars": _length_summary([len(t) for t in code]),
        "raw_tokens": _length_summary([count_lex_tokens(t) for t in raw]),
        "code_tokens": _length_summary([count_lex_tokens(t) for t in code]),
    }
