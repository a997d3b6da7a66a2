"""Corpus loading and code extraction.

A corpus is one JSON record per line with fields ``prompt_id`` (str),
``sample_id`` (int), ``text`` (str) and/or ``source`` (str), and ``correct``
(bool). ``text`` is a raw model completion from which executable code is
extracted; a record carrying ``source`` is treated as pre-extracted and
skips extraction. Records group by prompt into SampleGroup, the unit every
downstream metric operates on.
"""

import ast
import json
import re
import statistics
from dataclasses import dataclass, field

from .similarity import lex_tokens
from .tokenizer import NOT_PARSED, parse


class CorpusError(ValueError):
    """Raised for malformed corpus input; message carries the line number."""


@dataclass(frozen=True)
class Sample:
    sample_id: int
    text: str  # raw completion
    source: str | None  # extracted code; None when no fenced block exists
    correct: bool


@dataclass
class SampleGroup:
    """All generations for one prompt, ordered by sample_id."""

    prompt_id: str
    samples: list

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def m(self) -> int:
        return sum(1 for s in self.samples if s.correct)

    def sources(self):
        """Extracted source per sample; missing extractions map to ''."""
        return [s.source if s.source is not None else "" for s in self.samples]

    def correct_flags(self):
        return [s.correct for s in self.samples]


@dataclass
class Corpus:
    groups: dict = field(default_factory=dict)  # prompt_id -> SampleGroup

    def prompt_ids(self):
        return sorted(self.groups)

    def __len__(self):
        return len(self.groups)

    def __iter__(self):
        for pid in self.prompt_ids():
            yield self.groups[pid]

    def __getitem__(self, prompt_id):
        return self.groups[prompt_id]


def parse_corpus(lines) -> Corpus:
    """Parse line-delimited records into a Corpus.

    Raises CorpusError naming the offending line for malformed JSON, missing
    or mistyped fields, and duplicate (prompt_id, sample_id) keys.
    """
    groups: dict = {}
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise CorpusError(f"line {lineno}: invalid JSON record: {err}") from err
        if not isinstance(record, dict):
            raise CorpusError(f"line {lineno}: record must be an object")

        prompt_id = record.get("prompt_id")
        if not isinstance(prompt_id, str):
            raise CorpusError(f"line {lineno}: missing or non-string field 'prompt_id'")
        sample_id = record.get("sample_id")
        if isinstance(sample_id, bool) or not isinstance(sample_id, int) or sample_id < 0:
            raise CorpusError(f"line {lineno}: missing or invalid field 'sample_id'")
        if "correct" not in record:
            raise CorpusError(f"line {lineno}: missing field 'correct'")
        correct = record["correct"]
        if not isinstance(correct, bool):
            raise CorpusError(f"line {lineno}: field 'correct' must be a boolean")

        text = record.get("text")
        source = record.get("source")
        if source is not None and not isinstance(source, str):
            raise CorpusError(f"line {lineno}: field 'source' must be a string")
        if text is not None and not isinstance(text, str):
            raise CorpusError(f"line {lineno}: field 'text' must be a string")
        if text is None and source is None:
            raise CorpusError(f"line {lineno}: record needs 'text' or 'source'")

        key = (prompt_id, sample_id)
        if key in seen:
            raise CorpusError(
                f"line {lineno}: duplicate sample (prompt_id={prompt_id!r}, sample_id={sample_id})"
            )
        seen.add(key)

        if source is None:
            source = extract_code(text)
        if text is None:
            text = source
        sample = Sample(sample_id=sample_id, text=text, source=source, correct=correct)
        groups.setdefault(prompt_id, []).append(sample)

    assembled = {
        pid: SampleGroup(prompt_id=pid, samples=sorted(samples, key=lambda s: s.sample_id))
        for pid, samples in groups.items()
    }
    return Corpus(groups=assembled)


def load_corpus(path) -> Corpus:
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


@dataclass(frozen=True)
class LengthSummary:
    count: int
    mean: float
    median: float
    p90: float
    max: int

    @classmethod
    def of(cls, values):
        values = sorted(values)
        if not values:
            return cls(count=0, mean=0.0, median=0.0, p90=0.0, max=0)
        n = len(values)
        # p90 by linear interpolation between order statistics.
        pos = 0.9 * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        p90 = values[lo] + (pos - lo) * (values[hi] - values[lo])
        return cls(
            count=n,
            mean=sum(values) / n,
            median=float(statistics.median(values)),
            p90=float(p90),
            max=values[-1],
        )


@dataclass(frozen=True)
class LengthGroup:
    raw_chars: LengthSummary
    code_chars: LengthSummary
    raw_tokens: LengthSummary
    code_tokens: LengthSummary


def length_stats(corpus: Corpus) -> LengthGroup:
    """Raw-completion and extracted-code length summaries over the corpus."""
    samples = [s for group in corpus for s in group.samples]
    raw = [s.text for s in samples]
    code = [s.source if s.source is not None else "" for s in samples]
    return LengthGroup(
        raw_chars=LengthSummary.of([len(t) for t in raw]),
        code_chars=LengthSummary.of([len(t) for t in code]),
        raw_tokens=LengthSummary.of([len(lex_tokens(t)) for t in raw]),
        code_tokens=LengthSummary.of([len(lex_tokens(t)) for t in code]),
    )
