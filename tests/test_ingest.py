import ast
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codediv.ingest import (
    CorpusError,
    _docstring_spans,
    _strip_comments,
    extract_code,
    length_stats,
    load_corpus,
    parse_corpus,
    strip_comments_docstrings,
)
from codediv.tokenizer import parse

from conftest import (
    docstring_spans_oracle,
    strip_comments_docstrings_oracle,
    strip_comments_oracle,
)


def record(pid, sid, text, correct, **extra):
    rec = {"prompt_id": pid, "sample_id": sid, "text": text, "correct": correct}
    rec.update(extra)
    return json.dumps(rec)


class TestParseCorpus:
    def test_groups_and_counts(self):
        lines = [
            record("p1", 0, "```python\nx = 1\n```", True),
            record("p1", 2, "```python\nx = 3\n```", True),
            record("p1", 1, "```python\nx = 2\n```", False),
        ]
        corpus = parse_corpus(lines)
        group = corpus["p1"]
        assert group.n == 3
        assert group.m == 2
        assert [s.sample_id for s in group.samples] == [0, 1, 2]

    def test_empty_stream(self):
        assert len(parse_corpus([])) == 0

    def test_missing_correct_names_field_and_line(self):
        lines = [record("p1", 0, "x", True), json.dumps({"prompt_id": "p1", "sample_id": 1, "text": "y"})]
        with pytest.raises(CorpusError, match=r"line 2: missing field 'correct'"):
            parse_corpus(lines)

    def test_duplicate_key_rejected(self):
        lines = [record("p1", 0, "x", True), record("p1", 0, "y", False)]
        with pytest.raises(CorpusError, match="duplicate sample"):
            parse_corpus(lines)

    def test_malformed_json_names_line(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse_corpus(["{not json"])

    def test_source_wins_over_text(self):
        line = record("p1", 0, "```python\nfrom_text = 1\n```", True, source="explicit = 2\n")
        group = parse_corpus([line])["p1"]
        assert group.samples[0].source == "explicit = 2\n"

    def test_roundtrip_identity(self):
        lines = [
            record("pB", 1, "prose\n```python\ndef f():\n    return 1\n```\ntail", True),
            record("pB", 0, "no fence here", False),
            record("pA", 0, "", True, source="x = 1\n"),
        ]
        corpus = parse_corpus(lines)
        again = parse_corpus(list(corpus.to_jsonl_lines()))
        assert again == corpus
        assert list(again.to_jsonl_lines()) == list(corpus.to_jsonl_lines())

    def test_load_corpus_from_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(record("p", 0, "```\nz = 0\n```", True) + "\n")
        assert load_corpus(path)["p"].samples[0].source == "z = 0\n"


class TestExtractCode:
    def test_single_python_block(self):
        assert extract_code("intro\n```python\ndef f(): pass\n```\n") == "def f(): pass\n"

    def test_untagged_block(self):
        assert extract_code("```\nx = 1\n```") == "x = 1\n"

    def test_last_block_wins(self):
        text = (
            "draft:\n```python\nfirst = 1\n```\n"
            "final:\n```python\nsecond = 2\n```\n"
        )
        # Expected value fixed by hand from the fixture: the final block.
        assert extract_code(text) == "second = 2\n"

    def test_no_fence_absent(self):
        assert extract_code("just words, no code") is None

    def test_non_python_tag_skipped(self):
        assert extract_code("```json\n{}\n```") is None
        assert extract_code("```json\n{}\n```\n```python\nok = 1\n```") == "ok = 1\n"

    def test_unclosed_fence_runs_to_eof(self):
        assert extract_code("```python\nx = 1\ny = 2") == "x = 1\ny = 2\n"

    def test_rewrap_idempotence(self):
        src = "def f():\n    return 0\n"
        extracted = extract_code("```python\n" + src + "```")
        assert extracted == src
        assert extract_code("```python\n" + extracted + "```") == extracted


class TestStripCommentsDocstrings:
    def test_trailing_comment(self):
        assert strip_comments_docstrings("x = 1  # note") == "x = 1"

    def test_docstring_position(self):
        src = 'def f():\n    """doc."""\n    return 0\n'
        assert strip_comments_docstrings(src) == "def f():\n    return 0\n"

    def test_string_literal_preserved(self):
        src = 's = "# not a comment"'
        assert strip_comments_docstrings(src) == src

    def test_comment_only_line_collapses(self):
        src = "# header\nx = 1\n"
        assert strip_comments_docstrings(src) == "x = 1\n"

    def test_module_and_class_docstrings(self):
        src = '"""module doc"""\nclass C:\n    "class doc"\n    x = 1\n'
        assert strip_comments_docstrings(src) == "class C:\n    x = 1\n"

    def test_leading_string_run_removed(self):
        src = 'def f():\n    "one"\n    "two"\n    return 0\n'
        assert strip_comments_docstrings(src) == "def f():\n    return 0\n"

    def test_non_docstring_string_statement_kept(self):
        src = "x = 1\n'kept'\n"
        assert strip_comments_docstrings(src) == src

    def test_idempotent(self):
        sources = [
            "x = 1  # note",
            'def f():\n    """doc."""\n    return 0\n',
            'def f():\n    "one"\n    "two"\n    return 0\n',
            "broken(:  # comment\n",
            "s = '#x' # real\n# gone\n",
        ]
        for src in sources:
            once = strip_comments_docstrings(src)
            assert strip_comments_docstrings(once) == once

    def test_unparseable_falls_back_to_comments_only(self):
        src = "def f(:\n    x = 1  # note\n"
        assert strip_comments_docstrings(src) == "def f(:\n    x = 1\n"

    def test_hash_inside_triple_quote(self):
        src = 'x = """\n# inside\n"""\ny = 1  # outside\n'
        assert strip_comments_docstrings(src) == 'x = """\n# inside\n"""\ny = 1\n'


# Pieces that steer the comment scanner and the docstring finder: quotes,
# triple quotes, '#' inside and outside strings, a backslash before a line
# end, CRLF, tabs, null bytes, surrogates and docstring-shaped statements.
_FRAGMENTS = (
    "x = 1", "'a'", '"b"', "'''", '"""', "#", "# c", "\\", "\\\n", "\n", "\r\n", "\t",
    "    ", "\x00", "\ud800", "'#'", '"#"', "'''#'''", "def f():", "class C:", "\n    ",
    '"""doc"""', "'doc'", "if x:", "else:", "pass", "return x", "f'{x}'", "\u00e9",
)
_STATEMENTS = (
    "def f():", "async def g():", "class C:", '"""doc"""', "'s'", "x = '#'", 'y = "a\\"#"',
    "pass", "if x:", "else:", "return 1", '"""a', '#b"""', "x = 1  # c", "# only", "z = '''",
)
# Well-formed top-level blocks, so that most generated modules parse.
_BLOCKS = (
    'def f():\n    """d"""  # c\n    return 1',
    "class C:\n    'doc' # c\n    'two'\n    x = '#'",
    "if x:  # c\n    def g():\n        'd'\n\n        pass",
    "s = '''a\n# in\n'''  # out",
    't = "\\\\"  # c',
    "u = 'a\\\n#b'",
    '"""module"""',
    "x = 1\t# c",
    "# only",
)
_LINE = st.tuples(
    st.sampled_from(("", "    ", "        ", "\t")),
    st.sampled_from(_STATEMENTS),
    st.sampled_from(("", "  # c", " #", "\t# 'q")),
).map("".join)
SOURCES = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
    st.text(alphabet="'\"#\\ \t\r\nx:=(\x00\ud800", max_size=60),
    *(
        st.tuples(st.lists(parts, max_size=12), st.sampled_from(("\n", "\r\n"))).map(
            lambda args: args[1].join(args[0]) + args[1]
        )
        for parts in (_LINE, st.sampled_from(_BLOCKS))
    ),
)

# A def or class docstring inside every statement list of every compound
# statement, plus the module docstring.
NESTED_DOCSTRINGS = '''\
"""module"""
if a:
    def f1():
        """in if"""
elif b:
    class C2:
        """in elif"""
else:
    def f3():
        """in else"""
for x in y:
    def f4():
        """in for"""
else:
    def f5():
        """in for-else"""
while a:
    def f6():
        """in while"""
else:
    def f7():
        """in while-else"""
try:
    def f8():
        """in try"""
except E:
    def f9():
        """in except"""
else:
    def f10():
        """in try-else"""
finally:
    def f11():
        """in finally"""
try:
    pass
except* E:
    def f12():
        """in except*"""
with m:
    def f13():
        """in with"""
async def g():
    """async def"""
    async for x in y:
        def f14():
            """in async for"""
    else:
        def f15():
            """in async for-else"""
    async with m:
        class C16:
            """in async with"""
match v:
    case 1:
        def f17():
            """in case"""
    case _:
        async def f18():
            """in async def in case"""
'''


class TestStripAgainstOracles:
    @given(src=SOURCES)
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_and_shared_tree(self, src):
        assert _strip_comments(src) == strip_comments_oracle(src)
        once = strip_comments_docstrings(src)
        assert strip_comments_docstrings(src, parse(src)) == once
        assert once == strip_comments_docstrings_oracle(src)
        assert strip_comments_docstrings(once) == once

    @given(src=SOURCES)
    @settings(max_examples=200, deadline=None)
    def test_docstring_spans_match_reference(self, src):
        tree = parse(src)
        if tree is not None:
            assert sorted(_docstring_spans(tree)) == sorted(docstring_spans_oracle(src))

    def test_docstrings_nested_in_every_compound_statement(self):
        spans = _docstring_spans(ast.parse(NESTED_DOCSTRINGS))
        assert sorted(spans) == sorted(docstring_spans_oracle(NESTED_DOCSTRINGS))
        assert len(spans) == NESTED_DOCSTRINGS.count('"""') // 2 == 20
        stripped = strip_comments_docstrings(NESTED_DOCSTRINGS)
        assert '"""' not in stripped
        assert stripped == strip_comments_docstrings_oracle(NESTED_DOCSTRINGS)

    def test_long_elif_chain(self):
        # elif chains nest in orelse lists, deeper than the recursion limit.
        head = "if a:\n    pass\n"
        src = head + "elif a:\n    def f():\n        'doc'\n" * 1500
        assert strip_comments_docstrings(src) == head + "elif a:\n    def f():\n" * 1500


class TestLengthStats:
    def test_single_sample(self):
        corpus = parse_corpus([record("p", 0, "0123456789", True)])
        report = length_stats(corpus)
        summary = report.raw_chars
        assert summary.mean == summary.median == summary.max == 10

    def test_three_lengths(self):
        lines = [record("p", i, "x" * n, True) for i, n in enumerate((10, 20, 30))]
        report = length_stats(parse_corpus(lines))
        assert report.raw_chars.mean == 20
        assert report.raw_chars.median == 20

    def test_code_lengths_use_extracted_source(self):
        # 12 chars of prose around a fence holding exactly "y = 1\n".
        text = "words\n```python\ny = 1\n```\nmore"
        corpus = parse_corpus([record("p", 0, text, True)])
        report = length_stats(corpus)
        assert report.code_chars.max == len("y = 1\n")
        assert report.raw_chars.max == len(text)
        assert report.code_chars.max <= report.raw_chars.max

    def test_extracted_never_longer_than_raw(self):
        lines = [
            record("p", 0, "abc\n```python\nz = 1\n```", True),
            record("p", 1, "no fence", False),
        ]
        report = length_stats(parse_corpus(lines))
        for field in ("max", "mean"):
            assert getattr(report.code_chars, field) <= getattr(
                report.raw_chars, field
            )
