import ast
import json
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codediv.ingest import (
    CorpusError,
    _docstring_spans,
    _length_summary,
    _strip_comments,
    extract_code,
    keyed_records,
    length_stats,
    load_corpus,
    parse_corpus,
    strip_comments_docstrings,
)
from codediv.metrics import load_embeddings
from codediv.tokenizer import format_debug, parse, tokenize

from conftest import (
    DEEP_EXPRESSIONS,
    LONG_ELIF_CHAIN,
    bounded_call,
    docstring_spans_oracle,
    group_of,
    strip_comments_docstrings_oracle,
    strip_comments_oracle,
)


def record(pid, sid, text, correct, **extra):
    rec = {"prompt_id": pid, "sample_id": sid, "text": text, "correct": correct}
    rec.update(extra)
    return json.dumps(rec)


class TestKeyedRecords:
    def test_labels_records_and_keys(self):
        lines = ['{"prompt_id": "p", "sample_id": 1, "x": 2}', " \n", '{"prompt_id": "q", "sample_id": 0}']
        assert list(keyed_records(lines, where="embeddings line")) == [
            ("embeddings line 1", {"prompt_id": "p", "sample_id": 1, "x": 2}, ("p", 1)),
            ("embeddings line 3", {"prompt_id": "q", "sample_id": 0}, ("q", 0)),
        ]

    @pytest.mark.parametrize("reader, where", [(parse_corpus, "line"), (load_embeddings, "embeddings line")])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "invalid JSON record: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("[1, 2]", "record must be an object"),
            ('"p"', "record must be an object"),
            ('{"sample_id": 0}', "field 'prompt_id' must be a string"),
            ('{"prompt_id": ["p"], "sample_id": 0}', "field 'prompt_id' must be a string"),
            (
                '{"prompt_id": "p\\ud800", "sample_id": 0}',
                "field 'prompt_id' must be valid Unicode text (surrogates not allowed)",
            ),
            ('{"prompt_id": "p"}', "field 'sample_id' must be an integer >= 0"),
            ('{"prompt_id": "p", "sample_id": true}', "field 'sample_id' must be an integer >= 0"),
            ('{"prompt_id": "p", "sample_id": -1}', "field 'sample_id' must be an integer >= 0"),
            ('{"prompt_id": "p", "sample_id": 1.0}', "field 'sample_id' must be an integer >= 0"),
            ('{"prompt_id": "p", "sample_id": "1"}', "field 'sample_id' must be an integer >= 0"),
            ('{"prompt_id": "p", "sample_id": 0}', "duplicate sample (prompt_id='p', sample_id=0)"),
        ],
    )
    def test_both_inputs_refuse_a_bad_line_alike(self, reader, where, line, message):
        first = json.dumps({"prompt_id": "p", "sample_id": 0, "source": "x", "correct": True, "vector": [1.0]})
        with pytest.raises(CorpusError) as info:
            reader([first, "", line])
        assert str(info.value) == f"{where} 3: {message}"


class TestParseCorpus:
    def test_groups_and_counts(self):
        lines = [
            record("p1", 0, "```python\nx = 1\n```", True),
            record("p1", 2, "```python\nx = 3\n```", True),
            record("p1", 1, "```python\nx = 2\n```", False),
        ]
        corpus = parse_corpus(lines)
        group = group_of(corpus, "p1")
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
        group = group_of(parse_corpus([line]), "p1")
        assert group.samples[0].source == "explicit = 2\n"

    def test_sample_order_and_unfenced_source(self):
        lines = [
            record("pB", 1, "prose\n```python\ndef f():\n    return 1\n```\ntail", True),
            record("pB", 0, "no fence here", False),
            record("pA", 0, "", True, source="x = 1\n"),
        ]
        corpus = parse_corpus(lines)
        assert [g.prompt_id for g in corpus] == ["pA", "pB"]
        samples = group_of(corpus, "pB").samples
        assert [s.sample_id for s in samples] == [0, 1]
        assert (samples[0].text, samples[0].source, samples[0].correct) == ("no fence here", None, False)
        assert samples[1].source == "def f():\n    return 1\n"
        first = group_of(corpus, "pA").samples[0]
        assert (first.text, first.source) == ("", "x = 1\n")

    def test_load_corpus_from_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(record("p", 0, "```\nz = 0\n```", True) + "\n")
        assert group_of(load_corpus(path), "p").samples[0].source == "z = 0\n"


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

    def test_non_ascii_before_docstring(self):
        # ast column offsets count UTF-8 bytes, not characters.
        assert strip_comments_docstrings('def f(ééé): "doc"') == "def f(ééé): "

    def test_non_ascii_docstring_before_code(self):
        src = 'def f():\n    "é"; x = 1'
        assert strip_comments_docstrings(src) == "def f():\n    ; x = 1"

    def test_lone_carriage_return_ends_a_line(self):
        # ast counts a lone "\r" as a line end; the docstring is on line 2.
        assert strip_comments_docstrings("\r''") == ""
        src = "def f():\r    'd'\r    return 1\n"
        assert strip_comments_docstrings(src) == "def f():\r    \r    return 1\n"

    def test_comment_ends_at_lone_carriage_return(self):
        # The code after the "\r" is on the next ast line and stays.
        assert strip_comments_docstrings("x = 1 # c\ry = 2\n") == "x = 1\ry = 2\n"
        assert strip_comments_docstrings("# c\ry = 2\n") == "y = 2\n"
        assert strip_comments_docstrings("x = 1\r# c\ry = 2 # d\n") == "x = 1\ry = 2\n"

    def test_string_across_lone_carriage_return(self):
        src = "s = '''a\r# in\r''' # out\rt = 1\n"
        assert strip_comments_docstrings(src) == "s = '''a\r# in\r'''\rt = 1\n"
        # A backslash before the "\r" continues a one-quote string.
        src = "u = 'a\\\r# in' # out\n"
        assert strip_comments_docstrings(src) == "u = 'a\\\r# in'\n"

    def test_crlf_unchanged(self):
        assert strip_comments_docstrings("x = 1 # c\r\ny = 2\r\n") == "x = 1\ny = 2\r\n"
        assert strip_comments_docstrings("# c\r\ny = 2\r\n") == "y = 2\r\n"
        src = "x = 1\r\ny = '#'\r\n"
        assert strip_comments_docstrings(src) == src

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
# end, CRLF, a lone "\r", tabs, null bytes, surrogates, docstring-shaped
# statements, and non-ASCII text before and after a docstring on its line.
_FRAGMENTS = (
    "x = 1", "'a'", '"b"', "'''", '"""', "#", "# c", "\\", "\\\n", "\n", "\r\n", "\r", "# c\r",
    "\t", "    ", "\x00", "\ud800", "'#'", '"#"', "'''#'''", "def f():", "class C:", "\n    ",
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
    'def f(é): "dé"; ü = 1',
    'def g(ä):\n    """é\n    ü"""; x = "ö"',
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
        expected = "if a:\n    pass\n" + "elif a:\n    def f():\n" * 1500
        assert strip_comments_docstrings(LONG_ELIF_CHAIN) == expected


# Completions around those sources: fences with and without a tag, left
# open, indented, or one backtick short, and prose between them.
_FENCES = (
    "\n```\n", "\n```python\n", "```py\n", "\n``` Python \r\n", "\n  ```", "\n``\n",
    "```", "prose ", "\n", "\r\n", "\r", "\t",
)
COMPLETIONS = st.lists(st.one_of(st.sampled_from(_FENCES), SOURCES), max_size=8).map("".join)


class TestHostileFuzz:
    @given(src=SOURCES)
    @settings(max_examples=300, deadline=None)
    def test_tokenize_never_raises_and_reuses_the_tree(self, src):
        stream = tokenize(src)
        shared = tokenize(src, parse(src))
        assert shared == stream
        assert shared.fallback == stream.fallback
        assert format_debug(shared) == format_debug(stream)

    @given(text=COMPLETIONS)
    @settings(max_examples=300, deadline=None)
    def test_extract_code_never_raises(self, text):
        source = extract_code(text)
        if source is not None:
            assert isinstance(source, str)
            assert source.count("\n") <= text.count("\n")
            tokenize(source)


def _nested(depth):
    """A function whose body nests compound statements ``depth`` deep."""
    kinds = ("if x > 0:", "for x in x:", "while x:", "with x as x:", "try:")
    lines = ["def deep(x):"] + ["    " * d + kinds[d % 5] for d in range(1, depth + 1)]
    lines.append("    " * (depth + 1) + "x += 1")
    for d in range(depth, 0, -1):
        if kinds[d % 5] == "try:":
            lines += ["    " * d + "except ValueError:", "    " * (d + 1) + "pass"]
    return "\n".join(lines + ["    return x"]) + "\n"


_PROGRAM = [
    "def solve(values, limit):",
    '    """Sum the distinct values below a limit."""',
    "    total = 0  # running sum",
    "    seen = set()",
    "    for value in values:",
    "        if value in seen:",
    "            continue",
    "        seen.add(value)",
    "        if value < limit:",
    "            total += value",
    "        else:",
    "            total -= 1",
    "    while total > limit:",
    "        total //= 2",
    "    return total + len([v * 2 for v in seen if v % 3])",
]


def _broken(line, edit):
    lines = list(_PROGRAM)
    lines[line] = edit(lines[line])
    return "\n".join(lines) + "\n"


def _long_module(copies):
    """``copies`` renamed copies of _PROGRAM, 61 structural tokens each."""
    return "\n\n".join("\n".join(_PROGRAM).replace("solve", f"solve{i}") for i in range(copies)) + "\n"


def _fenced(code, fallback):
    completion = f"Here is a solution.\n\n```python\n{code}```\n\nThe function runs in linear time."
    return completion, code, fallback


# The source shapes of the benchmark's hostile cases, as raw completions:
# 90-deep nesting, a 600-term chain, a module of about 12,000 tokens, three
# malformed programs (a missing colon, an unclosed parenthesis, a bad
# indent), an empty fence and no fence.
# Each maps to (completion, extracted source, falls back to the lexer).
HOSTILE_SOURCES = {
    "nested90": _fenced(_nested(90), False),
    "chain600": _fenced(DEEP_EXPRESSIONS["binop_chain"], False),
    "long_module": _fenced(_long_module(197), False),
    "missing_colon": _fenced(_broken(0, lambda s: s.rstrip(":")), True),
    "open_paren": _fenced(_broken(9, lambda s: s + " + (1"), True),
    "bad_indent": _fenced(_broken(7, lambda s: "  " + s), True),
    "empty_fence": ("Here is a solution.\n```python\n```\n", "", False),
    "no_fence": ("Here is a solution. def f(x): return x", None, False),
}


class TestHostileSources:
    # (seconds, MB) for extract_code, tokenize and strip_comments_docstrings,
    # measured as conftest.bounded_call describes. The bounds take the best of
    # five runs, because the fastest of these calls take microseconds.
    @pytest.mark.parametrize(
        "shape, extract_bound, tokenize_bound, strip_bound",
        [
            ("nested90", (5e-5, 0.084), (8.2e-4, 0.30), (1.0e-3, 0.36)),
            ("chain600", (3e-6, 0.0030), (1.2e-3, 0.62), (9e-4, 0.62)),
            ("missing_colon", (5e-6, 0.0028), (2.6e-4, 0.013), (3.1e-5, 0.015)),
            ("open_paren", (8e-6, 0.0028), (5.1e-4, 0.069), (1.5e-4, 0.071)),
            ("bad_indent", (7e-6, 0.0028), (1.3e-4, 0.018), (6.3e-5, 0.019)),
            ("empty_fence", (3e-6, 0.0005), (1.2e-5, 0.012), (1.1e-5, 0.012)),
            ("no_fence", (1e-6, 0.0002), (1.1e-5, 0.012), (1.2e-5, 0.012)),
            ("long_module", (5.8e-4, 0.44), (2.9e-2, 10.2), (2.5e-2, 10.5)),
        ],
    )
    def test_time_and_memory_bounds(self, shape, extract_bound, tokenize_bound, strip_bound):
        text, expected_source, fallback = HOSTILE_SOURCES[shape]
        source = bounded_call(lambda: extract_code(text), *extract_bound, runs=5)
        assert source == expected_source
        source = source or ""
        stream = bounded_call(lambda: tokenize(source), *tokenize_bound, runs=5)
        assert stream.fallback == fallback
        bounded_call(lambda: strip_comments_docstrings(source), *strip_bound, runs=5)


class TestLengthStats:
    def test_single_sample(self):
        corpus = parse_corpus([record("p", 0, "0123456789", True)])
        report = length_stats(corpus)
        summary = report["raw_chars"]
        assert summary["mean"] == summary["median"] == summary["max"] == 10

    def test_three_lengths(self):
        lines = [record("p", i, "x" * n, True) for i, n in enumerate((10, 20, 30))]
        report = length_stats(parse_corpus(lines))
        assert report["raw_chars"]["mean"] == 20
        assert report["raw_chars"]["median"] == 20

    def test_code_lengths_use_extracted_source(self):
        # 12 chars of prose around a fence holding exactly "y = 1\n".
        text = "words\n```python\ny = 1\n```\nmore"
        corpus = parse_corpus([record("p", 0, text, True)])
        report = length_stats(corpus)
        assert report["code_chars"]["max"] == len("y = 1\n")
        assert report["raw_chars"]["max"] == len(text)
        assert report["code_chars"]["max"] <= report["raw_chars"]["max"]

    def test_median_matches_statistics(self):
        rng = random.Random(20261020)
        cases = [[7], [3, 8], [2**52, 2**52 - 1]]
        cases += [[rng.randint(0, 2**52) for _ in range(rng.randint(1, 60))] for _ in range(2000)]
        assert {len(v) % 2 for v in cases} == {0, 1}
        for values in cases:
            median = _length_summary(values)["median"]
            assert repr(median) == repr(float(statistics.median(values))), values

    def test_empty_corpus(self):
        zero = {"count": 0, "mean": 0.0, "median": 0.0, "p90": 0.0, "max": 0}
        assert length_stats([]) == {key: zero for key in ("raw_chars", "code_chars", "raw_tokens", "code_tokens")}

    def test_extracted_never_longer_than_raw(self):
        lines = [
            record("p", 0, "abc\n```python\nz = 1\n```", True),
            record("p", 1, "no fence", False),
        ]
        report = length_stats(parse_corpus(lines))
        for field in ("max", "mean"):
            assert report["code_chars"][field] <= report["raw_chars"][field]
