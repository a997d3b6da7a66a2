import ast
import keyword
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codediv.tokenizer import (
    _HANDLERS,
    _KINDS,
    VOCABULARY,
    StructuralToken,
    TokenStream,
    format_debug,
    parse,
    token_vocabulary,
    tokenize,
)

from conftest import DEEP_EXPRESSIONS, LONG_ELIF_CHAIN, RENAMED_PAIR, VARIANT_PAIR


class TestVocabulary:
    def test_contains_core_kinds(self):
        vocab = set(token_vocabulary())
        expected = {
            "DEF_BEGIN",
            "DEF_END",
            "ASSIGN",
            "APPLY",
            "IF_BEGIN",
            "FOR_BEGIN",
            "WHILE_BEGIN",
            "RETURN",
            "IDENT",
        }
        assert expected <= vocab

    def test_closed_and_large_enough(self):
        vocab = token_vocabulary()
        assert len(vocab) == len(set(vocab))
        assert len(vocab) >= 25
        # Pinned: the id order is a wire format, append-only within a major
        # version.
        assert len(vocab) == 44
        assert tuple(vocab) == VOCABULARY
        assert vocab[:2] == ["MODULE_BEGIN", "MODULE_END"]

    def test_no_identifier_text_kinds(self):
        # Kinds are a fixed enumeration: tokenizing any program introduces
        # no kind outside the vocabulary, and identifier text never leaks.
        stream = tokenize("some_very_unusual_name = another_name(third_name)")
        assert set(stream.kinds) <= set(VOCABULARY)
        assert all("some_very" not in k for k in stream.kinds)


class TestNormalization:
    def test_renamed_pair_identical(self):
        a = tokenize(RENAMED_PAIR[0])
        b = tokenize(RENAMED_PAIR[1])
        assert a == b
        assert not a.fallback and not b.fallback

    def test_rename_and_literal_invariance(self):
        assert tokenize("x = 1") == tokenize("y = 2")
        assert tokenize("s = 'abc'") == tokenize("t = 'xyz'")

    def test_loop_kinds_distinguished(self):
        for_stream = tokenize("for i in a: pass")
        while_stream = tokenize("while True: pass")
        assert for_stream != while_stream
        assert "FOR_BEGIN" in for_stream.kinds
        assert "WHILE_BEGIN" in while_stream.kinds

    def test_comment_invariance(self):
        bare = "def f(a):\n    b = a + 1\n    return b\n"
        commented = "def f(a):  # entry\n    b = a + 1  # bump\n    return b\n"
        assert tokenize(bare) == tokenize(commented)

    def test_whitespace_reformat_invariance(self):
        assert tokenize("x=f(1,2)") == tokenize("x = f( 1 , 2 )")

    def test_structure_sensitivity(self):
        ab = tokenize("a = f()\nreturn_value = 1\n")
        ba = tokenize("return_value = 1\na = f()\n")
        # Same multiset of kinds, different order.
        assert sorted(ab.kinds) == sorted(ba.kinds)
        assert ab != ba

    def test_variant_pair_differs(self):
        assert tokenize(VARIANT_PAIR[0]) != tokenize(VARIANT_PAIR[1])


IDENTIFIER = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s)
)


class TestProperties:
    @given(names=st.lists(IDENTIFIER, min_size=4, max_size=4, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_rename_invariance(self, names):
        template = (
            "def {0}({1}):\n"
            "    {2} = [{3} * {3} for {3} in {1} if {3} > 0]\n"
            "    return sum({2})\n"
        )
        base = template.format("fn", "xs", "out", "v")
        renamed = template.format(*names)
        assert tokenize(base) == tokenize(renamed)

    def test_position_monotonicity(self):
        programs = [
            RENAMED_PAIR[0],
            VARIANT_PAIR[0],
            VARIANT_PAIR[1],
            "import os\n\n@deco\ndef f(a, b=2, *args, c=3, **kw):\n"
            "    with open(a) as fh:\n"
            "        try:\n"
            "            data = fh.read()\n"
            "        except OSError as err:\n"
            "            raise RuntimeError('x') from err\n"
            "        finally:\n"
            "            fh.close()\n"
            "    while data:\n"
            "        data = data[:-1]\n"
            "    else:\n"
            "        pass\n"
            "    if a:\n"
            "        del b\n"
            "    elif c:\n"
            "        global z\n"
            "    else:\n"
            "        assert a, 'msg'\n"
            "    return {k: v for k, v in kw.items() if v}\n",
            "class C(Base, metaclass=Meta):\n"
            "    x: int = 0\n"
            "    def m(self):\n"
            "        yield from (i for i in range(3))\n"
            "        lambda q=1: q + 2\n",
        ]
        for src in programs:
            stream = tokenize(src)
            assert not stream.fallback
            positions = [(t.line, t.col) for t in stream.tokens]
            assert positions == sorted(positions), src

    def test_determinism(self):
        src = VARIANT_PAIR[0]
        first = tokenize(src)
        second = tokenize(src)
        assert first == second
        assert [t for t in first.tokens] == [t for t in second.tokens]


class TestFallback:
    def test_malformed_source_degrades(self):
        broken = "def f(:\n    x = 1\n    return x +\n"
        stream = tokenize(broken)
        assert stream.fallback
        # Identifiers and literals still normalized; no nesting kinds.
        assert "IDENT" in stream.kinds
        begin_end = {k for k in stream.kinds if k.endswith("_BEGIN") or k.endswith("_END")}
        assert not begin_end

    def test_fallback_never_raises_on_garbage(self):
        for text in ["", "\x00\x01\x02", "'''unterminated", "\tif if if ((("]:
            stream = tokenize(text)
            assert isinstance(stream, TokenStream)

    def test_wellformed_not_flagged(self):
        assert not tokenize("x = 1\n").fallback


class TestBlankSource:
    # The predicate is exactly ``not source.strip()``: report.json's
    # ``empty_sources`` and the hostile benchmark's expectations count it.
    @pytest.mark.parametrize("source", ["", "\n", " \t\r\n", "\x0c\n"])
    def test_blank_is_the_empty_stream(self, source):
        for stream in (tokenize(source), tokenize(source, parse(source)), tokenize(source, None)):
            assert stream == TokenStream([])
            assert not stream.fallback

    @pytest.mark.parametrize("source", ["# c\n", "pass\n"])
    def test_comment_or_code_is_not_blank(self, source):
        stream = tokenize(source)
        assert stream.kinds[0] == "MODULE_BEGIN" and stream.kinds[-1] == "MODULE_END"
        assert not stream.fallback
        assert tokenize(source, parse(source)) == stream


class TestDeepExpressions:
    def test_binop_chain_is_structural(self):
        stream = tokenize(DEEP_EXPRESSIONS["binop_chain"])
        assert not stream.fallback
        assert stream.kinds == (
            ("MODULE_BEGIN", "ASSIGN", "IDENT") + ("BINOP",) * 599 + ("LIT_NUM",) * 600 + ("MODULE_END",)
        )

    def test_binop_token_order_is_preorder(self):
        # Spine operators outermost first, then the leftmost operand, then
        # right operands innermost first; nested right operands recurse.
        stream = tokenize("x = a * b + (c - d) - e\n")
        assert [(t.kind, t.col) for t in stream.tokens[2:-1]] == [
            ("IDENT", 0),
            ("BINOP", 4),
            ("BINOP", 4),
            ("BINOP", 4),
            ("IDENT", 4),
            ("IDENT", 8),
            ("BINOP", 13),
            ("IDENT", 13),
            ("IDENT", 17),
            ("IDENT", 22),
        ]

    def test_postfix_chains_are_structural(self):
        head = ("MODULE_BEGIN", "ASSIGN", "IDENT")
        expected = {
            "attribute_chain": head + ("ATTR",) * 600 + ("IDENT",),
            "call_chain": head + ("APPLY", "ATTR") * 600 + ("IDENT",),
            "subscript_chain": head + ("SUBSCRIPT",) * 600 + ("IDENT",) + ("LIT_NUM",) * 600,
        }
        for name, kinds in expected.items():
            stream = tokenize(DEEP_EXPRESSIONS[name])
            assert not stream.fallback, name
            assert stream.kinds == kinds + ("MODULE_END",), name

    def test_unary_chains_are_structural(self):
        # A table-driven node costs one frame per nesting level, so 600
        # nested `not` or `-` stay under the recursion limit.
        for name in ("not_chain", "negation_chain"):
            stream = tokenize(DEEP_EXPRESSIONS[name])
            assert not stream.fallback, name
            assert stream.kinds == (
                ("MODULE_BEGIN", "ASSIGN", "IDENT") + ("UNARYOP",) * 600 + ("IDENT", "MODULE_END")
            ), name

    def test_deeper_chains_fall_back(self):
        # A handler node (Lambda, IfExp, BinOp's right operand) costs two
        # frames per nesting level and a table node one, so these pass the
        # recursion limit and degrade to the lexer. Where exactly depends on
        # the caller's stack depth.
        deeper = {
            "not_chain": "x = " + "not " * 1500 + "y\n",
            "lambda_chain": "x = " + "lambda: " * 600 + "y\n",
            "ternary_chain": "x = " + "a if b else " * 600 + "c\n",
            "power_chain": "x = " + "**".join(["a"] * 600) + "\n",
        }
        for name, source in deeper.items():
            assert parse(source) is not None, name
            assert tokenize(source).fallback, name

    def test_postfix_token_order_is_preorder(self):
        # Spine nodes outermost first, then the base, then call arguments
        # and slices innermost first; nested arguments recurse.
        stream = tokenize("y = f(a)[i].g(b, k=c)\n")
        assert [(t.kind, t.col) for t in stream.tokens[2:-1]] == [
            ("IDENT", 0),
            ("APPLY", 4),
            ("ATTR", 4),
            ("SUBSCRIPT", 4),
            ("APPLY", 4),
            ("IDENT", 4),
            ("IDENT", 6),
            ("IDENT", 9),
            ("IDENT", 14),
            ("IDENT", 19),
        ]


# Pinned format_debug of a 50-branch if/elif/else chain: the token order
# and positions of an elif walk.
ELIF_CHAIN_DEBUG = (
    "MODULE_BEGIN 1:0\nIF_BEGIN 1:0\nIDENT 1:3\nPASS 1:7\n"
    "ELIF 2:0\nIDENT 2:5\nPASS 2:9\n"
    "ELIF 3:0\nIDENT 3:5\nPASS 3:9\n"
    "ELIF 4:0\nIDENT 4:5\nPASS 4:9\n"
    "ELIF 5:0\nIDENT 5:5\nPASS 5:9\n"
    "ELIF 6:0\nIDENT 6:5\nPASS 6:9\n"
    "ELIF 7:0\nIDENT 7:5\nPASS 7:9\n"
    "ELIF 8:0\nIDENT 8:5\nPASS 8:9\n"
    "ELIF 9:0\nIDENT 9:5\nPASS 9:9\n"
    "ELIF 10:0\nIDENT 10:5\nPASS 10:9\n"
    "ELIF 11:0\nIDENT 11:5\nPASS 11:10\n"
    "ELIF 12:0\nIDENT 12:5\nPASS 12:10\n"
    "ELIF 13:0\nIDENT 13:5\nPASS 13:10\n"
    "ELIF 14:0\nIDENT 14:5\nPASS 14:10\n"
    "ELIF 15:0\nIDENT 15:5\nPASS 15:10\n"
    "ELIF 16:0\nIDENT 16:5\nPASS 16:10\n"
    "ELIF 17:0\nIDENT 17:5\nPASS 17:10\n"
    "ELIF 18:0\nIDENT 18:5\nPASS 18:10\n"
    "ELIF 19:0\nIDENT 19:5\nPASS 19:10\n"
    "ELIF 20:0\nIDENT 20:5\nPASS 20:10\n"
    "ELIF 21:0\nIDENT 21:5\nPASS 21:10\n"
    "ELIF 22:0\nIDENT 22:5\nPASS 22:10\n"
    "ELIF 23:0\nIDENT 23:5\nPASS 23:10\n"
    "ELIF 24:0\nIDENT 24:5\nPASS 24:10\n"
    "ELIF 25:0\nIDENT 25:5\nPASS 25:10\n"
    "ELIF 26:0\nIDENT 26:5\nPASS 26:10\n"
    "ELIF 27:0\nIDENT 27:5\nPASS 27:10\n"
    "ELIF 28:0\nIDENT 28:5\nPASS 28:10\n"
    "ELIF 29:0\nIDENT 29:5\nPASS 29:10\n"
    "ELIF 30:0\nIDENT 30:5\nPASS 30:10\n"
    "ELIF 31:0\nIDENT 31:5\nPASS 31:10\n"
    "ELIF 32:0\nIDENT 32:5\nPASS 32:10\n"
    "ELIF 33:0\nIDENT 33:5\nPASS 33:10\n"
    "ELIF 34:0\nIDENT 34:5\nPASS 34:10\n"
    "ELIF 35:0\nIDENT 35:5\nPASS 35:10\n"
    "ELIF 36:0\nIDENT 36:5\nPASS 36:10\n"
    "ELIF 37:0\nIDENT 37:5\nPASS 37:10\n"
    "ELIF 38:0\nIDENT 38:5\nPASS 38:10\n"
    "ELIF 39:0\nIDENT 39:5\nPASS 39:10\n"
    "ELIF 40:0\nIDENT 40:5\nPASS 40:10\n"
    "ELIF 41:0\nIDENT 41:5\nPASS 41:10\n"
    "ELIF 42:0\nIDENT 42:5\nPASS 42:10\n"
    "ELIF 43:0\nIDENT 43:5\nPASS 43:10\n"
    "ELIF 44:0\nIDENT 44:5\nPASS 44:10\n"
    "ELIF 45:0\nIDENT 45:5\nPASS 45:10\n"
    "ELIF 46:0\nIDENT 46:5\nPASS 46:10\n"
    "ELIF 47:0\nIDENT 47:5\nPASS 47:10\n"
    "ELIF 48:0\nIDENT 48:5\nPASS 48:10\n"
    "ELIF 49:0\nIDENT 49:5\nPASS 49:10\n"
    "ELSE 51:4\nIF_BEGIN 51:4\nIDENT 51:7\nPASS 51:10\n"
    "ELSE 52:10\nPASS 52:10\nIF_END 52:14\nIF_END 52:14\n"
    "MODULE_END 53:0"
)


class TestElifChains:
    def test_long_chain_is_structural(self):
        stream = tokenize(LONG_ELIF_CHAIN)
        assert not stream.fallback
        assert stream.kinds == (
            ("MODULE_BEGIN", "IF_BEGIN", "IDENT", "PASS")
            + ("ELIF", "IDENT", "DEF_BEGIN", "LIT_STR", "DEF_END") * 1500
            + ("IF_END", "MODULE_END")
        )

    def test_chain_debug_output_pinned(self):
        # 50 branches; the `if` under the final `else:` is not an elif.
        src = (
            "if c0: pass\n"
            + "".join(f"elif c{k}: pass\n" for k in range(1, 49))
            + "else:\n    if d: pass\n    else: pass\n"
        )
        assert format_debug(tokenize(src)) == ELIF_CHAIN_DEBUG


# One program with every node kind the emitter has a table entry or a
# handler for, plus the nodes it walks generically (Tuple, List, Set,
# Starred, Await, Slice, bare Expr), and its pinned format_debug.
ALL_NODES_PROGRAM = '''\
import os, sys as system
from . import sibling

declared: int
counter: int = 0
print("module", *system.argv)


@decorator(arg)
class Node(Base, metaclass=Meta):
    async def fetch(self, a, /, b=1, *args, c=2, d, **kw):
        global counter
        async with open(a) as fh, lock:
            data = await fh.read()
        async for chunk in stream(data):
            counter += len(chunk)
        else:
            pass
        return data


def outer(xs):
    total = 0

    def inner():
        nonlocal total
        total = total + 1

    for x in xs:
        if x > 0 and not x is None:
            continue
        elif -x < 0 or x:
            break
        else:
            del total, xs[0]
    else:
        inner()
    while total:
        total -= 1
    else:
        pass
    try:
        assert total == 0, "msg"
    except (ValueError, TypeError) as err:
        raise RuntimeError("bad") from err
    except Exception:
        raise
    else:
        pass
    finally:
        total = None
    with ctx() as (a, b):
        pass
    first, *rest = [1, 2.5, 3j, b"x", True, ...]
    pair = {1, 2}, (first,)
    merged = {"k": 1, **rest}
    parts = xs[1:2:3], xs[::2], xs[a.b()]
    lc = [x for x in xs if x if not x]
    sc = {x for x in xs}
    gc = sum(x for y in xs for x in y)
    dc = {k: v for k, v in merged.items()}
    fn = lambda p, q=1, *r, s=2, **t: p ** q
    cond = a if b else c
    if (n := len(xs)) > 10:
        pass
    text = f"{total}"
    yield total
    yield
    yield from xs
    match total:
        case 0:
            pass
        case [a, *b] if a:
            pass
        case _:
            pass
    return
'''

ALL_NODES_DEBUG = (
    "MODULE_BEGIN 1:0\nIMPORT 1:0\nIDENT 1:7\nIDENT 1:11\n"
    "IMPORT 2:0\nIDENT 2:14\n"
    "IDENT 4:0\n"
    "ASSIGN 5:0\nIDENT 5:0\nLIT_NUM 5:15\n"
    "APPLY 6:0\nIDENT 6:0\nLIT_STR 6:6\nATTR 6:17\nIDENT 6:17\n"
    "APPLY 9:1\nIDENT 9:1\nIDENT 9:11\n"
    "CLASS_BEGIN 10:0\nIDENT 10:11\nIDENT 10:27\n"
    "DEF_BEGIN 11:4\nIDENT 11:20\nIDENT 11:26\nIDENT 11:32\nLIT_NUM 11:34\nIDENT 11:38\n"
    "IDENT 11:44\nLIT_NUM 11:46\nIDENT 11:49\nIDENT 11:54\n"
    "SCOPE 12:8\n"
    "WITH_BEGIN 13:8\nAPPLY 13:19\nIDENT 13:19\nIDENT 13:24\nIDENT 13:30\nIDENT 13:34\n"
    "ASSIGN 14:12\nIDENT 14:12\nAPPLY 14:25\nATTR 14:25\nIDENT 14:25\nWITH_END 14:34\n"
    "FOR_BEGIN 15:8\nIDENT 15:18\nAPPLY 15:27\nIDENT 15:27\nIDENT 15:34\n"
    "AUG_ASSIGN 16:12\nIDENT 16:12\nAPPLY 16:23\nIDENT 16:23\nIDENT 16:27\n"
    "ELSE 18:12\nPASS 18:12\nFOR_END 18:16\n"
    "RETURN 19:8\nIDENT 19:15\nDEF_END 19:19\nCLASS_END 19:19\n"
    "DEF_BEGIN 22:0\nIDENT 22:10\n"
    "ASSIGN 23:4\nIDENT 23:4\nLIT_NUM 23:12\n"
    "DEF_BEGIN 25:4\n"
    "SCOPE 26:8\n"
    "ASSIGN 27:8\nIDENT 27:8\nBINOP 27:16\nIDENT 27:16\nLIT_NUM 27:24\nDEF_END 27:25\n"
    "FOR_BEGIN 29:4\nIDENT 29:8\nIDENT 29:13\n"
    "IF_BEGIN 30:8\nBINOP 30:11\nCOMPARE 30:11\nIDENT 30:11\nLIT_NUM 30:15\nUNARYOP 30:21\n"
    "COMPARE 30:25\nIDENT 30:25\nLIT_BOOLNONE 30:30\n"
    "BREAK_CONT 31:12\n"
    "ELIF 32:8\nBINOP 32:13\nCOMPARE 32:13\nUNARYOP 32:13\nIDENT 32:14\nLIT_NUM 32:18\n"
    "IDENT 32:23\n"
    "BREAK_CONT 33:12\n"
    "ELSE 35:12\nDEL 35:12\nIDENT 35:16\nSUBSCRIPT 35:23\nIDENT 35:23\nLIT_NUM 35:26\n"
    "IF_END 35:28\n"
    "ELSE 37:8\nAPPLY 37:8\nIDENT 37:8\nFOR_END 37:15\n"
    "WHILE_BEGIN 38:4\nIDENT 38:10\n"
    "AUG_ASSIGN 39:8\nIDENT 39:8\nLIT_NUM 39:17\n"
    "ELSE 41:8\nPASS 41:8\nWHILE_END 41:12\n"
    "TRY_BEGIN 42:4\n"
    "ASSERT 43:8\nCOMPARE 43:15\nIDENT 43:15\nLIT_NUM 43:24\nLIT_STR 43:27\n"
    "EXCEPT 44:4\nIDENT 44:12\nIDENT 44:24\n"
    "RAISE 45:8\nAPPLY 45:14\nIDENT 45:14\nLIT_STR 45:27\nIDENT 45:39\n"
    "EXCEPT 46:4\nIDENT 46:11\n"
    "RAISE 47:8\n"
    "ELSE 49:8\nPASS 49:8\n"
    "FINALLY 51:8\nASSIGN 51:8\nIDENT 51:8\nLIT_BOOLNONE 51:16\nTRY_END 51:20\n"
    "WITH_BEGIN 52:4\nAPPLY 52:9\nIDENT 52:9\nIDENT 52:19\nIDENT 52:22\n"
    "PASS 53:8\nWITH_END 53:12\n"
    "ASSIGN 54:4\nIDENT 54:4\nIDENT 54:12\nLIT_NUM 54:20\nLIT_NUM 54:23\nLIT_NUM 54:28\n"
    "LIT_STR 54:32\nLIT_BOOLNONE 54:38\nLIT_BOOLNONE 54:44\n"
    "ASSIGN 55:4\nIDENT 55:4\nLIT_NUM 55:12\nLIT_NUM 55:15\nIDENT 55:20\n"
    "ASSIGN 56:4\nIDENT 56:4\nLIT_STR 56:14\nLIT_NUM 56:19\nIDENT 56:24\n"
    "ASSIGN 57:4\nIDENT 57:4\nSUBSCRIPT 57:12\nIDENT 57:12\nLIT_NUM 57:15\nLIT_NUM 57:17\n"
    "LIT_NUM 57:19\nSUBSCRIPT 57:23\nIDENT 57:23\nLIT_NUM 57:28\nSUBSCRIPT 57:32\nIDENT 57:32\n"
    "APPLY 57:35\nATTR 57:35\nIDENT 57:35\n"
    "ASSIGN 58:4\nIDENT 58:4\nCOMP_BEGIN 58:9\nIDENT 58:10\nIDENT 58:16\nIDENT 58:21\n"
    "IDENT 58:27\nUNARYOP 58:32\nIDENT 58:36\nCOMP_END 58:38\n"
    "ASSIGN 59:4\nIDENT 59:4\nCOMP_BEGIN 59:9\nIDENT 59:10\nIDENT 59:16\nIDENT 59:21\n"
    "COMP_END 59:24\n"
    "ASSIGN 60:4\nIDENT 60:4\nAPPLY 60:9\nIDENT 60:9\nCOMP_BEGIN 60:12\nIDENT 60:13\nIDENT 60:19\n"
    "IDENT 60:24\nIDENT 60:31\nIDENT 60:36\nCOMP_END 60:38\n"
    "ASSIGN 61:4\nIDENT 61:4\nCOMP_BEGIN 61:9\nIDENT 61:10\nIDENT 61:13\nIDENT 61:19\n"
    "IDENT 61:22\nAPPLY 61:27\nATTR 61:27\nIDENT 61:27\nCOMP_END 61:42\n"
    "ASSIGN 62:4\nIDENT 62:4\nLAMBDA 62:9\nIDENT 62:16\nIDENT 62:19\nLIT_NUM 62:21\nIDENT 62:25\n"
    "IDENT 62:28\nLIT_NUM 62:30\nIDENT 62:35\nBINOP 62:38\nIDENT 62:38\nIDENT 62:43\n"
    "ASSIGN 63:4\nIDENT 63:4\nIDENT 63:11\nIDENT 63:16\nIDENT 63:23\n"
    "IF_BEGIN 64:4\nCOMPARE 64:7\nASSIGN 64:8\nIDENT 64:8\nAPPLY 64:13\nIDENT 64:13\nIDENT 64:17\n"
    "LIT_NUM 64:24\n"
    "PASS 65:8\nIF_END 65:12\n"
    "ASSIGN 66:4\nIDENT 66:4\nLIT_STR 66:11\n"
    "YIELD 67:4\nIDENT 67:10\n"
    "YIELD 68:4\n"
    "YIELD 69:4\nIDENT 69:15\n"
    "IF_BEGIN 70:4\nIDENT 70:10\n"
    "ELIF 71:13\n"
    "PASS 72:12\n"
    "ELIF 73:13\nIDENT 73:24\n"
    "PASS 74:12\n"
    "ELIF 75:13\n"
    "PASS 76:12\nIF_END 76:16\n"
    "RETURN 77:4\nDEF_END 77:10\n"
    "MODULE_END 78:0"
)


# ``except*`` (Python 3.11+), which ALL_NODES_PROGRAM cannot hold while
# Python 3.10 is supported, and its pinned format_debug.
EXCEPT_STAR_PROGRAM = """\
try:
    f()
except* E:
    g(x)
except* (A, B) as group:
    raise
else:
    pass
finally:
    h()
"""

EXCEPT_STAR_DEBUG = (
    "MODULE_BEGIN 1:0\nTRY_BEGIN 1:0\n"
    "APPLY 2:4\nIDENT 2:4\n"
    "EXCEPT 3:0\nIDENT 3:8\n"
    "APPLY 4:4\nIDENT 4:4\nIDENT 4:6\n"
    "EXCEPT 5:0\nIDENT 5:9\nIDENT 5:12\n"
    "RAISE 6:4\n"
    "ELSE 8:4\nPASS 8:4\n"
    "FINALLY 10:4\nAPPLY 10:4\nIDENT 10:4\nTRY_END 10:7\n"
    "MODULE_END 11:0"
)


class TestDebugFormat:
    def test_golden_lines(self):
        out = format_debug(tokenize("x = f(1)\n"))
        assert out == (
            "MODULE_BEGIN 1:0\n"
            "ASSIGN 1:0\n"
            "IDENT 1:0\n"
            "APPLY 1:4\n"
            "IDENT 1:4\n"
            "LIT_NUM 1:6\n"
            "MODULE_END 2:0"
        )

    def test_every_node_kind_pinned(self):
        stream = tokenize(ALL_NODES_PROGRAM)
        assert not stream.fallback
        assert format_debug(stream) == ALL_NODES_DEBUG

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="except* is Python 3.11+")
    def test_except_star_pinned(self):
        # A TryStar has the kinds of the Try it would be without the stars.
        stream = tokenize(EXCEPT_STAR_PROGRAM)
        assert format_debug(stream) == EXCEPT_STAR_DEBUG
        assert stream.kinds == tokenize(EXCEPT_STAR_PROGRAM.replace("except*", "except")).kinds

    def test_program_covers_every_table_entry(self):
        programs = [ALL_NODES_PROGRAM] + [EXCEPT_STAR_PROGRAM] * (sys.version_info >= (3, 11))
        present = {type(node) for src in programs for node in ast.walk(parse(src))}
        assert set(_KINDS) | set(_HANDLERS) <= present


class TestArrayStorage:
    PROGRAMS = (RENAMED_PAIR[0], VARIANT_PAIR[0], VARIANT_PAIR[1], "def f(:\n    return x +\n")

    def test_built_from_tokens_equals_emitted(self):
        for src in self.PROGRAMS:
            emitted = tokenize(src)
            rebuilt = TokenStream(list(emitted.tokens), fallback=emitted.fallback)
            assert rebuilt == emitted
            assert rebuilt.tokens == emitted.tokens
            assert rebuilt.ids.tolist() == emitted.ids.tolist()
            assert format_debug(rebuilt) == format_debug(emitted)

    def test_ids_are_contiguous_intc(self):
        streams = [TokenStream([]), TokenStream(()), tokenize(""), tokenize("x = 1\n"), tokenize("def f(:")]
        for stream in streams:
            ids = stream.ids
            assert ids.dtype == np.intc
            assert ids.flags["C_CONTIGUOUS"]
            assert len(ids) == len(stream)
            assert ids.tolist() == [VOCABULARY.index(k) for k in stream.kinds]
        assert TokenStream([]).ids.shape == (0,)

    def test_tokens_round_trip_kinds_and_positions(self):
        tokens = [
            StructuralToken("MODULE_BEGIN", 1, 0),
            StructuralToken("ASSIGN", 3, 4),
            StructuralToken("IDENT", 3, 4),
            StructuralToken("LIT_STR", 7, 120),
            StructuralToken("MODULE_END", 70000, 2),
        ]
        stream = TokenStream(tokens)
        assert stream.tokens == tuple(tokens)
        assert stream.kinds == tuple(t.kind for t in tokens)
        assert [(t.line, t.col) for t in stream.tokens] == [(t.line, t.col) for t in tokens]
        assert len(stream) == 5
        assert not stream.fallback

    def test_fallback_keeps_flag(self):
        stream = tokenize("def f(:\n    x = 1\n")
        assert stream.fallback
        assert repr(stream) == f"TokenStream({len(stream)} tokens, fallback)"
        assert TokenStream(stream.tokens, fallback=True).fallback
        assert not TokenStream(stream.tokens).fallback

    def test_shared_tree_gives_same_stream(self):
        for src in self.PROGRAMS:
            tree = parse(src)
            assert (tree is None) == tokenize(src).fallback
            assert format_debug(tokenize(src, tree)) == format_debug(tokenize(src))
            assert tokenize(src, tree).fallback == tokenize(src).fallback

    def test_equality_and_hash_follow_kinds(self):
        a, b = tokenize("x = 1\n"), tokenize("\n\ny   =   2\n")
        assert a == b and hash(a) == hash(b)
        assert [t.line for t in a.tokens] != [t.line for t in b.tokens]
        assert a != tokenize("x = f(1)\n")
