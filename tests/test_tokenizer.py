import keyword

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from codediv.tokenizer import (
    VOCABULARY,
    StructuralToken,
    TokenStream,
    format_debug,
    parse,
    token_vocabulary,
    tokenize,
)

from conftest import DEEP_EXPRESSIONS, RENAMED_PAIR, VARIANT_PAIR


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
