"""Structural tokenization of Python source.

Source text is reduced to a stream of structural token kinds drawn from a
closed vocabulary: identifiers collapse to a single IDENT kind, literal
values collapse to per-type literal kinds, and comments never reach the
stream. Two programs that differ only in naming, literal values, comments,
or whitespace therefore produce equal streams, which is the property the
similarity layer builds on.

Well-formed source is parsed with the standard ``ast`` module (``parse``)
and walked in source order, as JPlag's front ends do: a table maps each node
type that is "one kind, then its children" to that kind, and handler methods
cover the node types with their own order or begin/end pairs (see
``_StructuralEmitter``). A caller that also needs the tree, such as the
comment and docstring stripper in ``ingest``, parses once and hands the
same tree to ``tokenize``. Generated code is frequently malformed; in that
case a plain lexer pass still normalizes identifiers and literals but emits
none of the block begin/end kinds, and the resulting stream is flagged
``fallback`` so reports can count degraded inputs. Blank source (such as a
sample with no code) is the empty stream, with no module to begin or end.

Streams are stored as three ``array('i')`` buffers (kind ids, lines,
columns); no per-token object exists unless ``TokenStream.tokens`` is asked
for. The emitter appends each token's three ints to one flat list and splits
it into the buffers at the end, which costs less than half as much per token
as three bound ``append`` calls (CPython 3.11).
"""

import ast
import io
import keyword
import tokenize as _stdtok
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

# Closed vocabulary. Order is the wire format for token ids: append only,
# never reorder within a major version.
VOCABULARY = (
    "MODULE_BEGIN",
    "MODULE_END",
    "DEF_BEGIN",
    "DEF_END",
    "CLASS_BEGIN",
    "CLASS_END",
    "IF_BEGIN",
    "ELIF",
    "ELSE",
    "IF_END",
    "FOR_BEGIN",
    "FOR_END",
    "WHILE_BEGIN",
    "WHILE_END",
    "TRY_BEGIN",
    "EXCEPT",
    "FINALLY",
    "TRY_END",
    "WITH_BEGIN",
    "WITH_END",
    "COMP_BEGIN",
    "COMP_END",
    "ASSIGN",
    "AUG_ASSIGN",
    "APPLY",
    "RETURN",
    "YIELD",
    "RAISE",
    "ASSERT",
    "IMPORT",
    "LAMBDA",
    "BINOP",
    "UNARYOP",
    "COMPARE",
    "SUBSCRIPT",
    "ATTR",
    "LIT_NUM",
    "LIT_STR",
    "LIT_BOOLNONE",
    "IDENT",
    "DEL",
    "SCOPE",
    "BREAK_CONT",
    "PASS",
)

KIND_IDS = {kind: i for i, kind in enumerate(VOCABULARY)}


def token_vocabulary():
    """Return the closed vocabulary of structural token kinds, in id order."""
    return list(VOCABULARY)


@dataclass(frozen=True)
class StructuralToken:
    kind: str
    line: int  # 1-based
    col: int  # 0-based


class TokenStream:
    """Ordered structural tokens for one program.

    Kind ids, lines and columns live in three parallel ``array('i')``
    buffers. ``tokens`` builds StructuralToken objects on demand for
    debugging; the matcher reads ``ids``, a zero-copy view of the kind ids.

    Equality is defined over the kind sequence only: positions are debug
    metadata and change under renaming or reformatting, while the kind
    sequence is the representation the matcher compares.
    """

    __slots__ = ("fallback", "_kind_ids", "_lines", "_cols")

    def __init__(self, tokens, fallback=False):
        tokens = tuple(tokens)
        self._kind_ids = array("i", [KIND_IDS[t.kind] for t in tokens])
        self._lines = array("i", [t.line for t in tokens])
        self._cols = array("i", [t.col for t in tokens])
        self.fallback = bool(fallback)

    @classmethod
    def _from_arrays(cls, kind_ids, lines, cols, fallback):
        """Wrap the emitter's or the fallback lexer's buffers without copying."""
        stream = cls.__new__(cls)
        stream._kind_ids, stream._lines, stream._cols = kind_ids, lines, cols
        stream.fallback = fallback
        return stream

    @property
    def tokens(self):
        return tuple(
            StructuralToken(VOCABULARY[k], line, col)
            for k, line, col in zip(self._kind_ids, self._lines, self._cols)
        )

    @property
    def kinds(self):
        return tuple(VOCABULARY[k] for k in self._kind_ids)

    @property
    def ids(self):
        """Vocabulary ids as a C-contiguous intc array sharing the stream's buffer."""
        return np.frombuffer(self._kind_ids, dtype=np.intc)

    def __len__(self):
        return len(self._kind_ids)

    def __eq__(self, other):
        if not isinstance(other, TokenStream):
            return NotImplemented
        return self._kind_ids == other._kind_ids

    def __hash__(self):
        return hash(self._kind_ids.tobytes())

    def __repr__(self):
        flag = ", fallback" if self.fallback else ""
        return f"TokenStream({len(self)} tokens{flag})"


def format_debug(stream: TokenStream) -> str:
    """Debug form consumed by the CLI: one ``kind line:col`` row per token."""
    return "\n".join(
        f"{VOCABULARY[k]} {line}:{col}"
        for k, line, col in zip(stream._kind_ids, stream._lines, stream._cols)
    )


def parse(source: str):
    """The ``ast`` tree of ``source``, or None when it does not parse.

    This is the one place that decides which parse failures are expected
    from generated code; ``tokenize`` and ``ingest.strip_comments_docstrings``
    accept its result so that a caller needing both parses only once.
    """
    try:
        with warnings.catch_warnings():
            # Generated code trips warnings such as "invalid decimal
            # literal" (``1if x else 2``); they are not the caller's to see.
            warnings.simplefilter("ignore", SyntaxWarning)
            warnings.simplefilter("ignore", DeprecationWarning)
            return ast.parse(source)
    except (SyntaxError, ValueError, MemoryError, RecursionError):
        return None


# Default for ``tree`` arguments: the callee parses the source itself. None
# is a real value there (the source does not parse), so it cannot be the default.
NOT_PARSED = object()


def tokenize(source: str, tree=NOT_PARSED) -> TokenStream:
    """Tokenize Python source into a structural TokenStream.

    Blank source (``not source.strip()``) is the empty, unflagged stream,
    so two samples with no code score 1.0 against each other. ``tree`` is
    ``parse(source)`` when the caller already has it; by default the source
    is parsed here. Never raises on bad input: source that does not parse
    (``tree`` is None), or nests too deeply for the emitter's recursion,
    degrades to the lexer fallback and the stream is flagged.
    """
    if not source.strip():
        return TokenStream(())
    if tree is NOT_PARSED:
        tree = parse(source)
    if tree is not None:
        try:
            arrays = _StructuralEmitter().emit_module(tree, source)
        except RecursionError:
            pass
        else:
            return TokenStream._from_arrays(*arrays, False)
    return TokenStream._from_arrays(*_lex_fallback(source), True)


# The kind ids the emitter appends, resolved once.
(
    _MODULE_BEGIN, _MODULE_END, _DEF_BEGIN, _DEF_END, _CLASS_BEGIN, _CLASS_END,
    _IF_BEGIN, _ELIF, _ELSE, _IF_END, _FOR_BEGIN, _FOR_END, _WHILE_BEGIN, _WHILE_END,
    _TRY_BEGIN, _EXCEPT, _FINALLY, _TRY_END, _WITH_BEGIN, _WITH_END, _COMP_BEGIN, _COMP_END,
    _ASSIGN, _APPLY, _IMPORT, _LAMBDA, _BINOP, _SUBSCRIPT, _ATTR,
    _LIT_NUM, _LIT_STR, _LIT_BOOLNONE, _IDENT,
) = (KIND_IDS[kind] for kind in """
    MODULE_BEGIN MODULE_END DEF_BEGIN DEF_END CLASS_BEGIN CLASS_END
    IF_BEGIN ELIF ELSE IF_END FOR_BEGIN FOR_END WHILE_BEGIN WHILE_END
    TRY_BEGIN EXCEPT FINALLY TRY_END WITH_BEGIN WITH_END COMP_BEGIN COMP_END
    ASSIGN APPLY IMPORT LAMBDA BINOP SUBSCRIPT ATTR
    LIT_NUM LIT_STR LIT_BOOLNONE IDENT
""".split())

# A Constant's kind by the type of its value; str and bytes are LIT_STR.
_CONSTANT_KINDS = {
    bool: _LIT_BOOLNONE,
    type(None): _LIT_BOOLNONE,
    type(Ellipsis): _LIT_BOOLNONE,
    int: _LIT_NUM,
    float: _LIT_NUM,
    complex: _LIT_NUM,
}

# The child nodes the emitter walks; operators, contexts and the like emit nothing.
_WALKED = (ast.expr, ast.stmt)


class _StructuralEmitter:
    """Walk an ast in source order, appending kind ids and positions.

    Every token is three ints appended to one flat list, ``buf``: its kind
    id, line and column. ``walk`` emits ``Name`` and ``Constant`` leaves,
    the most frequent nodes, itself, and dispatches every other node on its
    type through two module tables:

    * ``_HANDLERS`` maps the types that need their own order or kinds (block
      begin/end pairs, flattened annotations, the iterative BinOp and postfix
      spines) to the ``stmt_*``/``expr_*`` methods named after them.
    * ``_KINDS`` maps the types whose tokens are one kind at the node, then
      the node's children in field order (``x = y``: ASSIGN, targets, value).

    Any other node (``Expr``, ``Await``, ``Starred``, ``Slice``, ``Tuple``,
    ...) emits nothing itself and walks its expression and statement
    children. A ``_KINDS`` node costs one Python frame per nesting level, so
    600 nested ``not`` or ``-`` stay under the recursion limit; a handler
    node costs two.
    """

    def __init__(self):
        self.buf = []

    def emit_module(self, tree, source):
        """The ``(kind_ids, lines, cols)`` arrays of the module ``tree``."""
        buf = self.buf
        buf += (_MODULE_BEGIN, 1, 0)
        self.suite(tree.body)
        buf += (_MODULE_END, source.count("\n") + 1, len(source.rsplit("\n", 1)[-1]))
        flat = array("i", buf)
        return flat[0::3], flat[1::3], flat[2::3]

    def walk(self, node):
        cls = type(node)
        if cls is ast.Name:
            self.buf += (_IDENT, node.lineno, node.col_offset)
            return
        if cls is ast.Constant:
            self.buf += (_CONSTANT_KINDS.get(type(node.value), _LIT_STR), node.lineno, node.col_offset)
            return
        handler = _HANDLERS.get(cls)
        if handler is not None:
            handler(self, node)
            return
        kind = _KINDS.get(cls)
        if kind is not None:
            self.buf += (kind, node.lineno, node.col_offset)
        for field in cls._fields:
            child = getattr(node, field)
            if type(child) is list:
                for item in child:
                    if isinstance(item, _WALKED):
                        self.walk(item)
            elif isinstance(child, _WALKED):
                self.walk(child)

    def suite(self, body):
        for stmt in body:
            self.walk(stmt)

    def begin(self, kind, node):
        self.buf += (kind, node.lineno, node.col_offset)

    def end(self, kind, node):
        self.buf += (kind, node.end_lineno, node.end_col_offset)

    # -- statements ---------------------------------------------------

    def stmt_FunctionDef(self, node):
        for dec in node.decorator_list:
            self.walk(dec)
        self.begin(_DEF_BEGIN, node)
        self.arguments(node.args)
        self.suite(node.body)
        self.end(_DEF_END, node)

    stmt_AsyncFunctionDef = stmt_FunctionDef

    def stmt_ClassDef(self, node):
        for dec in node.decorator_list:
            self.walk(dec)
        self.begin(_CLASS_BEGIN, node)
        for base in self._in_source_order(node.bases, [kw.value for kw in node.keywords]):
            self.walk(base)
        self.suite(node.body)
        self.end(_CLASS_END, node)

    def stmt_If(self, node):
        self.begin(_IF_BEGIN, node)
        self.walk(node.test)
        self.suite(node.body)
        # `elif` parses as a nested If aligned with its parent keyword; an
        # indented `if` under a real `else:` sits at a deeper column. The
        # chain is walked with a loop: it can be thousands of branches long.
        buf = self.buf
        branch = node
        while branch.orelse:
            orelse = branch.orelse
            first = orelse[0]
            if len(orelse) == 1 and type(first) is ast.If and first.col_offset == branch.col_offset:
                branch = first
                buf += (_ELIF, branch.lineno, branch.col_offset)
                self.walk(branch.test)
                self.suite(branch.body)
            else:
                buf += (_ELSE, first.lineno, first.col_offset)
                self.suite(orelse)
                break
        self.end(_IF_END, node)

    def stmt_For(self, node):
        self._loop(node, _FOR_BEGIN, _FOR_END, node.target, node.iter)

    stmt_AsyncFor = stmt_For

    def stmt_While(self, node):
        self._loop(node, _WHILE_BEGIN, _WHILE_END, node.test)

    def _loop(self, node, begin_kind, end_kind, *heads):
        self.begin(begin_kind, node)
        for head in heads:
            self.walk(head)
        self.suite(node.body)
        if node.orelse:
            self.begin(_ELSE, node.orelse[0])
            self.suite(node.orelse)
        self.end(end_kind, node)

    def stmt_Try(self, node):
        self.begin(_TRY_BEGIN, node)
        self.suite(node.body)
        for handler in node.handlers:
            self.begin(_EXCEPT, handler)
            if handler.type is not None:
                self.walk(handler.type)
            self.suite(handler.body)
        if node.orelse:
            self.begin(_ELSE, node.orelse[0])
            self.suite(node.orelse)
        if node.finalbody:
            self.begin(_FINALLY, node.finalbody[0])
            self.suite(node.finalbody)
        self.end(_TRY_END, node)

    if hasattr(ast, "TryStar"):  # `except*`, Python 3.11+
        stmt_TryStar = stmt_Try

    def stmt_With(self, node):
        self.begin(_WITH_BEGIN, node)
        for item in node.items:
            self.walk(item.context_expr)
            if item.optional_vars is not None:
                self.walk(item.optional_vars)
        self.suite(node.body)
        self.end(_WITH_END, node)

    stmt_AsyncWith = stmt_With

    def stmt_AnnAssign(self, node):
        # Annotations are flattened away; a bare declaration keeps its target.
        if node.value is not None:
            self.begin(_ASSIGN, node)
            self.walk(node.target)
            self.walk(node.value)
        else:
            self.walk(node.target)

    def stmt_Import(self, node):
        self.begin(_IMPORT, node)
        for alias in node.names:
            self.begin(_IDENT, alias)

    stmt_ImportFrom = stmt_Import

    def stmt_Match(self, node):
        # match/case is folded onto the if/elif kinds: each case arm is a
        # guarded branch. Pattern internals are not tokenized.
        self.begin(_IF_BEGIN, node)
        self.walk(node.subject)
        for case in node.cases:
            self.begin(_ELIF, case.pattern)
            if case.guard is not None:
                self.walk(case.guard)
            self.suite(case.body)
        self.end(_IF_END, node)

    # -- expressions --------------------------------------------------

    def expr_JoinedStr(self, node):
        # f-strings are opaque string literals; pre-3.12 subexpression
        # positions are unreliable and would break position monotonicity.
        self.begin(_LIT_STR, node)

    def _postfix_spine(self, node):
        # Walk `a.b()[0]...` down its func/value spine iteratively, like
        # expr_BinOp. Token order is the recursive pre-order: every spine
        # APPLY/ATTR/SUBSCRIPT, the base, then the call arguments and
        # slices innermost first.
        buf = self.buf
        deferred = []
        while True:
            cls = type(node)
            if cls is ast.Attribute:
                buf += (_ATTR, node.lineno, node.col_offset)
                node = node.value
            elif cls is ast.Call:
                buf += (_APPLY, node.lineno, node.col_offset)
                deferred.append(node)
                node = node.func
            elif cls is ast.Subscript:
                buf += (_SUBSCRIPT, node.lineno, node.col_offset)
                deferred.append(node)
                node = node.value
            else:
                break
        self.walk(node)
        for outer in reversed(deferred):
            if type(outer) is ast.Subscript:
                self.walk(outer.slice)
            elif outer.keywords:
                # `f(x=1, *y)` is legal: merge positional and keyword
                # arguments by source position to keep the stream monotone.
                for arg in self._in_source_order(outer.args, [kw.value for kw in outer.keywords]):
                    self.walk(arg)
            else:
                for arg in outer.args:
                    self.walk(arg)

    expr_Attribute = expr_Call = expr_Subscript = _postfix_spine

    def expr_BinOp(self, node):
        # Walk the left spine iteratively: `a+b+c+...` nests leftwards and
        # would otherwise recurse once per operator. Token order is the
        # recursive pre-order: every spine BINOP, the leftmost operand, then
        # the right operands innermost first.
        buf = self.buf
        spine = []
        while type(node) is ast.BinOp:
            buf += (_BINOP, node.lineno, node.col_offset)
            spine.append(node)
            node = node.left
        self.walk(node)
        for binop in reversed(spine):
            self.walk(binop.right)

    def expr_Lambda(self, node):
        self.begin(_LAMBDA, node)
        self.arguments(node.args)
        self.walk(node.body)

    def expr_IfExp(self, node):
        # Ternaries are flattened; children in source order.
        self.walk(node.body)
        self.walk(node.test)
        self.walk(node.orelse)

    def expr_Dict(self, node):
        for key, value in zip(node.keys, node.values):
            if key is not None:  # None key is a **mapping splat
                self.walk(key)
            self.walk(value)

    def _comprehension(self, node):
        self.begin(_COMP_BEGIN, node)
        if type(node) is ast.DictComp:
            self.walk(node.key)
            self.walk(node.value)
        else:
            self.walk(node.elt)
        for gen in node.generators:
            self.walk(gen.target)
            self.walk(gen.iter)
            for cond in gen.ifs:
                self.walk(cond)
        self.end(_COMP_END, node)

    expr_ListComp = expr_SetComp = expr_GeneratorExp = expr_DictComp = _comprehension

    # -- shared -------------------------------------------------------

    @staticmethod
    def _in_source_order(*node_lists):
        merged = [n for nodes in node_lists for n in nodes]
        merged.sort(key=lambda n: (n.lineno, n.col_offset))
        return merged

    def arguments(self, args):
        buf = self.buf
        positional = args.posonlyargs + args.args
        defaults = args.defaults
        # Defaults right-align with the positional tail; interleave to keep
        # token positions in source order.
        pad = [None] * (len(positional) - len(defaults))
        for arg, default in zip(positional, pad + defaults):
            buf += (_IDENT, arg.lineno, arg.col_offset)
            if default is not None:
                self.walk(default)
        if args.vararg is not None:
            buf += (_IDENT, args.vararg.lineno, args.vararg.col_offset)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            buf += (_IDENT, arg.lineno, arg.col_offset)
            if default is not None:
                self.walk(default)
        if args.kwarg is not None:
            buf += (_IDENT, args.kwarg.lineno, args.kwarg.col_offset)


# Node types whose tokens are one kind at the node, then the children in
# field order. Expr, Await, Starred and Slice need no entry: the generic
# walk of their children is all they emit.
_KINDS = {
    node_type: KIND_IDS[kind]
    for node_type, kind in {
        ast.Assign: "ASSIGN",
        ast.AugAssign: "AUG_ASSIGN",
        ast.Return: "RETURN",
        ast.Raise: "RAISE",
        ast.Assert: "ASSERT",
        ast.Delete: "DEL",
        ast.Global: "SCOPE",
        ast.Nonlocal: "SCOPE",
        ast.Pass: "PASS",
        ast.Break: "BREAK_CONT",
        ast.Continue: "BREAK_CONT",
        ast.BoolOp: "BINOP",
        ast.UnaryOp: "UNARYOP",
        ast.Compare: "COMPARE",
        ast.Yield: "YIELD",
        ast.YieldFrom: "YIELD",
        ast.NamedExpr: "ASSIGN",
    }.items()
}

# Node type -> the emitter method named ``stmt_<type>`` or ``expr_<type>``.
_HANDLERS = {
    vars(ast)[name[5:]]: method
    for name, method in vars(_StructuralEmitter).items()
    if name.startswith(("stmt_", "expr_"))
}


# Lexer fallback tables. Structure keywords are dropped entirely: without a
# parse there is no reliable begin/end pairing.
_SKIPPED_KEYWORDS = frozenset(
    "def class if elif else for while try except finally with as async await match case".split()
)
_KEYWORD_KINDS = {
    "return": "RETURN",
    "yield": "YIELD",
    "raise": "RAISE",
    "assert": "ASSERT",
    "import": "IMPORT",
    "from": "IMPORT",
    "lambda": "LAMBDA",
    "del": "DEL",
    "global": "SCOPE",
    "nonlocal": "SCOPE",
    "break": "BREAK_CONT",
    "continue": "BREAK_CONT",
    "pass": "PASS",
    "True": "LIT_BOOLNONE",
    "False": "LIT_BOOLNONE",
    "None": "LIT_BOOLNONE",
    "and": "BINOP",
    "or": "BINOP",
    "not": "UNARYOP",
    "in": "COMPARE",
    "is": "COMPARE",
}
_OP_KINDS = {
    "=": "ASSIGN",
    ":=": "ASSIGN",
    "==": "COMPARE",
    "!=": "COMPARE",
    "<": "COMPARE",
    ">": "COMPARE",
    "<=": "COMPARE",
    ">=": "COMPARE",
    "~": "UNARYOP",
    ".": "ATTR",
    "[": "SUBSCRIPT",
    "...": "LIT_BOOLNONE",
}
for _op in ("+", "-", "*", "/", "//", "%", "**", "@", "&", "|", "^", "<<", ">>"):
    _OP_KINDS[_op] = "BINOP"
    _OP_KINDS[_op + "="] = "AUG_ASSIGN"


def _lex_fallback(source: str):
    """Best-effort lexical pass for source that does not parse.

    Returns ``(kind_ids, lines, cols)`` arrays. Token errors truncate the
    stream instead of aborting; whatever lexed cleanly before the error is
    kept.
    """
    kind_ids, lines, cols = array("i"), array("i"), array("i")
    gen = _stdtok.generate_tokens(io.StringIO(source).readline)
    try:
        for tok in gen:
            kind = None
            if tok.type == _stdtok.NAME:
                if keyword.iskeyword(tok.string) or keyword.issoftkeyword(tok.string):
                    if tok.string in _SKIPPED_KEYWORDS:
                        continue
                    kind = _KEYWORD_KINDS.get(tok.string)
                else:
                    kind = "IDENT"
            elif tok.type == _stdtok.NUMBER:
                kind = "LIT_NUM"
            elif tok.type == _stdtok.STRING:
                kind = "LIT_STR"
            elif tok.type == _stdtok.OP:
                kind = _OP_KINDS.get(tok.string)
            if kind is not None:
                kind_ids.append(KIND_IDS[kind])
                lines.append(tok.start[0])
                cols.append(tok.start[1])
    except (_stdtok.TokenError, IndentationError, SyntaxError, ValueError):
        pass
    return kind_ids, lines, cols
