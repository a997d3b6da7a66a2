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
``fallback`` so reports can count degraded inputs.

Streams are stored as three ``array('i')`` buffers (kind ids, lines,
columns); no per-token object exists unless ``TokenStream.tokens`` is asked
for.
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

    ``tree`` is ``parse(source)`` when the caller already has it; by default
    the source is parsed here. Never raises on bad input: source that does
    not parse (``tree`` is None), or nests too deeply for the emitter's
    recursion, degrades to the lexer fallback and the stream is flagged.
    """
    if tree is NOT_PARSED:
        tree = parse(source)
    if tree is not None:
        emitter = _StructuralEmitter()
        try:
            emitter.emit_module(tree, source)
        except RecursionError:
            pass
        else:
            return TokenStream._from_arrays(emitter.kind_ids, emitter.lines, emitter.cols, False)
    return TokenStream._from_arrays(*_lex_fallback(source), True)


class _StructuralEmitter:
    """Walk an ast in source order, appending kind ids and positions.

    ``walk`` dispatches on the node's type through two module tables:

    * ``_HANDLERS`` maps the types that need their own order or kinds (block
      begin/end pairs, flattened annotations, the iterative BinOp and postfix
      spines) to the ``stmt_*``/``expr_*`` methods named after them.
    * ``_KINDS`` maps the types whose tokens are one kind at the node, then
      the node's children in field order (``x = y``: ASSIGN, targets, value).

    Any other node (``Expr``, ``Await``, ``Starred``, ``Slice``, ``Tuple``,
    ...) emits nothing itself and walks its expression and statement
    children. ``Name``, the most frequent node, keeps a handler rather than
    a ``_KINDS`` entry: the child walk that an entry implies made tokenizing
    about 30% slower. A ``_KINDS`` node costs one Python frame per nesting
    level, so 600 nested ``not`` or ``-`` stay under the recursion limit.
    """

    def __init__(self):
        self.kind_ids, self.lines, self.cols = array("i"), array("i"), array("i")

    def add(self, kind, line, col):
        self.kind_ids.append(KIND_IDS[kind])
        self.lines.append(line)
        self.cols.append(col)

    def tok(self, kind, node, end=False):
        if end:
            line = getattr(node, "end_lineno", None) or node.lineno
            col = getattr(node, "end_col_offset", None) or node.col_offset
        else:
            line, col = node.lineno, node.col_offset
        self.add(kind, line, col)

    def emit_module(self, tree, source):
        self.add("MODULE_BEGIN", 1, 0)
        self.suite(tree.body)
        n_lines = source.count("\n") + 1
        self.add("MODULE_END", n_lines, len(source.rsplit("\n", 1)[-1]))

    def walk(self, node):
        handler = _HANDLERS.get(type(node))
        if handler is not None:
            handler(self, node)
            return
        kind = _KINDS.get(type(node))
        if kind is not None:
            self.tok(kind, node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.stmt)):
                self.walk(child)

    def suite(self, body):
        for stmt in body:
            self.walk(stmt)

    # -- statements ---------------------------------------------------

    def stmt_FunctionDef(self, node):
        for dec in node.decorator_list:
            self.walk(dec)
        self.tok("DEF_BEGIN", node)
        self.arguments(node.args)
        self.suite(node.body)
        self.tok("DEF_END", node, end=True)

    stmt_AsyncFunctionDef = stmt_FunctionDef

    def stmt_ClassDef(self, node):
        for dec in node.decorator_list:
            self.walk(dec)
        self.tok("CLASS_BEGIN", node)
        for base in self._in_source_order(node.bases, [kw.value for kw in node.keywords]):
            self.walk(base)
        self.suite(node.body)
        self.tok("CLASS_END", node, end=True)

    def stmt_If(self, node):
        self.tok("IF_BEGIN", node)
        self.walk(node.test)
        self.suite(node.body)
        # `elif` parses as a nested If aligned with its parent keyword; an
        # indented `if` under a real `else:` sits at a deeper column. The
        # chain is walked with a loop: it can be thousands of branches long.
        branch = node
        while branch.orelse:
            orelse = branch.orelse
            if (
                len(orelse) == 1
                and isinstance(orelse[0], ast.If)
                and orelse[0].col_offset == branch.col_offset
            ):
                branch = orelse[0]
                self.tok("ELIF", branch)
                self.walk(branch.test)
                self.suite(branch.body)
            else:
                self.tok("ELSE", orelse[0])
                self.suite(orelse)
                break
        self.tok("IF_END", node, end=True)

    def stmt_For(self, node):
        self._loop(node, "FOR_BEGIN", "FOR_END", node.target, node.iter)

    stmt_AsyncFor = stmt_For

    def stmt_While(self, node):
        self._loop(node, "WHILE_BEGIN", "WHILE_END", node.test)

    def _loop(self, node, begin, end, *heads):
        self.tok(begin, node)
        for head in heads:
            self.walk(head)
        self.suite(node.body)
        if node.orelse:
            self.tok("ELSE", node.orelse[0])
            self.suite(node.orelse)
        self.tok(end, node, end=True)

    def stmt_Try(self, node):
        self.tok("TRY_BEGIN", node)
        self.suite(node.body)
        for handler in node.handlers:
            self.tok("EXCEPT", handler)
            if handler.type is not None:
                self.walk(handler.type)
            self.suite(handler.body)
        if node.orelse:
            self.tok("ELSE", node.orelse[0])
            self.suite(node.orelse)
        if node.finalbody:
            self.tok("FINALLY", node.finalbody[0])
            self.suite(node.finalbody)
        self.tok("TRY_END", node, end=True)

    def stmt_With(self, node):
        self.tok("WITH_BEGIN", node)
        for item in node.items:
            self.walk(item.context_expr)
            if item.optional_vars is not None:
                self.walk(item.optional_vars)
        self.suite(node.body)
        self.tok("WITH_END", node, end=True)

    stmt_AsyncWith = stmt_With

    def stmt_AnnAssign(self, node):
        # Annotations are flattened away; a bare declaration keeps its target.
        if node.value is not None:
            self.tok("ASSIGN", node)
            self.walk(node.target)
            self.walk(node.value)
        else:
            self.walk(node.target)

    def stmt_Import(self, node):
        self.tok("IMPORT", node)
        for alias in node.names:
            self.tok("IDENT", alias)

    stmt_ImportFrom = stmt_Import

    def stmt_Match(self, node):
        # match/case is folded onto the if/elif kinds: each case arm is a
        # guarded branch. Pattern internals are not tokenized.
        self.tok("IF_BEGIN", node)
        self.walk(node.subject)
        for case in node.cases:
            self.tok("ELIF", case.pattern)
            if case.guard is not None:
                self.walk(case.guard)
            self.suite(case.body)
        self.tok("IF_END", node, end=True)

    # -- expressions --------------------------------------------------

    def expr_Name(self, node):
        self.tok("IDENT", node)

    def expr_Constant(self, node):
        value = node.value
        if value is True or value is False or value is None or value is Ellipsis:
            self.tok("LIT_BOOLNONE", node)
        elif isinstance(value, (int, float, complex)):
            self.tok("LIT_NUM", node)
        else:
            self.tok("LIT_STR", node)

    def expr_JoinedStr(self, node):
        # f-strings are opaque string literals; pre-3.12 subexpression
        # positions are unreliable and would break position monotonicity.
        self.tok("LIT_STR", node)

    def _postfix_spine(self, node):
        # Walk `a.b()[0]...` down its func/value spine iteratively, like
        # expr_BinOp. Token order is the recursive pre-order: every spine
        # APPLY/ATTR/SUBSCRIPT, the base, then the call arguments and
        # slices innermost first.
        deferred = []
        while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                self.tok("ATTR", node)
                node = node.value
            elif isinstance(node, ast.Subscript):
                self.tok("SUBSCRIPT", node)
                deferred.append(node)
                node = node.value
            else:
                self.tok("APPLY", node)
                deferred.append(node)
                node = node.func
        self.walk(node)
        for outer in reversed(deferred):
            if isinstance(outer, ast.Subscript):
                self.walk(outer.slice)
            else:
                # `f(x=1, *y)` is legal: merge positional and keyword
                # arguments by source position to keep the stream monotone.
                for arg in self._in_source_order(outer.args, [kw.value for kw in outer.keywords]):
                    self.walk(arg)

    expr_Attribute = expr_Call = expr_Subscript = _postfix_spine

    def expr_BinOp(self, node):
        # Walk the left spine iteratively: `a+b+c+...` nests leftwards and
        # would otherwise recurse once per operator. Token order is the
        # recursive pre-order: every spine BINOP, the leftmost operand, then
        # the right operands innermost first.
        spine = []
        while isinstance(node, ast.BinOp):
            self.tok("BINOP", node)
            spine.append(node)
            node = node.left
        self.walk(node)
        for binop in reversed(spine):
            self.walk(binop.right)

    def expr_Lambda(self, node):
        self.tok("LAMBDA", node)
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
        self.tok("COMP_BEGIN", node)
        if isinstance(node, ast.DictComp):
            self.walk(node.key)
            self.walk(node.value)
        else:
            self.walk(node.elt)
        for gen in node.generators:
            self.walk(gen.target)
            self.walk(gen.iter)
            for cond in gen.ifs:
                self.walk(cond)
        self.tok("COMP_END", node, end=True)

    expr_ListComp = expr_SetComp = expr_GeneratorExp = expr_DictComp = _comprehension

    # -- shared -------------------------------------------------------

    @staticmethod
    def _in_source_order(*node_lists):
        merged = [n for nodes in node_lists for n in nodes]
        merged.sort(key=lambda n: (n.lineno, n.col_offset))
        return merged

    def arguments(self, args):
        positional = list(args.posonlyargs) + list(args.args)
        defaults = list(args.defaults)
        # Defaults right-align with the positional tail; interleave to keep
        # token positions in source order.
        pad = [None] * (len(positional) - len(defaults))
        for arg, default in zip(positional, pad + defaults):
            self.tok("IDENT", arg)
            if default is not None:
                self.walk(default)
        if args.vararg is not None:
            self.tok("IDENT", args.vararg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            self.tok("IDENT", arg)
            if default is not None:
                self.walk(default)
        if args.kwarg is not None:
            self.tok("IDENT", args.kwarg)


# Node types whose tokens are one kind at the node, then the children in
# field order. Expr, Await, Starred and Slice need no entry: the generic
# walk of their children is all they emit.
_KINDS = {
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
