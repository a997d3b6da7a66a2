"""Seeded input generator for the codediv benchmark.

Every input the benchmark feeds codediv is built here from one integer
seed, with Python's ``random.Random`` only, so the same seed gives the same
bytes on any machine. Nothing here imports codediv: a change to the program
under test cannot change its inputs.

The seed draws the surface of every program: identifiers, literal values,
comments, docstring text, the markdown around the code, correctness labels
and embeddings. The token structure is drawn from fixed streams, the same
for every seed: with seeded structure the similarity work of one seed
differed from another's by a fifth, more than a regression bound.

Programs come from a small statement grammar rendered through a *naming*
(identifier, attribute and literal choices). Rendering one template under
two namings is a consistent rename: the structural token streams are equal,
so such pairs must score exactly 1.0. The generator records those pairs,
and each prompt's n and m, as ground truth for the output checks.
"""

import json
import random

_VARS = (
    "total count items result value index acc buf data node left right key "
    "size step limit chunk rows cols seen queue stack head tail first last "
    "best score cost weight level depth start stop mid span pair flag mask "
    "text word line part token state cache table graph edge path prev curr"
).split()
_FUNCS = (
    "compute parse merge split visit update check scale reduce encode decode "
    "lookup resolve collect render measure normalize combine extract"
).split()
_ATTRS = "size shape name value parent children weight label kind items".split()
_WORDS = "alpha beta gamma delta omega sigma kappa theta lambda zeta".split()
_EXC = ("ValueError", "KeyError", "IndexError", "TypeError")
_PROSE_HEAD = (
    "Here is a solution.",
    "The following function solves the task.",
    "Sure! Below is an implementation.",
    "We can do this in one pass:",
    "This version keeps it simple.",
)
_PROSE_TAIL = (
    "The function runs in linear time.",
    "Edge cases such as empty input are handled.",
    "Let me know if you need tests.",
    "",
)


class _Template:
    """Statement grammar output: (depth, text) lines with placeholders.

    Placeholders are ``{v3}`` (variable), ``{f1}`` (function), ``{a0}``
    (attribute), ``{n2}`` (int literal) and ``{s1}`` (string literal).
    """

    def __init__(self, rng, n_vars=8):
        self.rng = rng
        self.n_vars = n_vars
        self.n_lits = 0

    def var(self):
        return "{v%d}" % self.rng.randrange(self.n_vars)

    def num(self):
        self.n_lits += 1
        return "{n%d}" % self.n_lits

    def string(self):
        self.n_lits += 1
        return "'{s%d}'" % self.n_lits

    def func(self):
        return "{f%d}" % self.rng.randrange(len(_FUNCS) // 2)

    def attr(self):
        return "{a%d}" % self.rng.randrange(len(_ATTRS) // 2)

    def expr(self, depth=0):
        r = self.rng.random()
        if depth > 1 or r < 0.25:
            return self.rng.choice((self.var, self.var, self.num))()
        pick = self.rng.randrange(9)
        if pick == 0:
            return f"{self.var()} + {self.expr(depth + 1)}"
        if pick == 1:
            return f"{self.var()} * {self.num()}"
        if pick == 2:
            return f"{self.func()}({self.var()})"
        if pick == 3:
            return f"{self.var()}[{self.expr(depth + 1)}]"
        if pick == 4:
            return f"len({self.var()})"
        if pick == 5:
            return f"{self.var()}.{self.attr()}"
        if pick == 6:
            return self.string()
        if pick == 7:
            return f"{self.func()}({self.var()}, {self.expr(depth + 1)})"
        return f"{self.var()} - {self.num()}"

    def cond(self):
        op = self.rng.choice(("<", ">", "==", "!=", "<=", ">="))
        return f"{self.var()} {op} {self.expr(1)}"

    def simple(self):
        pick = self.rng.randrange(6)
        if pick == 0:
            return f"{self.var()} = {self.expr()}"
        if pick == 1:
            return f"{self.var()} += {self.expr()}"
        if pick == 2:
            return f"{self.var()}.append({self.expr()})"
        if pick == 3:
            return f"{self.var()}[{self.var()}] = {self.expr()}"
        if pick == 4:
            return f"{self.func()}({self.var()}, {self.expr()})"
        return f"{self.var()} = [{self.var()} * {self.num()} for {self.var()} in {self.var()} if {self.cond()}]"

    def block(self, depth, budget):
        """About ``budget`` statements at ``depth``, compound ones nested."""
        lines = []
        while budget > 0:
            if depth < 4 and budget > 2 and self.rng.random() < 0.35:
                inner = self.rng.randint(1, min(4, budget - 1))
                lines += self.compound(depth, inner)
                budget -= inner + 1
            else:
                lines.append((depth, self.simple()))
                budget -= 1
        return lines

    def compound(self, depth, inner):
        pick = self.rng.randrange(6)
        body = self.block(depth + 1, inner)
        if pick == 0:
            return [(depth, f"for {self.var()} in range({self.expr(1)}):")] + body
        if pick == 1:
            return [(depth, f"for {self.var()} in {self.var()}:")] + body
        if pick == 2:
            out = [(depth, f"if {self.cond()}:")] + body
            if self.rng.random() < 0.4:
                out += [(depth, f"elif {self.cond()}:")] + self.block(depth + 1, 1)
            if self.rng.random() < 0.5:
                out += [(depth, "else:")] + self.block(depth + 1, 1)
            return out
        if pick == 3:
            return [(depth, f"while {self.cond()}:")] + body + [(depth + 1, f"{self.var()} += 1")]
        if pick == 4:
            exc = self.rng.choice(_EXC)
            return [(depth, "try:")] + body + [(depth, f"except {exc}:")] + self.block(depth + 1, 1)
        return [(depth, f"with {self.func()}({self.var()}) as {self.var()}:")] + body


def program_template(rng, statements, docstring):
    """One function: signature, optional docstring, body, return."""
    t = _Template(rng)
    lines = [(0, "def {f0}({v0}, {v1}):")]
    if docstring:
        lines.append((1, '"""{doc}"""'))
    lines += t.block(1, statements)
    lines.append((1, f"return {t.expr()}"))
    return {"lines": lines, "n_lits": t.n_lits}


def insert_statements(rng, template, count):
    """A structural variant: ``count`` new simple statements at body level."""
    lines = list(template["lines"])
    t = _Template(rng)
    t.n_lits = template["n_lits"]
    for _ in range(count):
        body_starts = [
            i for i, (depth, text) in enumerate(lines)
            if depth == 1 and i > 0 and not text.startswith(("except", "elif", "else"))
        ]
        pos = rng.choice(body_starts[1:] or body_starts)
        lines.insert(pos, (1, t.simple()))
    return {"lines": lines, "n_lits": t.n_lits}


def naming(rng):
    """Concrete identifiers and docstring text for one rendering."""
    return {
        "v": rng.sample(_VARS, 8),
        "f": rng.sample(_FUNCS, len(_FUNCS) // 2 + 1),
        "a": rng.sample(_ATTRS, len(_ATTRS) // 2 + 1),
        "doc": f"{rng.choice(_WORDS).title()} the {rng.choice(_VARS)} of {rng.choice(_VARS)}.",
    }


def render(template, names, rng, comments=0.0):
    """Source text of ``template`` under ``names``; comments never add tokens.

    Literal values are drawn here: they change no token either.
    """
    fmt = {"doc": names["doc"]}
    for key in "vfa":
        fmt.update({f"{key}{i}": v for i, v in enumerate(names[key])})
    for i in range(template["n_lits"] + 1):
        fmt[f"n{i}"] = rng.randrange(100)
        fmt[f"s{i}"] = rng.choice(_WORDS)
    out = []
    for depth, text in template["lines"]:
        pad = "    " * depth
        if comments and depth > 0 and rng.random() < comments:
            out.append(f"{pad}# {rng.choice(_WORDS)} {rng.choice(_VARS)}")
        line = pad + text.format(**fmt)
        if comments and rng.random() < comments / 2:
            line += f"  # {rng.choice(_VARS)}"
        out.append(line)
    return "\n".join(out) + "\n"


def markdown(rng, code):
    """Wrap code as a raw model completion whose last python fence holds it."""
    parts = [rng.choice(_PROSE_HEAD), ""]
    if rng.random() < 0.3:
        parts += ["Install nothing extra:", "```text", "python3 solution.py", "```", ""]
    if rng.random() < 0.2:
        parts += ["A first attempt:", "```python", "pass", "```", "", "A better one:", ""]
    parts += [rng.choice(("```python", "```", "```Python")), code.rstrip("\n"), "```", ""]
    parts.append(rng.choice(_PROSE_TAIL))
    return "\n".join(parts)


def _group(shape, rng, prompt_id, n, families, statements):
    """n samples over ``families`` programs; returns records and ground truth.

    ``shape`` draws the programs and the inserted statements, so it fixes
    every token stream and with it the similarity work; ``rng`` draws the
    names, literals, comments, prose and correctness labels. Family sizes
    are spread evenly over ``statements`` and samples are dealt to families
    in turn. Two in five samples of a family get inserted statements; the
    rest are consistent renames of the family's program.
    """
    lo, hi = statements
    fams = []
    for f in range(families):
        size = lo + round((hi - lo) * f / max(1, families - 1))
        fams.append({
            "template": program_template(shape, size, shape.random() < 0.5),
            "correct": f % 2 == 0 or rng.random() < 0.3,
        })
    records = []
    renames = {}  # family -> sample ids rendered from its program unchanged
    for sample_id in range(n):
        f = sample_id % families
        template = fams[f]["template"]
        if (sample_id // families) % 5 in (1, 3):
            template = insert_statements(shape, template, shape.randint(1, 2))
        else:
            renames.setdefault(f, []).append(sample_id)
        code = render(template, naming(rng), rng, comments=rng.choice((0.0, 0.1, 0.3)))
        records.append({
            "prompt_id": prompt_id,
            "sample_id": sample_id,
            "text": markdown(rng, code),
            "correct": fams[f]["correct"],
        })
    truth = {
        "n": n,
        "m": sum(r["correct"] for r in records),
        "renames": [ids for _, ids in sorted(renames.items()) if len(ids) >= 2],
    }
    return records, truth


def corpus(seed, prompts, n, families, statements, tag):
    """Records and per-prompt ground truth for one corpus."""
    records, truth = [], {}
    for p in range(prompts):
        shape = random.Random(f"{tag}:shape:{p}")
        rng = random.Random(f"{tag}:{seed}:{p}")
        pid = f"task-{p:03d}"
        recs, truth[pid] = _group(shape, rng, pid, n, families, statements)
        records += recs
    return records, truth


def embeddings(seed, records, dim=16):
    """One vector per sample: one of four centroids per prompt, plus noise."""
    rng = random.Random(f"emb:{seed}")
    centroids = {}
    out = []
    for r in records:
        key = (r["prompt_id"], r["sample_id"] % 4)
        if key not in centroids:
            centroids[key] = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        vec = [round(c + rng.gauss(0.0, 0.3), 6) for c in centroids[key]]
        out.append({"prompt_id": r["prompt_id"], "sample_id": r["sample_id"], "vector": vec})
    return out


def rl_groups(seed, groups=48, n=8):
    """Trainer groups of raw completions; every fourth has long programs."""
    out = []
    for g in range(groups):
        shape = random.Random(f"rl:shape:{g}")
        rng = random.Random(f"rl:{seed}:{g}")
        statements = (22, 26) if g % 4 == 0 else (9, 14)
        records, truth = _group(shape, rng, f"group-{g:03d}", n, 2 + g % 3, statements)
        out.append({
            "texts": [r["text"] for r in records],
            "correct": [r["correct"] for r in records],
            "truth": truth,
        })
    return out


# -- hostile cases ------------------------------------------------------


def _nested(rng, depth):
    kinds = ("if {v} > 0:", "for {v} in {v}:", "while {v}:", "with {v} as {v}:", "try:")
    lines = ["def deep(x):"]
    closers = []
    for d in range(1, depth + 1):
        kind = rng.choice(kinds)
        lines.append("    " * d + kind.replace("{v}", "x"))
        closers.append((d, kind))
    lines.append("    " * (depth + 1) + "x += 1")
    for d, kind in reversed(closers):
        if kind == "try:":
            lines.append("    " * d + "except ValueError:")
            lines.append("    " * (d + 1) + "pass")
    lines.append("    return x")
    return "\n".join(lines) + "\n"


def _many_functions(rng, count, statements):
    return [program_template(rng, rng.randint(*statements), False) for _ in range(count)]


def _module(rng, templates, names):
    chunks = []
    for i, t in enumerate(templates):
        chunks.append(render(t, names, rng).replace(names["f"][0] + "(", f"fn_{i}(", 1))
    return "\n\n".join(chunks)


def _period3(length):
    # ``a = b`` is ASSIGN IDENT IDENT: a stream that repeats with period 3.
    return "".join(f"v{i % 7} = w{i % 5}\n" for i in range(length))


def _malformed(shape, rng):
    t = program_template(shape, shape.randint(10, 16), False)
    src = render(t, naming(rng), rng)
    lines = src.split("\n")
    i = shape.randrange(1, max(2, len(lines) - 2))
    breakage = shape.choice(("missing_colon", "open_paren", "bad_indent"))
    if breakage == "missing_colon":
        lines[0] = lines[0].rstrip(":")
    elif breakage == "open_paren":
        lines[i] = lines[i] + " + (1"
    else:
        lines[i] = "  " + lines[i]
    return "\n".join(lines)


def hostile(seed):
    """Worst-case corpora, one ``codediv report`` each, with expectations.

    The token structure of every case is the same for all seeds, so each
    costs the same work; the seed picks names, literals and prose.
    """
    shape = random.Random("hostile-shape")
    rng = random.Random(f"hostile:{seed}")
    cases = []

    def add(name, texts, expect):
        recs = [
            {"prompt_id": name, "sample_id": i, "text": t, "correct": i % 2 == 0}
            for i, t in enumerate(texts)
        ]
        cases.append({"name": name, "records": recs, "expect": expect})

    nest = _nested(shape, 90)
    add("nested", [markdown(rng, nest) for _ in range(3)], {"jdiv": 0.0, "fallback": 0})
    chain = "x = " + "+".join(["1"] * 600) + "\n"
    add("chain600", [markdown(rng, chain) for _ in range(2)], {"fallback": 0})

    funcs = _many_functions(shape, 75, (18, 24))
    base = _module(rng, funcs, naming(rng))
    edited = list(funcs)
    edited[len(funcs) // 2] = insert_statements(shape, funcs[len(funcs) // 2], 1)
    add("long_near_dup", [markdown(rng, base), markdown(rng, _module(rng, edited, naming(rng)))],
        {"fallback": 0, "min_tokens": 10_001})
    blocks = [funcs[i : i + 15] for i in range(0, len(funcs), 15)]
    order = [3, 0, 4, 2, 1]
    shuffled = [t for i in order for t in blocks[i]]
    add("long_reordered", [markdown(rng, base), markdown(rng, _module(rng, shuffled, naming(rng)))],
        {"fallback": 0, "min_tokens": 10_001})

    add("period3", [markdown(rng, _period3(length)) for length in (600, 800, 1000, 1000)],
        {"fallback": 0})
    add("malformed", [markdown(rng, _malformed(shape, rng)) for _ in range(4)], {"fallback": 4})
    add("no_fence", [rng.choice(_PROSE_HEAD) + " def f(x): return x" for _ in range(3)],
        {"empty": 3, "fallback": 0})
    add("empty_fence", [rng.choice(_PROSE_HEAD) + "\n```python\n```\n" for _ in range(3)],
        {"empty": 3, "fallback": 0})
    return cases


def simulate_config(seed):
    return {
        "objectives": ["base", {"name": "combined", "lambda_div": 2.0}, "diversity_only"],
        "seeds": [2 * seed, 2 * seed + 1],
        "steps": 400,
    }


# -- writing ------------------------------------------------------------


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r, sort_keys=True) + "\n")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")
