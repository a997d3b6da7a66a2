"""Seeded fuzz of the CLI's two keyed inputs, the corpus and the embeddings file.

Each example writes both files from valid records with a few bad values
mixed in and runs ``similarity``, ``report --k 1 --embeddings`` and
``advantages --objective combined`` through ``main``. A run exits 0, or it
exits 1 with one ``error: <class>: `` line whose class is not ``internal``.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from codediv.cli import main

from conftest import BAD_NORM_VECTORS

SOURCES = [
    "def f(x):\n    return x + 1\n",
    "def f(y):\n    return y + 1\n",
    "def f(xs):\n    total = 0\n    for x in xs:\n        total += x\n    return total\n",
    "import os\n",
    "",
]

# Bad values in families of (file, field, value); a value of MISSING drops
# the field. An edit draws a family, then one of its values.
MISSING = object()
BAD_VALUES = [
    [
        ("corpus", "prompt_id", "p\ud800"),
        ("embeddings", "prompt_id", "p\udc00"),
        ("corpus", "prompt_id", 3),
        ("embeddings", "prompt_id", None),
    ],
    [(file, "sample_id", value) for file in ("corpus", "embeddings") for value in (True, -1, 1.5, "0")],
    [("corpus", "correct", 1), ("corpus", "correct", MISSING)],
    [("corpus", "text", 5), ("corpus", "source", ["x"]), ("corpus", "text", MISSING)],
    [("embeddings", "vector", vector) for vector in BAD_NORM_VECTORS.values()],
    [("embeddings", "vector", vector) for vector in ([True, False], [[1.0], [2.0]], [1.0, 2.0, 3.0], MISSING)],
    # Whole lines that replace a record, and "repeat" for a record written twice.
    [(file, None, line) for file in ("corpus", "embeddings") for line in ("[1, 2]", '"record"', "{not json", "repeat")],
]

ERROR_LINE = re.compile(r"error: ([a-z]+): .*\n")


@st.composite
def keyed_inputs(draw):
    """(corpus lines, embeddings lines) for 1-2 prompts of 3-4 samples."""
    files = {"corpus": [], "embeddings": []}
    for p in range(draw(st.integers(1, 2))):
        for s in range(draw(st.integers(3, 4))):
            source = draw(st.sampled_from(SOURCES))
            text = f"prose\n```python\n{source}```\n"
            correct = draw(st.booleans())
            files["corpus"].append({"prompt_id": f"p{p}", "sample_id": s, "text": text, "correct": correct})
            vector = draw(st.lists(st.floats(0.25, 4.0), min_size=2, max_size=2))
            files["embeddings"].append({"prompt_id": f"p{p}", "sample_id": s, "vector": vector})
    lines = {name: [json.dumps(record) for record in records] for name, records in files.items()}
    for family in draw(st.lists(st.sampled_from(BAD_VALUES), max_size=2)):
        name, field, value = draw(st.sampled_from(family))
        i = draw(st.integers(0, len(files[name]) - 1))
        if field is not None:
            record = {key: v for key, v in files[name][i].items() if key != field}
            if value is not MISSING:
                record[field] = value
            lines[name][i] = json.dumps(record)
        elif value == "repeat":
            lines[name].append(lines[name][i])
        else:
            lines[name][i] = value
    return lines["corpus"], lines["embeddings"]


def run(argv):
    """``main(argv)``'s exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_keyed_inputs_never_end_as_internal_errors():
    outcomes = []

    @settings(derandomize=True, max_examples=250, deadline=None, database=None)
    @given(keyed_inputs())
    def check(case):
        corpus_lines, embedding_lines = case
        with tempfile.TemporaryDirectory() as tmp:
            corpus = os.path.join(tmp, "corpus.jsonl")
            embeddings = os.path.join(tmp, "emb.jsonl")
            with open(corpus, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in corpus_lines))
            with open(embeddings, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in embedding_lines))
            commands = [
                ["similarity", "--corpus", corpus],
                ["report", "--corpus", corpus, "--k", "1", "--embeddings", embeddings],
                ["advantages", "--corpus", corpus, "--objective", "combined"],
            ]
            for i, command in enumerate(commands):
                code, err = run([*command, "--out", os.path.join(tmp, f"out{i}")])
                if code == 0:
                    assert err == "", (command[0], err)
                else:
                    assert code == 1, (command[0], err)
                    match = ERROR_LINE.fullmatch(err)
                    assert match and match.group(1) != "internal", (command[0], err)
                outcomes.append(code)

    check()
    # Refusals alone must not satisfy the property.
    assert outcomes.count(0) >= 0.3 * len(outcomes), (outcomes.count(0), len(outcomes))
