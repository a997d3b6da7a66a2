"""Seeded fuzz of the CLI's inputs: the corpus and the embeddings file, two
reports for ``compare`` and a ``simulate`` config.

The keyed-input property writes both keyed files from valid records with a
few bad values mixed in and runs ``similarity``, ``report --k 1
--embeddings`` and ``advantages --objective combined`` through ``main``.
The ``compare`` property edits two real reports, and the ``simulate``
property draws small configs, valid ones and the shapes of
``TestSimulationConfig.REFUSALS``. A run exits 0, or it exits 1 with one
``error: <class>: `` line whose class is not ``internal``. Every JSON file of
a run that exits 0 also parses without NaN or Infinity, and a rerun into a
second directory writes the same bytes. ``similarity`` on the corpus with
each prompt's sample ids permuted writes the permuted matrices.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from codediv.cli import main
from codediv.rewards import OBJECTIVES
from codediv.similarity import SimMatrix

import test_simulator
from conftest import BAD_RANGE_VECTORS, EXTREME_SCALE_VECTORS, ZERO_VECTORS

SOURCES = [
    "def f(x):\n    return x + 1\n",
    "def f(y):\n    return y + 1\n",
    "def f(xs):\n    total = 0\n    for x in xs:\n        total += x\n    return total\n",
    "import os\n",
    "",
]
# Tiled in this order the pair matches 5 tokens, in the other order 10.
ASYMMETRIC_PAIR = ["y = x + 1\nx += 1\nz = [x]\nx = 1\nx = 1\n", "x = 1\ny = x + 1\nz = [x]\n"]

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
    [("embeddings", "vector", vector) for vector in [*ZERO_VECTORS.values(), *EXTREME_SCALE_VECTORS.values(), *BAD_RANGE_VECTORS.values()]],
    [("embeddings", "vector", vector) for vector in ([True, False], [[1.0], [2.0]], [1.0, 2.0, 3.0], ["1", "2"], [None, 1.0], MISSING)],
    # Whole lines that replace a record, and "repeat" for a record written twice.
    [(file, None, line) for file in ("corpus", "embeddings") for line in ("[1, 2]", '"record"', "{not json", "repeat")],
]

ERROR_LINE = re.compile(r"error: ([a-z]+): .*\n")


@st.composite
def keyed_inputs(draw):
    """(corpus lines, embeddings lines, {prompt_id: a permutation of its
    sample ids}) for 1-2 prompts of 3-4 samples."""
    files = {"corpus": [], "embeddings": []}
    permutations = {}
    for p in range(draw(st.integers(1, 2))):
        n = draw(st.integers(3, 4))
        permutations[f"p{p}"] = draw(st.permutations(range(n)))
        for s in range(n):
            source = draw(st.sampled_from(SOURCES + ASYMMETRIC_PAIR))
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
    return lines["corpus"], lines["embeddings"], permutations


def run(argv):
    """``main(argv)``'s exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _refuse_constant(name):
    raise ValueError(f"not a JSON number: {name}")


def outputs(out):
    """``{name: bytes}`` of a run's files, each JSON file and JSONL line
    checked to parse strictly (no NaN or Infinity)."""
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
        if name.endswith(".jsonl"):
            for line in files[name].decode("utf-8").splitlines():
                json.loads(line, parse_constant=_refuse_constant)
        elif name.endswith(".json"):
            json.loads(files[name].decode("utf-8"), parse_constant=_refuse_constant)
    return files


def check_run(argv, tmp):
    """Run ``argv`` into ``tmp/out``: a refusal is one non-internal error
    line; a success writes strict JSON, and its rerun the same bytes."""
    code, err = run([*argv, "--out", os.path.join(tmp, "out")])
    if code != 0:
        assert code == 1, (argv[0], err)
        match = ERROR_LINE.fullmatch(err)
        assert match and match.group(1) != "internal", (argv[0], err)
        return code
    assert err == "", (argv[0], err)
    first = outputs(os.path.join(tmp, "out"))
    assert run([*argv, "--out", os.path.join(tmp, "rerun")]) == (0, "")
    assert outputs(os.path.join(tmp, "rerun")) == first
    return code


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def matrices(out):
    """``{file name: SimMatrix}`` of a ``similarity`` run."""
    files = outputs(out)
    return {name: SimMatrix.from_text(files[name].decode("utf-8")) for name in files if name.endswith(".simmatrix.txt")}


def test_keyed_inputs_never_end_as_internal_errors():
    outcomes = []

    @settings(derandomize=True, max_examples=250, deadline=None, database=None)
    @given(keyed_inputs())
    def check(case):
        corpus_lines, embedding_lines, permutations = case
        with tempfile.TemporaryDirectory() as tmp:
            corpus = os.path.join(tmp, "corpus.jsonl")
            embeddings = os.path.join(tmp, "emb.jsonl")
            write_lines(corpus, corpus_lines)
            write_lines(embeddings, embedding_lines)
            commands = [
                ["similarity", "--corpus", corpus],
                ["report", "--corpus", corpus, "--k", "1", "--embeddings", embeddings],
                ["advantages", "--corpus", corpus, "--objective", "combined"],
            ]
            codes = [check_run(command, os.path.join(tmp, command[0])) for command in commands]
            outcomes.extend(codes)
            if codes[0] != 0:
                return
            # Sample s of a prompt becomes sample perm[s], so the matrix read
            # at rows and columns perm is the one written for the corpus.
            records = [json.loads(line) for line in corpus_lines]
            for record in records:
                record["sample_id"] = permutations[record["prompt_id"]][record["sample_id"]]
            relabelled = os.path.join(tmp, "relabelled.jsonl")
            write_lines(relabelled, [json.dumps(record) for record in records])
            assert run(["similarity", "--corpus", relabelled, "--out", os.path.join(tmp, "relabelled")]) == (0, "")
            expected = matrices(os.path.join(tmp, "similarity", "out"))
            got = matrices(os.path.join(tmp, "relabelled"))
            assert got.keys() == expected.keys()
            for name, matrix in got.items():
                perm = permutations[name.removesuffix(".simmatrix.txt")]
                assert np.array_equal(matrix.scores[np.ix_(perm, perm)], expected[name].scores), name

    check()
    # Refusals alone must not satisfy the property.
    assert outcomes.count(0) >= 0.3 * len(outcomes), (outcomes.count(0), len(outcomes))


# (prompt_id, sample_id, SOURCES index) of both corpora; A and B differ in labels.
REPORT_CORPUS = [(f"p{p}", s, (p + s) % len(SOURCES)) for p in range(3) for s in range(3)]

# Values an edit writes into a report: non-finite and huge numbers (json.dumps
# writes NaN and Infinity, which json.loads reads back), bools, strings,
# nulls, containers and finite numbers.
REPORT_VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -10**309, 1e308, -1e308]),
    st.sampled_from([True, False, "0.5", None, [0.5], {}]),
    st.floats(-2.0, 2.0),
    st.integers(-3, 3),
)
REPORT_LABELS = ["jdiv", "one_gram_div", "vendi", "eff", "jdiv_correct", "eff_correct", "pass_at:1", "pass_at:2", "pass_at"]
ODD_K_LISTS = [[], [2], [1, 1], [3], [0], [True], [1.5], ["1"], ["\ud800"], [10**400], 5, None, {}]
RECORDS = [5, "x", None, [], {}]
TEXTS = ["", "[1]", "NaN", "{", '{"prompts": 5}']


@st.composite
def report_edits(draw):
    """A list of (file index, (kind, ...)) edits to apply to reports A and B."""
    args = {
        "value": st.tuples(st.integers(0, 2), st.sampled_from(REPORT_LABELS), REPORT_VALUES),
        "record": st.tuples(st.integers(0, 2), st.sampled_from(RECORDS)),
        "k_list": st.tuples(st.sampled_from(ODD_K_LISTS)),
        "drop": st.tuples(st.integers(0, 2)),
        "text": st.tuples(st.sampled_from(TEXTS)),
    }
    edits = []
    # Most examples make one edit, and most edits write a value.
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        kind = draw(st.sampled_from(["value"] * 6 + ["record", "k_list", "drop", "text"]))
        edits.append((draw(st.integers(0, 1)), (kind, *draw(args[kind]))))
    return edits


def edited_texts(reports, edits):
    """The texts of the two reports after ``edits``."""
    reports = copy.deepcopy(reports)
    texts = [None, None]
    for which, (kind, *args) in edits:
        report = reports[which]
        if kind == "value":
            index, label, value = args
            record = report["prompts"].get(f"p{index}")
            if not isinstance(record, dict):
                continue
            if label.startswith("pass_at:"):
                if not isinstance(record.get("pass_at"), dict):
                    record["pass_at"] = {}
                record["pass_at"][label.split(":")[1]] = value
            else:
                record[label] = value
        elif kind == "record":
            index, value = args
            report["prompts"][f"p{index}"] = value
        elif kind == "k_list":
            report["params"]["k_list"] = args[0]
        elif kind == "drop":
            report["prompts"].pop(f"p{args[0]}", None)
        else:
            texts[which] = args[0]
    return [json.dumps(report) if text is None else text for report, text in zip(reports, texts)]


def test_compare_never_ends_as_internal_error(tmp_path):
    reports = []
    for name in ("a", "b"):
        corpus = tmp_path / f"{name}.jsonl"
        with open(corpus, "w", encoding="utf-8") as fh:
            for pid, sid, source in REPORT_CORPUS:
                correct = sid % 2 == 0 if name == "a" else sid != 2
                fh.write(json.dumps({"prompt_id": pid, "sample_id": sid, "source": SOURCES[source], "correct": correct}) + "\n")
        assert main(["report", "--corpus", str(corpus), "--k", "1,2", "--out", str(tmp_path / name)]) == 0
        with open(tmp_path / name / "report.json", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    outcomes = []

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(report_edits())
    def check(edits):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("a.json", "b.json")]
            for path, text in zip(paths, edited_texts(reports, edits)):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            argv = ["compare", "--report-a", paths[0], "--report-b", paths[1], "--resamples", "1000"]
            outcomes.append(check_run(argv, tmp))

    check()
    # Refusals alone must not satisfy the property.
    assert outcomes.count(0) >= 0.3 * len(outcomes), (outcomes.count(0), len(outcomes))


@st.composite
def simulate_configs(draw):
    """A small config: at most 3 steps, 3 seeds, 16 templates and a group of
    16, or a refusal's shape laid over one."""
    objective = st.one_of(
        st.sampled_from(OBJECTIVES),
        st.fixed_dictionaries({"name": st.sampled_from(OBJECTIVES)}, optional={"lr": st.floats(0.0, 1.0)}),
    )
    families = draw(st.integers(2, 4))
    world = st.one_of(
        st.just("default"),
        st.fixed_dictionaries({
            "families": st.just(families),
            "per_family": st.integers(1, 4),
            "correct_families": st.integers(1, families - 1),
        }),
        st.just({"correct": [True, False, False], "similarity": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]]}),
    )
    config = draw(st.fixed_dictionaries(
        {
            "objectives": st.lists(objective, min_size=1, max_size=2),
            "seeds": st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
            "steps": st.integers(0, 3),
        },
        optional={
            "world": world,
            "group_size": st.integers(2, 16),
            "k": st.integers(1, 16),
            "lambda_div": st.floats(0.0, 4.0),
            "entropy_beta": st.floats(0.0, 1.0),
            "temperature": st.floats(0.1, 4.0),
            "init_correct_bonus": st.floats(-3.0, 3.0),
            # pass@k takes any k >= 1 that a float can hold.
            "eval": st.fixed_dictionaries(
                {"k_list": st.lists(st.one_of(st.integers(1, 20), st.sampled_from([10**300, 10**400])), max_size=3)}
            ),
        },
    ))
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(test_simulator.TestSimulationConfig.REFUSALS)))
        raw = test_simulator.TestSimulationConfig.REFUSALS[name][0]
        config = {**config, **raw} if isinstance(raw, dict) else raw
    return config


def test_simulate_never_ends_as_internal_error():
    outcomes = []

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(simulate_configs())
    def check(config):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(config))
            outcomes.append(check_run(["simulate", "--config", path], tmp))

    check()
    # Refusals alone must not satisfy the property.
    assert outcomes.count(0) >= 0.3 * len(outcomes), (outcomes.count(0), len(outcomes))
