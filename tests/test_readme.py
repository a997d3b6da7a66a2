"""README's examples run as written.

The Library block runs on a small corpus and must give the matrix and the
advantages that the CLI writes for the same prompt; every ``codediv`` line
of the CLI block runs through ``main`` on files made for it; and the keys
README documents for a ``report.json`` prompt are the keys a report has.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from codediv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

NO_CODE = "I could not write this one."


def section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : None if end == -1 else end]


def code_block(title, lang):
    return re.search(rf"```{lang}\n(.*?)```", section(title), re.S).group(1)


def fenced(source):
    return f"Here is a solution.\n\n```python\n{source}```\n"


def variants(index):
    """Programs that differ in structure by ``index % 4``, renamed by ``index``."""
    name = f"v{index}"
    bodies = [
        f"def solve(xs):\n    {name} = 0\n    for x in xs:\n        {name} += x\n    return {name}\n",
        f"def solve(xs):\n    return sum(xs) + {index}\n",
        f"def solve(xs):\n    {name} = [x for x in xs if x]\n    while {name}:\n        {name}.pop()\n    return len(xs)\n",
        f"def solve(xs):\n    try:\n        return xs[{index}]\n    except IndexError:\n        return None\n",
    ]
    return bodies[index % 4]


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def write_corpus(path, prompts, n, blanks=0):
    """``n`` samples per prompt, the first ``blanks`` of them with no code."""
    records = []
    for p, pid in enumerate(prompts):
        for sid in range(n):
            text = NO_CODE if sid < blanks else fenced(variants(sid + p))
            records.append({"prompt_id": pid, "sample_id": sid, "text": text, "correct": (sid + p) % 3 == 0})
    write_jsonl(path, records)
    return records


def test_library_block_matches_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # The first prompt mixes two samples with no code with real code.
    write_corpus(tmp_path / "corpus.jsonl", ["a-mixed", "b-code"], n=6, blanks=2)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(code_block("Library", "python"), "README.md", "exec"), namespace)
    assert printed.getvalue().strip()
    matrix, adv = namespace["matrix"], namespace["adv"]
    assert matrix.scores[0, 1] == 1.0

    assert main(["similarity", "--corpus", "corpus.jsonl", "--out", "sim"]) == 0
    assert matrix.to_text() == (tmp_path / "sim" / "a-mixed.simmatrix.txt").read_text()
    argv = ["advantages", "--corpus", "corpus.jsonl", "--objective", "combined", "--lambda-div", "2.0"]
    assert main(argv + ["--out", "adv"]) == 0
    first = json.loads((tmp_path / "adv" / "advantages.jsonl").read_text().splitlines()[0])
    assert first["prompt_id"] == "a-mixed"
    assert first["advantages"] == [float(a) for a in adv.a]


def test_cli_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # --k 1,10,100 needs n >= 100 in every prompt.
    records = write_corpus(tmp_path / "gens.jsonl", ["task-000", "task-001"], n=100, blanks=3)
    write_jsonl(
        tmp_path / "emb.jsonl",
        [
            {"prompt_id": r["prompt_id"], "sample_id": r["sample_id"], "vector": [1.0, r["sample_id"] % 5, 0.5]}
            for r in records
        ],
    )
    for name, blanks in (("base", 0), ("tuned", 2)):
        write_corpus(tmp_path / f"{name}.jsonl", ["p1", "p2", "p3"], n=10, blanks=blanks)
        assert main(["report", "--corpus", f"{name}.jsonl", "--out", name]) == 0
    (tmp_path / "config.json").write_text(code_block("CLI", "json"), encoding="utf-8")
    (tmp_path / "solution.py").write_text(variants(0), encoding="utf-8")

    script = code_block("CLI", "sh").replace("\\\n", " ")
    lines = [line.strip() for line in script.splitlines() if line.strip().startswith("codediv ")]
    assert {shlex.split(line)[1] for line in lines} == {
        "similarity", "report", "advantages", "compare", "simulate", "tokens"
    }
    with contextlib.redirect_stdout(io.StringIO()):  # tokens prints its stream
        for line in lines:
            assert main(shlex.split(line)[1:]) == 0, line


def test_report_keys_documented(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    records = write_corpus(tmp_path / "gens.jsonl", ["p"], n=4, blanks=1)
    write_jsonl(
        tmp_path / "emb.jsonl",
        [{"prompt_id": "p", "sample_id": r["sample_id"], "vector": [1.0, r["sample_id"]]} for r in records],
    )
    assert main(["report", "--corpus", "gens.jsonl", "--k", "1", "--embeddings", "emb.jsonl", "--out", "out"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    documented = re.findall(r"^- `(\w+)`:", section("CLI"), re.M)
    assert len(documented) == len(set(documented)) == 12
    assert set(documented) == set(report["prompts"]["p"])
