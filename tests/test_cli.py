import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import warnings

import pytest

import codediv
from codediv import cli
from codediv.cli import main
from codediv.rewards import OBJECTIVES
from codediv.similarity import SimMatrix
from codediv.simulator import SimulationConfig

from conftest import BAD_NORM_VECTORS, DEEP_EXPRESSIONS, RENAMED_PAIR


def write_corpus(path, rows):
    lines = []
    for pid, sid, source, correct in rows:
        lines.append(
            json.dumps(
                {"prompt_id": pid, "sample_id": sid, "source": source, "correct": correct}
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def _float_edge(accepts, refused, accepted):
    """The adjacent positive floats (refused, accepted) between which
    ``accepts`` flips, by bisection on their bit patterns, which order
    positive floats."""
    lo, hi = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (refused, accepted))
    while abs(hi - lo) > 1:
        mid = (lo + hi) // 2
        if accepts(struct.unpack("<d", struct.pack("<q", mid))[0]):
            hi = mid
        else:
            lo = mid
    return tuple(struct.unpack("<d", struct.pack("<q", b))[0] for b in (lo, hi))


@pytest.fixture
def duplicate_corpus(tmp_path):
    src = "def f(x):\n    return x + 1\n"
    return write_corpus(
        tmp_path / "dup.jsonl",
        [("p1", 0, src, True), ("p1", 1, src, True)],
    )


@pytest.fixture
def mixed_corpus(tmp_path):
    a = "def f(xs):\n    out = [x * 2 for x in xs]\n    return out\n"
    b = "def f(items):\n    result = [y * 2 for y in items]\n    return result\n"
    c = "def f(xs):\n    total = 0\n    while xs:\n        total += xs.pop()\n    return total\n"
    return write_corpus(
        tmp_path / "mixed.jsonl",
        [
            ("p1", 0, a, True),
            ("p1", 1, b, False),
            ("p1", 2, c, True),
            ("p2", 0, a, True),
            ("p2", 1, a, True),
            ("p2", 2, c, False),
        ],
    )


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_all_outputs(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


class TestTokens:
    def test_prints_debug_stream(self, tmp_path, capsys):
        file = tmp_path / "prog.py"
        file.write_text("x = f(1)\n")
        assert main(["tokens", str(file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("MODULE_BEGIN 1:0\nASSIGN 1:0\n")

    def test_pinned_output(self, tmp_path, capsys):
        file = tmp_path / "prog.py"
        file.write_text(
            "def f(xs, k=2):\n"
            '    """Doc."""\n'
            "    out = [x * k for x in xs if x]\n"
            "    try:\n"
            "        return out[0]\n"
            "    except IndexError:\n"
            "        return None  # empty\n"
        )
        assert main(["tokens", str(file)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "MODULE_BEGIN 1:0\nDEF_BEGIN 1:0\nIDENT 1:6\nIDENT 1:10\nLIT_NUM 1:12\n"
            "LIT_STR 2:4\nASSIGN 3:4\nIDENT 3:4\nCOMP_BEGIN 3:10\nBINOP 3:11\n"
            "IDENT 3:11\nIDENT 3:15\nIDENT 3:21\nIDENT 3:26\nIDENT 3:32\nCOMP_END 3:34\n"
            "TRY_BEGIN 4:4\nRETURN 5:8\nSUBSCRIPT 5:15\nIDENT 5:15\nLIT_NUM 5:19\n"
            "EXCEPT 6:4\nIDENT 6:11\nRETURN 7:8\nLIT_BOOLNONE 7:15\nTRY_END 7:19\n"
            "DEF_END 7:19\nMODULE_END 8:0\n"
        )

    def test_pinned_blank_output(self, tmp_path, capsys):
        # A blank file is the empty stream, as a blank sample is in a matrix.
        file = tmp_path / "blank.py"
        file.write_text(" \n\n")
        assert main(["tokens", str(file)]) == 0
        assert capsys.readouterr() == ("\n", "")

    def test_pinned_fallback_output(self, tmp_path, capsys):
        file = tmp_path / "broken.py"
        file.write_text('def f(:\n    x = [1, 2\n    return x.y + "s" ** 3\n')
        assert main(["tokens", str(file)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "# fallback lexer used\n"
        assert captured.out == (
            "IDENT 1:4\nIDENT 2:4\nASSIGN 2:6\nSUBSCRIPT 2:8\nLIT_NUM 2:9\nLIT_NUM 2:12\n"
            "RETURN 3:4\nIDENT 3:11\nATTR 3:12\nIDENT 3:13\nBINOP 3:15\nLIT_STR 3:17\n"
            "BINOP 3:21\nLIT_NUM 3:24\n"
        )

    def test_missing_file(self, capsys):
        assert main(["tokens", "/nonexistent/prog.py"]) == 1
        assert capsys.readouterr().err.startswith("error: input:")

    def test_unexpected_exception_is_reported(self, tmp_path, capsys, monkeypatch):
        def broken(source):
            raise RuntimeError("emitter\nfailed")

        monkeypatch.setattr("codediv.cli.tokenize", broken)
        file = tmp_path / "prog.py"
        file.write_text("x = 1\n")
        assert main(["tokens", str(file)]) == 1
        assert capsys.readouterr().err == "error: internal: RuntimeError: emitter failed\n"


class TestSimilarityCommand:
    def test_duplicate_corpus_unit_matrix(self, duplicate_corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["similarity", "--corpus", str(duplicate_corpus), "--out", str(out)]) == 0
        matrix = SimMatrix.from_text((out / "p1.simmatrix.txt").read_text())
        assert matrix.scores.tolist() == [[1.0, 1.0], [1.0, 1.0]]
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "similarity"
        assert manifest["params"]["min_match"] == 5

    def test_renamed_pair_scores_one(self, tmp_path):
        corpus = write_corpus(
            tmp_path / "pair.jsonl",
            [("t1", 0, RENAMED_PAIR[0], True), ("t1", 1, RENAMED_PAIR[1], True)],
        )
        out = tmp_path / "out"
        assert main(["similarity", "--corpus", str(corpus), "--out", str(out)]) == 0
        matrix = SimMatrix.from_text((out / "t1.simmatrix.txt").read_text())
        assert matrix.scores[0, 1] == 1.0

    @pytest.mark.parametrize(
        "command", [["similarity"], ["report"], ["advantages", "--objective", "base"]]
    )
    @pytest.mark.parametrize("value", ["0", "-3", "2.5"])
    def test_min_match_must_be_positive(self, tmp_path, capsys, command, value):
        # One sample per prompt: no pair is tiled, so only the option check
        # can refuse the value.
        corpus = write_corpus(tmp_path / "one.jsonl", [("t1", 0, "x = 1\n", True)])
        out = tmp_path / "out"
        argv = command + ["--corpus", str(corpus), "--min-match", value, "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--min-match" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_min_match_tiles_nothing(self, mixed_corpus, tmp_path):
        # A min_match past every stream's length keys no k-gram, however
        # large it is, so the matrices equal those of any such value.
        outs = {}
        for value in ("1000", "100000000000000000000"):
            outs[value] = out = tmp_path / value
            argv = ["similarity", "--corpus", str(mixed_corpus), "--min-match", value, "--out", str(out)]
            assert main(argv) == 0
        for name in ("p1.simmatrix.txt", "p2.simmatrix.txt"):
            assert (outs["1000"] / name).read_text() == (outs["100000000000000000000"] / name).read_text()

    def test_empty_corpus_manifest_only(self, tmp_path):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        out = tmp_path / "out"
        assert main(["similarity", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert os.listdir(out) == ["manifest.json"]

    def test_parse_failure_nonzero_exit(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("{broken\n")
        out = tmp_path / "out"
        assert main(["similarity", "--corpus", str(corpus), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parse:")
        assert "\n" not in err.strip()

    def test_missing_extractions_compare_as_duplicates(self, tmp_path):
        # Completions with no fenced block yield empty streams, which score
        # 1.0 against each other and 0.0 against real code, in every command
        # that builds a matrix. One test id covers all three commands.
        lines = [
            json.dumps({"prompt_id": "p", "sample_id": 0, "text": "no code", "correct": False}),
            json.dumps({"prompt_id": "p", "sample_id": 1, "text": "also none", "correct": False}),
            json.dumps({"prompt_id": "p", "sample_id": 2, "source": "def f():\n    return 1\n", "correct": True}),
        ]
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        for command, extra in [
            ("similarity", []),
            ("report", ["--k", "1"]),
            ("advantages", ["--objective", "diversity"]),
        ]:
            out = tmp_path / command
            assert main([command, "--corpus", str(corpus), "--out", str(out)] + extra) == 0, command
        matrix = SimMatrix.from_text((tmp_path / "similarity" / "p.simmatrix.txt").read_text())
        assert matrix.scores[0, 1] == 1.0
        assert matrix.scores[0, 2] == 0.0
        prompt = read_json(tmp_path / "report" / "report.json")["prompts"]["p"]
        assert (prompt["empty_sources"], prompt["clusters"]) == (2, 2)
        assert prompt["jdiv"] == pytest.approx(1 - 1 / 3)
        # Scores (1, 0, 0): dropping a blank sample leaves a pair at 0.0,
        # dropping the code leaves the duplicate pair at 1.0.
        adv = json.loads((tmp_path / "advantages" / "advantages.jsonl").read_text())["advantages"]
        assert adv == pytest.approx([-1 / 3, -1 / 3, 2 / 3])

    def test_rerun_removes_stale_matrices(self, tmp_path):
        src = "def f(x):\n    return x + 1\n"
        both = write_corpus(tmp_path / "both.jsonl", [("p1", 0, src, True), ("p2", 0, src, True)])
        only_p1 = write_corpus(tmp_path / "p1.jsonl", [("p1", 0, src, True)])
        out = tmp_path / "out"
        assert main(["similarity", "--corpus", str(both), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "p1.simmatrix.txt", "p2.simmatrix.txt"]
        assert main(["similarity", "--corpus", str(only_p1), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "p1.simmatrix.txt"]
        assert read_json(out / "manifest.json")["inputs"]["corpus"]["path"] == str(only_p1)

    def test_unsafe_prompt_id_slug(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", [("a/b c", 0, "x = 1\n", True)])
        out = tmp_path / "out"
        assert main(["similarity", "--corpus", str(corpus), "--out", str(out)]) == 0
        names = os.listdir(out)
        assert any(n.startswith("a_b_c-") and n.endswith(".simmatrix.txt") for n in names)


class TestReportCommand:
    def test_duplicate_corpus_diagnostics(self, duplicate_corpus, tmp_path):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "report",
                    "--corpus",
                    str(duplicate_corpus),
                    "--k",
                    "1,2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        report = read_json(out / "report.json")
        p1 = report["prompts"]["p1"]
        assert p1["jdiv"] == 0.0
        assert p1["clusters"] == 1
        assert p1["eff"] == 1.0
        assert p1["pass_at"]["1"] == 1.0
        assert p1["pass_at"]["2"] == 1.0
        assert report["dataset"]["pass_at"]["1"] == 1.0
        assert (out / "report.txt").read_text().startswith("prompt")

    def test_mixed_corpus_columns(self, mixed_corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["report", "--corpus", str(mixed_corpus), "--k", "1,2,3", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        for prompt in report["prompts"].values():
            assert set(prompt["pass_at"]) == {"1", "2", "3"}
            assert prompt["jdiv"] is not None
            assert prompt["eff"] >= 1.0
        # a and its renamed copy b link; the while loop c stands alone.
        assert [report["prompts"][p]["clusters"] for p in ("p1", "p2")] == [2, 2]
        assert report["lengths"]["code_chars"]["max"] <= report["lengths"]["raw_chars"]["max"]

    def test_correct_only_columns(self, mixed_corpus, tmp_path):
        out = tmp_path / "out"
        main(["report", "--corpus", str(mixed_corpus), "--k", "1", "--out", str(out)])
        report = read_json(out / "report.json")
        # p1 has two correct samples -> jdiv_correct defined; p2 also two.
        assert report["prompts"]["p1"]["jdiv_correct"] is not None
        assert report["prompts"]["p2"]["jdiv_correct"] == 0.0  # duplicate correct pair

    def test_deep_expressions(self, tmp_path):
        corpus = write_corpus(
            tmp_path / "deep.jsonl",
            [(name, i, source, True) for name, source in DEEP_EXPRESSIONS.items() for i in range(2)],
        )
        out = tmp_path / "out"
        assert main(["report", "--corpus", str(corpus), "--k", "1", "--out", str(out)]) == 0
        prompts = read_json(out / "report.json")["prompts"]
        assert {name: p["fallback_streams"] for name, p in prompts.items()} == {
            "attribute_chain": 0,
            "binop_chain": 0,
            "call_chain": 0,
            "negation_chain": 0,
            "not_chain": 0,
            "subscript_chain": 0,
        }
        assert all(p["jdiv"] == 0.0 for p in prompts.values())

    def test_parser_warnings_stay_off_stderr(self, tmp_path):
        # "1if" makes ast.parse warn "invalid decimal literal", but it parses.
        # The sample with a comment is parsed twice: once as is, once stripped.
        src = "x = 1if y else 2\n"
        corpus = write_corpus(
            tmp_path / "warn.jsonl", [("p1", 0, src + "# c\n", True), ("p1", 1, src, True)]
        )
        argv = ["report", "--corpus", str(corpus), "--k", "1", "--out"]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(codediv.__file__)))
        run = subprocess.run(
            [sys.executable, "-m", "codediv.cli", *argv, str(tmp_path / "sub")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert main(argv + [str(tmp_path / "lib")]) == 0
        assert read_all_outputs(tmp_path / "sub") == read_all_outputs(tmp_path / "lib")
        prompt = read_json(tmp_path / "sub" / "report.json")["prompts"]["p1"]
        assert (prompt["fallback_streams"], prompt["jdiv"]) == (0, 0.0)

    def test_oversized_k_names_prompt(self, duplicate_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["report", "--corpus", str(duplicate_corpus), "--k", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: param: pass@5 needs n >= 5; prompt 'p1' has n=2\n"
        assert not out.exists()

    def test_empty_corpus_refused(self, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        out = tmp_path / "out"
        assert main(["report", "--corpus", str(corpus), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: input: corpus has no samples: {corpus}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["7", "-0.1", "nan", "inf"])
    def test_tau_must_be_in_unit_interval(self, duplicate_corpus, tmp_path, capsys, value):
        out = tmp_path / "out"
        argv = ["report", "--corpus", str(duplicate_corpus), "--k", "1", "--tau", value, "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--tau" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["", ",", "1,1,2", "2,1,2"])
    def test_k_list_must_be_non_empty_and_distinct(self, duplicate_corpus, tmp_path, capsys, value):
        # A repeated k would write its p@k column twice.
        out = tmp_path / "out"
        argv = ["report", "--corpus", str(duplicate_corpus), "--k", value, "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument --k: bad k list {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_vendi_with_embeddings(self, duplicate_corpus, tmp_path):
        emb = tmp_path / "emb.jsonl"
        emb.write_text(
            "\n".join(
                json.dumps({"prompt_id": "p1", "sample_id": i, "vector": [1.0, 0.0]})
                for i in range(2)
            )
            + "\n"
        )
        out = tmp_path / "out"
        assert (
            main(
                [
                    "report",
                    "--corpus",
                    str(duplicate_corpus),
                    "--k",
                    "1",
                    "--embeddings",
                    str(emb),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        report = read_json(out / "report.json")
        assert report["prompts"]["p1"]["vendi"] == pytest.approx(1.0, abs=1e-9)

    def test_missing_embedding_vector_errors(self, duplicate_corpus, tmp_path, capsys):
        emb = tmp_path / "emb.jsonl"
        emb.write_text(
            json.dumps({"prompt_id": "p1", "sample_id": 0, "vector": [1.0, 0.0]}) + "\n"
        )
        out = tmp_path / "out"
        code = main(
            [
                "report",
                "--corpus",
                str(duplicate_corpus),
                "--k",
                "1",
                "--embeddings",
                str(emb),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "error: input:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("prompt_id", ["p1"], "field 'prompt_id' must be a string"),
            ("sample_id", {"a": 1}, "field 'sample_id' must be an integer >= 0"),
        ],
    )
    def test_embedding_key_types_checked(self, duplicate_corpus, tmp_path, capsys, key, value, message):
        record = {"prompt_id": "p1", "sample_id": 0, "vector": [1.0, 0.0], key: value}
        emb = tmp_path / "emb.jsonl"
        emb.write_text(json.dumps(record) + "\n")
        out = tmp_path / "out"
        argv = ["report", "--corpus", str(duplicate_corpus), "--k", "1", "--embeddings", str(emb)]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: parse: embeddings line 1: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("vector", BAD_NORM_VECTORS.values(), ids=BAD_NORM_VECTORS)
    def test_embedding_norm_checked(self, duplicate_corpus, tmp_path, capsys, vector):
        emb = tmp_path / "emb.jsonl"
        emb.write_text(
            json.dumps({"prompt_id": "p1", "sample_id": 0, "vector": vector})
            + "\n"
            + json.dumps({"prompt_id": "p1", "sample_id": 1, "vector": [1.0] * len(vector)})
            + "\n"
        )
        out = tmp_path / "out"
        argv = ["report", "--corpus", str(duplicate_corpus), "--k", "1", "--embeddings", str(emb)]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        norm = "inf" if vector == BAD_NORM_VECTORS["huge"] else "0.0"
        assert err == f"error: parse: embeddings line 1: vector norm is {norm}, not a positive finite number\n"
        assert not out.exists()


class TestKeyedInputs:
    @pytest.mark.parametrize(
        "command",
        [["similarity"], ["report", "--k", "1"], ["advantages", "--objective", "base"]],
        ids=lambda command: command[0],
    )
    def test_lone_surrogate_prompt_id_refused(self, tmp_path, capsys, command):
        # JSON can carry a lone surrogate; no output file could encode it.
        corpus = write_corpus(tmp_path / "c.jsonl", [("p\ud800", 0, "x = 1\n", True)])
        out = tmp_path / "out"
        assert main([*command, "--corpus", str(corpus), "--out", str(out)]) == 1
        message = "field 'prompt_id' must be valid Unicode text (surrogates not allowed)"
        assert capsys.readouterr().err == f"error: parse: line 1: {message}\n"
        assert not out.exists()


class TestAdvantagesCommand:
    def test_base_all_correct_zero_vector(self, duplicate_corpus, tmp_path):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "advantages",
                    "--corpus",
                    str(duplicate_corpus),
                    "--objective",
                    "base",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        record = json.loads((out / "advantages.jsonl").read_text().splitlines()[0])
        assert record["advantages"] == [0.0, 0.0]
        assert record["objective"] == "base"

    def test_pkpo_worked_example(self, tmp_path):
        corpus = write_corpus(
            tmp_path / "c.jsonl",
            [("p", i, f"x = {i}\n", i < 2) for i in range(4)],
        )
        out = tmp_path / "out"
        assert (
            main(
                [
                    "advantages",
                    "--corpus",
                    str(corpus),
                    "--objective",
                    "pkpo",
                    "--k",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        record = json.loads((out / "advantages.jsonl").read_text().splitlines()[0])
        assert record["advantages"] == pytest.approx([2 / 3, 2 / 3, 0.0, 0.0])

    def test_combined_lambda_zero_equals_base(self, mixed_corpus, tmp_path):
        out_base = tmp_path / "base"
        out_combined = tmp_path / "combined"
        main(["advantages", "--corpus", str(mixed_corpus), "--objective", "base", "--out", str(out_base)])
        main(
            [
                "advantages",
                "--corpus",
                str(mixed_corpus),
                "--objective",
                "combined",
                "--lambda-div",
                "0",
                "--out",
                str(out_combined),
            ]
        )
        base_records = [
            json.loads(line)["advantages"]
            for line in (out_base / "advantages.jsonl").read_text().splitlines()
        ]
        combined_records = [
            json.loads(line)["advantages"]
            for line in (out_combined / "advantages.jsonl").read_text().splitlines()
        ]
        assert base_records == combined_records

    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_k_must_be_positive(self, duplicate_corpus, tmp_path, capsys, value):
        # The base objective ignores k, so only the option check can refuse it.
        out = tmp_path / "out"
        argv = ["advantages", "--corpus", str(duplicate_corpus), "--objective", "base", "--k", value]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(out)])
        assert exit_info.value.code == 2
        assert "--k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_lambda_div_must_be_finite_and_non_negative(self, duplicate_corpus, tmp_path, capsys, value):
        out = tmp_path / "out"
        argv = ["advantages", "--corpus", str(duplicate_corpus), "--objective", "combined"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--lambda-div", value, "--out", str(out)])
        assert exit_info.value.code == 2
        assert "--lambda-div" in capsys.readouterr().err
        assert not out.exists()

    def test_diversity_small_group_errors_with_prompt(self, duplicate_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "advantages",
                "--corpus",
                str(duplicate_corpus),
                "--objective",
                "diversity",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "p1" in capsys.readouterr().err


class TestCompareCommand:
    def _make_report(self, tmp_path, name, corpus):
        out = tmp_path / name
        assert main(["report", "--corpus", str(corpus), "--k", "1,2", "--out", str(out)]) == 0
        return out / "report.json"

    def test_identical_reports(self, mixed_corpus, tmp_path):
        report = self._make_report(tmp_path, "a", mixed_corpus)
        out = tmp_path / "cmp"
        assert (
            main(
                [
                    "compare",
                    "--report-a",
                    str(report),
                    "--report-b",
                    str(report),
                    "--resamples",
                    "1000",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        result = read_json(out / "comparison.json")
        for metric in result["metrics"].values():
            assert metric["mean_delta"] == 0.0
            assert metric["p_value"] == 1.0
            assert metric["up_pct"] == 0.0

    def test_uniform_improvement(self, tmp_path):
        rows_a, rows_b = [], []
        base = "def f(x):\n    return x\n"
        variant = "def g(y):\n    while y:\n        y -= 1\n    return y\n"
        for p in range(6):
            pid = f"p{p}"
            rows_a += [(pid, 0, base, False), (pid, 1, base, False), (pid, 2, base, True)]
            rows_b += [(pid, 0, base, True), (pid, 1, variant, True), (pid, 2, base, True)]
        corpus_a = write_corpus(tmp_path / "a.jsonl", rows_a)
        corpus_b = write_corpus(tmp_path / "b.jsonl", rows_b)
        report_a = self._make_report(tmp_path, "ra", corpus_a)
        report_b = self._make_report(tmp_path, "rb", corpus_b)
        out = tmp_path / "cmp"
        assert (
            main(
                [
                    "compare",
                    "--report-a",
                    str(report_a),
                    "--report-b",
                    str(report_b),
                    "--resamples",
                    "1000",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        result = read_json(out / "comparison.json")
        p1 = result["metrics"]["pass@1"]
        assert p1["up_pct"] == 100.0
        assert p1["p_value"] == 0.0

    @pytest.mark.parametrize("value", ["10", "999", "-1"])
    def test_resamples_floor(self, duplicate_corpus, tmp_path, capsys, value):
        # One prompt pairs up, so no bootstrap runs: only the option check
        # can refuse the value.
        report = self._make_report(tmp_path, "a", duplicate_corpus)
        out = tmp_path / "cmp"
        argv = ["compare", "--report-a", str(report), "--report-b", str(report), "--resamples", value]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(out)])
        assert exit_info.value.code == 2
        assert "--resamples" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_must_be_non_negative(self, mixed_corpus, tmp_path, capsys):
        # Two prompts pair up, so a bootstrap would run with this seed.
        report = self._make_report(tmp_path, "a", mixed_corpus)
        out = tmp_path / "cmp"
        argv = ["compare", "--report-a", str(report), "--report-b", str(report), "--seed", "-1"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(out)])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_disjoint_prompt_sets_error(self, tmp_path, capsys):
        corpus_a = write_corpus(
            tmp_path / "a.jsonl", [("only_a", 0, "x = 1\n", True), ("only_a", 1, "y = 2\n", True)]
        )
        corpus_b = write_corpus(
            tmp_path / "b.jsonl", [("only_b", 0, "x = 1\n", True), ("only_b", 1, "y = 2\n", True)]
        )
        report_a = self._make_report(tmp_path, "ra", corpus_a)
        report_b = self._make_report(tmp_path, "rb", corpus_b)
        code = main(
            [
                "compare",
                "--report-a",
                str(report_a),
                "--report-b",
                str(report_b),
                "--out",
                str(tmp_path / "cmp"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "only_a" in err and "only_b" in err

    @pytest.mark.parametrize(
        "raw, problem",
        [
            ("prompts", "'prompts' must be an object of objects"),
            ({"prompts": 5}, "'prompts' must be an object of objects"),
            ({"prompts": {"a": {}}}, "'params.k_list' must be a list"),
            ({"prompts": {}, "params": {"k_list": 5}}, "'params.k_list' must be a list"),
        ],
        ids=repr,
    )
    def test_file_not_shaped_like_a_report_refused(self, mixed_corpus, tmp_path, capsys, raw, problem):
        good = self._make_report(tmp_path, "good", mixed_corpus)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "cmp"
        for a, b in ((bad, good), (good, bad)):
            assert main(["compare", "--report-a", str(a), "--report-b", str(b), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: parse: {bad}: not a report file ({problem})\n"
        assert not out.exists()


    @pytest.mark.parametrize(
        "record, problem",
        [
            ({"jdiv": "x"}, "jdiv must be a number or null, got 'x'"),
            ({"jdiv": True}, "jdiv must be a number or null, got True"),
            ({"jdiv": {}}, "jdiv must be a number or null, got {}"),
            ({"pass_at": {"1": [0.5]}}, "pass@1 must be a number or null, got [0.5]"),
            ({"pass_at": 5}, "pass_at must be an object or null, got 5"),
        ],
        ids=repr,
    )
    def test_metric_value_not_a_number_refused(self, tmp_path, capsys, record, problem):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"prompts": {"a": {"jdiv": 0.5}, "b": {"jdiv": 0.25}}, "params": {"k_list": [1]}}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"prompts": {"a": {"jdiv": 0.5}, "b": record}, "params": {"k_list": [1]}}))
        out = tmp_path / "cmp"
        for a, b in ((bad, good), (good, bad)):
            assert main(["compare", "--report-a", str(a), "--report-b", str(b), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: parse: {bad}: prompt 'b': {problem}\n"
        assert not out.exists()

    def test_metric_paired_over_prompts_defining_it_in_both(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({
            "prompts": {
                "p": {"jdiv": 0.5, "pass_at": {"1": 0.5, "2": 0.75}},
                "q": {"jdiv": 0.25, "pass_at": {"1": 0, "2": 0.5}},
                "r": {"jdiv": 0.75, "pass_at": {"1": 1, "2": 1}},
            },
            "params": {"k_list": [1, 2]},
        }))
        b = tmp_path / "b.json"
        b.write_text(json.dumps({
            "prompts": {
                "p": {"jdiv": 0.75, "pass_at": {"1": 0.5}},
                "q": {"jdiv": None, "pass_at": {"1": 0.5}},
                "r": {"jdiv": 1.0, "pass_at": None},
            },
            "params": {"k_list": [1]},
        }))
        out = tmp_path / "cmp"
        argv = ["compare", "--report-a", str(a), "--report-b", str(b), "--resamples", "1000"]
        assert main(argv + ["--out", str(out)]) == 0
        metrics = read_json(out / "comparison.json")["metrics"]
        # pass@2 is in A's k_list only; jdiv pairs p and r, pass@1 pairs p and q.
        assert sorted(metrics) == ["jdiv", "pass@1"]
        for label in metrics:
            assert metrics[label]["n"] == 2
            assert metrics[label]["mean_delta"] == pytest.approx(0.25)


class TestSimulateCommand:
    def _config(self, tmp_path, **overrides):
        raw = {
            "objectives": ["base", {"name": "combined", "lambda_div": 2.0}],
            "seeds": [0, 1],
            "steps": 3,
            "eval": {"k_list": [1, 4]},
        }
        raw.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_trace_files_per_cell(self, tmp_path):
        config = self._config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        names = sorted(os.listdir(out))
        assert names == [
            "manifest.json",
            "trace_00_base_s0.jsonl",
            "trace_00_base_s1.jsonl",
            "trace_01_combined_s0.jsonl",
            "trace_01_combined_s1.jsonl",
        ]
        lines = (out / "trace_00_base_s0.jsonl").read_text().splitlines()
        assert len(lines) == 4  # steps + 1
        record = json.loads(lines[0])
        assert set(record) == {"step", "pass_at", "jdiv", "entropy", "logits"}

    def test_rerun_removes_stale_traces(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert main(["simulate", "--config", str(self._config(tmp_path, seeds=[0])), "--out", str(out)]) == 0
        assert "trace_01_combined_s0.jsonl" in os.listdir(out)
        config = self._config(tmp_path, seeds=[0], objectives=["base"])
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "notes.txt", "trace_00_base_s0.jsonl"]
        assert read_json(out / "manifest.json")["params"]["objectives"] == ["base"]

    def test_zero_steps_single_record(self, tmp_path):
        config = self._config(tmp_path, steps=0, objectives=["base"], seeds=[0])
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert len((out / "trace_00_base_s0.jsonl").read_text().splitlines()) == 1

    def test_rerun_byte_identical(self, tmp_path):
        config = self._config(tmp_path)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        main(["simulate", "--config", str(config), "--out", str(out1)])
        main(["simulate", "--config", str(config), "--out", str(out2)])
        blobs1 = read_all_outputs(out1)
        blobs2 = read_all_outputs(out2)
        assert set(blobs1) == set(blobs2)
        for name in blobs1:
            if name == "manifest.json":
                continue  # manifest embeds the config path, identical here anyway
            assert blobs1[name] == blobs2[name], name

    # Every objective, per-objective overrides, a non-default world,
    # temperature, bonus and k_list order. The digests pin the trace bytes,
    # so a change in the order of float operations shows up here.
    GOLDEN_CONFIG = {
        "world": {"families": 4, "per_family": 3, "correct_families": 2, "within": 0.8, "cross": 0.25},
        "objectives": [
            "base",
            "passk_loo",
            {"name": "pkpo", "k": 3},
            {"name": "diversity", "lr": 0.1},
            "diversity_only",
            {"name": "combined", "lambda_div": 1.5, "lr": 0.2},
            {"name": "entropy", "entropy_beta": 0.5},
        ],
        "temperature": 0.7,
        "init_correct_bonus": 0.3,
        "group_size": 6,
        "eval": {"k_list": [10, 1, 2]},
        "seeds": [0, 7],
        "steps": 40,
    }
    GOLDEN_SHA256 = {
        "trace_00_base_s0.jsonl": "b60a77d710dc9da41ea2ca79d6e16dd1befb9d9f2aa2cdbf8a2e369581dca9a1",
        "trace_00_base_s7.jsonl": "16435c70ba6a7587b85a4d06c90cb20a76fa6722e8c19ea9147a46ff545bffec",
        "trace_01_passk_loo_s0.jsonl": "e169388156643d21da1e1057081c8ea083782e8f5834c8b56b9bb77808291da6",
        "trace_01_passk_loo_s7.jsonl": "5d21c27689f61032172b5bad9afdd1cac2633f6d6423ab907a4d5aed6e966ea9",
        "trace_02_pkpo_s0.jsonl": "95b1cb38d2d19d3e7377329ccbdfb640fab912a9151673f136e55e8027aca839",
        "trace_02_pkpo_s7.jsonl": "242a9cead77eab180652fa528e988ad19cbc8f52be678dee9d6e41bbe7c596d2",
        "trace_03_diversity_s0.jsonl": "edb63a9a57d6d3459f1ed0f219c7c60e43cfdb1069f6d8f8d2a9d2e2eb86e8a1",
        "trace_03_diversity_s7.jsonl": "6717de7910949568b6ad435edf0639b889379df0830cdec6e2eef213dea9d012",
        "trace_04_diversity_only_s0.jsonl": "acbc4a61aae262762c2f9e247e667c1b5d816838883a53fc0d825c69e817f83d",
        "trace_04_diversity_only_s7.jsonl": "3d25515355443875af0727cc503c85d303fd5572e83485e0eeeb66b0be97bf1a",
        "trace_05_combined_s0.jsonl": "07bf408ecd9961e7411c57d9fdc559c3d83bde56001bfc4602e027bc851d2dac",
        "trace_05_combined_s7.jsonl": "c60419a2553c99bd693c1a9c11ceec19ca64c88e21b9304954b29bb607132893",
        "trace_06_entropy_s0.jsonl": "f6f97a9a9b0916e6933a86c0c46f6bdb82702868dca1ba93fef922554c105a1d",
        "trace_06_entropy_s7.jsonl": "cb073bf5317489231c9a5cdf79c882475bd3ebd7ad00fc26eee1a335991567da",
    }

    def test_golden_trace_bytes(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.GOLDEN_CONFIG))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        blobs = read_all_outputs(out)
        del blobs["manifest.json"]
        digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}
        assert digests == self.GOLDEN_SHA256

    def test_pkpo_k_defaults_to_group_size(self, tmp_path):
        # The golden config sets pkpo's k, so it does not pin the default.
        traces = {}
        for k in (None, 6, 3):
            entry = {"name": "pkpo"} if k is None else {"name": "pkpo", "k": k}
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"objectives": [entry], "group_size": 6, "seeds": [0, 3], "steps": 30}))
            out = tmp_path / f"out_{k}"
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            traces[k] = read_all_outputs(out)
            del traces[k]["manifest.json"]
        assert traces[None] == traces[6]
        assert traces[None] != traces[3]

    def test_invalid_config_names_field(self, tmp_path, capsys):
        config = self._config(tmp_path, steps=-2)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "steps" in err

    @pytest.mark.parametrize(
        "raw",
        [
            {"temperature": 0},
            {"temperature": "hot"},
            {"init_correct_bonus": "x"},
            {"lr": "x"},
            {"lr": float("nan")},
            {"seeds": [-1]},
            {"seeds": [True]},
            {"group_size": 1.5},
            {"group_size": 1},
            {"objectives": [{"name": "pkpo", "k": 20}]},
            {"objectives": ["combined"], "group_size": 2},
            {"world": {"correct": "x", "similarity": [[1.0]]}},
            {"world": {"families": 2.5, "correct_families": 1}},
            {"world": {"correct": [1, 0], "similarity": [[1.0, 0.0], [0.0, 1.0]]}},
            {"world": {"correct": [True, False], "similarity": [[1.0, 0.0], [0.0, 1.0]], "extra": 1}},
            {"world": {"correct": [True, False], "similarity": [["1", "0.2"], ["0.2", True]]}},
            {"objectives": [{"name": "combined", "lamda_div": 0.5}]},
            {"stpes": 10},
            {"temperature": 1e-310},
            {"init_correct_bonus": 1e308, "temperature": 0.1},
            [{"objectives": ["base"]}],
            # Each would overflow the logits during training.
            {"temperature": 1e-310, "init_correct_bonus": 0},
            {"temperature": 1e-310, "init_correct_bonus": 0, "lr": 0.0},
            {"lr": 1e308},
            {"objectives": ["entropy"], "entropy_beta": 1e308},
            {"objectives": ["combined"], "lambda_div": 1e308},
            # A family world's float keys take finite numbers only.
            {"world": {"families": 3, "correct_families": 1, "within": True}},
            {"world": {"within": [0.9]}},
            {"world": {"within": float("nan")}},
        ],
        ids=repr,
    )
    def test_bad_values_refused_before_any_trace(self, tmp_path, capsys, raw):
        if isinstance(raw, dict):
            raw = {"objectives": ["base"], "seeds": [0], "steps": 3, **raw}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: invalid config") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("removed", ["groups", "n"])
    def test_removed_eval_keys_rejected(self, tmp_path, capsys, removed):
        config = self._config(tmp_path, eval={removed: 1000, "k_list": [1, 4]})
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "'eval'" in err and removed in err

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_overflow_bound_edges(self, tmp_path, capsys, objective):
        # The bound is checked against training, not against itself: the
        # most extreme accepted temperature and lr must train with finite
        # logits and no numpy warning, and the next float past each edge
        # must be refused before any trace is written.
        raw = {"objectives": [objective], "seeds": [0], "eval": {"k_list": [1]}}
        for steps in (1, 3, 10):
            for key, refused, accepted in (("temperature", 1e-320, 1.0), ("lr", sys.float_info.max, 1.0)):

                def accepts(value):
                    try:
                        SimulationConfig.from_dict({**raw, "steps": steps, key: value})
                    except ValueError:
                        return False
                    return True

                past, inside = _float_edge(accepts, refused, accepted)
                config = tmp_path / "config.json"
                out = tmp_path / f"{key}_{steps}"
                config.write_text(json.dumps({**raw, "steps": steps, key: inside}))
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
                rows = [json.loads(line) for line in (out / f"trace_00_{objective}_s0.jsonl").read_text().splitlines()]
                assert len(rows) == steps + 1
                assert all(math.isfinite(x) for row in rows for x in row["logits"]), (key, steps, inside)

                config.write_text(json.dumps({**raw, "steps": steps, key: past}))
                past_out = tmp_path / "past"
                assert main(["simulate", "--config", str(config), "--out", str(past_out)]) == 1
                assert capsys.readouterr().err.startswith("error: config: invalid config field")
                assert not past_out.exists()


class TestGoldenOutputs:
    """Digests of every non-trace output on two small fixed corpora. A rerun
    comparison cannot see a change that both runs share; these can.
    ``--embeddings`` is left out: the Vendi score's last bits depend on the
    LAPACK build."""

    SOURCES = {
        "sq": "def f(xs):\n    return [x * x for x in xs]\n",
        "sq2": 'def f(items):\n    """Square each item."""\n    # one pass\n    return [y * y for y in items]\n',
        "loop": "def f(xs):\n    out = []\n    for x in xs:\n        out.append(x * x)  # keep order\n    return out\n",
        "while": "def g(n):\n    while n > 1:\n        n -= 1\n    return n\n",
        "cls": "class Box:\n    def __init__(self, v):\n        self.v = v\n\n    def get(self):\n        return self.v\n",
    }
    # (prompt_id, [(source key, correct)]); a None key is a completion with
    # no fenced block, and a key ending in "!" a pre-extracted source.
    CORPUS_A = [
        ("p1", [("sq", True), ("sq2", True), ("loop", False), ("while", False)]),
        ("task/2", [("cls", True), ("cls", True), (None, False), ("sq", False)]),
        ("p3", [("while", True), ("loop", False), ("sq2", True), ("cls!", False)]),
    ]
    CORPUS_B = [
        ("p1", [("sq", True), ("sq", True), ("sq2", True), ("loop", False)]),
        ("task/2", [("cls", True), ("sq2", True), ("loop", True), (None, False)]),
        ("p3", [("while", False), ("while", True), ("loop", True), ("cls", True)]),
    ]
    GOLDEN_SHA256 = {
        "advantages_base/advantages.jsonl": "c5373ffc06a8c9005ce7317ae13373c6ae002643e7e3bc42864083a3f61727d7",
        "advantages_combined/advantages.jsonl": "1a0c8d6af4c715975da948b775dab596a1990ddad3cfa503c34f40ace68d3427",
        "advantages_diversity/advantages.jsonl": "de7e992179714991cd4597c6aca48759cb82fea02f8fe0ae43ce58a40ee93be1",
        "advantages_diversity_only/advantages.jsonl": "de7e992179714991cd4597c6aca48759cb82fea02f8fe0ae43ce58a40ee93be1",
        "advantages_entropy/advantages.jsonl": "ff96b9d982c7ab959c3a786d35bad95cc462f720a6c9be3133f516a4e1eb6514",
        "advantages_passk_loo/advantages.jsonl": "db0f858a8f3807fc3a5da95a39c2fe37c84d3577b2541fd849faa3aef5ff3638",
        "advantages_pkpo/advantages.jsonl": "c1b35870ff67c75fbf7feafbb5c0ad761d4f1ca789b5b2e09046ada48c83ab9e",
        "compare/comparison.json": "459537d19e244f854359c0a1b2902cb04d04f46c71c2115711cca9444277925f",
        "compare/comparison.txt": "ef263d4a7d1db32602e6fd4b55498e3dc79a697a3ca293e28668cdbb925c997e",
        "report_a/report.json": "7a5c10ff516d4fcf9e880d309042dc6c1b18414bfd3bebd85c30c973c737be73",
        "report_a/report.txt": "37cf19cfa952642c03d137d7920e5068ca54d2c6716f443929b0e60ff34d7ab1",
        "report_b/report.json": "cd269265930c57bb4cf6f28ce29be3d0bd4efc3559713b8a9325246b8039e1cd",
        "report_b/report.txt": "70683fc89bb34f1f160fda1b0a56d94baaca54710236b94beaae1936f4070d99",
        "report_tau/report.json": "02c652dff04702828c824d6cf8406874d2858e99ade7a97cb1ebb8ccc822244e",
        "report_tau/report.txt": "14e8fc3a19575b538f89f622c1df9a0669b4d036b3eea2f9d00b5984517b1792",
        "similarity/p1.simmatrix.txt": "3ed6163b48a4a7aa7addab70dbd3e07b4a0593edf6a876ece8c99c23971450e5",
        "similarity/p3.simmatrix.txt": "749f87fd65051a1ac6ae76a20013b2c6761291f23656ac364ac72e9ac0f3d22f",
        "similarity/task_2-6795f9fa.simmatrix.txt": "467e79eedb8e2a70db15c094c1a53ec19981bbdb2ba81e66de1ee4c95435d4c1",
    }

    def _write(self, path, groups):
        lines = []
        for pid, samples in groups:
            for sid, (key, correct) in enumerate(samples):
                record = {"prompt_id": pid, "sample_id": sid, "correct": correct}
                if key is None:
                    record["text"] = "I could not solve this one."
                elif key.endswith("!"):
                    record["source"] = self.SOURCES[key[:-1]]
                else:
                    record["text"] = f"Here is my answer.\n```python\n{self.SOURCES[key]}```\nDone.\n"
                lines.append(json.dumps(record))
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_golden_output_bytes(self, tmp_path):
        a = self._write(tmp_path / "a.jsonl", self.CORPUS_A)
        b = self._write(tmp_path / "b.jsonl", self.CORPUS_B)
        runs = {
            "similarity": ["similarity", "--corpus", a],
            "report_a": ["report", "--corpus", a, "--k", "1,2"],
            "report_b": ["report", "--corpus", b, "--k", "1,2"],
            "report_tau": ["report", "--corpus", a, "--k", "3", "--tau", "0.5"],
        }
        for objective in OBJECTIVES:
            runs[f"advantages_{objective}"] = [
                "advantages", "--corpus", a, "--objective", objective, "--k", "2", "--lambda-div", "1.5",
            ]
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
        reports = [str(tmp_path / name / "report.json") for name in ("report_a", "report_b")]
        compare = ["compare", "--report-a", reports[0], "--report-b", reports[1], "--resamples", "1000", "--seed", "3"]
        assert main([*compare, "--out", str(tmp_path / "compare")]) == 0
        digests = {}
        for name in [*runs, "compare"]:
            for file, blob in read_all_outputs(tmp_path / name).items():
                if file != "manifest.json":
                    digests[f"{name}/{file}"] = hashlib.sha256(blob).hexdigest()
        assert digests == self.GOLDEN_SHA256


class TestUnreadableInputs:
    """Every input file that cannot be read ends as one ``input`` error line."""

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["tokens", "BAD"],
            ["similarity", "--corpus", "BAD", "--out", "OUT"],
            ["report", "--corpus", "BAD", "--out", "OUT"],
            ["report", "--corpus", "CORPUS", "--k", "1", "--embeddings", "BAD", "--out", "OUT"],
            ["advantages", "--corpus", "BAD", "--objective", "base", "--out", "OUT"],
            ["compare", "--report-a", "BAD", "--report-b", "REPORT", "--out", "OUT"],
            ["compare", "--report-a", "REPORT", "--report-b", "BAD", "--out", "OUT"],
            ["simulate", "--config", "BAD", "--out", "OUT"],
        ],
        ids=lambda argv: " ".join(dict.fromkeys([argv[0], argv[argv.index("BAD") - 1]])),
    )
    def test_input_error_and_no_output(self, duplicate_corpus, tmp_path, capsys, argv, kind):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"prompt_id": "\xff"}\n')
        report = tmp_path / "report"
        assert main(["report", "--corpus", str(duplicate_corpus), "--k", "1", "--out", str(report)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        paths = {"BAD": bad, "CORPUS": duplicate_corpus, "REPORT": report / "report.json", "OUT": out}
        assert main([str(paths.get(a, a)) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input: cannot read ") and err.count("\n") == 1, err
        assert str(bad) in err
        assert not out.exists()


class TestUnwritableOutputs:
    """An ``--out`` that cannot be created or written ends as one ``output``
    error line. Blocked by a regular file or a directory, not by permission
    bits, which root ignores."""

    @pytest.mark.parametrize(
        "blocked, reason",
        [("file", "File exists"), ("file/sub", "Not a directory"), ("manifest.json", "Is a directory")],
        ids=["file", "file/sub", "manifest_is_a_directory"],
    )
    @pytest.mark.parametrize("command", ["similarity", "report", "advantages", "compare", "simulate"])
    def test_output_error(self, duplicate_corpus, tmp_path, capsys, command, blocked, reason):
        report = tmp_path / "report"
        assert main(["report", "--corpus", str(duplicate_corpus), "--k", "1", "--out", str(report)]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"objectives": ["base"], "seeds": [0], "steps": 1}))
        capsys.readouterr()
        inputs = {
            "similarity": ["--corpus", str(duplicate_corpus)],
            "report": ["--corpus", str(duplicate_corpus), "--k", "1"],
            "advantages": ["--corpus", str(duplicate_corpus), "--objective", "base"],
            "compare": ["--report-a", str(report / "report.json"), "--report-b", str(report / "report.json")],
            "simulate": ["--config", str(config)],
        }[command]
        if blocked == "manifest.json":
            out = tmp_path / "out"
            unwritable = out / "manifest.json"
            unwritable.mkdir(parents=True)
        else:
            (tmp_path / "file").write_text("x")
            out = unwritable = tmp_path / blocked
        assert main([command, *inputs, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: output: cannot write {unwritable}: {reason}\n"
        if out.is_dir():
            assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


class TestAtomicWrite:
    def test_stale_tmp_directory_does_not_block_report(self, mixed_corpus, tmp_path):
        clean = tmp_path / "clean"
        assert main(["report", "--corpus", str(mixed_corpus), "--k", "1", "--out", str(clean)]) == 0
        out = tmp_path / "out"
        (out / "report.json.tmp").mkdir(parents=True)
        assert main(["report", "--corpus", str(mixed_corpus), "--k", "1", "--out", str(out)]) == 0
        os.rmdir(out / "report.json.tmp")
        assert read_all_outputs(out) == read_all_outputs(clean)
        assert not [n for n in os.listdir(clean) if n.endswith(".tmp")]

    def test_failed_write_leaves_no_tmp(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            cli._atomic_write(str(tmp_path / "text.txt"), "ok \udc80")
        (tmp_path / "taken").mkdir()
        with pytest.raises(OSError):
            cli._atomic_write(str(tmp_path / "taken"), b"bytes")
        assert sorted(os.listdir(tmp_path)) == ["taken"]

    def test_permission_bits_follow_umask(self, tmp_path):
        umask = os.umask(0o022)
        try:
            for mask in (0o022, 0o077):
                os.umask(mask)
                path = tmp_path / f"out{mask:o}.txt"
                cli._atomic_write(str(path), "x\n")
                assert os.stat(path).st_mode & 0o777 == 0o666 & ~mask
        finally:
            os.umask(umask)
