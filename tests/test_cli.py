import json
import os
import subprocess
import sys

import pytest

import codediv
from codediv import cli
from codediv.cli import main
from codediv.similarity import SimMatrix

from conftest import DEEP_EXPRESSIONS, RENAMED_PAIR


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
        # 1.0 against each other and 0.0 against real code.
        lines = [
            json.dumps({"prompt_id": "p", "sample_id": 0, "text": "no code", "correct": False}),
            json.dumps({"prompt_id": "p", "sample_id": 1, "text": "also none", "correct": False}),
            json.dumps({"prompt_id": "p", "sample_id": 2, "source": "def f():\n    return 1\n", "correct": True}),
        ]
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["similarity", "--corpus", str(corpus), "--out", str(out)]) == 0
        matrix = SimMatrix.from_text((out / "p.simmatrix.txt").read_text())
        assert matrix.scores[0, 1] == 1.0
        assert matrix.scores[0, 2] == 0.0

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
        assert "p1" in capsys.readouterr().err

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

    def test_invalid_config_names_field(self, tmp_path, capsys):
        config = self._config(tmp_path, steps=-2)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "steps" in err

    @pytest.mark.parametrize("removed", ["groups", "n"])
    def test_removed_eval_keys_rejected(self, tmp_path, capsys, removed):
        config = self._config(tmp_path, eval={removed: 1000, "k_list": [1, 4]})
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "'eval'" in err and removed in err


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
