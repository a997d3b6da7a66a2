"""The benchmark's use of the package, checked without running the benchmark.

``perfbench/`` imports codediv, wraps its functions by the names their
callers look them up by, and reads what they return. A change to one of
those names or return shapes would otherwise show only when someone runs
the benchmark.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np

import codediv
from codediv import cli
from codediv.tokenizer import TokenStream, tokenize

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _recorder():
    # Loaded by path: the module's name clashes with the stdlib's ``trace``.
    spec = importlib.util.spec_from_file_location("perfbench_trace", os.path.join(PERFBENCH, "trace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Recorder()


def _rl_groups_hook():
    # workloads.py imports its siblings as the top-level modules ``checks``
    # and ``gen``: they are found on perfbench/ and dropped again after.
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
        for name in ("checks", "gen"):
            sys.modules.pop(name, None)
    return module.RlGroups.hook


def test_selftest_passes():
    result = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "selftest.py")], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_recorder_resolves_every_target():
    rec = _recorder()
    try:
        assert rec.install() == []
    finally:
        rec.uninstall()


def test_traced_report_counts_records(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    rows = [("p1", 0, True), ("p1", 1, False), ("p1", 2, True), ("p2", 0, False), ("p2", 1, True)]
    corpus.write_text(
        "".join(
            json.dumps({"prompt_id": pid, "sample_id": sid, "source": f"x = {sid}\n", "correct": ok}) + "\n"
            for pid, sid, ok in rows
        )
    )
    rec = _recorder()
    try:
        assert rec.install() == []
        assert cli.main(["report", "--corpus", str(corpus), "--k", "1", "--out", str(tmp_path / "out")]) == 0
    finally:
        rec.uninstall()
    assert rec.counts["ingest.records"] == len(rows)
    assert {"cli.report", "ingest.load_corpus", "ingest.length_stats"} <= {span[0] for span in rec.spans}


def test_traced_simulate_counts_one_step_per_step(tmp_path):
    # A run that stopped calling simulator.step by its module name would
    # read 0 steps here, not fail.
    config = tmp_path / "simulate.json"
    config.write_text(json.dumps({"objectives": ["base", "combined"], "seeds": [0], "steps": 3}))
    rec = _recorder()
    try:
        assert rec.install() == []
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        rec.uninstall()
    # Six steps, and one config check per objective.
    assert rec.counts["simulator.steps"] == 6
    assert rec.counts["rewards.calls"] == 8
    names = [span[0] for span in rec.spans]
    assert names.count("simulator.run") == 2
    assert names.count("simulator.step") == 6


def test_direct_reads_of_the_package():
    # run.py records codediv.GST_BACKEND, and the rl-groups hook builds the
    # stream of a completion with no code, or a blank fence, as
    # TokenStream([]), which gen.rl_groups never exercises.
    assert isinstance(codediv.GST_BACKEND, str)
    assert TokenStream([]) == tokenize("")
    assert not TokenStream([]).fallback
    texts = [
        "No code, only prose.",
        "```python\n\n```\n",
        "```python\ndef f(x):\n    return x + 1\n```\n",
        "```python\ndef g(y):\n    return y + 1\n```\n",
    ]
    scores, adv = _rl_groups_hook()(texts, [False, True, True, False])
    assert scores.shape == (4, 4) and adv.shape == (4,)
    assert np.isfinite(scores).all() and np.isfinite(adv).all()
    # Two blank streams are duplicates, and a blank one matches no code.
    assert scores[0, 1] == 1.0 and scores[0, 2] == 0.0 and scores[2, 3] == 1.0
