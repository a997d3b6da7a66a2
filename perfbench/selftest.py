#!/usr/bin/env python3
"""Self-test of the benchmark's generator and output checks.

    python3 perfbench/selftest.py

The generator must give byte-identical inputs for a fixed seed and other
inputs for another seed. On small real codediv outputs every check must
pass, and corrupting one matrix cell, one advantage, one pass@k value or
one simulator trace value must each make a check fail. Exits 1 on the
first broken expectation.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work", "selftest")


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        sys.exit(1)


def generated_bytes(seed):
    """Every generated input of every workload, serialized."""
    parts = [
        gen.corpus(seed, 2, 32, 3, workloads.CorpusReport.STATEMENTS, "A"),
        gen.corpus(seed, 2, 32, 6, workloads.CorpusReport.STATEMENTS, "B"),
        gen.rl_groups(seed),
        gen.hostile(seed),
        gen.simulate_config(seed),
    ]
    parts.append(gen.embeddings(seed, parts[0][0]))
    return json.dumps(parts, sort_keys=True).encode()


def edit_file(path, fn):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fn(text))


def problems(ops):
    return [p for op in ops for p in op.problems]


class SmallCorpus(workloads.CorpusReport):
    N = 10


def corpus_checks():
    w = SmallCorpus()
    w.prepare(os.path.join(WORK, "corpus"), 3)
    ops = w.run_round()
    expect(all(op.ok for op in ops), "small corpus pipeline runs")
    w.check(ops)
    expect(not problems(ops), "checks pass on real corpus outputs")
    digest = w.digest()

    sim = os.path.join(w.out, "sim", "task-000.simmatrix.txt")
    backup = open(sim, encoding="utf-8").read()
    rows = checks.read_matrix(sim)
    i, j = next((i, j) for i in range(len(rows)) for j in range(i + 1, len(rows)) if rows[i][j] < 1.0)

    def set_cell(text, value, both):
        lines = text.splitlines()
        for a, b in ((i, j), (j, i)) if both else ((i, j),):
            cells = lines[a + 1].split()
            cells[b] = repr(value)
            lines[a + 1] = " ".join(cells)
        return "\n".join(lines) + "\n"

    edit_file(sim, lambda t: set_cell(t, rows[i][j] / 2, False))
    w.check(ops)
    expect(any("!=" in p for p in problems(ops)), "one corrupted matrix cell fails a check")
    expect(w.digest() != digest, "a corrupted output changes the digest")

    # A symmetric edit keeps the shape valid; the tiling oracle must catch it.
    w.sample_pairs = lambda pid, n: [(i, j)]
    edit_file(sim, lambda t: set_cell(backup, rows[i][j] / 2, True))
    w.check(ops)
    expect(any("tiling gives" in p for p in problems(ops)), "a symmetric edit fails the tiling check")
    del w.sample_pairs
    edit_file(sim, lambda t: backup)

    adv = os.path.join(w.out, "adv", "advantages.jsonl")
    def bump_advantage(text):
        lines = text.splitlines()
        rec = json.loads(lines[0])
        rec["advantages"][2] += 1e-6
        lines[0] = json.dumps(rec, sort_keys=True)
        return "\n".join(lines) + "\n"
    edit_file(adv, bump_advantage)
    w.check(ops)
    expect(any("advantage[2]" in p for p in problems(ops)), "one corrupted advantage fails a check")

    rep = os.path.join(w.out, "report_b", "report.json")
    def bump_pass(text):
        report = json.loads(text)
        report["prompts"]["task-001"]["pass_at"]["10"] -= 1e-9
        return json.dumps(report)
    edit_file(rep, bump_pass)
    w.check(ops)
    expect(any("pass@10" in p for p in problems(ops)), "one corrupted pass@k fails a check")


def group_checks():
    group = gen.rl_groups(5, groups=1)[0]
    rows, adv = workloads.RlGroups.hook(group["texts"], group["correct"])
    rows, adv = rows.tolist(), adv.tolist()
    expect(not workloads.RlGroups.check_group(group, rows, adv), "checks pass on a real group")
    adv[0] -= 1e-6
    expect(workloads.RlGroups.check_group(group, rows, adv), "one corrupted group advantage fails")


def simulate_checks():
    w = workloads.Simulate()
    w.prepare(os.path.join(WORK, "simulate"), 4)
    gen.write_json(w.config, dict(gen.simulate_config(4), steps=40))
    ops = w.run_round()
    expect(ops[0].ok, "small simulate runs")
    w.check(ops)
    expect(not problems(ops), "checks pass on real simulator traces")
    trace = os.path.join(w.out, min(f for f in os.listdir(w.out) if f.startswith("trace_")))
    def bump_logit(text):
        lines = text.splitlines()
        rec = json.loads(lines[7])
        rec["logits"][0] += 1e-6
        lines[7] = json.dumps(rec, sort_keys=True)
        return "\n".join(lines) + "\n"
    edit_file(trace, bump_logit)
    w.check(ops)
    expect(any("pass@1" in p for p in problems(ops)), "one corrupted trace value fails a check")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    expect(generated_bytes(7) == generated_bytes(7), "generator is byte-identical for a fixed seed")
    expect(generated_bytes(7) != generated_bytes(8), "another seed gives other inputs")
    corpus_checks()
    group_checks()
    simulate_checks()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
