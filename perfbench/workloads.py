"""The four benchmark workloads.

A workload generates its inputs once (``prepare``), then runs *rounds*, a
closed loop with one client: the analyst pipeline (corpus-report), one
trainer group (rl-groups), one pass over the hostile cases, or one
``codediv simulate`` command. ``run_round`` returns one ``Op`` per unit of
work inside it: a CLI command, a group, a hostile case. ``check`` verifies
a round's outputs against ground truth, and each round's output digest
must equal the first round's. A *pass* is ``rounds_per_pass`` rounds that
cover every generated input once.
"""

import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field

import checks
import gen

from codediv import cli, ingest, rewards, similarity, tokenizer

MIN_MATCH = 5  # codediv's default --min-match
LAMBDA_DIV = 2.0


@dataclass
class Op:
    name: str
    start: float  # time.perf_counter() at the call and at its return
    end: float
    ok: bool
    error: str = ""
    digest: str = ""
    problems: list = field(default_factory=list)


def _error(err):
    return f"{type(err).__name__}: {str(err)[:120]}"


def run_cli(name, argv):
    """One ``codediv`` command in-process; any exception or exit != 0 fails."""
    start = time.perf_counter()
    try:
        code = cli.main(argv)
        error = "" if code == 0 else f"exit {code}"
    except Exception as err:  # the op failed; the benchmark keeps running
        error = _error(err)
    return Op(name, start, time.perf_counter(), not error, error)


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class CorpusReport:
    """The analyst's batch job over a before (A) and after (B) corpus."""

    name = "corpus-report"
    rounds_per_pass = 1
    PROMPTS = 2
    N = 32
    FAMILIES_A, FAMILIES_B = 3, 6
    STATEMENTS = (8, 16)  # about 100-150 structural tokens a program

    def prepare(self, work, seed):
        self.work = work
        inp = _fresh(os.path.join(work, "in"))
        self.a = os.path.join(inp, "corpus_a.jsonl")
        self.b = os.path.join(inp, "corpus_b.jsonl")
        self.emb = os.path.join(inp, "emb_a.jsonl")
        recs_a, self.truth_a = gen.corpus(
            seed, self.PROMPTS, self.N, self.FAMILIES_A, self.STATEMENTS, "A")
        recs_b, self.truth_b = gen.corpus(
            seed, self.PROMPTS, self.N, self.FAMILIES_B, self.STATEMENTS, "B")
        gen.write_jsonl(self.a, recs_a)
        gen.write_jsonl(self.b, recs_b)
        gen.write_jsonl(self.emb, gen.embeddings(seed, recs_a))
        self.correct_a = {}
        for r in recs_a:
            self.correct_a.setdefault(r["prompt_id"], []).append(r["correct"])
        self.seed = seed

    def run_round(self):
        out = _fresh(os.path.join(self.work, "out"))
        self.out = out
        sim, rep_a, rep_b, cmp_, adv = (
            os.path.join(out, d) for d in ("sim", "report_a", "report_b", "compare", "adv")
        )
        return [
            run_cli("similarity", ["similarity", "--corpus", self.a, "--out", sim]),
            run_cli("report", ["report", "--corpus", self.a, "--embeddings", self.emb,
                               "--k", "1,10", "--out", rep_a]),
            run_cli("report_b", ["report", "--corpus", self.b, "--k", "1,10", "--out", rep_b]),
            run_cli("compare", ["compare", "--report-a", os.path.join(rep_a, "report.json"),
                                "--report-b", os.path.join(rep_b, "report.json"), "--out", cmp_]),
            run_cli("advantages", ["advantages", "--corpus", self.a, "--objective", "combined",
                                   "--lambda-div", str(LAMBDA_DIV), "--out", adv]),
        ]

    def sample_pairs(self, pid, n):
        """The pairs whose scores the tiling oracle recomputes."""
        rng = random.Random(f"pairs:{self.seed}:{pid}")
        return [tuple(sorted(rng.sample(range(n), 2))) for _ in range(4)]

    def check(self, ops):
        ok = {op.name for op in ops if op.ok}
        problems = {op.name: [] for op in ops}
        out = self.out
        matrices = {}
        if "similarity" in ok:
            bad = problems["similarity"]
            with open(os.path.join(out, "sim", "manifest.json"), encoding="utf-8") as fh:
                json.load(fh)
            records = {}
            with open(self.a, encoding="utf-8") as fh:
                for line in fh:
                    r = json.loads(line)
                    records.setdefault(r["prompt_id"], []).append(r["text"])
            for pid, truth in sorted(self.truth_a.items()):
                rows = checks.read_matrix(os.path.join(out, "sim", f"{pid}.simmatrix.txt"))
                matrices[pid] = rows
                bad += checks.matrix_shape(rows, pid)
                bad += checks.renames_exact(rows, truth["renames"], pid)
                pairs = self.sample_pairs(pid, truth["n"])
                streams = [tokenizer.tokenize(ingest.extract_code(t)).ids.tolist()
                           for t in records[pid]]
                bad += checks.tiling_agrees(rows, streams, pairs, MIN_MATCH, pid)
        reports = {}
        for name, sub, truth in (("report", "report_a", self.truth_a),
                                 ("report_b", "report_b", self.truth_b)):
            if name in ok:
                with open(os.path.join(out, sub, "report.json"), encoding="utf-8") as fh:
                    reports[name] = json.load(fh)
                problems[name] += checks.report_prompts(reports[name], truth, sub)
                for pid, r in reports[name]["prompts"].items():
                    vendi = r.get("vendi")
                    if vendi is not None and not 1.0 - 1e-9 <= vendi <= r["n"] + 1e-9:
                        problems[name].append(f"{sub}: {pid} vendi {vendi!r} outside [1, n]")
        if "report" in reports and matrices:
            for pid, rows in matrices.items():
                problems["report"] += checks.jdiv_matches(
                    reports["report"]["prompts"][pid]["jdiv"], rows, pid)
        if "compare" in ok and len(reports) == 2:
            with open(os.path.join(out, "compare", "comparison.json"), encoding="utf-8") as fh:
                cmp_ = json.load(fh)
            pa, pb = reports["report"]["prompts"], reports["report_b"]["prompts"]
            deltas = [pb[p]["pass_at"]["1"] - pa[p]["pass_at"]["1"] for p in sorted(pa)]
            got = cmp_["metrics"]["pass@1"]["mean_delta"]
            if abs(got - sum(deltas) / len(deltas)) > checks.PASS_TOL:
                problems["compare"].append(f"compare: pass@1 mean_delta {got!r}")
        if "advantages" in ok and matrices:
            with open(os.path.join(out, "adv", "advantages.jsonl"), encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    pid = rec["prompt_id"]
                    problems["advantages"] += checks.advantages_match(
                        rec["advantages"], matrices[pid], self.correct_a[pid], LAMBDA_DIV, pid)
        for op in ops:
            op.problems = problems[op.name]

    def digest(self):
        return checks.digest_dir(self.out)


class RlGroups:
    """A trainer's reward hook: raw completions of one group to advantages."""

    name = "rl-groups"

    def prepare(self, work, seed):
        self.groups = gen.rl_groups(seed)
        self.next = 0
        self.checked = set()

    @staticmethod
    def hook(texts, correct):
        streams = []
        for text in texts:
            source = ingest.extract_code(text)
            if source is None or not source.strip():
                streams.append(tokenizer.TokenStream([]))
            else:
                streams.append(tokenizer.tokenize(source))
        matrix = similarity.pairwise_matrix(streams, min_match=MIN_MATCH)
        outcome = rewards.GroupOutcome.from_flags(correct)
        vec = rewards.advantages("combined", outcome=outcome, matrix=matrix, lambda_div=LAMBDA_DIV)
        return matrix.scores, vec.a

    def run_group(self):
        """The next group, cycling; each group's output is its digest."""
        g = self.next % len(self.groups)
        self.next += 1
        group = self.groups[g]
        start = time.perf_counter()
        try:
            scores, adv = self.hook(group["texts"], group["correct"])
            op = Op(f"group-{g}", start, time.perf_counter(), True)
        except Exception as err:  # the op failed; the benchmark keeps running
            return Op(f"group-{g}", start, time.perf_counter(), False, _error(err))
        rows = scores.tolist()
        op.digest = json.dumps([rows, adv.tolist()])
        if g not in self.checked:
            self.checked.add(g)
            op.problems = self.check_group(group, rows, adv.tolist())
        return op

    @staticmethod
    def check_group(group, rows, adv):
        truth = group["truth"]
        bad = checks.matrix_shape(rows, "group")
        bad += checks.renames_exact(rows, truth["renames"], "group")
        bad += checks.advantages_match(adv, rows, group["correct"], LAMBDA_DIV, "group")
        return bad

    def run_round(self):
        return [self.run_group()]

    @property
    def rounds_per_pass(self):
        return len(self.groups)

    def check(self, ops):
        """Groups are checked in ``run_group`` the first time each one runs."""

    def digest(self):
        return None


class Hostile:
    """Worst-case corpora, one ``codediv report`` op per case."""

    name = "hostile"
    rounds_per_pass = 1

    def prepare(self, work, seed):
        self.work = work
        self.cases = gen.hostile(seed)
        inp = _fresh(os.path.join(work, "in"))
        for case in self.cases:
            case["path"] = os.path.join(inp, f"{case['name']}.jsonl")
            gen.write_jsonl(case["path"], case["records"])

    def run_round(self):
        self.out = _fresh(os.path.join(self.work, "out"))
        return [
            run_cli(c["name"], ["report", "--corpus", c["path"], "--k", "1",
                                "--out", os.path.join(self.out, c["name"])])
            for c in self.cases
        ]

    def check(self, ops):
        for case, op in zip(self.cases, ops):
            if not op.ok:
                continue
            expect = case["expect"]
            with open(os.path.join(self.out, case["name"], "report.json"), encoding="utf-8") as fh:
                r = json.load(fh)["prompts"][case["name"]]
            bad = []
            n = len(case["records"])
            m = sum(rec["correct"] for rec in case["records"])
            if (r["n"], r["m"]) != (n, m):
                bad.append(f"{case['name']}: n,m = {r['n']},{r['m']} want {n},{m}")
            if r["jdiv"] is not None and not 0.0 <= r["jdiv"] <= 1.0:
                bad.append(f"{case['name']}: jdiv {r['jdiv']!r} outside [0, 1]")
            if "jdiv" in expect and r["jdiv"] != expect["jdiv"]:
                bad.append(f"{case['name']}: jdiv {r['jdiv']!r} want {expect['jdiv']!r}")
            if r["fallback_streams"] != expect.get("fallback", 0):
                bad.append(f"{case['name']}: {r['fallback_streams']} fallback streams")
            if r["empty_sources"] != expect.get("empty", 0):
                bad.append(f"{case['name']}: {r['empty_sources']} empty sources")
            if "min_tokens" in expect:
                longest = max(len(tokenizer.tokenize(ingest.extract_code(rec["text"])))
                              for rec in case["records"])
                if longest < expect["min_tokens"]:
                    bad.append(f"{case['name']}: longest stream {longest} tokens")
            op.problems = bad

    def digest(self):
        return checks.digest_dir(self.out)


class Simulate:
    """``codediv simulate``: three objectives x two seeds x 400 steps."""

    name = "simulate"
    rounds_per_pass = 1

    def prepare(self, work, seed):
        self.work = work
        inp = _fresh(os.path.join(work, "in"))
        self.config = os.path.join(inp, "simulate.json")
        gen.write_json(self.config, gen.simulate_config(seed))

    def run_round(self):
        self.out = _fresh(os.path.join(self.work, "out"))
        return [run_cli("simulate", ["simulate", "--config", self.config, "--out", self.out])]

    def check(self, ops):
        op = ops[0]
        if not op.ok:
            return
        with open(self.config, encoding="utf-8") as fh:
            config = json.load(fh)
        correct, sim = checks.default_world()
        problems = []
        traces = sorted(f for f in os.listdir(self.out) if f.startswith("trace_"))
        want = len(config["objectives"]) * len(config["seeds"])
        if len(traces) != want:
            problems.append(f"simulate: {len(traces)} traces, want {want}")
        for name in traces:
            with open(os.path.join(self.out, name), encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if len(lines) != config["steps"] + 1:
                problems.append(f"{name}: {len(lines)} records, want {config['steps'] + 1}")
            problems += checks.trace_records(lines, name, correct, sim)
        op.problems = problems

    def digest(self):
        return checks.digest_dir(self.out)


WORKLOADS = {w.name: w for w in (CorpusReport, RlGroups, Hostile, Simulate)}
