"""In-memory span and counter recorder for the traced benchmark run.

``Recorder.install`` replaces each traced function at the name its caller
looks it up by (``codediv.cli.pairwise_matrix``, ``codediv.similarity.
gst_match``, ...) with a wrapper that records a span and updates counters;
``uninstall`` puts the originals back. Nothing inside codediv changes.

A span is ``[name, start, end, parent]``; its self time is its duration
minus the durations of its direct children, so the self times of a span's
subtree add up to the span itself.
"""

import json
import time
from collections import Counter, defaultdict

# codediv.similarity sends longer streams to its hashed matcher. Fixed here,
# not imported, so the counter keeps its meaning if that constant goes.
EXACT_MATCH_LIMIT = 10_000


def _count_records(c, args, result):
    c["ingest.records"] += sum(g.n for g in result)


def _count_extract(c, args, result):
    if result is None or not result.strip():
        c["ingest.empty_extractions"] += 1


def _count_tokens(c, args, result):
    c["tokenizer.calls"] += 1
    c["tokenizer.tokens"] += len(result)
    c["tokenizer.fallback_streams"] += int(result.fallback)


def _count_pairs(c, args, result):
    lengths = [len(s) for s in args[0]]
    for i, la in enumerate(lengths):
        for lb in lengths[i + 1 :]:
            c["similarity.pairs"] += 1
            c["similarity.cells"] += la * lb
            c["similarity.long_pairs"] += int(max(la, lb) > EXACT_MATCH_LIMIT)


def _count_tiles(c, args, result):
    c["similarity.tiles"] += len(result.tiles)
    c["similarity.matched_tokens"] += result.matched_tokens


def _count_one_gram(c, args, result):
    n = len(args[0])
    c["similarity.one_gram_pairs"] += n * (n - 1) // 2


def _count_call(key):
    def count(c, args, result):
        c[key] += 1
    return count


def _count_bytes(c, args, result):
    data = args[1]
    c["cli.bytes_written"] += len(data if isinstance(data, bytes) else data.encode("utf-8"))


def targets():
    """(module, attribute, span name or None for counter only, counter)."""
    from codediv import cli, ingest, metrics, rewards, similarity, simulator, stats, tokenizer

    return [
        (cli, "main", "cli.main", None),
        (cli, "cmd_similarity", "cli.similarity", None),
        (cli, "cmd_report", "cli.report", None),
        (cli, "cmd_advantages", "cli.advantages", None),
        (cli, "cmd_compare", "cli.compare", None),
        (cli, "cmd_simulate", "cli.simulate", None),
        (cli, "_atomic_write", None, _count_bytes),
        (cli, "load_corpus", "ingest.load_corpus", _count_records),
        (ingest, "extract_code", "ingest.extract_code", _count_extract),
        (cli, "strip_comments_docstrings", "ingest.strip_comments_docstrings", None),
        (cli, "length_stats", "ingest.length_stats", None),
        (cli, "tokenize", "tokenizer.tokenize", _count_tokens),
        (tokenizer, "tokenize", "tokenizer.tokenize", _count_tokens),
        (cli, "pairwise_matrix", "similarity.pairwise_matrix", _count_pairs),
        (similarity, "pairwise_matrix", "similarity.pairwise_matrix", _count_pairs),
        (similarity, "gst_match", "similarity.gst_match", _count_tiles),
        (cli, "one_gram_div", "similarity.one_gram_div", _count_one_gram),
        (cli, "clusters", "similarity.clusters", None),
        (cli, "effective_clusters", "similarity.clusters", None),
        (cli, "jdiv", "similarity.jdiv", None),
        (metrics, "pass_at_k", "metrics.pass_at_k", None),
        (metrics, "correct_only_view", "metrics.correct_only_view", None),
        (metrics, "vendi_score", "metrics.vendi_score", None),
        (metrics, "load_embeddings", "metrics.embeddings", None),
        (metrics, "embeddings_for_group", "metrics.embeddings", None),
        (rewards, "advantages", "rewards.advantages", _count_call("rewards.calls")),
        (stats, "paired_bootstrap", "stats.paired_bootstrap", None),
        (stats, "aggregate_changes", "stats.aggregate_changes", None),
        (simulator, "run", "simulator.run", None),
        (simulator, "step", "simulator.step", _count_call("simulator.steps")),
    ]


# Per-layer metric -> (how, span names). "self" sums self time, "total"
# sums whole spans; counters are read from Recorder.counts.
#
# Which round time each layer should move (round_ms_* of the workload):
#   ingest      corpus-report, where every command reloads the corpus
#   tokenizer   rl-groups most, then corpus-report and hostile
#   similarity  GST: corpus-report, rl-groups, hostile (and peak_rss_mb
#               there); the 1-gram metric: corpus-report only; never simulate
#   metrics, stats, cli   corpus-report
#   rewards     rl-groups and corpus-report
#   simulator   simulate only
TIME_METRICS = {
    "ingest.load_corpus_s": ("self", ["ingest.load_corpus"]),
    "ingest.extract_code_s": ("self", ["ingest.extract_code"]),
    "ingest.strip_comments_docstrings_s": ("self", ["ingest.strip_comments_docstrings"]),
    "ingest.length_stats_s": ("self", ["ingest.length_stats"]),
    "tokenizer.tokenize_s": ("self", ["tokenizer.tokenize"]),
    "similarity.pairwise_matrix_s": ("self", ["similarity.pairwise_matrix"]),
    "similarity.gst_match_s": ("self", ["similarity.gst_match"]),
    "similarity.one_gram_div_s": ("self", ["similarity.one_gram_div"]),
    "similarity.clusters_s": ("self", ["similarity.clusters"]),
    "similarity.jdiv_s": ("self", ["similarity.jdiv"]),
    "metrics.pass_at_k_s": ("self", ["metrics.pass_at_k"]),
    "metrics.correct_only_view_s": ("self", ["metrics.correct_only_view"]),
    "metrics.vendi_score_s": ("self", ["metrics.vendi_score"]),
    "metrics.embeddings_s": ("self", ["metrics.embeddings"]),
    "rewards.advantages_s": ("self", ["rewards.advantages"]),
    "stats.paired_bootstrap_s": ("self", ["stats.paired_bootstrap"]),
    "stats.aggregate_changes_s": ("self", ["stats.aggregate_changes"]),
    "simulator.run_s": ("total", ["simulator.run"]),
    "simulator.step_s": ("self", ["simulator.step"]),
    "simulator.eval_s": ("self", ["simulator.run"]),
    "cli.similarity_s": ("total", ["cli.similarity"]),
    "cli.report_s": ("total", ["cli.report"]),
    "cli.advantages_s": ("total", ["cli.advantages"]),
    "cli.compare_s": ("total", ["cli.compare"]),
    "cli.simulate_s": ("total", ["cli.simulate"]),
    "cli.self_s": ("self", ["cli.main", "cli.similarity", "cli.report", "cli.advantages",
                            "cli.compare", "cli.simulate"]),
}
COUNT_METRICS = (
    "ingest.records", "ingest.empty_extractions", "tokenizer.calls", "tokenizer.tokens",
    "tokenizer.fallback_streams", "similarity.pairs", "similarity.tiles",
    "similarity.matched_tokens", "similarity.cells", "similarity.long_pairs",
    "similarity.one_gram_pairs", "rewards.calls", "simulator.steps", "cli.bytes_written",
)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._saved = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, args, result)
                return result
            return counted

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target; returns the ones the program no longer has."""
        missing = []
        for module, attr, name, count in targets():
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))
        return missing

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self):
        """Self time of every span, in span order."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def subtree_sums(self, root_name):
        """(span duration, sum of self times in its subtree) per root span."""
        selfs = self.self_times()
        roots = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            p = i
            while p >= 0 and self.spans[p][0] != root_name:
                p = self.spans[p][3]
            if p >= 0:
                roots.setdefault(p, 0.0)
                roots[p] += selfs[i]
        return [(self.spans[p][2] - self.spans[p][1], total) for p, total in roots.items()]

    def layer_metrics(self, rounds):
        """Per-layer values per traced pass (``rounds`` passes were traced)."""
        selfs = self.self_times()
        by_self, by_total = defaultdict(float), defaultdict(float)
        for (name, start, end, _), s in zip(self.spans, selfs):
            by_self[name] += s
            by_total[name] += end - start
        out = {}
        for metric, (how, names) in TIME_METRICS.items():
            table = by_self if how == "self" else by_total
            out[metric] = sum(table[n] for n in names) / rounds
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric] / rounds
        tok_s = out["tokenizer.tokenize_s"]
        out["tokenizer.tokens_per_s"] = out["tokenizer.tokens"] / tok_s if tok_s else 0.0
        gst_s = out["similarity.pairwise_matrix_s"] + out["similarity.gst_match_s"]
        out["similarity.pairs_per_s"] = out["similarity.pairs"] / gst_s if gst_s else 0.0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
