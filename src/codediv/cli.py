"""Command-line interface for reproducible batch runs.

Subcommands:

* ``tokens``      debug-print the structural token stream of one file
* ``similarity``  per-prompt pairwise similarity matrices for a corpus
* ``report``      pass@k + redundancy diagnostics, per prompt and dataset
* ``advantages``  per-prompt advantage vectors for one training objective
* ``compare``     paired change report + bootstrap p-values of two reports
* ``simulate``    synthetic policy-gradient training traces from a config

Every file-producing command writes ``manifest.json`` (command, parameter
set, tool version, content hashes of inputs) next to its outputs; outputs
are a pure function of the manifest, so reruns are byte-identical. Output
files are written atomically.
"""

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import secrets
import sys

import numpy as np

from . import __version__, metrics, rewards, simulator, stats
from .ingest import length_stats, load_corpus, strip_comments_docstrings
from .similarity import (
    DEFAULT_MIN_MATCH,
    DEFAULT_TAU,
    GST_BACKEND,
    clusters,
    effective_clusters,
    jdiv,
    one_gram_div,
    pairwise_matrix,
)
from .tokenizer import TokenStream, format_debug, parse, tokenize


class CliError(Exception):
    """Operator-facing failure with a machine-parsable class."""

    def __init__(self, error_class, message):
        super().__init__(message)
        self.error_class = error_class


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write(path, data):
    # A temp name unique to this call, so concurrent runs into one directory
    # never share one. O_EXCL with mode 0666 keeps the umask-derived
    # permission bits of a plain open(); mkstemp would create 0600 files.
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_outputs(out_dir, command, inputs, params, files):
    """Write each ``(name, text)`` of ``files`` into ``out_dir``, then
    ``manifest.json`` (command, params, tool version, input hashes), and
    return the names written. ``files`` may be a generator: each output is
    then written as soon as it is computed. A path that cannot be written
    is an ``output`` error."""
    manifest = {
        "command": command,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in inputs.items()},
        "params": params,
        "version": __version__,
    }

    def failed(path, err):
        return CliError("output", f"cannot write {path}: {err.strerror or err}")

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise failed(out_dir, err) from err
    written = []
    # Only the writes are guarded: an error while computing an output is not
    # an output error.
    for name, text in itertools.chain(files, [("manifest.json", _json_text(manifest))]):
        path = os.path.join(out_dir, name)
        try:
            _atomic_write(path, text)
        except OSError as err:
            raise failed(path, err) from err
        written.append(name)
    return written


def _slug(prompt_id):
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in prompt_id)
    if safe == prompt_id and safe:
        return safe
    digest = hashlib.sha1(prompt_id.encode("utf-8")).hexdigest()[:8]
    return f"{safe or 'prompt'}-{digest}"


def _read_input(path, what, read, error_class="parse"):
    """``read(path)``. A file that cannot be opened or is not UTF-8 is an
    ``input`` error; any other ValueError while reading it is ``error_class``."""
    try:
        return read(path)
    except UnicodeDecodeError as err:  # a ValueError too, so caught first
        raise CliError("input", f"cannot read {what} file {path}: not UTF-8 ({err.reason})") from err
    except OSError as err:
        raise CliError("input", f"cannot read {what} file {path}: {err.strerror or err}") from err
    except ValueError as err:
        raise CliError(error_class, str(err)) from err


def _read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: {err}") from err


def _read_embeddings(path):
    with open(path, encoding="utf-8") as fh:
        return metrics.load_embeddings(fh)


def _load_corpus(path):
    return _read_input(path, "corpus", load_corpus)


def _group_streams(group):
    """Token streams for a group; absent or empty extractions become empty
    streams, so two failed extractions compare as duplicates (score 1)."""
    return [tokenize(s) if s.strip() else TokenStream([]) for s in group.sources()]


# -- tokens ------------------------------------------------------------


def cmd_tokens(args):
    stream = tokenize(_read_input(args.file, "source", _read_text))
    print(format_debug(stream))
    if stream.fallback:
        print("# fallback lexer used", file=sys.stderr)
    return 0


# -- similarity --------------------------------------------------------


def cmd_similarity(args):
    corpus = _load_corpus(args.corpus)

    def matrices():
        for group in corpus:
            matrix = pairwise_matrix(_group_streams(group), min_match=args.min_match)
            yield f"{_slug(group.prompt_id)}.simmatrix.txt", matrix.to_text()

    params = {"min_match": args.min_match, "gst_backend": GST_BACKEND}
    written = _write_outputs(args.out, "similarity", {"corpus": args.corpus}, params, matrices())
    # Matrices of an earlier run into the same directory would otherwise sit
    # beside a manifest that does not describe them.
    for name in os.listdir(args.out):
        path = os.path.join(args.out, name)
        if name.endswith(".simmatrix.txt") and name not in written and os.path.isfile(path):
            os.remove(path)
    return 0


# -- report ------------------------------------------------------------


def _streams_and_stripped(group):
    """Like _group_streams, plus each source without comments and docstrings.

    Each sample is parsed once and its tree shared by both views; it is
    dropped before the next sample is parsed, because a long module's tree
    takes megabytes.
    """
    streams, stripped = [], []
    for source in group.sources():
        tree = parse(source)
        streams.append(tokenize(source, tree) if source.strip() else TokenStream([]))
        stripped.append(strip_comments_docstrings(source, tree))
        tree = None
    return streams, stripped


def _prompt_report(group, k_list, tau, min_match, embedding_table):
    streams, stripped = _streams_and_stripped(group)
    matrix = pairwise_matrix(streams, min_match=min_match)
    outcome = {"n": group.n, "m": group.m}
    outcome["pass_at"] = {str(k): metrics.pass_at_k(group.n, group.m, k) for k in k_list}
    outcome["jdiv"] = jdiv(matrix) if group.n >= 2 else None
    outcome["one_gram_div"] = one_gram_div(stripped) if group.n >= 2 else None
    ids = clusters(matrix, tau=tau)
    outcome["clusters"] = max(ids) + 1
    outcome["eff"] = effective_clusters(ids)
    sub_matrix = metrics.correct_only_view(group, matrix)
    outcome["jdiv_correct"] = jdiv(sub_matrix) if sub_matrix.n >= 2 else None
    outcome["eff_correct"] = (
        effective_clusters(clusters(sub_matrix, tau=tau)) if sub_matrix.n >= 1 else None
    )
    if embedding_table is not None:
        try:
            emb = metrics.embeddings_for_group(embedding_table, group)
        except ValueError as err:
            raise CliError("input", str(err)) from err
        outcome["vendi"] = metrics.vendi_score(emb)
    outcome["fallback_streams"] = sum(1 for s in streams if s.fallback)
    outcome["empty_sources"] = sum(1 for s in streams if len(s) == 0)
    return group.prompt_id, outcome


_REPORT_METRICS = ("jdiv", "one_gram_div", "vendi", "eff", "jdiv_correct", "eff_correct")


def _dataset_rollup(prompt_reports, k_list):
    dataset = {"prompts": len(prompt_reports)}
    dataset["pass_at"] = {
        str(k): float(np.mean([r["pass_at"][str(k)] for r in prompt_reports.values()]))
        for k in k_list
    }
    for name in _REPORT_METRICS:
        values = [r[name] for r in prompt_reports.values() if r.get(name) is not None]
        dataset[name] = float(np.mean(values)) if values else None
        dataset[f"{name}_defined"] = len(values)
    return dataset


def _table(headers, rows):
    """Left-aligned columns two spaces apart; rows are lists of strings."""
    widths = [max([len(h)] + [len(row[i]) for row in rows]) for i, h in enumerate(headers)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in [headers] + rows]
    return "\n".join(lines) + "\n"


def _format_cell(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _report_text(report):
    k_list = report["params"]["k_list"]
    headers = ["prompt", "n", "m"] + [f"p@{k}" for k in k_list] + list(_REPORT_METRICS)
    rows = []
    for pid in sorted(report["prompts"]):
        r = report["prompts"][pid]
        row = [pid, r["n"], r["m"]]
        row += [r["pass_at"][str(k)] for k in k_list]
        row += [r.get(name) for name in _REPORT_METRICS]
        rows.append([_format_cell(v) for v in row])
    dataset = report["dataset"]
    total = ["dataset", dataset["prompts"], "-"]
    total += [dataset["pass_at"][str(k)] for k in k_list]
    total += [dataset.get(name) for name in _REPORT_METRICS]
    rows.append([_format_cell(v) for v in total])
    return _table(headers, rows)


def cmd_report(args):
    corpus = _load_corpus(args.corpus)
    if not len(corpus):
        # The dataset means would be NaN, which is not valid JSON.
        raise CliError("input", f"corpus has no samples: {args.corpus}")
    k_list = args.k
    if not k_list:
        raise CliError("param", "at least one k is required")
    max_k = max(k_list)
    for group in corpus:
        if group.n < max_k:
            raise CliError(
                "param",
                f"pass@{max_k} needs n >= {max_k}; prompt {group.prompt_id!r} has n={group.n}",
            )
    embedding_table = None
    inputs = {"corpus": args.corpus}
    if args.embeddings:
        embedding_table = _read_input(args.embeddings, "embeddings", _read_embeddings)
        inputs["embeddings"] = args.embeddings

    prompt_reports = dict(
        _prompt_report(g, k_list, args.tau, args.min_match, embedding_table) for g in corpus
    )
    report = {
        "params": {
            "k_list": list(k_list),
            "tau": args.tau,
            "min_match": args.min_match,
            "gst_backend": GST_BACKEND,
        },
        "prompts": prompt_reports,
        "dataset": _dataset_rollup(prompt_reports, k_list),
        "lengths": dataclasses.asdict(length_stats(corpus)),
    }
    files = [("report.json", _json_text(report)), ("report.txt", _report_text(report))]
    _write_outputs(args.out, "report", inputs, report["params"], files)
    return 0


# -- advantages --------------------------------------------------------


def cmd_advantages(args):
    corpus = _load_corpus(args.corpus)
    objective = args.objective
    needs_matrix = objective in rewards.MATRIX_OBJECTIVES

    def compute(group):
        outcome = rewards.GroupOutcome.from_flags(group.correct_flags())
        matrix = None
        if needs_matrix:
            matrix = pairwise_matrix(_group_streams(group), min_match=args.min_match)
        try:
            vec = rewards.advantages(
                objective,
                outcome=outcome,
                matrix=matrix,
                k=args.k,
                lambda_div=args.lambda_div,
            )
        except ValueError as err:
            raise CliError("param", f"prompt {group.prompt_id!r}: {err}") from err
        params = dict(vec.params)
        return json.dumps(
            {
                "prompt_id": group.prompt_id,
                "objective": vec.objective,
                "params": params,
                "advantages": [float(a) for a in vec.a],
            },
            sort_keys=True,
        )

    text = "".join(compute(group) + "\n" for group in corpus)
    params = {"objective": objective, "k": args.k, "lambda_div": args.lambda_div, "min_match": args.min_match}
    _write_outputs(args.out, "advantages", {"corpus": args.corpus}, params, [("advantages.jsonl", text)])
    return 0


# -- compare -----------------------------------------------------------


def _load_report(path):
    """A report's metric values as ``{prompt_id: {label: number}}``, labels
    ``pass@<k>`` for each k in ``params.k_list`` and ``_REPORT_METRICS``.
    Absent and null values are left out; any other value that is not a
    number is a ``parse`` error, as is a file not shaped like a report."""
    report = _read_input(path, "report", _read_json)
    prompts = report.get("prompts") if isinstance(report, dict) else None
    params = report.get("params") if isinstance(report, dict) else None
    if not isinstance(prompts, dict) or not all(isinstance(r, dict) for r in prompts.values()):
        raise CliError("parse", f"{path}: not a report file ('prompts' must be an object of objects)")
    if not isinstance(params, dict) or not isinstance(params.get("k_list"), list):
        raise CliError("parse", f"{path}: not a report file ('params.k_list' must be a list)")
    table = {}
    for pid, record in prompts.items():
        pass_at = {} if record.get("pass_at") is None else record["pass_at"]
        if not isinstance(pass_at, dict):
            raise CliError("parse", f"{path}: prompt {pid!r}: pass_at must be an object or null, got {pass_at!r}")
        values = {f"pass@{k}": pass_at.get(str(k)) for k in params["k_list"]}
        values.update((name, record.get(name)) for name in _REPORT_METRICS)
        table[pid] = {label: value for label, value in values.items() if value is not None}
        for label, value in table[pid].items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CliError("parse", f"{path}: prompt {pid!r}: {label} must be a number or null, got {value!r}")
    return table


def cmd_compare(args):
    values_a = _load_report(args.report_a)
    values_b = _load_report(args.report_b)
    if values_a.keys() != values_b.keys():
        missing_b = sorted(values_a.keys() - values_b.keys())
        missing_a = sorted(values_b.keys() - values_a.keys())
        raise CliError(
            "input",
            f"prompt sets differ; missing from B: {missing_b}; missing from A: {missing_a}",
        )
    prompt_ids = sorted(values_a)
    comparison = {}
    for label in sorted({label for values in values_a.values() for label in values}):
        shared = [pid for pid in prompt_ids if label in values_a[pid] and label in values_b[pid]]
        if len(shared) < 2:
            continue
        a_vals = np.array([values_a[pid][label] for pid in shared])
        b_vals = np.array([values_b[pid][label] for pid in shared])
        change = stats.aggregate_changes(a_vals, b_vals)
        p_value = stats.paired_bootstrap(a_vals, b_vals, resamples=args.resamples, seed=args.seed)
        comparison[label] = {**dataclasses.asdict(change), "p_value": p_value}
    result = {
        "params": {"resamples": args.resamples, "seed": args.seed},
        "prompts": len(prompt_ids),
        "metrics": comparison,
    }
    headers = ["metric", "up%", "down%", "delta", "p"]
    rows = [
        [
            label,
            f"{c['up_pct']:.1f}",
            f"{c['down_pct']:.1f}",
            f"{c['mean_delta']:.4f}",
            f"{c['p_value']:.4f}",
        ]
        for label, c in sorted(comparison.items())
    ]
    inputs = {"report_a": args.report_a, "report_b": args.report_b}
    files = [("comparison.json", _json_text(result)), ("comparison.txt", _table(headers, rows))]
    _write_outputs(args.out, "compare", inputs, result["params"], files)
    return 0


# -- simulate ----------------------------------------------------------


def cmd_simulate(args):
    raw = _read_input(args.config, "config", _read_json, error_class="config")
    try:
        config = simulator.SimulationConfig.from_dict(raw)
    except ValueError as err:
        raise CliError("config", str(err)) from err

    def traces():
        for index, (name, step_params) in enumerate(config.objectives):
            for seed in config.seeds:
                trace = simulator.run(
                    config.world,
                    name,
                    steps=config.steps,
                    seed=seed,
                    params=step_params,
                    init_correct_bonus=config.init_correct_bonus,
                    temperature=config.temperature,
                    k_list=config.k_list,
                )
                lines = trace.to_jsonl_lines()
                yield f"trace_{index:02d}_{name}_s{seed}.jsonl", "".join(line + "\n" for line in lines)

    params = {"objectives": [name for name, _ in config.objectives], "seeds": config.seeds, "steps": config.steps}
    _write_outputs(args.out, "simulate", {"config": args.config}, params, traces())
    return 0


# -- parser ------------------------------------------------------------


def _int_at_least(minimum):
    """argparse type for an integer option with a floor."""

    def parse(text):
        try:
            value = int(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") from err
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _float(text):
    try:
        return float(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from err


def _unit_float(text):
    value = _float(text)
    if not 0.0 <= value <= 1.0:  # NaN fails the comparison too
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _non_negative_float(text):
    value = _float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _k_list(text):
    values = [_positive_int(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="codediv",
        description="Redundancy diagnostics and RL advantages for multi-sample code generation",
    )
    parser.add_argument("--version", action="version", version=f"codediv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tokens = sub.add_parser("tokens", help="debug-print structural tokens of a Python file")
    p_tokens.add_argument("file")
    p_tokens.set_defaults(func=cmd_tokens)

    p_sim = sub.add_parser("similarity", help="write per-prompt similarity matrices")
    p_sim.add_argument("--corpus", required=True)
    p_sim.add_argument("--min-match", type=_positive_int, default=DEFAULT_MIN_MATCH, dest="min_match")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_similarity)

    p_rep = sub.add_parser("report", help="pass@k and redundancy report")
    p_rep.add_argument("--corpus", required=True)
    p_rep.add_argument("--embeddings", default=None)
    p_rep.add_argument("--k", type=_k_list, default=[1, 10])
    p_rep.add_argument("--tau", type=_unit_float, default=DEFAULT_TAU)
    p_rep.add_argument("--min-match", type=_positive_int, default=DEFAULT_MIN_MATCH, dest="min_match")
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)

    p_adv = sub.add_parser("advantages", help="per-prompt advantage vectors")
    p_adv.add_argument("--corpus", required=True)
    p_adv.add_argument(
        "--objective",
        required=True,
        choices=sorted(rewards.OBJECTIVES),
    )
    p_adv.add_argument("--k", type=_positive_int, default=None)
    p_adv.add_argument("--lambda-div", type=_non_negative_float, default=1.0, dest="lambda_div")
    p_adv.add_argument("--min-match", type=_positive_int, default=DEFAULT_MIN_MATCH, dest="min_match")
    p_adv.add_argument("--out", required=True)
    p_adv.set_defaults(func=cmd_advantages)

    p_cmp = sub.add_parser("compare", help="paired comparison of two reports")
    p_cmp.add_argument("--report-a", required=True, dest="report_a")
    p_cmp.add_argument("--report-b", required=True, dest="report_b")
    p_cmp.add_argument(
        "--resamples", type=_int_at_least(stats.MIN_RESAMPLES), default=stats.DEFAULT_RESAMPLES
    )
    p_cmp.add_argument("--seed", type=_int_at_least(0), default=0)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_simulate = sub.add_parser("simulate", help="run the synthetic training simulator")
    p_simulate.add_argument("--config", required=True)
    p_simulate.add_argument("--out", required=True)
    p_simulate.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # every failure ends in one line, not a traceback
        if isinstance(err, CliError):
            error_class = err.error_class
        elif isinstance(err, (ValueError, OSError)):
            error_class = "internal"
        else:
            error_class = f"internal: {type(err).__name__}"
        message = " ".join(str(err).split())
        print(f"error: {error_class}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
