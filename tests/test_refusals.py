"""Refusals of the library and of one CLI option, each pinned to its message."""

import numpy as np
import pytest

from codediv import stats
from codediv.cli import main
from codediv.metrics import load_embeddings
from codediv.similarity import SimMatrix, clusters, effective_clusters, one_gram_matrix, pairwise_matrix

NESTED_VECTOR = '{"prompt_id": "p", "sample_id": 0, "vector": [[1.0, 2.0]]}'
STRING_VECTOR = '{"prompt_id": "p", "sample_id": 0, "vector": ["1", " 3 "]}'
ADVANTAGES = ["advantages", "--corpus", "c.jsonl", "--objective", "combined", "--out", "out"]

REFUSALS = {
    "non_square_matrix": (lambda: SimMatrix(np.zeros((2, 3))), "similarity matrix must be square"),
    "empty_group": (lambda: pairwise_matrix([]), "pairwise_matrix needs at least one stream"),
    "tau_above_one": (lambda: clusters(SimMatrix(np.eye(2)), tau=1.5), "tau must be in [0, 1]"),
    "no_cluster_ids": (lambda: effective_clusters(()), "effective_clusters needs at least one sample"),
    "no_sources": (lambda: one_gram_matrix([]), "one_gram_matrix needs at least one source"),
    "no_changes": (lambda: stats.aggregate_changes([], []), "aggregate_changes needs at least one pair"),
    "nested_vector": (lambda: load_embeddings([NESTED_VECTOR]), "embeddings line 1: vector must be flat"),
    "string_in_vector": (
        lambda: load_embeddings([STRING_VECTOR]),
        "embeddings line 1: vector must be a list of numbers, got '1'",
    ),
    # Refused while the command line is parsed, before any file is opened.
    "lambda_div_not_a_number": (
        lambda: main([*ADVANTAGES, "--lambda-div", "x"]),
        "codediv advantages: error: argument --lambda-div: bad number 'x'",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_message(name, capsys):
    call, message = REFUSALS[name]
    with pytest.raises((ValueError, SystemExit)) as info:
        call()
    if info.type is SystemExit:  # a usage error: argparse prints the message and exits 2
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == message
    else:
        assert str(info.value) == message
