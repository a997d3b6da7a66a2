"""Redundancy diagnostics and RL advantages for multi-sample code generation."""

__version__ = "0.1.0"

from .tokenizer import TokenStream, token_vocabulary, tokenize
from .similarity import (
    GST_BACKEND,
    MatchSet,
    SimMatrix,
    avg_similarity,
    clusters,
    effective_clusters,
    gst_match,
    jdiv,
    one_gram_div,
    pairwise_matrix,
)

__all__ = [
    "GST_BACKEND",
    "MatchSet",
    "SimMatrix",
    "TokenStream",
    "avg_similarity",
    "clusters",
    "effective_clusters",
    "gst_match",
    "jdiv",
    "one_gram_div",
    "pairwise_matrix",
    "token_vocabulary",
    "tokenize",
    "__version__",
]
