"""Redundancy diagnostics and RL advantages for multi-sample code generation."""

__version__ = "0.1.0"

from .tokenizer import TokenStream, tokenize
from .similarity import (
    GST_BACKEND,
    MatchSet,
    SimMatrix,
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
    "clusters",
    "effective_clusters",
    "gst_match",
    "jdiv",
    "one_gram_div",
    "pairwise_matrix",
    "tokenize",
    "__version__",
]
