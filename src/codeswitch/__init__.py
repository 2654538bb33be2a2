"""Toolkit for analysing and classifying language-tagged code-mixed text.

Provides corpus ingestion for word-level language-tagged utterances,
tweet-style preprocessing, switching-pattern features, label/switching
correlation statistics, sparse n-gram text features with chi-squared
selection, and a from-scratch logistic classifier with cross-validation.
"""

from codeswitch.corpus import (
    CorpusFormatError,
    LabeledCorpus,
    LabeledUtterance,
    Token,
    load_corpus,
    parse_tagged_line,
    serialize_tagged_line,
)
from codeswitch.switching import (
    SwitchProfile,
    SwitchVectors,
    has_embedding_property,
    lang_run_vectors,
    switch_counts,
    switching_features,
)

__all__ = [
    "CorpusFormatError",
    "LabeledCorpus",
    "LabeledUtterance",
    "Token",
    "load_corpus",
    "parse_tagged_line",
    "serialize_tagged_line",
    "SwitchProfile",
    "SwitchVectors",
    "has_embedding_property",
    "lang_run_vectors",
    "switch_counts",
    "switching_features",
]

__version__ = "0.1.0"
