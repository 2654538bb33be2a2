"""Independent encoders of one utterance: the oracles that the package's
featurize and its one row encoder, textfeat.training_matrix, are tested
against.  extract_features counts an utterance's feature keys with Python
iterators, gram by gram, where featurize counts a whole corpus's with array
kernels; dense_row builds a training row from it.  They share only
NGRAM_SEP and q_and_profile with the package."""

from collections import Counter
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from codeswitch.switching import N_FEATURES, q_and_profile
from codeswitch.textfeat import NGRAM_SEP

_surface = attrgetter("surface")


def _feature_keys(tokens, kinds, n_values):
    """The (kind, payload) feature keys of one utterance, each occurrence,
    size by size, as extract_features describes."""
    runs = []
    if "char_ngram" in kinds:
        runs.append(("char_ngram", " ".join(map(_surface, tokens)).lower(), "".join))
    if "word_ngram" in kinds:
        runs.append(("word_ngram", [*map(str.lower, map(_surface, tokens))], NGRAM_SEP.join))
    return chain.from_iterable(
        zip(repeat(kind), map(join, zip(*[items[i:] for i in range(n)])))
        for kind, items, join in runs for n in n_values[kind] if n <= len(items))


def extract_features(tokens, kinds, n_values):
    """Multiset of (kind, payload) feature keys for one utterance, in order
    of first occurrence, char_ngram before word_ngram and size by size in
    n_values' order: char_ngram payloads are n-character runs of the
    space-joined surfaces, lowercased after joining, word_ngram ones runs of
    n lowercased surfaces joined by NGRAM_SEP.  Sizes must be >= 1; a size
    longer than the run yields no grams and is skipped."""
    return Counter(_feature_keys(tokens, kinds, n_values))


def dense_row(utterance, vocab, kinds, n_values, lexicon, negation_words, with_switching):
    """Counts of the feature keys of vocab, extracted with kinds and
    n_values, then the indicative-score sum and the negation count of the
    lowercased surfaces, then (with_switching) the nine switching features.
    The scores are added left to right from 0.0, the order the package pins;
    sum() would compensate its rounding from Python 3.12 on."""
    row = np.zeros(len(vocab) + 2 + (N_FEATURES if with_switching else 0))
    for key, count in extract_features(utterance.tokens, kinds, n_values).items():
        if key in vocab:
            row[vocab.index(key)] = count
    surfaces = [t.surface.lower() for t in utterance.tokens]
    indicative = 0.0
    for s in surfaces:
        indicative += lexicon.get(s, 0.0)
    row[len(vocab)] = indicative
    row[len(vocab) + 1] = sum(s in negation_words for s in surfaces)
    if with_switching:
        row[len(vocab) + 2:] = tuple(vars(q_and_profile(utterance.tokens)[1]).values())
    return row


def pipeline_rows(pipeline, corpus):
    """dense_row of every utterance of the corpus, with the pipeline's
    fitted vocabulary, lexicon and configuration, as an N x D array."""
    cfg = pipeline.config
    return np.array([dense_row(u, pipeline.vocab, cfg.kinds, cfg.n_values, pipeline.lexicon,
                               cfg.negation_words, cfg.with_switching) for u in corpus])
