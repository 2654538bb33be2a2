"""An independent dense encoder of one utterance: the oracle that the
package's one row encoder, textfeat.training_matrix, is tested against.
It shares only extract_features and switching_features with the package."""

import numpy as np

from codeswitch.switching import N_FEATURES, switching_features
from codeswitch.textfeat import extract_features


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
        row[len(vocab) + 2:] = switching_features(utterance.tokens).as_tuple()
    return row


def pipeline_rows(pipeline, corpus):
    """dense_row of every utterance of the corpus, with the pipeline's
    fitted vocabulary, lexicon and configuration, as an N x D array."""
    cfg = pipeline.config
    return np.array([dense_row(u, pipeline.vocab, cfg.kinds, cfg.n_values, pipeline.lexicon,
                               cfg.negation_words, cfg.with_switching) for u in corpus])
