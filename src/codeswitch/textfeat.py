"""Baseline text features: n-grams, bag-of-words, chi-squared selection,
indicative-token lexicons and negation counts, plus sparse vectorization
with optional switching-feature concatenation.

Feature keys are (kind, payload) pairs with kind in {char_ngram,
word_ngram, bow}.  Vocabulary indices are dense and deterministic:
sorted by kind (char_ngram, word_ngram, bow) then payload.  Vectors carry
two extra "special" dimensions (indicative-score sum, negation count)
after the vocabulary block, and, when requested, the nine switching
features after those.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from codeswitch.corpus import LabeledCorpus, LabeledUtterance, POSITIVE, Token
from codeswitch.switching import N_FEATURES, switching_features

NGRAM_SEP = "§"  # reserved word-ngram joiner; never appears in surfaces

KIND_ORDER = ("char_ngram", "word_ngram", "bow")

FeatureKey = tuple[str, str]

DEFAULT_N_VALUES: dict[str, tuple[int, ...]] = {
    "char_ngram": (3,),
    "word_ngram": (1, 2),
}

# Negation cues for English plus romanized Hindi; users may supply their
# own list file instead.
DEFAULT_NEGATION_WORDS = frozenset({
    "no", "not", "never", "none", "nobody", "nothing", "nowhere",
    "neither", "nor", "cannot", "can't", "won't", "don't", "doesn't",
    "didn't", "isn't", "aren't", "wasn't", "weren't", "without",
    "nahi", "nahin", "nhi", "na", "mat", "bina", "kabhi",
})


def char_ngrams(text: str, n: int) -> Counter:
    """Character n-grams of the lowercased text; empty when len(text) < n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    text = text.lower()
    return Counter(text[i:i + n] for i in range(len(text) - n + 1))


def word_ngrams(tokens: Sequence[Token], n: int) -> Counter:
    """Token-surface n-grams joined by the reserved separator."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    surfaces = [t.surface.lower() for t in tokens]
    return Counter(NGRAM_SEP.join(surfaces[i:i + n])
                   for i in range(len(surfaces) - n + 1))


def extract_features(tokens: Sequence[Token], kinds: frozenset[str],
                     n_values: Mapping[str, tuple[int, ...]]) -> Counter:
    """Multiset of (kind, payload) feature keys for one utterance."""
    feats: Counter = Counter()
    if "char_ngram" in kinds:
        text = " ".join(t.surface for t in tokens)
        for n in n_values.get("char_ngram", DEFAULT_N_VALUES["char_ngram"]):
            for gram, c in char_ngrams(text, n).items():
                feats[("char_ngram", gram)] += c
    if "word_ngram" in kinds:
        for n in n_values.get("word_ngram", DEFAULT_N_VALUES["word_ngram"]):
            for gram, c in word_ngrams(tokens, n).items():
                feats[("word_ngram", gram)] += c
    if "bow" in kinds:
        for t in tokens:
            feats[("bow", t.surface.lower())] += 1
    return feats


def _feature_sort_key(key: FeatureKey) -> tuple[int, str]:
    return (KIND_ORDER.index(key[0]), key[1])


@dataclass(frozen=True)
class Vocabulary:
    """Dense, deterministic feature index over (kind, payload) keys."""

    features: tuple[FeatureKey, ...]
    kinds: frozenset[str]
    n_values: Mapping[str, tuple[int, ...]]

    @cached_property
    def feature_id_map(self) -> dict[FeatureKey, int]:
        return {key: i for i, key in enumerate(self.features)}

    def __len__(self) -> int:
        return len(self.features)

    def __contains__(self, key: FeatureKey) -> bool:
        return key in self.feature_id_map


def count_features(corpus: Iterable[LabeledUtterance], kinds: Iterable[str],
                   n_values: Mapping[str, tuple[int, ...]]) -> list[Counter]:
    """The extract_features multiset of each utterance, in corpus order: the
    one counting pass that vocabulary, chi-squared and training matrix read."""
    kinds = frozenset(kinds)
    unknown = kinds - set(KIND_ORDER)
    if unknown:
        raise ValueError(f"unknown feature kinds: {sorted(unknown)}")
    return [extract_features(u.tokens, kinds, n_values) for u in corpus]


def build_vocabulary(rows: Iterable[Mapping[FeatureKey, int]], kinds: Iterable[str],
                     n_values: Mapping[str, tuple[int, ...]],
                     min_count: int = 1) -> Vocabulary:
    """All features in the count rows occurring >= min_count times,
    indexed in sorted (kind, payload) order."""
    totals: Counter = Counter()
    for counts in rows:
        totals.update(counts)

    keys = sorted((k for k, c in totals.items() if c >= min_count),
                  key=_feature_sort_key)
    if not keys:
        raise ValueError("resulting vocabulary is empty")
    return Vocabulary(tuple(keys), frozenset(kinds), dict(n_values))


def _chi2(a: int, b: int, c: int, d: int) -> float:
    # a: present & pos, b: present & neg, c: absent & pos, d: absent & neg
    n = a + b + c + d
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return 0.0
    return n * (a * d - b * c) ** 2 / denom


def chi2_scores(rows: Sequence[Mapping[FeatureKey, int]], labels: Sequence[int],
                vocab: Vocabulary) -> dict[FeatureKey, float]:
    """Chi-squared statistic of (feature presence x label) per feature,
    from the count rows of the utterances and their labels."""
    in_pos: Counter = Counter()
    in_neg: Counter = Counter()
    for counts, label in zip(rows, labels, strict=True):
        (in_pos if label == POSITIVE else in_neg).update(counts.keys())
    n_pos = sum(1 for label in labels if label == POSITIVE)
    n_neg = len(labels) - n_pos
    return {key: _chi2(in_pos[key], in_neg[key], n_pos - in_pos[key], n_neg - in_neg[key])
            for key in vocab.features}


def chi2_select(rows: Sequence[Mapping[FeatureKey, int]], labels: Sequence[int],
                vocab: Vocabulary, k: int = 500) -> Vocabulary:
    """Keep the k highest-scoring features (ties by deterministic key
    order) and re-index densely."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= len(vocab):
        if k > len(vocab):
            warnings.warn(f"k={k} exceeds vocabulary size {len(vocab)}; "
                          "keeping the full vocabulary")
        return vocab
    scores = chi2_scores(rows, labels, vocab)
    ranked = sorted(vocab.features,
                    key=lambda key: (-scores[key],) + _feature_sort_key(key))
    kept = sorted(ranked[:k], key=_feature_sort_key)
    return Vocabulary(tuple(kept), vocab.kinds, vocab.n_values)


@dataclass(frozen=True)
class IndicativeLexicon:
    """Token scores measuring association with the positive class."""

    scores: Mapping[str, float]
    class_name: str = ""

    def score(self, surface: str) -> float:
        return self.scores.get(surface.lower(), 0.0)


def indicative_scores(corpus: LabeledCorpus, floor: float = 0.0,
                      class_name: str = "") -> IndicativeLexicon:
    """Smoothed log-ratio score per token:
    log((count in positives + 1) / (count in negatives + 1)).
    Tokens with |score| < floor are dropped."""
    pos_counts: Counter = Counter()
    neg_counts: Counter = Counter()
    for u in corpus:
        target = pos_counts if u.label == POSITIVE else neg_counts
        target.update(t.surface.lower() for t in u.tokens)
    if not pos_counts or not neg_counts:
        raise ValueError("both classes must be present to score tokens")

    scores = {}
    for token in set(pos_counts) | set(neg_counts):
        s = math.log((pos_counts[token] + 1) / (neg_counts[token] + 1))
        if abs(s) >= floor:
            scores[token] = s
    return IndicativeLexicon(scores, class_name)


def load_wordlist(path: Union[str, Path]) -> frozenset[str]:
    """One bare token per line; blank lines and '#' comments skipped."""
    words = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            word = line.split("\t")[0].strip()
            if word and not word.startswith("#"):
                words.add(word.lower())
    return frozenset(words)


@dataclass(frozen=True)
class SparseVector:
    """Strictly-increasing (index, value) pairs; zero values never stored."""

    entries: tuple[tuple[int, float], ...]
    dim: int

    def __post_init__(self) -> None:
        last = -1
        for i, v in self.entries:
            if i <= last:
                raise ValueError("indices must be strictly increasing")
            if not 0 <= i < self.dim:
                raise ValueError(f"index {i} out of range for dim {self.dim}")
            if v == 0.0:
                raise ValueError("zero-valued entries must not be stored")
            last = i


def vector_dim(vocab: Vocabulary, with_switching: bool) -> int:
    return len(vocab) + 2 + (N_FEATURES if with_switching else 0)


def encode(counts: Mapping[FeatureKey, int], tokens: Sequence[Token], vocab: Vocabulary,
           lexicons: Sequence[IndicativeLexicon], negation_words: frozenset[str],
           with_switching: bool) -> tuple[tuple[int, float], ...]:
    """Sorted (index, value) entries of one utterance from its feature counts:
    vocabulary block, the two special dimensions and, optionally, the nine
    switching features.  Training and serving both encode through here."""
    idx = vocab.feature_id_map
    values: dict[int, float] = {}
    for key, count in counts.items():
        if key in idx:
            values[idx[key]] = float(count)

    indicative = sum(lex.score(t.surface) for lex in lexicons for t in tokens)
    if indicative != 0.0:
        values[len(vocab)] = indicative
    negations = sum(1 for t in tokens if t.surface.lower() in negation_words)
    if negations:
        values[len(vocab) + 1] = float(negations)

    if with_switching:
        base = len(vocab) + 2
        for offset, value in enumerate(switching_features(tokens).as_tuple()):
            if value != 0.0:
                values[base + offset] = float(value)

    return tuple(sorted(values.items()))


def vectorize(utterance: LabeledUtterance,
              vocab: Vocabulary,
              lexicons: Sequence[IndicativeLexicon] = (),
              negation_words: frozenset[str] = DEFAULT_NEGATION_WORDS,
              with_switching: bool = False) -> SparseVector:
    """Extract and encode one utterance as a vector of vector_dim size."""
    counts = extract_features(utterance.tokens, vocab.kinds, vocab.n_values)
    return SparseVector(encode(counts, utterance.tokens, vocab, lexicons,
                               negation_words, with_switching),
                        vector_dim(vocab, with_switching))
