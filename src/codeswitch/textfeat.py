"""Baseline text features: n-grams, bag-of-words, chi-squared selection,
an indicative-token lexicon and negation counts, and the sparse matrix that
training and scoring multiply, with optional switching features.

A corpus is featurized once into a FeatureMatrix (CSR counts over one
column per feature key and, when asked for, each row's switching features,
with the corpus they describe).  A fitted vocabulary is the ascending
column ids of the matrix it keeps: build_vocabulary and chi2_select return
them, and training_matrix takes them.  A cross-validation fold is
matrix.take(rows), and a held-out corpus is featurized over the fitted
vocabulary's keys, so no utterance is extracted twice.  training_matrix is
the one row encoder: training and scoring read its rows, with the switching
columns exactly when the FeatureMatrix carries its switching block.

Feature keys are (kind, payload) pairs with kind in {char_ngram,
word_ngram, bow}.  A featurized matrix's columns are its keys sorted by
kind (char_ngram, word_ngram, bow) then payload, so ascending column ids
keep that order.  Rows carry two special_values dimensions (indicative-score
sum, negation count) after the vocabulary block and, when requested, the
nine switching features last, so a row without them is the leading columns
of one with.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Sized, Union

import numpy as np

from codeswitch.corpus import LabeledCorpus, POSITIVE, Token
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


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """extract_features counts of a labeled corpus as a CSR matrix: row r
    is utterance corpus[r], its column ids are indices[indptr[r]:indptr[r + 1]]
    and its counts the same slice of data.  Column c counts the feature
    keys[c].  switching[r] is the switching profile of corpus[r], in
    SwitchProfile.as_tuple order, or switching is None when the matrix was
    featurized without them."""

    corpus: LabeledCorpus
    keys: tuple[FeatureKey, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    switching: np.ndarray | None

    @cached_property
    def labels(self) -> np.ndarray:
        return np.array([u.label for u in self.corpus], dtype=np.intp)

    @property
    def entry_rows(self) -> np.ndarray:
        """Row of each stored entry."""
        return np.repeat(np.arange(len(self.corpus)), np.diff(self.indptr))

    def take(self, rows: Sequence[int]) -> "FeatureMatrix":
        """The given rows, in the order given, over the same columns."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        at = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        switching = None if self.switching is None else self.switching[rows]
        return FeatureMatrix(self.corpus.subset(self.corpus[r] for r in rows.tolist()), self.keys,
                             indptr, self.indices[at], self.data[at], switching)


def featurize(corpus: LabeledCorpus, kinds: Iterable[str],
              n_values: Mapping[str, tuple[int, ...]],
              vocab: Sequence[FeatureKey] | None = None,
              with_switching: bool = True) -> FeatureMatrix:
    """Count matrix of the corpus, built in one streaming pass: each
    utterance is extracted once, its keys are interned into column ids
    appended to flat lists, and its Counter is dropped.  The ids are then
    remapped to the rank of their key, or, given the keys of a fitted
    vocab, only those are kept, as its columns.  Ids and counts are int32,
    which keeps the matrix small while a cross-validation holds it.  The
    switching block is built only with_switching, and is None otherwise."""
    kinds = frozenset(kinds)
    unknown = kinds - set(KIND_ORDER)
    if unknown:
        raise ValueError(f"unknown feature kinds: {sorted(unknown)}")
    ids: dict[FeatureKey, int] = {} if vocab is None else {key: i for i, key in enumerate(vocab)}
    indptr, indices, data = [0], [], []
    for u in corpus:
        counts = extract_features(u.tokens, kinds, n_values)
        if vocab is not None:
            counts = {key: n for key, n in counts.items() if key in ids}
        indices.extend([ids.setdefault(key, len(ids)) for key in counts])
        data.extend(counts.values())
        indptr.append(len(indices))
    indices = np.array(indices, dtype=np.int32)
    if vocab is None:
        keys = sorted(ids, key=_feature_sort_key)
        rank = np.empty(len(keys), dtype=np.int32)
        rank[[ids[key] for key in keys]] = np.arange(len(keys))
        indices, vocab = rank[indices], keys
    switching = np.array([switching_features(u.tokens).as_tuple() for u in corpus],
                         dtype=np.float64).reshape(-1, N_FEATURES) if with_switching else None
    return FeatureMatrix(corpus, tuple(vocab), np.array(indptr), indices,
                         np.array(data, dtype=np.int32), switching)


def build_vocabulary(matrix: FeatureMatrix, min_count: int = 1) -> np.ndarray:
    """The ascending column ids of the features present in the matrix whose
    total count there is at least min_count."""
    totals = np.bincount(matrix.indices, weights=matrix.data, minlength=len(matrix.keys))
    cols = np.flatnonzero((totals > 0) & (totals >= min_count))
    if not len(cols):
        raise ValueError("resulting vocabulary is empty")
    return cols


def _chi2(a: int, b: int, c: int, d: int) -> float:
    # a: present & pos, b: present & neg, c: absent & pos, d: absent & neg
    n = a + b + c + d
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return 0.0
    return n * (a * d - b * c) ** 2 / denom


def chi2_scores(matrix: FeatureMatrix, cols: np.ndarray) -> np.ndarray:
    """Chi-squared statistic of (feature presence x label) over the rows of
    the matrix, per column of cols in that order; each equals _chi2 of the
    feature's presence counts bit for bit."""
    labels, indices = matrix.labels, matrix.indices
    a = np.bincount(indices[labels[matrix.entry_rows] == POSITIVE],
                    minlength=len(matrix.keys))[cols]
    b = np.bincount(indices, minlength=len(matrix.keys))[cols] - a
    n = len(labels)
    n_pos = int(np.count_nonzero(labels == POSITIVE))
    # Over fixed rows the score depends on (a, b) alone, so _chi2 runs once
    # per distinct pair; a * (n + 1) + b numbers the pairs.
    _, first, inverse = np.unique(a * (n + 1) + b, return_index=True, return_inverse=True)
    scores = [_chi2(x, y, n_pos - x, n - n_pos - y)
              for x, y in zip(a[first].tolist(), b[first].tolist())]
    return np.array(scores, dtype=np.float64)[inverse]


def chi2_select(matrix: FeatureMatrix, cols: np.ndarray, k: int = 500) -> np.ndarray:
    """The k of the ascending column ids cols whose features score highest
    over the rows of the matrix (ties by key order), in ascending order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= len(cols):
        if k > len(cols):
            warnings.warn(f"k={k} exceeds vocabulary size {len(cols)}; "
                          "keeping the full vocabulary")
        return cols
    ranked = np.argsort(-chi2_scores(matrix, cols), kind="stable")
    return cols[np.sort(ranked[:k])]


def indicative_scores(corpus: LabeledCorpus, floor: float = 0.0) -> dict[str, float]:
    """The indicative lexicon: a smoothed log-ratio score per lowercased
    token, log((count in positives + 1) / (count in negatives + 1)),
    measuring association with the positive class.  Tokens with
    |score| < floor are dropped."""
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
    return scores


def load_wordlist(path: Union[str, Path]) -> frozenset[str]:
    """One bare token per line; blank lines and '#' comments skipped.
    Bytes that are not UTF-8 are an error naming the file."""
    words = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                word = line.split("\t")[0].strip()
                if word and not word.startswith("#"):
                    words.add(word.lower())
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8: {exc.reason}") from None
    return frozenset(words)


def vector_dim(vocab: Sized, with_switching: bool) -> int:
    return len(vocab) + 2 + (N_FEATURES if with_switching else 0)


def special_values(tokens: Sequence[Token], lexicon: Mapping[str, float],
                   negation_words: frozenset[str]) -> tuple[float, float]:
    """The two dimensions after the vocabulary block: indicative-score sum
    and negation count."""
    indicative = sum(lexicon.get(t.surface.lower(), 0.0) for t in tokens)
    negations = sum(1 for t in tokens if t.surface.lower() in negation_words)
    return float(indicative), float(negations)


@dataclass(frozen=True, eq=False)
class TrainingMatrix:
    """Sparse N x D matrix of (row, col, value) entries, with X @ v and
    X.T @ v, X.T being the same entries with rows and columns swapped.
    X @ v is one np.bincount: each row's terms are added one after another
    in entry order (the order training_matrix builds them), in numpy and
    not in BLAS, so results do not depend on the BLAS thread count.  The
    entries may come in any order; only the last bits of a sum depend on it."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def T(self) -> "TrainingMatrix":
        return TrainingMatrix(self.shape[::-1], self.cols, self.rows, self.values)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        terms = v[self.cols]
        terms *= self.values  # in place, so a product copies the entries' values once
        # with no entries, bincount returns int64 whatever the weights
        return np.bincount(self.rows, terms, self.shape[0]).astype(np.float64, copy=False)

    def leading_columns(self, d: int) -> "TrainingMatrix":
        """The matrix of the first d columns, by a mask over the entries
        (the matrix itself when it has d columns)."""
        if d == self.shape[1]:
            return self
        kept = self.cols < d
        return TrainingMatrix((self.shape[0], d), self.rows[kept], self.cols[kept],
                              self.values[kept])


def training_matrix(matrix: FeatureMatrix, cols: np.ndarray,
                    lexicon: Mapping[str, float], negation_words: frozenset[str]) -> TrainingMatrix:
    """Sparse matrix of one row per utterance of matrix.corpus: the
    vocabulary block is the matrix's columns cols, in that order, through
    one column remap, the rest the nonzeros of special_values and, when the
    matrix carries its switching block, the nine switching columns."""
    with_switching = matrix.switching is not None
    remap = np.full(len(matrix.keys), -1, dtype=np.intp)
    remap[cols] = np.arange(len(cols))
    target = remap[matrix.indices]
    hit = target >= 0
    block = np.array([special_values(u.tokens, lexicon, negation_words) for u in matrix.corpus],
                     dtype=np.float64).reshape(-1, 2)
    if with_switching:
        block = np.hstack([block, matrix.switching])
    s_rows, s_cols = np.nonzero(block)
    n, d = len(matrix.corpus), vector_dim(cols, with_switching)
    return TrainingMatrix((n, d), np.concatenate([matrix.entry_rows[hit], s_rows]),
                          np.concatenate([target[hit], len(cols) + s_cols]),
                          np.concatenate([matrix.data[hit].astype(np.float64),
                                          block[s_rows, s_cols]]))
