"""Baseline text features: character and word n-grams, chi-squared
selection, an indicative-token lexicon and negation counts, and the sparse
matrix that training and scoring multiply, with optional switching features.

A corpus is featurized once into a FeatureMatrix: labels, feature counts,
token occurrences and, when asked for, switching features, its sparse
blocks being SparseMatrix, the one sparse type, which the trainer multiplies
too.  A fitted vocabulary is the ascending column ids of the matrix it
keeps: build_vocabulary and chi2_select return them, and training_matrix
takes them.  SparseMatrix.take is the one selection: rows by a mask over
the entries, with no sort, and columns by X.T.take(cols).T, which
training_matrix and leading_columns use.  A cross-validation fold is
matrix.take(rows), so it reads no token again, and a held-out corpus is
featurized over the fitted vocabulary's keys, so no utterance is extracted
twice.  training_matrix is the one row encoder: training and scoring read
its rows, with the switching columns exactly when the FeatureMatrix carries
its switching block.

Feature keys are (kind, payload) pairs, kind being char_ngram or word_ngram
(a token's unigram is its word 1-gram).  extract_features builds and counts
an utterance's keys, and featurize interns them, through C iterators, with
no Python step per n-gram; a row's entries keep extract_features' key
order.  A featurized matrix's columns are its keys sorted by kind, in
KIND_ORDER, then payload, so ascending column ids keep that order.  Rows
carry two special dimensions (indicative-score sum, negation count) after
the vocabulary block and, when requested, the nine switching features last,
so a row without them is the leading columns of one with.  KIND_ORDER
and checked_kinds, the check of kinds and sizes, live in codeswitch.config.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Sized, Union

import numpy as np

from codeswitch.config import KIND_ORDER, checked_kinds
from codeswitch.corpus import LabeledCorpus, POSITIVE, Token
from codeswitch.switching import N_FEATURES, switching_features

# Word n-gram joiner.  A surface holding it could make a word n-gram's key
# equal to one of another size, so featurize rejects such a surface when it
# extracts word n-grams above size 1.
NGRAM_SEP = "§"

_surface = attrgetter("surface")

FeatureKey = tuple[str, str]


def extract_features(tokens: Sequence[Token], kinds: frozenset[str],
                     n_values: Mapping[str, tuple[int, ...]]) -> Counter:
    """Multiset of (kind, payload) feature keys for one utterance, in order
    of first occurrence, size by size: char_ngram payloads are n-character
    runs of the space-joined surfaces, lowercased after joining, word_ngram
    ones runs of n lowercased surfaces joined by NGRAM_SEP.  Sizes must be
    >= 1; a size longer than the run yields no grams and is skipped.  C
    iterators build and count the keys, with no Python step per n-gram."""
    runs = []
    if "char_ngram" in kinds:
        runs.append(("char_ngram", " ".join(map(_surface, tokens)).lower(), "".join))
    if "word_ngram" in kinds:
        runs.append(("word_ngram", [*map(str.lower, map(_surface, tokens))], NGRAM_SEP.join))
    return Counter(chain.from_iterable(
        zip(repeat(kind), map(join, zip(*[items[i:] for i in range(n)])))
        for kind, items, join in runs for n in n_values[kind] if n <= len(items)))


def _feature_sort_key(key: FeatureKey) -> tuple[int, str]:
    return (KIND_ORDER.index(key[0]), key[1])


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Sparse N x D matrix of (row, col, value) entries, with X @ v and
    X.T @ v, X.T being the same entries with rows and columns swapped.
    X @ v is one np.bincount: each row's terms are added one after another
    in entry order, from 0.0, in numpy and not in BLAS, so results do not
    depend on the BLAS thread count or on the Python version.  The entries
    may come in any order; only the last bits of a sum depend on it."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def T(self) -> "SparseMatrix":
        return SparseMatrix(self.shape[::-1], self.cols, self.rows, self.values)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        terms = v[self.cols]
        terms *= self.values  # in place, so a product copies the entries' values once
        # with no entries, bincount returns int64 whatever the weights
        return np.bincount(self.rows, terms, self.shape[0]).astype(np.float64, copy=False)

    def take(self, rows: Sequence[int]) -> "SparseMatrix":
        """The given distinct rows, renumbered 0.. in the order given, over
        the same columns: a mask over the entries, with no sort, so every
        kept entry stays where it was among the others and each row keeps
        its entries in their order.  X.T.take(cols).T selects columns."""
        new_row = np.full(self.shape[0], -1, dtype=self.rows.dtype)  # keeps the row id type
        new_row[rows] = np.arange(len(rows))
        target = new_row[self.rows]
        kept = target >= 0
        return SparseMatrix((len(rows), self.shape[1]), target[kept], self.cols[kept],
                            self.values[kept])

    def leading_columns(self, d: int) -> "SparseMatrix":
        """The matrix of the first d columns (itself when it has d)."""
        return self if d == self.shape[1] else self.T.take(np.arange(d)).T


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """A featurized labeled corpus, one row per utterance: labels[r] is the
    label of utterance r; counts its extract_features counts, column c
    counting the feature keys[c]; tokens one entry of value 1 per token
    occurrence, in token order, at the column of its lowercased surface in
    words; switching[r] its switching profile, in SwitchProfile.as_tuple
    order, or switching is None when it was featurized without them."""

    labels: np.ndarray
    keys: tuple[FeatureKey, ...]
    counts: SparseMatrix
    words: tuple[str, ...]
    tokens: SparseMatrix
    switching: np.ndarray | None

    def take(self, rows: Sequence[int]) -> "FeatureMatrix":
        """The given distinct rows, in the order given, over the same columns."""
        switching = None if self.switching is None else self.switching[rows]
        return FeatureMatrix(self.labels[rows], self.keys, self.counts.take(rows), self.words,
                             self.tokens.take(rows), switching)


def featurize(corpus: LabeledCorpus, kinds: Iterable[str],
              n_values: Mapping[str, tuple[int, ...]],
              vocab: Sequence[FeatureKey] | None = None,
              with_switching: bool = True) -> FeatureMatrix:
    """Feature matrix of the corpus, built in one streaming pass: each
    utterance is extracted once, its keys (given a fitted vocab, only its
    keys) and lowercased surfaces are interned into column ids by C
    iterators, in extract_features' key order, the order in which X @ w adds
    a row's terms, and its Counter is dropped.  The key ids are then
    remapped to the rank of their key, or, given vocab, are its columns.
    Row and column ids and counts are int32, and token values int8, which
    keeps the matrix small while a cross-validation holds it.  The switching
    block is built only with_switching, and is None otherwise.  checked_kinds
    checks the kinds and sizes once per call and, when word n-grams above
    size 1 are extracted, a lowercased surface holding NGRAM_SEP is a
    ValueError naming it, checked once per call over the distinct words."""
    kinds = checked_kinds(kinds, n_values)
    ids: dict[FeatureKey, int] = (defaultdict(count().__next__) if vocab is None
                                  else {key: i for i, key in enumerate(vocab)})
    word_ids: dict[str, int] = defaultdict(count().__next__)
    labels, switching = [], []
    n_keys, key_cols, key_counts, n_tokens, token_cols = [], [], [], [], []
    for u in corpus:
        feats = extract_features(u.tokens, kinds, n_values)
        kept = feats if vocab is None else [*filter(ids.__contains__, feats)]
        n_keys.append(len(kept))
        key_cols += map(ids.__getitem__, kept)  # a new key's id is the count of keys before it
        key_counts += map(feats.__getitem__, kept)
        n_tokens.append(len(u.tokens))
        token_cols += map(word_ids.__getitem__, map(str.lower, map(_surface, u.tokens)))
        labels.append(u.label)
        if with_switching:
            switching.append(switching_features(u.tokens).as_tuple())
    if "word_ngram" in kinds and max(n_values["word_ngram"], default=0) > 1:
        clash = next((w for w in word_ids if NGRAM_SEP in w), None)
        if clash is not None:
            raise ValueError(f"token surface {clash!r} holds {NGRAM_SEP!r}, which joins "
                             "word n-grams, so its n-grams would share columns with others")
    key_cols = np.array(key_cols, dtype=np.int32)
    if vocab is None:
        vocab = sorted(ids, key=_feature_sort_key)
        rank = np.empty(len(vocab), dtype=np.int32)
        rank[[ids[key] for key in vocab]] = np.arange(len(vocab))
        key_cols = rank[key_cols]
    n = len(labels)
    counts = SparseMatrix((n, len(vocab)), np.repeat(np.arange(n, dtype=np.int32), n_keys),
                          key_cols, np.array(key_counts, dtype=np.int32))
    tokens = SparseMatrix((n, len(word_ids)), np.repeat(np.arange(n, dtype=np.int32), n_tokens),
                          np.array(token_cols, dtype=np.int32), np.ones(len(token_cols), np.int8))
    switching = np.array(switching, dtype=np.float64).reshape(-1, N_FEATURES)
    return FeatureMatrix(np.array(labels, dtype=np.intp), tuple(vocab), counts, tuple(word_ids),
                         tokens, switching if with_switching else None)


def build_vocabulary(matrix: FeatureMatrix, min_count: int = 1) -> np.ndarray:
    """The ascending column ids of the features present in the matrix whose
    total count there is at least min_count."""
    totals = matrix.counts.T @ np.ones(len(matrix.labels))
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
    labels, counts = matrix.labels, matrix.counts
    a = np.bincount(counts.cols[labels[counts.rows] == POSITIVE], minlength=len(matrix.keys))[cols]
    b = np.bincount(counts.cols, minlength=len(matrix.keys))[cols] - a
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


def indicative_scores(matrix: FeatureMatrix, floor: float = 0.0) -> dict[str, float]:
    """The indicative lexicon: a smoothed log-ratio score per lowercased
    token of the matrix rows, log((count in positives + 1) / (count in
    negatives + 1)), measuring association with the positive class.  Tokens
    with |score| < floor are dropped."""
    positive = (matrix.labels == POSITIVE).astype(np.float64)
    pos, neg = matrix.tokens.T @ positive, matrix.tokens.T @ (1.0 - positive)
    if not (pos.any() and neg.any()):
        raise ValueError("both classes must be present to score tokens")
    present = np.flatnonzero(pos + neg)
    scores = {}
    for w, p, n in zip(present.tolist(), pos[present].tolist(), neg[present].tolist()):
        s = math.log((p + 1) / (n + 1))
        if abs(s) >= floor:
            scores[matrix.words[w]] = s
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


def training_matrix(matrix: FeatureMatrix, cols: np.ndarray,
                    lexicon: Mapping[str, float], negation_words: frozenset[str]) -> SparseMatrix:
    """Sparse matrix of one row per row of the matrix: the vocabulary block
    is the matrix's columns cols, in that order (counts.T.take(cols).T);
    then the nonzeros of the indicative-score sum and the negation count of
    each row's tokens and, when the matrix carries its switching block, the
    nine switching columns."""
    with_switching = matrix.switching is not None
    counts = matrix.counts.T.take(cols).T
    word_scores = np.array([lexicon.get(w, 0.0) for w in matrix.words], dtype=np.float64)
    negations = np.array([w in negation_words for w in matrix.words], dtype=np.float64)
    block = np.column_stack([matrix.tokens @ word_scores, matrix.tokens @ negations])
    if with_switching:
        block = np.hstack([block, matrix.switching])
    s_rows, s_cols = np.nonzero(block)
    n, d = len(matrix.labels), vector_dim(cols, with_switching)
    return SparseMatrix((n, d), np.concatenate([counts.rows, s_rows]),
                        np.concatenate([counts.cols, len(cols) + s_cols]),
                        np.concatenate([counts.values.astype(np.float64), block[s_rows, s_cols]]))
