"""Baseline text features: character and word n-grams, chi-squared
selection, an indicative-token lexicon and negation counts, and the sparse
matrix that training and scoring multiply, with optional switching features.

A corpus is featurized once into a FeatureMatrix: labels, feature counts,
token occurrences and, when asked for, switching features, its sparse
blocks being SparseMatrix, the one sparse type, which the trainer multiplies
too.  A fitted vocabulary is the ascending column ids of the matrix it
keeps: build_vocabulary and chi2_select return them, and training_matrix
takes them.  SparseMatrix.take is the one selection: rows by a mask over
the entries, with no sort, and columns by X.T.take(cols).T.  A
cross-validation fold is matrix.take(rows), so it reads no token again,
and a held-out corpus is featurized over the fitted vocabulary's keys, so
no utterance is extracted twice.  training_matrix is the one row encoder:
training and scoring read its rows, with the switching columns exactly
when the FeatureMatrix carries its switching block.

Feature keys are (kind, payload) pairs, kind being char_ngram or word_ngram
(a token's unigram is its word 1-gram): a char_ngram payload is a run of n
characters of an utterance's space-joined surfaces, lowercased after
joining, and a word_ngram one a run of n lowercased surfaces joined by
NGRAM_SEP.  featurize counts them with numpy array kernels, a chunk of
utterances and one (kind, size) at a time: each n-gram occurrence is one
int64 code, and one sort groups the codes into (row, gram) pairs, so no
Python object is made per occurrence.  Without a vocabulary, each
distinct gram of the chunk is decoded to its payload once.  Over a
fitted vocabulary, FittedKeys holds the keys' symbols, coded once; each
chunk folds them into codes as it folds its grams, and np.searchsorted
finds them among the chunk's distinct gram codes, so no gram is decoded
and a gram that is no key costs no Python call.  A row's entries are its
distinct keys in order of first occurrence, kind then size.  A
featurized matrix's columns are its keys in their own tuple order, kind
then payload, so ascending column ids keep that order; the kinds of
KIND_ORDER are in alphabetical order too.  Rows carry two special
dimensions (indicative-score sum, negation count) after the vocabulary
block and, when requested, the nine switching features last, so a row
without them is the leading columns of one with.  featurize takes a
chunk's switching features from codeswitch.switching.switching_block.
KIND_ORDER and checked_kinds, the check of kinds and sizes, live in
codeswitch.config.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import count, repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, Sized, Union

import numpy as np

from codeswitch.config import checked_kinds
from codeswitch.corpus import POSITIVE, LabeledUtterance, read_lines
from codeswitch.switching import N_FEATURES, switching_block

# Word n-gram joiner.  A surface holding it could make a word n-gram's key
# equal to one of another size, so featurize rejects such a surface when it
# extracts word n-grams above size 1.
NGRAM_SEP = "§"

_surface = attrgetter("surface")

FeatureKey = tuple[str, str]


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


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """A featurized labeled corpus, one row per utterance: labels[r] is the
    label of utterance r; counts its feature key counts, column c counting
    the feature keys[c]; tokens one entry of value 1 per token
    occurrence, in token order, at the column of its lowercased surface in
    words; switching[r] its switching profile, in SwitchProfile's field
    order and equal bit for bit to q_and_profile's profile of utterance r, or
    switching is None when it was featurized without them."""

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


_INT64_END = 2**63  # a gram's code stays below it, so its arithmetic cannot overflow
_CHUNK_TOKENS = 2048  # tokens whose n-grams featurize counts at once, which bounds its arrays


class FittedKeys:
    """A fitted vocabulary coded for featurize, which matches a chunk's
    grams to its keys by code: keys is the vocabulary; words maps the
    distinct words of its word keys to their indices, in that order; and
    blocks[kind, size] holds the symbols and column of each key that can be
    a gram of that kind and size, a row of size symbols per key, a char
    key's being its code points and a word key's the indices of its words
    in words.  A char key's size is its length.
    A word key is a 1-gram whole, NGRAM_SEP included, and, when its
    payload splits on NGRAM_SEP into n > 1 parts, also an n-gram of those
    parts.  A key given twice has the column of its last place, as in a
    dict of the keys.  Building one is Python work per key, so a caller
    that featurizes many corpora over one vocabulary builds it once."""

    def __init__(self, vocab: Sequence[FeatureKey]):
        self.keys = tuple(vocab)
        word_index: dict[str, int] = defaultdict(count().__next__)
        blocks: dict[tuple[str, int], tuple[list, list]] = defaultdict(lambda: ([], []))
        for (kind, payload), col in dict(zip(self.keys, count())).items():
            if kind == "char_ngram":
                coded = [[*map(ord, payload)]]
            elif kind == "word_ngram":
                parts = payload.split(NGRAM_SEP)
                coded = [[word_index[payload]]]
                if len(parts) > 1:
                    coded.append([*map(word_index.__getitem__, parts)])
            else:
                continue
            for symbols in coded:
                block = blocks[kind, len(symbols)]
                block[0].append(symbols)
                block[1].append(col)
        self.words = dict(word_index)
        self.blocks = {(kind, size): (np.array(symbols, np.int64).reshape(len(cols), size),
                                      np.array(cols, np.int32))
                       for (kind, size), (symbols, cols) in blocks.items()}

    def word_symbols(self, word_ids: Mapping[str, int]) -> np.ndarray:
        """Each of words' id in word_ids, whose ids are 0, 1, ... in its
        order, or len(word_ids), above every id, for a word it lacks; found
        by one lookup per word of the smaller of the two."""
        absent = len(word_ids)
        if len(self.words) <= absent:
            return np.fromiter(map(word_ids.get, self.words, repeat(absent)), np.int64,
                               len(self.words))
        at = np.fromiter(map(self.words.get, word_ids, repeat(-1)), np.int64, absent)
        symbols = np.full(len(self.words), absent, dtype=np.int64)
        hit = at >= 0
        symbols[at[hit]] = hit.nonzero()[0]
        return symbols


def _find(distinct: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Each code's index in the ascending, nonempty distinct codes, or -1
    where it is not one of them."""
    at = distinct.searchsorted(codes)
    found = distinct[np.minimum(at, len(distinct) - 1)] == codes
    return np.where(found, at, -1)


def _ranks(codes: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Each code's rank among the distinct codes, and their number: new
    codes, below len(codes), equal exactly where the codes are; and each of
    the keys' rank among them, or -1 where it is not one of them.  The flag
    keeps np.unique from importing numpy.ma, as a bare call does."""
    distinct, ranks = np.unique(codes, return_inverse=True)
    return ranks, len(distinct), _find(distinct, keys)


def _gram_counts(symbols: np.ndarray, bound: int, lengths: np.ndarray, n: int,
                 keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The n-grams of the int32 symbols, each below bound: the runs of n
    symbols within one row's segment, row r's segment being the next
    lengths[r] symbols.  Returns each distinct (row, gram) pair's row, gram
    id, count and first occurrence, the pairs by gram id then row; the
    start of one occurrence of each gram id; and the gram id of each of the
    keys, an (m, n) int64 array of m n-grams' symbols, each below bound, or
    -1 for a key that is no gram of the symbols.

    A gram's code is its symbols as digits in radix bound, in int64; before
    the next digit could overflow the codes, each is replaced by its rank.
    One sort of the (code, row) keys groups the occurrences into pairs and
    the pairs into grams, and gives each pair's first occurrence, so gram
    ids number the distinct codes in ascending order.  A key is coded as a
    gram is, ranked among the grams' codes where they are, and its gram id
    is the index of its code among theirs.  A key whose code is not among
    them is coded -1 there, and its code stays negative as digits are
    added (-c * bound + s < 0 for c >= 1 and s < bound), so it finds no
    gram."""
    n_rows = len(lengths)
    per_row = lengths - (n - 1)
    per_row[per_row < 0] = 0
    rows = np.arange(n_rows, dtype=np.int32).repeat(per_row)
    skipped = lengths - per_row  # a row's symbols that start no n-gram
    starts = (skipped.cumsum(dtype=np.int32) - skipped).repeat(per_row)
    starts += np.arange(len(starts), dtype=np.int32)
    codes, code_bound = symbols[starts].astype(np.int64), bound
    key_codes = keys[:, 0].copy()
    for k in range(1, n):
        if code_bound * bound > _INT64_END:
            codes, code_bound, key_codes = _ranks(codes, key_codes)
        codes *= bound
        codes += symbols[starts + k]
        key_codes *= bound
        key_codes += keys[:, k]
        code_bound *= bound
    if code_bound * n_rows > _INT64_END:
        codes, code_bound, key_codes = _ranks(codes, key_codes)
    codes *= n_rows
    codes += rows  # one key per (gram, row) pair
    order = codes.argsort()  # equal keys are one pair, so their order is free
    codes = codes[order]
    pair_at = np.concatenate(([True], codes[1:] != codes[:-1])).nonzero()[0]
    first = np.minimum.reduceat(order, pair_at)
    del order
    counts = (np.concatenate((pair_at[1:], [len(codes)])) - pair_at).astype(np.int32)
    pair_rows = rows[first]
    codes = codes[pair_at]
    codes -= pair_rows  # the gram's code times n_rows
    del pair_at
    new_gram = np.concatenate(([True], codes[1:] != codes[:-1]))
    key_codes *= n_rows
    key_grams = _find(codes[new_gram], key_codes)
    del codes
    gram_starts = starts[first[new_gram]]
    grams = new_gram.cumsum(dtype=np.int32) - 1
    return pair_rows, grams, counts, first, gram_starts, key_grams


def _chunks(corpus: Iterable[LabeledUtterance]) -> Iterator[list[LabeledUtterance]]:
    """The corpus's utterances in order, in lists of the fewest that hold
    _CHUNK_TOKENS tokens, the last list perhaps fewer."""
    chunk, n_tokens = [], 0
    for u in corpus:
        chunk.append(u)
        n_tokens += len(u.tokens)
        if n_tokens >= _CHUNK_TOKENS:
            yield chunk
            chunk, n_tokens = [], 0
    if chunk:
        yield chunk


def _chunk_entries(texts: list[str], words: list[str], word_cols: list[int],
                   n_tokens: list[int], kinds: frozenset[str],
                   n_values: Mapping[str, tuple[int, ...]], ids: dict[FeatureKey, int],
                   fitted: FittedKeys | None, word_ids: Mapping[str, int]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, column, count) entries of the feature keys of a chunk of
    rows, each row's distinct keys in order of first occurrence within kind
    then size, in n_values' order, and the rows in order.  Row r's
    lowercased text is texts[r] (when char_ngram is in kinds), and its
    n_tokens[r] lowercased surfaces and their word ids, which word_ids
    maps the call's words to, are the next ones of words and word_cols.
    Without fitted keys, each distinct gram of the chunk is decoded to its
    key once, whose column is ids[key], added if new.  Given them, a gram
    is matched to the fitted key of its code, whose column it takes, or
    is left out, and no gram is decoded: a word key's symbols are the word
    ids of its words, and a key is skipped when a word of it has no id
    yet or a symbol of it is not below the chunk's radix."""
    runs = []  # per kind: its symbols, their rows' lengths, and what a gram is decoded from
    if "char_ngram" in kinds:  # a code point is below 0x110000, so it fits an int32
        text = "".join(texts)
        code_points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.dtype("<i4"))
        runs.append(("char_ngram", code_points, [*map(len, texts)], text, None))
    if "word_ngram" in kinds:
        runs.append(("word_ngram", np.array(word_cols, dtype=np.int32), n_tokens, words,
                     NGRAM_SEP.join))
    empty = np.zeros(0, dtype=np.int32)
    rows, cols, counts = [empty], [empty], [empty]
    for kind, symbols, lengths, items, join in runs:
        longest, lengths = max(lengths), np.array(lengths, dtype=np.int32)
        bound = int(symbols.max()) + 1
        if fitted is not None and kind == "word_ngram":
            # a fitted word with no id yet gets len(word_ids), at or above the radix
            word_symbols = fitted.word_symbols(word_ids)
        for size in n_values[kind]:
            if size > longest:
                continue
            if fitted is None:
                key_symbols = np.zeros((0, size), dtype=np.int64)
            elif (kind, size) in fitted.blocks:
                key_symbols, key_cols = fitted.blocks[kind, size]
                if kind == "word_ngram":
                    key_symbols = word_symbols[key_symbols]
                possible = (key_symbols < bound).all(axis=1)
                if not possible.any():
                    continue
                key_symbols, key_cols = key_symbols[possible], key_cols[possible]
            else:
                continue
            pair_rows, grams, pair_counts, first, starts, key_grams = _gram_counts(
                symbols, bound, lengths, size, key_symbols)
            if fitted is None:
                ends = (starts + size).tolist()
                pieces = map(items.__getitem__, map(slice, starts.tolist(), ends))
                keys = zip(repeat(kind), pieces if join is None else map(join, pieces))
                gram_cols = np.fromiter(map(ids.__getitem__, keys), np.int32, len(starts))
            else:
                gram_cols = np.full(len(starts) + 1, -1, dtype=np.int32)
                gram_cols[key_grams] = key_cols  # an absent key's -1 writes the spare last entry
            pair_cols = gram_cols[grams]
            kept = (pair_cols >= 0).nonzero()[0]
            kept = kept[first[kept].argsort()]  # the kept pairs by first occurrence, so by row
            rows.append(pair_rows[kept])
            cols.append(pair_cols[kept])
            counts.append(pair_counts[kept])
    rows = np.concatenate(rows)
    # by row, then by kind and size: the (kind, size) blocks are each in row order
    by_row = rows.argsort(kind="stable")
    return rows[by_row], np.concatenate(cols)[by_row], np.concatenate(counts)[by_row]


def featurize(corpus: Iterable[LabeledUtterance], kinds: Iterable[str],
              n_values: Mapping[str, tuple[int, ...]],
              vocab: FittedKeys | None = None,
              with_switching: bool = True) -> FeatureMatrix:
    """Feature matrix of the corpus, built in one streaming pass over it, a
    chunk of _CHUNK_TOKENS tokens at a time, so its arrays stay small.  Each
    utterance's lowercased surfaces are interned into word ids by C
    iterators and its lowercased text is joined; then _chunk_entries counts
    the chunk's keys (without a vocab, decoding each distinct gram of the
    chunk once; given a fitted vocab, only the keys in it, matched by code,
    decoding no gram) and, with_switching, switching_block profiles the
    chunk's utterances.  A row holds one entry per distinct key, with its
    count, in order of first occurrence within kind then size: the order
    in which X @ w adds a row's terms.  The key ids are then remapped to
    the rank of their key, or, given vocab, are its columns.  Row and
    column ids and counts are int32, and token values int8, which
    keeps the matrix small while a cross-validation holds it.  The
    switching block is built only with_switching, and is None otherwise.
    checked_kinds checks the kinds and sizes once per call and, when word
    n-grams above size 1 are extracted, a lowercased surface holding
    NGRAM_SEP is a ValueError naming it, checked once per call over the
    distinct words."""
    kinds = checked_kinds(kinds, n_values)
    ids: dict[FeatureKey, int] = defaultdict(count().__next__)  # without vocab, the key ids
    word_ids: dict[str, int] = defaultdict(count().__next__)
    labels, n_tokens, token_cols = [], [], []
    switching = [np.zeros((0, N_FEATURES))]  # per chunk, its switching block
    empty = np.zeros(0, dtype=np.int32)
    key_rows, key_cols, key_counts = [empty], [empty], [empty]  # per chunk, its entries
    for chunk in _chunks(corpus):
        texts, words, first = [], [], len(labels)
        for u in chunk:
            surfaces = [*map(_surface, u.tokens)]
            lowered = [*map(str.lower, surfaces)]
            if "char_ngram" in kinds:
                texts.append(" ".join(surfaces).lower())
            words += lowered
            n_tokens.append(len(lowered))
            token_cols += map(word_ids.__getitem__, lowered)
            labels.append(u.label)
        if with_switching:
            switching.append(switching_block([u.tokens for u in chunk]))
        rows, cols, counts = _chunk_entries(texts, words, token_cols[len(token_cols) - len(words):],
                                            n_tokens[first:], kinds, n_values, ids, vocab,
                                            word_ids)
        key_rows.append(rows + first)
        key_cols.append(cols)
        key_counts.append(counts)
    if "word_ngram" in kinds and max(n_values["word_ngram"], default=0) > 1:
        clash = next((w for w in word_ids if NGRAM_SEP in w), None)
        if clash is not None:
            raise ValueError(f"token surface {clash!r} holds {NGRAM_SEP!r}, which joins "
                             "word n-grams, so its n-grams would share columns with others")
    key_cols = np.concatenate(key_cols)
    if vocab is None:
        keys = sorted(ids)
        rank = np.empty(len(keys), dtype=np.int32)
        rank[[ids[key] for key in keys]] = np.arange(len(keys))
        key_cols = rank[key_cols]
    else:
        keys = vocab.keys
    n = len(labels)
    counts = SparseMatrix((n, len(keys)), np.concatenate(key_rows), key_cols,
                          np.concatenate(key_counts))
    tokens = SparseMatrix((n, len(word_ids)), np.repeat(np.arange(n, dtype=np.int32), n_tokens),
                          np.array(token_cols, dtype=np.int32), np.ones(len(token_cols), np.int8))
    return FeatureMatrix(np.array(labels, dtype=np.intp), tuple(keys), counts, tuple(word_ids),
                         tokens, np.concatenate(switching) if with_switching else None)


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


def chi2_select(matrix: FeatureMatrix, cols: np.ndarray, k: int) -> np.ndarray:
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
    """The words of a file read by read_lines, one per line, lowercased;
    blank lines and '#' comments skipped."""
    words = (line.split("\t")[0].strip() for line in read_lines(path))
    return frozenset(w.lower() for w in words if w and not w.startswith("#"))


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
