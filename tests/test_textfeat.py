import math
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from codeswitch.config import KIND_ORDER
from codeswitch.corpus import LabeledCorpus, LabeledUtterance, Token
from codeswitch.textfeat import (
    NGRAM_SEP,
    FeatureMatrix,
    SparseMatrix,
    build_vocabulary,
    _chi2,
    _feature_sort_key,
    chi2_scores,
    chi2_select,
    extract_features,
    featurize,
    indicative_scores,
    training_matrix,
    vector_dim,
)
from codeswitch.switching import N_FEATURES, switching_features
from reference_encoder import dense_row
from synth_corpus import switching_driven_corpus

# word 1-grams: one feature per token, keyed by its lowercased surface
UNIGRAMS = (frozenset({"word_ngram"}), {"word_ngram": (1,)})
NGRAM_SIZES = {"char_ngram": (3,), "word_ngram": (1, 2)}


def utterance(surfaces, label=1, uid="0", tag="hi"):
    return LabeledUtterance(tuple(Token(s, tag) for s in surfaces), label, uid)


def corpus(*utts):
    return LabeledCorpus(tuple(utts))


def keys_of(matrix, cols):
    """The feature keys of the columns cols of the matrix."""
    return tuple(matrix.keys[c] for c in cols.tolist())


def vocabulary(c, kinds, n_values=None, min_count=1):
    """The keys of the columns that build_vocabulary keeps of c's matrix."""
    matrix = featurize(c, kinds, n_values or {})
    return keys_of(matrix, build_vocabulary(matrix, min_count))


def unigram_matrix(c):
    return featurize(c, *UNIGRAMS)


def unigram_fit(c):
    """c's word 1-gram matrix and the column ids build_vocabulary keeps."""
    matrix = unigram_matrix(c)
    return matrix, build_vocabulary(matrix)


def encode(u, vocab, kinds, n_values, lexicon, negation_words, with_switching):
    """The training_matrix row of u alone, featurized over the keys vocab,
    as a dense vector, checked against the reference encoder."""
    matrix = featurize(corpus(u), kinds, n_values, vocab, with_switching)
    X = training_matrix(matrix, np.arange(len(vocab)), lexicon, negation_words)
    row = np.zeros(X.shape[1])
    row[X.cols] = X.values
    assert np.array_equal(row, dense_row(u, vocab, kinds, n_values, lexicon, negation_words,
                                         with_switching))
    return row


def entries(matrix):
    """The stored entries of the matrix's counts and tokens blocks, in
    order, as (row, feature key, count) and (row, word, value) triples."""
    return [[(r, names[c], v) for r, c, v in zip(block.rows.tolist(), block.cols.tolist(),
                                                 block.values.tolist())]
            for block, names in ((matrix.counts, matrix.keys), (matrix.tokens, matrix.words))]


def row_entries(matrix, i):
    """Row i's stored entries of the counts and tokens blocks, in order, as
    (feature key, count) and (word, value) pairs."""
    return [[(name, v) for r, name, v in block if r == i] for block in entries(matrix)]


def chi2_by_key(matrix, cols):
    return dict(zip(keys_of(matrix, cols), chi2_scores(matrix, cols)))


def grams(surfaces, kind, n):
    """The payloads of extract_features' kind n-grams of the utterance of
    the given surfaces, with their counts."""
    feats = extract_features([Token(s, "hi") for s in surfaces], frozenset({kind}), {kind: (n,)})
    assert {k for k, _ in feats} <= {kind}
    return Counter({payload: c for (_, payload), c in feats.items()})


def reference_features(tokens, kinds, n_values):
    """extract_features written one size at a time: each size's n-grams
    counted alone, then merged into one Counter in size order."""
    feats = Counter()
    if "char_ngram" in kinds:
        text = " ".join(t.surface for t in tokens).lower()
        for n in n_values["char_ngram"]:
            for gram, c in Counter(text[i:i + n] for i in range(len(text) - n + 1)).items():
                feats[("char_ngram", gram)] += c
    if "word_ngram" in kinds:
        surfaces = [t.surface.lower() for t in tokens]
        for n in n_values["word_ngram"]:
            for gram, c in Counter(NGRAM_SEP.join(surfaces[i:i + n])
                                   for i in range(len(surfaces) - n + 1)).items():
                feats[("word_ngram", gram)] += c
    return feats


class TestCharNgrams:
    def test_basic(self):
        assert grams(["abcd"], "char_ngram", 3) == Counter({"abc": 1, "bcd": 1})

    def test_shorter_than_n(self):
        assert grams(["ab"], "char_ngram", 3) == Counter()

    def test_with_space(self):
        assert grams(["koi", "to"], "char_ngram", 3) \
            == Counter({"koi": 1, "oi ": 1, "i t": 1, " to": 1})

    def test_bad_n(self):
        """featurize checks the sizes of every kind once per call, so also
        for a corpus with no utterance to extract."""
        for c in (corpus(utterance(["abc"])), corpus()):
            for kind in KIND_ORDER:
                for n in (0, -1):
                    with pytest.raises(ValueError,
                                       match=rf"{kind} sizes must be >= 1, got \[1, {n}\]"):
                        featurize(c, {kind}, {**NGRAM_SIZES, kind: (1, n)})


class TestWordNgrams:
    def test_bigrams(self):
        assert grams(["koi", "to", "pray"], "word_ngram", 2) \
            == Counter({f"koi{NGRAM_SEP}to": 1, f"to{NGRAM_SEP}pray": 1})

    def test_shorter_than_n(self):
        assert grams(["koi"], "word_ngram", 2) == Counter()

    def test_multiset_counts(self):
        assert grams(["a", "b", "a", "b"], "word_ngram", 2) \
            == Counter({f"a{NGRAM_SEP}b": 2, f"b{NGRAM_SEP}a": 1})

    @given(st.lists(st.text(min_size=1, max_size=4).filter(lambda s: s.split() == [s]),
                    max_size=8))
    def test_unigrams_count_each_lowercased_surface(self, surfaces):
        """Word 1-grams are the unigram features: one count per token of
        its lowercased surface, keyed by that surface alone."""
        expected = Counter(s.lower() for s in surfaces)
        assert grams(surfaces, "word_ngram", 1) == expected
        assert extract_features([Token(s, "hi") for s in surfaces], *UNIGRAMS) \
            == Counter({("word_ngram", w): n for w, n in expected.items()})


class TestExtractExact:
    # İ lowercases to two characters, and Σ to ς at the end of a word and σ
    # elsewhere; § is NGRAM_SEP, so a surface holding it can make a word
    # n-gram equal to one of another size.
    @given(st.lists(st.text("aBİΣσς§x", min_size=1, max_size=4), max_size=6),
           st.sampled_from([{"char_ngram"}, {"word_ngram"}, set(KIND_ORDER)]),
           st.permutations((2, 3, 5)), st.permutations((1, 2, 3)))
    def test_equals_per_size_reference(self, surfaces, kinds, char_n, word_n):
        """Keys, counts and insertion order equal those of the per-size
        reference, sizes longer than the utterance included."""
        tokens = [Token(s, "hi") for s in surfaces]
        n_values = {"char_ngram": tuple(char_n), "word_ngram": tuple(word_n)}
        assert list(extract_features(tokens, frozenset(kinds), n_values).items()) \
            == list(reference_features(tokens, kinds, n_values).items())

    def test_sizes_longer_than_the_utterance_cost_no_memory(self):
        """A size longer than the utterance yields no grams, and extracting
        it allocates nothing that grows with the size."""
        tokens = [Token("koi", "hi"), Token("to", "en")]
        kinds = frozenset(KIND_ORDER)
        tracemalloc.start()
        try:
            feats = extract_features(tokens, kinds, {"char_ngram": (3, 10**6),
                                                     "word_ngram": (1, 10**6)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(feats.items()) == list(extract_features(
            tokens, kinds, {"char_ngram": (3,), "word_ngram": (1,)}).items())
        assert peak < 2**20


class TestFeaturize:
    def test_rows_hold_the_extracted_counts(self):
        c = balanced_four_corpus()
        kinds = frozenset({"char_ngram", "word_ngram"})
        matrix = featurize(c, kinds, NGRAM_SIZES)
        keys = matrix.keys
        assert list(keys) == sorted(keys, key=_feature_sort_key)
        assert matrix.labels.tolist() == [u.label for u in c]
        for r, u in enumerate(c):
            row = matrix.take([r])
            cols, counts = row.counts.cols, row.counts.values
            assert dict(zip((keys[i] for i in cols.tolist()), counts.tolist())) \
                == extract_features(u.tokens, kinds, NGRAM_SIZES)
            assert [matrix.words[i] for i in row.tokens.cols.tolist()] \
                == [t.surface.lower() for t in u.tokens]
            assert row.tokens.values.tolist() == [1] * len(u.tokens)

    def test_take_equals_featurize_of_the_rows(self):
        """take's rows hold the entries of featurizing those rows alone:
        row by row in any row order, and entry for entry when the rows
        ascend, as fold_indices gives them."""
        c = corpus(utterance(["a", "b", "c", "d", "e", "f"], uid="0"),
                   utterance(["a", "B", "c", "d", "e"], label=0, uid="1"),
                   utterance(["koi"], label=0, uid="2"),  # no word 2- or 5-gram
                   utterance(["b", "c", "d", "e", "f", "g", "a"], uid="3"),
                   utterance(["x", "b", "c", "d", "e"], label=0, uid="4"))
        n_values = {"word_ngram": (2, 5)}
        matrix = featurize(c, {"word_ngram"}, n_values)
        for rows in ([4, 2, 0, 3], [4, 3, 2, 1, 0], [0, 2, 3, 4]):
            taken = matrix.take(rows)
            part = featurize(c.subset(c[r] for r in rows), {"word_ngram"}, n_values)
            assert taken.keys is matrix.keys and taken.words is matrix.words
            assert taken.labels.tolist() == part.labels.tolist() == [c[r].label for r in rows]
            assert taken.counts.shape == (len(rows), len(matrix.keys))
            assert taken.tokens.shape == (len(rows), len(matrix.words))
            # the row of utterance 2 stores no count, and every other row does
            assert sorted(set(taken.counts.rows.tolist())) \
                == [i for i, r in enumerate(rows) if r != 2]
            for i, r in enumerate(rows):
                assert row_entries(taken, i) == row_entries(part, i) == row_entries(matrix, r)
            if rows == sorted(rows):
                assert entries(taken) == entries(part)
            assert taken.switching.tobytes() == part.switching.tobytes() \
                == matrix.switching[rows].tobytes()

    def test_surface_holding_the_ngram_joiner_is_rejected(self):
        """The word 1-gram of a§b is the word 2-gram of a b, so a surface
        holding NGRAM_SEP is an error naming it whenever word n-grams above
        size 1 are extracted, over a fitted vocabulary too."""
        c = corpus(utterance([f"a{NGRAM_SEP}B", "a", "b"]), utterance(["c"], label=0, uid="1"))
        message = re.escape(repr(f"a{NGRAM_SEP}b"))
        for n_values in ({"word_ngram": (1, 2)}, {"word_ngram": (3,)}):
            with pytest.raises(ValueError, match=message):
                featurize(c, {"word_ngram"}, n_values)
        with pytest.raises(ValueError, match=message):
            featurize(c, {"word_ngram"}, {"word_ngram": (2,)}, [("word_ngram", "c")])
        # no word n-gram joins two surfaces: nothing can collide
        for kinds in ({"word_ngram"}, {"char_ngram"}):
            matrix = featurize(c, kinds, {"char_ngram": (3,), "word_ngram": (1,)})
            assert f"a{NGRAM_SEP}b" in matrix.words

    def test_switching_block_holds_each_rows_profile(self):
        tags = ["hi", "en", "hi", "rest", "en"]
        c = corpus(*(LabeledUtterance(tuple(Token(f"w{j}", tags[(i + j) % 5])
                                            for j in range(i + 1)), i % 2, str(i))
                     for i in range(6)))
        matrix = featurize(c, *UNIGRAMS)
        assert matrix.switching.shape == (6, N_FEATURES)
        assert matrix.switching.tolist() == [list(switching_features(u.tokens).as_tuple())
                                             for u in c]
        assert matrix.take([5, 1]).switching.tolist() == matrix.switching[[5, 1]].tolist()

    def test_switching_columns_need_the_switching_block(self):
        c = balanced_four_corpus()
        matrix = featurize(c, *UNIGRAMS, with_switching=False)
        assert matrix.switching is None and matrix.take([3, 0]).switching is None
        cols = build_vocabulary(matrix)
        X = training_matrix(matrix, cols, {}, frozenset())
        with_block = featurize(c, *UNIGRAMS)
        assert with_block.keys == matrix.keys
        Y = training_matrix(with_block, cols, {}, frozenset())
        assert Y.shape == (4, vector_dim(cols, True))
        Y = Y.leading_columns(X.shape[1])
        assert X.shape == (4, vector_dim(cols, False))
        assert [X.rows.tolist(), X.cols.tolist(), X.values.tolist()] == \
            [Y.rows.tolist(), Y.cols.tolist(), Y.values.tolist()]

    def test_fitted_vocabulary_keeps_only_its_keys(self):
        c = balanced_four_corpus()
        kinds, n_values = frozenset({"word_ngram"}), {"word_ngram": (1, 2)}
        full = featurize(c, kinds, n_values)
        vocab = full.keys[1::2]
        matrix = featurize(c, kinds, n_values, vocab)
        assert matrix.keys is vocab
        for r, u in enumerate(c):
            row = matrix.take([r])
            counts = extract_features(u.tokens, kinds, n_values)
            assert dict(zip((vocab[i] for i in row.counts.cols.tolist()),
                            row.counts.values.tolist())) \
                == {key: n for key, n in counts.items() if key in vocab}

    def test_row_entries_follow_the_extracted_key_order(self):
        """X @ w adds a row's terms in entry order, so byte-identical scores
        need each row's counts in extract_features' key order, with no
        vocabulary and over fitted vocabulary keys."""
        c = switching_driven_corpus(40, seed=3, pool_size=6)
        kinds = frozenset(KIND_ORDER)
        full = featurize(c, kinds, NGRAM_SIZES)
        fitted = keys_of(full, chi2_select(full, build_vocabulary(full, min_count=2), k=60))
        for vocab in (None, fitted):
            matrix = featurize(c, kinds, NGRAM_SIZES, vocab)
            counts = matrix.counts
            for r, u in enumerate(c):
                at = counts.rows == r
                row = list(zip((matrix.keys[i] for i in counts.cols[at].tolist()),
                               counts.values[at].tolist()))
                assert row == [(key, n) for key, n in
                               extract_features(u.tokens, kinds, NGRAM_SIZES).items()
                               if vocab is None or key in vocab]
                assert len(row) > 1

    def test_entries_follow_the_given_row_order(self):
        """Row i of take(rows) is row rows[i]; the entries stay in their
        stored order, so they are grouped by row when the rows ascend."""
        matrix = featurize(balanced_four_corpus(), *UNIGRAMS)
        taken = matrix.take([3, 0])
        (counts, tokens), (counts_0, tokens_0) = row_entries(taken, 0), row_entries(taken, 1)
        assert {key for key, _ in counts} == {("word_ngram", "plain"), ("word_ngram", "other")}
        assert [word for word, _ in tokens] == ["plain", "other"]
        assert {key for key, _ in counts_0} == {("word_ngram", "marker"), ("word_ngram", "shared")}
        assert [word for word, _ in tokens_0] == ["marker", "shared"]
        taken = matrix.take([0, 3])
        assert taken.counts.rows.tolist() == taken.tokens.rows.tolist() == [0, 0, 1, 1]
        assert {matrix.keys[i] for i in taken.counts.cols[:2].tolist()} \
            == {("word_ngram", "marker"), ("word_ngram", "shared")}
        assert [matrix.words[i] for i in taken.tokens.cols.tolist()] \
            == ["marker", "shared", "plain", "other"]


class TestBuildVocabulary:
    def test_unigram_enumeration(self):
        matrix = featurize(corpus(utterance(["koi", "to"])), *UNIGRAMS)
        cols = build_vocabulary(matrix)
        assert cols.dtype == np.intp and cols.tolist() == [0, 1]
        assert keys_of(matrix, cols) == (("word_ngram", "koi"), ("word_ngram", "to"))

    def test_min_count_threshold(self):
        c = corpus(utterance(["koi", "to"], uid="0"),
                   utterance(["to", "to"], label=0, uid="1"))
        vocab = vocabulary(c, *UNIGRAMS, min_count=2)
        assert ("word_ngram", "koi") not in vocab
        assert ("word_ngram", "to") in vocab

    def test_mixed_kind_ordering(self):
        c = corpus(utterance(["ab"]))
        vocab = vocabulary(c, kinds={"char_ngram", "word_ngram"},
                           n_values={"char_ngram": (2,), "word_ngram": (1,)})
        kinds_in_order = [k for k, _ in vocab]
        assert kinds_in_order == sorted(
            kinds_in_order, key=["char_ngram", "word_ngram"].index)
        # and payloads sorted within each kind
        assert list(vocab) == sorted(
            vocab, key=lambda f: (["char_ngram", "word_ngram"].index(f[0]), f[1]))

    def test_empty_vocabulary_is_error(self):
        with pytest.raises(ValueError, match="vocabulary is empty"):
            vocabulary(corpus(utterance(["koi"])), *UNIGRAMS, min_count=5)
        # no utterance has a word 5-gram, so no feature exists at all
        c = corpus(utterance(["koi", "to"]), utterance(["hai"], label=0, uid="1"))
        with pytest.raises(ValueError, match="vocabulary is empty"):
            vocabulary(c, kinds={"word_ngram"}, n_values={"word_ngram": (5,)})

    def test_unknown_kind_is_error(self):
        with pytest.raises(ValueError, match="unknown feature kinds"):
            featurize(corpus(utterance(["koi"])), {"word_ngram", "pos_tag"}, NGRAM_SIZES)


def balanced_four_corpus():
    """2 positives containing 'marker', 2 negatives without; 'shared'
    appears once in each class."""
    return corpus(
        utterance(["marker", "shared"], label=1, uid="0"),
        utterance(["marker", "filler"], label=1, uid="1"),
        utterance(["shared", "other"], label=0, uid="2"),
        utterance(["plain", "other"], label=0, uid="3"),
    )


class TestChi2:
    def test_perfectly_associated_feature(self):
        c = balanced_four_corpus()
        assert chi2_by_key(*unigram_fit(c))[("word_ngram", "marker")] == 4.0

    def test_independent_feature(self):
        c = balanced_four_corpus()
        assert chi2_by_key(*unigram_fit(c))[("word_ngram", "shared")] == 0.0

    def test_select_top_k(self):
        matrix, cols = unigram_fit(balanced_four_corpus())
        selected = keys_of(matrix, chi2_select(matrix, cols, k=2))
        assert len(selected) == 2
        assert ("word_ngram", "marker") in selected
        scores = chi2_by_key(matrix, cols)
        kept = min(scores[f] for f in selected)
        rejected = [scores[f] for f in keys_of(matrix, cols) if f not in selected]
        assert all(kept >= r for r in rejected)

    def test_select_matches_reference_ranking_with_ties(self):
        rng = random.Random(3)
        c = corpus(*(utterance([f"w{rng.randrange(60)}" for _ in range(4)],
                               label=i % 2, uid=str(i)) for i in range(30)))
        matrix, cols = unigram_fit(c)
        scores = chi2_by_key(matrix, cols)
        ranked = sorted(keys_of(matrix, cols), key=lambda f: (-scores[f], _feature_sort_key(f)))
        assert len(set(scores.values())) < len(cols) // 2  # many ties
        for k in (1, 7, 20):
            assert keys_of(matrix, chi2_select(matrix, cols, k=k)) == \
                tuple(sorted(ranked[:k], key=_feature_sort_key))

    def test_k_larger_than_vocab_warns(self):
        matrix, cols = unigram_fit(balanced_four_corpus())
        with pytest.warns(UserWarning):
            selected = chi2_select(matrix, cols, k=1000)
        assert selected.tolist() == cols.tolist()

    def test_label_swap_symmetry(self):
        c = balanced_four_corpus()
        flipped = c.subset(LabeledUtterance(u.tokens, 1 - u.label, u.id) for u in c)
        matrix, cols = unigram_fit(c)
        flipped_matrix = unigram_matrix(flipped)
        assert flipped_matrix.keys == matrix.keys
        assert chi2_by_key(matrix, cols) == chi2_by_key(flipped_matrix, cols)


class TestFoldFit:
    """A fold's fit runs on matrix.take(rows) and keeps column ids of the
    whole corpus's matrix; it must keep the features that the same fit keeps
    on a featurization of those rows alone, and build the same rows."""

    def test_taken_rows_fit_equals_the_fit_on_the_rows_alone(self):
        rng = random.Random(11)
        c = corpus(*(utterance([f"w{rng.randrange(25)}" for _ in range(rng.randint(1, 6))],
                               label=i % 2, uid=str(i)) for i in range(40)))
        kinds, n_values = frozenset({"word_ngram"}), {"word_ngram": (1, 2)}
        matrix = featurize(c, kinds, n_values)
        ascending = [r for r in range(len(c)) if r % 4 != 1]
        v = np.random.default_rng(12).normal(size=15 + 2 + N_FEATURES)
        for rows in (ascending[::-1], ascending):  # fold_indices gives ascending rows
            part = matrix.take(rows)
            alone = featurize(c.subset(c[r] for r in rows), kinds, n_values)
            assert len(alone.keys) < len(matrix.keys)  # the fold misses some features
            fits = []
            for m in (part, alone):
                vocab = build_vocabulary(m, min_count=2)
                cols = chi2_select(m, vocab, k=15)
                assert 15 == len(cols) < len(vocab) < len(m.keys)  # both cuts drop columns
                assert cols.tolist() == sorted(cols.tolist())
                fits.append((m, cols))
            assert keys_of(*fits[0]) == keys_of(*fits[1])
            lexicon = indicative_scores(part)
            assert lexicon == indicative_scores(alone)
            X, Y = (training_matrix(m, cols, lexicon, frozenset({"w3"})) for m, cols in fits)
            assert X.shape == Y.shape == (len(rows), 15 + 2 + N_FEATURES)
            for i in range(len(rows)):
                for a, b in ((X.cols, Y.cols), (X.values, Y.values)):
                    assert a[X.rows == i].tobytes() == b[Y.rows == i].tobytes()
            assert (X @ v).tobytes() == (Y @ v).tobytes()
            if rows == ascending:
                for a, b in ((X.rows, Y.rows), (X.cols, Y.cols), (X.values, Y.values)):
                    assert a.tobytes() == b.tobytes()


class TestChi2Exact:
    """Matrix scores against the integer reference _chi2.  At n = 20,000 the
    perfectly associated column has n * (ad - bc)^2 = 2e20, past int64."""

    @pytest.mark.parametrize("n", [2_000, 20_000])
    def test_equals_reference_bit_for_bit(self, n):
        rng = np.random.default_rng(0)
        labels = np.arange(n) % 2
        present = rng.random((n, 40)) < rng.random(40)
        present[:, 0] = labels == 1
        present[:, 1] = True
        present[:, 2] = False
        rows, cols = np.nonzero(present)
        keys = tuple(("word_ngram", f"f{j:02d}") for j in range(40))
        one_token = SparseMatrix((n, 1), np.arange(n), np.zeros(n, dtype=np.intp),
                                 np.ones(n, dtype=np.int8))
        matrix = FeatureMatrix(labels, keys,
                               SparseMatrix((n, len(keys)), rows, cols,
                                            np.ones(len(cols), dtype=np.int32)),
                               ("w",), one_token, np.zeros((n, N_FEATURES)))
        scores = chi2_scores(matrix, np.arange(len(keys)))
        n_pos = int(labels.sum())
        expected = []
        for column in present.T:
            a = int(np.count_nonzero(column & (labels == 1)))
            b = int(np.count_nonzero(column)) - a
            expected.append(_chi2(a, b, n_pos - a, n - n_pos - b))
        assert scores.tobytes() == np.array(expected).tobytes()
        assert scores[0] == n and scores[1] == scores[2] == 0.0


class TestIndicativeScores:
    def test_positive_only_token(self):
        utts = [utterance(["magic"] * 5, label=1, uid="0"),
                utterance(["dull"], label=0, uid="1")]
        lex = indicative_scores(unigram_matrix(corpus(*utts)))
        assert lex["magic"] == pytest.approx(math.log(6 / 1))

    def test_equal_counts_score_zero(self):
        utts = [utterance(["same"], label=1, uid="0"),
                utterance(["same"], label=0, uid="1")]
        lex = indicative_scores(unigram_matrix(corpus(*utts)))
        assert lex["same"] == 0.0

    def test_floor_drops_weak_tokens(self):
        utts = [utterance(["same", "strong"], label=1, uid="0"),
                utterance(["same"], label=0, uid="1")]
        lex = indicative_scores(unigram_matrix(corpus(*utts)), floor=0.5)
        assert "same" not in lex
        assert "strong" in lex

    def test_equals_counter_reference(self):
        """The lexicon of taken rows, against counting each lowercased
        surface of those utterances alone: the same words, scored bit for
        bit, and none for a word that occurs only in other rows."""
        rng = random.Random(5)
        c = corpus(*(utterance([rng.choice(["Ab", "ab", "AB"]) + str(rng.randrange(30))
                                for _ in range(rng.randint(1, 8))], label=i % 2, uid=str(i))
                     for i in range(50)))
        rows = list(range(0, 50, 3))
        pos, neg = Counter(), Counter()
        for r in rows:
            (pos if c[r].label == 1 else neg).update(t.surface.lower() for t in c[r].tokens)
        matrix = unigram_matrix(c)
        assert len(pos | neg) < len(matrix.words)
        lex = indicative_scores(matrix.take(rows))
        assert lex == {w: math.log((pos[w] + 1) / (neg[w] + 1)) for w in pos | neg}

    def test_single_class_rows_are_an_error(self):
        matrix = unigram_matrix(balanced_four_corpus())
        with pytest.raises(ValueError, match="both classes"):
            indicative_scores(matrix.take([0, 1]))


class TestVectorize:

    def test_no_hits_only_specials(self):
        c = balanced_four_corpus()
        vocab = vocabulary(c, *UNIGRAMS)
        lex = indicative_scores(unigram_matrix(c))
        u = utterance(["unseen"], uid="9")
        v = encode(u, vocab, *UNIGRAMS, lex, frozenset(), with_switching=False)
        assert all(i >= len(vocab) for i in np.flatnonzero(v))
        assert v.shape == (len(vocab) + 2,) and v.dtype == np.float64

    def test_switching_grows_dim_by_nine(self):
        c = balanced_four_corpus()
        vocab = vocabulary(c, *UNIGRAMS)
        u = utterance(["marker"], uid="9")
        plain = encode(u, vocab, *UNIGRAMS, {}, frozenset(), with_switching=False)
        with_sw = encode(u, vocab, *UNIGRAMS, {}, frozenset(), with_switching=True)
        assert len(with_sw) == len(plain) + 9

    def test_switching_never_changes_leading_block(self):
        c = balanced_four_corpus()
        vocab = vocabulary(c, *UNIGRAMS)
        lex = indicative_scores(unigram_matrix(c))
        u = utterance(["marker", "shared"], uid="9")
        plain = encode(u, vocab, *UNIGRAMS, lex, frozenset(), with_switching=False)
        with_sw = encode(u, vocab, *UNIGRAMS, lex, frozenset(), with_switching=True)
        assert np.array_equal(with_sw[:len(vocab) + 2], plain)

    def test_paper_sentence_composition(self):
        vocab = (("word_ngram", "koi"), ("word_ngram", "pray"))
        tokens = [("koi", "hi"), ("to", "hi"), ("pray", "en"), ("karo", "hi"),
                  ("mere", "hi"), ("liye", "hi"), ("bhi", "hi")]
        u = LabeledUtterance(tuple(Token(s, t) for s, t in tokens), 1, "0")
        dense = encode(u, vocab, *UNIGRAMS, {}, frozenset(), with_switching=True)
        assert dense[0] == 1.0 and dense[1] == 1.0  # koi, pray counts
        base = len(vocab) + 2
        expected_tail = (1, 1, 2, 1 / 7, 6 / 7, 2 / 7, 0.6998542122237653,
                         4 / 7, 0.4948716593053935)
        for offset, value in enumerate(expected_tail):
            assert dense[base + offset] == pytest.approx(value, abs=1e-12)

    def test_negation_dimension(self):
        c = balanced_four_corpus()
        vocab = vocabulary(c, *UNIGRAMS)
        u = utterance(["nahi", "not", "word"], uid="9")
        v = encode(u, vocab, *UNIGRAMS, {}, frozenset({"nahi", "not"}),
                   with_switching=False)
        assert v[len(vocab) + 1] == 2.0

    def test_deterministic(self):
        c = balanced_four_corpus()
        kinds, n_values = frozenset({"char_ngram", "word_ngram"}), {"char_ngram": (3,),
                                                                    "word_ngram": (1,)}
        vocab = vocabulary(c, kinds, n_values)
        lex = indicative_scores(unigram_matrix(c))
        u = utterance(["marker", "shared", "x"], uid="9")
        a = encode(u, vocab, kinds, n_values, lex, frozenset({"not"}), True)
        b = encode(u, vocab, kinds, n_values, lex, frozenset({"not"}), True)
        assert np.array_equal(a, b)
