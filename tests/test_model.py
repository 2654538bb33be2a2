import gc
import importlib.util
import math
import random
import re
import tracemalloc
import warnings
import weakref
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from codeswitch import model as model_module, textfeat
from codeswitch.config import PipelineConfig, TrainConfig
from codeswitch.corpus import LabeledUtterance, Token, fold_indices, load_corpus
from codeswitch.model import (
    EvalReport,
    FittedPipeline,
    LinearModel,
    cross_validate_arms,
    evaluate,
    fit_pipeline,
    fold_reports,
    format_model,
    load_model,
    loss_and_grad,
    macro_f1,
    predict_proba,
    sigmoid,
    subsample_negatives,
    to_dense,
    train,
)
from codeswitch.preprocess import PreprocessConfig
from codeswitch.switching import N_FEATURES
from reference_encoder import dense_row, extract_features, pipeline_rows
from synth_corpus import switching_driven_corpus

BENCH = Path(__file__).resolve().parents[1] / "bench"

# word 1-grams: one feature per token, keyed by its lowercased surface
UNIGRAMS = {"kinds": frozenset({"word_ngram"}), "n_values": {"word_ngram": (1,)}}


def as_dense(X):
    """X as a dense array, one product with a unit vector per column (each
    sums one stored value and zeros, so it is exact)."""
    return np.column_stack([X @ unit for unit in np.eye(X.shape[1])])


def take_columns(X, cols):
    """The given columns of X, a dense array or a SparseMatrix."""
    cols = np.array(cols, dtype=np.intp)
    return X[:, cols] if isinstance(X, np.ndarray) else X.T.take(cols).T


def sv(values, dim):
    """A vectorize-style dense row: the values, then zeros up to dim."""
    row = np.zeros(dim)
    row[:len(values)] = values
    return row


def held_out_report(pipeline, corpus):
    """evaluate of the pipeline's probabilities for the corpus."""
    return evaluate(pipeline.predict_proba(corpus), [u.label for u in corpus])


def kfold(corpus, k, seed):
    """(train, test) sub-corpora of each fold of fold_indices."""
    return [(tuple(corpus[i] for i in train), tuple(corpus[i] for i in test))
            for train, test in fold_indices(len(corpus), k, seed)]


class TestTrain:
    def test_separable_1d(self):
        vectors = [sv([-1.0], 1), sv([1.0], 1)]
        model = train(to_dense(vectors), [0, 1], TrainConfig(l2=0.0))
        assert model.weights[0] > 0
        probs = predict_proba(model, to_dense(vectors))
        assert probs[0] < 0.5
        assert probs[1] >= 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            train(to_dense([sv([1.0], 1), sv([2.0], 1)]), [1, 1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train(to_dense([sv([1.0], 1), sv([1.0, 2.0], 2)]), [0, 1])

    def test_row_label_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one row per label"):
            train(to_dense([sv([1.0], 1), sv([-1.0], 1)]), [0, 1, 1])

    def test_deterministic(self):
        rng = random.Random(0)
        vectors = [sv([rng.gauss(0, 1) for _ in range(3)], 3) for _ in range(20)]
        labels = [rng.randint(0, 1) for _ in range(20)]
        labels[0], labels[1] = 0, 1
        a = train(to_dense(vectors), labels)
        b = train(to_dense(vectors), labels)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_loss_non_increasing(self):
        rng = random.Random(1)
        vectors = [sv([rng.gauss(0, 1)], 1) for _ in range(30)]
        labels = [1 if v[0] > 0 else 0 for v in vectors]
        labels[0] = 1 - labels[0]  # keep it non-trivial
        X = to_dense(vectors)
        y = np.array(labels, dtype=float)
        hyper = TrainConfig(l2=1e-3)
        model = train(X, labels, hyper)
        loss_start, _, _ = loss_and_grad(np.zeros(1), 0.0, X, y, hyper.l2)
        loss_end, _, _ = loss_and_grad(model.weights, model.bias, X, y, hyper.l2)
        assert loss_end <= loss_start + 1e-9

    def test_reports_how_it_converged(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        labels = (X @ [1.0, -2.0, 0.5] + rng.normal(size=40) > 0).astype(int).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train(X, labels)
        y = np.array(labels, dtype=float)
        loss, grad_w, grad_b = loss_and_grad(model.weights, model.bias, X, y, 1e-3)
        _, start_w, start_b = loss_and_grad(np.zeros(3), 0.0, X, y, 1e-3)
        assert model.converged and 1 <= model.iterations <= 20
        assert model.final_loss == loss
        assert model.grad_norm == pytest.approx(math.hypot(*grad_w, grad_b), rel=1e-12)
        assert model.grad_norm <= 1e-6 * math.hypot(*start_w, start_b)
        assert type(model.bias) is float

    def test_warns_once_when_stopped_unconverged(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        labels = (X[:, 0] > 0).astype(int).tolist()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = train(X, labels, TrainConfig(max_iter=1))
        assert [str(w.message).startswith("training did not converge") for w in caught] == [True]
        assert model.iterations == 1 and not model.converged

    def test_zero_start_is_the_default_start(self):
        """The default start takes the scores at zero as zeros, with no
        X @ v; a zero start given computes them, bit for bit the same, on a
        dense matrix and on a sparse one with negative entries, whose
        products at zero hold -0.0 terms."""
        rng = np.random.default_rng(2)
        dense = rng.normal(size=(40, 3))
        labels = (dense @ [1.0, -2.0, 0.5] + rng.normal(size=40) > 0).astype(int).tolist()
        rows, cols = np.nonzero(dense)
        sparse = textfeat.SparseMatrix(dense.shape, rows.astype(np.int32),
                                       cols.astype(np.int32), dense[rows, cols])
        for X in (dense, sparse):
            cold, zero = train(X, labels), train(X, labels, start=np.zeros(4))
            assert np.array_equal(cold.weights, zero.weights) and cold.bias == zero.bias
            assert (cold.iterations, cold.final_loss, cold.grad_norm, cold.converged) \
                == (zero.iterations, zero.final_loss, zero.grad_norm, zero.converged)

    def test_start_at_the_optimum_takes_no_iteration(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        labels = (X @ [1.0, -2.0, 0.5] + rng.normal(size=40) > 0).astype(int).tolist()
        cold = train(X, labels)
        start = np.append(cold.weights, cold.bias)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warm = train(X, labels, start=start)
        assert warm.iterations == 0 and warm.converged
        assert np.array_equal(warm.weights, cold.weights) and warm.bias == cold.bias
        assert (warm.final_loss, warm.grad_norm) == (cold.final_loss, cold.grad_norm)
        assert np.array_equal(start, np.append(cold.weights, cold.bias))  # not written to

    @pytest.mark.parametrize("start", [np.zeros(3), np.zeros(5), np.zeros((1, 4))])
    def test_start_of_another_shape_rejected(self, start):
        X = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
        with pytest.raises(ValueError, match="start has shape"):
            train(X, [0, 1], start=start)

    @pytest.mark.parametrize("settings", [dict(max_iter=0), dict(max_iter=math.inf),
                                          dict(tol=0.0), dict(tol=-1.0), dict(tol=math.nan),
                                          dict(tol=math.inf), dict(l2=-1.0), dict(l2=math.nan)])
    def test_rejects_settings_that_cannot_work(self, settings):
        with pytest.raises(ValueError, match="need finite max_iter >= 1, tol > 0 and l2 >= 0"):
            TrainConfig(**settings)


class TestPredictProba:
    def test_untrained_is_half(self):
        model = LinearModel(np.zeros(3), 0.0, TrainConfig())
        assert predict_proba(model, to_dense([sv([1, 2, 3], 3)])).tolist() == [0.5]

    def test_bias_ten(self):
        model = LinearModel(np.zeros(2), 10.0, TrainConfig())
        assert predict_proba(model, to_dense([sv([], 2)]))[0] == \
            pytest.approx(1 / (1 + math.exp(-10)), abs=1e-12)

    def test_monotone_in_positive_weight(self):
        model = LinearModel(np.array([2.0]), 0.0, TrainConfig())
        probs = predict_proba(model, to_dense([sv([x], 1) for x in (0.5, 1.0, 2.0)])).tolist()
        assert probs == sorted(probs)

    def test_dimension_mismatch(self):
        model = LinearModel(np.zeros(2), 0.0, TrainConfig())
        with pytest.raises(ValueError):
            predict_proba(model, to_dense([sv([1, 2, 3], 3)]))


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        n, d = 12, 4
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        eps = 1e-6
        for _ in range(100):
            w = rng.normal(size=d)
            b = float(rng.normal())
            l2 = float(rng.uniform(0, 0.5))
            _, grad_w, grad_b = loss_and_grad(w, b, X, y, l2)
            for j in range(d):
                step = np.zeros(d)
                step[j] = eps
                lp, _, _ = loss_and_grad(w + step, b, X, y, l2)
                lm, _, _ = loss_and_grad(w - step, b, X, y, l2)
                fd = (lp - lm) / (2 * eps)
                assert abs(grad_w[j] - fd) / max(abs(fd), 1e-8) < 1e-4
            lp, _, _ = loss_and_grad(w, b + eps, X, y, l2)
            lm, _, _ = loss_and_grad(w, b - eps, X, y, l2)
            fd = (lp - lm) / (2 * eps)
            assert abs(grad_b - fd) / max(abs(fd), 1e-8) < 1e-4


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([1, 0, 1], [1, 0, 1]).macro_f1 == 1.0

    def test_symmetric_confusion(self):
        # tp=1, fp=1, fn=1, tn=1
        report = macro_f1([1, 1, 0, 0], [1, 0, 1, 0])
        assert report.per_class_f1 == (0.5, 0.5)
        assert report.macro_f1 == 0.5
        assert report.confusion == (1, 1, 1, 1)

    def test_all_positive_predictions(self):
        report = macro_f1([1, 1], [1, 0])
        assert report.per_class_f1 == (pytest.approx(2 / 3), 0.0)
        assert report.macro_f1 == pytest.approx(1 / 3)

    def test_label_swap_invariance(self):
        preds, gold = [1, 0, 1, 1, 0], [1, 1, 0, 1, 0]
        a = macro_f1(preds, gold)
        b = macro_f1([1 - p for p in preds], [1 - g for g in gold])
        assert a.macro_f1 == b.macro_f1

    def test_degenerate_class_flagged(self):
        report = macro_f1([1, 1], [1, 1])
        assert report.degenerate_classes == (0,)
        assert report.per_class_f1 == (1.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            macro_f1([1], [1, 0])


def small_corpus():
    utts = []
    for i in range(6):
        tokens = (Token(f"w{i}", "hi"), Token("x", "en"), Token("y", "hi"))
        utts.append(LabeledUtterance(tokens, i % 2, str(i)))
    return tuple(utts)


def negative_proba(utterances, scorer):
    """The scorer's probability of each negative of the utterances, in order."""
    return [scorer(u) for u in utterances if u.label == 0]


class TestSubsampleNegatives:
    def test_positives_always_kept(self):
        corpus = small_corpus()
        result = subsample_negatives(corpus, negative_proba(corpus, lambda u: 0.0000001),
                                     tau=0.001)
        assert [u.id for u in result] == [u.id for u in corpus if u.label == 1]

    def test_nothing_below_threshold(self):
        corpus = small_corpus()
        result = subsample_negatives(corpus, negative_proba(corpus, lambda u: 0.5), tau=0.001)
        assert result == list(corpus)

    def test_threshold_application(self):
        scores = {"1": 0.0005, "3": 0.2, "5": 0.00001}
        corpus = small_corpus()  # odd ids are... labels: i % 2 -> 1,3,5 positive
        # relabel so 0,2,4 are positive and 1,3,5 negative with given scores
        corpus = tuple(LabeledUtterance(u.tokens, 1 - u.label, u.id) for u in corpus)
        result = subsample_negatives(corpus, negative_proba(corpus, lambda u: scores[u.id]),
                                     tau=0.001)
        assert [u.id for u in result] == ["0", "2", "3", "4"]

    def test_idempotent(self):
        corpus = small_corpus()
        scorer = lambda u: 0.0001 if u.id in ("0", "2") else 0.9
        once = subsample_negatives(corpus, negative_proba(corpus, scorer), tau=0.001)
        twice = subsample_negatives(once, negative_proba(once, scorer), tau=0.001)
        assert once == twice

    def test_bad_tau(self):
        corpus = small_corpus()
        with pytest.raises(ValueError, match="tau"):
            subsample_negatives(corpus, negative_proba(corpus, lambda u: 0.5), tau=0.0)

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_probability_count_must_be_the_negative_count(self, count):
        """Too few probabilities would end the pairing early, too many would
        go unread: both are errors, for the 3 negatives of small_corpus."""
        with pytest.raises(ValueError, match=f"{count} probabilities for 3 negatives"):
            subsample_negatives(small_corpus(), [0.5] * count, tau=0.001)

    def test_positives_alone_need_no_probability(self):
        positives = tuple(u for u in small_corpus() if u.label == 1)
        assert subsample_negatives(positives, [], tau=0.001) == list(positives)
        assert subsample_negatives(positives, np.array([]), tau=0.001) == list(positives)


def word_pool_corpus(n, seed, informative=False):
    """Random corpus; labels random unless informative."""
    rng = random.Random(seed)
    pool = [f"tok{j}" for j in range(15)]
    utts = []
    for i in range(n):
        tokens = tuple(Token(rng.choice(pool), rng.choice(["hi", "en"]))
                       for _ in range(8))
        label = rng.randint(0, 1)
        utts.append(LabeledUtterance(tokens, label, str(i)))
    return tuple(utts)


class CountedProducts:
    """A matrix that counts its products X @ v, and those of its transpose
    X.T @ v, in counts."""

    def __init__(self, X, counts, name="X @ v"):
        self.X, self.counts, self.name, self.shape = X, counts, name, X.shape

    @property
    def T(self):
        other = "X.T @ v" if self.name == "X @ v" else "X @ v"
        return CountedProducts(self.X.T, self.counts, other)

    def __matmul__(self, v):
        self.counts[self.name] += 1
        return self.X @ v


class CountedPasses(tuple):
    """A corpus that counts the passes over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def tags_of(utterance):
    return tuple(t.tag for t in utterance.tokens)


def record_profiled_rows(monkeypatch):
    """A list to which each row that textfeat.switching_block profiles
    appends its tags, in order."""
    profiled, block = [], textfeat.switching_block

    def recorded(rows):
        profiled.extend(tuple(t.tag for t in tokens) for tokens in rows)
        return block(rows)
    monkeypatch.setattr(textfeat, "switching_block", recorded)
    return profiled


def cross_validate(corpus, cfg, arms, k, seed=13):
    """cross_validate_arms as cmd_cv runs it, over fold_indices' folds and
    the corpus featurized once, with the switching block when an arm takes
    it: each arm's fold_reports, the skipped folds and the scores."""
    folds = fold_indices(len(corpus), k, seed)
    matrix = textfeat.featurize(corpus, cfg.kinds, cfg.n_values, with_switching=any(arms))
    scores, skipped = cross_validate_arms(matrix, folds, cfg, arms)
    return [fold_reports(matrix.labels, folds, z, skipped) for z in scores], skipped, scores


class TestCrossValidate:
    CFG = PipelineConfig(**UNIGRAMS, chi2_k=None,
                         use_indicative=False,
                         train_config=TrainConfig())

    def test_reports_and_aggregate(self):
        corpus = word_pool_corpus(100, seed=0)
        [(reports, mean)], skipped, _ = cross_validate(corpus, self.CFG, ((),), k=10)
        assert len(reports) + len(skipped) == 10
        assert [i for i, _ in reports] == [i for i in range(10) if i not in skipped]
        expected = sum(r.macro_f1 for _, r in reports) / len(reports)
        assert mean == expected

    def test_deterministic(self):
        corpus = word_pool_corpus(60, seed=1)
        [(a, a_mean)], _, a_scores = cross_validate(corpus, self.CFG, ((),), k=5)
        [(b, b_mean)], _, b_scores = cross_validate(corpus, self.CFG, ((),), k=5)
        assert a_mean == b_mean
        assert [r.confusion for _, r in a] == [r.confusion for _, r in b]
        assert np.array_equal(a_scores, b_scores, equal_nan=True)

    def test_random_features_near_chance(self):
        corpus = word_pool_corpus(300, seed=2)
        [(_, mean)], _, _ = cross_validate(corpus, self.CFG, ((),), k=10)
        assert abs(mean - 0.5) <= 0.07

    # both kinds, min_count and chi-squared both cut, lexicon, negations
    FULL = PipelineConfig(kinds=frozenset({"char_ngram", "word_ngram"}),
                          min_count=2, chi2_k=30, negation_words=frozenset({"tok3"}),
                          train_config=TrainConfig())

    @pytest.mark.parametrize("with_switching", [False, True])
    def test_equals_per_fold_fits(self, with_switching):
        corpus = word_pool_corpus(60, seed=5)
        cfg = replace(self.FULL, with_switching=with_switching)
        fits = [(fit_pipeline(train, cfg), test) for train, test in kfold(corpus, 4, seed=13)]
        assert all(len(pipeline.vocab) == 30 for pipeline, _ in fits)
        arm = range(N_FEATURES) if with_switching else ()
        [(reports, _)], skipped, _ = cross_validate(corpus, cfg, (arm,), k=4)
        assert skipped == ()
        assert reports == tuple((i, held_out_report(pipeline, test))
                                for i, (pipeline, test) in enumerate(fits))

    @pytest.mark.parametrize("n, k, seed", [(60, 4, 5), (12, 6, 3)])
    def test_scores_equal_direct_fold_fits(self, n, k, seed):
        """Each row's score under an arm is, bit for bit, X @ w + b of its
        fold's _fit and train on the corpus featurized with that arm's
        switching block, the with-switching train started from the fold's
        no-switching model, its switching weights zero; and NaN in a fold
        skipped for a single class."""
        corpus = word_pool_corpus(n, seed=seed)
        arms = (range(N_FEATURES), ())
        with (pytest.warns(UserWarning, match="single class") if n == 12 else nullcontext()):
            _, skipped, scores = cross_validate(corpus, self.FULL, arms, k=k)
        assert bool(skipped) == (n == 12)
        direct = [textfeat.featurize(corpus, self.FULL.kinds, self.FULL.n_values,
                                     with_switching=bool(arm)) for arm in arms]
        for i, (train_rows, test_rows) in enumerate(fold_indices(n, k, 13)):
            if i in skipped:
                assert np.isnan(scores[:, test_rows]).all()
                continue
            start = None
            for j in (1, 0):  # (), then all nine from its model
                matrix = direct[j]
                cols, lexicon, X = model_module._fit(matrix.take(train_rows), self.FULL)
                model = train(X, matrix.labels[train_rows], self.FULL.train_config, start)
                X_test = textfeat.training_matrix(matrix.take(test_rows), cols, lexicon,
                                                  self.FULL.negation_words)
                assert np.array_equal(scores[j][test_rows], X_test @ model.weights + model.bias)
                start = np.concatenate((model.weights, np.zeros(N_FEATURES), [model.bias]))

    def test_warm_arm_makes_fewer_products(self, monkeypatch, tmp_path):
        """Every fit makes one X.T @ v per X @ v, and one more X.T @ v for
        the gradient at zero, whose scores X @ 0 are zero: the Newton
        weights come from the probabilities of the last loss, not from
        another product.  On a bench/corpus_gen.py corpus at the default
        settings, each fold's with-switching fit, started from its
        no-switching fit, makes fewer products than the same fit from
        zero."""
        fits, fit = [], model_module.train

        def counted(X, labels, hyper, start=None):
            counts = Counter()
            fits.append((X, labels, hyper, start, counts))
            return fit(CountedProducts(X, counts), labels, hyper, start)
        monkeypatch.setattr(model_module, "train", counted)
        spec = importlib.util.spec_from_file_location("corpus_gen", BENCH / "corpus_gen.py")
        corpus_gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus_gen)
        corpus_gen.write_corpus(tmp_path / "cv.txt", 60, 1, "cv")
        corpus = load_corpus(tmp_path / "cv.txt", PreprocessConfig())
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "k=500 exceeds vocabulary size")
            cross_validate(corpus, PipelineConfig(), (range(N_FEATURES), ()), k=4)
        assert [start is None for *_, start, _ in fits] == [True, False] * 4
        for X, labels, hyper, start, counts in fits:
            assert counts["X @ v"] + 1 == counts["X.T @ v"] > 2
            if start is not None:
                cold = Counter()
                fit(CountedProducts(X, cold), labels, hyper)
                assert cold["X @ v"] + 1 == cold["X.T @ v"]
                assert cold["X @ v"] > counts["X @ v"]

    def test_extracts_each_utterance_once(self, monkeypatch):
        """The corpus is featurized once, in one pass over it; test folds
        are rows of that matrix."""
        corpus = CountedPasses(word_pool_corpus(40, seed=4))
        calls = []
        featurize = textfeat.featurize

        def counted(c, *args, **kwargs):
            calls.append(c)
            return featurize(c, *args, **kwargs)
        monkeypatch.setattr(textfeat, "featurize", counted)
        _, skipped, _ = cross_validate(corpus, self.FULL, ((),), k=5)
        assert skipped == ()
        assert len(calls) == 1 and calls[0] is corpus and corpus.passes == 1

    @pytest.mark.parametrize("min_count", [1, 0])
    def test_fold_vocabulary_holds_only_train_fold_features(self, monkeypatch, min_count):
        corpus = word_pool_corpus(30, seed=6)
        corpus = tuple(LabeledUtterance(u.tokens + (Token(f"only{u.id}", "en"),), u.label, u.id)
                       for u in corpus)
        fitted = []
        fit = model_module._fit

        def recorded(train_part, cfg):
            cols, lexicon, X = fit(train_part, cfg)
            fitted.append(({train_part.keys[c] for c in cols.tolist()},
                           {train_part.words[c] for c in train_part.tokens.cols.tolist()}))
            return cols, lexicon, X
        monkeypatch.setattr(model_module, "_fit", recorded)
        cfg = PipelineConfig(**UNIGRAMS, min_count=min_count, chi2_k=None)
        cross_validate(corpus, cfg, ((),), k=3)
        assert len(fitted) == 3
        for (vocab, words), (train_rows, _) in zip(fitted, fold_indices(len(corpus), 3, 13)):
            train_ids = {corpus[r].id for r in train_rows}
            assert len(train_ids) == 20
            # the fit ran on exactly the train rows
            assert {w for w in words if w.startswith("only")} == {f"only{i}" for i in train_ids}
            for u in corpus:
                assert (("word_ngram", f"only{u.id}") in vocab) == (u.id in train_ids)

    @staticmethod
    def fold_fits(corpus, cfg, arm, k, densify):
        """Each fold with two classes on either side, by index, with its
        test rows and the model and test matrix of the arm: its fold's _fit
        on the corpus featurized with the switching block, its training
        matrices, densified when densify, kept to the vocabulary, the two
        special columns and the arm's switching columns, and train started
        as cross_validate_arms starts it, from the fold's model of arm ()
        and zero switching weights unless the arm is ()."""
        matrix = textfeat.featurize(corpus, cfg.kinds, cfg.n_values, with_switching=True)
        fits = []
        for fold, rows in enumerate(fold_indices(len(corpus), k, 13)):
            train_part, test_part = parts = [matrix.take(r) for r in rows]
            if any(len(set(part.labels.tolist())) < 2 for part in parts):
                continue
            cols, lexicon, X_train = model_module._fit(train_part, cfg)
            X_test = textfeat.training_matrix(test_part, cols, lexicon, cfg.negation_words)
            d = textfeat.vector_dim(cols, False)
            if densify:
                X_train, X_test = as_dense(X_train), as_dense(X_test)
            start = None
            if arm:
                base = train(take_columns(X_train, range(d)), train_part.labels, cfg.train_config)
                start = np.concatenate((base.weights, np.zeros(len(arm)), [base.bias]))
            keep = [*range(d), *(d + i for i in arm)]
            model = train(take_columns(X_train, keep), train_part.labels, cfg.train_config, start)
            fits.append((fold, rows[1], model, take_columns(X_test, keep), test_part.labels))
        return fits

    @pytest.mark.parametrize("n, k, seed", [(60, 4, 5), (12, 6, 3)])
    def test_arms_equal_one_run_per_arm(self, n, k, seed):
        """Each arm's scores equal, bit for bit, those of a direct train on
        its fold's columns with the start cross_validate_arms gives it, and
        its reports those of the same fits on dense matrices."""
        corpus = word_pool_corpus(n, seed=seed)
        given = (range(N_FEATURES), (), (0, 1, 2))  # all nine, none, the switch counts
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            arms, skipped, scores = cross_validate(corpus, self.FULL, given, k=k)
        single_class = [w for w in caught if "has a single class" in str(w.message)]
        assert len(single_class) == len(skipped)  # once per fold, not per arm
        assert bool(skipped) == (n == 12)
        for arm, arm_scores in zip(given, scores):
            direct = np.full(n, np.nan)
            for _, test_rows, model, X_test, _ in self.fold_fits(corpus, self.FULL, arm, k,
                                                                  densify=False):
                direct[test_rows] = X_test @ model.weights + model.bias
            assert np.array_equal(direct, arm_scores, equal_nan=True)
        with (pytest.warns(UserWarning, match="single class") if n == 12 else nullcontext()):
            if n == 60:
                assert len({mean for _, mean in arms}) == 3
            assert np.array_equal(cross_validate(corpus, self.FULL, given[::-1], k=k)[2],
                                  scores[::-1], equal_nan=True)
        for arm, (reports, _) in zip(given, arms):
            dense = self.fold_fits(corpus, self.FULL, arm, k, densify=True)
            assert reports == tuple((fold, evaluate(predict_proba(model, X_test), labels))
                                    for fold, _, model, X_test, labels in dense)

    @pytest.mark.parametrize("arm, with_switching", [
        ((0, 0), True), ((N_FEATURES,), True), ((-1,), True), ((2, 9, 3), True), ((0,), False)],
        ids=[f"arm{i}" for i in range(5)])
    def test_bad_arm_is_an_error_before_featurizing(self, arm, with_switching, monkeypatch):
        """A repeated index, one outside range(9), or any index on a matrix
        featurized without its switching block is an error before any fold
        is fitted."""
        corpus = word_pool_corpus(12, seed=1)
        matrix = textfeat.featurize(corpus, self.FULL.kinds, self.FULL.n_values,
                                    with_switching=with_switching)

        def fitted(*args):
            raise AssertionError("fitted")
        monkeypatch.setattr(model_module, "_fit", fitted)
        width = N_FEATURES if with_switching else 0
        with pytest.raises(ValueError, match=rf"arms must be distinct indices in range\({width}\), "
                                             "got " + re.escape(str(((), arm)))):
            cross_validate_arms(matrix, fold_indices(len(corpus), 3, 13), self.FULL, ((), arm))

    def test_every_fold_degenerate_is_an_error(self):
        with pytest.raises(ValueError, match="every fold was degenerate"), \
                pytest.warns(UserWarning, match="single class"):
            cross_validate(word_pool_corpus(4, seed=1), self.CFG, (range(N_FEATURES), ()), k=4)

    def test_ablation_profiles_and_extracts_each_utterance_once(self, monkeypatch):
        """Whatever k is, the corpus is featurized once, in one pass over
        it, and each utterance is profiled once, in one row of a switching
        block: the folds, their lexicons and their indicative and negation
        columns all read the featurized matrix."""
        corpus = switching_driven_corpus(200, seed=3)
        calls, profiled = [], record_profiled_rows(monkeypatch)
        featurize = textfeat.featurize

        def counted(*args, **kwargs):
            calls.append(args[0])
            return featurize(*args, **kwargs)
        monkeypatch.setattr(textfeat, "featurize", counted)
        for k in (3, 5, 10):
            calls.clear()
            profiled.clear()
            counted_corpus = CountedPasses(corpus)
            _, skipped, _ = cross_validate(counted_corpus, self.FULL, (range(N_FEATURES), ()),
                                           k=k)
            assert skipped == ()
            assert calls == [counted_corpus] and counted_corpus.passes == 1
            assert profiled == [tags_of(u) for u in corpus]

    def test_no_leakage_from_test_fold(self, monkeypatch):
        """Fold 0 fits the same keys and lexicon when its test utterances
        are replaced by 'zzz' alone, and keeps no 'zzz' key or lexicon entry
        though 'zzz' is a word of the featurized matrix."""
        corpus = word_pool_corpus(40, seed=3)
        _, test_rows = fold_indices(len(corpus), 4, 13)[0]
        replaced = set(test_rows)
        mutated = tuple(LabeledUtterance((Token("zzz", "hi"),), u.label, u.id)
                        if r in replaced else u for r, u in enumerate(corpus))
        fits = []
        fit = model_module._fit

        def recorded(train_part, cfg):
            cols, lexicon, X = fit(train_part, cfg)
            fits.append((tuple(train_part.keys[c] for c in cols.tolist()), lexicon,
                         train_part.words))
            return cols, lexicon, X
        monkeypatch.setattr(model_module, "_fit", recorded)
        runs = []
        for c in (corpus, mutated):
            fits.clear()
            assert cross_validate(c, self.FULL, ((),), k=4)[1] == ()
            runs.append(fits[0])
        (keys, lexicon, _), (mutated_keys, mutated_lexicon, words) = runs
        assert "zzz" in words and lexicon
        assert (mutated_keys, mutated_lexicon) == (keys, lexicon)
        assert ("word_ngram", "zzz") not in mutated_keys and "zzz" not in mutated_lexicon


class TestFoldReports:
    def test_hand_computed(self):
        """Fold 0 scores -1e-17, whose sigmoid is exactly 0.5, so it counts
        as positive though z >= 0 would call it negative; fold 2 is skipped,
        so its NaN scores are never read."""
        labels = np.array([1, 0, 1, 0, 1, 0])
        folds = [([2, 3, 4, 5], [0, 1]), ([0, 1, 4, 5], [2, 3]), ([0, 1, 2, 3], [4, 5])]
        scores = np.array([-1e-17, -3.0, 2.0, 0.5, np.nan, np.nan])
        assert sigmoid(-1e-17) == 0.5 and not -1e-17 >= 0
        reports, mean = fold_reports(labels, folds, scores, (2,))
        assert reports == ((0, EvalReport(1.0, (1.0, 1.0), (1, 0, 0, 1))),
                           (1, EvalReport(1 / 3, (2 / 3, 0.0), (1, 1, 0, 0))))
        assert mean == (1.0 + 1 / 3) / 2

    def test_mean_adds_left_to_right(self, monkeypatch):
        """Ten folds of macro-F1 0.1 add up left to right to
        0.9999999999999999, where sum() gives 1.0 from Python 3.12 on; the
        mean is the former on every Python version."""
        reports = iter([EvalReport(0.1, (0.1, 0.1), (1, 0, 0, 1))] * 10)
        monkeypatch.setattr(model_module, "evaluate", lambda proba, labels: next(reports))
        folds = [([], [i]) for i in range(10)]
        _, mean = fold_reports(np.zeros(10, dtype=np.intp), folds, np.zeros(10), ())
        assert mean == 0.9999999999999999 / 10 != 1.0 / 10


class TestFitPipeline:
    """Both kinds, chi-squared selection, the lexicon, negations and
    the switching block, so every part of the training row is exercised."""

    CFG = PipelineConfig(kinds=frozenset({"char_ngram", "word_ngram"}),
                         chi2_k=20, negation_words=frozenset({"tok3"}),
                         with_switching=True)

    def test_extracts_each_training_utterance_once(self, monkeypatch):
        """The training corpus is featurized once, in one pass over it, and
        each utterance is profiled once."""
        corpus = CountedPasses(word_pool_corpus(40, seed=4))
        calls, profiled = [], record_profiled_rows(monkeypatch)
        featurize = model_module.featurize

        def counted(c, *args, **kwargs):
            calls.append(c)
            return featurize(c, *args, **kwargs)
        monkeypatch.setattr(model_module, "featurize", counted)
        fit_pipeline(corpus, self.CFG)
        assert len(calls) == 1 and calls[0] is corpus and corpus.passes == 1
        assert profiled == [tags_of(u) for u in corpus]

    def test_training_matrix_equals_serving_vectors(self, monkeypatch):
        corpus = word_pool_corpus(40, seed=4)
        matrices = []
        fit = model_module.train

        def captured(X, labels, hyper):
            matrices.append(X)
            return fit(X, labels, hyper)
        monkeypatch.setattr(model_module, "train", captured)
        pipeline = fit_pipeline(corpus, self.CFG)
        served = pipeline_rows(pipeline, corpus)
        assert len(pipeline.vocab) == 20
        assert (served[:, 20:] != 0).any(axis=0).all()  # specials and switching used
        assert len(matrices) == 1 and np.array_equal(as_dense(matrices[0]), served)


class TestMatrixScoring:
    """Probabilities of the training matrix against the reference encoder,
    sigmoid(pipeline_rows(pipeline, corpus) @ w + b)."""

    CFG = replace(TestFitPipeline.CFG, chi2_k=30)

    @staticmethod
    def assert_matches_reference(pipeline, corpus, probs):
        reference = sigmoid(pipeline_rows(pipeline, corpus)
                            @ pipeline.model.weights + pipeline.model.bias)
        np.testing.assert_allclose(probs, reference, rtol=0, atol=1e-12)
        assert np.array_equal(probs >= 0.5, reference >= 0.5)
        labels = np.array([u.label for u in corpus])
        assert evaluate(probs, labels) == macro_f1((reference >= 0.5).astype(int).tolist(),
                                                   labels.tolist())

    def test_cv_test_folds(self, monkeypatch):
        """Both ablation arms score each test fold as the reference encoder
        does with that arm's with_switching."""
        recorded = {"_fit": [], "train": [], "evaluate": []}

        def recording(name):
            original = getattr(model_module, name)

            def call(*args):
                recorded[name].append((args, original(*args)))
                return recorded[name][-1][1]
            return call
        for name in recorded:
            monkeypatch.setattr(model_module, name, recording(name))
        corpus = word_pool_corpus(60, seed=5)
        arms = (range(N_FEATURES), ())
        _, _, scores = cross_validate(corpus, self.CFG, arms, k=4)
        assert [len(calls) for calls in recorded.values()] == [4, 8, 8]
        folds = fold_indices(len(corpus), 4, 13)
        for i, (_, test_rows) in enumerate(folds):
            (train_part, _), (cols, lexicon, _) = recorded["_fit"][i]
            vocab = tuple(train_part.keys[c] for c in cols.tolist())
            test = tuple(corpus[r] for r in test_rows)
            (*_, none_start), none = recorded["train"][2 * i]  # () is fitted first
            (*_, every_start), every = recorded["train"][2 * i + 1]
            assert none_start is None
            assert np.array_equal(every_start, [*none.weights, *[0.0] * N_FEATURES, none.bias])
            for j, (arm, model) in enumerate(zip(arms, (every, none))):
                (probs, labels), _ = recorded["evaluate"][len(folds) * j + i]  # by arm, then fold
                assert labels.tolist() == [u.label for u in test]
                assert np.array_equal(probs, sigmoid(scores[j][test_rows]))
                pipeline = FittedPipeline(replace(self.CFG, with_switching=bool(arm)),
                                          vocab, lexicon, model)
                self.assert_matches_reference(pipeline, test, probs)

    def test_held_out_corpus(self):
        """predict_proba of a held-out corpus and vectorize of each of its
        utterances, for a model with and one without switching."""
        held_out = list(word_pool_corpus(20, seed=8))
        unseen = LabeledUtterance(held_out[0].tokens + (Token("zzzz", "en"),), 1, "unseen")
        unknown = LabeledUtterance((Token("qqqq", "en"), Token("xxxx", "hi")), 0, "unknown")
        corpus = tuple([unseen] + held_out + [unknown])
        for with_switching in (True, False):
            cfg = replace(self.CFG, with_switching=with_switching)
            pipeline = fit_pipeline(word_pool_corpus(40, seed=4), cfg)
            matrix = textfeat.featurize(corpus, cfg.kinds, cfg.n_values, pipeline.vocab)
            assert matrix.keys is pipeline.vocab
            assert len(textfeat.featurize(corpus, cfg.kinds, cfg.n_values).keys) \
                > len(pipeline.vocab)
            keys = [extract_features(u.tokens, cfg.kinds, cfg.n_values) for u in corpus]
            assert any(key not in pipeline.vocab for key in keys[0])  # unseen keys ...
            assert 0 in matrix.counts.rows.tolist()  # ... next to known ones
            assert not any(key in pipeline.vocab for key in keys[-1])
            assert len(corpus) - 1 not in matrix.counts.rows.tolist()
            self.assert_matches_reference(pipeline, corpus, pipeline.predict_proba(corpus))
            rows = pipeline_rows(pipeline, corpus)
            assert rows.shape[1] == textfeat.vector_dim(pipeline.vocab, with_switching)
            assert np.array_equal(to_dense([pipeline.vectorize(u) for u in corpus]), rows)


class TestSparseTraining:
    """The sparse training matrix against the dense rows it stands for."""

    CFG = PipelineConfig(**UNIGRAMS, min_count=2, chi2_k=None,
                         use_indicative=False, negation_words=frozenset())

    @classmethod
    def matrices(cls, with_switching=False):
        """Sparse and dense training matrices of a corpus with empty rows
        (first, middle, last: each utterance is one token seen once, which
        min_count drops) and all-zero trailing columns (no lexicon and no
        negation words), so a product's output length comes from the shape,
        not from the entries.  With switching, the rows are not empty, but
        their leading columns are."""
        solo = [LabeledUtterance((Token(f"solo{i}", "en"),), i % 2, f"solo{i}")
                for i in range(3)]
        body = list(word_pool_corpus(30, seed=2))
        corpus = tuple([solo[0]] + body[:15] + [solo[1]] + body[15:] + [solo[2]])
        cfg = cls.CFG
        matrix = textfeat.featurize(corpus, cfg.kinds, cfg.n_values,
                                    with_switching=with_switching)
        cols = textfeat.build_vocabulary(matrix, cfg.min_count)
        X = textfeat.training_matrix(matrix, cols, {}, cfg.negation_words)
        vocab = tuple(matrix.keys[c] for c in cols.tolist())
        dense = to_dense([dense_row(u, vocab, cfg.kinds, cfg.n_values, {}, cfg.negation_words,
                                    with_switching) for u in corpus])
        return X, dense, [u.label for u in corpus]

    def test_traps_present(self):
        _, dense, _ = self.matrices()
        empty_rows = np.flatnonzero(~dense.any(axis=1))
        assert empty_rows.tolist() == [0, 16, len(dense) - 1]
        assert np.flatnonzero(~dense.any(axis=0)).tolist() == [dense.shape[1] - 2,
                                                               dense.shape[1] - 1]

    def test_products_match_dense(self):
        X, dense, _ = self.matrices()
        rng = np.random.default_rng(3)
        assert X.shape == dense.shape and X.T.shape == dense.T.shape
        assert np.array_equal(as_dense(X), dense)
        for _ in range(5):
            v, r = rng.normal(size=dense.shape[1]), rng.normal(size=dense.shape[0])
            np.testing.assert_allclose(X @ v, dense @ v, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(X.T @ r, dense.T @ r, rtol=1e-12, atol=1e-12)

    def test_products_ignore_entry_order(self):
        X, dense, _ = self.matrices()
        order = np.random.default_rng(5).permutation(len(X.values))
        shuffled = textfeat.SparseMatrix(X.shape, X.rows[order], X.cols[order],
                                         X.values[order])
        rng = np.random.default_rng(6)
        for _ in range(5):
            v, r = rng.normal(size=dense.shape[1]), rng.normal(size=dense.shape[0])
            for got, plain, reference in ((shuffled @ v, X @ v, dense @ v),
                                          (shuffled.T @ r, X.T @ r, dense.T @ r)):
                np.testing.assert_allclose(got, plain, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(got, reference, rtol=1e-12, atol=1e-12)

    def test_take_keeps_each_rows_entries_in_order(self):
        """take of a matrix whose entries come in no row order: the given
        rows (empty ones too), each with its entries in their old order."""
        X, dense, _ = self.matrices()
        order = np.random.default_rng(8).permutation(len(X.values))
        shuffled = textfeat.SparseMatrix(X.shape, X.rows[order], X.cols[order],
                                         X.values[order])
        rows = [20, 0, 32, 5, 16]
        taken = shuffled.take(rows)
        assert taken.shape == (len(rows), X.shape[1])
        assert np.array_equal(as_dense(taken), dense[rows])
        for i, r in enumerate(rows):
            for got, old in ((taken.cols, shuffled.cols), (taken.values, shuffled.values)):
                assert got[taken.rows == i].tolist() == old[shuffled.rows == r].tolist()

    def test_scoring_product_copies_the_values_once(self):
        """Scoring needs one X @ w; it allocates one float per entry (the
        terms it sums) and the output, and keeps no copy of the entries."""
        corpus = word_pool_corpus(2500, seed=6)
        matrix = textfeat.featurize(corpus, {"word_ngram"}, {"word_ngram": (1, 2, 3)},
                                    with_switching=False)
        X = textfeat.training_matrix(matrix, textfeat.build_vocabulary(matrix), {}, frozenset())
        w = np.random.default_rng(7).normal(size=X.shape[1])
        assert len(X.values) > 40_000
        tracemalloc.start()
        try:
            X @ w
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * X.values.nbytes

    def test_leading_columns_match_dense(self):
        X, dense, _ = self.matrices(with_switching=True)
        plain, _, _ = self.matrices()
        d = plain.shape[1]
        assert X.shape[1] == d + 9 and dense[:, d:].any(axis=1).all()
        lead = X.T.take(np.arange(d)).T
        assert lead.shape == (len(dense), d) and lead.T.shape == (d, len(dense))
        assert np.array_equal(as_dense(lead), dense[:, :d])
        assert np.array_equal(as_dense(lead), as_dense(plain))
        rng = np.random.default_rng(4)
        for _ in range(5):
            v, r = rng.normal(size=d), rng.normal(size=len(dense))
            assert np.array_equal(lead @ v, plain @ v)
            assert np.array_equal(lead.T @ r, plain.T @ r)
            np.testing.assert_allclose(lead @ v, dense[:, :d] @ v, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(lead.T @ r, dense[:, :d].T @ r, rtol=1e-12, atol=1e-12)

    def test_train_matches_dense(self):
        """The two fits differ only as far as the solver's tolerance lets
        them: the objective and its gradient agree on the two matrices at
        each fit, both fits converge, and their weights differ by at most
        the strong-convexity bound of the l2 penalty, (|g_sparse| +
        |g_dense|) / l2.  (Bounding the difference by 1e-12 instead would
        pin the solver's path, not its answer.)"""
        X, dense, labels = self.matrices()
        l2 = self.CFG.train_config.l2
        sparse_fit = train(X, labels, self.CFG.train_config)
        dense_fit = train(dense, labels, self.CFG.train_config)
        assert sparse_fit.converged and dense_fit.converged
        assert np.abs(dense_fit.weights).max() > 0.1  # the fit moved away from zero
        y = np.array(labels, dtype=float)
        for fit in (sparse_fit, dense_fit):
            (sparse_loss, sparse_w, sparse_b), (dense_loss, dense_w, dense_b) = (
                loss_and_grad(fit.weights, fit.bias, matrix, y, l2) for matrix in (X, dense))
            assert abs(sparse_loss - dense_loss) <= 1e-12
            np.testing.assert_allclose(sparse_w, dense_w, rtol=0, atol=1e-12)
            assert abs(sparse_b - dense_b) <= 1e-12
        bound = (sparse_fit.grad_norm + dense_fit.grad_norm) / l2
        assert np.abs(sparse_fit.weights - dense_fit.weights).max() <= bound

    def test_products_without_entries_are_float(self):
        X = textfeat.SparseMatrix((2, 3), *(np.array([], dtype=dt) for dt in
                                            (np.intp, np.intp, np.float64)))
        for product in (X @ np.ones(3), X.T @ np.ones(2)):
            assert product.dtype == np.float64 and not product.any()

    def test_transpose_keeps_no_cycle(self):
        X, _, _ = self.matrices()
        refs = weakref.ref(X), weakref.ref(X.T)
        gc.disable()
        try:
            del X
            # freed by reference counting, not by the collector
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_wide_fit_memory_is_far_below_dense(self):
        # every token is unique, so the vocabulary grows with the corpus
        rng = random.Random(9)
        n, length = 400, 20
        corpus = tuple(
            LabeledUtterance(tuple(Token(f"w{i}x{j}", rng.choice(["hi", "en"]))
                                   for j in range(length)), i % 2, str(i))
            for i in range(n))
        cfg = PipelineConfig(**UNIGRAMS, chi2_k=None)
        tracemalloc.start()
        try:
            pipeline = fit_pipeline(corpus, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = n * pipeline.model.dim * 8
        assert pipeline.model.dim > n * length
        assert peak < dense_bytes / 5


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = random.Random(5)
        vectors = [sv([rng.gauss(0, 1) for _ in range(4)], 4) for _ in range(20)]
        labels = [rng.randint(0, 1) for _ in range(20)]
        labels[:2] = [0, 1]
        model = train(to_dense(vectors), labels)
        path = tmp_path / "model.txt"
        path.write_text(format_model(model), encoding="utf-8")
        loaded = load_model(path, expected_dim=4)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.training_meta == model.training_meta

    def test_roundtrip_of_a_numpy_scalar_bias(self, tmp_path):
        model = LinearModel(np.array([0.25, -1.5]), np.float64(4.586), TrainConfig())
        path = tmp_path / "model.txt"
        path.write_text(format_model(model), encoding="utf-8")
        assert path.read_text().splitlines()[3] == "4.586"
        loaded = load_model(path, expected_dim=2)
        assert loaded.bias == 4.586 and type(loaded.bias) is float
        assert np.array_equal(loaded.weights, model.weights)

    def test_rejects_the_format_before_newton_cg(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("codeswitch-linear-model v1\ndim 1\n"
                        "epochs 300 learning_rate 0.1 l2 0.001 seed 13\n0.5\n0.25\n")
        with pytest.raises(ValueError, match=f"{path}: unsupported model format version v1"):
            load_model(path)

    def test_dimension_validation(self, tmp_path):
        model = LinearModel(np.zeros(3), 0.0, TrainConfig())
        path = tmp_path / "model.txt"
        path.write_text(format_model(model), encoding="utf-8")
        with pytest.raises(ValueError, match="dim"):
            load_model(path, expected_dim=5)

    def test_rejects_non_model_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(path)
