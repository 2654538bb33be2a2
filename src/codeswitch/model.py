"""Logistic classifier over sparse feature matrices, macro-F1 evaluation
from (prediction, gold) pair counts, which add up across blocks of a corpus,
cross-validation over a featurized matrix and given folds that scores each
row out of fold under every arm of the switching ablation, a subset of its
columns, fold_reports of those scores, and negative sub-sampling, which
pairs a corpus's negatives, in order, with one probability each.

Training minimizes the mean binary cross-entropy with an L2 penalty on the
weights (bias unpenalized) by line-search Newton-CG from zero or from a
given start, so results are exactly reproducible, and stops on a gradient
norm relative to its value at zero.  Cross-validation starts each arm that
sees switching columns from its fold's no-switching fit.
Training and scoring (sigmoid of X @ w + b) both use textfeat.SparseMatrix,
whose time and memory grow with the stored entries; train and loss_and_grad
use only X.shape, X @ v and X.T @ v, so a dense ndarray works as well.
_fit, the one feature fit, fits the columns and lexicon on a featurized
matrix's rows and encodes those rows; fit_pipeline calls it, and so does
each cross-validation fold, on matrix.take of its train rows, so no fold
reads an utterance again.  A FittedPipeline holds the keys of its fitted
columns and scores a corpus by featurizing it over them into one training
matrix, whose rows its vectorize views densely; it codes those keys for
featurize once, on the first call that scores.  The settings,
TrainConfig and PipelineConfig, live in codeswitch.config.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from codeswitch.config import PipelineConfig, TrainConfig, check_tau
from codeswitch.corpus import NEGATIVE, POSITIVE, LabeledUtterance, read_lines
from codeswitch.switching import N_FEATURES
from codeswitch.textfeat import (
    FeatureKey,
    FeatureMatrix,
    FittedKeys,
    SparseMatrix,
    build_vocabulary,
    chi2_select,
    featurize,
    indicative_scores,
    training_matrix,
    vector_dim,
)

MODEL_FORMAT_VERSION = 2
MODEL_MAGIC = "codeswitch-linear-model"


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    training_meta: TrainConfig
    # how train's solver ended; not persisted, so None on a loaded model
    iterations: int | None = None
    final_loss: float | None = None
    grad_norm: float | None = None
    converged: bool | None = None

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class EvalReport:
    macro_f1: float
    per_class_f1: tuple[float, float]  # (positive-class F1, negative-class F1)
    confusion: tuple[int, int, int, int]  # (tp, fp, fn, tn) w.r.t. positive
    degenerate_classes: tuple[int, ...] = ()


def to_dense(rows: Sequence[np.ndarray]) -> np.ndarray:
    """The N x D matrix of N FittedPipeline.vectorize rows of one dimension."""
    return np.vstack(rows)


def sigmoid(z):
    """1 / (1 + exp(-z)) as exp(z - softplus(z)), stable for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    return np.exp(z - np.logaddexp(0.0, z))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed by numpy, not by BLAS, whose sums depend on its thread count."""
    return float(np.add.reduce(a * b))


def loss_and_grad(weights: np.ndarray, bias: float, X: np.ndarray | SparseMatrix,
                  y: np.ndarray, l2: float) -> tuple[float, np.ndarray, float]:
    """Mean binary cross-entropy plus (l2/2)||w||^2, with its gradient."""
    return _loss_grad_proba(weights, X @ weights + bias, X, y, l2)[:3]


def _loss_grad_proba(weights: np.ndarray, z: np.ndarray, X: np.ndarray | SparseMatrix,
                     y: np.ndarray, l2: float) -> tuple[float, np.ndarray, float, np.ndarray]:
    """loss_and_grad at the scores z = X @ w + b, and the probabilities
    sigmoid(z) it computed on the way, bit for bit."""
    # -log p(y|z) = softplus(z) - y*z and sigmoid(z) = exp(z - softplus(z)),
    # both stable for large |z|
    softplus = np.logaddexp(0.0, z)
    loss = float(np.mean(softplus - y * z)) + 0.5 * l2 * _dot(weights, weights)
    proba = np.exp(z - softplus)
    residual = proba - y
    grad_w = X.T @ residual / len(y) + l2 * weights
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b, proba


def _newton_step(X: np.ndarray | SparseMatrix, s: np.ndarray, l2: float, g: np.ndarray,
                 g_norm: float) -> np.ndarray:
    """Truncated conjugate gradients on H d = -g, H being the Hessian in
    theta = (w, b), H v = (X.T @ u + l2 v_w, sum(u)) with u = s (X @ v_w + v_b),
    stopped at a residual of min(0.1, sqrt(||g||)) ||g|| or after 50 steps
    or at a direction of no positive curvature; -g if that is the first."""
    bound = min(0.1, math.sqrt(g_norm)) * g_norm
    XT = X.T
    d, r, p, hp = np.zeros_like(g), -g, -g, np.empty_like(g)
    rr = _dot(r, r)
    for _ in range(50):
        u = X @ p[:-1]
        u += p[-1]
        u *= s
        np.add(XT @ u, l2 * p[:-1], out=hp[:-1])
        hp[-1] = np.add.reduce(u)
        curvature = _dot(p, hp)
        if curvature <= 0:
            break
        alpha = rr / curvature
        d += alpha * p
        r -= alpha * hp
        rr, rr_prev = _dot(r, r), rr
        if math.sqrt(rr) <= bound:
            break
        p *= rr / rr_prev
        p += r
    return d if d.any() else -g


def train(X: np.ndarray | SparseMatrix, labels: Sequence[int],
          hyper: TrainConfig = TrainConfig(), start: np.ndarray | None = None) -> LinearModel:
    """Fit logistic regression to the rows of X by line-search Newton-CG
    from theta = (w, b) = start, the weights then the bias, or from zero:
    each iteration takes a _newton_step, its curvature from the
    probabilities of the loss at theta, and halves it from 1 until the
    loss falls by 1e-4 of the step's linear decrease (Armijo).  Stops
    converged at ||g|| <= tol ||g0||, g0 being the gradient at zero
    whatever the start, or else warns once, after max_iter iterations or
    a failed line search.  Deterministic (inner products summed in numpy);
    raises on single-class input, when X has not one row per label, or on
    a start of other than X.shape[1] + 1 values."""
    if X.shape[0] != len(labels):
        raise ValueError("X and labels must have one row per label")
    y = np.asarray(labels, dtype=np.float64)
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("training data must contain both classes")

    def loss_at(theta, z=None):
        w = theta[:-1]
        loss, grad_w, grad_b, proba = _loss_grad_proba(
            w, X @ w + float(theta[-1]) if z is None else z, X, y, hyper.l2)
        return loss, np.append(grad_w, grad_b), proba

    theta = np.zeros(X.shape[1] + 1)
    # X @ 0 + 0 is +0.0 in every row of a finite X, so the zero start needs no X @ v
    loss, g, p = loss_at(theta, np.zeros(len(y)))
    g0_norm = math.sqrt(_dot(g, g))
    if start is not None:
        theta = np.array(start, dtype=np.float64)
        if theta.shape != (X.shape[1] + 1,):
            raise ValueError(f"start has shape {theta.shape}, expected ({X.shape[1] + 1},)")
        loss, g, p = loss_at(theta)
    g_norm = math.sqrt(_dot(g, g))
    iterations = 0
    while g_norm > hyper.tol * g0_norm and iterations < hyper.max_iter:
        iterations += 1
        step = _newton_step(X, p * (1.0 - p) / len(y), hyper.l2, g, g_norm)
        decrease, t = 1e-4 * _dot(g, step), 1.0
        for _ in range(50):
            trial = theta + t * step
            trial_loss, trial_g, trial_p = loss_at(trial)
            if trial_loss <= loss + t * decrease:
                break
            t /= 2
        else:
            break  # no decrease left within rounding: stop where we are
        theta, loss, g, p = trial, trial_loss, trial_g, trial_p
        g_norm = math.sqrt(_dot(g, g))
    converged = g_norm <= hyper.tol * g0_norm
    if not converged:
        warnings.warn(f"training did not converge: gradient norm {g_norm:.3g} after "
                      f"{iterations} iterations, above tol {hyper.tol!r} x {g0_norm:.3g}")
    return LinearModel(theta[:-1], float(theta[-1]), hyper, iterations, loss, g_norm, converged)


def predict_proba(model: LinearModel, X: np.ndarray | SparseMatrix) -> np.ndarray:
    """Probability of the positive class per row of X: sigmoid of the score."""
    if X.shape[1] != model.dim:
        raise ValueError(f"matrix dim {X.shape[1]} != model dim {model.dim}")
    return sigmoid(X @ model.weights + model.bias)


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def confusion_report(pairs: Counter) -> EvalReport:
    """Unweighted mean of per-class F1 scores, from the counts of
    (prediction, gold) pairs, so counts summed over parts of a corpus
    give the report of the whole.

    A class with zero predicted and zero actual instances contributes
    F1 = 0 and is flagged in degenerate_classes.
    """
    tp, fp, fn, tn = pairs[1, 1], pairs[1, 0], pairs[0, 1], pairs[0, 0]
    if not tp + fp + fn + tn:
        raise ValueError("empty prediction sequence")

    f1_pos = _f1(tp, fp, fn)
    f1_neg = _f1(tn, fn, fp)
    degenerate = tuple(cls for cls, (predicted, actual)
                       in ((1, (tp + fp, tp + fn)), (0, (tn + fn, tn + fp)))
                       if predicted == 0 and actual == 0)
    return EvalReport(
        macro_f1=(f1_pos + f1_neg) / 2,
        per_class_f1=(f1_pos, f1_neg),
        confusion=(tp, fp, fn, tn),
        degenerate_classes=degenerate,
    )


def subsample_negatives(utterances: Sequence[LabeledUtterance],
                        negative_proba: Sequence[float] | np.ndarray,
                        tau: float) -> list[LabeledUtterance]:
    """The utterances, in order, less the negatives found easy: the i-th
    negative is kept when negative_proba[i], its probability, is at least
    tau.  All positives are kept, so given the kept negatives'
    probabilities it keeps every utterance it kept.  A count of
    probabilities other than the count of negatives is a ValueError.
    """
    check_tau(tau)
    n_negatives = sum(u.label == NEGATIVE for u in utterances)
    if len(negative_proba) != n_negatives:
        raise ValueError(f"{len(negative_proba)} probabilities for {n_negatives} negatives")
    proba = iter(negative_proba)
    return [u for u in utterances if u.label == POSITIVE or next(proba) >= tau]


# --------------------------------------------------------------------
# End-to-end pipeline: feature fitting + training + evaluation
# --------------------------------------------------------------------

@dataclass(frozen=True)
class FittedPipeline:
    config: PipelineConfig
    vocab: tuple[FeatureKey, ...]  # the fitted features, in column order
    lexicon: Mapping[str, float]  # empty when config.use_indicative is off
    model: LinearModel

    @cached_property
    def _fitted_keys(self) -> FittedKeys:
        """The vocabulary coded for featurize, built on the first call that
        featurizes and kept for the others."""
        return FittedKeys(self.vocab)

    def _training_matrix(self, utterances: Iterable[LabeledUtterance]) -> SparseMatrix:
        """The utterances featurized over the fitted vocabulary, with the
        switching block exactly when config.with_switching, one row each."""
        cfg = self.config
        matrix = featurize(utterances, cfg.kinds, cfg.n_values, self._fitted_keys,
                           cfg.with_switching)
        return training_matrix(matrix, np.arange(len(self.vocab)), self.lexicon, cfg.negation_words)

    def vectorize(self, utterance: LabeledUtterance) -> np.ndarray:
        """The utterance's training-matrix row as a dense vector."""
        X = self._training_matrix((utterance,))
        row = np.zeros(X.shape[1])
        row[X.cols] = X.values
        return row

    def predict_proba(self, utterances: Iterable[LabeledUtterance]) -> np.ndarray:
        """Positive-class probability of each of the utterances, in order."""
        return predict_proba(self.model, self._training_matrix(utterances))


def _fit(matrix: FeatureMatrix, cfg: PipelineConfig
         ) -> tuple[np.ndarray, dict[str, float], SparseMatrix]:
    """The kept column ids (vocabulary, then chi-squared selection) and the
    lexicon, fitted on the matrix rows only, and the training matrix of
    those rows."""
    cols = build_vocabulary(matrix, cfg.min_count)
    if cfg.chi2_k is not None:
        cols = chi2_select(matrix, cols, cfg.chi2_k)
    lexicon = indicative_scores(matrix, cfg.lexicon_floor) if cfg.use_indicative else {}
    return cols, lexicon, training_matrix(matrix, cols, lexicon, cfg.negation_words)


def fit_pipeline(train_corpus: Iterable[LabeledUtterance], cfg: PipelineConfig
                 ) -> FittedPipeline:
    """Featurize the training corpus once and fit the pipeline on all of it."""
    matrix = featurize(train_corpus, cfg.kinds, cfg.n_values, with_switching=cfg.with_switching)
    cols, lexicon, X = _fit(matrix, cfg)
    vocab = tuple(matrix.keys[c] for c in cols.tolist())
    return FittedPipeline(cfg, vocab, lexicon, train(X, matrix.labels, cfg.train_config))


def confusion(proba: np.ndarray, labels: Sequence[int] | np.ndarray) -> Counter:
    """Counts of the (prediction, gold) pairs of the labels, each predicted
    positive at probability >= 0.5."""
    predictions, gold = (proba >= 0.5).astype(int).tolist(), np.asarray(labels).tolist()
    if len(predictions) != len(gold):
        raise ValueError("predictions and gold must have equal length")
    return Counter(zip(predictions, gold))


def evaluate(proba: np.ndarray, labels: Sequence[int] | np.ndarray) -> EvalReport:
    """Macro-F1 of the labels, each predicted positive at probability >= 0.5."""
    return confusion_report(confusion(proba, labels))


def cross_validate_arms(matrix: FeatureMatrix, folds: Sequence[tuple[Sequence[int], Sequence[int]]],
                        cfg: PipelineConfig, arms: Sequence[Sequence[int]]
                        ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Cross-validation over the matrix rows and the (train, test) folds,
    with all feature fitting on train rows, for each arm: the distinct
    switching-column indices, in SwitchProfile order, that its model sees,
    () being none and range(N_FEATURES) all; a matrix featurized without
    its switching block takes only ().  Each fold runs _fit once on
    matrix.take of its train rows and builds one training matrix of its
    test rows; an arm keeps their vocabulary, special and arm columns
    (X.T.take(keep).T).  In each fold the arm () is fitted first, from
    zero, and every other arm from its solution: its weights, zeros for
    the arm's switching columns, and its bias; an arm's scores therefore
    do not depend on the order of the arms.  Folds whose train or test
    part has a single class are skipped with a warning.  Returns the
    scores X @ w + b, a row per arm and a column per matrix row, each from
    the fold testing that row and NaN in a skipped fold, and the tuple of
    skipped folds.
    """
    width = 0 if matrix.switching is None else N_FEATURES
    if any(len(set(arm)) < len(arm) or not set(arm) <= set(range(width)) for arm in arms):
        raise ValueError(f"arms must be distinct indices in range({width}), got {arms}")
    scores = np.full((len(arms), len(matrix.labels)), np.nan)
    skipped: list[int] = []
    for fold_index, (train_rows, test_rows) in enumerate(folds):
        if any(len(set(matrix.labels[rows].tolist())) < 2 for rows in (train_rows, test_rows)):
            warnings.warn(f"fold {fold_index} has a single class; excluded")
            skipped.append(fold_index)
            continue
        cols, lexicon, X_train = _fit(matrix.take(train_rows), cfg)
        X_test = training_matrix(matrix.take(test_rows), cols, lexicon, cfg.negation_words)
        d = vector_dim(cols, False)
        base = None  # the fold's fit of arm (), once made
        for i in sorted(range(len(arms)), key=lambda j: bool(arms[j])):  # () first
            arm = arms[i]
            keep = np.append(np.arange(d), d + np.array(arm, dtype=np.intp))
            X_arm_train, X_arm_test = (X.T.take(keep).T for X in (X_train, X_test))
            start = None
            if arm and base is not None:
                start = np.concatenate((base.weights, np.zeros(len(arm)), [base.bias]))
            model = train(X_arm_train, matrix.labels[train_rows], cfg.train_config, start)
            if not arm:
                base = model
            scores[i, test_rows] = X_arm_test @ model.weights + model.bias
    if len(skipped) == len(folds):
        raise ValueError("every fold was degenerate; cannot aggregate")
    return scores, tuple(skipped)


def fold_reports(labels: np.ndarray, folds: Sequence[tuple[Sequence[int], Sequence[int]]],
                 scores: np.ndarray, skipped: Sequence[int]
                 ) -> tuple[tuple[tuple[int, EvalReport], ...], float]:
    """Each fold not skipped, by its index, with the evaluate report of
    sigmoid of its test rows' scores, one arm's row of cross_validate_arms,
    and the mean macro-F1 of those reports, added left to right in fold
    order from 0.0: not by sum(), which compensates from Python 3.12 on."""
    reports = tuple((i, evaluate(sigmoid(scores[test]), labels[test]))
                    for i, (_, test) in enumerate(folds) if i not in skipped)
    total = 0.0
    for _, report in reports:
        total += report.macro_f1
    return reports, total / len(reports)


# --------------------------------------------------------------------
# Model persistence: versioned flat text file
# --------------------------------------------------------------------

def format_model(model: LinearModel) -> str:
    """Header (magic + version, dim, hyperparameters), then bias, then one
    weight per line, all as decimal text."""
    meta = model.training_meta
    lines = [f"{MODEL_MAGIC} v{MODEL_FORMAT_VERSION}", f"dim {model.dim}",
             f"max_iter {meta.max_iter} tol {meta.tol!r} l2 {meta.l2!r}",
             f"{float(model.bias)!r}", *(f"{float(w)!r}" for w in model.weights)]
    return "".join(line + "\n" for line in lines)


def load_model(path: Union[str, Path],
               expected_dim: int | None = None) -> LinearModel:
    """Read a format_model file through codeswitch.corpus.read_lines; every
    error names the file, and the line where one line is at fault."""
    lines = "".join(read_lines(path)).splitlines()
    if not lines or not lines[0].startswith(MODEL_MAGIC):
        raise ValueError(f"not a model file: {path}")
    version = lines[0].split()[-1]
    if version != f"v{MODEL_FORMAT_VERSION}":
        raise ValueError(f"{path}: unsupported model format version {version}")
    if len(lines) < 4:
        raise ValueError(f"truncated model header in {path}")
    h = lines[2].split()
    if len(h) != 6 or h[0::2] != ["max_iter", "tol", "l2"]:
        raise ValueError(f"{path}: line 3: malformed model header, "
                         "expected 'max_iter M tol T l2 L'")

    def parse(convert, text, line):
        try:
            return convert(text)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ValueError(f"{path}: line {line}: expected {kind}, got {text!r}") from None

    dim = parse(int, lines[1].removeprefix("dim "), 2)
    if dim < 0:
        raise ValueError(f"{path}: line 2: negative model dim {dim}")
    if expected_dim is not None and dim != expected_dim:
        raise ValueError(f"{path}: model dim {dim} does not match expected {expected_dim}")
    hyper = [parse(convert, text, 3) for convert, text in zip((int, float, float), h[1::2])]
    try:
        meta = TrainConfig(*hyper)
    except ValueError as exc:
        raise ValueError(f"{path}: line 3: {exc}") from None
    if len(lines) != 4 + dim:
        raise ValueError(f"{path}: {len(lines) - 4} weight lines after the bias, expected {dim}")
    bias = parse(float, lines[3], 4)
    weights = np.array([parse(float, x, 5 + i) for i, x in enumerate(lines[4:])])
    if not (np.isfinite(bias) and np.isfinite(weights).all()):
        raise ValueError(f"non-finite model parameters in {path}")
    return LinearModel(weights, bias, meta)
