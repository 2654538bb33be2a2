"""End-to-end acceptance gate.

Each test prints a single PASS line on success (run with -s to see them);
a failure surfaces as a normal pytest assertion error.
"""

import json
import math
import os
import random
import time
import warnings

import numpy as np
import pytest

from codeswitch.cli import _pipeline_config, build_parser, run
from codeswitch.config import PipelineConfig, TrainConfig
from codeswitch.corpus import (
    LabeledUtterance,
    Token,
    fold_indices,
    load_corpus,
    serialize_tagged_line,
)
from codeswitch.model import (
    cross_validate_arms,
    fold_reports,
    loss_and_grad,
    macro_f1,
    subsample_negatives,
)
from codeswitch.preprocess import segment_camel_case
from codeswitch.stats import ContingencyTable, phi_from_table
from codeswitch.switching import N_FEATURES, lang_run_vectors, switch_counts, switching_features
from codeswitch.textfeat import build_vocabulary, chi2_scores, chi2_select, featurize
from synth_corpus import switching_driven_corpus

PAPER_LINE = "1\tkoi_hi to_hi pray_en karo_hi mere_hi liye_hi bhi_hi"


def ok(n, message):
    print(f"ACCEPTANCE {n}: PASS ({message})")


def test_01_golden_worked_example(tmp_path):
    start = time.monotonic()
    path = tmp_path / "paper.txt"
    path.write_text(PAPER_LINE + "\n", encoding="utf-8")
    tokens = load_corpus(path)[0].tokens
    features = tuple(vars(switching_features(tokens)).values())
    expected = (1, 1, 2, 0.142857, 0.857143, 0.285714, 0.699854, 0.571429, 0.494872)
    assert features == pytest.approx(expected, abs=1e-6)
    assert math.floor(features[6] * 100) / 100 == 0.69
    assert math.floor(features[8] * 100) / 100 == 0.49
    assert time.monotonic() - start < 1.0
    ok(1, "golden feature vector matches to 1e-6")


def test_02_oracle_equivalence_and_symmetry():
    def oracle_vectors(tokens):
        hi_en, en_hi = [], []
        for i, tok in enumerate(tokens):
            before = tokens[:i]
            hi_en.append(sum(1 for t in before if t.tag == "hi")
                         if tok.tag == "en" else 0)
            en_hi.append(sum(1 for t in before if t.tag == "en")
                         if tok.tag == "hi" else 0)
        return tuple(hi_en), tuple(en_hi)

    def oracle_counts(tokens):
        tags = [t.tag for t in tokens if t.tag != "rest"]
        en_hi = sum(1 for i in range(len(tags) - 1)
                    if (tags[i], tags[i + 1]) == ("en", "hi"))
        hi_en = sum(1 for i in range(len(tags) - 1)
                    if (tags[i], tags[i + 1]) == ("hi", "en"))
        return en_hi, hi_en, en_hi + hi_en

    swap = {"hi": "en", "en": "hi", "rest": "rest"}
    rng = random.Random(99)
    for _ in range(10_000):
        length = rng.randint(1, 50)
        tokens = tuple(Token(f"w{i}", rng.choice(["hi", "en", "rest"]))
                       for i in range(length))
        v = lang_run_vectors(tokens)
        assert (v.hi_en, v.en_hi) == oracle_vectors(tokens)
        assert switch_counts(tokens) == oracle_counts(tokens)

        f = switching_features(tokens)
        g = switching_features(tuple(Token(t.surface, swap[t.tag])
                                     for t in tokens))
        assert (g.en_hi_switches, g.hi_en_switches, g.v) == \
            (f.hi_en_switches, f.en_hi_switches, f.v)
        assert (g.fraction_en, g.fraction_hi) == (f.fraction_hi, f.fraction_en)
        assert (g.mean_hi_en, g.stddev_hi_en) == (f.mean_en_hi, f.stddev_en_hi)
        assert (g.mean_en_hi, g.stddev_en_hi) == (f.mean_hi_en, f.stddev_hi_en)
    ok(2, "10,000 random sequences match the brute-force oracle exactly")


def test_03_phi_correctness():
    def pearson(xs, ys):
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        vx = sum((x - mx) ** 2 for x in xs)
        vy = sum((y - my) ** 2 for y in ys)
        return cov / math.sqrt(vx * vy)

    rng = random.Random(4)
    checked = 0
    for _ in range(1000):
        n11, n10, n01, n00 = (rng.randint(0, 30) for _ in range(4))
        phi = phi_from_table(ContingencyTable(n11, n10, n01, n00))
        if phi is None:
            continue
        labels = [1] * (n11 + n10) + [0] * (n01 + n00)
        qs = [1] * n11 + [0] * n10 + [1] * n01 + [0] * n00
        assert abs(phi - pearson(labels, qs)) < 1e-12
        checked += 1
    assert checked > 900
    assert phi_from_table(ContingencyTable(5, 0, 0, 5)) == 1.0
    assert phi_from_table(ContingencyTable(1, 1, 1, 1)) == 0.0
    ok(3, f"phi matched Pearson within 1e-12 on {checked} random tables")


def ablation_means(corpus, cfg):
    """Mean 10-fold macro-F1 with and without the switching features, from
    one two-arm cross_validate_arms over the corpus featurized once."""
    folds = fold_indices(len(corpus), 10, 13)
    matrix = featurize(corpus, cfg.kinds, cfg.n_values, with_switching=True)
    scores, skipped = cross_validate_arms(matrix, folds, cfg, (range(N_FEATURES), ()))
    return tuple(fold_reports(matrix.labels, folds, z, skipped)[1] for z in scores)


def test_04_switching_features_improve_cv_macro_f1():
    start = time.monotonic()
    corpus = switching_driven_corpus(2000, seed=42)
    cfg = PipelineConfig(kinds=frozenset({"word_ngram"}), n_values={"word_ngram": (1,)},
                         chi2_k=None, use_indicative=False,
                         train_config=TrainConfig())
    with_sw, without = ablation_means(corpus, cfg)
    assert abs(without - 0.5) <= 0.07
    delta = with_sw - without
    assert delta >= 0.10
    assert time.monotonic() - start < 60.0
    ok(4, f"ablation delta {delta:.3f} >= 0.10; baseline {without:.3f} within 0.5 +/- 0.07")


def test_04c_ablation_at_cli_defaults(monkeypatch):
    """The ablation at the CLI's default settings (both kinds,
    chi-squared top 500, lexicon, negations): the arm without switching
    reads near chance, as the labels depend on switching alone, and every
    fit converges."""
    start = time.monotonic()
    monkeypatch.delenv("CODESWITCH_CONFIG", raising=False)
    cfg = _pipeline_config(build_parser().parse_args(["cv", "corpus.txt"]))
    corpus = switching_driven_corpus(2000, seed=42)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with_sw, without = ablation_means(corpus, cfg)
    assert not [w for w in caught if "did not converge" in str(w.message)]
    assert abs(without - 0.5) <= 0.07
    delta = with_sw - without
    assert delta > 0
    assert time.monotonic() - start < 60.0
    ok("4c", f"CLI-default ablation delta {delta:.3f} > 0; baseline "
             f"{without:.3f} within 0.5 +/- 0.07")


def test_04b_user_supplied_datasets_if_present(tmp_path):
    dataset_dir = os.environ.get("CODESWITCH_DATASETS")
    if not dataset_dir:
        pytest.skip("set CODESWITCH_DATASETS to a directory of tagged "
                    "corpora to check the ablation delta on real data")
    for name in sorted(os.listdir(dataset_dir)):
        out = tmp_path / f"{name}.json"
        assert run(["cv", os.path.join(dataset_dir, name), "--k", "10",
                    "--ablate-switching", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["delta_macro_f1"] > 0, name
    ok(4, "positive ablation delta on every supplied dataset")


def test_05_gradient_check():
    rng = np.random.default_rng(11)
    n, d = 15, 5
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n).astype(float)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = float(rng.uniform(0, 0.3))
        _, grad_w, grad_b = loss_and_grad(w, b, X, y, l2)
        numeric = np.empty(d + 1)
        for j in range(d):
            step = np.zeros(d)
            step[j] = eps
            lp, _, _ = loss_and_grad(w + step, b, X, y, l2)
            lm, _, _ = loss_and_grad(w - step, b, X, y, l2)
            numeric[j] = (lp - lm) / (2 * eps)
        lp, _, _ = loss_and_grad(w, b + eps, X, y, l2)
        lm, _, _ = loss_and_grad(w, b - eps, X, y, l2)
        numeric[d] = (lp - lm) / (2 * eps)
        analytic = np.append(grad_w, grad_b)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4
    ok(5, f"worst relative gradient error {worst:.2e} < 1e-4")


def test_06_subsampling_invariants():
    rng = random.Random(21)
    for trial in range(50):
        n = rng.randint(4, 40)
        utts = tuple(
            LabeledUtterance((Token(f"w{i}", rng.choice(["hi", "en"])),),
                             rng.randint(0, 1), str(i))
            for i in range(n))
        scores = {u.id: rng.random() * 0.01 for u in utts}
        proba = lambda us: [scores[u.id] for u in us if u.label == 0]  # one per negative
        labeled = lambda us, label: tuple(u for u in us if u.label == label)
        tau = 0.001
        result = subsample_negatives(utts, proba(utts), tau)
        assert labeled(result, 1) == labeled(utts, 1)
        expected_negatives = tuple(u for u in labeled(utts, 0)
                                   if scores[u.id] >= tau)
        assert labeled(result, 0) == expected_negatives
        again = subsample_negatives(result, proba(result), tau)
        assert again == result
    ok(6, "positives preserved, threshold exact, idempotent on 50 corpora")


def test_07_macro_f1_hand_cases():
    assert macro_f1([1, 1, 0, 0], [1, 0, 1, 0]).macro_f1 == 0.5
    report = macro_f1([1, 1], [1, 0])
    assert report.macro_f1 == pytest.approx(1 / 3, abs=0)
    assert report.per_class_f1[0] == pytest.approx(2 / 3, abs=0)
    ok(7, "confusion (1,1,1,1) -> 0.5; all-positive -> 1/3")


def test_08_camel_case_segmentation():
    assert segment_camel_case("AadabArzHai") == ["Aadab", "Arz", "Hai"]
    ok(8, "#AadabArzHai -> [Aadab, Arz, Hai]")


def test_09_chi_squared():
    utts = (
        LabeledUtterance((Token("marker", "hi"), Token("shared", "hi")), 1, "0"),
        LabeledUtterance((Token("marker", "hi"), Token("alpha", "hi")), 1, "1"),
        LabeledUtterance((Token("shared", "hi"), Token("beta", "hi")), 0, "2"),
        LabeledUtterance((Token("gamma", "hi"), Token("beta", "hi")), 0, "3"),
    )
    matrix = featurize(utts, {"word_ngram"}, {"word_ngram": (1,)})
    cols = build_vocabulary(matrix)
    vocab = [matrix.keys[c] for c in cols.tolist()]
    scores = dict(zip(vocab, chi2_scores(matrix, cols)))
    assert scores[("word_ngram", "marker")] == 4.0
    assert scores[("word_ngram", "shared")] == 0.0
    for k in (1, 3, len(vocab), len(vocab) + 10):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            selected = [matrix.keys[c] for c in chi2_select(matrix, cols, k).tolist()]
        assert len(selected) == min(k, len(vocab))
        kept = {scores[f] for f in selected}
        rejected = [scores[f] for f in vocab
                    if f not in selected]
        assert all(min(kept) >= r for r in rejected)
    ok(9, "associated feature scores 4.0, independent 0.0, top-k exact")


def test_10_cv_determinism_byte_identical(tmp_path):
    corpus_path = tmp_path / "synth.txt"
    corpus_path.write_text("".join(serialize_tagged_line(u) + "\n"
                                   for u in switching_driven_corpus(100, seed=3)),
                           encoding="utf-8")
    args = ["cv", str(corpus_path), "--k", "5", "--seed", "13",
            "--kinds", "word_ngram", "--word-n", "1", "--chi2-k", "0", "--ablate-switching"]
    a = tmp_path / "run_a.json"
    b = tmp_path / "run_b.json"
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ok(10, "two cv runs produced byte-identical reports")
