import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from codeswitch import switching
from codeswitch.corpus import LabeledUtterance, Token
from codeswitch.stats import ContingencyTable, phi_from_table, rates_from_table, summarize

# hi-en-hi satisfies the embedding property; all-hi does not
Q_TOKENS = (Token("a", "hi"), Token("b", "en"), Token("c", "hi"))
NOT_Q_TOKENS = (Token("a", "hi"), Token("b", "hi"))


def utt(q, label, uid):
    return LabeledUtterance(Q_TOKENS if q else NOT_Q_TOKENS, label, str(uid))


def corpus_from_cells(n11, n10, n01, n00):
    utts = []
    for q, label, n in ((True, 1, n11), (False, 1, n10),
                        (True, 0, n01), (False, 0, n00)):
        for _ in range(n):
            utts.append(utt(q, label, len(utts)))
    return tuple(utts)


def mean_switches(corpus):
    s = summarize(corpus)
    return s.avg_switch_pos, s.avg_switch_neg


def pearson(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


class TestConditionalRates:
    def test_perfect_association(self):
        corpus = corpus_from_cells(4, 0, 0, 4)
        assert rates_from_table(summarize(corpus).counts) == (1.0, 0.0)

    def test_mixed_cells(self):
        corpus = corpus_from_cells(2, 1, 2, 3)
        assert rates_from_table(summarize(corpus).counts) == (0.5, 0.25)

    def test_empty_cell_undefined(self):
        p_q, p_not_q = rates_from_table(summarize(corpus_from_cells(2, 0, 1, 0)).counts)
        assert p_q == pytest.approx(2 / 3)
        assert p_not_q is None


class TestAverageSwitching:
    def test_hand_means(self):
        # positives with V = {2, 4}, negatives with V = {1, 1};
        # an alternating tag sequence of v transitions has exactly V = v
        def seq(v):
            tags = ["hi"]
            for i in range(v):
                tags.append("en" if tags[-1] == "hi" else "hi")
            return tuple(Token(f"w{i}", t) for i, t in enumerate(tags))
        utts = [
            LabeledUtterance(seq(2), 1, "0"),
            LabeledUtterance(seq(4), 1, "1"),
            LabeledUtterance(seq(1), 0, "2"),
            LabeledUtterance(seq(1), 0, "3"),
        ]
        corpus = tuple(utts)
        assert mean_switches(corpus) == (3.0, 1.0)

    def test_single_language_corpus(self):
        corpus = corpus_from_cells(0, 2, 0, 2)
        assert mean_switches(corpus) == (0.0, 0.0)

    def test_empty_class_undefined(self):
        utts = (LabeledUtterance(NOT_Q_TOKENS, 1, "0"),)
        avg_pos, avg_neg = mean_switches(utts)
        assert avg_pos == 0.0
        assert avg_neg is None


def test_summarize_reads_each_utterances_tags_once():
    """summarize gets Q and V of an utterance from one reading of its tags."""
    corpus = corpus_from_cells(3, 2, 4, 1)
    with mock.patch.object(switching, "_tag_letters", wraps=switching._tag_letters) as read:
        summarize(corpus)
    assert [c.args[0] for c in read.call_args_list] == [u.tokens for u in corpus]


class TestPhi:
    def test_diagonal_table(self):
        assert phi_from_table(summarize(corpus_from_cells(2, 0, 0, 2)).counts) == 1.0

    def test_independent_table(self):
        assert phi_from_table(summarize(corpus_from_cells(1, 1, 1, 1)).counts) == 0.0

    def test_hand_value(self):
        assert phi_from_table(summarize(corpus_from_cells(3, 1, 1, 3)).counts) == 0.5

    def test_zero_marginal_undefined(self):
        assert phi_from_table(summarize(corpus_from_cells(2, 3, 0, 0)).counts) is None

    def test_counts_consistent_with_rates(self):
        corpus = corpus_from_cells(3, 2, 4, 1)
        s = summarize(corpus)
        t = s.counts
        assert t == ContingencyTable(3, 2, 4, 1)
        assert t.n11 + t.n10 + t.n01 + t.n00 == len(corpus)
        assert s.p_pos_given_q == t.n11 / (t.n11 + t.n01)
        assert s.p_pos_given_not_q == t.n10 / (t.n10 + t.n00)


cells = st.tuples(st.integers(0, 20), st.integers(0, 20),
                  st.integers(0, 20), st.integers(0, 20))


@given(cells)
@settings(max_examples=200)
def test_phi_equals_pearson(cell_counts):
    n11, n10, n01, n00 = cell_counts
    table = ContingencyTable(n11, n10, n01, n00)
    phi = phi_from_table(table)
    labels = [1] * n11 + [1] * n10 + [0] * n01 + [0] * n00
    qs = [1] * n11 + [0] * n10 + [1] * n01 + [0] * n00
    if phi is None:
        assert len(set(labels)) < 2 or len(set(qs)) < 2 or not labels
    else:
        assert phi == pytest.approx(pearson(labels, qs), abs=1e-12)


@given(cells)
def test_phi_antisymmetric_under_label_flip(cell_counts):
    n11, n10, n01, n00 = cell_counts
    phi = phi_from_table(ContingencyTable(n11, n10, n01, n00))
    flipped = phi_from_table(ContingencyTable(n01, n00, n11, n10))
    if phi is None:
        assert flipped is None
    else:
        assert flipped == pytest.approx(-phi, abs=1e-12)
