import math

import pytest
from hypothesis import given, strategies as st

from codeswitch.corpus import Token, parse_tagged_line
from codeswitch.switching import (
    N_FEATURES,
    has_embedding_property,
    lang_run_vectors,
    switch_counts,
    switching_features,
)

PAPER_SENTENCE = parse_tagged_line(
    "1\tkoi_hi to_hi pray_en karo_hi mere_hi liye_hi bhi_hi").tokens
ALL_HI = parse_tagged_line(
    "0\tbumrah_hi dono_hi wicketo_hi ke_hi beech_hi gumrah_hi ho_hi gaya_hi").tokens


def toks(tags):
    return tuple(Token(f"w{i}", tag) for i, tag in enumerate(tags))


# ------------------------------------------------------------------
# Independent brute-force oracles
# ------------------------------------------------------------------

def oracle_vectors(tokens):
    """Naive quadratic recount of the cumulative-count vectors."""
    hi_en, en_hi = [], []
    for i, tok in enumerate(tokens):
        before = tokens[:i]
        hi_en.append(sum(1 for t in before if t.tag == "hi")
                     if tok.tag == "en" else 0)
        en_hi.append(sum(1 for t in before if t.tag == "en")
                     if tok.tag == "hi" else 0)
    return tuple(hi_en), tuple(en_hi)


def oracle_counts(tokens):
    """Pairwise scan over the hi/en projection."""
    tags = [t.tag for t in tokens if t.tag != "rest"]
    en_hi = hi_en = 0
    for i in range(len(tags) - 1):
        if tags[i] == "en" and tags[i + 1] == "hi":
            en_hi += 1
        if tags[i] == "hi" and tags[i + 1] == "en":
            hi_en += 1
    return en_hi, hi_en, en_hi + hi_en


def oracle_q(tokens):
    tags = [t.tag for t in tokens if t.tag != "rest"]
    return any(tags[i] == "en" and tags[i - 1] == "hi" and tags[i + 1] == "hi"
               for i in range(1, len(tags) - 1))


class TestLangRunVectors:
    def test_paper_example(self):
        v = lang_run_vectors(PAPER_SENTENCE)
        assert v.hi_en == (0, 0, 2, 0, 0, 0, 0)
        assert v.en_hi == (0, 0, 0, 1, 1, 1, 1)

    def test_all_hi(self):
        v = lang_run_vectors(ALL_HI)
        assert v.hi_en == (0,) * 8
        assert v.en_hi == (0,) * 8

    def test_alternating(self):
        v = lang_run_vectors(toks(["en", "hi", "en", "hi"]))
        assert v.hi_en == (0, 0, 1, 0)
        assert v.en_hi == (0, 1, 0, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lang_run_vectors(())


class TestSwitchCounts:
    def test_paper_example(self):
        assert switch_counts(PAPER_SENTENCE) == (1, 1, 2)

    def test_all_hi(self):
        assert switch_counts(ALL_HI) == (0, 0, 0)

    def test_alternating(self):
        assert switch_counts(toks(["en", "hi", "en", "hi"])) == (2, 1, 3)


class TestSwitchingFeatures:
    def test_paper_feature_vector(self):
        f = switching_features(PAPER_SENTENCE)
        expected = (1, 1, 2, 1 / 7, 6 / 7, 2 / 7, 0.6998542122237653,
                    4 / 7, 0.4948716593053935)
        assert f.as_tuple() == pytest.approx(expected, abs=1e-12)
        # the paper truncates the two stddevs to two decimals
        assert math.floor(f.stddev_hi_en * 100) / 100 == 0.69
        assert math.floor(f.stddev_en_hi * 100) / 100 == 0.49

    def test_all_hi(self):
        f = switching_features(ALL_HI)
        assert f.as_tuple() == (0, 0, 0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)

    def test_alternating(self):
        # population moments of [0,0,1,0] and [0,1,0,2], computed by hand
        f = switching_features(toks(["en", "hi", "en", "hi"]))
        expected = (2, 1, 3, 0.5, 0.5, 0.25, math.sqrt(0.1875),
                    0.75, math.sqrt(0.6875))
        assert f.as_tuple() == pytest.approx(expected, abs=1e-12)

    def test_as_tuple_follows_field_order(self):
        # cli features writes vars(profile); training reads as_tuple()
        f = switching_features(PAPER_SENTENCE)
        assert f.as_tuple() == tuple(vars(f).values())
        assert len(f.as_tuple()) == N_FEATURES == 9


class TestEmbeddingProperty:
    def test_paper_positive(self):
        assert has_embedding_property(PAPER_SENTENCE) is True

    def test_paper_negative(self):
        assert has_embedding_property(ALL_HI) is False

    def test_boundary_en_not_surrounded(self):
        assert has_embedding_property(toks(["en", "hi"])) is False

    def test_loose_reading_flag(self):
        # an en run of two between hi tokens: only the loose reading, which
        # the paper does not use, would count it
        tokens = toks(["hi", "en", "en", "hi"])
        assert has_embedding_property(tokens) is False

    def test_rest_transparent(self):
        tokens = toks(["hi", "rest", "en", "rest", "hi"])
        assert has_embedding_property(tokens) is True


tags_strategy = st.lists(st.sampled_from(["hi", "en", "rest"]),
                         min_size=1, max_size=50)


@given(tags_strategy)
def test_vectors_match_oracle(tags):
    tokens = toks(tags)
    v = lang_run_vectors(tokens)
    assert (v.hi_en, v.en_hi) == oracle_vectors(tokens)


@given(tags_strategy)
def test_counts_match_oracle(tags):
    tokens = toks(tags)
    assert switch_counts(tokens) == oracle_counts(tokens)


@given(tags_strategy)
def test_q_matches_oracle(tags):
    tokens = toks(tags)
    assert has_embedding_property(tokens) == oracle_q(tokens)


@given(tags_strategy)
def test_v_is_sum_and_counts_balanced(tags):
    tokens = toks(tags)
    en_hi, hi_en, v = switch_counts(tokens)
    assert v == en_hi + hi_en
    assert abs(en_hi - hi_en) <= 1


@given(tags_strategy)
def test_features_equal_the_oracle_formulas(tags):
    """All nine features equal, by == on the floats, the package's formulas
    over the oracles' vectors and counts: fractions are int/int, a mean is
    sum/n and a stddev the square root of the two-pass population variance."""
    tokens = toks(tags)
    n = len(tokens)

    def moments(xs):
        mean = sum(xs) / n
        return mean, math.sqrt(sum((x - mean) ** 2 for x in xs) / n)

    hi_en, en_hi = oracle_vectors(tokens)
    assert switching_features(tokens).as_tuple() == (
        *oracle_counts(tokens), tags.count("en") / n, tags.count("hi") / n,
        *moments(hi_en), *moments(en_hi))


def swap(tag):
    return {"hi": "en", "en": "hi", "rest": "rest"}[tag]


@given(tags_strategy)
def test_tag_swap_symmetry(tags):
    f = switching_features(toks(tags))
    g = switching_features(toks([swap(t) for t in tags]))
    assert g.en_hi_switches == f.hi_en_switches
    assert g.hi_en_switches == f.en_hi_switches
    assert g.v == f.v
    assert g.fraction_en == f.fraction_hi
    assert g.fraction_hi == f.fraction_en
    assert g.mean_hi_en == f.mean_en_hi
    assert g.stddev_hi_en == f.stddev_en_hi
    assert g.mean_en_hi == f.mean_hi_en
    assert g.stddev_en_hi == f.stddev_hi_en


@given(tags_strategy)
def test_q_implies_switches(tags):
    tokens = toks(tags)
    if has_embedding_property(tokens):
        en_hi, hi_en, _ = switch_counts(tokens)
        assert en_hi >= 1 and hi_en >= 1


@given(tags_strategy)
def test_appending_rest_only_shrinks_fractions(tags):
    tokens = toks(tags)
    before = switching_features(tokens)
    after = switching_features(tokens + (Token("x", "rest"),))
    assert after.en_hi_switches == before.en_hi_switches
    assert after.hi_en_switches == before.hi_en_switches
    assert after.v == before.v
    assert after.fraction_en <= before.fraction_en
    assert after.fraction_hi <= before.fraction_hi


@given(tags_strategy)
def test_last_nonzero_hi_en_entry(tags):
    tokens = toks(tags)
    v = lang_run_vectors(tokens)
    en_positions = [i for i, t in enumerate(tokens) if t.tag == "en"]
    if en_positions:
        last_en = en_positions[-1]
        expected = sum(1 for t in tokens[:last_en] if t.tag == "hi")
        assert v.hi_en[last_en] == expected
