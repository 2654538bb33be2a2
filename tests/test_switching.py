import math

import pytest
from hypothesis import given, strategies as st

from codeswitch.corpus import Token
from codeswitch.switching import N_FEATURES, q_and_profile, q_and_v, switching_block

PAPER_SENTENCE = tuple(Token(*raw.rsplit("_", 1)) for raw in
                       "koi_hi to_hi pray_en karo_hi mere_hi liye_hi bhi_hi".split())
ALL_HI = tuple(Token(*raw.rsplit("_", 1)) for raw in
               "bumrah_hi dono_hi wicketo_hi ke_hi beech_hi gumrah_hi ho_hi gaya_hi".split())


def toks(tags):
    return tuple(Token(f"w{i}", tag) for i, tag in enumerate(tags))


def profile(tokens):
    """The nine-feature switching profile that features writes."""
    return q_and_profile(tokens)[1]


def counts(tokens):
    """(en_hi_switches, hi_en_switches, V) of the profile."""
    p = profile(tokens)
    return p.en_hi_switches, p.hi_en_switches, p.v


def q(tokens):
    """The embedding property Q, as stats reads it."""
    return q_and_v(tokens)[0]


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


def neumaier_sum(xs):
    """The compensated sum of the floats xs, as sum() adds floats from
    Python 3.12 on."""
    total = compensation = 0.0
    for x in xs:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def oracle_q(tokens):
    tags = [t.tag for t in tokens if t.tag != "rest"]
    return any(tags[i] == "en" and tags[i - 1] == "hi" and tags[i + 1] == "hi"
               for i in range(1, len(tags) - 1))


class TestLangRunVectors:
    """The oracle behind test_features_equal_the_oracle_formulas gives the
    paper's vectors."""

    def test_paper_example(self):
        assert oracle_vectors(PAPER_SENTENCE) == ((0, 0, 2, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1, 1))

    def test_all_hi(self):
        assert oracle_vectors(ALL_HI) == ((0,) * 8, (0,) * 8)

    def test_alternating(self):
        assert oracle_vectors(toks(["en", "hi", "en", "hi"])) == ((0, 0, 1, 0), (0, 1, 0, 2))

    def test_empty_rejected(self):
        for reader in (q_and_v, q_and_profile):
            with pytest.raises(ValueError, match="non-empty"):
                reader(())


class TestSwitchCounts:
    def test_paper_example(self):
        assert counts(PAPER_SENTENCE) == (1, 1, 2)

    def test_all_hi(self):
        assert counts(ALL_HI) == (0, 0, 0)

    def test_alternating(self):
        assert counts(toks(["en", "hi", "en", "hi"])) == (2, 1, 3)


class TestSwitchingFeatures:
    def test_paper_feature_vector(self):
        f = profile(PAPER_SENTENCE)
        expected = (1, 1, 2, 1 / 7, 6 / 7, 2 / 7, 0.6998542122237653,
                    4 / 7, 0.4948716593053935)
        assert tuple(vars(f).values()) == pytest.approx(expected, abs=1e-12)
        # the paper truncates the two stddevs to two decimals
        assert math.floor(f.stddev_hi_en * 100) / 100 == 0.69
        assert math.floor(f.stddev_en_hi * 100) / 100 == 0.49

    def test_all_hi(self):
        f = profile(ALL_HI)
        assert tuple(vars(f).values()) == (0, 0, 0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)

    def test_alternating(self):
        # population moments of [0,0,1,0] and [0,1,0,2], computed by hand
        f = profile(toks(["en", "hi", "en", "hi"]))
        expected = (2, 1, 3, 0.5, 0.5, 0.25, math.sqrt(0.1875),
                    0.75, math.sqrt(0.6875))
        assert tuple(vars(f).values()) == pytest.approx(expected, abs=1e-12)

    def test_squared_deviations_are_added_left_to_right(self):
        """en_hi is (0, 0, 1, 0, 0), whose squared deviations from 0.2 add
        up left to right to another float than the compensated sum that
        sum() gives from Python 3.12 on; the stddev is the former on every
        Python version."""
        tokens = toks(["rest", "en", "hi", "rest", "rest"])
        squares = [(x - 0.2) * (x - 0.2) for x in oracle_vectors(tokens)[1]]
        plain = 0.0
        for x in squares:
            plain += x
        assert plain != neumaier_sum(squares)
        f = profile(tokens)
        assert f.mean_en_hi == 0.2
        assert f.stddev_en_hi == math.sqrt(plain / 5) == float.fromhex("0x1.999999999999bp-2")

    def test_squares_are_products_not_pow(self):
        """Each squared deviation is d * d, which IEEE 754 rounds correctly
        on every platform, and not d ** 2, which calls the C library's pow:
        for this row glibc's pow rounds one square the other way, and the
        stddev would end in ...384."""
        tags = ("rest rest hi hi en hi en rest rest en rest rest rest en rest en hi hi rest "
                "en en rest rest rest en hi en hi hi rest hi en en rest rest").split()
        assert profile(toks(tags)).stddev_en_hi == \
            float.fromhex("0x1.75353262d5385p+1")


class TestEmbeddingProperty:
    def test_paper_positive(self):
        assert q(PAPER_SENTENCE) is True

    def test_paper_negative(self):
        assert q(ALL_HI) is False

    def test_boundary_en_not_surrounded(self):
        assert q(toks(["en", "hi"])) is False

    def test_loose_reading_flag(self):
        # an en run of two between hi tokens: only the loose reading, which
        # the paper does not use, would count it
        tokens = toks(["hi", "en", "en", "hi"])
        assert q(tokens) is False

    def test_rest_transparent(self):
        tokens = toks(["hi", "rest", "en", "rest", "hi"])
        assert q(tokens) is True


tags_strategy = st.lists(st.sampled_from(["hi", "en", "rest"]),
                         min_size=1, max_size=50)


@given(tags_strategy)
def test_counts_match_oracle(tags):
    tokens = toks(tags)
    assert counts(tokens) == oracle_counts(tokens)


@given(tags_strategy)
def test_q_matches_oracle(tags):
    tokens = toks(tags)
    assert q(tokens) == oracle_q(tokens)


@given(tags_strategy)
def test_v_is_sum_and_counts_balanced(tags):
    tokens = toks(tags)
    en_hi, hi_en, v = counts(tokens)
    assert v == en_hi + hi_en
    assert abs(en_hi - hi_en) <= 1


@given(tags_strategy)
def test_features_equal_the_oracle_formulas(tags):
    """All nine features equal, by == on the floats, the package's formulas
    over the oracles' vectors and counts: fractions are int/int, a mean is
    sum/n and a stddev the square root of the two-pass population variance,
    its squared deviations added left to right from 0.0."""
    tokens = toks(tags)
    n = len(tokens)

    def moments(xs):
        mean = sum(xs) / n
        var = 0.0
        for x in xs:
            var += (x - mean) * (x - mean)
        return mean, math.sqrt(var / n)

    hi_en, en_hi = oracle_vectors(tokens)
    assert tuple(vars(profile(tokens)).values()) == (
        *oracle_counts(tokens), tags.count("en") / n, tags.count("hi") / n,
        *moments(hi_en), *moments(en_hi))


def hexes(p):
    return [float(x).hex() for x in vars(p).values()]


@given(tags_strategy)
def test_readers_equal_the_single_answers(tags):
    """q_and_v and q_and_profile give the same Q, and V is the profile's."""
    tokens = toks(tags)
    reader_q, p = q_and_profile(tokens)
    assert q_and_v(tokens) == (reader_q, p.v)


@pytest.mark.parametrize("tags, expected", [
    (["hi"], (0, 0, 0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)),
    (["en"], (0, 0, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
    (["rest"] * 3, (0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
    (["en"] * 4, (0, 0, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
    (["hi"] * 5, (0, 0, 0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)),
], ids=["one hi", "one en", "rest only", "en only", "hi only"])
def test_rows_of_zero_vectors(tags, expected):
    """Rows whose two vectors are all 0 (mean 0): every moment is +0.0,
    never -0.0, by float.hex, and the readers agree."""
    tokens = toks(tags)
    p = profile(tokens)
    assert hexes(p) == [float(x).hex() for x in expected]
    assert q_and_v(tokens) == (False, 0)
    assert q_and_profile(tokens) == (False, p)


def swap(tag):
    return {"hi": "en", "en": "hi", "rest": "rest"}[tag]


@given(tags_strategy)
def test_tag_swap_symmetry(tags):
    f = profile(toks(tags))
    g = profile(toks([swap(t) for t in tags]))
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
    if q(tokens):
        en_hi, hi_en, _ = counts(tokens)
        assert en_hi >= 1 and hi_en >= 1


@given(tags_strategy)
def test_appending_rest_only_shrinks_fractions(tags):
    tokens = toks(tags)
    before = profile(tokens)
    after = profile(tokens + (Token("x", "rest"),))
    assert after.en_hi_switches == before.en_hi_switches
    assert after.hi_en_switches == before.hi_en_switches
    assert after.v == before.v
    assert after.fraction_en <= before.fraction_en
    assert after.fraction_hi <= before.fraction_hi


# ------------------------------------------------------------------
# switching_block: the profiles of many rows at once, with numpy
# ------------------------------------------------------------------

def assert_block_equals_profiles(rows):
    """Each row of switching_block(rows) is q_and_profile's profile of its
    tokens, every feature equal by float.hex."""
    block = switching_block(rows)
    assert block.shape == (len(rows), N_FEATURES)
    assert [[x.hex() for x in row] for row in block.tolist()] == \
        [[float(x).hex() for x in vars(profile(tokens)).values()] for tokens in rows]


class TestSwitchingBlock:
    def test_no_rows(self):
        assert switching_block([]).shape == (0, N_FEATURES)

    def test_one_token_rows(self):
        assert_block_equals_profiles([toks([tag]) for tag in ("hi", "en", "rest", "en", "hi")])

    def test_rest_only_rows(self):
        assert_block_equals_profiles([toks(["rest"] * n) for n in (1, 3, 2)])

    def test_one_letter_projections(self):
        """Rows whose hi/en projection is one letter have no adjacent pair,
        so no switch, even where the rows' letters meet across rows."""
        assert_block_equals_profiles([toks(["rest", "hi", "rest"]), toks(["en"]),
                                      toks(["rest", "rest", "hi"]), toks(["en", "rest"])])

    def test_short_rows_after_a_long_one(self):
        long = toks(["hi", "en", "en", "rest", "hi", "hi", "en", "hi"] * 8)
        assert_block_equals_profiles([PAPER_SENTENCE, long, toks(["en"]), toks(["hi", "en"]),
                                      toks(["rest", "en", "hi"]), ALL_HI])

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            switching_block([toks(["hi"]), ()])


@given(st.lists(tags_strategy, max_size=8))
def test_block_equals_the_profiles(rows):
    assert_block_equals_profiles([toks(tags) for tags in rows])
