import io

import pytest
from hypothesis import given, strategies as st

from codeswitch.corpus import (
    CorpusFormatError,
    LabeledCorpus,
    LabeledUtterance,
    Token,
    fold_indices,
    load_corpus,
    parse_tagged_line,
    serialize_tagged_line,
)

LINE_POS = "1\tkoi_hi to_hi pray_en karo_hi mere_hi liye_hi bhi_hi"
LINE_NEG = "0\tbumrah_hi dono_hi wicketo_hi ke_hi beech_hi gumrah_hi ho_hi gaya_hi"


def make_corpus(n):
    utts = [LabeledUtterance((Token(f"w{i}", "hi"),), i % 2, str(i))
            for i in range(n)]
    return LabeledCorpus(tuple(utts))


class TestParseTaggedLine:
    def test_positive_example(self):
        u = parse_tagged_line(LINE_POS)
        assert len(u.tokens) == 7
        assert [t.tag for t in u.tokens] == ["hi", "hi", "en", "hi", "hi", "hi", "hi"]
        assert u.label == 1

    def test_negative_example(self):
        u = parse_tagged_line(LINE_NEG)
        assert len(u.tokens) == 8
        assert all(t.tag == "hi" for t in u.tokens)
        assert u.label == 0

    def test_empty_token_list(self):
        with pytest.raises(CorpusFormatError, match="empty token list"):
            parse_tagged_line("1\t")

    def test_bad_label(self):
        with pytest.raises(CorpusFormatError, match="label"):
            parse_tagged_line("2\ta_hi")

    def test_unknown_tag(self):
        with pytest.raises(CorpusFormatError, match="unknown tag"):
            parse_tagged_line("1\ta_fr")

    def test_missing_underscore(self):
        with pytest.raises(CorpusFormatError, match="underscore"):
            parse_tagged_line("1\tplaintoken")

    def test_last_underscore_splits_tag(self):
        u = parse_tagged_line("1\ta_b_hi")
        assert u.tokens[0] == Token("a_b", "hi")

    def test_error_names_line_number(self):
        with pytest.raises(CorpusFormatError, match="line 7"):
            parse_tagged_line("1\tx_fr", line_number=7)


class TestToken:
    @pytest.mark.parametrize("surface", ["", "a b", "a\tb", "a\u00a0b", "\u2003"])
    def test_empty_or_whitespace_surface_rejected(self, surface):
        with pytest.raises(ValueError, match="surface"):
            Token(surface, "hi")

    @pytest.mark.parametrize("surface", ["a_b", "ñ", ":P"])
    def test_surface_accepted(self, surface):
        assert Token(surface, "hi").surface == surface


class TestLoadCorpus:
    def test_two_lines(self):
        corpus = load_corpus(io.StringIO(LINE_POS + "\n" + LINE_NEG + "\n"))
        assert len(corpus) == 2
        assert corpus[0].label == 1 and corpus[1].label == 0

    def test_blank_line_skipped_ids_dense(self):
        corpus = load_corpus(io.StringIO(LINE_POS + "\n\n" + LINE_NEG + "\n"))
        assert len(corpus) == 2
        assert [u.id for u in corpus] == ["0", "1"]

    def test_malformed_line_cites_line_number(self):
        stream = io.StringIO(LINE_POS + "\n" + LINE_NEG + "\nbroken\n")
        with pytest.raises(CorpusFormatError, match="line 3"):
            load_corpus(stream)

    def test_empty_corpus_is_error(self):
        with pytest.raises(CorpusFormatError, match="empty corpus"):
            load_corpus(io.StringIO("\n\n"))

    def test_one_token_per_distinct_raw_token(self, monkeypatch):
        built = []
        check = Token.__post_init__
        monkeypatch.setattr(Token, "__post_init__", lambda t: (built.append(t), check(t))[1])
        lines = [LINE_POS, LINE_NEG, "0\tkoi_hi koi_en koi_hi bhi_hi"] * 40
        corpus = load_corpus(io.StringIO("\n".join(lines) + "\n"))
        raw = [r for line in lines for r in line.partition("\t")[2].split()]
        tokens = [t for u in corpus for t in u.tokens]
        assert [f"{t.surface}_{t.tag}" for t in tokens] == raw
        assert len(built) == len(set(raw)) == 16
        first = {}
        assert all(first.setdefault(r, t) is t for r, t in zip(raw, tokens))

    @pytest.mark.parametrize("bad, message", [
        ("koi_fr", "unknown tag 'fr' in token 'koi_fr'"),
        ("koi", "token without underscore tag: 'koi'"),
        ("_hi", "empty surface in token '_hi'"),
    ])
    def test_malformed_token_after_many_lines(self, bad, message):
        lines = [LINE_POS, LINE_NEG] * 100 + [f"1\tkoi_hi {bad} to_hi"]
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(io.StringIO("\n".join(lines) + "\n"))
        assert str(info.value) == f"line 201: {message}"


class TestKFold:
    """fold_indices: the (train, test) row lists of a k-fold split."""

    def test_ten_folds_of_one(self):
        folds = fold_indices(10, 10, seed=0)
        assert len(folds) == 10
        assert all(len(test) == 1 for _, test in folds)

    def test_balanced_sizes(self):
        folds = fold_indices(7, 3, seed=0)
        assert sorted(len(test) for _, test in folds) == [2, 2, 3]

    def test_test_folds_partition_corpus(self):
        corpus = make_corpus(13)
        folds = fold_indices(len(corpus), 4, seed=5)
        seen = [corpus[i].id for _, test in folds for i in test]
        assert sorted(seen) == sorted(u.id for u in corpus)

    def test_each_utterance_in_k_minus_1_train_folds(self):
        corpus = make_corpus(9)
        folds = fold_indices(len(corpus), 3, seed=0)
        for u in corpus:
            count = sum(1 for train, _ in folds if u.id in {corpus[i].id for i in train})
            assert count == 2

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            fold_indices(5, 6, seed=0)
        with pytest.raises(ValueError):
            fold_indices(5, 1, seed=0)


surface = st.text(
    alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cf")),
    min_size=1, max_size=8,
)
token = st.builds(Token, surface=surface,
                  tag=st.sampled_from(["hi", "en", "rest"]))


@given(tokens=st.lists(token, min_size=1, max_size=20),
       label=st.sampled_from([0, 1]))
def test_roundtrip_tagged_line(tokens, label):
    u = LabeledUtterance(tuple(tokens), label, "0")
    parsed = parse_tagged_line(serialize_tagged_line(u))
    assert parsed.tokens == u.tokens
    assert parsed.label == u.label
