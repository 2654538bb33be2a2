import warnings

import pytest
from hypothesis import given, strategies as st

from codeswitch import corpus as corpus_module
from codeswitch.corpus import (
    CorpusFormatError,
    LabeledUtterance,
    Token,
    fold_indices,
    load_corpus,
    serialize_tagged_line,
)
from codeswitch.preprocess import PreprocessConfig

LINE_POS = "1\tkoi_hi to_hi pray_en karo_hi mere_hi liye_hi bhi_hi"
LINE_NEG = "0\tbumrah_hi dono_hi wicketo_hi ke_hi beech_hi gumrah_hi ho_hi gaya_hi"


def load_text(path, text):
    """The corpus load_corpus reads from a file at path holding text."""
    path.write_text(text, encoding="utf-8")
    return load_corpus(path)


def load_line(tmp_path, line):
    """The one utterance of a corpus file holding line."""
    return load_text(tmp_path / "line.txt", line + "\n")[0]


def make_corpus(n):
    utts = [LabeledUtterance((Token(f"w{i}", "hi"),), i % 2, str(i))
            for i in range(n)]
    return tuple(utts)


class TestParseTaggedLine:
    def test_positive_example(self, tmp_path):
        u = load_line(tmp_path, LINE_POS)
        assert len(u.tokens) == 7
        assert [t.tag for t in u.tokens] == ["hi", "hi", "en", "hi", "hi", "hi", "hi"]
        assert u.label == 1

    def test_negative_example(self, tmp_path):
        u = load_line(tmp_path, LINE_NEG)
        assert len(u.tokens) == 8
        assert all(t.tag == "hi" for t in u.tokens)
        assert u.label == 0

    def test_empty_token_list(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="empty token list"):
            load_line(tmp_path, "1\t")

    def test_bad_label(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="label"):
            load_line(tmp_path, "2\ta_hi")

    def test_unknown_tag(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="unknown tag"):
            load_line(tmp_path, "1\ta_fr")

    def test_missing_underscore(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="underscore"):
            load_line(tmp_path, "1\tplaintoken")

    def test_last_underscore_splits_tag(self, tmp_path):
        u = load_line(tmp_path, "1\ta_b_hi")
        assert u.tokens[0] == Token("a_b", "hi")

    def test_error_names_line_number(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="line 7"):
            load_line(tmp_path, "\n" * 6 + "1\tx_fr")  # blank lines count


class TestToken:
    @pytest.mark.parametrize("surface", ["", "a b", "a\tb", "a\u00a0b", "\u2003"])
    def test_empty_or_whitespace_surface_rejected(self, surface):
        with pytest.raises(ValueError, match="surface"):
            Token(surface, "hi")

    @pytest.mark.parametrize("surface", ["a_b", "ñ", ":P"])
    def test_surface_accepted(self, surface):
        assert Token(surface, "hi").surface == surface


class TestLoadCorpus:
    def test_two_lines(self, tmp_path):
        corpus = load_text(tmp_path / "c.txt", LINE_POS + "\n" + LINE_NEG + "\n")
        assert len(corpus) == 2
        assert corpus[0].label == 1 and corpus[1].label == 0

    def test_blank_line_skipped_ids_dense(self, tmp_path):
        corpus = load_text(tmp_path / "c.txt", LINE_POS + "\n\n" + LINE_NEG + "\n")
        assert len(corpus) == 2
        assert [u.id for u in corpus] == ["0", "1"]

    def test_malformed_line_cites_line_number(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="line 3"):
            load_text(tmp_path / "c.txt", LINE_POS + "\n" + LINE_NEG + "\nbroken\n")

    def test_empty_corpus_is_error(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="empty corpus"):
            load_text(tmp_path / "c.txt", "\n\n")

    def test_lines_end_at_lf_only(self, tmp_path):
        """A carriage return inside a line is whitespace between tokens,
        not the end of the line, and a CRLF file reads as its LF copy."""
        path = tmp_path / "cr.txt"
        path.write_bytes(b"1\tfoo_en\rbar_hi baz_hi\n0\tqux_hi\n")
        corpus = load_corpus(path)
        assert [u.label for u in corpus] == [1, 0]
        assert corpus[0].tokens == (Token("foo", "en"), Token("bar", "hi"), Token("baz", "hi"))
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_corpus(crlf) == corpus

    def test_one_token_per_distinct_raw_token(self, monkeypatch, tmp_path):
        built = []
        check = Token.__post_init__
        monkeypatch.setattr(Token, "__post_init__", lambda t: (built.append(t), check(t))[1])
        lines = [LINE_POS, LINE_NEG, "0\tkoi_hi koi_en koi_hi bhi_hi"] * 40
        corpus = load_text(tmp_path / "c.txt", "\n".join(lines) + "\n")
        raw = [r for line in lines for r in line.partition("\t")[2].split()]
        tokens = [t for u in corpus for t in u.tokens]
        assert [f"{t.surface}_{t.tag}" for t in tokens] == raw
        assert len(built) == len(set(raw)) == 16
        first = {}
        assert all(first.setdefault(r, t) is t for r, t in zip(raw, tokens))

    @pytest.mark.parametrize("preprocess", [None, PreprocessConfig()])
    def test_bounded_memo_parses_the_same_utterances(self, preprocess, tmp_path):
        """A memo cleared every few raw tokens gives the utterances, and the
        dropped-utterance warnings, of a parse whose memo is never cleared,
        building more Tokens on the way."""
        lines = [f"{i % 2}\tw{i % 7}_hi #Tag{i % 5}_en @u{i}_en w{i % 3}!_en ?_rest {LINE_POS[2:]}"
                 for i in range(60)] + ["0\t!!_en", LINE_NEG] * 3
        path = tmp_path / "c.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        def parse(memo_tokens):
            built, check = [], Token.__post_init__
            with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                mp.setattr(corpus_module, "_MEMO_TOKENS", memo_tokens)
                mp.setattr(Token, "__post_init__", lambda t: (built.append(t), check(t))[1])
                corpus = load_corpus(path, preprocess)
            return corpus, [str(w.message) for w in warned], len(built)

        unbounded, warnings_unbounded, n_unbounded = parse(10**9)
        bounded, warnings_bounded, n_bounded = parse(3)
        assert bounded == unbounded and warnings_bounded == warnings_unbounded
        assert len(warnings_bounded) == (3 if preprocess else 0)  # the "!!_en" lines
        assert n_bounded > n_unbounded

    @pytest.mark.parametrize("bad, message", [
        ("koi_fr", "unknown tag 'fr' in token 'koi_fr'"),
        ("koi", "token without underscore tag: 'koi'"),
        ("_hi", "empty surface in token '_hi'"),
    ])
    def test_malformed_token_after_many_lines(self, bad, message, tmp_path):
        lines = [LINE_POS, LINE_NEG] * 100 + [f"1\tkoi_hi {bad} to_hi"]
        path = tmp_path / "c.txt"
        with pytest.raises(CorpusFormatError) as info:
            load_text(path, "\n".join(lines) + "\n")
        assert str(info.value) == f"{path}: line 201: {message}"


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


# no lone surrogates (Cs): UTF-8 cannot encode them, so no corpus file holds one
surface = st.text(
    alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cf", "Cs")),
    min_size=1, max_size=8,
)
token = st.builds(Token, surface=surface,
                  tag=st.sampled_from(["hi", "en", "rest"]))


@given(tokens=st.lists(token, min_size=1, max_size=20),
       label=st.sampled_from([0, 1]))
def test_roundtrip_tagged_line(tmp_path_factory, tokens, label):
    u = LabeledUtterance(tuple(tokens), label, "0")
    path = tmp_path_factory.getbasetemp() / "roundtrip.txt"
    parsed = load_text(path, serialize_tagged_line(u) + "\n")[0]
    assert parsed.tokens == u.tokens
    assert parsed.label == u.label
