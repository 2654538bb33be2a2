import argparse
import warnings

import pytest
from hypothesis import given, strategies as st

from codeswitch import preprocess
from codeswitch.cli import _preprocess_config
from codeswitch.corpus import CorpusFormatError, Token, load_corpus
from codeswitch.preprocess import PreprocessConfig, normalize, segment_camel_case


class TestSegmentCamelCase:
    def test_hashtag_example(self):
        assert segment_camel_case("AadabArzHai") == ["Aadab", "Arz", "Hai"]

    def test_no_boundary(self):
        assert segment_camel_case("sarcasm") == ["sarcasm"]

    def test_three_words(self):
        assert segment_camel_case("HelloWorldAgain") == ["Hello", "World", "Again"]

    @given(st.text(alphabet=st.characters(categories=("Ll", "Lu")), min_size=1, max_size=20))
    def test_concatenation_preserved(self, word):
        assert "".join(segment_camel_case(word)) == word


def tokens(*pairs):
    return [Token(surface, tag) for surface, tag in pairs]


class TestNormalize:
    def test_mention_placeholder(self):
        out = normalize(tokens(("@user", "rest"), ("kya", "hi"), ("scene", "en")))
        assert [(t.surface, t.tag) for t in out] == \
            [("mention", "rest"), ("kya", "hi"), ("scene", "en")]

    def test_hashtag_placeholder_and_segments(self):
        out = normalize(tokens(("#AadabArzHai", "hi")))
        assert [(t.surface, t.tag) for t in out] == \
            [("hashtag", "rest"), ("aadab", "hi"), ("arz", "hi"), ("hai", "hi")]

    def test_edge_strip_and_emoticon_survival(self):
        out = normalize(tokens(("karo!", "hi"), (":P", "rest")))
        assert [(t.surface, t.tag) for t in out] == [("karo", "hi"), (":P", "rest")]

    def test_url_placeholder(self):
        out = normalize(tokens(("https://t.co/abc", "rest"), ("www.example.com", "rest")))
        assert [(t.surface, t.tag) for t in out] == \
            [("url", "rest"), ("url", "rest")]

    def test_pure_punctuation_dropped(self):
        assert normalize(tokens(("!!!", "rest"), ("...", "hi"))) == []

    def test_no_placeholder_flag(self):
        cfg = PreprocessConfig(keep_hashtag_placeholder=False)
        out = normalize(tokens(("#AadabArzHai", "hi")), cfg)
        assert [t.surface for t in out] == ["aadab", "arz", "hai"]

    @pytest.mark.parametrize("punct", [frozenset(), frozenset({"!", ".."})])
    def test_punctuation_set_of_single_characters(self, punct):
        with pytest.raises(ValueError, match="non-empty set of single characters"):
            PreprocessConfig(punctuation_set=punct)

    def test_no_segmentation_flag(self):
        cfg = PreprocessConfig(segment_hashtags=False)
        out = normalize(tokens(("#AadabArzHai", "hi")), cfg)
        assert [t.surface for t in out] == ["hashtag"]


token = st.builds(
    Token,
    st.text(alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cf")),
            min_size=1, max_size=10),
    st.sampled_from(["hi", "en", "rest"]),
)


@given(st.lists(token, max_size=15))
def test_normalize_idempotent(raw):
    once = normalize(raw)
    twice = normalize(once)
    assert twice == once


@given(st.lists(token, max_size=15))
def test_normalize_never_invents_language_tokens(raw):
    out = normalize(raw)
    n_lang_in = sum(1 for t in raw if t.tag in ("hi", "en"))
    # each input hi/en token yields at most its own word or hashtag segments
    n_lang_out = sum(1 for t in out if t.tag in ("hi", "en"))
    max_segments = max((len(t.surface) for t in raw), default=0)
    assert n_lang_out <= n_lang_in * max(1, max_segments)


PUNCT = "!.,:#@/'-_"

surfaces = st.one_of(
    st.text(alphabet=PUNCT, min_size=1, max_size=4),  # punctuation only
    st.text(alphabet="ab.", max_size=3).map("@".__add__),  # a bare "@" too
    st.tuples(st.sampled_from(["http", "HTTPS://", "www.", "wwwx"]),
              st.text(alphabet="ab/.", max_size=3)).map("".join),
    st.lists(st.sampled_from(["Aadab", "arz", "Hai", "!", "X", "y."]),
             max_size=4).map(lambda words: "#" + "".join(words)),  # a bare "#" too
    st.text(alphabet="aBc" + PUNCT, min_size=1, max_size=6),
)


@st.composite
def tagged_corpora(draw):
    """(label, [(surface, tag), ...]) utterances drawn from a small pool of
    tokens, so that tokens repeat within and across utterances."""
    pool = draw(st.lists(st.tuples(surfaces, st.sampled_from(["hi", "en", "rest"])),
                         min_size=1, max_size=8))
    utterance = st.lists(st.sampled_from(pool), min_size=1, max_size=6)
    return draw(st.lists(st.tuples(st.sampled_from([0, 1]), utterance), min_size=1, max_size=8))


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("preprocess") / "corpus.txt")


@given(tagged_corpora(), st.none() | st.text(alphabet=PUNCT + "ab", min_size=1, max_size=5),
       st.booleans(), st.booleans())
def test_corpus_preprocessing_is_normalize_per_utterance(corpus_path, utterances, punct,
                                                         placeholder, segment):
    cfg = PreprocessConfig(placeholder, segment,
                           PreprocessConfig().punctuation_set if punct is None
                           else frozenset(punct))
    expected, dropped = [], []
    for uid, (_, pairs) in enumerate(utterances):
        raw = [Token(*pair) for pair in pairs]
        normalized = normalize(raw, cfg)
        assert normalize(tuple(raw), cfg) == normalized
        if normalized:
            expected.append((str(uid), normalized))
        else:
            dropped.append((UserWarning,
                            f"{corpus_path}: utterance {uid} empty after preprocessing; dropped"))
    with open(corpus_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{label}\t{' '.join(f'{s}_{t}' for s, t in pairs)}\n"
                      for label, pairs in utterances)
    args = argparse.Namespace(no_preprocess=False, no_hashtag_placeholder=not placeholder,
                              no_segment_hashtags=not segment, punct=punct)
    pre = _preprocess_config(args)
    assert pre == cfg
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if not expected:
            with pytest.raises(CorpusFormatError) as info:
                load_corpus(corpus_path, pre)
            assert str(info.value) == f"{corpus_path}: empty corpus after preprocessing"
        else:
            kept = load_corpus(corpus_path, pre)
    assert [(w.category, str(w.message)) for w in caught] == dropped  # one per dropped utterance
    if expected:
        assert [(u.id, list(u.tokens)) for u in kept] == expected


def test_load_normalizes_each_distinct_raw_token_once(tmp_path, monkeypatch):
    calls = []
    one_token = preprocess.normalize_token
    monkeypatch.setattr(preprocess, "normalize_token",
                        lambda token, cfg: (calls.append(token), one_token(token, cfg))[1])
    lines = ["1\t#AadabArzHai_hi koi_hi karo!_hi @user_rest", "0\t!!_rest koi_hi koi_en :P_rest",
             "1\tkaro!_hi karo_hi https://t.co/x_rest"] * 30
    path = tmp_path / "corpus.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    corpus = load_corpus(path, PreprocessConfig())
    raw = [r for line in lines for r in line.partition("\t")[2].split()]
    assert [f"{t.surface}_{t.tag}" for t in calls] == list(dict.fromkeys(raw))
    assert [list(u.tokens) for u in corpus] == \
        [normalize(Token(*r.rsplit("_", 1)) for r in line.partition("\t")[2].split())
         for line in lines]
