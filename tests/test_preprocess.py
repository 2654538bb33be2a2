from hypothesis import given, strategies as st

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


class TestNormalize:
    def test_mention_placeholder(self):
        out = normalize([("@user", "rest"), ("kya", "hi"), ("scene", "en")])
        assert [(t.surface, t.tag) for t in out] == \
            [("mention", "rest"), ("kya", "hi"), ("scene", "en")]

    def test_hashtag_placeholder_and_segments(self):
        out = normalize([("#AadabArzHai", "hi")])
        assert [(t.surface, t.tag) for t in out] == \
            [("hashtag", "rest"), ("aadab", "hi"), ("arz", "hi"), ("hai", "hi")]

    def test_edge_strip_and_emoticon_survival(self):
        out = normalize([("karo!", "hi"), (":P", "rest")])
        assert [(t.surface, t.tag) for t in out] == [("karo", "hi"), (":P", "rest")]

    def test_url_placeholder(self):
        out = normalize([("https://t.co/abc", "rest"), ("www.example.com", "rest")])
        assert [(t.surface, t.tag) for t in out] == \
            [("url", "rest"), ("url", "rest")]

    def test_pure_punctuation_dropped(self):
        assert normalize([("!!!", "rest"), ("...", "hi")]) == []

    def test_no_placeholder_flag(self):
        cfg = PreprocessConfig(keep_hashtag_placeholder=False)
        out = normalize([("#AadabArzHai", "hi")], cfg)
        assert [t.surface for t in out] == ["aadab", "arz", "hai"]

    def test_no_segmentation_flag(self):
        cfg = PreprocessConfig(segment_hashtags=False)
        out = normalize([("#AadabArzHai", "hi")], cfg)
        assert [t.surface for t in out] == ["hashtag"]


token_pair = st.tuples(
    st.text(alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cf")),
            min_size=1, max_size=10),
    st.sampled_from(["hi", "en", "rest"]),
)


@given(st.lists(token_pair, max_size=15))
def test_normalize_idempotent(pairs):
    once = normalize(pairs)
    twice = normalize(once)
    assert twice == once


@given(st.lists(token_pair, max_size=15))
def test_normalize_never_invents_language_tokens(pairs):
    out = normalize(pairs)
    n_lang_in = sum(1 for _, tag in pairs if tag in ("hi", "en"))
    # each input hi/en token yields at most its own word or hashtag segments
    n_lang_out = sum(1 for t in out if t.tag in ("hi", "en"))
    max_segments = max((len(s) for s, _ in pairs), default=0)
    assert n_lang_out <= n_lang_in * max(1, max_segments)
