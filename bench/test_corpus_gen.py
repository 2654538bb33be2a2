"""The benchmark's corpus generator is deterministic and its output is a
valid corpus that gives preprocessing real work."""

import hashlib

from codeswitch.corpus import load_corpus
from codeswitch.preprocess import normalize

from corpus_gen import generate, write_corpus

# Pins the generated inputs: a change here changes every benchmark workload.
GOLDEN_SHA256 = "843a30a87841295b480c6308427cc7131b6bf5a13ac226943b822b9b9a8876b5"


def test_same_seed_gives_same_bytes(tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    write_corpus(first, 300, 7, "train")
    write_corpus(second, 300, 7, "train")
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text(encoding="utf-8") == generate(300, 7, "train")
    assert generate(300, 8, "train") != generate(300, 7, "train")
    assert generate(300, 7, "heldout") != generate(300, 7, "train")


def test_output_is_pinned():
    digest = hashlib.sha256(generate(200, 1, "golden").encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256


def test_loads_through_load_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    write_corpus(path, 2000, 3, "")
    corpus = load_corpus(path)
    assert len(corpus) == 2000
    assert {u.label for u in corpus} == {0, 1}
    tokens = [t for u in corpus for t in u.tokens]
    assert {t.tag for t in tokens} == {"hi", "en", "rest"}
    lengths = {len(u.tokens) for u in corpus}
    assert min(lengths) <= 5 and max(lengths) >= 30
    surfaces = [t.surface for t in tokens]
    for prefix in ("@", "https://", "#"):
        assert any(s.startswith(prefix) for s in surfaces), prefix
    assert any(any(c.isupper() for c in s[1:]) for s in surfaces if s.startswith("#"))
    normalized = [normalize(u.tokens) for u in corpus]
    assert any(not tokens for tokens in normalized)  # punctuation-only utterances drop
    assert sum(map(len, normalized)) != len(tokens)


def test_length_median_sets_utterance_length():
    def median_length(text):
        lengths = sorted(len(line.split("\t")[1].split()) for line in text.splitlines())
        return lengths[len(lengths) // 2]
    assert median_length(generate(500, 1, "wide")) == 14
    assert median_length(generate(500, 1, "wide", length_median=24)) == 24
