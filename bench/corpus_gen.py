"""Seeded synthetic corpora in the codeswitch tagged-line format.

The same (n, seed, stream) always gives the same bytes.  Utterances look like
romanized Hindi-English tweets so that every stage of the pipeline has
real work to do:

- hi and en pseudo-word vocabularies with Zipf-distributed frequencies,
  so n-gram counts have a long tail;
- utterance lengths spread log-normally (median 14 tokens by default);
- hi/en tags from a two-state Markov chain whose switch rate depends on
  the label (the switching signal);
- label-specific cue words (the lexical signal) and negation words;
- mentions, URLs, camel-case hashtags, emoticons, standalone and
  attached punctuation for `preprocess` to normalize, plus a few
  utterances that are punctuation only and so are dropped.

Usage: python3 bench/corpus_gen.py N SEED STREAM OUT
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import statistics
import sys

HI_SYLLABLES = ("ka", "ki", "ko", "ke", "ha", "hai", "na", "ni", "ma", "me",
                "ra", "ri", "ta", "te", "ya", "la", "sa", "pa", "ba", "bha",
                "cha", "dha", "ja", "kar", "aap", "dil", "pya", "gaya",
                "wa", "ho", "tu", "mu", "jh", "kh", "gh", "th", "nna", "yaar")
EN_SYLLABLES = ("the", "ing", "er", "on", "st", "pl", "tr", "ion", "ent",
                "al", "com", "pro", "ly", "ness", "ed", "re", "in", "ex",
                "over", "time", "work", "line", "ball", "play", "great",
                "fan", "show", "love", "day", "win", "cr", "br", "ound")
HI_FUNCTION_WORDS = ("hai", "ka", "ki", "ko", "se", "me", "to", "ye", "na", "bhi",
                     "kya", "aur", "ho", "hi", "tha", "koi", "ab", "jo", "yeh", "wo",
                     "kuch", "mera", "tera", "sab", "hum", "main", "tum", "par", "ke", "nahi")
EN_FUNCTION_WORDS = ("the", "is", "a", "to", "and", "of", "in", "you", "i", "it",
                     "for", "this", "that", "on", "be", "are", "with", "my", "so", "all",
                     "just", "we", "at", "have", "but", "me", "your", "what", "good", "love")
NEGATIONS = {"hi": ("nahi", "nahin", "mat", "na"), "en": ("not", "never", "no", "don't")}
EMOTICONS = (":P", ":)", ":(", "<3", ":D", ";)")
PUNCT_TOKENS = ("!", "?", "...", ",", ".", "!!", "?!", "-")
ATTACHED_PUNCT = (",", "!", "?", ".", "...", "'")

VOCAB_SIZE = 6000      # distinct words per language
ZIPF_EXPONENT = 1.1
N_CUES = 40            # cue words per label and language
POSITIVE_RATE = 0.4
SWITCH_RATE = (0.07, 0.16)   # Markov switch probability for label 0 and 1
CUE_RATE = (0.035, 0.012)    # P(cue of the own label), P(cue of the other)
LENGTH_MEDIAN = 14
LENGTH_SIGMA = 0.4
PUNCT_ONLY_RATE = 0.002


def _vocabulary(rng: random.Random, function_words: tuple[str, ...],
                syllables: tuple[str, ...], size: int) -> list[str]:
    """`size` distinct words in rank order: real function words first, then
    pseudo-words that grow longer with rank, as in natural text."""
    words = list(function_words)
    seen = set(words)
    while len(words) < size:
        longest = 2 if len(words) < 300 else 3 if len(words) < 2000 else 4
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(1, longest)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Lexicon:
    """One language's words with cumulative Zipf weights."""

    def __init__(self, rng: random.Random, function_words: tuple[str, ...],
                 syllables: tuple[str, ...]):
        self.words = _vocabulary(rng, function_words, syllables, VOCAB_SIZE)
        self.cum = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(VOCAB_SIZE)))
        # cues come from the middle ranks: frequent enough to be learned,
        # rare enough not to be stop words
        mid = rng.sample(range(100, 1100), 2 * N_CUES)
        self.cues = ([self.words[i] for i in mid[:N_CUES]],
                     [self.words[i] for i in mid[N_CUES:]])

    def sample(self, rng: random.Random) -> str:
        return self.words[bisect.bisect(self.cum, rng.random() * self.cum[-1])]


def _word(rng: random.Random, lex: _Lexicon, lang: str, label: int) -> str:
    r = rng.random()
    if r < CUE_RATE[0]:
        return rng.choice(lex.cues[label])
    if r < CUE_RATE[0] + CUE_RATE[1]:
        return rng.choice(lex.cues[1 - label])
    if r < CUE_RATE[0] + CUE_RATE[1] + 0.01:
        return rng.choice(NEGATIONS[lang])
    return lex.sample(rng)


def _utterance(rng: random.Random, lexicons: dict[str, _Lexicon], label: int,
               length: int) -> list[str]:
    switch = SWITCH_RATE[label] * rng.uniform(0.5, 1.5)
    lang = "hi" if rng.random() < 0.7 else "en"
    tokens = []
    for _ in range(length):
        if rng.random() < switch:
            lang = "en" if lang == "hi" else "hi"
        lex = lexicons[lang]
        r = rng.random()
        if r < 0.02:
            tokens.append(f"@{lex.sample(rng)}{rng.randint(0, 999)}_rest")
        elif r < 0.03:
            slug = "".join(rng.choice("abcdefghijkmnpqrstuvwxyz0123456789") for _ in range(8))
            tokens.append(f"https://t.co/{slug}_rest")
        elif r < 0.05:
            parts = [_word(rng, lex, lang, label).capitalize() for _ in range(rng.randint(2, 3))]
            tokens.append(f"#{''.join(parts)}_{lang}")
        elif r < 0.09:
            tokens.append(f"{rng.choice(PUNCT_TOKENS)}_rest")
        elif r < 0.10:
            tokens.append(f"{rng.choice(EMOTICONS)}_rest")
        else:
            word = _word(rng, lex, lang, label)
            if rng.random() < 0.05:
                word += rng.choice(ATTACHED_PUNCT)
            tokens.append(f"{word}_{lang}")
    return tokens


def generate(n: int, seed: int | str, stream: str = "",
             length_median: int = LENGTH_MEDIAN) -> str:
    """Return the text of an n-utterance corpus whose utterance lengths
    have median `length_median` tokens.

    The language (vocabularies and cue words) is the same for every seed,
    so the work per utterance does not drift with the seed; the seed and
    the stream name an independent sample of utterances from it.  A
    held-out corpus is another stream of the same seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random("codeswitch-bench/language")
    lexicons = {"hi": _Lexicon(rng, HI_FUNCTION_WORDS, HI_SYLLABLES),
                "en": _Lexicon(rng, EN_FUNCTION_WORDS, EN_SYLLABLES)}
    rng = random.Random(f"codeswitch-bench/{seed}/{stream}")
    # Labels and lengths are stratified, then shuffled: every sample of n
    # has the same label balance and the same multiset of lengths, so
    # seeds differ in content but not in the amount of work.
    labels = [1] * round(n * POSITIVE_RATE) + [0] * (n - round(n * POSITIVE_RATE))
    normal = statistics.NormalDist(math.log(length_median), LENGTH_SIGMA)
    lengths = [max(3, min(60, round(math.exp(normal.inv_cdf((i + 0.5) / n)))))
               for i in range(n)]
    rng.shuffle(labels)
    rng.shuffle(lengths)
    punct_only = set(rng.sample(range(n), round(n * PUNCT_ONLY_RATE)))
    lines = []
    for i, (label, length) in enumerate(zip(labels, lengths)):
        if i in punct_only:
            tokens = [f"{rng.choice(PUNCT_TOKENS)}_rest" for _ in range(rng.randint(1, 3))]
        else:
            tokens = _utterance(rng, lexicons, label, length)
        lines.append(f"{label}\t{' '.join(tokens)}\n")
    return "".join(lines)


def write_corpus(path, n: int, seed: int | str, stream: str = "",
                 length_median: int = LENGTH_MEDIAN) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(generate(n, seed, stream, length_median))


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__.strip().splitlines()[-1])
    write_corpus(sys.argv[4], int(sys.argv[1]), sys.argv[2], sys.argv[3])
