"""Tweet-style normalization for tagged token sequences.

Mentions, URLs and hashtags become the placeholder tokens "mention",
"url" and "hashtag" (tagged rest).  Camel-case hashtag bodies are
additionally segmented into lowercased words that inherit the hashtag's
original language tag.  Standalone punctuation is dropped and punctuation
is stripped from the edges of hi/en words; rest-tagged tokens that are not
pure punctuation (emoticons like ":P") pass through untouched.

A token's output does not depend on its position, so normalize_token
decides it alone, normalize maps it over a sequence of Tokens, and
codeswitch.corpus.parse_corpus, given a PreprocessConfig, calls
normalize_token once per distinct raw token of the corpus it reads.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from codeswitch.corpus import Token

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z])(?=[A-Z])")

URL_PREFIXES = ("http://", "https://", "http", "www.")

_MENTION = (Token("mention", "rest"),)
_URL = (Token("url", "rest"),)
_HASHTAG = (Token("hashtag", "rest"),)


@dataclass(frozen=True)
class PreprocessConfig:
    keep_hashtag_placeholder: bool = True
    segment_hashtags: bool = True
    punctuation_set: frozenset[str] = frozenset(string.punctuation)

    def __post_init__(self) -> None:
        if not self.punctuation_set or any(len(c) != 1 for c in self.punctuation_set):
            raise ValueError("punctuation_set must be a non-empty set of single characters")

    @cached_property
    def strip_chars(self) -> str:
        """The punctuation as one str.strip argument."""
        return "".join(self.punctuation_set)


def segment_camel_case(word: str) -> list[str]:
    """Split at every lowercase-to-uppercase boundary.

    >>> segment_camel_case("AadabArzHai")
    ['Aadab', 'Arz', 'Hai']
    """
    if not word:
        return []
    return _CAMEL_BOUNDARY.split(word)


def normalize_token(token: Token, cfg: PreprocessConfig) -> tuple[Token, ...]:
    """The tokens one token normalizes to, whatever its position: a
    placeholder (plus, for a hashtag, its segments), nothing for
    punctuation only, the token itself (the same object) when it is kept
    as it is, or its edge-stripped word."""
    surface, tag = token.surface, token.tag
    if surface.startswith("@") and len(surface) > 1:
        return _MENTION
    if surface.lower().startswith(URL_PREFIXES):
        return _URL
    if surface.startswith("#") and len(surface) > 1:
        placeholder = _HASHTAG if cfg.keep_hashtag_placeholder else ()
        words = segment_camel_case(surface[1:]) if cfg.segment_hashtags else ()
        segments = (w.strip(cfg.strip_chars).lower() for w in words)
        return placeholder + tuple(Token(w, tag) for w in segments if w)
    stripped = surface.strip(cfg.strip_chars)
    if not stripped:
        return ()
    if tag == "rest" or stripped == surface:
        # rest tokens (emoticons like ":P") keep their edge punctuation
        return (token,)
    return (Token(stripped, tag),)


def normalize(tokens: Iterable[Token], cfg: PreprocessConfig | None = None) -> list[Token]:
    """Normalize a sequence of Tokens, each by normalize_token.

    Returns a list of Tokens; may be empty if every input token was
    punctuation (callers decide whether that is an error).
    """
    if cfg is None:
        cfg = PreprocessConfig()
    return [out for token in tokens for out in normalize_token(token, cfg)]
