"""Tweet-style normalization for tagged token sequences.

Mentions, URLs and hashtags become the placeholder tokens "mention",
"url" and "hashtag" (tagged rest).  Camel-case hashtag bodies are
additionally segmented into lowercased words that inherit the hashtag's
original language tag.  Standalone punctuation is dropped and punctuation
is stripped from the edges of hi/en words; rest-tagged tokens that are not
pure punctuation (emoticons like ":P") pass through untouched.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

from codeswitch.corpus import Token

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z])(?=[A-Z])")

URL_PREFIXES = ("http://", "https://", "http", "www.")


@dataclass(frozen=True)
class PreprocessConfig:
    keep_hashtag_placeholder: bool = True
    segment_hashtags: bool = True
    punctuation_set: frozenset[str] = frozenset(string.punctuation)

    def __post_init__(self) -> None:
        if not self.punctuation_set:
            raise ValueError("punctuation_set must be non-empty")


def segment_camel_case(word: str) -> list[str]:
    """Split at every lowercase-to-uppercase boundary.

    >>> segment_camel_case("AadabArzHai")
    ['Aadab', 'Arz', 'Hai']
    """
    if not word:
        return []
    return _CAMEL_BOUNDARY.split(word)


def _is_punctuation_only(surface: str, punct: frozenset[str]) -> bool:
    return all(c in punct for c in surface)


def normalize(raw_tokens, cfg: PreprocessConfig | None = None) -> list[Token]:
    """Normalize a sequence of (surface, tag) pairs or Tokens.

    Returns a list of Tokens; may be empty if every input token was
    punctuation (callers decide whether that is an error).
    """
    if cfg is None:
        cfg = PreprocessConfig()
    punct = cfg.punctuation_set

    out: list[Token] = []
    for item in raw_tokens:
        surface, tag = (item.surface, item.tag) if isinstance(item, Token) else item
        lowered = surface.lower()

        if surface.startswith("@") and len(surface) > 1:
            out.append(Token("mention", "rest"))
        elif lowered.startswith(URL_PREFIXES):
            out.append(Token("url", "rest"))
        elif surface.startswith("#") and len(surface) > 1:
            if cfg.keep_hashtag_placeholder:
                out.append(Token("hashtag", "rest"))
            if cfg.segment_hashtags:
                for word in segment_camel_case(surface[1:]):
                    stripped = word.strip("".join(punct)).lower()
                    if stripped:
                        out.append(Token(stripped, tag))
        elif _is_punctuation_only(surface, punct):
            continue
        elif tag == "rest":
            # emoticons and other residual tokens survive verbatim
            out.append(Token(surface, tag))
        else:
            stripped = surface.strip("".join(punct))
            if stripped:
                out.append(Token(stripped, tag))
    return out
