"""Switching-pattern features over hi/en tagged token sequences.

Each public function reads the tags once, as a string of one letter per
token (h, e or r); the hi/en projection drops the r letters, and the
switch counts and the embedding property Q are substring counts of it.
For each position i, hi_en[i] counts the hi tokens before the i-th token
when that token is en (and 0 otherwise); en_hi is the mirror image.  The
nine features are the switch counts, the tag fractions and the
population moments of these two vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from codeswitch.corpus import Token


@dataclass(frozen=True)
class SwitchVectors:
    hi_en: tuple[int, ...]
    en_hi: tuple[int, ...]


@dataclass(frozen=True)
class SwitchProfile:
    """The nine switching features, in canonical (field) order."""

    en_hi_switches: int
    hi_en_switches: int
    v: int
    fraction_en: float
    fraction_hi: float
    mean_hi_en: float
    stddev_hi_en: float
    mean_en_hi: float
    stddev_en_hi: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(vars(self).values())


N_FEATURES = len(fields(SwitchProfile))


def _tag_letters(tokens: Sequence[Token]) -> str:
    """Each tag's first letter, which tells hi, en and rest apart."""
    if len(tokens) == 0:
        raise ValueError("token sequence must be non-empty")
    return "".join([t.tag[0] for t in tokens])


def _vectors(tags: str) -> SwitchVectors:
    hi_en, en_hi, hi_seen, en_seen = [], [], 0, 0
    for c in tags:
        if c == "e":
            hi_en.append(hi_seen)
            en_hi.append(0)
            en_seen += 1
        elif c == "h":
            hi_en.append(0)
            en_hi.append(en_seen)
            hi_seen += 1
        else:
            hi_en.append(0)
            en_hi.append(0)
    return SwitchVectors(tuple(hi_en), tuple(en_hi))


def _switches(tags: str) -> tuple[int, int, int]:
    # neither "eh" nor "he" can overlap itself, so str.count is exact
    projection = tags.replace("r", "")
    en_hi, hi_en = projection.count("eh"), projection.count("he")
    return en_hi, hi_en, en_hi + hi_en


def lang_run_vectors(tokens: Sequence[Token]) -> SwitchVectors:
    """Cumulative opposite-language counts per position.

    rest tokens get a 0 entry in both vectors and count in neither tally.
    """
    return _vectors(_tag_letters(tokens))


def switch_counts(tokens: Sequence[Token]) -> tuple[int, int, int]:
    """(en_hi_switches, hi_en_switches, V) over the hi/en projection."""
    return _switches(_tag_letters(tokens))


def _population_moments(values: Sequence[int]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((x - mean) ** 2 for x in values) / n
    return mean, math.sqrt(var)


def switching_features(tokens: Sequence[Token]) -> SwitchProfile:
    """Compute the nine-feature switching profile of an utterance.

    Fractions use the full token count (rest included) in the denominator;
    vector moments are population statistics over the full-length vectors.
    """
    tags = _tag_letters(tokens)
    vectors = _vectors(tags)
    n = len(tags)
    return SwitchProfile(*_switches(tags), tags.count("e") / n, tags.count("h") / n,
                         *_population_moments(vectors.hi_en), *_population_moments(vectors.en_hi))


def has_embedding_property(tokens: Sequence[Token]) -> bool:
    """True when some en token sits in a hi context: in the hi/en
    projection, an en token has a hi token immediately before and
    immediately after it."""
    return "heh" in _tag_letters(tokens).replace("r", "")
