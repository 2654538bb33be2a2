"""Switching-pattern features over hi/en tagged token sequences.

For each position i, hi_en[i] counts the hi tokens occurring before the
i-th token when that token is en (and 0 otherwise); en_hi is the mirror
image.  Nine summary features are derived from these vectors and from the
adjacent-transition counts of the hi/en-projected tag sequence.
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
    """The nine switching features, in canonical order (see as_tuple)."""

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
        return (self.en_hi_switches, self.hi_en_switches, self.v,
                self.fraction_en, self.fraction_hi,
                self.mean_hi_en, self.stddev_hi_en,
                self.mean_en_hi, self.stddev_en_hi)


N_FEATURES = len(fields(SwitchProfile))


def _require_tokens(tokens: Sequence[Token]) -> None:
    if len(tokens) == 0:
        raise ValueError("token sequence must be non-empty")


def lang_run_vectors(tokens: Sequence[Token]) -> SwitchVectors:
    """Cumulative opposite-language counts per position.

    rest tokens get a 0 entry in both vectors and count in neither tally.
    """
    _require_tokens(tokens)
    hi_en = []
    en_hi = []
    hi_seen = 0
    en_seen = 0
    for tok in tokens:
        if tok.tag == "en":
            hi_en.append(hi_seen)
            en_hi.append(0)
            en_seen += 1
        elif tok.tag == "hi":
            hi_en.append(0)
            en_hi.append(en_seen)
            hi_seen += 1
        else:
            hi_en.append(0)
            en_hi.append(0)
    return SwitchVectors(tuple(hi_en), tuple(en_hi))


def _projected_tags(tokens: Sequence[Token]) -> list[str]:
    return [t.tag for t in tokens if t.tag in ("hi", "en")]


def switch_counts(tokens: Sequence[Token]) -> tuple[int, int, int]:
    """(en_hi_switches, hi_en_switches, V) over the hi/en projection."""
    _require_tokens(tokens)
    tags = _projected_tags(tokens)
    en_hi = sum(1 for a, b in zip(tags, tags[1:]) if (a, b) == ("en", "hi"))
    hi_en = sum(1 for a, b in zip(tags, tags[1:]) if (a, b) == ("hi", "en"))
    return en_hi, hi_en, en_hi + hi_en


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
    _require_tokens(tokens)
    vectors = lang_run_vectors(tokens)
    n = len(tokens)
    return SwitchProfile(*switch_counts(tokens),  # in as_tuple order
                         sum(1 for t in tokens if t.tag == "en") / n,
                         sum(1 for t in tokens if t.tag == "hi") / n,
                         *_population_moments(vectors.hi_en), *_population_moments(vectors.en_hi))


def has_embedding_property(tokens: Sequence[Token]) -> bool:
    """True when some en token sits in a hi context: in the hi/en
    projection, an en token has a hi token immediately before and
    immediately after it."""
    _require_tokens(tokens)
    tags = _projected_tags(tokens)
    return any(tags[i - 1] == "hi" and tags[i] == "en" and tags[i + 1] == "hi"
               for i in range(1, len(tags) - 1))
