"""Switching-pattern features over hi/en tagged token sequences.

Each public function reads the tags once, as a string of one letter per
token (h, e or r); the hi/en projection drops the r letters, and the
switch counts and the embedding property Q are substring counts of it.
For each position i, hi_en[i] counts the hi tokens before the i-th token
when that token is en (and 0 otherwise); en_hi is the mirror image.  The
nine features are the switch counts, the tag fractions and the
population moments of these two vectors.  switching_features profiles one
utterance, and stats and features run it; switching_block, which
featurize runs, profiles many at once with numpy, bit for bit the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

from codeswitch.corpus import Token

if TYPE_CHECKING:
    import numpy as np

__all__ = ["N_FEATURES", "SwitchProfile", "SwitchVectors", "has_embedding_property",
           "lang_run_vectors", "switch_counts", "switching_block", "switching_features"]


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
    """Population mean and standard deviation.  The squared deviations are
    added left to right from 0.0, as sum() did before Python 3.12
    compensated it, and each is d * d, which IEEE 754 rounds correctly,
    not d ** 2, whose C library pow may round it the other way: so the
    result depends neither on the Python version nor on the platform."""
    n = len(values)
    mean = sum(values) / n
    var = 0.0
    for x in values:
        d = x - mean
        var += d * d
    return mean, math.sqrt(var / n)


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


def switching_block(rows: Sequence[Sequence[Token]]) -> np.ndarray:
    """switching_features of each non-empty token sequence of rows, bit for
    bit, as one row of N_FEATURES columns: every per-row sum is one
    np.bincount, which adds exact integers or correctly rounded d * d left
    to right from 0.0 as _population_moments does, and each quotient and
    np.sqrt is correctly rounded as in Python."""
    import numpy as np  # here, so that stats and features run without numpy

    letters = [*map(_tag_letters, rows)]
    n_rows = len(letters)
    lengths = np.array([*map(len, letters)], dtype=np.intp)
    tags = np.frombuffer("".join(letters).encode("ascii"), np.uint8)
    row_of = np.arange(n_rows, dtype=np.intp).repeat(lengths)
    starts = lengths.cumsum() - lengths  # each row's first position
    hi, en = tags == ord("h"), tags == ord("e")

    def per_row(terms: np.ndarray) -> np.ndarray:
        return np.bincount(row_of, terms, n_rows)

    def seen(flags: np.ndarray) -> np.ndarray:  # the flags before each position, in its row
        before = flags.cumsum() - flags
        return before - before[starts].repeat(lengths)

    def moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = per_row(values) / lengths
        d = values - mean[row_of]
        return mean, np.sqrt(per_row(d * d) / lengths)

    # the adjacent pairs of the hi/en projection within a row, by the row of their second
    lang = hi | en
    is_hi, lang_rows = hi[lang], row_of[lang]
    pair_rows = lang_rows[1:]
    same_row = pair_rows == lang_rows[:-1]
    en_hi = np.bincount(pair_rows, same_row & ~is_hi[:-1] & is_hi[1:], n_rows)
    hi_en = np.bincount(pair_rows, same_row & is_hi[:-1] & ~is_hi[1:], n_rows)
    return np.column_stack([en_hi, hi_en, en_hi + hi_en, per_row(en) / lengths,
                            per_row(hi) / lengths, *moments(np.where(en, seen(hi), 0)),
                            *moments(np.where(hi, seen(en), 0))])


def has_embedding_property(tokens: Sequence[Token]) -> bool:
    """True when some en token sits in a hi context: in the hi/en
    projection, an en token has a hi token immediately before and
    immediately after it."""
    return "heh" in _tag_letters(tokens).replace("r", "")
