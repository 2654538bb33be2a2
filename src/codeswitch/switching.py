"""Switching-pattern features over hi/en tagged token sequences.

Each reader takes the tags once, as a string of one letter per token (h,
e or r); the hi/en projection drops the r letters, and the switch counts
and the embedding property Q are substring counts of it.  For each
position i, hi_en[i] counts the hi tokens before the i-th token when that
token is en (and 0 otherwise); en_hi is the mirror image.  The nine
features are the switch counts, the tag fractions and the population
moments of these two vectors.  q_and_v gives Q with V, for stats, and
q_and_profile Q with the nine features, for features, from one reading of
the tags; the profile takes two passes over the letters and builds no
vector.  switching_block, which featurize runs, profiles many utterances
at once with numpy, bit for bit the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

from codeswitch.corpus import Token

if TYPE_CHECKING:
    import numpy as np


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


def _projection(tags: str) -> str:
    """The hi/en projection: the letters less every r."""
    return tags.replace("r", "")


def _q(projection: str) -> bool:
    """The embedding property Q: an e with an h on each side of it."""
    return "heh" in projection


def _switches(projection: str) -> tuple[int, int, int]:
    # neither "eh" nor "he" can overlap itself, so str.count is exact
    en_hi, hi_en = projection.count("eh"), projection.count("he")
    return en_hi, hi_en, en_hi + hi_en


def _profile(tags: str, projection: str) -> SwitchProfile:
    """The nine features of one utterance's letters and their projection.

    Pass 1 sums each vector as an exact integer, so each mean is int / n.
    Pass 2 adds the squared deviations left to right from 0.0, as sum()
    did before Python 3.12 compensated it, each as d * d, which IEEE 754
    rounds correctly, not d ** 2, whose C library pow may round it the
    other way: so the result depends neither on the Python version nor on
    the platform.  Where a vector holds 0, d is -mean exactly, so its
    square is the mean's own square, computed once."""
    n = len(tags)
    hi_seen = en_seen = hi_en_sum = en_hi_sum = 0
    for c in tags:
        if c == "e":
            hi_en_sum += hi_seen
            en_seen += 1
        elif c == "h":
            en_hi_sum += en_seen
            hi_seen += 1
    n_en, n_hi = en_seen, hi_seen
    mean_hi_en, mean_en_hi = hi_en_sum / n, en_hi_sum / n
    zero_hi_en, zero_en_hi = mean_hi_en * mean_hi_en, mean_en_hi * mean_en_hi
    hi_seen = en_seen = 0
    var_hi_en = var_en_hi = 0.0
    for c in tags:
        if c == "e":
            d = hi_seen - mean_hi_en
            var_hi_en += d * d
            var_en_hi += zero_en_hi
            en_seen += 1
        elif c == "h":
            var_hi_en += zero_hi_en
            d = en_seen - mean_en_hi
            var_en_hi += d * d
            hi_seen += 1
        else:
            var_hi_en += zero_hi_en
            var_en_hi += zero_en_hi
    return SwitchProfile(*_switches(projection), n_en / n, n_hi / n,
                         mean_hi_en, math.sqrt(var_hi_en / n),
                         mean_en_hi, math.sqrt(var_en_hi / n))


def q_and_v(tokens: Sequence[Token]) -> tuple[bool, int]:
    """(Q, V) of an utterance: whether it has the embedding property, an en
    token with a hi token immediately before and after it in the hi/en
    projection, and its count of switches between hi and en there."""
    projection = _projection(_tag_letters(tokens))
    return _q(projection), _switches(projection)[2]


def q_and_profile(tokens: Sequence[Token]) -> tuple[bool, SwitchProfile]:
    """(Q, the nine-feature switching profile) of an utterance, Q as in
    q_and_v.  Fractions use the full token count (rest included) in the
    denominator; vector moments are population statistics over the
    full-length vectors."""
    tags = _tag_letters(tokens)
    projection = _projection(tags)
    return _q(projection), _profile(tags, projection)


def switching_block(rows: Sequence[Sequence[Token]]) -> np.ndarray:
    """q_and_profile's profile of each non-empty token sequence of rows, bit
    for bit, as one row of N_FEATURES columns: every per-row sum is one
    np.bincount, which adds exact integers or correctly rounded d * d left
    to right from 0.0 as the profile's second pass does, and each quotient
    and np.sqrt is correctly rounded as in Python."""
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
