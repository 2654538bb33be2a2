"""Label/switching correlation statistics over a labeled corpus.

Builds the 2x2 contingency table of (label, embedding property) and
reports conditional positive rates, class-conditional average switching
(mean total switches V), and the phi coefficient, i.e. the Pearson
correlation of the two binary indicators.  Rates whose conditioning cell
is empty are reported as None rather than 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from codeswitch.corpus import LabeledCorpus, POSITIVE
from codeswitch.switching import has_embedding_property, switch_counts


@dataclass(frozen=True)
class ContingencyTable:
    """Counts over label x Q: n11 = positive & Q ... n00 = negative & ~Q."""

    n11: int
    n10: int
    n01: int
    n00: int

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00


@dataclass(frozen=True)
class SwitchTaskSummary:
    task_name: str
    p_pos_given_q: float | None
    p_pos_given_not_q: float | None
    avg_switch_pos: float | None
    avg_switch_neg: float | None
    phi: float | None
    counts: ContingencyTable


def contingency(corpus: LabeledCorpus) -> ContingencyTable:
    n = Counter((u.label == POSITIVE, has_embedding_property(u.tokens)) for u in corpus)
    return ContingencyTable(n[True, True], n[True, False], n[False, True], n[False, False])


def rates_from_table(t: ContingencyTable) -> tuple[float | None, float | None]:
    """(p(positive | Q), p(positive | ~Q)); None when a cell is empty."""
    p_q = t.n11 / (t.n11 + t.n01) if (t.n11 + t.n01) > 0 else None
    p_not_q = t.n10 / (t.n10 + t.n00) if (t.n10 + t.n00) > 0 else None
    return p_q, p_not_q


def average_switching(corpus: LabeledCorpus) -> tuple[float | None, float | None]:
    """Mean total switches V over positives and over negatives."""
    pos = [switch_counts(u.tokens)[2] for u in corpus if u.label == POSITIVE]
    neg = [switch_counts(u.tokens)[2] for u in corpus if u.label != POSITIVE]
    avg_pos = sum(pos) / len(pos) if pos else None
    avg_neg = sum(neg) / len(neg) if neg else None
    return avg_pos, avg_neg


def phi_from_table(t: ContingencyTable) -> float | None:
    """Pearson correlation of the binary label and the embedding property,
    the closed-form 2x2 expression; None when a marginal is zero."""
    denom = ((t.n11 + t.n10) * (t.n01 + t.n00) * (t.n11 + t.n01) * (t.n10 + t.n00))
    if denom == 0:
        return None
    return (t.n11 * t.n00 - t.n10 * t.n01) / math.sqrt(denom)


def summarize(corpus: LabeledCorpus) -> SwitchTaskSummary:
    t = contingency(corpus)
    return SwitchTaskSummary(corpus.task_name, *rates_from_table(t), *average_switching(corpus),
                             phi_from_table(t), t)
