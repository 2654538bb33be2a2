"""Label/switching correlation statistics over a labeled corpus.

summarize reads each utterance once, and its tags once, through
switching.q_and_v: it counts the 2x2 contingency table of (label,
embedding property Q) and collects each class's total switch counts V,
in corpus order.  From these it reports the conditional
positive rates, the class-conditional mean V, and the phi coefficient,
i.e. the Pearson correlation of the two binary indicators.  A rate or
mean whose conditioning cell or class is empty is reported as None
rather than 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from codeswitch.corpus import POSITIVE, LabeledUtterance
from codeswitch.switching import q_and_v


@dataclass(frozen=True)
class ContingencyTable:
    """Counts over label x Q: n11 = positive & Q ... n00 = negative & ~Q."""

    n11: int
    n10: int
    n01: int
    n00: int


@dataclass(frozen=True)
class SwitchTaskSummary:
    p_pos_given_q: float | None
    p_pos_given_not_q: float | None
    avg_switch_pos: float | None
    avg_switch_neg: float | None
    phi: float | None
    counts: ContingencyTable


def rates_from_table(t: ContingencyTable) -> tuple[float | None, float | None]:
    """(p(positive | Q), p(positive | ~Q)); None when a cell is empty."""
    p_q = t.n11 / (t.n11 + t.n01) if (t.n11 + t.n01) > 0 else None
    p_not_q = t.n10 / (t.n10 + t.n00) if (t.n10 + t.n00) > 0 else None
    return p_q, p_not_q


def phi_from_table(t: ContingencyTable) -> float | None:
    """Pearson correlation of the binary label and the embedding property,
    the closed-form 2x2 expression; None when a marginal is zero."""
    denom = ((t.n11 + t.n10) * (t.n01 + t.n00) * (t.n11 + t.n01) * (t.n10 + t.n00))
    if denom == 0:
        return None
    return (t.n11 * t.n00 - t.n10 * t.n01) / math.sqrt(denom)


def summarize(corpus: Iterable[LabeledUtterance]) -> SwitchTaskSummary:
    """The statistics of the corpus, from one pass over its utterances,
    each giving its Q and V from one reading of its tags (q_and_v)."""
    n = Counter()
    switches = {True: [], False: []}  # each class's V, keyed by label == POSITIVE
    for u in corpus:
        positive = u.label == POSITIVE
        q, v = q_and_v(u.tokens)
        n[positive, q] += 1
        switches[positive].append(v)
    t = ContingencyTable(n[True, True], n[True, False], n[False, True], n[False, False])
    avg_pos, avg_neg = (sum(vs) / len(vs) if vs else None
                        for vs in (switches[True], switches[False]))
    return SwitchTaskSummary(*rates_from_table(t), avg_pos, avg_neg, phi_from_table(t), t)
