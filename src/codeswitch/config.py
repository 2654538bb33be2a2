"""Settings of feature fitting and training: the feature kinds, sorted, the
order of their column blocks since columns follow the (kind, payload) keys'
own order; the default negation words, the kinds-and-sizes check,
subsample's tau check, TrainConfig and PipelineConfig.

Only the standard library is imported here, so the CLI builds every
subcommand's flags and checks CODESWITCH_CONFIG from these defaults without
importing numpy; textfeat and model take their settings from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

KIND_ORDER = ("char_ngram", "word_ngram")

# Negation cues for English plus romanized Hindi; users may supply their
# own list file instead.
DEFAULT_NEGATION_WORDS = frozenset({
    "no", "not", "never", "none", "nobody", "nothing", "nowhere",
    "neither", "nor", "cannot", "can't", "won't", "don't", "doesn't",
    "didn't", "isn't", "aren't", "wasn't", "weren't", "without",
    "nahi", "nahin", "nhi", "na", "mat", "bina", "kabhi",
})


def checked_kinds(kinds: Iterable[str], n_values: Mapping[str, Sequence[int]]) -> frozenset[str]:
    """The kinds as a frozenset.  A kind not in KIND_ORDER is a ValueError,
    and so is a size of any kind of n_values that is below 1 or repeated
    within its kind, which would count its n-grams twice."""
    for kind, ns in n_values.items():
        if min(ns, default=1) < 1:
            raise ValueError(f"{kind} sizes must be >= 1, got {list(ns)}")
        if len(set(ns)) < len(ns):
            raise ValueError(f"{kind} sizes must not repeat, got {list(ns)}")
    kinds = frozenset(kinds)
    unknown = kinds - set(KIND_ORDER)
    if unknown:
        hint = "; bow was removed: use word_ngram with --word-n 1" if "bow" in unknown else ""
        raise ValueError(f"unknown feature kinds: {sorted(unknown)}{hint}")
    return kinds


def check_tau(tau: float) -> None:
    """tau, the probability below which subsample drops a negative, must lie
    in (0, 1); otherwise a ValueError."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")


@dataclass(frozen=True)
class TrainConfig:
    max_iter: int = 100
    tol: float = 1e-6
    l2: float = 1e-3

    def __post_init__(self) -> None:
        if not (1 <= self.max_iter < math.inf and 0 < self.tol < math.inf
                and 0 <= self.l2 < math.inf):  # or NaN
            raise ValueError(f"need finite max_iter >= 1, tol > 0 and l2 >= 0, got {self}")


@dataclass(frozen=True)
class PipelineConfig:
    kinds: frozenset[str] = frozenset(KIND_ORDER)
    n_values: Mapping[str, tuple[int, ...]] = field(
        default_factory=lambda: {"char_ngram": (3,), "word_ngram": (1, 2)})
    min_count: int = 1
    chi2_k: int | None = 500
    use_indicative: bool = True
    lexicon_floor: float = 0.0
    negation_words: frozenset[str] = DEFAULT_NEGATION_WORDS
    with_switching: bool = False
    train_config: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        if self.chi2_k is not None and self.chi2_k < 1:
            raise ValueError(f"chi2_k must be >= 1 (None keeps every feature), got {self.chi2_k}")
        if self.min_count < 0:
            raise ValueError(f"min_count must be >= 0, got {self.min_count}")
        checked_kinds(self.kinds, self.n_values)  # also the sizes of a kind that is off
