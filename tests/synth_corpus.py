"""Synthetic corpus generator for ablation tests: labels depend only on
the switching count, token surfaces carry no signal."""

import math
import random

from codeswitch.corpus import LabeledUtterance, Token
from codeswitch.switching import q_and_v


def switching_driven_corpus(n: int, seed: int, alpha: float = 1.5,
                            mu: float = 5.5, length: int = 12,
                            pool_size: int = 20) -> tuple[LabeledUtterance, ...]:
    """Fixed-length utterances with i.i.d. surfaces from a shared pool and
    uniform hi/en tags; label = 1 with probability sigmoid(alpha*(V - mu))
    where V is the utterance's total switch count."""
    rng = random.Random(seed)
    pool = [f"tok{j}" for j in range(pool_size)]
    utts = []
    for i in range(n):
        tokens = tuple(Token(rng.choice(pool), rng.choice(["hi", "en"]))
                       for _ in range(length))
        v = q_and_v(tokens)[1]
        p = 1.0 / (1.0 + math.exp(-alpha * (v - mu)))
        label = 1 if rng.random() < p else 0
        utts.append(LabeledUtterance(tokens, label, str(i)))
    return tuple(utts)
