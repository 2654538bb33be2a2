"""Data model and I/O for word-level language-tagged labeled corpora.

File format (one utterance per line, UTF-8, LF):

    <label> TAB <surface>_<tag> <surface>_<tag> ...

where label is 0 or 1 and tag is one of hi / en / rest.  The *last*
underscore in each token delimits the tag, so surfaces may themselves
contain underscores.  A line ends at its LF alone, so a CR, such as a
CRLF file's, is whitespace within the line.  Blank lines are skipped.

A corpus is a sequence of LabeledUtterance, in file order; the package
keeps no corpus type of its own.  read_lines reads every input file of
the package.  parse_corpus, the one parser of the format, yields a corpus
file's utterances one at a time, normalizing them under a
codeswitch.preprocess.PreprocessConfig when given one, in one pass that
parses, checks and normalizes each distinct raw token once; load_corpus
collects them into a tuple, and a caller that scores a corpus block by
block reads the generator itself.  serialize_tagged_line writes one
utterance as a line.
"""

from __future__ import annotations

import random
import sys
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from codeswitch.preprocess import PreprocessConfig

LANG_TAGS = frozenset({"hi", "en", "rest"})

POSITIVE = 1
NEGATIVE = 0

# parse_corpus clears its memo once it holds more raw tokens than this
_MEMO_TOKENS = 16_384


class CorpusFormatError(ValueError):
    """Raised when a tagged-corpus file, or a line of it, cannot be parsed."""


@dataclass(frozen=True, slots=True)
class Token:
    """A surface word plus its language tag (hi / en / rest).  Slotted,
    like LabeledUtterance, as a parse holds one per distinct raw token."""

    surface: str
    tag: str

    def __post_init__(self) -> None:
        if self.surface.split() != [self.surface]:
            raise ValueError(f"token surface must be non-empty, without whitespace: "
                             f"{self.surface!r}")
        if self.tag not in LANG_TAGS:
            raise ValueError(f"unknown language tag: {self.tag!r}")


@dataclass(frozen=True, slots=True)
class LabeledUtterance:
    """An ordered token sequence with a binary task label.

    label is 1 (positive class) or 0 (negative class).  id is an opaque
    identifier; parse_corpus numbers the lines, so ids are unique within a
    parsed corpus.
    """

    tokens: tuple[Token, ...]
    label: int
    id: str

    def __post_init__(self) -> None:
        if len(self.tokens) == 0:
            raise ValueError("utterance must contain at least one token")
        if self.label not in (POSITIVE, NEGATIVE):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


def _split_line(line: str) -> tuple[int, list[str]]:
    """The label and the raw tokens of a line."""
    if "\t" not in line:
        raise CorpusFormatError(f"expected '<label> TAB <tokens>', got {line!r}")
    label_part, _, token_part = line.rstrip("\n").partition("\t")
    label = {"1": POSITIVE, "0": NEGATIVE}.get(label_part)
    if label is None:
        raise CorpusFormatError(f"malformed label {label_part!r} (must be 0 or 1)")
    raw_tokens = token_part.split()
    if not raw_tokens:
        raise CorpusFormatError("empty token list")
    return label, raw_tokens


def _parse_token(raw: str) -> Token:
    """The Token of one raw `surface_tag` token."""
    surface, sep, tag = raw.rpartition("_")
    if not sep:
        raise CorpusFormatError(f"token without underscore tag: {raw!r}")
    if tag not in LANG_TAGS:
        raise CorpusFormatError(f"unknown tag {tag!r} in token {raw!r}")
    if not surface:
        raise CorpusFormatError(f"empty surface in token {raw!r}")
    return Token(surface, sys.intern(tag))  # one str per tag, not one per raw token


def serialize_tagged_line(utterance: LabeledUtterance) -> str:
    """The tagged line of an utterance, without its id or a newline:
    load_corpus reads it back as the same tokens and label."""
    body = " ".join(f"{t.surface}_{t.tag}" for t in utterance.tokens)
    return f"{utterance.label}\t{body}"


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines of the file at path, read as UTF-8 less a leading
    byte-order mark, each ending at an LF, which it keeps; a CR is left in
    its line.  Bytes not UTF-8 raise ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="\n") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8: {exc.reason}") from None


def parse_corpus(path: str | Path, preprocess: PreprocessConfig | None = None
                 ) -> Iterator[LabeledUtterance]:
    """The utterances of the tagged-line corpus file at path, one at a
    time, each token normalized under preprocess unless it is None: the
    one parser of the format.

    The lines come from read_lines, whose file stays open until the
    generator is exhausted or closed.  Ids are assigned as 0-based
    ordinals over non-blank lines; blank lines are skipped.  Every error
    names the file, and an error of a line its number too.  Each distinct
    raw token is parsed, checked and normalized once while a memo holds
    it, every occurrence of it then becoming the same Token objects; the
    memo is cleared once it holds more than _MEMO_TOKENS raw tokens, which
    changes no utterance.  An utterance that preprocessing leaves empty
    keeps its id unused and is dropped with a warning once the whole file
    has parsed; a corpus with no utterance left is then an error.
    """
    if preprocess is not None:
        from codeswitch.preprocess import normalize_token  # preprocess imports this module
    n_kept, dropped = 0, []
    interned: dict[str, tuple[Token, ...]] = {}  # raw token -> the tokens it becomes
    lines = ((n, line) for n, line in enumerate(read_lines(path), start=1) if line.strip())
    try:
        for uid, (line_number, line) in enumerate(lines):
            label, raw_tokens = _split_line(line)
            for raw in raw_tokens:
                if raw not in interned:
                    token = _parse_token(raw)
                    interned[raw] = (normalize_token(token, preprocess) if preprocess
                                     else (token,))
            tokens = tuple(chain.from_iterable(map(interned.__getitem__, raw_tokens)))
            if len(interned) > _MEMO_TOKENS:
                interned.clear()
            if tokens:
                n_kept += 1
                yield LabeledUtterance(tokens, label, str(uid))
            else:
                dropped.append(uid)
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{path}: line {line_number}: {exc}") from None
    for uid in dropped:
        warnings.warn(f"{path}: utterance {uid} empty after preprocessing; dropped")
    if not n_kept:
        raise CorpusFormatError(f"{path}: empty corpus{' after preprocessing' if dropped else ''}")


def load_corpus(path: str | Path, preprocess: PreprocessConfig | None = None
                ) -> tuple[LabeledUtterance, ...]:
    """The utterances of the whole corpus file at path, in file order, as
    parse_corpus reads them."""
    return tuple(parse_corpus(path, preprocess))


def fold_indices(n: int, k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """(train, test) index lists of a deterministic k-fold split of
    range(n): test folds partition it, their sizes differ by at most one,
    and both lists of a fold are in ascending order."""
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= {n}, got {k}")

    order = list(range(n))
    random.Random(seed).shuffle(order)

    base, extra = divmod(n, k)  # the first extra folds hold one more
    starts = [fold * base + min(fold, extra) for fold in range(k + 1)]
    tests = [set(order[a:b]) for a, b in zip(starts, starts[1:])]
    return [([i for i in range(n) if i not in test], sorted(test)) for test in tests]

