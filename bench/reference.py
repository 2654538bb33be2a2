"""The reference program: a fixed piece of work shaped like a CLI command.

    python3 bench/reference.py [--dense]

run.py starts it as a child process after every measured command and
gives each command's time in units of the reference runs on either side
of it.  Like a command, it starts a fresh interpreter, imports numpy and
then runs a pure-Python loop over tokens (lower-casing them and counting
unigrams and bigrams in a dict).  With --dense it also multiplies a
64 MB dense matrix by a vector and its transpose by the result, as the
trainer does on a wide vocabulary.  It imports nothing from codeswitch,
so a change to the program does not move it, while a change in the speed
of the machine moves both.
"""

import sys

import numpy

TOKENS = [f"Tok{i % 1931}{'ab'[i % 2]}" for i in range(60_000)]


def count_tokens() -> None:
    for _ in range(3):
        counts: dict[str, int] = {}
        prev = ""
        for tok in TOKENS:
            t = tok.lower()
            counts[t] = counts.get(t, 0) + 1
            bigram = prev + " " + t
            counts[bigram] = counts.get(bigram, 0) + 1
            prev = t


def multiply_dense() -> None:
    X = numpy.ones((400, 20_000))
    w = numpy.full(20_000, 1e-3)
    for _ in range(25):
        X.T @ (X @ w)


def main(argv: list[str]) -> int:
    count_tokens()
    if argv == ["--dense"]:
        multiply_dense()
    elif argv:
        print("usage: reference.py [--dense]", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
