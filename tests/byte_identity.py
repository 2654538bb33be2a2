"""Byte-identity cases: CLI commands run on small seeded corpora from
bench/corpus_gen.py, and the SHA-256 of what each writes.  The committed
manifest, byte_identity.json beside this file, holds the digests that
test_byte_identity.py expects.

Each case records its exit status and the digests of its stdout, its
stderr and every file it writes.  Only outputs built from integers and
IEEE-exact operations are hashed whole: stats, features, eval, subsample
and cv.  Of a model file only the header is hashed (format, dim and
solver settings), and of a pipeline bundle everything but the lexicon
scores.  The weights and the scores pass through np.exp, np.logaddexp and
math.log, whose last bits may differ between numpy versions.

After an intended output change, regenerate the manifest from the
repository root with

    PYTHONPATH=src python tests/byte_identity.py

and say which entries moved, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from codeswitch.cli import run

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("byte_identity.json")

# file name -> (utterances, stream) of a bench/corpus_gen.py corpus of seed 1
CORPORA = {"a.txt": (300, "a"), "b.txt": (300, "b"), "heldout.txt": (300, "heldout"),
           "heldout_1300.txt": (1300, "heldout")}
MODEL = ["--model", "model.txt", "--pipeline", "bundle.json"]
MODEL_SW = ["--model", "model_sw.txt", "--pipeline", "bundle_sw.json"]
CASES = {
    "stats": ["stats", "a.txt", "b.txt", "-o", "stats.tsv"],
    "stats no hashtags": ["stats", "a.txt", "--no-segment-hashtags",
                          "--no-hashtag-placeholder", "--punct", "!.,"],
    "features": ["features", "a.txt"],
    "stats no preprocess": ["stats", "a.txt", "b.txt", "--no-preprocess"],
    "features no preprocess": ["features", "a.txt", "--no-preprocess", "-o", "features_raw.jsonl"],
    "train": ["train", "a.txt", "--model-out", "model.txt", "--pipeline-out", "bundle.json"],
    "train every feature": ["train", "a.txt", "--chi2-k", "0", "--model-out", "model_all.txt",
                            "--pipeline-out", "bundle_all.json"],
    "train switching": ["train", "a.txt", "--with-switching",
                        "--model-out", "model_sw.txt", "--pipeline-out", "bundle_sw.json"],
    "eval": ["eval", "heldout.txt", *MODEL, "-o", "eval.json"],
    "eval switching": ["eval", "heldout.txt", *MODEL_SW],
    "subsample": ["subsample", "heldout.txt", *MODEL, "-o", "kept.txt"],
    "subsample switching tau 0.3": ["subsample", "heldout.txt", *MODEL_SW, "--tau", "0.3",
                                    "-o", "kept_sw.txt"],
    "cv": ["cv", "b.txt", "--k", "5", "-o", "cv.json"],
    "cv switching tsv": ["cv", "b.txt", "--k", "5", "--with-switching", "--format", "tsv"],
    "cv ablate": ["cv", "a.txt", "--ablate-switching", "-o", "ablate.json"],
    "cv ablate tsv": ["cv", "b.txt", "--k", "5", "--ablate-switching", "--format", "tsv"],
    "cv ablate skipped folds": ["cv", "b.txt", "--k", "60", "--ablate-switching",
                                "-o", "ablate_k60.json"],
    "eval blocks": ["eval", "heldout_1300.txt", *MODEL, "-o", "eval_blocks.json"],
    "subsample switching blocks": ["subsample", "heldout_1300.txt", *MODEL_SW,
                                   "-o", "kept_sw_blocks.txt"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _model_header(path: Path) -> bytes:
    return b"".join(path.read_bytes().splitlines(keepends=True)[:3])


def _bundle_without_scores(path: Path) -> bytes:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["lexicons"] = [sorted(lexicon["scores"]) for lexicon in doc["lexicons"]]
    return json.dumps(doc, sort_keys=True).encode()


# output flag -> the bytes of its file that are hashed
OUTPUTS = {"-o": Path.read_bytes, "--model-out": _model_header,
           "--pipeline-out": _bundle_without_scores}


def write_corpora() -> None:
    """Write CORPORA into the current directory."""
    spec = importlib.util.spec_from_file_location("corpus_gen", ROOT / "bench" / "corpus_gen.py")
    corpus_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus_gen)
    for name, (n, stream) in CORPORA.items():
        corpus_gen.write_corpus(name, n, 1, stream)


def run_case(argv: list[str]) -> dict:
    """Exit status and digests of one CLI run in the current directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = run(argv)
    files = {argv[i + 1]: _sha256(OUTPUTS[flag](Path(argv[i + 1])))
             for i, flag in enumerate(argv) if flag in OUTPUTS}
    return {"exit": status, "stdout": _sha256(stdout.getvalue().encode()),
            "stderr": _sha256(stderr.getvalue().encode()), "files": files}


def digests() -> dict[str, dict]:
    """Every case's run_case, in order, over corpora written into the
    current directory, whose relative paths are what messages name."""
    write_corpora()
    return {name: run_case(argv) for name, argv in CASES.items()}


def main() -> None:
    os.environ.pop("CODESWITCH_CONFIG", None)
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            manifest = digests()
        finally:
            os.chdir(here)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} cases to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    main()
