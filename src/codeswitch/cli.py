"""Command-line frontend for the code-switching toolkit.

Subcommands: stats, features, train, eval, cv, subsample.  Each reads
each of its corpora, in the tagged-line format of codeswitch.corpus, with
one parse_corpus generator that also applies the preprocessing flags:
stats, features, train and cv hold the whole corpus, the tuple load_corpus
returns, while eval and subsample featurize and score it BLOCK_SIZE
utterances at a time, so their memory does not grow with the corpus
beyond what they write: the parser's memo of distinct raw tokens is
bounded too.  A featurizing error in one block therefore comes before a
parse error further down.  Outputs are written atomically (temp file +
rename) so partial files are never left behind, and train writes its
model and bundle together, both or neither, with the mode a plain file
creation gives under the umask.
Identical arguments and inputs produce byte-identical outputs, whatever
the BLAS thread count or the Python version.  Settings are checked before
any file is read, and each warning, whatever PYTHONWARNINGS says, is one
"warning: <message>" line.

Set CODESWITCH_CONFIG to a JSON file of option defaults (keyed by option
dest name, each value of the type its flag gives) to override the
built-in defaults.  A key applies to the subcommands that have its
option and is ignored by the rest, so one file serves every subcommand.

The flags' defaults come from codeswitch.config, which imports only the
standard library.  model and textfeat, and with them numpy, are imported
only by the code of train, eval, cv and subsample, so stats and features
start without numpy.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import closing
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from codeswitch import stats as stats_mod
from codeswitch.config import (DEFAULT_NEGATION_WORDS, KIND_ORDER, PipelineConfig, TrainConfig,
                               check_tau)
from codeswitch.corpus import (NEGATIVE, LabeledUtterance, fold_indices, load_corpus,
                               parse_corpus, read_lines, serialize_tagged_line)
from codeswitch.preprocess import PreprocessConfig
from codeswitch.switching import N_FEATURES, has_embedding_property, switching_features

if TYPE_CHECKING:
    from codeswitch.model import EvalReport
    from codeswitch.textfeat import FeatureKey

PIPELINE_FORMAT_VERSION = 1

BLOCK_SIZE = 512  # utterances that eval and subsample featurize and score at a time


def _write_output(path: str | None, text: str, *more: tuple[str, str]) -> None:
    """Write text to path, or to stdout when path is None, and each
    (path, text) of more to its path.  Every text goes to a temporary file
    beside its target first, and the files are renamed only once all are
    written, so an error leaves every target as it was.  Each file gets
    the mode open() would give it, not mkstemp's 0600, and its text is
    encoded 64 Ki characters at a time, never as one whole copy."""
    if path is None:
        sys.stdout.write(text)
        return
    outputs = ((path, text), *more)
    umask = os.umask(0)  # reading the umask sets it, so set it back at once
    os.umask(umask)
    staged: list[tuple[str, str]] = []  # (temporary file, target)
    try:
        for path, text in outputs:
            if os.path.isdir(path):  # caught here, not by a rename after others are done
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            target = Path(path)
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                for start in range(0, len(text), 1 << 16):
                    fh.write(text[start:start + (1 << 16)])
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):  # name path, not the random temporary file
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _preprocess_config(args) -> PreprocessConfig | None:
    """The command's preprocessing settings, None under --no-preprocess."""
    if args.no_preprocess:
        return None
    punct = {} if args.punct is None else {"punctuation_set": frozenset(args.punct)}
    return PreprocessConfig(keep_hashtag_placeholder=not args.no_hashtag_placeholder,
                            segment_hashtags=not args.no_segment_hashtags, **punct)


def _pipeline_config(args) -> PipelineConfig:
    from codeswitch.textfeat import load_wordlist
    negation = (load_wordlist(args.negation_file) if args.negation_file
                else DEFAULT_NEGATION_WORDS)
    return PipelineConfig(
        kinds=frozenset(args.kinds.split(",")),
        n_values={"char_ngram": tuple(args.char_n), "word_ngram": tuple(args.word_n)},
        min_count=args.min_count,
        chi2_k=None if args.chi2_k == 0 else args.chi2_k,
        use_indicative=not args.no_indicative,
        lexicon_floor=args.lexicon_floor,
        negation_words=negation,
        with_switching=args.with_switching,
        train_config=TrainConfig(max_iter=args.max_iter, tol=args.tol, l2=args.l2),
    )


def _pipeline_bundle_text(pipeline) -> str:
    cfg = pipeline.config
    # class_name is read by no one; format v1 keeps it, so bundles stay the same bytes
    lexicon = {"class_name": "", "scores": dict(sorted(pipeline.lexicon.items()))}
    doc = {
        "version": PIPELINE_FORMAT_VERSION,
        "config": {
            "kinds": sorted(cfg.kinds),
            "n_values": {k: list(v) for k, v in cfg.n_values.items()},
            "min_count": cfg.min_count,
            "chi2_k": cfg.chi2_k,
            "use_indicative": cfg.use_indicative,
            "lexicon_floor": cfg.lexicon_floor,
            "negation_words": sorted(cfg.negation_words),
            "with_switching": cfg.with_switching,
        },
        "vocab": [list(key) for key in pipeline.vocab],
        "lexicons": [lexicon] if cfg.use_indicative else [],
    }
    return json.dumps(doc, ensure_ascii=False, sort_keys=True) + "\n"


def _is_number(value) -> bool:
    return type(value) is int or type(value) is float and math.isfinite(value)


def _is_strs(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _read_json(path: str):
    """The JSON document in the file, read by read_lines; an error names it."""
    text = "".join(read_lines(path))
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a too-long integer is a plain ValueError
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _load_pipeline_bundle(path: str
                          ) -> tuple[PipelineConfig, tuple[FeatureKey, ...], dict[str, float]]:
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("version") != PIPELINE_FORMAT_VERSION:
        raise ValueError(f"unsupported pipeline bundle version in {path}")
    c = doc["config"] if isinstance(doc.get("config"), dict) else {}
    valid = {
        "kinds": _is_strs(c.get("kinds")),
        "n_values": isinstance(c.get("n_values"), dict)
        and c["n_values"].keys() == set(KIND_ORDER) and all(
            isinstance(ns, list) and all(type(n) is int for n in ns)
            for ns in c["n_values"].values()),
        "min_count": type(c.get("min_count")) is int,
        "chi2_k": "chi2_k" in c and (c["chi2_k"] is None or type(c["chi2_k"]) is int),
        "use_indicative": isinstance(c.get("use_indicative"), bool),
        "lexicon_floor": _is_number(c.get("lexicon_floor")),
        "negation_words": _is_strs(c.get("negation_words")),
        "with_switching": isinstance(c.get("with_switching"), bool),
        "vocab": isinstance(doc.get("vocab"), list) and all(
            _is_strs(pair) and len(pair) == 2 for pair in doc["vocab"]),
        "lexicons": isinstance(doc.get("lexicons"), list) and all(
            isinstance(lex, dict) and isinstance(lex.get("scores"), dict)
            and all(map(_is_number, lex["scores"].values())) for lex in doc["lexicons"]),
    }
    bad = [key for key, ok in valid.items() if not ok]
    if bad:
        raise ValueError(f"pipeline bundle {path}: missing or mistyped {', '.join(bad)}")
    if len(doc["lexicons"]) != int(c["use_indicative"]):
        raise ValueError(f"pipeline bundle {path}: lexicons must hold one entry when "
                         "use_indicative is true and none when it is false")
    try:
        cfg = PipelineConfig(
            kinds=frozenset(c["kinds"]),
            n_values={k: tuple(v) for k, v in c["n_values"].items()},
            min_count=c["min_count"],
            chi2_k=c["chi2_k"],
            use_indicative=c["use_indicative"],
            lexicon_floor=c["lexicon_floor"],
            negation_words=frozenset(c["negation_words"]),
            with_switching=c["with_switching"],
        )
    except ValueError as exc:
        raise ValueError(f"pipeline bundle {path}: {exc}") from None
    vocab = tuple((kind, payload) for kind, payload in doc["vocab"])
    if not {kind for kind, _ in vocab} <= cfg.kinds:
        raise ValueError(f"pipeline bundle {path}: a vocab kind is not in config.kinds")
    if vocab != tuple(sorted(set(vocab))):
        raise ValueError(f"pipeline bundle {path}: vocab is not strictly increasing")
    return cfg, vocab, doc["lexicons"][0]["scores"] if cfg.use_indicative else {}


def _report_dict(report: EvalReport) -> dict:
    return {
        "macro_f1": report.macro_f1,
        "per_class_f1": list(report.per_class_f1),
        "confusion": dict(zip(("tp", "fp", "fn", "tn"), report.confusion)),
        "degenerate_classes": list(report.degenerate_classes),
    }


# --------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------

def cmd_stats(args) -> int:
    columns = [stats_mod.summarize(load_corpus(path, args.preprocess)) for path in args.inputs]

    def cell(value) -> str:
        return "NA" if value is None else repr(value)

    rows = [
        ("p(T|Q)", [c.p_pos_given_q for c in columns]),
        ("p(T|~Q)", [c.p_pos_given_not_q for c in columns]),
        ("avg(S|T)", [c.avg_switch_pos for c in columns]),
        ("avg(S|~T)", [c.avg_switch_neg for c in columns]),
        ("phi", [c.phi for c in columns]),
    ]
    lines = ["metric\t" + "\t".join(Path(path).stem for path in args.inputs)]
    for name, values in rows:
        lines.append(name + "\t" + "\t".join(cell(v) for v in values))
    _write_output(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_features(args) -> int:
    corpus = load_corpus(args.input, args.preprocess)
    encode = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps makes one per call
    lines = []
    for u in corpus:
        record = {"id": u.id, "label": u.label, "q": has_embedding_property(u.tokens),
                  **vars(switching_features(u.tokens))}
        lines.append(encode(record))
    _write_output(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_train(args) -> int:
    from codeswitch.model import fit_pipeline, format_model
    if os.path.realpath(args.model_out) == os.path.realpath(args.pipeline_out):
        raise ValueError(f"{args.model_out}: one file named for two outputs")
    cfg = _pipeline_config(args)
    corpus = load_corpus(args.input, args.preprocess)
    pipeline = fit_pipeline(corpus, cfg)
    _write_output(args.model_out, format_model(pipeline.model),
                  (args.pipeline_out, _pipeline_bundle_text(pipeline)))
    print(f"trained on {len(corpus)} utterances; "
          f"feature dim {pipeline.model.dim}", file=sys.stderr)
    return 0


def _load_fitted(args):
    from codeswitch.model import FittedPipeline, load_model
    from codeswitch.textfeat import vector_dim
    cfg, vocab, lexicon = _load_pipeline_bundle(args.pipeline)
    model = load_model(args.model,
                       expected_dim=vector_dim(vocab, cfg.with_switching))
    return FittedPipeline(cfg, vocab, lexicon, model)


def _blocks(utterances: Iterator[LabeledUtterance]) -> Iterator[tuple[LabeledUtterance, ...]]:
    """The utterances, in order, as tuples of BLOCK_SIZE, the last one
    shorter."""
    while block := tuple(islice(utterances, BLOCK_SIZE)):
        yield block


def cmd_eval(args) -> int:
    """Score the corpus block by block, parsing it as it goes, and report
    the macro-F1 of the (prediction, gold) counts summed over the blocks."""
    from codeswitch.model import confusion, confusion_report
    pipeline = _load_fitted(args)
    pairs = Counter()
    with closing(parse_corpus(args.input, args.preprocess)) as utterances:
        for block in _blocks(utterances):
            pairs.update(confusion(pipeline.predict_proba(block), [u.label for u in block]))
    _write_output(args.output, json.dumps(_report_dict(confusion_report(pairs)),
                                          sort_keys=True) + "\n")
    return 0


def cmd_cv(args) -> int:
    """Split the corpus into folds, featurize it once, score every row out
    of fold under each arm (with and without switching when ablating, else
    the one --with-switching gives), and report each kept fold by index."""
    from codeswitch.model import cross_validate_arms, fold_reports
    from codeswitch.textfeat import featurize
    if args.k < 2:
        raise ValueError(f"k must be at least 2, got {args.k}")
    cfg = _pipeline_config(args)
    corpus = load_corpus(args.input, args.preprocess)
    folds = fold_indices(len(corpus), args.k, args.seed)
    every = range(N_FEATURES)  # an arm is the switching columns its model sees
    arms = (every, ()) if args.ablate_switching else (every if cfg.with_switching else (),)
    matrix = featurize(corpus, cfg.kinds, cfg.n_values, with_switching=any(arms))
    scores, skipped = cross_validate_arms(matrix, folds, cfg, arms)
    results = [fold_reports(matrix.labels, folds, z, skipped) for z in scores]
    docs = [{"folds": [_report_dict(r) for _, r in reports], "mean_macro_f1": mean,
             "skipped_folds": list(skipped)} for reports, mean in results]
    means = [mean for _, mean in results]
    if args.ablate_switching:
        delta = means[0] - means[1]
        doc = {"with_switching": docs[0], "without_switching": docs[1], "delta_macro_f1": delta}
        lines = ["variant\tmean_macro_f1", f"with_switching\t{means[0]!r}",
                 f"without_switching\t{means[1]!r}", f"delta\t{delta!r}"]
    else:
        doc = docs[0]
        lines = ["fold\tmacro_f1", *(f"{i}\t{r.macro_f1!r}" for i, r in results[0][0]),
                 f"mean\t{means[0]!r}"]

    text = "\n".join(lines) if args.format == "tsv" else json.dumps(doc, sort_keys=True)
    _write_output(args.output, text + "\n")
    return 0


def cmd_subsample(args) -> int:
    """Score the negatives of the corpus block by block, parsing it as it
    goes, and write the lines of the utterances each block keeps: its
    positives, and each negative whose probability, paired with it by its
    position among the block's negatives, is at least tau."""
    from codeswitch.model import subsample_negatives
    check_tau(args.tau)
    pipeline = _load_fitted(args)
    parts, n_kept, n_read = [], 0, 0
    with closing(parse_corpus(args.input, args.preprocess)) as utterances:
        for block in _blocks(utterances):
            negatives = [u for u in block if u.label == NEGATIVE]  # only they are scored
            kept = subsample_negatives(block, pipeline.predict_proba(negatives), args.tau)
            parts.append("".join(serialize_tagged_line(u) + "\n" for u in kept))
            n_kept, n_read = n_kept + len(kept), n_read + len(block)
    _write_output(args.output, "".join(parts))
    print(f"kept {n_kept} of {n_read} utterances", file=sys.stderr)
    return 0


# --------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------

def _add_preprocess_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-preprocess", action="store_true",
                   help="skip tweet normalization")
    p.add_argument("--no-segment-hashtags", action="store_true",
                   help="do not split camel-case hashtags")
    p.add_argument("--no-hashtag-placeholder", action="store_true",
                   help="drop the 'hashtag' placeholder token")
    p.add_argument("--punct", default=None,
                   help="characters treated as punctuation")


def _add_feature_flags(p: argparse.ArgumentParser) -> None:
    cfg = PipelineConfig()  # the flags default to its settings
    p.add_argument("--kinds", default=",".join(sorted(cfg.kinds)),
                   help=f"comma-separated feature kinds, of {', '.join(KIND_ORDER)}")
    p.add_argument("--char-n", type=int, nargs="+", default=list(cfg.n_values["char_ngram"]),
                   help="character n-gram sizes")
    p.add_argument("--word-n", type=int, nargs="+", default=list(cfg.n_values["word_ngram"]),
                   help="word n-gram sizes")
    p.add_argument("--min-count", type=int, default=cfg.min_count)
    p.add_argument("--chi2-k", type=int, default=cfg.chi2_k,
                   help="chi-squared top-k selection (0 disables)")
    p.add_argument("--no-indicative", action="store_true",
                   help="disable the indicative-lexicon dimension")
    p.add_argument("--lexicon-floor", type=_finite_float, default=cfg.lexicon_floor)
    p.add_argument("--negation-file", default=None,
                   help="file with one negation word per line")
    p.add_argument("--with-switching", action="store_true",
                   help="append the nine switching features")
    p.add_argument("--max-iter", type=int, default=cfg.train_config.max_iter,
                   help="most Newton iterations of training")
    p.add_argument("--tol", type=_finite_float, default=cfg.train_config.tol,
                   help="training stops once the gradient norm falls to tol times its start")
    p.add_argument("--l2", type=_finite_float, default=cfg.train_config.l2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codeswitch",
        description="Code-switching feature extraction and classification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        if output:
            p.add_argument("-o", "--output", default=None,
                           help="output file (default: stdout)")
        _add_preprocess_flags(p)

    p = sub.add_parser("stats", help="label/switching correlation table (TSV)")
    p.add_argument("inputs", nargs="+", help="tagged corpus files")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("features", help="per-utterance switching features (JSON lines)")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("input")
    p.add_argument("--model-out", required=True)
    p.add_argument("--pipeline-out", required=True,
                   help="fitted vocabulary/lexicon bundle (JSON)")
    common(p, output=False)
    _add_feature_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model (JSON report)")
    p.add_argument("input")
    p.add_argument("--model", required=True)
    p.add_argument("--pipeline", required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--ablate-switching", action="store_true",
                   help="run with and without switching features and report the delta")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--seed", type=int, default=13, help="seed of the fold split")
    common(p)
    _add_feature_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("subsample", help="drop low-confidence negatives")
    p.add_argument("input")
    p.add_argument("--model", required=True)
    p.add_argument("--pipeline", required=True)
    p.add_argument("--tau", type=_finite_float, default=0.001)
    common(p)
    p.set_defaults(func=cmd_subsample)

    config_path = os.environ.get("CODESWITCH_CONFIG")
    if config_path:
        overrides = _read_json(config_path)
        if not isinstance(overrides, dict):
            raise ValueError(f"CODESWITCH_CONFIG {config_path} must hold a JSON object")
        actions = {a.dest: a for sp in sub.choices.values() for a in sp._actions
                   if not isinstance(a, argparse._HelpAction)}
        unknown = set(overrides) - set(actions)
        if unknown:
            raise ValueError(f"CODESWITCH_CONFIG {config_path}: unknown options {sorted(unknown)}")
        for key, value in overrides.items():
            expected = _config_value_error(actions[key], value)
            if expected:
                raise ValueError(f"CODESWITCH_CONFIG {config_path}: {key} must be {expected}")
        for sp in sub.choices.values():
            sp.set_defaults(**{a.dest: overrides[a.dest] for a in sp._actions
                               if a.dest in overrides})
    return parser


def _finite_float(text: str) -> float:
    """argparse type of the float flags: a number that is neither NaN nor
    infinite, the same rule CODESWITCH_CONFIG applies to their values."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


_CONFIG_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    _finite_float: ("a finite number", _is_number),
    None: ("a string", lambda v: isinstance(v, str)),
}


def _config_value_error(action: argparse.Action, value) -> str | None:
    """What a CODESWITCH_CONFIG value must be to stand for this option, or
    None when it is fit: what the option's flag would have produced."""
    if isinstance(action, argparse._StoreTrueAction):
        return None if type(value) is bool else "true or false"
    if value is None and action.default is None:
        return None
    what, ok = _CONFIG_TYPES[action.type]
    if action.nargs == "+":
        fit = isinstance(value, list) and value and all(map(ok, value))
        return None if fit else f"a non-empty list, each {what}"
    if action.choices is not None:
        return None if value in action.choices else f"one of {list(action.choices)}"
    return None if ok(value) else what


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning for the CLI: the message alone, so stderr
    names no source path."""
    print(f"warning: {message}", file=sys.stderr)


def run(argv=None) -> int:
    with warnings.catch_warnings():  # restores the filters and showwarning for library callers
        warnings.simplefilter("always")  # each fold's warning is its own line, whatever -W says
        warnings.showwarning = _print_warning
        try:
            args = build_parser().parse_args(argv)
            args.preprocess = _preprocess_config(args)  # checked before any file is read
            return args.func(args)
        except (ValueError, OSError) as exc:  # CorpusFormatError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
