"""Command-line frontend for the code-switching toolkit.

Subcommands: stats, features, train, eval, cv, subsample.  All read
corpora in the tagged-line format of codeswitch.corpus.  Outputs are
written atomically (temp file + rename) so partial files are never left
behind, with the mode a plain file creation gives under the umask.
Identical arguments and inputs produce byte-identical outputs, whatever
the BLAS thread count.  Settings are checked before any file is read, and
each warning, whatever PYTHONWARNINGS says, is one "warning: <message>" line.

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
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from codeswitch import stats as stats_mod
from codeswitch.config import (DEFAULT_NEGATION_WORDS, KIND_ORDER, PipelineConfig, TrainConfig,
                               check_tau)
from codeswitch.corpus import (
    CorpusFormatError,
    LabeledCorpus,
    LabeledUtterance,
    Token,
    load_corpus,
    serialize_tagged_line,
)
from codeswitch.preprocess import PreprocessConfig, normalize_token
from codeswitch.switching import has_embedding_property, switching_features

if TYPE_CHECKING:
    from codeswitch.model import CVResult, EvalReport
    from codeswitch.textfeat import FeatureKey

PIPELINE_FORMAT_VERSION = 1


def _write_output(path: str | None, text: str) -> None:
    """Write atomically to path, or to stdout when path is None.  The file
    gets the mode open() would give it, not mkstemp's 0600."""
    if path is None:
        sys.stdout.write(text)
        return
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."),
                               prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        umask = os.umask(0)  # reading the umask sets it, so set it back at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _preprocess_config(args) -> PreprocessConfig | None:
    """The command's preprocessing settings, None under --no-preprocess."""
    if args.no_preprocess:
        return None
    punct = {} if args.punct is None else {"punctuation_set": frozenset(args.punct)}
    return PreprocessConfig(keep_hashtag_placeholder=not args.no_hashtag_placeholder,
                            segment_hashtags=not args.no_segment_hashtags, **punct)


def _preprocess_corpus(corpus: LabeledCorpus, cfg: PreprocessConfig | None,
                       path: str) -> LabeledCorpus:
    """The corpus read from path, normalized under cfg once per distinct
    token, or as read when cfg is None; utterances left empty are dropped
    with a warning, and the warning and the error for a corpus left empty
    name the path."""
    if cfg is None:
        return corpus
    normalized: dict[Token, tuple[Token, ...]] = {}
    kept = []
    for u in corpus:
        tokens: list[Token] = []
        for t in u.tokens:
            out = normalized.get(t)
            if out is None:
                out = normalized[t] = normalize_token(t, cfg)
            tokens += out
        if not tokens:
            warnings.warn(f"{path}: utterance {u.id} empty after preprocessing; dropped")
            continue
        kept.append(LabeledUtterance(tuple(tokens), u.label, u.id))
    if not kept:
        raise CorpusFormatError(f"{path}: empty corpus after preprocessing")
    return corpus.subset(kept)


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


def _save_pipeline_bundle(pipeline, path: str) -> None:
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
    _write_output(path, json.dumps(doc, ensure_ascii=False, sort_keys=True) + "\n")


def _is_number(value) -> bool:
    return type(value) is int or type(value) is float and math.isfinite(value)


def _is_strs(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _read_json(path: str):
    """The JSON document in the file; an error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _load_pipeline_bundle(path: str
                          ) -> tuple[PipelineConfig, tuple[FeatureKey, ...], dict[str, float]]:
    from codeswitch.textfeat import _feature_sort_key
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("version") != PIPELINE_FORMAT_VERSION:
        raise ValueError(f"unsupported pipeline bundle version in {path}")
    c = doc["config"] if isinstance(doc.get("config"), dict) else {}
    valid = {
        "kinds": _is_strs(c.get("kinds")) and set(c["kinds"]) <= set(KIND_ORDER),
        "n_values": isinstance(c.get("n_values"), dict)
        and c["n_values"].keys() == {"char_ngram", "word_ngram"} and all(
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
    vocab = tuple((kind, payload) for kind, payload in doc["vocab"])
    if not {kind for kind, _ in vocab} <= set(c["kinds"]):
        raise ValueError(f"pipeline bundle {path}: a vocab kind is not in config.kinds")
    if vocab != tuple(sorted(set(vocab), key=_feature_sort_key)):
        raise ValueError(f"pipeline bundle {path}: vocab is not strictly increasing")
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
    return cfg, vocab, doc["lexicons"][0]["scores"] if cfg.use_indicative else {}


def _report_dict(report: EvalReport) -> dict:
    return {
        "macro_f1": report.macro_f1,
        "per_class_f1": list(report.per_class_f1),
        "confusion": dict(zip(("tp", "fp", "fn", "tn"), report.confusion)),
        "degenerate_classes": list(report.degenerate_classes),
    }


def _cv_dict(result: CVResult) -> dict:
    return {
        "folds": [_report_dict(r) for r in result.reports],
        "mean_macro_f1": result.mean_macro_f1,
        "skipped_folds": list(result.skipped_folds),
    }


# --------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------

def cmd_stats(args) -> int:
    columns = [stats_mod.summarize(_preprocess_corpus(load_corpus(path), args.preprocess, path))
               for path in args.inputs]

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
    corpus = _preprocess_corpus(load_corpus(args.input), args.preprocess, args.input)
    lines = []
    for u in corpus:
        record = {"id": u.id, "label": u.label, "q": has_embedding_property(u.tokens),
                  **vars(switching_features(u.tokens))}
        lines.append(json.dumps(record, ensure_ascii=False))
    _write_output(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_train(args) -> int:
    from codeswitch.model import fit_pipeline, format_model
    cfg = _pipeline_config(args)
    corpus = _preprocess_corpus(load_corpus(args.input), args.preprocess, args.input)
    pipeline = fit_pipeline(corpus, cfg)
    _write_output(args.model_out, format_model(pipeline.model))
    _save_pipeline_bundle(pipeline, args.pipeline_out)
    print(f"trained on {len(corpus)} utterances; "
          f"feature dim {pipeline.model.dim}", file=sys.stderr)
    return 0


def _load_fitted(args):
    from codeswitch.model import FittedPipeline, load_model
    from codeswitch.textfeat import vector_dim
    cfg, vocab, lexicon = _load_pipeline_bundle(args.pipeline)
    model = load_model(args.model,
                       expected_dim=vector_dim(vocab, cfg.with_switching))
    # the bundle holds no solver settings; the model file does
    return FittedPipeline(replace(cfg, train_config=model.training_meta), vocab, lexicon, model)


def cmd_eval(args) -> int:
    from codeswitch.model import evaluate
    pipeline = _load_fitted(args)
    corpus = _preprocess_corpus(load_corpus(args.input), args.preprocess, args.input)
    report = evaluate(pipeline.predict_proba(corpus), [u.label for u in corpus])
    _write_output(args.output, json.dumps(_report_dict(report), sort_keys=True) + "\n")
    return 0


def cmd_cv(args) -> int:
    from codeswitch.model import cross_validate, cross_validate_arms
    cfg = _pipeline_config(args)
    corpus = _preprocess_corpus(load_corpus(args.input), args.preprocess, args.input)

    if args.ablate_switching:
        with_sw, without_sw = cross_validate_arms(corpus, cfg, (True, False), args.k, args.seed)
        delta = with_sw.mean_macro_f1 - without_sw.mean_macro_f1
        doc = {"with_switching": _cv_dict(with_sw), "without_switching": _cv_dict(without_sw),
               "delta_macro_f1": delta}
        lines = ["variant\tmean_macro_f1", f"with_switching\t{with_sw.mean_macro_f1!r}",
                 f"without_switching\t{without_sw.mean_macro_f1!r}", f"delta\t{delta!r}"]
    else:
        result = cross_validate(corpus, cfg, args.k, args.seed)
        doc = _cv_dict(result)
        lines = ["fold\tmacro_f1", *(f"{i}\t{r.macro_f1!r}" for i, r in enumerate(result.reports)),
                 f"mean\t{result.mean_macro_f1!r}"]

    text = "\n".join(lines) if args.format == "tsv" else json.dumps(doc, sort_keys=True)
    _write_output(args.output, text + "\n")
    return 0


def cmd_subsample(args) -> int:
    from codeswitch.model import subsample_negatives
    check_tau(args.tau)
    pipeline = _load_fitted(args)
    corpus = _preprocess_corpus(load_corpus(args.input), args.preprocess, args.input)
    negatives = corpus.subset(corpus.negatives)  # only they are scored
    proba = pipeline.predict_proba(negatives)
    by_id = dict(zip([u.id for u in negatives], proba.tolist()))
    filtered = subsample_negatives(corpus, lambda u: by_id[u.id], args.tau)
    _write_output(args.output, "".join(serialize_tagged_line(u) + "\n" for u in filtered))
    print(f"kept {len(filtered)} of {len(corpus)} utterances", file=sys.stderr)
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
