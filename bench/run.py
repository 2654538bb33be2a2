#!/usr/bin/env python3
"""End-to-end benchmark of the codeswitch CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (it runs `src/codeswitch` from there,
never an installed copy).  The seed fixes every generated input.  One
client drives the real CLI in a closed loop: one child process at a time,
the next command only after the last one exits.  A cycle is the
workload's list of measured commands; cycles repeat until S seconds have
passed (at least MIN_CYCLES).  Every output is checked; a nonzero
exit, a traceback on stderr or a failed check counts the command as a
failed operation.  A run of bench/reference.py follows every command and
every set-up, and the bounded times are in units of those runs (see
bench/README.md).

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced cycles with cycles run under bench/traced_cli.py and
prints the per-layer metrics, each span's self time, the share of wall
time no span covers, and the tracing overhead.  Human-readable lines come
first; the last line of stdout is one JSON object.  `--workload all`
runs every workload in turn and ends with one JSON object holding all
their results and the environment.

Scratch files go to .bench_work/ in the current directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import corpus_gen

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_MIN_REPEATS = 3      # set-up repeats until both minimums are met,
SETUP_MIN_SECONDS = 2.0    # reference runs included; setup_s is their median
REF_NOMINAL_S = 0.25       # seconds per reference run that setup_s assumes
MIN_CYCLES = 2
RUN_DEADLINE_S = 170   # every run must end within 180 s

# input sizes (utterances); BENCHMARK.json says what each workload stresses
CV_UTTERANCES = 150       # short cycles, so a run measures many of them
CV_FOLDS = 10
SCORE_TRAIN_UTTERANCES = 2000
SCORE_HELDOUT_UTTERANCES = 2500
STATS_UTTERANCES = 4000
WIDE_UTTERANCES = 300
WIDE_LENGTH_MEDIAN = 48  # long posts: a ~18k-feature vocabulary, and an
                         # unscaled indicative score past 30
SUBSAMPLE_TAU = "0.001"

# Counts that must repeat exactly on the same inputs.
EXACT_COUNTS = ("textfeat.extract_calls", "model.epochs", "model.loss_increases",
                "model.dense_bytes", "textfeat.vocab_size", "textfeat.nnz")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """One finished child process."""

    name: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    errors: list[str] = field(default_factory=list)
    ref_s: float = 0.0  # mean reference run just before and just after

    @property
    def failed(self) -> bool:
        return bool(self.errors)


class Runner:
    """Starts one child at a time and reaps it with os.wait4."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "CODESWITCH_CONFIG")}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, name: str, argv: list[str], trace_out: Path | None = None) -> Outcome:
        if trace_out is None:
            args = [sys.executable, "-m", "codeswitch.cli", *argv]
        else:
            args = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_out), *argv]
        return self.spawn(name, args)

    def reference(self, *args: str) -> float:
        """Wall time of one run of bench/reference.py."""
        outcome = self.spawn("reference", [sys.executable, str(BENCH / "reference.py"), *args])
        if outcome.failed:
            raise RuntimeError(f"bench/reference.py failed: {outcome.errors}")
        return outcome.wall_s

    def spawn(self, name: str, args: list[str]) -> Outcome:
        stdout_path = WORK / f"{name}.stdout"
        stderr_path = WORK / f"{name}.stderr"
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, args, self.env, file_actions=actions)
        killer = threading.Timer(remaining, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        outcome = Outcome(name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                          os.waitstatus_to_exitcode(status))
        if outcome.returncode != 0:
            outcome.errors.append(f"exit code {outcome.returncode}")
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        if "Traceback (most recent call last)" in stderr:
            outcome.errors.append("traceback on stderr")
        return outcome


# ----------------------------------------------------------------------
# Reference values computed from the inputs (outside timed regions)
# ----------------------------------------------------------------------

def preprocessed(path: Path) -> list:
    """The utterances the CLI keeps after default preprocessing, in order."""
    from codeswitch.corpus import LabeledUtterance, load_corpus
    from codeswitch.preprocess import normalize
    kept = []
    for u in load_corpus(path):
        tokens = normalize(u.tokens)
        if tokens:
            kept.append(LabeledUtterance(tuple(tokens), u.label, u.id))
    return kept


def load_served(model_path: Path, bundle_path: Path):
    """The saved model and pipeline, loaded as the CLI loads them."""
    from codeswitch.cli import _load_pipeline_bundle
    from codeswitch.model import FittedPipeline, load_model
    cfg, vocab, lexicons = _load_pipeline_bundle(str(bundle_path))
    return FittedPipeline(cfg, vocab, lexicons, load_model(model_path))


def model_dim_errors(model_path: Path, bundle_path: Path, with_switching: bool) -> list[str]:
    pipeline = load_served(model_path, bundle_path)
    n_vocab = len(pipeline.vocab)
    expected = n_vocab + 2 + (9 if with_switching else 0)
    errors = []
    if pipeline.model.dim != expected:
        errors.append(f"model dim {pipeline.model.dim} != vocab {n_vocab} + 2"
                      f"{' + 9' if with_switching else ''}")
    if pipeline.config.with_switching != with_switching:
        errors.append("bundle with_switching flag is wrong")
    return errors


def objective(model_path: Path, bundle_path: Path, corpus_path: Path) -> tuple[float, float]:
    """Training objective and gradient norm of a saved model on the corpus
    it was trained on, featurized by the saved pipeline."""
    import numpy as np
    from codeswitch.model import loss_and_grad, to_dense
    pipeline = load_served(model_path, bundle_path)
    kept = preprocessed(corpus_path)
    X = to_dense([pipeline.vectorize(u) for u in kept])
    y = np.asarray([u.label for u in kept], dtype=np.float64)
    model = pipeline.model
    loss, grad_w, grad_b = loss_and_grad(model.weights, model.bias, X, y,
                                         model.training_meta.l2)
    return loss, math.sqrt(float(grad_w @ grad_w) + grad_b * grad_b)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def f1_from_confusion(tp: int, fp: int, fn: int, tn: int) -> tuple[float, float]:
    def f1(t, f_a, f_b):
        return 2 * t / (2 * t + f_a + f_b) if (2 * t + f_a + f_b) else 0.0
    return f1(tp, fp, fn), f1(tn, fn, fp)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@dataclass
class Command:
    name: str              # the subcommand; its time is reported as <name>_s
    argv: list[str]
    utterances: int        # input utterances it reads
    outputs: list[Path]    # files whose bytes must repeat across cycles


class Workload:
    """Inputs, measured commands, output checks and quality numbers."""

    name = ""
    reference_args: tuple[str, ...] = ()  # bench/reference.py flags for its commands

    def __init__(self, seed: int, runner: Runner):
        self.seed = seed
        self.runner = runner
        self.setup_outcomes: list[Outcome] = []

    def setup(self) -> None:
        """Generate and write the corpora (and anything served)."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Reference values the checks need; untimed."""

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def check(self) -> dict[str, list[str]]:
        """Errors per command name for the outputs of the last cycle."""
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        return {}


class CvAblate(Workload):
    name = "cv-ablate"

    def setup(self):
        corpus_gen.write_corpus(WORK / "cv.txt", CV_UTTERANCES, self.seed, "cv")

    def commands(self):
        return [Command("cv", ["cv", str(WORK / "cv.txt"), "--k", str(CV_FOLDS),
                               "--ablate-switching", "-o", str(WORK / "cv.json")],
                        CV_UTTERANCES, [WORK / "cv.json"])]

    def check(self):
        doc = json.loads((WORK / "cv.json").read_text(encoding="utf-8"))
        errors = []
        for variant in ("with_switching", "without_switching"):
            part = doc[variant]
            folds = len(part["folds"]) + len(part["skipped_folds"])
            if folds != CV_FOLDS or not part["folds"]:
                errors.append(f"{variant}: {folds} folds reported, expected {CV_FOLDS}")
                continue
            mean = sum(f["macro_f1"] for f in part["folds"]) / len(part["folds"])
            if not close(mean, part["mean_macro_f1"]):
                errors.append(f"{variant}: mean_macro_f1 is not the mean of its folds")
        delta = doc["with_switching"]["mean_macro_f1"] - doc["without_switching"]["mean_macro_f1"]
        if delta != doc["delta_macro_f1"]:
            errors.append("delta_macro_f1 != with - without")
        return {"cv": errors}

    def quality(self):
        doc = json.loads((WORK / "cv.json").read_text(encoding="utf-8"))
        return {"macro_f1_sw": doc["with_switching"]["mean_macro_f1"],
                "macro_f1_base": doc["without_switching"]["mean_macro_f1"],
                "cv_delta_macro_f1": doc["delta_macro_f1"]}


class Score(Workload):
    name = "score"

    def setup(self):
        corpus_gen.write_corpus(WORK / "train.txt", SCORE_TRAIN_UTTERANCES, self.seed, "train")
        corpus_gen.write_corpus(WORK / "heldout.txt", SCORE_HELDOUT_UTTERANCES,
                                self.seed, "heldout")
        outcome = self.runner.run("setup-train", [
            "train", str(WORK / "train.txt"), "--with-switching",
            "--model-out", str(WORK / "model.txt"),
            "--pipeline-out", str(WORK / "pipeline.json")])
        self.setup_outcomes.append(outcome)
        if not outcome.failed:
            outcome.errors += model_dim_errors(WORK / "model.txt",
                                               WORK / "pipeline.json", True)

    def prepare_checks(self):
        from codeswitch.corpus import serialize_tagged_line
        kept = preprocessed(WORK / "heldout.txt")
        self.n_kept = len(kept)
        self.kept_lines = [serialize_tagged_line(u) for u in kept]
        self.n_positive = sum(u.label for u in kept)

    def commands(self):
        served = ["--model", str(WORK / "model.txt"),
                  "--pipeline", str(WORK / "pipeline.json")]
        heldout = str(WORK / "heldout.txt")
        return [
            Command("eval", ["eval", heldout, *served, "-o", str(WORK / "eval.json")],
                    SCORE_HELDOUT_UTTERANCES, [WORK / "eval.json"]),
            Command("subsample", ["subsample", heldout, *served, "--tau", SUBSAMPLE_TAU,
                                  "-o", str(WORK / "subsample.txt")],
                    SCORE_HELDOUT_UTTERANCES, [WORK / "subsample.txt"]),
        ]

    def check(self):
        report = json.loads((WORK / "eval.json").read_text(encoding="utf-8"))
        c = report["confusion"]
        eval_errors = []
        if c["tp"] + c["fp"] + c["fn"] + c["tn"] != self.n_kept:
            eval_errors.append(f"confusion sums to {sum(c.values())}, expected {self.n_kept}")
        f1_pos, f1_neg = f1_from_confusion(c["tp"], c["fp"], c["fn"], c["tn"])
        if not (close(f1_pos, report["per_class_f1"][0]) and close(f1_neg, report["per_class_f1"][1])
                and close((f1_pos + f1_neg) / 2, report["macro_f1"])):
            eval_errors.append("F1 does not match the confusion matrix")

        lines = (WORK / "subsample.txt").read_text(encoding="utf-8").splitlines()
        sub_errors = []
        if sum(line.startswith("1\t") for line in lines) != self.n_positive:
            sub_errors.append("subsample dropped a positive")
        it = iter(self.kept_lines)
        if not all(line in it for line in lines):
            sub_errors.append("subsample output is not an ordered subsequence of its input")
        return {"eval": eval_errors, "subsample": sub_errors}

    def quality(self):
        report = json.loads((WORK / "eval.json").read_text(encoding="utf-8"))
        loss, grad = objective(WORK / "model.txt", WORK / "pipeline.json",
                               WORK / "train.txt")
        return {"eval_macro_f1": report["macro_f1"], "final_loss": loss, "grad_norm": grad}


class Stats(Workload):
    name = "stats"

    def setup(self):
        corpus_gen.write_corpus(WORK / "a.txt", STATS_UTTERANCES, self.seed, "a")
        corpus_gen.write_corpus(WORK / "b.txt", STATS_UTTERANCES, self.seed, "b")

    def prepare_checks(self):
        self.n_kept = len(preprocessed(WORK / "a.txt"))

    def commands(self):
        a, b = str(WORK / "a.txt"), str(WORK / "b.txt")
        return [
            Command("stats", ["stats", a, b, "-o", str(WORK / "stats.tsv")],
                    2 * STATS_UTTERANCES, [WORK / "stats.tsv"]),
            Command("features", ["features", a, "-o", str(WORK / "features.jsonl")],
                    STATS_UTTERANCES, [WORK / "features.jsonl"]),
        ]

    def check(self):
        records = [json.loads(line) for line in
                   (WORK / "features.jsonl").read_text(encoding="utf-8").splitlines()]
        feature_errors = []
        if len(records) != self.n_kept:
            feature_errors.append(f"{len(records)} feature lines, expected {self.n_kept}")
        n = {(label, q): 0 for label in (0, 1) for q in (False, True)}
        for r in records:
            n[r["label"], r["q"]] += 1
        v_pos = [r["v"] for r in records if r["label"] == 1]
        v_neg = [r["v"] for r in records if r["label"] == 0]
        n11, n10, n01, n00 = n[1, True], n[1, False], n[0, True], n[0, False]
        denom = (n11 + n10) * (n01 + n00) * (n11 + n01) * (n10 + n00)
        expected = {
            "p(T|Q)": n11 / (n11 + n01) if n11 + n01 else None,
            "p(T|~Q)": n10 / (n10 + n00) if n10 + n00 else None,
            "avg(S|T)": sum(v_pos) / len(v_pos) if v_pos else None,
            "avg(S|~T)": sum(v_neg) / len(v_neg) if v_neg else None,
            "phi": (n11 * n00 - n10 * n01) / math.sqrt(denom) if denom else None,
        }
        rows = [line.split("\t") for line in
                (WORK / "stats.tsv").read_text(encoding="utf-8").splitlines()]
        stats_errors = []
        if rows[0] != ["metric", "a", "b"]:
            stats_errors.append(f"unexpected header {rows[0]}")
        else:
            table = {row[0]: row[1] for row in rows[1:]}
            for metric, value in expected.items():
                cell = table.get(metric)
                ok = (cell == "NA") if value is None else (
                    cell not in (None, "NA") and close(float(cell), value))
                if not ok:
                    stats_errors.append(f"{metric}: stats says {cell}, features give {value!r}")
        return {"stats": stats_errors, "features": feature_errors}


class WideVocab(Workload):
    name = "wide-vocab"
    reference_args = ("--dense",)  # about half of train is matrix-vector products

    def setup(self):
        corpus_gen.write_corpus(WORK / "wide.txt", WIDE_UTTERANCES, self.seed, "wide",
                                WIDE_LENGTH_MEDIAN)

    def commands(self):
        return [Command("train", ["train", str(WORK / "wide.txt"), "--chi2-k", "0",
                                  "--model-out", str(WORK / "model.txt"),
                                  "--pipeline-out", str(WORK / "pipeline.json")],
                        WIDE_UTTERANCES, [WORK / "model.txt", WORK / "pipeline.json"])]

    def check(self):
        return {"train": model_dim_errors(WORK / "model.txt",
                                          WORK / "pipeline.json", False)}

    def quality(self):
        loss, grad = objective(WORK / "model.txt", WORK / "pipeline.json",
                               WORK / "wide.txt")
        return {"final_loss": loss, "grad_norm": grad}


WORKLOADS = {w.name: w for w in (CvAblate, Score, Stats, WideVocab)}


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------

def summarize_trace(path: Path) -> dict:
    """Per-span-name calls, inclusive and self time, and the fit-path
    extract count, from one traced command's span file."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    names, spans = doc["names"], doc["spans"]
    child_time = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_name: dict[str, dict[str, float]] = {}
    extract_in_fit = 0
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        entry = per_name.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        if parent < 0 or names[spans[parent][0]] != name:  # recursion counted once
            entry["inclusive_s"] += end - start
        if name == "textfeat.extract_features":
            p = parent
            while p >= 0 and names[spans[p][0]] != "model.fit_pipeline":
                p = spans[p][3]
            extract_in_fit += p >= 0
    covered = sum(end - start for _, start, end, parent in spans if parent < 0)
    return {"per_name": per_name, "counts": doc["counts"], "missing": doc["missing"],
            "covered_s": covered, "extract_in_fit": extract_in_fit,
            "cost_s": len(spans) * doc["span_cost_s"]}


def layer_metrics(traces: list[tuple[Outcome, dict]]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle."""
    per_name: dict[str, dict[str, float]] = {}
    counts: Counter = Counter()
    extract_in_fit = 0
    for _, t in traces:
        for name, entry in t["per_name"].items():
            total = per_name.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
        dense_bytes = max(counts["model.dense_bytes"], t["counts"].get("model.dense_bytes", 0))
        counts.update(t["counts"])
        counts["model.dense_bytes"] = dense_bytes  # the largest matrix, not a sum
        extract_in_fit += t["extract_in_fit"]

    def incl(name):
        return per_name.get(name, {}).get("inclusive_s", 0.0)

    def calls(name):
        return int(per_name.get(name, {}).get("calls", 0))

    def ratio(a, b):
        return a / b if b else 0.0

    wall = sum(o.wall_s for o, _ in traces)
    m = {
        "cli.startup_s": statistics.median(
            t["per_name"]["cli.import"]["inclusive_s"] for _, t in traces),
        "cli.write_s": incl("cli._write_output"),
        "cli.output_bytes": counts["cli.output_bytes"],
        "corpus.load_s": incl("corpus.load_corpus"),
        "corpus.utterances": counts["corpus.utterances"],
        "corpus.tokens": counts["corpus.tokens"],
        "corpus.kfold_s": incl("corpus.kfold"),
        "preprocess.normalize_s": incl("preprocess.normalize"),
        "preprocess.tokens_in": counts["preprocess.tokens_in"],
        "preprocess.tokens_out": counts["preprocess.tokens_out"],
        "preprocess.dropped": counts["preprocess.dropped"],
        "switching.features_s": incl("switching.switching_features"),
        "switching.features_calls": calls("switching.switching_features"),
        "switching.embedding_s": incl("switching.has_embedding_property"),
        "switching.embedding_calls": calls("switching.has_embedding_property"),
        "stats.summarize_s": incl("stats.summarize"),
        "stats.contingency_per_corpus": ratio(calls("stats.contingency"),
                                              calls("stats.summarize")),
        "textfeat.extract_calls": calls("textfeat.extract_features"),
        "textfeat.extract_per_utt_fit": ratio(extract_in_fit,
                                              counts["model.fit_utterances"]),
        "textfeat.build_vocabulary_s": incl("textfeat.build_vocabulary"),
        "textfeat.vocab_size": ratio(counts["textfeat.vocab_size_sum"],
                                     counts["textfeat.vocab_builds"]),
        "textfeat.chi2_select_s": incl("textfeat.chi2_select"),
        "textfeat.vocab_kept": ratio(counts["textfeat.vocab_kept_sum"],
                                     counts["textfeat.selections"]),
        "textfeat.indicative_s": incl("textfeat.indicative_scores"),
        "textfeat.vectorize_s": incl("textfeat.vectorize"),
        "textfeat.vectorize_calls": calls("textfeat.vectorize"),
        "textfeat.nnz": counts["textfeat.nnz"],
        "model.train_s": incl("model.train"),
        "model.epochs": counts["model.epochs"],
        "model.loss_increases": counts["model.loss_increases"],
        "model.loss_increase_ratio": ratio(counts["model.loss_increases"],
                                           counts["model.epochs"]),
        "model.dense_bytes": counts["model.dense_bytes"],
        "model.predict_s": incl("model.FittedPipeline.predict_proba"),
        "model.predict_calls": calls("model.FittedPipeline.predict_proba"),
        "model.folds": counts["model.folds"],
    }
    for layer in ("cli", "corpus", "preprocess", "switching", "stats", "textfeat", "model"):
        m[f"{layer}.self_s"] = sum(e["self_s"] for name, e in per_name.items()
                                   if name.startswith(layer + ".") and name != "cli.import")
    m["trace.uncovered_share"] = ratio(wall - sum(t["covered_s"] for _, t in traces), wall)
    m["trace.cost_s"] = sum(t["cost_s"] for _, t in traces)
    m["self_s_by_span"] = {name: e["self_s"] for name, e in sorted(per_name.items())}
    m["missing_spans"] = sorted({name for _, t in traces for name in t["missing"]})
    return m


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

# The reference run: bench/reference.py, a fixed command-shaped child
# process with no codeswitch code in it.  On a shared host a CPU runs at
# full or at half speed, switching every few seconds, and the share of
# slow time drifts over minutes, so wall and CPU time both swing by 30%
# and a longer run does not average that out.  A reference run follows
# every measured command, and each command's time is also given in units
# of the mean of the runs on either side of it, which cancels most of
# the swing.  Only the program moves those units.


@dataclass
class Cycle:
    outcomes: list[Outcome]
    traced: bool
    traces: list[tuple[Outcome, dict]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def wall_refs(self) -> float:
        return sum(o.wall_s / o.ref_s for o in self.outcomes)

    @property
    def cpu_refs(self) -> float:
        return sum(o.cpu_s / o.ref_s for o in self.outcomes)


def run_cycle(workload: Workload, traced: bool, first_bytes: dict[Path, bytes],
              ref_s: float) -> tuple[Cycle, float]:
    """One cycle, given the reference run just before it; also returns
    the last run it made."""
    cycle = Cycle([], traced)
    for cmd in workload.commands():
        trace_path = WORK / f"trace-{cmd.name}.json" if traced else None
        outcome = workload.runner.run(cmd.name, cmd.argv, trace_path)
        after = workload.runner.reference(*workload.reference_args)
        outcome.ref_s = (ref_s + after) / 2
        ref_s = after
        cycle.outcomes.append(outcome)
        if trace_path is not None and trace_path.exists():
            cycle.traces.append((outcome, summarize_trace(trace_path)))
        if outcome.failed:
            continue
        for out in cmd.outputs:
            data = out.read_bytes()
            if first_bytes.setdefault(out, data) != data:
                outcome.errors.append(f"{out.name} differs from the first cycle's bytes")
    if not any(o.failed for o in cycle.outcomes):
        by_name = {o.name: o for o in cycle.outcomes}
        for name, errors in workload.check().items():
            by_name[name].errors += errors
    return cycle, ref_s


def median_n(values) -> tuple[float, int]:
    values = list(values)
    return statistics.median(values), len(values)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    runner = Runner(deadline)
    workload = WORKLOADS[name](seed, runner)

    setup_times: list[float] = []
    setup_refs: list[float] = []  # each set-up in units of the reference runs beside it
    setup_start = time.perf_counter()
    ref_s = runner.reference()
    while not setup_times or not trace and (
            len(setup_times) < SETUP_MIN_REPEATS
            or time.perf_counter() - setup_start < SETUP_MIN_SECONDS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        after = runner.reference()
        setup_refs.append(setup_times[-1] / ((ref_s + after) / 2))
        ref_s = after
    operations: list[Outcome] = list(workload.setup_outcomes)
    messages: list[str] = []  # problems that are not one operation's

    cycles: list[Cycle] = []
    if not any(o.failed for o in operations):
        workload.prepare_checks()
        first_bytes: dict[Path, bytes] = {}
        ref_s = runner.reference(*workload.reference_args)
        start = time.monotonic()
        while (len(cycles) < (2 * MIN_CYCLES if trace else MIN_CYCLES)
               or time.monotonic() - start < seconds):
            # traced runs alternate untraced and traced cycles
            cycle, ref_s = run_cycle(workload, trace and len(cycles) % 2 == 1, first_bytes, ref_s)
            cycles.append(cycle)
            operations += cycle.outcomes
            if any(o.failed for o in cycle.outcomes):
                break
            if deadline - time.monotonic() < 2 * cycle.wall_s + 10:
                print(f"note: {name} stopped after {len(cycles)} cycles; the run deadline is near",
                      file=sys.stderr)
                break

    failed = sum(o.failed for o in operations)
    messages += [f"{o.name}: {e}" for o in operations for e in o.errors]
    result = {"workload": name, "seed": seed, "attempted": len(operations), "failed": failed,
              "messages": messages}
    clean = failed == 0 and bool(cycles)
    report: dict[str, tuple[float, int]] = {}  # metric -> (value, samples)
    if clean:
        plain = [c for c in cycles if not c.traced]
        utterances = sum(c.utterances for c in workload.commands())
        report["setup_s"] = median_n(r * REF_NOMINAL_S for r in setup_refs)
        report["setup_wall_s"] = median_n(setup_times)
        report["utt_per_ref"] = median_n(utterances / c.wall_refs for c in plain)
        report["cpu_refs"] = median_n(c.cpu_refs for c in plain)
        report["utt_per_s"] = median_n(utterances / c.wall_s for c in plain)
        report["cpu_s"] = median_n(sum(o.cpu_s for o in c.outcomes) for c in plain)
        report["ref_s"] = median_n(o.ref_s for c in plain for o in c.outcomes)
        report["peak_rss_mb"] = (max(o.maxrss_kb for c in plain for o in c.outcomes) / 1024,
                                 sum(len(c.outcomes) for c in plain))
        for cmd in workload.commands():
            report[f"{cmd.name}_s"] = median_n(
                o.wall_s for c in plain for o in c.outcomes if o.name == cmd.name)
        quality = workload.quality()
        for key, value in quality.items():
            report[key] = (value, 1)
    result["report"] = report

    if clean and trace:
        traced = [c for c in cycles if c.traced]
        layers = [layer_metrics(c.traces) for c in traced]
        for other in layers[1:]:
            for key in EXACT_COUNTS:
                if other[key] != layers[0][key]:
                    messages.append(f"{key} differs between traced cycles: "
                                    f"{layers[0][key]} vs {other[key]}")
        per_layer = {}
        for key, value in layers[0].items():
            if isinstance(value, float) and key.endswith(("_s", "_share")):
                per_layer[key] = statistics.median(l[key] for l in layers)
            else:
                per_layer[key] = value
        per_layer["trace.overhead"] = statistics.median(l["trace.cost_s"] for l in layers) \
            / statistics.median(c.wall_s for c in cycles if not c.traced)
        for key in ("macro_f1_sw", "macro_f1_base", "eval_macro_f1", "final_loss",
                    "grad_norm", "cv_delta_macro_f1"):
            per_layer[f"model.{key}"] = quality.get(key, 0.0)
        result["per_layer"] = per_layer
    result["correct"] = clean and not messages
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

UNITS = {"setup_s": "s", "utt_per_ref": "1/ref", "cpu_refs": "ref", "utt_per_s": "1/s",
         "cpu_s": "s", "peak_rss_mb": "MB",
         "error_rate": "ratio", "macro_f1_sw": "ratio", "macro_f1_base": "ratio",
         "eval_macro_f1": "ratio", "cv_delta_macro_f1": "ratio", "final_loss": "nats",
         "grad_norm": "1"}


def unit_of(name: str) -> str:
    name = name.removeprefix("model.")
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", ".overhead")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def environment() -> dict:
    import numpy
    return {"commit": commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)), "blas_threads": blas_threads()}


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> int | str:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes
    import glob
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def print_report(result: dict, why: str) -> None:
    print(f"== workload {result['workload']} (seed {result['seed']}): {why}")
    attempted, failed = result["attempted"], result["failed"]
    rows = [(name, value, "" if n == 1 else f"max of {n}" if name == "peak_rss_mb"
             else f"median of {n}") for name, (value, n) in result["report"].items()]
    rows.append(("error_rate", failed / attempted if attempted else 1.0,
                 f"{failed} of {attempted} operations"))
    for name, value, note in rows:
        print(f"  {name:<28} {value!r:<24} {unit_of(name):<6} {note}")
    for message in result["messages"]:
        print(f"  FAILED {message}")
    if "per_layer" in result:
        layers = result["per_layer"]
        print("  per-layer (traced run):")
        for key, value in layers.items():
            if key not in ("self_s_by_span", "missing_spans"):
                print(f"    {key:<34} {value!r:<24} {unit_of(key)}")
        print("  self time by span (s, one traced cycle):")
        for key, value in layers["self_s_by_span"].items():
            print(f"    {key:<42} {value:.4f}")
        if layers["missing_spans"]:
            print(f"  functions not found, so not traced: {layers['missing_spans']}")


def contract_line(result: dict, spec: dict, trace: bool) -> dict:
    """The result line BENCHMARK.json describes: its metrics only."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    values = result.get("per_layer", {}) if trace else \
        {k: v for k, (v, _) in result["report"].items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    return {"correct": result["correct"] and len(metrics) == len(wanted),
            "attempted": max(1, result["attempted"]), "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "codeswitch" / "cli.py").is_file():
        print(f"error: {SRC / 'codeswitch'} not found; run from the root of a "
              "codeswitch source tree", file=sys.stderr)
        return 2
    # One CPU and one BLAS thread for the benchmark and every child: a
    # command and the reference runs beside it then share the speed of
    # that CPU, and BLAS threads do not wait on each other's CPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import codeswitch
    if Path(codeswitch.__file__).resolve().parent != (SRC / "codeswitch").resolve():
        print(f"error: imported codeswitch from {codeswitch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(result, whys[name])
        results[name] = result
    if args.workload == "all":
        print(json.dumps({"environment": environment(), "seconds": args.seconds,
                          "trace": args.trace, "results": results}))
    else:
        print(f"# environment {json.dumps(environment())}")
        print(json.dumps(contract_line(results[args.workload], spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
