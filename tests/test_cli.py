import contextlib
import errno
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import codeswitch
from codeswitch import cli, switching, textfeat
from codeswitch.cli import _load_fitted, _load_pipeline_bundle, _pipeline_config, build_parser, run
from codeswitch.config import PipelineConfig, TrainConfig
from codeswitch.corpus import fold_indices, load_corpus, serialize_tagged_line
from codeswitch.model import FittedPipeline, load_model, sigmoid
from codeswitch.preprocess import PreprocessConfig
from reference_encoder import pipeline_rows
from synth_corpus import switching_driven_corpus

# word 1-grams: one feature per token, keyed by its lowercased surface
UNIGRAMS = ("--kinds", "word_ngram", "--word-n", "1")
PAPER_LINE = "1\tkoi_hi to_hi pray_en karo_hi mere_hi liye_hi bhi_hi"
ALL_HI_LINE = "0\tbumrah_hi dono_hi wicketo_hi ke_hi beech_hi gumrah_hi ho_hi gaya_hi"


def write_corpus(corpus, path):
    path.write_text("".join(serialize_tagged_line(u) + "\n" for u in corpus), encoding="utf-8")


@pytest.fixture
def tiny_corpus_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(PAPER_LINE + "\n" + ALL_HI_LINE + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def synth_file(tmp_path):
    path = tmp_path / "synth.txt"
    write_corpus(switching_driven_corpus(120, seed=7), path)
    return str(path)


class TestFeatures:
    def test_paper_values_in_json(self, tiny_corpus_file, tmp_path):
        out = tmp_path / "features.jsonl"
        assert run(["features", tiny_corpus_file, "-o", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 2
        first = records[0]
        assert first["label"] == 1 and first["q"] is True
        assert (first["en_hi_switches"], first["hi_en_switches"], first["v"]) == (1, 1, 2)
        assert first["fraction_en"] == pytest.approx(1 / 7, abs=1e-12)
        assert first["fraction_hi"] == pytest.approx(6 / 7, abs=1e-12)
        assert first["mean_hi_en"] == pytest.approx(2 / 7, abs=1e-12)
        assert first["stddev_hi_en"] == pytest.approx(0.6998542122237653, abs=1e-12)
        assert first["mean_en_hi"] == pytest.approx(4 / 7, abs=1e-12)
        assert first["stddev_en_hi"] == pytest.approx(0.4948716593053935, abs=1e-12)
        assert records[1]["q"] is False and records[1]["v"] == 0

    def test_stdout_default(self, tiny_corpus_file, capsys):
        assert run(["features", tiny_corpus_file]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 2

    def test_reads_each_utterances_tags_once(self, synth_file, tmp_path):
        """features gets Q and the profile of an utterance from one
        reading of its tags."""
        with mock.patch.object(switching, "_tag_letters", wraps=switching._tag_letters) as read:
            assert run(["features", synth_file, "-o", str(tmp_path / "features.jsonl")]) == 0
        assert [c.args[0] for c in read.call_args_list] == \
            [u.tokens for u in load_corpus(synth_file, PreprocessConfig())]


class TestStats:
    def test_tsv_shape(self, tiny_corpus_file, capsys):
        assert run(["stats", tiny_corpus_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        metrics = [line.split("\t")[0] for line in lines]
        assert metrics == ["metric", "p(T|Q)", "p(T|~Q)", "avg(S|T)",
                           "avg(S|~T)", "phi"]
        assert lines[0].split("\t")[1] == "tiny"

    def test_empty_file_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert run(["stats", str(empty)]) == 1
        assert "empty corpus" in capsys.readouterr().err

    def test_malformed_file_errors_without_partial_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\tx_fr\n")
        out = tmp_path / "out.tsv"
        assert run(["stats", str(bad), "-o", str(out)]) == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_error_names_the_corpus_at_fault(self, tiny_corpus_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(PAPER_LINE + "\n2\tx_hi\n")
        assert run(["stats", tiny_corpus_file, str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: line 2: malformed label '2' (must be 0 or 1)\n")

    def test_dropped_utterances_name_their_corpus(self, tiny_corpus_file, tmp_path, capsys):
        other = tmp_path / "other.txt"
        other.write_text(PAPER_LINE + "\n0\t!!_rest ..._rest\n")  # line 2: punctuation only
        assert run(["stats", tiny_corpus_file, str(other)]) == 0
        assert capsys.readouterr().err == (
            f"warning: {other}: utterance 1 empty after preprocessing; dropped\n")

    def test_corpus_left_empty_by_preprocessing_is_named(self, tiny_corpus_file, tmp_path,
                                                          capsys):
        punct = tmp_path / "punct.txt"
        punct.write_text("1\t!!_rest\n0\t..._rest ?_rest\n")
        assert run(["stats", tiny_corpus_file, str(punct)]) == 1
        assert capsys.readouterr().err == (
            f"warning: {punct}: utterance 0 empty after preprocessing; dropped\n"
            f"warning: {punct}: utterance 1 empty after preprocessing; dropped\n"
            f"error: {punct}: empty corpus after preprocessing\n")

    def test_malformed_line_after_a_dropped_utterance_prints_only_the_error(self, tmp_path,
                                                                             capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(PAPER_LINE + "\n0\t!!_rest\n1\tkoi_hi x_fr\n")  # line 2 is dropped
        assert run(["stats", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: line 3: unknown tag 'fr' in token 'x_fr'\n")

    def test_non_utf8_corpus_is_named(self, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes((PAPER_LINE + "\n0\tcaf\xe9_en\n").encode("latin-1"))
        assert run(["stats", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: not valid UTF-8: invalid continuation byte\n")

    def test_non_utf8_negation_file_is_named(self, synth_file, tmp_path, capsys):
        words = tmp_path / "negation.txt"
        words.write_bytes(b"nahi\n\xff\n")
        assert run(["cv", synth_file, *UNIGRAMS, "--negation-file", str(words)]) == 1
        assert capsys.readouterr().err == (
            f"error: {words}: not valid UTF-8: invalid start byte\n")

    def test_byte_order_mark_of_a_corpus_is_dropped(self, tiny_corpus_file, tmp_path):
        bom = tmp_path / "bom" / "tiny.txt"  # the same stem, so the same header
        bom.parent.mkdir()
        bom.write_bytes(b"\xef\xbb\xbf" + Path(tiny_corpus_file).read_bytes())
        outputs = []
        for path in (tiny_corpus_file, str(bom)):
            assert run(["stats", path, "-o", path + ".tsv"]) == 0
            outputs.append(Path(path + ".tsv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_byte_order_mark_of_a_word_list_is_dropped(self, tmp_path):
        words = tmp_path / "negation.txt"
        words.write_bytes(b"\xef\xbb\xbfno\nnahi\n")
        assert textfeat.load_wordlist(words) == {"no", "nahi"}


@pytest.mark.parametrize("lines", [None, [PAPER_LINE, ALL_HI_LINE], [PAPER_LINE]],
                         ids=["synthetic", "paper", "positive-only"])
def test_stats_table_follows_from_the_feature_records(lines, synth_file, tmp_path):
    """Each stats cell recomputed per utterance from the (label, q, v) of
    the features records, NA where its conditioning cell or class is empty."""
    path = Path(synth_file)
    if lines is not None:
        path = tmp_path / "paper.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    stats, features = tmp_path / "stats.tsv", tmp_path / "features.jsonl"
    assert run(["stats", str(path), "-o", str(stats)]) == 0
    assert run(["features", str(path), "-o", str(features)]) == 0
    records = [json.loads(line) for line in features.read_text(encoding="utf-8").splitlines()]
    n = Counter((r["label"], r["q"]) for r in records)
    n11, n10, n01, n00 = n[1, True], n[1, False], n[0, True], n[0, False]
    v_pos = [r["v"] for r in records if r["label"] == 1]
    v_neg = [r["v"] for r in records if r["label"] == 0]
    denom = (n11 + n10) * (n01 + n00) * (n11 + n01) * (n10 + n00)
    expected = {
        "p(T|Q)": n11 / (n11 + n01) if n11 + n01 else None,
        "p(T|~Q)": n10 / (n10 + n00) if n10 + n00 else None,
        "avg(S|T)": sum(v_pos) / len(v_pos) if v_pos else None,
        "avg(S|~T)": sum(v_neg) / len(v_neg) if v_neg else None,
        "phi": (n11 * n00 - n10 * n01) / math.sqrt(denom) if denom else None,
    }
    rows = [line.split("\t") for line in stats.read_text(encoding="utf-8").splitlines()]
    assert rows[0] == ["metric", path.stem]
    assert dict(rows[1:]) == {metric: "NA" if value is None else repr(value)
                              for metric, value in expected.items()}


class TestTrainEvalSubsample:
    def test_train_eval_roundtrip(self, synth_file, tmp_path, capsys):
        model = tmp_path / "model.txt"
        bundle = tmp_path / "pipeline.json"
        assert run(["train", synth_file, "--model-out", str(model),
                    "--pipeline-out", str(bundle), "--with-switching",
                    *UNIGRAMS, "--chi2-k", "0"]) == 0
        assert model.exists() and bundle.exists()
        report_path = tmp_path / "report.json"
        assert run(["eval", synth_file, "--model", str(model),
                    "--pipeline", str(bundle), "-o", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"macro_f1", "per_class_f1", "confusion",
                               "degenerate_classes"}
        assert 0.0 <= report["macro_f1"] <= 1.0
        # switching drives the labels, so training-set fit beats chance
        assert report["macro_f1"] > 0.6

    def test_subsample_keeps_positives(self, synth_file, tmp_path):
        model = tmp_path / "model.txt"
        bundle = tmp_path / "pipeline.json"
        run(["train", synth_file, "--model-out", str(model),
             "--pipeline-out", str(bundle), *UNIGRAMS, "--chi2-k", "0"])
        out = tmp_path / "filtered.txt"
        assert run(["subsample", synth_file, "--model", str(model),
                    "--pipeline", str(bundle), "--tau", "0.4",
                    "-o", str(out)]) == 0
        original = load_corpus(synth_file)
        filtered = load_corpus(str(out))
        assert sum(u.label == 1 for u in filtered) == sum(u.label == 1 for u in original)
        assert len(filtered) <= len(original)

    def test_subsample_keeps_the_negatives_the_reference_scores_at_tau(self, synth_file,
                                                                       tmp_path):
        model, bundle, out = tmp_path / "model.txt", tmp_path / "pipeline.json", tmp_path / "f.txt"
        assert run(["train", synth_file, "--model-out", str(model), "--pipeline-out", str(bundle),
                    "--no-preprocess", "--with-switching"]) == 0
        pipeline = FittedPipeline(*_load_pipeline_bundle(str(bundle)), load_model(model))
        corpus = load_corpus(synth_file)
        proba = sigmoid(pipeline_rows(pipeline, corpus)
                        @ pipeline.model.weights + pipeline.model.bias)
        negative = sorted(p for u, p in zip(corpus, proba.tolist()) if u.label == 0)
        middle = len(negative) // 2
        tau = (negative[middle - 1] + negative[middle]) / 2  # half the negatives fall below
        assert run(["subsample", synth_file, "--model", str(model), "--pipeline", str(bundle),
                    "--no-preprocess", "--tau", repr(tau), "-o", str(out)]) == 0
        assert out.read_text().splitlines() == [serialize_tagged_line(u) for u, p in
                                                zip(corpus, proba) if u.label == 1 or p >= tau]

    @pytest.mark.parametrize("with_switching", [False, True])
    def test_utterances_are_profiled_only_for_switching_columns(self, with_switching,
                                                                synth_file, tmp_path,
                                                                monkeypatch):
        profiled = []  # the token count of each row that a switching block profiles
        block = textfeat.switching_block
        monkeypatch.setattr(textfeat, "switching_block",
                            lambda rows: (profiled.extend(map(len, rows)), block(rows))[1])
        model, bundle = tmp_path / "model.txt", tmp_path / "pipeline.json"
        served = ["--model", str(model), "--pipeline", str(bundle)]
        flags = ["--with-switching"] if with_switching else []
        assert run(["train", synth_file, "--model-out", str(model), "--pipeline-out", str(bundle),
                    *UNIGRAMS, *flags]) == 0
        assert run(["eval", synth_file, *served, "-o", str(tmp_path / "eval.json")]) == 0
        assert run(["subsample", synth_file, *served, "-o", str(tmp_path / "kept.txt")]) == 0
        corpus = load_corpus(synth_file)
        # train and eval profile every utterance, subsample the negatives it scores
        lengths = [len(u.tokens) for u in corpus]
        negatives = [len(u.tokens) for u in corpus if u.label == 0]
        assert profiled == (2 * lengths + negatives if with_switching else [])


# eval and subsample read the corpus in blocks of cli.BLOCK_SIZE utterances

PUNCT_ONLY = "0\t!!_rest ..._rest"


@pytest.fixture(scope="module")
def block_served(tmp_path_factory):
    """A held-out corpus of 30 utterances whose blank lines and
    punctuation-only utterances fall on the edges of blocks of 1 and of 7,
    and the --model/--pipeline flags of a model trained without and with
    switching, keyed by with_switching."""
    root = tmp_path_factory.mktemp("blocks")
    train = root / "train.txt"
    write_corpus(switching_driven_corpus(120, seed=7), train)
    served = {}
    for with_switching in (False, True):
        model, bundle = root / f"model{with_switching}.txt", root / f"pipeline{with_switching}.json"
        assert run(["train", str(train), "--model-out", str(model), "--pipeline-out", str(bundle),
                    *["--with-switching"] * with_switching]) == 0
        served[with_switching] = ["--model", str(model), "--pipeline", str(bundle)]
    lines = []
    for i, u in enumerate(switching_driven_corpus(30, seed=8)):
        if i % 7 == 0:
            lines += ["", PUNCT_ONLY]
        lines.append(serialize_tagged_line(u))
    heldout = root / "heldout.txt"
    heldout.write_text("\n".join([*lines, PUNCT_ONLY, ""]) + "\n", encoding="utf-8")
    return heldout, served


def _block_argv(command, heldout, flags):
    # tau 0.5 drops some negatives, so the kept lines depend on the scores
    return [command, str(heldout), *flags, *(["--tau", "0.5"] if command == "subsample" else [])]


@pytest.mark.parametrize("with_switching", [False, True])
@pytest.mark.parametrize("command", ["eval", "subsample"])
def test_blocks_write_the_bytes_of_one_block(command, with_switching, block_served, tmp_path,
                                             monkeypatch, capsys):
    heldout, served = block_served
    written = {}
    for size in (10**6, 1, 7):
        monkeypatch.setattr(cli, "BLOCK_SIZE", size)
        out = tmp_path / f"out{size}"
        assert run([*_block_argv(command, heldout, served[with_switching]), "-o", str(out)]) == 0
        written[size] = out.read_bytes(), capsys.readouterr()
    assert written[1] == written[7] == written[10**6]


@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("command", ["eval", "subsample"])
def test_dropped_utterance_warnings_follow_the_whole_parse(command, size, block_served, tmp_path,
                                                           monkeypatch, capsys):
    """Every utterance is parsed before the first dropped-utterance warning,
    and subsample's kept line comes after the last."""
    heldout, served = block_served
    parse = cli.parse_corpus

    def reporting(*args):
        for u in parse(*args):
            print(f"parsed {u.id}", file=sys.stderr)
            yield u
    monkeypatch.setattr(cli, "parse_corpus", reporting)
    monkeypatch.setattr(cli, "BLOCK_SIZE", size)
    out = tmp_path / "out"
    assert run([*_block_argv(command, heldout, served[True]), "-o", str(out)]) == 0
    lines = [line for line in heldout.read_text().splitlines() if line]  # one per id
    dropped = [uid for uid, line in enumerate(lines) if line == PUNCT_ONLY]
    kept = [uid for uid, line in enumerate(lines) if line != PUNCT_ONLY]
    assert capsys.readouterr().err.splitlines() == [
        *(f"parsed {uid}" for uid in kept),
        *(f"warning: {heldout}: utterance {uid} empty after preprocessing; dropped"
          for uid in dropped),
        *([f"kept {len(out.read_text().splitlines())} of {len(kept)} utterances"]
          if command == "subsample" else [])]


@pytest.mark.parametrize("to_file", [True, False])
@pytest.mark.parametrize("command", ["eval", "subsample"])
def test_malformed_line_in_a_later_block_exits_without_output(command, to_file, block_served,
                                                               tmp_path, monkeypatch, capsys):
    heldout, served = block_served
    lines = heldout.read_text().splitlines()
    lines.insert(25, "1\tkoi_hi x_fr")  # after 19 utterances: in the third block of 7
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(cli, "BLOCK_SIZE", 7)
    out = ["-o", str(tmp_path / "out")] if to_file else []
    assert run([*_block_argv(command, bad, served[False]), *out]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: line 26: unknown tag 'fr' in token "
                                       "'x_fr'\n")
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("command", ["eval", "subsample"])
def test_featurize_error_in_an_early_block_comes_before_a_later_parse_error(
        command, block_served, tmp_path, monkeypatch, capsys):
    """eval and subsample featurize each block as soon as it is parsed: a
    surface holding NGRAM_SEP in the first block stops them before the
    parser reaches a malformed line further down, with no dropped-utterance
    warning, since the parse never finished, and with the corpus file
    closed.  train, which parses the whole corpus first, reports the
    malformed line."""
    heldout, served = block_served
    lines = heldout.read_text().splitlines()
    lines.insert(3, f"0\tkoi{textfeat.NGRAM_SEP}to_hi koi_hi")  # a negative, which subsample scores
    lines.append("2\tkoi_hi")
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    parsers = []
    parse = cli.parse_corpus
    monkeypatch.setattr(cli, "parse_corpus",
                        lambda *args: parsers.append(parse(*args)) or parsers[-1])
    monkeypatch.setattr(cli, "BLOCK_SIZE", 7)
    assert run(_block_argv(command, bad, served[False])) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: token surface 'koi{textfeat.NGRAM_SEP}to' holds ")
    assert err.count("\n") == 1
    assert parsers[0].gi_frame is None  # closed, so its file is too
    assert run(["train", str(bad), "--model-out", str(tmp_path / "model.txt"),
                "--pipeline-out", str(tmp_path / "pipeline.json")]) == 1
    assert capsys.readouterr().err == (f"error: {bad}: line {len(lines)}: malformed label '2' "
                                       "(must be 0 or 1)\n")


def test_eval_memory_does_not_grow_with_the_corpus(block_served, tmp_path):
    """Scoring four copies of two blocks' lines peaks at most 1.25 times as
    high as scoring them once: a repeated line adds nothing to the parser's
    memo of raw tokens, and only one block is featurized at a time."""
    _, served = block_served
    lines = "".join(serialize_tagged_line(u) + "\n"
                    for u in switching_driven_corpus(2 * cli.BLOCK_SIZE, seed=9))
    once, four = tmp_path / "once.txt", tmp_path / "four.txt"
    once.write_text(lines, encoding="utf-8")
    four.write_text(lines * 4, encoding="utf-8")

    def peak(corpus):
        tracemalloc.start()
        try:
            assert run(["eval", str(corpus), *served[True], "-o", str(tmp_path / "eval.json")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak(once)  # a first run, so that lazy imports and caches count in neither peak
    assert peak(four) <= 1.25 * peak(once)


def _cli_env(**variables):
    """The environment of a CLI subprocess that imports this checkout's package."""
    src = str(Path(codeswitch.__file__).resolve().parents[1])
    return dict(os.environ, **variables,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_failed_model_write_keeps_the_earlier_model(synth_file, tmp_path):
    """train under a file-size limit below the model's size: the model
    write fails part-way, so train exits with an error, an existing
    --model-out file keeps its bytes and no temporary file is left."""
    resource = pytest.importorskip("resource")
    model, bundle = tmp_path / "model.txt", tmp_path / "pipeline.json"
    argv = ["train", synth_file, "--model-out", str(model), "--pipeline-out", str(bundle),
            *UNIGRAMS]
    assert run(argv) == 0
    limit = model.stat().st_size // 2
    model.write_text("an earlier model\n")
    bundle.unlink()
    earlier, files = model.read_bytes(), sorted(tmp_path.iterdir())

    def limit_file_size():  # CPython ignores SIGXFSZ, so a write past the limit raises
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
    result = subprocess.run([sys.executable, "-m", "codeswitch.cli", *argv],
                            env=_cli_env(PYTHONDONTWRITEBYTECODE="1"),
                            preexec_fn=limit_file_size, capture_output=True, text=True)
    assert result.returncode == 1 and result.stderr.splitlines()[-1].startswith("error: ")
    assert model.read_bytes() == earlier
    assert sorted(tmp_path.iterdir()) == files


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_output_files_get_the_mode_open_gives(umask, synth_file, tmp_path):
    """Every output file gets 0666 less the umask, as a file made by open()
    or a shell redirect does, and not the 0600 of a bare temporary file."""
    model, bundle, table = tmp_path / "model.txt", tmp_path / "pipeline.json", tmp_path / "s.tsv"
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w", encoding="utf-8"):
            pass
        assert run(["train", synth_file, "--model-out", str(model),
                    "--pipeline-out", str(bundle), *UNIGRAMS]) == 0
        assert run(["stats", synth_file, "-o", str(table)]) == 0
    finally:
        os.umask(old)
    expected = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
    assert expected == 0o666 & ~umask
    for path in (model, bundle, table):
        assert stat.S_IMODE(path.stat().st_mode) == expected


@pytest.mark.parametrize("target, code", [("nodir/out.tsv", errno.ENOENT), ("out", errno.EISDIR)],
                         ids=["missing directory", "directory"])
def test_write_error_names_the_target(target, code, tiny_corpus_file, tmp_path, monkeypatch,
                                      capsys):
    """An output that cannot be written exits 1 with one error line naming
    the target, not the random temporary file, the same on every run, and
    leaves no temporary file behind."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    files = sorted(tmp_path.rglob("*"))
    errors = []
    for _ in range(2):
        assert run(["stats", tiny_corpus_file, "-o", target]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: [Errno {code}] {os.strerror(code)}: '{target}'\n"] * 2
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("earlier", [None, "an earlier model\n"], ids=["new", "existing"])
@pytest.mark.parametrize("bundle, code", [("nodir/p.json", errno.ENOENT), ("out", errno.EISDIR)],
                         ids=["missing directory", "directory"])
def test_train_writes_both_outputs_or_neither(bundle, code, earlier, synth_file, tmp_path,
                                              monkeypatch, capsys):
    """A bundle that cannot be written fails train before the model is
    written: no new --model-out file, an existing one keeps its bytes, and
    no temporary file is left."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    if earlier is not None:
        (tmp_path / "m.txt").write_text(earlier)
    files = sorted(tmp_path.rglob("*"))
    assert run(["train", synth_file, "--model-out", "m.txt", "--pipeline-out", bundle,
                *UNIGRAMS, "--chi2-k", "0"]) == 1
    assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: '{bundle}'\n"
    assert sorted(tmp_path.rglob("*")) == files
    if earlier is not None:
        assert (tmp_path / "m.txt").read_text() == earlier


@pytest.mark.parametrize("bundle", ["m.txt", "./m.txt", "out/../m.txt", "link.txt"])
def test_train_rejects_one_file_for_both_outputs(bundle, synth_file, tmp_path, monkeypatch,
                                                 capsys):
    """Two output paths that resolve to one file fail train before any file
    is written, naming the path: the model would otherwise be overwritten
    by the bundle."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "m.txt").write_text("an earlier model\n")
    (tmp_path / "link.txt").symlink_to("m.txt")
    files = sorted(tmp_path.rglob("*"))
    assert run(["train", synth_file, "--model-out", "m.txt", "--pipeline-out", bundle,
                *UNIGRAMS, "--chi2-k", "0"]) == 1
    assert capsys.readouterr().err == "error: m.txt: one file named for two outputs\n"
    assert sorted(tmp_path.rglob("*")) == files
    assert (tmp_path / "m.txt").read_text() == "an earlier model\n"


def test_train_checks_its_outputs_before_reading_any_input(synth_file, tmp_path, monkeypatch,
                                                           capsys):
    """One file named for both outputs fails train before the corpus or
    the negation file is read, with the one error line."""
    def unread(*args):
        raise AssertionError("load_corpus was called")

    monkeypatch.setattr("codeswitch.cli.load_corpus", unread)
    monkeypatch.chdir(tmp_path)
    assert run(["train", synth_file, "--model-out", "same", "--pipeline-out", "./same",
                "--negation-file", "missing.txt"]) == 1
    assert capsys.readouterr().err == "error: same: one file named for two outputs\n"
    assert not (tmp_path / "same").exists()


def _single_class_folds_corpus(path, n, k, seed, single):
    """path, written with an n-utterance corpus whose k-fold split under
    seed has the test rows of each fold in single all negative, and of
    every other fold both classes."""
    labels = {r: 0 if fold in single else i % 2
              for fold, (_, test) in enumerate(fold_indices(n, k, seed))
              for i, r in enumerate(test)}
    path.write_text("".join(f"{labels[r]}\tw{r}_hi x{r % 3}_en koi_hi\n" for r in range(n)),
                    encoding="utf-8")
    return path


def _run_cli(*argv, **variables):
    """The CLI run in a subprocess, as a user runs it: its exit status and stderr."""
    result = subprocess.run([sys.executable, "-m", "codeswitch.cli", *argv],
                            env=_cli_env(**variables), capture_output=True, text=True)
    return result.returncode, result.stderr


def test_warnings_reach_stderr_as_one_line_each(synth_file, tmp_path):
    """A library warning prints as "warning: <message>", like the
    dropped-utterance warning: no source path, category or source line."""
    status, err = _run_cli("train", synth_file, "--max-iter", "1", *UNIGRAMS, "--chi2-k", "0",
                           "--model-out", str(tmp_path / "model.txt"),
                           "--pipeline-out", str(tmp_path / "pipeline.json"))
    assert status == 0
    assert re.fullmatch(r"warning: training did not converge: gradient norm \S+ after 1 "
                        r"iterations, above tol 1e-06 x \S+\ntrained on 120 utterances; "
                        r"feature dim \d+\n", err)
    # fold 0's test rows are all negative, so cv skips that fold and warns once
    n, k, seed = 12, 4, 13
    corpus = _single_class_folds_corpus(tmp_path / "folds.txt", n, k, seed, {0})
    status, err = _run_cli("cv", str(corpus), "--k", str(k), "--seed", str(seed),
                           "--chi2-k", "0", "-o", str(tmp_path / "cv.json"))
    assert (status, err) == (0, "warning: fold 0 has a single class; excluded\n")
    assert json.loads((tmp_path / "cv.json").read_text())["skipped_folds"] == [0]


@pytest.mark.parametrize("variables", [{}, {"PYTHONWARNINGS": "error"}],
                         ids=["default", "PYTHONWARNINGS=error"])
def test_a_repeated_warning_prints_once_per_occurrence(variables, tmp_path):
    """Each of cv's four folds fits a vocabulary below --chi2-k and warns
    the same words: four lines, and no traceback when warnings are errors."""
    n, k, seed = 12, 4, 13
    labels = {r: i % 2 for _, test in fold_indices(n, k, seed) for i, r in enumerate(test)}
    corpus = tmp_path / "folds.txt"
    corpus.write_text("".join(f"{labels[r]}\tw{r}_hi x{r % 3}_en koi_hi\n" for r in range(n)),
                      encoding="utf-8")
    status, err = _run_cli("cv", str(corpus), "--k", str(k), "--seed", str(seed), *UNIGRAMS,
                           "-o", str(tmp_path / "cv.json"), **variables)
    assert (status, err) == (0, "warning: k=500 exceeds vocabulary size 13; "
                                "keeping the full vocabulary\n" * k)


def test_loaded_pipeline_holds_the_models_solver_settings(synth_file, tmp_path):
    """The bundle stores no solver settings; the loaded pipeline's model
    holds them as the model file, where train wrote them, gives them."""
    model, bundle = tmp_path / "model.txt", tmp_path / "pipeline.json"
    assert run(["train", synth_file, "--model-out", str(model), "--pipeline-out", str(bundle),
                *UNIGRAMS, "--max-iter", "30", "--tol", "1e-05", "--l2", "0.01"]) == 0
    args = build_parser().parse_args(["eval", synth_file, "--model", str(model),
                                      "--pipeline", str(bundle)])
    pipeline = _load_fitted(args)
    assert pipeline.model.training_meta == TrainConfig(max_iter=30, tol=1e-05, l2=0.01)


def test_train_output_ignores_blas_threads(tmp_path):
    """A wide --chi2-k 0 fit writes the same bytes at 1 and 2 BLAS threads:
    training sums in numpy, in a fixed order, not in BLAS.  The model has
    over 20k weights, past the length at which OpenBLAS splits one inner
    product across threads."""
    corpus = tmp_path / "wide.txt"
    write_corpus(switching_driven_corpus(300, seed=7, length=40, pool_size=20_000, mu=19.5),
                 corpus)
    outputs = []
    for threads in ("1", "2"):
        model, bundle = tmp_path / f"model{threads}.txt", tmp_path / f"pipeline{threads}.json"
        env = _cli_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "codeswitch.cli", "train", str(corpus),
                        "--chi2-k", "0", "--model-out", str(model), "--pipeline-out", str(bundle)],
                       env=env, check=True, capture_output=True)
        outputs.append((model.read_bytes(), bundle.read_bytes()))
    assert int(outputs[0][0].split(b"\n")[1].removeprefix(b"dim ")) > 20_000
    assert outputs[0] == outputs[1]


def test_outputs_ignore_the_hash_seed(tmp_path):
    """Every command writes the same bytes, files and standard streams,
    under two string hash seeds: no output follows the iteration order of a
    set or of a dict built from one."""
    commands = [
        ["train", "train.txt", "--with-switching", "--model-out", "model.txt",
         "--pipeline-out", "pipeline.json"],
        ["eval", "held.txt", "--model", "model.txt", "--pipeline", "pipeline.json",
         "-o", "eval.json"],
        ["subsample", "held.txt", "--model", "model.txt", "--pipeline", "pipeline.json",
         "-o", "kept.txt"],
        ["cv", "train.txt", "--k", "5", "--ablate-switching", "-o", "cv.json"],
        ["stats", "train.txt", "held.txt", "-o", "stats.tsv"],
        ["features", "held.txt", "-o", "features.jsonl"],
    ]
    outputs = []
    for seed in ("0", "1"):
        work = tmp_path / seed
        work.mkdir()
        write_corpus(switching_driven_corpus(120, seed=7), work / "train.txt")
        write_corpus(switching_driven_corpus(80, seed=8), work / "held.txt")
        streams = [subprocess.run([sys.executable, "-m", "codeswitch.cli", *argv], cwd=work,
                                  env=_cli_env(PYTHONHASHSEED=seed), check=True,
                                  capture_output=True)
                   for argv in commands]
        outputs.append(([(s.stdout, s.stderr) for s in streams],
                        {p.name: p.read_bytes() for p in sorted(work.iterdir())}))
    assert len(outputs[0][1]) == 2 + 7
    assert outputs[0] == outputs[1]


# Runs the CLI in-process and reports, on the last stderr line, its exit
# status and whether numpy was imported.
_STATUS_AND_NUMPY = """
import sys
from codeswitch.cli import run
try:
    status = run(sys.argv[1:])
except SystemExit as exc:  # --help
    status = exc.code
print(status, "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv, config, status", [
    (["stats", "{corpus}", "{corpus}", "-o", "stats.tsv"], None, 0),
    (["features", "{corpus}", "-o", "features.jsonl"], None, 0),
    (["--help"], None, 0),
    (["stats", "{corpus}", "-o", "stats.tsv"], {"chi2_k": 7, "word_n": [1, 3]}, 0),
    (["stats", "{corpus}", "-o", "stats.tsv"], {"chi2_k": "seven"}, 1),
], ids=["stats", "features", "help", "train-only config", "bad config value"])
def test_stats_and_features_import_no_numpy(argv, config, status, synth_file, tmp_path):
    """stats, features and the parser, with whatever CODESWITCH_CONFIG,
    import neither model nor textfeat, so a process that runs them starts
    without numpy."""
    env = _cli_env()
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        env["CODESWITCH_CONFIG"] = str(tmp_path / "config.json")
    result = subprocess.run([sys.executable, "-c", _STATUS_AND_NUMPY,
                             *(a.format(corpus=synth_file) for a in argv)],
                            cwd=tmp_path, env=env, capture_output=True, text=True)
    *err, last = result.stderr.splitlines()
    assert last == f"{status} False"
    assert bool(err) == (status == 1) and all(line.startswith("error: ") for line in err)


class TestCV:
    def test_cv_json_report(self, synth_file, tmp_path):
        out = tmp_path / "cv.json"
        assert run(["cv", synth_file, "--k", "5", *UNIGRAMS,
                    "--chi2-k", "0", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["folds"]) + len(doc["skipped_folds"]) == 5
        assert 0.0 <= doc["mean_macro_f1"] <= 1.0

    def test_ablation_reports_delta(self, synth_file, tmp_path):
        out = tmp_path / "ablate.json"
        assert run(["cv", synth_file, "--k", "5", "--ablate-switching",
                    *UNIGRAMS, "--chi2-k", "0", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        delta = (doc["with_switching"]["mean_macro_f1"]
                 - doc["without_switching"]["mean_macro_f1"])
        assert doc["delta_macro_f1"] == pytest.approx(delta, abs=1e-15)
        assert delta > 0

    def test_byte_identical_reruns(self, synth_file, tmp_path):
        args = ["cv", synth_file, "--k", "5", "--seed", "13", *UNIGRAMS,
                "--chi2-k", "0"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tsv_format(self, synth_file, capsys):
        assert run(["cv", synth_file, "--k", "5", *UNIGRAMS,
                    "--chi2-k", "0", "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "fold\tmacro_f1"
        assert lines[-1].startswith("mean\t")

    def test_tsv_rows_carry_their_own_fold_index(self, tmp_path, capsys):
        """Folds 0 and 2 hold one class each, so the TSV rows are folds 1,
        3 and 4, the folds the warnings and the JSON skipped_folds leave."""
        n, k, seed = 15, 5, 13
        corpus = _single_class_folds_corpus(tmp_path / "folds.txt", n, k, seed, {0, 2})
        args = ["cv", str(corpus), "--k", str(k), "--seed", str(seed), "--chi2-k", "0"]
        assert run([*args, "--format", "tsv"]) == 0
        tsv = capsys.readouterr()
        assert tsv.err == ("warning: fold 0 has a single class; excluded\n"
                           "warning: fold 2 has a single class; excluded\n")
        assert run(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["skipped_folds"] == [0, 2]
        rows = [line.split("\t") for line in tsv.out.splitlines()[1:-1]]
        assert rows == [[str(i), repr(f["macro_f1"])] for i, f in zip([1, 3, 4], doc["folds"])]


@pytest.mark.parametrize("flag, value", [("--max-iter", "x"), ("--tol", "nan"),
                                         ("--l2", "inf"), ("--lexicon-floor", "nan"),
                                         ("--tol", "1e999")])
def test_bad_train_flag_value_is_rejected_before_any_file(flag, value, synth_file, tmp_path,
                                                          capsys):
    """A non-finite float flag fails as a non-integer --max-iter does: an
    argparse error, no traceback, and neither output file written."""
    model, bundle = tmp_path / "model.txt", tmp_path / "pipeline.json"
    with pytest.raises(SystemExit) as exit_info:
        run(["train", synth_file, "--model-out", str(model), "--pipeline-out", str(bundle),
             flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [Path(synth_file)]


@pytest.mark.parametrize("argv", [["train", "--model-out", "M", "--pipeline-out", "P",
                                   "-o", "F"],
                                  ["eval", "--model", "M", "--pipeline", "P", "--seed", "1"],
                                  ["stats", "--seed", "1"], ["features", "--seed", "1"],
                                  ["subsample", "--model", "M", "--pipeline", "P",
                                   "--seed", "1"],
                                  ["train", "--model-out", "M", "--pipeline-out", "P",
                                   "--seed", "1"]])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, synth_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run([argv[0], synth_file, *argv[1:]])
    assert exit_info.value.code == 2
    assert "error: unrecognized arguments: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["cv", "c.txt"],
                                  ["train", "c.txt", "--model-out", "M", "--pipeline-out", "P"]])
def test_cli_defaults_are_the_pipeline_defaults(argv, monkeypatch):
    monkeypatch.delenv("CODESWITCH_CONFIG", raising=False)
    assert _pipeline_config(build_parser().parse_args(argv)) == PipelineConfig()


class TestConfigOverride:
    def test_env_config_sets_defaults(self, tiny_corpus_file, tmp_path,
                                      monkeypatch, capsys):
        cfg = tmp_path / "defaults.json"
        out = tmp_path / "via_config.jsonl"
        cfg.write_text(json.dumps({"output": str(out)}))
        monkeypatch.setenv("CODESWITCH_CONFIG", str(cfg))
        assert run(["features", tiny_corpus_file]) == 0
        assert out.exists()

    def test_key_applies_only_where_its_option_exists(self, synth_file, tmp_path, monkeypatch):
        """One file serves every subcommand: train has no -o, so it ignores
        "output"; cv takes both keys."""
        cfg = tmp_path / "defaults.json"
        out = tmp_path / "x"
        cfg.write_text(json.dumps({"output": str(out), "k": 3}))
        monkeypatch.setenv("CODESWITCH_CONFIG", str(cfg))
        train = ["train", synth_file, "--model-out", str(tmp_path / "model.txt"),
                 "--pipeline-out", str(tmp_path / "pipeline.json"), *UNIGRAMS,
                 "--chi2-k", "0"]
        assert not hasattr(build_parser().parse_args(train), "output")
        assert run(train) == 0
        assert not out.exists()
        assert run(["cv", synth_file, *UNIGRAMS, "--chi2-k", "0"]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["folds"]) + len(doc["skipped_folds"]) == 3


def _replace_line(text, index, line):
    lines = text.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def _bundle_with(key, change):
    """A corruption that replaces the bundle's value v at key by change(v)."""
    def corrupt(text):
        doc = json.loads(text)
        doc[key] = change(doc[key])
        return json.dumps(doc)
    return corrupt


def _as_bow_bundle(text):
    """The word 1-gram bundle with its kind named bow, as bow bundles were."""
    doc = json.loads(text)
    doc["config"]["kinds"] = ["bow"]
    doc["vocab"] = [["bow", payload] for _, payload in doc["vocab"]]
    return json.dumps(doc)


# (file to corrupt, the corrupted contents given the good ones, or None to delete)
BAD_INPUTS = {
    "bundle without config": ("pipeline.json", lambda text: '{"version": 1}\n'),
    "bundle not JSON": ("pipeline.json", lambda text: '{"version": 1 "config"}'),
    "bundle as a JSON list": ("pipeline.json", lambda text: "[1]\n"),
    "bundle field of wrong type": (
        "pipeline.json", lambda text: text.replace('"min_count": 1', '"min_count": "1"')),
    "bundle n-gram size not an integer": (
        "pipeline.json", lambda text: text.replace('"char_ngram": [3]', '"char_ngram": ["3"]')),
    # the bundle's kinds are word_ngram alone, so no featurization would reach char sizes
    "bundle n-gram size zero": (
        "pipeline.json", lambda text: text.replace('"char_ngram": [3]', '"char_ngram": [0]')),
    "bundle n-gram size negative": (
        "pipeline.json", lambda text: text.replace('"word_ngram": [1]', '"word_ngram": [-2]')),
    "bundle n-gram size repeated": (
        "pipeline.json", lambda text: text.replace('"char_ngram": [3]', '"char_ngram": [3, 3]')),
    "bundle n-gram sizes missing": (
        "pipeline.json", _bundle_with("config", lambda c: {**c, "n_values": {}})),
    "bundle n-gram sizes of an unknown kind": (
        "pipeline.json", _bundle_with("config", lambda c: {**c, "n_values": {"bogus": [7]}})),
    # the vocab keeps its length, so the model dim still matches
    "bundle vocab repeats a key": (
        "pipeline.json", _bundle_with("vocab", lambda v: v[:1] + v[:-1])),
    "bundle vocab out of order": ("pipeline.json", _bundle_with("vocab", lambda v: v[::-1])),
    "bundle vocab kind not in config kinds": (
        "pipeline.json", _bundle_with("vocab", lambda v: [["char_ngram", "abc"]] + v[1:])),
    # train writes null for no selection, so a bundle never holds a chi2_k below 1
    "bundle chi2_k negative": (
        "pipeline.json", _bundle_with("config", lambda c: {**c, "chi2_k": -7})),
    "bundle chi2_k zero": (
        "pipeline.json", _bundle_with("config", lambda c: {**c, "chi2_k": 0})),
    "bundle min_count negative": (
        "pipeline.json", _bundle_with("config", lambda c: {**c, "min_count": -3})),
    "bundle config kind unknown": (
        "pipeline.json", _bundle_with("config", lambda c: {**c, "kinds": ["nope"]})),
    # as `train --kinds bow` wrote it before the kind was removed
    "bundle of the removed bow kind": ("pipeline.json", _as_bow_bundle),
    "bundle lexicon with use_indicative off": (
        "pipeline.json", _bundle_with("config", lambda c: {**c, "use_indicative": False})),
    "bundle lexicon twice": ("pipeline.json", _bundle_with("lexicons", lambda v: v * 2)),
    "bundle without the lexicon use_indicative needs": (
        "pipeline.json", _bundle_with("lexicons", lambda v: [])),
    "model with only its magic line": ("model.txt", lambda text: text.splitlines()[0] + "\n"),
    "model with short header": ("model.txt", lambda text: text.replace(" l2 0.001\n", "\n")),
    "model with a NaN weight": ("model.txt", lambda text: _replace_line(text, -1, "nan")),
    "model with an infinite weight": ("model.txt", lambda text: _replace_line(text, -1, "inf")),
    "model dim not an integer": ("model.txt", lambda text: _replace_line(text, 1, "dim x")),
    "model dim negative": ("model.txt", lambda text: _replace_line(text, 1, "dim -1")),
    "model bias not a number": ("model.txt", lambda text: _replace_line(text, 3, "0.1x")),
    "model weight not a number": ("model.txt", lambda text: _replace_line(text, -1, "0.1x")),
    "model with a line after its weights": ("model.txt", lambda text: text + "0.5\n"),
    # a v2 file that carries the gradient-descent trainer's header fields
    "model epochs zero": ("model.txt", lambda text: text.replace(
        "max_iter 100 tol 1e-06 l2 0.001", "epochs 0 learning_rate 0.1 l2 0.001 seed 13")),
    "model learning rate negative": ("model.txt", lambda text: text.replace(
        "max_iter 100 tol 1e-06 l2 0.001", "epochs 300 learning_rate -1.0 l2 0.001 seed 13")),
    "model max_iter zero": ("model.txt",
                            lambda text: text.replace("max_iter 100 ", "max_iter 0 ")),
    "model tol nan": ("model.txt", lambda text: text.replace("tol 1e-06 ", "tol nan ")),
    "model l2 negative": ("model.txt", lambda text: text.replace("l2 0.001\n", "l2 -50.0\n")),
    # the format of the gradient-descent trainer, header and all
    "model format v1": ("model.txt", lambda text: text.replace(" v2\n", " v1\n").replace(
        "max_iter 100 tol 1e-06 l2 0.001", "epochs 300 learning_rate 0.1 l2 0.001 seed 13")),
    "config not JSON": ("config.json", lambda text: "{not json"),
    "config missing": ("config.json", None),
    "config a JSON list": ("config.json", lambda text: '["seed"]'),
    "config unknown option": ("config.json", lambda text: '{"no_such_option": 1}'),
    "config nested too deeply": ("config.json", lambda text: "[" * 100_000),
    "config list for an integer": ("config.json", lambda text: '{"k": [1]}'),
    "config integer for a list": ("config.json", lambda text: '{"char_n": 3}'),
    "config string for an integer": ("config.json", lambda text: '{"seed": "x"}'),
    "config string for a switch": ("config.json", lambda text: '{"with_switching": "no"}'),
    "config NaN for a float": ("config.json", lambda text: '{"tol": NaN}'),
    # json raises a plain ValueError, not a JSONDecodeError, for too long an integer
    "config holding a 5,000-digit integer": ("config.json",
                                            lambda text: '{"seed": ' + "9" * 5000 + "}"),
    # a bytes result is written as it is, a str one as UTF-8
    "model not UTF-8": ("model.txt", lambda text: text.encode() + b"\xff\n"),
    "bundle not UTF-8": ("pipeline.json", lambda text: text.encode().replace(b"version", b"\xff")),
    "config not UTF-8": ("config.json", lambda text: b'{"seed": "\xff"}'),
}


# (CODESWITCH_CONFIG contents, train flags) that train must reject before training
BAD_TRAINING = {
    "train flag max_iter negative": ("{}", ["--max-iter", "-1"]),
    "train flag max_iter zero": ("{}", ["--max-iter", "0"]),
    "train flag tol negative": ("{}", ["--tol", "-1"]),
    "train flag tol zero": ("{}", ["--tol", "0"]),
    "train flag l2 negative": ("{}", ["--l2", "-50"]),
    "train config max_iter zero": ('{"max_iter": 0}', []),
    # the gradient-descent trainer's settings are unknown options now
    "train config epochs zero": ('{"epochs": 0}', []),
    "train config learning rate negative": ('{"learning_rate": -1}', []),
    "train config tol negative": ('{"tol": -1}', []),
    "train config l2 negative": ('{"l2": -0.5}', []),
    "train flag punct empty": ("{}", ["--punct", ""]),
    "train config punct empty": ('{"punct": ""}', []),
    # the sizes are rejected even for kinds that are off
    "train flag char n-gram size zero": ("{}", [*UNIGRAMS, "--char-n", "0"]),
    "train flag word n-gram size negative": ("{}", ["--kinds", "char_ngram",
                                                    "--word-n", "1", "-1"]),
    "train config n-gram sizes below 1": (
        '{"kinds": "word_ngram", "char_n": [0], "word_n": [-1]}', []),
    # a repeated size would count each of its n-grams twice
    "train flag word n-gram size repeated": ("{}", ["--word-n", "1", "1"]),
    "train config n-gram size repeated": ('{"char_n": [3, 3]}', []),
    "train flag kinds bow": ("{}", ["--kinds", "bow"]),
    "train config kinds bow": ('{"kinds": "bow"}', []),
    # rejected where the settings come in, not after featurizing
    "train flag chi2_k negative": ("{}", ["--chi2-k", "-2"]),
    "train config chi2_k negative": ('{"chi2_k": -2}', []),
    "train flag min_count negative": ("{}", ["--min-count", "-3"]),
    "train config min_count negative": ('{"min_count": -1}', []),
}

TRAINING_ERROR = "need finite max_iter >= 1, tol > 0 and l2 >= 0"
PUNCT_ERROR = "punctuation_set must be a non-empty set of single characters"
NGRAM_ERROR = "sizes must be >= 1, got"
REPEAT_ERROR = "sizes must not repeat, got"
BOW_ERROR = "unknown feature kinds: ['bow']; bow was removed: use word_ngram with --word-n 1"
SELECTION_ERRORS = {"chi2_k": "chi2_k must be >= 1 (None keeps every feature), got -2",
                    "min_count": "min_count must be >= 0, got -"}

# the check each bundle case must fail
BUNDLE_ERRORS = {
    "bundle vocab repeats a key": "vocab is not strictly increasing",
    "bundle vocab out of order": "vocab is not strictly increasing",
    "bundle vocab kind not in config kinds": "a vocab kind is not in config.kinds",
    "bundle config kind unknown": "unknown feature kinds: ['nope']",
    "bundle of the removed bow kind": BOW_ERROR,
    "bundle n-gram size repeated": "char_ngram sizes must not repeat, got [3, 3]",
    "bundle chi2_k negative": "chi2_k must be >= 1 (None keeps every feature), got -7",
    "bundle chi2_k zero": "chi2_k must be >= 1 (None keeps every feature), got 0",
    "bundle min_count negative": "min_count must be >= 0, got -3",
    "bundle n-gram size zero": "char_ngram sizes must be >= 1, got [0]",
    "bundle n-gram size negative": "word_ngram sizes must be >= 1, got [-2]",
    **dict.fromkeys(["bundle n-gram size not an integer", "bundle n-gram sizes missing",
                     "bundle n-gram sizes of an unknown kind"], "missing or mistyped n_values"),
    **dict.fromkeys(["bundle lexicon with use_indicative off", "bundle lexicon twice",
                     "bundle without the lexicon use_indicative needs"],
                    "lexicons must hold one entry when use_indicative is true"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS) + sorted(BAD_TRAINING))
def test_bad_input_exits_cleanly(case, synth_file, tmp_path, monkeypatch, capsys):
    model, bundle, config = (tmp_path / name for name in
                             ("model.txt", "pipeline.json", "config.json"))
    assert run(["train", synth_file, "--model-out", str(model), "--pipeline-out", str(bundle),
                *UNIGRAMS, "--chi2-k", "0"]) == 0
    config.write_text("{}")
    monkeypatch.setenv("CODESWITCH_CONFIG", str(config))
    argv = ["eval", synth_file, "--model", str(model), "--pipeline", str(bundle)]
    if case in BAD_TRAINING:
        settings, flags = BAD_TRAINING[case]
        config.write_text(settings)
        argv = ["train", synth_file, "--model-out", str(model), "--pipeline-out", str(bundle),
                *flags]
        written = model.read_text(), bundle.read_text()
    else:
        name, corrupt = BAD_INPUTS[case]
        target = tmp_path / name
        if corrupt is None:
            target.unlink()
        else:
            good = target.read_bytes()
            bad = corrupt(good.decode())
            target.write_bytes(bad if isinstance(bad, bytes) else bad.encode())
            assert target.read_bytes() != good
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case in BAD_TRAINING:
        setting = next((key for key in SELECTION_ERRORS if key in case), None)
        assert (PUNCT_ERROR if "punct" in case else BOW_ERROR if "bow" in case
                else REPEAT_ERROR if "repeated" in case else NGRAM_ERROR if "size" in case
                else "unknown options" if "epochs" in case or "learning rate" in case
                else SELECTION_ERRORS[setting] if setting else TRAINING_ERROR) in err
        assert (model.read_text(), bundle.read_text()) == written  # nothing was trained
        return
    if case.startswith("config ") and case != "config missing":
        assert str(config) in err
    if case.startswith("bundle "):
        assert str(bundle) in err
        if case in BUNDLE_ERRORS:
            assert err.startswith(f"error: pipeline bundle {bundle}: {BUNDLE_ERRORS[case]}")
    if case.startswith("model "):
        assert str(model) in err
        if "not a" in case or "negative" in case:
            assert f"{model}: line " in err
        if case.startswith(("model max_iter", "model tol", "model l2")):
            assert err.startswith(f"error: {model}: line 3: {TRAINING_ERROR}, got ")
        if case.startswith(("model epochs", "model learning rate")):
            assert err == (f"error: {model}: line 3: malformed model header, "
                           "expected 'max_iter M tol T l2 L'\n")
        if case == "model format v1":
            assert err == f"error: {model}: unsupported model format version v1\n"
    if "not JSON" in case or "nested" in case or "digit" in case:
        assert err.startswith(f"error: {target}: not valid JSON")
    if "not UTF-8" in case:
        assert err == f"error: {target}: not valid UTF-8: invalid start byte\n"


@pytest.mark.parametrize("command", ["train", "cv"])
def test_corpus_without_features_exits_cleanly(command, synth_file, tmp_path, capsys):
    # word 50-grams: no synthetic utterance is that long, so no feature exists
    args = [command, synth_file, "--kinds", "word_ngram", "--word-n", "50"]
    if command == "train":
        args += ["--model-out", str(tmp_path / "model.txt"),
                 "--pipeline-out", str(tmp_path / "pipeline.json")]
    assert run(args) == 1
    assert capsys.readouterr().err == "error: resulting vocabulary is empty\n"


@pytest.mark.parametrize("command", ["train", "cv", "eval", "subsample"])
def test_surface_holding_the_ngram_joiner_exits_cleanly(command, synth_file, tmp_path, capsys):
    """With word 2-grams, a token surface holding NGRAM_SEP would share a
    column with a 2-gram of two other surfaces; every command that
    featurizes it exits 1 naming it (subsample scores only negatives)."""
    model, bundle = tmp_path / "model.txt", tmp_path / "pipeline.json"
    assert run(["train", synth_file, "--model-out", str(model), "--pipeline-out", str(bundle),
                "--chi2-k", "0"]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text(Path(synth_file).read_text() + f"0\tkoi{textfeat.NGRAM_SEP}to_hi koi_hi to_hi\n",
                   encoding="utf-8")
    argv = {"train": ["--model-out", str(model), "--pipeline-out", str(bundle)],
            "cv": [], "eval": ["--model", str(model), "--pipeline", str(bundle)],
            "subsample": ["--model", str(model), "--pipeline", str(bundle)]}[command]
    written = model.read_bytes(), bundle.read_bytes()
    capsys.readouterr()
    assert run([command, str(bad), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: token surface 'koi{textfeat.NGRAM_SEP}to' holds ")
    assert (model.read_bytes(), bundle.read_bytes()) == written


def test_cv_rejects_ngram_size_below_one(synth_file, tmp_path, capsys):
    out = tmp_path / "cv.json"
    assert run(["cv", synth_file, *UNIGRAMS, "--char-n", "0", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "error: char_ngram sizes must be >= 1, got [0]\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--chi2-k", "-2"], SELECTION_ERRORS["chi2_k"]),
    (["--min-count", "-1"], SELECTION_ERRORS["min_count"] + "1")])
def test_cv_rejects_selection_settings_before_featurizing(flags, message, synth_file, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.setattr(textfeat, "featurize", None)  # featurizing would raise TypeError
    out = tmp_path / "cv.json"
    assert run(["cv", synth_file, *UNIGRAMS, *flags, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--kinds", "bogus"], "unknown feature kinds: ['bogus']"),
    (["--chi2-k", "-2"], SELECTION_ERRORS["chi2_k"]),
    (["--max-iter", "0"], f"{TRAINING_ERROR}, got TrainConfig(max_iter=0, tol=1e-06, l2=0.001)"),
    (["--char-n", "0"], "char_ngram sizes must be >= 1, got [0]")],
    ids=["kinds", "chi2_k", "max_iter", "char_n"])
@pytest.mark.parametrize("command", ["train", "cv"])
def test_bad_setting_is_rejected_before_the_corpus_is_read(command, flags, message, tmp_path,
                                                           capsys):
    """The corpus path does not exist, so only a check made before reading it can
    report the setting."""
    outputs = (["--model-out", str(tmp_path / "model.txt"),
                "--pipeline-out", str(tmp_path / "pipeline.json")] if command == "train"
               else ["-o", str(tmp_path / "cv.json")])
    assert run([command, str(tmp_path / "missing.txt"), *outputs, *flags]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert list(tmp_path.iterdir()) == []


PUNCT_ERROR = "punctuation_set must be a non-empty set of single characters"


@pytest.mark.parametrize("command, flags, message", [
    ("stats", ["--punct", ""], PUNCT_ERROR),
    ("features", ["--punct", ""], PUNCT_ERROR),
    ("train", ["--punct", ""], PUNCT_ERROR),
    ("eval", ["--punct", ""], PUNCT_ERROR),
    ("cv", ["--punct", ""], PUNCT_ERROR),
    ("subsample", ["--punct", ""], PUNCT_ERROR),
    ("subsample", ["--tau", "0"], "tau must be in (0, 1), got 0.0"),
    ("subsample", ["--tau", "1"], "tau must be in (0, 1), got 1.0"),
    ("cv", ["--k", "1"], "k must be at least 2, got 1")])
def test_preprocessing_and_tau_are_rejected_before_any_file_is_read(command, flags, message,
                                                                    tmp_path, capsys):
    """No input exists, so only a check made before reading any file can
    report the setting."""
    missing = [str(tmp_path / name) for name in ("a.txt", "b.txt")]
    argv = {"stats": [*missing, "-o", str(tmp_path / "out")],
            "train": [missing[0], "--model-out", str(tmp_path / "model.txt"),
                      "--pipeline-out", str(tmp_path / "pipeline.json")],
            "eval": [missing[0], "--model", str(tmp_path / "model.txt"),
                     "--pipeline", str(tmp_path / "pipeline.json")]}
    argv["subsample"] = argv["eval"]
    assert run([command, *argv.get(command, [missing[0]]), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------
# Fuzzing: every malformed input exits 0 or 1, never with a traceback
# --------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)

OPTION_NAMES = ("seed", "output", "no_preprocess", "no_segment_hashtags", "punct", "kinds",
                "char_n", "word_n", "min_count", "chi2_k", "no_indicative", "lexicon_floor",
                "negation_file", "with_switching", "max_iter", "tol", "l2", "k",
                "ablate_switching", "format", "tau", "model", "pipeline", "input")


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A small corpus and the model and bundle trained on it."""
    root = tmp_path_factory.mktemp("served")
    corpus = root / "corpus.txt"
    write_corpus(switching_driven_corpus(16, seed=7, length=6), corpus)
    model, bundle = root / "model.txt", root / "pipeline.json"
    assert run(["train", str(corpus), "--model-out", str(model), "--pipeline-out", str(bundle),
                "--chi2-k", "20", "--with-switching"]) == 0
    return root, corpus, model.read_text(), json.loads(bundle.read_text())


def exits_cleanly(argv, config=None):
    """Run the CLI; return its status after checking that it is 0, or 1
    with an error as the last line of stderr (warnings may come before)."""
    err = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stderr(err):
        os.environ.pop("CODESWITCH_CONFIG", None)
        if config:
            os.environ["CODESWITCH_CONFIG"] = str(config)
        status = run(argv)
    assert status in (0, 1)
    assert status == 0 or err.getvalue().splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err.getvalue()
    return status


def eval_with(served, model_text=None, bundle_doc=None):
    root, corpus, good_model, good_bundle = served
    model, bundle = root / "fuzz_model.txt", root / "fuzz_pipeline.json"
    model.write_text(good_model if model_text is None else model_text)
    bundle.write_text(json.dumps(good_bundle if bundle_doc is None else bundle_doc))
    return exits_cleanly(["eval", str(corpus), "--model", str(model), "--pipeline", str(bundle),
                          "-o", str(root / "report.json")])


@settings(max_examples=40, deadline=None)
@given(cut=st.integers(min_value=0))
def test_fuzz_truncated_model(served, cut):
    text = served[2]
    eval_with(served, model_text=text[:cut % len(text)])


@settings(max_examples=20, deadline=None)
@given(line=st.integers(min_value=3), value=st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e400"]))
def test_fuzz_non_finite_weight(served, line, value):
    lines = served[2].splitlines()
    lines[3 + line % (len(lines) - 3)] = value
    assert eval_with(served, model_text="\n".join(lines) + "\n") == 1


BUNDLE_FIELDS = ("version", "config", "vocab", "lexicons") + tuple(
    f"config.{key}" for key in ("kinds", "n_values", "min_count", "chi2_k", "use_indicative",
                                "lexicon_floor", "negation_words", "with_switching"))


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(BUNDLE_FIELDS), value=JSON_VALUES)
def test_fuzz_bundle_field(served, field, value):
    doc = json.loads(json.dumps(served[3]))
    *parents, key = field.split(".")
    target = doc[parents[0]] if parents else doc
    target[key] = value
    eval_with(served, bundle_doc=doc)


@settings(max_examples=60, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(OPTION_NAMES) | st.text(max_size=4),
                                 JSON_VALUES, max_size=4))
def test_fuzz_config(served, overrides):
    root, corpus = served[:2]
    config = root / "fuzz_config.json"
    config.write_text(json.dumps(overrides))
    exits_cleanly(["cv", str(corpus), "--k", "2", "--max-iter", "2", "-o", str(root / "cv.json")],
                  config)
