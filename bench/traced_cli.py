"""Run one codeswitch CLI command with spans and counts recorded.

    python3 bench/traced_cli.py TRACE_OUT <codeswitch arguments>

Wraps the layer-boundary functions of each codeswitch module from the
outside (the package itself is not edited), runs `codeswitch.cli.run`,
and writes the spans and counts kept in memory to TRACE_OUT as JSON when
the command ends:

    {"names": [...], "spans": [[name_index, start, end, parent], ...],
     "counts": {...}, "missing": [...], "span_cost_s": ...}

Times are `time.perf_counter()` seconds; `parent` is the index of the
enclosing span, or -1.  "span_cost_s" is what one traced call costs
more than the bare call, measured on a no-op after the command under
the span "trace.span_cost".  A function named below that the package
no longer has is listed under "missing" instead of failing the run.
"""

import json
import math
import os
import statistics
import sys
import time

_IMPORT_START = time.perf_counter()
import codeswitch.cli  # noqa: E402  (the import itself is the first span)
_IMPORT_END = time.perf_counter()


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.stack = []
        self.counts = {}
        self.missing = []
        self.prev_loss = math.inf

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (nid, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module_name, attr, before=None, after=None):
        """Replace module.attr, and every other codeswitch module's
        reference to the same function, by a traced wrapper."""
        layer = module_name.rpartition(".")[2]
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{layer}.{attr}")
            return
        traced = self.wrap(f"{layer}.{attr}", original, before, after)
        for name, mod in list(sys.modules.items()):
            if name == "codeswitch" or name.startswith("codeswitch."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def patch_method(self, module_name, cls_name, attr):
        layer = module_name.rpartition(".")[2]
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        original = getattr(cls, attr, None)
        if original is None:
            self.missing.append(f"{layer}.{cls_name}.{attr}")
            return
        setattr(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", original))

    def install(self):
        # counts that need the arguments or the result of a call
        def loaded(corpus, source, *args, **kwargs):
            if isinstance(source, (str, os.PathLike)):  # not the inner stream call
                self.add("corpus.utterances", len(corpus))
                self.add("corpus.tokens", sum(len(u.tokens) for u in corpus))

        def normalized(tokens, raw_tokens, *args, **kwargs):
            self.add("preprocess.tokens_in", len(raw_tokens))
            self.add("preprocess.tokens_out", len(tokens))
            self.add("preprocess.dropped", 0 if tokens else 1)

        def vocab_built(vocab, *args, **kwargs):
            self.add("textfeat.vocab_size_sum", len(vocab))
            self.add("textfeat.vocab_builds")

        def vocab_selected(vocab, *args, **kwargs):
            self.add("textfeat.vocab_kept_sum", len(vocab))
            self.add("textfeat.selections")

        def vectorized(vector, *args, **kwargs):
            self.add("textfeat.nnz", len(getattr(vector, "entries", ())))

        def fit_started(train_corpus, *args, **kwargs):
            self.add("model.fit_utterances", len(train_corpus))

        def train_started(*args, **kwargs):
            self.prev_loss = math.inf

        def loss_computed(result, *args, **kwargs):
            loss = result[0]
            self.add("model.epochs")
            if loss > self.prev_loss + 1e-9:  # the test model.train warns on
                self.add("model.loss_increases")
            self.prev_loss = loss

        def densified(matrix, *args, **kwargs):
            rows, cols = matrix.shape
            self.counts["model.dense_bytes"] = max(self.counts.get("model.dense_bytes", 0),
                                                   rows * cols * 8)

        def cross_validated(result, *args, **kwargs):
            self.add("model.folds", len(result.reports))

        def written(result, path, text, *args, **kwargs):
            self.add("cli.output_bytes", len(text.encode("utf-8")))

        p = self.patch
        p("codeswitch.cli", "_write_output", after=written)
        p("codeswitch.cli", "_preprocess_corpus")
        p("codeswitch.cli", "_load_fitted")
        p("codeswitch.corpus", "load_corpus", after=loaded)
        p("codeswitch.corpus", "kfold")
        p("codeswitch.preprocess", "normalize", after=normalized)
        p("codeswitch.switching", "switching_features")
        p("codeswitch.switching", "has_embedding_property")
        p("codeswitch.stats", "summarize")
        p("codeswitch.stats", "contingency")
        p("codeswitch.textfeat", "extract_features")
        p("codeswitch.textfeat", "build_vocabulary", after=vocab_built)
        p("codeswitch.textfeat", "chi2_select", after=vocab_selected)
        p("codeswitch.textfeat", "indicative_scores")
        p("codeswitch.textfeat", "vectorize", after=vectorized)
        p("codeswitch.model", "fit_pipeline", before=fit_started)
        p("codeswitch.model", "train", before=train_started)
        p("codeswitch.model", "loss_and_grad", after=loss_computed)
        p("codeswitch.model", "to_dense", after=densified)
        p("codeswitch.model", "evaluate")
        p("codeswitch.model", "cross_validate", after=cross_validated)
        p("codeswitch.model", "subsample_negatives")
        self.patch_method("codeswitch.model", "FittedPipeline", "predict_proba")
        p("codeswitch.cli", "run")

    def dump(self, path):
        start = time.perf_counter()
        cost = span_cost()
        self.spans.append((self.name_id("trace.span_cost"), start, time.perf_counter(), -1))
        doc = {"names": self.names, "spans": self.spans,
               "counts": self.counts, "missing": self.missing,
               "span_cost_s": cost}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def span_cost(calls=20000):
    """Seconds one traced call adds to a bare call, the median of 5 timings."""
    def noop():
        return None

    traced = Tracer().wrap("probe", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(5):
        start = clock()
        for _ in range(calls):
            noop()
        middle = clock()
        for _ in range(calls):
            traced()
        costs.append(((clock() - middle) - (middle - start)) / calls)
    return max(statistics.median(costs), 0.0)


def main(argv):
    tracer = Tracer()
    tracer.spans.append((tracer.name_id("cli.import"), _IMPORT_START, _IMPORT_END, -1))
    tracer.install()
    try:
        return codeswitch.cli.run(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
