"""Span tracing of dtrkit from outside the program, and the per-layer
metrics derived from the spans.

``Tracer.installed()`` replaces every module binding through which a public
layer function is called (``classifier.count_matrix`` next to
``representations.count_matrix``, ``cli.cross_validate`` next to
``evaluation.cross_validate``, ...) with a wrapper that records a span:
name, start, end, parent and a tag.  Counts are read from the returned
objects after the span closes, inside a ``trace.observe`` span so that the
reading is charged to the tracer and not to the caller.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("corpus", "representations", "embeddings", "classifier", "evaluation", "cli")
KINDS = ("bow", "dor", "tcor", "ssr", "w2v-train", "w2v-pretrained")

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("trace.observe_s", "s"),
        ("trace.overhead_s", "s"),
        ("run_s", "s"),
        ("top_terms_s", "s"),
        ("corpus.load_s", "s"),
        ("corpus.tokens", "count"),
        ("corpus.build_vocabulary_s", "s"),
        ("corpus.build_vocabulary_calls", "count"),
        ("corpus.vocab_terms", "count"),
        ("representations.count_matrix_s", "s"),
        ("representations.count_matrix_calls", "count"),
        ("representations.build_dor_s", "s"),
        ("representations.build_tcor_s", "s"),
        ("representations.cluster_subprofiles_s", "s"),
        ("representations.build_ssr_s", "s"),
        ("representations.aggregate_corpus_s", "s"),
        ("representations.aggregate_docs", "count"),
        ("representations.term_matrix_density.dor", "fraction"),
        ("representations.term_matrix_density.tcor", "fraction"),
        ("representations.term_matrix_density.ssr", "fraction"),
        ("representations.zero_vector_docs", "count"),
        ("embeddings.train_skipgram_s", "s"),
        ("embeddings.train_tokens_per_s", "1/s"),
        ("embeddings.objective_last", "nats"),
        ("embeddings.load_embeddings_s", "s"),
        ("embeddings.read_word2vec_calls", "count"),
        ("embeddings.read_word2vec_bytes", "bytes"),
        ("embeddings.coverage", "fraction"),
        ("classifier.build_bow_matrix_s", "s"),
        ("classifier.train_linear_svm_s", "s"),
        ("classifier.machines", "count"),
        ("classifier.epochs", "count"),
        ("classifier.converged_ratio", "fraction"),
        ("classifier.unconverged", "count"),
        ("classifier.duality_gap_max", "objective"),
        ("classifier.predict_s", "s"),
        ("classifier.feature_dims", "count"),
        ("evaluation.cross_validate.self_s", "s"),
        ("evaluation.folds", "count"),
        ("evaluation.attach_significance_s", "s"),
        ("evaluation.top_terms_tfidf_s", "s"),
        ("evaluation.top_terms_tfidf_calls", "count"),
        ("evaluation.information_gain_s", "s"),
        ("cli.report_bytes", "bytes"),
        ("failed_share", "fraction"),
    ]
    + [(f"cv_s.{kind}", "s") for kind in KINDS]
)

# Inclusive span time summed per function; the metric name is the span name
# plus "_s".  build_bow_matrix_s also takes in compute_idf, its companion.
_INCLUSIVE = {
    "corpus.load_s": ("corpus.load_corpus",),
    "corpus.build_vocabulary_s": ("corpus.build_vocabulary",),
    "representations.count_matrix_s": ("representations.count_matrix",),
    "representations.build_dor_s": ("representations.build_dor",),
    "representations.build_tcor_s": ("representations.build_tcor",),
    "representations.cluster_subprofiles_s": ("representations.cluster_subprofiles",),
    "representations.build_ssr_s": ("representations.build_ssr",),
    "representations.aggregate_corpus_s": ("representations.aggregate_corpus",),
    "embeddings.train_skipgram_s": ("embeddings.train_skipgram",),
    "embeddings.load_embeddings_s": ("embeddings.load_embeddings",),
    "classifier.build_bow_matrix_s": ("classifier.build_bow_matrix", "classifier.compute_idf"),
    "classifier.train_linear_svm_s": ("classifier.train_linear_svm",),
    "classifier.predict_s": ("classifier.predict",),
    "evaluation.attach_significance_s": ("evaluation.attach_significance",),
    "evaluation.top_terms_tfidf_s": ("evaluation.top_terms_tfidf",),
    "evaluation.information_gain_s": ("evaluation.information_gain",),
}
_CALLS = {
    "corpus.build_vocabulary_calls": "corpus.build_vocabulary",
    "representations.count_matrix_calls": "representations.count_matrix",
    "embeddings.read_word2vec_calls": "embeddings.read_word2vec",
    "evaluation.top_terms_tfidf_calls": "evaluation.top_terms_tfidf",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag")

    def __init__(self, name: str, start: float, parent: int, end: float = 0.0, tag=None):
        self.name, self.start, self.end, self.parent, self.tag = name, start, end, parent, tag

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.tag]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent on one thread, so they never overlap
    and the self times of a tree sum to the duration of its root.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def self_by_layer_and_tag(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self time per layer, split by the tag of the nearest tagged ancestor
    (the representation kind under a ``cross_validate``, else the CLI
    command)."""
    tags: list = []
    for s in spans:  # a parent always precedes its children
        if s.tag is not None:
            tags.append(s.tag)
        else:
            tags.append(s.name if s.parent < 0 else tags[s.parent])
    table: dict[str, dict[str, float]] = {}
    for s, own, tag in zip(spans, self_times(spans), tags):
        row = table.setdefault(s.layer, {})
        row[str(tag)] = row.get(str(tag), 0.0) + own
    return table


class Tracer:
    """Records spans around every public layer function while installed."""

    def __init__(self, dtrkit) -> None:
        self.modules = [getattr(dtrkit, layer) for layer in LAYERS]
        self.spans: list[Span] = []
        self.counts: dict[str, list] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    def _add(self, key: str, value) -> None:
        self.counts.setdefault(key, []).append(value)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            span = Span(name, 0.0, parent)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                obs = Span("trace.observe", clock(), parent)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.tag = observe(bound.arguments, result)
                obs.end = clock()
                spans.append(obs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the layer functions; restore the original bindings on exit."""
        layer_modules = {f"dtrkit.{layer}" for layer in LAYERS}
        saved = []
        wrappers: dict = {}
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                home = getattr(value, "__module__", None)
                if (
                    inspect.isfunction(value)
                    and home in layer_modules
                    and attr == value.__name__
                    and attr in sys.modules[home].__all__
                ):
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value)
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    # -- counts read from returned objects; the return value tags the span --

    def _observe_cli_main(self, a, result):
        return a["argv"][0]

    def _observe_evaluation_cross_validate(self, a, report):
        self._add("folds", len(report.folds))
        return a["rep"].kind

    def _observe_corpus_load_corpus(self, a, corpus):
        self._add("tokens", sum(len(doc.tokens) for doc in corpus.docs))

    def _observe_corpus_build_vocabulary(self, a, vocab):
        self._add("vocab_terms", len(vocab))

    def _observe_representations_aggregate_corpus(self, a, _):
        self._add("aggregate_docs", len(a["docs"]))

    def _density(self, kind, tm):
        m = tm.matrix
        nnz = m.nnz if hasattr(m, "nnz") else int((m != 0).sum())
        self._add("density." + kind, nnz / max(m.shape[0] * m.shape[1], 1))

    def _observe_representations_build_dor(self, a, tm):
        self._density("dor", tm)

    def _observe_representations_build_tcor(self, a, tm):
        self._density("tcor", tm)

    def _observe_representations_build_ssr(self, a, tm):
        self._density("ssr", tm)

    def _observe_embeddings_train_skipgram(self, a, tm):
        index = a["vocab"].index
        tokens = sum(1 for doc in a["corpus"].docs for t in doc.tokens if t in index)
        self._add("train_tokens", tokens * tm.meta["config"]["epochs"])
        self._add("objective_last", tm.meta["objective"][-1])

    def _observe_embeddings_read_word2vec(self, a, _):
        self._add("read_bytes", os.path.getsize(a["path"]))

    def _observe_embeddings_load_embeddings(self, a, tm):
        self._add("coverage", tm.meta["coverage"])

    def _observe_classifier_train_linear_svm(self, a, model):
        self._add("feature_dims", model.n_features)
        tol = model.meta["tol"]
        for run in model.meta["runs"]:
            self._add("epochs", run["epochs"])
            self._add("converged", run["final_violation"] < tol)
            self._add("duality_gap", run["duality_gap"])

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset()."""
        spans, counts = self.spans, self.counts
        own = self_times(spans)
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out["trace.observe_s"] = 0.0
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        cv_self = 0.0
        for s, t in zip(spans, own):
            out[f"{s.layer}.self_s" if s.layer != "trace" else "trace.observe_s"] += t
            inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.name == "evaluation.cross_validate":
                cv_self += t
        for metric, names in _INCLUSIVE.items():
            out[metric] = sum(inclusive.get(n, 0.0) for n in names)
        for metric, name in _CALLS.items():
            out[metric] = calls.get(name, 0)

        def total(key):
            return sum(counts.get(key, []))

        def mean(key):
            values = counts.get(key, [])
            return statistics.fmean(values) if values else 0.0

        converged = counts.get("converged", [])
        train_s = out["embeddings.train_skipgram_s"]
        out.update(
            {
                "corpus.tokens": total("tokens"),
                "corpus.vocab_terms": mean("vocab_terms"),
                "representations.aggregate_docs": total("aggregate_docs"),
                "representations.term_matrix_density.dor": mean("density.dor"),
                "representations.term_matrix_density.tcor": mean("density.tcor"),
                "representations.term_matrix_density.ssr": mean("density.ssr"),
                "embeddings.train_tokens_per_s": total("train_tokens") / train_s if train_s else 0.0,
                "embeddings.objective_last": mean("objective_last"),
                "embeddings.read_word2vec_bytes": total("read_bytes"),
                "embeddings.coverage": mean("coverage"),
                "classifier.machines": len(converged),
                "classifier.epochs": total("epochs"),
                "classifier.converged_ratio": sum(converged) / len(converged) if converged else 0.0,
                "classifier.unconverged": len(converged) - sum(converged),
                "classifier.duality_gap_max": max(counts.get("duality_gap", [0.0])),
                "classifier.feature_dims": mean("feature_dims"),
                "evaluation.cross_validate.self_s": cv_self,
                "evaluation.folds": total("folds"),
            }
        )
        return out
