"""Each refusal of a bad argument, with its message, one row per check."""

import re

import numpy as np
import pytest

from dtrkit.classifier import compute_idf, predict, train_linear_svm
from dtrkit.corpus import Corpus, Vocabulary, build_vocabulary, load_corpus
from dtrkit.embeddings import nearest_neighbors, project_embeddings, train_skipgram
from dtrkit.evaluation import (
    CollectionStats,
    EvalReport,
    accuracy,
    collection_stats,
    correlation_map,
    cross_validate,
    reports_to_accuracy_csv,
    stratified_kfold,
    top_terms_tfidf,
)
from dtrkit.representations import TermMatrix, build_dor, cluster_subprofiles
from dtrkit.synthetic import make_synthetic_corpus

from conftest import corpus_from_tokens

EMPTY = Corpus([], frozenset({"cat"}))
NO_TERMS = Vocabulary(terms=[], index={}, freq={})


def corpus():
    return corpus_from_tokens([["a", "b"], ["b", "c"]], labels=["x", "y"])


def vocab():
    return build_vocabulary(corpus())


def jsonl(tmp_path, text):
    path = tmp_path / "c.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


def report(rep_id):
    return EvalReport(rep_id, "cat", 2, 0, [], 0.5)


STATS = CollectionStats(0.5, 0.5, 0.5, 10.0, 0.0, 0.5)

REFUSALS = [
    # classifier
    (lambda _: compute_idf(EMPTY, vocab()), "cannot compute idf from an empty corpus"),
    (
        lambda _: train_linear_svm(np.zeros((2, 2, 2)), ["a", "b"]),
        "features must form a 2-d matrix, got ndim=3",
    ),
    (lambda _: train_linear_svm(np.zeros((1, 2)), ["a"]), "training needs at least two samples"),
    # corpus
    (
        lambda tmp: load_corpus(jsonl(tmp, '{"author_id": "a"}\n')),
        "c.jsonl:1: record needs 'author_id' and 'text' keys",
    ),
    (
        lambda tmp: load_corpus(jsonl(tmp, '{"author_id": "a", "text": ""}\n[1]\n')),
        "c.jsonl:2: record needs 'author_id' and 'text' keys",
    ),
    (lambda _: build_vocabulary(corpus(), max_terms=0), "max_terms must be a positive integer"),
    # embeddings
    (lambda _: train_skipgram(EMPTY, vocab()), "corpus is empty"),
    (lambda _: project_embeddings(["a"], np.ones((1, 2)), NO_TERMS, "v"), "vocabulary is empty"),
    (
        lambda _: nearest_neighbors(TermMatrix("EMBEDDING", ["a"], np.ones((1, 2))), "a", 0),
        "k must be a positive integer",
    ),
    # evaluation
    (lambda _: accuracy([], []), "cannot score empty label lists"),
    (lambda _: reports_to_accuracy_csv({}), "no reports given"),
    (lambda _: collection_stats(EMPTY, "cat"), "corpus is empty"),
    (
        lambda _: cross_validate(make_synthetic_corpus(authors_per_category=2), "topic", k=1),
        "k must be at least 2 for cross-validation, got 1",
    ),
    (
        lambda _: cross_validate(make_synthetic_corpus(authors_per_category=2), "topic", k=2.5),
        "k must be an integer, got 2.5",
    ),
    (lambda _: stratified_kfold(["a", "b", "a"], k=2.0), "k must be an integer, got 2.0"),
    (lambda _: stratified_kfold(["a", "b", "a"], k=True), "k must be an integer, got True"),
    (
        lambda _: correlation_map(
            {"g1": {"dor": report("dor")}, "g2": {"dor": report("dor")}},
            {"g1": report("bow")},
            {"g1": STATS, "g2": STATS},
        ),
        "genre keys must match across reports, baselines, and stats",
    ),
    (
        lambda _: correlation_map(
            {"g1": {"dor": report("dor")}, "g2": {"tcor": report("tcor")}},
            {"g1": report("bow"), "g2": report("bow")},
            {"g1": STATS, "g2": STATS},
        ),
        "representations for genre 'g2' differ from the others",
    ),
    (lambda _: top_terms_tfidf(corpus(), ["doc000"], n=-1), "n must be non-negative"),
    # representations
    (lambda _: TermMatrix("DOR", ["a"], np.zeros((2, 1))), "matrix has 2 rows for 1 terms"),
    (lambda _: build_dor(EMPTY, vocab()), "training corpus is empty"),
    (lambda _: build_dor(corpus(), NO_TERMS), "vocabulary is empty"),
    (
        lambda _: cluster_subprofiles(corpus(), "cat", vocab(), k_per_class=0),
        "k_per_class must be a positive integer",
    ),
    # synthetic
    (lambda _: make_synthetic_corpus(n_categories=1), "need at least two categories"),
]


@pytest.mark.parametrize("call, message", REFUSALS, ids=[m for _, m in REFUSALS])
def test_refusal_names_the_fault(call, message, tmp_path):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)


def test_a_single_sample_may_be_one_row_or_a_1d_vector():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    model = train_linear_svm(X, ["a", "b", "a", "b"])
    assert predict(model, X[1]) == predict(model, X[1:2]) == ["b"]
