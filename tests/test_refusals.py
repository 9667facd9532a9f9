"""Each refusal of a bad argument, with its message, one row per check."""

import re

import numpy as np
import pytest

from dtrkit.classifier import compute_idf, predict, train_linear_svm
from dtrkit.corpus import AuthorDoc, Corpus, Vocabulary, build_vocabulary, load_corpus, save_jsonl
from dtrkit.embeddings import nearest_neighbors, project_embeddings, save_embeddings, train_skipgram
from dtrkit.evaluation import (
    CollectionStats,
    EvalReport,
    FoldResult,
    accuracy,
    attach_significance,
    collection_stats,
    correlation_map,
    cross_validate,
    reports_to_accuracy_csv,
    stratified_kfold,
    top_terms_tfidf,
    wilcoxon_signed_rank,
)
from dtrkit.representations import TermMatrix, build_dor, cluster_subprofiles, save_term_matrix
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
        lambda _: project_embeddings(["a", "b"], np.ones(2), vocab(), "v"),
        "matrix must be 2-d with one row per word, got shape (2,) for 2 words",
    ),
    (
        lambda _: project_embeddings(["a", "b", "c"], np.ones((2, 2)), vocab(), "v"),
        "matrix must be 2-d with one row per word, got shape (2, 2) for 3 words",
    ),
    (
        lambda _: project_embeddings(["a"], np.ones((2, 2)), vocab(), "v"),
        "matrix must be 2-d with one row per word, got shape (2, 2) for 1 words",
    ),
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


def with_lone_surrogate(field):
    """Two authors, the second with a lone surrogate in ``field``: its id,
    its text or its label for task ``t``."""
    second = {"author_id": "b", "text": "bye", "t": "y", field: "b\ud800"}
    docs = [
        AuthorDoc("a", "hello", {"t": "x"}),
        AuthorDoc(second["author_id"], second["text"], {"t": second["t"]}),
    ]
    return Corpus(docs, frozenset({"t"}))


# The author as the message names it, and the field.
UNENCODABLE = [("'b\\ud800'", "author_id"), ("'b'", "text"), ("'b'", "t")]


@pytest.mark.parametrize("author, field", UNENCODABLE, ids=[f for _, f in UNENCODABLE])
@pytest.mark.parametrize(
    "before", [None, '{"author_id": "z", "text": "", "t": "x"}\n'], ids=["no-file", "a-file"]
)
def test_save_jsonl_refuses_what_utf8_cannot_encode_before_writing(tmp_path, author, field, before):
    # No partial file: the first record is not written, and a file already
    # at the path is left as it was.
    path = tmp_path / "c.jsonl"
    if before is not None:
        path.write_text(before, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"author {author}: field {field!r} is not UTF-8")):
        save_jsonl(with_lone_surrogate(field), path)
    assert (path.read_text(encoding="utf-8") if path.exists() else None) == before


# Each writer with a lone surrogate in a term or a feature name, and the
# refusal that names it.
UNENCODABLE_WRITES = [
    (
        "save_term_matrix term",
        lambda path: save_term_matrix(TermMatrix("DOR", ["a", "b\ud800"], np.ones((2, 1))), path),
        "label 'b\\ud800' is not UTF-8",
    ),
    (
        "save_term_matrix feature",
        lambda path: save_term_matrix(
            TermMatrix("DOR", ["a", "b"], np.ones((2, 2)), feature_names=["x", "b\ud800"]), path
        ),
        "label 'b\\ud800' is not UTF-8",
    ),
    (
        "save_embeddings term",
        lambda path: save_embeddings(
            TermMatrix("EMBEDDING", ["a", "b\ud800"], np.ones((2, 1))), path
        ),
        "term 'b\\ud800' is not UTF-8",
    ),
]


@pytest.mark.parametrize(
    "write, message",
    [(write, message) for _, write, message in UNENCODABLE_WRITES],
    ids=[name for name, _, _ in UNENCODABLE_WRITES],
)
@pytest.mark.parametrize("before", [None, "kept\n"], ids=["no-file", "a-file"])
def test_writers_refuse_what_utf8_cannot_encode_before_writing(tmp_path, write, message, before):
    path = tmp_path / "out.txt"
    if before is not None:
        path.write_text(before, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)):
        write(path)
    assert (path.read_text(encoding="utf-8") if path.exists() else None) == before


SVM_DATA = (np.array([[0.0], [1.0]]), ["a", "b"])


def scored(accuracies):
    folds = [FoldResult(i, {}, acc, 1) for i, acc in enumerate(accuracies)]
    return EvalReport("dor", "cat", len(folds), 0, folds, float(np.mean(accuracies)))


BAD_TASKS = ["text", "author_id", "", "a\nb", "a\rb", 5, None]

# A bool, a fraction or a number out of range where a count, a seed, a
# tolerance or a significance level belongs: each is refused by the shared
# argument rules in dtrkit.corpus, and the message names the value.
BAD_ARGUMENTS = [
    (
        "build_vocabulary max_terms",
        lambda v: build_vocabulary(corpus(), max_terms=v),
        "max_terms must be a positive integer",
        [True, 2.5],
    ),
    (
        "cluster_subprofiles k_per_class",
        lambda v: cluster_subprofiles(corpus(), "cat", vocab(), k_per_class=v),
        "k_per_class must be a positive integer",
        [True, 2.5],
    ),
    (
        "top_terms_tfidf n",
        lambda v: top_terms_tfidf(corpus(), ["doc000"], n=v),
        "n must be non-negative",
        [True, 2.5],
    ),
    (
        "nearest_neighbors k",
        lambda v: nearest_neighbors(TermMatrix("EMBEDDING", ["a", "b"], np.ones((2, 2))), "a", v),
        "k must be a positive integer",
        [True, 2.5],
    ),
    # C is a real number, so 2.5 is a valid C.
    ("train_linear_svm C", lambda v: train_linear_svm(*SVM_DATA, C=v), "C must be", [True]),
    (
        "train_linear_svm max_epochs",
        lambda v: train_linear_svm(*SVM_DATA, max_epochs=v),
        "max_epochs must be",
        [True, 2.5],
    ),
    # tol is a real number, so 2.5 is a valid tol.
    (
        "train_linear_svm tol",
        lambda v: train_linear_svm(*SVM_DATA, tol=v),
        "tol must be a finite positive number",
        [True, float("nan"), -1.0],
    ),
    (
        "make_synthetic_corpus n_categories",
        lambda v: make_synthetic_corpus(n_categories=v, authors_per_category=2),
        "need at least two categories",
        [True, 2.5],
    ),
    (
        "make_synthetic_corpus authors_per_category",
        lambda v: make_synthetic_corpus(authors_per_category=v),
        "authors_per_category must be a positive integer",
        [True, 0, 2.5],
    ),
    (
        "make_synthetic_corpus exclusive_terms",
        lambda v: make_synthetic_corpus(authors_per_category=2, exclusive_terms=v),
        "exclusive_terms must be a positive integer",
        [True, 0, 2.5],
    ),
    (
        "make_synthetic_corpus shared_terms",
        lambda v: make_synthetic_corpus(authors_per_category=2, shared_terms=v),
        "shared_terms must be a positive integer",
        [True, -3, 2.5],
    ),
    (
        "make_synthetic_corpus tokens_per_doc",
        lambda v: make_synthetic_corpus(authors_per_category=2, tokens_per_doc=v),
        "tokens_per_doc must be a positive integer",
        [True, 0, 2.5],
    ),
    (
        "make_synthetic_corpus topical_fraction",
        lambda v: make_synthetic_corpus(authors_per_category=2, topical_fraction=v),
        "topical_fraction must be a finite number in [0, 1]",
        [True, float("nan"), -0.5, 1.5],
    ),
    (
        "stratified_kfold seed",
        lambda v: stratified_kfold(["a", "b", "a"], k=2, seed=v),
        "seed must be an integer",
        [True, 2.5],
    ),
    (
        "cross_validate seed",
        lambda v: cross_validate(make_synthetic_corpus(authors_per_category=2), "topic", k=2, seed=v),
        "seed must be an integer",
        [True, 2.5],
    ),
    (
        "cluster_subprofiles seed",
        lambda v: cluster_subprofiles(corpus(), "cat", vocab(), seed=v),
        "seed must be an integer",
        [True, 2.5],
    ),
    (
        "train_skipgram seed",
        lambda v: train_skipgram(corpus(), vocab(), seed=v),
        "seed must be an integer",
        [True, 2.5],
    ),
    # save_jsonl writes each task as a key beside author_id and text.
    (
        "Corpus tasks",
        lambda v: Corpus([], frozenset({"topic", v})),
        "task names must be non-empty single-line strings other than 'author_id' and 'text'",
        BAD_TASKS,
    ),
    (
        "make_synthetic_corpus task",
        lambda v: make_synthetic_corpus(authors_per_category=2, task=v),
        "task names must be non-empty single-line strings",
        BAD_TASKS,
    ),
    (
        "make_synthetic_corpus seed",
        lambda v: make_synthetic_corpus(authors_per_category=2, seed=v),
        "seed must be an integer",
        [True, 2.5],
    ),
    (
        "wilcoxon_signed_rank alpha",
        lambda v: wilcoxon_signed_rank([1.0] * 5, [0.0] * 5, alpha=v),
        "alpha must be a number in (0, 1)",
        [True, 2.5],
    ),
    (
        "wilcoxon_signed_rank exact_threshold",
        lambda v: wilcoxon_signed_rank([1.0] * 5, [0.0] * 5, exact_threshold=v),
        "exact_threshold must be a non-negative integer",
        [True, 2.5, -1, "x"],
    ),
    (
        "attach_significance alpha",
        lambda v: attach_significance(scored([1.0] * 5), {"bow": scored([0.5] * 5)}, alpha=v),
        "alpha must be a number in (0, 1)",
        [True, 2.5],
    ),
]


@pytest.mark.parametrize(
    "call, message, value",
    [(call, message, v) for _, call, message, values in BAD_ARGUMENTS for v in values],
    ids=[f"{name}={v!r}" for name, _, _, values in BAD_ARGUMENTS for v in values],
)
def test_bad_argument_is_refused_by_name_and_value(call, message, value):
    with pytest.raises(ValueError, match=re.escape(message) + ".*" + re.escape(repr(value))):
        call(value)


def test_a_single_sample_may_be_one_row_or_a_1d_vector():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    model = train_linear_svm(X, ["a", "b", "a", "b"])
    assert predict(model, X[1]) == predict(model, X[1:2]) == ["b"]
