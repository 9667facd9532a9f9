"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
as they go)."""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dtrkit.corpus import AuthorDoc, Corpus, build_vocabulary, load_corpus
from dtrkit.classifier import (
    load_svm_model,
    predict,
    save_svm_model,
    train_linear_svm,
)
from dtrkit.embeddings import EmbeddingConfig, train_skipgram
from dtrkit.evaluation import (
    RepConfig,
    collection_stats,
    cross_validate,
    stratified_kfold,
    wilcoxon_signed_rank,
)
from dtrkit.representations import (
    SubprofileAssignment,
    TermMatrix,
    _normalize_ssr,
    aggregate_corpus,
    build_dor,
    build_ssr,
    build_tcor,
    cluster_subprofiles,
    save_term_matrix,
)
from dtrkit.synthetic import make_synthetic_corpus

from conftest import corpus_from_tokens, cross_validate_recording, random_token_lists
from oracles import brute_force_wilcoxon, naive_dor, naive_tcor

PAN14_BLOGS_ENV = "DTRKIT_PAN14_BLOGS"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def test_formula_oracles_dor_tcor():
    with criterion("formula-oracles (DOR/TCOR vs naive, 50 corpora, 1e-12)"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(50):
            corpus = corpus_from_tokens(random_token_lists(rng, max_docs=5, max_terms=10))
            vocab = build_vocabulary(corpus)
            tokens = [d.tokens for d in corpus.docs]
            np.testing.assert_allclose(
                build_dor(corpus, vocab).matrix,
                naive_dor(tokens, vocab.terms),
                atol=1e-12,
                rtol=0,
            )
            np.testing.assert_allclose(
                build_tcor(corpus, vocab).matrix,
                naive_tcor(tokens, vocab.terms),
                atol=1e-12,
                rtol=0,
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def test_ssr_invariants():
    with criterion("ssr-invariants (row sums, one-hot support, k=1 degeneracy)"):
        rng = np.random.default_rng(202)
        for trial in range(50):
            lists = random_token_lists(rng, max_docs=6, max_terms=8)
            labels = ["x" if i % 2 == 0 else "y" for i in range(len(lists))]
            if len(set(labels)) < 2:
                lists.append(["t0"])
                labels.append("y")
            corpus = corpus_from_tokens(lists, labels=labels)
            vocab = build_vocabulary(corpus)
            assignment = cluster_subprofiles(corpus, "cat", vocab, 2, seed=trial)
            dense = build_ssr(corpus, vocab, assignment).matrix
            sums = dense.sum(axis=1)
            supported = sums > 0
            np.testing.assert_allclose(sums[supported], 1.0, atol=1e-9)
            assert ((dense >= 0.0) & (dense <= 1.0 + 1e-12)).all()

        # a term used by exactly one subclass ends up one-hot
        corpus = corpus_from_tokens(
            [["solo", "pad"], ["pad", "pad"]], labels=["x", "y"]
        )
        vocab = build_vocabulary(corpus)
        assignment = cluster_subprofiles(corpus, "cat", vocab, 1, seed=0)
        dense = build_ssr(corpus, vocab, assignment).matrix
        np.testing.assert_allclose(dense[vocab.index["solo"]], [1.0, 0.0])

        # k_per_class=1 must degenerate to the plain class-level assignment,
        # and the matrix built from it must be the class-level one bit for bit.
        rng = np.random.default_rng(203)
        lists = random_token_lists(rng, max_docs=6, max_terms=8)
        labels = ["x" if i % 2 == 0 else "y" for i in range(len(lists))]
        if len(set(labels)) < 2:
            lists.append(["t0"])
            labels.append("y")
        corpus = corpus_from_tokens(lists, labels=labels)
        vocab = build_vocabulary(corpus)
        cats = corpus.categories("cat")
        assignment = cluster_subprofiles(corpus, "cat", vocab, 1, seed=0)
        assert assignment.subclass_labels == [f"{c}/0" for c in cats]
        assert assignment.mapping == {
            doc.author_id: cats.index(doc.labels["cat"]) for doc in corpus.docs
        }
        class_level = SubprofileAssignment(
            task="cat",
            mapping={doc.author_id: cats.index(doc.labels["cat"]) for doc in corpus.docs},
            subclass_labels=list(cats),
        )
        got = build_ssr(corpus, vocab, assignment).matrix
        np.testing.assert_array_equal(got, build_ssr(corpus, vocab, class_level).matrix)

        # and it must match an independent per-document double loop
        raw = np.zeros((len(vocab), len(cats)))
        for doc in corpus.docs:
            k = cats.index(doc.labels["cat"])
            for term, count in doc.counts.items():
                raw[vocab.index[term], k] += math.log2(1.0 + count / len(doc.tokens))
        np.testing.assert_allclose(got, _normalize_ssr(raw, cats), atol=1e-12, rtol=0)


def test_aggregation_convex_combination():
    with criterion("aggregation (hand convex combination, permutation invariance)"):
        corpus = corpus_from_tokens([["a", "a", "b", "c"]])
        vocab = build_vocabulary(corpus)
        rows = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 4.0]], dtype=float)
        tm = TermMatrix("EMBEDDING", list(vocab.terms), rows)
        got = aggregate_corpus(corpus.subset([0]), tm, vocab, "mean")[0]
        want = (
            0.5 * rows[vocab.index["a"]]
            + 0.25 * rows[vocab.index["b"]]
            + 0.25 * rows[vocab.index["c"]]
        )
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

        rng = np.random.default_rng(303)
        base_tokens = ["a", "a", "b", "c", "c", "c", "d", "e"]
        for _ in range(20):
            shuffled = list(base_tokens)
            rng.shuffle(shuffled)
            pair = corpus_from_tokens([base_tokens, shuffled], labels=["x", "x"])
            vocab = build_vocabulary(pair)
            tm = TermMatrix(
                "EMBEDDING", list(vocab.terms), rng.normal(size=(len(vocab), 4))
            )
            first = aggregate_corpus(pair.subset([0]), tm, vocab, "mean")[0]
            second = aggregate_corpus(pair.subset([1]), tm, vocab, "mean")[0]
            np.testing.assert_allclose(first, second, atol=1e-12, rtol=0)


def test_svm_solver(tmp_path):
    with criterion("svm-solver (separable accuracy, zero duality gap, round-trip)"):
        rng = np.random.default_rng(404)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        X = rng.normal(size=(200, 2))
        proj = X @ direction
        signs = np.where(proj >= 0, 1.0, -1.0)
        X += ((0.25 - signs * proj).clip(min=0) * signs)[:, None] * direction
        y = ["pos" if s > 0 else "neg" for s in signs]

        model = train_linear_svm(X, y, C=10.0)
        assert predict(model, X) == y

        for run in model.meta["runs"]:
            assert run["converged"] is True
            assert abs(run["duality_gap"]) <= 1e-9 * max(1.0, abs(run["dual_objective"]))

        path = tmp_path / "model.txt"
        save_svm_model(model, path)
        back = load_svm_model(path)
        np.testing.assert_array_equal(back.weights, model.weights)
        assert back.categories == model.categories
        assert back.C == model.C


def test_wilcoxon_exact_mode():
    with criterion("wilcoxon (exact == brute force, n 5..12, 100 inputs)"):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert res.statistic == 0.0
        assert res.p_value == 0.0625

        rng = np.random.default_rng(505)
        for trial in range(100):
            n = 5 + trial % 8  # cycles through 5..12
            magnitudes = rng.integers(1, 7, size=n).astype(float)
            signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            a = magnitudes * signs
            b = np.zeros(n)
            got = wilcoxon_signed_rank(a, b)
            w_want, p_want, n_want = brute_force_wilcoxon(a, b)
            assert got.n == n_want
            assert got.statistic == w_want
            assert got.p_value == p_want, f"trial {trial}: {got.p_value} != {p_want}"


def test_end_to_end_pipeline():
    with criterion("end-to-end (10-CFV >= 0.90 for bow/dor/ssr, < 2 min)"):
        start = time.perf_counter()
        corpus = make_synthetic_corpus(
            n_categories=2,
            authors_per_category=100,
            exclusive_terms=30,
            seed=42,
        )
        for kind in ("bow", "dor", "ssr"):
            report = cross_validate(corpus, "topic", RepConfig(kind=kind), k=10, seed=42)
            assert report.mean_accuracy >= 0.90, (kind, report.mean_accuracy)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"


@pytest.mark.filterwarnings("ignore:document .* has no in-vocabulary tokens")
def test_leakage_guard(tmp_path):
    with criterion("leakage (per-fold DOR bit-identical under test-text corruption)"):
        corpus = make_synthetic_corpus(authors_per_category=15, tokens_per_doc=60, seed=8)
        rep = RepConfig(kind="dor")
        report, baseline = cross_validate_recording(corpus, "topic", rep, k=5, seed=13)
        for fold in report.folds:
            assert fold.rep_dims == len(corpus) - len(fold.predictions)

        folds = stratified_kfold(corpus.labels("topic"), k=5, seed=13)
        assert len(baseline) == len(folds)
        for fold_idx, test_idx in enumerate(folds):
            test_set = set(test_idx)
            corrupted = Corpus(
                [
                    AuthorDoc.from_text(d.author_id, "xq zz glorp", d.labels)
                    if i in test_set
                    else d
                    for i, d in enumerate(corpus.docs)
                ],
                corpus.tasks,
            )
            _, rerun = cross_validate_recording(corrupted, "topic", rep, k=5, seed=13)
            a_path = tmp_path / f"fold{fold_idx}_a.txt"
            b_path = tmp_path / f"fold{fold_idx}_b.txt"
            save_term_matrix(baseline[fold_idx], a_path)
            save_term_matrix(rerun[fold_idx], b_path)
            assert a_path.read_bytes() == b_path.read_bytes(), f"fold {fold_idx}"


def test_collection_characteristics():
    with criterion("characteristics (hand-computed 6-doc corpus, imbalance 0.5)"):
        corpus = corpus_from_tokens(
            [
                ["the", "dog", "barked", "!"],
                ["a", "dog", "ran"],
                ["the", "cat", "sat"],
                ["a", "cat", "meowed", "!"],
                ["elephant", "walked"],
                ["the", "elephant", "trumpeted"],
            ],
            labels=["x", "x", "x", "x", "y", "y"],
        )
        stats = collection_stats(corpus, "cat", stopwords=("the", "a"))
        assert abs(stats.ttr - 12 / 19) <= 1e-12
        assert abs(stats.ld - 12 / 19) <= 1e-12
        assert abs(stats.sx - 2 / 12) <= 1e-12
        assert abs(stats.shortness - 19 / 6) <= 1e-12
        assert abs(stats.imbalance - 1.0) <= 1e-12
        assert abs(stats.hardness - 1 / 12) <= 1e-12

        labels = ["female"] * 73 + ["male"] * 74
        pan_like = corpus_from_tokens([["w"]] * 147, labels=labels, task="gender")
        stats = collection_stats(pan_like, "gender", stopwords=())
        assert abs(stats.imbalance - 0.5) <= 1e-12


def test_skipgram_contextual_similarity():
    with criterion("skip-gram (context similarity >= 4/5 seeds, finite, improving)"):
        lines = []
        for _ in range(40):
            lines.append("open x close")
            lines.append("open y close")
            lines.append("front z back")
        corpus = Corpus(
            [AuthorDoc.from_text("a0", " . ".join(lines), {"t": "1"})],
            frozenset({"t"}),
        )
        vocab = build_vocabulary(corpus)

        def cosine(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        wins = 0
        for seed in range(5):
            cfg = EmbeddingConfig(dim=16, window=2, epochs=10)
            tm = train_skipgram(corpus, vocab, cfg, seed=seed)
            assert np.isfinite(tm.matrix).all()
            objective = tm.meta["objective"]
            assert objective[-1] <= objective[0]
            x, y, z = (tm.row(t) for t in ("x", "y", "z"))
            if cosine(x, y) > cosine(x, z):
                wins += 1
        assert wins >= 4, f"only {wins}/5 seeds ranked the shared-context pair higher"


def test_pan2014_blogs_gender_accuracy():
    path = os.environ.get(PAN14_BLOGS_ENV)
    if not path:
        pytest.skip(
            f"optional data-gated check: set {PAN14_BLOGS_ENV} to a directory in the "
            "pan-dir layout (truth.txt + one .txt per author) holding the 2014 "
            "blogs partition to enable it"
        )
    with criterion("pan2014-blogs-gender (DOR and SSR within 0.05 of 0.78)"):
        corpus = load_corpus(path, "pan-dir")
        for kind in ("dor", "ssr"):
            report = cross_validate(corpus, "gender", RepConfig(kind=kind), k=10, seed=42)
            assert abs(report.mean_accuracy - 0.78) <= 0.05, (kind, report.mean_accuracy)
