import functools

import numpy as np
import pytest
import scipy.sparse as sp

import dtrkit
from dtrkit.classifier import (
    SvmModel,
    build_bow_matrix,
    compute_idf,
    decision_function,
    load_svm_model,
    predict,
    save_svm_model,
    train_linear_svm,
)
from dtrkit.corpus import build_vocabulary
from dtrkit.representations import aggregate_corpus, build_dor
from dtrkit.synthetic import make_synthetic_corpus

from conftest import corpus_from_tokens, random_token_lists
from oracles import naive_dual_cd, nnls_dual


def separable_set(rng, n=200, margin=0.5, dim=2):
    """Points split by a random hyperplane with the requested margin."""
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    X = rng.normal(size=(n, dim))
    proj = X @ direction
    signs = np.where(proj >= 0, 1.0, -1.0)
    # push every point to at least margin/2 from the separator
    X += ((margin / 2 - signs * proj).clip(min=0) * signs)[:, None] * direction
    labels = np.where(signs > 0, "pos", "neg")
    return X, list(labels)


class TestBuildBow:
    def setup_method(self):
        self.corpus = corpus_from_tokens([["a", "a", "c"], ["c", "d"]])
        self.vocab = build_vocabulary(self.corpus)

    def test_tf(self):
        vec = build_bow_matrix(self.corpus.subset([0]), self.vocab, "tf").toarray()[0]
        assert vec[self.vocab.index["a"]] == 2.0
        assert vec[self.vocab.index["c"]] == 1.0
        assert vec[self.vocab.index["d"]] == 0.0

    def test_boolean(self):
        vec = build_bow_matrix(self.corpus.subset([0]), self.vocab, "boolean").toarray()[0]
        got = {t: vec[self.vocab.index[t]] for t in ("a", "c", "d")}
        assert got == {"a": 1.0, "c": 1.0, "d": 0.0}

    def test_tfidf_worked_example(self):
        idf = compute_idf(self.corpus, self.vocab)
        vec = build_bow_matrix(self.corpus.subset([0]), self.vocab, "tfidf", idf).toarray()[0]
        assert vec[self.vocab.index["c"]] == 0.0  # appears in every document
        assert vec[self.vocab.index["a"]] == pytest.approx(1.0)

    def test_tfidf_requires_idf(self):
        with pytest.raises(ValueError, match="idf"):
            build_bow_matrix(self.corpus.subset([0]), self.vocab, "tfidf")

    def test_matrix_matches_per_doc(self, rng):
        for weighting in ("tf", "boolean", "tfidf"):
            corpus = corpus_from_tokens(random_token_lists(rng, max_docs=5))
            vocab = build_vocabulary(corpus)
            idf = compute_idf(corpus, vocab) if weighting == "tfidf" else None
            mat = build_bow_matrix(corpus, vocab, weighting, idf).toarray()
            rows = np.vstack(
                [
                    build_bow_matrix(corpus.subset([i]), vocab, weighting, idf).toarray()[0]
                    for i in range(len(corpus))
                ]
            )
            np.testing.assert_allclose(mat, rows, atol=1e-12)

    def test_empty_doc_is_zero_vector(self):
        corpus = corpus_from_tokens([["a"], ["zz"]])
        vocab = build_vocabulary(corpus, max_terms=1)
        vec = build_bow_matrix(corpus.subset([1]), vocab, "tf").toarray()[0]
        np.testing.assert_array_equal(vec, [0.0])


class TestTrainLinearSvm:
    def test_separable_pair(self):
        X = np.array([[-1.0], [1.0]])
        model = train_linear_svm(X, ["A", "B"], C=1.0)
        assert predict(model, X) == ["A", "B"]
        # decision for the A side must be positive (A is the +1 machine)
        assert decision_function(model, [[-1.0]])[0, 0] > 0

    def test_separable_200_points(self, rng):
        X, y = separable_set(rng)
        model = train_linear_svm(X, y, C=10.0)
        assert predict(model, X) == y

    def test_dual_objective_is_minimal(self, rng):
        X = rng.normal(size=(60, 5))
        y = ["a" if v > 0 else "b" for v in rng.normal(size=60)]
        model = train_linear_svm(X, y, C=1.0)
        (run,) = model.meta["runs"]
        aug = np.hstack([X, np.ones((60, 1))])
        ybin = np.where(np.array(y) == "a", 1.0, -1.0)

        def dual(a):
            v = aug.T @ (a * ybin)
            return 0.5 * (v @ v + (a @ a) / 2.0) - a.sum()

        best = recovered_dual(model, aug, ybin, 0, 1.0)
        assert dual(best) == pytest.approx(run["dual_objective"], rel=1e-9)
        for scale in (1e-3, 1e-1, 1.0):
            for _ in range(20):
                other = np.maximum(best + scale * rng.normal(size=60), 0.0)
                assert dual(other) >= run["dual_objective"] - 1e-12

    def test_duality_gap_small_at_convergence(self, rng):
        X, y = separable_set(rng, n=80)
        model = train_linear_svm(X, y, C=1.0)
        for run in model.meta["runs"]:
            assert abs(run["duality_gap"]) <= 1e-9 * max(1.0, abs(run["dual_objective"]))
            assert run["converged"] is True

    def test_unconverged_stop_warns_and_is_recorded(self):
        # The large-C DOR case needs 4 pivots, so a cap of 1 stops it early.
        X, y = dor_features(2)
        with pytest.warns(dtrkit.ConvergenceWarning, match="unconverged after 1 epochs"):
            model = train_linear_svm(X, y, C=1000.0, max_epochs=1)
        assert issubclass(dtrkit.ConvergenceWarning, RuntimeWarning)
        (run,) = model.meta["runs"]
        assert run["epochs"] == 1
        assert run["converged"] is False
        assert run["final_violation"] >= model.meta["tol"]

    def test_repeat_training_is_bit_identical(self, rng):
        X = rng.normal(size=(40, 4))
        y = ["a" if v > 0 else "b" for v in rng.normal(size=40)]
        first = train_linear_svm(X, y, C=1.0)
        second = train_linear_svm(X, y, C=1.0)
        np.testing.assert_array_equal(first.weights, second.weights)

    def test_duplicating_points_keeps_grid_predictions(self, rng):
        X, y = separable_set(rng, n=60)
        base = train_linear_svm(X, y, C=10.0)
        doubled = train_linear_svm(np.vstack([X, X]), y + y, C=10.0)
        grid = rng.normal(size=(250, 2)) * 2.0
        assert predict(base, grid) == predict(doubled, grid)

    def test_multiclass_one_vs_rest(self, rng):
        centers = np.array([[0.0, 6.0], [6.0, -6.0], [-6.0, -6.0]])
        X = np.vstack([rng.normal(size=(30, 2)) * 0.4 + c for c in centers])
        y = ["a"] * 30 + ["b"] * 30 + ["c"] * 30
        model = train_linear_svm(X, y, C=10.0)
        assert model.weights.shape[0] == 3
        assert predict(model, X) == y

    def test_sparse_input(self, rng):
        X, y = separable_set(rng, n=50)
        dense = train_linear_svm(X, y, C=1.0)
        sparse = train_linear_svm(sp.csr_matrix(X), y, C=1.0)
        np.testing.assert_array_equal(dense.weights, sparse.weights)

    def test_single_category_rejected(self):
        with pytest.raises(ValueError, match="single category"):
            train_linear_svm(np.zeros((3, 2)), ["a", "a", "a"])

    def test_nan_features_rejected(self):
        X = np.array([[0.0], [np.nan]])
        with pytest.raises(ValueError, match="NaN"):
            train_linear_svm(X, ["a", "b"])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            train_linear_svm(np.zeros((3, 2)), ["a", "b"])

    def test_bad_C_rejected(self):
        with pytest.raises(ValueError, match="C"):
            train_linear_svm(np.zeros((2, 1)), ["a", "b"], C=0.0)

    @pytest.mark.parametrize("C", [float("nan"), float("inf")])
    def test_non_finite_C_rejected(self, C):
        with pytest.raises(ValueError, match="C must be"):
            train_linear_svm(np.array([[0.0], [1.0]]), ["a", "b"], C=C)

    def test_max_epochs_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_epochs"):
            train_linear_svm(np.array([[0.0], [1.0]]), ["a", "b"], max_epochs=0)


def dor_features(n_categories, seed=3):
    corpus = make_synthetic_corpus(
        n_categories=n_categories,
        authors_per_category=20,
        exclusive_terms=20,
        shared_terms=100,
        tokens_per_doc=60,
        topical_fraction=0.05,
        seed=seed,
        task="topic",
    )
    vocab = build_vocabulary(corpus)
    return aggregate_corpus(corpus, build_dor(corpus, vocab), vocab), corpus.labels("topic")


def dense_case(rng):
    X = rng.normal(size=(60, 5))
    return X, ["a" if v > 0 else "b" for v in rng.normal(size=60)], {"C": 1.0}


def sparse_multiclass_case(rng):
    X = sp.random(90, 40, density=0.15, format="csr", random_state=rng)
    return X, [["a", "b", "c"][int(k)] for k in rng.integers(0, 3, 90)], {"C": 2.0}


def standardized_multiclass_case(rng):
    centers = np.array([[0.0, 6.0], [6.0, -6.0], [-6.0, -6.0]])
    X = np.vstack([rng.normal(size=(30, 2)) * 0.4 + c for c in centers])
    X = X * np.array([100.0, 0.01]) + np.array([50.0, -3.0])
    return X, ["a"] * 30 + ["b"] * 30 + ["c"] * 30, {"C": 10.0, "standardize": True}


def dor_case(rng):
    X, y = dor_features(3)
    return X, y, {"C": 1.0}


def unconverged_case(rng, seed=3):
    # Dual coordinate descent stops unconverged here after 20 epochs; an
    # exact solve needs 4 pivots.
    X, y = dor_features(2, seed=seed)
    return X, y, {"C": 1000.0, "max_epochs": 20}


def recovered_dual(model, aug, ybin, m, C):
    """Dual variables of machine ``m`` recovered from its weights: at the
    squared-hinge optimum a_i = 2C max(1 - y_i x_i.w, 0)."""
    return 2.0 * C * np.maximum(1.0 - ybin * (aug @ model.weights[m]), 0.0)


class TestSolverOracle:
    """``train_linear_svm`` at the unique optimum of the dual: the weights of
    an independent solver, the KKT conditions and a zero duality gap.  The
    reference is ``oracles.nnls_dual`` (the dual as non-negative least
    squares), except for ``dense_case``, which keeps the first-order oracle
    ``oracles.naive_dual_cd`` run to tol 1e-12.  At tol 1e-9 that oracle's
    own stopping error reached 1.35e-9 of |w| (seed 5), above the 1e-9
    bound."""

    @pytest.mark.parametrize(
        "case",
        [
            dense_case,
            sparse_multiclass_case,
            standardized_multiclass_case,
            dor_case,
            unconverged_case,
            *(
                pytest.param(
                    functools.partial(unconverged_case, seed=seed), id=f"unconverged_seed{seed}"
                )
                for seed in (4, 5, 6, 7)
            ),
        ],
    )
    def test_matches_naive_dual_cd(self, rng, case):
        X, y, kwargs = case(rng)
        C = kwargs["C"]
        model = train_linear_svm(X, y, **kwargs)
        dense = X.toarray() if sp.issparse(X) else np.asarray(X, dtype=np.float64)
        if model.feature_mean is not None:
            dense = (dense - model.feature_mean) / model.feature_scale
        aug = np.hstack([dense, np.ones((len(y), 1))])
        machines = model.categories[:1] if len(model.categories) == 2 else model.categories
        assert len(model.meta["runs"]) == len(machines)
        for m, (cat, run) in enumerate(zip(machines, model.meta["runs"])):
            ybin = np.where(np.array(y) == cat, 1.0, -1.0)
            if case is dense_case:
                w, want = naive_dual_cd(
                    sp.csr_matrix(aug), ybin, C, np.random.default_rng(0), tol=1e-12,
                    max_epochs=10**5,
                )  # fmt: skip
                assert want["converged"] is True
            else:
                w = nnls_dual(aug, ybin, C)
            assert run["converged"] is True
            assert run["final_violation"] < model.meta["tol"]
            assert np.linalg.norm(model.weights[m] - w) <= 1e-9 * np.linalg.norm(w)
            # KKT at the recovered dual point: a >= 0 (by construction),
            # w = sum a_i y_i x_i, and the gradient is >= 0 and complementary
            # to a, to 1e-9 of the largest margin term |x_i| |w|.
            alpha = recovered_dual(model, aug, ybin, m, C)
            w_alpha = aug.T @ (alpha * ybin)
            assert np.linalg.norm(w_alpha - model.weights[m]) <= 1e-9 * np.linalg.norm(w)
            grad = ybin * (aug @ w_alpha) + alpha / (2.0 * C) - 1.0
            scale = np.linalg.norm(aug, axis=1).max() * np.linalg.norm(w_alpha)
            assert (alpha >= 0.0).all()
            assert grad.min() >= -1e-9 * scale
            assert abs(alpha @ grad) <= 1e-9 * scale * alpha.sum()
            assert abs(run["duality_gap"]) <= 1e-9 * max(1.0, abs(run["dual_objective"]))


class TestPredict:
    def constructed_model(self):
        # weight rows: (w, b); machine favors A on positive x0
        return SvmModel(
            categories=["A", "B"],
            C=1.0,
            weights=np.array([[2.0, 0.0, 0.0]]),
            n_features=2,
        )

    def test_constructed_model(self):
        model = self.constructed_model()
        assert predict(model, [[1.0, 0.0]]) == ["A"]
        assert predict(model, [[-1.0, 0.0]]) == ["B"]

    def test_tie_goes_to_first_category(self):
        model = self.constructed_model()
        assert predict(model, [[0.0, 5.0]]) == ["A"]
        multi = SvmModel(
            categories=["a", "b", "c"],
            C=1.0,
            weights=np.zeros((3, 3)),
            n_features=2,
        )
        assert predict(multi, [[1.0, 1.0]]) == ["a"]

    def test_binary_prediction_matches_decision_sign(self, rng):
        X, y = separable_set(rng, n=40)
        model = train_linear_svm(X, y, C=1.0)
        probe = rng.normal(size=(100, 2))
        dec = decision_function(model, probe)[:, 0]
        want = [model.categories[0] if v >= 0 else model.categories[1] for v in dec]
        assert predict(model, probe) == want

    def test_dimension_mismatch_is_hard_error(self):
        model = self.constructed_model()
        with pytest.raises(ValueError, match="dimension"):
            predict(model, [[1.0]])
        with pytest.raises(ValueError, match="dimension"):
            predict(model, [[1.0, 2.0, 3.0]])


class TestStandardization:
    def test_off_by_default(self, rng):
        X, y = separable_set(rng, n=30)
        model = train_linear_svm(X, y, C=1.0)
        assert model.feature_mean is None and model.feature_scale is None

    def test_standardized_model_replays_transform(self, rng):
        X, y = separable_set(rng, n=60)
        X = X * np.array([100.0, 0.01]) + np.array([50.0, -3.0])
        model = train_linear_svm(X, y, C=10.0, standardize=True)
        assert predict(model, X) == y
        manual = (X - model.feature_mean) / model.feature_scale
        bare = SvmModel(model.categories, model.C, model.weights, model.n_features)
        np.testing.assert_allclose(
            decision_function(model, X), decision_function(bare, manual), atol=1e-12
        )

    def test_constant_dimension_survives(self, rng):
        X, y = separable_set(rng, n=20)
        X = np.hstack([X, np.full((20, 1), 7.0)])
        model = train_linear_svm(X, y, C=1.0, standardize=True)
        assert np.isfinite(model.weights).all()


class TestModelSerialization:
    def test_roundtrip_exact(self, tmp_path, rng):
        X, y = separable_set(rng, n=30)
        model = train_linear_svm(X, y, C=2.5)
        path = tmp_path / "model.txt"
        save_svm_model(model, path)
        back = load_svm_model(path)
        assert back.categories == model.categories
        assert back.C == model.C
        assert back.n_features == model.n_features
        assert back.meta == model.meta
        np.testing.assert_array_equal(back.weights, model.weights)
        probe = rng.normal(size=(20, 2))
        assert predict(back, probe) == predict(model, probe)

    def test_roundtrip_standardized(self, tmp_path, rng):
        X, y = separable_set(rng, n=30)
        model = train_linear_svm(X, y, C=1.0, standardize=True)
        path = tmp_path / "model.txt"
        save_svm_model(model, path)
        back = load_svm_model(path)
        np.testing.assert_array_equal(back.feature_mean, model.feature_mean)
        np.testing.assert_array_equal(back.feature_scale, model.feature_scale)
        probe = rng.normal(size=(10, 2))
        np.testing.assert_array_equal(
            decision_function(back, probe), decision_function(model, probe)
        )

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a model\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_svm_model(path)
