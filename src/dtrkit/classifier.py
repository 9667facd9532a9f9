"""Bag-of-words features and a linear SVM solved exactly by block principal pivoting.

The solver finds the unique optimum of the dual of the L2-regularized
squared-hinge objective by a few linear solves on its free set, with
one-vs-rest reduction for more than two categories.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, Vocabulary
from .representations import _ContainerReader, _fmt, _row_l2_normalize, _write_container, count_matrix

__all__ = [
    "BOW_WEIGHTINGS",
    "ConvergenceWarning",
    "SvmModel",
    "compute_idf",
    "build_bow_matrix",
    "train_linear_svm",
    "decision_function",
    "predict",
    "save_svm_model",
    "load_svm_model",
]

BOW_WEIGHTINGS = ("tf", "boolean", "tfidf")


def compute_idf(train: Corpus, vocab: Vocabulary) -> np.ndarray:
    """Natural-log inverse document frequency from a training corpus."""
    if not train.docs:
        raise ValueError("cannot compute idf from an empty corpus")
    df = count_matrix(train, vocab).getnnz(axis=0).astype(np.float64)
    return np.where(df > 0, np.log(len(train) / np.maximum(df, 1.0)), 0.0)


def build_bow_matrix(
    docs: Corpus,
    vocab: Vocabulary,
    weighting: str = "tf",
    idf: np.ndarray | None = None,
) -> sp.csr_matrix:
    """Sparse fixed-vocabulary document vectors, one row per document.

    ``tf`` keeps raw counts, ``boolean`` presence flags, ``tfidf`` multiplies
    counts by the supplied training-fold idf and L2-normalizes each row.
    """
    if weighting not in BOW_WEIGHTINGS:
        raise ValueError(f"weighting must be one of {BOW_WEIGHTINGS}, got {weighting!r}")
    mat = count_matrix(docs, vocab)
    if weighting == "boolean":
        mat.data = np.ones_like(mat.data)
    elif weighting == "tfidf":
        if idf is None:
            raise ValueError("tfidf weighting requires idf computed on the training fold")
        mat = _row_l2_normalize(mat.multiply(idf[np.newaxis, :]).tocsr())
    return mat


@dataclass
class SvmModel:
    """Per-category separators; the last weight component is the bias.

    Binary problems keep a single weight vector for the lexicographically
    first category; multiclass keeps one vector per category (one-vs-rest).
    When the model was trained with standardization, ``feature_mean`` and
    ``feature_scale`` hold the training-fold transform applied before the
    dot product.
    """

    categories: list[str]
    C: float
    weights: np.ndarray  # (n_machines, n_features + 1)
    n_features: int
    meta: dict = field(default_factory=dict)
    feature_mean: np.ndarray | None = None
    feature_scale: np.ndarray | None = None


def _as_feature_matrix(X) -> np.ndarray:
    """Features as a dense 2-D float64 array; sparse bag-of-words input is
    densified once here, so the classifier has one path."""
    mat = np.asarray(X.toarray() if sp.issparse(X) else X, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2:
        raise ValueError(f"features must form a 2-d matrix, got ndim={mat.ndim}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("features contain NaN or Inf")
    return mat


class ConvergenceWarning(RuntimeWarning):
    """An SVM machine reached ``max_epochs`` with its KKT violation still at or above ``tol``."""


def _bpp(G: np.ndarray, y: np.ndarray, alpha: np.ndarray, tol: float, max_epochs: int):
    """Block principal pivoting on the squared-hinge dual, ``G = K + I/(2C)``.

    Dual: min 1/2 a'Qa - sum a over a >= 0, Q = D G D, D = diag(y).  Each
    iteration solves Q_FF a_F = 1 on the free set F (a = 0 off it), that is
    G_FF b = y_F with a_F = y_F b as D^2 = I; ``alpha`` is the solution with
    every index free.  Every KKT violator (free with a_i < 0, bound with
    gradient < 0) then changes sides; once their count has not fallen for 3
    iterations, only the one with the largest index does (Murty's rule),
    which makes the method finite as Q is positive definite (Kim & Park
    2011).  It also stops at a feasible iterate whose violation is below
    ``tol``.  Returns the dual variables and the run record without the
    duality gap, which needs the primal weights.
    """
    free = np.ones(len(y), dtype=bool)
    fewest, backup, epochs = len(y) + 1, 3, 1
    while True:
        grad = y * (G @ (alpha * y)) - 1.0
        infeasible = free & (alpha < 0.0)
        swap = infeasible | (~free & (grad < 0.0))
        certified = not infeasible.any() and np.where(free, np.abs(grad), -grad).max() < tol
        if certified or not swap.any() or epochs == max_epochs:
            break
        if swap.sum() < fewest:
            fewest, backup = swap.sum(), 3
        elif backup > 0:
            backup -= 1
        else:
            swap[: np.flatnonzero(swap)[-1]] = False
        free ^= swap
        idx = np.flatnonzero(free)
        alpha = np.zeros(len(y))
        alpha[idx] = y[idx] * np.linalg.solve(G[np.ix_(idx, idx)], y[idx])
        epochs += 1
    alpha = np.maximum(alpha, 0.0)
    grad = y * (G @ (alpha * y)) - 1.0
    viol = float(np.where(alpha > 0.0, np.abs(grad), np.maximum(-grad, 0.0)).max())
    info = {
        "epochs": epochs,
        "dual_objective": float(0.5 * (alpha @ grad - alpha.sum())),
        "final_violation": viol,
        "converged": bool(viol < tol),
    }
    return alpha, info


def train_linear_svm(
    X,
    y,
    C: float = 1.0,
    tol: float = 1e-8,
    max_epochs: int = 1000,
    standardize: bool = False,
) -> SvmModel:
    """Train a linear SVM exactly by block principal pivoting (one-vs-rest multiclass).

    A constant feature is appended internally so the bias is learned jointly
    with the weights.  Each machine's dual optimum is unique and does not
    depend on the row order, so training needs no seed.  ``epochs`` counts
    pivot iterations (one linear solve each) up to ``max_epochs``; a machine
    whose KKT violation is still >= ``tol`` then warns with
    :class:`ConvergenceWarning`.  ``standardize=True`` (off by default)
    applies a per-dimension training-fold standardization that the model
    replays at prediction time.  Memory: the dense features, n * d * 8 bytes
    (sparse input is densified on entry), and one Gram matrix of the training
    rows shared by all machines, n_train^2 * 8 bytes, plus one copy of its
    free-set block while that is solved.
    """
    mat = _as_feature_matrix(X)
    labels = [str(lab) for lab in y]
    if mat.shape[0] != len(labels):
        raise ValueError(f"{mat.shape[0]} feature rows but {len(labels)} labels")
    if len(labels) < 2:
        raise ValueError("training needs at least two samples")
    categories = sorted(set(labels))
    if len(categories) < 2:
        raise ValueError(f"training labels contain a single category {categories[0]!r}")
    if not (C > 0 and math.isfinite(C)):
        raise ValueError(f"C must be a finite positive number, got {C!r}")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be at least 1, got {max_epochs!r}")
    feature_mean = feature_scale = None
    if standardize:
        feature_mean = mat.mean(axis=0)
        std = mat.std(axis=0)
        feature_scale = np.where(std > 0, std, 1.0)
        mat = (mat - feature_mean) / feature_scale
    aug = np.hstack([mat, np.ones((mat.shape[0], 1))])
    # One n_train x n_train Gram matrix, shared by every machine, with the
    # dual's I/(2C) term added in place.
    G = aug @ aug.T
    G.flat[:: len(G) + 1] += 1.0 / (2.0 * C)
    machines = categories[:1] if len(categories) == 2 else categories
    ys = np.where(np.array(labels) == np.array(machines)[:, np.newaxis], 1.0, -1.0)
    # Every machine starts with all points free: one solve, one column per machine.
    starts = ys * np.linalg.solve(G, ys.T).T
    weights = np.zeros((len(machines), aug.shape[1]))
    runs = []
    for m, (cat, ybin) in enumerate(zip(machines, ys)):
        alpha, info = _bpp(G, ybin, starts[m], tol, max_epochs)
        w = aug.T @ (alpha * ybin)
        weights[m] = w
        hinge = np.maximum(1.0 - ybin * (aug @ w), 0.0)
        primal = 0.5 * (w @ w) + C * (hinge @ hinge)
        info["duality_gap"] = float(primal + info["dual_objective"])
        info["category"] = cat
        if not info["converged"]:
            warnings.warn(
                f"linear SVM for category {cat!r} stopped unconverged after "
                f"{info['epochs']} epochs: final violation {info['final_violation']:.4g} "
                f">= tol {tol}",
                ConvergenceWarning,
            )
        runs.append(info)
    meta = {"solver": "block-principal-pivoting", "tol": tol, "runs": runs}
    return SvmModel(categories, float(C), weights, mat.shape[1], meta, feature_mean, feature_scale)


def decision_function(model: SvmModel, X) -> np.ndarray:
    """Per-machine decision values w.x + b, shape (n_samples, n_machines)."""
    mat = _as_feature_matrix(X)
    if mat.shape[1] != model.n_features:
        raise ValueError(
            f"feature dimension {mat.shape[1]} does not match model dimension {model.n_features}"
        )
    if model.feature_mean is not None:
        mat = (mat - model.feature_mean) / model.feature_scale
    w = model.weights
    return mat @ w[:, :-1].T + w[:, -1][np.newaxis, :]


def predict(model: SvmModel, X) -> list[str]:
    """Category labels by maximal decision value; ties go to category order."""
    dec = decision_function(model, X)
    if len(model.categories) == 2:
        return [model.categories[0] if v >= 0 else model.categories[1] for v in dec[:, 0]]
    return [model.categories[int(i)] for i in dec.argmax(axis=1)]


_SVM_MAGIC = "svm-model 1"


def save_svm_model(model: SvmModel, path) -> None:
    """Textual model container; weights at 17 significant digits (exact round-trip)."""
    standardized = model.feature_mean is not None
    header = {
        "categories": json.dumps(model.categories),
        "C": _fmt(model.C),
        "n_features": model.n_features,
        "standardized": int(standardized),
        "meta": json.dumps(model.meta, sort_keys=True),
    }
    rows = [model.feature_mean, model.feature_scale] if standardized else []
    _write_container(path, _SVM_MAGIC, header, [], [*rows, *model.weights])


def load_svm_model(path) -> SvmModel:
    """Load a model written by :func:`save_svm_model`."""
    reader = _ContainerReader(path, _SVM_MAGIC)
    categories = reader.field("categories", json.loads)
    reader.check(isinstance(categories, list) and len(categories) > 1, "need a list of 2+ categories")
    C = reader.field("C", float)
    n_features = reader.count("n_features")
    standardized = reader.count("standardized")
    reader.check(standardized in (0, 1), "standardized must be 0 or 1")
    meta = reader.field("meta", json.loads)
    mean = scale = None
    if standardized:
        mean, scale = reader.rows(2, n_features)
    weights = reader.rows(1 if len(categories) == 2 else len(categories), n_features + 1)
    reader.end()
    return SvmModel(categories, C, weights, n_features, meta, feature_mean=mean, feature_scale=scale)
