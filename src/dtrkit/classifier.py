"""Bag-of-words features and a linear SVM solved exactly by block principal pivoting.

The solver finds the unique optimum of the dual of the L2-regularized
squared-hinge objective by a few linear solves on its free set, with
one-vs-rest reduction for more than two categories.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, Vocabulary, _check_one_of, _finite_real, _positive_int
from .representations import _idf, _row_l2_normalize, count_matrix

__all__ = [
    "BOW_WEIGHTINGS",
    "ConvergenceWarning",
    "SvmModel",
    "compute_idf",
    "build_bow_matrix",
    "train_linear_svm",
    "decision_function",
    "predict",
]

BOW_WEIGHTINGS = ("tf", "boolean", "tfidf")


def compute_idf(train: Corpus, vocab: Vocabulary) -> np.ndarray:
    """Natural-log inverse document frequency from a training corpus."""
    if not train.docs:
        raise ValueError("cannot compute idf from an empty corpus")
    df = count_matrix(train, vocab).getnnz(axis=0).astype(np.float64)
    return _idf(len(train), df)


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
    _check_one_of("weighting", weighting, BOW_WEIGHTINGS)
    if weighting == "tfidf":
        if idf is None:
            raise ValueError("tfidf weighting requires idf computed on the training fold")
        return _row_l2_normalize(count_matrix(docs, vocab).multiply(idf[np.newaxis, :]).tocsr())
    mat = count_matrix(docs, vocab).copy()  # the shared count matrix is read-only
    if weighting == "boolean":
        mat.data[:] = 1.0
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


def _refine(aug: np.ndarray, rows, solve, lam: float, y: np.ndarray, b: np.ndarray):
    """One step of iterative refinement of ``G b = y``, ``G = A A' + lam I`` with
    ``A = aug[rows]`` and ``solve(r) = G^-1 r``, that also refines the primal
    weights ``w = A' b``.  ``y`` and ``b`` may hold one column per machine.

    When ``lam`` is small and many rows are support vectors, ``b`` is large
    and ``A' b`` cancels to a small ``w``, so a refined ``b`` still carries
    its rounding into ``w``.  The residual is therefore taken against the
    computed ``w``, ``y - A w - lam b``, and its correction ``c`` is added to
    both: ``b + c`` and ``w + A' c``.  ``A`` itself is never copied out of
    ``aug``.
    """

    def primal(v: np.ndarray) -> np.ndarray:
        full = np.zeros((len(aug),) + v.shape[1:])
        full[rows] = v
        return aug.T @ full

    w = primal(b)
    c = solve(y - (aug @ w)[rows] - lam * b)
    return b + c, w + primal(c)


def _bpp(
    G: np.ndarray,
    aug: np.ndarray,
    lam: float,
    y: np.ndarray,
    alpha: np.ndarray,
    w: np.ndarray,
    tol: float,
    max_epochs: int,
):
    """Block principal pivoting on the squared-hinge dual, ``G = K + I/(2C)``.

    Dual: min 1/2 a'Qa - sum a over a >= 0, Q = D G D, D = diag(y), where
    ``K = aug aug'`` and ``lam = 1/(2C)``.  Each iteration solves
    Q_FF a_F = 1 on the free set F (a = 0 off it), that is G_FF b = y_F with
    a_F = y_F b as D^2 = I; ``alpha`` is the solution with every index free
    and ``w`` its primal weights.  Every KKT violator (free with a_i < 0,
    bound with gradient < 0) then changes sides; once their count has not
    fallen for 3 iterations, only the one with the largest index does
    (Murty's rule), which makes the method finite as Q is positive definite
    (Kim & Park 2011).  It also stops at a feasible iterate whose violation
    is below ``tol``.  When it pivoted, its last solve gets one step of
    refinement that also gives the primal weights (see :func:`_refine`), as
    ``alpha`` and ``w`` did.  Returns the dual variables, the primal weights
    and the run record without the duality gap.
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
        G_FF = G[idx][:, idx]
        b = np.linalg.solve(G_FF, y[idx])
        alpha = np.zeros(len(y))
        alpha[idx] = y[idx] * b
        epochs += 1
    if epochs > 1:
        b, w = _refine(aug, idx, lambda r: np.linalg.solve(G_FF, r), lam, y[idx], b)
        alpha[idx] = y[idx] * b
    if (alpha < 0.0).any():
        alpha = np.maximum(alpha, 0.0)
        w = aug.T @ (alpha * y)
    grad = y * (G @ (alpha * y)) - 1.0
    viol = float(np.where(alpha > 0.0, np.abs(grad), np.maximum(-grad, 0.0)).max())
    info = {
        "epochs": epochs,
        "dual_objective": float(0.5 * (alpha @ grad - alpha.sum())),
        "final_violation": viol,
        "converged": bool(viol < tol),
    }
    return alpha, w, info


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
    (sparse input is densified on entry), their bias-augmented copy from
    ``np.hstack``, n * (d + 1) * 8 bytes, one more n * d copy with
    ``standardize``, and one Gram matrix of the training rows shared by all
    machines, n_train^2 * 8 bytes, plus one copy of its free-set block while
    that is solved.
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
    if not (_finite_real(C) and C > 0):
        raise ValueError(f"C must be a finite positive number, got {C!r}")
    if not (_finite_real(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    if not _positive_int(max_epochs):
        raise ValueError(f"max_epochs must be a positive integer, got {max_epochs!r}")
    feature_mean = feature_scale = None
    if standardize:
        feature_mean = mat.mean(axis=0)
        std = mat.std(axis=0)
        feature_scale = np.where(std > 0, std, 1.0)
        mat = (mat - feature_mean) / feature_scale
    aug = np.hstack([mat, np.ones((mat.shape[0], 1))])
    # One n_train x n_train Gram matrix, shared by every machine, with the
    # dual's I/(2C) term added in place.
    lam = 1.0 / (2.0 * C)
    G = aug @ aug.T
    G.flat[:: len(G) + 1] += lam
    machines = categories[:1] if len(categories) == 2 else categories
    ys = np.where(np.array(labels) == np.array(machines)[:, np.newaxis], 1.0, -1.0)
    # Every machine starts with all points free: one solve, one column per
    # machine, and one step of refinement for all of them (see _refine).
    starts, start_w = _refine(
        aug, slice(None), lambda r: np.linalg.solve(G, r), lam, ys.T, np.linalg.solve(G, ys.T)
    )
    starts = ys * starts.T
    weights = np.zeros((len(machines), aug.shape[1]))
    runs = []
    for m, (cat, ybin) in enumerate(zip(machines, ys)):
        alpha, w, info = _bpp(G, aug, lam, ybin, starts[m], start_w[:, m], tol, max_epochs)
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

