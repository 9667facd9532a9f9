"""Bag-of-words features and a linear SVM trained by dual coordinate descent.

The solver minimizes the dual of the L2-regularized squared-hinge objective,
one seeded random coordinate sweep per epoch, with one-vs-rest reduction for
more than two categories.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, Vocabulary
from .representations import _fmt, _row_l2_normalize, count_matrix

__all__ = [
    "BOW_WEIGHTINGS",
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


def _dual_cd(K: np.ndarray, y: np.ndarray, C: float, rng, tol: float, max_epochs: int):
    """Coordinate descent on the squared-hinge dual over the Gram matrix ``K``.

    Dual objective: f(a) = 1/2 (||w||^2 + sum a_i^2 / (2C)) - sum a_i with
    w = sum_i a_i y_i x_i and a >= 0.  ``F = K @ (a * y)`` holds the margins
    x_i . w, so a coordinate step reads ``F[i]`` and, when ``a_i`` moves,
    updates ``F`` by one row of ``K``.  Each step minimizes f exactly along
    a_i, so f is non-increasing; the sweep stops once the largest
    projected-gradient violation in an epoch falls below ``tol``.  Returns
    the dual variables and every run record except the duality gap, which
    needs the primal weights.
    """
    n = K.shape[0]
    alpha = np.zeros(n)
    F = np.zeros(n)
    step = np.empty(n)
    diag = 1.0 / (2.0 * C)
    # Per-coordinate scalars as Python floats: indexing a list is cheaper
    # than indexing an array, and the arithmetic is the same.
    q_ii = (K.diagonal() + diag).tolist()
    y_list = y.tolist()
    objective: list[float] = []
    epochs = 0
    max_viol = np.inf
    for _ in range(max_epochs):
        epochs += 1
        max_viol = 0.0
        for i in rng.permutation(n).tolist():
            a_i = alpha[i]
            g = y_list[i] * F[i] - 1.0 + diag * a_i
            pg = min(g, 0.0) if a_i == 0.0 else g
            viol = abs(pg)
            if viol > max_viol:
                max_viol = viol
            if viol > 1e-12:
                new_alpha = max(a_i - g / q_ii[i], 0.0)
                np.multiply(K[i], (new_alpha - a_i) * y_list[i], out=step)
                F += step
                alpha[i] = new_alpha
        objective.append(0.5 * (alpha @ (y * F) + diag * (alpha @ alpha)) - alpha.sum())
        if max_viol < tol:
            break
    info = {
        "epochs": epochs,
        "dual_objective": [float(v) for v in objective],
        "final_violation": float(max_viol),
        "converged": bool(max_viol < tol),
    }
    return alpha, info


def train_linear_svm(
    X,
    y,
    C: float = 1.0,
    seed: int = 0,
    tol: float = 0.1,
    max_epochs: int = 1000,
    standardize: bool = False,
) -> SvmModel:
    """Train a linear SVM by dual coordinate descent (one-vs-rest multiclass).

    A constant feature is appended internally so the bias is learned jointly
    with the weights.  Coordinates are visited in a fresh seeded permutation
    each epoch, making training fully reproducible for a fixed seed.  No
    feature scaling happens by default; ``standardize=True`` applies a
    per-dimension training-fold standardization that the model replays at
    prediction time.  Features are held as one dense array, n * d * 8 bytes
    (sparse input is densified on entry), and the one-vs-rest machines share
    one dense Gram matrix of the training rows, n_train^2 * 8 bytes.
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
    # One n_train x n_train Gram matrix, shared by every machine.
    K = aug @ aug.T
    machines = categories[:1] if len(categories) == 2 else categories
    weights = np.zeros((len(machines), aug.shape[1]))
    label_arr = np.array(labels)
    seed_seq = np.random.SeedSequence(seed % (2**63))
    runs = []
    for m, (cat, child) in enumerate(zip(machines, seed_seq.spawn(len(machines)))):
        ybin = np.where(label_arr == cat, 1.0, -1.0)
        alpha, info = _dual_cd(K, ybin, C, np.random.default_rng(child), tol, max_epochs)
        w = aug.T @ (alpha * ybin)
        weights[m] = w
        hinge = np.maximum(1.0 - ybin * (aug @ w), 0.0)
        primal = 0.5 * (w @ w) + C * (hinge @ hinge)
        info["duality_gap"] = float(primal + info["dual_objective"][-1])
        info["category"] = cat
        if not info["converged"]:
            warnings.warn(
                f"linear SVM for category {cat!r} stopped unconverged after "
                f"{info['epochs']} epochs: final violation {info['final_violation']:.4g} "
                f">= tol {tol}",
                RuntimeWarning,
            )
        runs.append(info)
    meta = {"solver": "dual-cd", "seed": seed, "tol": tol, "runs": runs}
    return SvmModel(
        categories,
        float(C),
        weights,
        mat.shape[1],
        meta=meta,
        feature_mean=feature_mean,
        feature_scale=feature_scale,
    )


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


def save_svm_model(model: SvmModel, path) -> None:
    """Textual model container; weights at 17 significant digits (exact round-trip)."""
    standardized = model.feature_mean is not None
    lines = [
        "svm-model 1",
        "categories " + json.dumps(model.categories),
        "C " + _fmt(model.C),
        f"n_features {model.n_features}",
        f"standardized {int(standardized)}",
        "meta " + json.dumps(model.meta, sort_keys=True),
    ]
    if standardized:
        lines.append(" ".join(_fmt(v) for v in model.feature_mean))
        lines.append(" ".join(_fmt(v) for v in model.feature_scale))
    for row in model.weights:
        lines.append(" ".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_svm_model(path) -> SvmModel:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "svm-model 1":
        raise ValueError(f"{path}: not an svm model container")
    categories = json.loads(lines[1].split(" ", 1)[1])
    C = float(lines[2].split(" ", 1)[1])
    n_features = int(lines[3].split(" ", 1)[1])
    standardized = bool(int(lines[4].split(" ", 1)[1]))
    meta = json.loads(lines[5].split(" ", 1)[1])
    pos = 6
    feature_mean = feature_scale = None
    if standardized:
        # split() reads the empty lines of a zero-feature model as no values.
        feature_mean = np.array([float(v) for v in lines[pos].split()])
        feature_scale = np.array([float(v) for v in lines[pos + 1].split()])
        pos += 2
    rows = [np.array([float(v) for v in line.split(" ")]) for line in lines[pos:] if line]
    expected = 1 if len(categories) == 2 else len(categories)
    if len(rows) != expected:
        raise ValueError(f"{path}: expected {expected} weight rows, found {len(rows)}")
    return SvmModel(
        categories,
        C,
        np.vstack(rows),
        n_features,
        meta=meta,
        feature_mean=feature_mean,
        feature_scale=feature_scale,
    )
