"""Distributional term representations and document aggregation.

Builds one vector per vocabulary term from occurrence statistics (document
occurrence, term co-occurrence, subprofile association) and turns documents
into vectors by convex combination of their term vectors.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, Vocabulary

__all__ = [
    "TERM_MATRIX_KINDS",
    "TermMatrix",
    "SubprofileAssignment",
    "count_matrix",
    "build_dor",
    "build_tcor",
    "cluster_subprofiles",
    "build_ssr",
    "aggregate_corpus",
    "save_term_matrix",
    "load_term_matrix",
]

TERM_MATRIX_KINDS = ("DOR", "TCOR", "SSR", "EMBEDDING")

AGG_WEIGHTINGS = ("mean", "tf-weighted")

TCOR_IDF_MODES = ("feature-term", "row-term")


@dataclass
class TermMatrix:
    """One row vector per vocabulary term.

    ``matrix`` is a dense float64 array of shape ``(len(terms), dims)``.
    ``feature_names`` labels the columns: author ids for document
    occurrence, terms for co-occurrence, ``"category/cluster"`` for
    subprofiles, absent for embeddings.
    """

    rep_kind: str
    terms: list[str]
    matrix: np.ndarray
    feature_names: list[str] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rep_kind not in TERM_MATRIX_KINDS:
            raise ValueError(
                f"rep_kind must be one of {TERM_MATRIX_KINDS}, got {self.rep_kind!r}"
            )
        if not isinstance(self.matrix, np.ndarray) or self.matrix.ndim != 2:
            raise ValueError(f"matrix must be a 2-D numpy array, got {type(self.matrix).__name__}")
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.shape[0] != len(self.terms):
            raise ValueError(
                f"matrix has {self.matrix.shape[0]} rows for {len(self.terms)} terms"
            )
        if not self.feature_names:
            # An empty list labels nothing; the text container stores it as None.
            self.feature_names = None
        self._index = {t: i for i, t in enumerate(self.terms)}

    @property
    def dims(self) -> int:
        return self.matrix.shape[1]

    def index_of(self, term: str) -> int:
        if term not in self._index:
            raise KeyError(f"unknown term {term!r}")
        return self._index[term]

    def row(self, term: str) -> np.ndarray:
        return self.matrix[self.index_of(term)]


@dataclass
class SubprofileAssignment:
    """Mapping from training authors to within-category subclasses."""

    task: str
    mapping: dict[str, int]
    subclass_labels: list[str]

    @property
    def n_subclasses(self) -> int:
        return len(self.subclass_labels)


def count_matrix(corpus: Corpus, vocab: Vocabulary) -> sp.csr_matrix:
    """Sparse ``(len(corpus), len(vocab))`` matrix of raw in-vocabulary token counts.

    The columns of ``corpus.counts`` whose terms are in ``vocab`` (which may
    come from any corpus), relabelled with vocabulary ids.
    """
    ids = np.array([vocab.index.get(t, -1) for t in corpus.terms], dtype=np.int64)
    present = np.flatnonzero(ids >= 0)
    sel = corpus.counts[:, present]
    mat = sp.csr_matrix(
        (sel.data, ids[present][sel.indices], sel.indptr), shape=(len(corpus), len(vocab))
    )
    mat.sort_indices()
    return mat


def _require_nonempty(train: Corpus, vocab: Vocabulary) -> None:
    if not train.docs:
        raise ValueError("training corpus is empty")
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")


def _log_idf(n: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Weigh the term x feature counts ``n`` in place: ``(1 + log n) * log(|V| / spread)``.

    Only the positive entries of ``n`` are rewritten; ``|V|`` is ``len(n)``
    and ``spread`` broadcasts against ``n`` (one value per column or per
    row).  A zero spread gives zero weight.
    """
    idf = np.where(spread > 0, np.log(len(n) / np.maximum(spread, 1.0)), 0.0)
    positive = n > 0
    n[positive] = 1.0 + np.log(n[positive])
    n *= idf
    return n


def build_dor(train: Corpus, vocab: Vocabulary) -> TermMatrix:
    """Represent each term by its weighted occurrence profile over documents.

    Entry (i, j) is ``(1 + log c_ij) * log(|V| / N_j)`` when term i occurs
    ``c_ij > 0`` times in document j, and 0 otherwise; ``N_j`` counts the
    distinct vocabulary terms in document j.  A document containing no
    vocabulary terms yields an all-zero column and a warning.
    """
    _require_nonempty(train, vocab)
    counts = count_matrix(train, vocab)
    distinct = counts.getnnz(axis=1).astype(np.float64)
    empty = np.flatnonzero(distinct == 0)
    if empty.size:
        names = [train.docs[i].author_id for i in empty]
        warnings.warn(f"documents without vocabulary terms get all-zero columns: {names}")
    matrix = _log_idf(counts.T.toarray(), distinct[np.newaxis, :])
    return TermMatrix(
        "DOR",
        list(vocab.terms),
        matrix,
        feature_names=[doc.author_id for doc in train.docs],
    )


def build_tcor(train: Corpus, vocab: Vocabulary, idf_mode: str = "feature-term") -> TermMatrix:
    """Represent each term by its co-occurrence profile over the vocabulary.

    Entry (i, j) is ``(1 + log n_ij) * log(|V| / V_*)`` where ``n_ij`` counts
    documents containing both terms.  ``V_*`` counts the distinct vocabulary
    terms sharing at least one document with the feature term t_j
    (``feature-term`` mode, default) or with the represented term t_i
    (``row-term`` mode).  The diagonal is zero: a term is not its own context.
    """
    if idf_mode not in TCOR_IDF_MODES:
        raise ValueError(f"idf_mode must be one of {TCOR_IDF_MODES}, got {idf_mode!r}")
    _require_nonempty(train, vocab)
    binary = count_matrix(train, vocab)
    binary.data = np.ones_like(binary.data)
    # Nearly every pair of terms shares some document, so the matrix is
    # stored dense; a dense BLAS product of 0/1 counts is exact.
    bd = binary.toarray()
    co = bd.T @ bd
    np.fill_diagonal(co, 0.0)
    partners = np.count_nonzero(co, axis=1).astype(np.float64)  # symmetric: rows == columns
    spread = partners[np.newaxis, :] if idf_mode == "feature-term" else partners[:, np.newaxis]
    co = _log_idf(co, spread)
    return TermMatrix("TCOR", list(vocab.terms), co, feature_names=list(vocab.terms))


# ---------------------------------------------------------------------------
# Subprofile clustering and the subprofile-association representation
# ---------------------------------------------------------------------------


def _row_l2_normalize(X: sp.csr_matrix) -> sp.csr_matrix:
    """Rows of ``X`` scaled to unit L2 norm; all-zero rows stay zero."""
    sq = X.copy()
    sq.data = sq.data**2
    norms = np.sqrt(np.asarray(sq.sum(axis=1)).ravel())
    inv = np.where(norms > 0, 1.0 / np.maximum(norms, 1e-300), 0.0)
    return (sp.diags(inv) @ X).tocsr()


def _sq_distances(X: np.ndarray, centers: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    cross = X @ centers.T
    c_sq = np.einsum("ij,ij->i", centers, centers)
    return np.maximum(x_sq[:, np.newaxis] - 2.0 * cross + c_sq[np.newaxis, :], 0.0)


def _kmeanspp_init(X, k, rng, x_sq) -> np.ndarray:
    n = X.shape[0]
    centers = np.zeros((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = _sq_distances(X, centers[:1], x_sq)[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            nxt = int(rng.integers(n))
        centers[j] = X[nxt]
        d2 = np.minimum(d2, _sq_distances(X, centers[j : j + 1], x_sq)[:, 0])
    return centers


def _repair_empty_clusters(labels: np.ndarray, d2: np.ndarray, k: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=k)
    own = d2[np.arange(labels.size), labels]
    for j in range(k):
        if counts[j] == 0:
            movable = counts[labels] > 1
            scores = np.where(movable, own, -np.inf)
            i = int(np.argmax(scores))
            counts[labels[i]] -= 1
            labels[i] = j
            counts[j] = 1
    return labels


def _lloyd(X, centers, x_sq, max_iter) -> tuple[np.ndarray, float]:
    n, k = X.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = _sq_distances(X, centers, x_sq)
        new_labels = _repair_empty_clusters(d2.argmin(axis=1), d2, k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = X[labels == j].mean(axis=0)
    inertia = float(_sq_distances(X, centers, x_sq)[np.arange(n), labels].sum())
    return labels, inertia


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    remap: dict[int, int] = {}
    out = np.empty_like(labels)
    for i, lab in enumerate(labels):
        if int(lab) not in remap:
            remap[int(lab)] = len(remap)
        out[i] = remap[int(lab)]
    return out


_KMEANS_RESTARTS = 20
_KMEANS_MAX_ITER = 100


def _kmeans(X: np.ndarray, k: int, rng) -> np.ndarray:
    """Seeded k-means with kmeans++ init; best inertia over restarts wins.

    Cluster ids are canonicalized by first appearance so the labeling is
    stable.  Empty clusters are repaired by stealing the farthest point.
    """
    if k <= 1:
        return np.zeros(X.shape[0], dtype=np.int64)
    x_sq = np.einsum("ij,ij->i", X, X)
    best_labels: np.ndarray | None = None
    best_inertia = np.inf
    for _ in range(_KMEANS_RESTARTS):
        centers = _kmeanspp_init(X, k, rng, x_sq)
        labels, inertia = _lloyd(X, centers, x_sq, _KMEANS_MAX_ITER)
        if best_labels is None or inertia < best_inertia - 1e-12:
            best_labels, best_inertia = labels, inertia
    return _canonical_labels(best_labels)


def cluster_subprofiles(
    train: Corpus,
    task: str,
    vocab: Vocabulary,
    k_per_class: int = 3,
    seed: int = 0,
) -> SubprofileAssignment:
    """Split each category of ``task`` into k-means subclasses of its documents.

    Clustering runs within each category on L2-normalized term-frequency
    vectors over ``vocab``; the cluster count is capped by category size.
    Deterministic for a fixed seed.
    """
    if k_per_class < 1:
        raise ValueError("k_per_class must be a positive integer")
    _require_nonempty(train, vocab)
    X = _row_l2_normalize(count_matrix(train, vocab)).toarray()
    rng = np.random.default_rng(seed % (2**63))
    mapping: dict[str, int] = {}
    labels: list[str] = []
    for cat in train.categories(task):
        idx = [i for i, doc in enumerate(train.docs) if doc.labels[task] == cat]
        k = min(k_per_class, len(idx))
        assign = _kmeans(X[idx], k, rng)
        base = len(labels)
        labels.extend(f"{cat}/{j}" for j in range(k))
        for pos, i in enumerate(idx):
            mapping[train.docs[i].author_id] = base + int(assign[pos])
    return SubprofileAssignment(task=task, mapping=mapping, subclass_labels=labels)


def _raw_subclass_weights(
    train: Corpus, vocab: Vocabulary, assignment: SubprofileAssignment
) -> np.ndarray:
    """Raw association mass: per subclass, sum of log2(1 + count/doc_length)."""
    indicator = np.zeros((len(train.docs), assignment.n_subclasses))
    for i, doc in enumerate(train.docs):
        sub = assignment.mapping.get(doc.author_id)
        if sub is None:
            raise ValueError(f"assignment does not cover author {doc.author_id!r}")
        indicator[i, sub] = 1.0
    counts = count_matrix(train, vocab)
    lengths = np.array([max(len(doc.tokens), 1) for doc in train.docs], dtype=np.float64)
    scaled = (sp.diags(1.0 / lengths) @ counts).tocsr()
    scaled.data = np.log2(1.0 + scaled.data)
    # Column-major, so numpy sums each subclass's column over the |V| terms
    # pairwise, which is more accurate than a running sum row by row.
    return np.asfortranarray(scaled.T @ indicator)


def _normalize_ssr(raw: np.ndarray, subclass_labels: list[str]) -> np.ndarray:
    col_mass = raw.sum(axis=0)
    dead = np.flatnonzero(col_mass <= 0)
    if dead.size:
        names = [subclass_labels[j] for j in dead]
        raise ValueError(f"subclasses with zero total weight: {names}")
    per_class = raw / col_mass[np.newaxis, :]
    row_mass = per_class.sum(axis=1)
    out = np.zeros_like(per_class)
    supported = row_mass > 0
    out[supported] = per_class[supported] / row_mass[supported, np.newaxis]
    return out


def build_ssr(
    train: Corpus, vocab: Vocabulary, assignment: SubprofileAssignment
) -> TermMatrix:
    """Associate each term with a probability distribution over subprofiles.

    Raw per-subclass masses are normalized per subclass (each column sums to
    one) and then per term (each supported row sums to one), so a supported
    row is a distribution over the subprofiles; terms without support stay
    all-zero.
    """
    _require_nonempty(train, vocab)
    raw = _raw_subclass_weights(train, vocab, assignment)
    matrix = _normalize_ssr(raw, assignment.subclass_labels)
    return TermMatrix(
        "SSR", list(vocab.terms), matrix, feature_names=list(assignment.subclass_labels)
    )


# ---------------------------------------------------------------------------
# Document aggregation
# ---------------------------------------------------------------------------


def aggregate_corpus(
    docs: Corpus, tm: TermMatrix, vocab: Vocabulary, weighting: str = "mean"
) -> np.ndarray:
    """Convex combination of each document's term vectors, one row per document.

    ``mean`` weighs each vocabulary term by its share of the document's
    in-vocabulary tokens; ``tf-weighted`` uses normalized ``1 + log(count)``
    weights.  Out-of-vocabulary tokens are skipped; a document with no
    in-vocabulary tokens maps to the zero vector (with a warning).
    """
    if weighting not in AGG_WEIGHTINGS:
        raise ValueError(f"weighting must be one of {AGG_WEIGHTINGS}, got {weighting!r}")
    if list(tm.terms) != list(vocab.terms):
        raise ValueError("term matrix was built on a different vocabulary")
    weights = count_matrix(docs, vocab)
    if weighting == "tf-weighted":
        weights.data = 1.0 + np.log(weights.data)
    totals = np.asarray(weights.sum(axis=1)).ravel()
    for i in np.flatnonzero(totals == 0):
        author = docs.docs[i].author_id
        warnings.warn(f"document {author!r} has no in-vocabulary tokens; zero vector")
    weights.data /= np.repeat(totals, np.diff(weights.indptr))
    return weights @ tm.matrix


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_TERM_MATRIX_MAGIC = "dtr-term-matrix 1"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# Config checks shared by every config object: JSON gives ints, floats and
# bools, and a bool is an int to Python.
def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _positive_int(value) -> bool:
    return _integer(value) and value > 0


def _finite_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _fmt_row(row) -> str:
    """Space-separated values at 17 significant digits, which read back exactly."""
    return " ".join(_fmt(v) for v in row)


def _parse_row(fields: list[str], where: str) -> list[float]:
    try:
        return [float(v) for v in fields]
    except ValueError:
        raise ValueError(f"{where}: non-numeric value in {' '.join(fields)!r}") from None


def _write_container(path, magic: str, header: dict, labels: list[str], rows) -> None:
    """Write the text container that term matrices and SVM models share: the
    ``magic`` line, one ``key value`` line per header field, one line per
    label, then one :func:`_fmt_row` line per row.  A label that would span
    lines is refused before the file is created."""
    for label in labels:
        if "".join(label.splitlines()) != label:
            raise ValueError(f"label {label!r} contains a line break")
    lines = [magic, *(f"{key} {value}" for key, value in header.items()), *labels]
    lines.extend(_fmt_row(row) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _ContainerReader:
    """Reads a :func:`_write_container` file front to back: header fields by
    name, then labels and rows by count and width, then :meth:`end`.  Every
    malformed, missing or extra line raises ``ValueError`` naming the file
    and the line."""

    def __init__(self, path, magic: str) -> None:
        data = Path(path).read_bytes()
        try:
            self.lines = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            line = data[: exc.start].count(b"\n") + 1
            raise ValueError(f"{path}:{line}: not UTF-8 text") from None
        self.path, self.pos = path, 0  # pos: number of the line last read
        self.check(self._next("the first line") == magic, f"first line is not {magic!r}")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            raise ValueError(f"{self.path}:{self.pos}: {message}")

    def _next(self, what: str) -> str:
        self.pos += 1
        self.check(self.pos <= len(self.lines), f"file ends where {what} was expected")
        return self.lines[self.pos - 1]

    def field(self, key: str, parse=str):
        """Header field ``key``, converted by ``parse``."""
        name, _, value = self._next(f"header field {key!r}").partition(" ")
        self.check(name == key, f"expected header field {key!r}, found {name!r}")
        try:
            return parse(value)
        except ValueError as exc:
            raise ValueError(f"{self.path}:{self.pos}: bad {key!r} value: {exc}") from None

    def count(self, key: str) -> int:
        value = self.field(key, int)
        self.check(value >= 0, f"{key!r} must not be negative")
        return value

    def labels(self, n: int) -> list[str]:
        return [self._next("a label") for _ in range(n)]

    def rows(self, n: int, width: int) -> np.ndarray:
        values = []
        for _ in range(n):
            line = self._next(f"a row of {width} values")
            fields = line.split(" ") if line else []
            self.check(len(fields) == width, f"row has {len(fields)} values, expected {width}")
            values.append(_parse_row(fields, f"{self.path}:{self.pos}"))
        return np.array(values, dtype=np.float64).reshape(n, width)

    def end(self) -> None:
        self.pos += 1
        self.check(self.pos > len(self.lines), "unexpected line after the last row")


def save_term_matrix(tm: TermMatrix, path) -> None:
    """Write a term matrix as text, one row per term at 17 significant
    digits, so that :func:`load_term_matrix` reads it back exactly."""
    features = tm.feature_names or []
    header = {
        "kind": tm.rep_kind,
        "terms": len(tm.terms),
        "dims": tm.dims,
        "features": len(features),
        "meta": json.dumps(tm.meta, sort_keys=True),
    }
    _write_container(path, _TERM_MATRIX_MAGIC, header, [*tm.terms, *features], tm.matrix)


def load_term_matrix(path) -> TermMatrix:
    """Load a term matrix written by :func:`save_term_matrix`."""
    reader = _ContainerReader(path, _TERM_MATRIX_MAGIC)
    kind = reader.field("kind")
    reader.check(kind in TERM_MATRIX_KINDS, f"kind must be one of {TERM_MATRIX_KINDS}")
    n_terms, dims, n_features = (reader.count(key) for key in ("terms", "dims", "features"))
    meta = reader.field("meta", json.loads)
    terms, features = reader.labels(n_terms), reader.labels(n_features)
    matrix = reader.rows(n_terms, dims)
    reader.end()
    return TermMatrix(kind, terms, matrix, feature_names=features, meta=meta)
