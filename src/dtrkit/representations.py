"""Distributional term representations and document aggregation.

Builds one vector per vocabulary term from occurrence statistics (document
occurrence, term co-occurrence, subprofile association) and turns documents
into vectors by convex combination of their term vectors.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, Vocabulary, _check_one_of, _column_ids, _positive_int, _read_text, _seed
from .corpus import _check_utf8, _select

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
        _check_one_of("rep_kind", self.rep_kind, TERM_MATRIX_KINDS)
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
        elif len(self.feature_names) != self.dims:
            raise ValueError(
                f"{len(self.feature_names)} feature names for {self.dims} dimensions"
            )
        self._index = {t: i for i, t in enumerate(self.terms)}
        if len(self._index) != len(self.terms):
            raise ValueError(f"term {self.terms[_first_repeat(self.terms)]!r} is listed twice")

    @property
    def dims(self) -> int:
        return self.matrix.shape[1]

    def index_of(self, term: str) -> int:
        if term not in self._index:
            raise KeyError(f"unknown term {term!r}")
        return self._index[term]

    def row(self, term: str) -> np.ndarray:
        return self.matrix[self.index_of(term)]


def _first_repeat(labels: list[str]) -> int | None:
    """Position of the first label that repeats an earlier one, or None."""
    seen: set[str] = set()
    for i, label in enumerate(labels):
        if label in seen:
            return i
        seen.add(label)
    return None


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
    """Read-only sparse ``(len(corpus), len(vocab))`` matrix of raw in-vocabulary token counts.
    A fold side, whose columns are ``vocab.terms``, gives its own ``counts``, which every
    builder of the fold reads, and holds nothing new.  Any other corpus gets a new
    matrix on each call: one dict lookup per corpus term gives each column's
    vocabulary id (one int64 per term), and ``_select`` re-columns ``corpus.counts``
    by those ids."""
    if corpus.terms is vocab.terms:
        return corpus.counts
    return _select(corpus.counts, _column_ids(corpus.terms, vocab), len(vocab))


def _require_nonempty(train: Corpus, vocab: Vocabulary) -> None:
    if not train.docs:
        raise ValueError("training corpus is empty")
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")


def _idf(n, df: np.ndarray) -> np.ndarray:
    """``log(n / df)``, and 0 where ``df`` is 0."""
    return np.where(df > 0, np.log(n / np.maximum(df, 1.0)), 0.0)


def _log_idf(n: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Weigh the term x feature counts ``n`` in place: ``(1 + log n) * log(|V| / spread)``.

    Only the positive entries of ``n`` are rewritten; ``|V|`` is ``len(n)``
    and ``spread`` broadcasts against ``n`` (one value per column or per
    row).  A zero spread gives zero weight.
    """
    positive = n > 0
    np.log(n, out=n, where=positive)
    n += positive
    n *= _idf(len(n), spread)
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


_TCOR_BLOCK = 256  # rows of the co-occurrence counts per float32 product
_FLOAT32_EXACT = 2**24  # float32 holds every integer from 0 to this exactly


def build_tcor(train: Corpus, vocab: Vocabulary, idf_mode: str = "feature-term") -> TermMatrix:
    """Represent each term by its co-occurrence profile over the vocabulary.

    Entry (i, j) is ``(1 + log n_ij) * log(|V| / V_*)`` where ``n_ij`` counts
    documents containing both terms.  ``V_*`` counts the distinct vocabulary
    terms sharing at least one document with the feature term t_j
    (``feature-term`` mode, default) or with the represented term t_i
    (``row-term`` mode).  The diagonal is zero: a term is not its own context.

    The counts ``n_ij`` are float32 products of the 0/1 document x term
    matrix, taken 256 rows at a time into the float64 result.  Every partial
    sum is an integer no larger than the number of training documents, so
    the counts are exact up to 2**24 documents; more are refused with
    ``ValueError``.  Memory: the |V| x |V| float64 result, its |V| x |V|
    ``n > 0`` mask while it is weighed, the n_train x |V| float32 0/1 matrix
    and one 256 x |V| float32 block.
    """
    _check_one_of("idf_mode", idf_mode, TCOR_IDF_MODES)
    _require_nonempty(train, vocab)
    co = _cooccurrence_counts(count_matrix(train, vocab))
    np.fill_diagonal(co, 0.0)
    partners = np.count_nonzero(co, axis=1).astype(np.float64)  # symmetric: rows == columns
    spread = partners[np.newaxis, :] if idf_mode == "feature-term" else partners[:, np.newaxis]
    co = _log_idf(co, spread)
    return TermMatrix("TCOR", list(vocab.terms), co, feature_names=list(vocab.terms))


def _cooccurrence_counts(counts: sp.csr_matrix) -> np.ndarray:
    """The dense float64 |V| x |V| number of documents holding both terms;
    nearly every pair of terms shares some document."""
    if counts.shape[0] > _FLOAT32_EXACT:
        raise ValueError(
            f"co-occurrence counts are exact for at most {_FLOAT32_EXACT} documents, "
            f"got {counts.shape[0]}"
        )
    present = (counts > 0).astype(np.float32).toarray()
    co = np.empty((counts.shape[1], counts.shape[1]))
    for start in range(0, len(co), _TCOR_BLOCK):
        co[start : start + _TCOR_BLOCK] = present[:, start : start + _TCOR_BLOCK].T @ present
    return co


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


_KMEANS_RESTARTS = 20
_KMEANS_MAX_ITER = 100


def _kmeans(X: np.ndarray, k: int, rng) -> np.ndarray:
    """Seeded k-means with kmeans++ init; best inertia over restarts wins.

    kmeans++ draws restart by restart, exactly as one restart at a time
    would; then the Lloyd iterations of all restarts run as one batch, each
    restart leaving it once its labels repeat.  Cluster ids are canonicalized
    by first appearance so the labeling is stable.  Empty clusters are
    repaired by stealing the farthest point.
    """
    n, dims = X.shape
    if k <= 1:
        return np.zeros(n, dtype=np.int64)
    x_sq = np.einsum("ij,ij->i", X, X)
    # Distances to each drawn row come from one matrix-vector product: a column
    # of X @ X.T differs in the last bits and can flip the total > 0 test.
    to_row: dict[int, np.ndarray] = {}
    seeds = np.empty((_KMEANS_RESTARTS, k), dtype=np.intp)
    for r in range(_KMEANS_RESTARTS):
        for j in range(k):
            if j == 0 or not (total := nearest.sum()) > 0:
                i = int(rng.integers(n))
            else:  # the draw of rng.choice(n, p=nearest / total), without its checks
                cdf = (nearest / total).cumsum()
                i = int((cdf / cdf[-1]).searchsorted(rng.random(), side="right"))
            if i not in to_row:
                to_row[i] = np.maximum(x_sq - 2.0 * (X @ X[i]) + x_sq[i], 0.0)
            nearest = to_row[i] if j == 0 else np.minimum(nearest, to_row[i])
            seeds[r, j] = i

    centers = X[seeds]
    labels = np.full((_KMEANS_RESTARTS, n), -1, dtype=np.int64)
    inertia = np.empty(_KMEANS_RESTARTS)
    live = np.arange(_KMEANS_RESTARTS)
    for it in range(_KMEANS_MAX_ITER + 1):
        live_centers = centers[live]
        flat = live_centers.reshape(len(live) * k, dims)
        c_sq = np.einsum("ij,ij->i", flat, flat).reshape(len(live), 1, k)
        cross = X @ live_centers.transpose(0, 2, 1)
        d2 = np.maximum(x_sq[:, np.newaxis] - 2.0 * cross + c_sq, 0.0)
        # After the last iteration, the labels are scored as they stand.
        new = d2.argmin(axis=2) if it < _KMEANS_MAX_ITER else labels[live]
        for a in np.flatnonzero(~(new[:, :, np.newaxis] == np.arange(k)).any(axis=1).all(axis=1)):
            _repair_empty_clusters(new[a], d2[a], k)
        done = (new == labels[live]).all(axis=1)
        own = np.take_along_axis(d2[done], new[done][:, :, np.newaxis], axis=2)
        inertia[live[done]] = own[:, :, 0].sum(axis=1)
        live, new = live[~done], new[~done]
        if not live.size:
            break
        labels[live] = new
        # Per-cluster means, not a one-hot product: BLAS sums in another
        # order, which changes the labels on some inputs with duplicated rows.
        for row, r in zip(new, live):
            for j in range(k):
                centers[r, j] = X[row == j].mean(axis=0)
    best = 0
    for r in range(1, _KMEANS_RESTARTS):
        if inertia[r] < inertia[best] - 1e-12:
            best = r
    _, first, inverse = np.unique(labels[best], return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


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
    Deterministic for a fixed seed.  Memory: for a category of n documents,
    kmeans++ keeps the squared distances to each row it draws, one n-vector
    per distinct row shared by all 20 restarts: at most n² × 8 bytes (1.6 MB
    at 450 documents).
    """
    if not _positive_int(k_per_class):
        raise ValueError(f"k_per_class must be a positive integer, got {k_per_class!r}")
    rng = np.random.default_rng(_seed(seed))
    _require_nonempty(train, vocab)
    X = _row_l2_normalize(count_matrix(train, vocab)).toarray()
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
    scaled = (sp.diags(1.0 / np.maximum(train.lengths, 1)) @ counts).tocsr()
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


_AGG_BLOCK = 256  # documents per dense block of the aggregation weights


def aggregate_corpus(
    docs: Corpus, tm: TermMatrix, vocab: Vocabulary, weighting: str = "mean"
) -> np.ndarray:
    """Convex combination of each document's term vectors, one row per document.

    ``mean`` weighs each vocabulary term by its share of the document's
    in-vocabulary tokens; ``tf-weighted`` uses normalized ``1 + log(count)``
    weights.  Out-of-vocabulary tokens are skipped; a document with no
    in-vocabulary tokens maps to the zero vector (with a warning).  The
    row-stochastic weights are multiplied by ``tm.matrix`` in dense blocks of
    256 documents, so besides the result the product holds one
    256 x ``len(vocab)`` float64 block.
    """
    _check_one_of("weighting", weighting, AGG_WEIGHTINGS)
    if list(tm.terms) != list(vocab.terms):
        raise ValueError("term matrix was built on a different vocabulary")
    counts = count_matrix(docs, vocab)  # shared and read-only
    data = counts.data if weighting == "mean" else 1.0 + np.log(counts.data)
    weights = sp.csr_matrix((data, counts.indices, counts.indptr), shape=counts.shape)
    totals = np.asarray(weights.sum(axis=1)).ravel()
    for i in np.flatnonzero(totals == 0):
        author = docs.docs[i].author_id
        warnings.warn(f"document {author!r} has no in-vocabulary tokens; zero vector")
    weights.data = data / np.repeat(totals, np.diff(counts.indptr))
    out = np.empty((len(docs), tm.dims))
    for start in range(0, len(docs), _AGG_BLOCK):
        block = slice(start, start + _AGG_BLOCK)
        out[block] = weights[block].toarray() @ tm.matrix
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_TERM_MATRIX_MAGIC = "dtr-term-matrix 1"


# 17 significant digits: every float64 reads back as the same bits.
_FLOAT_SPEC = ".17g"


def _fmt(value: float) -> str:
    return format(float(value), _FLOAT_SPEC)


@functools.lru_cache(maxsize=16)
def _row_format(width: int) -> str:
    """The ``%`` template of a row of ``width`` values written as by
    :func:`_fmt`: ``"%.17g" % x`` and ``format(x, ".17g")`` print a float
    through the same C routine, so the text is the same."""
    return " ".join(["%" + _FLOAT_SPEC] * width)


def _fmt_row(row) -> str:
    """Space-separated values at 17 significant digits, which read back
    exactly.  Only this row's values become Python objects."""
    values = np.asarray(row).tolist()
    return _row_format(len(values)) % tuple(values)


def _parse_row(fields: list[str], where: str) -> list[float]:
    """The numbers of one row; ``where`` (``file:line``) prefixes the error
    raised for a value that is not a number or not finite."""
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ValueError(f"{where}: non-numeric value in {' '.join(fields)!r}") from None
    if not all(map(math.isfinite, values)):
        bad = next(f for f, v in zip(fields, values) if not math.isfinite(v))
        raise ValueError(f"{where}: non-finite value {bad!r}")
    return values


def _write_container(path, magic: str, header: dict, labels: list[str], rows) -> None:
    """Write the text container that term matrices and SVM models share: the
    ``magic`` line, one ``key value`` line per header field, one line per
    label, then one :func:`_fmt_row` line per row.  A label that would span
    lines or that UTF-8 cannot encode, or a row holding NaN or infinity, is
    refused before the file is created.  ``rows`` is read twice, to check
    and to write; the text is written a row at a time, so one row of it is
    held in memory."""
    for label in labels:
        if "".join(label.splitlines()) != label:
            raise ValueError(f"label {label!r} contains a line break")
    _check_utf8(labels, lambda i: f"label {labels[i]!r}")
    for i, row in enumerate(rows):
        if not np.isfinite(row).all():
            raise ValueError(f"row {i} holds a non-finite value")
    with open(path, "w", encoding="utf-8") as fh:
        for line in [magic, *(f"{key} {value}" for key, value in header.items()), *labels]:
            fh.write(line + "\n")
        for row in rows:
            fh.write(_fmt_row(row) + "\n")


class _ContainerReader:
    """Reads a :func:`_write_container` file front to back: header fields by
    name, then labels and rows by count and width, then :meth:`end`.  Every
    malformed, missing or extra line raises ``ValueError`` naming the file
    and the line."""

    def __init__(self, path, magic: str) -> None:
        self.lines = _read_text(path).splitlines()
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
    digits, so that :func:`load_term_matrix` reads it back exactly.  The
    text is written a row at a time; one row of it is held in memory."""
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
    kind = reader.field("kind", lambda value: _check_one_of("kind", value, TERM_MATRIX_KINDS))
    n_terms, dims, n_features = (reader.count(key) for key in ("terms", "dims", "features"))
    reader.check(n_features in (0, dims), f"'features' must be 0 or 'dims' ({dims})")
    meta = reader.field("meta", json.loads)
    terms = reader.labels(n_terms)
    repeat = _first_repeat(terms)
    if repeat is not None:
        line = reader.pos - n_terms + repeat + 1
        raise ValueError(f"{path}:{line}: term {terms[repeat]!r} is listed twice")
    features = reader.labels(n_features)
    matrix = reader.rows(n_terms, dims)
    reader.end()
    return TermMatrix(kind, terms, matrix, feature_names=features, meta=meta)
