"""Cross-validated evaluation with leakage-safe per-fold features, paired
significance testing, collection characteristics, and interpretability
reports."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import classifier, embeddings, representations
from .corpus import DEFAULT_MAX_TERMS, Corpus, _ranked_vocabulary
from .corpus import _check_one_of, _finite_real, _integer, _positive_int, _seed
from .stopwords import default_stopwords

__all__ = [
    "REP_KINDS",
    "CHARACTERISTICS",
    "RepConfig",
    "ClfConfig",
    "FoldResult",
    "EvalReport",
    "WilcoxonResult",
    "CollectionStats",
    "stratified_kfold",
    "cross_validate",
    "attach_significance",
    "accuracy",
    "wilcoxon_signed_rank",
    "collection_stats",
    "pearson",
    "correlation_map",
    "correlation_map_to_csv",
    "top_terms_tfidf",
    "information_gain",
    "report_to_json",
    "reports_to_accuracy_csv",
]

REP_KINDS = ("bow", "dor", "tcor", "ssr", "w2v-train", "w2v-pretrained")

CHARACTERISTICS = ("ttr", "ld", "sx", "shortness", "imbalance", "hardness")

# Defaults of the evaluation, which ``dtrkit run`` and ``top-terms`` also read.
DEFAULT_FOLDS = 10
DEFAULT_ALPHA = 0.05
DEFAULT_TOP_TERMS = 10  # terms listed per author by top_terms_tfidf


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class RepConfig:
    """Representation to build per fold, with its knobs.  ``embedding``
    configures ``w2v-train``, which :func:`cross_validate` trains with each
    fold's seed."""

    kind: str = "bow"
    max_terms: int = DEFAULT_MAX_TERMS
    weighting: str = "mean"  # term-vector aggregation for the DTR kinds
    k_per_class: int = 3  # ssr subprofiles per category
    tcor_idf: str = "feature-term"
    embedding: embeddings.EmbeddingConfig | None = None
    pretrained_path: str | None = None
    rep_id: str | None = None

    def __post_init__(self) -> None:
        for name in ("rep_id", "pretrained_path"):
            value = getattr(self, name)
            if not (value is None or isinstance(value, str)):
                raise ValueError(f"{name} must be a string or null, got {value!r}")
        _check_one_of("representation kind", self.kind, REP_KINDS)
        if self.kind == "w2v-pretrained" and not self.pretrained_path:
            raise ValueError("w2v-pretrained requires pretrained_path")
        if not (self.max_terms is None or _positive_int(self.max_terms)):
            raise ValueError(f"max_terms must be a positive integer or null, got {self.max_terms!r}")
        if not _positive_int(self.k_per_class):
            raise ValueError(f"k_per_class must be a positive integer, got {self.k_per_class!r}")
        _check_one_of("weighting", self.weighting, representations.AGG_WEIGHTINGS)
        _check_one_of("tcor_idf", self.tcor_idf, representations.TCOR_IDF_MODES)

    @property
    def id(self) -> str:
        return self.rep_id or self.kind


@dataclass
class ClfConfig:
    C: float = 1.0
    bow_weighting: str = "tf"
    standardize: bool = False  # per-dimension training-fold standardization

    def __post_init__(self) -> None:
        if not (_finite_real(self.C) and self.C > 0):
            raise ValueError(f"C must be a finite positive number, got {self.C!r}")
        _check_one_of("bow_weighting", self.bow_weighting, classifier.BOW_WEIGHTINGS)
        if not isinstance(self.standardize, bool):
            raise ValueError(f"standardize must be true or false, got {self.standardize!r}")


# ---------------------------------------------------------------------------
# Folds, accuracy, reports
# ---------------------------------------------------------------------------


def stratified_kfold(labels, k: int = DEFAULT_FOLDS, seed: int = 0) -> list[list[int]]:
    """Disjoint test-index folds with per-category counts differing by <= 1.

    Categories smaller than ``k`` are spread round-robin (some folds simply
    get none of them).  Deterministic for a fixed seed.
    """
    labels = [str(lab) for lab in labels]
    n = len(labels)
    if not _integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(_seed(seed))
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for cat in sorted(set(labels)):
        idx = np.array([i for i, lab in enumerate(labels) if lab == cat], dtype=np.int64)
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            folds[(offset + j) % k].append(int(i))
        offset = (offset + len(idx)) % k
    return [sorted(fold) for fold in folds]


def accuracy(pred, truth) -> float:
    """Fraction of exact matches between two equal-length label sequences."""
    pred = list(pred)
    truth = list(truth)
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs {len(truth)} truths")
    if not pred:
        raise ValueError("cannot score empty label lists")
    return sum(p == t for p, t in zip(pred, truth)) / len(pred)


@dataclass
class FoldResult:
    fold: int
    predictions: dict[str, str]
    accuracy: float
    rep_dims: int


@dataclass
class EvalReport:
    rep_id: str
    task: str
    k: int
    seed: int
    folds: list[FoldResult]
    mean_accuracy: float
    significance: dict[str, "WilcoxonResult"] = field(default_factory=dict)
    corpus_name: str | None = None

    def fold_accuracies(self) -> list[float]:
        return [f.accuracy for f in self.folds]

    def to_dict(self) -> dict:
        return {
            "representation": self.rep_id,
            "task": self.task,
            "k": self.k,
            "seed": self.seed,
            "corpus": self.corpus_name,
            "mean_accuracy": self.mean_accuracy,
            "folds": [dataclasses.asdict(f) for f in self.folds],
            "significance": {
                name: dataclasses.asdict(res) for name, res in self.significance.items()
            },
        }


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _csv_table(rows) -> str:
    """``rows`` as CSV text (RFC 4180).  A number is written as its ``repr``,
    which reads back as the same float.  A string is quoted, with each quote
    doubled, when it holds a comma, a quote or a line break."""

    def field(value) -> str:
        if not isinstance(value, str):
            return repr(value)
        if "," in value or '"' in value or "\n" in value or "\r" in value:
            return '"' + value.replace('"', '""') + '"'
        return value

    return "".join(",".join(map(field, row)) + "\n" for row in rows)


def reports_to_accuracy_csv(reports: dict[str, EvalReport]) -> str:
    """Per-fold accuracy matrix: one row per representation, one column per fold."""
    if not reports:
        raise ValueError("no reports given")
    k = next(iter(reports.values())).k
    rows = [["representation", *(f"fold{j}" for j in range(k)), "mean"]]
    for rep_id in sorted(reports):
        rows.append([rep_id, *reports[rep_id].fold_accuracies(), reports[rep_id].mean_accuracy])
    return _csv_table(rows)


# ---------------------------------------------------------------------------
# Cross-validation pipeline
# ---------------------------------------------------------------------------


def _check_folds(k) -> None:
    """Refuse a fold count that cross-validation cannot use."""
    if not _integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 2:  # one fold would train on no documents
        raise ValueError(f"k must be at least 2 for cross-validation, got {k}")


def _check_alpha(alpha) -> None:
    """Refuse a significance level outside (0, 1)."""
    if not (_finite_real(alpha) and 0 < alpha < 1):
        raise ValueError(f"alpha must be a number in (0, 1), got {alpha!r}")


def _fold_seed(seed: int, fold_idx: int) -> int:
    return _seed(np.random.SeedSequence([_seed(seed), fold_idx]).generate_state(1, np.uint64)[0])


def _pretrained_vectors(corpus: Corpus, path) -> tuple[list[str], np.ndarray]:
    """The rows of the vector file ``path`` whose word occurs in ``corpus``.
    Every fold vocabulary is drawn from these words, so projecting these rows
    gives what projecting the whole file would."""
    words, matrix = embeddings.read_word2vec(path)
    known = set(corpus.terms)
    rows = [i for i, word in enumerate(words) if word in known]
    return [words[i] for i in rows], matrix[rows]


def _fold_features(train, test, task, vocab, rep, clf, fold_seed, vectors):
    """``(x_train, x_test)`` of one fold.  The term matrix is freed when the
    step returns, before the SVM trains.  Each builder is looked up in its
    module when it runs, so a function rebound there is the one called."""
    if rep.kind == "bow":
        idf = classifier.compute_idf(train, vocab) if clf.bow_weighting == "tfidf" else None
        return (
            classifier.build_bow_matrix(train, vocab, clf.bow_weighting, idf),
            classifier.build_bow_matrix(test, vocab, clf.bow_weighting, idf),
        )
    if rep.kind == "dor":
        tm = representations.build_dor(train, vocab)
    elif rep.kind == "tcor":
        tm = representations.build_tcor(train, vocab, idf_mode=rep.tcor_idf)
    elif rep.kind == "ssr":
        groups = representations.cluster_subprofiles(train, task, vocab, rep.k_per_class, fold_seed)
        tm = representations.build_ssr(train, vocab, groups)
    elif rep.kind == "w2v-train":
        tm = embeddings.train_skipgram(train, vocab, rep.embedding, seed=fold_seed)
    else:  # w2v-pretrained
        tm = embeddings.project_embeddings(*vectors, vocab, source=rep.pretrained_path)
    x_train = representations.aggregate_corpus(train, tm, vocab, rep.weighting)
    x_test = representations.aggregate_corpus(test, tm, vocab, rep.weighting)
    return x_train, x_test


def _fold_table(corpus: Corpus, task: str, k: int, seed: int, max_terms: int | None) -> list:
    """One ``(vocab, train, test)`` triple per fold of the ``(task, k, seed)``
    partition: the vocabulary of the fold's training documents and both sides
    over it (never ``corpus``, which keeps the table).

    A fold's vocabulary ranks one column total of its training rows of
    ``corpus.counts`` by ``build_vocabulary``'s rule, and both sides
    re-column their rows of ``corpus.counts`` by the ranked column ids, so
    no term string is looked up.  The table holds, per fold, the vocabulary
    and both sides' count matrices (together, the corpus's in-vocabulary
    counts) and lengths; a fold in the making also holds one float per
    document and a float total and an int64 id per corpus term."""
    table = []
    for test_idx in stratified_kfold(corpus.labels(task), k=k, seed=seed):
        in_train = np.ones(len(corpus))
        in_train[test_idx] = 0.0
        train_idx = np.flatnonzero(in_train).tolist()
        vocab, ranked = _ranked_vocabulary(corpus.terms, in_train @ corpus.counts, max_terms)
        ids = np.full(len(corpus.terms), -1, dtype=np.int64)
        ids[ranked] = np.arange(ranked.size)
        sides = (corpus._over_vocabulary(idx, vocab, ids) for idx in (train_idx, test_idx))
        table.append((vocab, *sides))
    return table


def cross_validate(
    corpus: Corpus,
    task: str,
    rep: RepConfig | None = None,
    clf: ClfConfig | None = None,
    k: int = DEFAULT_FOLDS,
    seed: int = 0,
    corpus_name: str | None = None,
) -> EvalReport:
    """Stratified k-fold evaluation (``k`` >= 2) of one representation on one task.

    Each fold's vocabulary and features come from its training documents
    only.  The corpus keeps the fold table of the latest
    ``(task, k, seed, max_terms)`` for the next call with that key.  Each fold
    draws its seed, used by SSR clustering and skip-gram training, from
    ``seed``.  A pretrained vector file is read once, before the first fold.
    One fold's arrays are held at a time.
    """
    rep = rep or RepConfig()
    clf = clf or ClfConfig()
    _check_folds(k)
    key = (task, k, seed, rep.max_terms)
    if corpus._folds is None or corpus._folds[0] != key:
        corpus._folds = (key, _fold_table(corpus, task, k, seed, rep.max_terms))
    vectors = None
    if rep.kind == "w2v-pretrained":
        vectors = _pretrained_vectors(corpus, rep.pretrained_path)
    results: list[FoldResult] = []
    for fold_idx, (vocab, train, test) in enumerate(corpus._folds[1]):
        fold_seed = _fold_seed(seed, fold_idx)
        x_train, x_test = _fold_features(train, test, task, vocab, rep, clf, fold_seed, vectors)
        model = classifier.train_linear_svm(
            x_train,
            train.labels(task),
            C=clf.C,
            standardize=clf.standardize,
        )
        preds = classifier.predict(model, x_test)
        acc = accuracy(preds, test.labels(task))
        results.append(
            FoldResult(
                fold=fold_idx,
                predictions={d.author_id: p for d, p in zip(test.docs, preds)},
                accuracy=acc,
                rep_dims=int(x_train.shape[1]),
            )
        )
        del x_train, x_test, model  # no array of this fold lives on while the next one builds
    mean_acc = float(np.mean([r.accuracy for r in results]))
    return EvalReport(
        rep_id=rep.id,
        task=task,
        k=k,
        seed=seed,
        folds=results,
        mean_accuracy=mean_acc,
        corpus_name=corpus_name,
    )


def attach_significance(
    report: EvalReport, baselines: dict[str, EvalReport], alpha: float = DEFAULT_ALPHA
) -> EvalReport:
    """Paired fold-accuracy signed-rank tests against named baseline reports."""
    for name, base in baselines.items():
        if base.k != report.k or base.seed != report.seed:
            raise ValueError(
                f"baseline {name!r} must share the fold partition (same k and seed)"
            )
        report.significance[name] = wilcoxon_signed_rank(
            report.fold_accuracies(), base.fold_accuracies(), alpha=alpha
        )
    return report


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test
# ---------------------------------------------------------------------------


@dataclass
class WilcoxonResult:
    statistic: float | None
    p_value: float | None
    significant: bool
    n: int
    method: str  # "exact", "normal-approx", or "insufficient-n"

    @property
    def insufficient(self) -> bool:
        return self.method == "insufficient-n"


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share the mean of their ranks."""
    _, group, sizes = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(sizes)  # a group holds the sorted positions ends - sizes .. ends - 1
    return (0.5 * (2 * ends - sizes - 1) + 1.0)[group]


def _exact_two_sided_p(ranks: np.ndarray, w: float) -> float:
    # Count, over all 2^n sign assignments, how often min(T+, T-) <= w.
    # Doubling makes the (possibly half-integer) average ranks integral, so
    # the sum distribution is an exact integer convolution.
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        r = int(r)
        counts[r:] = counts[r:] + counts[: counts.size - r]
    w2 = int(math.floor(2.0 * w + 1e-9))
    sums = np.arange(total + 1)
    favorable = int(counts[np.minimum(sums, total - sums) <= w2].sum())
    return favorable / (2.0 ** len(ranks))


def _normal_two_sided_p(ranks: np.ndarray, w: float, n: int) -> float:
    mean = n * (n + 1) / 4.0
    _, tie_sizes = np.unique(ranks, return_counts=True)
    t = tie_sizes.astype(np.float64)
    # Ties take at most (n^3 - n) / 48 off, so var >= 3n(n + 1)^2 / 48 > 0.
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float((t**3 - t).sum()) / 48.0
    z = (w - mean + 0.5) / math.sqrt(var)  # continuity correction toward the mean
    return min(1.0, math.erfc(-z / math.sqrt(2.0)))


def wilcoxon_signed_rank(
    a, b, alpha: float = DEFAULT_ALPHA, exact_threshold: int = 20
) -> WilcoxonResult:
    """Two-sided paired signed-rank test on the differences a[i] - b[i].

    Zero differences are dropped and |differences| are ranked with average
    ranks for ties; the statistic is min(W+, W-).  Up to ``exact_threshold``
    nonzero differences the p-value counts all 2^n sign assignments exactly;
    beyond that a normal approximation with tie and continuity corrections
    is used.  Fewer than five nonzero differences flags the result as
    insufficient (never significant).
    """
    _check_alpha(alpha)
    if not (_integer(exact_threshold) and exact_threshold >= 0):
        raise ValueError(f"exact_threshold must be a non-negative integer, got {exact_threshold!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be equal-length 1-d sequences")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired samples must be finite numbers")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    n = int(diffs.size)
    if n < 5:
        return WilcoxonResult(None, None, False, n, "insufficient-n")
    ranks = _average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    w = min(w_plus, w_minus)
    if n <= exact_threshold:
        p = _exact_two_sided_p(ranks, w)
        method = "exact"
    else:
        p = _normal_two_sided_p(ranks, w, n)
        method = "normal-approx"
    return WilcoxonResult(w, float(p), bool(p <= alpha), n, method)


# ---------------------------------------------------------------------------
# Collection characteristics
# ---------------------------------------------------------------------------


@dataclass
class CollectionStats:
    ttr: float
    ld: float
    sx: float
    shortness: float
    imbalance: float
    hardness: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in CHARACTERISTICS}


def _content_terms(terms: list[str], stopwords=None) -> np.ndarray:
    """Mask of the ``terms`` that are neither stopwords nor pure punctuation
    (no letter or digit); ``stopwords=None`` reads :func:`default_stopwords`."""
    stop = default_stopwords() if stopwords is None else {str(s).lower() for s in stopwords}
    return np.array([t not in stop and any(ch.isalnum() for ch in t) for t in terms], dtype=bool)


def collection_stats(corpus: Corpus, task: str, stopwords=None) -> CollectionStats:
    """Type-token ratio, lexical density, sophistication, mean document
    length, class imbalance, and mean inter-category vocabulary overlap.

    Lexical density approximates content terms as tokens that are neither
    stopwords nor pure punctuation.  Sophistication is the fraction of
    distinct terms longer than the mean term length plus one population
    standard deviation.  Imbalance is the population standard deviation of
    the per-category deviations from a perfectly even split.  Hardness is
    the mean Jaccard overlap between category-level vocabularies.
    """
    if not corpus.docs:
        raise ValueError("corpus is empty")
    freq = np.asarray(corpus.counts.sum(axis=0)).ravel()
    total = int(freq.sum())
    content = int(freq[_content_terms(corpus.terms, stopwords)].sum())
    ttr = len(corpus.terms) / total if total else 0.0
    ld = content / total if total else 0.0
    if corpus.terms:
        lengths = np.array([len(t) for t in corpus.terms], dtype=np.float64)
        sx = float((lengths > lengths.mean() + lengths.std()).mean())
    else:
        sx = 0.0
    shortness = total / len(corpus.docs)

    cats = corpus.categories(task)
    onehot = np.array([[lab == cat for cat in cats] for lab in corpus.labels(task)], dtype=np.float64)
    ideal = len(corpus.docs) / len(cats)
    imbalance = float(np.sqrt(np.mean((onehot.sum(axis=0) - ideal) ** 2)))

    # Per pair of categories, the terms both use and the terms either uses.
    used = (corpus.counts.T @ onehot > 0).astype(np.float64)
    shared = used.T @ used
    a, b = np.triu_indices(len(cats), 1)
    union = shared[a, a] + shared[b, b] - shared[a, b]
    overlaps = np.divide(shared[a, b], union, out=np.zeros(len(a)), where=union > 0)
    hardness = float(overlaps.mean()) if len(a) else 0.0

    return CollectionStats(ttr, ld, sx, shortness, imbalance, hardness)


def pearson(xs, ys) -> float:
    """Sample Pearson correlation; NaN flags zero variance in either input."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("pearson needs two equal-length sequences of length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return float("nan")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def correlation_map(
    reports: dict[str, dict[str, EvalReport]],
    baseline_reports: dict[str, EvalReport],
    stats: dict[str, CollectionStats],
) -> dict[str, dict[str, float]]:
    """Pearson r between each characteristic and each representation's
    accuracy improvement over the baseline, computed across genres."""
    genres = sorted(reports)
    if sorted(baseline_reports) != genres or sorted(stats) != genres:
        raise ValueError("genre keys must match across reports, baselines, and stats")
    if len(genres) < 2:
        raise ValueError("need at least two genres to correlate")
    rep_ids = sorted(reports[genres[0]])
    for genre in genres:
        if sorted(reports[genre]) != rep_ids:
            raise ValueError(f"representations for genre {genre!r} differ from the others")
    table: dict[str, dict[str, float]] = {}
    for rep_id in rep_ids:
        improvements = [
            reports[g][rep_id].mean_accuracy - baseline_reports[g].mean_accuracy
            for g in genres
        ]
        table[rep_id] = {
            char: pearson([getattr(stats[g], char) for g in genres], improvements)
            for char in CHARACTERISTICS
        }
    return table


def correlation_map_to_csv(table: dict[str, dict[str, float]]) -> str:
    rows = [["representation", *CHARACTERISTICS]]
    for rep_id in sorted(table):
        rows.append([rep_id, *(table[rep_id][c] for c in CHARACTERISTICS)])
    return _csv_table(rows)


# ---------------------------------------------------------------------------
# Interpretability helpers
# ---------------------------------------------------------------------------


def top_terms_tfidf(
    corpus: Corpus, author_ids, n: int = DEFAULT_TOP_TERMS, stopwords=None
) -> list[list[tuple[str, float]]]:
    """The top-n terms by tf-idf over the corpus of each author in ``author_ids``.

    tf is the author's raw count and idf is ln(N / df) over all documents;
    stopwords and pure-punctuation tokens are excluded from the report and
    ties break lexicographically.  The idf and the excluded terms are
    computed once per call, shared by every listed author.
    """
    if isinstance(author_ids, str):
        raise TypeError("author_ids must be a list of author ids, not a single string")
    if not (_integer(n) and n >= 0):
        raise ValueError(f"n must be non-negative and an integer, got {n!r}")
    rows = [corpus.row(author_id) for author_id in author_ids]
    counts = corpus.counts
    idf = np.array([math.log(len(corpus) / df) for df in counts.getnnz(axis=0).tolist()])
    shown = _content_terms(corpus.terms, stopwords)
    tops = []
    for row in rows:
        span = slice(counts.indptr[row], counts.indptr[row + 1])
        cols = counts.indices[span]
        keep = shown[cols]
        cols = cols[keep]
        scores = counts.data[span][keep] * idf[cols]
        # Columns follow the sorted terms, so the column breaks score ties by term.
        order = np.lexsort((cols, -scores))[:n]
        tops.append(
            [(corpus.terms[j], s) for j, s in zip(cols[order].tolist(), scores[order].tolist())]
        )
    return tops


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each row of label counts.  Each row is summed as a
    vector of its nonzero counts sorted ascending, so its value does not
    depend on how many other labels exist."""
    ordered = np.sort(np.where(counts > 0, counts, np.inf), axis=1)
    present = np.isfinite(ordered)
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.divide(ordered, totals, out=np.zeros_like(ordered), where=present)
    terms = probs * np.log2(probs, out=np.zeros_like(probs), where=present)
    widths = present.sum(axis=1)
    out = np.zeros(len(counts))
    for width in np.unique(widths):
        rows = widths == width
        out[rows] = -terms[rows, :width].sum(axis=1)
    return out


def information_gain(values, labels):
    """Entropy reduction of the labels after a binary split of each feature
    at its median.

    ``values`` is one feature (1-D, returns a float) or a ``(docs x
    features)`` matrix (returns one gain per column).  A value counts as
    above the median only if it exceeds it by more than 1e-12 times the
    column's largest |value|, so values that tie with the median to within
    rounding fall on the same side whatever order they were summed in.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = [str(lab) for lab in labels]
    if values.ndim not in (1, 2) or values.shape[0] != len(labels) or values.size == 0:
        raise ValueError("values must be 1-D or 2-D, non-empty, with one row per label")
    cols = values.reshape(len(labels), -1)
    names, label_ids = np.unique(labels, return_inverse=True)
    onehot = np.eye(len(names))[label_ids]
    tolerance = 1e-12 * np.abs(cols).max(axis=0)
    above = (cols - np.median(cols, axis=0) > tolerance).astype(np.float64)
    total = onehot.sum(axis=0)
    upper = above.T @ onehot  # per feature, the label counts above the median
    n, n_upper = len(labels), upper.sum(axis=1)
    gain = (
        _entropies(total[np.newaxis, :])
        - (n_upper / n) * _entropies(upper)
        - ((n - n_upper) / n) * _entropies(total - upper)
    )
    gain = np.maximum(gain, 0.0)
    return float(gain[0]) if values.ndim == 1 else gain
