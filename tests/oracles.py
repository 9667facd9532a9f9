"""Independent brute-force oracles used to pin expected values.

Everything here is written against the definitions directly (double loops,
full enumeration) and never calls into the library's own computation paths,
except ``naive_fold_table`` and ``naive_synthetic_corpus``: the earlier
construction of a fold table and the earlier per-token generator loop, kept
as the references for the code that replaced them.
"""

from __future__ import annotations

import itertools
import math
import unicodedata
from collections import Counter

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
from scipy.stats import rankdata


def naive_tokenize(text: str) -> list[str]:
    """Character by character: a maximal run of letters, digits, apostrophes
    and combining marks (Unicode category M*) is one match, any other
    non-space character a match of its own; a match made only of
    symbol-class characters (category S*) joins the previous token when both
    touch and that token is all symbols too."""

    def in_word(ch: str) -> bool:
        return ch.isalnum() or ch == "'" or unicodedata.category(ch).startswith("M")

    lowered = text.lower()
    matches = []  # (start, end) of each match
    start = 0
    while start < len(lowered):
        end = start + 1
        if in_word(lowered[start]):
            while end < len(lowered) and in_word(lowered[end]):
                end += 1
        if not lowered[start].isspace():
            matches.append((start, end))
        start = end
    tokens: list[str] = []
    prev_end = -1
    for start, end in matches:
        tok = lowered[start:end]
        if (
            tokens
            and start == prev_end
            and all(unicodedata.category(ch).startswith("S") for ch in tok + tokens[-1])
        ):
            tokens[-1] += tok
        else:
            tokens.append(tok)
        prev_end = end
    return tokens


def naive_counts(doc_tokens: list[list[str]]) -> tuple[list[str], np.ndarray]:
    """Sorted distinct tokens and the dense document x term count table."""
    terms = sorted({token for tokens in doc_tokens for token in tokens})
    out = np.zeros((len(doc_tokens), len(terms)))
    for d, tokens in enumerate(doc_tokens):
        for token in tokens:
            out[d, terms.index(token)] += 1
    return terms, out


def naive_count_matrix(doc_tokens: list[list[str]], vocab_terms: list[str]) -> np.ndarray:
    """Dense document x vocabulary counts, read from one dict per document;
    a vocabulary term no document holds gets a zero column."""
    out = np.zeros((len(doc_tokens), len(vocab_terms)))
    for d, tokens in enumerate(doc_tokens):
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for v, term in enumerate(vocab_terms):
            out[d, v] = counts.get(term, 0)
    return out


def naive_dor(doc_tokens: list[list[str]], vocab_terms: list[str]) -> np.ndarray:
    """Double-loop document-occurrence weights over explicit token lists."""
    n_terms = len(vocab_terms)
    n_docs = len(doc_tokens)
    vocab_set = set(vocab_terms)
    out = np.zeros((n_terms, n_docs))
    for j, tokens in enumerate(doc_tokens):
        distinct_in_doc = {t for t in tokens if t in vocab_set}
        n_j = len(distinct_in_doc)
        for i, term in enumerate(vocab_terms):
            count = tokens.count(term)
            if count > 0 and n_j > 0:
                out[i, j] = (1.0 + math.log(count)) * math.log(n_terms / n_j)
    return out


def naive_tcor(
    doc_tokens: list[list[str]], vocab_terms: list[str], idf_mode: str = "feature-term"
) -> np.ndarray:
    """Double-loop term-co-occurrence weights over explicit token lists."""
    n_terms = len(vocab_terms)
    doc_sets = [set(tokens) & set(vocab_terms) for tokens in doc_tokens]

    def co_docs(a: str, b: str) -> int:
        return sum(1 for s in doc_sets if a in s and b in s)

    def partners(term: str) -> int:
        return sum(
            1
            for other in vocab_terms
            if other != term and co_docs(term, other) > 0
        )

    out = np.zeros((n_terms, n_terms))
    for i, t_i in enumerate(vocab_terms):
        for j, t_j in enumerate(vocab_terms):
            if i == j:
                continue
            n_ij = co_docs(t_i, t_j)
            if n_ij == 0:
                continue
            anchor = t_j if idf_mode == "feature-term" else t_i
            n_partners = partners(anchor)
            if n_partners == 0:
                continue
            out[i, j] = (1.0 + math.log(n_ij)) * math.log(n_terms / n_partners)
    return out


def naive_aggregate(
    doc_tokens: list[list[str]],
    vocab_terms: list[str],
    term_rows: np.ndarray,
    weighting: str = "mean",
) -> np.ndarray:
    """Per-document loop: weighted average of the rows of in-vocabulary terms.

    ``mean`` weighs a term by its count, ``tf-weighted`` by ``1 + log(count)``;
    a document without in-vocabulary tokens stays the zero vector.
    """
    row_of = {term: i for i, term in enumerate(vocab_terms)}
    out = np.zeros((len(doc_tokens), term_rows.shape[1]))
    for d, tokens in enumerate(doc_tokens):
        counts: dict[str, int] = {}
        for token in tokens:
            if token in row_of:
                counts[token] = counts.get(token, 0) + 1
        weights = {
            term: count if weighting == "mean" else 1.0 + math.log(count)
            for term, count in counts.items()
        }
        total = sum(weights.values())
        for term, weight in weights.items():
            out[d] += (weight / total) * term_rows[row_of[term]]
    return out


def naive_ssr(
    doc_tokens: list[list[str]],
    subclasses: list[int],
    n_subclasses: int,
    vocab_terms: list[str],
) -> np.ndarray:
    """Term x subclass loop: document d adds log2(1 + count / len(tokens)) to
    column ``subclasses[d]`` of each vocabulary term it holds; each column is
    then scaled to sum to one, and then each row that is not all zero.  A
    column of zero mass raises ``ValueError``."""
    out = np.zeros((len(vocab_terms), n_subclasses))
    for tokens, sub in zip(doc_tokens, subclasses):
        for i, term in enumerate(vocab_terms):
            count = tokens.count(term)
            if count:
                out[i, sub] += math.log2(1.0 + count / len(tokens))
    for j in range(n_subclasses):
        mass = out[:, j].sum()
        if mass <= 0:
            raise ValueError(f"subclass {j} has zero total weight")
        out[:, j] /= mass
    for i in range(len(vocab_terms)):
        mass = out[i].sum()
        if mass > 0:
            out[i] /= mass
    return out


def naive_fold_features(
    doc_tokens: list[list[str]],
    folds: list[list[int]],
    kind: str,
    max_terms,
    bow_weighting: str = "tf",
    weighting: str = "mean",
    tcor_idf: str = "feature-term",
    subclasses: list[dict[int, int]] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Dense ``(train features, test features)`` of each test fold of
    ``folds``, from the token lists by the definitions.

    A fold's vocabulary is a ``Counter`` of its training tokens, the
    ``max_terms`` most frequent first, ties by term.  ``bow`` is the count
    table over it (``tf``), its presence flags (``boolean``), or the counts
    times the training idf ln(n / df), 0 where df is 0, with each row scaled
    to unit length (``tfidf``).  ``dor``, ``tcor`` and ``ssr`` aggregate the
    training side's term matrix over both sides with ``weighting``; for
    ``ssr``, ``subclasses[f]`` maps each training row of fold ``f`` to its
    subclass, numbered from 0."""
    out = []
    for f, test_idx in enumerate(folds):
        held_out = set(test_idx)
        train_idx = [i for i in range(len(doc_tokens)) if i not in held_out]
        train = [doc_tokens[i] for i in train_idx]
        test = [doc_tokens[i] for i in test_idx]
        freq = Counter(token for tokens in train for token in tokens)
        terms = sorted(freq, key=lambda term: (-freq[term], term))[:max_terms]
        if kind == "bow":
            sides = [naive_count_matrix(side, terms) for side in (train, test)]
            if bow_weighting == "boolean":
                sides = [(side > 0).astype(np.float64) for side in sides]
            elif bow_weighting == "tfidf":
                df = (sides[0] > 0).sum(axis=0)
                idf = np.array([math.log(len(train) / d) if d else 0.0 for d in df])
                sides = [side * idf for side in sides]
                for side in sides:
                    for row in side:
                        norm = math.sqrt(sum(v * v for v in row))
                        if norm > 0:
                            row /= norm
            out.append(tuple(sides))
            continue
        if kind == "dor":
            rows = naive_dor(train, terms)
        elif kind == "tcor":
            rows = naive_tcor(train, terms, tcor_idf)
        else:
            subs = [subclasses[f][i] for i in train_idx]
            rows = naive_ssr(train, subs, max(subs) + 1, terms)
        out.append(tuple(naive_aggregate(side, terms, rows, weighting) for side in (train, test)))
    return out


def naive_dual_cd(X, y: np.ndarray, C: float, rng, tol: float, max_epochs: int):
    """Squared-hinge dual coordinate descent, one sparse row of ``X`` per step.

    The primal weights ``w`` are kept and updated from the row itself
    (Hsieh et al. 2008); ``X`` is the bias-augmented CSR feature matrix.
    Returns ``(w, info)`` with the same run record as the library's solver.
    """
    n, _ = X.shape
    indptr, indices, data = X.indptr, X.indices, X.data
    alpha = np.zeros(n)
    w = np.zeros(X.shape[1])
    diag = 1.0 / (2.0 * C)
    sq = X.copy()
    sq.data = sq.data**2
    q_ii = np.asarray(sq.sum(axis=1)).ravel() + diag
    objective: list[float] = []
    epochs = 0
    max_viol = np.inf
    for _ in range(max_epochs):
        epochs += 1
        max_viol = 0.0
        for i in rng.permutation(n):
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            vals = data[lo:hi]
            g = y[i] * (w[cols] @ vals) - 1.0 + diag * alpha[i]
            pg = min(g, 0.0) if alpha[i] == 0.0 else g
            viol = abs(pg)
            if viol > max_viol:
                max_viol = viol
            if viol > 1e-12:
                new_alpha = max(alpha[i] - g / q_ii[i], 0.0)
                w[cols] += (new_alpha - alpha[i]) * y[i] * vals
                alpha[i] = new_alpha
        objective.append(0.5 * (w @ w + diag * (alpha @ alpha)) - alpha.sum())
        if max_viol < tol:
            break
    hinge = np.maximum(1.0 - y * np.asarray(X @ w), 0.0)
    primal = 0.5 * (w @ w) + C * (hinge @ hinge)
    info = {
        "epochs": epochs,
        "dual_objective": [float(v) for v in objective],
        "duality_gap": float(primal + objective[-1]),
        "final_violation": float(max_viol),
        "converged": bool(max_viol < tol),
    }
    return w, info


def nnls_dual(X, y: np.ndarray, C: float) -> np.ndarray:
    """Primal weights at the exact optimum of the squared-hinge dual.

    The dual is min over a >= 0 of a.Q.a / 2 - sum(a), with
    Q = D X X' D + I / (2C) and D = diag(y).  With the Cholesky factor
    Q = L L', the objective is |L' a - L^-1 1|^2 / 2 up to a constant, so
    the optimum is a non-negative least-squares solution.  ``X`` is the
    bias-augmented dense feature matrix; returns w = X' D a.
    """
    Z = y[:, None] * X
    Q = Z @ Z.T + np.eye(len(y)) / (2.0 * C)
    L = scipy.linalg.cholesky(Q, lower=True)
    b = scipy.linalg.solve_triangular(L, np.ones(len(y)), lower=True)
    alpha, _ = scipy.optimize.nnls(L.T, b)
    return Z.T @ alpha


def brute_force_wilcoxon(a, b) -> tuple[float, float, int]:
    """Exact two-sided signed-rank p by enumerating every sign assignment.

    Returns (W, p, n) with W = min(W+, W-) of the observed differences and
    p = P(min(T+, T-) <= W) over all 2^n equally likely sign vectors.
    """
    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    diffs = diffs[diffs != 0]
    n = diffs.size
    ranks = rankdata(np.abs(diffs))
    w_obs = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    favorable = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        t_plus = sum(r for r, s in zip(ranks, signs) if s > 0)
        t_minus = ranks.sum() - t_plus
        if min(t_plus, t_minus) <= w_obs + 1e-9:
            favorable += 1
    return float(w_obs), favorable / (2.0**n), int(n)


def naive_imbalance_and_hardness(doc_tokens: list[list[str]], labels: list[str]):
    """Category-size imbalance and the mean Jaccard overlap of each pair of
    category vocabularies, with one Python set per category."""
    cats = sorted(set(labels))
    sizes = np.array([labels.count(cat) for cat in cats], dtype=np.float64)
    imbalance = float(np.sqrt(np.mean((sizes - len(labels) / len(cats)) ** 2)))
    vocabs = {cat: set() for cat in cats}
    for tokens, label in zip(doc_tokens, labels):
        vocabs[label].update(tokens)
    overlaps = []
    for a, b in itertools.combinations(cats, 2):
        union = vocabs[a] | vocabs[b]
        overlaps.append(len(vocabs[a] & vocabs[b]) / len(union) if union else 0.0)
    return imbalance, float(np.mean(overlaps)) if overlaps else 0.0


def naive_information_gain(values, labels) -> float:
    """Entropy reduction of the labels after a binary split of one feature at
    its median (strictly above vs the rest), one ``Counter`` per side."""
    values = np.asarray(values, dtype=np.float64)
    labels = [str(lab) for lab in labels]

    def entropy(subset: list[str]) -> float:
        counts = np.array(sorted(Counter(subset).values()), dtype=np.float64)
        probs = counts / counts.sum()
        return float(-(probs * np.log2(probs)).sum())

    gain = entropy(labels)
    above = values > float(np.median(values))
    for side in (above, ~above):
        if side.any():
            members = [labels[i] for i in np.flatnonzero(side)]
            gain -= (side.sum() / values.size) * entropy(members)
    return float(max(gain, 0.0))


def naive_top_terms_tfidf(doc_tokens: list[list[str]], d: int, stop) -> list[tuple[str, float]]:
    """Every reportable term of document ``d`` with count * ln(N / df), best
    first, ties by term; stopwords and tokens without a letter or digit are
    left out."""
    df = Counter(token for tokens in doc_tokens for token in set(tokens))
    scored = [
        (term, count * math.log(len(doc_tokens) / df[term]))
        for term, count in Counter(doc_tokens[d]).items()
        if term not in stop and any(ch.isalnum() for ch in term)
    ]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


def best_two_partition_sse(points: np.ndarray) -> frozenset[frozenset[int]]:
    """All optimal 2-partitions of row indices by within-cluster squared error."""
    n = len(points)
    best = None
    best_sse = np.inf
    for bits in itertools.product((0, 1), repeat=n):
        if len(set(bits)) < 2:
            continue
        sse = 0.0
        for side in (0, 1):
            members = points[[i for i in range(n) if bits[i] == side]]
            center = members.mean(axis=0)
            sse += ((members - center) ** 2).sum()
        key = frozenset(
            frozenset(i for i in range(n) if bits[i] == side) for side in (0, 1)
        )
        if sse < best_sse - 1e-12:
            best_sse = sse
            best = {key}
        elif abs(sse - best_sse) <= 1e-12 and best is not None:
            best.add(key)
    return best


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


def naive_kmeans(X: np.ndarray, k: int, rng, max_iter: int = 100) -> np.ndarray:
    """k-means one restart at a time: kmeans++ init drawn from ``rng``
    (``rng.choice`` with p proportional to the squared distance to the
    nearest chosen center, ``rng.integers`` when every distance is 0), Lloyd
    iterations until the labels repeat, an empty cluster taking the farthest
    point of a cluster with two or more, and the first restart whose inertia
    beats the best so far by more than 1e-12 kept.  Cluster ids are numbered
    by first appearance."""
    if k <= 1:
        return np.zeros(X.shape[0], dtype=np.int64)
    x_sq = np.einsum("ij,ij->i", X, X)
    best_labels: np.ndarray | None = None
    best_inertia = np.inf
    for _ in range(20):
        centers = _kmeanspp_init(X, k, rng, x_sq)
        labels, inertia = _lloyd(X, centers, x_sq, max_iter)
        if best_labels is None or inertia < best_inertia - 1e-12:
            best_labels, best_inertia = labels, inertia
    remap: dict[int, int] = {}
    out = np.empty_like(best_labels)
    for i, lab in enumerate(best_labels):
        out[i] = remap.setdefault(int(lab), len(remap))
    return out


def naive_skipgram_pairs(lengths: list[int], spans: list[int]) -> list[tuple[int, int]]:
    """(center, context) stream positions of every skip-gram pair: sentences
    of ``lengths`` tokens laid end to end, token p reaching ``spans[p]`` to
    each side within its sentence; center by center, contexts left to right."""
    pairs = []
    start = 0
    for length in lengths:
        for pos in range(length):
            span = spans[start + pos]
            for cpos in range(length):
                if cpos != pos and abs(cpos - pos) <= span:
                    pairs.append((start + pos, start + cpos))
        start += length
    return pairs


def naive_sgns_batch(w_in, w_out, centers, contexts, negs, lr: float):
    """One skip-gram negative-sampling minibatch, pair by pair: every
    gradient at the parameters before the batch; a negative equal to its
    pair's context is skipped.  Returns the updated copies and the summed
    loss."""
    new_in, new_out = w_in.copy(), w_out.copy()
    loss = 0.0
    for b in range(len(centers)):
        v = w_in[centers[b]]
        targets = [(int(contexts[b]), 1.0)] + [
            (int(n), 0.0) for n in negs[b] if n != contexts[b]
        ]
        for target, label in targets:
            u = w_out[target]
            score = float(u @ v)
            sigma = 1.0 / (1.0 + math.exp(-score))
            g = (label - sigma) * lr
            new_out[target] += g * v
            new_in[centers[b]] += g * u
            loss -= math.log(sigma) if label else math.log(1.0 - sigma)
    return new_in, new_out, loss


def naive_scatter_add(w, rows: np.ndarray, coef: np.ndarray, values: np.ndarray) -> None:
    """``w[rows[b, k]] += coef[b, k] * values[b]`` summed in (b, k) order:
    the distinct rows and their inverse from ``np.unique``, then one int64
    CSC product, as the trainer's scatter was first written."""
    touched, inverse = np.unique(rows, return_inverse=True)
    n, k = rows.shape
    spread = sp.csc_matrix(
        (coef.ravel(), inverse.ravel(), np.arange(0, n * k + 1, k)), shape=(len(touched), n)
    )
    w[touched] += spread @ values


def naive_draw_negatives(cum: np.ndarray, buckets: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The term each key in [0, 1) draws from the cumulative distribution
    ``cum``, by binary search over all of it; ``buckets`` is not read."""
    return np.searchsorted(cum, keys)


def naive_fold_table(corpus, folds: list[list[int]], max_terms):
    """One ``(vocab, train counts, test counts)`` triple per test fold of
    ``folds``: the vocabulary built from the subset corpus of the training
    rows, and each side's rows of ``corpus.counts`` times a 0/1 matrix that
    sends each corpus column to its vocabulary id, sorted through CSC."""
    from dtrkit.corpus import build_vocabulary

    table = []
    for test_idx in folds:
        test_set = set(test_idx)
        train_idx = [i for i in range(len(corpus)) if i not in test_set]
        vocab = build_vocabulary(corpus.subset(train_idx), max_terms)
        ids = np.array([vocab.index.get(t, -1) for t in corpus.terms], dtype=np.int64)
        present = np.flatnonzero(ids >= 0)
        select = sp.csr_matrix(
            (np.ones(present.size), (present, ids[present])), shape=(len(ids), len(vocab))
        )
        sides = [(corpus.counts[idx] @ select).tocsc().tocsr() for idx in (train_idx, test_idx)]
        table.append((vocab, *sides))
    return table


def naive_fmt_row(row) -> str:
    """One row of a written number file, value by value: each at 17
    significant digits, joined by single spaces."""
    return " ".join(format(float(v), ".17g") for v in row)


def naive_read_word2vec(path) -> tuple[list[str], np.ndarray]:
    """A textual word2vec file read one line at a time, each value through
    ``float``: 'count dim' header, then one 'word v1 .. vdim' line per
    vector; blank lines are skipped.  A malformed line, or a value that is
    not a finite number, raises ``ValueError`` naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}:1: malformed header, expected 'count dim'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError(f"{path}:1: malformed header, expected 'count dim'") from exc
        if count < 0 or dim < 1:
            raise ValueError(f"{path}:1: malformed header values {header}")
        words: list[str] = []
        rows: list[list[float]] = []
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != dim + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim + 1} fields, found {len(fields)}"
                )
            try:
                values = [float(v) for v in fields[1:]]
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric value in {' '.join(fields[1:])!r}"
                ) from None
            for field, value in zip(fields[1:], values):
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: non-finite value {field!r}")
            rows.append(values)
            words.append(fields[0])
    if len(words) != count:
        raise ValueError(f"{path}: header announces {count} vectors, file has {len(words)}")
    return words, np.asarray(rows, dtype=np.float64).reshape(len(words), dim)


def naive_token_draws(rng, n_tokens: int, topical_fraction: float, n_topical: int, n_shared: int):
    """``(topical, index)`` lists of ``n_tokens`` tokens, one scalar
    ``random()`` call and then one scalar ``integers(n)`` call per token."""
    topical, index = [], []
    for _ in range(n_tokens):
        topical.append(rng.random() < topical_fraction)
        index.append(int(rng.integers(n_topical if topical[-1] else n_shared)))
    return topical, index


def naive_synthetic_corpus(
    n_categories: int,
    authors_per_category: int,
    exclusive_terms: int,
    shared_terms: int,
    tokens_per_doc: int,
    topical_fraction: float,
    task: str,
    seed: int,
):
    """``make_synthetic_corpus`` as it drew each token before: a scalar
    ``random()`` call and a scalar ``integers(n)`` call per token."""
    from dtrkit.corpus import AuthorDoc, Corpus

    rng = np.random.default_rng(seed % (2**63))
    shared = [f"w{i:03d}" for i in range(shared_terms)]
    docs = []
    for c in range(n_categories):
        cat = f"cat{c}"
        topical = [f"{cat}x{j:02d}" for j in range(exclusive_terms)]
        for a in range(authors_per_category):
            words = []
            for _ in range(tokens_per_doc):
                if rng.random() < topical_fraction:
                    words.append(topical[int(rng.integers(len(topical)))])
                else:
                    words.append(shared[int(rng.integers(len(shared)))])
            docs.append(
                AuthorDoc.from_text(f"{cat}a{a:03d}", " ".join(words), {task: cat})
            )
    docs.sort(key=lambda d: d.author_id)
    return Corpus(docs, frozenset({task}))
