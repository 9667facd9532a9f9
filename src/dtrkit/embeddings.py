"""Skip-gram word embeddings with negative sampling, plus the textual
word-vector interchange format."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np
from scipy.special import expit

from .corpus import Corpus, Vocabulary
from .representations import TermMatrix, _finite_real, _fmt, _integer, _positive_int

__all__ = [
    "EmbeddingConfig",
    "train_skipgram",
    "save_embeddings",
    "read_word2vec",
    "load_embeddings",
    "nearest_neighbors",
]

# Linear learning-rate decay bottoms out at initial_lr * this ratio.
LR_FLOOR_RATIO = 1e-4


@dataclass
class EmbeddingConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    min_count: int = 1
    subsample: float = 0.0  # frequency threshold for subsampling; 0 disables
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("dim", "window", "epochs", "min_count"):
            value = getattr(self, name)
            if not _positive_int(value):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not (_integer(self.negatives) and self.negatives >= 0):
            raise ValueError(f"negatives must be a non-negative integer, got {self.negatives!r}")
        if not _integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not (_finite_real(self.initial_lr) and self.initial_lr > 0):
            raise ValueError(f"initial_lr must be a finite positive number, got {self.initial_lr!r}")
        if not (_finite_real(self.subsample) and self.subsample >= 0):
            raise ValueError(f"subsample must be a finite number >= 0, got {self.subsample!r}")


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def train_skipgram(corpus: Corpus, vocab: Vocabulary, cfg: EmbeddingConfig | None = None) -> TermMatrix:
    """Train skip-gram vectors with negative sampling over ``corpus``.

    Single-threaded SGD: every (center, context) pair within a random window
    of width 1..window contributes one positive update and ``negatives``
    draws from the unigram distribution raised to 3/4.  The learning rate
    decays linearly to a floor of ``initial_lr / 10000``.  Terms rarer than
    ``min_count`` keep an all-zero row.  Deterministic for a fixed seed;
    per-epoch mean pair loss lands in ``meta["objective"]``.
    """
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    if not corpus.docs:
        raise ValueError("corpus is empty")
    cfg = cfg or EmbeddingConfig()
    rng = np.random.default_rng(cfg.seed % (2**63))

    freqs = np.array([vocab.freq[t] for t in vocab.terms], dtype=np.float64)
    trainable = freqs >= cfg.min_count
    sentences = []
    for doc in corpus.docs:
        ids = [vocab.index[t] for t in doc.tokens if t in vocab.index]
        ids = [i for i in ids if trainable[i]]
        if len(ids) > 1:
            sentences.append(np.asarray(ids, dtype=np.int64))

    noise = np.where(trainable, freqs, 0.0) ** 0.75
    total_noise = noise.sum()
    cum = np.cumsum(noise / total_noise) if total_noise > 0 else None

    keep = None
    if cfg.subsample > 0:
        rel = freqs / max(freqs.sum(), 1.0)
        with np.errstate(divide="ignore"):
            keep = np.minimum(np.sqrt(cfg.subsample / np.maximum(rel, 1e-300)), 1.0)

    n_terms = len(vocab)
    w_in = (rng.random((n_terms, cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((n_terms, cfg.dim))

    total_words = sum(len(s) for s in sentences) * cfg.epochs
    lr_floor = cfg.initial_lr * LR_FLOOR_RATIO
    processed = 0
    objective: list[float] = []

    for _ in range(cfg.epochs):
        loss_sum = 0.0
        n_pairs = 0
        for sent in sentences:
            if keep is not None:
                sent = sent[rng.random(len(sent)) < keep[sent]]
            length = len(sent)
            for pos in range(length):
                center = int(sent[pos])
                lr = max(cfg.initial_lr * (1.0 - processed / (total_words + 1)), lr_floor)
                processed += 1
                span = int(rng.integers(1, cfg.window + 1))
                for cpos in range(max(0, pos - span), min(length, pos + span + 1)):
                    if cpos == pos:
                        continue
                    ctx = int(sent[cpos])
                    if cum is not None and cfg.negatives:
                        negs = np.searchsorted(cum, rng.random(cfg.negatives))
                        negs = negs[negs != ctx]
                    else:
                        negs = np.empty(0, dtype=np.int64)
                    targets = np.concatenate(([ctx], negs))
                    labels = np.zeros(targets.size)
                    labels[0] = 1.0
                    v = w_in[center].copy()
                    u = w_out[targets]
                    scores = u @ v
                    grad = (labels - expit(scores)) * lr
                    np.add.at(w_out, targets, grad[:, np.newaxis] * v[np.newaxis, :])
                    w_in[center] += grad @ u
                    loss_sum -= float(
                        _log_sigmoid(scores[0]) + _log_sigmoid(-scores[1:]).sum()
                    )
                    n_pairs += 1
        objective.append(loss_sum / max(n_pairs, 1))

    w_in[~trainable] = 0.0
    if not np.isfinite(w_in).all():
        raise FloatingPointError("skip-gram training produced non-finite vectors")
    return TermMatrix(
        "EMBEDDING",
        list(vocab.terms),
        w_in,
        meta={"objective": objective, "config": asdict(cfg)},
    )


def save_embeddings(tm: TermMatrix, path) -> None:
    """Write vectors in the textual word2vec format: 'count dim' header, then
    one line per term (token followed by the vector values).  Refuses, before
    creating the file, what :func:`read_word2vec` would reject: zero
    dimensions, or a term that is empty or holds whitespace."""
    if tm.dims < 1:
        raise ValueError(f"word2vec vectors need at least one dimension, got {tm.dims}")
    for term in tm.terms:
        if term.split() != [term]:
            raise ValueError(f"term {term!r} must be non-empty and free of whitespace")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tm.terms)} {tm.dims}\n")
        for term, row in zip(tm.terms, tm.matrix):
            fh.write(term + " " + " ".join(_fmt(v) for v in row) + "\n")


def read_word2vec(path) -> tuple[list[str], np.ndarray]:
    """Parse a textual word2vec file into (words, matrix)."""
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
                rows.append([float(v) for v in fields[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric vector value") from exc
            words.append(fields[0])
    if len(words) != count:
        raise ValueError(f"{path}: header announces {count} vectors, file has {len(words)}")
    return words, np.asarray(rows, dtype=np.float64).reshape(len(words), dim)


def load_embeddings(path, vocab: Vocabulary) -> TermMatrix:
    """Project a pretrained vector file onto ``vocab``.

    Vocabulary terms missing from the file get zero rows; the fraction found
    is reported in ``meta["coverage"]``.  Duplicate file entries keep the
    first occurrence.
    """
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    words, matrix = read_word2vec(path)
    out = np.zeros((len(vocab), matrix.shape[1]))
    filled = np.zeros(len(vocab), dtype=bool)
    found = 0
    for w_idx, word in enumerate(words):
        j = vocab.index.get(word)
        if j is not None and not filled[j]:
            out[j] = matrix[w_idx]
            filled[j] = True
            found += 1
    return TermMatrix(
        "EMBEDDING",
        list(vocab.terms),
        out,
        meta={"coverage": found / len(vocab), "source": str(path)},
    )


def nearest_neighbors(tm: TermMatrix, term: str, k: int) -> list[tuple[str, float]]:
    """Top-k cosine neighbors of ``term`` (query excluded; ties lexicographic)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    i = tm.index_of(term)
    query = tm.matrix[i]
    norms = np.linalg.norm(tm.matrix, axis=1)
    denom = norms * np.linalg.norm(query)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0, tm.matrix @ query / np.maximum(denom, 1e-300), 0.0)
    order = sorted(
        (j for j in range(len(tm.terms)) if j != i),
        key=lambda j: (-sims[j], tm.terms[j]),
    )
    return [(tm.terms[j], float(sims[j])) for j in order[:k]]
