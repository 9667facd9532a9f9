"""Skip-gram word embeddings with negative sampling, plus the textual
word-vector interchange format."""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, Vocabulary, _check_utf8, _finite_real, _integer, _naming_bad_utf8
from .corpus import _positive_int, _seed
from .representations import TermMatrix, _parse_row, _row_format

__all__ = [
    "EmbeddingConfig",
    "train_skipgram",
    "save_embeddings",
    "read_word2vec",
    "project_embeddings",
    "load_embeddings",
    "nearest_neighbors",
]

# Linear learning-rate decay bottoms out at initial_lr * this ratio.
LR_FLOOR_RATIO = 1e-4

# (center, context) pairs per minibatch.  Pairs are built this many center
# tokens at a time, so at most about BATCH_PAIRS * 2 * window of them are
# held at once.
BATCH_PAIRS = 256

# Lines of a vectors file that read_word2vec hands to np.loadtxt at a time.
_READ_CHUNK = 1024


@dataclass
class EmbeddingConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    min_count: int = 1
    subsample: float = 0.0  # frequency threshold for subsampling; 0 disables

    def __post_init__(self) -> None:
        for name in ("dim", "window", "epochs", "min_count"):
            value = getattr(self, name)
            if not _positive_int(value):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not (_integer(self.negatives) and self.negatives >= 0):
            raise ValueError(f"negatives must be a non-negative integer, got {self.negatives!r}")
        if not (_finite_real(self.initial_lr) and self.initial_lr > 0):
            raise ValueError(f"initial_lr must be a finite positive number, got {self.initial_lr!r}")
        if not (_finite_real(self.subsample) and self.subsample >= 0):
            raise ValueError(f"subsample must be a finite number >= 0, got {self.subsample!r}")


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _epoch_stream(sentences, keep, window: int, rng):
    """One epoch's tokens, sentence lengths and window spans.

    Each sentence is first subsampled (token i survives with probability
    ``keep[i]``; ``keep=None`` keeps every token), then every surviving token
    draws a span in 1..window.  Two draws per sentence, in sentence order.
    """
    kept, spans = [], []
    for sent in sentences:
        if keep is not None:
            sent = sent[rng.random(len(sent)) < keep[sent]]
        kept.append(sent)
        spans.append(rng.integers(1, window + 1, size=len(sent)))
    lengths = np.array([len(s) for s in kept], dtype=np.int64)
    return np.concatenate(kept), lengths, np.concatenate(spans)


def _pair_batches(lengths: np.ndarray, spans: np.ndarray, window: int):
    """Yield the skip-gram pairs of a token stream as ``(centers, contexts)``
    position arrays of ``BATCH_PAIRS`` pairs each (the last may be shorter).

    ``lengths`` cuts the stream into sentences; a context lies within
    ``spans[center]`` of its center and in the same sentence.  Pairs come
    center by center, each center's contexts left to right.
    """
    ends = np.cumsum(lengths)
    first = np.repeat(ends - lengths, lengths)  # sentence bounds per token
    last = np.repeat(ends, lengths)
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    carry = (np.empty(0, dtype=np.int64),) * 2
    for lo in range(0, len(spans), BATCH_PAIRS):
        pos = np.arange(lo, min(lo + BATCH_PAIRS, len(spans)))
        ctx = pos[:, None] + offsets
        inside = (
            (np.abs(offsets) <= spans[pos, None])
            & (ctx >= first[pos, None])
            & (ctx < last[pos, None])
        )
        rows, cols = np.nonzero(inside)
        centers = np.concatenate((carry[0], pos[rows]))
        contexts = np.concatenate((carry[1], ctx[rows, cols]))
        cut = len(centers) - len(centers) % BATCH_PAIRS
        for b in range(0, cut, BATCH_PAIRS):
            yield centers[b : b + BATCH_PAIRS], contexts[b : b + BATCH_PAIRS]
        carry = centers[cut:], contexts[cut:]
    if len(carry[0]):
        yield carry


def _scatter_add(w, rows: np.ndarray, coef: np.ndarray, values: np.ndarray) -> None:
    """``w[rows[b, k]] += coef[b, k] * values[b]`` for every b, k, summed in
    (b, k) order, as one sparse product over the distinct rows touched.

    The touched rows are those with a nonzero presence count, in ascending
    order, and an int32 slot map sends each row to its place among them:
    the rows and the inverse ``np.unique(rows, return_inverse=True)`` gives,
    without a sort.  The int32 CSC arrays are taken by scipy as they are.
    Column b holds pair b's k entries in order, so ``csc_matvecs`` adds
    them to each touched row in (b, k) order."""
    flat = rows.ravel()
    touched = np.flatnonzero(np.bincount(flat))
    slot = np.empty(len(w), dtype=np.int32)
    slot[touched] = np.arange(len(touched), dtype=np.int32)
    n, k = rows.shape
    spread = sp.csc_matrix(
        (coef.ravel(), slot[flat], np.arange(0, n * k + 1, k, dtype=np.int32)),
        shape=(len(touched), n),
    )
    w[touched] += spread @ values


def _sgns_step(w_in, w_out, centers, contexts, negs, lr: float) -> float:
    """One minibatch of skip-gram negative-sampling SGD, in place.

    Row b pairs ``centers[b]`` with ``contexts[b]`` (label 1) and with each
    of ``negs[b]`` (label 0; a negative equal to the context has weight 0).
    Every gradient is taken at the parameters before the batch; they are
    then added to ``w_out`` and ``w_in`` in row order by :func:`_scatter_add`.
    The log-sigmoid of the scores is taken once: the gradient reads its
    ``exp``, the sigmoid, which raises no overflow warning at any finite
    score, and the positive loss term reads it as it is.  All of it is
    numpy's, so training loads no dense scipy module.  Returns the batch's
    summed loss.
    """
    targets = np.concatenate((contexts[:, None], negs), axis=1)
    weight = np.concatenate((np.ones((len(contexts), 1)), negs != contexts[:, None]), axis=1)
    labels = np.zeros(targets.shape)
    labels[:, 0] = 1.0
    v = w_in[centers]
    u = w_out[targets]
    scores = np.einsum("bd,bkd->bk", v, u)
    log_sig = _log_sigmoid(scores)
    grad = (labels - np.exp(log_sig)) * weight * lr
    grad_in = np.einsum("bk,bkd->bd", grad, u)
    _scatter_add(w_out, targets, grad, v)
    _scatter_add(w_in, centers[:, None], np.ones((len(centers), 1)), grad_in)
    loss = log_sig[:, 0].sum() + (weight[:, 1:] * _log_sigmoid(-scores[:, 1:])).sum()
    return -float(loss)


def _noise_buckets(cum: np.ndarray) -> np.ndarray:
    """The bucket table of :func:`_draw_negatives` for the cumulative noise
    distribution ``cum``: entry j is ``np.searchsorted(cum, j / M)`` for
    j = 0..M, where M is the least power of two of at least ``8 * len(cum)``.
    It holds at most ``16 * len(cum)`` entries."""
    m = 1 << (8 * len(cum) - 1).bit_length()
    return np.searchsorted(cum, np.arange(m + 1) / m)


def _draw_negatives(cum: np.ndarray, buckets: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, keys)`` for keys in [0, 1), through the table
    ``buckets`` of :func:`_noise_buckets`.

    Key r lies in bucket ``b = int(r * M)``; the product is exact, since M
    is a power of two.  Its term lies in ``[buckets[b], buckets[b + 1]]``.
    A bucket that spans at most one boundary places the key with one
    comparison, ``lo + (cum[lo] < r)``; keys in wider buckets fall back
    to ``np.searchsorted``.  The terms are the same for every key, zero-mass
    terms included, since both find the first ``cum`` entry not below it.
    """
    m = len(buckets) - 1
    bucket = (keys * m).astype(np.intp)
    lo = buckets[bucket]
    out = lo + (cum[lo] < keys)
    wide = buckets[bucket + 1] - lo > 1
    if wide.any():
        out[wide] = np.searchsorted(cum, keys[wide])
    return out


def train_skipgram(
    corpus: Corpus, vocab: Vocabulary, cfg: EmbeddingConfig | None = None, seed: int = 0
) -> TermMatrix:
    """Train skip-gram vectors with negative sampling over ``corpus``.

    Minibatched SGD (Ji et al. 2016, arXiv:1604.04661): every (center,
    context) pair within a random window of width 1..window is a positive
    example, with ``negatives`` draws from the unigram distribution raised
    to 3/4 as negative examples.  Pairs are taken center by center in
    batches of ``BATCH_PAIRS``; each batch computes all its gradients at
    the same parameters and then applies them.  The learning rate is one
    per batch, decayed linearly over the tokens to a floor of
    ``initial_lr * LR_FLOOR_RATIO``.  Terms rarer than ``min_count`` keep an
    all-zero row.  Deterministic for a fixed seed, which is recorded in
    ``meta["seed"]``; the per-epoch mean pair loss lands in ``meta["objective"]``.
    """
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    if not corpus.docs:
        raise ValueError("corpus is empty")
    cfg = cfg or EmbeddingConfig()
    rng = np.random.default_rng(_seed(seed))

    freqs = np.array([vocab.freq[t] for t in vocab.terms], dtype=np.float64)
    trainable = freqs >= cfg.min_count
    sentences = []
    for doc in corpus.docs:
        ids = [vocab.index[t] for t in doc.tokens if t in vocab.index]
        ids = [i for i in ids if trainable[i]]
        if len(ids) > 1:
            sentences.append(np.asarray(ids, dtype=np.int64))

    noise = np.where(trainable, freqs, 0.0) ** 0.75  # sums to 0 only with no sentences
    cum = np.cumsum(noise / max(noise.sum(), 1e-300))
    cum[-1] = 1.0  # every draw in [0, 1) lands on a term
    buckets = _noise_buckets(cum)

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
        if sentences:
            tokens, lengths, spans = _epoch_stream(sentences, keep, cfg.window, rng)
            for centers, contexts in _pair_batches(lengths, spans, cfg.window):
                done = (processed + centers[0]) / (total_words + 1)
                lr = max(cfg.initial_lr * (1.0 - done), lr_floor)
                negs = _draw_negatives(cum, buckets, rng.random((len(centers), cfg.negatives)))
                loss_sum += _sgns_step(w_in, w_out, tokens[centers], tokens[contexts], negs, lr)
                n_pairs += len(centers)
            processed += len(tokens)
        objective.append(loss_sum / max(n_pairs, 1))

    w_in[~trainable] = 0.0
    if not np.isfinite(w_in).all():
        raise FloatingPointError("skip-gram training produced non-finite vectors")
    return TermMatrix(
        "EMBEDDING",
        list(vocab.terms),
        w_in,
        meta={"objective": objective, "config": asdict(cfg), "seed": seed},
    )


def save_embeddings(tm: TermMatrix, path) -> None:
    """Write vectors in the textual word2vec format: 'count dim' header, then
    one line per term (token followed by the vector values).  Refuses, before
    creating the file, what :func:`read_word2vec` would reject: zero
    dimensions, a term that is empty, holds whitespace or is not UTF-8, or
    a vector that holds NaN or infinity.  The text is written a line at a
    time; one line of it is held in memory."""
    if tm.dims < 1:
        raise ValueError(f"word2vec vectors need at least one dimension, got {tm.dims}")
    for term in tm.terms:
        if term.split() != [term]:
            raise ValueError(f"term {term!r} must be non-empty and free of whitespace")
    _check_utf8(tm.terms, lambda i: f"term {tm.terms[i]!r}")
    bad = np.flatnonzero(~np.isfinite(tm.matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"the vector of term {tm.terms[bad[0]]!r} holds a non-finite value")
    line = "%s " + _row_format(tm.dims) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tm.terms)} {tm.dims}\n")
        for term, row in zip(tm.terms, tm.matrix):
            fh.write(line % (term, *row.tolist()))


def read_word2vec(path) -> tuple[list[str], np.ndarray]:
    """Parse a textual word2vec file into (words, matrix).  A malformed
    line, a value that is not a finite number, or a byte that is not UTF-8
    raises ``ValueError`` naming the file and the line.

    The file is read once, in chunks of ``_READ_CHUNK`` lines.  Each line's
    word is kept, and the rest of the line goes to numpy's C reader
    (``np.loadtxt``), which parses every value of every row.  A chunk that
    numpy refuses, or that holds a row of another width or a non-finite
    value, is parsed again line by line through ``float``; that pass names
    the line at fault, and it also reads what ``float`` accepts and numpy
    does not, such as ``1_0``.  Beyond the words and the matrix, the reader
    holds one chunk of lines, plus one more copy of the matrix while the
    parsed chunks are joined.
    """
    with open(path, encoding="utf-8") as fh, _naming_bad_utf8(path):
        header = fh.readline().split()
        try:
            count, dim = map(int, header)
        except ValueError:
            raise ValueError(f"{path}:1: malformed header, expected 'count dim'") from None
        if count < 0 or dim < 1:
            raise ValueError(f"{path}:1: malformed header values {header}")
        words: list[str] = []
        blocks = [np.empty((0, dim))]
        lineno = 2  # the number of the chunk's first line
        while chunk := list(itertools.islice(fh, _READ_CHUNK)):
            named: list[str] = []
            block = None
            # A chunk without vector lines skips np.loadtxt, which would warn.
            if not all(map(str.isspace, chunk)):
                try:
                    block = np.loadtxt(_rests(chunk, named), comments=None, ndmin=2)
                except ValueError:
                    pass
            if block is None or block.shape != (len(named), dim) or not np.isfinite(block).all():
                named, block = _parse_lines(path, chunk, lineno, dim)
            words += named
            blocks.append(block)
            lineno += len(chunk)
    if len(words) != count:
        raise ValueError(f"{path}: header announces {count} vectors, file has {len(words)}")
    return words, np.concatenate(blocks)


def _rests(lines: list[str], words: list[str]):
    """Each vector line of ``lines`` without its word, which goes to
    ``words``.  A line that holds only a word raises ``ValueError``."""
    for line in lines:
        fields = line.split(None, 1)
        if fields:
            word, rest = fields
            words.append(word)
            yield rest


def _parse_lines(path, lines: list[str], first: int, dim: int) -> tuple[list[str], np.ndarray]:
    """The words and rows of ``lines``, the first of which is line ``first``
    of ``path``, one line at a time and each value through ``float``; raises
    the error of the first line at fault."""
    words, rows = [], []
    for lineno, line in enumerate(lines, start=first):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != dim + 1:
            raise ValueError(f"{path}:{lineno}: expected {dim + 1} fields, found {len(fields)}")
        rows.append(_parse_row(fields[1:], f"{path}:{lineno}"))
        words.append(fields[0])
    return words, np.array(rows, dtype=np.float64).reshape(len(rows), dim)


def _first_rows(words: list[str]) -> dict[str, int]:
    """Each distinct word's first row, in the order the words first appear:
    a word listed twice keeps its first row."""
    first: dict[str, int] = {}
    for i, word in enumerate(words):
        first.setdefault(word, i)
    return first


def project_embeddings(words: list[str], matrix, vocab: Vocabulary, source) -> TermMatrix:
    """Project vectors ``matrix`` (row i belongs to ``words[i]``) onto ``vocab``.

    Vocabulary terms missing from ``words`` get zero rows; the fraction found
    is reported in ``meta["coverage"]``.  A word listed twice keeps its first
    row.  ``source`` names where the vectors came from, in ``meta["source"]``.
    A matrix that is not 2-d, or whose row count is not ``len(words)``, is
    refused.
    """
    if matrix.ndim != 2 or len(matrix) != len(words):
        raise ValueError(
            f"matrix must be 2-d with one row per word, got shape {matrix.shape} "
            f"for {len(words)} words"
        )
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    first = _first_rows(words)
    rows = np.array([first.get(term, -1) for term in vocab.terms], dtype=np.int64)
    found = rows >= 0
    out = np.zeros((len(vocab), matrix.shape[1]))
    out[found] = matrix[rows[found]]
    return TermMatrix(
        "EMBEDDING",
        list(vocab.terms),
        out,
        meta={"coverage": int(found.sum()) / len(vocab), "source": str(source)},
    )


def load_embeddings(path, vocab: Vocabulary) -> TermMatrix:
    """Read a pretrained vector file and project it onto ``vocab`` with
    :func:`project_embeddings`."""
    words, matrix = read_word2vec(path)
    return project_embeddings(words, matrix, vocab, source=path)


def nearest_neighbors(tm: TermMatrix, term: str, k: int) -> list[tuple[str, float]]:
    """Top-k cosine neighbors of ``term`` (query excluded; ties lexicographic)."""
    if not _positive_int(k):
        raise ValueError(f"k must be a positive integer, got {k!r}")
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
