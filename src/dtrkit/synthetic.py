"""Seeded synthetic author corpora with exclusive per-category vocabularies."""

from __future__ import annotations

import numpy as np

from .corpus import (
    AuthorDoc,
    Corpus,
    _check_task_name,
    _finite_real,
    _integer,
    _positive_int,
    _seed,
)

__all__ = ["make_synthetic_corpus"]


def make_synthetic_corpus(
    n_categories: int = 2,
    authors_per_category: int = 100,
    exclusive_terms: int = 30,
    shared_terms: int = 120,
    tokens_per_doc: int = 150,
    topical_fraction: float = 0.5,
    task: str = "topic",
    seed: int = 0,
) -> Corpus:
    """Generate a near-separable labeled corpus.

    Each category owns ``exclusive_terms`` topical words that only its
    authors use; the rest of every document is drawn from a shared
    background vocabulary.  The four counts must be positive integers,
    ``topical_fraction`` a number in [0, 1] and ``task`` a name that
    ``Corpus`` takes; each is checked before anything is drawn.

    The draw order is the contract: a seed gives the same corpus, byte for
    byte, as every earlier version.  Each token is ``rng.random() <
    topical_fraction`` (topical or shared), then ``rng.integers(n)`` over
    that list, in document order; ``_draw_tokens`` makes those draws for a
    whole document at once.  Beside the corpus it holds a few arrays as long
    as one document's tokens.
    """
    if not (_integer(n_categories) and n_categories >= 2):
        raise ValueError(f"need at least two categories, got n_categories={n_categories!r}")
    counts = {
        "authors_per_category": authors_per_category,
        "exclusive_terms": exclusive_terms,
        "shared_terms": shared_terms,
        "tokens_per_doc": tokens_per_doc,
    }
    for name, value in counts.items():
        if not _positive_int(value):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if not (_finite_real(topical_fraction) and 0 <= topical_fraction <= 1):
        raise ValueError(
            f"topical_fraction must be a finite number in [0, 1], got {topical_fraction!r}"
        )
    _check_task_name(task)
    rng = np.random.default_rng(_seed(seed))
    shared = [f"w{i:03d}" for i in range(shared_terms)]
    docs = []
    for c in range(n_categories):
        cat = f"cat{c}"
        # Topical words first, then the shared ones: one list to index.
        words = [f"{cat}x{j:02d}" for j in range(exclusive_terms)] + shared
        for a in range(authors_per_category):
            topical, index = _draw_tokens(
                rng, tokens_per_doc, topical_fraction, exclusive_terms, shared_terms
            )
            index[~topical] += exclusive_terms
            text = " ".join(map(words.__getitem__, index.tolist()))
            docs.append(AuthorDoc.from_text(f"{cat}a{a:03d}", text, {task: cat}))
    docs.sort(key=lambda d: d.author_id)
    return Corpus(docs, frozenset({task}))


_LOW = np.uint64(0xFFFFFFFF)  # the low 32-bit half of a word


def _draw_tokens(
    rng: np.random.Generator, n_tokens: int, topical_fraction: float, n_topical: int, n_shared: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each token's ``(topical, index)`` as ``n_tokens`` rounds of the calls
    ``topical = rng.random() < topical_fraction`` and then
    ``index = rng.integers(n_topical if topical else n_shared)`` give them,
    bit for bit, and ``rng`` left in the state those calls leave it in.

    For PCG64 (the generator ``default_rng`` makes), ``random()`` is one
    64-bit word ``w`` mapped to ``(w >> 11) * 2**-53``.  ``integers(n)``
    takes one 32-bit half ``h`` and returns ``(h * n) >> 32`` (Lemire's
    multiply), rejecting ``h`` while the low 32 bits of ``h * n`` fall below
    ``(2**32 - n) % n``.  The halves come through a one-half buffer
    (``has_uint32``/``uinteger`` in ``bit_generator.state``): a fresh word
    gives its low half and keeps its high half for the next call.  So a run
    of tokens has a fixed layout of words: a buffered half serves the first
    token's index, then every two tokens read three words (random, integer,
    random).  Each run draws its words with one ``random_raw`` call and
    maps them all at once.

    A Lemire rejection (below ``n / 2**32`` per draw) ends the run: the
    generator is reset to the state before that token (its words drawn
    again through ``random_raw``, then the buffer fields set), the token is
    drawn with the scalar calls, and the next run starts after it.  With a
    count of 1, which draws no bits, or of ``2**32`` or more, which numpy
    draws another way, every token is drawn with the scalar calls.  The
    arrays held grow with ``n_tokens``."""
    topical = np.empty(n_tokens, dtype=bool)
    index = np.empty(n_tokens, dtype=np.int64)
    bitgen, random, integers = rng.bit_generator, rng.random, rng.integers
    vectorised = 2 <= min(n_topical, n_shared) and max(n_topical, n_shared) < 2**32
    done = 0
    while done < n_tokens:
        if vectorised:
            start = bitgen.state
            buffered = start["has_uint32"]
            count = n_tokens - done
            # Token i of the run uses fresh half s = i - buffered (-1: the
            # buffered one): the low (s even) or high half of integer word s // 2.
            fresh = np.arange(-buffered, count - buffered)
            words = bitgen.random_raw(count + (count - buffered + 1) // 2)
            uniform = (words[np.arange(count) + (fresh + 1) // 2] >> np.uint64(11)) * 2.0**-53
            shift = (fresh & 1).astype(np.uint64) << np.uint64(5)
            halves = (words[3 * (fresh // 2) + buffered + 1] >> shift) & _LOW
            if buffered:
                halves[0] = start["uinteger"]
            run_topical = uniform < topical_fraction
            n = np.where(run_topical, n_topical, n_shared)
            product = halves * n.astype(np.uint64)
            accepted = (product & _LOW) >= (2**32 - n) % n
            k = count if accepted.all() else int(np.argmin(accepted))
            topical[done : done + k] = run_topical[:k]
            index[done : done + k] = product[:k] >> np.uint64(32)
            done += k
            if k < count:
                bitgen.state = start
                bitgen.random_raw(k + (max(k - buffered, 0) + 1) // 2)
            _set_buffer(bitgen, start, words, buffered, k)
            if done == n_tokens:
                break
        topical[done] = chosen = random() < topical_fraction
        index[done] = integers(n_topical if chosen else n_shared)
        done += 1
    return topical, index


def _set_buffer(bitgen, start: dict, words: np.ndarray, buffered: int, k: int) -> None:
    """Set the one-half buffer of ``bitgen`` to what the first ``k`` tokens
    of a run that began at state ``start`` with ``words`` leave there."""
    state = bitgen.state
    used = k - buffered  # fresh halves the k tokens took
    if used >= 1:
        # The high half of the last integer word, still waiting if used is odd.
        state["has_uint32"] = used & 1
        state["uinteger"] = int(words[3 * ((used - 1) // 2) + buffered + 1] >> np.uint64(32))
    else:
        state["has_uint32"] = buffered - k
        state["uinteger"] = start["uinteger"]
    bitgen.state = state
