"""Seeded synthetic author corpora with exclusive per-category vocabularies."""

from __future__ import annotations

import numpy as np

from .corpus import AuthorDoc, Corpus, _finite_real, _integer, _positive_int, _seed

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
    background vocabulary.  Deterministic for a fixed seed.  The four counts
    must be positive integers and ``topical_fraction`` a number in [0, 1].
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
    rng = np.random.default_rng(_seed(seed))
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
