"""The synthetic corpus generator against its scalar reference: the same
documents for a seed, and the generator left in the same state."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtrkit.synthetic import _draw_tokens, make_synthetic_corpus

from oracles import naive_synthetic_corpus, naive_token_draws

# A count of 1 draws no bits; 2_500_000_001 and 3_000_000_000 reject about
# 42% and 30% of their Lemire draws; 2**32 and above take other numpy paths.
COUNTS = [1, 2, 3, 30, 120, 2**31, 2_500_000_001, 3_000_000_000, 2**32 - 1, 2**32, 2**33 + 5]
FRACTIONS = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0, 1)
SEEDS = st.integers(-(2**64), 2**64)


@settings(deadline=None)
@given(
    n_categories=st.integers(2, 3),
    authors_per_category=st.integers(1, 3),
    exclusive_terms=st.integers(1, 4),
    shared_terms=st.integers(1, 4),
    tokens_per_doc=st.integers(1, 40),
    topical_fraction=FRACTIONS,
    seed=SEEDS,
)
@example(2, 2, 1, 1, 5, 0.5, 0)
@example(2, 2, 30, 120, 150, 0.0, -1)
@example(2, 2, 30, 120, 150, 1.0, 2**63 + 5)
def test_corpus_equals_the_scalar_loop(
    n_categories,
    authors_per_category,
    exclusive_terms,
    shared_terms,
    tokens_per_doc,
    topical_fraction,
    seed,
):
    shape = (n_categories, authors_per_category, exclusive_terms, shared_terms, tokens_per_doc)
    got = make_synthetic_corpus(*shape, topical_fraction, "topic", seed)
    want = naive_synthetic_corpus(*shape, topical_fraction, "topic", seed)
    assert got.tasks == want.tasks
    assert [(d.author_id, d.text, d.labels) for d in got.docs] == [
        (d.author_id, d.text, d.labels) for d in want.docs
    ]


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    lead=st.integers(0, 3),
    documents=st.lists(st.integers(1, 60), min_size=1, max_size=4),
    topical_fraction=FRACTIONS,
    n_topical=st.sampled_from(COUNTS),
    n_shared=st.sampled_from(COUNTS),
)
# Frequent rejections, counts of 1 and a long document, each from an empty
# buffer and from a buffered half (``lead`` scalar integers(7) calls first).
@example(20240817, 0, [7, 8, 1, 300], 0.4, 3_000_000_000, 2_500_000_001)
@example(20240817, 1, [7, 8, 1, 300], 0.4, 3_000_000_000, 2_500_000_001)
@example(20240817, 0, [1, 2, 300], 0.4, 1, 5)
@example(20240817, 1, [1, 2, 300], 0.4, 2, 1)
@example(20240817, 1, [2, 300], 0.4, 30, 120)
def test_draws_and_state_equal_the_scalar_calls(
    seed, lead, documents, topical_fraction, n_topical, n_shared
):
    # Documents drawn one after another from two generators, vectorised and
    # scalar; each document's draws and the state after it must agree.
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (fast, slow):
        for _ in range(lead):
            rng.integers(7)
    for n_tokens in documents:
        topical, index = _draw_tokens(fast, n_tokens, topical_fraction, n_topical, n_shared)
        assert (topical.tolist(), index.tolist()) == naive_token_draws(
            slow, n_tokens, topical_fraction, n_topical, n_shared
        )
        assert fast.bit_generator.state == slow.bit_generator.state
