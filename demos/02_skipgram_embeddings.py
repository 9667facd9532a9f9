# Train skip-gram vectors with negative sampling on a synthetic corpus and
# poke at the geometry: words sharing contexts should end up close.

import numpy as np

from dtrkit import (
    EmbeddingConfig,
    build_vocabulary,
    load_embeddings,
    make_synthetic_corpus,
    nearest_neighbors,
    save_embeddings,
    train_skipgram,
)

corpus = make_synthetic_corpus(
    n_categories=2, authors_per_category=30, tokens_per_doc=120, seed=7
)
vocab = build_vocabulary(corpus)
print(f"training on {len(corpus)} documents, {len(vocab)} terms")

cfg = EmbeddingConfig(dim=32, window=3, negatives=5, epochs=6, seed=7)
tm = train_skipgram(corpus, vocab, cfg)

objective = tm.meta["objective"]
print("mean pair loss per epoch:", [round(v, 4) for v in objective])
assert objective[-1] <= objective[0]

# Category-0 topical words co-occur only with each other and the shared
# background, so their neighborhoods should be dominated by category-0 words.
query = "cat0x00"
print(f"\nnearest neighbors of {query!r}:")
for term, sim in nearest_neighbors(tm, query, 8):
    print(f"  {term:10s} {sim:+.3f}")

same = [sim for t, sim in nearest_neighbors(tm, query, len(vocab) - 1) if t.startswith("cat0x")]
other = [sim for t, sim in nearest_neighbors(tm, query, len(vocab) - 1) if t.startswith("cat1x")]
print(f"\nmean cosine to same-category topical words: {np.mean(same):+.3f}")
print(f"mean cosine to other-category topical words: {np.mean(other):+.3f}")

# Vectors interchange losslessly through the textual word2vec format.
save_embeddings(tm, "/tmp/demo_vectors.txt")
back = load_embeddings("/tmp/demo_vectors.txt", vocab)
print("\nreload coverage:", back.meta["coverage"], "| exact:",
      bool((back.matrix == tm.matrix).all()))
