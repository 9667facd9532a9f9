# Walk through the three count-based term representations on a toy corpus:
# occurrence profiles over documents (DOR), co-occurrence profiles over the
# vocabulary (TCOR), and per-term probability distributions over profile
# subclusters (SSR).

import tempfile
from pathlib import Path

import numpy as np

from dtrkit import (
    AuthorDoc,
    Corpus,
    aggregate_corpus,
    build_dor,
    build_ssr,
    build_tcor,
    build_vocabulary,
    cluster_subprofiles,
    load_term_matrix,
    save_term_matrix,
)

posts = {
    "user1": ("male", "i compiled the linux kernel and patched my editor config"),
    "user2": ("male", "the kernel panic was my fault , linux forgave me"),
    "user3": ("male", "benchmarking the editor on linux all night"),
    "user4": ("female", "loved the shopping trip , found vintage accessories"),
    "user5": ("female", "shopping for chocolate and vanilla macarons downtown"),
    "user6": ("female", "my accessories drawer is full of necklaces again"),
}

docs = [
    AuthorDoc.from_text(author, text, {"gender": label})
    for author, (label, text) in posts.items()
]
corpus = Corpus(docs, frozenset({"gender"}))
vocab = build_vocabulary(corpus)
print(f"{len(corpus)} authors, vocabulary of {len(vocab)} terms")
print("most frequent terms:", vocab.terms[:8])

# --- DOR: each term is a weighted profile over the six documents ----------
dor = build_dor(corpus, vocab)
print(f"\nDOR matrix: {dor.matrix.shape[0]} terms x {dor.dims} documents")
print("columns are authors:", dor.feature_names)
print("row for 'linux':", np.round(dor.row("linux"), 3))
print("row for 'shopping':", np.round(dor.row("shopping"), 3))

# --- TCOR: each term is a profile over co-occurring terms -----------------
tcor = build_tcor(corpus, vocab)
row = tcor.row("linux")
partners = sorted(
    ((row[j], t) for j, t in enumerate(tcor.terms) if row[j] > 0), reverse=True
)
print(f"\nTCOR matrix: {tcor.matrix.shape[0]} x {tcor.dims}")
print("strongest contexts of 'linux':", [t for _, t in partners[:5]])

# --- SSR: distribution of each term over gender subprofiles ---------------
assignment = cluster_subprofiles(corpus, "gender", vocab, k_per_class=1, seed=0)
ssr = build_ssr(corpus, vocab, assignment)
print(f"\nSSR subprofiles: {ssr.feature_names}")
for term in ("linux", "shopping", "the"):
    print(f"  p(subprofile | {term!r}) = {np.round(ssr.row(term), 3)}")

# --- documents become convex combinations of their term vectors -----------
# The corpus interns its tokens once: sorted distinct terms, one count row per
# document.  Every document-side feature is a column selection of it.
print(f"\n{len(corpus.terms)} distinct tokens, counts matrix {corpus.counts.shape}")
doc_vecs = aggregate_corpus(corpus, ssr, vocab, weighting="mean")
print(f"{corpus.docs[0].author_id} aggregated over SSR:", np.round(doc_vecs[0], 3))
# One document on its own is a one-document corpus.
alone = aggregate_corpus(corpus.subset([0]), ssr, vocab, weighting="mean")[0]
print("same row from a one-document subset:", bool(np.allclose(alone, doc_vecs[0])))

# --- matrices round-trip through the textual container --------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "ssr_demo.txt"
    save_term_matrix(ssr, path)
    back = load_term_matrix(path)
print("round-trip exact:", bool((back.matrix == ssr.matrix).all()))
