# Measure corpus characteristics (type-token ratio, lexical density,
# sophistication, shortness, imbalance, hardness) on several synthetic
# "genres" and correlate them with each representation's accuracy
# improvement over bag-of-words.

from dtrkit import (
    RepConfig,
    collection_stats,
    correlation_map,
    correlation_map_to_csv,
    cross_validate,
    make_synthetic_corpus,
    top_terms_tfidf,
)

# Genres differ in document length and topical strength, which moves both
# the characteristics and the classifier scores around.
genre_params = {
    "chatter": dict(tokens_per_doc=40, topical_fraction=0.06, shared_terms=300),
    "reviews": dict(tokens_per_doc=110, topical_fraction=0.10, shared_terms=180),
    "essays": dict(tokens_per_doc=220, topical_fraction=0.12, shared_terms=140),
    "threads": dict(tokens_per_doc=70, topical_fraction=0.08, shared_terms=260),
}

corpora = {}
for i, (name, params) in enumerate(genre_params.items()):
    corpus = make_synthetic_corpus(authors_per_category=25, seed=31 + i, **params)
    # drop a few category-1 authors so class imbalance differs per genre
    keep = [j for j, doc in enumerate(corpus.docs) if doc.labels["topic"] == "cat0"]
    keep += [j for j, doc in enumerate(corpus.docs) if doc.labels["topic"] == "cat1"][: 25 - 2 * i]
    corpora[name] = corpus.subset(sorted(keep))

stats = {}
for name, corpus in corpora.items():
    stats[name] = collection_stats(corpus, "topic")
    row = ", ".join(f"{k}={v:.4f}" for k, v in stats[name].as_dict().items())
    print(f"{name:8s} {row}")

print("\nrunning 5-fold evaluation per genre (bow baseline, dor and ssr)...")
reports, baselines = {}, {}
for name, corpus in corpora.items():
    baselines[name] = cross_validate(corpus, "topic", RepConfig(kind="bow"), k=5, seed=11)
    reports[name] = {
        kind: cross_validate(corpus, "topic", RepConfig(kind=kind), k=5, seed=11)
        for kind in ("dor", "ssr")
    }
    accs = {kind: round(r.mean_accuracy, 3) for kind, r in reports[name].items()}
    print(f"  {name:8s} bow={baselines[name].mean_accuracy:.3f} {accs}")

# Lexical density is 1.0 for every genre here (the generator emits only
# content words), so its column is flagged nan: correlation against a
# constant is undefined and stays undefined rather than becoming a number.
table = correlation_map(reports, baselines, stats)
print("\ncorrelation of characteristics with improvement over bow:")
print(correlation_map_to_csv(table))

# tf-idf interpretability: the strongest words of one author
author = corpora["essays"].docs[0].author_id
[words] = top_terms_tfidf(corpora["essays"], [author], n=10)
print(f"top tf-idf words of {author}: {[t for t, _ in words]}")
