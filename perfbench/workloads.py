"""Workload shapes and the seeded input generator.

Every input the program sees is generated here from the workload seed,
through the library's public functions only (``make_synthetic_corpus``,
``save_jsonl``, ``save_embeddings``), and handed to ``dtrkit`` as files.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TASK = "topic"

# The comment on each shape says why it was chosen; BENCHMARK.json repeats
# it on one line per workload.  The shapes are about 8x smaller than the
# full-size corpora in ROADMAP.md, so that a 30 s run holds 3-5 iterations.
# Each accuracy floor sits about 0.1 below the lowest mean accuracy seen
# over 10-15 seeds.
WORKLOADS = {
    # Few authors with long documents (the blogs shape).  The |V|^2 TCOR
    # build and the per-document aggregation over a ~94%-dense TCOR dominate;
    # the classifier matters only for DOR.  topical_fraction=0.03 gives about
    # as many topical tokens per document as 0.02 of 800, the accuracy canary
    # of the full-size corpus, and keeps accuracy below 1.
    "long-docs": {
        "corpus": {
            "n_categories": 2,
            "authors_per_category": 50,
            "exclusive_terms": 50,
            "shared_terms": 600,
            "tokens_per_doc": 500,
            "topical_fraction": 0.03,
        },
        "kinds": ["bow", "dor", "tcor", "ssr"],
        "folds": 10,
        "top_terms": {"count": 3, "words": 10},
        "floors": {"bow": 0.65, "dor": 0.7, "tcor": 0.85, "ssr": 0.75},
    },
    # Many short documents, multiclass (the social-media / reviews shape).
    # Per-document Python loops and the one-vs-rest dual-CD solver on dense
    # DOR features dominate; top-terms asks for enough authors that the
    # per-author tf-idf pass dominates it.  TCOR is left out: at this |V| it
    # would be the whole run.
    "many-authors": {
        "corpus": {
            "n_categories": 4,
            "authors_per_category": 45,
            "exclusive_terms": 50,
            "shared_terms": 800,
            "tokens_per_doc": 100,
            "topical_fraction": 0.08,
        },
        "kinds": ["bow", "dor", "ssr"],
        "folds": 10,
        "top_terms": {"count": 45, "words": 10},
        "floors": {"bow": 0.65, "dor": 0.7, "ssr": 0.9},
    },
    # The only workload that enters the embeddings module; the other two
    # bypass it.  w2v-train is compute-bound per-pair SGD (one epoch gives
    # chance accuracy, so its floor is 0 and only completeness and
    # determinism are checked); w2v-pretrained re-parses a vectors file about
    # 30x the vocabulary in every fold.
    "embeddings": {
        "corpus": {
            "n_categories": 2,
            "authors_per_category": 20,
            "exclusive_terms": 20,
            "shared_terms": 160,
            "tokens_per_doc": 80,
            "topical_fraction": 0.1,
        },
        "kinds": ["w2v-train", "w2v-pretrained"],
        "folds": 5,
        "embedding": {"dim": 50, "epochs": 1},
        "vectors": {"dim": 50, "distractors": 6000, "coverage": 0.9},
        "top_terms": {"count": 3, "words": 10},
        "floors": {"w2v-train": 0.0, "w2v-pretrained": 0.9},
    },
}


def tiny(name: str) -> dict:
    """The shape of workload ``name`` shrunk to run in about a second."""
    spec = copy.deepcopy(WORKLOADS[name])
    spec["corpus"].update(authors_per_category=6, tokens_per_doc=30)
    spec["corpus"]["shared_terms"] = min(spec["corpus"]["shared_terms"], 60)
    spec["folds"] = 3
    spec["top_terms"]["count"] = 2
    if "vectors" in spec:
        spec["vectors"]["distractors"] = 50
    spec["floors"] = {kind: 0.0 for kind in spec["kinds"]}
    return spec


def import_dtrkit():
    """Import ``dtrkit`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "dtrkit" / "__init__.py").is_file():
        raise ImportError(f"no dtrkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import dtrkit
    import dtrkit.cli  # not imported by the package itself

    if Path(dtrkit.__file__).resolve().parent != (src / "dtrkit").resolve():
        raise ImportError(f"dtrkit was imported from {dtrkit.__file__}, not from {src}")
    return dtrkit


def _write_vectors(dtrkit, corpus, spec: dict, seed: int, path: Path) -> None:
    # Each corpus term points toward the categories that use it (a topical
    # term toward one axis, a shared term toward their mix) plus noise; a
    # seeded share of the terms is left out so coverage stays below 1, and
    # distractor rows that no corpus uses make the file ~30x the vocabulary.
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    cats = corpus.categories(TASK)
    usage: dict[str, np.ndarray] = {}
    for doc in corpus.docs:
        c = cats.index(doc.labels[TASK])
        for term, count in doc.counts.items():
            usage.setdefault(term, np.zeros(len(cats)))[c] += count
    terms = [t for t in sorted(usage) if rng.random() < spec["coverage"]]
    words = terms + [f"zz{i:06d}" for i in range(spec["distractors"])]
    matrix = rng.normal(0.0, 0.2, size=(len(words), spec["dim"]))
    for i, term in enumerate(terms):
        matrix[i, : len(cats)] += usage[term] / usage[term].sum()
    order = rng.permutation(len(words))
    tm = dtrkit.TermMatrix("EMBEDDING", [words[i] for i in order], matrix[order])
    dtrkit.save_embeddings(tm, path)


def generate(dtrkit, name: str, spec: dict, seed: int, out_dir: Path) -> dict:
    """Write the corpus, vectors file and run config for one workload.

    Returns the paths the program is given.  The same seed writes the same
    bytes.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = dtrkit.make_synthetic_corpus(task=TASK, seed=seed, **spec["corpus"])
    corpus_path = out_dir / "corpus.jsonl"
    dtrkit.save_jsonl(corpus, corpus_path)
    reps = []
    for kind in spec["kinds"]:
        rep: dict = {"kind": kind}
        if kind == "w2v-train":
            rep["embedding"] = dict(spec["embedding"])
        elif kind == "w2v-pretrained":
            vectors_path = out_dir / "vectors.txt"
            _write_vectors(dtrkit, corpus, spec["vectors"], seed, vectors_path)
            rep["pretrained_path"] = str(vectors_path)
        reps.append(rep)
    config = {
        "seed": seed,
        "corpora": [{"name": name, "path": str(corpus_path), "format": "jsonl"}],
        "tasks": [TASK],
        "representations": reps,
        "evaluation": {"folds": spec["folds"]},
    }
    config_path = out_dir / "run.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {"corpus": str(corpus_path), "config": str(config_path)}
