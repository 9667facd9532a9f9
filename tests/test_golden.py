"""Golden output: a small seeded ``dtrkit run`` over all six representation
kinds must write the same report bytes as when the digests were pinned.

Reports hold predictions, accuracies, feature dimensions and Wilcoxon
results, so the last bits of a BLAS sum should not move them unless a
prediction flips.  Every kind scores 1.0 on this corpus, so no prediction
sits near a decision boundary.  The top-terms CSV is left out: its
information-gain floats can move by an ulp across numpy versions.

A change to a digest must be listed, with its reason, in CHANGES.md.
"""

import hashlib
import json

from dtrkit.cli import main
from dtrkit.corpus import build_vocabulary, save_jsonl
from dtrkit.embeddings import EmbeddingConfig, save_embeddings, train_skipgram
from dtrkit.evaluation import REP_KINDS
from dtrkit.synthetic import make_synthetic_corpus

EMBEDDING = {"dim": 20, "epochs": 10, "window": 3}

GOLDEN_SHA256 = {
    "golden_topic_bow.json": "387fd8f3102b157f1d7da678d24bb7e97eb5f3a1264b3eee6af89e74f961eaae",
    "golden_topic_dor.json": "89f78d9d3829d8d25fc3b417a3a4a1427093c7660bcae960cae34815c4dd826e",
    "golden_topic_tcor.json": "a94bf6cb660652877fd83dde11a5cc57f0fe66e5d83cf59dfbd138f3c6bfc05c",
    "golden_topic_ssr.json": "61e4d49736e3436cb60960a550c584b78ce9bfd2bf829c8fcf8c1d6c967b130f",
    "golden_topic_w2v-train.json": "967d1ec3c5f8c54433022572e4552fe40b343f8654a5b7716fcea1f7c7b22763",
    "golden_topic_w2v-pretrained.json": (
        "bfac1230497c13df70278f48d5fd8a7aee77be59504c7bb9d7569e02435f911f"
    ),
    "golden_topic_folds.csv": "51abd608771c4533dc759c2b1aca5365106bc0793c24a665f460cf8dd6440066",
}


def test_seeded_run_writes_the_pinned_reports(tmp_path):
    corpus = make_synthetic_corpus(
        authors_per_category=8,
        tokens_per_doc=100,
        topical_fraction=0.5,
        exclusive_terms=10,
        shared_terms=40,
        seed=3,
    )
    save_jsonl(corpus, tmp_path / "golden.jsonl")
    vectors = train_skipgram(
        corpus, build_vocabulary(corpus, None), EmbeddingConfig(**EMBEDDING), seed=11
    )
    save_embeddings(vectors, tmp_path / "vectors.txt")
    reps = [{"kind": kind} for kind in REP_KINDS]
    reps[REP_KINDS.index("w2v-train")]["embedding"] = EMBEDDING
    reps[REP_KINDS.index("w2v-pretrained")]["pretrained_path"] = str(tmp_path / "vectors.txt")
    config = {
        "seed": 11,
        "output_dir": str(tmp_path / "reports"),
        "corpora": [{"name": "golden", "path": str(tmp_path / "golden.jsonl"), "format": "jsonl"}],
        "tasks": ["topic"],
        "representations": reps,
        "evaluation": {"folds": 4},
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "reports" / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
