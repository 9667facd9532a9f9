import json
import os
import subprocess
import sys
from pathlib import Path

import dtrkit
from dtrkit import classifier, corpus, embeddings, evaluation, representations, stopwords, synthetic

MODULES = (corpus, representations, embeddings, classifier, evaluation, stopwords, synthetic)


def test_public_names_are_the_modules_all_joined():
    assert dtrkit.__all__ == [name for module in MODULES for name in module.__all__] + [
        "__version__"
    ]


def test_no_public_name_repeats():
    # A star import would silently let a later module's name shadow an earlier one.
    assert len(set(dtrkit.__all__)) == len(dtrkit.__all__)


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dtrkit, name) is getattr(module, name), name


def test_import_loads_no_dense_scipy_module():
    # scipy.linalg, scipy.special and scipy.stats cost megabytes of resident
    # memory, and importing the package and its CLI must not load them.  Some
    # scipy versions load part of them with scipy.sparse, which the package
    # needs; only what the package's own import adds is counted.
    code = (
        "import sys, scipy.sparse; before = set(sys.modules); import dtrkit, dtrkit.cli; "
        "dense = ('scipy.linalg', 'scipy.special', 'scipy.stats'); "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith(dense)))"
    )
    src = str(Path(dtrkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_commands_load_no_dense_scipy_module(tmp_path):
    # The rule of the import test, over calls: each command on a tiny corpus,
    # with every representation kind, loads no scipy.linalg, scipy.special or
    # scipy.stats module beyond what scipy.sparse loads.
    from dtrkit.corpus import build_vocabulary, save_jsonl
    from dtrkit.synthetic import make_synthetic_corpus

    synthetic = make_synthetic_corpus(authors_per_category=4, tokens_per_doc=30, seed=3)
    corpus = tmp_path / "c.jsonl"
    save_jsonl(synthetic, corpus)
    vectors = tmp_path / "v.txt"
    term = build_vocabulary(synthetic).terms[0]
    reps = [
        *({"kind": kind} for kind in ("bow", "dor", "tcor", "ssr")),
        {"kind": "w2v-train", "embedding": {"dim": 4, "epochs": 1}},
        {"kind": "w2v-pretrained", "pretrained_path": str(vectors)},
    ]
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "seed": 1,
                "output_dir": str(tmp_path / "reports"),
                "corpora": [{"path": str(corpus), "format": "jsonl"}],
                "tasks": ["topic"],
                "representations": reps,
                "evaluation": {"folds": 2},
            }
        ),
        encoding="utf-8",
    )
    commands = [
        ["embed-train", "--corpus", corpus, "--out", vectors, "--seed", "1", "--dim", "4"],
        ["embed-neighbors", "--vectors", vectors, "--term", term, "-k", "2"],
        ["run", "--config", config],
        ["top-terms", "--corpus", corpus, "--task", "topic", "--out", tmp_path / "top.csv"],
        ["characterize", "--corpus", corpus, "--out", tmp_path / "char.csv"],
    ]
    code = (
        "import sys, scipy.sparse; before = set(sys.modules); from dtrkit.cli import main; "
        f"codes = [main(argv) for argv in {[[str(arg) for arg in argv] for argv in commands]!r}]; "
        "dense = ('scipy.linalg', 'scipy.special', 'scipy.stats'); "
        "print(codes, sorted(m for m in set(sys.modules) - before if m.startswith(dense)))"
    )
    src = str(Path(dtrkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"
