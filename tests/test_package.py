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
