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
