import numpy as np
import pytest
from hypothesis import settings

from dtrkit import embeddings, representations
from dtrkit.corpus import AuthorDoc, Corpus
from dtrkit.evaluation import cross_validate

# CI runs every property test on more examples (pytest
# --hypothesis-profile=ci); a local run keeps the defaults and its runtime.
# A test's own settings still take precedence.
settings.register_profile("ci", max_examples=1000, deadline=None)


def corpus_from_tokens(token_lists, labels=None, task="cat"):
    """Build a corpus whose documents tokenize exactly to the given lists.

    Token lists must contain plain lowercase alphanumeric words so that
    joining with spaces round-trips through the tokenizer.
    """
    docs = []
    for i, tokens in enumerate(token_lists):
        label = labels[i] if labels is not None else "x"
        docs.append(
            AuthorDoc.from_text(f"doc{i:03d}", " ".join(tokens), {task: label})
        )
    return Corpus(docs, frozenset({task}))


# Every builder of a term matrix that the fold step of cross_validate calls.
FOLD_BUILDERS = (
    (representations, "build_dor"),
    (representations, "build_tcor"),
    (representations, "build_ssr"),
    (embeddings, "train_skipgram"),
    (embeddings, "project_embeddings"),
)


def cross_validate_recording(*args, **kwargs):
    """``cross_validate(*args, **kwargs)`` and the term matrices its folds
    built, in fold order (none for ``bow``).  For the call, each builder is
    rebound in its module to one that also records what it returns."""
    built = []

    def recording(build):
        def record(*a, **kw):
            built.append(build(*a, **kw))
            return built[-1]

        return record

    with pytest.MonkeyPatch.context() as patch:
        for module, name in FOLD_BUILDERS:
            patch.setattr(module, name, recording(getattr(module, name)))
        report = cross_validate(*args, **kwargs)
    return report, built


def random_token_lists(rng, max_docs=5, max_terms=10, max_len=30):
    """Random micro-corpus token lists over a tiny alphabet."""
    alphabet = [f"t{i}" for i in range(int(rng.integers(2, max_terms + 1)))]
    n_docs = int(rng.integers(1, max_docs + 1))
    lists = []
    for _ in range(n_docs):
        length = int(rng.integers(1, max_len + 1))
        lists.append([alphabet[int(k)] for k in rng.integers(0, len(alphabet), length)])
    return lists


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
