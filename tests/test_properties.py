"""Property tests for the corpus count matrix and everything read from it,
and for the SVM model, term-matrix and word2vec containers."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dtrkit.classifier import SvmModel, load_svm_model, save_svm_model
from dtrkit.corpus import AuthorDoc, Corpus, build_vocabulary, tokenize
from dtrkit.embeddings import read_word2vec, save_embeddings
from dtrkit.representations import (
    TERM_MATRIX_KINDS,
    TermMatrix,
    count_matrix,
    load_term_matrix,
    save_term_matrix,
)

from oracles import naive_counts

# Few characters, so tokens often sort between one another ("a" < "a'" <
# "ab" < "b"); symbol runs and an emoji stand in for non-word tokens.
TOKENS = st.text(alphabet="ab'€:)+\U0001F600", min_size=1, max_size=3)


@st.composite
def corpora(draw):
    """Token lists (empty documents included) plus a non-empty row subset."""
    token_lists = draw(st.lists(st.lists(TOKENS, max_size=12), min_size=1, max_size=8))
    idx = draw(st.permutations(range(len(token_lists))))
    idx = idx[: draw(st.integers(1, len(token_lists)))]
    max_terms = draw(st.none() | st.integers(1, 6))
    return token_lists, idx, max_terms


def corpus_of(token_lists, rows=None):
    rows = range(len(token_lists)) if rows is None else rows
    docs = [
        AuthorDoc(f"d{i}", " ".join(token_lists[i]), list(token_lists[i]), {"cat": "x"})
        for i in rows
    ]
    return Corpus(docs, frozenset({"cat"}))


def same_vocabulary(a, b) -> None:
    assert a.terms == b.terms
    assert a.index == b.index
    assert a.freq == b.freq


@settings(deadline=None)
@given(corpora())
def test_counts_match_naive_table(case):
    token_lists, _, _ = case
    corpus = corpus_of(token_lists)
    terms, table = naive_counts(token_lists)
    assert corpus.terms == terms
    assert corpus.counts.dtype == np.float64
    np.testing.assert_array_equal(corpus.counts.toarray(), table)


@settings(deadline=None)
@given(corpora())
def test_subset_equals_fresh_corpus(case):
    token_lists, idx, max_terms = case
    full = corpus_of(token_lists)
    sub = full.subset(idx)
    fresh = corpus_of(token_lists, idx)
    assert sub.terms == fresh.terms
    np.testing.assert_array_equal(sub.counts.toarray(), fresh.counts.toarray())

    vocab = build_vocabulary(sub, max_terms)
    same_vocabulary(vocab, build_vocabulary(fresh, max_terms))
    # A vocabulary of the subset and one of the whole corpus, which holds
    # terms the subset lacks.
    for v in (vocab, build_vocabulary(full, max_terms)):
        got = count_matrix(sub, v).toarray()
        np.testing.assert_array_equal(got, count_matrix(fresh, v).toarray())
        terms, table = naive_counts([token_lists[i] for i in idx])
        want = np.zeros((len(idx), len(v)))
        for j, term in enumerate(terms):
            if term in v.index:
                want[:, v.index[term]] = table[:, j]
        np.testing.assert_array_equal(got, want)


@settings(deadline=None)
@given(corpora())
def test_vocabulary_ranks_by_frequency_then_term(case):
    token_lists, _, max_terms = case
    vocab = build_vocabulary(corpus_of(token_lists), max_terms)
    terms, table = naive_counts(token_lists)
    freq = dict(zip(terms, table.sum(axis=0).astype(int).tolist()))
    ranked = sorted(terms, key=lambda t: (-freq[t], t))
    assert vocab.terms == ranked[:max_terms]
    assert vocab.freq == {t: freq[t] for t in vocab.terms}
    assert vocab.index == {t: i for i, t in enumerate(vocab.terms)}


# Every finite float, with the signed zero, the smallest subnormal and the
# extremes drawn often.
FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)
# Any unicode text, plus spaces, quotes and non-ASCII drawn often.
CATEGORY = st.text(max_size=6) | st.sampled_from(
    [" ", "a b", '"', "'", 'say "hi"', "\u00e9t\u00e9", "\U0001F600"]
)
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.text() | FLOATS


@st.composite
def svm_models(draw):
    categories = draw(st.lists(CATEGORY, min_size=2, max_size=5, unique=True))
    n_features = draw(st.integers(0, 4))
    n_machines = 1 if len(categories) == 2 else len(categories)
    vectors = st.lists(FLOATS, min_size=n_features, max_size=n_features).map(np.array)
    size = n_machines * (n_features + 1)
    weights = draw(st.lists(FLOATS, min_size=size, max_size=size))
    mean = scale = None
    if draw(st.booleans()):
        mean, scale = draw(vectors), draw(vectors)
    return SvmModel(
        categories,
        draw(st.floats(min_value=5e-324, max_value=1.7e308)),
        np.array(weights).reshape(n_machines, n_features + 1),
        n_features,
        meta=draw(st.dictionaries(st.text(max_size=5), JSON_SCALARS, max_size=4)),
        feature_mean=mean,
        feature_scale=scale,
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None)
@given(svm_models())
def test_svm_model_round_trips_bit_for_bit(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_svm_model(model, path)
        back = load_svm_model(path)
    assert back.categories == model.categories
    assert back.C == model.C
    assert back.n_features == model.n_features
    assert back.meta == model.meta
    assert same_bits(back.weights, model.weights)
    if model.feature_mean is None:
        assert back.feature_mean is None and back.feature_scale is None
    else:
        assert same_bits(back.feature_mean, model.feature_mean)
        assert same_bits(back.feature_scale, model.feature_scale)


# Strings that pass the Corpus author-id check (non-empty, no line
# boundary), with spaces, tabs, slashes, quotes and non-ASCII drawn often.
IDS = (
    st.text(min_size=1, max_size=6)
    | st.sampled_from([" ", "a b", "\t", "x/0", '"', "\u00e9t\u00e9", "\U0001F600"])
).filter(lambda s: s.splitlines() == [s])


def float_matrices(n_rows, n_cols):
    """Strategy for an (n_rows, n_cols) float64 array, some rows all zero."""
    size = n_rows * n_cols
    values = st.lists(FLOATS, min_size=size, max_size=size)
    zero_rows = st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)

    def build(args):
        flat, zero = args
        matrix = np.array(flat, dtype=np.float64).reshape(n_rows, n_cols)
        matrix[np.array(zero, dtype=bool)] = 0.0
        return matrix

    return st.tuples(values, zero_rows).map(build)


@st.composite
def term_matrices(draw):
    kind = draw(st.sampled_from(TERM_MATRIX_KINDS))
    n_terms, dims = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    feature_names = None
    if kind != "EMBEDDING":
        feature_names = draw(st.lists(IDS, min_size=dims, max_size=dims, unique=True))
    return TermMatrix(
        kind,
        draw(st.lists(IDS, min_size=n_terms, max_size=n_terms, unique=True)),
        draw(float_matrices(n_terms, dims)),
        feature_names=feature_names,
        meta=draw(st.dictionaries(st.text(max_size=5), JSON_SCALARS, max_size=4)),
    )


@settings(deadline=None)
@given(term_matrices(), st.sampled_from(["text", "npz"]))
def test_term_matrix_round_trips_bit_for_bit(tm, mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix"
        save_term_matrix(tm, path, mode=mode)
        back = load_term_matrix(path)
    assert back.rep_kind == tm.rep_kind
    assert back.terms == tm.terms
    assert back.feature_names == tm.feature_names
    assert back.meta == tm.meta
    assert same_bits(back.matrix, tm.matrix)


@st.composite
def embedding_matrices(draw):
    """Embeddings over distinct tokens that ``tokenize`` produced."""
    text = draw(st.text(max_size=40))
    terms = list(dict.fromkeys(tokenize(text)))
    # The word2vec header requires at least one dimension.
    dims = draw(st.integers(1, 3))
    return TermMatrix("EMBEDDING", terms, draw(float_matrices(len(terms), dims)))


@settings(deadline=None)
@given(embedding_matrices())
def test_word2vec_round_trips_bit_for_bit(tm):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.txt"
        save_embeddings(tm, path)
        words, matrix = read_word2vec(path)
    assert words == tm.terms
    assert same_bits(matrix, tm.matrix)
