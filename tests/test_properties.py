"""Property tests for the tokenizer, the corpus count matrix and everything
read from it, stratified folds and each fold's vocabulary and sides, SSR
k-means, the SVM solver, and the SVM model, term-matrix and word2vec
containers."""

import json
import math
import struct
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtrkit import embeddings, representations
from dtrkit.classifier import SvmModel, load_svm_model, save_svm_model, train_linear_svm
from dtrkit.corpus import AuthorDoc, Corpus, Vocabulary, build_vocabulary, tokenize
from dtrkit.embeddings import read_word2vec, save_embeddings
from dtrkit.evaluation import _fold_table, collection_stats, stratified_kfold
from dtrkit.representations import (
    TERM_MATRIX_KINDS,
    TermMatrix,
    count_matrix,
    load_term_matrix,
    save_term_matrix,
)

from oracles import (
    naive_count_matrix,
    naive_counts,
    naive_fmt_row,
    naive_fold_table,
    naive_imbalance_and_hardness,
    naive_kmeans,
    naive_read_word2vec,
    naive_tokenize,
)

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


# Any unicode text, plus whitespace, apostrophes, symbol runs and case
# changes drawn often.
TEXTS = st.text() | st.text(alphabet="aB' \t\n.€:)+\u00c9\u0130\U0001F600")


@given(TEXTS)
def test_tokenize_keeps_every_non_space_character(text):
    tokens = tokenize(text)
    assert all(tok and tok.split() == [tok] for tok in tokens)
    assert "".join(tokens) == "".join(text.lower().split())
    assert tokenize(" ".join(tokens)) == tokens


# Letters (one that lowercases to two characters, and a capital sigma whose
# lowercase depends on its neighbours), ASCII and non-ASCII digits,
# apostrophes, underscores, punctuation, currency and math symbols, emoji,
# combining marks (nonspacing, spacing and enclosing), and whitespace as
# str.split() sees it (the no-break, em and ideographic spaces, NEL and the
# separators U+001C-U+001F), so symbol runs touch words, punctuation and each
# other across every kind of space.
TOKENIZER_TEXTS = st.text() | st.text(
    alphabet="aZ\u00e9\u0130\u03a39\u0663\u00b2_'\u2019.,!?:;-()#@%$\u20ac\u00a3+=<>~^|"
    "\u2192\u00a9\U0001F600\U0001F44D\u0301\u093e\u20dd"
    " \t\n\u00a0\u2003\u3000\u0085\x1c\x1d\x1e\x1f"
)


@given(TOKENIZER_TEXTS)
# Every chunk alphanumeric: the whole document is split with no regular expression.
@example("Hello World 42 \u0663\u00b2 \u00c9T\u00c9\u3000\u039f\u0394\u039f\u03a3\x1cZ")
# "_" is a word character to re but not alphanumeric: this one takes the regular expressions.
@example("snake_case words")
# Alphanumeric chunks between chunks that take the regular expressions.
@example("Don't\u00a0stop:) \u20ac5 \u039f\u03a3, x_y \u00e9\u0301\u0085?! \U0001F600\U0001F44D ok")
# Marks stay in their word: a dotted capital I lowercases to i and U+0307, and a
# decomposed accent, a spacing mark, a mark after a symbol, a space or a run.
@example("\u0130stanbul cafe\u0301 \u0915\u093e \u20ac\u0301 \u0301x ?!\u0301 don't\u20dd.")
def test_tokenize_matches_naive_tokenize(text):
    assert tokenize(text) == naive_tokenize(text)


@given(st.lists(st.tuples(st.lists(TOKENS, max_size=8), st.sampled_from("abc")), min_size=1))
def test_category_figures_match_naive_sets(docs):
    tokens, labels = [t for t, _ in docs], [label for _, label in docs]
    corpus = Corpus(
        [AuthorDoc(f"d{i}", "", t, {"cat": label}) for i, (t, label) in enumerate(docs)],
        frozenset({"cat"}),
    )
    stats = collection_stats(corpus, "cat", stopwords=())
    assert (stats.imbalance, stats.hardness) == naive_imbalance_and_hardness(tokens, labels)


@st.composite
def fold_cases(draw):
    """Labels from one to four categories and a fold count in [1, n], n drawn often."""
    categories = "abcd"[: draw(st.integers(1, 4))]
    labels = draw(st.lists(st.sampled_from(categories), min_size=1, max_size=30))
    k = draw(st.integers(1, len(labels)) | st.just(len(labels)))
    return labels, k, draw(st.integers(0, 2**64))


@given(fold_cases())
def test_stratified_folds_partition_and_balance(case):
    labels, k, seed = case
    folds = stratified_kfold(labels, k=k, seed=seed)
    assert len(folds) == k
    assert sorted(i for fold in folds for i in fold) == list(range(len(labels)))
    for cat in set(labels):
        per_fold = [sum(labels[i] == cat for i in fold) for fold in folds]
        assert max(per_fold) - min(per_fold) <= 1
    assert stratified_kfold(labels, k=k, seed=seed) == folds


@st.composite
def kmeans_cases(draw):
    """One category's rows for SSR k-means: a few distinct rows (all-zero ones
    included) repeated, so a category often has fewer distinct rows than k;
    integer rows as drawn, or scaled to unit length like term frequencies."""
    dims = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 3) | st.floats(0.0, 1.0), min_size=dims, max_size=dims)
    distinct = np.array(draw(st.lists(row, min_size=1, max_size=6)), dtype=np.float64)
    n = draw(st.integers(1, 4) | st.integers(1, 60))
    X = distinct[draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))]
    k = draw(st.integers(1, min(n, 4)) | st.just(min(n, 4)))
    unit, max_iter = draw(st.booleans()), draw(st.sampled_from([1, 2, 100]))
    return kmeans_case(X, k, unit, max_iter, seed=draw(st.integers(0, 2**64 - 1)))


def kmeans_case(rows, k, unit=False, max_iter=100, seed=0):
    X = np.array(rows, dtype=np.float64)
    if unit:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        X = np.divide(X, norms, out=np.zeros_like(X), where=norms > 0)
    return X, k, max_iter, seed


# Three distinct unit rows and k = 4: the draws hit duplicates, and cluster
# means computed as a one-hot matrix product changed these labels.
FEW_DISTINCT = np.array([[0, 0, 2], [3, 1, 3], [1, 2, 3]])[
    [2, 1, 2, 1, 1, 2, 2, 1, 1, 0, 0, 2, 1, 0, 2, 2]
]


@settings(deadline=None)
@given(kmeans_cases())
@example(kmeans_case([[1, 2]] * 5, 3))  # one distinct row: every later draw sees total == 0
@example(kmeans_case(FEW_DISTINCT, 4, unit=True))
@example(kmeans_case([[0, 0]] * 3 + [[1, 0]], 3))  # all-zero rows
@example(kmeans_case([[1, 0], [0, 1], [1, 1]], 3))  # n == k
@example(kmeans_case([[1], [2]], 1))
def test_kmeans_matches_naive_kmeans(case):
    # Same labels, and the generator left in the same state, as k-means run
    # one restart at a time; max_iter 1 and 2 stop restarts mid-descent.
    X, k, max_iter, seed = case
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = naive_kmeans(X, k, want_rng, max_iter=max_iter)
    with mock.patch.object(representations, "_KMEANS_MAX_ITER", max_iter):
        got = representations._kmeans(X, k, got_rng)
    assert got.tolist() == want.tolist()
    assert got_rng.random() == want_rng.random()


@st.composite
def count_tables(draw):
    """A document x term table of small counts and a co-occurrence block size."""
    n_docs, n_terms = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    row = st.lists(st.integers(0, 3), min_size=n_terms, max_size=n_terms)
    rows = draw(st.lists(row, min_size=n_docs, max_size=n_docs))
    return np.array(rows, dtype=np.float64), draw(st.integers(1, 3))


@settings(deadline=None)
@given(count_tables())
@example((np.eye(7) + np.eye(7, k=1) + 2 * np.eye(7, k=-3), 3))  # blocks of 3, 3 and 1 row
def test_cooccurrence_counts_equal_float64_product(case):
    table, block = case
    present = (table > 0).astype(np.float64)
    with mock.patch.object(representations, "_TCOR_BLOCK", block):
        got = representations._cooccurrence_counts(sp.csr_matrix(table))
    assert got.dtype == np.float64
    assert got.tobytes() == (present.T @ present).tobytes()


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
    assert sub.counts.shape == fresh.counts.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(sub.counts, name), getattr(fresh.counts, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

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
@given(corpora(), st.lists(TOKENS | st.sampled_from(["absent", "zz"]), unique=True, max_size=10))
def test_count_matrix_matches_dict_oracle(case, vocab_terms):
    # Vocabulary terms in any order, some of them in no document.
    token_lists, idx, _ = case
    corpus = corpus_of(token_lists).subset(idx)
    index = {t: i for i, t in enumerate(vocab_terms)}
    vocab = Vocabulary(list(vocab_terms), index, dict.fromkeys(vocab_terms, 1))
    got = count_matrix(corpus, vocab)
    assert got.shape == (len(idx), len(vocab_terms))
    assert got.has_sorted_indices
    for start, stop in zip(got.indptr[:-1], got.indptr[1:]):
        assert (np.diff(got.indices[start:stop]) > 0).all()
    want = naive_count_matrix([token_lists[i] for i in idx], vocab_terms)
    np.testing.assert_array_equal(got.toarray(), want)


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


@st.composite
def fold_table_cases(draw):
    """Labelled token lists (empty documents included), a fold count, a seed
    and a ``max_terms`` of 1, 2, none, or one above the number of terms."""
    token_lists = draw(st.lists(st.lists(TOKENS, max_size=12), min_size=2, max_size=8))
    n = len(token_lists)
    labels = draw(st.lists(st.sampled_from("xy"), min_size=n, max_size=n))
    above = len({token for tokens in token_lists for token in tokens}) + 1
    max_terms = draw(st.sampled_from([1, 2, None, above]))
    return token_lists, labels, draw(st.integers(2, n)), draw(st.integers(0, 2**32)), max_terms


def read_only(matrix) -> bool:
    return not any(a.flags.writeable for a in (matrix.data, matrix.indices, matrix.indptr))


@settings(deadline=None)
@given(fold_table_cases())
# Leave-one-out: "d" is seen only in its test document, "a" and "b" tie in
# one training fold, the test document "b c" holds no term of its fold's
# one-term vocabulary, and the last document is empty.
@example(([["a", "a", "b"], ["b", "c"], ["d"], []], list("xyxy"), 4, 0, 1))
@example(([["a", "a", "b"], ["b", "c"], ["d"], []], list("xyxy"), 4, 0, None))
def test_fold_table_equals_subset_vocabulary_and_selection_product(case):
    token_lists, labels, k, seed, max_terms = case
    docs = [
        AuthorDoc(f"d{i}", " ".join(tokens), list(tokens), {"cat": label})
        for i, (tokens, label) in enumerate(zip(token_lists, labels))
    ]
    corpus = Corpus(docs, frozenset({"cat"}))
    got = _fold_table(corpus, "cat", k, seed, max_terms)
    want = naive_fold_table(corpus, stratified_kfold(labels, k=k, seed=seed), max_terms)
    assert len(got) == len(want) == k
    for (vocab, *sides), (want_vocab, *want_sides) in zip(got, want):
        same_vocabulary(vocab, want_vocab)
        assert all(type(f) is int for f in vocab.freq.values())
        for side, want_counts in zip(sides, want_sides):
            assert side.terms is vocab.terms
            counts = side.counts
            assert counts.shape == want_counts.shape
            for name in ("data", "indices", "indptr"):
                array, want_array = getattr(counts, name), getattr(want_counts, name)
                assert array.dtype == want_array.dtype, name
                assert array.tobytes() == want_array.tobytes(), name
            assert counts.has_sorted_indices and want_counts.has_sorted_indices
            assert read_only(counts)


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


@st.composite
def svm_problems(draw):
    """A seeded training set (every category present) and a row permutation."""
    n = draw(st.integers(4, 40))
    n_categories = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, draw(st.integers(1, 6))))
    codes = np.concatenate([np.arange(n_categories), rng.integers(0, n_categories, n)])[:n]
    labels = [f"c{k}" for k in codes]
    C = draw(st.sampled_from([0.01, 1.0, 100.0]))
    return X, labels, C, draw(st.permutations(range(n)))


@settings(deadline=None, max_examples=50)
@given(svm_problems())
def test_svm_weights_do_not_depend_on_row_order(problem):
    X, labels, C, order = problem
    model = train_linear_svm(X, labels, C=C)
    permuted = train_linear_svm(X[order], [labels[i] for i in order], C=C)
    assert permuted.categories == model.categories
    for w, v in zip(model.weights, permuted.weights):
        assert np.linalg.norm(w - v) <= 1e-10 * np.linalg.norm(w)


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
@given(term_matrices())
def test_term_matrix_round_trips_bit_for_bit(tm):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix"
        save_term_matrix(tm, path)
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


def floats_by_bits(code: str, size: int):
    """Every finite value of a float type, drawn by bit pattern, so that
    subnormals and the extremes come up."""
    bits = st.binary(min_size=size, max_size=size)
    return bits.map(lambda b: struct.unpack(code, b)[0]).filter(math.isfinite)


FLOAT64_BITS = floats_by_bits("<d", 8) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]
)
FLOAT32_BITS = floats_by_bits("<f", 4)


@st.composite
def number_rows(draw):
    """A row of 0-60 numbers: a float64, float32 or int64 array, or a list
    of floats or of ints."""
    width = draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["float64", "float32", "int64", "float list", "int list"]))
    values = {
        "float64": FLOAT64_BITS,
        "float32": FLOAT32_BITS,
        "int64": st.integers(-(2**63), 2**63 - 1),
        "float list": FLOAT64_BITS,
        "int list": st.integers(-(2**1000), 2**1000),
    }[kind]
    row = draw(st.lists(values, min_size=width, max_size=width))
    return row if kind.endswith("list") else np.array(row, dtype=kind)


@settings(deadline=None)
@given(number_rows())
def test_row_text_matches_value_by_value_oracle(row):
    assert representations._fmt_row(row) == naive_fmt_row(row)


@settings(deadline=None)
@given(embedding_matrices())
def test_word2vec_file_text_matches_oracle(tm):
    expected = f"{len(tm.terms)} {tm.dims}\n" + "".join(
        f"{term} {naive_fmt_row(row)}\n" for term, row in zip(tm.terms, tm.matrix)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.txt"
        save_embeddings(tm, path)
        assert path.read_bytes() == expected.encode("utf-8")


@settings(deadline=None)
@given(term_matrices())
def test_term_matrix_file_text_matches_oracle(tm):
    features = tm.feature_names or []
    lines = [
        "dtr-term-matrix 1",
        f"kind {tm.rep_kind}",
        f"terms {len(tm.terms)}",
        f"dims {tm.dims}",
        f"features {len(features)}",
        f"meta {json.dumps(tm.meta, sort_keys=True)}",
        *tm.terms,
        *features,
        *(naive_fmt_row(row) for row in tm.matrix),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix"
        save_term_matrix(tm, path)
        assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")


# What ``str.split`` treats as whitespace, some of it outside ASCII.
W2V_SEPARATORS = [" ", "\t", "\xa0", "\x1c", "\x85", "\u3000"]
# Values that ``float`` reads, or not, in more than one way: non-finite,
# overflowing and underflowing, an underscore and an Arabic-Indic digit.
W2V_VALUES = st.sampled_from(
    ["nan", "inf", "-Infinity", "1e999", "1e-400", "1_0", "\u0661", "x", "-0", "+.5E3"]
) | FLOATS.map(repr)


@st.composite
def word2vec_texts(draw):
    """The text of a vectors file: rows of dim values, and now and then a
    row one value short or long, a line that holds only a word, a blank or
    whitespace-only line, a word holding whitespace, a header count off by
    one or 0, and mixed line endings."""
    dim = draw(st.integers(1, 3))
    sep = st.text(st.sampled_from(W2V_SEPARATORS), min_size=1, max_size=2)
    word = st.text(st.sampled_from(["a", "b", "\u00e9", *W2V_SEPARATORS]), min_size=1, max_size=3)
    # Plain values alone let a file reach the end of np.loadtxt's path.
    value = st.floats(-2, 2).map(repr) if draw(st.booleans()) else W2V_VALUES
    lines, rows = [], 0
    # A row (r), one value short (s) or long (l), a word alone (w), blank (b).
    for kind in draw(st.lists(st.sampled_from("rrrrrrbwsl"), max_size=8)):
        if kind in "rsl":
            n = dim + {"r": 0, "s": -1, "l": 1}[kind]
            values = draw(st.lists(value, min_size=n, max_size=n))
            rows += 1
            line = draw(word.filter(str.strip)) + "".join(draw(sep) + v for v in values)
        elif kind == "w":
            line = draw(word)
        else:
            line = draw(st.text(st.sampled_from(W2V_SEPARATORS), max_size=2))
        lines.append(draw(st.sampled_from(["", " "])) + line + draw(st.sampled_from(["", "\t"])))
    count = draw(st.sampled_from([rows, rows, rows, rows - 1, rows + 1, 0]))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(text + draw(ends) for text in [f"{count} {dim}", *lines])


def read_outcome(read, path):
    try:
        words, matrix = read(path)
    except ValueError as exc:
        return "error", str(exc)
    return words, matrix.dtype, matrix.shape, matrix.tobytes()


@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=300)
@given(word2vec_texts())
@example("0 2\n")
@example("0 0\n")
@example("-1 2\n")
@example("0 2\n\n \t\n")  # no vector lines: np.loadtxt must not warn
@example("1 2\nfoo\n")
@example("1 2\nfoo 1_0 2\n")
@example("2 1\nfoo 1\nbar \u0661\n")
@example("2 2\nfoo 1 2\nbar 3\xa04\r\n")
def test_read_word2vec_matches_naive_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = read_outcome(naive_read_word2vec, path)
        # Chunks of 1 and 2 lines put a chunk boundary next to every line.
        for chunk in (embeddings._READ_CHUNK, 1, 2):
            with mock.patch.object(embeddings, "_READ_CHUNK", chunk):
                assert read_outcome(read_word2vec, path) == expected
