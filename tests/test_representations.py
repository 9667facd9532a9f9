import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dtrkit import representations
from dtrkit.classifier import SvmModel, build_bow_matrix, load_svm_model, save_svm_model
from dtrkit.corpus import AuthorDoc, Corpus, build_vocabulary
from dtrkit.representations import (
    SubprofileAssignment,
    TermMatrix,
    _normalize_ssr,
    _raw_subclass_weights,
    aggregate_corpus,
    build_dor,
    build_ssr,
    build_tcor,
    cluster_subprofiles,
    count_matrix,
    load_term_matrix,
    save_term_matrix,
)
from dtrkit.synthetic import make_synthetic_corpus

from conftest import corpus_from_tokens, random_token_lists
from oracles import best_two_partition_sse, naive_aggregate, naive_dor, naive_tcor

DOR_EXAMPLE = 1.4546471909787544  # (1 + ln 3) * ln(8/4)
TCOR_EXAMPLE = 1.1736001944781467  # (1 + ln 2) * ln(8/4)
SSR_RAW_EXAMPLE = 0.2630344058337938  # log2(1 + 2/10)


def vocab_of(corpus, max_terms=None):
    return build_vocabulary(corpus, max_terms)


class TestCountMatrix:
    def test_every_count_matrix_is_read_only(self):
        corpus = corpus_from_tokens([["a", "b", "a"], ["c"]])
        vocab = vocab_of(corpus)
        side = corpus._over_vocabulary(range(len(corpus)), vocab)
        # A corpus's own counts, a subset's, a computed selection and the counts of
        # a corpus over the vocabulary.
        selected = count_matrix(corpus, vocab)
        for counts in (corpus.counts, corpus.subset([1]).counts, selected, side.counts):
            for array in (counts.data, counts.indices, counts.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 7

    def test_a_corpus_over_the_vocabulary_holds_its_count_matrix(self):
        corpus = corpus_from_tokens([["a", "b", "a"], ["c", "d"]])
        vocab = vocab_of(corpus, max_terms=2)
        side = corpus._over_vocabulary(range(len(corpus)), vocab)
        assert side.terms is vocab.terms
        assert [d.author_id for d in side.docs] == [d.author_id for d in corpus.docs]
        np.testing.assert_array_equal(side.counts.toarray(), count_matrix(corpus, vocab).toarray())
        assert count_matrix(side, vocab) is side.counts
        # Another vocabulary selects from the side's columns as from any corpus.
        np.testing.assert_array_equal(
            count_matrix(side, vocab_of(corpus, max_terms=1)).toarray(), [[2.0], [0.0]]
        )
        # A document corpus gets a new matrix on each call.
        assert count_matrix(corpus, vocab) is not count_matrix(corpus, vocab)

    def test_builders_leave_the_shared_matrix_unchanged(self):
        corpus = corpus_from_tokens([["a", "b", "a"], ["c", "c", "b"]], labels=["x", "y"])
        vocab = vocab_of(corpus)
        want = count_matrix(corpus, vocab).toarray()
        tcor = build_tcor(corpus, vocab)
        for weighting in ("mean", "tf-weighted"):
            aggregate_corpus(corpus, tcor, vocab, weighting)
        for weighting in ("tf", "boolean"):
            build_bow_matrix(corpus, vocab, weighting).data[:] = 5.0
        np.testing.assert_array_equal(count_matrix(corpus, vocab).toarray(), want)


class TestBuildDor:
    def test_matches_naive_double_loop_on_random_micro_corpora(self, rng):
        for _ in range(50):
            lists = random_token_lists(rng)
            corpus = corpus_from_tokens(lists)
            vocab = vocab_of(corpus)
            got = build_dor(corpus, vocab).matrix
            want = naive_dor([d.tokens for d in corpus.docs], vocab.terms)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_worked_example(self):
        # Doc 0 holds the probed term 3 times among 4 distinct terms; 4 more
        # one-term docs pad the vocabulary to 8 terms.
        lists = [["t", "t", "t", "a", "b", "c"], ["d"], ["e"], ["f"], ["g"]]
        corpus = corpus_from_tokens(lists)
        vocab = vocab_of(corpus)
        tm = build_dor(corpus, vocab)
        assert tm.matrix[vocab.index["t"], 0] == pytest.approx(DOR_EXAMPLE, abs=1e-12)

    def test_absent_term_weights_zero(self):
        corpus = corpus_from_tokens([["a", "b"], ["c"]])
        vocab = vocab_of(corpus)
        assert build_dor(corpus, vocab).matrix[vocab.index["c"], 0] == 0.0

    def test_doc_covering_whole_vocabulary_weights_zero(self):
        corpus = corpus_from_tokens([["a", "b", "c"]])
        vocab = vocab_of(corpus)
        np.testing.assert_array_equal(build_dor(corpus, vocab).matrix, 0.0)

    def test_empty_document_warns_and_zeroes_column(self):
        corpus = corpus_from_tokens([["a", "a", "b"], ["zzz"]])
        vocab = build_vocabulary(corpus, max_terms=2)
        assert "zzz" not in vocab
        with pytest.warns(UserWarning, match="doc001"):
            tm = build_dor(corpus, vocab)
        np.testing.assert_array_equal(tm.matrix[:, 1], 0.0)

    def test_shape_and_feature_names(self):
        corpus = corpus_from_tokens([["a"], ["a", "b"], ["b"]])
        vocab = vocab_of(corpus)
        tm = build_dor(corpus, vocab)
        assert tm.rep_kind == "DOR"
        assert tm.dims == 3
        assert tm.feature_names == ["doc000", "doc001", "doc002"]

    def test_all_weights_nonnegative(self, rng):
        for _ in range(10):
            corpus = corpus_from_tokens(random_token_lists(rng))
            tm = build_dor(corpus, vocab_of(corpus))
            assert (tm.matrix >= 0).all()


class TestBuildTcor:
    def test_matches_naive_double_loop_on_random_micro_corpora(self, rng):
        for _ in range(50):
            corpus = corpus_from_tokens(random_token_lists(rng))
            vocab = vocab_of(corpus)
            mode = ("feature-term", "row-term")[int(rng.integers(2))]
            got = build_tcor(corpus, vocab, idf_mode=mode).matrix
            want = naive_tcor([d.tokens for d in corpus.docs], vocab.terms, mode)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_worked_example(self):
        # tj co-occurs with exactly {ti, a, b, c}; the (ti, tj) pair shares two
        # documents; singleton docs pad the vocabulary to 8 terms.
        lists = [
            ["tj", "ti", "a"],
            ["tj", "ti", "b"],
            ["tj", "c"],
            ["e"],
            ["f"],
            ["g"],
        ]
        corpus = corpus_from_tokens(lists)
        vocab = vocab_of(corpus)
        assert len(vocab) == 8
        tm = build_tcor(corpus, vocab)
        got = tm.matrix[vocab.index["ti"], vocab.index["tj"]]
        assert got == pytest.approx(TCOR_EXAMPLE, abs=1e-12)

    def test_never_sharing_a_document_weights_zero(self):
        corpus = corpus_from_tokens([["a", "b"], ["c", "d"]])
        vocab = vocab_of(corpus)
        dense = build_tcor(corpus, vocab).matrix
        assert dense[vocab.index["a"], vocab.index["c"]] == 0.0

    def test_diagonal_is_zero(self, rng):
        corpus = corpus_from_tokens(random_token_lists(rng))
        dense = build_tcor(corpus, vocab_of(corpus)).matrix
        np.testing.assert_array_equal(np.diag(dense), 0.0)

    def test_cooccurrence_counts_symmetric(self, rng):
        for _ in range(10):
            corpus = corpus_from_tokens(random_token_lists(rng))
            vocab = vocab_of(corpus)
            counts = count_matrix(corpus, vocab)
            binary = counts.copy()
            binary.data = np.ones_like(binary.data)
            co = (binary.T @ binary).toarray()
            np.testing.assert_array_equal(co, co.T)

    def test_bad_idf_mode(self):
        corpus = corpus_from_tokens([["a", "b"]])
        with pytest.raises(ValueError, match="idf_mode"):
            build_tcor(corpus, vocab_of(corpus), idf_mode="global")

    def test_refuses_more_documents_than_float32_counts_exactly(self, monkeypatch):
        monkeypatch.setattr(representations, "_FLOAT32_EXACT", 3)
        lists = [["a", "b"], ["b", "c"], ["a", "c"], ["a", "b", "c"]]
        three, four = corpus_from_tokens(lists[:3]), corpus_from_tokens(lists)
        build_tcor(three, vocab_of(three))
        with pytest.raises(ValueError, match="exact for at most 3 documents, got 4"):
            build_tcor(four, vocab_of(four))

    def test_peak_memory_is_the_result_its_mask_and_a_float32_copy(self):
        # 400 documents over |V| = 1560 terms, as a fold side: the builder
        # reads the side's own counts and allocates everything it holds.
        corpus = make_synthetic_corpus(
            authors_per_category=200, tokens_per_doc=300, shared_terms=1500,
            topical_fraction=0.02, seed=3,
        )
        vocab = vocab_of(corpus)
        train = corpus._over_vocabulary(range(len(corpus)), vocab)
        n, v = len(train), len(vocab)
        assert v >= 1000
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            build_tcor(train, vocab)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        # The result and its n > 0 mask are 1.125 x |V|^2 x 8 bytes; a float64
        # copy of the 0/1 documents would add n x |V| x 8 bytes more.
        assert peak <= 1.2 * v * v * 8 + n * v * 4


class TestClusterSubprofiles:
    def test_single_cluster_reproduces_categories(self):
        corpus = corpus_from_tokens(
            [["a"], ["b"], ["c"], ["d"]], labels=["x", "x", "y", "y"]
        )
        assignment = cluster_subprofiles(corpus, "cat", vocab_of(corpus), 1, seed=0)
        assert assignment.subclass_labels == ["x/0", "y/0"]
        assert assignment.mapping == {"doc000": 0, "doc001": 0, "doc002": 1, "doc003": 1}

    def test_separated_groups_land_in_different_subclasses(self):
        # One category, two topical camps plus a second category to satisfy
        # the build contract.
        lists = (
            [["red", "red", "crimson"]] * 3
            + [["blue", "azure", "blue"]] * 3
            + [["other"]]
        )
        labels = ["x"] * 6 + ["y"]
        corpus = corpus_from_tokens(lists, labels=labels)
        vocab = vocab_of(corpus)
        assignment = cluster_subprofiles(corpus, "cat", vocab, 2, seed=7)
        reds = {assignment.mapping[f"doc{i:03d}"] for i in range(3)}
        blues = {assignment.mapping[f"doc{i:03d}"] for i in range(3, 6)}
        assert len(reds) == 1 and len(blues) == 1
        assert reds != blues

    def test_matches_brute_force_partition(self, rng):
        # Six 2-d points, one category; compare against exhaustive 2-means.
        from dtrkit.representations import _kmeans

        for _ in range(10):
            points = rng.normal(size=(6, 2))
            points /= np.linalg.norm(points, axis=1, keepdims=True)
            labels = _kmeans(points, 2, np.random.default_rng(3))
            got = frozenset(
                frozenset(np.flatnonzero(labels == side)) for side in (0, 1)
            )
            assert got in best_two_partition_sse(points)

    def test_cluster_count_capped_by_category_size(self):
        corpus = corpus_from_tokens([["a"], ["b"]], labels=["x", "y"])
        assignment = cluster_subprofiles(corpus, "cat", vocab_of(corpus), 3, seed=0)
        assert assignment.subclass_labels == ["x/0", "y/0"]

    def test_deterministic_given_seed(self):
        corpus = corpus_from_tokens(
            [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]], labels=["x"] * 4
        )
        vocab = vocab_of(corpus)
        first = cluster_subprofiles(corpus, "cat", vocab, 2, seed=42)
        second = cluster_subprofiles(corpus, "cat", vocab, 2, seed=42)
        assert first == second

    def test_authors_stay_inside_their_category(self):
        corpus = corpus_from_tokens(
            [["a"], ["b"], ["c"], ["d"], ["e"], ["f"]],
            labels=["x", "y", "x", "y", "x", "y"],
        )
        assignment = cluster_subprofiles(corpus, "cat", vocab_of(corpus), 2, seed=1)
        for doc in corpus.docs:
            label = assignment.subclass_labels[assignment.mapping[doc.author_id]]
            assert label.split("/")[0] == doc.labels["cat"]


class TestBuildSsr:
    def test_single_class_support_is_one_hot(self):
        corpus = corpus_from_tokens(
            [["only", "filler"], ["filler", "pad"]], labels=["x", "y"]
        )
        vocab = vocab_of(corpus)
        assignment = cluster_subprofiles(corpus, "cat", vocab, 1, seed=0)
        dense = build_ssr(corpus, vocab, assignment).matrix
        np.testing.assert_allclose(dense[vocab.index["only"]], [1.0, 0.0])

    def test_raw_contribution_worked_example(self):
        corpus = corpus_from_tokens(
            [["t", "t"] + ["pad"] * 8, ["pad", "q"]], labels=["x", "y"]
        )
        vocab = vocab_of(corpus)
        assignment = cluster_subprofiles(corpus, "cat", vocab, 1, seed=0)
        raw = _raw_subclass_weights(corpus, vocab, assignment)
        assert raw[vocab.index["t"], 0] == pytest.approx(SSR_RAW_EXAMPLE, abs=1e-12)

    def test_symmetric_term_splits_evenly(self):
        corpus = corpus_from_tokens(
            [["shared", "xonly"], ["shared", "yonly"]], labels=["x", "y"]
        )
        vocab = vocab_of(corpus)
        assignment = cluster_subprofiles(corpus, "cat", vocab, 1, seed=0)
        dense = build_ssr(corpus, vocab, assignment).matrix
        np.testing.assert_allclose(dense[vocab.index["shared"]], [0.5, 0.5], atol=1e-12)

    def test_supported_rows_sum_to_one_on_random_corpora(self, rng):
        for _ in range(25):
            labels = None
            lists = random_token_lists(rng, max_docs=6)
            labels = ["x" if i % 2 == 0 else "y" for i in range(len(lists))]
            if len(set(labels)) < 2:
                labels[0] = "y" if labels[0] == "x" else "x"
            corpus = corpus_from_tokens(lists, labels=labels)
            vocab = vocab_of(corpus)
            assignment = cluster_subprofiles(corpus, "cat", vocab, 2, seed=5)
            dense = build_ssr(corpus, vocab, assignment).matrix
            sums = dense.sum(axis=1)
            supported = sums > 0
            np.testing.assert_allclose(sums[supported], 1.0, atol=1e-9)
            assert ((dense >= 0) & (dense <= 1 + 1e-12)).all()

    def test_column_rescaling_leaves_result_unchanged(self, rng):
        raw = rng.random((8, 3)) + 0.05
        labels = ["a/0", "a/1", "b/0"]
        base = _normalize_ssr(raw.copy(), labels)
        scaled = raw.copy()
        scaled[:, 1] *= 37.5
        np.testing.assert_allclose(_normalize_ssr(scaled, labels), base, atol=1e-12)

    def test_zero_weight_subclass_is_hard_error(self):
        corpus = corpus_from_tokens([["a"], ["b"]], labels=["x", "y"])
        vocab = build_vocabulary(corpus, max_terms=1)  # only "a" survives
        assignment = SubprofileAssignment(
            task="cat", mapping={"doc000": 0, "doc001": 1}, subclass_labels=["x/0", "y/0"]
        )
        with pytest.raises(ValueError, match="y/0"):
            build_ssr(corpus, vocab, assignment)

    def test_uncovered_author_is_hard_error(self):
        corpus = corpus_from_tokens([["a"], ["b"]], labels=["x", "y"])
        vocab = vocab_of(corpus)
        assignment = SubprofileAssignment(
            task="cat", mapping={"doc000": 0}, subclass_labels=["x/0", "y/0"]
        )
        with pytest.raises(ValueError, match="doc001"):
            build_ssr(corpus, vocab, assignment)

    def test_k1_equals_plain_class_level_attributes(self, rng):
        # With one subclass per category the matrix must equal the direct
        # class-grouped computation.
        lists = random_token_lists(rng, max_docs=6)
        labels = ["x" if i % 2 == 0 else "y" for i in range(len(lists))]
        if len(set(labels)) < 2:
            labels.append("y")
            lists.append(["t0"])
        corpus = corpus_from_tokens(lists, labels=labels)
        vocab = vocab_of(corpus)
        assignment = cluster_subprofiles(corpus, "cat", vocab, 1, seed=0)
        got = build_ssr(corpus, vocab, assignment).matrix

        cats = corpus.categories("cat")
        raw = np.zeros((len(vocab), len(cats)))
        for doc in corpus.docs:
            k = cats.index(doc.labels["cat"])
            for term, count in doc.counts.items():
                i = vocab.index[term]
                raw[i, k] += math.log2(1.0 + count / len(doc.tokens))
        want = _normalize_ssr(raw, cats)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestAggregate:
    def make_matrix(self, vocab, rows):
        return TermMatrix("EMBEDDING", list(vocab.terms), np.asarray(rows, dtype=float))

    def test_symmetric_mean(self):
        corpus = corpus_from_tokens([["a", "b"]])
        vocab = vocab_of(corpus)
        tm = self.make_matrix(vocab, [[1.0, 0.0], [0.0, 1.0]])
        out = aggregate_corpus(corpus.subset([0]), tm, vocab, "mean")[0]
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_weighted_mean(self):
        corpus = corpus_from_tokens([["a", "a", "a", "b"]])
        vocab = vocab_of(corpus)
        tm = self.make_matrix(vocab, [[1.0, 0.0], [0.0, 1.0]])
        out = aggregate_corpus(corpus.subset([0]), tm, vocab, "mean")[0]
        np.testing.assert_allclose(out, [0.75, 0.25])

    def test_all_tokens_out_of_vocabulary(self):
        corpus = corpus_from_tokens([["a", "b"], ["zzz", "qqq"]])
        vocab = build_vocabulary(corpus, max_terms=2)
        tm = self.make_matrix(vocab, [[1.0], [2.0]])
        with pytest.warns(UserWarning, match="doc001"):
            out = aggregate_corpus(corpus.subset([1]), tm, vocab)[0]
        np.testing.assert_array_equal(out, [0.0])

    def test_token_order_invariance(self, rng):
        tokens = ["a", "b", "b", "c", "c", "c", "d"]
        for _ in range(10):
            shuffled = list(tokens)
            rng.shuffle(shuffled)
            corpus = corpus_from_tokens([tokens, shuffled], labels=["x", "x"])
            vocab = vocab_of(corpus)
            tm = self.make_matrix(vocab, rng.normal(size=(len(vocab), 3)))
            for weighting in ("mean", "tf-weighted"):
                first = aggregate_corpus(corpus.subset([0]), tm, vocab, weighting)[0]
                second = aggregate_corpus(corpus.subset([1]), tm, vocab, weighting)[0]
                np.testing.assert_allclose(first, second, atol=1e-12)

    def test_result_in_convex_hull(self, rng):
        corpus = corpus_from_tokens([["a", "a", "b", "c"]])
        vocab = vocab_of(corpus)
        rows = rng.normal(size=(3, 4))
        tm = self.make_matrix(vocab, rows)
        out = aggregate_corpus(corpus.subset([0]), tm, vocab, "mean")[0]
        assert (out <= rows.max(axis=0) + 1e-12).all()
        assert (out >= rows.min(axis=0) - 1e-12).all()

    def test_tf_weighted_alpha(self):
        corpus = corpus_from_tokens([["a", "a", "a", "b"]])
        vocab = vocab_of(corpus)
        tm = self.make_matrix(vocab, [[1.0, 0.0], [0.0, 1.0]])
        out = aggregate_corpus(corpus.subset([0]), tm, vocab, "tf-weighted")[0]
        wa, wb = 1.0 + math.log(3.0), 1.0
        np.testing.assert_allclose(
            out, [wa / (wa + wb), wb / (wa + wb)], atol=1e-12
        )

    @pytest.mark.parametrize(
        "matrix",
        [sp.csr_matrix(np.eye(2)), np.zeros(2), np.zeros((2, 1, 1)), [[1.0], [2.0]]],
        ids=["csr", "1-d", "3-d", "list"],
    )
    def test_sparse_or_non_2d_term_matrix_rejected(self, matrix):
        with pytest.raises(ValueError, match="2-D numpy array"):
            TermMatrix("DOR", ["a", "b"], matrix)

    def test_matches_naive_loop_for_every_term_matrix_kind(self, rng):
        for _ in range(10):
            lists = random_token_lists(rng, max_docs=6)
            labels = ["x" if i % 2 == 0 else "y" for i in range(len(lists))]
            corpus = corpus_from_tokens(lists, labels=labels)
            vocab = vocab_of(corpus)
            assignment = cluster_subprofiles(corpus, "cat", vocab, 2, seed=5)
            matrices = [
                build_dor(corpus, vocab),
                build_tcor(corpus, vocab),
                build_ssr(corpus, vocab, assignment),
                TermMatrix("EMBEDDING", vocab.terms, rng.normal(size=(len(vocab), 3))),
            ]
            for tm in matrices:
                assert isinstance(tm.matrix, np.ndarray) and tm.matrix.dtype == np.float64
            oov = AuthorDoc.from_text("oov", "zzz qqq", {"cat": "x"})
            docs = Corpus(corpus.docs + [oov], corpus.tasks)
            for tm in matrices:
                for weighting in ("mean", "tf-weighted"):
                    with pytest.warns(UserWarning, match="'oov' has no in-vocabulary"):
                        got = aggregate_corpus(docs, tm, vocab, weighting)
                    want = naive_aggregate(
                        [d.tokens for d in docs.docs], vocab.terms, tm.matrix, weighting
                    )
                    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
                    np.testing.assert_array_equal(got[-1], 0.0)

    def test_several_dense_blocks_match_naive_loop(self, rng):
        # 600 documents make three blocks of the weight matrix, the last one
        # partial; a document with no vocabulary term sits in the middle one.
        lists = [random_token_lists(rng, max_docs=1, max_terms=40)[0] for _ in range(600)]
        lists[300] = ["zzz"]
        corpus = corpus_from_tokens(lists)
        vocab = build_vocabulary(corpus.subset([i for i in range(600) if i != 300]))
        tm = TermMatrix("EMBEDDING", vocab.terms, rng.normal(size=(len(vocab), 5)))
        for weighting in ("mean", "tf-weighted"):
            with pytest.warns(UserWarning, match="'doc300' has no in-vocabulary"):
                got = aggregate_corpus(corpus, tm, vocab, weighting)
            want = naive_aggregate(lists, vocab.terms, tm.matrix, weighting)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
            np.testing.assert_array_equal(got[300], 0.0)

    def test_vocabulary_mismatch_rejected(self):
        corpus = corpus_from_tokens([["a", "b"]])
        vocab = vocab_of(corpus)
        tm = self.make_matrix(vocab, [[1.0], [1.0]])
        other = corpus_from_tokens([["q", "r"]])
        other_vocab = vocab_of(other)
        with pytest.raises(ValueError, match="vocabulary"):
            aggregate_corpus(corpus.subset([0]), tm, other_vocab)

    def test_unknown_weighting(self):
        corpus = corpus_from_tokens([["a"]])
        vocab = vocab_of(corpus)
        tm = self.make_matrix(vocab, [[1.0]])
        with pytest.raises(ValueError, match="weighting"):
            aggregate_corpus(corpus.subset([0]), tm, vocab, "max")


class TestSerialization:
    def test_text_roundtrip_is_exact(self, tmp_path, rng):
        values = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-12, 12, size=(5, 3))
        tm = TermMatrix(
            "EMBEDDING",
            [f"t{i}" for i in range(5)],
            values,
            feature_names=None,
            meta={"coverage": 0.5},
        )
        path = tmp_path / "m.txt"
        save_term_matrix(tm, path)
        back = load_term_matrix(path)
        assert back.rep_kind == tm.rep_kind
        assert back.terms == tm.terms
        assert back.meta == tm.meta
        np.testing.assert_array_equal(back.matrix, values)

    def test_text_roundtrip_sparse_with_features(self, tmp_path, rng):
        corpus = corpus_from_tokens(random_token_lists(rng, max_docs=4))
        vocab = vocab_of(corpus)
        tm = build_dor(corpus, vocab)
        path = tmp_path / "dor.txt"
        save_term_matrix(tm, path)
        back = load_term_matrix(path)
        assert back.feature_names == tm.feature_names
        np.testing.assert_array_equal(back.matrix, tm.matrix)

    def test_text_layout(self, tmp_path):
        tm = TermMatrix("DOR", ["a", "b"], np.array([[0.1, 0.0], [-2.5, 1e-300]]), ["d0", "d1"])
        path = tmp_path / "m.txt"
        save_term_matrix(tm, path)
        assert path.read_bytes() == (
            b"dtr-term-matrix 1\nkind DOR\nterms 2\ndims 2\nfeatures 2\nmeta {}\n"
            b"a\nb\nd0\nd1\n0.10000000000000001 0\n-2.5 1e-300\n"
        )

    def test_writing_holds_less_than_the_file(self, tmp_path, rng):
        # A 300 x 300 matrix is about 1.8 MB of text; written a row at a
        # time, far less of it is held at once.
        terms = [f"t{i}" for i in range(300)]
        tm = TermMatrix("TCOR", terms, rng.normal(size=(300, 300)), terms)
        path = tmp_path / "m.txt"
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save_term_matrix(tm, path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < path.stat().st_size / 10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected_before_writing(self, tmp_path, bad):
        tm = TermMatrix("TCOR", ["a", "b"], np.array([[0.0, 1.0], [bad, 0.0]]), ["a", "b"])
        path = tmp_path / "m.txt"
        with pytest.raises(ValueError, match="row 1 holds a non-finite value"):
            save_term_matrix(tm, path)
        assert not path.exists()

    @pytest.mark.parametrize("field", ["weights", "feature_mean"])
    def test_non_finite_svm_model_rejected_before_writing(self, tmp_path, field):
        model = SvmModel(
            ["x", "y"], 1.0, np.zeros((1, 3)), 2, feature_mean=np.zeros(2), feature_scale=np.ones(2)
        )
        getattr(model, field)[0] = np.nan
        path = tmp_path / "model.txt"
        with pytest.raises(ValueError, match="non-finite value"):
            save_svm_model(model, path)
        assert not path.exists()

    def test_label_with_line_break_rejected_before_writing(self, tmp_path):
        tm = TermMatrix("SSR", ["a\nb"], np.zeros((1, 1)))
        path = tmp_path / "m.txt"
        with pytest.raises(ValueError, match="line break"):
            save_term_matrix(tm, path)
        assert not path.exists()


# Each case rewrites the lines of a valid container whose last two lines
# are rows of three values.
MALFORMED = {
    "truncated header": lambda lines: lines[:3],
    "header key out of place": lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
    "missing row": lambda lines: lines[:-1],
    "extra trailing row": lambda lines: [*lines, lines[-1]],
    "short row": lambda lines: [*lines[:-1], "1 2"],
    "long row": lambda lines: [*lines[:-1], "1 2 3 4"],
    "non-numeric value": lambda lines: [*lines[:-1], "1 x 2"],
    "non-finite value": lambda lines: [*lines[:-1], "1 nan 2"],
    "infinite value": lambda lines: [*lines[:-1], "1 2 -inf"],
}


def write_term_matrix(path):
    tm = TermMatrix("DOR", ["a", "b"], np.arange(6.0).reshape(2, 3), ["d0", "d1", "d2"])
    save_term_matrix(tm, path)
    return load_term_matrix


def write_svm_model(path):
    save_svm_model(SvmModel(["x", "y", "z"], 1.0, np.arange(9.0).reshape(3, 3), 2), path)
    return load_svm_model


@pytest.mark.parametrize("write", [write_term_matrix, write_svm_model])
@pytest.mark.parametrize("case", [*MALFORMED, "npz file from an earlier version"])
def test_malformed_container_names_file_and_line(tmp_path, write, case):
    path = tmp_path / "container.txt"
    load = write(path)
    if case in MALFORMED:
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(MALFORMED[case](lines)) + "\n", encoding="utf-8")
    else:
        header = {"kind": "DOR", "terms": ["a"], "feature_names": ["d"], "meta": {}}
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, header=np.array(json.dumps(header)), layout=np.array("dense"), values=np.ones((1, 1))
            )
    with pytest.raises(ValueError, match=re.escape(str(path)) + r":\d+: "):
        load(path)


def test_unknown_term_matrix_kind_names_file_and_line(tmp_path):
    path = tmp_path / "m.txt"
    write_term_matrix(path)
    path.write_text(path.read_text(encoding="utf-8").replace("kind DOR", "kind LSA"), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad 'kind' value: kind must be one of")):
        load_term_matrix(path)


def test_features_count_other_than_dims_names_file_and_line(tmp_path):
    path = tmp_path / "container.txt"
    write_term_matrix(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    features = lines.index("features 3")
    lines[features] = "features 2"
    del lines[lines.index("d2")]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{features + 1}: 'features' must be 0")):
        load_term_matrix(path)


@pytest.mark.parametrize("names", [["d0"], ["d0", "d1", "d2"]])
def test_feature_names_must_label_every_dimension(names):
    with pytest.raises(ValueError, match=f"{len(names)} feature names for 2 dimensions"):
        TermMatrix("DOR", ["a"], np.zeros((1, 2)), feature_names=names)


def test_repeated_term_rejected_naming_the_first_repeat():
    # Without the check, row("a") would read the last of the two "a" rows.
    with pytest.raises(ValueError, match="term 'b' is listed twice"):
        TermMatrix("DOR", ["a", "b", "c", "b", "a"], np.zeros((5, 1)))


def test_repeated_term_in_a_file_names_file_and_line(tmp_path):
    path = tmp_path / "container.txt"
    write_term_matrix(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    second = lines.index("b")
    lines[second] = "a"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{second + 1}: term 'a' is listed twice")):
        load_term_matrix(path)
