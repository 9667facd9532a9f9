import math
import os
import re
import threading
import warnings

import numpy as np
import pytest

from dtrkit import embeddings
from dtrkit.corpus import AuthorDoc, Corpus, build_vocabulary
from dtrkit.embeddings import (
    EmbeddingConfig,
    load_embeddings,
    nearest_neighbors,
    project_embeddings,
    read_word2vec,
    save_embeddings,
    train_skipgram,
)
from dtrkit.representations import TermMatrix
from dtrkit.synthetic import make_synthetic_corpus

from conftest import corpus_from_tokens
from oracles import (
    naive_draw_negatives,
    naive_scatter_add,
    naive_sgns_batch,
    naive_skipgram_pairs,
)


def identical_context_corpus(repeats=40):
    """'x' and 'y' always appear between open/close; 'z' lives elsewhere."""
    lines = []
    for _ in range(repeats):
        lines.append("open x close")
        lines.append("open y close")
        lines.append("front z back")
    docs = [AuthorDoc.from_text("a0", " . ".join(lines), {"t": "1"})]
    return Corpus(docs, frozenset({"t"}))


def cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


class TestTrainSkipgram:
    def test_output_shape(self):
        corpus = corpus_from_tokens([["a", "b", "c", "a", "b"]])
        vocab = build_vocabulary(corpus)
        tm = train_skipgram(corpus, vocab, EmbeddingConfig(dim=7, epochs=1), seed=0)
        assert tm.rep_kind == "EMBEDDING"
        assert tm.matrix.shape == (len(vocab), 7)

    def test_identical_contexts_beat_disjoint_ones(self):
        corpus = identical_context_corpus()
        vocab = build_vocabulary(corpus)
        wins = 0
        for seed in range(5):
            cfg = EmbeddingConfig(dim=16, window=2, epochs=10)
            tm = train_skipgram(corpus, vocab, cfg, seed=seed)
            x, y, z = (tm.row(t) for t in ("x", "y", "z"))
            if cosine(x, y) > cosine(x, z):
                wins += 1
        assert wins >= 4

    def test_objective_improves(self):
        corpus = identical_context_corpus(repeats=20)
        vocab = build_vocabulary(corpus)
        tm = train_skipgram(corpus, vocab, EmbeddingConfig(dim=12, epochs=5), seed=1)
        objective = tm.meta["objective"]
        assert len(objective) == 5
        assert objective[-1] <= objective[0]

    def test_reproducible_bit_for_bit(self):
        corpus = identical_context_corpus(repeats=5)
        vocab = build_vocabulary(corpus)
        cfg = EmbeddingConfig(dim=9, epochs=2)
        first = train_skipgram(corpus, vocab, cfg, seed=77)
        second = train_skipgram(corpus, vocab, cfg, seed=77)
        np.testing.assert_array_equal(first.matrix, second.matrix)

    def test_unset_seed_trains_as_seed_zero(self):
        corpus = identical_context_corpus(repeats=5)
        vocab = build_vocabulary(corpus)
        cfg = EmbeddingConfig(dim=9, epochs=2)
        unset = train_skipgram(corpus, vocab, cfg)
        zero = train_skipgram(corpus, vocab, cfg, seed=0)
        np.testing.assert_array_equal(unset.matrix, zero.matrix)
        assert unset.meta == zero.meta
        assert zero.meta["seed"] == 0
        assert train_skipgram(corpus, vocab, cfg, seed=5).meta["seed"] == 5

    def test_no_nan_or_inf(self):
        corpus = identical_context_corpus(repeats=10)
        vocab = build_vocabulary(corpus)
        cfg = EmbeddingConfig(dim=8, epochs=3, initial_lr=0.5)
        tm = train_skipgram(corpus, vocab, cfg, seed=2)
        assert np.isfinite(tm.matrix).all()

    def test_min_count_zeroes_rare_terms(self):
        corpus = corpus_from_tokens([["a", "a", "a", "b", "a", "rare"]])
        vocab = build_vocabulary(corpus)
        cfg = EmbeddingConfig(dim=4, epochs=1, min_count=2)
        tm = train_skipgram(corpus, vocab, cfg, seed=0)
        np.testing.assert_array_equal(tm.row("rare"), 0.0)

    @pytest.mark.parametrize("field, value", [("negatives", 0), ("subsample", 1e-3)])
    def test_trains_with_setting(self, field, value):
        corpus = identical_context_corpus(repeats=10)
        vocab = build_vocabulary(corpus)
        cfg = EmbeddingConfig(dim=8, epochs=3, **{field: value})
        first = train_skipgram(corpus, vocab, cfg, seed=4)
        second = train_skipgram(corpus, vocab, cfg, seed=4)
        assert np.isfinite(first.matrix).all()
        assert first.matrix.any()
        np.testing.assert_array_equal(first.matrix, second.matrix)

    @pytest.mark.parametrize(
        "setting", [{}, {"subsample": 1e-3}, {"min_count": 2}, {"negatives": 0}]
    )
    def test_matches_training_through_reference_helpers(self, monkeypatch, setting):
        # Many terms occur once, so min_count 2 leaves zero-mass runs in the noise.
        corpus = make_synthetic_corpus(authors_per_category=3, tokens_per_doc=60, seed=3)
        vocab = build_vocabulary(corpus)
        cfg = EmbeddingConfig(dim=6, epochs=2, window=3, **setting)
        got = train_skipgram(corpus, vocab, cfg, seed=11)
        monkeypatch.setattr(embeddings, "_scatter_add", naive_scatter_add)
        monkeypatch.setattr(embeddings, "_draw_negatives", naive_draw_negatives)
        want = train_skipgram(corpus, vocab, cfg, seed=11)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.meta["objective"] == want.meta["objective"]

    def test_empty_vocabulary_rejected(self):
        corpus = corpus_from_tokens([["a"]])
        vocab = build_vocabulary(corpus)
        vocab.terms.clear()
        vocab.index.clear()
        with pytest.raises(ValueError, match="vocabulary"):
            train_skipgram(corpus, vocab, EmbeddingConfig(dim=2))

    def test_non_finite_vectors_refused(self, monkeypatch):
        def diverging_step(w_in, w_out, centers, contexts, negs, lr):
            w_in[:] = np.nan
            return 0.0

        monkeypatch.setattr(embeddings, "_sgns_step", diverging_step)
        corpus = identical_context_corpus()
        with pytest.raises(FloatingPointError, match="non-finite vectors"):
            train_skipgram(corpus, build_vocabulary(corpus), EmbeddingConfig(dim=4), seed=0)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(dim=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(window=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(initial_lr=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dim", 2.5),
            ("dim", True),
            ("window", 1.0),
            ("negatives", 2.0),
            ("epochs", "3"),
            ("min_count", 2.0),
            ("initial_lr", float("nan")),
            ("initial_lr", float("inf")),
            ("initial_lr", True),
            ("subsample", -1),
            ("subsample", float("nan")),
        ],
    )
    def test_bad_field_type_or_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EmbeddingConfig(**{field: value})


def all_pairs(lengths, spans, window):
    batches = list(embeddings._pair_batches(np.array(lengths), np.array(spans), window))
    sizes = [len(centers) for centers, _ in batches]
    assert all(size == embeddings.BATCH_PAIRS for size in sizes[:-1])
    assert all(len(c) == len(x) for c, x in batches)
    return [(int(c), int(x)) for centers, contexts in batches for c, x in zip(centers, contexts)]


class TestSkipgramPairs:
    @pytest.mark.parametrize("batch", [256, 7, 1])
    @pytest.mark.parametrize(
        "lengths",
        # Shorter than the window, length 2, length 1, and runs of such sentences.
        [[3], [2], [1], [2, 2, 2], [4, 1, 2], [30], [9, 1, 14, 2, 3]],
        ids=str,
    )
    def test_pairs_match_naive_loops(self, monkeypatch, rng, lengths, batch):
        monkeypatch.setattr(embeddings, "BATCH_PAIRS", batch)
        window = 5
        spans = rng.integers(1, window + 1, size=sum(lengths)).tolist()
        assert all_pairs(lengths, spans, window) == naive_skipgram_pairs(lengths, spans)

    def test_full_spans_pair_every_neighbour(self):
        window = 2
        assert all_pairs([4], [2, 2, 2, 2], window) == [
            (0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3), (3, 1), (3, 2)
        ]

    def test_subsampled_stream_pairs_match_naive_loops(self, monkeypatch):
        monkeypatch.setattr(embeddings, "BATCH_PAIRS", 5)
        sentences = [np.array([0, 1, 0, 2, 0, 3, 0]), np.array([1, 0]), np.array([0, 0, 0, 4])]
        keep = np.array([0.3, 1.0, 1.0, 1.0, 1.0])  # term 0 is usually dropped
        window = 3
        tokens, lengths, spans = embeddings._epoch_stream(
            sentences, keep, window, np.random.default_rng(6)
        )
        assert lengths.sum() == len(tokens) == len(spans) < sum(map(len, sentences))
        assert ((spans >= 1) & (spans <= window)).all()
        start = 0
        for sent, length in zip(sentences, lengths):  # each sentence keeps a subsequence
            kept = iter(sent.tolist())
            assert all(t in kept for t in tokens[start : start + length].tolist())
            start += length
        assert all_pairs(lengths, spans, window) == naive_skipgram_pairs(
            lengths.tolist(), spans.tolist()
        )


class TestSgnsStep:
    @pytest.mark.parametrize("negatives", [0, 3])
    def test_matches_pair_by_pair_oracle(self, rng, negatives):
        n_terms, dim, batch = 6, 4, 9
        w_in = rng.normal(size=(n_terms, dim))
        w_out = rng.normal(size=(n_terms, dim))
        centers = rng.integers(0, n_terms, size=batch)
        contexts = rng.integers(0, n_terms, size=batch)
        negs = rng.integers(0, n_terms, size=(batch, negatives))
        if negatives:
            negs[0, 1] = contexts[0]  # a negative equal to the context counts for nothing
        want_in, want_out, want_loss = naive_sgns_batch(w_in, w_out, centers, contexts, negs, 0.1)
        loss = embeddings._sgns_step(w_in, w_out, centers, contexts, negs, 0.1)
        np.testing.assert_allclose(w_in, want_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_out, want_out, rtol=0, atol=1e-12)
        assert loss == pytest.approx(want_loss, rel=1e-12)

    def test_matches_oracle_at_scores_near_30(self, rng):
        # Every center scores about +30 with contexts 0 and 2, about -30 with
        # contexts 1 and 3, and about -30 with every negative (terms 4 and 5).
        # A negative scoring high would leave the oracle's math.log(1 - sigma)
        # few exact digits, which bounds how large these scores can be.
        n_terms, dim, batch = 6, 4, 9
        sign = np.array([1.0, -1.0, 1.0, -1.0, -1.0, -1.0])
        w_in = 2.7 + rng.normal(scale=0.01, size=(n_terms, dim))
        w_out = sign[:, None] * (2.7 + rng.normal(scale=0.01, size=(n_terms, dim)))
        centers = rng.integers(0, n_terms, size=batch)
        contexts = np.arange(batch) % 4
        negs = rng.integers(4, n_terms, size=(batch, 3))
        scores = np.einsum("bd,bd->b", w_in[centers], w_out[contexts])
        assert 29 < scores.max() < 31 and -31 < scores.min() < -29
        want_in, want_out, want_loss = naive_sgns_batch(w_in, w_out, centers, contexts, negs, 0.1)
        loss = embeddings._sgns_step(w_in, w_out, centers, contexts, negs, 0.1)
        np.testing.assert_allclose(w_in, want_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_out, want_out, rtol=0, atol=1e-12)
        assert loss == pytest.approx(want_loss, rel=1e-12)

    def test_sigmoid_matches_math_reference_without_warning(self):
        def sigmoid(x):  # exp of a negative number only, so math.exp never overflows
            if x >= 0:
                return 1.0 / (1.0 + math.exp(-x))
            e = math.exp(x)
            return e / (1.0 + e)

        x = np.linspace(-745.0, 745.0, 149_001)  # a step of 0.01
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.exp(embeddings._log_sigmoid(x))  # the sigmoid that _sgns_step computes
        want = np.array([sigmoid(v) for v in x.tolist()])
        assert want.min() > 0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestWord2vecFormat:
    def test_save_load_roundtrip(self, tmp_path, rng):
        corpus = corpus_from_tokens([["a", "b", "c"]])
        vocab = build_vocabulary(corpus)
        tm = TermMatrix("EMBEDDING", list(vocab.terms), rng.normal(size=(3, 4)))
        path = tmp_path / "vec.txt"
        save_embeddings(tm, path)
        back = load_embeddings(path, vocab)
        np.testing.assert_array_equal(back.matrix, tm.matrix)
        assert back.meta["coverage"] == 1.0

    @pytest.mark.parametrize(
        "terms, dims",
        [(["a", "b"], 0), (["a", ""], 2), (["a", "b c"], 2), (["a\u2028b"], 2)],
    )
    def test_save_refuses_what_reader_rejects(self, tmp_path, terms, dims):
        tm = TermMatrix("EMBEDDING", terms, np.zeros((len(terms), dims)))
        path = tmp_path / "vec.txt"
        with pytest.raises(ValueError):
            save_embeddings(tm, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_refuses_non_finite_vector(self, tmp_path, bad):
        tm = TermMatrix("EMBEDDING", ["a", "b"], np.array([[1.0, 2.0], [3.0, bad]]))
        path = tmp_path / "vec.txt"
        with pytest.raises(ValueError, match="'b' holds a non-finite value"):
            save_embeddings(tm, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "NaN", "1e999"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"2 2\nfoo 1 2\nbar {value} 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f":3: non-finite value '{value}'"):
            read_word2vec(path)

    def test_projection_keeps_first_row_and_names_source(self):
        vocab = build_vocabulary(corpus_from_tokens([["foo", "bar", "novel"]]))
        words = ["bar", "zzz", "foo", "bar"]
        matrix = np.arange(8.0).reshape(4, 2)
        tm = project_embeddings(words, matrix, vocab, source="vec.txt")
        np.testing.assert_array_equal(tm.row("bar"), [0.0, 1.0])
        np.testing.assert_array_equal(tm.row("foo"), [4.0, 5.0])
        np.testing.assert_array_equal(tm.row("novel"), [0.0, 0.0])
        assert tm.meta == {"coverage": 2 / 3, "source": "vec.txt"}

    def test_partial_coverage(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("3 2\nfoo 1 2\nbar 3 4\nbaz 5 6\n", encoding="utf-8")
        corpus = corpus_from_tokens([["foo", "baz", "novel"]])
        vocab = build_vocabulary(corpus)
        tm = load_embeddings(path, vocab)
        assert tm.meta["coverage"] == pytest.approx(2 / 3)
        np.testing.assert_array_equal(tm.row("foo"), [1.0, 2.0])
        np.testing.assert_array_equal(tm.row("novel"), [0.0, 0.0])

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 50\nfoo " + " ".join(["0"] * 50) + "\nbar " + " ".join(["0"] * 49) + "\n")
        corpus = corpus_from_tokens([["foo"]])
        with pytest.raises(ValueError, match=":3:"):
            load_embeddings(path, build_vocabulary(corpus))

    def test_valid_file_is_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\nfoo 1 2\n\nbar\t3 4\n", encoding="utf-8")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(embeddings, "open", counting_open, raising=False)
        words, matrix = read_word2vec(path)
        assert opened == [path]
        assert words == ["foo", "bar"]
        np.testing.assert_array_equal(matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("not-a-header\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            read_word2vec(path)

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("5 2\nfoo 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="announces"):
            read_word2vec(path)

    def test_header_announcing_more_rows_than_the_file_holds(self, tmp_path):
        # Sized from the header alone, the matrix would take 800 TB.
        path = tmp_path / "vec.txt"
        path.write_text(f"{10**12} 100\nfoo" + " 1" * 100 + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"announces {10**12} vectors, file has 1$"):
            read_word2vec(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe(self, tmp_path):
        # A pipe has no byte length to size anything by; rows span 3 chunks.
        rows = np.arange(2500 * 3, dtype=np.float64).reshape(2500, 3)
        text = "2500 3\n" + "".join(f"w{i} {a} {b} {c}\n" for i, (a, b, c) in enumerate(rows))
        path = tmp_path / "vec.fifo"
        os.mkfifo(path)

        def write():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        words, matrix = read_word2vec(path)
        writer.join(timeout=10)
        assert words == [f"w{i}" for i in range(2500)]
        np.testing.assert_array_equal(matrix, rows)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_bytes_that_are_not_utf8_name_the_file_and_line(self, tmp_path, end):
        path = tmp_path / "vec.txt"
        lines = ["3 2", "foo 1 2", "bar 3 4", "caf\xe9 5 6"]
        path.write_bytes(end.join(lines).encode("latin-1") + end.encode())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: not UTF-8 text$"):
            read_word2vec(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "vec.fifo"
        os.mkfifo(path)

        def write():
            with open(path, "wb") as fh:
                fh.write(b"1 2\nb\xffr 1 2\n")

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
            read_word2vec(path)
        writer.join(timeout=10)

    def test_duplicate_words_keep_first(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 1\nfoo 1\nfoo 2\n", encoding="utf-8")
        corpus = corpus_from_tokens([["foo"]])
        tm = load_embeddings(path, build_vocabulary(corpus))
        np.testing.assert_array_equal(tm.row("foo"), [1.0])


class TestNearestNeighbors:
    def matrix(self):
        return TermMatrix(
            "EMBEDDING",
            ["a", "b", "c", "d"],
            np.array(
                [
                    [1.0, 0.0],
                    [1.0, 0.0],  # identical to a
                    [0.0, 1.0],
                    [1.0, 1.0],
                ]
            ),
        )

    def test_identical_vector_ranks_first(self):
        got = nearest_neighbors(self.matrix(), "a", 3)
        assert got[0] == ("b", pytest.approx(1.0))

    def test_k_capped(self):
        assert len(nearest_neighbors(self.matrix(), "a", 99)) == 3

    def test_matches_brute_force_cosines(self):
        tm = self.matrix()
        dense = tm.matrix
        query = dense[0]
        sims = {
            term: cosine(query, dense[i]) for i, term in enumerate(tm.terms) if i != 0
        }
        want = sorted(sims.items(), key=lambda kv: (-kv[1], kv[0]))
        got = nearest_neighbors(tm, "a", 3)
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, gs), (_, ws) in zip(got, want):
            assert gs == pytest.approx(ws)

    def test_unknown_term(self):
        with pytest.raises(KeyError):
            nearest_neighbors(self.matrix(), "zzz", 1)

    def test_tie_breaks_lexicographic(self):
        tm = TermMatrix(
            "EMBEDDING",
            ["q", "m", "z", "b"],
            np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
        )
        assert [t for t, _ in nearest_neighbors(tm, "q", 3)] == ["b", "m", "z"]
