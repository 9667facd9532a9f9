import csv
import gc
import io
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from dtrkit.corpus import AuthorDoc, Corpus, load_corpus, save_jsonl
from dtrkit.evaluation import (
    ClfConfig,
    EvalReport,
    FoldResult,
    RepConfig,
    WilcoxonResult,
    accuracy,
    attach_significance,
    collection_stats,
    correlation_map,
    correlation_map_to_csv,
    cross_validate,
    information_gain,
    pearson,
    report_to_json,
    reports_to_accuracy_csv,
    stratified_kfold,
    top_terms_tfidf,
    wilcoxon_signed_rank,
)
from dtrkit.representations import TermMatrix, save_term_matrix
from dtrkit.stopwords import default_stopwords
from dtrkit.synthetic import make_synthetic_corpus

from conftest import corpus_from_tokens
from oracles import brute_force_wilcoxon, naive_information_gain, naive_top_terms_tfidf


class TestStratifiedKfold:
    def test_balanced_counts(self):
        labels = ["A"] * 6 + ["B"] * 4
        folds = stratified_kfold(labels, k=2, seed=0)
        for fold in folds:
            got = [labels[i] for i in fold]
            assert got.count("A") == 3
            assert got.count("B") == 2

    def test_single_fold(self):
        folds = stratified_kfold(["A", "B", "A"], k=1, seed=0)
        assert folds == [[0, 1, 2]]

    def test_exact_division(self):
        folds = stratified_kfold(["A"] * 10, k=10, seed=3)
        assert sorted(len(f) for f in folds) == [1] * 10

    def test_partition_property(self, rng):
        for _ in range(10):
            labels = ["A", "B", "C"][: int(rng.integers(2, 4))] * 7
            k = int(rng.integers(2, 6))
            folds = stratified_kfold(labels, k=k, seed=int(rng.integers(1000)))
            flat = sorted(i for fold in folds for i in fold)
            assert flat == list(range(len(labels)))

    def test_per_category_counts_differ_by_at_most_one(self, rng):
        labels = ["A"] * 13 + ["B"] * 7 + ["C"] * 3
        folds = stratified_kfold(labels, k=5, seed=11)
        for cat in "ABC":
            per_fold = [sum(labels[i] == cat for i in fold) for fold in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_small_category_spread_round_robin(self):
        labels = ["A"] * 9 + ["B"]  # B smaller than k
        folds = stratified_kfold(labels, k=3, seed=1)
        assert sum(9 in fold for fold in folds) == 1

    def test_deterministic(self):
        labels = ["A", "B"] * 10
        assert stratified_kfold(labels, 4, seed=5) == stratified_kfold(labels, 4, seed=5)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            stratified_kfold(["A", "B"], k=3, seed=0)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_all_wrong(self):
        assert accuracy(["a", "b"], ["b", "a"]) == 0.0

    def test_three_of_four(self):
        assert accuracy(["a", "a", "b", "b"], ["a", "a", "b", "a"]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(["a"], ["a", "b"])


class TestWilcoxon:
    def test_all_positive_n5(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert res.statistic == 0.0
        assert res.p_value == 0.0625
        assert res.method == "exact"
        assert not res.significant

    def test_identical_samples_insufficient(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert res.insufficient
        assert res.statistic is None and res.p_value is None
        assert not res.significant

    def test_matches_brute_force_enumeration(self, rng):
        for trial in range(60):
            n = int(rng.integers(5, 13))
            # integer magnitudes force plenty of rank ties
            diffs = rng.integers(1, 6, size=n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
            a = diffs.astype(float)
            b = np.zeros(n)
            res = wilcoxon_signed_rank(a, b)
            w_want, p_want, n_want = brute_force_wilcoxon(a, b)
            assert res.n == n_want
            assert res.statistic == w_want
            assert res.p_value == p_want  # exact equality of enumeration counts

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        # A NaN difference is nonzero, so it used to be ranked and tested.
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank([bad] * 6, [0.0] * 6)
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank([0.1] * 6, [0.2] * 5 + [bad])

    def test_zero_differences_dropped(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        b = [1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 5.0]  # two zero diffs -> n = 5
        res = wilcoxon_signed_rank(a, b)
        assert res.n == 5
        assert res.p_value == 0.0625

    def test_normal_approximation_close_to_exact(self, rng):
        # The convolution stays cheap past the exact-mode cutoff, so use it
        # as the reference for the large-sample approximation.
        for _ in range(5):
            n = 25
            diffs = rng.integers(1, 10, size=n) * np.where(rng.random(n) < 0.4, 1.0, -1.0)
            a = diffs.astype(float)
            b = np.zeros(n)
            approx = wilcoxon_signed_rank(a, b)
            exact = wilcoxon_signed_rank(a, b, exact_threshold=40)
            assert approx.method == "normal-approx"
            assert exact.method == "exact"
            assert approx.p_value == pytest.approx(exact.p_value, abs=0.02)

    def test_significance_threshold(self):
        a = list(range(1, 9))
        res = wilcoxon_signed_rank([float(v) for v in a], [0.0] * 8, alpha=0.05)
        assert res.p_value == 2.0 / 2**8
        assert res.significant

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])


def hand_built_corpus():
    token_lists = [
        ["the", "dog", "barked", "!"],
        ["a", "dog", "ran"],
        ["the", "cat", "sat"],
        ["a", "cat", "meowed", "!"],
        ["elephant", "walked"],
        ["the", "elephant", "trumpeted"],
    ]
    labels = ["x", "x", "x", "x", "y", "y"]
    return corpus_from_tokens(token_lists, labels=labels)


class TestCollectionStats:
    STOP = ("the", "a")

    def test_hand_computed_values(self):
        stats = collection_stats(hand_built_corpus(), "cat", stopwords=self.STOP)
        assert stats.ttr == pytest.approx(12 / 19, abs=1e-12)
        assert stats.ld == pytest.approx(12 / 19, abs=1e-12)
        assert stats.sx == pytest.approx(2 / 12, abs=1e-12)
        assert stats.shortness == pytest.approx(19 / 6, abs=1e-12)
        assert stats.imbalance == pytest.approx(1.0, abs=1e-12)
        assert stats.hardness == pytest.approx(1 / 12, abs=1e-12)

    def test_ttr_simple_ratio(self):
        corpus = corpus_from_tokens([["a", "b", "c", "d", "e", "a", "b", "c", "d", "e"]])
        stats = collection_stats(corpus, "cat", stopwords=())
        assert stats.ttr == 0.5

    def test_imbalance_three_one(self):
        corpus = corpus_from_tokens(
            [["a"], ["b"], ["c"], ["d"]], labels=["x", "x", "x", "y"]
        )
        stats = collection_stats(corpus, "cat", stopwords=())
        assert stats.imbalance == pytest.approx(1.0, abs=1e-12)

    def test_imbalance_73_74(self):
        labels = ["female"] * 73 + ["male"] * 74
        corpus = corpus_from_tokens([["w"]] * 147, labels=labels)
        stats = collection_stats(corpus, "cat", stopwords=())
        assert stats.imbalance == pytest.approx(0.5, abs=1e-12)

    def test_hardness_jaccard_by_hand(self):
        corpus = corpus_from_tokens(
            [["a", "b", "c"], ["b", "c", "d"]], labels=["x", "y"]
        )
        stats = collection_stats(corpus, "cat", stopwords=())
        assert stats.hardness == pytest.approx(0.5, abs=1e-12)

    def test_duplication_invariants(self):
        corpus = hand_built_corpus()
        doubled_docs = list(corpus.docs) + [
            AuthorDoc.from_text(d.author_id + "copy", d.text, d.labels)
            for d in corpus.docs
        ]
        doubled = Corpus(sorted(doubled_docs, key=lambda d: d.author_id), corpus.tasks)
        base = collection_stats(corpus, "cat", stopwords=self.STOP)
        dup = collection_stats(doubled, "cat", stopwords=self.STOP)
        assert dup.ld == pytest.approx(base.ld, abs=1e-12)
        assert dup.sx == pytest.approx(base.sx, abs=1e-12)
        assert dup.hardness == pytest.approx(base.hardness, abs=1e-12)
        assert dup.shortness == pytest.approx(base.shortness, abs=1e-12)
        assert dup.imbalance == pytest.approx(2 * base.imbalance, abs=1e-12)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 5.0, 7.0]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance_flagged_nan(self):
        assert math.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert math.isnan(pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))

    def test_affine_invariance(self, rng):
        for _ in range(10):
            x = rng.normal(size=8)
            y = rng.normal(size=8)
            base = pearson(x, y)
            assert pearson(3.5 * x + 2.0, y) == pytest.approx(base, abs=1e-9)
            assert pearson(x, 0.25 * y - 7.0) == pytest.approx(base, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])


def fake_report(rep_id, mean_acc, k=2, seed=0):
    return EvalReport(
        rep_id=rep_id, task="t", k=k, seed=seed, folds=[], mean_accuracy=mean_acc
    )


def fake_stats(**overrides):
    from dtrkit.evaluation import CollectionStats

    values = dict(ttr=0.5, ld=0.5, sx=0.1, shortness=10.0, imbalance=0.0, hardness=0.2)
    values.update(overrides)
    return CollectionStats(**values)


class TestCorrelationMap:
    def test_two_genres_perfect_correlation(self):
        reports = {
            "g1": {"dor": fake_report("dor", 0.6)},
            "g2": {"dor": fake_report("dor", 0.8)},
        }
        baselines = {"g1": fake_report("bow", 0.5), "g2": fake_report("bow", 0.6)}
        stats = {"g1": fake_stats(ttr=1.0), "g2": fake_stats(ttr=2.0)}
        table = correlation_map(reports, baselines, stats)
        assert table["dor"]["ttr"] == pytest.approx(1.0)

    def test_constant_improvement_propagates_undefined(self):
        reports = {
            "g1": {"dor": fake_report("dor", 0.6)},
            "g2": {"dor": fake_report("dor", 0.7)},
        }
        baselines = {"g1": fake_report("bow", 0.5), "g2": fake_report("bow", 0.6)}
        stats = {"g1": fake_stats(ttr=1.0), "g2": fake_stats(ttr=2.0)}
        table = correlation_map(reports, baselines, stats)
        assert math.isnan(table["dor"]["ttr"])
        csv = correlation_map_to_csv(table)
        assert "nan" in csv

    def test_csv_quotes_a_rep_id_holding_a_comma_or_quote(self):
        rep_id = 'dor, "idf"'
        reports = {
            "g1": {rep_id: fake_report(rep_id, 0.6)},
            "g2": {rep_id: fake_report(rep_id, 0.8)},
        }
        baselines = {"g1": fake_report("bow", 0.5), "g2": fake_report("bow", 0.6)}
        stats = {"g1": fake_stats(ttr=1.0), "g2": fake_stats(ttr=2.0)}
        text = correlation_map_to_csv(correlation_map(reports, baselines, stats))
        rows = list(csv.reader(io.StringIO(text)))
        assert [row[0] for row in rows] == ["representation", rep_id]
        assert {len(row) for row in rows} == {7}

    def test_four_genres_match_direct_pearson(self, rng):
        genres = ["g1", "g2", "g3", "g4"]
        accs = {g: float(rng.uniform(0.4, 0.9)) for g in genres}
        base = {g: float(rng.uniform(0.3, 0.6)) for g in genres}
        ttrs = {g: float(rng.uniform(0.1, 0.9)) for g in genres}
        reports = {g: {"dor": fake_report("dor", accs[g])} for g in genres}
        baselines = {g: fake_report("bow", base[g]) for g in genres}
        stats = {g: fake_stats(ttr=ttrs[g]) for g in genres}
        table = correlation_map(reports, baselines, stats)
        want = pearson(
            [ttrs[g] for g in genres], [accs[g] - base[g] for g in genres]
        )
        assert table["dor"]["ttr"] == pytest.approx(want, abs=1e-12)

    def test_single_genre_rejected(self):
        reports = {"g1": {"dor": fake_report("dor", 0.6)}}
        with pytest.raises(ValueError, match="two genres"):
            correlation_map(reports, {"g1": fake_report("bow", 0.5)}, {"g1": fake_stats()})


class TestTopTermsTfidf:
    def corpus(self):
        return corpus_from_tokens(
            [
                ["unique", "unique", "unique", "common", "filler"],
                ["common", "other", "filler"],
                ["common", "third", "filler"],
            ],
            labels=["x", "y", "y"],
        )

    def test_exclusive_term_ranks_first(self):
        got = top_terms_tfidf(self.corpus(), ["doc000"], n=10, stopwords=())[0]
        assert got[0][0] == "unique"
        assert got[0][1] == pytest.approx(3 * math.log(3), abs=1e-12)

    def test_universal_term_scores_zero(self):
        got = dict(top_terms_tfidf(self.corpus(), ["doc000"], n=10, stopwords=())[0])
        assert got["common"] == 0.0
        ranked = [t for t, _ in top_terms_tfidf(self.corpus(), ["doc000"], n=1, stopwords=())[0]]
        assert "common" not in ranked

    def test_n_caps_at_distinct_terms(self):
        got = top_terms_tfidf(self.corpus(), ["doc000"], n=50, stopwords=())[0]
        assert len(got) == 3

    def test_stopwords_and_punctuation_excluded(self):
        corpus = corpus_from_tokens([["the", "word", "!"], ["x"]], labels=["x", "y"])
        got = top_terms_tfidf(corpus, ["doc000"], n=10, stopwords=("the",))[0]
        assert [t for t, _ in got] == ["word"]

    def test_unknown_author(self):
        with pytest.raises(KeyError):
            top_terms_tfidf(self.corpus(), ["nobody"], n=5)

    def test_single_author_string_refused(self):
        # A bare string would otherwise be read one character at a time.
        with pytest.raises(TypeError, match="list of author ids"):
            top_terms_tfidf(self.corpus(), "doc000")

    def test_one_list_per_author_in_the_given_order(self):
        corpus = self.corpus()
        tops = top_terms_tfidf(corpus, ["doc002", "doc000", "doc002"], n=2, stopwords=())
        assert [[t for t, _ in top] for top in tops] == [
            ["third", "common"],
            ["unique", "common"],
            ["third", "common"],
        ]
        assert top_terms_tfidf(corpus, [], n=2) == []

    def test_every_author_matches_per_term_oracle_bit_for_bit(self, rng):
        synthetic = make_synthetic_corpus(
            n_categories=3, authors_per_category=8, tokens_per_doc=60, seed=2
        )
        extra = ["the", "of", "and", "!", "?", "..."]
        docs = [
            AuthorDoc.from_text(
                doc.author_id, " ".join(doc.tokens + list(rng.choice(extra, 6))), doc.labels
            )
            for doc in synthetic.docs
        ]
        corpus = Corpus(docs, synthetic.tasks)
        tokens = [doc.tokens for doc in corpus.docs]
        stop = default_stopwords()
        authors = [doc.author_id for doc in corpus.docs]
        wants = [naive_top_terms_tfidf(tokens, d, stop) for d in range(len(authors))]
        longest = max(len(want) for want in wants)
        assert top_terms_tfidf(corpus, authors, n=longest + 1) == wants
        assert top_terms_tfidf(corpus, authors, n=3) == [want[:3] for want in wants]
        # An author ranked alone gets what it gets among all of them.
        assert top_terms_tfidf(corpus, authors[5:6], n=3) == [wants[5][:3]]


class TestInformationGain:
    def test_uninformative_feature_zero(self):
        assert information_gain([1.0, 1.0, 1.0, 1.0], ["a", "a", "b", "b"]) == 0.0

    def test_perfect_split_recovers_label_entropy(self):
        gain = information_gain([0.0, 0.0, 5.0, 5.0], ["a", "a", "b", "b"])
        assert gain == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_label_entropy(self, rng):
        labels = ["a", "b", "c"] * 4
        for _ in range(10):
            gain = information_gain(rng.normal(size=12), labels)
            assert 0.0 <= gain <= math.log2(3) + 1e-12

    def test_matrix_matches_per_feature_oracle_bit_for_bit(self, rng):
        # Continuous and integer columns, 1 to 12 labels; no value lies within
        # the tolerance of its median without being equal to it, so the
        # tolerant and the strict split agree.
        for n_labels in range(1, 13):
            n = int(rng.integers(1, 60))
            labels = [f"c{int(k)}" for k in rng.integers(0, n_labels, n)]
            X = np.hstack([rng.normal(size=(n, 8)), rng.integers(0, 4, (n, 8)), np.zeros((n, 1))])
            gap = np.abs(X - np.median(X, axis=0))
            assert not ((gap > 0) & (gap <= 1e-12 * np.abs(X).max(axis=0))).any()
            gains = information_gain(X, labels)
            assert isinstance(gains, np.ndarray) and gains.shape == (X.shape[1],)
            for j in range(X.shape[1]):
                want = naive_information_gain(X[:, j], labels)
                assert gains[j] == want
                assert information_gain(X[:, j], labels) == want

    def test_values_within_rounding_of_the_median_are_not_above_it(self):
        labels = ["a", "a", "a", "b", "b", "b"]
        exact = information_gain([0.0, 0.0, 1.0, 1.0, 1.0, 2.0], labels)
        eps = np.finfo(np.float64).eps
        assert information_gain([0.0, 0.0, 1.0, 1.0 + eps, 1.0 + 2 * eps, 2.0], labels) == exact
        assert information_gain([0.0, 0.0, 1.0, 1.0 + 1e-9, 1.0, 2.0], labels) != exact

    @pytest.mark.parametrize("values", [[], np.zeros((2, 2, 1)), [1.0, 2.0, 3.0]])
    def test_shape_mismatch_rejected(self, values):
        with pytest.raises(ValueError, match="one row per label"):
            information_gain(values, ["a", "b"])


class TestReportToJson:
    def test_layout_and_field_names_are_pinned(self):
        report = EvalReport(
            rep_id="dor",
            task="topic",
            k=2,
            seed=7,
            folds=[
                FoldResult(fold=0, predictions={"b2": "y", "a1": "x"}, accuracy=0.5, rep_dims=12),
                FoldResult(fold=1, predictions={"c3": "x"}, accuracy=1.0, rep_dims=11),
            ],
            mean_accuracy=0.75,
            significance={"bow": WilcoxonResult(3.0, 0.25, False, 6, "exact")},
            corpus_name="blogs",
        )
        assert report_to_json(report) == """{
  "corpus": "blogs",
  "folds": [
    {
      "accuracy": 0.5,
      "fold": 0,
      "predictions": {
        "a1": "x",
        "b2": "y"
      },
      "rep_dims": 12
    },
    {
      "accuracy": 1.0,
      "fold": 1,
      "predictions": {
        "c3": "x"
      },
      "rep_dims": 11
    }
  ],
  "k": 2,
  "mean_accuracy": 0.75,
  "representation": "dor",
  "seed": 7,
  "significance": {
    "bow": {
      "method": "exact",
      "n": 6,
      "p_value": 0.25,
      "significant": false,
      "statistic": 3.0
    }
  },
  "task": "topic"
}
"""


class TestCrossValidate:
    def small_corpus(self, seed=5):
        return make_synthetic_corpus(
            authors_per_category=15, tokens_per_doc=60, seed=seed
        )

    def test_high_accuracy_on_separable_corpus(self):
        corpus = self.small_corpus()
        for kind in ("bow", "dor", "ssr"):
            report = cross_validate(corpus, "topic", RepConfig(kind=kind), k=5, seed=3)
            assert report.mean_accuracy >= 0.9, kind

    def test_dor_doc_vectors_have_training_fold_size(self):
        corpus = self.small_corpus()
        report = cross_validate(corpus, "topic", RepConfig(kind="dor"), k=5, seed=3)
        for fold in report.folds:
            assert fold.rep_dims == len(corpus) - len(fold.predictions)

    def test_reports_are_byte_identical_across_runs(self):
        corpus = self.small_corpus()
        rep = RepConfig(kind="ssr", k_per_class=2)
        first = cross_validate(corpus, "topic", rep, k=4, seed=9)
        second = cross_validate(corpus, "topic", rep, k=4, seed=9)
        assert report_to_json(first) == report_to_json(second)

    def test_predictions_cover_exactly_the_test_folds(self):
        corpus = self.small_corpus()
        report = cross_validate(corpus, "topic", RepConfig(kind="bow"), k=5, seed=3)
        seen = sorted(a for fold in report.folds for a in fold.predictions)
        assert seen == sorted(d.author_id for d in corpus.docs)

    def test_w2v_train_kind_runs(self):
        corpus = make_synthetic_corpus(authors_per_category=8, tokens_per_doc=40, seed=2)
        from dtrkit.embeddings import EmbeddingConfig

        rep = RepConfig(kind="w2v-train", embedding=EmbeddingConfig(dim=8, epochs=2))
        report = cross_validate(corpus, "topic", rep, k=3, seed=1)
        assert len(report.folds) == 3
        for fold in report.folds:
            assert fold.rep_dims == 8

    def test_w2v_pretrained_kind_runs(self, tmp_path):
        corpus = make_synthetic_corpus(authors_per_category=8, tokens_per_doc=40, seed=2)
        from dtrkit.corpus import build_vocabulary
        from dtrkit.embeddings import EmbeddingConfig, save_embeddings, train_skipgram

        vocab = build_vocabulary(corpus)
        tm = train_skipgram(corpus, vocab, EmbeddingConfig(dim=6, epochs=2), seed=0)
        path = tmp_path / "vec.txt"
        save_embeddings(tm, path)
        rep = RepConfig(kind="w2v-pretrained", pretrained_path=str(path))
        report = cross_validate(corpus, "topic", rep, k=3, seed=1)
        assert report.folds[0].rep_dims == 6

    def pretrained_rep(self, corpus, tmp_path):
        """Vectors for a seeded share of the corpus terms, listed twice with
        different values, among distractor words no fold can use.  A
        ``TermMatrix`` refuses repeated terms, so the file is written here."""
        rng = np.random.default_rng(3)
        words = [t for t in corpus.terms if rng.random() < 0.8]
        words = [*words, *(f"zz{i}" for i in range(40)), *words[:5]]
        rows = rng.normal(size=(len(words), 4)).tolist()
        lines = [f"{len(words)} 4", *(" ".join([w, *map(repr, r)]) for w, r in zip(words, rows))]
        path = tmp_path / "vec.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return RepConfig(kind="w2v-pretrained", pretrained_path=str(path))

    def test_w2v_pretrained_folds_equal_load_embeddings(self, tmp_path):
        from dtrkit.corpus import build_vocabulary
        from dtrkit.embeddings import load_embeddings

        corpus = self.small_corpus()
        rep = self.pretrained_rep(corpus, tmp_path)
        report = cross_validate(corpus, "topic", rep, k=4, seed=7, keep_fold_matrices=True)
        folds = stratified_kfold(corpus.labels("topic"), k=4, seed=7)
        for test_idx, got in zip(folds, report.fold_matrices):
            train = corpus.subset([i for i in range(len(corpus)) if i not in set(test_idx)])
            want = load_embeddings(rep.pretrained_path, build_vocabulary(train, rep.max_terms))
            assert got.terms == want.terms
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.meta == want.meta
            assert 0 < got.meta["coverage"] < 1

    @pytest.mark.parametrize("bad", ["nan", "1e999", "x"])
    def test_w2v_pretrained_bad_value_in_unused_row_fails(self, tmp_path, bad):
        # Only the rows of corpus words are kept, yet every row is checked.
        corpus = self.small_corpus()
        rep = self.pretrained_rep(corpus, tmp_path)
        path = Path(rep.pretrained_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lineno = next(n for n, line in enumerate(lines, start=1) if line.startswith("zz7 "))
        assert "zz7" not in corpus.terms
        fields = lines[lineno - 1].split()
        fields[2] = bad
        lines[lineno - 1] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: "):
            cross_validate(corpus, "topic", rep, k=3, seed=1)

    def test_w2v_pretrained_file_read_once(self, tmp_path, monkeypatch):
        from dtrkit import embeddings

        corpus = self.small_corpus()
        rep = self.pretrained_rep(corpus, tmp_path)
        calls = []
        read = embeddings.read_word2vec

        def counting_read(path):
            calls.append(path)
            return read(path)

        monkeypatch.setattr(embeddings, "read_word2vec", counting_read)
        cross_validate(corpus, "topic", rep, k=5, seed=3)
        assert calls == [rep.pretrained_path]

    @pytest.mark.filterwarnings("ignore:document .* has no in-vocabulary tokens")
    @pytest.mark.parametrize("kind", ["dor", "tcor", "ssr"])
    def test_fold_matrix_identical_after_corrupting_test_texts(self, tmp_path, kind):
        corpus = self.small_corpus(seed=8)
        rep = RepConfig(kind=kind)
        baseline = cross_validate(
            corpus, "topic", rep, k=5, seed=13, keep_fold_matrices=True
        )
        from dtrkit.evaluation import stratified_kfold as skf

        folds = skf(corpus.labels("topic"), k=5, seed=13)
        for fold_idx, test_idx in enumerate(folds):
            test_set = set(test_idx)
            corrupted_docs = [
                AuthorDoc.from_text(d.author_id, "corrupted garbage text", d.labels)
                if i in test_set
                else d
                for i, d in enumerate(corpus.docs)
            ]
            corrupted = Corpus(corrupted_docs, corpus.tasks)
            rerun = cross_validate(
                corrupted, "topic", rep, k=5, seed=13, keep_fold_matrices=True
            )
            a_path = tmp_path / "a.txt"
            b_path = tmp_path / "b.txt"
            save_term_matrix(baseline.fold_matrices[fold_idx], a_path)
            save_term_matrix(rerun.fold_matrices[fold_idx], b_path)
            assert a_path.read_bytes() == b_path.read_bytes()

    def test_attach_significance_pairs_folds(self):
        corpus = self.small_corpus()
        bow = cross_validate(corpus, "topic", RepConfig(kind="bow"), k=5, seed=3)
        dor = cross_validate(corpus, "topic", RepConfig(kind="dor"), k=5, seed=3)
        attach_significance(dor, {"bow": bow})
        assert "bow" in dor.significance

    def test_attach_significance_rejects_mismatched_partitions(self):
        corpus = self.small_corpus()
        bow = cross_validate(corpus, "topic", RepConfig(kind="bow"), k=5, seed=3)
        dor = cross_validate(corpus, "topic", RepConfig(kind="dor"), k=5, seed=4)
        with pytest.raises(ValueError, match="partition"):
            attach_significance(dor, {"bow": bow})

    def test_accuracy_csv_layout(self):
        corpus = self.small_corpus()
        reports = {
            kind: cross_validate(corpus, "topic", RepConfig(kind=kind), k=3, seed=3)
            for kind in ("bow", "dor")
        }
        csv = reports_to_accuracy_csv(reports)
        lines = csv.strip().splitlines()
        assert lines[0] == "representation,fold0,fold1,fold2,mean"
        assert lines[1].startswith("bow,")
        assert lines[2].startswith("dor,")

    def test_accuracy_csv_quotes_a_rep_id_holding_a_comma_or_quote(self):
        report = fake_report('a,"b"', 0.5, k=2)
        report.folds = [FoldResult(0, {}, 0.25, 3), FoldResult(1, {}, 0.75, 3)]
        text = reports_to_accuracy_csv({report.rep_id: report})
        assert text.splitlines()[1] == '"a,""b""",0.25,0.75,0.5'
        assert list(csv.reader(io.StringIO(text)))[1] == ['a,"b"', "0.25", "0.75", "0.5"]


class TestSharedFolds:
    """Representations run on one corpus share its split, vocabularies and
    count matrices; none of them may change what another one sees."""

    KINDS = ("bow", "dor", "tcor", "ssr")

    @staticmethod
    def corpus_file(tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_jsonl(make_synthetic_corpus(authors_per_category=10, tokens_per_doc=50, seed=4), path)
        return path

    @staticmethod
    def outputs(corpus, rep, clf=None, k=4, seed=5):
        """The report and the fold term matrices: the predictions of a
        separable corpus can survive a change of the features, the term
        matrices cannot."""
        report = cross_validate(corpus, "topic", rep, clf, k=k, seed=seed, keep_fold_matrices=True)
        matrices = [
            tm and (tm.terms, tm.feature_names, tm.matrix.tobytes()) for tm in report.fold_matrices
        ]
        return report_to_json(report), matrices

    @pytest.mark.parametrize("order", [KINDS, KINDS[::-1]], ids=["forward", "reverse"])
    @pytest.mark.parametrize(
        "bow_weighting, weighting", [("tf", "mean"), ("boolean", "tf-weighted"), ("tfidf", "mean")]
    )
    def test_shared_sequence_equals_fresh_corpus_per_kind(
        self, tmp_path, order, bow_weighting, weighting
    ):
        path = self.corpus_file(tmp_path)
        clf = ClfConfig(bow_weighting=bow_weighting)
        corpus = load_corpus(path)
        reps = {kind: RepConfig(kind=kind, weighting=weighting) for kind in order}
        shared = {kind: self.outputs(corpus, reps[kind], clf) for kind in order}
        for kind in order:
            assert self.outputs(load_corpus(path), reps[kind], clf) == shared[kind], kind

    def test_changed_partition_or_max_terms_equals_fresh_corpus(self, tmp_path):
        path = self.corpus_file(tmp_path)
        corpus = load_corpus(path)
        runs = [(5, 4, None), (6, 4, None), (5, 4, 30), (5, 3, None), (5, 4, None)]
        for seed, k, max_terms in runs:
            rep = RepConfig(kind="dor", max_terms=max_terms)
            shared = self.outputs(corpus, rep, k=k, seed=seed)
            alone = self.outputs(load_corpus(path), rep, k=k, seed=seed)
            assert alone == shared, (seed, k, max_terms)

    def test_fold_state_built_once_per_partition(self, tmp_path, monkeypatch):
        from dtrkit import classifier, evaluation, representations

        vocab_calls = []
        build_vocabulary = evaluation.build_vocabulary

        def counting_build_vocabulary(corpus, max_terms):
            vocab_calls.append(max_terms)
            return build_vocabulary(corpus, max_terms)

        matrices = []  # every count matrix handed out, kept alive so ids stay unique
        count_matrix = representations.count_matrix

        def recording_count_matrix(corpus, vocab):
            matrices.append(count_matrix(corpus, vocab))
            return matrices[-1]

        monkeypatch.setattr(evaluation, "build_vocabulary", counting_build_vocabulary)
        for module in (representations, classifier):
            monkeypatch.setattr(module, "count_matrix", recording_count_matrix)
        corpus = load_corpus(self.corpus_file(tmp_path))
        clf = ClfConfig(bow_weighting="tfidf")
        for kind in self.KINDS:
            cross_validate(corpus, "topic", RepConfig(kind=kind), clf, k=4, seed=5)
        assert vocab_calls == [10_000] * 4
        # One matrix per fold side: train and test of each of the 4 folds.
        assert len({id(m) for m in matrices}) == 8
        assert len(matrices) > 8
        cross_validate(corpus, "topic", RepConfig(kind="dor", max_terms=30), k=4, seed=5)
        assert vocab_calls == [10_000] * 4 + [30] * 4
        assert len({id(m) for m in matrices}) == 16
        cross_validate(corpus, "topic", RepConfig(kind="dor", max_terms=30), k=4, seed=5)
        assert len(vocab_calls) == 8
        assert len({id(m) for m in matrices}) == 16
        # Another partition replaces the kept one.
        cross_validate(corpus, "topic", RepConfig(kind="dor", max_terms=30), k=4, seed=6)
        assert len(vocab_calls) == 12
        assert len({id(m) for m in matrices}) == 24
        # Each side of the kept folds holds its count matrix, over its fold's vocabulary.
        held = {id(m) for m in matrices}
        sides = [
            (vocab, side)
            for fold in corpus._folds[1]
            for vocab, *pair in fold.sides.values()
            for side in pair
        ]
        assert len(sides) == 8
        assert all(side.terms is vocab.terms and id(side.counts) in held for vocab, side in sides)

    def test_alternating_max_terms_recounts_no_fold_side(self, tmp_path, monkeypatch):
        recounted = []  # the documents of every corpus counted from its tokens
        count_tokens = Corpus._count_tokens

        def recording_count_tokens(corpus):
            recounted.append(len(corpus))
            count_tokens(corpus)

        monkeypatch.setattr(Corpus, "_count_tokens", recording_count_tokens)
        corpus = load_corpus(self.corpus_file(tmp_path))
        for max_terms in (None, 30, None, 30, None):
            cross_validate(corpus, "topic", RepConfig(kind="dor", max_terms=max_terms), k=5, seed=5)
        # Only the whole corpus is counted; each fold side slices its rows.
        assert recounted == [len(corpus)]

    def test_a_corpus_and_its_kept_partition_form_no_cycle(self, tmp_path):
        corpus = load_corpus(self.corpus_file(tmp_path))
        cross_validate(corpus, "topic", RepConfig(kind="dor"), k=4, seed=5)
        assert corpus._folds is not None
        alive = weakref.ref(corpus)
        gc.disable()
        try:
            # Without the cyclic collector, only reference counting can free it.
            del corpus
            assert alive() is None
        finally:
            gc.enable()


class TestStopwordOverride:
    def test_env_var_file_replaces_bundled_list(self, tmp_path, monkeypatch):
        from dtrkit.stopwords import STOPWORDS_ENV_VAR, default_stopwords

        custom = tmp_path / "stop.txt"
        custom.write_text("Foo\nbar\n\n", encoding="utf-8")
        monkeypatch.setenv(STOPWORDS_ENV_VAR, str(custom))
        assert default_stopwords() == frozenset({"foo", "bar"})
        corpus = corpus_from_tokens([["foo", "dense", "bar", "dense"]])
        stats = collection_stats(corpus, "cat")
        assert stats.ld == 0.5

    def test_default_without_env(self, monkeypatch):
        from dtrkit.stopwords import ENGLISH_STOPWORDS, STOPWORDS_ENV_VAR, default_stopwords

        monkeypatch.delenv(STOPWORDS_ENV_VAR, raising=False)
        assert default_stopwords() is ENGLISH_STOPWORDS
        assert "the" in ENGLISH_STOPWORDS


class TestClfConfigStandardize:
    def test_standardize_flag_threads_through(self):
        corpus = make_synthetic_corpus(authors_per_category=10, tokens_per_doc=50, seed=6)
        report = cross_validate(
            corpus, "topic", RepConfig(kind="bow"), ClfConfig(standardize=True), k=3, seed=2
        )
        assert len(report.folds) == 3


class TestRepConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            RepConfig(kind="lda")

    def test_pretrained_needs_path(self):
        with pytest.raises(ValueError, match="pretrained_path"):
            RepConfig(kind="w2v-pretrained")

    def test_id_defaults_to_kind(self):
        assert RepConfig(kind="dor").id == "dor"
        assert RepConfig(kind="dor", rep_id="dor-mean").id == "dor-mean"
