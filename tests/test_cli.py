import json

import numpy as np
import pytest

from dtrkit import representations
from dtrkit.cli import main
from dtrkit.corpus import save_jsonl
from dtrkit.synthetic import make_synthetic_corpus

from conftest import corpus_from_tokens


@pytest.fixture
def synthetic_jsonl(tmp_path):
    corpus = make_synthetic_corpus(authors_per_category=12, tokens_per_doc=50, seed=4)
    path = tmp_path / "synthetic.jsonl"
    save_jsonl(corpus, path)
    return path


def write_config(tmp_path, corpus_path, **overrides):
    cfg = {
        "seed": 17,
        "output_dir": str(tmp_path / "reports"),
        "corpora": [{"name": "synthetic", "path": str(corpus_path), "format": "jsonl"}],
        "tasks": ["topic"],
        "representations": [{"kind": "bow"}, {"kind": "dor"}],
        "classifier": {"C": 1.0},
        "evaluation": {"folds": 10, "baselines": ["bow"]},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


class TestRun:
    def test_minimal_config_produces_reports(self, tmp_path, synthetic_jsonl, capsys):
        config, cfg = write_config(tmp_path, synthetic_jsonl)
        assert main(["run", "--config", str(config)]) == 0
        out_dir = tmp_path / "reports"
        for rep in ("bow", "dor"):
            report = json.loads((out_dir / f"synthetic_topic_{rep}.json").read_text())
            assert report["k"] == 10
            assert len(report["folds"]) == 10
        assert (out_dir / "synthetic_topic_folds.csv").is_file()
        assert "synthetic/topic/dor" in capsys.readouterr().out

    def test_missing_seed_exits_2(self, tmp_path, synthetic_jsonl):
        config, _ = write_config(tmp_path, synthetic_jsonl)
        cfg = json.loads(config.read_text())
        del cfg["seed"]
        config.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 2

    def test_rerun_is_byte_identical(self, tmp_path, synthetic_jsonl):
        config, _ = write_config(tmp_path, synthetic_jsonl)
        assert main(["run", "--config", str(config)]) == 0
        first = (tmp_path / "reports" / "synthetic_topic_dor.json").read_bytes()
        assert main(["run", "--config", str(config)]) == 0
        second = (tmp_path / "reports" / "synthetic_topic_dor.json").read_bytes()
        assert first == second

    def test_flag_overrides(self, tmp_path, synthetic_jsonl):
        out = tmp_path / "flagged"
        code = main(
            [
                "run",
                "--corpus", str(synthetic_jsonl),
                "--format", "jsonl",
                "--task", "topic",
                "--rep", "ssr",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "synthetic_topic_ssr.json").is_file()

    def test_nonexistent_corpus_exits_2(self, tmp_path):
        config, _ = write_config(tmp_path, tmp_path / "missing.jsonl")
        assert main(["run", "--config", str(config)]) == 2

    def test_unknown_representation_exits_2(self, tmp_path, synthetic_jsonl):
        config, _ = write_config(
            tmp_path, synthetic_jsonl, representations=[{"kind": "lda"}]
        )
        assert main(["run", "--config", str(config)]) == 2

    def test_bad_baseline_exits_2(self, tmp_path, synthetic_jsonl):
        config, _ = write_config(
            tmp_path,
            synthetic_jsonl,
            evaluation={"folds": 3, "baselines": ["tcor"]},
        )
        assert main(["run", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "classifier",
        [
            {"C": float("nan")},
            {"C": float("inf")},
            {"C": 0},
            {"C": "1"},
            {"C": True},
            {"bow_weighting": "bm25"},
            {"standardize": "no"},
        ],
    )
    def test_bad_classifier_config_exits_2_before_loading(self, tmp_path, classifier, capsys):
        # The corpus is malformed, so any loading would fail with exit 1.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        config, _ = write_config(tmp_path, bad, classifier=classifier)
        assert main(["run", "--config", str(config)]) == 2
        assert "classifier" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rep",
        [
            {"kind": "dor", "max_terms": 0},
            {"kind": "dor", "max_terms": -5},
            {"kind": "dor", "max_terms": 2.5},
            {"kind": "dor", "max_terms": True},
            {"kind": "dor", "max_terms": "100"},
            {"kind": "ssr", "k_per_class": 0},
            {"kind": "ssr", "k_per_class": False},
            {"kind": "ssr", "k_per_class": 1.0},
            {"kind": "dor", "weighting": "max"},
            {"kind": "dor", "weighting": True},
            {"kind": "tcor", "tcor_idf": "global"},
        ],
    )
    def test_bad_representation_config_exits_2_before_loading(self, tmp_path, rep, capsys):
        # The corpus is malformed, so any loading would fail with exit 1.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        config, _ = write_config(tmp_path, bad, representations=[{"kind": "bow"}, rep])
        assert main(["run", "--config", str(config)]) == 2
        field = next(key for key in rep if key != "kind")
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "evaluation, field",
        [
            ({"folds": "x"}, "folds"),
            ({"folds": 0}, "folds"),
            ({"folds": 1}, "folds"),
            ({"folds": True}, "folds"),
            ({"folds": 2.7}, "folds"),
            ({"alpha": 5}, "alpha"),
            ({"alpha": 0}, "alpha"),
            ({"alpha": 1}, "alpha"),
            ({"alpha": float("nan")}, "alpha"),
            ({"alpha": "0.05"}, "alpha"),
            ([10], "evaluation"),
        ],
    )
    def test_bad_evaluation_config_exits_2_before_loading(
        self, tmp_path, evaluation, field, capsys
    ):
        # The corpus is malformed, so any loading would fail with exit 1.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        config, _ = write_config(tmp_path, bad, evaluation=evaluation)
        assert main(["run", "--config", str(config)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "embedding",
        [
            {"dim": 2.5},
            {"dim": True},
            {"epochs": 1.0},
            {"negatives": 1.0},
            {"initial_lr": float("nan")},
            {"subsample": -1},
            {"seed": 0.5},
        ],
    )
    def test_bad_embedding_config_exits_2_before_loading(self, tmp_path, embedding, capsys):
        # The corpus is malformed, so any loading would fail with exit 1.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        rep = {"kind": "w2v-train", "embedding": embedding}
        config, _ = write_config(tmp_path, bad, representations=[{"kind": "bow"}, rep])
        assert main(["run", "--config", str(config)]) == 2
        assert next(iter(embedding)) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"tasks": "topic"}, "'tasks' must be a non-empty list of strings"),
            ({"tasks": ["topic", 3]}, "'tasks' must be a non-empty list of strings"),
            ({"evaluation": {"baselines": "bow"}}, "baselines must be a list of strings"),
            ({"corpora": ["bow"]}, "corpus entry must be a JSON object"),
            ({"representations": ["bow"]}, "representation entry must be a JSON object"),
            ({"representations": [{"kind": "bow", "rep_id": 7}]}, "rep_id must be a string"),
            # Reports are named <corpus>_<task>_<rep_id>.json.
            *(
                ({"representations": [{"kind": "bow", "rep_id": bad}]}, f"rep_id {bad!r} cannot")
                for bad in ("a/b", "", ".", "..")
            ),
            *(
                ({"corpora": [{"name": bad, "path": "c.jsonl", "format": "jsonl"}]},
                 f"corpus name {bad!r} cannot")
                for bad in ("x/y", "", ".", "..")
            ),
            ({"tasks": ["a/b"]}, "task 'a/b' cannot be part of a file name"),
        ],
    )
    def test_malformed_config_shapes_exit_2_before_loading(
        self, tmp_path, overrides, message, capsys
    ):
        # The corpus is malformed, so any loading would fail with exit 1.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        config, _ = write_config(tmp_path, bad, **overrides)
        assert main(["run", "--config", str(config)]) == 2
        assert message in capsys.readouterr().err

    def test_corpus_path_without_stem_gets_default_name(self, tmp_path, monkeypatch):
        # A pan-dir corpus given as ".." has no usable stem.
        truth = []
        for i in range(10):
            gender = "female" if i % 2 else "male"
            truth.append(f"a{i}:::{gender}:::25-34")
            words = "alpha beta" if i % 2 else "gamma delta"
            (tmp_path / f"a{i}.txt").write_text(f"{words} w{i}", encoding="utf-8")
        (tmp_path / "truth.txt").write_text("\n".join(truth) + "\n", encoding="utf-8")
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        code = main(
            ["run", "--corpus", "..", "--format", "pan-dir", "--task", "gender", "--rep", "bow",
             "--seed", "1", "--out", "reports"]
        )
        assert code == 0
        assert (tmp_path / "work" / "reports" / "corpus_gender_bow.json").is_file()

    def test_missing_vectors_file_exits_2_before_loading(
        self, tmp_path, synthetic_jsonl, monkeypatch, capsys
    ):
        import dtrkit.cli

        def no_loading(*args, **kwargs):
            raise AssertionError("a corpus was loaded")

        monkeypatch.setattr(dtrkit.cli, "load_corpus", no_loading)
        missing = tmp_path / "absent" / "vectors.txt"
        reps = [{"kind": "dor"}, {"kind": "w2v-pretrained", "pretrained_path": str(missing)}]
        config, _ = write_config(
            tmp_path, synthetic_jsonl, representations=reps, evaluation={"baselines": []}
        )
        assert main(["run", "--config", str(config)]) == 2
        assert f"pretrained vectors file not found: {missing}" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("bad", ["nan", "1e999", "x"])
    def test_bad_value_in_unused_vector_row_exits_1(
        self, tmp_path, synthetic_jsonl, capsys, bad
    ):
        # Every row is checked, also one whose word no document uses.
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(f"3 2\nw000 1 0\nzz0 0 {bad}\nw001 0 1\n", encoding="utf-8")
        reps = [{"kind": "w2v-pretrained", "pretrained_path": str(vectors)}]
        config, _ = write_config(
            tmp_path, synthetic_jsonl, representations=reps, evaluation={"baselines": []}
        )
        assert main(["run", "--config", str(config)]) == 1
        assert f"error: {vectors}:3: " in capsys.readouterr().err

    def test_significance_recorded_against_baseline(self, tmp_path, synthetic_jsonl):
        config, _ = write_config(
            tmp_path, synthetic_jsonl, evaluation={"folds": 10, "baselines": ["bow"]}
        )
        assert main(["run", "--config", str(config)]) == 0
        report = json.loads(
            (tmp_path / "reports" / "synthetic_topic_dor.json").read_text()
        )
        assert "bow" in report["significance"]

    def test_multi_corpus_prints_table(self, tmp_path, synthetic_jsonl, capsys):
        other = make_synthetic_corpus(authors_per_category=10, tokens_per_doc=40, seed=9)
        other_path = tmp_path / "other.jsonl"
        save_jsonl(other, other_path)
        config, _ = write_config(
            tmp_path,
            synthetic_jsonl,
            corpora=[
                {"name": "alpha", "path": str(synthetic_jsonl), "format": "jsonl"},
                {"name": "beta", "path": str(other_path), "format": "jsonl"},
            ],
            evaluation={"folds": 3, "baselines": []},
        )
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "task: topic" in out
        assert "alpha" in out and "beta" in out

    def test_usage_error_exits_2(self):
        assert main(["run", "--bogus-flag"]) == 2
        assert main([]) == 2

    def test_malformed_corpus_is_runtime_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        config, _ = write_config(tmp_path, bad)
        assert main(["run", "--config", str(config)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_w2v_train_via_config(self, tmp_path, synthetic_jsonl):
        config, _ = write_config(
            tmp_path,
            synthetic_jsonl,
            representations=[
                {"kind": "w2v-train", "embedding": {"dim": 8, "epochs": 2}}
            ],
            evaluation={"folds": 2, "baselines": []},
        )
        assert main(["run", "--config", str(config)]) == 0
        report = json.loads(
            (tmp_path / "reports" / "synthetic_topic_w2v-train.json").read_text()
        )
        assert report["folds"][0]["rep_dims"] == 8


class TestCharacterize:
    def test_imbalance_for_73_74(self, tmp_path, capsys):
        labels = ["female"] * 73 + ["male"] * 74
        corpus = corpus_from_tokens([["word"]] * 147, labels=labels, task="gender")
        path = tmp_path / "c.jsonl"
        save_jsonl(corpus, path)
        out_csv = tmp_path / "stats.csv"
        code = main(
            ["characterize", "--corpus", str(path), "--format", "jsonl",
             "--task", "gender", "--out", str(out_csv)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "imbalance=0.5" in printed
        header, row = out_csv.read_text().strip().splitlines()
        assert header.startswith("task,ttr,ld,")
        assert row.split(",")[0] == "gender"

    def test_all_tasks_by_default(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"author_id": "u1", "text": "a b", "gender": "f", "age": "65+"}\n'
            '{"author_id": "u2", "text": "b c", "gender": "m", "age": "18-24"}\n',
            encoding="utf-8",
        )
        assert main(["characterize", "--corpus", str(path), "--format", "jsonl"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("age:")
        assert "gender:" in printed

    def test_nonexistent_path_exits_2(self, tmp_path):
        assert main(["characterize", "--corpus", str(tmp_path / "nope.jsonl")]) == 2


class TestTopTerms:
    def test_discriminative_author_surfaces_topical_words(self, tmp_path, capsys):
        rows = []
        for i in range(6):
            rows.append((f"a{i}", "linux office linux office kernel desk", "A"))
        for i in range(6):
            rows.append((f"b{i}", "love shopping love shopping mall desk", "B"))
        path = tmp_path / "c.jsonl"
        path.write_text(
            "\n".join(
                json.dumps({"author_id": a, "text": t, "side": s}) for a, t, s in rows
            ),
            encoding="utf-8",
        )
        code = main(
            ["top-terms", "--corpus", str(path), "--format", "jsonl",
             "--task", "side", "--count", "1", "--words", "3"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "linux" in printed or "office" in printed
        assert "A |" in printed and "B |" in printed

    def test_csv_information_gain_is_a_plain_number(self, tmp_path, synthetic_jsonl):
        out = tmp_path / "top.csv"
        code = main(
            ["top-terms", "--corpus", str(synthetic_jsonl), "--format", "jsonl",
             "--task", "topic", "--count", "3", "--words", "2", "--out", str(out)]
        )
        assert code == 0
        header, *rows = out.read_text(encoding="utf-8").splitlines()
        column = header.split(",").index("information_gain")
        assert rows
        for row in rows:
            float(row.split(",")[column])

    def test_csv_unchanged_when_aggregates_move_by_a_few_ulps(self, tmp_path, monkeypatch):
        # On this corpus a split strictly above the median moves 9 of the 24
        # author features under the same nudge.
        corpus = make_synthetic_corpus(
            n_categories=4, authors_per_category=6, exclusive_terms=20, shared_terms=200,
            tokens_per_doc=40, topical_fraction=0.08, seed=0, task="topic",
        )  # fmt: skip
        path = tmp_path / "c.jsonl"
        save_jsonl(corpus, path)
        argv = ["top-terms", "--corpus", str(path), "--format", "jsonl", "--task", "topic",
                "--count", "6", "--words", "3", "--out"]  # fmt: skip
        assert main(argv + [str(tmp_path / "exact.csv")]) == 0
        aggregate = representations.aggregate_corpus
        rng = np.random.default_rng(0)

        def nudged(*args, **kwargs):
            out = aggregate(*args, **kwargs)
            return out * (1.0 + rng.integers(-4, 5, out.shape) * np.finfo(np.float64).eps)

        monkeypatch.setattr(representations, "aggregate_corpus", nudged)
        assert main(argv + [str(tmp_path / "nudged.csv")]) == 0
        assert (tmp_path / "nudged.csv").read_bytes() == (tmp_path / "exact.csv").read_bytes()

    def test_count_zero_empty_report(self, tmp_path, synthetic_jsonl, capsys):
        code = main(
            ["top-terms", "--corpus", str(synthetic_jsonl), "--format", "jsonl",
             "--task", "topic", "--count", "0"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_unknown_task_exits_2(self, synthetic_jsonl):
        code = main(
            ["top-terms", "--corpus", str(synthetic_jsonl), "--format", "jsonl",
             "--task", "nope"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags", [["--words", "-1"], ["--max-terms", "0"], ["--count", "-1"]]
    )
    def test_bad_numeric_flag_exits_2_before_loading(self, tmp_path, flags, capsys):
        # The corpus is malformed, so any loading would fail with exit 1.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        code = main(["top-terms", "--corpus", str(bad), "--task", "topic", *flags])
        assert code == 2
        assert flags[0] in capsys.readouterr().err


class TestEmbedCommands:
    def test_train_then_neighbors(self, tmp_path, synthetic_jsonl, capsys):
        vectors = tmp_path / "vectors.txt"
        code = main(
            ["embed-train", "--corpus", str(synthetic_jsonl), "--format", "jsonl",
             "--out", str(vectors), "--seed", "3", "--dim", "8", "--epochs", "2"]
        )
        assert code == 0
        assert vectors.is_file()
        capsys.readouterr()
        code = main(["embed-neighbors", "--vectors", str(vectors), "--term", "w000", "-k", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("flags", [["--dim", "0"], ["--max-terms", "0"]])
    def test_bad_config_flag_exits_2(self, tmp_path, synthetic_jsonl, flags):
        vectors = tmp_path / "vectors.txt"
        code = main(
            ["embed-train", "--corpus", str(synthetic_jsonl), "--out", str(vectors),
             "--seed", "3", *flags]
        )
        assert code == 2
        assert not vectors.exists()

    def test_unwritable_output_prints_whole_os_error(self, tmp_path, synthetic_jsonl, capsys):
        vectors = tmp_path / "absent" / "vectors.txt"
        code = main(
            ["embed-train", "--corpus", str(synthetic_jsonl), "--out", str(vectors),
             "--seed", "3", "--dim", "4", "--epochs", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "No such file or directory" in err and str(vectors) in err

    def test_unknown_term_exits_2(self, tmp_path):
        vectors = tmp_path / "v.txt"
        vectors.write_text("1 2\nfoo 1 2\n", encoding="utf-8")
        assert main(["embed-neighbors", "--vectors", str(vectors), "--term", "bar"]) == 2

    def test_missing_vectors_file_exits_2(self, tmp_path):
        assert main(["embed-neighbors", "--vectors", str(tmp_path / "x.txt"), "--term", "a"]) == 2

    def test_neighbors_of_a_word_listed_twice_use_its_first_row(self, tmp_path, capsys):
        vectors = tmp_path / "v.txt"
        vectors.write_text(
            "4 2\nfoo 1 0\nbar 0.9 0.1\nfoo 0 1\nbaz 0.1 0.9\n", encoding="utf-8"
        )
        assert main(["embed-neighbors", "--vectors", str(vectors), "--term", "foo"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[0] for line in lines] == ["bar", "baz"]
