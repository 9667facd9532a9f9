import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dtrkit
from dtrkit import evaluation, representations
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
            # Each fold is trained with its own seed; a configured one would be ignored.
            {"seed": 3},
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
            ({"corpora": []}, "config must list at least one corpus under 'corpora'"),
            ({"corpora": [{"format": "jsonl"}]}, "every corpus entry needs 'path' and 'format'"),
            ({"corpora": [{"path": "c.jsonl"}]}, "every corpus entry needs 'path' and 'format'"),
            ({"corpora": [{"path": "c.jsonl", "format": "csv"}]}, "unknown corpus format 'csv'"),
            ({"representations": []}, "config must list at least one representation"),
            ({"representations": [{"max_terms": 5}]}, "every representation entry needs a 'kind'"),
            (
                {"representations": [{"kind": "bow"}, {"kind": "dor", "rep_id": "bow"}]},
                "representation ids must be unique, got ['bow', 'bow']",
            ),
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

    def test_repeated_corpus_name_exits_2(self, tmp_path, synthetic_jsonl, capsys):
        # Both files take the default name "corpus", so their reports would share file names.
        corpora = []
        for sub in ("one", "two"):
            (tmp_path / sub).mkdir()
            path = tmp_path / sub / "corpus.jsonl"
            path.write_bytes(synthetic_jsonl.read_bytes())
            corpora.append({"path": str(path), "format": "jsonl"})
        config, _ = write_config(tmp_path, synthetic_jsonl, corpora=corpora)
        assert main(["run", "--config", str(config)]) == 2
        assert "corpus names must be unique, got ['corpus', 'corpus']" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_repeated_task_exits_2(self, tmp_path, synthetic_jsonl, capsys):
        config, _ = write_config(tmp_path, synthetic_jsonl, tasks=["topic", "topic"])
        assert main(["run", "--config", str(config)]) == 2
        assert "tasks must be unique, got ['topic', 'topic']" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "config file not found: "),
            ("{not json", "invalid JSON"),
            ("[1, 2]", "config must be a JSON object"),
        ],
    )
    def test_unreadable_config_exits_2(self, tmp_path, text, message, capsys):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 2
        assert message in capsys.readouterr().err

    def test_folds_csv_quotes_a_rep_id_holding_a_comma_or_quote(self, tmp_path, synthetic_jsonl):
        rep_id = 'bow, "tf"'
        reps = [{"kind": "bow", "rep_id": rep_id}]
        config, _ = write_config(
            tmp_path, synthetic_jsonl, representations=reps, evaluation={"folds": 2}
        )
        assert main(["run", "--config", str(config)]) == 0
        text = (tmp_path / "reports" / "synthetic_topic_folds.csv").read_text(encoding="utf-8")
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(row) for row in rows] == [4, 4]
        assert rows[1][0] == rep_id

    def test_reports_do_not_depend_on_the_blas_thread_count(self, tmp_path, synthetic_jsonl):
        # TCOR, aggregation and SSR k-means run dense products that OpenBLAS
        # may split across threads; no report byte may follow the split.
        reps = [{"kind": kind} for kind in ("bow", "dor", "tcor", "ssr")]
        reps.append({"kind": "w2v-train", "embedding": {"dim": 8, "epochs": 1}})
        src = str(Path(dtrkit.__file__).resolve().parent.parent)
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            config, _ = write_config(
                tmp_path, synthetic_jsonl, output_dir=str(out), representations=reps,
                evaluation={"folds": 3, "baselines": ["bow"]},
            )
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "dtrkit.cli", "run", "--config", str(config)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert len(written[0]) == 6
        assert written[0] == written[1]

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

    @pytest.mark.parametrize("format", ["jsonl", "pan-dir"])
    def test_corpus_that_is_not_utf8_exits_1_naming_the_file(self, tmp_path, format, capsys):
        record = json.dumps({"author_id": "u1", "text": "caf\u00e9", "gender": "f"})
        if format == "jsonl":
            corpus = bad = tmp_path / "c.jsonl"
            second = record.encode().replace(b"u1", b"u\xe9")  # latin-1, not UTF-8
            bad.write_bytes(record.encode() + b"\n" + second + b"\n")
            where = f"{bad}:2"
        else:
            corpus = tmp_path
            (tmp_path / "truth.txt").write_text("u1:::f:::65+\n", encoding="utf-8")
            bad = tmp_path / "u1.txt"
            bad.write_bytes("caf\u00e9".encode("latin-1"))
            where = f"{bad}:1"
        code = main(["characterize", "--corpus", str(corpus), "--format", format])
        assert code == 1
        assert capsys.readouterr().err == f"error: {where}: not UTF-8 text\n"

    def test_corpus_without_tasks_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text('{"author_id": "u1", "text": "a b"}\n', encoding="utf-8")
        assert main(["characterize", "--corpus", str(path)]) == 2
        assert "corpus has no tasks to characterize" in capsys.readouterr().err

    def test_csv_quotes_a_task_holding_a_comma_or_quote(self, tmp_path):
        path = tmp_path / "c.jsonl"
        task = 'age, "band"'
        path.write_text(
            json.dumps({"author_id": "u1", "text": "a b", task: "x"}) + "\n"
            + json.dumps({"author_id": "u2", "text": "b c", task: "y"}) + "\n",
            encoding="utf-8",
        )
        out_csv = tmp_path / "stats.csv"
        assert main(["characterize", "--corpus", str(path), "--out", str(out_csv)]) == 0
        rows = list(csv.reader(io.StringIO(out_csv.read_text(encoding="utf-8"))))
        assert [len(row) for row in rows] == [7, 7]
        assert rows[1][0] == task


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

    def test_one_tfidf_call_ranks_every_listed_author(self, tmp_path, synthetic_jsonl, monkeypatch):
        calls = []
        rank = evaluation.top_terms_tfidf

        def counted(corpus, author_ids, *args, **kwargs):
            calls.append(list(author_ids))
            return rank(corpus, author_ids, *args, **kwargs)

        monkeypatch.setattr(evaluation, "top_terms_tfidf", counted)
        out = tmp_path / "top.csv"
        code = main(
            ["top-terms", "--corpus", str(synthetic_jsonl), "--format", "jsonl",
             "--task", "topic", "--count", "3", "--words", "2", "--out", str(out)]
        )  # fmt: skip
        assert code == 0
        assert len(calls) == 1
        listed = [row.split(",")[1] for row in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert calls[0] == list(dict.fromkeys(listed))
        assert len(calls[0]) == 6  # 3 authors in each of the 2 categories

    def test_csv_quotes_ids_and_labels_holding_a_comma_or_quote(self, tmp_path):
        labels = {"A": 'cat, "a"', "B": "cat,b"}
        records = [
            {"author_id": f'{cat}"{i}, x', "text": text, "topic": labels[cat]}
            for cat, text in (("A", "linux kernel desk"), ("B", "love mall desk"))
            for i in range(4)
        ]
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out_csv = tmp_path / "top.csv"
        code = main(
            ["top-terms", "--corpus", str(path), "--task", "topic", "--count", "2",
             "--out", str(out_csv)]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_csv.read_text(encoding="utf-8"))))
        assert {len(row) for row in rows} == {6}
        authors = {r["author_id"]: r["topic"] for r in records}
        assert all(authors[author] == cat for cat, author, *_ in rows[1:])
        assert {cat for cat, *_ in rows[1:]} == set(labels.values())

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

    def test_bad_k_exits_2_before_reading_the_vectors(self, tmp_path, capsys):
        # The vectors file is malformed, so any reading would fail with exit 1.
        vectors = tmp_path / "v.txt"
        vectors.write_text("not a header\n", encoding="utf-8")
        code = main(["embed-neighbors", "--vectors", str(vectors), "--term", "foo", "-k", "0"])
        assert code == 2
        assert "argument -k:" in capsys.readouterr().err

    def test_vectors_that_are_not_utf8_exit_1_naming_the_line(self, tmp_path, capsys):
        vectors = tmp_path / "v.txt"
        vectors.write_bytes(b"2 2\nfoo 1 2\nb\xffr 3 4\n")
        assert main(["embed-neighbors", "--vectors", str(vectors), "--term", "foo"]) == 1
        assert capsys.readouterr().err == f"error: {vectors}:3: not UTF-8 text\n"

    def test_neighbors_of_a_word_listed_twice_use_its_first_row(self, tmp_path, capsys):
        vectors = tmp_path / "v.txt"
        vectors.write_text(
            "4 2\nfoo 1 0\nbar 0.9 0.1\nfoo 0 1\nbaz 0.1 0.9\n", encoding="utf-8"
        )
        assert main(["embed-neighbors", "--vectors", str(vectors), "--term", "foo"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[0] for line in lines] == ["bar", "baz"]
