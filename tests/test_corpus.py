import json
import re

import pytest

from dtrkit.corpus import (
    AuthorDoc,
    Corpus,
    build_vocabulary,
    load_corpus,
    save_jsonl,
    tokenize,
)

from conftest import corpus_from_tokens


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_words_and_punctuation(self):
        assert tokenize("I love Linux!") == ["i", "love", "linux", "!"]

    def test_word_internal_apostrophe(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_each_punctuation_char_is_own_token(self):
        assert tokenize("wait...") == ["wait", ".", ".", "."]
        assert tokenize(":)") == [":", ")"]

    def test_adjacent_symbols_merge(self):
        grin = "\U0001f600"
        assert tokenize(f"hi {grin}{grin}") == ["hi", grin * 2]
        assert tokenize(f"{grin} {grin}") == [grin, grin]

    def test_lowercases(self):
        assert tokenize("HeLLo WoRLD") == ["hello", "world"]

    def test_whitespace_only_separates(self):
        assert tokenize("  a\t\nb  ") == ["a", "b"]

    def test_retokenizing_is_idempotent(self):
        text = "It's 2014; profiles & posts!! :-) #tag"
        doc = AuthorDoc.from_text("a", text, {})
        assert doc.tokens == tokenize(text)
        assert tokenize(" ".join(doc.tokens)) == doc.tokens

    def test_digits_join_words(self):
        assert tokenize("area51 3rd") == ["area51", "3rd"]

    def test_combining_marks_stay_in_their_word(self):
        # "\u0130".lower() is "i" and U+0307, which NFC leaves as two characters.
        assert tokenize("\u0130stanbul") == ["i\u0307stanbul"]
        assert tokenize("Cafe\u0301!") == ["cafe\u0301", "!"]
        assert tokenize("\u20ac\u0301 :)") == ["\u20ac", "\u0301", ":", ")"]


class TestLoadPanDir:
    @staticmethod
    def write_pan(tmp_path, truth_lines, files):
        (tmp_path / "truth.txt").write_text("\n".join(truth_lines) + "\n", encoding="utf-8")
        for name, text in files.items():
            (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")

    def test_basic_load(self, tmp_path):
        self.write_pan(
            tmp_path,
            ["b:::male:::25-34", "a:::female:::18-24"],
            {"a": "Hello there!", "b": "linux office"},
        )
        corpus = load_corpus(tmp_path, "pan-dir")
        assert [d.author_id for d in corpus.docs] == ["a", "b"]
        assert corpus.tasks == frozenset({"gender", "age"})
        assert corpus.docs[0].labels == {"gender": "female", "age": "18-24"}
        assert corpus.docs[0].tokens == ["hello", "there", "!"]

    def test_reload_is_identical(self, tmp_path):
        self.write_pan(tmp_path, ["a:::female:::18-24"], {"a": "hi"})
        first = load_corpus(tmp_path, "pan-dir")
        second = load_corpus(tmp_path, "pan-dir")
        assert first == second

    def test_missing_truth_entry_names_author(self, tmp_path):
        self.write_pan(tmp_path, ["a:::female:::18-24"], {"a": "hi", "ghost": "boo"})
        with pytest.raises(ValueError, match="ghost"):
            load_corpus(tmp_path, "pan-dir")

    def test_truth_without_file_is_an_error(self, tmp_path):
        self.write_pan(tmp_path, ["a:::female:::18-24", "b:::male:::65+"], {"a": "hi"})
        with pytest.raises(ValueError, match="b"):
            load_corpus(tmp_path, "pan-dir")

    def test_bad_truth_line_reports_line_number(self, tmp_path):
        self.write_pan(tmp_path, ["a:::female:::18-24", "broken-line"], {"a": "hi"})
        with pytest.raises(ValueError, match=":2:"):
            load_corpus(tmp_path, "pan-dir")

    def test_repeated_author_names_both_truth_lines(self, tmp_path):
        lines = ["a:::male:::20", "b:::male:::30", "a:::female:::40"]
        self.write_pan(tmp_path, lines, {"a": "hi", "b": "yo"})
        message = f"{tmp_path / 'truth.txt'}:3: duplicate author_id 'a', first on line 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_corpus(tmp_path, "pan-dir")

    @pytest.mark.parametrize(
        "line, fault",
        [
            (":::male:::20", "author_id '' must be non-empty and single-line"),
            ("a:::male:::", "author 'a' has label '' for task 'age'"),
            ("a::: :::20", "author 'a' has label '' for task 'gender'"),
            ("a:::ma\u2028le:::20", "author 'a' has label 'ma\\u2028le' for task 'gender'"),
        ],
    )
    def test_unwritable_truth_name_names_its_line(self, tmp_path, line, fault):
        self.write_pan(tmp_path, ["b:::male:::30", line], {"a": "hi", "b": "yo"})
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'truth.txt'}:2: {fault}")):
            load_corpus(tmp_path, "pan-dir")

    def test_missing_truth_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path, "pan-dir")

    @pytest.mark.parametrize("name", ["truth", "b"])
    def test_file_that_is_not_utf8_is_named(self, tmp_path, name):
        self.write_pan(tmp_path, ["a:::female:::18-24", "b:::male:::65+"], {"a": "hi", "b": "yo"})
        bad = tmp_path / f"{name}.txt"
        bad.write_bytes(bad.read_bytes() + b"caf\xff\n")
        line = 3 if name == "truth" else 1
        with pytest.raises(ValueError, match=re.escape(f"{bad}:{line}: not UTF-8 text")):
            load_corpus(tmp_path, "pan-dir")

    def test_line_ends_read_as_in_text_mode(self, tmp_path):
        (tmp_path / "truth.txt").write_bytes(b"a:::female:::18-24\r\nb:::male:::65+\r")
        (tmp_path / "a.txt").write_bytes(b"one\r\ntwo\rthree\n")
        (tmp_path / "b.txt").write_bytes(b"x")
        corpus = load_corpus(tmp_path, "pan-dir")
        assert corpus.get("a").text == "one\ntwo\nthree\n"
        assert corpus.get("b").labels == {"gender": "male", "age": "65+"}


class TestLoadJsonl:
    def test_two_records_tasks_inferred(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [
            {"author_id": "u2", "text": "b text", "gender": "male"},
            {"author_id": "u1", "text": "a text", "gender": "female"},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines), encoding="utf-8")
        corpus = load_corpus(path, "jsonl")
        assert len(corpus) == 2
        assert corpus.tasks == frozenset({"gender"})
        assert [d.author_id for d in corpus.docs] == ["u1", "u2"]

    def test_bad_json_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"author_id": "u1", "text": "ok"}\n{oops\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            load_corpus(path, "jsonl")

    def test_inconsistent_tasks_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"author_id": "u1", "text": "a", "gender": "f"}\n'
            '{"author_id": "u2", "text": "b", "age": "65+"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=":2:"):
            load_corpus(path, "jsonl")

    def test_roundtrip_through_save(self, tmp_path):
        corpus = corpus_from_tokens([["a", "b"], ["b", "c"]], labels=["x", "y"])
        path = tmp_path / "out.jsonl"
        save_jsonl(corpus, path)
        assert load_corpus(path, "jsonl") == corpus

    def test_unicode_line_separators_stay_inside_a_record(self, tmp_path):
        # save_jsonl writes these unescaped; only "\n", "\r" and "\r\n" end a line.
        doc = AuthorDoc.from_text("a", "x\u2028y\u2029z\x85w\x0cv", {"t": "p"})
        path = tmp_path / "out.jsonl"
        save_jsonl(Corpus([doc], frozenset({"t"})), path)
        assert load_corpus(path, "jsonl").docs == [doc]

    def test_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        first = json.dumps({"author_id": "u1", "text": "ok"}).encode()
        path.write_bytes(first + b"\r\n" + first.replace(b"ok", b"caf\xe9") + b"\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: not UTF-8 text")):
            load_corpus(path, "jsonl")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            load_corpus(tmp_path, "xml")

    @pytest.mark.parametrize(
        "author_id",
        ["", "a\nb", "a\rb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x1db", "a\x1eb", "a\x85b"]
        + ["a\u2028b", "a\u2029b"],
    )
    def test_unwritable_author_id_rejected(self, tmp_path, author_id):
        path = tmp_path / "c.jsonl"
        record = {"author_id": author_id, "text": "a text", "gender": "f"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: author_id {author_id!r}")):
            load_corpus(path, "jsonl")

    @pytest.mark.parametrize(
        "label",
        ["", "p\nq", "p\rq", "p\x0bq", "p\x0cq", "p\x1cq", "p\x1dq", "p\x1eq", "p\x85q"]
        + ["p\u2028q", "p\u2029q"],
    )
    def test_unwritable_label_rejected(self, tmp_path, label):
        # SSR names its features "<category>/<cluster>", one per container line.
        path = tmp_path / "c.jsonl"
        record = {"author_id": "a1", "text": "a text", "gender": label}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        message = f"{path}:1: author 'a1' has label {label!r} for task 'gender'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_corpus(path, "jsonl")

    def test_repeated_author_names_both_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [{"author_id": a, "text": "a text", "gender": "f"} for a in ("a", "b", "a")]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        message = f"{path}:3: duplicate author_id 'a', first on line 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_corpus(path, "jsonl")

    @pytest.mark.parametrize("key", ["author_id", "gender"])
    @pytest.mark.parametrize("value", [None, True, False, ["m"], {"v": "m"}])
    def test_non_scalar_author_id_or_label_rejected(self, tmp_path, key, value):
        # str() would turn these into "None", "True", "['m']", ...
        path = tmp_path / "c.jsonl"
        first = {"author_id": "a0", "text": "a text", "gender": "f"}
        record = {**first, "author_id": "a1", key: value}
        path.write_text(json.dumps(first) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        message = f"{path}:2: '{key}' must be a string or a number, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_corpus(path, "jsonl")

    @pytest.mark.parametrize("value", [None, 17, True, ["hi"], {"v": "hi"}])
    def test_text_that_is_not_a_string_rejected(self, tmp_path, value):
        # str() would turn these into the tokens "none", "17", "[", "'hi'", "]", ...
        path = tmp_path / "c.jsonl"
        first = {"author_id": "a0", "text": "a text", "gender": "f"}
        record = {**first, "author_id": "a1", "text": value}
        path.write_text(json.dumps(first) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        message = f"{path}:2: 'text' must be a string, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_corpus(path, "jsonl")

    def test_numeric_author_id_and_label_read_as_text(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"author_id": 17, "text": "a text", "age": 24.5}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        doc = load_corpus(path, "jsonl").docs[0]
        assert (doc.author_id, doc.labels) == ("17", {"age": "24.5"})


class TestCorpusInvariants:
    def test_duplicate_author_rejected(self):
        docs = [
            AuthorDoc.from_text("a", "x", {"t": "1"}),
            AuthorDoc.from_text("a", "y", {"t": "2"}),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            Corpus(docs, frozenset({"t"}))

    def test_missing_label_rejected(self):
        docs = [AuthorDoc.from_text("a", "x", {"gender": "f"})]
        with pytest.raises(ValueError, match="age"):
            Corpus(docs, frozenset({"gender", "age"}))

    def test_categories_sorted(self):
        corpus = corpus_from_tokens([["a"], ["b"], ["c"]], labels=["z", "m", "a"])
        assert corpus.categories("cat") == ["a", "m", "z"]

    def test_unknown_task(self):
        corpus = corpus_from_tokens([["a"]])
        with pytest.raises(KeyError):
            corpus.categories("nope")

    def test_author_lookup(self):
        corpus = corpus_from_tokens([["a"], ["b"], ["c"]])
        assert corpus.get("doc002") is corpus.docs[2]
        sub = corpus.subset([2, 0])
        assert sub.row("doc000") == 1
        assert sub.get("doc002") is corpus.docs[2]
        for lookup, author in ((corpus.get, "nobody"), (corpus.row, "nobody"), (sub.get, "doc001")):
            with pytest.raises(KeyError, match="unknown author"):
                lookup(author)


class TestBuildVocabulary:
    def test_sorted_by_frequency(self):
        corpus = corpus_from_tokens([["a"] * 5 + ["b"] * 3 + ["c"]])
        vocab = build_vocabulary(corpus, max_terms=2)
        assert vocab.terms == ["a", "b"]
        assert vocab.freq == {"a": 5, "b": 3}

    def test_lexicographic_tie_break(self):
        corpus = corpus_from_tokens([["b"] * 3 + ["a"] * 3])
        vocab = build_vocabulary(corpus, max_terms=1)
        assert vocab.terms == ["a"]

    def test_no_truncation_when_large(self):
        corpus = corpus_from_tokens([["a", "b", "c", "a"]])
        vocab = build_vocabulary(corpus, max_terms=100)
        assert sorted(vocab.terms) == ["a", "b", "c"]

    def test_index_is_bijection(self):
        corpus = corpus_from_tokens([["c", "b", "a", "b", "c", "c"]])
        vocab = build_vocabulary(corpus)
        assert [vocab.index[t] for t in vocab.terms] == list(range(len(vocab)))

    def test_freq_sums_to_token_count(self, rng):
        from conftest import random_token_lists

        for _ in range(20):
            lists = random_token_lists(rng)
            corpus = corpus_from_tokens(lists)
            vocab = build_vocabulary(corpus, max_terms=None)
            assert sum(vocab.freq.values()) == sum(len(l) for l in lists)

    def test_truncation_equals_prefix_of_full_ranking(self, rng):
        from conftest import random_token_lists

        for _ in range(20):
            corpus = corpus_from_tokens(random_token_lists(rng))
            full = build_vocabulary(corpus, max_terms=None)
            for k in (1, 2, 3):
                assert build_vocabulary(corpus, max_terms=k).terms == full.terms[:k]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary(Corpus([], frozenset()), 10)
