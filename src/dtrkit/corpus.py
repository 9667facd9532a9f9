"""Corpus ingestion, tokenization, and vocabulary construction."""

from __future__ import annotations

import json
import math
import numbers
import re
import unicodedata
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, repeat
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "AuthorDoc",
    "Corpus",
    "Vocabulary",
    "tokenize",
    "load_corpus",
    "save_jsonl",
    "build_vocabulary",
]

DEFAULT_MAX_TERMS = 10_000  # vocabulary size unless a caller sets max_terms
DEFAULT_CORPUS_FORMAT = "jsonl"  # what load_corpus reads unless a caller sets format


# The argument rules every module shares: JSON gives ints, floats and bools,
# and a bool is an int to Python.
def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _positive_int(value) -> bool:
    return _integer(value) and value > 0


def _finite_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _check_one_of(name: str, value, allowed: tuple):
    """``value``, if it is one of ``allowed``; ``ValueError`` otherwise."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
    return value


def _seed(seed) -> int:
    """``seed`` mod 2**63, as every generator takes it; refuses a bool or a non-integer."""
    if not _integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed) % (2**63)


def _patterns(marks: str) -> tuple[re.Pattern, re.Pattern]:
    """The token and run expressions of a text whose combining marks
    (Unicode category M*, which ``re`` has no class for) are ``marks``.

    Word tokens are maximal runs of letters, digits, apostrophes and marks;
    any other non-space character is matched on its own.  A run is two or
    more adjacent characters outside whitespace, the apostrophe, the marks
    and ``re``'s word class (letters, digits and ``_``).  No symbol
    character is in that class, so two symbols can only touch inside a run.
    """
    return re.compile(rf"(?:[^\W_]+|['{marks}])+|\S"), re.compile(rf"([^\w\s'{marks}]{{2,}})")


# The combining marks met so far and their expressions.  A mark the text
# lacks changes no match in it, so they are rebuilt only for a new mark:
# at most once per distinct mark, however many mark sets the texts have.
# Each call returns expressions that hold its own text's marks, so an update
# lost between threads costs one more rebuild, never a wrong token.
_marks_seen = (frozenset(), *_patterns(""))


def _expressions(lowered: str) -> tuple[re.Pattern, re.Pattern]:
    """Token and run expressions whose marks include every mark of ``lowered``."""
    global _marks_seen
    marks, token_re, run_re = _marks_seen
    if not lowered.isascii():
        new = {ch for ch in set(lowered) - marks if unicodedata.category(ch).startswith("M")}
        if new:
            marks = marks | new
            token_re, run_re = _patterns("".join(sorted(marks)))
            _marks_seen = (marks, token_re, run_re)
    return token_re, run_re


def _is_symbol(ch: str) -> bool:
    return unicodedata.category(ch).startswith("S")


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it into word and symbol tokens.

    Runs of letters/digits/apostrophes and combining marks (Unicode category
    M*, so a decomposed accent stays in its word) form word tokens.
    Punctuation characters become single-character tokens, except that adjacent
    symbol-class characters (emoticons, currency or math signs) stay
    together as one token.  Whitespace only separates; no token is dropped.

    The whole text is lowercased at once (a Greek capital sigma lowercases
    by the letters around it) and then cut with ``str.split()``.  When every
    chunk is alphanumeric (``str.isalnum()``), the chunks are the tokens and
    no regular expression runs; any other document is split by the regular
    expressions over the whole lowercased text.
    """
    # Exact because, in CPython, re's \w for str patterns is str.isalnum()
    # plus "_" and its \s is str.isspace(), which is also what str.split()
    # cuts on: no token pattern crosses whitespace, and an alphanumeric
    # chunk is one maximal word run.
    lowered = text.lower()
    chunks = lowered.split()
    if "".join(chunks).isalnum():
        return chunks
    token_re, run_re = _expressions(lowered)
    parts = run_re.split(lowered)
    tokens = token_re.findall(parts[0])
    for run, rest in zip(parts[1::2], parts[2::2]):
        for symbol, chars in groupby(run, _is_symbol):
            if symbol:
                tokens.append("".join(chars))
            else:
                tokens.extend(chars)
        tokens.extend(token_re.findall(rest))
    return tokens


@dataclass
class AuthorDoc:
    """One author's concatenated posts plus one label per task; a document is its text."""

    author_id: str
    text: str
    labels: dict[str, str]

    @classmethod
    def from_text(cls, author_id: str, text: str, labels: dict[str, str]) -> "AuthorDoc":
        return cls(author_id=author_id, text=text, labels=dict(labels))

    @property
    def tokens(self) -> list[str]:
        """``tokenize(text)``, computed anew on each read."""
        return tokenize(self.text)

    @cached_property
    def counts(self) -> Counter:
        """Token frequency table (cached); kept only for the benchmark (ROADMAP item 2)."""
        return Counter(self.tokens)


@dataclass
class Corpus:
    """Ordered collection of author documents, label-complete for every task."""

    docs: list[AuthorDoc]
    tasks: frozenset[str]

    def __post_init__(self) -> None:
        self.tasks = frozenset(self.tasks)
        for task in sorted(self.tasks, key=repr):
            _check_task_name(task)
        self._folds: tuple | None = None  # evaluation.cross_validate's latest fold table
        self._rows: dict[str, int] = {}
        tasks = sorted(self.tasks)
        for row, doc in enumerate(self.docs):
            missing = self.tasks - doc.labels.keys()
            if missing:
                raise ValueError(
                    f"author {doc.author_id!r} is missing labels for tasks {sorted(missing)}"
                )
            _check_names(doc.author_id, doc.labels, tasks)
            if doc.author_id in self._rows:
                raise ValueError(f"duplicate author_id {doc.author_id!r}")
            self._rows[doc.author_id] = row

    def __len__(self) -> int:
        return len(self.docs)

    def _check_task(self, task: str) -> None:
        if task not in self.tasks:
            raise KeyError(f"unknown task {task!r}; corpus tasks: {sorted(self.tasks)}")

    def categories(self, task: str) -> list[str]:
        """Distinct category strings for ``task``, sorted lexicographically."""
        self._check_task(task)
        return sorted({doc.labels[task] for doc in self.docs})

    def labels(self, task: str) -> list[str]:
        self._check_task(task)
        return [doc.labels[task] for doc in self.docs]

    def row(self, author_id: str) -> int:
        """Position of ``author_id`` in :attr:`docs` and in :attr:`counts`."""
        if author_id not in self._rows:
            raise KeyError(f"unknown author {author_id!r}")
        return self._rows[author_id]

    def get(self, author_id: str) -> AuthorDoc:
        return self.docs[self.row(author_id)]

    @cached_property
    def terms(self) -> list[str]:
        """Sorted distinct tokens of the documents: the columns of :attr:`counts`."""
        self._count_tokens()
        return self.terms

    @cached_property
    def counts(self) -> sp.csr_matrix:
        """Read-only float64 CSR docs x :attr:`terms` counts with sorted
        indices: the one place a token string becomes a column; every
        document-side statistic slices it.

        Built with :attr:`terms` in one pass that tokenizes each text and maps
        every token to its column.  While it runs it holds every token list
        until the column ids are taken, then a few int64 arrays as long as the
        corpus's total token count.
        """
        self._count_tokens()
        return self.counts

    @cached_property
    def lengths(self) -> np.ndarray:
        """Each document's token count (int64): the row sums of :attr:`counts`, or, on a
        corpus made by ``_over_vocabulary`` (its counts drop some tokens), its parent's."""
        return np.asarray(self.counts.sum(axis=1), dtype=np.int64).ravel()

    def _count_tokens(self) -> None:
        """Set :attr:`terms` and :attr:`counts` from the texts, tokenized once here."""
        tokens = [doc.tokens for doc in self.docs]
        self.terms = sorted(set().union(*tokens))
        column = dict(zip(self.terms, range(len(self.terms))))
        cols = np.array(list(map(column.__getitem__, chain.from_iterable(tokens))), dtype=np.int64)
        rows = np.repeat(np.arange(len(tokens), dtype=np.int64), [len(t) for t in tokens])
        del tokens  # freed before the count sort
        # Sorted (row, column) keys, each distinct pair once with its count.
        keys, counts = np.unique(rows * len(self.terms) + cols, return_counts=True)
        rows, cols = np.divmod(keys, max(len(self.terms), 1))
        indptr = np.zeros(len(self.docs) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(self.docs)), out=indptr[1:])
        shape = (len(self.docs), len(self.terms))
        self.counts = _read_only(sp.csr_matrix((counts.astype(np.float64), cols, indptr), shape))

    def subset(self, indices) -> "Corpus":
        """The documents at ``indices``; their count rows are sliced from this
        corpus and re-columned by ``_select`` with the emptied columns
        dropped, so ``terms`` stays their own."""
        indices = list(indices)
        child = Corpus([self.docs[i] for i in indices], self.tasks)
        rows = self.counts[indices]
        keep = np.flatnonzero(rows.getnnz(axis=0))
        ids = np.full(len(self.terms), -1, dtype=np.int64)
        ids[keep] = np.arange(keep.size)
        child.terms = [self.terms[j] for j in keep]
        child.counts = _select(rows, ids, keep.size)
        return child

    def _over_vocabulary(
        self, indices, vocab: "Vocabulary", ids: np.ndarray | None = None
    ) -> "Corpus":
        """The documents at ``indices`` over the columns ``vocab.terms``, which are not
        sorted and may be empty: not an input of build_vocabulary or top_terms_tfidf.
        ``ids[j]`` is the vocabulary column of corpus column ``j``, or -1 outside it;
        without ``ids``, each corpus term is looked up in ``vocab.index`` once.

        The child shares this corpus's documents and ``vocab.terms``; it owns
        only its count matrix, which ``_select`` re-columns from a row slice
        of :attr:`counts` that is dropped once it returns, and its :attr:`lengths`."""
        if ids is None:
            ids = _column_ids(self.terms, vocab)
        indices = list(indices)
        child = Corpus([self.docs[i] for i in indices], self.tasks)
        child.terms, child.counts = vocab.terms, _select(self.counts[indices], ids, len(vocab))
        child.lengths = self.lengths[indices]
        return child


def _column_ids(terms: list[str], vocab: "Vocabulary") -> np.ndarray:
    """The vocabulary column of each of ``terms``, -1 for a term outside
    ``vocab``: one dict lookup per term, into one int64 array."""
    return np.fromiter(map(vocab.index.get, terms, repeat(-1)), dtype=np.int64, count=len(terms))


def _select(counts: sp.csr_matrix, ids: np.ndarray, width: int) -> sp.csr_matrix:
    """Read-only ``counts`` re-columned: column ``j`` becomes column ``ids[j]``
    of ``width``, and is dropped where ``ids[j]`` is -1.  ``ids`` sends no two
    columns to one, so every count is moved, never summed.

    Each entry's new column is gathered through ``ids``; the entries kept
    stay in row order but not in column order, and the trip through CSC
    sorts each row's indices by counting.  While it runs it holds, beside
    ``counts`` and the result, at most two more copies of the kept entries,
    with columns in the index dtype of ``counts`` (which holds every id
    below ``width``)."""
    cols = ids.astype(counts.indices.dtype)[counts.indices]
    keep = cols >= 0
    kept = np.zeros(keep.size + 1, dtype=counts.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    moved = sp.csr_matrix(
        (counts.data[keep], cols[keep], kept[counts.indptr]), shape=(counts.shape[0], width)
    )
    del cols, keep, kept  # freed before the sort trip makes its two copies
    moved = moved.tocsc()
    return _read_only(moved.tocsr())


def _check_task_name(task) -> None:
    """Refuse a task that ``save_jsonl`` cannot write as a key of its own
    beside ``author_id`` and ``text``: a non-string, an empty or multi-line
    string, or one of those two keys."""
    if not isinstance(task, str) or task.splitlines() != [task] or task in ("author_id", "text"):
        raise ValueError(
            "task names must be non-empty single-line strings other than "
            f"'author_id' and 'text', got {task!r}"
        )


def _check_names(author_id: str, labels: dict[str, str], tasks) -> None:
    """Refuse an author id, or its label for one of ``tasks``, that is not a
    string, is empty or spans lines.  Text containers write one id per line,
    and SSR names its features "category/cluster", one per line."""
    if not isinstance(author_id, str) or author_id.splitlines() != [author_id]:
        raise ValueError(f"author_id {author_id!r} must be non-empty and single-line text")
    for task in tasks:
        label = labels[task]
        if not isinstance(label, str) or label.splitlines() != [label]:
            raise ValueError(
                f"author {author_id!r} has label {label!r} for task {task!r}; "
                "labels must be non-empty and single-line text"
            )


def _read_only(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """``matrix``, its arrays flagged read-only: every count matrix is shared."""
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return matrix


def load_corpus(path, format: str = DEFAULT_CORPUS_FORMAT) -> Corpus:
    """Load a labeled author corpus.

    ``pan-dir``: a directory holding ``truth.txt`` with
    ``author_id:::gender:::age`` lines plus one ``<author_id>.txt`` file per
    author.  ``jsonl``: one object per line with ``author_id``, ``text``,
    and one extra key per task.  Documents come back sorted by author_id.
    """
    if format not in _LOADERS:
        expected = " or ".join(map(repr, CORPUS_FORMATS))
        raise ValueError(f"unknown corpus format {format!r} (expected {expected})")
    return _LOADERS[format](Path(path))


def _load_pan_dir(root: Path) -> Corpus:
    truth_path = root / "truth.txt"
    if not truth_path.is_file():
        raise FileNotFoundError(f"missing truth file: {truth_path}")
    truth: dict[str, dict[str, str]] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(_read_text(truth_path).split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split(":::")
        if len(parts) != 3:
            raise ValueError(
                f"{truth_path}:{lineno}: expected 'author_id:::gender:::age', got {stripped!r}"
            )
        author_id, gender, age = (part.strip() for part in parts)
        truth[author_id] = {"gender": gender, "age": age}
        _check_record(first_line, author_id, truth[author_id], truth_path, lineno)

    docs = []
    found: set[str] = set()
    for txt in sorted(root.glob("*.txt")):
        if txt.name == "truth.txt":
            continue
        author_id = txt.stem
        if author_id not in truth:
            raise ValueError(f"no truth entry for author {author_id!r} ({txt.name})")
        docs.append(AuthorDoc.from_text(author_id, _read_text(txt), truth[author_id]))
        found.add(author_id)
    orphans = sorted(set(truth) - found)
    if orphans:
        raise ValueError(f"truth entries without document files: {orphans}")
    docs.sort(key=lambda d: d.author_id)
    return Corpus(docs, frozenset({"gender", "age"}))


def _load_jsonl(path: Path) -> Corpus:
    docs = []
    tasks: frozenset[str] | None = None
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict) or "author_id" not in record or "text" not in record:
            raise ValueError(f"{path}:{lineno}: record needs 'author_id' and 'text' keys")
        where = f"{path}:{lineno}"
        labels = {
            k: _name_value(v, k, where)
            for k, v in record.items()
            if k not in ("author_id", "text")
        }
        record_tasks = frozenset(labels)
        if tasks is None:
            tasks = record_tasks
        elif record_tasks != tasks:
            raise ValueError(
                f"{path}:{lineno}: label keys {sorted(record_tasks)} do not match "
                f"earlier records {sorted(tasks)}"
            )
        author_id = _name_value(record["author_id"], "author_id", where)
        _check_record(first_line, author_id, labels, path, lineno)
        text = record["text"]
        if not isinstance(text, str):
            raise ValueError(f"{where}: 'text' must be a string, got {json.dumps(text)}")
        docs.append(AuthorDoc.from_text(author_id, text, labels))
    docs.sort(key=lambda d: d.author_id)
    return Corpus(docs, tasks if tasks is not None else frozenset())


_LOADERS = {"pan-dir": _load_pan_dir, "jsonl": _load_jsonl}  # the corpus formats
CORPUS_FORMATS = tuple(_LOADERS)


def _check_record(first_line: dict[str, int], author_id: str, labels, path, lineno: int) -> None:
    """Refuse, at ``path:lineno``, a record that ``Corpus`` would refuse: an
    author seen before (``first_line`` maps each author to its line) or a bad name."""
    if author_id in first_line:
        raise ValueError(
            f"{path}:{lineno}: duplicate author_id {author_id!r}, "
            f"first on line {first_line[author_id]}"
        )
    first_line[author_id] = lineno
    try:
        _check_names(author_id, labels, labels)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def _read_text(path) -> str:
    """The UTF-8 text of ``path`` with its line ends made ``"\\n"``."""
    with open(path, encoding="utf-8") as fh, _naming_bad_utf8(path):
        return fh.read()


@contextmanager
def _naming_bad_utf8(path):
    """Turn a ``UnicodeDecodeError`` met while reading ``path`` into a
    ``ValueError`` that names the file and the line of the first byte that
    is not UTF-8, or the file alone if it cannot be read again (a pipe)."""
    try:
        yield
    except UnicodeDecodeError:
        where = str(path)
        if Path(path).is_file():
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                # The line ends before the bad byte, as text mode reads them.
                before = data[: exc.start].replace(b"\r\n", b"\n")
                line = before.count(b"\n") + before.count(b"\r") + 1
                where += f":{line}"
        raise ValueError(f"{where}: not UTF-8 text") from None


def _name_value(value, key: str, where: str) -> str:
    """An author id or a label read from JSON: a string, or a number spelt
    as Python prints it.  null, booleans, arrays and objects are refused."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"{where}: {key!r} must be a string or a number, got {json.dumps(value)}")
    return str(value)


def save_jsonl(corpus: Corpus, path) -> None:
    """Write a corpus in the jsonl interchange layout: one record per author
    with its ``author_id``, ``text`` and label for each of the corpus's tasks
    (no other label).  A field UTF-8 cannot encode is refused before the file opens."""
    tasks = sorted(corpus.tasks)
    records = [{"author_id": d.author_id, "text": d.text} for d in corpus.docs]
    for record, doc in zip(records, corpus.docs):
        record.update((task, doc.labels[task]) for task in tasks)
        for key, value in record.items():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"author {doc.author_id!r}: field {key!r} is not UTF-8") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record, ensure_ascii=False) + "\n" for record in records)


@dataclass
class Vocabulary:
    """Frequency-ranked terms with a dense integer index."""

    terms: list[str]
    index: dict[str, int]
    freq: dict[str, int]

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index


def build_vocabulary(corpus: Corpus, max_terms: int | None = DEFAULT_MAX_TERMS) -> Vocabulary:
    """Keep the ``max_terms`` most frequent tokens over the whole corpus.

    Ties in collection frequency are broken lexicographically so the
    vocabulary is reproducible across runs.  ``max_terms=None`` keeps every
    distinct token.
    """
    if not corpus.docs:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    totals = np.asarray(corpus.counts.sum(axis=0)).ravel()
    return _ranked_vocabulary(corpus.terms, totals, max_terms)[0]


def _ranked_vocabulary(
    terms: list[str], totals: np.ndarray, max_terms: int | None
) -> tuple[Vocabulary, np.ndarray]:
    """The vocabulary of the ``max_terms`` columns of highest ``totals`` among
    those above 0, and their column ids in vocabulary order.  ``terms``, the
    columns' names, is sorted, so a stable sort on -frequency breaks ties by term."""
    if not (max_terms is None or _positive_int(max_terms)):
        raise ValueError(f"max_terms must be a positive integer, got {max_terms!r}")
    present = np.flatnonzero(totals)
    ranked = present[np.argsort(-totals[present], kind="stable")][:max_terms]
    kept = [terms[j] for j in ranked.tolist()]
    freq = dict(zip(kept, totals[ranked].astype(np.int64).tolist()))
    return Vocabulary(terms=kept, index=dict(zip(kept, range(len(kept)))), freq=freq), ranked
