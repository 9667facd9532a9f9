"""Corpus ingestion, tokenization, and vocabulary construction."""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby
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

CORPUS_FORMATS = ("pan-dir", "jsonl")


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
    """One author's concatenated posts plus one label per task."""

    author_id: str
    text: str
    tokens: list[str]
    labels: dict[str, str]

    @classmethod
    def from_text(cls, author_id: str, text: str, labels: dict[str, str]) -> "AuthorDoc":
        return cls(author_id=author_id, text=text, tokens=tokenize(text), labels=dict(labels))

    @cached_property
    def counts(self) -> Counter:
        """Token frequency table (cached; tokens are immutable by convention)."""
        return Counter(self.tokens)


@dataclass
class Corpus:
    """Ordered collection of author documents, label-complete for every task."""

    docs: list[AuthorDoc]
    tasks: frozenset[str]

    def __post_init__(self) -> None:
        self.tasks = frozenset(self.tasks)
        self._folds: tuple | None = None  # evaluation.cross_validate's latest partition
        self._rows: dict[str, int] = {}
        tasks = sorted(self.tasks)
        for row, doc in enumerate(self.docs):
            if doc.author_id.splitlines() != [doc.author_id]:
                # Text containers write one id per line; this also rejects "".
                raise ValueError(f"author_id {doc.author_id!r} must be non-empty and single-line")
            if doc.author_id in self._rows:
                raise ValueError(f"duplicate author_id {doc.author_id!r}")
            self._rows[doc.author_id] = row
            missing = self.tasks - doc.labels.keys()
            if missing:
                raise ValueError(
                    f"author {doc.author_id!r} is missing labels for tasks {sorted(missing)}"
                )
            for task in tasks:
                label = doc.labels[task]
                # Labels name SSR features ("category/cluster"), one per line.
                if label.splitlines() != [label]:
                    raise ValueError(
                        f"author {doc.author_id!r} has label {label!r} for task {task!r}; "
                        "labels must be non-empty and single-line"
                    )

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

        Built together with :attr:`terms` in one pass that maps every token
        to its column, with no per-document table.  While it runs it holds,
        beside the result, a few int64 arrays as long as the corpus's total
        token count, plus one pointer per token for the column ids.
        """
        self._count_tokens()
        return self.counts

    def _count_tokens(self) -> None:
        """Set :attr:`terms` and :attr:`counts` from the documents' tokens."""
        tokens = [doc.tokens for doc in self.docs]
        self.terms = sorted(set().union(*tokens))
        column = dict(zip(self.terms, range(len(self.terms))))
        cols = np.array(list(map(column.__getitem__, chain.from_iterable(tokens))), dtype=np.int64)
        rows = np.repeat(np.arange(len(tokens), dtype=np.int64), [len(t) for t in tokens])
        # Sorted (row, column) keys, each distinct pair once with its count.
        keys, counts = np.unique(rows * len(self.terms) + cols, return_counts=True)
        rows, cols = np.divmod(keys, max(len(self.terms), 1))
        indptr = np.zeros(len(tokens) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(tokens)), out=indptr[1:])
        shape = (len(tokens), len(self.terms))
        self.counts = _read_only(sp.csr_matrix((counts.astype(np.float64), cols, indptr), shape))

    def subset(self, indices) -> "Corpus":
        """The documents at ``indices``; their count rows are sliced from this
        corpus and emptied columns dropped, so ``terms`` stays their own."""
        indices = list(indices)
        child = Corpus([self.docs[i] for i in indices], self.tasks)
        rows = self.counts[indices]
        keep = np.flatnonzero(rows.getnnz(axis=0))
        child.terms = [self.terms[j] for j in keep]
        child.counts = _read_only(rows[:, keep])
        return child


def _read_only(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """``matrix``, its arrays flagged read-only: every count matrix is shared."""
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return matrix


def load_corpus(path, format: str = "jsonl") -> Corpus:
    """Load a labeled author corpus.

    ``pan-dir``: a directory holding ``truth.txt`` with
    ``author_id:::gender:::age`` lines plus one ``<author_id>.txt`` file per
    author.  ``jsonl``: one object per line with ``author_id``, ``text``,
    and one extra key per task.  Documents come back sorted by author_id.
    """
    p = Path(path)
    if format == "pan-dir":
        return _load_pan_dir(p)
    if format == "jsonl":
        return _load_jsonl(p)
    raise ValueError(f"unknown corpus format {format!r} (expected 'pan-dir' or 'jsonl')")


def _load_pan_dir(root: Path) -> Corpus:
    truth_path = root / "truth.txt"
    if not truth_path.is_file():
        raise FileNotFoundError(f"missing truth file: {truth_path}")
    truth: dict[str, dict[str, str]] = {}
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
        text = record["text"]
        if not isinstance(text, str):
            raise ValueError(f"{where}: 'text' must be a string, got {json.dumps(text)}")
        docs.append(AuthorDoc.from_text(author_id, text, labels))
    docs.sort(key=lambda d: d.author_id)
    return Corpus(docs, tasks if tasks is not None else frozenset())


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
    """Write a corpus in the jsonl interchange layout (one record per author)."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.docs:
            record = {"author_id": doc.author_id, "text": doc.text}
            for task in sorted(doc.labels):
                record[task] = doc.labels[task]
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


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


def build_vocabulary(corpus: Corpus, max_terms: int | None = 10_000) -> Vocabulary:
    """Keep the ``max_terms`` most frequent tokens over the whole corpus.

    Ties in collection frequency are broken lexicographically so the
    vocabulary is reproducible across runs.  ``max_terms=None`` keeps every
    distinct token.
    """
    if not corpus.docs:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    if max_terms is not None and max_terms < 1:
        raise ValueError("max_terms must be a positive integer")
    totals = np.asarray(corpus.counts.sum(axis=0)).ravel()
    # corpus.terms is sorted, so a stable sort on -frequency breaks ties by term.
    ranked = np.argsort(-totals, kind="stable")[:max_terms]
    terms = [corpus.terms[j] for j in ranked]
    freq = {t: int(totals[j]) for t, j in zip(terms, ranked)}
    return Vocabulary(terms=terms, index={t: i for i, t in enumerate(terms)}, freq=freq)
