"""Corpus ingestion, tokenization, and vocabulary construction."""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
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

# Word tokens are maximal runs of letters, digits, and apostrophes; any other
# non-space character is matched on its own.
_TOKEN_RE = re.compile(r"(?:[^\W_]|')+|\S")


def _is_symbol(ch: str) -> bool:
    return unicodedata.category(ch).startswith("S")


def _all_symbols(tok: str) -> bool:
    return all(_is_symbol(ch) for ch in tok)


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it into word and symbol tokens.

    Runs of letters/digits/apostrophes form word tokens.  Punctuation
    characters become single-character tokens, except that adjacent
    symbol-class characters (emoticons, currency or math signs) stay
    together as one token.  Whitespace only separates; no token is dropped.
    """
    tokens: list[str] = []
    prev_end = -1
    for match in _TOKEN_RE.finditer(text.lower()):
        tok = match.group()
        if (
            tokens
            and match.start() == prev_end
            and _all_symbols(tok)
            and _all_symbols(tokens[-1])
        ):
            tokens[-1] += tok
        else:
            tokens.append(tok)
        prev_end = match.end()
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
        self._rows: dict[str, int] = {}
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
            for task in sorted(self.tasks):
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
        return sorted(set().union(*(doc.counts for doc in self.docs)))

    @cached_property
    def counts(self) -> sp.csr_matrix:
        """Float64 CSR docs x :attr:`terms` counts: the one place a token
        string becomes a column; every document-side statistic slices it."""
        column = {term: j for j, term in enumerate(self.terms)}
        indices = [column[term] for doc in self.docs for term in doc.counts]
        data = [count for doc in self.docs for count in doc.counts.values()]
        indptr = np.cumsum([0] + [len(doc.counts) for doc in self.docs])
        mat = sp.csr_matrix(
            (np.asarray(data, dtype=np.float64), indices, indptr),
            shape=(len(self.docs), len(self.terms)),
        )
        mat.sort_indices()
        return mat

    def subset(self, indices) -> "Corpus":
        """The documents at ``indices``; their count rows are sliced from this
        corpus and emptied columns dropped, so ``terms`` stays their own."""
        indices = list(indices)
        child = Corpus([self.docs[i] for i in indices], self.tasks)
        rows = self.counts[indices]
        keep = np.flatnonzero(rows.getnnz(axis=0))
        child.terms = [self.terms[j] for j in keep]
        child.counts = rows[:, keep]
        return child


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
    with open(truth_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
        docs.append(AuthorDoc.from_text(author_id, txt.read_text(encoding="utf-8"), truth[author_id]))
        found.add(author_id)
    orphans = sorted(set(truth) - found)
    if orphans:
        raise ValueError(f"truth entries without document files: {orphans}")
    docs.sort(key=lambda d: d.author_id)
    return Corpus(docs, frozenset({"gender", "age"}))


def _load_jsonl(path: Path) -> Corpus:
    docs = []
    tasks: frozenset[str] | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict) or "author_id" not in record or "text" not in record:
                raise ValueError(f"{path}:{lineno}: record needs 'author_id' and 'text' keys")
            labels = {k: str(v) for k, v in record.items() if k not in ("author_id", "text")}
            record_tasks = frozenset(labels)
            if tasks is None:
                tasks = record_tasks
            elif record_tasks != tasks:
                raise ValueError(
                    f"{path}:{lineno}: label keys {sorted(record_tasks)} do not match "
                    f"earlier records {sorted(tasks)}"
                )
            docs.append(AuthorDoc.from_text(str(record["author_id"]), str(record["text"]), labels))
    docs.sort(key=lambda d: d.author_id)
    return Corpus(docs, tasks if tasks is not None else frozenset())


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
