"""Command-line front end: run cross-validated experiments from a config
file, characterize corpora, inspect discriminative authors, and train or
query embeddings."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import embeddings, evaluation, representations
from .corpus import CORPUS_FORMATS, build_vocabulary, load_corpus
from .evaluation import (
    CHARACTERISTICS,
    ClfConfig,
    RepConfig,
    _csv_table,
    attach_significance,
    collection_stats,
    cross_validate,
    information_gain,
    report_to_json,
    reports_to_accuracy_csv,
)
from .representations import _finite_real, _integer

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """Invalid configuration or command usage (exit code 2)."""


def _int_at_least(low: int):
    """An argparse ``type`` for an integer flag whose value is at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtrkit",
        description="Distributional term representations for author profiling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run cross-validated experiments from a config file")
    run.add_argument("--config", help="JSON experiment config")
    run.add_argument("--corpus", help="corpus path (overrides the config)")
    run.add_argument("--format", choices=CORPUS_FORMATS, help="corpus format override")
    run.add_argument("--task", help="restrict to one task")
    run.add_argument("--rep", help="restrict to one representation kind")
    run.add_argument("--seed", type=int, help="seed override (mandatory somewhere)")
    run.add_argument("--out", help="output directory override")
    run.set_defaults(func=_cmd_run)

    char = sub.add_parser("characterize", help="collection characteristics per task")
    char.add_argument("--corpus", required=True)
    char.add_argument("--format", choices=CORPUS_FORMATS, default="jsonl")
    char.add_argument("--task", help="task to characterize (default: all)")
    char.add_argument("--out", help="write the characteristics CSV here")
    char.set_defaults(func=_cmd_characterize)

    top = sub.add_parser("top-terms", help="discriminative authors and their tf-idf words")
    top.add_argument("--corpus", required=True)
    top.add_argument("--format", choices=CORPUS_FORMATS, default="jsonl")
    top.add_argument("--task", required=True)
    top.add_argument("--count", type=_int_at_least(0), default=3, help="authors per category")
    top.add_argument("--words", type=_int_at_least(0), default=10, help="tf-idf words per author")
    top.add_argument("--max-terms", type=_int_at_least(1), default=10_000)
    top.add_argument("--out", help="write the report CSV here")
    top.set_defaults(func=_cmd_top_terms)

    emb = sub.add_parser("embed-train", help="train skip-gram vectors on a corpus")
    emb.add_argument("--corpus", required=True)
    emb.add_argument("--format", choices=CORPUS_FORMATS, default="jsonl")
    emb.add_argument("--out", required=True, help="output vectors file (word2vec text)")
    emb.add_argument("--seed", type=int, required=True)
    emb.add_argument("--dim", type=int, default=100)
    emb.add_argument("--window", type=int, default=5)
    emb.add_argument("--negatives", type=int, default=5)
    emb.add_argument("--epochs", type=int, default=5)
    emb.add_argument("--lr", type=float, default=0.025)
    emb.add_argument("--min-count", type=int, default=1)
    emb.add_argument("--max-terms", type=_int_at_least(1), default=10_000)
    emb.set_defaults(func=_cmd_embed_train)

    nn = sub.add_parser("embed-neighbors", help="nearest neighbors in a vectors file")
    nn.add_argument("--vectors", required=True, help="word2vec text file")
    nn.add_argument("--term", required=True)
    nn.add_argument("-k", type=_int_at_least(1), default=10)
    nn.set_defaults(func=_cmd_embed_neighbors)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, KeyError) as exc:
        # An OSError's str() names the file; a KeyError's quotes its message.
        message = exc if isinstance(exc, OSError) or not exc.args else exc.args[0]
        print(f"error: {message}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

_DEFAULT_EVALUATION = {"folds": 10, "alpha": 0.05}


def _load_run_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path}: config must be a JSON object")

    # Flags override file values.
    if args.corpus:
        name = _default_corpus_name(args.corpus)
        cfg["corpora"] = [
            {"name": name, "path": args.corpus, "format": args.format or "jsonl"}
        ]
    if args.task:
        cfg["tasks"] = [args.task]
    if args.rep:
        cfg["representations"] = [{"kind": args.rep}]
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out:
        cfg["output_dir"] = args.out

    if not _integer(cfg.get("seed")):
        raise ConfigError("config must set an integer 'seed'")
    corpora = cfg.get("corpora")
    if not corpora:
        raise ConfigError("config must list at least one corpus under 'corpora'")
    for spec in corpora:
        if not isinstance(spec, dict):
            raise ConfigError(f"every corpus entry must be a JSON object, got {spec!r}")
        if "path" not in spec or "format" not in spec:
            raise ConfigError("every corpus entry needs 'path' and 'format'")
        spec.setdefault("name", _default_corpus_name(spec["path"]))
        _check_file_name_part(spec["name"], "corpus name")
        if spec["format"] not in CORPUS_FORMATS:
            raise ConfigError(f"unknown corpus format {spec['format']!r}")
        if not Path(spec["path"]).exists():
            raise ConfigError(f"corpus path does not exist: {spec['path']}")
    _check_unique([spec["name"] for spec in corpora], "corpus names")
    tasks = cfg.get("tasks")
    if not (_string_list(tasks) and tasks):
        raise ConfigError(f"'tasks' must be a non-empty list of strings, got {tasks!r}")
    for task in tasks:
        _check_file_name_part(task, "task")
    _check_unique(tasks, "tasks")
    if not cfg.get("representations"):
        raise ConfigError("config must list at least one representation")
    cfg.setdefault("output_dir", "reports")
    if not isinstance(cfg.get("evaluation", {}), dict):
        raise ConfigError("'evaluation' must be a JSON object")
    cfg["evaluation"] = {**_DEFAULT_EVALUATION, **cfg.get("evaluation", {})}
    folds, alpha = cfg["evaluation"]["folds"], cfg["evaluation"]["alpha"]
    if not (_integer(folds) and folds >= 2):
        raise ConfigError(f"evaluation folds must be an integer >= 2, got {folds!r}")
    if not (_finite_real(alpha) and 0 < alpha < 1):
        raise ConfigError(f"evaluation alpha must be a number in (0, 1), got {alpha!r}")
    cfg.setdefault("classifier", {})
    return cfg


def _string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _default_corpus_name(path) -> str:
    stem = Path(path).stem
    return "corpus" if stem in ("", "..") else stem


def _check_file_name_part(value, what: str) -> None:
    """Report files are named ``<corpus>_<task>_<rep_id>.json``; refuse a
    part that is not a plain file name before anything runs."""
    if not isinstance(value, str) or value in ("", ".", "..") or "/" in value or "\0" in value:
        raise ConfigError(f"{what} {value!r} cannot be part of a file name")


def _check_unique(values: list[str], what: str) -> None:
    """Refuse a repeated name: its report files would overwrite the first one's."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{what} must be unique, got {values}")


def _rep_from_spec(spec: dict) -> RepConfig:
    if not isinstance(spec, dict):
        raise ConfigError(f"every representation entry must be a JSON object, got {spec!r}")
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind is None:
        raise ConfigError("every representation entry needs a 'kind'")
    emb_spec = spec.pop("embedding", None)
    embedding = None
    if emb_spec is not None:
        try:
            embedding = embeddings.EmbeddingConfig(**emb_spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad embedding config: {exc}") from exc
    try:
        return RepConfig(kind=kind, embedding=embedding, **spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad representation config: {exc}") from exc


def _cmd_run(args) -> int:
    cfg = _load_run_config(args)
    seed = cfg["seed"]
    folds = cfg["evaluation"]["folds"]
    alpha = cfg["evaluation"]["alpha"]
    try:
        clf = ClfConfig(**cfg["classifier"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad classifier config: {exc}") from exc
    reps = [_rep_from_spec(spec) for spec in cfg["representations"]]
    for rep in reps:
        if rep.rep_id is not None:
            _check_file_name_part(rep.rep_id, "rep_id")
        if rep.kind == "w2v-pretrained" and not Path(rep.pretrained_path).is_file():
            raise ConfigError(f"pretrained vectors file not found: {rep.pretrained_path}")
    rep_ids = [rep.id for rep in reps]
    _check_unique(rep_ids, "representation ids")
    baselines = cfg["evaluation"].get("baselines")
    if baselines is None:
        baselines = ["bow"] if "bow" in rep_ids else []
    elif not _string_list(baselines):
        raise ConfigError(f"evaluation baselines must be a list of strings, got {baselines!r}")
    unknown = [b for b in baselines if b not in rep_ids]
    if unknown:
        raise ConfigError(f"significance baselines {unknown} are not configured representations")
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    summary: dict[str, dict[str, dict[str, float]]] = {}
    for spec in cfg["corpora"]:
        corpus = load_corpus(spec["path"], spec["format"])
        for task in cfg["tasks"]:
            reports: dict[str, evaluation.EvalReport] = {}
            for rep in reps:
                reports[rep.id] = cross_validate(
                    corpus, task, rep, clf, k=folds, seed=seed, corpus_name=spec["name"]
                )
            for rep_id, report in reports.items():
                pairs = {b: reports[b] for b in baselines if b != rep_id}
                attach_significance(report, pairs, alpha=alpha)
                out_json = out_dir / f"{spec['name']}_{task}_{rep_id}.json"
                out_json.write_text(report_to_json(report), encoding="utf-8")
            out_csv = out_dir / f"{spec['name']}_{task}_folds.csv"
            out_csv.write_text(reports_to_accuracy_csv(reports), encoding="utf-8")
            for rep_id in sorted(reports):
                report = reports[rep_id]
                stars = "".join(
                    "*" for res in report.significance.values() if res.significant
                )
                print(
                    f"{spec['name']}/{task}/{rep_id}: "
                    f"mean accuracy {report.mean_accuracy:.4f}{stars}"
                )
            summary.setdefault(task, {}).setdefault(spec["name"], {})
            for rep_id, report in reports.items():
                summary[task][spec["name"]][rep_id] = report.mean_accuracy

    if len(cfg["corpora"]) > 1:
        for task, by_corpus in summary.items():
            _print_accuracy_table(task, by_corpus)
    return 0


def _print_accuracy_table(task: str, by_corpus: dict[str, dict[str, float]]) -> None:
    corpora = sorted(by_corpus)
    rep_ids = sorted(next(iter(by_corpus.values())))
    width = max(12, max(len(r) for r in rep_ids) + 2)
    print(f"\ntask: {task}")
    print("".ljust(width) + "".join(c.rjust(12) for c in corpora))
    for rep_id in rep_ids:
        row = "".join(f"{by_corpus[c].get(rep_id, float('nan')):12.4f}" for c in corpora)
        print(rep_id.ljust(width) + row)


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------


def _require_corpus(args):
    path = Path(args.corpus)
    if not path.exists():
        raise ConfigError(f"corpus path does not exist: {path}")
    return load_corpus(path, args.format)


def _cmd_characterize(args) -> int:
    corpus = _require_corpus(args)
    tasks = [args.task] if args.task else sorted(corpus.tasks)
    if not tasks:
        raise ConfigError("corpus has no tasks to characterize")
    rows = [["task", *CHARACTERISTICS]]
    for task in tasks:
        stats = collection_stats(corpus, task).as_dict()
        rows.append([task, *stats.values()])
        printable = ", ".join(f"{k}={v:.6f}" for k, v in stats.items())
        print(f"{task}: {printable}")
    if args.out:
        Path(args.out).write_text(_csv_table(rows), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# top-terms
# ---------------------------------------------------------------------------


def _cmd_top_terms(args) -> int:
    corpus = _require_corpus(args)
    if args.task not in corpus.tasks:
        raise ConfigError(
            f"unknown task {args.task!r}; corpus tasks: {sorted(corpus.tasks)}"
        )
    if args.count == 0:
        return 0

    vocab = build_vocabulary(corpus, args.max_terms)
    docs = representations._over_vocabulary(corpus, vocab)  # one count matrix for both
    tm = representations.build_dor(docs, vocab)
    doc_vectors = representations.aggregate_corpus(docs, tm, vocab)
    labels = corpus.labels(args.task)

    # Rank the occurrence-profile features (one per author) by how much the
    # binary above/below-median split of their values tells us about labels.
    gains = information_gain(doc_vectors, labels).tolist()
    by_author = dict(zip(tm.feature_names, gains))
    label_of = {doc.author_id: doc.labels[args.task] for doc in corpus.docs}
    picks = []  # (category, author): each category's most informative authors
    for cat in corpus.categories(args.task):
        ranked = sorted(
            (author for author in tm.feature_names if label_of[author] == cat),
            key=lambda author: (-by_author[author], author),
        )
        picks += [(cat, author) for author in ranked[: args.count]]
    tops = evaluation.top_terms_tfidf(corpus, [author for _, author in picks], args.words)

    rows = [["category", "author", "information_gain", "rank", "term", "tfidf"]]
    for (cat, author), words in zip(picks, tops):
        joined = ", ".join(term for term, _ in words)
        print(f"{cat} | {author} (ig={by_author[author]:.4f}): {joined}")
        gain = repr(by_author[author])  # formatted once for all of the author's rows
        for rank, (term, score) in enumerate(words, start=1):
            rows.append([cat, author, gain, rank, term, score])
    if args.out:
        Path(args.out).write_text(_csv_table(rows), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def _cmd_embed_train(args) -> int:
    try:
        cfg = embeddings.EmbeddingConfig(
            dim=args.dim,
            window=args.window,
            negatives=args.negatives,
            epochs=args.epochs,
            initial_lr=args.lr,
            min_count=args.min_count,
        )
    except ValueError as exc:
        raise ConfigError(f"bad embedding config: {exc}") from exc
    corpus = _require_corpus(args)
    vocab = build_vocabulary(corpus, args.max_terms)
    tm = embeddings.train_skipgram(corpus, vocab, cfg, seed=args.seed)
    embeddings.save_embeddings(tm, args.out)
    objective = tm.meta["objective"]
    print(
        f"trained {len(tm.terms)} x {tm.dims} vectors; "
        f"objective {objective[0]:.4f} -> {objective[-1]:.4f}; wrote {args.out}"
    )
    return 0


def _cmd_embed_neighbors(args) -> int:
    path = Path(args.vectors)
    if not path.is_file():
        raise ConfigError(f"vectors file does not exist: {path}")
    words, matrix = embeddings.read_word2vec(path)
    first = embeddings._first_rows(words)
    tm = representations.TermMatrix("EMBEDDING", list(first), matrix[list(first.values())])
    for term, sim in embeddings.nearest_neighbors(tm, args.term, args.k):
        print(f"{term}\t{sim:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
