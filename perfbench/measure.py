"""The measuring loop: set up, run the CLI commands, check their outputs.

Each iteration calls ``dtrkit.cli.main`` in-process, as a user would run the
commands: ``run`` on the generated config, then ``top-terms`` on the
generated corpus.  Untraced iterations keep only these clocks: one around
each CLI call, one around each ``cross_validate`` the ``run`` makes, one
around each block of set-ups, and one around each reference kernel, timed
between the CLI calls and after each ``cross_validate``.
With tracing, untraced and traced iterations alternate; the difference of
their medians is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import reference
import spans
import workloads

ZERO_VECTOR_WARNING = "no in-vocabulary tokens"
# Set-up and top-terms run in blocks of at least BLOCK_S, each after a
# reference kernel, until an iteration holds SETUP_MIN_S of set-up and
# TOP_TERMS_MIN_S of top-terms: a short call is then timed over many
# repeats, close in time to a reference.
BLOCK_S = 0.25
SETUP_MIN_S = 1.0
TOP_TERMS_MIN_S = 1.0
REPLAY_TIMEOUT_S = 120


class CvClock:
    """Times each cross_validate the CLI makes, through its own binding.

    ``after``, if given, is called with each call's kind and seconds once it
    returns; ``after_s`` sums the time spent in it.
    """

    def __init__(self, cli, after=None) -> None:
        self.cli = cli
        self.after = after
        self.after_s = 0.0
        self.times: dict[str, float] = {}
        self.calls = 0
        self.failed = 0

    @contextlib.contextmanager
    def installed(self):
        inner = self.cli.cross_validate
        clock = time.perf_counter

        def timed(corpus, task, rep=None, *args, **kwargs):
            self.calls += 1
            start = clock()
            try:
                report = inner(corpus, task, rep, *args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            seconds = clock() - start
            self.times[rep.kind] = self.times.get(rep.kind, 0.0) + seconds
            if self.after is not None:
                start = clock()
                self.after(rep.kind, seconds)
                self.after_s += clock() - start
            return report

        self.cli.cross_validate = timed
        try:
            yield self
        finally:
            self.cli.cross_validate = inner


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _report_checks(spec: dict, reports: dict[str, dict], author_ids: list[str]) -> list[dict]:
    """Completeness and accuracy-floor checks on one iteration's reports."""
    checks = []
    for kind in spec["kinds"]:
        report = reports.get(kind)
        if report is None:
            checks.append({"check": f"{kind}: report written", "ok": False})
            continue
        predicted = sorted(a for fold in report["folds"] for a in fold["predictions"])
        checks.append(
            {
                "check": f"{kind}: every fold predicts every test author once",
                "ok": predicted == author_ids and len(report["folds"]) == spec["folds"],
            }
        )
        floor = spec["floors"][kind]
        checks.append(
            {
                "check": f"{kind}: mean accuracy {report['mean_accuracy']:.4f} >= floor {floor}",
                "ok": report["mean_accuracy"] >= floor,
            }
        )
    return checks


def _top_terms_ok(csv_path: Path, count: int, n_categories: int) -> bool:
    if not csv_path.is_file():
        return False
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    return len({tuple(row.split(",")[:2]) for row in rows}) == count * n_categories


def measure(dtrkit, name: str, spec: dict, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, measure and check one workload in ``work``; return raw results.

    Untraced, each iteration first repeats the set-up into a throwaway
    directory, which must receive the same bytes as the first set-up.
    """
    cli = dtrkit.cli
    inputs = work / "inputs"
    paths = workloads.generate(dtrkit, name, spec, seed, inputs)
    corpus = dtrkit.load_corpus(paths["corpus"], "jsonl")
    author_ids = sorted(doc.author_id for doc in corpus.docs)
    n_categories = len(corpus.categories(workloads.TASK))
    del corpus
    tracer = spans.Tracer(dtrkit) if trace else None
    top_count = spec["top_terms"]["count"]

    timings: dict[str, list] = {"untraced": [], "traced": []}
    # Untraced: every set-up block, cross_validate, rest of a run call and
    # top-terms block with a reference kernel on either side, as
    # ["ref" | "setup" | "cv" | "rest" | "top", seconds] in time order.  The
    # reference after each cross_validate sees a change of the machine's
    # speed within a run; its time is left out of the run's.
    timeline: list[list] = []
    layer_rows: list[dict] = []
    checks: list[dict] = []
    operations = failed_ops = 0
    first_digest = None
    reports: dict[str, dict] = {}
    last_spans: list = []

    def time_reference():
        t0 = time.perf_counter()
        reference.reference()
        timeline.append(["ref", time.perf_counter() - t0])

    def repeat(kind: str, call, block_s: float, min_total: float, referenced: bool):
        """Call ``call`` in blocks of at least ``block_s`` until they hold
        ``min_total`` seconds or a call returns non-zero; return every
        call's result and each block's mean seconds per call.  With
        ``referenced``, each block follows a reference kernel and goes on the
        timeline."""
        results: list = []
        blocks: list[float] = []
        total = 0.0
        while not blocks or (total < min_total and not results[-1]):
            if referenced:
                time_reference()
            calls = 0
            t0 = time.perf_counter()
            while not calls or (time.perf_counter() - t0 < block_s and not results[-1]):
                results.append(call())
                calls += 1
            elapsed = time.perf_counter() - t0
            blocks.append(elapsed / calls)
            total += elapsed
            if referenced:
                timeline.append([kind, blocks[-1]])
        return results, blocks

    def after_cv(kind: str, cv_s: float) -> None:
        timeline.append(["cv", cv_s])
        time_reference()

    def set_up_again() -> int:
        workloads.generate(dtrkit, name, spec, seed, work / "setup-again")
        return 0

    started = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        out = work / f"iter{i}"
        csv_path = out / "top_terms.csv"
        run_argv = ["run", "--config", paths["config"], "--out", str(out / "reports")]
        top_argv = [
            "top-terms", "--corpus", paths["corpus"], "--task", workloads.TASK,
            "--count", str(top_count), "--words", str(spec["top_terms"]["words"]),
            "--out", str(csv_path),
        ]  # fmt: skip
        iteration_checks = []
        if tracer is None:
            gc.collect()
            repeat("setup", set_up_again, BLOCK_S, SETUP_MIN_S, referenced=True)
            again = work / "setup-again"
            same = all(
                (again / p.name).read_bytes().replace(bytes(again), bytes(inputs)) == p.read_bytes()
                for p in inputs.iterdir()
            )  # run.json names its own directory
            iteration_checks.append({"check": f"set-up {i}: same inputs for the same seed", "ok": same})
            shutil.rmtree(again)
        clock = CvClock(cli, after=None if tracer else after_cv)
        gc.collect()
        if traced:
            tracer.reset()
        with (
            tracer.installed() if traced else contextlib.nullcontext(),
            clock.installed(),
            contextlib.redirect_stdout(io.StringIO()),
            warnings.catch_warnings(record=True) as caught,
        ):
            warnings.simplefilter("always")
            if tracer is None:
                time_reference()
            t0 = time.perf_counter()
            run_rc = cli.main(run_argv)
            run_s = time.perf_counter() - t0 - clock.after_s
            if tracer is None:
                timeline.append(["rest", run_s - sum(clock.times.values())])
            # Traced, top-terms runs once so that the per-layer counts repeat.
            top_rcs, top_blocks = repeat(
                "top", lambda: cli.main(top_argv),
                0.0 if traced else BLOCK_S, 0.0 if traced else TOP_TERMS_MIN_S,
                referenced=tracer is None,
            )  # fmt: skip
        timings["traced" if traced else "untraced"].append(
            {"run_s": run_s, "top_terms_s": top_blocks, "cv": clock.times}
        )

        # Operations: each cross_validate, each top-terms call, each check.
        operations += clock.calls + len(top_rcs)
        failed_ops += clock.failed + sum(rc != 0 for rc in top_rcs)
        report_files = sorted((out / "reports").glob("*.json"))
        iteration_checks += [
            {"check": f"iteration {i}: run exits 0", "ok": run_rc == 0},
            {
                "check": f"iteration {i}: top-terms lists {top_count} authors per category",
                "ok": _top_terms_ok(csv_path, top_count, n_categories),
            },
        ]
        digest = _digest(report_files + [csv_path]) if csv_path.is_file() else None
        if i == 0:
            for path in report_files:
                report = json.loads(path.read_text(encoding="utf-8"))
                reports[report["representation"]] = report
            iteration_checks += _report_checks(spec, reports, author_ids)
            first_digest = digest
        else:
            iteration_checks.append(
                {
                    "check": f"iteration {i}: reports and top-terms byte-identical to iteration 0",
                    "ok": digest is not None and digest == first_digest,
                }
            )
        checks += iteration_checks
        operations += len(iteration_checks)
        failed_ops += sum(not c["ok"] for c in iteration_checks)

        if traced:
            row = tracer.metrics()
            row["representations.zero_vector_docs"] = sum(
                ZERO_VECTOR_WARNING in str(w.message) for w in caught
            )
            row["cli.report_bytes"] = sum(p.stat().st_size for p in report_files + [csv_path])
            layer_rows.append(row)
            last_spans = tracer.spans
        shutil.rmtree(out)

        i += 1
        elapsed = time.perf_counter() - started
        enough = i >= (4 if tracer else 3) and (tracer is None or i % 2 == 0)
        if enough and elapsed * (i + (2 if tracer else 1)) / i > seconds:
            break
    if tracer is None:
        time_reference()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Outside the measured time: the same calls in a fresh interpreter with
    # another string-hash seed must write the same bytes, so that no output
    # depends on set or dict order that follows the hash seed.
    replay_dir = work / "replay"
    replay = _replay(
        replay_dir,
        [
            run_argv[:-1] + [str(replay_dir / "reports")],
            top_argv[:-1] + [str(replay_dir / "top_terms.csv")],
        ],
    )
    replay_check = {
        "check": f"reports and top-terms byte-identical under PYTHONHASHSEED={replay['hash_seed']}",
        "ok": replay["rc"] == 0 and replay["digest"] == first_digest,
    }
    checks.append(replay_check)
    operations += 1
    failed_ops += not replay_check["ok"]

    return {
        "timings": timings,
        "timeline": timeline,
        "layer_rows": layer_rows,
        "checks": checks,
        "attempted": operations,
        "failed": failed_ops,
        "digest": first_digest,
        "replay": replay,
        "accuracy": {kind: r["mean_accuracy"] for kind, r in sorted(reports.items())},
        "peak_rss_mb": peak_rss_mb,
        "spans": [s.as_list() for s in last_spans],
        "self_s_by_layer_and_tag": spans.self_by_layer_and_tag(last_spans),
    }


def _replay(out: Path, argvs: list[list[str]]) -> dict:
    """Run ``argvs`` through ``dtrkit.cli.main`` in a fresh interpreter
    (``replay.py``) with a string-hash seed other than this process's;
    return its exit code and the digest of what it wrote."""
    hash_seed = "104729" if os.environ.get("PYTHONHASHSEED") != "104729" else "7919"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    try:
        rc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("replay.py")), json.dumps(argvs)],
            env=env, stdout=subprocess.DEVNULL, timeout=REPLAY_TIMEOUT_S, check=False,
        ).returncode  # fmt: skip
    except subprocess.TimeoutExpired:
        rc = -1
    files = sorted((out / "reports").glob("*.json")) + [out / "top_terms.csv"]
    digest = _digest(files) if rc == 0 and files[-1].is_file() else None
    shutil.rmtree(out, ignore_errors=True)
    return {"hash_seed": hash_seed, "rc": rc, "digest": digest}


def summarize(raw: dict, trace: bool) -> dict[str, float]:
    """The reported metrics of one run, from ``measure``'s raw results."""
    untraced = raw["timings"]["untraced"]
    if not trace:
        # Each timed piece as a multiple of the mean of the reference kernels
        # timed just before and after it: the machine's drifting speed cancels
        # out of the ratio.  A run's ratio is the sum of its pieces'.  Each
        # metric averages its ratios over the run.
        line = raw["timeline"]
        ratios: dict[str, list[float]] = {"setup": [], "run": [], "top": []}
        run_ratio = 0.0
        for j, (kind, seconds) in enumerate(line):
            if kind == "ref":
                continue
            ratio = seconds / ((line[j - 1][1] + line[j + 1][1]) / 2)
            if kind == "cv":
                run_ratio += ratio
            elif kind == "rest":
                ratios["run"].append(run_ratio + ratio)
                run_ratio = 0.0
            else:
                ratios[kind].append(ratio)
        return {
            "setup_s": statistics.fmean(ratios["setup"]) * reference.NOMINAL_S,
            "run_ref": statistics.fmean(ratios["run"]),
            "top_terms_ref": statistics.fmean(ratios["top"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "accuracy_mean": statistics.fmean(raw["accuracy"].values()) if raw["accuracy"] else 0.0,
        }
    metrics = {
        key: statistics.median(row[key] for row in raw["layer_rows"])
        for key in raw["layer_rows"][0]
    }

    def total(rows):
        return statistics.median(r["run_s"] + statistics.fmean(r["top_terms_s"]) for r in rows)

    metrics["trace.overhead_s"] = total(raw["timings"]["traced"]) - total(untraced)
    metrics["run_s"] = statistics.median(r["run_s"] for r in untraced)
    metrics["top_terms_s"] = statistics.median(t for r in untraced for t in r["top_terms_s"])
    metrics["failed_share"] = raw["failed"] / raw["attempted"]
    for kind in spans.KINDS:
        metrics[f"cv_s.{kind}"] = statistics.median(r["cv"].get(kind, 0.0) for r in untraced)
    return metrics
