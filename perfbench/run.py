"""dtrkit benchmark: seeded `dtrkit run` / `dtrkit top-terms` workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (timed as ``setup_s``),
measures them for about ``S`` seconds (``perfbench/measure.py``), checks
the outputs, and prints as its last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it stamps the environment.  Full results go
to ``.perfbench/results/`` and, with tracing, the spans of the last traced
iteration to ``.perfbench/traces/``.  Exits 1 when an output check fails and
2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import os

# One BLAS thread (at or below nproc), fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import subprocess
import sys

import measure
import spans
import workloads

STATE = workloads.ROOT / ".perfbench"


def environment_stamp() -> dict:
    import numpy
    import scipy

    commit = "unknown"  # the benchmark checkout need not be a git repository
    if (workloads.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()  # fmt: skip
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((workloads.ROOT / "src" / "dtrkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


END_TO_END = (
    ("setup_s", "s"),
    ("run_ref", "ref"),
    ("top_terms_ref", "ref"),
    ("peak_rss_mb", "MiB"),
    ("accuracy_mean", "fraction"),
)


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload in a work directory of the checkout; return
    the printed result plus the raw measurements."""
    dtrkit = workloads.import_dtrkit()
    work = STATE / "work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        raw = measure.measure(dtrkit, name, spec, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = measure.summarize(raw, trace)
    units = spans.PER_LAYER if trace else END_TO_END
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units},
        "raw": raw,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env = environment_stamp()
        result = run_workload(
            args.workload, workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace),
        )  # fmt: skip
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run {args.workload}: {exc!r}", file=sys.stderr)
        return 2
    raw = result.pop("raw")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = raw.pop("spans")
    if args.trace:
        trace_path = STATE / "traces" / f"{tag}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "tag"]
        trace_path.write_text(json.dumps({"env": env, "fields": fields, "spans": spans_out}))
    results_path = STATE / "results" / f"{tag}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps({"env": env, **result, "raw": raw}, indent=1))
    for check in raw["checks"]:
        if not check["ok"]:
            print(f"perfbench: check failed: {check['check']}", file=sys.stderr)
    print("perfbench: env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
