"""Compare what two revisions of dtrkit write, byte for byte.

Usage, from anywhere:

    python tools/compare_outputs.py REV_A REV_B [--seeds 7919 902 4111]

Both revisions are checked out with ``git worktree`` into a temporary
directory.  In each checkout, that checkout's own ``perfbench/workloads.py``
(imported, never edited) generates the long-docs, many-authors and
embeddings inputs at each seed: the corpus, the run config and, for
embeddings, the pretrained vectors file.  Then ``dtrkit run`` and
``dtrkit top-terms`` run on them as the benchmark runs them, and
``dtrkit characterize`` writes each corpus's characteristics CSV.  Every
workload's vocabulary is smaller than the default ``max_terms``, so ``run``
also runs on a copy of the config that sets ``max_terms`` to
``CUT_MAX_TERMS`` on every representation, and ``top-terms`` runs again
with ``--max-terms CUT_MAX_TERMS``: folds whose vocabulary drops terms.  On the
embeddings corpus ``dtrkit embed-train`` runs with no skip-gram flag, and
``dtrkit embed-neighbors`` queries its vectors file for the file's first
word.  Every command runs in a fresh interpreter with one BLAS thread,
side A under one ``PYTHONHASHSEED`` and side B under another.

Every input, report, CSV, vectors file and captured stdout is then compared
after each side's own directory is replaced by one placeholder.  The tool
names each file that differs, or is missing on one side, and exits 1 if
there is any; it exits 0 when all are byte-identical, and 2 when a revision
cannot be checked out or a command fails.  The checkouts and outputs are
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("long-docs", "many-authors", "embeddings")
HASH_SEEDS = {"A": "1", "B": "2"}
CUT_MAX_TERMS = 150  # below every workload's vocabulary size (about 200 to 1,000 terms)

# Run in a fresh interpreter as ``python -c GENERATE CHECKOUT NAME SEED OUT CUT``:
# writes the workload's inputs into OUT through the checkout's own harness,
# plus a copy of the run config with ``max_terms`` CUT on every
# representation, and prints the argument lists of the commands to run on them.
GENERATE = """
import json, sys
from pathlib import Path
checkout, name, seed, out = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
cut = sys.argv[5]
sys.path.insert(0, str(Path(checkout) / "perfbench"))
import workloads
spec = workloads.WORKLOADS[name]
paths = workloads.generate(workloads.import_dtrkit(), name, spec, seed, out / "inputs")
config = json.loads(Path(paths["config"]).read_text(encoding="utf-8"))
for rep in config["representations"]:
    rep["max_terms"] = int(cut)
cut_config = out / "inputs" / "config_cut.json"
cut_config.write_text(json.dumps(config, indent=2), encoding="utf-8")
top_terms = [
    "top-terms", "--corpus", paths["corpus"], "--task", workloads.TASK,
    "--count", str(spec["top_terms"]["count"]), "--words", str(spec["top_terms"]["words"]),
]
commands = {
    "run": ["run", "--config", paths["config"], "--out", str(out / "reports")],
    "run-cut": ["run", "--config", str(cut_config), "--out", str(out / "reports_cut")],
    "top-terms": [*top_terms, "--out", str(out / "top_terms.csv")],
    "top-terms-cut": [
        *top_terms, "--max-terms", cut, "--out", str(out / "top_terms_cut.csv"),
    ],
    "characterize": [
        "characterize", "--corpus", paths["corpus"], "--out", str(out / "characterize.csv"),
    ],
}
if name == "embeddings":
    commands["embed-train"] = [
        "embed-train", "--corpus", paths["corpus"], "--out", str(out / "embed_train.txt"),
        "--seed", str(seed),
    ]
print(json.dumps(commands))
"""

# ``python -c MAIN CHECKOUT ARGV_JSON``: one ``dtrkit`` command of the checkout.
MAIN = """
import json, sys
from pathlib import Path
sys.path.insert(0, str(Path(sys.argv[1]) / "perfbench"))
import workloads
sys.exit(workloads.import_dtrkit().cli.main(json.loads(sys.argv[2])))
"""


class CommandFailed(Exception):
    pass


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode:
        raise CommandFailed(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def _python(code: str, args: list[str], side: str, checkout: Path) -> str:
    """Run ``code`` in a fresh interpreter of side ``side``; its stdout."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEEDS[side])
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [sys.executable, "-c", code, str(checkout), *args]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode:
        raise CommandFailed(f"side {side}: {args} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def run_command(command: str, argv: list[str], side: str, checkout: Path, case: Path) -> None:
    """Run one ``dtrkit`` command of ``checkout``; keep its stdout in ``case``."""
    stdout = _python(MAIN, [json.dumps(argv)], side, checkout)
    (case / f"{command}.stdout").write_text(stdout, encoding="utf-8")


def run_side(side: str, checkout: Path, out: Path, seeds: list[int]) -> None:
    """Generate every workload at every seed in ``checkout`` and run the commands."""
    for name in WORKLOADS:
        for seed in seeds:
            case = out / f"{name}-{seed}"
            args = [name, str(seed), str(case), str(CUT_MAX_TERMS)]
            listing = _python(GENERATE, args, side, checkout)
            commands = json.loads(listing)
            for command, argv in commands.items():
                run_command(command, argv, side, checkout, case)
            if "embed-train" in commands:
                vectors = case / "embed_train.txt"
                with vectors.open(encoding="utf-8") as lines:
                    lines.readline()  # the "<count> <dim>" header
                    term = lines.readline().split(" ", 1)[0]
                argv = ["embed-neighbors", "--vectors", str(vectors), "--term", term]
                run_command("embed-neighbors", argv, side, checkout, case)


def differences(a: Path, b: Path) -> list[str]:
    """The relative paths of the files under ``a`` and ``b`` that differ once
    each side's directory (the parent of ``a`` or ``b``, which holds its
    checkout and its outputs) is replaced by one placeholder, or that only
    one side has."""
    files = {side: {p.relative_to(side) for p in side.rglob("*") if p.is_file()} for side in (a, b)}
    found = []
    for rel in sorted(files[a] | files[b]):
        if rel not in files[a] or rel not in files[b]:
            found.append(f"{rel} (only in {'A' if rel in files[a] else 'B'})")
            continue
        texts = {(side / rel).read_bytes().replace(bytes(side.parent), b"<side>") for side in (a, b)}
        if len(texts) > 1:
            found.append(str(rel))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7919, 902, 4111])
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="dtrkit-compare-")).resolve()
    checkouts = []
    try:
        outs = {}
        for side, rev in (("A", args.rev_a), ("B", args.rev_b)):
            commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
            checkout = work / side / "checkout"
            _git("worktree", "add", "--detach", str(checkout), commit)
            checkouts.append(checkout)
            outs[side] = work / side / "out"
            print(f"side {side}: {rev} ({commit[:12]})", flush=True)
            run_side(side, checkout, outs[side], args.seeds)
        differ = differences(outs["A"], outs["B"])
        count = sum(1 for p in outs["A"].rglob("*") if p.is_file())
    except CommandFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for checkout in checkouts:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(checkout)])
        shutil.rmtree(work, ignore_errors=True)

    for rel in differ:
        print(f"differs: {rel}")
    if differ:
        print(f"{len(differ)} files differ")
        return 1
    print(f"all {count} files byte-identical (seeds {', '.join(map(str, args.seeds))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
