"""Replays CLI calls in a fresh interpreter, for the byte-identity check.

Usage, from the root of a checkout:

    python3 perfbench/replay.py '[["run", "--config", ...], ["top-terms", ...]]'

Calls ``dtrkit.cli.main`` on each argument list in turn and exits with the
first non-zero exit code, or 0.  ``measure.py`` starts it with a string-hash
seed other than its own and compares what it writes with its own outputs.
"""

from __future__ import annotations

import json
import sys

import run  # noqa: F401  pins the BLAS threads before numpy is imported
import workloads


def main(argvs: list[list[str]]) -> int:
    cli = workloads.import_dtrkit().cli
    for argv in argvs:
        rc = cli.main(argv)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
