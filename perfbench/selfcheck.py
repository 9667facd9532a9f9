"""Fast self-check of the benchmark at tiny scale.

Usage, from the root of a checkout: python3 perfbench/selfcheck.py

Runs every workload shape, shrunk, untraced and traced, and asserts that
each metric BENCHMARK.json names comes out with its unit and that the
output checks pass.  Also checks the self-time arithmetic on a hand-built
span tree.  Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import sys

import run  # pins the BLAS threads before numpy is imported
import spans
import workloads


def check_self_times() -> None:
    # root [0, 10] -> a [1, 4] -> c [2, 3]
    #              -> b [5, 9]
    tree = [
        spans.Span("cli.main", 0.0, -1, 10.0, tag="run"),
        spans.Span("evaluation.cross_validate", 1.0, 0, 4.0, tag="dor"),
        spans.Span("classifier.train_linear_svm", 2.0, 1, 3.0),
        spans.Span("corpus.load_corpus", 5.0, 0, 9.0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0], spans.self_times(tree)
    table = spans.self_by_layer_and_tag(tree)
    assert table == {
        "cli": {"run": 3.0},
        "evaluation": {"dor": 2.0},
        "classifier": {"dor": 1.0},
        "corpus": {"run": 4.0},
    }, table


def check_workloads(declared: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(name, workloads.tiny(name), seed=7, seconds=0.0, trace=trace)
            expected = declared["per_layer" if trace else "end_to_end"]
            got = {key: m["unit"] for key, m in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, result["raw"]["checks"]
            raw = result["raw"]
            assert raw["digest"] is not None and raw["replay"]["digest"] == raw["digest"], raw["replay"]
            if trace:
                m = {key: v["value"] for key, v in result["metrics"].items()}
                layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
                assert layers > 0 and m["evaluation.folds"] > 0
                entered = m["embeddings.self_s"] > 0
                assert entered == (name == "embeddings"), (name, m["embeddings.self_s"])
                # The layers' self times account for each traced iteration's
                # CLI calls, up to the clocks and wrappers around the roots.
                for row, timed in zip(raw["layer_rows"], raw["timings"]["traced"]):
                    accounted = sum(row[f"{layer}.self_s"] for layer in spans.LAYERS)
                    accounted += row["trace.observe_s"]
                    wall = timed["run_s"] + sum(timed["top_terms_s"])
                    assert abs(wall - accounted) < 0.01 * wall + 0.005, (name, wall, accounted)
            print(f"selfcheck: {name} trace={int(trace)} ok", flush=True)


def main() -> int:
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        group: {m["name"]: m["unit"] for m in bench[group]} for group in ("end_to_end", "per_layer")
    }
    assert declared["end_to_end"] == dict(run.END_TO_END)
    assert declared["per_layer"] == dict(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    check_self_times()
    print("selfcheck: span arithmetic ok", flush=True)
    check_workloads(declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
