"""CI perf gate: compare a fresh benchmark JSON against the committed one.

Usage::

    python benchmarks/perf_gate.py BASELINE.json FRESH.json \
        [--threshold 0.30] [--summary $GITHUB_STEP_SUMMARY] [--label NAME]

Absolute frames/sec are machine-dependent (a laptop baseline vs a shared
CI runner), so the gate compares *normalized* metrics that survive a
hardware change:

* ``BENCH_runtime.json`` — each path's ``speedup_vs_loop_serial`` (the
  shape of the perf curve relative to the serial loop-RFBME run on the
  same host) and planned lockstep over planned serial;
* ``BENCH_serving.json`` — ``serving_vs_static`` (continuous batching
  relative to static lockstep on the same host), ``shard_scaling_2x``
  (2-shard aggregate throughput relative to the single-process run),
  ``pipelined_vs_sequential`` (pipelined lockstep relative to the same
  batches stepped with every head inline), and the chaos, autoscale,
  virtual-time, prefix-service and quantized-lane ratios.

Neither file's frozen ``history`` block is compared.

A markdown speedup table is written to ``--summary`` (the
``$GITHUB_STEP_SUMMARY`` file in CI) and echoed to stdout.  Any metric
more than ``--threshold`` (default 30%) below its committed value exits
non-zero and emits a ``::warning`` annotation; the CI step runs with
``continue-on-error`` so the job turns amber — visibly degraded, never
silently green.

The JSON load/merge discipline and the metric extraction/comparison live
in ``benchmarks/_common.py``, shared with the benchmarks that write the
files.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from _common import compare_metrics, load_bench_json, normalized_metrics


def render(label: str, rows: List[List[str]]) -> str:
    header = "| metric | committed | fresh | ratio | status |"
    rule = "|---|---|---|---|---|"
    body = "\n".join("| " + " | ".join(row) + " |" for row in rows)
    return f"### Perf gate: {label}\n\n{header}\n{rule}\n{body}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed benchmark JSON")
    parser.add_argument("fresh", help="freshly measured benchmark JSON")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="fractional regression that trips the gate")
    parser.add_argument("--summary", default=None,
                        help="markdown file to append the table to "
                             "(e.g. $GITHUB_STEP_SUMMARY)")
    parser.add_argument("--label", default=None,
                        help="table heading (default: fresh file name)")
    args = parser.parse_args(argv)

    baseline = normalized_metrics(load_bench_json(args.baseline))
    fresh = normalized_metrics(load_bench_json(args.fresh))

    rows, regressions = compare_metrics(baseline, fresh, args.threshold)
    table = render(args.label or args.fresh, rows)
    print(table)
    if args.summary:
        with open(args.summary, "a") as handle:
            handle.write(table + "\n")

    if regressions:
        # GitHub annotation: visible on the workflow run and the PR.
        print(
            f"::warning title=Perf gate::{len(regressions)} metric(s) "
            f"regressed >{args.threshold:.0%} vs the committed baseline: "
            + ", ".join(regressions)
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
