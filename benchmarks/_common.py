"""Shared BENCH_*.json plumbing for the benchmark suite and the perf gate.

Every headline benchmark writes a machine-readable trajectory file at
the repo root (``BENCH_runtime.json``, ``BENCH_serving.json``) and CI's
``perf_gate.py`` compares a freshly measured file against the committed
one.  The write/merge discipline and the "measured vs committed" metric
extraction used to be duplicated across
``bench_runtime_throughput.py``, ``bench_serving.py``, and
``perf_gate.py``; this module is their single home.

(Distinct from ``common.py``, which holds the *experiment* machinery —
clip sets, sweeps, trained networks — for the paper-figure benches.)
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Tuple

#: the repo root, where every BENCH_*.json lives.
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def bench_json_path(name: str) -> str:
    """Absolute path of ``BENCH_<name>.json`` at the repo root."""
    return os.path.join(REPO_ROOT, f"BENCH_{name}.json")


def load_bench_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def write_bench_json(
    path: str, header: dict, results: dict, carry_keys: Sequence[str] = ()
) -> None:
    """Write a benchmark JSON: header, carried-over keys, fresh results.

    ``carry_keys`` names the full schema a *partial* run must not
    clobber: known keys are first copied from the existing on-disk file
    (so running one test with ``-k``, or a test failing before its
    update, preserves the other tests' metrics), then overwritten by
    whatever ``results`` measured.  Only listed keys survive the merge —
    renamed or removed metrics die with the schema instead of being
    resurrected from an old JSON forever.
    """
    payload = dict(header)
    try:
        existing = load_bench_json(path)
        payload.update(
            {key: existing[key] for key in carry_keys if key in existing}
        )
    except (OSError, json.JSONDecodeError):
        pass
    payload.update(results)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# --------------------------------------------------------------------- #
# measured-vs-committed comparison (the perf gate's core)
# --------------------------------------------------------------------- #
def normalized_metrics(data: dict) -> Dict[str, float]:
    """Normalized metric name -> value, for either benchmark format.

    Absolute frames/sec are machine-dependent, so only ratios that
    survive a hardware change are compared: per-path speedups vs loop
    serial and planned lockstep vs planned serial (runtime), and
    serving's headline ratios (vs static lockstep, shard scaling,
    pipelined-vs-sequential, chaos, autoscale, prefix and quantized
    ratios, among others).  Neither file's frozen ``history`` block is
    compared.  Every metric is higher-is-better.
    """
    if "paths" in data:  # BENCH_runtime.json
        metrics = {
            f"{label} (x loop serial)": path["speedup_vs_loop_serial"]
            for label, path in data["paths"].items()
        }
        headline = data.get("headline_speedup_vs_planned_serial")
        if headline is not None:
            metrics["planned lockstep (x planned serial)"] = headline
        return metrics
    if "serving_vs_static" in data:  # BENCH_serving.json
        metrics = {"serving (x static lockstep)": data["serving_vs_static"]}
        optional = {
            "shard_scaling_2x": "2-shard serving (x 1 worker)",
            "pipelined_vs_sequential": "pipelined lockstep (x sequential)",
            "chaos_p99_retention":
                "chaos p99 TTFF retention (x fault-free)",
            "autoscale_p99_speedup":
                "autoscaled p99 TTFF speedup under bursts (x fixed 2-shard)",
            "prefix_speedup":
                "prefix service coalesced+cached (x per-lane)",
            "quantized_speedup":
                "int8 lane on CNN-bound workload (x float32)",
        }
        for key, label in optional.items():
            if key in data:
                metrics[label] = data[key]
        if "virtual_time_speedup" in data:
            # Real-vs-simulated wall clock: the raw ratio swings with
            # host speed (a faster box burns through the same simulated
            # trace sooner), so the gated metric is capped — "well past
            # real time" is the invariant, not the exact multiple.
            metrics["virtual-time admission (x real time, capped 4)"] = min(
                float(data["virtual_time_speedup"]), 4.0
            )
        return metrics
    raise SystemExit(f"unrecognized benchmark JSON: {sorted(data)[:5]}")


def compare_metrics(
    baseline: Dict[str, float], fresh: Dict[str, float], threshold: float
) -> Tuple[List[List[str]], List[str]]:
    """Markdown table rows plus the list of regressed metric names."""
    rows: List[List[str]] = []
    regressions: List[str] = []
    for name in baseline:
        if name not in fresh:
            rows.append([name, f"{baseline[name]:.2f}", "missing", "-", "⚠️ gone"])
            regressions.append(name)
            continue
        ratio = fresh[name] / baseline[name] if baseline[name] else 1.0
        regressed = ratio < 1.0 - threshold
        status = "⚠️ regression" if regressed else "ok"
        rows.append(
            [
                name,
                f"{baseline[name]:.2f}",
                f"{fresh[name]:.2f}",
                f"{ratio:.2f}x",
                status,
            ]
        )
        if regressed:
            regressions.append(name)
    for name in fresh:
        if name not in baseline:
            rows.append([name, "-", f"{fresh[name]:.2f}", "-", "new"])
    return rows, regressions
