"""End-to-end benchmark of the EVA2 reproduction.

Run every workload, one subprocess after another, and write one JSON
result::

    python benchmarks/e2e/run.py [--seed N] [--seconds S] [--runs N]
                                 [--trace 0|1] [--trace-dir DIR] [--out FILE]

Run one workload in this process; the last line printed is the result::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Compare two result files, workload by workload and metric by metric::

    python benchmarks/e2e/run.py compare PARENT.json CHANGE.json

``--trace 0`` reports the end-to-end metrics (``END_TO_END``), measured
with nothing wrapped.  ``--trace 1`` alternates untraced and traced
rounds of passes, reports the per-layer metrics (``PER_LAYER``) from the
traced ones, and writes the spans as a Chrome trace file per workload.
The program is imported from ``src/`` next to this directory; without it
the command exits non-zero before printing any result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: default measuring time of one workload run, seconds (BENCHMARK.json's
#: run_seconds).
SECONDS = 15
#: set-up is measured this many times per run (the run's own plus fresh
#: subprocesses); the median is reported.
SETUP_SAMPLES = 3
#: a tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: Optional[float] = None


#: Timing bounds are 0.25, not 0.10: on a shared host, speed moves by up
#: to 20% for minutes at a time, for every workload at once.  The peak
#: memory moves up to 7% between seeds; top-1 agreement up to 1.5%.
END_TO_END = (
    Metric("throughput_fps", "frames/s", "higher", 0.25),
    Metric("ttff_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("peak_mem_mb", "MB", "lower", 0.25),
    Metric("top1_agreement", "ratio", "higher", 0.05),
    Metric("setup_s", "s", "lower", 0.25),
)

PER_LAYER = (
    Metric("core.rfbme.calls", "count", "lower"),
    Metric("core.rfbme.self_s", "s", "lower"),
    Metric("core.rfbme.share", "ratio", "lower"),
    Metric("core.rfbme.pairs", "count", "lower"),
    Metric("core.rfbme.us_per_pair", "us", "lower"),
    Metric("core.rfbme.gadd_per_s", "Gadd/s", "higher"),
    Metric("core.rfbme.used_frac", "ratio", "higher"),
    Metric("core.keyframe.calls", "count", "lower"),
    Metric("core.keyframe.self_s", "s", "lower"),
    Metric("core.keyframe.share", "ratio", "lower"),
    Metric("core.keyframe.key_frac", "ratio", "lower"),
    Metric("core.warp.calls", "count", "lower"),
    Metric("core.warp.share", "ratio", "lower"),
    Metric("core.warp.rows", "count", "higher"),
    Metric("nn.inference.prefix.calls", "count", "lower"),
    Metric("nn.inference.prefix.self_s", "s", "lower"),
    Metric("nn.inference.prefix.share", "ratio", "lower"),
    Metric("nn.inference.prefix.rows", "count", "lower"),
    Metric("nn.inference.prefix.rows_per_call", "count", "higher"),
    Metric("nn.inference.prefix.gmac_per_s", "GMAC/s", "higher"),
    Metric("nn.inference.suffix.calls", "count", "lower"),
    Metric("nn.inference.suffix.self_s", "s", "lower"),
    Metric("nn.inference.suffix.share", "ratio", "lower"),
    Metric("nn.inference.suffix.rows", "count", "lower"),
    Metric("nn.inference.suffix.rows_per_call", "count", "higher"),
    Metric("nn.inference.suffix.gmac_per_s", "GMAC/s", "higher"),
    Metric("runtime.prefix_service.calls", "count", "lower"),
    Metric("runtime.prefix_service.share", "ratio", "lower"),
    Metric("runtime.prefix_service.hit_rate", "ratio", "higher"),
    Metric("runtime.prefix_service.fused_batches", "count", "higher"),
    Metric("runtime.prefix_service.saved_gmac", "GMAC", "higher"),
    Metric("runtime.stage_graph.calls", "count", "lower"),
    Metric("runtime.stage_graph.self_s", "s", "lower"),
    Metric("runtime.stage_graph.share", "ratio", "lower"),
    Metric("runtime.stage_graph.steps", "count", "lower"),
    Metric("runtime.stage_graph.pipelined_frac", "ratio", "higher"),
    Metric("runtime.serving.calls", "count", "lower"),
    Metric("runtime.serving.share", "ratio", "lower"),
    Metric("runtime.serving.mean_occupancy", "clips", "higher"),
    Metric("runtime.batched.calls", "count", "lower"),
    Metric("runtime.batched.share", "ratio", "lower"),
    Metric("trace.residual_share", "ratio", "lower"),
    Metric("trace.accounted_frac", "ratio", "higher"),
    Metric("trace.overhead_frac", "ratio", "lower"),
    Metric("trace.span_cost_frac", "ratio", "lower"),
)


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def tail(values: Sequence[float], p: int) -> Optional[float]:
    """The ``p``-th percentile (NumPy's default interpolation), or None
    unless at least TAIL_SAMPLES samples lie beyond it (p99 needs 1000
    samples)."""
    if len(values) * (100 - p) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# --------------------------------------------------------------------- #
# host
# --------------------------------------------------------------------- #
def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"error: repro was imported from {repro.__file__}, not {SRC}"
        )


def host_facts() -> dict:
    """What must match before two result files may be compared."""
    from repro.core.sad_kernel import get_kernel

    kernel = get_kernel()
    return {
        "nproc": os.cpu_count(),
        "kernel": kernel is not None,
        "vnni": bool(kernel is not None and kernel.has_vnni),
    }


def _proc_status_mb(key: str) -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"{key} missing from /proc/self/status")


def _reset_peak_rss() -> None:
    """Start a fresh peak-RSS window (Linux ``clear_refs`` 5).  Where the
    kernel refuses, the peak stays the process-lifetime peak."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


# --------------------------------------------------------------------- #
# one workload
# --------------------------------------------------------------------- #
def timed_passes(workload, runner, inputs, refs, seconds: float,
                 tracer=None) -> list:
    """Whole rounds (one pass per input set) until ``seconds`` elapse.

    With a tracer, rounds alternate untraced / traced and always come in
    pairs, so the tracing overhead is measured on the same inputs with as
    many passes on each side.
    """
    targets = None
    if tracer is not None:
        from e2e_trace import layer_targets

        targets = layer_targets()
    group = 2 if tracer else 1  # untraced + traced rounds
    passes = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or rounds % group or time.perf_counter() < deadline:
        traced = tracer is not None and rounds % 2 == 1
        for k in range(len(inputs)):
            if traced:
                tracer.run = len(passes)
                with tracer.installed(targets):
                    done = workload.run_pass(runner, inputs, refs, k, True)
            else:
                done = workload.run_pass(runner, inputs, refs, k, False)
            passes.append(done)
        rounds += 1
    return passes


def fastest_passes(passes) -> list:
    """Each input set's fastest pass.

    On a shared host other jobs only ever add time to a pass, and for
    seconds at a stretch; on a 2-core shared host the fastest of several
    passes of the same input repeated within about 2% between processes
    where the median moved 5-14%.
    """
    best: Dict[int, object] = {}
    for done in passes:
        if done.index not in best or done.busy_s < best[done.index].busy_s:
            best[done.index] = done
    return [best[index] for index in sorted(best)]


def throughput(passes) -> float:
    """Frames per busy second over each input set's fastest pass."""
    best = fastest_passes(passes)
    return sum(d.frames for d in best) / sum(d.busy_s for d in best)


def end_to_end_metrics(passes, setup_samples, peak_mb) -> Dict[str, tuple]:
    """The END_TO_END values, from each input set's fastest untraced pass,
    with their units."""
    passes = fastest_passes([done for done in passes if not done.traced])
    ttff = [t for done in passes for t in done.ttff_s]
    latency = [t for done in passes for t in done.latency_s]
    frames = sum(done.frames for done in passes)
    values = {
        "throughput_fps": throughput(passes),
        "ttff_p50_ms": statistics.median(ttff) * 1e3,
        "latency_p50_ms": statistics.median(latency) * 1e3,
        "peak_mem_mb": peak_mb,
        "top1_agreement": sum(d.top1_agree for d in passes) / frames,
        "setup_s": statistics.median(setup_samples),
    }
    return {m.name: (values[m.name], m.unit) for m in END_TO_END}


def sample_metrics(passes) -> Dict[str, tuple]:
    """Request samples pooled over every untraced pass, for the result
    file: counts, tails where the sample supports them, frame gaps and
    queue waits (serving only)."""
    passes = [done for done in passes if not done.traced]
    pooled = {
        "ttff": [t for d in passes for t in d.ttff_s],
        "latency": [t for d in passes for t in d.latency_s],
        "frame_gap": [t for d in passes for t in d.gap_s],
        "queue_wait": [t for d in passes for t in d.queue_s],
    }
    out: Dict[str, tuple] = {}
    for name, values in pooled.items():
        if not values:
            continue
        out[f"{name}_samples"] = (len(values), "count")
        if name in ("frame_gap", "queue_wait"):
            out[f"{name}_p50_ms"] = (statistics.median(values) * 1e3, "ms")
        p99 = tail(values, 99)
        if p99 is not None:
            out[f"{name}_p99_ms"] = (p99 * 1e3, "ms")
    return out


def check_metrics(passes) -> Dict[str, tuple]:
    """Output-check totals over every pass, traced or not."""
    attempted = sum(d.requests for d in passes)
    frames = sum(d.frames for d in passes)
    return {
        "failed_frac": (sum(d.failed for d in passes) / attempted, "ratio"),
        "top1_contract": (
            sum(d.top1_contract for d in passes) / frames, "ratio"),
        "key_fraction": (sum(d.key_frames for d in passes) / frames, "ratio"),
        "max_abs_error": (max(d.max_abs_error for d in passes), "abs"),
    }


def layer_metrics(tracer, passes) -> Dict[str, tuple]:
    """Per-layer metrics of the traced passes; counts and seconds are
    per traced pass, shares are of the traced passes' wall time."""
    from e2e_trace import LAYERS, LayerTotal, layer_totals, span_cost

    traced = [d for d in passes if d.traced]
    untraced = [d for d in passes if not d.traced]
    n = len(traced)
    wall = sum(d.wall_s for d in traced)
    spans = tracer.spans
    totals = layer_totals(spans)

    def total(layer) -> LayerTotal:
        return totals.get(layer, LayerTotal(0, 0.0, ()))

    def count(layer, i):
        counts = total(layer).counts
        return counts[i] if counts else 0

    def ratio(amount, base, scale=1.0):
        return amount / base * scale if base else 0.0

    out: Dict[str, tuple] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (total(layer).calls / n, "count")
        out[f"{layer}.self_s"] = (total(layer).self_s / n, "s")
        out[f"{layer}.share"] = (total(layer).self_s / wall, "ratio")

    pairs, adds = count("core.rfbme", 0), count("core.rfbme", 1)
    rfbme_s = total("core.rfbme").self_s
    warp_rows = count("core.warp", 0)
    out["core.rfbme.pairs"] = (pairs / n, "count")
    out["core.rfbme.us_per_pair"] = (ratio(rfbme_s, pairs, 1e6), "us")
    out["core.rfbme.gadd_per_s"] = (ratio(adds, rfbme_s, 1e-9), "Gadd/s")
    out["core.rfbme.used_frac"] = (ratio(warp_rows, pairs), "ratio")
    out["core.keyframe.key_frac"] = (
        ratio(count("core.keyframe", 0), total("core.keyframe").calls),
        "ratio")
    out["core.warp.rows"] = (warp_rows / n, "count")
    out["core.warp.us_per_row"] = (
        ratio(total("core.warp").self_s, warp_rows, 1e6), "us")
    for part in ("prefix", "suffix"):
        layer = f"nn.inference.{part}"
        rows, macs = count(layer, 0), count(layer, 1)
        out[f"{layer}.rows"] = (rows / n, "count")
        out[f"{layer}.rows_per_call"] = (
            ratio(rows, total(layer).calls), "count")
        out[f"{layer}.gmac_per_s"] = (
            ratio(macs, total(layer).self_s, 1e-9), "GMAC/s")
    hits = sum(d.prefix_hits for d in traced)
    lookups = hits + sum(d.prefix_misses for d in traced)
    out["runtime.prefix_service.hit_rate"] = (ratio(hits, lookups), "ratio")
    out["runtime.prefix_service.fused_batches"] = (
        sum(d.fused_batches for d in traced) / n, "count")
    out["runtime.prefix_service.saved_gmac"] = (
        sum(d.saved_macs for d in traced) / n / 1e9, "GMAC")
    steps = sum(d.steps for d in traced)
    out["runtime.stage_graph.steps"] = (
        count("runtime.stage_graph", 0) / n, "count")
    out["runtime.stage_graph.pipelined_frac"] = (
        ratio(sum(d.pipelined_steps for d in traced), steps), "ratio")
    serving = total("runtime.serving").calls > 0
    out["runtime.serving.mean_occupancy"] = (
        ratio(sum(d.frames for d in traced), steps) if serving else 0.0,
        "clips")
    if serving:
        waits = [t for d in traced for t in d.queue_s]
        out["runtime.serving.queue_wait_p50_ms"] = (
            statistics.median(waits) * 1e3, "ms")
        p99 = tail(waits, 99)
        if p99 is not None:
            out["runtime.serving.queue_wait_p99_ms"] = (p99 * 1e3, "ms")
    roots = sum(s.duration for s in spans if s.parent is None)
    accounted = sum(t.self_s for t in totals.values())
    residual = wall - roots
    out["trace.residual_share"] = (residual / wall, "ratio")
    out["trace.accounted_frac"] = ((accounted + residual) / wall, "ratio")
    out["trace.overhead_frac"] = (
        1.0 - throughput(traced) / throughput(untraced), "ratio")
    out["trace.span_cost_frac"] = (
        len(spans) * span_cost() / wall, "ratio")
    out["trace.spans"] = (len(spans) / n, "count")
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool,
            trace_dir: Path, import_s: float = 0.0) -> dict:
    """Run one workload in this process and return its full result.

    ``peak_mem_mb`` is the peak RSS while the timed passes run, minus the
    RSS right after the inputs were generated (so it counts set-up's
    retained memory and the passes' working memory, not the inputs).
    """
    from e2e_trace import Tracer, chrome_trace
    from e2e_workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.generate(seed, quick)
    gc.collect()
    base_mb = _proc_status_mb("VmRSS")
    start = time.perf_counter()
    runner = workload.setup(inputs)
    setup_samples = [import_s + time.perf_counter() - start]
    refs = workload.reference(inputs)
    probes = 0 if quick else SETUP_SAMPLES - 1
    setup_samples += [_setup_probe(name, seed) for _ in range(probes)]
    gc.collect()
    _reset_peak_rss()
    tracer = Tracer() if trace else None
    passes = timed_passes(workload, runner, inputs, refs, seconds, tracer)
    peak_mb = _proc_status_mb("VmHWM") - base_mb

    attempted = sum(d.requests for d in passes)
    failed = sum(d.failed for d in passes)
    values = end_to_end_metrics(passes, setup_samples, peak_mb)
    values.update(sample_metrics(passes))
    values.update(check_metrics(passes))
    values["passes"] = (len(passes), "count")
    values["setup_samples_s"] = (setup_samples, "s")
    correct = (failed == 0
               and values["top1_contract"][0] >= workload.top1_floor())
    if tracer is not None:
        values.update(layer_metrics(tracer, passes))
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{name}-seed{seed}.trace.json"
        with open(path, "w") as handle:
            json.dump(chrome_trace(tracer.spans, f"{name} seed {seed}"),
                      handle)
        values["trace_file"] = (str(path), "path")
    table = [metric.name for metric in (PER_LAYER if trace else END_TO_END)]

    def entries(keys):
        return {
            key: {"value": values[key][0], "unit": values[key][1]}
            for key in keys
        }

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "host": host_facts(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": entries(table),
        "extra": entries(key for key in values if key not in table),
    }


def _setup_probe(name: str, seed: int) -> float:
    """Set-up seconds of a fresh interpreter (see :func:`probe`)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def probe(name: str, seed: int, import_s: float) -> None:
    """Print import + set-up seconds (network, plans, warm-up pass)."""
    from e2e_workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.generate(seed, quick=False, warm=True)
    start = time.perf_counter()
    workload.setup(inputs)
    print(json.dumps({"setup_s": import_s + time.perf_counter() - start}))


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #
def print_result(result: dict) -> None:
    status = "ok" if result["correct"] else "FAILED CHECKS"
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"trace {result['trace']}): {status}, "
          f"{result['failed']}/{result['attempted']} requests failed")
    for group in ("metrics", "extra"):
        for name, entry in result[group].items():
            value = entry["value"]
            if isinstance(value, float):
                value = f"{value:.6g}"
            elif isinstance(value, list):
                value = " ".join(f"{v:.4g}" for v in value)
            print(f"  {name:<44} {value} {entry['unit']}")


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def write_results(path: Path, results: List[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    hosts = {json.dumps(r["host"], sort_keys=True) for r in results}
    if len(hosts) > 1:
        raise RuntimeError("runs disagree on host facts")
    with open(path, "w") as handle:
        json.dump({"host": results[0]["host"], "runs": results}, handle,
                  indent=1)


def run_all(args) -> int:
    """Each workload in its own subprocess, one after another."""
    out = Path(args.out or ".bench_out/e2e.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    results, ok = [], True
    with tempfile.TemporaryDirectory(dir=out.parent) as tmp:
        for run in range(args.runs):
            for name in args.workloads:
                part = Path(tmp) / f"{name}-{run}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed + run),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--trace-dir", str(args.trace_dir), "--out", str(part),
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(command, timeout=900)
                if done.returncode != 0 or not part.exists():
                    print(f"error: {name} run {run} exited {done.returncode}",
                          file=sys.stderr)
                    ok = False
                    continue
                with open(part) as handle:
                    results.extend(json.load(handle)["runs"])
    if results:
        write_results(out, results)
        print(f"wrote {out}")
    return 0 if ok else 1


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #
def verdict(metric: Metric, parent: Sequence[float],
            change: Sequence[float]) -> str:
    """better / within bound / worse / unresolved, per the benchmark's
    bound: unresolved when either side spreads wider than the bound,
    unless every change run beats every parent run."""
    sign = 1.0 if metric.better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    scale = abs(pm) or 1e-12
    spread = max((p3 - p1) / scale, (c3 - c1) / scale)
    worse_by = sign * (cm - pm) / scale
    beats = all(sign * c < sign * p for c in change for p in parent)
    if spread > metric.bound:
        return "better" if beats else "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if -worse_by > spread:
        return "better"
    return "within bound"


def compare(parent_path: str, change_path: str) -> int:
    with open(parent_path) as handle:
        parent = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    if parent["host"] != change["host"]:
        print(f"refusing to compare: host facts differ\n"
              f"  parent {parent['host']}\n  change {change['host']}")
        return 2

    def values(doc, workload, metric):
        return [
            run["metrics"][metric]["value"]
            for run in doc["runs"]
            if run["workload"] == workload and metric in run["metrics"]
        ]

    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g} {q[2]:.4g}]"

    workloads = [w for w in dict.fromkeys(r["workload"] for r in parent["runs"])
                 if any(r["workload"] == w for r in change["runs"])]
    print(f"{'workload':<17} {'metric':<15} {'parent p50 [q1 q3]':<28} "
          f"{'change p50 [q1 q3]':<28} {'ratio':>6}  verdict (runs)")
    worse = False
    for workload in workloads:
        for metric in END_TO_END:
            a = values(parent, workload, metric.name)
            b = values(change, workload, metric.name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            judged = verdict(metric, a, b)
            worse = worse or judged == "worse"
            print(f"{workload:<17} {metric.name:<15} {cell(qa):<28} "
                  f"{cell(qb):<28} {ratio:>6.3f}  {judged} "
                  f"({len(a)}/{len(b)})")
    return 1 if worse else 0


# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    start = time.perf_counter()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path,
                        default=Path(".bench_out/traces"))
    parser.add_argument("--out", default=None, help="result JSON file")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for testing the harness")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.runs < 1:
        parser.error("need --seed >= 0, --seconds > 0 and --runs >= 1")

    use_checkout_source()
    from e2e_workloads import WORKLOADS

    import_s = time.perf_counter() - start
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        probe(args.workload, args.seed, import_s)
        return 0
    if args.workload is None:
        args.workloads = list(WORKLOADS)
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick, args.trace_dir, import_s)
    if args.out:
        write_results(Path(args.out), [result])
    print_result(result)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
