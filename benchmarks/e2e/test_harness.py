"""Tests of the end-to-end benchmark harness itself (not of the program).

Collected by the repository's tier-1 run; everything here stays small.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import run

run.use_checkout_source()

from e2e_trace import Span, Tracer, layer_targets, layer_totals, self_times  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402

UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(id, start, end, parent=None, thread=1):
    return Span(id, "layer", "fn", start, end, parent, thread, 0, ())


def test_self_time_subtracts_only_same_thread_children():
    spans = [
        _span(0, 0.0, 10.0, thread=1),
        _span(1, 1.0, 3.0, parent=0, thread=1),
        _span(2, 4.0, 6.0, parent=0, thread=1),
        _span(3, 5.0, 5.5, parent=2, thread=1),
        # Another thread's root overlaps thread 1's root in time.
        _span(4, 2.0, 9.0, thread=2),
        _span(5, 3.0, 5.0, parent=4, thread=2),
    ]
    own = self_times(spans)
    assert own == pytest.approx(
        {0: 6.0, 1: 2.0, 2: 1.5, 3: 0.5, 4: 5.0, 5: 2.0})
    # Self times of each thread add up to its root spans' durations.
    assert sum(own[i] for i in (0, 1, 2, 3)) == pytest.approx(10.0)
    assert sum(own[i] for i in (4, 5)) == pytest.approx(7.0)


def test_tracer_parents_spans_within_their_own_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    threads = [threading.Thread(target=outer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_id = {span.id: span for span in tracer.spans}
    assert len(by_id) == 16
    for span in tracer.spans:
        if span.layer == "inner":
            parent = by_id[span.parent]
            assert parent.layer == "outer"
            assert parent.thread == span.thread
            assert parent.start <= span.start <= span.end <= parent.end
        else:
            assert span.parent is None
    totals = layer_totals(tracer.spans)
    assert totals["outer"].calls == 4 and totals["inner"].calls == 12
    roots = sum(s.duration for s in tracer.spans if s.parent is None)
    assert sum(t.self_s for t in totals.values()) == pytest.approx(roots)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail(list(range(999)), 99) is None
    assert run.tail(list(range(1000)), 99) == pytest.approx(
        np.percentile(range(1000), 99))
    assert run.tail([], 50) is None
    assert run.tail(list(range(19)), 50) is None
    assert run.tail(list(range(20)), 50) == pytest.approx(9.5)


def test_metric_names_units_and_benchmark_json_agree():
    for metric in run.END_TO_END + run.PER_LAYER:
        assert run.METRIC_NAME.fullmatch(metric.name), metric.name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric.name)
        assert UNIT.fullmatch(metric.unit), metric.unit
        assert metric.better in ("higher", "lower")
    names = [m.name for m in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    assert not run.METRIC_NAME.fullmatch("bad name")
    assert not run.METRIC_NAME.fullmatch("_leading")
    spec = json.loads((run.HERE.parents[1] / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [m._asdict() for m in run.END_TO_END]
    assert spec["per_layer"] == [
        {k: v for k, v in m._asdict().items() if k != "bound"}
        for m in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert spec["run_seconds"] == run.SECONDS


def _frames(inputs):
    out = []
    for item in inputs:
        if isinstance(item, tuple):  # (clips, arrival times)
            clips, arrivals = item
            out.append(np.asarray(arrivals))
        else:
            clips = item
        out.extend(clip.frames for clip in clips)
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_inputs_are_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    first = _frames(workload.generate(3, quick=True))
    again = _frames(workload.generate(3, quick=True))
    other = _frames(workload.generate(4, quick=True))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))
    warm = _frames(workload.generate(3, quick=True, warm=True))
    if warm and warm[0].ndim == 1:  # arrival times differ in length
        warm, first = warm[1:], first[1:]
    assert all(np.array_equal(a, b) for a, b in zip(warm, first))


def test_wrappers_restore_originals_and_keep_output_bits():
    from repro.runtime import PipelineSpec, run_workload, synthetic_workload

    targets = layer_targets()
    originals = [vars(t.owner)[t.attr] for t in targets]
    spec = PipelineSpec()
    clips = synthetic_workload(3, num_frames=6, base_seed=7)
    plain = run_workload(spec, clips)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            traced = run_workload(spec, clips)
            assert all(vars(t.owner)[t.attr] is not o
                       for t, o in zip(targets, originals))
            raise RuntimeError("restore on the way out")
    assert all(vars(t.owner)[t.attr] is o
               for t, o in zip(targets, originals))
    assert traced.matches(plain)
    assert np.array_equal(traced.outputs(), plain.outputs())
    layers = {span.layer for span in tracer.spans}
    assert {"runtime.batched", "runtime.stage_graph", "core.rfbme",
            "core.keyframe", "nn.inference.prefix"} <= layers


def test_verdicts_and_host_check(tmp_path):
    metric = run.Metric("x", "s", "lower", 0.10)
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert run.verdict(metric, base, [v * 1.5 for v in base]) == "worse"
    assert run.verdict(metric, base, [v * 0.7 for v in base]) == "better"
    assert run.verdict(metric, base, [v * 1.02 for v in base]) == "within bound"
    noisy = [0.5, 1.0, 1.5, 2.0]
    assert run.verdict(metric, noisy, noisy) == "unresolved"
    parent, change = tmp_path / "a.json", tmp_path / "b.json"
    parent.write_text(json.dumps({"host": {"nproc": 2}, "runs": []}))
    change.write_text(json.dumps({"host": {"nproc": 4}, "runs": []}))
    assert run.compare(str(parent), str(change)) == 2


def test_quick_run_of_every_workload(tmp_path):
    out = tmp_path / "result.json"
    code = run.main(["--quick", "--seconds", "0.1", "--out", str(out),
                     "--trace-dir", str(tmp_path / "traces")])
    assert code == 0
    result = json.loads(out.read_text())
    assert [r["workload"] for r in result["runs"]] == list(WORKLOADS)
    for entry in result["runs"]:
        assert entry["correct"] and entry["failed"] == 0
        assert entry["attempted"] >= 1
        assert list(entry["metrics"]) == [m.name for m in run.END_TO_END]
        assert all(m["value"] > 0 for m in entry["metrics"].values())
    assert run.compare(str(out), str(out)) == 0


def test_quick_traced_run_writes_a_trace(tmp_path):
    result = run.measure("live_poisson", 0, 0.1, True, True, tmp_path)
    assert result["correct"]
    assert list(result["metrics"]) == [m.name for m in run.PER_LAYER]
    extra = result["extra"]
    trace = json.loads(Path(extra["trace_file"]["value"]).read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])
    assert result["metrics"]["trace.accounted_frac"]["value"] == (
        pytest.approx(1.0, abs=0.05))
