"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: a traced run replaces a fixed list of
public functions (:func:`layer_targets`) with wrappers that record one
:class:`Span` per call, and puts the originals back afterwards.  Spans
stay in memory until the run ends; :func:`chrome_trace` turns them into
the Chrome trace-event JSON that Perfetto and ``chrome://tracing`` load.

A span's parent is the innermost span still open on the *same thread*
when it started, so self time (duration minus the time its children
cover, :func:`self_times`) never subtracts work another thread did.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence

__all__ = [
    "Span",
    "Target",
    "Tracer",
    "self_times",
    "LayerTotal",
    "layer_totals",
    "chrome_trace",
    "layer_targets",
    "span_cost",
    "LAYERS",
]

#: every traced layer, outermost first (the order reports list them in).
LAYERS = (
    "runtime.batched",
    "runtime.serving",
    "runtime.stage_graph",
    "runtime.prefix_service",
    "nn.inference.prefix",
    "nn.inference.suffix",
    "core.rfbme",
    "core.keyframe",
    "core.warp",
)


class Span(NamedTuple):
    """One call of a wrapped function."""

    id: int
    layer: str
    #: the wrapped function, e.g. ``StageExecutor.begin_step``.
    name: str
    start: float
    end: float
    #: id of the enclosing span on the same thread (None at the root).
    parent: Optional[int]
    thread: int
    #: which traced pass of the benchmark the call belongs to.
    run: int
    #: layer-specific counts taken at the boundary (see layer_targets).
    counts: tuple

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target(NamedTuple):
    """A public function to wrap: ``owner.attr`` belongs to ``layer``.

    ``count(args, result)`` returns a tuple of numbers recorded on the
    span — work done by the call, summed per layer by
    :func:`layer_totals`.
    """

    owner: object
    attr: str
    layer: str
    count: Optional[Callable[[tuple, object], tuple]] = None


class Tracer:
    """In-memory span recorder; it sees only the calls that go through
    the wrappers it made."""

    def __init__(self):
        #: stamped on every span; the benchmark bumps it per traced pass.
        self.run = 0
        # Plain tuples in Span field order: the wrappers sit on hot paths,
        # so they allocate as little as they can.
        self._records: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @property
    def spans(self) -> List[Span]:
        return [Span._make(record) for record in self._records]

    def wrap(self, layer: str, fn: Callable, count=None) -> Callable:
        """``fn`` with a span recorded around every call."""
        clock, records, ids = time.perf_counter, self._records, self._ids
        local, thread = self._local, threading.get_ident
        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                records.append((
                    span_id, layer, name, start, end, parent, thread(),
                    self.run, count(args, result) if done and count else (),
                ))

        return traced

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore
        the exact original objects (also when the block raises)."""
        saved = []
        try:
            for target in targets:
                original = vars(target.owner)[target.attr]
                if not inspect.isfunction(original):
                    raise TypeError(
                        f"{target.owner!r}.{target.attr} is not a plain "
                        f"function; wrapping it would change its binding"
                    )
                saved.append((target.owner, target.attr, original))
                setattr(
                    target.owner,
                    target.attr,
                    self.wrap(target.layer, original, target.count),
                )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def span_cost(calls: int = 20_000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op.

    The traced-minus-untraced throughput difference is the direct
    measure of tracing overhead, but on a shared host it is buried in
    run-to-run noise; spans times this cost estimates it without the noise.
    """
    def noop():
        return None

    def fastest(fn):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - start)
        return best

    traced = Tracer().wrap("calibration", noop)
    return max(0.0, fastest(traced) - fastest(noop)) / calls


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover.

    A parent is always on its children's thread, so the children are
    calls made one after another inside it: their durations add up to
    the time they cover.
    """
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


class LayerTotal(NamedTuple):
    calls: int
    self_s: float
    #: element-wise sum of the spans' ``counts``.
    counts: tuple


def layer_totals(spans: Sequence[Span]) -> Dict[str, LayerTotal]:
    """Calls, self seconds and summed counts per layer."""
    own = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    seconds: Dict[str, float] = defaultdict(float)
    counts: Dict[str, list] = {}
    for span in spans:
        calls[span.layer] += 1
        seconds[span.layer] += own[span.id]
        if span.counts:
            acc = counts.setdefault(span.layer, [0] * len(span.counts))
            for i, value in enumerate(span.counts):
                acc[i] += value
    return {
        layer: LayerTotal(calls[layer], seconds[layer],
                          tuple(counts.get(layer, ())))
        for layer in calls
    }


def chrome_trace(spans: Sequence[Span], label: str) -> dict:
    """Spans as a Chrome trace-event document (complete ``X`` events)."""
    origin = min((span.start for span in spans), default=0.0)
    threads: Dict[int, int] = {}
    events = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "args": {"name": label},
        }
    ]
    for span in sorted(spans, key=lambda s: s.start):
        tid = threads.setdefault(span.thread, len(threads))
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.layer,
                "pid": 1,
                "tid": tid,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {
                    "span": span.id,
                    "parent": span.parent,
                    "run": span.run,
                    "counts": list(span.counts),
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


_ONE, _ZERO = (1,), (0,)


def layer_targets() -> List[Target]:
    """The public functions a traced run wraps, one or two per layer.

    Counts recorded per call:

    * ``core.rfbme`` — (pairs, adder ops) of ``estimate_batch``;
    * ``core.keyframe`` — (1 if the frame became a key frame,);
    * ``core.warp`` — (activation rows warped,);
    * ``nn.inference.prefix``/``suffix`` — (rows, MACs), MACs from
      ``Network.prefix_macs``/``suffix_macs`` per row;
    * ``runtime.stage_graph`` — (1,) for ``begin_step``: one step.

    Constant counts are shared tuples, so recording them allocates nothing.
    """
    from repro.core import stages
    from repro.core.keyframe import KeyFramePolicy
    from repro.core.rfbme import RFBMEEngine
    from repro.nn.inference import InferencePlan
    from repro.runtime import (
        BatchedPipeline,
        PrefixService,
        ServingRuntime,
        StageExecutor,
    )

    macs: Dict[tuple, int] = {}

    def plan_rows(which: str):
        def count(args, result):
            plan, x, target = args[0], args[1], args[2]
            key = (id(plan.network), target, which)
            per_row = macs.get(key)
            if per_row is None:
                per_row = macs[key] = getattr(plan.network, which)(target)
            return (x.shape[0], x.shape[0] * per_row)

        return count

    return [
        Target(BatchedPipeline, "run_workload", "runtime.batched"),
        Target(ServingRuntime, "serve", "runtime.serving"),
        Target(StageExecutor, "begin_step", "runtime.stage_graph",
               lambda args, result: _ONE),
        Target(StageExecutor, "finish_step", "runtime.stage_graph"),
        Target(PrefixService, "run_prefix", "runtime.prefix_service"),
        Target(PrefixService, "flush", "runtime.prefix_service"),
        Target(InferencePlan, "run_prefix", "nn.inference.prefix",
               plan_rows("prefix_macs")),
        Target(InferencePlan, "run_suffix", "nn.inference.suffix",
               plan_rows("suffix_macs")),
        Target(RFBMEEngine, "estimate_batch", "core.rfbme",
               lambda args, result: (
                   len(result), sum(r.ops.total for r in result))),
        Target(KeyFramePolicy, "decide", "core.keyframe",
               lambda args, result: _ONE if result else _ZERO),
        Target(stages, "warp_activation_batch", "core.warp",
               lambda args, result: (len(args[0]),)),
    ]
