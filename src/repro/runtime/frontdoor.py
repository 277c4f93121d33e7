"""The serving front door: ingestion, backpressure, autoscaling, config.

Serving-systems practice says the front door — admission, backpressure,
elasticity — is where a deployment wins or loses tail latency.  This
module is that layer for the EVA2 serving runtime, split into four
pieces that :class:`~repro.runtime.serving.ServingRuntime` composes:

* :class:`RequestSource` and its adapters (:class:`ListSource`,
  :class:`IteratorSource`, :class:`QueueSource`) — *streaming
  ingestion*.  ``ServingRuntime.serve()`` accepts any of them (or a
  plain list / iterator / generator, coerced by
  :func:`as_request_source`): a source yields ``(seq, request)`` pairs
  in nondecreasing arrival order, and the historical list path is just
  one adapter that pre-sorts by ``(arrival_time, submission order)``.
* :class:`FrontDoor` — the bounded admission buffer between a source
  and the serve core.  It validates routing and duplicate ids as
  traffic enters, tells the core when and on which lane the next
  request arrives (``upcoming``), releases requests that have arrived
  (``take(depth, now)``), and enforces *queue-depth watermarks*: past
  ``max_pending`` arrived-but-unadmitted requests it stops releasing (a
  backpressure pause) until the core drains back to
  ``resume_pending``.  Push-side backpressure is
  :class:`BackpressureError`, raised by a bounded
  :meth:`QueueSource.submit`.
* :class:`AutoscalePolicy` — a *pure function* from observed state
  (live shards, admission-queue depth, deadline slack, the sustained
  streak so far) to a target shard count, with hysteresis on both
  directions so transient spikes don't thrash the fleet.
  :class:`Autoscaler` is the thin stateful wrapper that carries streaks
  per lane and records every change as a :class:`ScaleEvent`; the
  inline serve core and the process supervisor both drive it.
* :class:`ServerConfig` — the one validated configuration object for
  ``ServingRuntime``.

Scaling never changes results: the bit-identity contract (every served
clip identical to its serial run) holds regardless of when shards were
spawned or drained, which is what makes elasticity safe to apply.
"""

from __future__ import annotations

import os
import queue as queue_module
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .supervision import FaultPlan, SupervisorConfig

__all__ = [
    "BackpressureError",
    "RequestSource",
    "ListSource",
    "IteratorSource",
    "QueueSource",
    "as_request_source",
    "FrontDoor",
    "ScaleEvent",
    "AutoscaleDecision",
    "AutoscalePolicy",
    "Autoscaler",
    "ServerConfig",
]


class BackpressureError(RuntimeError):
    """A bounded ingestion buffer refused a submission.

    Raised by :meth:`QueueSource.submit` when the source already holds
    ``maxsize`` unpulled requests — the push-side half of the front
    door's backpressure (the pull side is the watermark pause in
    :class:`FrontDoor`).  Producers should retry after the server
    drains, or widen ``maxsize`` if the burst is expected.
    """


# -------------------------------------------------------------------- #
# request sources — streaming ingestion adapters
# -------------------------------------------------------------------- #
class RequestSource:
    """A stream of clip requests in nondecreasing arrival order.

    Subclasses implement :meth:`_next_pair` returning the next
    ``(seq, request)`` or ``None`` when nothing is available *now*;
    :attr:`finished` says whether "nothing now" means "never again".
    The base class enforces the one ordering contract every serve loop
    relies on: arrivals must be nondecreasing across pulls (lists are
    pre-sorted by their adapter; live streams must submit in arrival
    order).
    """

    def __init__(self):
        self._count = 0
        self._last_arrival: Optional[float] = None

    # -- subclass surface ------------------------------------------- #
    def _next_pair(self) -> Optional[Tuple[int, object]]:
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        """Whether the source can never yield another request."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; further pulls yield nothing."""

    # -- shared contract -------------------------------------------- #
    def _take_seq(self) -> int:
        seq = self._count
        self._count += 1
        return seq

    def pull(self) -> Optional[Tuple[int, object]]:
        """The next ``(seq, request)``, or None if nothing is ready."""
        pair = self._next_pair()
        if pair is None:
            return None
        seq, request = pair
        arrival = request.arrival_time
        if self._last_arrival is not None and arrival < self._last_arrival:
            raise ValueError(
                f"request {request.request_id!r} arrives at {arrival}, "
                f"before the previously pulled arrival "
                f"{self._last_arrival}; a streaming source must yield "
                f"requests in nondecreasing arrival order (list traffic "
                f"is sorted automatically)"
            )
        self._last_arrival = arrival
        return seq, request


class ListSource(RequestSource):
    """The historical list path as one adapter.

    Pre-sorts ``(submission index, request)`` by ``(arrival_time,
    submission index)`` — exactly :meth:`Router.partition`'s order — so
    seqs remain submission positions and a report's ``records`` stay in
    submission order.
    """

    def __init__(self, requests: Sequence):
        super().__init__()
        self.requests = list(requests)
        self._pairs = deque(sorted(
            enumerate(self.requests),
            key=lambda item: (item[1].arrival_time, item[0]),
        ))
        self._count = len(self.requests)  # seqs are preassigned

    def _next_pair(self) -> Optional[Tuple[int, object]]:
        return self._pairs.popleft() if self._pairs else None

    @property
    def finished(self) -> bool:
        return not self._pairs


class IteratorSource(RequestSource):
    """Wrap any iterator/generator of requests (``None`` ends it)."""

    def __init__(self, iterable: Iterable):
        super().__init__()
        self._iterator: Optional[Iterator] = iter(iterable)

    def _next_pair(self) -> Optional[Tuple[int, object]]:
        if self._iterator is None:
            return None
        request = next(self._iterator, None)
        if request is None:
            self._iterator = None
            return None
        return self._take_seq(), request

    @property
    def finished(self) -> bool:
        return self._iterator is None

    def close(self) -> None:
        self._iterator = None


class QueueSource(RequestSource):
    """A bounded submit/serve handoff — the push side of backpressure.

    Producers (any thread) call :meth:`submit`; past ``maxsize``
    unpulled requests that raises :class:`BackpressureError` instead of
    growing without bound.  Call :meth:`close` after the last submit so
    the serve loop knows the stream ended; until then an empty queue
    means "nothing *yet*" and the loop waits in real time.
    """

    def __init__(self, maxsize: Optional[int] = None):
        super().__init__()
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._queue: "queue_module.SimpleQueue" = queue_module.SimpleQueue()
        self._closed = False

    def submit(self, request) -> None:
        if self._closed:
            raise ValueError("cannot submit to a closed QueueSource")
        if (self.maxsize is not None
                and self._queue.qsize() >= self.maxsize):
            raise BackpressureError(
                f"QueueSource is full ({self.maxsize} queued "
                f"request(s)); retry after the server drains"
            )
        self._queue.put(request)

    def _next_pair(self) -> Optional[Tuple[int, object]]:
        try:
            request = self._queue.get_nowait()
        except queue_module.Empty:
            return None
        return self._take_seq(), request

    @property
    def finished(self) -> bool:
        return self._closed and self._queue.empty()

    def close(self) -> None:
        self._closed = True


def as_request_source(requests) -> RequestSource:
    """Coerce whatever ``serve()`` was handed into a request source."""
    if isinstance(requests, RequestSource):
        return requests
    if isinstance(requests, (list, tuple)):
        return ListSource(requests)
    if isinstance(requests, Iterable):
        return IteratorSource(requests)
    raise TypeError(
        f"serve() accepts a sequence of requests, an iterator/generator, "
        f"or a RequestSource; got {type(requests).__name__}"
    )


# -------------------------------------------------------------------- #
# the front door proper — validation, watermarks, lane bookkeeping
# -------------------------------------------------------------------- #
class FrontDoor:
    """Bounded, validated admission between a source and the serve core.

    The door owns ingestion-time correctness (routing failures and
    duplicate request ids surface here — eagerly for list traffic,
    keeping the historical fail-fast behaviour; incrementally for
    streams) and the pull-side watermark: :meth:`take` releases only
    requests that have arrived, and stops once ``depth`` — the core's
    arrived-but-unadmitted count — reaches ``max_pending``, resuming
    when it drains to ``resume_pending``.  Future arrivals never count
    against the watermark.  Hysteresis means the door toggles once per
    excursion, not once per request; ``backpressure_pauses`` counts the
    excursions.
    """

    def __init__(
        self,
        source: RequestSource,
        router,
        max_pending: Optional[int] = None,
        resume_pending: Optional[int] = None,
    ):
        self.source = source
        self.router = router
        self.max_pending = max_pending
        if max_pending is None:
            self.resume_pending = 0
        elif resume_pending is None:
            self.resume_pending = max_pending // 2
        else:
            self.resume_pending = resume_pending
        self._paused = False
        #: the next ``(seq, request, lane)``, pulled but not released.
        self._peeked: Optional[Tuple[int, object, str]] = None
        self._seen: Dict[object, int] = {}
        self.backpressure_pauses = 0
        #: requests per lane, known up front for list traffic only.
        self.lane_counts: Optional[Dict[str, int]] = None
        if isinstance(source, ListSource):
            # List traffic keeps the historical contract: every routing
            # or duplicate-id failure surfaces before serving starts.
            self.lane_counts = {name: 0 for name in router.specs}
            for position, request in enumerate(source.requests):
                self.lane_counts[router.lane_for(request)] += 1
                self._check_duplicate(request, position)

    # ---------------------------------------------------------------- #
    def _check_duplicate(self, request, position: int) -> None:
        from .serving import DuplicateRequestError

        try:
            first = self._seen.setdefault(request.request_id, position)
        except TypeError:
            return  # unhashable ids cannot be checked cheaply
        if first != position:
            raise DuplicateRequestError(
                f"duplicate request_id {request.request_id!r}: "
                f"submissions #{first} and #{position} both use it; "
                f"records are keyed by id, so aliased requests would "
                f"silently merge"
            )

    def _fill_peek(self) -> Optional[Tuple[int, object, str]]:
        if self._peeked is None:
            pair = self.source.pull()
            if pair is not None:
                seq, request = pair
                lane = self.router.lane_for(request)  # reject before buffering
                if not isinstance(self.source, ListSource):
                    self._check_duplicate(request, seq)
                self._peeked = (seq, request, lane)
        return self._peeked

    # ---------------------------------------------------------------- #
    @property
    def exhausted(self) -> bool:
        """No buffered request and the source can yield no more."""
        return self._fill_peek() is None and self.source.finished

    @property
    def starved(self) -> bool:
        """Nothing available *now* from a source that is still open."""
        return self._fill_peek() is None and not self.source.finished

    def upcoming(self, depth: int) -> Optional[Tuple[float, str]]:
        """``(arrival, lane)`` of the next request :meth:`take` could
        release at ``depth`` — None when nothing is buffered or the
        watermark holds it back."""
        peeked = self._fill_peek()
        if peeked is None or self._held(depth):
            return None
        return peeked[1].arrival_time, peeked[2]

    def take(self, depth: int, now: float) -> List[Tuple[int, object, str]]:
        """Release every request arrived by ``now`` that the watermark
        allows, as ``(seq, request, lane)``.

        ``depth`` is the core's arrived-but-unadmitted count; the
        watermark compares against ``depth`` plus what this call already
        released.  Progress is guaranteed: at ``depth == 0`` the door
        always resumes, so a paused serve can never deadlock against its
        own backpressure.
        """
        out: List[Tuple[int, object, str]] = []
        while True:
            peeked = self._fill_peek()
            if peeked is None or peeked[1].arrival_time > now:
                break
            if self._held(depth + len(out)):
                if not self._paused:
                    self._paused = True
                    self.backpressure_pauses += 1
                break
            self._paused = False
            self._peeked = None
            out.append(peeked)
        return out

    def _held(self, depth: int) -> bool:
        """The watermark's hysteresis: at ``depth`` arrived-but-unadmitted
        requests, does the door hold releases back?  A running door
        pauses at ``max_pending``; a paused one resumes only once depth
        drains to ``resume_pending``."""
        if self.max_pending is None:
            return False
        if self._paused:
            return depth > self.resume_pending
        return depth >= self.max_pending


# -------------------------------------------------------------------- #
# autoscaling — pure policy, thin stateful wrapper
# -------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling decision that changed a lane's shard count."""

    lane: str
    #: decision time on the deciding loop's (virtual) clock.
    time: float
    from_shards: int
    to_shards: int
    #: "queue-depth" / "deadline-slack" for growth, "idle" for shrink.
    reason: str
    #: the admission-queue depth that drove the decision.
    queue_depth: int = 0


@dataclass(frozen=True)
class AutoscaleDecision:
    """What the policy wants: a target and the streak to carry forward."""

    target: int
    streak: int
    reason: str = "hold"


@dataclass(frozen=True)
class AutoscalePolicy:
    """Pure-function shard-count policy with two-sided hysteresis.

    :meth:`decide` maps observed state to a target shard count and is
    referentially transparent — same inputs, same decision, no clock,
    no hidden counters — so it unit-tests as a plain function and both
    serving backends (inline DES and supervised processes) share it
    verbatim.  Pressure is queue depth *per live shard*; a sustained
    excursion above ``high_depth`` grows by one, a sustained stretch at
    or below ``low_depth`` shrinks by one, and ``sustain_up`` /
    ``sustain_down`` observations of hysteresis keep one bursty step
    from thrashing the fleet (scale-down is deliberately the slower
    side: spare shards are cheap, cold starts are not).  A lane whose
    earliest pending deadline has ``slack_floor`` or less of slack
    grows immediately — deadline pressure outranks depth hysteresis.
    """

    min_shards: int = 1
    max_shards: int = 4
    #: grow when depth per live shard sustains >= this.
    high_depth: float = 2.0
    #: shrink when depth per live shard sustains <= this.
    low_depth: float = 0.25
    #: consecutive high-pressure observations before growing.
    sustain_up: int = 2
    #: consecutive low-pressure observations before shrinking.
    sustain_down: int = 8
    #: grow immediately when the earliest pending deadline has this
    #: little slack left (seconds); <= 0 only fires on already-due work.
    slack_floor: float = 0.0

    def __post_init__(self):
        if self.min_shards < 1:
            raise ValueError(
                f"min_shards must be >= 1, got {self.min_shards}"
            )
        if self.max_shards < self.min_shards:
            raise ValueError(
                f"max_shards ({self.max_shards}) must be >= min_shards "
                f"({self.min_shards})"
            )
        if self.low_depth < 0 or self.high_depth <= self.low_depth:
            raise ValueError(
                f"need high_depth > low_depth >= 0, got "
                f"high_depth={self.high_depth}, low_depth={self.low_depth}"
            )
        if self.sustain_up < 1 or self.sustain_down < 1:
            raise ValueError(
                f"sustain_up/sustain_down must be >= 1, got "
                f"{self.sustain_up}/{self.sustain_down}"
            )

    def decide(
        self,
        shards: int,
        queue_depth: int,
        streak: int = 0,
        deadline_slack: Optional[float] = None,
    ) -> AutoscaleDecision:
        """Target shard count for one observation — a pure function.

        ``shards`` is the lane's live (non-draining) shard count,
        ``queue_depth`` its admission backlog, ``streak`` the signed
        sustained-pressure counter returned by the previous decision
        (positive = consecutive high, negative = consecutive low), and
        ``deadline_slack`` the seconds until the earliest pending
        deadline (None = no deadlines waiting).
        """
        pressure = queue_depth / max(shards, 1)
        urgent = (
            queue_depth > 0
            and deadline_slack is not None
            and deadline_slack <= self.slack_floor
        )
        if urgent or pressure >= self.high_depth:
            streak = streak + 1 if streak > 0 else 1
            needed = 1 if urgent else self.sustain_up
            if streak >= needed and shards < self.max_shards:
                return AutoscaleDecision(
                    target=shards + 1,
                    streak=0,
                    reason="deadline-slack" if urgent else "queue-depth",
                )
        elif pressure <= self.low_depth:
            streak = streak - 1 if streak < 0 else -1
            if -streak >= self.sustain_down and shards > self.min_shards:
                return AutoscaleDecision(
                    target=shards - 1, streak=0, reason="idle"
                )
        else:
            streak = 0
        # Clamp to the configured band.  The min-shards floor also
        # self-heals a lane whose live fleet dropped to zero (crashes
        # outpacing the supervisor): the restore is a scale decision,
        # not a "hold".
        target = min(max(shards, self.min_shards), self.max_shards)
        if target != shards:
            reason = "min-shards" if target > shards else "max-shards"
            return AutoscaleDecision(target=target, streak=streak,
                                     reason=reason)
        return AutoscaleDecision(target=target, streak=streak)


class Autoscaler:
    """Per-lane streak state and the :class:`ScaleEvent` log.

    The only mutable autoscaling state: the policy itself stays pure.
    Both serving backends call :meth:`observe` at admission boundaries
    and act on the returned target (spawn via the supervisor's respawn
    machinery, or drain an idle shard).
    """

    def __init__(self, policy: AutoscalePolicy):
        self.policy = policy
        self.events: List[ScaleEvent] = []
        self._streaks: Dict[str, int] = {}

    def observe(
        self,
        lane: str,
        shards: int,
        queue_depth: int,
        now: float,
        deadline_slack: Optional[float] = None,
    ) -> int:
        """The lane's target shard count after this observation."""
        decision = self.policy.decide(
            shards,
            queue_depth,
            streak=self._streaks.get(lane, 0),
            deadline_slack=deadline_slack,
        )
        self._streaks[lane] = decision.streak
        if decision.target != shards:
            self.events.append(ScaleEvent(
                lane=lane,
                time=now,
                from_shards=shards,
                to_shards=decision.target,
                reason=decision.reason,
                queue_depth=queue_depth,
            ))
        return decision.target


# -------------------------------------------------------------------- #
# server configuration
# -------------------------------------------------------------------- #
#: shard backend names :class:`ServerConfig` accepts ('thread' is named
#: so its refusal can say why).
_SHARD_BACKENDS = ("auto", "serial", "thread", "process")


@dataclass(frozen=True)
class ServerConfig:
    """Validated configuration for :class:`ServingRuntime`.

    Field validation happens here; *plan/lane* validation — which needs
    the router — happens when the runtime is constructed with a spec.
    Sharded serving always admits from one shared backlog per lane.
    """

    #: per-shard slot capacity (continuous batch width).
    max_batch: int = 8
    #: fixed shard count (1 = in-process); superseded by ``autoscale``.
    serve_workers: int = 1
    #: shard pool backend: auto / serial / process (thread is refused —
    #: concurrent thread shards would share one plan's scratch).
    shard_backend: str = "auto"
    #: deterministic fault injection (sharded serving only).
    fault_plan: FaultPlan = None  # normalized to FaultPlan() below
    #: failure detection / recovery knobs.
    supervisor: SupervisorConfig = None  # normalized below
    #: injectable monotonic clock for in-process / inline serving.
    clock: Optional[Callable[[], float]] = None
    #: elastic shard pool: grow/shrink per lane between the policy's
    #: min_shards and max_shards from observed queue depth and deadline
    #: slack.  None = fixed ``serve_workers`` shards.
    autoscale: Optional[AutoscalePolicy] = None
    #: pull-side watermark: stop ingesting past this many arrived but
    #: unadmitted requests (None = unbounded, the historical behaviour) …
    max_pending: Optional[int] = None
    #: … and resume once the queue drains to this (default: half).
    resume_pending: Optional[int] = None
    #: fuse coincident key-frame CNN prefixes across lanes (and across
    #: inline shard timelines) into one ``run_prefix`` batch per
    #: step.  Bit-identical either way; False restores per-lane calls.
    prefix_coalesce: bool = True
    #: content-addressed prefix activation cache budget in MiB (0 = off).
    #: Keyed by frame digest + network weight version, so repeated
    #: frames skip the prefix entirely and live weight swaps invalidate
    #: without draining.
    prefix_cache_mb: float = 0.0
    #: inference plan family every lane runs under ("float64",
    #: "float32", "int8", "q16"); None keeps each lane spec's own dtype.
    inference_dtype: Optional[str] = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.serve_workers < 1:
            raise ValueError(
                f"serve_workers must be >= 1, got {self.serve_workers}"
            )
        if self.shard_backend == "thread":
            # Thread shards of one lane would share the process-global
            # cached network — and therefore one InferencePlan whose
            # scratch buffers they'd mutate concurrently, breaking the
            # bit-identity contract (and the GIL voids the throughput
            # win anyway).  Refuse rather than serve wrong bits.
            raise ValueError(
                "shard_backend='thread' cannot shard serving: concurrent "
                "thread shards would share one inference plan's scratch; "
                "use 'process', 'serial', or 'auto'"
            )
        if self.shard_backend not in _SHARD_BACKENDS:
            raise ValueError(
                f"backend must be one of {_SHARD_BACKENDS}, got "
                f"{self.shard_backend!r}"
            )
        object.__setattr__(self, "max_batch", int(self.max_batch))
        object.__setattr__(self, "serve_workers", int(self.serve_workers))
        if self.fault_plan is None:
            object.__setattr__(self, "fault_plan", FaultPlan())
        if self.supervisor is None:
            object.__setattr__(self, "supervisor", SupervisorConfig())
        object.__setattr__(self, "prefix_coalesce",
                           bool(self.prefix_coalesce))
        object.__setattr__(self, "prefix_cache_mb",
                           float(self.prefix_cache_mb))
        if self.prefix_cache_mb < 0:
            raise ValueError(
                f"prefix_cache_mb must be >= 0 (0 = off), got "
                f"{self.prefix_cache_mb}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1 (None = unbounded), got "
                f"{self.max_pending}"
            )
        if self.resume_pending is not None:
            if self.max_pending is None:
                raise ValueError(
                    "resume_pending needs max_pending (there is no "
                    "watermark to resume from)"
                )
            if not 0 <= self.resume_pending < self.max_pending:
                raise ValueError(
                    f"need 0 <= resume_pending < max_pending, got "
                    f"resume_pending={self.resume_pending}, "
                    f"max_pending={self.max_pending}"
                )
        if self.inference_dtype is not None:
            # Canonicalize here so every consumer (router, report,
            # prefix-cache keys) sees one spelling per family.
            from ..nn.inference import resolve_plan_dtype

            object.__setattr__(
                self, "inference_dtype",
                resolve_plan_dtype(self.inference_dtype),
            )

    @property
    def pool_workers(self) -> int:
        """The worker budget backend resolution sizes pools against."""
        if self.autoscale is not None:
            return max(self.serve_workers, self.autoscale.max_shards)
        return self.serve_workers

    def resolve_shard_backend(self, shards: int) -> str:
        """The concrete shard backend for ``shards`` concurrent shards.

        One shard, or a worker budget of one, is just the inline
        (``serial``) path; ``auto`` picks ``process`` when the host has
        more than one core.
        """
        if self.pool_workers <= 1 or shards <= 1:
            return "serial"
        if self.shard_backend != "auto":
            return self.shard_backend
        return "process" if (os.cpu_count() or 1) > 1 else "serial"

    @property
    def sharded(self) -> bool:
        """Whether this config serves through shard workers at all."""
        return self.serve_workers > 1 or self.autoscale is not None
