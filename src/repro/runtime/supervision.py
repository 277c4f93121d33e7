"""Fault tolerance for sharded serving: supervision, shedding, injection.

Three concerns live here, all downstream of one fact about this
pipeline: every clip's execution is deterministic and bit-identical
regardless of batch-mates or shard assignment, so *re-executing* a lost
request on another shard is exactly replayable — failover is safe by
construction, and the only job of this module is to notice failures and
re-dispatch explicitly.

* :class:`FaultPlan` / :class:`FaultEvent` — deterministic fault
  injection.  A plan is a seeded, picklable set of events ("kill shard
  k at virtual time t", "stall a shard for d steps", "drop the next
  ack") honoured by *both* shard backends: the inline serve core fires
  events against per-shard virtual clocks, and the process
  backend ships each shard its own slice of the plan to fire against
  its real post-release clock.  Plans round-trip through JSON so a
  failing chaos run can be replayed from an artifact.
* :class:`SupervisorConfig` / :class:`ShardSupervisor` — the parent-side
  supervisor for the process shard backend.  Shards heartbeat
  and acknowledge every completed request; the parent detects a crashed
  (dead process) or stalled (silent past ``heartbeat_timeout``) shard,
  re-dispatches its unacknowledged requests to surviving shards — or to
  a respawned one, bounded by ``max_respawns`` — and records every
  failover as a :class:`FailoverEvent`.  Dispatch is credit-based (at
  most ``capacity`` unacknowledged requests per shard) and
  deadline-ordered, so the parent owns admission policy and a shard
  owns only its resident batch.
* Deadlines and shedding — a :class:`~repro.runtime.serving.ClipRequest`
  with a ``deadline`` that passes while the request is still queued is
  *shed*: dropped with an explicit :class:`ShedRecord` (whose
  ``error`` is a named :class:`RequestShedError`) instead of served
  late or silently dropped.  Admission among due requests is
  earliest-deadline-first.  One :class:`_Backlog` per lane holds the
  queued requests on every path that admits: the serve core's
  timelines, each shard process, and the supervisor's dispatcher.

The supervised child protocol (all messages flow through one shared
event queue; dispatches flow through per-shard inboxes)::

    child -> parent: ("ready", lane, shard, pid)
                     ("beat",  lane, shard, t)          throttled
                     ("ack",   lane, shard, seq, record) per completion
                     ("done",  lane, shard, tail)        final counters
    parent -> child: ("go", t0)     release, clock base = parent time t0
                     ("skip", dt)   idle jump: advance clock dt
                     (seq, request) dispatch
                     None           retire sentinel

Idle jumps: when nothing is dispatched anywhere and the next request
(queued, or next at the front door) is in the future, the parent
*jumps* its logical clock to it instead of sleeping, and broadcasts
``("skip", dt)`` so every shard advances its own clock by the same
``dt`` (a shard's clock base just moves back).  All deadlines,
shedding, and admission stamps live on the logical timeline, so a
sparse trace serves in real time proportional to its busy time, not
its span — as the serve core's timelines do.  *Liveness* stays on the
real clock — a jump must never read as heartbeat silence — and ack
timeouts are unaffected because a jump only happens with zero
dispatches in flight.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import pickle
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .spec import PipelineSpec

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "SupervisorConfig",
    "ShardSupervisor",
    "RequestShedError",
    "ShedRecord",
    "FailoverEvent",
    "ShardCrashError",
]

#: the fault kinds both backends honour.
FAULT_KINDS = ("kill", "stall", "drop_ack")


class ShardCrashError(RuntimeError):
    """A serving shard died (or stopped progressing) with work unresolved.

    Raised instead of hanging or silently dropping work: the message
    names what was lost and ``lost`` carries the request seqs whose
    results never arrived.
    """

    def __init__(self, message: str, lost: Sequence = ()):
        super().__init__(message)
        self.lost = tuple(lost)


class RequestShedError(RuntimeError):
    """A request was shed: its deadline passed before service began.

    Never raised during a serve — shedding is a per-request *outcome*,
    not a run failure.  :attr:`ShedRecord.error` materializes one so
    callers who want an exception per shed request (the CLI's verify
    path, a caller promoting sheds to failures) get a named type with
    the full context attached.
    """

    def __init__(self, request_id: object, lane: str, arrival_time: float,
                 deadline: float, shed_time: float):
        self.request_id = request_id
        self.lane = lane
        self.arrival_time = arrival_time
        self.deadline = deadline
        self.shed_time = shed_time
        super().__init__(
            f"request {request_id!r} shed on lane {lane!r}: deadline "
            f"{deadline:.6f}s passed unserved at t={shed_time:.6f}s "
            f"(arrived {arrival_time:.6f}s)"
        )


@dataclass(frozen=True)
class ShedRecord:
    """One shed request: who, where, and when the deadline lapsed."""

    seq: int
    request_id: object
    lane: str
    arrival_time: float
    deadline: float
    #: when the shed was decided, on the shedding loop's clock.
    shed_time: float
    #: shard whose admission boundary shed it; -1 = the parent
    #: supervisor (process backend sheds before dispatch).
    shard: int = -1

    @property
    def error(self) -> RequestShedError:
        return RequestShedError(
            self.request_id, self.lane, self.arrival_time, self.deadline,
            self.shed_time,
        )


@dataclass(frozen=True)
class FailoverEvent:
    """One detected shard failure and what was re-dispatched."""

    lane: str
    shard: int
    #: detection time on the supervising loop's clock.
    time: float
    #: "crash" (process died / DES kill) or "stall" (heartbeat silence).
    reason: str
    #: submission seqs whose in-flight work was re-dispatched.
    seqs: Tuple[int, ...]
    #: whether a replacement shard was spawned for this failure.
    respawned: bool = False


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault against one shard's (virtual) clock.

    ``kill`` terminates the shard at ``at``; ``stall`` freezes it for
    ``steps`` lockstep steps (inline DES, scaled by the shard's measured
    step time) or ``seconds`` (process backend, a literal sleep) — a
    stall longer than the supervisor's ``heartbeat_timeout`` is
    indistinguishable from death and is failed over as one; ``drop_ack``
    loses the acknowledgement of the next request the shard completes
    at or after ``at``, so the supervisor retries it after
    ``ack_timeout``.
    """

    kind: str
    at: float
    lane: str = "default"
    shard: int = 0
    steps: int = 0
    seconds: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.kind == "stall" and self.steps <= 0 and self.seconds <= 0:
            raise ValueError("a stall needs steps > 0 or seconds > 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, replayable set of injected faults.

    Events are stored sorted by fire time so iteration order never
    depends on construction order; a plan (with its seed) round-trips
    through JSON for CI artifacts, and :meth:`for_shard` slices out the
    events one shard must honour.
    """

    events: Tuple[FaultEvent, ...] = ()
    #: the seed that generated this plan (None for hand-built plans) —
    #: carried for provenance in dumped artifacts.
    seed: Optional[int] = None

    def __post_init__(self):
        ordered = tuple(sorted(
            self.events,
            key=lambda e: (e.at, e.lane, e.shard, e.kind),
        ))
        object.__setattr__(self, "events", ordered)

    def __bool__(self) -> bool:
        return bool(self.events)

    def lanes(self) -> Tuple[str, ...]:
        return tuple(sorted({event.lane for event in self.events}))

    def for_shard(self, lane: str, shard: int) -> Tuple[FaultEvent, ...]:
        """The events (fire-time order) targeting one shard."""
        return tuple(
            event for event in self.events
            if event.lane == lane and event.shard == shard
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        lanes: Sequence[str] = ("default",),
        shards_per_lane: int = 2,
        horizon: float = 1.0,
        kills: int = 1,
        stalls: int = 1,
        drops: int = 1,
        stall_steps: Tuple[int, int] = (2, 8),
        stall_seconds: float = 0.0,
    ) -> "FaultPlan":
        """A reproducible chaos plan over ``[0, horizon)`` seconds.

        Kills never target every shard of a lane — at least one original
        shard always survives, so a seeded plan cannot manufacture a
        total-loss run (hand-built plans still can, for testing the
        explicit :class:`ShardCrashError`
        path).  Same seed and shape, same plan, on any host.
        """
        if shards_per_lane < 1:
            raise ValueError(
                f"shards_per_lane must be >= 1, got {shards_per_lane}"
            )
        rng = np.random.default_rng(seed)
        lanes = tuple(lanes)
        targets = [(lane, s) for lane in lanes for s in range(shards_per_lane)]

        def moment() -> float:
            return float(rng.uniform(0.05, 0.95) * horizon)

        events: List[FaultEvent] = []
        kill_budget = {lane: shards_per_lane - 1 for lane in lanes}
        killable = list(targets)
        for _ in range(kills):
            viable = [t for t in killable if kill_budget[t[0]] > 0]
            if not viable:
                break
            lane, shard = viable[int(rng.integers(len(viable)))]
            kill_budget[lane] -= 1
            killable.remove((lane, shard))
            events.append(FaultEvent("kill", at=moment(), lane=lane, shard=shard))
        for _ in range(stalls):
            lane, shard = targets[int(rng.integers(len(targets)))]
            events.append(FaultEvent(
                "stall", at=moment(), lane=lane, shard=shard,
                steps=int(rng.integers(stall_steps[0], stall_steps[1] + 1)),
                seconds=float(stall_seconds),
            ))
        for _ in range(drops):
            lane, shard = targets[int(rng.integers(len(targets)))]
            events.append(FaultEvent("drop_ack", at=moment(), lane=lane,
                                     shard=shard))
        return cls(events=tuple(events), seed=seed)

    # ---------------------------------------------------------------- #
    # JSON round-trip, for replaying a failing chaos run from CI.
    # ---------------------------------------------------------------- #
    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "events": [asdict(event) for event in self.events],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FaultPlan":
        return cls(
            events=tuple(FaultEvent(**event) for event in data["events"]),
            seed=data.get("seed"),
        )

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(json.load(handle))


@dataclass(frozen=True)
class SupervisorConfig:
    """Failure-detection and recovery knobs for supervised serving."""

    #: a shard silent for this long (no heartbeat; DES: declared stall
    #: duration) is considered dead and failed over.
    heartbeat_timeout: float = 30.0
    #: replacement shards the supervisor may spawn per serve; a lane
    #: that loses every shard with no budget left raises
    #: :class:`ShardCrashError` instead of
    #: hanging.
    max_respawns: int = 1
    #: a dispatched request unacknowledged for this long is retried
    #: (defaults to 4x the heartbeat timeout — a live shard that lost
    #: only an ack, never the work).
    ack_timeout: Optional[float] = None
    #: how often a supervised shard heartbeats (process backend).
    beat_interval: float = 0.05
    #: hard no-progress bound: a supervised serve that neither acks,
    #: sheds, dispatches, nor detects a failure for this long is
    #: aborted with :class:`ShardCrashError` — a supervised run never
    #: hangs.
    drain_timeout: float = 120.0

    def __post_init__(self):
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0, got {self.heartbeat_timeout}"
            )
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        if self.ack_timeout is not None and self.ack_timeout <= 0:
            raise ValueError(
                f"ack_timeout must be > 0, got {self.ack_timeout}"
            )
        if self.beat_interval <= 0:
            raise ValueError(
                f"beat_interval must be > 0, got {self.beat_interval}"
            )
        if self.drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be > 0, got {self.drain_timeout}"
            )

    @property
    def resolved_ack_timeout(self) -> float:
        return (
            self.ack_timeout if self.ack_timeout is not None
            else 4.0 * self.heartbeat_timeout
        )


# -------------------------------------------------------------------- #
# shared backlog bookkeeping (serve core and process supervisor)
# -------------------------------------------------------------------- #
@dataclass
class _PendingEntry:
    """One undispatched (or re-dispatched) request in a lane backlog."""

    seq: int
    request: object  # ClipRequest; untyped to avoid a serving import
    lane: str
    #: earliest time this entry may be dispatched: the arrival time, or
    #: the failover/retry time for re-dispatched entries.
    available: float
    attempts: int = 1
    #: the outcome label its eventual record carries ("served",
    #: "failover", "retried") — rewritten when the entry re-enters the
    #: backlog through a recovery path.
    outcome: str = "served"
    #: when the current attempt was dispatched (process backend).
    dispatch_time: float = 0.0
    #: the lane shard whose ack last timed out on this entry (process
    #: backend): its child still holds the original, so the retry goes
    #: elsewhere while the lane has another open shard.
    timed_out_on: Optional[int] = None


def _edf_key(entry: _PendingEntry) -> Tuple[float, float, int]:
    """Earliest-deadline-first admission order (slack ordering).

    Deadline-less requests sort after every deadlined one; ties fall
    back to arrival order then submission order, which makes the
    no-deadline case exactly the historical FIFO admission.
    """
    deadline = getattr(entry.request, "deadline", None)
    return (
        deadline if deadline is not None else math.inf,
        entry.request.arrival_time,
        entry.seq,
    )


class _Backlog:
    """One lane's queued-but-unadmitted requests.

    Entries wait in a heap ordered by availability until a boundary
    reaches their ``available`` time, then move to a heap in
    earliest-deadline-first order (:func:`_edf_key`) that admission pops
    from — so a boundary costs O(due + admitted), not O(backlog).
    Shedding scans the backlog only while a queued request carries a
    deadline.  Both heaps break ties on ``seq``, so one backlog must
    never hold two entries with the same seq: the tie would fall
    through to comparing the entries, and with them the clips' frames.
    """

    def __init__(self):
        self._future: List[Tuple[float, int, _PendingEntry]] = []
        self._due: List[Tuple[Tuple[float, float, int], _PendingEntry]] = []
        #: when entries last became due: a bound on their availability.
        self._due_since = 0.0
        #: queued entries that carry a deadline.
        self.deadlined = 0

    def __len__(self) -> int:
        return len(self._future) + len(self._due)

    def entries(self) -> List[_PendingEntry]:
        return [item[-1] for item in self._future + self._due]

    def push(self, entry: _PendingEntry) -> None:
        heapq.heappush(self._future, (entry.available, entry.seq, entry))
        if entry.request.deadline is not None:
            self.deadlined += 1

    def earliest(self) -> Optional[float]:
        """When the next entry may be admitted (None = nothing queued)."""
        if self._due:
            return self._due_since
        return self._future[0][0] if self._future else None

    def promote(self, now: float) -> None:
        """Move every entry available by ``now`` into admission order."""
        while self._future and self._future[0][0] <= now:
            entry = heapq.heappop(self._future)[2]
            heapq.heappush(self._due, (_edf_key(entry), entry))
            self._due_since = now

    def pop_due(self) -> Optional[_PendingEntry]:
        """The earliest-deadline due entry, or None."""
        if not self._due:
            return None
        entry = heapq.heappop(self._due)[1]
        if entry.request.deadline is not None:
            self.deadlined -= 1
        return entry

    def shed_expired(self, now: float, shard: int) -> List[ShedRecord]:
        """Drop (and return records for) entries whose deadline passed.

        A request is shed the moment its deadline passes while it is
        still waiting for a slot — service that has not begun by the
        deadline can no longer meet it.  Admitted requests are never
        shed: they run to completion and their record simply shows a
        missed deadline.
        """
        if not self.deadlined:
            return []
        kept: List[_PendingEntry] = []
        shed: List[ShedRecord] = []
        for entry in self.entries():
            deadline = entry.request.deadline
            if deadline is not None and deadline <= now:
                shed.append(ShedRecord(
                    seq=entry.seq,
                    request_id=entry.request.request_id,
                    lane=entry.lane,
                    arrival_time=entry.request.arrival_time,
                    deadline=deadline,
                    shed_time=now,
                    shard=shard,
                ))
            else:
                kept.append(entry)
        if shed:
            self._refill(kept)
        return shed

    def withdraw(self, seq: int) -> Optional[_PendingEntry]:
        """Remove and return the queued entry for ``seq`` (None = none)."""
        entries = self.entries()
        found = next((entry for entry in entries if entry.seq == seq), None)
        if found is not None:
            self._refill([entry for entry in entries if entry is not found])
        return found

    def _refill(self, entries: List[_PendingEntry]) -> None:
        self._future, self._due, self.deadlined = [], [], 0
        for entry in entries:
            self.push(entry)

    def slack(self, now: float) -> Optional[float]:
        """Seconds until the earliest queued deadline (None = none)."""
        if not self.deadlined:
            return None
        return min(
            entry.request.deadline - now for entry in self.entries()
            if entry.request.deadline is not None
        )


# -------------------------------------------------------------------- #
# the supervised shard child
# -------------------------------------------------------------------- #
@dataclass(frozen=True)
class SupervisedShardTask:
    """Everything a supervised shard process needs (picklable)."""

    lane: str
    shard: int
    spec: PipelineSpec
    capacity: int
    #: manager queue the parent dispatches ``(seq, request)`` into.
    inbox: object
    #: shared manager queue for ready/beat/ack/done messages.
    events: object
    #: this shard's slice of the fault plan, on its post-release clock.
    faults: Tuple[FaultEvent, ...] = ()
    beat_interval: float = 0.05
    #: prefix-service knobs (each process owns an independent cache;
    #: counters come home in the shard's tail message).
    prefix_coalesce: bool = True
    prefix_cache_mb: float = 0.0


def _run_supervised_shard(task: SupervisedShardTask) -> None:
    """Shard main: build, sync clocks, then serve and ack until retired.

    Builds its own :class:`~repro.runtime.serving.LaneWorker` (network
    and plan compile stay out of latency accounting), reports ready,
    and blocks for the parent's ``("go", t0)`` — its clock base is set
    so readings land on the parent's timeline (``CLOCK_MONOTONIC`` is
    system-wide, so this holds up to message skew; a respawned shard
    gets the parent's *current* time and joins the same timeline).
    This function owns only inbox I/O, heartbeats, and fault firing:
    dispatches join a local backlog, and admission, stepping,
    finalization, and counters go through the serve core's boundary
    (:func:`~repro.runtime.serving._boundary`) on a one-worker
    timeline.  Every completed request is acknowledged with its full
    :class:`~repro.runtime.serving.RequestRecord`; an exception the serve
    core raises (a frame that turned non-finite after its request was
    built, say) goes to the parent, which raises it
    (:func:`_report_error`).  Injected faults fire
    against the shard's own clock: ``kill`` is ``os._exit`` (a real
    crash — no cleanup, no goodbyes), ``stall`` a literal sleep with
    heartbeats suppressed, ``drop_ack`` a swallowed acknowledgement.
    """
    import queue as queue_module

    from .prefix_service import PrefixService
    from .serving import LaneWorker, _boundary, _Timeline

    worker = LaneWorker(
        task.lane, task.spec, task.capacity, shard=task.shard,
        prefix_service=PrefixService(
            coalesce=task.prefix_coalesce, cache_mb=task.prefix_cache_mb
        ),
    )
    task.events.put(("ready", task.lane, task.shard, os.getpid()))
    go = task.inbox.get()  # parent always answers with go or a sentinel
    if go is None:
        task.events.put(("done", task.lane, task.shard, {}))
        return
    start = time.perf_counter() - float(go[1])

    def now() -> float:
        return time.perf_counter() - start

    backlog = _Backlog()
    backlogs = {task.lane: backlog}
    timeline = _Timeline([worker], now, faults=task.faults)
    last_beat = -math.inf
    draining = False

    def receive(item) -> None:
        nonlocal start, draining
        if item is None:
            draining = True
        elif item[0] == "skip":
            start -= float(item[1])  # idle jump: the clock leaps
        elif item[0] != "go" and item[0] not in (
            [entry.seq for entry in backlog.entries()]
            + [resident.seq for resident in worker.active_residents()]
        ):
            # A duplicate release is inert, and so is a retry of a
            # request this shard still holds: the original's ack
            # resolves it.
            backlog.push(_PendingEntry(
                seq=item[0], request=item[1], lane=task.lane, available=0.0,
            ))

    while True:
        current = now()
        while timeline.stalls and timeline.stalls[0].at <= current:
            event = timeline.stalls.popleft()
            time.sleep(
                event.seconds if event.seconds > 0
                else event.steps * timeline.mean_step
            )
            current = now()
        if timeline.kills and timeline.kills[0].at <= current:
            os._exit(23)  # injected crash: no cleanup, no final ack
        if current - last_beat >= task.beat_interval:
            task.events.put(("beat", task.lane, task.shard, current))
            last_beat = current
        while not draining:
            try:
                receive(task.inbox.get_nowait())
            except queue_module.Empty:
                break
        if worker.has_active() or len(backlog):
            since = now()
            timeline.skip_to(since)
            try:
                _, departed, _ = _boundary([timeline], since, backlogs)
            except Exception as exc:
                _report_error(task, exc)
                return
            for _, resident in departed:
                record = timeline.records.pop(resident.seq)
                if timeline.drops and timeline.drops[0].at <= now():
                    timeline.drops.popleft()  # the ack is lost; the work was not
                else:
                    task.events.put(
                        ("ack", task.lane, task.shard, resident.seq, record)
                    )
        elif draining:
            break
        else:
            try:
                receive(task.inbox.get(timeout=0.02))
            except queue_module.Empty:
                pass
    timeline.skip_to(now())
    task.events.put(("done", task.lane, task.shard, {
        "wall": timeline.busy,
        "idle": timeline.idle,
        "steps": timeline.steps,
        "pipeline": worker.executor.stats,
        "prefix": worker.prefix_service.stats,
    }))


def _report_error(task: SupervisedShardTask, exc: Exception) -> None:
    """Hand an exception the serve core raised to the parent, which
    raises it as an in-process serve would, then wait to be retired: a
    child that exited here would read as a crash and be respawned.  The
    child's traceback rides along as a note; an exception that does not
    pickle travels as a ``RuntimeError`` naming its type and message."""
    exc.add_note(
        f"raised in shard {task.lane}/{task.shard}:\n"
        + "".join(traceback.format_exception(exc)).rstrip()
    )
    try:
        task.events.put(("error", task.lane, task.shard, exc))
    except (pickle.PicklingError, TypeError, AttributeError):
        task.events.put(("error", task.lane, task.shard, RuntimeError(
            f"{type(exc).__name__}: {exc}"
        )))
    while task.inbox.get() is not None:
        pass


# -------------------------------------------------------------------- #
# the parent-side supervisor
# -------------------------------------------------------------------- #
@dataclass
class _ShardState:
    """Parent-side view of one supervised shard process."""

    lane: str
    shard: int
    process: object
    inbox: object
    ready: bool = False
    released: bool = False
    alive: bool = True
    done: bool = False
    #: sentinel sent by the autoscaler: finishing residents, admits
    #: nothing new, retires when empty.
    draining: bool = False
    #: last sign of life, on the REAL clock (``time.perf_counter()``) —
    #: idle jumps must never read as heartbeat silence.
    last_beat: float = 0.0
    tail: Optional[dict] = None
    in_flight: Dict[int, _PendingEntry] = field(default_factory=dict)
    records: Dict[int, object] = field(default_factory=dict)


class ShardSupervisor:
    """Supervised shared-admission serving over real shard processes.

    The parent is dispatcher and failure detector in one loop.  It
    admits as the serve core does: the front door releases requests as
    they arrive into one :class:`_Backlog` per lane, which sheds
    whatever expires while queued and hands due requests out
    earliest-deadline-first, each to the lane shard with the most free
    capacity (credit = ``capacity`` minus unacknowledged dispatches).
    With nothing in flight it jumps idle gaps instead of sleeping them.
    It also watches each shard's process liveness and heartbeats.  A
    dead or silent shard's unacknowledged requests go back into the
    backlog — their eventual records are flagged ``"failover"`` — and,
    when the lane would otherwise be shardless, a replacement is spawned
    (bounded by ``max_respawns``).  An unacknowledged request on a
    *live* shard is retried after ``ack_timeout`` (the drop-ack case),
    on another open shard of its lane when there is one; duplicate acks
    are idempotent because re-execution is bit-identical.
    Total loss — a lane with work but no shards and no respawn budget —
    terminates everything and raises :class:`ShardCrashError`; a run
    never hangs (``drain_timeout`` bounds any no-progress stretch).
    The core's event loop itself is not shared: shard processes step
    concurrently on the real clock, so only admission is.
    """

    def __init__(
        self,
        specs: Mapping[str, PipelineSpec],
        capacity: int,
        config: Optional[SupervisorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        autoscaler: Optional[object] = None,
        prefix_coalesce: bool = True,
        prefix_cache_mb: float = 0.0,
    ):
        self.specs = dict(specs)
        self.capacity = capacity
        self.config = config or SupervisorConfig()
        self.plan = fault_plan or FaultPlan()
        #: prefix-service knobs forwarded to every shard process.
        self.prefix_coalesce = bool(prefix_coalesce)
        self.prefix_cache_mb = float(prefix_cache_mb)
        #: a :class:`~repro.runtime.frontdoor.Autoscaler`; when set, the
        #: supervisor grows lanes through its spawn machinery and
        #: shrinks them by draining idle shards (not charged against
        #: ``max_respawns`` — scaling is not failure recovery).
        self.autoscaler = autoscaler

    # ---------------------------------------------------------------- #
    def serve(
        self, door, lane_shards: Mapping[str, int],
    ) -> Tuple[List[object], List[ShedRecord], List[FailoverEvent],
               Dict[str, int]]:
        """Serve a :class:`~repro.runtime.frontdoor.FrontDoor`'s traffic
        on ``lane_shards`` processes per lane.

        Returns what the serve core returns: ``(outcomes, shed, failover
        events, counters)``, one ``_ShardOutcome`` per shard process in
        spawn order; ``counters`` keys ``retries``/``failovers``/
        ``respawns``.
        """
        import multiprocessing

        manager = multiprocessing.Manager()
        shards: List[_ShardState] = []
        try:
            events = manager.Queue()

            def spawn(lane: str, shard: int) -> _ShardState:
                inbox = manager.Queue()
                task = SupervisedShardTask(
                    lane=lane,
                    shard=shard,
                    spec=self.specs[lane],
                    capacity=self.capacity,
                    inbox=inbox,
                    events=events,
                    faults=self.plan.for_shard(lane, shard),
                    beat_interval=self.config.beat_interval,
                    prefix_coalesce=self.prefix_coalesce,
                    prefix_cache_mb=self.prefix_cache_mb,
                )
                process = multiprocessing.Process(
                    target=_run_supervised_shard, args=(task,), daemon=True
                )
                process.start()
                state = _ShardState(lane, shard, process, inbox)
                shards.append(state)
                return state

            for lane, count in lane_shards.items():
                for shard in range(count):
                    spawn(lane, shard)
            return self._dispatch_loop(door, lane_shards, events, spawn,
                                       shards)
        finally:
            for state in shards:
                if state.process.is_alive():
                    state.process.terminate()
            for state in shards:
                state.process.join(timeout=5)
            manager.shutdown()

    # ---------------------------------------------------------------- #
    def _dispatch_loop(self, door, lane_shards, events, spawn, shards):
        import queue as queue_module

        config = self.config
        ack_timeout = config.resolved_ack_timeout

        # Build before release: wait until every shard reports ready so
        # no shard's records carry a sibling's build time.  A shard that
        # dies *building* is a systemic failure (its siblings share the
        # spec), surfaced immediately rather than supervised around.
        build_deadline = time.perf_counter() + 300
        while any(not s.ready for s in shards):
            for state in shards:
                if not state.ready and not state.process.is_alive():
                    raise ShardCrashError(
                        f"shard {state.lane}/{state.shard} died while "
                        f"building (exit code {state.process.exitcode}); "
                        f"nothing was dispatched",
                    )
            if time.perf_counter() > build_deadline:
                raise ShardCrashError(
                    "supervised shards failed to report ready within 300s"
                )
            try:
                message = events.get(timeout=0.05)
            except queue_module.Empty:
                continue
            if message[0] == "ready":
                self._state_of(shards, message[1], message[2]).ready = True

        base = time.perf_counter()
        offset = 0.0  # logical seconds jumped over idle gaps

        def now() -> float:
            return time.perf_counter() - base + offset

        for state in shards:
            state.inbox.put(("go", now()))
            state.released = True
            state.last_beat = time.perf_counter()

        backlogs = {name: _Backlog() for name in self.specs}
        resolved = set()
        shed: List[ShedRecord] = []
        failover_events: List[FailoverEvent] = []
        counters = {"retries": 0, "failovers": 0, "respawns": 0}
        next_shard = dict(lane_shards)
        last_progress = now()
        last_observe = 0.0  # real-clock autoscale observation throttle

        def fail_shard(state: _ShardState, reason: str) -> None:
            state.alive = False
            if state.process.is_alive():
                state.process.terminate()
            detect = now()
            seqs = tuple(sorted(state.in_flight))
            for seq in seqs:
                entry = state.in_flight.pop(seq)
                entry.attempts += 1
                entry.outcome = "failover"
                entry.available = detect
                backlogs[state.lane].push(entry)
            counters["failovers"] += len(seqs)
            lane_live = [
                s for s in shards
                if s.lane == state.lane and s.alive and not s.done
                and not s.draining
            ]
            lane_work = (
                seqs or len(backlogs[state.lane]) or not door.exhausted
                or any(s.lane == state.lane and s.in_flight for s in shards)
            )
            respawned = False
            if (not lane_live and lane_work
                    and counters["respawns"] < config.max_respawns):
                spawn(state.lane, next_shard[state.lane])
                next_shard[state.lane] += 1
                counters["respawns"] += 1
                respawned = True  # released when its "ready" arrives
            failover_events.append(FailoverEvent(
                lane=state.lane, shard=state.shard, time=detect,
                reason=reason, seqs=seqs, respawned=respawned,
            ))

        def handle(message) -> bool:
            """Apply one child message; True if it was progress."""
            kind = message[0]
            if kind == "beat":
                self._state_of(
                    shards, message[1], message[2]
                ).last_beat = time.perf_counter()
                return False
            if kind == "ready":  # a respawned or scaled-up shard came up
                state = self._state_of(shards, message[1], message[2])
                state.ready = True
                state.inbox.put(("go", now()))
                state.released = True
                state.last_beat = time.perf_counter()
                return True
            if kind == "ack":
                _, lane, shard, seq, record = message
                state = self._state_of(shards, lane, shard)
                state.last_beat = time.perf_counter()
                if seq in resolved:
                    return False  # duplicate of a retried request
                entry = state.in_flight.pop(seq, None)
                if entry is None:
                    # The request was retried after an ack timeout, but
                    # the original attempt finished after all; results
                    # are bit-identical, so the first ack wins and the
                    # retry is withdrawn from wherever it waits now.
                    entry = backlogs[lane].withdraw(seq) or next(
                        (s.in_flight.pop(seq) for s in shards
                         if seq in s.in_flight), None,
                    )
                record.outcome = entry.outcome if entry else "served"
                record.attempts = entry.attempts if entry else 1
                resolved.add(seq)
                state.records[seq] = record
                return True
            if kind == "done":
                state = self._state_of(shards, message[1], message[2])
                state.done = True
                state.tail = message[3]
                return True
            if kind == "error":  # a request's own fault, not a crash
                raise message[3]
            return False

        # ---------------- the dispatch/monitor loop ---------------- #
        while (not door.exhausted or any(len(b) for b in backlogs.values())
               or any(s.in_flight for s in shards)):
            try:
                message = events.get(timeout=0.01)
            except queue_module.Empty:
                message = None
            while message is not None:
                if handle(message):
                    last_progress = now()
                try:
                    message = events.get_nowait()
                except queue_module.Empty:
                    message = None
            current = now()
            # Retry unacknowledged dispatches on shards that still look
            # alive — the ack (not the shard) may be what was lost.
            for state in shards:
                if not state.alive:
                    continue
                for seq in [
                    s for s, e in state.in_flight.items()
                    if current - e.dispatch_time > ack_timeout
                ]:
                    entry = state.in_flight.pop(seq)
                    entry.attempts += 1
                    entry.outcome = "retried"
                    entry.available = current
                    entry.timed_out_on = state.shard
                    backlogs[entry.lane].push(entry)
                    counters["retries"] += 1
                    last_progress = current
            # Liveness: a dead process is a crash; heartbeat silence on
            # a released shard is a stall — both fail over identically.
            for state in shards:
                if not state.alive or state.done:
                    continue
                if not state.process.is_alive():
                    fail_shard(state, "crash")
                    last_progress = now()
                elif (state.released
                        and time.perf_counter() - state.last_beat
                        > config.heartbeat_timeout):
                    # Real-clock silence: idle jumps never trip this.
                    fail_shard(state, "stall")
                    last_progress = now()
            # Idle jump: with nothing in flight anywhere, leap the
            # logical clock to the earliest request any lane could take
            # — queued, or next at the door — and broadcast the same gap
            # to every released shard instead of sleeping it out.  An
            # open source with nothing submitted yet is idle, not stuck.
            depth = sum(len(backlog) for backlog in backlogs.values())
            if not any(s.in_flight for s in shards):
                times = [
                    t for t in (b.earliest() for b in backlogs.values())
                    if t is not None
                ]
                upcoming = door.upcoming(depth)
                if upcoming is not None:
                    times.append(upcoming[0])
                gap = min(times) - now() if times else 0.0
                if gap > 0:
                    offset += gap
                    for state in shards:
                        if state.alive and state.released and not state.done:
                            state.inbox.put(("skip", gap))
                if gap > 0 or not times:
                    last_progress = now()
            # Release arrivals (after the jump, so a jumped-to arrival
            # dispatches in this same pass), then shed what expired.
            current = now()
            for seq, request, lane in door.take(depth, now=current):
                backlogs[lane].push(_PendingEntry(
                    seq=seq, request=request, lane=lane, available=current,
                ))
            for backlog in backlogs.values():
                newly_shed = backlog.shed_expired(current, shard=-1)
                if newly_shed:
                    shed.extend(newly_shed)
                    last_progress = current
            # Autoscale: observe each lane's backlog and deadline slack
            # on the real beat cadence.  Growth reuses the spawn
            # machinery without charging the respawn budget; shrink
            # marks the emptiest shard draining and sends its sentinel
            # — the FIFO inbox guarantees earlier dispatches are served
            # and acked before the child retires.
            if (self.autoscaler is not None
                    and time.perf_counter() - last_observe
                    >= config.beat_interval):
                last_observe = time.perf_counter()
                for lane in sorted(self.specs):
                    backlog = backlogs[lane]
                    live = [
                        s for s in shards
                        if s.lane == lane and s.alive and not s.done
                        and not s.draining
                    ]
                    target = self.autoscaler.observe(
                        lane, len(live), len(backlog), current,
                        deadline_slack=backlog.slack(current),
                    )
                    if target > len(live):
                        for _ in range(target - len(live)):
                            spawn(lane, next_shard[lane])
                            next_shard[lane] += 1
                    elif target < len(live):
                        victims = [s for s in live if s.released]
                        for _ in range(len(live) - target):
                            if not victims:
                                break
                            victim = min(
                                victims,
                                key=lambda s: (len(s.in_flight), -s.shard),
                            )
                            victims.remove(victim)
                            victim.draining = True
                            victim.inbox.put(None)
            # A lane with work but no shards left: explicit total loss.
            # An autoscaled fleet self-heals instead — the policy clamp
            # restores the lane to min_shards on the next observation,
            # with drain_timeout as the backstop.
            lanes_with_work = {
                lane for lane, backlog in backlogs.items() if len(backlog)
            } | {s.lane for s in shards if s.in_flight}
            for lane in sorted(lanes_with_work):
                if self.autoscaler is not None:
                    break
                if not any(
                    s.lane == lane and s.alive and not s.done for s in shards
                ):
                    lost = sorted(e.seq for e in backlogs[lane].entries())
                    raise ShardCrashError(
                        f"lane {lane!r} lost every shard with "
                        f"{len(lost)} request(s) unresolved (seqs {lost}) "
                        f"and no respawn budget left "
                        f"(max_respawns={config.max_respawns})",
                        lost=lost,
                    )
            # Dispatch: deadline order, each to the emptiest shard of
            # its lane that has credit.  A retry skips the shard whose
            # ack timed out — its child still holds the original and
            # would drop the duplicate — unless that shard is the lane's
            # only open one; held back, it waits for another's credit.
            for lane, backlog in backlogs.items():
                backlog.promote(current)
                open_shards = [
                    s for s in shards
                    if s.lane == lane and s.alive and s.released
                    and not s.done and not s.draining
                ]
                held = []
                while True:
                    credit = [
                        s for s in open_shards
                        if len(s.in_flight) < self.capacity
                    ]
                    entry = backlog.pop_due() if credit else None
                    if entry is None:
                        break
                    if len(open_shards) > 1:
                        credit = [
                            s for s in credit if s.shard != entry.timed_out_on
                        ]
                    if not credit:
                        held.append(entry)
                        continue
                    target = min(
                        credit, key=lambda s: (len(s.in_flight), s.shard)
                    )
                    entry.dispatch_time = current
                    target.in_flight[entry.seq] = entry
                    target.inbox.put((entry.seq, entry.request))
                    last_progress = current
                for entry in held:
                    backlog.push(entry)
            if now() - last_progress > config.drain_timeout:
                unresolved = sorted(
                    [e.seq for b in backlogs.values() for e in b.entries()]
                    + [seq for s in shards for seq in s.in_flight]
                )
                raise ShardCrashError(
                    f"supervised serve made no progress for "
                    f"{config.drain_timeout:.0f}s with seqs {unresolved} "
                    f"unresolved; aborting instead of hanging",
                    lost=unresolved,
                )

        # Retire: sentinel every live shard, collect their tails.
        for state in shards:
            if state.alive and not state.done:
                state.inbox.put(None)
        drain_deadline = time.perf_counter() + min(config.drain_timeout, 60)
        while (any(s.alive and not s.done for s in shards)
               and time.perf_counter() < drain_deadline):
            for state in shards:
                if state.alive and not state.done \
                        and not state.process.is_alive():
                    state.alive = False  # died after its last ack
            try:
                message = events.get(timeout=0.05)
            except queue_module.Empty:
                continue
            handle(message)

        from .prefix_service import PrefixStats
        from .serving import _ShardOutcome
        from .stage_graph import PipelineStats

        outcomes = []
        for state in shards:
            tail = state.tail or {}
            outcomes.append(_ShardOutcome(
                lane=state.lane,
                shard=state.shard,
                records=state.records,
                wall_seconds=tail.get("wall", 0.0),
                idle_seconds=tail.get("idle", 0.0),
                steps=tail.get("steps", 0),
                pipeline=tail.get("pipeline") or PipelineStats(),
                prefix=tail.get("prefix") or PrefixStats(),
            ))
        return outcomes, shed, failover_events, counters

    # ---------------------------------------------------------------- #
    @staticmethod
    def _state_of(shards: List[_ShardState], lane: str,
                  shard: int) -> _ShardState:
        for state in shards:
            if state.lane == lane and state.shard == shard:
                return state
        raise KeyError(f"unknown shard {lane}/{shard}")
