"""Cross-lane CNN-prefix service: fused coincident batches + content cache.

The paper's whole economy is "run the expensive CNN prefix as rarely as
the workload allows" — yet the serving stack historically ran one
``InferencePlan.run_prefix`` call *per lane per step*, even when key
frames coincided across lanes (and simulated shards), and recomputed the
prefix for bit-identical frames (static stretches, repeated scenes).
:class:`PrefixService` closes both gaps without changing a single output
bit:

* **Cross-lane coalescing.**  A serve round runs in two phases: every
  lane first ``begin_step`` calls (RFBME + key decisions), the loop calls
  :meth:`PrefixService.flush`, and only then do lanes ``finish_step``
  (CNN stages).  ``flush`` groups the registered key-frame requests by
  fusion signature — the resolved :class:`~repro.nn.inference.InferencePlan`
  instance plus AMC ``target``, which pins ``(network, dtype, frame
  shape)`` — grows the plan with the existing ``reserve()`` path, and
  executes one fused ``run_prefix`` per group.  The plan's
  per-sample-vs-fused GEMM probe guarantees each row of a fused batch is
  bit-identical to the same frame run at batch 1, so fusion is pure
  scheduling.

* **Content-addressed cache.**  An LRU memo keyed by ``(frame-bytes
  digest, network weight version, target, dtype)`` returns the stored
  prefix activation for repeated frames.  Hits are bit-identical by
  construction: the cached array *is* the previously computed result
  (``InferencePlan._execute`` hands back an owned copy, and every
  consumer — ``AMCExecutor.adopt_key_activation``, the suffix concat —
  copies again, so entries are never aliased or mutated).
  ``Network.load_state_dict`` bumps ``weight_version``, so a live
  weight swap invalidates without draining the cache explicitly.

Pipelining needs nothing from the service: ``cnn_prefix`` is in the
executor's tail, which runs on the driver thread, and a pipelined head
runs RFBME/decide only — so a head never touches fused batches or cache
entries.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["PrefixStats", "PrefixService"]


@dataclass
class PrefixStats:
    """Counters for one serve/run (mirrors the executor's stats objects)."""

    #: fused ``run_prefix`` executions that combined key rows from more
    #: than one registered lane request.
    fused_batches: int = 0
    #: key rows that rode in those fused batches.
    fused_rows: int = 0
    #: cache lookups that returned a stored activation.
    hits: int = 0
    #: cache lookups that fell through to compute (only counted while a
    #: cache is configured — with the cache off nothing is a "miss").
    misses: int = 0
    #: entries dropped to keep the cache under its byte budget.
    evictions: int = 0
    #: prefix MACs avoided by cache hits.
    saved_macs: int = 0

    def merge(self, other: "PrefixStats") -> None:
        self.fused_batches += other.fused_batches
        self.fused_rows += other.fused_rows
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.saved_macs += other.saved_macs


class _PrefixCache:
    """Byte-bounded LRU of prefix activations."""

    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = int(capacity_bytes)
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[np.ndarray]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, value: np.ndarray) -> int:
        """Insert (or refresh) ``key``; return how many entries were evicted."""
        if value.nbytes > self.capacity_bytes:
            # An entry that can never fit should not wipe the whole cache.
            return 0
        old = self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= old.nbytes
        self._entries[key] = value
        self.nbytes += value.nbytes
        evicted = 0
        while self.nbytes > self.capacity_bytes:
            _, dropped = self._entries.popitem(last=False)
            self.nbytes -= dropped.nbytes
            evicted += 1
        return evicted


def _frame_digest(frame: np.ndarray) -> bytes:
    """SHA-256 of the frame's bytes in C order, truncated to 16 bytes and
    hashed straight from the (contiguous) buffer — the same digest as
    hashing ``tobytes()`` without the copy.  SHA-256 runs on the CPU's
    SHA extensions where present (about twice blake2b's speed on a
    64x64 float64 frame); 128 bits keep collisions negligible at any
    cache size."""
    data = frame if frame.flags["C_CONTIGUOUS"] else np.ascontiguousarray(frame)
    return hashlib.sha256(data).digest()[:16]


class PrefixService:
    """Shared prefix executor for one serve/run.

    Two call protocols coexist:

    * **Direct** — ``stage_cnn_prefix`` finds the service on its
      :class:`~repro.core.stages.StepBatch` and calls :meth:`run_prefix`
      in place of ``batch.plan.run_prefix``; the service answers from
      the cache where it can and computes the rest in one plan call.
      This is the path for single-lane loops, the lockstep runtime, and
      any caller that never learned the round protocol.
    * **Round** — a serve loop that steps several lanes calls
      :meth:`prepare` with each lane's key decisions after the lane's
      ``begin_step``, then :meth:`flush` once, then lets every lane
      ``finish_step``; the staged (fused and/or cached) rows are handed
      back when each lane's ``stage_cnn_prefix`` asks.
    """

    def __init__(self, coalesce: bool = True, cache_mb: float = 0.0):
        self.coalesce = bool(coalesce)
        cache_bytes = int(float(cache_mb) * 1024 * 1024)
        self.cache = _PrefixCache(cache_bytes) if cache_bytes > 0 else None
        self.stats = PrefixStats()
        self._pending: List[Tuple[object, List[int]]] = []
        self._staged: Dict[int, np.ndarray] = {}
        #: prefix MACs per (network id, target): geometry only, and
        #: ``Network.prefix_macs`` walks every prefix layer per call.
        self._prefix_macs: Dict[Tuple[int, str], int] = {}

    # ------------------------------------------------------------------ #
    # round protocol
    # ------------------------------------------------------------------ #
    def prepare(self, batch, decisions) -> None:
        """Register one lane's key-frame rows for the next :meth:`flush`."""
        if not self.coalesce or batch.plan is None:
            return
        keys = [k for k, is_key in enumerate(decisions) if is_key]
        if keys:
            self._pending.append((batch, keys))

    def flush(self) -> None:
        """Execute all registered requests, one fused batch per signature."""
        self._staged.clear()
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        groups: Dict[tuple, List[Tuple[object, List[int]]]] = {}
        for batch, keys in pending:
            target = batch.slot(keys[0]).executor.target
            groups.setdefault((id(batch.plan), target), []).append((batch, keys))
        for entries in groups.values():
            self._flush_group(entries)

    def _flush_group(self, entries) -> None:
        plan = entries[0][0].plan
        target = entries[0][0].slot(entries[0][1][0]).executor.target
        # rows[i][j] is the activation for entries[i]'s j-th key frame.
        rows: List[List[Optional[np.ndarray]]] = []
        miss_frames: List[np.ndarray] = []
        miss_sites: List[Tuple[int, int, Optional[tuple]]] = []
        for i, (batch, keys) in enumerate(entries):
            rows.append([None] * len(keys))
            for j, k in enumerate(keys):
                frame = batch.frames[k]
                hit, ckey = self._lookup(plan, target, frame)
                if hit is not None:
                    rows[i][j] = hit
                else:
                    miss_frames.append(frame)
                    miss_sites.append((i, j, ckey))
        if miss_frames:
            stacked = np.stack(miss_frames)[:, None]
            plan.reserve(len(miss_frames))
            acts = plan.run_prefix(stacked, target)
            contributors = {i for i, _, _ in miss_sites}
            if len(contributors) > 1:
                self.stats.fused_batches += 1
                self.stats.fused_rows += len(miss_frames)
            for row, (i, j, ckey) in enumerate(miss_sites):
                rows[i][j] = acts[row]
                self._store(ckey, acts[row])
        for (batch, keys), batch_rows in zip(entries, rows):
            self._staged[id(batch)] = self._assemble(plan, batch_rows)

    # ------------------------------------------------------------------ #
    # direct protocol (stage-side)
    # ------------------------------------------------------------------ #
    def run_prefix(self, batch, keys: List[int]) -> np.ndarray:
        """Prefix activations for ``batch.frames[keys]``, staged or computed."""
        staged = self._staged.pop(id(batch), None)
        if staged is not None:
            return staged
        plan = batch.plan
        target = batch.slot(keys[0]).executor.target
        rows: List[Optional[np.ndarray]] = [None] * len(keys)
        miss_idx: List[int] = []
        miss_keys: List[Optional[tuple]] = []
        for j, k in enumerate(keys):
            hit, ckey = self._lookup(plan, target, batch.frames[k])
            if hit is not None:
                rows[j] = hit
            else:
                miss_idx.append(j)
                miss_keys.append(ckey)
        if miss_idx:
            stacked = np.stack([batch.frames[keys[j]] for j in miss_idx])[:, None]
            plan.reserve(len(miss_idx))
            acts = plan.run_prefix(stacked, target)
            if len(miss_idx) == len(keys):
                # No hits: hand the plan's owned result straight through.
                for ckey, row in zip(miss_keys, acts):
                    self._store(ckey, row)
                return acts
            for row, (j, ckey) in enumerate(zip(miss_idx, miss_keys)):
                rows[j] = acts[row]
                self._store(ckey, acts[row])
        return self._assemble(plan, rows)

    # ------------------------------------------------------------------ #
    # cache internals
    # ------------------------------------------------------------------ #
    def _lookup(self, plan, target, frame):
        """(cached activation or None, cache key or None) for one frame."""
        if self.cache is None:
            return None, None
        network = plan.network
        ckey = (
            id(network),
            getattr(network, "weight_version", 0),
            target,
            # The plan *family*, not the interchange dtype: quantized
            # plans exchange float32 at the boundary, and an int8
            # prefix must never be served to a float32 lane.
            getattr(plan, "dtype_name", np.dtype(plan.dtype).str),
            frame.shape,
            _frame_digest(frame),
        )
        hit = self.cache.get(ckey)
        if hit is not None:
            self.stats.hits += 1
            macs_key = (id(network), target)
            macs = self._prefix_macs.get(macs_key)
            if macs is None:
                macs = self._prefix_macs[macs_key] = network.prefix_macs(target)
            self.stats.saved_macs += macs
            return hit, ckey
        self.stats.misses += 1
        return None, ckey

    def _store(self, ckey, row: np.ndarray) -> None:
        if self.cache is None or ckey is None:
            return
        # Stored entries must be bulletproof against any future mutation
        # of the batch result, so keep an owned contiguous copy.
        self.stats.evictions += self.cache.put(ckey, np.ascontiguousarray(row))

    @staticmethod
    def _assemble(plan, rows: List[np.ndarray]) -> np.ndarray:
        out = np.empty((len(rows),) + rows[0].shape, dtype=plan.dtype)
        for j, row in enumerate(rows):
            out[j] = row
        return out
