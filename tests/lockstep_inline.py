"""Lockstep with one step in flight, for tests that check both overlaps.

:func:`repro.runtime.run_workload` hands each lockstep step its
successor, and the executor overlaps that successor's head whenever one
of its rows estimates.  :func:`run_lockstep_inline` runs the same
lockstep with every next batch dropped, so every head runs inline in
its own step.
"""

import pytest

from repro.runtime import StageExecutor, run_workload


def run_lockstep_inline(spec, clips):
    """``run_workload(spec, clips)`` with no head overlapped."""
    step = StageExecutor.step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StageExecutor, "step",
                      lambda self, batch, next_batch=None: step(self, batch))
        result = run_workload(spec, clips)
    assert result.pipelined_steps == 0
    return result
