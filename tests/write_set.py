"""The stages' write-set checker, a testing aid.

:func:`run_checked` calls a stage function and verifies that it left
every checked :class:`~repro.core.stages.LaneState` resource outside its
declared ``writes`` untouched — the run-time half of the proof that a
step's head may overlap the previous step's tail.
"""

import zlib

from repro.core.stages import CURSOR_STATE, KEY_PIXELS, KEY_STATE, POLICY_STATE

#: resources with *persistent* content, cheap enough to fingerprint —
#: what :func:`run_checked` verifies a stage left untouched unless
#: declared in its write set.  The scratch resources are exempt by
#: definition (their contents are dead between stages).
CHECKED_RESOURCES = (KEY_STATE, KEY_PIXELS, POLICY_STATE, CURSOR_STATE)


class WriteSetViolationError(ValueError):
    """A stage mutated a lane-state resource outside its declared write set."""


def fingerprint_resource(batch, resource: str):
    """A cheap equality token for one checked resource of one step batch.

    Two fingerprints differ iff the resource's observable content
    changed.  Returns ``None`` for scratch resources (exempt).
    """
    executors = [batch.slot(k).executor for k in range(len(batch))]
    if resource == KEY_STATE:
        return tuple(
            zlib.crc32(e.key_activation.tobytes()) if e.has_key else None
            for e in executors
        )
    if resource == KEY_PIXELS:
        return tuple(
            zlib.crc32(e.stored_pixels().tobytes()) if e.has_key_pixels else None
            for e in executors
        )
    if resource == POLICY_STATE:
        return tuple(
            repr(vars(batch.slot(k).policy))
            if batch.slot(k).policy is not None
            else None
            for k in range(len(batch))
        )
    if resource == CURSOR_STATE:
        return tuple(batch.slot(k).cursor for k in range(len(batch)))
    return None


def run_checked(fn, batch, *args):
    """Call stage function ``fn`` on ``batch`` and verify its write set.

    Fingerprints every checked resource outside ``fn.writes`` before and
    after the call, and raises :class:`WriteSetViolationError` if one
    changed.
    """
    guarded = [r for r in CHECKED_RESOURCES if r not in fn.writes]
    before = [fingerprint_resource(batch, r) for r in guarded]
    result = fn(batch, *args)
    for resource, token in zip(guarded, before):
        if fingerprint_resource(batch, resource) != token:
            raise WriteSetViolationError(
                f"stage {fn.__name__!r} mutated resource {resource!r} "
                f"outside its declared write set {sorted(fn.writes)}"
            )
    return result
