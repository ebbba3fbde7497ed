"""Typed engine errors.

:class:`QueryAborted` is the cooperative-cancellation signal of the
query path: when a caller passes ``should_abort=`` to
:meth:`~repro.engine.QueryEngine.range_search` /
:meth:`~repro.engine.QueryEngine.knn`, the engine polls the callback
at its natural checkpoints — before every cascade stage and between
refine chunks — and raises this exception the moment it returns true.
An aborted query therefore never produces a *wrong* answer, only no
answer: the serving layer (:mod:`repro.serve`) maps the exception to a
``deadline_exceeded`` outcome, and standalone callers can use it to
bound per-query work (a watchdog, a user hitting cancel, a cooperative
scheduler's time slice).

:class:`ShardError` / :class:`RouterClosed` are raised by
:mod:`repro.shard` (which re-exports them) but defined here, so the
serving layer can catch them without importing the shard tier into a
process that never shards.
"""

from __future__ import annotations

__all__ = ["QueryAborted", "ShardError", "RouterClosed"]


class QueryAborted(RuntimeError):
    """A query was cancelled by its ``should_abort`` callback.

    Attributes
    ----------
    phase:
        Where the engine was when the callback fired — ``"stage:<name>"``
        for a checkpoint before a filter stage, ``"refine"`` for a
        checkpoint between exact-refinement chunks.  Useful to assert
        that cancellation is actually cooperative (the phases seen
        under load cover the whole cascade) and to debug deadlines
        that only ever fire in one place.
    """

    def __init__(self, message: str = "query aborted", *,
                 phase: str | None = None) -> None:
        if phase is not None:
            message = f"{message} (phase: {phase})"
        super().__init__(message)
        self.phase = phase


class ShardError(RuntimeError):
    """A shard request failed permanently (worker crashed twice, or the
    router is closed).  The serving layer maps this to a typed
    ``error`` outcome — never a silent partial answer."""


class RouterClosed(ShardError):
    """The router was drained and closed between being handed out and
    being used — the benign race of a generation swap closing the old
    fleet.  The serving layer retries exactly once against the
    manager's fresh router instead of surfacing an error."""
