"""Admission control: caps, deadlines, and retry/backoff for shedding.

A serving layer that accepts every request melts down the moment offered
load exceeds capacity — queues grow without bound, every request's
latency diverges, and nobody gets an answer.  The serving discipline
here is the standard one:

* **Caps** (:class:`AdmissionPolicy`) — a bounded request queue.  A
  request arriving past the cap is *shed* immediately with a
  ``retry_after_s`` hint: an honest, cheap "try again shortly"
  instead of an open-ended wait.
* **Deadlines** — each request carries an absolute deadline; the
  engine's cooperative-cancellation checkpoints
  (:class:`~repro.engine.errors.QueryAborted`) cut work short when it
  passes, and the outcome is ``deadline_exceeded`` — never a partial
  or wrong answer.  :meth:`AdmissionPolicy.resolve_deadline` applies
  the policy default when the caller gave none.
* **Retry with backoff** (:class:`RetryPolicy`,
  :func:`submit_with_retry`) — shed requests back off exponentially
  and deterministically (no jitter: reproducibility is worth more
  than decorrelation inside a single-process service) up to a bounded
  number of attempts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..obs.clock import monotonic_s

__all__ = ["AdmissionPolicy", "RetryPolicy", "submit_with_retry"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Static admission limits for a :class:`~repro.serve.QBHService`.

    Parameters
    ----------
    max_queue_depth:
        Requests allowed to wait in the scheduler queue; arrivals
        beyond this are shed.  ``None`` = unbounded (load tests only —
        an unbounded queue is how services die).
    default_deadline_s:
        Deadline applied to requests that do not bring their own.
        ``None`` = no implicit deadline.
    retry_after_s:
        The backoff hint attached to shed outcomes.
    """

    max_queue_depth: int | None = 64
    default_deadline_s: float | None = None
    retry_after_s: float = 0.01

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if (self.default_deadline_s is not None
                and self.default_deadline_s <= 0):
            raise ValueError(
                f"default_deadline_s must be > 0, "
                f"got {self.default_deadline_s}"
            )
        if self.retry_after_s < 0:
            raise ValueError(
                f"retry_after_s must be >= 0, got {self.retry_after_s}"
            )

    def admits(self, queue_depth: int) -> bool:
        """Whether a new request may enter at the observed queue depth."""
        return (self.max_queue_depth is None
                or queue_depth < self.max_queue_depth)

    def resolve_deadline(self, deadline_s: float | None) -> float | None:
        """The request's *absolute* deadline on the monotonic clock.

        *deadline_s* is relative (seconds from now); ``None`` falls
        back to :attr:`default_deadline_s`, and ``None`` again means
        no deadline at all.
        """
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        if deadline_s is None:
            return None
        if deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        return monotonic_s() + deadline_s


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff for shed requests.

    Attempt *i* (0-based) sleeps ``base_s * multiplier**i`` seconds,
    capped at *max_s*; after *max_attempts* resubmissions the shed
    outcome is returned as-is.  When the shed outcome carries a larger
    ``retry_after_s`` hint, the hint wins — the service knows its own
    drain rate better than a client-side constant.
    """

    base_s: float = 0.01
    multiplier: float = 2.0
    max_s: float = 0.5
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.base_s <= 0:
            raise ValueError(f"base_s must be > 0, got {self.base_s}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_s < self.base_s:
            raise ValueError("max_s must be >= base_s")
        if self.max_attempts < 0:
            raise ValueError(
                f"max_attempts must be >= 0, got {self.max_attempts}"
            )

    def backoff_s(self, attempt: int) -> float:
        """The sleep before resubmission number ``attempt + 1``."""
        return min(self.base_s * self.multiplier ** attempt, self.max_s)


def submit_with_retry(submit, retry: RetryPolicy | None = None, *,
                      sleep=time.sleep):
    """Run *submit* (returning a ``ServeOutcome``), retrying sheds.

    *submit* is a zero-argument callable performing one synchronous
    submission.  Only ``shed`` outcomes are retried — a deadline miss
    or an error would only repeat — and the returned outcome's
    ``attempts`` attribute counts the submissions made (1 = no retry).
    """
    if retry is None:
        retry = RetryPolicy()
    attempt = 0
    while True:
        outcome = submit()
        attempt += 1
        if outcome.status != "shed" or attempt > retry.max_attempts:
            outcome.attempts = attempt
            return outcome
        pause = retry.backoff_s(attempt - 1)
        if outcome.retry_after_s is not None:
            pause = max(pause, outcome.retry_after_s)
        sleep(pause)
