"""Admission control: caps, deadline resolution, retry/backoff."""

import pytest

from repro.serve import AdmissionPolicy, RetryPolicy, submit_with_retry
from repro.serve.scheduler import ServeOutcome


class TestAdmissionPolicy:
    def test_admits_below_caps(self):
        policy = AdmissionPolicy(max_queue_depth=4)
        assert policy.admits(3)
        assert not policy.admits(4)         # queue at cap
        assert AdmissionPolicy(max_queue_depth=None).admits(10_000)

    def test_resolve_deadline_relative_to_now(self):
        policy = AdmissionPolicy()
        absolute = policy.resolve_deadline(5.0)
        from repro.obs.clock import monotonic_s

        assert absolute is not None
        assert 0.0 < absolute - monotonic_s() <= 5.0

    def test_resolve_deadline_falls_back_to_default(self):
        assert AdmissionPolicy().resolve_deadline(None) is None
        with_default = AdmissionPolicy(default_deadline_s=2.0)
        assert with_default.resolve_deadline(None) is not None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ValueError, match="default_deadline_s"):
            AdmissionPolicy(default_deadline_s=0.0)
        with pytest.raises(ValueError, match="retry_after_s"):
            AdmissionPolicy(retry_after_s=-1.0)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        retry = RetryPolicy(base_s=0.01, multiplier=2.0, max_s=0.05)
        delays = [retry.backoff_s(attempt) for attempt in range(5)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]
        assert delays == [retry.backoff_s(a) for a in range(5)]

    def test_validation(self):
        with pytest.raises(ValueError, match="base_s"):
            RetryPolicy(base_s=0.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=-1)


class TestSubmitWithRetry:
    def test_success_first_try_never_sleeps(self):
        sleeps = []
        outcome = submit_with_retry(
            lambda: ServeOutcome(status="ok", results=()),
            RetryPolicy(), sleep=sleeps.append,
        )
        assert outcome.ok and outcome.attempts == 1
        assert sleeps == []

    def test_shed_then_ok_retries_with_backoff(self):
        sleeps = []
        replies = [ServeOutcome(status="shed"),
                   ServeOutcome(status="shed"),
                   ServeOutcome(status="ok", results=())]
        outcome = submit_with_retry(
            lambda: replies.pop(0),
            RetryPolicy(base_s=0.01, multiplier=2.0, max_attempts=5),
            sleep=sleeps.append,
        )
        assert outcome.ok and outcome.attempts == 3
        assert sleeps == [0.01, 0.02]

    def test_retry_honours_server_retry_after_hint(self):
        sleeps = []
        replies = [ServeOutcome(status="shed", retry_after_s=0.2),
                   ServeOutcome(status="ok", results=())]
        submit_with_retry(
            lambda: replies.pop(0),
            RetryPolicy(base_s=0.01), sleep=sleeps.append,
        )
        assert sleeps == [0.2]  # server hint beats the smaller backoff

    def test_gives_up_after_max_attempts(self):
        sleeps = []
        outcome = submit_with_retry(
            lambda: ServeOutcome(status="shed"),
            RetryPolicy(max_attempts=3), sleep=sleeps.append,
        )
        # max_attempts counts *re*submissions: 1 initial + 3 retries.
        assert outcome.status == "shed" and outcome.attempts == 4
        assert len(sleeps) == 3

    def test_non_shed_statuses_never_retry(self):
        for status in ("deadline_exceeded", "error", "shutdown"):
            calls = []

            def once(status=status):
                calls.append(1)
                return ServeOutcome(status=status)

            outcome = submit_with_retry(once, RetryPolicy(),
                                        sleep=lambda s: None)
            assert outcome.status == status
            assert len(calls) == 1

    def test_zero_max_attempts_means_single_attempt(self):
        replies = [ServeOutcome(status="shed")]
        outcome = submit_with_retry(lambda: replies.pop(0),
                                    RetryPolicy(max_attempts=0),
                                    sleep=lambda s: None)
        assert outcome.status == "shed" and outcome.attempts == 1
