"""Admission control and per-tenant quotas for the serving daemon.

Two independent guards stand between a request and an engine:

* :class:`AdmissionController` protects the *server*: at most
  ``max_inflight`` requests execute at once, at most ``max_queue`` more may
  wait for a slot, and anything beyond that is rejected immediately with
  :class:`~repro.exceptions.AdmissionError` (the HTTP layer maps it to 429).
  Rejecting at the door keeps a saturated server responsive — the status
  endpoint and health checks never queue behind execution work.
* :class:`TenantQuotas` protects *tenants from each other*: every request is
  charged its run count against the tenant's budget **before** executing, and
  a tenant over budget gets :class:`~repro.exceptions.QuotaExceededError`
  without consuming an execution slot.  A request that admission control
  then rejects is refunded, since it runs nothing.  Usage is tracked even for
  unlimited tenants, so the status endpoint can always report who is using
  the service.
"""

from __future__ import annotations

import threading
from typing import Mapping

from ..exceptions import AdmissionError, InvalidParameterError, QuotaExceededError

__all__ = ["AdmissionController", "TenantQuotas", "DEFAULT_TENANT"]

#: Tenant assumed when a request names none.
DEFAULT_TENANT = "default"


class AdmissionController:
    """Bounded concurrency with a bounded wait queue and fail-fast rejection.

    Parameters
    ----------
    max_inflight:
        Requests allowed to execute concurrently.
    max_queue:
        Requests allowed to *wait* for an execution slot; a request arriving
        with the queue full is rejected with :class:`AdmissionError` instead
        of waiting (429-style back-pressure).
    """

    def __init__(self, max_inflight: int = 4, max_queue: int = 16) -> None:
        if not isinstance(max_inflight, int) or max_inflight < 1:
            raise InvalidParameterError(
                f"max_inflight must be an integer >= 1, got {max_inflight!r}"
            )
        if not isinstance(max_queue, int) or max_queue < 0:
            raise InvalidParameterError(
                f"max_queue must be an integer >= 0, got {max_queue!r}"
            )
        self._max_inflight = max_inflight
        self._max_queue = max_queue
        self._condition = threading.Condition()
        self._inflight = 0
        self._queued = 0
        self._rejected = 0
        self._admitted = 0

    def acquire(self) -> None:
        """Take an execution slot, waiting in the bounded queue if necessary.

        Raises
        ------
        AdmissionError
            When every slot is busy **and** the wait queue is full.
        """
        with self._condition:
            if self._inflight >= self._max_inflight:
                if self._queued >= self._max_queue:
                    self._rejected += 1
                    raise AdmissionError(
                        f"server at capacity: {self._inflight} in flight, "
                        f"{self._queued} queued (max_inflight={self._max_inflight}, "
                        f"max_queue={self._max_queue}); retry later"
                    )
                self._queued += 1
                try:
                    while self._inflight >= self._max_inflight:
                        self._condition.wait()
                finally:
                    self._queued -= 1
            self._inflight += 1
            self._admitted += 1

    def release(self) -> None:
        """Give the slot back and wake one queued waiter."""
        with self._condition:
            self._inflight -= 1
            self._condition.notify()

    def __enter__(self) -> "AdmissionController":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def stats(self) -> dict[str, int]:
        """Queue depth and counters (a consistent snapshot for /status)."""
        with self._condition:
            return {
                "in_flight": self._inflight,
                "queued": self._queued,
                "max_inflight": self._max_inflight,
                "max_queue": self._max_queue,
                "admitted": self._admitted,
                "rejected": self._rejected,
            }


class TenantQuotas:
    """Per-tenant run budgets, charged up front.

    Parameters
    ----------
    default_limit:
        Run budget of any tenant without an explicit override; ``None`` means
        unlimited (usage is still tracked).
    limits:
        Per-tenant overrides, e.g. ``{"ci": 10_000, "adhoc": 500}``; a
        ``None`` value makes that tenant unlimited.
    """

    def __init__(
        self,
        default_limit: int | None = None,
        limits: Mapping[str, int | None] | None = None,
    ) -> None:
        if default_limit is not None and (
            not isinstance(default_limit, int) or default_limit < 0
        ):
            raise InvalidParameterError(
                f"default_limit must be None or an integer >= 0, got {default_limit!r}"
            )
        self._default_limit = default_limit
        self._limits: dict[str, int | None] = dict(limits or {})
        for tenant, limit in self._limits.items():
            if limit is not None and (not isinstance(limit, int) or limit < 0):
                raise InvalidParameterError(
                    f"quota of tenant {tenant!r} must be None or an integer >= 0, "
                    f"got {limit!r}"
                )
        self._used: dict[str, int] = {}
        self._rejected = 0
        self._mutex = threading.Lock()

    def limit_of(self, tenant: str) -> int | None:
        """The run budget of *tenant* (``None`` = unlimited)."""
        return self._limits.get(tenant, self._default_limit)

    def charge(self, tenant: str, runs: int) -> None:
        """Charge *runs* to *tenant*, rejecting if it would exceed the budget.

        Raises
        ------
        QuotaExceededError
            When ``used + runs`` would exceed the tenant's limit.  Nothing is
            charged on rejection.
        """
        if runs < 0:
            raise InvalidParameterError(f"cannot charge a negative run count: {runs}")
        limit = self.limit_of(tenant)
        with self._mutex:
            used = self._used.get(tenant, 0)
            if limit is not None and used + runs > limit:
                self._rejected += 1
                raise QuotaExceededError(
                    f"tenant {tenant!r} would exceed its quota: "
                    f"{used} used + {runs} requested > {limit} allowed"
                )
            self._used[tenant] = used + runs

    def refund(self, tenant: str, runs: int) -> None:
        """Give back *runs* charged to *tenant* for work that never ran.

        Raises
        ------
        InvalidParameterError
            When *runs* is negative or more than the tenant was charged.
        """
        with self._mutex:
            used = self._used.get(tenant, 0)
            if not 0 <= runs <= used:
                raise InvalidParameterError(
                    f"cannot refund {runs} runs to tenant {tenant!r}: {used} charged"
                )
            self._used[tenant] = used - runs

    def usage(self) -> dict[str, dict[str, int | None]]:
        """Per-tenant usage for /status: ``{tenant: {"used": .., "limit": ..}}``."""
        with self._mutex:
            return {
                tenant: {"used": used, "limit": self.limit_of(tenant)}
                for tenant, used in sorted(self._used.items())
            }

    @property
    def rejected(self) -> int:
        """How many charges were refused."""
        with self._mutex:
            return self._rejected
