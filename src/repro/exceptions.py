"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate among the specific failure modes used in tests and
experiment harnesses.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class InvalidVectorError(ReproError):
    """A vector or view was built from inconsistent data.

    Examples: an input vector containing the ``BOTTOM`` placeholder, a view
    whose length does not match the system size, or a vector carrying values
    outside the declared value domain.
    """


class InvalidParameterError(ReproError):
    """A model or algorithm parameter is outside its legal range.

    Raised for instance when ``t >= n``, when a condition degree ``d`` is not
    in ``[0, t]``, or when the coordination degree ``k`` of a set-agreement
    instance is smaller than 1.
    """


def require_int(name: str, value: Any, minimum: int | None = None) -> None:
    """Reject a parameter that is not an ``int`` (a ``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")


class EmptyConditionError(ReproError):
    """An operation that requires a non-empty condition received an empty one."""


class LegalityError(ReproError):
    """A condition violates one of the (x, l)-legality properties.

    The offending property (validity, density or distance) and the witnesses
    are carried in the message; structured access is available through
    :class:`repro.core.legality.LegalityReport`.
    """


class DecodingError(ReproError):
    """The extended recognizing function could not decode a view.

    Per Definition 4 of the paper this only happens when the view is not
    contained in any vector of the condition, or when it has more than ``x``
    missing entries (in which case Theorem 1 no longer guarantees a non-empty
    decoded set).
    """


class SimulationError(ReproError):
    """The synchronous or asynchronous simulator reached an inconsistent state."""


class AdversaryError(ReproError):
    """An adversary is infeasible: a crash schedule with too many crashes or
    an unknown process, a negative crash step or interleaving choice, ...

    An unknown strategy or failure-model name, or a name registered twice,
    raises :class:`RegistryError` instead.
    """


class AgreementViolationError(ReproError):
    """An execution violated termination, validity or k-agreement.

    The property checkers in :mod:`repro.analysis.properties` raise this when
    asked to *assert* a property instead of merely reporting it.
    """


class RegistryError(InvalidParameterError):
    """A registry lookup or registration failed.

    Raised by every :class:`~repro.registry.Registry` (algorithms,
    schedules, conditions, lint rules, net failure models and asynchronous
    strategies) when an unknown name is requested, or when a name is
    registered twice.  An unknown name is an invalid parameter, hence the
    base class.  The message always lists the known names so typos are easy
    to fix.
    """


class BackendError(InvalidParameterError):
    """A backend name is unknown, or an algorithm does not support it.

    Raised by :func:`repro.api.spec.require_backend` for a name other than
    ``sync``, ``async`` and ``net``, and by :class:`repro.api.Engine` when,
    for example, a purely synchronous algorithm such as FloodMin is
    dispatched to the asynchronous shared-memory backend.
    """


class ProtocolStateError(ReproError):
    """An algorithm object was driven through an illegal state transition.

    For example calling a round handler on a process that already decided or
    crashed, or asking for a decision before termination.
    """


class StoreError(ReproError):
    """A persistent result store could not be read or written.

    Raised by :class:`repro.store.ResultStore` on malformed JSONL records, on
    records of an unknown kind, and on values that cannot be serialized to
    JSON.
    """


class ServeError(ReproError):
    """The agreement-as-a-service layer rejected or failed a request.

    Base class of the :mod:`repro.serve` failure modes; the client raises it
    for malformed requests, transport failures and any server-side error that
    is not an admission or quota rejection.
    """


class AdmissionError(ServeError):
    """The server refused a request because it is at capacity.

    The 429-style rejection of :class:`repro.serve.AdmissionController`:
    every execution slot is busy and the wait queue is full.  Clients are
    expected to back off and retry; nothing about the request itself was
    wrong.
    """


class QuotaExceededError(ServeError):
    """A tenant asked for more runs than its quota allows.

    Raised by :class:`repro.serve.TenantQuotas` when charging a request would
    push the tenant past its configured run budget.  Unlike
    :class:`AdmissionError` this does not resolve by retrying: the tenant's
    budget has to be raised (or its usage reset) first.
    """
