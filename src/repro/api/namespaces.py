"""The shared adversary field: its engine keyword and its namespace table.

The CLI's ``--adversary`` flag and the serve daemon's ``adversary`` payload
key are deliberately backend-polymorphic: one field names an asynchronous
scheduling strategy (``"latency-skew"``) *or* a net failure model
(``"send-omission"``).  :func:`adversary_keyword` maps the field to the
engine keyword of the request's backend; the engine then refuses it where
the backend takes no such knob (:data:`repro.api.engine.BACKEND_KNOBS`) and
its registry refuses a name from the other namespace.

That design only works while the two namespaces stay **disjoint** — a name
registered in both would be ambiguous on every CLI surface, every serve
request and every stored record that carries adversary names as strings.
The table below names each namespace and how to list it, and
:func:`adversary_namespace_overlaps` computes the collisions; the
``adversary-namespace`` rule of :mod:`repro.lint` enforces the invariant on
every commit.
"""

from __future__ import annotations

from typing import Callable

from ..asynchronous.adversary import available_async_adversaries
from ..net.adversary import available_net_adversaries

__all__ = [
    "ADVERSARY_NAMESPACES",
    "ADVERSARY_REGISTRARS",
    "adversary_keyword",
    "adversary_namespace_overlaps",
]

#: The namespaces sharing the ``--adversary`` flag: backend -> name lister.
#: Every pair of namespaces in this table must be pairwise disjoint.
ADVERSARY_NAMESPACES: dict[str, Callable[[], tuple[str, ...]]] = {
    "async": available_async_adversaries,
    "net": available_net_adversaries,
}

#: The decorators that populate each namespace: registrar name -> namespace.
#: The ``adversary-namespace`` lint rule scans registration *sites* with this
#: table, so the static check and the runtime table cannot drift apart.
ADVERSARY_REGISTRARS: dict[str, str] = {
    "register_async_adversary": "async",
    "register_net_adversary": "net",
}


def adversary_keyword(backend: str | None, adversary: str | None) -> dict[str, str | None]:
    """The shared adversary field as the engine keyword of *backend*.

    The net backend reads it as ``net_adversary``, every other backend as
    ``async_adversary``; the engine refuses the keyword where the backend
    does not take it, so nothing is dropped here.
    """
    return {"net_adversary" if backend == "net" else "async_adversary": adversary}


def adversary_namespace_overlaps() -> dict[str, tuple[str, ...]]:
    """Names registered in more than one namespace: ``name -> namespaces``.

    An empty mapping is the invariant; anything else is a registration bug
    (and an ``adversary-namespace`` lint finding).
    """
    owners: dict[str, list[str]] = {}
    for backend, lister in ADVERSARY_NAMESPACES.items():
        for name in lister():
            owners.setdefault(name, []).append(backend)
    return {
        name: tuple(backends)
        for name, backends in sorted(owners.items())
        if len(backends) > 1
    }
