"""Agreement-as-a-service: serve the engine to many clients from warm caches.

The package turns the per-process :class:`~repro.api.Engine` facade into a
long-lived daemon.  Start one (``repro serve`` on the command line, or
:class:`ReproServer` embedded) and drive it with :class:`ServeClient`::

    from repro.api import AgreementSpec
    from repro.serve import ReproServer, ServeClient

    with ReproServer(port=0, store_dir="results/") as server:
        client = ServeClient(*server.address, tenant="demo")
        results = client.run_batch(
            AgreementSpec(n=4, t=2, k=2), vectors, backend="async", seed=7
        )

Layer map (each module's docstring has the full story):

* :mod:`~repro.serve.cache` — the spec-keyed bounded LRU of warm engines,
  each holding its memoized condition oracle and live asynchronous
  substrate; eviction closes engines deterministically.
* :mod:`~repro.serve.coalescer` — merges concurrent same-spec batch
  requests into one engine call without changing any result byte.
* :mod:`~repro.serve.quotas` — admission control (bounded in-flight +
  bounded queue, 429-style rejection) and per-tenant run budgets.
* :mod:`~repro.serve.server` — the HTTP daemon tying the above together,
  with per-tenant result-store namespaces and a monitoring endpoint.
* :mod:`~repro.serve.client` — the stdlib client used by the tests, the
  examples and CI; it keeps one HTTP/1.1 connection per calling thread.
"""

from .cache import EngineCache, EngineCacheEntry
from .client import ServeClient
from .coalescer import BatchCoalescer, CoalescerStats
from .quotas import DEFAULT_TENANT, AdmissionController, TenantQuotas
from .server import ReproServer

__all__ = [
    "AdmissionController",
    "BatchCoalescer",
    "CoalescerStats",
    "DEFAULT_TENANT",
    "EngineCache",
    "EngineCacheEntry",
    "ReproServer",
    "ServeClient",
    "TenantQuotas",
]
