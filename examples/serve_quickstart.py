#!/usr/bin/env python3
"""Serving quickstart: agreement-as-a-service with warm engine caching.

The scenario: many clients — CI jobs, notebooks, other services — need
agreement runs over a handful of recurring specs.  Spinning an
:class:`~repro.api.Engine` per invocation pays condition construction and
(on the asynchronous backend) a fresh shared-memory substrate every time.
The :mod:`repro.serve` daemon amortises all of that: engines are cached by
``(spec, algorithm, config)`` and every later request for a known recipe
executes on the warm engine — byte-identical to a direct call, because the
request's seed travels per call instead of living in the cached config.

The example starts an embedded server (the ``repro serve`` CLI runs the same
class standalone), drives every endpoint through the stdlib
:class:`~repro.serve.ServeClient`, demonstrates the warm-cache hit and the
per-tenant accounting, then shuts down cleanly.

Run with::

    python examples/serve_quickstart.py
"""

from __future__ import annotations

import json

from repro.api import AgreementSpec, Engine, RunConfig
from repro.serve import ReproServer, ServeClient


def main() -> None:
    spec = AgreementSpec(n=8, t=4, k=2, d=2, ell=1, domain=10)
    vectors = [
        [7, 7, 7, 3, 2, 7, 1, 7],  # epoch 7 dominant: inside the condition
        [7, 7, 7, 7, 7, 7, 3, 7],
        [5, 5, 5, 5, 2, 5, 5, 5],
    ]

    with ReproServer(port=0, cache_capacity=4) as server:
        host, port = server.address
        print(f"daemon listening on http://{host}:{port}")
        # One kept HTTP/1.1 connection carries every call of this thread.
        client = ServeClient(host, port, tenant="quickstart")

        # --- one run ---------------------------------------------------
        result = client.run(spec, vectors[0], seed=0)
        print("\n--- /run ---")
        print(f"summary             : {result.summary()}")

        # --- a batch, then the same recipe again: served warm ----------
        print("\n--- /batch (cold, then warm) ---")
        batch = client.run_batch(spec, vectors, seed=0)
        print(f"cold batch          : {len(batch)} runs, "
              f"all terminated={all(r.terminated for r in batch)}")
        batch = client.run_batch(spec, vectors, seed=100, backend="async")
        print(f"async batch         : decided "
              f"{sorted({v for r in batch for v in r.decided_values()})}")
        cache = client.status()["cache"]
        print(f"engine cache        : size={cache['size']} "
              f"hits={cache['hits']} misses={cache['misses']}")

        # --- byte-identity: the daemon is the engine, not an imitation --
        direct = Engine(spec, "condition-kset", RunConfig(seed=0)).run_batch(vectors)
        served = client.run_batch(spec, vectors, seed=0)
        identical = [r.to_record() for r in served] == [r.to_record() for r in direct]
        print(f"byte-identical      : {identical} (served batch == direct Engine)")

        # --- streaming: results arrive while the batch still executes --
        print("\n--- /batch stream=true ---")
        for result in client.iter_batch(spec, vectors, seed=0):
            print(f"  streamed          : {result.summary()}")

        # --- a sweep and an exhaustive check over the wire --------------
        print("\n--- /sweep and /check ---")
        cells = client.sweep(spec, {"d": [1, 2, 3]}, runs_per_cell=2, seed=1)
        for cell in cells:
            worst = max((r["duration"] for r in cell["results"]), default=0)
            print(f"  d={cell['overrides']['d']}               : "
                  f"{len(cell['results'])} runs, worst rounds={worst}")
        verdict = client.check(AgreementSpec(n=3, t=1, k=1, d=1, domain=2))
        print(f"  model check       : passed={verdict['passed']} "
              f"({verdict['report']['executions']} executions)")

        # --- the monitoring surface -------------------------------------
        status = client.status()
        print("\n--- /status ---")
        print(json.dumps(
            {
                "requests": status["requests"]["total"],
                "runs_served": status["runs_served"],
                "cache": {k: status["cache"][k] for k in ("size", "hits", "misses")},
                "tenants": status["tenants"],
                "connections": status["connections"],
            },
            indent=2,
        ))
        client.close()
    print("\ndaemon closed; every cached engine was torn down deterministically")


if __name__ == "__main__":
    main()
