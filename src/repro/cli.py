"""Command-line interface of the reproduction.

Installed as ``repro`` (also reachable as ``repro-setagreement`` and
``python -m repro``); it runs the paper's experiments and a few interactive
demonstrations without writing any Python::

    repro list                        # list the available experiments
    repro run E6                      # regenerate one experiment table
    repro run all                     # regenerate every experiment
    repro lattice --n 6               # print Figure 1 for n processes
    repro algorithms                  # list the registered algorithms/schedules
    repro conditions                  # list the registered condition families
    repro conditions describe hamming-ball --n 8 --t 4 --d 2 --param radius=2
    repro conditions check frequency-gap --n 6 --t 2 --d 1   # (x, l)-legality
    repro demo --n 8 --t 4 --d 2 --k 2          # one execution end to end
    repro demo --condition min-legal             # same spec, another family
    repro demo --algorithm floodmin --crashes 3  # the classical baseline
    repro demo --backend async                   # same spec, shared memory
    repro demo --backend async --adversary latency-skew   # another interleaver
    repro demo --backend net --adversary message-loss     # message-passing run
    repro demo --runs 16 --workers 4             # a parallel batch of runs
    repro sweep --grid d=1,2,3 --grid k=1,2 --workers 4 --store cells.jsonl
    repro check --n 4 --t 1 --d 1 --k 1          # verify EVERY crash schedule
    repro check --n 4 --t 2 --k 2 --d 1 --workers 4 --store ce.jsonl
    repro check --n 3 --t 1 --k 1 --d 1 --differential floodmin
    repro check --backend async --n 3 --t 1 --d 0 --m 2 --depth 2  # every bounded interleaving
    repro check --backend net --algorithm floodmin --adversary send-omission  # every fault assignment
    repro serve --port 8765 --store-dir results/  # agreement-as-a-service daemon

Every execution goes through the unified :class:`repro.api.Engine`, so the
``demo`` command accepts any registered algorithm on any backend it supports,
over any registered condition family.  ``--workers`` shards batches, sweeps
and exhaustive checks across a process pool (:mod:`repro.parallel`) with
results identical to the serial path, and ``--store`` persists every result /
sweep cell / counterexample to an append-only JSONL file (:mod:`repro.store`)
as it is produced.  ``check`` is the model checker of :mod:`repro.check`: it
enumerates the complete Section 6.2 crash-schedule space and verifies the
property oracles on every execution, exiting non-zero on any violation.
"""

from __future__ import annotations

import argparse
import ast
import sys
from random import Random
from typing import TYPE_CHECKING, Sequence

from .exceptions import InvalidParameterError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only; each command imports what it runs
    from .api import AgreementSpec

__all__ = ["main", "build_parser"]


def parse_condition_params(pairs: Sequence[str]) -> dict:
    """Parse repeated ``--param key=value`` options into a params dict.

    Values go through :func:`ast.literal_eval` (``radius=2`` is an int,
    ``center=(3,3,3,3)`` a tuple); anything that does not parse stays a
    string.
    """
    params = {}
    for item in pairs:
        key, separator, text = item.partition("=")
        if not separator or not key.strip():
            raise InvalidParameterError(
                f"condition parameters are written key=value, got {item!r}"
            )
        try:
            value = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            value = text
        params[key.strip()] = value
    return params


def _spec_options(n: int, t: int, d: int | None, k: int, m: int) -> argparse.ArgumentParser:
    """A parent parser of the :class:`~repro.api.AgreementSpec` options,
    with one command's defaults (``--ell`` is 1 everywhere)."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, default in (("--n", n), ("--t", t), ("--d", d), ("--ell", 1), ("--k", k)):
        parent.add_argument(flag, type=int, default=default)
    parent.add_argument("--m", type=int, default=m, help="number of proposable values")
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the CLI (exposed for testing).

    Names are not listed here: the algorithm, condition, schedule and
    adversary registries (and the engine, for backends) refuse an unknown
    one with the names they know, and ``main`` turns that into exit 2.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Condition-based k-set agreement (Bonnet & Raynal, ICDCS 2008) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Parent parsers: each option shared by commands is declared once.
    condition = argparse.ArgumentParser(add_help=False)
    condition.add_argument(
        "--condition",
        default="max-legal",
        help="condition family (default max-legal; 'repro conditions' lists them)",
    )
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="condition-family parameter, repeatable (e.g. --param radius=2)",
    )
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument(
        "--crashes",
        type=int,
        default=0,
        help="crash budget: round-1 crashes (demo) or the --schedule's budget (sweep)",
    )
    runs.add_argument("--seed", type=int, default=0)
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument(
        "--algorithm",
        default="condition-kset",
        help="algorithm registry key (default condition-kset; 'repro algorithms' lists them)",
    )
    engine.add_argument(
        "--backend", default="sync", help="execution backend: sync, async or net (default sync)"
    )
    engine.add_argument(
        "--adversary",
        default=None,
        help=(
            "async scheduling strategy or net failure model, matched to the "
            "backend (run defaults: random / fault-free; check enumerates "
            "send-omission, net only)"
        ),
    )
    engine.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1: serial)"
    )
    engine.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="append every result, sweep cell or counterexample to this JSONL result store",
    )

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, e.g. E6, or 'all'")

    lattice_parser = subparsers.add_parser("lattice", help="print the Figure 1 lattice")
    lattice_parser.add_argument("--n", type=int, default=6, help="system size (default 6)")
    lattice_parser.add_argument(
        "--dot", action="store_true", help="emit Graphviz DOT instead of the ASCII matrix"
    )

    subparsers.add_parser(
        "algorithms", help="list the registered algorithms and adversary schedules"
    )

    conditions_parser = subparsers.add_parser(
        "conditions",
        parents=[_spec_options(n=6, t=2, d=None, k=2, m=4), params],
        help="list, describe or legality-check the condition families",
    )
    conditions_parser.add_argument(
        "action",
        nargs="?",
        default="list",
        choices=("list", "describe", "check", "legality-check"),
        help="what to do (default: list the registered families)",
    )
    conditions_parser.add_argument(
        "family", nargs="?", help="family name for describe/check"
    )
    conditions_parser.add_argument(
        "--subset",
        type=int,
        default=3,
        help="max subset size for the distance-property check (default 3)",
    )
    conditions_parser.add_argument(
        "--budget",
        type=int,
        default=100_000,
        help="enumeration budget for the legality check (default 100000)",
    )

    demo_parser = subparsers.add_parser(
        "demo",
        parents=[_spec_options(n=8, t=4, d=2, k=2, m=10), condition, params, engine, runs],
        help="run one execution end to end",
    )
    demo_parser.add_argument(
        "--runs",
        type=int,
        default=1,
        help="number of batch runs (default 1: a single annotated execution)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        parents=[_spec_options(n=8, t=4, d=2, k=2, m=10), engine, runs],
        help="run a parameter grid through the engine",
    )
    sweep_parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="FIELD=V1,V2,...",
        help="spec field and its candidate values, repeatable (e.g. --grid d=1,2,3)",
    )
    sweep_parser.add_argument(
        "--runs-per-cell", type=int, default=4, help="batch size of each cell (default 4)"
    )
    sweep_parser.add_argument(
        "--vectors",
        default="in",
        help="draw cell vectors inside/outside the condition (in, out) or uniformly "
        "(random; default in)",
    )
    sweep_parser.add_argument(
        "--schedule",
        default="none",
        help="adversary schedule name applied to every run (default none)",
    )

    check_parser = subparsers.add_parser(
        "check",
        parents=[_spec_options(n=4, t=1, d=1, k=1, m=3), condition, params, engine],
        help="exhaustively verify an algorithm over every crash schedule",
        description=(
            "The backend names the adversary space to enumerate: sync crash "
            "schedules, async bounded interleavings, or net message-fault "
            "assignments."
        ),
    )
    check_parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help=(
            "deepest crash round (sync) or enumerated fault round (net); "
            "default: the algorithm's round bound"
        ),
    )
    check_parser.add_argument(
        "--depth",
        type=int,
        default=None,
        help="adversarial interleaving-prefix length (async only; default n)",
    )
    check_parser.add_argument(
        "--max-crashes",
        type=int,
        default=None,
        help="largest enumerated faulty-set size (async only; default x = t − d)",
    )
    check_parser.add_argument(
        "--max-faults",
        type=int,
        default=None,
        help="largest enumerated fault budget (net only; default t)",
    )
    check_parser.add_argument(
        "--max-vectors",
        type=int,
        default=12,
        help="structured-frontier size cap when the domain is too big to enumerate",
    )
    check_parser.add_argument(
        "--all-vectors-limit",
        type=int,
        default=100,
        help="enumerate the whole vector space when m^n is at most this (default 100)",
    )
    check_parser.add_argument(
        "--max-counterexamples",
        type=int,
        default=25,
        help="counterexample records kept in the report (violations always counted)",
    )
    check_parser.add_argument(
        "--differential",
        default=None,
        metavar="ALGORITHM",
        help=(
            "check that every execution decides as this registered algorithm "
            "does, in place of the property oracles (sync only)"
        ),
    )
    check_parser.add_argument(
        "--no-vectorized",
        action="store_true",
        help=(
            "force the reference runtime on every adversary instead of the "
            "batch hook: the packed evaluator on sync, the class memo on "
            "async (the report is identical either way)"
        ),
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the agreement-as-a-service daemon (repro.serve)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="bind port (0 picks a free one)"
    )
    serve_parser.add_argument(
        "--cache-capacity",
        type=int,
        default=8,
        help="warm engines kept in the spec-keyed cache (default 8)",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="requests executing concurrently (default 4)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="requests allowed to wait for a slot before 429 rejection (default 16)",
    )
    serve_parser.add_argument(
        "--quota",
        type=int,
        default=None,
        metavar="RUNS",
        help="default per-tenant run budget (default: unlimited)",
    )
    serve_parser.add_argument(
        "--tenant-quota",
        action="append",
        default=[],
        metavar="TENANT=RUNS",
        help="per-tenant budget override, repeatable (e.g. --tenant-quota ci=10000)",
    )
    serve_parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="persist each tenant's results to DIR/<tenant>.jsonl",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request"
    )

    lint_parser = subparsers.add_parser(
        "lint", help="run the AST-based invariant linter (repro.lint)"
    )
    lint_parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="directory to lint (default: the installed repro package)",
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any live finding (the CI gate)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    lint_parser.add_argument(
        "--rules",
        action="append",
        default=None,
        metavar="RULE-ID",
        help="run only this rule, repeatable (default: every registered rule)",
    )
    lint_parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file (default: lint-baseline.json found above the "
        "linted root)",
    )
    lint_parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report grandfathered findings too)",
    )
    lint_parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather the current live findings into the baseline file",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="list the registered rules"
    )
    return parser


def parse_grid(items: Sequence[str]) -> dict:
    """Parse repeated ``--grid field=v1,v2,...`` options into a sweep grid.

    Each value goes through :func:`ast.literal_eval` (``d=1,2,3`` gives
    ints); what does not parse stays a string, which is how condition-family
    names are swept (``condition=max-legal,min-legal``).
    """
    if not items:
        raise InvalidParameterError("sweep needs at least one --grid axis, e.g. --grid d=1,2,3")
    grid: dict = {}
    for item in items:
        field, separator, text = item.partition("=")
        field = field.strip()
        if not separator or not field or not text.strip():
            raise InvalidParameterError(
                f"grid axes are written field=v1,v2,..., got {item!r}"
            )
        values = []
        for token in text.split(","):
            token = token.strip()
            try:
                values.append(ast.literal_eval(token))
            except (ValueError, SyntaxError):
                values.append(token)
        if field in grid:
            raise InvalidParameterError(f"grid field {field!r} given twice")
        grid[field] = tuple(values)
    return grid


def _command_list(arguments) -> int:
    from .analysis.experiments import list_experiments

    for experiment_id, title in list_experiments():
        print(f"{experiment_id:>4}  {title}")
    return 0


def _command_run(arguments) -> int:
    from .analysis.experiments import EXPERIMENTS, run_experiment

    experiment = arguments.experiment
    ids = list(EXPERIMENTS) if experiment.lower() == "all" else [experiment]
    status = 0
    for experiment_id in ids:
        output = run_experiment(experiment_id)
        print(output.render())
        print()
        if not output.all_checks_pass():
            status = 1
    return status


def _command_lattice(arguments) -> int:
    from .core.lattice import ConditionLattice

    lattice = ConditionLattice(arguments.n)
    print(lattice.to_dot() if arguments.dot else lattice.ascii_matrix())
    return 0


def _command_algorithms(arguments) -> int:
    from .api import ALGORITHMS, CONDITIONS, SCHEDULES

    print("algorithms:")
    for name, entry in ALGORITHMS.items():
        backends = "+".join(sorted(entry.backends))
        print(f"  {name:<20} [{backends:<10}] {entry.summary}")
    print()
    print("schedules:")
    for name, factory in SCHEDULES.items():
        summary = getattr(factory, "summary", "")
        print(f"  {name:<20} {summary}")
    print()
    print("conditions:")
    for name, family in CONDITIONS.items():
        print(f"  {name:<20} {family.summary}")
    return 0


def _spec(
    arguments, condition: str = "max-legal", params: Sequence[str] = ()
) -> "AgreementSpec":
    """The spec of a command's spec options, over the *condition* family
    with its ``--param`` pairs *params*."""
    from .api import AgreementSpec

    return AgreementSpec(
        n=arguments.n, t=arguments.t, k=arguments.k, d=arguments.d, ell=arguments.ell,
        domain=arguments.m, condition=condition,
        condition_params=parse_condition_params(params),
    )


def _store(arguments):
    """The result store ``--store`` names, or ``None``."""
    if arguments.store is None:
        return None
    from .store import ResultStore

    return ResultStore(arguments.store)


def _command_conditions(arguments) -> int:
    from .api import CONDITIONS, available_conditions

    action = "check" if arguments.action == "legality-check" else arguments.action
    if action == "list":
        print("condition families:")
        for name, family in CONDITIONS.items():
            print(f"  {name:<16} {family.summary}")
            print(f"  {'':<16} parameters: {family.parameters}")
        return 0

    if arguments.family is None:
        raise InvalidParameterError(
            f"'conditions {arguments.action}' needs a family name; known "
            f"families: {', '.join(available_conditions())}"
        )
    family = CONDITIONS.get(arguments.family)
    spec = _spec(arguments, arguments.family, arguments.param)
    oracle = spec.condition_oracle()

    if action == "describe":
        from .core.algebra import known_size
        from .workloads.vectors import vector_in_condition

        print(f"family     : {family.name}")
        print(f"summary    : {family.summary}")
        print(f"parameters : {family.parameters}")
        print(f"spec       : {spec.describe()}")
        print(f"oracle     : {oracle.name}")
        print(f"degree l   : {oracle.ell}")
        size = known_size(oracle)
        total = arguments.m ** arguments.n
        if size is not None:
            print(f"size       : {size} of {total} vectors ({size / total:.3%})")
        sample = vector_in_condition(oracle, spec.n, spec.domain, Random(0))
        print(f"member     : {list(sample.entries)}")
        return 0

    # action == "check": materialise and verify (x, l)-legality.
    from .core.algebra import recognizer_of, materialize
    from .core.legality import check_legality

    vectors = materialize(oracle, arguments.budget)
    recognizer = recognizer_of(oracle)
    if recognizer is None:
        print(f"error: {oracle.name} carries no recognizing function", file=sys.stderr)
        return 2
    report = check_legality(
        vectors, recognizer, x=spec.x, ell=oracle.ell, max_subset_size=arguments.subset
    )
    print(f"condition  : {oracle.name} ({len(vectors)} vectors)")
    print(f"checked    : x={spec.x}, l={oracle.ell}, subsets up to {arguments.subset}")
    print(f"verdict    : {report.summary()}")
    for violation in report.violations[:5]:
        print(f"  {violation.property_name}: {violation.detail}")
    return 0 if report.legal else 1


def _command_demo(arguments) -> int:
    from .api import Engine, RunConfig
    from .api.namespaces import adversary_keyword
    from .workloads.vectors import vector_in_condition, vector_in_max_condition

    crashes, seed = arguments.crashes, arguments.seed
    algorithm, backend = arguments.algorithm, arguments.backend
    runs, workers = arguments.runs, arguments.workers
    spec = _spec(arguments, arguments.condition, arguments.param)
    knobs = adversary_keyword(backend, arguments.adversary)
    if backend == "net" and crashes > 0:
        raise InvalidParameterError(
            "--crashes drives the sync crash schedule; the net backend models "
            "failures with --adversary"
        )
    config = RunConfig(
        backend=backend,
        schedule="round-one" if crashes > 0 else "none",
        crashes=crashes,
        seed=seed,
        record_trace=backend == "sync" and runs == 1,
        workers=workers,
    )
    engine = Engine(spec, algorithm, config)
    store = _store(arguments)
    if runs < 1:
        raise InvalidParameterError(f"--runs must be >= 1, got {runs}")

    def demo_vector(vector_seed: int):
        rng = Random(vector_seed)
        if spec.condition != "max-legal" and engine.condition is not None:
            return vector_in_condition(engine.condition, spec.n, spec.domain, rng)
        return vector_in_max_condition(spec.n, spec.domain, spec.x, spec.ell, rng)

    if runs == 1 and workers == 1:
        vector = demo_vector(seed)
        result = engine.run(vector, **knobs)
        if store is not None:
            store.append(result)
        results = [result]
    else:
        vectors = [demo_vector(seed + index) for index in range(runs)]
        results = engine.run_batch(vectors, store=store, **knobs)
        result, vector = results[0], results[0].input_vector

    membership = (
        "n/a (no condition)"
        if result.in_condition is None
        else str(result.in_condition)
    )
    print(f"algorithm        : {algorithm} ({backend} backend)")
    print(f"spec             : {spec.describe()}")
    print(f"condition        : {result.condition or 'n/a'}")
    print(f"input vector     : {list(vector.entries)}")
    print(f"in the condition : {membership}")
    if backend == "net":
        print(f"failure model    : {knobs['net_adversary'] or config.net_adversary}")
    else:
        print(f"crash schedule   : {crashes} crash(es) in round 1")
    print(f"{result.time_unit} executed  : {result.duration}")
    print(f"decisions        : {dict(sorted(result.decisions.items()))}")
    print(
        f"distinct values  : {sorted(map(repr, result.decided_values()))} "
        f"(degree = {engine.agreement_degree(backend)})"
    )
    print(f"summary          : {result.summary()}")
    if len(results) > 1:
        worst = max(r.duration for r in results)
        decided = max(r.distinct_decision_count() for r in results)
        print(
            f"batch            : {len(results)} runs x {workers} worker(s), "
            f"worst {result.time_unit}={worst}, max distinct decisions={decided}, "
            f"all terminated={all(r.terminated for r in results)}"
        )
    if store is not None:
        print(f"store            : {store.path} ({store.resume_index()} run records)")
    return 0


def _command_sweep(arguments) -> int:
    from .api import Engine, RunConfig
    from .api.namespaces import adversary_keyword

    grid = parse_grid(arguments.grid)
    spec = _spec(arguments)
    if arguments.backend == "net" and (
        arguments.crashes > 0 or arguments.schedule != "none"
    ):
        raise InvalidParameterError(
            "--schedule/--crashes drive the sync crash schedule; the net "
            "backend models failures with --adversary"
        )
    config = RunConfig(
        backend=arguments.backend,
        schedule=arguments.schedule,
        crashes=arguments.crashes,
        seed=arguments.seed,
        workers=arguments.workers,
    )
    engine = Engine(spec, arguments.algorithm, config)
    store = _store(arguments)
    cells = engine.sweep(
        grid,
        arguments.runs_per_cell,
        vectors=arguments.vectors,
        store=store,
        **adversary_keyword(arguments.backend, arguments.adversary),
    )
    axes = " x ".join(f"{name}({len(values)})" for name, values in grid.items())
    print(f"sweep            : {axes} = {len(cells)} cells, "
          f"{arguments.runs_per_cell} runs/cell, {arguments.workers} worker(s)")
    print(f"base spec        : {spec.describe()}  [{arguments.algorithm}, {arguments.backend}]")
    errors = 0
    for cell in cells:
        label = ", ".join(f"{name}={value!r}" for name, value in cell.overrides.items())
        if cell.error is not None:
            errors += 1
            print(f"  {label:<40} ERROR {cell.error}")
        else:
            print(
                f"  {label:<40} runs={cell.runs} "
                f"worst_duration={cell.worst_duration()} "
                f"decided<= {cell.max_distinct_decisions()} "
                f"in_condition={cell.in_condition_count()}/{cell.runs} "
                f"terminated={cell.all_terminated()}"
            )
    print(f"cells with errors: {errors}/{len(cells)}")
    if store is not None:
        print(f"store            : {store.path} ({store.counts().get('cell', 0)} cell records)")
    return 0


def _command_check(arguments) -> int:
    from .api import Engine, RunConfig

    spec = _spec(arguments, arguments.condition, arguments.param)
    store = _store(arguments)
    engine = Engine(spec, arguments.algorithm, RunConfig(workers=arguments.workers))
    report = engine.check(
        backend=arguments.backend,
        rounds=arguments.rounds,
        depth=arguments.depth,
        max_crashes=arguments.max_crashes,
        adversary=arguments.adversary,
        max_faults=arguments.max_faults,
        reference=arguments.differential,
        store=store,
        max_counterexamples=arguments.max_counterexamples,
        max_vectors=arguments.max_vectors,
        all_vectors_limit=arguments.all_vectors_limit,
        vectorized=not arguments.no_vectorized,
    )
    print(report.render())
    if store is not None:
        from .store import (
            ASYNC_COUNTEREXAMPLE_KIND,
            COUNTEREXAMPLE_KIND,
            NET_COUNTEREXAMPLE_KIND,
        )

        counts = store.counts()
        kind = {
            "async": ASYNC_COUNTEREXAMPLE_KIND,
            "net": NET_COUNTEREXAMPLE_KIND,
        }.get(arguments.backend, COUNTEREXAMPLE_KIND)
        print(
            f"store            : {store.path} "
            f"({counts.get(kind, 0)} {kind} records)"
        )
    return 0 if report.passed else 1


def _command_serve(arguments) -> int:
    from .serve import ReproServer

    quotas = {}
    for item in arguments.tenant_quota:
        tenant, separator, runs = item.partition("=")
        if not separator or not tenant.strip() or not runs.strip().isdigit():
            raise InvalidParameterError(
                f"tenant quotas are written TENANT=RUNS, got {item!r}"
            )
        quotas[tenant.strip()] = int(runs)
    server = ReproServer(
        arguments.host,
        arguments.port,
        cache_capacity=arguments.cache_capacity,
        max_inflight=arguments.max_inflight,
        max_queue=arguments.max_queue,
        default_quota=arguments.quota,
        tenant_quotas=quotas or None,
        store_dir=arguments.store_dir,
        verbose=arguments.verbose,
    )
    try:
        server.start()
        host, port = server.address
        print(f"repro serve listening on http://{host}:{port}", flush=True)
        print(
            f"cache capacity {arguments.cache_capacity}, "
            f"max in-flight {arguments.max_inflight}, "
            f"queue {arguments.max_queue}"
            + (f", store dir {arguments.store_dir}" if arguments.store_dir else ""),
            flush=True,
        )
        # Block until /shutdown (or Ctrl-C) stops the serving thread.
        server._thread.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


def _command_lint(arguments) -> int:
    # Deferred import: the linter parses the whole tree; plain `repro demo`
    # should not pay for it.
    from pathlib import Path

    from .lint import Baseline, available_rules, default_baseline_path, run_lint
    from .lint.engine import LINT_RULES

    if arguments.list_rules:
        available_rules()  # force rule registration
        for name, rule in LINT_RULES.items():
            print(f"  {name:<22} [{rule.group}/{rule.severity}] {rule.summary}")
        return 0

    root = arguments.path
    baseline_path = (
        Path(arguments.baseline)
        if arguments.baseline is not None
        else default_baseline_path(root)
    )

    if arguments.write_baseline:
        report = run_lint(root, rules=arguments.rules)
        if baseline_path is not None:
            target = baseline_path
        elif root is not None:
            # No baseline above an explicit root: start one next to it.
            target = Path(root) / "lint-baseline.json"
        else:
            target = Path("lint-baseline.json")
        Baseline.write(target, report.findings)
        print(f"wrote {len(report.findings)} finding(s) to {target}")
        return 0

    baseline = None
    if baseline_path is not None and not arguments.no_baseline:
        baseline = Baseline.load(baseline_path)
    report = run_lint(root, rules=arguments.rules, baseline=baseline)
    print(report.to_json() if arguments.format == "json" else report.render())
    if arguments.strict and not report.clean:
        return 1
    return 0


#: Each command's handler, called with the parsed arguments.
_COMMANDS = {
    "list": _command_list,
    "run": _command_run,
    "lattice": _command_lattice,
    "algorithms": _command_algorithms,
    "conditions": _command_conditions,
    "demo": _command_demo,
    "sweep": _command_sweep,
    "check": _command_check,
    "serve": _command_serve,
    "lint": _command_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` / ``repro-setagreement`` executables."""
    arguments = build_parser().parse_args(argv)
    try:
        return _COMMANDS[arguments.command](arguments)
    except ReproError as error:
        # Bad parameter combinations (t >= n, k mismatching the algorithm,
        # backend unsupported, ...) and unknown names are user errors, not
        # crashes.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
