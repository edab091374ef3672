"""The cold path runs on a bare interpreter: stdlib only, and only what it uses.

``setup.py`` declares no runtime dependency, so every entry point must start
under ``python -S`` (which leaves site-packages off ``sys.path``) with only
``PYTHONPATH=src``.  The package ``__init__`` files export their names
lazily (:mod:`repro._lazy`), and each backend is imported where it is used,
so a fresh interpreter loads only the modules its entry point runs.  Each
test starts such an interpreter:

* ``import repro`` loads ``repro``, its lazy-export helper and
  ``repro.exceptions``; importing the conditions framework on top loads
  ``repro.core`` and nothing else outside the standard library;
* a sync ``Engine`` and its packed frontier load no other backend, no
  analysis, serving or lint module and nothing of ``repro.check`` but the
  frontier; a sync check loads no other backend either, and serial checks,
  batches and sweeps load neither :mod:`repro.parallel` nor
  :mod:`multiprocessing`;
* every name a lazy package exports resolves, is listed by ``dir()`` and is
  bound by a star import;
* a net check, an async check and a counterexample reload each run when
  their own module is the first ``repro`` module imported;
* the CLI, the model checker and the daemon import;
* the net and async adversary registries load no :mod:`repro.api` module;
* ``repro lattice`` loads no engine, backend or workload module, and
  ``python -m repro lattice --n 5 --dot`` prints Figure 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import AgreementSpec, Engine
from repro.check import (
    MUTANT_ECHOLESS_FLOODMIN,
    MUTANT_HASTY_ASYNC,
    MUTANT_HASTY_FLOODMIN,
    register_mutants,
)
from repro.core.lattice import ConditionLattice
from repro.store import ResultStore

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The packages whose ``__init__`` exports its names through the helper.
LAZY_PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in SRC.glob("repro/**/__init__.py")
    if "lazy_exports(" in path.read_text(encoding="utf-8")
)


def run_bare(*arguments: str) -> subprocess.CompletedProcess:
    """Run ``python -S *arguments`` with ``PYTHONPATH=src`` and nothing else."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-S", *arguments],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def bare_json(program: str, *arguments: str):
    """The JSON a ``python -S -c program`` interpreter prints last."""
    completed = run_bare("-c", program, *arguments)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def under(modules: list[str], *packages: str) -> list[str]:
    """The *modules* that are one of *packages* or inside one."""
    return [
        name
        for name in modules
        if any(name == package or name.startswith(package + ".") for package in packages)
    ]


def test_import_repro_loads_only_core_and_the_stdlib():
    bare, modules = bare_json(
        "import json, sys\n"
        "import repro\n"
        "bare = sorted(sys.modules)\n"
        "import repro.core.lattice\n"
        "from repro.core import *\n"
        "print(json.dumps([bare, sorted(sys.modules)]))"
    )
    assert under(bare, "repro") == ["repro", "repro._lazy", "repro.exceptions"]
    package = under(modules, "repro")
    assert "repro.core.lattice" in package
    assert [
        name
        for name in package
        if name not in ("repro", "repro._lazy", "repro.exceptions")
        and not name.startswith("repro.core.")
        and name != "repro.core"
    ] == []
    assert [
        name
        for name in modules
        if name.partition(".")[0] not in {"repro", "__main__", *sys.stdlib_module_names}
    ] == []


_SYNC_PROGRAM = """
import json, sys
from repro import AgreementSpec, Engine, RunConfig
from repro.check import packed_frontier
spec = AgreementSpec(n=4, t=2, k=2, d=1, ell=1, domain=2)
engine = Engine(spec, "condition-kset", RunConfig())
packed_frontier(engine.spec, engine.condition)
setup = sorted(sys.modules)
reports = [engine.check(), Engine(spec, "floodmin").check()]
assert all(report.passed for report in reports)
assert len(engine.run_batch([[1, 1, 1, 2]] * 3, workers=1)) == 3
assert len(engine.sweep({"d": (1, 2)}, runs_per_cell=2, workers=1)) == 2
print(json.dumps([setup, sorted(sys.modules)]))
"""


def test_a_sync_engine_loads_no_other_backend():
    setup, checked = bare_json(_SYNC_PROGRAM)
    assert under(
        setup, "repro.net", "repro.asynchronous", "repro.analysis", "repro.serve", "repro.lint"
    ) == []
    assert under(setup, "repro.check") == ["repro.check", "repro.check.frontier"]
    # The packed path (condition-kset) and the scalar path (floodmin).
    assert {"repro.check.checker", "repro.vec.evaluator"} <= set(checked)
    assert under(checked, "repro.net", "repro.asynchronous") == []
    # Serial checks, batches and sweeps never reach the process pool.
    assert under(checked, "repro.parallel", "multiprocessing") == []


_SURFACE_PROGRAM = """
import importlib, json, sys
name = sys.argv[1]
namespace = {}
exec(f"from {name} import *", namespace)
package = importlib.import_module(name)
listed = dir(package)
unresolved = []
for attribute in sorted(set(package.__all__) | {n for n in listed if not n.startswith("_")}):
    try:
        getattr(package, attribute)
    except AttributeError:
        unresolved.append(attribute)
print(json.dumps({
    "unbound": [n for n in package.__all__ if n not in namespace],
    "unlisted": [n for n in package.__all__ if n not in listed],
    "unresolved": unresolved,
}))
"""


def test_every_lazy_package_is_found():
    assert {
        "repro",
        "repro.algorithms",
        "repro.check",
        "repro.core",
        "repro.vec",
        "repro.workloads",
    } <= set(LAZY_PACKAGES)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_resolves(package):
    assert bare_json(_SURFACE_PROGRAM, package) == {
        "unbound": [],
        "unlisted": [],
        "unresolved": [],
    }


def test_a_lazy_package_refuses_an_unknown_name():
    import repro.core

    assert not hasattr(repro.core, "NoSuchCondition")
    with pytest.raises(AttributeError, match="'repro.core' has no attribute 'NoSuchCondition'"):
        repro.core.NoSuchCondition  # noqa: B018


#: A net and an async check, each as (algorithm, spec fields, options).
_NET_CELL = ("floodmin", {"n": 3, "t": 1, "k": 1, "domain": 2},
             {"backend": "net", "adversary": "send-omission"})
_ASYNC_CELL = ("async-condition", {"n": 3, "t": 1, "k": 1, "d": 0, "domain": 2},
               {"backend": "async", "depth": 2})

#: ``first import -> cell``: each check starts in an interpreter whose first
#: ``repro`` import is a module of its backend.
_BACKEND_FIRST = {
    "repro.net": _NET_CELL,
    "repro.net.runtime": _NET_CELL,
    "repro.check.net_checker": _NET_CELL,
    "repro.asynchronous": _ASYNC_CELL,
    "repro.asynchronous.executor": _ASYNC_CELL,
    "repro.check.async_checker": _ASYNC_CELL,
    "repro.algorithms.async_condition_set_agreement": _ASYNC_CELL,
}

_BACKEND_PROGRAM = """
import json, sys
import {first}
from repro.api import AgreementSpec, Engine
algorithm, spec, options = json.loads(sys.argv[1])
report = Engine(AgreementSpec(**spec), algorithm).check(**options)
print(json.dumps(report.to_record(), sort_keys=True))
"""


@pytest.mark.parametrize("first", sorted(_BACKEND_FIRST))
def test_a_backend_runs_when_imported_first(first):
    algorithm, spec, options = _BACKEND_FIRST[first]
    record = bare_json(
        _BACKEND_PROGRAM.format(first=first), json.dumps([algorithm, spec, options])
    )
    report = Engine(AgreementSpec(**spec), algorithm).check(**options)
    assert report.passed
    assert record == json.loads(json.dumps(report.to_record(), sort_keys=True))


_RELOAD_PROGRAM = """
import json, sys
from repro.store import ResultStore
loaded = ResultStore(sys.argv[1]).load_counterexamples()
print(json.dumps([[ce.backend, ce.to_record()] for ce in loaded]))
"""


def test_counterexamples_reload_through_the_store_first(tmp_path):
    register_mutants()
    path = tmp_path / "counterexamples.jsonl"
    cells = [
        (MUTANT_HASTY_FLOODMIN, AgreementSpec(n=3, t=1, k=1, d=1, ell=1, domain=2), {}),
        (MUTANT_ECHOLESS_FLOODMIN, AgreementSpec(n=3, t=1, k=1, domain=3),
         {"backend": "net", "adversary": "send-omission"}),
        (MUTANT_HASTY_ASYNC, AgreementSpec(n=3, t=1, k=1, d=0, ell=1, domain=3),
         {"backend": "async", "depth": 4, "max_crashes": 0, "vectors": [[3, 1, 1]]}),
    ]
    with ResultStore(path) as store:
        for algorithm, spec, options in cells:
            report = Engine(spec, algorithm).check(store=store, max_counterexamples=2, **options)
            assert not report.passed
    expected = [
        [ce.backend, json.loads(json.dumps(ce.to_record()))]
        for ce in ResultStore(path).load_counterexamples()
    ]
    assert [backend for backend, _ in expected] == ["sync"] * 2 + ["net"] * 2 + ["async"] * 2
    assert bare_json(_RELOAD_PROGRAM, str(path)) == expected


def test_cli_checker_and_daemon_import():
    completed = run_bare("-c", "import repro.cli, repro.check, repro.serve")
    assert completed.returncode == 0, completed.stderr


def test_lattice_command_loads_only_figure_1():
    """The CLI imports each command's modules where the command runs, so
    Figure 1 loads no engine, backend or workload module."""
    modules = bare_json(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['lattice', '--n', '5']) == 0\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert "repro.core.lattice" in modules
    assert under(
        modules, "repro.api", "repro.sync", "repro.net", "repro.asynchronous", "repro.workloads"
    ) == []


def test_adversary_registries_load_no_api():
    """The net and async adversary tables register their names without
    loading :mod:`repro.api`."""
    modules = bare_json(
        "import json, sys\n"
        "import repro.net.adversary, repro.asynchronous.adversary\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert {"repro.net.adversary", "repro.asynchronous.adversary"} <= set(modules)
    assert under(modules, "repro.api") == []


def test_lattice_command_prints_figure_1():
    completed = run_bare("-m", "repro", "lattice", "--n", "5", "--dot")
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == ConditionLattice(5).to_dot() + "\n"
