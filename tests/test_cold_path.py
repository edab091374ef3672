"""The cold path runs on a bare interpreter: no site-packages, stdlib only.

``setup.py`` declares no runtime dependency, so every entry point must start
under ``python -S`` (which leaves site-packages off ``sys.path``) with only
``PYTHONPATH=src``.  Each test starts such an interpreter:

* ``import repro`` loads ``repro``, ``repro.exceptions`` and ``repro.core``
  and nothing else outside the standard library — the promise behind
  ``_LAZY_EXPORTS`` in ``repro/__init__.py``;
* the CLI, the model checker and the daemon import;
* ``python -m repro lattice --n 5 --dot`` prints Figure 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.lattice import ConditionLattice

ROOT = Path(__file__).resolve().parent.parent


def run_bare(*arguments: str) -> subprocess.CompletedProcess:
    """Run ``python -S *arguments`` with ``PYTHONPATH=src`` and nothing else."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-S", *arguments],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def test_import_repro_loads_only_core_and_the_stdlib():
    completed = run_bare(
        "-c", "import json, sys\nimport repro\nprint(json.dumps(sorted(sys.modules)))"
    )
    assert completed.returncode == 0, completed.stderr
    modules = json.loads(completed.stdout)
    package = [name for name in modules if name.partition(".")[0] == "repro"]
    assert "repro.core.lattice" in package
    assert [
        name
        for name in package
        if name not in ("repro", "repro.exceptions", "repro.core")
        and not name.startswith("repro.core.")
    ] == []
    assert [
        name
        for name in modules
        if name.partition(".")[0] not in {"repro", "__main__", *sys.stdlib_module_names}
    ] == []


def test_cli_checker_and_daemon_import():
    completed = run_bare("-c", "import repro.cli, repro.check, repro.serve")
    assert completed.returncode == 0, completed.stderr


def test_lattice_command_prints_figure_1():
    completed = run_bare("-m", "repro", "lattice", "--n", "5", "--dot")
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == ConditionLattice(5).to_dot() + "\n"
