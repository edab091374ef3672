"""Setuptools configuration.

Kept deliberately minimal so the package installs on offline environments
where the ``wheel`` package (required by PEP 660 editable installs) is
unavailable::

    python setup.py develop        # editable install without wheel

Installs two console scripts, ``repro`` and the historical
``repro-setagreement`` alias, both dispatching to :func:`repro.cli.main`
(also reachable without installation as ``python -m repro``).

There are no runtime dependencies: the package imports nothing outside the
standard library (the ``stdlib-imports`` lint rule keeps it so), hence no
``install_requires``.  The test suite needs pytest, pytest-benchmark and
hypothesis.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single source of truth for the version: repro.__version__.
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "(.+?)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro-setagreement",
    version=_VERSION,
    description=(
        "Reproduction of Bonnet & Raynal, 'Conditions for Set Agreement with "
        "an Application to Synchronous Systems' (ICDCS 2008)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
            "repro-setagreement=repro.cli:main",
        ]
    },
)
