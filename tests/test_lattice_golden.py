"""Golden digests of Figure 1, the (x, l) lattice of :mod:`repro.core.lattice`.

The lattice is rendered on three surfaces: ``repro lattice`` prints
:meth:`~repro.core.lattice.ConditionLattice.ascii_matrix` or
:meth:`~repro.core.lattice.ConditionLattice.to_dot`, E2 tabulates its cells
and checks its inclusion order, and ``examples/condition_hierarchy_explorer.py``
prints both renderings.  These digests pin every one of them byte for byte:

* for each ``n`` in 2..8, the DOT document (node and edge order included),
  the ASCII matrix, the whole inclusion matrix and every cell's flags;
* the rendered output of E2;
* the standard output of the hierarchy explorer example.

A text digest is the SHA-256 of its UTF-8 bytes; the inclusion matrix and
the cells are first written as JSON lists in :meth:`classes` order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path

import pytest

from repro.analysis.experiments import run_experiment
from repro.core.lattice import ConditionLattice

EXPLORER = Path(__file__).resolve().parent.parent / "examples" / "condition_hierarchy_explorer.py"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _inclusion(lattice: ConditionLattice) -> str:
    return json.dumps(
        [
            [smaller.x, smaller.ell, larger.x, larger.ell, included]
            for (smaller, larger), included in lattice.inclusion_matrix().items()
        ]
    )


def _cells(lattice: ConditionLattice) -> str:
    cells = [lattice.cell(node.x, node.ell) for node in lattice.classes()]
    return json.dumps(
        [
            [
                cell.legality_class.x,
                cell.legality_class.ell,
                cell.contains_all_vectors,
                cell.on_wait_free_line,
                cell.on_reliable_line,
            ]
            for cell in cells
        ]
    )


ARTIFACTS = {
    "dot": ConditionLattice.to_dot,
    "ascii": ConditionLattice.ascii_matrix,
    "inclusion": _inclusion,
    "cells": _cells,
}

DIGESTS = {
    ("dot", 2): "46bd1b8c5029e89fdc948bd0d5e7357eaf8ba1727cce7dea591e5237585d8b3f",
    ("ascii", 2): "16756062c7fd9f5d007e238794ce14b528fd48b0f9b1b530480029c591678d59",
    ("inclusion", 2): "f8a1d246345f30e9d4b392b155a2d02e5d5af404c4ca58ada6169f8799b69b23",
    ("cells", 2): "25f7181784a36c5a14bff402b68917b6d6da1ef760c7668bab468be80a25a894",
    ("dot", 3): "1e934d738db8ca16d9273d821e01c54ca7dbd114d81bfb73ee2b4ac2126d3916",
    ("ascii", 3): "d318a39ef26bd63f46ac531dc2e5c470bed5607eb94be439423042692ea0632c",
    ("inclusion", 3): "a54d044204f5969d7827577172196af7be17e54ab79dafbbcbf260498ac26775",
    ("cells", 3): "32ad2c835a0a6ae048978050df9d79189da116ee0db1b516e8ddc744012c0ad6",
    ("dot", 4): "fc95b4624f606d8f4ac187ea54d42e9b0ff763b2a8e0fbae7e0dea55f5caf594",
    ("ascii", 4): "d4791f825288386f2ab255d3c580bc57dbdb6ca1314d1563ce73f23e46ba58a1",
    ("inclusion", 4): "0fe194356614948f751014516752d55ffd54f41149264dade9bfa30f8b9902ac",
    ("cells", 4): "b8a2ed5b1708ce9b1170fae015b16edf48bb38e95366c7be5ec9d5237f0b7e62",
    ("dot", 5): "ab1c1d034c1681bfff2466525f920a044811282f43b0aa78e49799460cd5d948",
    ("ascii", 5): "8b389f8ae32162bba90ec9d556e675f563325c3dacafce1ac3c102d378c8afc5",
    ("inclusion", 5): "960474e79a2feba7d9abed5ead810c08f612aeac8a5e798e386a5c1b52fc13e8",
    ("cells", 5): "b52601b584896442ec244415375fab1a993fa0da4999532fd3cd2c93fda01b03",
    ("dot", 6): "6e40fc07ebaca4a28d8531e165e12ea46c9c6c6a8ff62e29ada133af44d4dbbb",
    ("ascii", 6): "9bb905d0355d0d69e8df68d568842dae23679117d0c5b8dcdb93b901dc9ff229",
    ("inclusion", 6): "8348c3d9d354803ec1cee5068819fcf2530b466750c32d1a0bc60108589194f9",
    ("cells", 6): "32345971ca5461249eca3f6ee732896631153b214552fa3bf796ed78c6ee1b80",
    ("dot", 7): "8ce3fc2ee901e8a83986c80ac32f446fce587f0bf6522954c7bddb3d5480fd1f",
    ("ascii", 7): "ab367777741b7218654cbd9e6ee72ed6ce335276b4be774ba1f5478827f3f147",
    ("inclusion", 7): "1684fe31dde39abb89e92defa1f05f66ce0f45f183b1adba72949665fd14214b",
    ("cells", 7): "afe4b0b9f10a41e905a940eeccb828990390cc89a7888f2d3822253c1e879559",
    ("dot", 8): "440895b8452124058822cad32cf5c57403a06c19d1a807956173d1318ce0d5fb",
    ("ascii", 8): "bca84825c2ee46021c62ce1e9e3b652a06cff2b7e5fbd32c86086be18cbd1170",
    ("inclusion", 8): "a9957fd9d3b51f1148787cfe56cd36059a4227878d3cb03717a2607ac380a4af",
    ("cells", 8): "9ec20cc9b4d1f61fa00398f0abc097db072c68e89709f5ed2928c391df3642b2",
}

E2_DIGEST = "4afea72cdb9001f3584e1c13d9a8994284500888e7339e3af816813a7d804b60"
EXPLORER_DIGEST = "7b051a23fefbf6e237ab07a70d9fa37c3d6b0de5219bb765074f193f8768bcdc"


@pytest.mark.parametrize("artifact, n", sorted(DIGESTS, key=lambda key: (key[1], key[0])))
def test_lattice_artifact_digest(artifact, n):
    text = ARTIFACTS[artifact](ConditionLattice(n))
    assert _digest(text) == DIGESTS[(artifact, n)]


def test_e2_render_digest():
    assert _digest(run_experiment("E2").render()) == E2_DIGEST


def test_hierarchy_explorer_stdout_digest():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(EXPLORER), run_name="__main__")
    assert _digest(stdout.getvalue()) == EXPLORER_DIGEST
