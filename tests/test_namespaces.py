"""The shared adversary-namespace table (:mod:`repro.api.namespaces`).

The async and net namespaces share one ``--adversary`` flag (and one
``adversary`` payload key), so they must stay disjoint; the table states
them once for the ``adversary-namespace`` lint rule.  How the CLI forwards
the flag is tested in :mod:`tests.test_cli`.
"""

from __future__ import annotations

from repro.api.namespaces import (
    ADVERSARY_NAMESPACES,
    ADVERSARY_REGISTRARS,
    adversary_namespace_overlaps,
)
from repro.asynchronous.adversary import available_async_adversaries
from repro.net.adversary import NET_ADVERSARIES, available_net_adversaries


class TestTable:
    def test_covers_both_flag_namespaces(self):
        assert set(ADVERSARY_NAMESPACES) == {"async", "net"}
        assert ADVERSARY_NAMESPACES["async"]() == available_async_adversaries()
        assert ADVERSARY_NAMESPACES["net"]() == available_net_adversaries()

    def test_registrar_table_matches_namespace_table(self):
        assert set(ADVERSARY_REGISTRARS.values()) == set(ADVERSARY_NAMESPACES)

    def test_shipped_namespaces_are_disjoint(self):
        assert adversary_namespace_overlaps() == {}

    def test_overlap_detection(self, monkeypatch):
        # Collide the async name "random" into the net namespace and check
        # the table notices; monkeypatch removes the probe entry again even
        # on assertion failure.
        monkeypatch.setitem(NET_ADVERSARIES._entries, "random", object())
        assert adversary_namespace_overlaps() == {"random": ("async", "net")}
        monkeypatch.undo()
        assert adversary_namespace_overlaps() == {}

