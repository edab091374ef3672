"""``snapshot.record`` writes only on the explicit ``REPRO_BENCH_RECORD=1`` opt-in."""

from __future__ import annotations

import json

import snapshot


def test_record_is_a_no_op_without_the_opt_in(tmp_path, monkeypatch):
    monkeypatch.setattr(snapshot, "BENCH_DIR", tmp_path)
    for value in (None, "0", "yes"):
        if value is None:
            monkeypatch.delenv(snapshot.RECORD_ENV, raising=False)
        else:
            monkeypatch.setenv(snapshot.RECORD_ENV, value)
        assert snapshot.record("topic", {"runs_per_s": 1.5}) is None
    assert list(tmp_path.iterdir()) == []


def test_record_writes_the_snapshot_with_the_opt_in(tmp_path, monkeypatch):
    monkeypatch.setattr(snapshot, "BENCH_DIR", tmp_path)
    monkeypatch.setenv(snapshot.RECORD_ENV, "1")
    path = snapshot.record("topic", {"runs_per_s": 1.5})
    assert path == tmp_path / "BENCH_topic.json"
    payload = json.loads(path.read_text())
    assert payload["topic"] == "topic"
    assert payload["metrics"] == {"runs_per_s": 1.5}
    assert payload["cpus"] >= 1
