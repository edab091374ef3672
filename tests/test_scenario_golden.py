"""Golden digests of the scenario stories of :mod:`repro.workloads`.

:mod:`tests.test_run_golden` and :mod:`tests.test_check_golden` pin what the
engine produces; these digests pin what the ready-made scenarios hand to it
and get back.  A scenario bundles a spec, its input vectors, its adversary
and its check space, so a digest moves when any of them does:

* each sync regime (fast path, degraded path, outside the condition, and a
  non-``max_l`` condition family): a traced run, the same story replayed on
  the async backend, and a batch, serial and sharded;
* the async and net stories: one run, one batch and the model check;
* the exhaustive story: the check of the correct algorithm and of a mutant;
* the rendered output of E15 and E16, the experiments built on scenarios.

A run or check digest is the SHA-256 of ``json.dumps(x.to_record(),
sort_keys=True)``, a batch digest the same over the list of run records,
and an experiment digest the SHA-256 of ``render()``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.experiments import run_experiment
from repro.check import MUTANT_HASTY_FLOODMIN, register_mutants
from repro.workloads import (
    async_scenario,
    condition_family_scenario,
    degraded_path_scenario,
    exhaustive_scenario,
    fast_path_scenario,
    net_scenario,
    outside_condition_scenario,
)

SYSTEM = dict(n=8, m=10, t=4, d=2, ell=1, k=2)

SYNC_STORIES = {
    "fast-path": lambda: fast_path_scenario(**SYSTEM),
    "degraded-path": lambda: degraded_path_scenario(**SYSTEM),
    "outside-condition": lambda: outside_condition_scenario(**SYSTEM),
    "hamming-ball": lambda: condition_family_scenario(
        "hamming-ball", 6, 6, 2, 1, 1, 2, {"radius": 1}
    ),
}

SYNC_CALLS = {
    "run-traced": lambda scenario: scenario.run(record_trace=True),
    "run-async": lambda scenario: scenario.run(backend="async", seed=3),
    "batch": lambda scenario: scenario.batch(5, seed=2),
    "batch-sharded": lambda scenario: scenario.batch(5, seed=2, workers=2),
}

SYNC_DIGESTS = {
    ("fast-path", "run-traced"):
        "1b2ec7705933fbce96da2ab40337f1e1553ccce6e371965dc3df90e367d31f5b",
    ("fast-path", "run-async"):
        "917bbd035b554e73bec3879eec51eedfcb116aba59594b6973e42425f8f456fd",
    ("fast-path", "batch"):
        "33356f3485bc038b7f198dcbfa850544c83f773989683dd550cdd8e004bbdc70",
    ("degraded-path", "run-traced"):
        "2617f72a6c9b78e81398a2b986e0cdd8c43cb0e72aefa677f479e3e53d583fc6",
    ("degraded-path", "run-async"):
        "a886cba9818a2c782aad22f81e20931c9e40d799cd22588ef290433426eec3c7",
    ("degraded-path", "batch"):
        "519059ab8c7743df73ed6c710cacbd6b89ed20650371f7ef612281fc567f94f3",
    ("outside-condition", "run-traced"):
        "1ee6492782c4dace4a6a3a8a0c3acad7f469c6ed074e105e6eb335a70f68c4d1",
    ("outside-condition", "run-async"):
        "1a6b8933c1646223ff55f3367b18921cc11d525545a70c93be32594d8f5c4ed2",
    ("outside-condition", "batch"):
        "e911b0d66ed1cdf0a320b8f626ba1b6ddd97f523ffaf89a1dbad1bc2790cd3cc",
    ("hamming-ball", "run-traced"):
        "8264ddcff14822a910928769d3a1a63fb38a2b6b9feacb3e1cbaa987c20254c6",
    ("hamming-ball", "run-async"):
        "ba8e65763c2b33a5d0e2c75133f97893ab6dab6265dbaf733efcc4823cc902cd",
    ("hamming-ball", "batch"):
        "53dda13960f6f91159367cc7dca91f28f328d7903134890d310043d6c33bce39",
}


def _async_story():
    return async_scenario(3, 2, 1, 1, adversary="round-robin")


def _net_story():
    return net_scenario(3, 3, 1, 1, adversary="send-omission", seed=2)


def _exhaustive_story():
    return exhaustive_scenario(n=3, m=2, t=1, d=1, ell=1, k=1)


def _mutant_check():
    register_mutants()
    return _exhaustive_story().check(MUTANT_HASTY_FLOODMIN, max_counterexamples=3)


STORY_CALLS = {
    "async-run": lambda: _async_story().run(seed=3),
    "async-batch": lambda: _async_story().batch(4, seed=1),
    "async-check": lambda: _async_story().check(depth=2),
    "net-run": lambda: _net_story().run(seed=7),
    "net-batch-sharded": lambda: _net_story().batch(3, seed=4, workers=2),
    "net-check": lambda: _net_story().check(),
    "exhaustive-check": lambda: _exhaustive_story().check(),
    "exhaustive-mutant-check": _mutant_check,
}

STORY_DIGESTS = {
    "async-run":
        "812bf3bf1aa66b5f411789a4331a6df955c2f782ebccf1fbb9a44b5c69577b9c",
    "async-batch":
        "47b4841980c94a553a209ef4347c0a543aa029b503057c14c5a9b3f63ff34882",
    "async-check":
        "4b07b6fdf06d66c7b1413c5eb44dc44a2e9c0b54172d35e4694e17f5fbc4033b",
    "net-run":
        "7ba604a494ebf70bb60dba8f7f5809f4bc86d9b4d5110a4acfbb004c5322cb18",
    "net-batch-sharded":
        "87bf58885637979fdff3f8dcb202b017d99859c9e11aaa90ca2d1a9ad0a6bbea",
    "net-check":
        "09954da184533aa1800a056032d55d21fcee7743a3dd6677c61f389c6a59e400",
    "exhaustive-check":
        "4c6a95ddbddb3dcf50477adf61ba04d2b8c282937189ae9c1405c5df11f6cdb8",
    "exhaustive-mutant-check":
        "53da96e4089dfe217346ebb4fd16d2e9bbeaa7ffdd58e5bedf1a90ca90b30a7e",
}

EXPERIMENT_DIGESTS = {
    "E15":
        "e10c7dc1ac9b796fa78c0570a9b0b68f963ae8a4b14917dfa278dd1691a538f0",
    "E16":
        "0f4e7d1ddde6d66d921102cd99c4f1bd8cf4ac4942d53c000a7ce2a79491d806",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(output) -> str:
    if isinstance(output, list):
        record = [result.to_record() for result in output]
    else:
        record = output.to_record()
    return _sha256(json.dumps(record, sort_keys=True))


@pytest.mark.parametrize("call", sorted(SYNC_CALLS))
@pytest.mark.parametrize("story", sorted(SYNC_STORIES))
def test_sync_story_matches_golden_digest(story, call):
    output = SYNC_CALLS[call](SYNC_STORIES[story]())
    # The sharded batch must reproduce the serial one exactly.
    expected = SYNC_DIGESTS[story, "batch" if call == "batch-sharded" else call]
    assert _digest(output) == expected


@pytest.mark.parametrize("call", sorted(STORY_CALLS))
def test_story_matches_golden_digest(call):
    assert _digest(STORY_CALLS[call]()) == STORY_DIGESTS[call]


@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_DIGESTS))
def test_scenario_experiment_render_matches_golden_digest(experiment):
    assert _sha256(run_experiment(experiment).render()) == EXPERIMENT_DIGESTS[experiment]
