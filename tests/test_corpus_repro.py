"""Committed fuzz-corpus replay.

``tests/corpus/*.repro`` are fuzzer-generated programs promoted into a
permanent regression corpus (``repro.fuzz/1`` artifacts, replayable
with ``repro fuzz --replay``).  Each one must stay clean through the
whole differential stack: the golden check of its trace, the reference
cycle loop with the invariant checker attached, and the fast cycle
loop byte-identical to the reference.  A fuzzer find that ever slips
through gets shrunk and added here so it can never regress silently.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.asm import assemble
from repro.func import run_bare
from repro.trace.fuzz import ARTIFACT_SCHEMA, load_artifact, replay_artifact
from repro.validate import differential_views

CORPUS_DIR = Path(__file__).parent / "corpus"
ARTIFACTS = sorted(CORPUS_DIR.glob("*.repro"))


def _artifact_ids() -> list[str]:
    return [path.stem for path in ARTIFACTS]


def test_corpus_is_populated():
    assert len(ARTIFACTS) >= 6


def test_corpus_seeds_are_distinct():
    seeds = [load_artifact(str(path))["seed"] for path in ARTIFACTS]
    assert len(set(seeds)) == len(seeds)


@pytest.mark.parametrize("path", ARTIFACTS, ids=_artifact_ids())
def test_artifact_replays_clean_with_both_checkers(path):
    # replay_artifact golden-checks the program's trace once, then runs
    # it through every recorded config on the reference loop with the
    # InvariantChecker attached.
    payload = load_artifact(str(path))
    assert payload["schema"] == ARTIFACT_SCHEMA
    failures = replay_artifact(payload)
    assert failures == [], f"{path.name}: {failures}"


@pytest.mark.parametrize("path", ARTIFACTS, ids=_artifact_ids())
def test_artifact_fastpath_matches_reference(path):
    payload = load_artifact(str(path))
    func = run_bare(assemble(str(payload["source"])), collect_trace=True)
    assert func.trace
    for config_name in payload["configs"]:
        slow, fast = differential_views(config_name, func.trace)
        assert fast == slow, \
            f"{path.name}: fast path diverges on {config_name}"
