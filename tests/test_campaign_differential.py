"""The campaign loop against the serial and pooled loops it replaced.

``campaign_reference.reference_loop`` is the parent's dispatch between a
serial loop for one worker and a thread-pooled loop for more.  Put in for
``campaign._loop``, it must mutate the same entries with the same donors
from the same stream states, in the same order, and leave the same
corpus, the same crash directories byte for byte and the same
``stats.json`` apart from its wall-clock fields as the one ordered-window
loop, for each seed and worker count.
"""

from __future__ import annotations

import json

import campaign_reference
import pytest

from conffuzz import campaign
from conffuzz.campaign import CampaignConfig, run_campaign
from conffuzz.target import TargetSpec

from conftest import GRAMMAR_PATH

VALIDATOR = TargetSpec.parse("builtin:gnb-validator")
WALL_CLOCK_KEYS = ("execs_per_sec", "started_unix_ms", "finished_unix_ms")


def artifacts(out, seed, workers, energy, monkeypatch):
    # every mutation's stream state, entry and donor, in call order
    tasks = []
    mutate = campaign.random_mutation

    def recording(tree, g, rng, *args, donor, **kwargs):
        tasks.append((hash(rng.getstate()), tree, donor))
        return mutate(tree, g, rng, *args, donor=donor, **kwargs)

    monkeypatch.setattr(campaign, "random_mutation", recording)
    run_campaign(
        CampaignConfig(
            GRAMMAR_PATH,
            VALIDATOR,
            out,
            seed=seed,
            max_execs=2000,
            workers=workers,
            energy_per_entry=energy,
        )
    )
    monkeypatch.setattr(campaign, "random_mutation", mutate)
    stats = json.loads((out / "stats.json").read_text())
    for key in WALL_CLOCK_KEYS:
        del stats[key]
    files = {
        str(p.relative_to(out)): p.read_bytes()
        for sub in ("corpus", "crashes")
        for p in sorted((out / sub).rglob("*"))
        if p.is_file()
    }
    return stats, files, tasks


# energy 2 starts a round every other pick, so a task scheduled one
# consume early or late lands in another round; at the default 64 the
# artifacts and tasks hardly depend on it
@pytest.mark.parametrize("energy", [64, 2])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("seed", [1, 5])
def test_one_loop_matches_serial_and_pooled(
    tmp_path, monkeypatch, seed, workers, energy
):
    got = artifacts(tmp_path / "loop", seed, workers, energy, monkeypatch)
    monkeypatch.setattr(campaign, "_loop", campaign_reference.reference_loop)
    want = artifacts(tmp_path / "reference", seed, workers, energy, monkeypatch)
    # the comparison means something only past the seed corpus
    assert want[0]["corpus_size"] > campaign.SEED_TREES + 1
    assert want[0]["crashes_unique"] > 0
    assert got == want
