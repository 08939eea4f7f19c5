"""Resume is byte-exact across settings: a seeded settings fuzzer.

Each case draws campaign settings at random: preset, seed, budget 1-25,
``max_epochs`` 1-60, a named surrogate or a custom triple, a stop mode,
charging on or off, a mesh floor from -6 to 0, an optional iteration cap,
a noise level up to 0.05 and, in half the cases, random milestones and
margins.  It runs the campaign, whose ledger every check that export makes
must pass, cuts the ledger after a random row (none included) and resumes
it.  The resumed ledger must be byte-identical to the uncut one, and its
summary equal but for ``wall_seconds``.
"""

import json
import random

import pytest

from madshpo.campaign import LEDGER_NAME, SUMMARY_NAME, CampaignSettings, read_checked_ledger, resume, run
from madshpo.early_stop import MODES
from madshpo.ledger import write_ledger
from madshpo.surrogates import SURROGATE_TABLE

CASES = 60


def draw_settings(rng: random.Random) -> dict:
    surrogate = rng.choice([*SURROGATE_TABLE, "custom"])
    if surrogate == "custom":
        surrogate = f"{rng.randint(1, 60)},{round(rng.uniform(0.01, 1.0), 3)},{round(rng.uniform(0.0, 0.5), 3)}"
    values = dict(
        preset=rng.choice(["p1", "p2", "p3"]),
        seed=rng.randrange(10**6),
        bbe_budget=rng.randint(1, 25),
        max_epochs=rng.randint(1, 60),
        surrogate=surrogate,
        stop_mode=rng.choice(MODES),
        charge_ranking=rng.random() < 0.5,
        min_mesh_index=rng.randint(-6, 0),
        max_iterations=rng.choice([None, rng.randint(0, 8)]),
        noise_sigma=rng.choice([0.0, round(rng.uniform(0.0, 0.05), 4)]),
    )
    if rng.random() < 0.5:
        count = rng.randint(1, 4)
        values["milestones"] = tuple(sorted(rng.sample(range(1, 61), count)))
        values["margins"] = tuple(sorted(rng.sample([0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0], count)))
    return values


def summary_without_time(out_dir) -> dict:
    summary = json.loads((out_dir / SUMMARY_NAME).read_text())
    del summary["wall_seconds"]
    return summary


@pytest.mark.parametrize("case", range(CASES))
def test_a_cut_campaign_resumes_to_the_uncut_ledger(case, tmp_path):
    rng = random.Random(case)
    values = draw_settings(rng)
    full = CampaignSettings(out_dir=tmp_path / "full", **values)
    run(full)
    full_bytes = (tmp_path / "full" / LEDGER_NAME).read_bytes()
    header, records, _ = read_checked_ledger(tmp_path / "full" / LEDGER_NAME)
    cut = rng.randint(0, len(records))
    cut_dir = tmp_path / "cut"
    cut_dir.mkdir()
    write_ledger(cut_dir / LEDGER_NAME, records[:cut], header)
    resume(CampaignSettings(out_dir=cut_dir, **values))
    assert (cut_dir / LEDGER_NAME).read_bytes() == full_bytes, (values, cut)
    assert summary_without_time(cut_dir) == summary_without_time(tmp_path / "full"), (values, cut)
