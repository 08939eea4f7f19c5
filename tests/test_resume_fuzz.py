"""Resume is byte-exact across settings: a seeded settings fuzzer.

Each case draws campaign settings at random: preset, seed, budget 1-25,
``max_epochs`` 1-60, a named surrogate or a custom triple, a stop mode,
charging on or off, a mesh floor from -6 to 0, an optional iteration cap,
a noise level up to 0.05 and, in half the cases, random milestones and
margins.  It runs the campaign, whose ledger every check that export makes
must pass, cuts the ledger after a random row (none included) and resumes
it.  The resumed ledger must be byte-identical to the uncut one, and its
summary equal but for ``wall_seconds``.  Before the resume, export must
check the cut ledger with a simulated trainer that raises at any training
or estimate: export trains nothing past the rows.

Each case also fuzzes the header codec.  The header must read back, through
``header_settings``, to the settings it was written from.  A second copy of
the cut ledger drops every header line that holds its setting's default and
respells some of the others with an equal value; it reads back to the same
settings and resumes to the same bytes, because a missing key is its
default and settings are compared as values.
"""

import json
import random

import pytest

from madshpo.blackbox import SimulatedBlackbox
from madshpo.campaign import (
    LEDGER_NAME,
    SUMMARY_NAME,
    CampaignSettings,
    header_settings,
    read_checked_ledger,
    resume,
    run,
    settings_header,
)
from madshpo.early_stop import MODES
from madshpo.ledger import write_ledger
from madshpo.surrogates import SURROGATE_TABLE

CASES = 60
# the header text of every default but the preset's start point
DEFAULTS = {key: text for key, text in settings_header(CampaignSettings()).items() if key not in ("format", "initial")}


def _zero_padded(text: str) -> str:
    return text.replace("-", "-0") if text.startswith("-") else "0" + text


# an equal value spelled as a settings file may spell it, by header key
RESPELLINGS = {
    "seed": _zero_padded,
    "bbe_budget": _zero_padded,
    "max_epochs": _zero_padded,
    "min_mesh_index": _zero_padded,
    "max_iterations": _zero_padded,
    "charge_ranking": lambda text: {"1": "yes", "0": "off"}[text],
    "surrogate": str.upper,
    "milestones": lambda text: text.replace(" ", ", "),
    "margins": lambda text: text.replace(" ", ","),
    "noise_sigma": lambda text: f"{float(text):.17e}",
}


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


def _trains(*args, **kwargs):
    raise AssertionError("export trained past the rows")


def summary_without_time(out_dir) -> dict:
    summary = json.loads((out_dir / SUMMARY_NAME).read_text())
    del summary["wall_seconds"]
    return summary


@pytest.mark.parametrize("case", range(CASES))
def test_a_cut_campaign_resumes_to_the_uncut_ledger(case, tmp_path, monkeypatch):
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
    assert settings_header(header_settings(header, cut_dir / LEDGER_NAME)) == header, values
    # drawn after the cut, so that each case keeps the settings and cut it had before this draw
    sparse = {key: RESPELLINGS[key](text) if key in RESPELLINGS and rng.random() < 0.5 else text
              for key, text in header.items() if DEFAULTS.get(key) != text}
    sparse_dir = tmp_path / "sparse"
    sparse_dir.mkdir()
    write_ledger(sparse_dir / LEDGER_NAME, records[:cut], sparse)
    assert settings_header(header_settings(sparse, sparse_dir / LEDGER_NAME)) == header, (values, sparse)
    # export trains nothing past the rows: an AssertionError is no trainer fault, so no layer turns it into a row
    with monkeypatch.context() as patched:
        for name in ("evaluate", "final_accuracy"):
            patched.setattr(SimulatedBlackbox, name, _trains)
        assert all(read_checked_ledger(d / LEDGER_NAME)[1] == records[:cut] for d in (cut_dir, sparse_dir)), values
    resume(CampaignSettings(out_dir=cut_dir, **values))
    assert (cut_dir / LEDGER_NAME).read_bytes() == full_bytes, (values, cut)
    assert summary_without_time(cut_dir) == summary_without_time(tmp_path / "full"), (values, cut)
    resume(CampaignSettings(out_dir=sparse_dir, **values))
    assert (sparse_dir / LEDGER_NAME).read_bytes() == full_bytes, (values, cut, sparse)
