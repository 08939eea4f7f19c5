"""Golden hashes: a refactor must leave every ledger byte where it was.

The p1/p2/p3 x {none, scheduler+baseline} x {none, r4} hashes and the
quadratic ones were recorded from the code before the poll-construction
speed-up; the other p1 stop modes, the uncharged ranking and the custom
surrogate were recorded before the campaign-state merge.  A change that
alters one of them changes behaviour, and the change log has to say which
hash moved and why.
"""

import hashlib

import pytest

from madshpo import mads
from madshpo.campaign import LEDGER_NAME, CampaignSettings, run
from madshpo.space import make_config, to_vector
from tests.test_mads import QUAD_CENTER, QUAD_START, frozen_bounds, quadratic_plan

GOLDEN_BUDGET = 60

# (preset, stop mode, surrogate, seed) -> SHA-256 of ledger.csv at GOLDEN_BUDGET BBE
LEDGER_SHA256 = {
    ("p1", "none", "none", 0): "0526ab2878f8b40ace7d38f7113d16e0dfd8310a127695748b16a9a9cfa40a8c",
    ("p1", "none", "none", 1): "d6888b7b4dc917d624baa3c92a4c27dbdbf8cf1c5390bfc08ff2f31be6b2bfac",
    ("p1", "none", "r4", 0): "1cbf72367ded4970baa6368e62b8269e931f45720bfa6bc9d4a2f74bb2964f41",
    ("p1", "none", "r4", 1): "e35bf60d9a90cfc4b41af82983c606a5120da78c7f7352604c6616746546d7a0",
    ("p1", "default", "r4", 0): "a6cd762a18a41669eb84f6c35d5bb2379c07660ad962cd350cb4789e3611e16a",
    ("p1", "last-success", "r4", 0): "28cfa15ad4acee5d7c798d612bfbe35408a4fc042ee49f3aa7e5e04a4a530ead",
    ("p1", "scheduler", "r4", 0): "bb370df1b312305277e25e386a01c5d1d1db5759c3abaae62f14a3a29ff45d04",
    ("p1", "scheduler+baseline", "none", 0): "c56054076846dce7eb2e6c8c90c104e596d2e73a55901fcf5a4577bf6c0e4ee5",
    ("p1", "scheduler+baseline", "none", 1): "d7be5da359af04997de8ee7ac78c3a4cfbd17e676e6b50ee4e1cb12dc5561243",
    ("p1", "scheduler+baseline", "r4", 0): "8e87322718c460b877255bc923c5bd07f059dd6d1c1de90351a6b34858123e92",
    ("p1", "scheduler+baseline", "r4", 1): "30ff334140038bd69a52af4e8579f22215b087de69e386b633f4485d82b6458e",
    ("p2", "none", "none", 0): "fb9f2ffb78e58103883c35b888a475cb4f6dc3eff20b1a3f285fff9aebc2d2e7",
    ("p2", "none", "none", 1): "f77217c33ba2b59dc8371084467f6fa518496bc2a19fb4567f15472d0bfd18aa",
    ("p2", "none", "r4", 0): "e3860882cd89a1bf4950012fa0a565e68594520f5a9aa56924fc90854f7ed2b4",
    ("p2", "none", "r4", 1): "6d1fc7ca3163c45573bd127e4a52ac397b640b65c47c894b7ee30ba31d3158cf",
    ("p2", "scheduler+baseline", "none", 0): "e6f3b3d0ed636647dab08499e75f5b9f765aa3a88b905c3140c34c3f97283e08",
    ("p2", "scheduler+baseline", "none", 1): "fa2edd29950f2720af0fb4c0a57fd4b186860db59f3b671ad8a83380e9b4062f",
    ("p2", "scheduler+baseline", "r4", 0): "3bec82855f77025e90a747834baccc99904541a360ee4cec297492f6b8a62836",
    ("p2", "scheduler+baseline", "r4", 1): "393b082efa670747ada358d7eff88d87f1aafc10db7bea46af6aad362275d18a",
    ("p3", "none", "none", 0): "d885328af58c96ec33cd2384c85c3fc3d109291bf9fa75b15ef5f2bfba22a632",
    ("p3", "none", "none", 1): "5eb836663b7a1a39932acadcd10ffb89c798d9521c1738d1357748f38875e63d",
    ("p3", "none", "r4", 0): "aa77f0689b69fead72453f11cd13b4ccdfb3bdd653499f466c0deb43fc5bd992",
    ("p3", "none", "r4", 1): "c946905195533f7f7c711f4a3778a20d973faf5705d90cd4aec27a1305727636",
    ("p3", "scheduler+baseline", "none", 0): "fb998b93a596a269b97d21e1cffa916d9b77b06c0e81ba767318969abbac768a",
    ("p3", "scheduler+baseline", "none", 1): "cd371a6109f1deb6925d258dd197ef63c50dd767fb03f538317d854083f5f9d8",
    ("p3", "scheduler+baseline", "r4", 0): "9b3af1b15e424e00200e7db85b007a23f4a3de5c06e006e6d0ae323d1e7f11f9",
    ("p3", "scheduler+baseline", "r4", 1): "95890e5aacc30782d0a8527ecbfd499fcf25e1c761f1f7015f73194a15d962a1",
}

# case -> (settings, SHA-256 of ledger.csv) for p1, seed 0, GOLDEN_BUDGET BBE
SETTINGS_LEDGER_SHA256 = {
    "r4-uncharged": (
        dict(surrogate="r4", charge_ranking=False),
        "535eb84304d61ec6ef569f97ad5d846621c5cec5d65ff687f4c6b8983abb1bbb",
    ),
    "custom-50-0.5-0.25": (
        dict(surrogate_custom=(50, 0.5, 0.25)),
        "0a77168dde9d6e5f01930e7ed5a60d69328fd7c1ecda93adce49ccc9e22c6034",
    ),
}

# seed -> SHA-256 of repr(records) of the acceptance-criterion-5 quadratic campaign
QUADRATIC_RECORDS_SHA256 = {
    0: "ba940f527aea2a97b4a87cdc12b536104d81f8ccf61941614e256cb915adae89",
    1: "b428281af409d0181427f8ba1d1eb926356e859cb0ef02545ca4071e77d5a2b3",
    2: "45f848dcb208162b41aecd18260332d97ed46ea38685703dbf62d79268b4c153",
}


def _case_id(case):
    return "-".join(str(part) for part in case)


@pytest.mark.parametrize("case", sorted(LEDGER_SHA256), ids=_case_id)
def test_ledger_bytes_unchanged(case, tmp_path):
    preset, stop_mode, surrogate, seed = case
    run(CampaignSettings(
        preset=preset, bbe_budget=GOLDEN_BUDGET, seed=seed, stop_mode=stop_mode,
        surrogate=surrogate, out_dir=tmp_path,
    ))
    digest = hashlib.sha256((tmp_path / LEDGER_NAME).read_bytes()).hexdigest()
    assert digest == LEDGER_SHA256[case]


@pytest.mark.parametrize("case", sorted(SETTINGS_LEDGER_SHA256))
def test_settings_ledger_bytes_unchanged(case, tmp_path):
    overrides, expected = SETTINGS_LEDGER_SHA256[case]
    run(CampaignSettings(preset="p1", bbe_budget=GOLDEN_BUDGET, seed=0, out_dir=tmp_path, **overrides))
    assert hashlib.sha256((tmp_path / LEDGER_NAME).read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("seed", sorted(QUADRATIC_RECORDS_SHA256))
def test_quadratic_records_unchanged(seed):
    bounds = frozen_bounds()
    start = make_config((), (), **QUAD_START)
    center = to_vector(make_config((), (), **QUAD_CENTER), bounds)
    result = mads.run_campaign(start, 10**9, quadratic_plan(bounds, center, seed))
    digest = hashlib.sha256(repr(result.records).encode()).hexdigest()
    assert digest == QUADRATIC_RECORDS_SHA256[seed]
