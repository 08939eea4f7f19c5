"""Golden hashes: a refactor must leave every ledger byte where it was.

The p1/p2/p3 x {none, scheduler+baseline} x {none, r4} hashes and the
quadratic ones were recorded from the code before the poll-construction
speed-up; the other p1 stop modes, the uncharged ranking and the custom
surrogate were recorded before the campaign-state merge.  A change that
alters one of them changes behaviour, and the change log has to say which
hash moved and why.

The simulated curves are hashed as well, recorded before the curve model
lost its derived fields.  No golden campaign trains at a learning rate
above the divergence threshold, so only these hashes cover the divergent
branch of ``curve_arrays``.  The curves of p3's categorical neighbours and
of an eight-layer config, and the exact curve parameters of every curve
config, were recorded before the simulator stopped averaging short lists
with numpy.

The external backend has its own pair of hashes, ledger and trainer
transcript, recorded before the two training loops became one.  One
exported convergence series is hashed too, recorded before the export
shared the ledger's row encoder.

The summary.json of six campaigns is hashed too, every key but
wall_seconds, recorded before the campaign loop returned its own state:
they end on the budget, the mesh floor and the iteration cap, and two
start from a point whose training fails.

The best point of the coarse-lattice sweep is hashed for two seeds,
recorded before configurations derived their layer counts and canonical
text; it guards the simulated trainer's per-config path that a batched
trainer would replace.

The ledger, settings, summary and external campaigns above were recorded
under the envelope defaults from before the milestone at epoch 160, and run
under that ``LEGACY_ENVELOPE``, so their hashes show that adding the
milestone changed only the defaults.  A few campaigns of each kind are
hashed under the current defaults too, recorded when the margins at epochs
50 to 150 were raised to the measured headroom of new incumbents.
"""

import hashlib
import shlex
import sys
from dataclasses import replace

import pytest

from madshpo import blackbox, mads
from madshpo.blackbox import SimulatedBlackbox, curve_arrays
from madshpo.campaign import LEDGER_NAME, SUMMARY_NAME, CampaignSettings, read_checked_ledger, run
from madshpo.cli import main
from madshpo.early_stop import DEFAULT_MARGINS, DEFAULT_MILESTONES
from madshpo.ledger import KIND_FULL, KIND_SURROGATE
from madshpo.space import ConvLayerHP, default_bounds, make_config, neighbors, preset_config, serialize, to_vector
from tests.lattice import lattice_sweep
from tests.test_campaign_cli import failing_start_point
from tests.test_mads import QUAD_CENTER, QUAD_START, frozen_bounds, quadratic_plan

GOLDEN_BUDGET = 60

# the envelope defaults before the milestone at epoch 160, as campaign settings
LEGACY_ENVELOPE = dict(milestones=(5, 10, 25, 50, 100, 125, 150), margins=(0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95))
# the defaults from the milestone at epoch 160 on, before the margins at epochs 50 to 150 were raised
TAIL_ENVELOPE = dict(milestones=(5, 10, 25, 50, 100, 125, 150, 160),
                     margins=(0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.98))

# (preset, stop mode, surrogate, seed) -> SHA-256 of ledger.csv at GOLDEN_BUDGET BBE under LEGACY_ENVELOPE
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

# the same under the default envelope, recorded when its margins at epochs 50 to 150 were raised
DEFAULT_LEDGER_SHA256 = {
    ("p1", "scheduler+baseline", "none", 0): "9530142df68b29a57cd3db7ee892a045837eb3b53392732fc08e5123473f0cd0",
    ("p1", "scheduler+baseline", "r4", 0): "7a89041bed246db2719798cf1038f641a56790b906e45a0c3464260bf707a80b",
    ("p3", "scheduler+baseline", "none", 0): "c9fb930da6f6dd7bba2368956bbeebe754ca3acadc35dc484989a15241151401",
    ("p3", "scheduler+baseline", "r4", 0): "7393202a01d12d0781c7557e339a2e42e6d14f4df3274f46b5566f80c202cfa0",
}

# case -> (settings, SHA-256 of ledger.csv) for p1, seed 0, GOLDEN_BUDGET BBE, LEGACY_ENVELOPE
SETTINGS_LEDGER_SHA256 = {
    "r4-uncharged": (
        dict(surrogate="r4", charge_ranking=False),
        "535eb84304d61ec6ef569f97ad5d846621c5cec5d65ff687f4c6b8983abb1bbb",
    ),
    "custom-50-0.5-0.25": (
        dict(surrogate="50,0.5,0.25"),
        "0a77168dde9d6e5f01930e7ed5a60d69328fd7c1ecda93adce49ccc9e22c6034",
    ),
}

# seed -> SHA-256 of repr(records) of the acceptance-criterion-5 quadratic campaign
QUADRATIC_RECORDS_SHA256 = {
    0: "ba940f527aea2a97b4a87cdc12b536104d81f8ccf61941614e256cb915adae89",
    1: "b428281af409d0181427f8ba1d1eb926356e859cb0ef02545ca4071e77d5a2b3",
    2: "45f848dcb208162b41aecd18260332d97ed46ea38685703dbf62d79268b4c153",
}

CURVE_CONFIGS = {
    "p1": preset_config("p1"),
    "p3": preset_config("p3"),
    "p1-lr0.5": replace(preset_config("p1"), learning_rate=0.5),
    "p1-lr0.95": replace(preset_config("p1"), learning_rate=0.95),
    # p3's categorical neighbours in move order, and eight conv layers, the
    # shortest list the simulator still averages with np.mean
    **dict(zip(("p3+conv", "p3-conv", "p3+fc", "p3-fc", "p3-adam"), neighbors(preset_config("p3"), default_bounds()))),
    "conv8": make_config(
        tuple(ConvLayerHP(4 + 17 * i, 1 + i % 7, 1 + i % 3, i % 4, 1 + i % 4) for i in range(8)), (256, 32),
    ),
}

# (config, seed, noise_sigma, epochs, data fraction) -> SHA-256 of acc.tobytes() + loss.tobytes()
CURVE_SHA256 = {
    ("p1", 0, 0.0001, 200, 1.0): "f933a11eeaf67a578180c03e2a15719433e49d1760e427e1febfadf61a5e503c",
    ("p1", 0, 0.0001, 200, 0.1): "ae1ad93f3ba216bacaf07892e593a937424a0bbcd92e8ea1ac658fc43bbf8c58",
    ("p1", 0, 0.0001, 25, 1.0): "87c857519cd4c4a30c5d6d5d0186486fc3141dce461986fad17fffbf0eefffda",
    ("p1", 0, 0.0, 200, 1.0): "ff3e9a09e79bdc66dac8b4466fc232907d3aa1cfbb4059f2946bd1a0f4826a27",
    ("p1", 0, 0.0, 200, 0.1): "51004e6dcb8c82d8ae275f60cb6fc12104648f2b3606755eba2a2f90b2145987",
    ("p1", 0, 0.0, 25, 1.0): "dc68a1482c748274356255c2fab907353d78fdd579c0ceb74c3d36dfdb052372",
    ("p1", 3, 0.0001, 200, 1.0): "19c9dc81dc63c9cb631c7a4de0ef1ada23a4a7f99c6e8ec841d26a1a191f5b3e",
    ("p1", 3, 0.0001, 200, 0.1): "dd3807453f6acf317bd8e09053ef56d4fb7dc30635811d5efa30fce5428e15b0",
    ("p1", 3, 0.0001, 25, 1.0): "fb229f1e7d5c9995ea266a27dfda27ffec30fd5e670f5a52ef0bf50947241dd8",
    ("p1", 3, 0.0, 200, 1.0): "fddca51a6ff28a51690383f205cf7759a0399250ee570c24c1c68844e96199f5",
    ("p1", 3, 0.0, 200, 0.1): "6f401dd280a1dcb13615664bb36b918ceb19ec0bdbaa59a0204b2948e430ae9f",
    ("p1", 3, 0.0, 25, 1.0): "49c3b68bf018e44f945f0f381a43d9cf46ececfc7390b3400fc36210d75d0dcd",
    ("p3", 0, 0.0001, 200, 1.0): "61fb33f8361dee9b88210933f253caaab4fcb6e0d1a41a46048956226cdfc051",
    ("p3", 0, 0.0001, 200, 0.1): "a02e3e905de2fdf998654d4a7e72e8d73965e2c20a121205bacca095310b5601",
    ("p3", 0, 0.0001, 25, 1.0): "06932fcd203f3591b7302d9bd80abdac53557f944425c5be2ec728a6afd2b00e",
    ("p3", 0, 0.0, 200, 1.0): "4cc7e292d881d24def2b8198f53d6e7219f90daf42ae53738df7d955d10562ad",
    ("p3", 0, 0.0, 200, 0.1): "d1e3b826f54b31762fcaee6db2aff07914cbc039892bf7baaa91a0704963d972",
    ("p3", 0, 0.0, 25, 1.0): "a3af0e879943aa12932aebab50c259d5d6ab8a363957f70ee571a95924d98296",
    ("p3", 3, 0.0001, 200, 1.0): "9420656012d2d3df6f3adb4d46690b7841e55d953fc482d72e136e7ad4f7f3c8",
    ("p3", 3, 0.0001, 200, 0.1): "b673ce84900d4274d106db8c050b4feb6d7a5e7f6630b15d8e0135c0fb9b39d8",
    ("p3", 3, 0.0001, 25, 1.0): "06e920b22dc20ad46796c0f538c16cb318623e25db36b3f0e11e95ae189b32ec",
    ("p3", 3, 0.0, 200, 1.0): "3988c581688d431a132d5f62498862a45870d04b2fa16205f8ee0486329c5cbc",
    ("p3", 3, 0.0, 200, 0.1): "affd256deda16325a98ece35bedf74b4757f931e6d82f0d8fac0b6f759125fe4",
    ("p3", 3, 0.0, 25, 1.0): "fac483a5ae69d8d9882fa5b80f3dff8f4ac30f0b15cef7f275b03ccb32a49744",
    ("p1-lr0.5", 0, 0.0001, 200, 1.0): "52dee2274c2950e03f71e34a109204ba1211bfdb7f91f9a2b1fb183320cb6c1d",
    ("p1-lr0.5", 0, 0.0001, 200, 0.1): "9afad00b69d0375c493afbbdbe9fb9d42fd30cb765aaeda9de3b300b9c29e829",
    ("p1-lr0.5", 0, 0.0001, 25, 1.0): "f44ed1aec189c98c958657044193bab321c21eb6b4e23de9cac7ff17f8f15778",
    ("p1-lr0.5", 0, 0.0, 200, 1.0): "74fb87230bc70278a6128068e2ea217bd603a37cc57a0b4ee1f4a8d18cda944d",
    ("p1-lr0.5", 0, 0.0, 200, 0.1): "808d87cebc717491925d7094afdc66b34a66e5eb16adddaa67cdf9b78df36452",
    ("p1-lr0.5", 0, 0.0, 25, 1.0): "6e360cdb8727e9cf307bd632871b8f07eff4fd531568a6d7317df9f8fdea9861",
    ("p1-lr0.5", 3, 0.0001, 200, 1.0): "702936ac911850b5cc37d267f9137a557f0370cb33e8df400186621f7d5c2e0c",
    ("p1-lr0.5", 3, 0.0001, 200, 0.1): "6415820c15c60e3df80cf590dd8671bfba583fe3d3206359045e3d97cdeb040f",
    ("p1-lr0.5", 3, 0.0001, 25, 1.0): "2ce7d3e8cf75e3b867565536a95941c0424b1131efb98fa5149491ca9308c1f6",
    ("p1-lr0.5", 3, 0.0, 200, 1.0): "6f529e03ea21cccbeb35e9bf9923ecd1783f3cadee123894f0480151ee84aaef",
    ("p1-lr0.5", 3, 0.0, 200, 0.1): "b9ec8300ce581e534a80ca11c2c24ca58c6d33ce44da14d368ca88b2db4f7b33",
    ("p1-lr0.5", 3, 0.0, 25, 1.0): "f66b26accefcda68f7bc5e66308b65397dc6747c5f918fdc5de921056b51baab",
    ("p1-lr0.95", 0, 0.0001, 200, 1.0): "7b2e099561760dde9c764912f1d5fbde3395aacd32484bfbb2cb8f2314fd6546",
    ("p1-lr0.95", 0, 0.0001, 200, 0.1): "0a4cb0890d2470071d4e957b75918b5b73a0661f3d537b361496ad8f5c9f0d67",
    ("p1-lr0.95", 0, 0.0001, 25, 1.0): "96398e2c52566ef819f3cd7b75fc65053ec3852fcc7e397b7d0524a03bfde700",
    ("p1-lr0.95", 0, 0.0, 200, 1.0): "d795f77c85b7a189329be1f55db3c073ffd1f4c3eb5135677a1e645e497298ec",
    ("p1-lr0.95", 0, 0.0, 200, 0.1): "db0f12a88f037a42cffb6884c279fbc7c2255369c1486cdd2c68b2ff622ba70e",
    ("p1-lr0.95", 0, 0.0, 25, 1.0): "f8209fcb27a956b46b3f9b9e8b5685cbc3d3f52344a7d7ac0f61ba72e139d1c9",
    ("p1-lr0.95", 3, 0.0001, 200, 1.0): "bfb18b1da0269a0d7dfd184958714e274b1d17fff9ad463e1ee5e0d61bf95b93",
    ("p1-lr0.95", 3, 0.0001, 200, 0.1): "08a09d509ea6cccb1098351e2d99136eb877192ffc831cebfa9f0859f207fab0",
    ("p1-lr0.95", 3, 0.0001, 25, 1.0): "b24d3294df983971bfd0706f28996abc55a0abafd5ff570fdc66a40f2f122fe0",
    ("p1-lr0.95", 3, 0.0, 200, 1.0): "13b2bbe7c8644d2bde61314cdce94a9f421578b54b68768bee03c8c32b0dbbc0",
    ("p1-lr0.95", 3, 0.0, 200, 0.1): "6325f123c4202ef3e76606d8a7248d4a256025b7d33547ae2a4803f2553da3dc",
    ("p1-lr0.95", 3, 0.0, 25, 1.0): "db8d403f79f2502697262eb692d8af2a5310fd592ea7b1a95a48094957d014af",
    ("p3+conv", 0, 0.0001, 200, 1.0): "c47666b54c2c1d3a399b30c116cfc82565eb81cd626a85c8dfd50807b97c9f74",
    ("p3+conv", 3, 0.0, 200, 1.0): "6dc2256441e711e0af6b94c35af0b313c11536836883c1ed51a5767e6fe75e7e",
    ("p3-conv", 0, 0.0001, 200, 1.0): "ddfa27771802af7fb400616448fecbddc24e6e76e9b6ce9224df8052d6892c34",
    ("p3-conv", 3, 0.0, 200, 1.0): "c50d37592c550abd5e4b2c4fa745b68f7e2f528766865e7e4cb7dd3b500be221",
    ("p3+fc", 0, 0.0001, 200, 1.0): "bd14bfa4c1892cbc0535c4326a43065e5ff506bc6e4374966fc1756988ccf370",
    ("p3+fc", 3, 0.0, 200, 1.0): "ef9f94d2f0b4f70b98ce6ba8ff534eaadefaa23c1a4d2280612d25fd62d22b10",
    ("p3-fc", 0, 0.0001, 200, 1.0): "5147454958e315ca1ab78a8c2eff38a9637ebabdc7891c518369bef2cfeacae6",
    ("p3-fc", 3, 0.0, 200, 1.0): "e5962a4e10f0d822d345540326d0d850f0034688a7a534f73a8955aa962dc05c",
    ("p3-adam", 0, 0.0001, 200, 1.0): "db73de9a09c04a356446532c3d95e71fcd48f32001253806f83cb652929bb05c",
    ("p3-adam", 3, 0.0, 200, 1.0): "1c9452b2689d57b8527decdd7a670045326fc9d0ce5fd6731f4cdab406c022cd",
    ("conv8", 0, 0.0001, 200, 1.0): "21a8f4a726cdcc7ff98cb05449b29a1b30f44e7072069a26e40f2d11144bd360",
    ("conv8", 3, 0.0, 200, 1.0): "36b01c481dc9bea1c7aee9be59486292bae919de9170f3ee34a2e32584ae2d4f",
}


def _case_id(case):
    return "-".join(str(part) for part in case)


def assert_reads_back(path, result):
    """The ledger at ``path`` reads back as the campaign's records, and the
    campaign loop of its header's settings, run against its rows as resume
    and export run it, writes every one of them."""
    _, records, _ = read_checked_ledger(path)
    assert records == list(result.records)


def assert_ledger_bytes(case, envelope, expected, tmp_path):
    preset, stop_mode, surrogate, seed = case
    result = run(CampaignSettings(
        preset=preset, bbe_budget=GOLDEN_BUDGET, seed=seed, stop_mode=stop_mode,
        surrogate=surrogate, out_dir=tmp_path, **envelope,
    ))
    digest = hashlib.sha256((tmp_path / LEDGER_NAME).read_bytes()).hexdigest()
    assert digest == expected
    assert_reads_back(tmp_path / LEDGER_NAME, result)


@pytest.mark.parametrize("case", sorted(LEDGER_SHA256), ids=_case_id)
def test_ledger_bytes_unchanged(case, tmp_path):
    assert_ledger_bytes(case, LEGACY_ENVELOPE, LEDGER_SHA256[case], tmp_path)


@pytest.mark.parametrize("case", sorted(DEFAULT_LEDGER_SHA256), ids=_case_id)
def test_default_envelope_ledger_bytes_unchanged(case, tmp_path):
    assert_ledger_bytes(case, {}, DEFAULT_LEDGER_SHA256[case], tmp_path)


# SHA-256 of the series.csv that `madshpo export` writes for the
# ("p1", "none", "r4", 0) golden ledger, recorded before the export shared
# the ledger's row encoder
EXPORT_CASE = ("p1", "none", "r4", 0)
EXPORT_SHA256 = "9dd675c0ddb0bfb4f31140ada2e718bc1fb7f50a66d19da23d50922830f95c09"


def test_export_series_bytes_unchanged(tmp_path):
    preset, stop_mode, surrogate, seed = EXPORT_CASE
    run(CampaignSettings(
        preset=preset, bbe_budget=GOLDEN_BUDGET, seed=seed, stop_mode=stop_mode,
        surrogate=surrogate, out_dir=tmp_path,
    ))
    series = tmp_path / "series.csv"
    assert main(["export", "--ledger", str(tmp_path / LEDGER_NAME), "--out", str(series)]) == 0
    assert hashlib.sha256(series.read_bytes()).hexdigest() == EXPORT_SHA256


@pytest.mark.parametrize("case", sorted(SETTINGS_LEDGER_SHA256))
def test_settings_ledger_bytes_unchanged(case, tmp_path):
    overrides, expected = SETTINGS_LEDGER_SHA256[case]
    result = run(CampaignSettings(preset="p1", bbe_budget=GOLDEN_BUDGET, seed=0, out_dir=tmp_path, **LEGACY_ENVELOPE,
                                  **overrides))
    assert hashlib.sha256((tmp_path / LEDGER_NAME).read_bytes()).hexdigest() == expected
    assert_reads_back(tmp_path / LEDGER_NAME, result)


# case -> (settings, SHA-256 of summary.json without its wall_seconds line),
# recorded before the campaign loop returned its own state.  The settings
# are p1's at seed 0, GOLDEN_BUDGET BBE and LEGACY_ENVELOPE unless a case says
# otherwise; the failed-start cases search the space that failing_start_point
# patches in.  The "default-envelope" case, recorded when the margins at
# epochs 50 to 150 were raised, runs under the default envelope.
SUMMARY_SHA256 = {
    "p1-r4": (
        dict(surrogate="r4"),
        "c72f1187e7215ae11ac88f4a0ba18939ebecaf6d8a7bb3b67601d5206dbec002",
    ),
    "p3-none": (
        dict(preset="p3", surrogate="none"),
        "79ad7eef2c29205a4451505cb110ac49de430b67da1e9171078a521bf88d769e",
    ),
    "p2-r2-cap": (
        dict(preset="p2", surrogate="r2", seed=2, max_iterations=3),
        "7c1fedc1cb0dec4717add61a40915680a76cf38d346fbfe92bd0874d78d9126d",
    ),
    "p1-r1-floor": (
        dict(surrogate="r1", seed=1, min_mesh_index=0),
        "e41ab6c70304a92dd88222ac10cfc6aa2ce4aaef4493c3188fd55bd009e0c565",
    ),
    "failed-start": (
        dict(surrogate="none", seed=1, bbe_budget=12),
        "af0d845914745e300c9e1fa494316a3fccac7008730c51d5a339bfd6a985b467",
    ),
    "failed-start-only": (
        dict(surrogate="none", seed=1, max_iterations=0),
        "b7353755340551263a25db05ef4b7a975230debdf53ebf29004e7bc5930fffa8",
    ),
    "p1-r4-default-envelope": (
        dict(surrogate="r4", milestones=DEFAULT_MILESTONES, margins=DEFAULT_MARGINS),
        "21c01c5bfb85d264b6000f4b26628b200c962b5db238eab3a84015eed991db62",
    ),
}


def summary_digest(out_dir):
    """SHA-256 of the summary's bytes, every key but ``wall_seconds``."""
    lines = (out_dir / SUMMARY_NAME).read_text().splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith('  "wall_seconds": ')]
    assert len(kept) == len(lines) - 1
    return hashlib.sha256("".join(kept).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(SUMMARY_SHA256))
def test_summary_bytes_unchanged(case, tmp_path, monkeypatch):
    overrides, expected = SUMMARY_SHA256[case]
    settings = {"preset": "p1", "bbe_budget": GOLDEN_BUDGET, "seed": 0, "out_dir": tmp_path, **LEGACY_ENVELOPE,
                **overrides}
    if case.startswith("failed-start"):
        settings["initial"] = failing_start_point(monkeypatch)
    run(CampaignSettings(**settings))
    assert summary_digest(tmp_path) == expected


@pytest.mark.parametrize("seed", sorted(QUADRATIC_RECORDS_SHA256))
def test_quadratic_records_unchanged(seed):
    bounds = frozen_bounds()
    start = make_config((), (), **QUAD_START)
    center = to_vector(make_config((), (), **QUAD_CENTER), bounds)
    result = mads.run_campaign(start, 10**9, quadratic_plan(bounds, center, seed))
    digest = hashlib.sha256(repr(tuple(result.records)).encode()).hexdigest()
    assert digest == QUADRATIC_RECORDS_SHA256[seed]
    plan = quadratic_plan(bounds, center, seed)
    fresh = mads.CampaignState(incumbent=start, tape=mads.Tape(result.records, "quadratic"))
    taped = mads.continue_campaign(fresh, 10**9, plan)
    assert (taped.records, taped.termination) == (result.records, result.termination)


@pytest.mark.parametrize("case", sorted(CURVE_SHA256), ids=_case_id)
def test_curve_bytes_unchanged(case):
    name, seed, noise_sigma, epochs, fraction = case
    model = SimulatedBlackbox(noise_sigma=noise_sigma).model_for(CURVE_CONFIGS[name], seed)
    acc, loss = curve_arrays(model, epochs, fraction)
    assert hashlib.sha256(acc.tobytes() + loss.tobytes()).hexdigest() == CURVE_SHA256[case]


# (config, seed) -> SHA-256 of repr(model_for(config, seed)).  Accuracies are
# rounded to ACCURACY_QUANTUM, so a curve hash can miss a last-bit change in
# the model's parameters; this one cannot.
MODEL_SHA256 = {
    ("p1", 0): "cdd7c9b681ef37631c163a0b5ca89c8fc059e7541ea0ed154e5c0e9469e6264b",
    ("p1", 3): "f89388a9391fcc6fab05438fb3285a8844ab7145289d3654ca22fde5392577fe",
    ("p3", 0): "42932a731a199fad4a208e527325832df093be6b0418794c9fac7e406bfd403b",
    ("p3", 3): "bd3dc49f19af5922d2b06b26cfe8b5b22fc874312db7ebc6df0528303f2b5b74",
    ("p1-lr0.5", 0): "541a5e344f9c922e483d6c5da3f4fa4e77a8578341f686b09d8d6c9445f5875d",
    ("p1-lr0.5", 3): "11e7969b775e1a292c2896f2adbf73211c80a96cf46c659f21146fbca9bf2418",
    ("p1-lr0.95", 0): "6f0ff12dfa17dc64b8b6924df2b72326585671e96135b6ed20bb66a43f81597b",
    ("p1-lr0.95", 3): "59be52d82511702459c0e54ffdcdca163892017bbf2240a91e461441fef16a4e",
    ("p3+conv", 0): "455ac55bfb338ded144cfe6b1aa4effbd2a486fd30bea3b20f32aa4d44b540b0",
    ("p3+conv", 3): "262214b278eae8b8022c45856a7f99bc3286e998236cb5db0d423155cda69552",
    ("p3-conv", 0): "a74d3ba682ee26ed0a68ab4b1d4dd635694fbef652f4811c92d474c4e1471765",
    ("p3-conv", 3): "6db5ca38df4239c06e97cffc46b858a7974efeffec01681e5e9d64fd574c428d",
    ("p3+fc", 0): "cb07f2277415d1a0a5b03ea18ebd807f93309c5dfa9c21e962254bb5cf61999e",
    ("p3+fc", 3): "4d671c41417610b4d6e281cc7382f553fcfb13ce9b0f86bc074157bf5a90790b",
    ("p3-fc", 0): "ad1042d6ff45cf5a7570760b172ad99f1ec716f50fb2ae751d0716d2d7717609",
    ("p3-fc", 3): "8b6c433b6002e7e6344120df4da11323d5513575d1aa2eebd305f0970fe7b1cd",
    ("p3-adam", 0): "be169104a3463dc8ad82d22366d15d622b34e2b7d082ac27911ca2e86e740137",
    ("p3-adam", 3): "fd837a14f47797ea511ea21779225d5fcafd5ea3b242ec74556c4b21fabd6549",
    ("conv8", 0): "3ea41c0d319e5b8ab3488e6e0697948f72d5960b358757810faded8c7ffc6720",
    ("conv8", 3): "3a8153d96bc0666ed3f56bb9c1965564ac5a14faa6f9bb4c602eb2a2a6d312e8",
}


@pytest.mark.parametrize("case", sorted(MODEL_SHA256), ids=_case_id)
def test_model_params_unchanged(case):
    name, seed = case
    model = SimulatedBlackbox().model_for(CURVE_CONFIGS[name], seed)
    assert hashlib.sha256(repr(model).encode()).hexdigest() == MODEL_SHA256[case]


def _compensated_sum(values, start=0):
    """Neumaier's compensated sum, as ``sum`` of floats rounds from Python 3.12 on."""
    total, compensation = float(start), 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


def test_model_params_do_not_depend_on_how_sum_rounds(monkeypatch):
    # the MODEL_SHA256 configs and poll candidates around p1 and p3: with
    # sum() compensated as on Python 3.12, model_for must give the same bits
    cases = [(CURVE_CONFIGS[name], seed) for name, seed in sorted(MODEL_SHA256)]
    for preset, seed in (("p1", 0), ("p3", 3)):
        for index in (0, -2, -5):
            poll = mads.generate_poll(preset_config(preset), mads.Mesh(index), seed, default_bounds())
            cases += [(config, seed) for config in poll.candidates]
    plain = [repr(SimulatedBlackbox().model_for(config, seed)) for config, seed in cases]
    monkeypatch.setattr(blackbox, "sum", _compensated_sum, raising=False)
    assert [repr(SimulatedBlackbox().model_for(config, seed)) for config, seed in cases] == plain


# seed -> SHA-256 of f"{serialize(config)} {score!r}" for the best point of
# lattice_sweep at 200 epochs
LATTICE_SHA256 = {
    0: "92c6f3ecb16d4b76e60e04b2ec741f377d6718a1dee064159a807c6cf501b112",
    1: "dd0a2dc9bd5ecd840ff14a38dd3fe47cc7fdd2bc251d22de8e388c6a3879a6f2",
}


@pytest.mark.parametrize("seed", sorted(LATTICE_SHA256))
def test_lattice_sweep_best_unchanged(seed):
    config, score = lattice_sweep(SimulatedBlackbox(), default_bounds(), seed)
    digest = hashlib.sha256(f"{serialize(config)} {score!r}".encode()).hexdigest()
    assert digest == LATTICE_SHA256[seed]


# -- external backend ---------------------------------------------------------

# A line-protocol trainer for the external golden campaigns.  Standard library
# only and deterministic: the curve is a saturating exponential whose level and
# pace fall with the distance of learning rate, dropout and momentum from a
# fixed optimum, so far-off candidates fall under the envelope.  A config whose
# digest is divisible by 4 finishes with DONE after a third of its epochs,
# before the parent asks it to stop.  Every line the trainer receives is
# appended to the transcript file named by its first argument.
GOLDEN_TRAINER = """\
import hashlib, math, sys

transcript = open(sys.argv[1], "a")

def receive():
    line = sys.stdin.readline()
    transcript.write(line)
    transcript.flush()
    return line.split()

header = receive()
at = header.index("EPOCHS")
config = " ".join(header[1:at])
epochs = int(header[at + 1])
fraction = float(header[header.index("FRACTION") + 1])
values = dict(token.split("=", 1) for token in header[1:at])
lr = float(values["learning_rate"])
distance = (
    ((math.log10(lr) + 2.5) / 1.2) ** 2
    + ((float(values["dropout"]) - 0.4) / 0.3) ** 2
    + ((float(values["momentum"]) - 0.85) / 0.2) ** 2
)
digest = hashlib.sha256((config + " " + header[-1]).encode()).digest()
level = 0.15 + 0.8 * math.exp(-distance) * (0.8 + 0.2 * fraction) + 0.03 * digest[0] / 255
tau = 4.0 + 30.0 * (1.0 - math.exp(-distance)) + 8.0 * digest[1] / 255
last = -(-epochs // 3) if digest[2] % 4 == 0 else epochs
for epoch in range(1, last + 1):
    acc = round(0.1 + (min(level, 0.99) - 0.1) * (1.0 - math.exp(-epoch / tau)), 4)
    print(f"EPOCH {epoch} ACC {acc!r} LOSS {-math.log(acc)!r} LR {lr!r}", flush=True)
    if receive() != ["CONTINUE"]:
        break
print("DONE", flush=True)
"""

EXTERNAL_BUDGET = 6

# surrogate -> SHA-256 of (ledger.csv, trainer transcript) of a p1, seed-0,
# scheduler+baseline campaign at EXTERNAL_BUDGET BBE on GOLDEN_TRAINER under
# LEGACY_ENVELOPE
EXTERNAL_SHA256 = {
    "none": (
        "283c2002e9bb167a4b787ba57745432a514b049a35c6584f523112d26eadae6d",
        "29f9fc01f414082b856c1ab773c7f5374593a40ffcc86afc78b20964f610a106",
    ),
    "r2": (
        "d75fc9ec728c0ddc70d02881ae3859fd1250d16c3e4bc22ace783d7163447fd0",
        "d6c34d8d949f6476d24cf5bf0785db09e5978138da3e1127bc28697357e2e1ad",
    ),
}

# the same under the default envelope, recorded when its margins at epochs 50 to 150 were raised
DEFAULT_EXTERNAL_SHA256 = {
    "none": (
        "dcd309fde673fb200a3589f59e7ccc705cf9e648d1456a11aadd3cb57621c3be",
        "102b832450d6f198f690c7bbc676e1e9c7360ec9703d8ba7a05a791225df2c96",
    ),
    "r2": (
        "d1becf084ade815e8dd7bc4dfe93405d4c44cfb10ccda8f56e4c2dbaa003b74e",
        "d6c34d8d949f6476d24cf5bf0785db09e5978138da3e1127bc28697357e2e1ad",
    ),
}


def assert_external_bytes(surrogate, envelope, expected, tmp_path):
    trainer = tmp_path / "trainer.py"
    trainer.write_text(GOLDEN_TRAINER)
    transcript = tmp_path / "transcript.txt"
    command = shlex.join([sys.executable, "-S", "-u", str(trainer), str(transcript)])
    result = run(CampaignSettings(
        preset="p1", bbe_budget=EXTERNAL_BUDGET, seed=0, stop_mode="scheduler+baseline",
        surrogate=surrogate, backend="external", external_command=command, out_dir=tmp_path / "out", **envelope,
    ))
    if surrogate == "none":
        # a full training stopped at the envelope; under LEGACY_ENVELOPE another ended
        # before EPOCHS n, after 67 epochs, which the default margin at epoch 50 cuts first
        full = [r for r in result.records if r.kind == KIND_FULL]
        assert any(r.stop_reason == "envelope-breach" for r in full)
        early = [r.epochs_used for r in full if r.stop_reason == "none" and r.epochs_used < 200]
        assert early == ([67] if envelope == LEGACY_ENVELOPE else [])
    else:
        # the estimates ran over the protocol too
        assert any(r.kind == KIND_SURROGATE for r in result.records)
    # the header names the trainer by its path, which differs between runs
    ledger = (tmp_path / "out" / LEDGER_NAME).read_text().replace(command, "TRAINER")
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (ledger, transcript.read_text()))
    assert digests == expected
    assert_reads_back(tmp_path / "out" / LEDGER_NAME, result)


@pytest.mark.parametrize("surrogate", sorted(EXTERNAL_SHA256))
def test_external_ledger_and_transcript_unchanged(surrogate, tmp_path):
    assert_external_bytes(surrogate, LEGACY_ENVELOPE, EXTERNAL_SHA256[surrogate], tmp_path)


@pytest.mark.parametrize("surrogate", sorted(DEFAULT_EXTERNAL_SHA256))
def test_default_envelope_external_ledger_and_transcript_unchanged(surrogate, tmp_path):
    assert_external_bytes(surrogate, {}, DEFAULT_EXTERNAL_SHA256[surrogate], tmp_path)
