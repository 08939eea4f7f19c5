"""The four benchmark workloads and the settings each one hands the program.

Every workload is a closed loop with one operation in flight.  An op is
one campaign, or one resume in ``p1-resume``.  Campaign seeds come from
the benchmark's ``--seed`` through :func:`campaign_seeds`; the program
only ever sees the generated settings.
"""

from __future__ import annotations

import hashlib
import json
import shlex
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from madshpo import campaign, mads
from madshpo.blackbox import EvaluationResult
from madshpo.campaign import LEDGER_NAME, SUMMARY_NAME, CampaignSettings
from madshpo.early_stop import DEFAULT_MARGINS, DEFAULT_MILESTONES, REASON_ENVELOPE, TrainingHistory
from madshpo.space import SpaceBounds, default_bounds, make_config, quantitative_slots, to_vector
from madshpo.surrogates import surrogate_by_name

STUB_TRAINER = Path(__file__).resolve().parent / "stub_trainer.py"

# The quadratic problem of acceptance criterion 5, kept here so the
# benchmark does not depend on the test suite.
QUAD_START = dict(
    learning_rate=1e-4, batch_size=256, dropout=0.7, weight_decay=1e-3, momentum=0.2,
    lr_decay=0.8, grad_clip=0.5, label_smoothing=0.25, epoch_scale=0.6,
)
QUAD_CENTER = dict(
    learning_rate=3e-3, batch_size=256, dropout=0.35, weight_decay=2e-5, momentum=0.85,
    lr_decay=0.45, grad_clip=2.5, label_smoothing=0.12, epoch_scale=1.3,
)
QUAD_BUDGET = 10**9
STOP_MODE = "scheduler+baseline"


def campaign_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` distinct campaign seeds derived from the workload seed."""
    out: list[int] = []
    i = 0
    while len(out) < count:
        digest = hashlib.sha256(f"{workload}\x1f{seed}\x1f{i}".encode()).digest()
        value = int.from_bytes(digest[:4], "big") % 1_000_000
        if value not in out:
            out.append(value)
        i += 1
    return out


@dataclass
class OpOutput:
    """What one op hands to the output checks.

    ``ledger`` is the file the op wrote, or None when the API persists
    nothing (the checks then write ``records`` themselves, untimed).
    ``budget`` is None for an unbounded campaign.
    """

    records: tuple
    best_score: float
    budget: float | None
    ledger: Path | None = None
    summary: dict | None = None
    reference: bytes | None = None


class Workload:
    name = ""
    pool_size = 1
    # A stop reason that some full training of the run must end with.
    required_stop: str | None = None

    def __init__(self, tiny: bool = False) -> None:
        # A tiny workload is the self-test's size: two seeds, small budgets.
        self.tiny = tiny
        if tiny:
            self.pool_size = 2

    def settings(self) -> dict:
        """Settings shared by every op, as recorded with the result."""
        raise NotImplementedError

    def build(self, seed: int, op_dir: Path):
        """Settings and plan for one campaign seed: the work ``setup_s`` times."""
        raise NotImplementedError

    def prepare(self, seeds: list[int], work: Path) -> None:
        """Untimed inputs made once, before the first op."""

    def stage(self, seed: int, op_dir: Path) -> None:
        """Untimed per-op preparation."""
        op_dir.mkdir(parents=True)

    def execute(self, seed: int, op_dir: Path) -> OpOutput:
        """The timed op."""
        raise NotImplementedError


def frozen_bounds() -> SpaceBounds:
    """No layers and one optimizer: a purely quantitative 9-slot space."""
    b = default_bounds()
    return SpaceBounds(
        n_conv_range=(0, 0),
        n_fc_range=(0, 0),
        conv_slots=b.conv_slots,
        fc_slot=b.fc_slot,
        optimizers=("sgd",),
        scalar_slots=b.scalar_slots,
    )


def quadratic_plan(bounds: SpaceBounds, seed: int, max_iterations: int) -> mads.RunPlan:
    """Separable quadratic with its optimum (score 1.0) at ``QUAD_CENTER``."""
    center = to_vector(make_config((), (), **QUAD_CENTER), bounds)
    slots = quantitative_slots(bounds, 0, 0)
    spans = np.array([s.spec.internal_upper - s.spec.internal_lower for s in slots])
    weights = 1.0 / spans**2

    def score(config):
        v = to_vector(config, bounds)
        return 1.0 - float(np.sum(weights * (v - center) ** 2))

    def full_eval(config, monitor):
        h = TrainingHistory()
        h.append(1, min(max(score(config), 0.0), 1.0), 0.0, config.learning_rate)
        return EvaluationResult(h, score(config), 1, "none", 1.0)

    return mads.RunPlan(
        bounds=bounds,
        seed=seed,
        surrogate=surrogate_by_name("none"),
        stop_mode="none",
        milestones=DEFAULT_MILESTONES,
        margins=DEFAULT_MARGINS,
        full_eval=full_eval,
        fidelity_eval=lambda c, e, f: score(c),
        charge_ranking=False,
        min_mesh_index=-60,
        max_iterations=max_iterations,
    )


class QuadPoll(Workload):
    name = "quad-poll"
    pool_size = 12

    def max_iterations(self) -> int:
        return 20 if self.tiny else 500

    def settings(self) -> dict:
        return {
            "api": "mads.run_campaign",
            "space": "9 quantitative slots, no layers, one optimizer",
            "objective": "analytic quadratic as RunPlan.full_eval",
            "rank": "none",
            "stop": "none",
            "budget_bbe": QUAD_BUDGET,
            "min_mesh_index": -60,
            "max_iterations": self.max_iterations(),
        }

    def build(self, seed: int, op_dir: Path):
        plan = quadratic_plan(frozen_bounds(), seed, self.max_iterations())
        return make_config((), (), **QUAD_START), plan

    def execute(self, seed: int, op_dir: Path) -> OpOutput:
        start, plan = self.build(seed, op_dir)
        result = mads.run_campaign(start, QUAD_BUDGET, plan)
        return OpOutput(result.records, result.best_score, None)


class CampaignRun(Workload):
    """``campaign.run`` of one preset into a fresh output directory per op."""

    preset = "p1"
    budget = 0
    tiny_budget = 0
    backend = "simulated"
    surrogate = "r4"

    def budget_bbe(self) -> int:
        return self.tiny_budget if self.tiny else self.budget

    def campaign_settings(self, seed: int, op_dir: Path) -> CampaignSettings:
        external = None
        if self.backend == "external":
            external = shlex.join([sys.executable, "-u", str(STUB_TRAINER)])
        return CampaignSettings(
            preset=self.preset,
            bbe_budget=self.budget_bbe(),
            stop_mode=STOP_MODE,
            surrogate=self.surrogate,
            seed=seed,
            out_dir=op_dir,
            backend=self.backend,
            external_command=external,
        )

    def settings(self) -> dict:
        return {
            "api": "campaign.run",
            "preset": self.preset,
            "budget_bbe": self.budget_bbe(),
            "stop": STOP_MODE,
            "rank": self.surrogate,
            "backend": self.backend,
        }

    def build(self, seed: int, op_dir: Path):
        settings = self.campaign_settings(seed, op_dir)
        return settings, campaign.build_plan(settings)

    def execute(self, seed: int, op_dir: Path) -> OpOutput:
        settings = self.campaign_settings(seed, op_dir)
        result = campaign.run(settings)
        return self._output(settings, result)

    @staticmethod
    def _output(settings: CampaignSettings, result, reference: bytes | None = None) -> OpOutput:
        out = Path(settings.out_dir)
        summary = json.loads((out / SUMMARY_NAME).read_text())
        return OpOutput(result.records, result.best_score, settings.bbe_budget,
                        out / LEDGER_NAME, summary, reference)


class P3Campaign(CampaignRun):
    name = "p3-campaign"
    pool_size = 16
    preset = "p3"
    budget = 400
    tiny_budget = 30


class P1Resume(CampaignRun):
    name = "p1-resume"
    pool_size = 6
    preset = "p1"
    budget = 1000
    tiny_budget = 30

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.references: dict[int, bytes] = {}

    def settings(self) -> dict:
        return {**super().settings(), "api": "campaign.resume of the finished campaign's ledger"}

    def prepare(self, seeds: list[int], work: Path) -> None:
        for seed in seeds:
            out = work / f"reference-{seed}"
            campaign.run(self.campaign_settings(seed, out))
            self.references[seed] = (out / LEDGER_NAME).read_bytes()
            shutil.rmtree(out)

    def stage(self, seed: int, op_dir: Path) -> None:
        op_dir.mkdir(parents=True)
        (op_dir / LEDGER_NAME).write_bytes(self.references[seed])

    def execute(self, seed: int, op_dir: Path) -> OpOutput:
        settings = self.campaign_settings(seed, op_dir)
        result = campaign.resume(settings)
        return self._output(settings, result, self.references[seed])


class P1External(CampaignRun):
    name = "p1-external"
    pool_size = 12
    preset = "p1"
    budget = 10
    tiny_budget = 4
    backend = "external"
    surrogate = "none"
    required_stop = REASON_ENVELOPE

    def settings(self) -> dict:
        return {**super().settings(), "external_command": "python3 -u benchmark/stub_trainer.py"}


WORKLOADS = {w.name: w for w in (QuadPoll, P3Campaign, P1Resume, P1External)}
