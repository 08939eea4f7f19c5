"""Mesh adaptive direct search over the mixed hyperparameter space.

Each iteration polls the incumbent along a randomized maximal positive
basis scaled by the current mesh size, appends the categorical neighbors,
optionally sorts the candidates with a low-fidelity surrogate, and
evaluates them opportunistically (stop at the first improvement).  The
mesh doubles after a success (up to its initial size) and halves after a
failure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .blackbox import WORST_SCORE, EvaluationResult
from .early_stop import BaselineEnvelope, StoppingMonitor, update_baseline
from .ledger import KIND_FULL, KIND_RANKING, KIND_SURROGATE, LedgerRecord
# serialize, with_vector, snap_array, to_vector, quantitative_slots and
# neighbors stay module attributes here: benchmark/tracing.py wraps them
# by these names.
from .space import (  # noqa: F401
    Configuration,
    Slot,
    SlotSpec,
    SpaceBounds,
    mesh_steps,
    neighbors,
    project_to_mesh,
    quantitative_slots,
    serialize,
    slot_layout,
    snap_array,
    to_vector,
    validate,
    with_vector,
)
from .surrogates import SurrogateSpec, rank_candidates
from .util import hash_u64

logger = logging.getLogger(__name__)

ORIGIN_DIRECTION = "poll-direction"
ORIGIN_NEIGHBOR = "categorical-neighbor"
ORIGIN_INITIAL = "initial"


@dataclass(frozen=True)
class Mesh:
    """Mesh size state: per-slot step = base step * 2**index.

    The base step for a slot is one tenth of its internal range (at least
    the granularity); ``index`` never exceeds ``max_index`` (its starting
    value) and a campaign terminates once it falls below the configured
    minimum.
    """

    index: int = 0
    max_index: int = 0

    def delta_for(self, spec: SlotSpec) -> float:
        span = spec.internal_upper - spec.internal_lower
        base = max(spec.granularity, span / 10.0)
        return base * 2.0**self.index

    def delta_vector(self, slots: Sequence[Slot]) -> np.ndarray:
        return np.array([self.delta_for(s.spec) for s in slots])

    def max_delta(self, slots: Sequence[Slot]) -> float:
        return float(self.delta_vector(slots).max())


@dataclass(frozen=True)
class PollCandidate:
    """A configuration to evaluate, where it came from, its serialized form
    (computed when not given), which is also its ledger text, and its
    surrogate estimate once ranked."""

    config: Configuration
    origin: str
    key: str | None = None
    estimate: float | None = None

    def __post_init__(self) -> None:
        if self.key is None:
            object.__setattr__(self, "key", serialize(self.config))


@dataclass(frozen=True)
class PollSet:
    candidates: tuple[PollCandidate, ...]
    directions: np.ndarray


def poll_directions(n: int, seed: int) -> np.ndarray:
    """Maximal positive basis: a seeded random orthogonal set and its negation.

    Returns an (n, 2n) matrix whose columns are the directions.  The QR
    sign fix makes the basis a deterministic function of the seed; columns
    are rescaled to unit max-component so each direction advances its
    dominant slot by a full mesh step.
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if n > 1:
        q = q / np.abs(q).max(axis=0, keepdims=True)
    return np.hstack([q, -q])


def generate_poll(incumbent: Configuration, mesh: Mesh, seed: int, bounds: SpaceBounds) -> PollSet:
    """Poll set around the incumbent: 2n direction points plus categorical neighbors.

    Every candidate is projected to the current mesh and clipped into
    bounds; duplicates (including copies of the incumbent) are dropped.
    Deterministic for a fixed (incumbent, mesh, seed).
    """
    layout = slot_layout(bounds, incumbent.n_conv, incumbent.n_fc)
    directions = poll_directions(len(layout.slots), seed)
    deltas = mesh.delta_vector(layout.slots)
    steps = mesh_steps(layout, deltas)
    x = to_vector(incumbent, bounds)
    points = snap_array(
        x[:, None] + deltas[:, None] * directions,
        steps[:, None],
        layout.lowers[:, None],
        layout.uppers[:, None],
    )

    seen = {serialize(incumbent)}
    candidates: list[PollCandidate] = []

    def add(config: Configuration, origin: str) -> None:
        key = serialize(config)
        if key not in seen:
            seen.add(key)
            candidates.append(PollCandidate(config, origin, key))

    # Equal snapped columns give equal configurations, so only the first
    # of each is built; the serialized key still decides what is new.
    snapped_seen: set[bytes] = set()
    for column in points.T:
        raw = column.tobytes()
        if raw not in snapped_seen:
            snapped_seen.add(raw)
            add(with_vector(incumbent, bounds, column.tolist()), ORIGIN_DIRECTION)
    for neighbor in neighbors(incumbent, bounds):
        add(project_to_mesh(neighbor, mesh, bounds), ORIGIN_NEIGHBOR)
    return PollSet(tuple(candidates), directions)


def update_mesh(mesh: Mesh, success: bool) -> Mesh:
    """Coarsen after a success (capped at the starting index), refine after a failure."""
    if success:
        return Mesh(min(mesh.index + 1, mesh.max_index), mesh.max_index)
    return Mesh(mesh.index - 1, mesh.max_index)


def opportunistic_evaluate(
    candidates: Sequence,
    incumbent_score: float,
    evaluator: Callable,
) -> bool:
    """Evaluate candidates in order, stopping at the first strict improvement.

    The evaluator maps a candidate to its score; an evaluator failure marks
    that candidate with the worst score and evaluation continues.  Returns
    whether some candidate scored above ``incumbent_score``.
    """
    for candidate in candidates:
        try:
            score = float(evaluator(candidate))
        except Exception as exc:  # noqa: BLE001 - worst-score contract
            logger.warning("candidate evaluation failed: %s", exc)
            score = WORST_SCORE
        if score > incumbent_score:
            return True
    return False


# -- campaign loop -----------------------------------------------------------


@dataclass
class RunPlan:
    """Everything the campaign loop needs besides the initial point and budget."""

    bounds: SpaceBounds
    seed: int
    surrogate: SurrogateSpec
    stop_mode: str
    milestones: tuple[int, ...]
    margins: tuple[float, ...]
    full_eval: Callable  # (config, monitor | None) -> EvaluationResult
    fidelity_eval: Callable  # (config, epochs, data_fraction) -> float
    charge_ranking: bool = True
    min_mesh_index: int = -50
    max_iterations: int | None = None

    @property
    def estimate_charge(self) -> float:
        """BBE charged per surrogate estimate."""
        return self.surrogate.cost_ratio if self.charge_ranking else 0.0


@dataclass
class CampaignState:
    records: list[LedgerRecord] = field(default_factory=list)
    cumulative: float = 0.0
    incumbent: Configuration | None = None
    incumbent_score: float = -math.inf
    envelope: BaselineEnvelope | None = None
    mesh: Mesh = field(default_factory=Mesh)
    next_iteration: int = 0

    def record(self, kind: str, key: str, score: float, epochs: int, reason: str,
               charge: float, incumbent: bool, iteration: int) -> None:
        """Charge ``charge`` BBE and append a ledger row stamped with its
        index, the running cost and the current mesh index."""
        self.cumulative += charge
        self.records.append(LedgerRecord(
            record_index=len(self.records),
            kind=kind,
            config=key,
            score=score,
            epochs_used=epochs,
            stop_reason=reason,
            charged_cost=charge,
            cumulative_cost=self.cumulative,
            incumbent=incumbent,
            iteration=iteration,
            mesh_index=self.mesh.index,
        ))


@dataclass(frozen=True)
class CampaignResult:
    records: tuple[LedgerRecord, ...]
    best_config: Configuration
    best_score: float
    total_cost: float
    iterations: int
    termination: str
    final_mesh_index: int


def iteration_seed(seed: int, iteration: int) -> int:
    return hash_u64("poll-directions", seed, iteration)


def _full_evaluation(
    state: CampaignState, plan: RunPlan, candidate: PollCandidate, iteration: int
) -> float:
    """Run one full evaluation of a poll candidate, charge it, record it,
    update incumbent/baseline."""
    config = candidate.config
    monitor = None if plan.stop_mode == "none" else StoppingMonitor(plan.stop_mode, state.envelope)
    try:
        result = plan.full_eval(config, monitor)
    except Exception as exc:  # noqa: BLE001 - failed-candidate contract
        logger.warning("full evaluation raised: %s", exc)
        result = EvaluationResult.failure()
    improved = result.final_val_accuracy > state.incumbent_score
    state.record(KIND_FULL, candidate.key, result.final_val_accuracy, result.epochs_used,
                 result.stop_reason, 1.0, improved, iteration)
    if not result.failed:
        state.envelope = update_baseline(
            state.envelope, result.history, result.final_val_accuracy, state.incumbent_score
        )
    if improved:
        state.incumbent = config
        state.incumbent_score = result.final_val_accuracy
    return result.final_val_accuracy


def _record_ranking(state: CampaignState, plan: RunPlan, ranked, iteration: int) -> None:
    for cand in ranked.candidates:
        state.record(KIND_SURROGATE, cand.key, cand.estimate, plan.surrogate.epoch_budget, "none",
                     plan.estimate_charge, False, iteration)
    top = ranked.candidates[0]
    state.record(KIND_RANKING, top.key, top.estimate, 0, "none", 0.0, False, iteration)


def run_campaign(initial: Configuration, budget_bbe: int, plan: RunPlan) -> CampaignResult:
    """Full campaign: initial evaluation, then poll iterations until the
    budget runs out, the mesh bottoms out, or the iteration cap is hit."""
    if budget_bbe <= 0:
        raise ValueError("budget_bbe must be positive")
    problems = validate(initial, plan.bounds)
    if problems:
        raise ValueError("invalid initial configuration: " + "; ".join(problems))
    state = CampaignState(incumbent=initial, envelope=BaselineEnvelope(None, plan.milestones, plan.margins))
    _full_evaluation(state, plan, PollCandidate(initial, ORIGIN_INITIAL), iteration=0)
    state.next_iteration = 1
    return continue_campaign(state, budget_bbe, plan)


def continue_campaign(state: CampaignState, budget_bbe: float, plan: RunPlan) -> CampaignResult:
    """Iterate from an existing state (used directly by resume)."""
    termination = "budget"
    while True:
        if state.mesh.index < plan.min_mesh_index:
            termination = "mesh"
            break
        if plan.max_iterations is not None and state.next_iteration > plan.max_iterations:
            termination = "iterations"
            break
        k = state.next_iteration
        poll = generate_poll(state.incumbent, state.mesh, iteration_seed(plan.seed, k), plan.bounds)
        ranking_cost = len(poll.candidates) * plan.estimate_charge
        if state.cumulative + ranking_cost + 1.0 > budget_bbe + 1e-9:
            termination = "budget"
            break
        state.mesh = update_mesh(state.mesh, _poll_step(state, plan, poll, k, budget_bbe))
        state.next_iteration += 1

    return CampaignResult(
        records=tuple(state.records),
        best_config=state.incumbent,
        best_score=state.incumbent_score,
        total_cost=state.cumulative,
        iterations=state.next_iteration - 1,
        termination=termination,
        final_mesh_index=state.mesh.index,
    )


def _poll_step(state: CampaignState, plan: RunPlan, poll: PollSet, k: int, budget: float) -> bool:
    """Rank the poll and evaluate what the budget affords; True on an improvement."""
    if not poll.candidates:
        return False
    ranked = rank_candidates(poll.candidates, plan.surrogate, plan.fidelity_eval)
    if not plan.surrogate.disabled:
        _record_ranking(state, plan, ranked, k)
    affordable = int(math.floor(budget - state.cumulative + 1e-9))
    return opportunistic_evaluate(
        ranked.candidates[:affordable],
        state.incumbent_score,
        lambda cand: _full_evaluation(state, plan, cand, k),
    )
