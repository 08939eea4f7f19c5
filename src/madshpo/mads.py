"""Mesh adaptive direct search over the mixed hyperparameter space.

Each iteration polls the incumbent along a randomized maximal positive
basis scaled by the poll size, snaps every point to the mesh, appends the
categorical neighbors projected to the same mesh, optionally sorts the
candidates with a low-fidelity surrogate, and evaluates them
opportunistically (stop at the first improvement).  ``Mesh`` is the only
code that knows the mesh geometry; ``update_mesh`` coarsens it after a
success (up to ``MAX_MESH_INDEX``) and refines it after a failure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .blackbox import EvaluationResult
from .early_stop import BaselineEnvelope, StoppingMonitor, update_baseline
from .ledger import KIND_FULL, KIND_RANKING, KIND_SURROGATE, LedgerRecord
# benchmark/tracing.py wraps serialize, with_vector, to_vector,
# quantitative_slots, neighbors and snap_array by these names in this
# module, so they stay module attributes here and Mesh looks them up here.
from .space import (  # noqa: F401
    Configuration,
    SlotLayout,
    SpaceBounds,
    neighbors,
    quantitative_slots,
    serialize,
    slot_layout,
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

# The coarsest mesh index: campaigns start here and never coarsen past it.
MAX_MESH_INDEX = 0

# Largest |value/step| for which mesh snapping is numerically meaningful;
# beyond this the mesh is finer than float64 resolution and values pass
# through untouched (keeps projection exactly idempotent).
_SNAP_LIMIT = 2.0**52


def snap_array(values: np.ndarray, steps: np.ndarray, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """Snap internal-scale values to the nearest in-bounds mesh point.

    The mesh multiplier is rounded and then clamped into the feasible grid
    range, so bound-clipped values land on a mesh point and projection is
    exactly idempotent.  Slots with no mesh point inside the bounds, and
    values so large that the step is below float resolution, fall back to
    plain clipping.  ``values`` may also be an (n, m) matrix of m points,
    with the per-slot arrays given as (n, 1) columns.
    """
    values = np.asarray(values, dtype=float)
    ratio = values / steps
    k_min = np.ceil(lowers / steps - 1e-9)
    k_max = np.floor(uppers / steps + 1e-9)
    k = np.clip(np.round(ratio), k_min, k_max)
    snapped = np.where((np.abs(ratio) < _SNAP_LIMIT) & (k_min <= k_max), steps * k, values)
    return np.clip(snapped, lowers, uppers)


@dataclass(frozen=True)
class Mesh:
    """The mesh of one iteration, fixed by its index.

    Per slot, the poll size is one tenth of the slot's internal range (at
    least its granularity) times ``2**index``, and the mesh spacing is that
    size rounded to a positive multiple of the granularity, so integer
    slots stay on their lattice however fine the mesh gets.  ``index``
    starts at ``MAX_MESH_INDEX``; a campaign terminates once it falls below
    the configured minimum.
    """

    index: int = MAX_MESH_INDEX

    def poll_sizes(self, layout: SlotLayout) -> np.ndarray:
        """Poll size per slot, in internal units."""
        base = np.maximum(layout.granularity, (layout.uppers - layout.lowers) / 10.0)
        return base * 2.0**self.index

    def spacing(self, layout: SlotLayout) -> np.ndarray:
        """Mesh spacing per slot: the poll size rounded to a positive multiple of the granularity."""
        gran = layout.granularity
        return gran * np.maximum(1.0, np.round(self.poll_sizes(layout) / gran))

    def snap(self, layout: SlotLayout, values: np.ndarray) -> np.ndarray:
        """Snap a vector in slot order, or each column of an (n, m) matrix,
        to the nearest in-bounds point of this mesh."""
        steps, lowers, uppers = self.spacing(layout), layout.lowers, layout.uppers
        if np.ndim(values) == 2:
            steps, lowers, uppers = steps[:, None], lowers[:, None], uppers[:, None]
        return snap_array(values, steps, lowers, uppers)

    def project(self, config: Configuration, bounds: SpaceBounds) -> Configuration:
        """Snap every quantitative slot to this mesh and clip it into bounds.

        Categorical slots are untouched.  Projection is idempotent: mesh
        points map to themselves and clipped bounds stay put.
        """
        layout = slot_layout(bounds, config.n_conv, config.n_fc)
        return with_vector(config, bounds, self.snap(layout, to_vector(config, bounds)))


@dataclass(frozen=True)
class PollCandidate:
    """A configuration to evaluate, where it came from, and its surrogate
    estimate once ranked."""

    config: Configuration
    origin: str
    estimate: float | None = None


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
    x = to_vector(incumbent, bounds)
    points = mesh.snap(layout, x[:, None] + mesh.poll_sizes(layout)[:, None] * directions)

    seen = {incumbent.key}
    candidates: list[PollCandidate] = []

    def add(config: Configuration, origin: str) -> None:
        if config.key not in seen:
            seen.add(config.key)
            candidates.append(PollCandidate(config, origin))

    # Equal snapped columns give equal configurations, so only the first
    # of each is built; the serialized key still decides what is new.
    snapped_seen: set[bytes] = set()
    for column in points.T:
        raw = column.tobytes()
        if raw not in snapped_seen:
            snapped_seen.add(raw)
            add(with_vector(incumbent, bounds, column.tolist()), ORIGIN_DIRECTION)
    for neighbor in neighbors(incumbent, bounds):
        add(mesh.project(neighbor, bounds), ORIGIN_NEIGHBOR)
    return PollSet(tuple(candidates), directions)


def update_mesh(mesh: Mesh, success: bool) -> Mesh:
    """Coarsen after a success (capped at ``MAX_MESH_INDEX``), refine after a failure."""
    if success:
        return Mesh(min(mesh.index + 1, MAX_MESH_INDEX))
    return Mesh(mesh.index - 1)


def opportunistic_evaluate(
    candidates: Sequence,
    incumbent_score: float,
    evaluator: Callable,
) -> bool:
    """Evaluate candidates in order, stopping at the first strict improvement.

    The evaluator maps a candidate to its score.  A candidate whose
    evaluator raises is never an improvement, whatever ``incumbent_score``
    is, and evaluation continues.  Returns whether some candidate scored
    above ``incumbent_score``.
    """
    for candidate in candidates:
        try:
            score = float(evaluator(candidate))
        except Exception as exc:  # noqa: BLE001 - failed-candidate contract
            logger.warning("candidate evaluation failed: %s", exc)
            continue
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
    update incumbent/baseline.  Returns the score the poll compares with the
    incumbent: ``-inf`` for a failure, which never becomes the incumbent."""
    config = candidate.config
    monitor = None if plan.stop_mode == "none" else StoppingMonitor(plan.stop_mode, state.envelope)
    try:
        result = plan.full_eval(config, monitor)
    except Exception as exc:  # noqa: BLE001 - failed-candidate contract
        logger.warning("full evaluation raised: %s", exc)
        result = EvaluationResult.failure()
    improved = not result.failed and result.final_val_accuracy > state.incumbent_score
    state.record(KIND_FULL, config.key, result.final_val_accuracy, result.epochs_used,
                 result.stop_reason, 1.0, improved, iteration)
    if not result.failed:
        state.envelope = update_baseline(
            state.envelope, result.history, result.final_val_accuracy, state.incumbent_score
        )
    if improved:
        state.incumbent = config
        state.incumbent_score = result.final_val_accuracy
    return -math.inf if result.failed else result.final_val_accuracy


def _record_ranking(state: CampaignState, plan: RunPlan, ranked, iteration: int) -> None:
    for cand in ranked.candidates:
        state.record(KIND_SURROGATE, cand.config.key, cand.estimate, plan.surrogate.epoch_budget, "none",
                     plan.estimate_charge, False, iteration)
    top = ranked.candidates[0]
    state.record(KIND_RANKING, top.config.key, top.estimate, 0, "none", 0.0, False, iteration)


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
