"""Mesh adaptive direct search over the mixed hyperparameter space.

Each iteration polls the incumbent along a randomized maximal positive
basis scaled by the poll size, snaps every point to the mesh, appends the
categorical neighbors projected to the same mesh, optionally sorts the
candidates with a low-fidelity surrogate, and evaluates them
opportunistically (stop at the first improvement).  ``Mesh`` is the only
code that knows the mesh geometry.  ``CampaignState`` makes every ledger
row and owns the end of an iteration, where a success coarsens the mesh
(up to ``MAX_MESH_INDEX``) and a failure refines it.  ``continue_campaign``
is the one campaign loop: ``run_campaign`` enters it with a fresh state,
its start point.  The loop runs every state against its ``Tape``, by
default one of no rows; a tape of a ledger's rows is how ``campaign``
checks a ledger for export and continues it for resume.
``_full_evaluation`` owns the incumbent rule: one of
``blackbox.TRAINER_FAULTS`` from ``full_eval`` becomes a charged failure
row, and any other error ends the campaign.  ``blackbox.train`` and
``surrogates.estimate`` also turn such a fault into a failed result or a
worst score.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .blackbox import TRAINER_FAULTS, WORST_SCORE, EvaluationResult
from .early_stop import REASON_NONE, BaselineEnvelope, StoppingMonitor, TrainingHistory, update_baseline
from .ledger import COLUMNS, KIND_FULL, KIND_RANKING, KIND_SURROGATE, LedgerRecord, check_plain
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

# The coarsest mesh index: campaigns start here and never coarsen past it.
MAX_MESH_INDEX = 0
# BBE by which the running sum of charges may pass the budget: float rounding.
BUDGET_SLACK = 1e-9

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

    def snap(self, layout: SlotLayout, points: np.ndarray) -> np.ndarray:
        """Snap each column of an (n, m) matrix of points in slot order to
        the nearest in-bounds point of this mesh."""
        return snap_array(points, self.spacing(layout)[:, None], layout.lowers[:, None], layout.uppers[:, None])

    def project(self, config: Configuration, bounds: SpaceBounds) -> Configuration:
        """Snap every quantitative slot to this mesh and clip it into bounds.

        Categorical slots are untouched.  Projection is idempotent: mesh
        points map to themselves and clipped bounds stay put.
        """
        layout = slot_layout(bounds, config.n_conv, config.n_fc)
        return with_vector(config, bounds, self.snap(layout, to_vector(config, bounds)[:, None])[:, 0])


@dataclass(frozen=True)
class PollSet:
    """Direction points, then categorical neighbors: the candidates whose
    layer counts or optimizer differ from the incumbent's."""

    candidates: tuple[Configuration, ...]
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
    candidates: list[Configuration] = []

    def add(config: Configuration) -> None:
        if config.key not in seen:
            seen.add(config.key)
            candidates.append(config)

    # Equal snapped columns give equal configurations, so only the first
    # of each is built; the serialized key still decides what is new.
    snapped_seen: set[bytes] = set()
    for column in points.T:
        raw = column.tobytes()
        if raw not in snapped_seen:
            snapped_seen.add(raw)
            add(with_vector(incumbent, bounds, column.tolist()))
    for neighbor in neighbors(incumbent, bounds):
        add(mesh.project(neighbor, bounds))
    return PollSet(tuple(candidates), directions)


# -- campaign loop -----------------------------------------------------------


@dataclass(frozen=True)
class RunPlan:
    """Everything the campaign loop needs besides the initial point and budget.
    A value: built or ``replace``d, it refuses loop settings that cannot take effect."""

    bounds: SpaceBounds
    seed: int
    surrogate: SurrogateSpec | None  # None polls unranked
    stop_mode: str
    milestones: tuple[int, ...]
    margins: tuple[float, ...]
    full_eval: Callable  # (config, monitor) -> EvaluationResult
    fidelity_eval: Callable  # (config, epochs, data_fraction) -> float
    charge_ranking: bool = True
    min_mesh_index: int = -50
    max_iterations: int | None = None
    envelope: BaselineEnvelope = field(init=False)  # the one every campaign starts from

    def __post_init__(self) -> None:
        # a negative cap acts as 0, and a floor above the start mesh ends every campaign after its start point
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.min_mesh_index > MAX_MESH_INDEX:
            raise ValueError(f"min_mesh_index must be <= {MAX_MESH_INDEX}")
        object.__setattr__(self, "envelope", BaselineEnvelope(None, self.milestones, self.margins))

    @property
    def estimate_charge(self) -> float:
        """BBE charged per surrogate estimate: its cost ratio, or 0.0 without
        a surrogate or when ranking is not charged."""
        return self.surrogate.cost_ratio if self.surrogate is not None and self.charge_ranking else 0.0


@dataclass(frozen=True)
class Tape:
    """A ledger's rows, which the campaign loop runs against in place of its
    trainer.  ``CampaignState.record`` holds each row it makes to the row of
    its index here (``check``), and ``play``'s evaluators answer from the row
    after those the state has made, so one tape serves any number of runs.

    A full evaluation answers with that row's score, epochs and stop
    reason.  ``curve`` regenerates the trainings of the last iteration's
    baselines, the incumbent it polls around and the last one: such a
    training's best accuracy is the score, and its curve the baseline the
    loop goes on with.  An estimate answers with the score of its
    configuration's row in the block of estimate rows at the head, or
    ``WORST_SCORE``, which no row then matches.  Past the rows, and for an
    estimate that a block ending the rows lacks, it hands over to the
    evaluators of the plan it plays.
    """

    rows: list[LedgerRecord]
    source: object  # what an error names, such as the ledger's path
    curve: Callable[[Configuration, int], TrainingHistory] | None = None

    def check(self, row: LedgerRecord) -> LedgerRecord:
        """The row of index ``row.record_index``, which must equal ``row``, or
        ``row`` past the tape's rows.  A row that differs raises ``ValueError``
        naming ``source``, the row and the first column that differs."""
        index = row.record_index
        if index >= len(self.rows):
            return row
        taped = self.rows[index]
        if taped != row:
            column = next(c for c in COLUMNS if getattr(taped, c) != getattr(row, c))
            found, expected = (getattr(r, column) for r in (taped, row))
            if isinstance(found, bool):
                found, expected = int(found), int(expected)
            raise ValueError(f"{self.source}: record {index}: {column} {found!r}, expected {expected!r}")
        return taped

    def play(self, plan: RunPlan, made: list[LedgerRecord]) -> RunPlan:
        """``plan`` with evaluators that answer from the row after ``made``, the rows the loop has made."""
        rows = self.rows
        incumbents = [i for i, row in enumerate(rows) if row.incumbent]
        before_last = sum(rows[i].iteration < rows[-1].iteration for i in incumbents)
        baselines = set(incumbents[max(before_last - 1, 0):])
        blocks = {}  # the index of each block's first row -> its estimate scores by config key
        for i, row in enumerate(rows):
            if row.kind == KIND_SURROGATE:
                if i == 0 or rows[i - 1].kind != KIND_SURROGATE:
                    block = blocks[i] = {}
                block[row.config] = row.score

        def full_eval(config: Configuration, monitor: StoppingMonitor) -> EvaluationResult:
            if len(made) >= len(rows):
                return plan.full_eval(config, monitor)
            row = rows[len(made)]
            taped = EvaluationResult(TrainingHistory(), row.score, row.epochs_used, row.stop_reason, 0.0)
            if self.curve is None or len(made) not in baselines or taped.failed:
                return taped
            history = self.curve(config, row.epochs_used)
            return replace(taped, history=history, final_val_accuracy=history.best_accuracy())

        def fidelity_eval(config: Configuration, epochs: int, fraction: float) -> float:
            scores = blocks.get(len(made), {})
            if config.key in scores or len(made) + len(scores) < len(rows):
                return scores.get(config.key, WORST_SCORE)
            return plan.fidelity_eval(config, epochs, fraction)

        return replace(plan, full_eval=full_eval, fidelity_eval=fidelity_eval)


@dataclass
class CampaignState:
    """The campaign loop's state, and what the loop returns when it stops:
    the incumbent and its score, the rows so far, the BBE charged, the mesh,
    the next iteration to run and, once the loop has stopped, why.  A state
    is built from its start point and the ``tape`` that the loop runs
    against, by default one of no rows; every other field is the loop's to
    set."""

    incumbent: Configuration
    records: list[LedgerRecord] = field(default_factory=list, init=False)
    cumulative: float = field(default=0.0, init=False)
    best_score: float = field(default=-math.inf, init=False)
    envelope: BaselineEnvelope | None = field(default=None, init=False)
    mesh: Mesh = field(default_factory=Mesh, init=False)
    next_iteration: int = field(default=0, init=False)
    termination: str | None = field(default=None, init=False)  # "budget", "mesh" or "iterations"
    tape: Tape = field(default_factory=lambda: Tape([], None))

    def record(self, kind: str, key: str, score: float, *, epochs: int = 0, reason: str = REASON_NONE,
               charge: float = 0.0, incumbent: bool = False) -> None:
        """Charge ``charge`` BBE and append a ledger row stamped with its index,
        the running cost, the iteration being run and the mesh index: the one
        place a row is made, or checked against the tape's.  The defaults are
        a ranking pass's; a stop reason that one ledger line cannot carry
        raises ``ValueError`` before any charge."""
        check_plain("stop_reason", reason)
        self.cumulative += charge
        row = LedgerRecord(
            record_index=len(self.records),
            kind=kind,
            config=key,
            score=score,
            epochs_used=epochs,
            stop_reason=reason,
            charged_cost=charge,
            cumulative_cost=self.cumulative,
            incumbent=incumbent,
            iteration=self.next_iteration,
            mesh_index=self.mesh.index,
        )
        self.records.append(self.tape.check(row))

    def close_iteration(self, success: bool) -> None:
        """End poll iteration ``next_iteration``: the mesh coarsens after a
        success (capped at ``MAX_MESH_INDEX``) and refines after a failure."""
        self.mesh = Mesh(min(self.mesh.index + 1, MAX_MESH_INDEX) if success else self.mesh.index - 1)
        self.next_iteration += 1


def iteration_seed(seed: int, iteration: int) -> int:
    return hash_u64("poll-directions", seed, iteration)


def _full_evaluation(state: CampaignState, plan: RunPlan, config: Configuration) -> bool:
    """Run one full evaluation of ``config``, charge it and record it; if it
    improves, it becomes the incumbent and its curve the baseline.  Returns
    whether it improved; a failure never does."""
    monitor = StoppingMonitor(plan.stop_mode, state.envelope)
    try:
        result = plan.full_eval(config, monitor)
    except TRAINER_FAULTS as exc:
        logger.warning("full evaluation raised: %s", exc, exc_info=True)
        result = EvaluationResult.failure()
    improved = not result.failed and result.final_val_accuracy > state.best_score
    state.record(KIND_FULL, config.key, result.final_val_accuracy, epochs=result.epochs_used,
                 reason=result.stop_reason, charge=1.0, incumbent=improved)
    if improved:
        state.incumbent = config
        state.best_score = result.final_val_accuracy
        state.envelope = update_baseline(state.envelope, result.history)
    return improved


def run_campaign(initial: Configuration, budget_bbe: int, plan: RunPlan) -> CampaignState:
    """Full campaign from ``initial``: ``continue_campaign`` of a fresh state."""
    return continue_campaign(CampaignState(incumbent=initial), budget_bbe, plan)


def continue_campaign(state: CampaignState, budget_bbe: float, plan: RunPlan) -> CampaignState:
    """The campaign loop.

    The state's incumbent is validated once, here; the poll keeps every
    later one in bounds.  Before iteration 0, it is the start point: the
    state takes the plan's envelope, the start point is trained, and
    iteration 0 ends on the mesh it began on.  Poll iterations then run
    until the budget runs out, the mesh bottoms out, or the iteration cap
    is hit, and the state, with its ``termination`` set, is returned.  The
    plan's evaluators answer from the state's tape (``Tape.play``), and a
    row of it left over at the end raises ``ValueError``.
    """
    if not budget_bbe >= 1.0:
        raise ValueError("budget must be at least 1 BBE, the start point's training")
    problems = validate(state.incumbent, plan.bounds)
    if problems:
        raise ValueError("invalid incumbent configuration: " + "; ".join(problems))
    plan = state.tape.play(plan, state.records)
    if state.next_iteration == 0:
        state.envelope = plan.envelope
        _full_evaluation(state, plan, state.incumbent)
        state.next_iteration = 1
    while True:
        if state.mesh.index < plan.min_mesh_index:
            state.termination = "mesh"
            break
        if plan.max_iterations is not None and state.next_iteration > plan.max_iterations:
            state.termination = "iterations"
            break
        poll = generate_poll(state.incumbent, state.mesh, iteration_seed(plan.seed, state.next_iteration), plan.bounds)
        ranking_cost = len(poll.candidates) * plan.estimate_charge
        if state.cumulative + ranking_cost + 1.0 > budget_bbe + BUDGET_SLACK:
            state.termination = "budget"
            break
        state.close_iteration(_poll_step(state, plan, poll, budget_bbe))
    if len(state.records) < len(state.tape.rows):
        raise ValueError(f"{state.tape.source}: record {len(state.records)}: after the loop stopped "
                         f"({state.termination})")
    return state


def _poll_step(state: CampaignState, plan: RunPlan, poll: PollSet, budget: float) -> bool:
    """Rank the poll if the plan has a surrogate and evaluate what the budget affords; True on an improvement."""
    if not poll.candidates:
        return False
    candidates = poll.candidates
    if plan.surrogate is not None:
        ranked = rank_candidates(candidates, plan.surrogate, plan.fidelity_eval)
        candidates = ranked.candidates
        for config, score in zip(candidates, ranked.estimates):
            state.record(KIND_SURROGATE, config.key, score, epochs=plan.surrogate.epoch_budget,
                         charge=plan.estimate_charge)
        state.record(KIND_RANKING, candidates[0].key, ranked.estimates[0])
    affordable = int(math.floor(budget - state.cumulative + BUDGET_SLACK))
    # opportunistic: stop at the first candidate that becomes the incumbent
    return any(_full_evaluation(state, plan, config) for config in candidates[:affordable])
