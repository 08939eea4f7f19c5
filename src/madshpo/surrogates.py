"""Static low-fidelity surrogates used to rank poll candidates.

Each surrogate trains a candidate briefly (fewer epochs and/or a data
subset) and charges a fixed fraction of one full blackbox evaluation.
Rankings are static: nothing is refit during a run.  An estimate whose
trainer raises one of ``blackbox.TRAINER_FAULTS``, or returns a score that
is not finite, scores ``WORST_SCORE``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass
from typing import Callable, Sequence

from .blackbox import TRAINER_FAULTS, WORST_SCORE
from .space import Configuration

logger = logging.getLogger(__name__)

# name -> (epoch budget, data fraction, cost ratio relative to one full evaluation)
SURROGATE_TABLE: dict[str, tuple[int, float, float]] = {
    "r1": (25, 1.0, 0.125),
    "r2": (10, 1.0, 0.05),
    "r3": (200, 0.2, 0.20),
    "r4": (200, 0.1, 0.10),
    "oracle": (200, 1.0, 1.0),
}
_ROW_NAMES = {row: name for name, row in SURROGATE_TABLE.items()}


@dataclass(frozen=True)
class SurrogateSpec:
    """An estimate's epochs (at least one), data fraction and charge."""

    epoch_budget: int
    data_fraction: float
    cost_ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.data_fraction <= 1.0:
            raise ValueError("data_fraction must lie in (0, 1]")
        if not 0.0 <= self.cost_ratio <= 1.0:
            raise ValueError("cost_ratio must lie in [0, 1]")
        if self.epoch_budget < 1:
            raise ValueError("epoch_budget must be >= 1")

    @property
    def text(self) -> str:
        """The ledger-header form, which :func:`surrogate_by_name` reads back:
        the name of the table row equal to the triple, or ``custom e f c``."""
        return _ROW_NAMES.get(astuple(self)) or f"custom {self.epoch_budget} {self.data_fraction!r} {self.cost_ratio!r}"


def surrogate_by_name(text: str) -> SurrogateSpec | None:
    """The surrogate a text names: r1..r4 or oracle; a custom
    ``epochs,fraction,cost`` triple; or the header form of a custom one,
    ``custom epochs fraction cost``.  A triple equal to a table row is that
    row.  The name ``none`` is no surrogate: polls go unranked."""
    key = text.lower()
    if key == "none":
        return None
    kind, _, rest = key.partition(" ")
    parts = SURROGATE_TABLE.get(key) or (rest.split(" ") if kind == "custom" else key.split(","))
    if len(parts) != 3:
        names = sorted([*SURROGATE_TABLE, "none"])
        raise ValueError(f"unknown surrogate {text!r} (expected one of {names} or epochs,fraction,cost)")
    return SurrogateSpec(int(parts[0]), float(parts[1]), float(parts[2]))


# Callback contract: (config, epochs, data_fraction) -> estimated accuracy.
FidelityEval = Callable[[Configuration, int, float], float]


def estimate(spec: SurrogateSpec, config: Configuration, blackbox: FidelityEval) -> float:
    """Low-fidelity accuracy estimate; a trainer fault or a score that is not
    finite scores worst and is logged.

    Surrogate trainings never apply early stopping: the truncated budget is
    the whole point of the surrogate.
    """
    try:
        score = blackbox(config, spec.epoch_budget, spec.data_fraction)
    except TRAINER_FAULTS as exc:
        logger.warning("surrogate estimate failed: %s", exc, exc_info=True)
        return WORST_SCORE
    score = float(score)
    if not math.isfinite(score):
        logger.warning("surrogate estimate %r is not finite", score)
        return WORST_SCORE
    return score


@dataclass(frozen=True)
class RankedPoll:
    """Poll candidates sorted best-estimate-first, and their estimates in that order."""

    candidates: tuple[Configuration, ...]
    estimates: tuple[float, ...]


def rank_candidates(candidates: Sequence[Configuration], spec: SurrogateSpec, blackbox: FidelityEval) -> RankedPoll:
    """Estimate every poll candidate and sort best-first (stable on ties).

    Each estimate costs ``spec.cost_ratio`` of a full evaluation.
    """
    if not candidates:
        raise ValueError("poll is empty")
    scores = [estimate(spec, config, blackbox) for config in candidates]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return RankedPoll(tuple(candidates[i] for i in order), tuple(scores[i] for i in order))
