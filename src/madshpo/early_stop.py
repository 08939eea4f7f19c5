"""Early-stopping strategies over per-epoch validation curves.

Four strategies are supported: the legacy default pair (low-accuracy
cutoff plus loss-plateau), last-success (no accuracy improvement for a
window), a plateau learning-rate scheduler with a floor, and the
scheduler combined with a baseline-envelope comparison against the best
curve seen so far.

``StoppingMonitor`` is the one implementation of these rules; campaigns
run one per training.  The baseline is the incumbent's curve:
``update_baseline`` swaps it in unconditionally, and campaigns call it
only when the incumbent changes, so a tie or a failure keeps the old one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_MILESTONES = (5, 10, 25, 50, 100, 125, 150, 160)
DEFAULT_MARGINS = (0.5, 0.6, 0.7, 0.85, 0.93, 0.955, 0.957, 0.98)

# Stopping-rule parameters, the same for every campaign.
PATIENCE = 25  # flat epochs before the scheduler cuts the learning rate
LR_FACTOR = 0.1  # learning-rate multiplier per cut
LR_FLOOR = 1e-8  # the scheduler stops a training once its rate falls below this
CHANCE_LEVEL = 0.1  # a baseline at or below this accuracy disables the envelope
ACCURACY_FLOOR = 0.12  # default: stop if the best accuracy is still at or below this ...
ARMING_EPOCH = 25  # ... from this epoch on
PLATEAU_WINDOW = 50  # default: epochs over which the loss spread is measured
LOSS_TOLERANCE = 1e-3  # default: stop when that spread falls below this
LAST_SUCCESS_WINDOW = 25  # last-success: epochs allowed without a new best accuracy

REASON_NONE = "none"
REASON_LOW_ACCURACY = "default-low-accuracy"
REASON_LOSS_PLATEAU = "default-loss-plateau"
REASON_LAST_SUCCESS = "last-success"
REASON_LR_FLOOR = "scheduler-lr-floor"
REASON_ENVELOPE = "envelope-breach"

# The stop reasons each stopping mode can give, besides REASON_NONE.
STOP_REASONS = {
    "none": (),
    "default": (REASON_LOW_ACCURACY, REASON_LOSS_PLATEAU),
    "last-success": (REASON_LAST_SUCCESS,),
    "scheduler": (REASON_LR_FLOOR,),
    "scheduler+baseline": (REASON_ENVELOPE, REASON_LR_FLOOR),
}
MODES = tuple(STOP_REASONS)


def stop_reasons(mode: str) -> tuple[str, ...]:
    """The reasons other than ``REASON_NONE`` that a monitor in ``mode`` can give."""
    if mode not in STOP_REASONS:
        raise ValueError(f"unknown stopping mode {mode!r} (expected one of {MODES})")
    return STOP_REASONS[mode]


@dataclass(slots=True)
class TrainingHistory:
    """Per-epoch validation series; epochs are contiguous from 1, so epoch e is
    index e - 1.  It starts empty, and ``append`` checks each epoch."""

    val_accuracy: list[float] = field(default_factory=list, init=False)
    val_loss: list[float] = field(default_factory=list, init=False)
    learning_rate: list[float] = field(default_factory=list, init=False)

    def append(self, epoch: int, val_accuracy: float, val_loss: float, learning_rate: float) -> None:
        expected = len(self) + 1
        if epoch != expected:
            raise ValueError(f"epoch {epoch} breaks contiguity (expected {expected})")
        if not 0.0 <= val_accuracy <= 1.0:
            raise ValueError(f"val_accuracy {val_accuracy} outside [0, 1]")
        if not 0.0 <= val_loss < math.inf:
            raise ValueError(f"val_loss {val_loss} outside [0, inf)")
        if not 0.0 < learning_rate < math.inf:
            raise ValueError(f"learning_rate {learning_rate} outside (0, inf)")
        self.val_accuracy.append(float(val_accuracy))
        self.val_loss.append(float(val_loss))
        self.learning_rate.append(float(learning_rate))

    @classmethod
    def from_rows(cls, rows) -> "TrainingHistory":
        """Build from (epoch, val_accuracy, val_loss, learning_rate) rows."""
        hist = cls()
        for row in rows:
            hist.append(*row)
        return hist

    def __len__(self) -> int:
        return len(self.val_accuracy)

    def best_accuracy(self) -> float:
        return max(self.val_accuracy) if self.val_accuracy else 0.0


@dataclass(frozen=True)
class StopVerdict:
    """A training stops iff its verdict has a reason other than ``REASON_NONE``."""

    reason: str = REASON_NONE
    detail: str = ""

    @property
    def stop(self) -> bool:
        return self.reason != REASON_NONE


CONTINUE = StopVerdict()


@dataclass(frozen=True)
class BaselineEnvelope:
    """Best-seen curve plus the milestone/margin envelope under it."""

    baseline_curve: TrainingHistory | None = None
    milestones: tuple[int, ...] = DEFAULT_MILESTONES
    margins: tuple[float, ...] = DEFAULT_MARGINS

    def __post_init__(self) -> None:
        if len(self.milestones) != len(self.margins):
            raise ValueError("milestones and margins must have equal length")
        # each check is written so that a NaN fails it
        if any(not b > a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ValueError("milestones must be strictly increasing")
        # check_envelope first runs after one epoch
        if any(not m >= 1 for m in self.milestones):
            raise ValueError("milestones must be epochs >= 1")
        if any(not 0.0 < m <= 1.0 for m in self.margins):
            raise ValueError("margins must lie in (0, 1]")
        if any(not b > a for a, b in zip(self.margins, self.margins[1:])):
            raise ValueError("margins must be strictly increasing")


def check_envelope(history: TrainingHistory, envelope: BaselineEnvelope) -> StopVerdict:
    """Milestone comparison against the baseline curve.

    Only fires when the current epoch is a milestone and the candidate's
    accuracy is strictly below margin * baseline accuracy at that epoch; a
    baseline that stopped earlier reads its final value.  A missing or empty
    baseline, or one at or below chance level, disables the comparison.
    """
    if not len(history):
        raise ValueError("history is empty")
    epoch = len(history)
    baseline = envelope.baseline_curve
    if epoch not in envelope.milestones or baseline is None or not len(baseline):
        return CONTINUE
    reference = baseline.val_accuracy[min(epoch, len(baseline)) - 1]
    if reference <= CHANCE_LEVEL:
        return CONTINUE
    margin = envelope.margins[envelope.milestones.index(epoch)]
    threshold = margin * reference
    accuracy = history.val_accuracy[-1]
    if accuracy < threshold:
        return StopVerdict(
            REASON_ENVELOPE,
            f"accuracy {accuracy:.4f} < {margin} * baseline {reference:.4f} at epoch {epoch}",
        )
    return CONTINUE


def update_baseline(envelope: BaselineEnvelope, history: TrainingHistory) -> BaselineEnvelope:
    """The envelope with ``history``, the new incumbent's curve, as its baseline."""
    return replace(envelope, baseline_curve=history)


class StoppingMonitor:
    """Stateful per-evaluation monitor; call ``start`` once per training, then
    ``verdict`` once per appended epoch.

    Incremental bookkeeping keeps the per-epoch cost constant.  The
    scheduler cuts the rate after ``PATIENCE`` epochs without a new best
    accuracy since the later of the last improvement and the last cut.  It
    counts its own cuts and ignores the history's rate column, so a trainer
    that reports a rate of its own still stops at the floor.  ``next_lr`` is
    the rate for the next epoch.
    """

    def __init__(self, mode: str, envelope: BaselineEnvelope | None = None) -> None:
        stop_reasons(mode)  # refuses an unknown mode
        self.mode = mode
        self.envelope = envelope

    def start(self, initial_lr: float) -> None:
        if initial_lr <= 0:
            raise ValueError("initial learning rate must be positive")
        self._lr = initial_lr
        self._best = -math.inf
        self._best_epoch = 0
        self._last_reduce = 0

    def next_lr(self) -> float:
        return self._lr

    def verdict(self, history: TrainingHistory) -> StopVerdict:
        epoch = len(history)
        accuracy = history.val_accuracy[-1]
        if accuracy > self._best:
            self._best = accuracy
            self._best_epoch = epoch

        if self.mode == "none":
            return CONTINUE
        if self.mode == "default":
            if epoch >= ARMING_EPOCH and self._best <= ACCURACY_FLOOR:
                return StopVerdict(
                    REASON_LOW_ACCURACY,
                    f"best accuracy {self._best:.4f} <= {ACCURACY_FLOOR} after {epoch} epochs",
                )
            if epoch >= PLATEAU_WINDOW:
                std = float(np.std(history.val_loss[-PLATEAU_WINDOW:]))
                if std < LOSS_TOLERANCE:
                    return StopVerdict(
                        REASON_LOSS_PLATEAU,
                        f"loss std {std:.2e} over last {PLATEAU_WINDOW} epochs",
                    )
            return CONTINUE
        if self.mode == "last-success":
            age = epoch - self._best_epoch
            if age > LAST_SUCCESS_WINDOW:
                return StopVerdict(
                    REASON_LAST_SUCCESS,
                    f"no improvement since epoch {self._best_epoch} ({age} epochs)",
                )
            return CONTINUE

        # scheduler / scheduler+baseline
        if self.mode == "scheduler+baseline" and self.envelope is not None:
            verdict = check_envelope(history, self.envelope)
            if verdict.stop:
                return verdict
        # epoch 1 sets the reference rather than improving on one
        improved = self._best_epoch if self._best_epoch >= 2 else 0
        reference = max(improved, self._last_reduce)
        if epoch - reference >= PATIENCE:
            self._lr = self._lr * LR_FACTOR
            self._last_reduce = epoch
        if self._lr < LR_FLOOR:
            return StopVerdict(
                REASON_LR_FLOOR,
                f"learning rate {self._lr:.3e} below floor {LR_FLOOR:.0e}",
            )
        return CONTINUE
