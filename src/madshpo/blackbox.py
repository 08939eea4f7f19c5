"""Evaluation backends: a deterministic simulated trainer and a subprocess adapter.

Both backends train through ``train(request, epochs)``, the one loop over
epochs.  ``epochs`` is an epoch source: a generator that yields one
``(epoch, val_accuracy, val_loss, learning_rate)`` tuple per epoch and is
sent the learning rate for the next epoch, or ``None`` once the training
stops or reaches ``max_epochs``, after which it ends.  A source may also
end early on its own.  ``train`` checks the configuration, starts the
monitor, appends each epoch to the history and takes the monitor's
verdict.  An empty history, a malformed epoch, or a source that raises
``OSError`` or ``ValueError`` gives the failed result.  The source is
closed in every case.  The simulated source is a cursor over
``curve_arrays`` that stamps each epoch with the rate it was sent; the
external source speaks the line protocol of ``ProcessAdapter``.

The simulated trainer maps a configuration to a saturating validation
curve whose asymptote and time constant are smooth functions of the
quantitative hyperparameters plus a hashed offset per categorical
signature.  Identical (config, seed) pairs always produce identical
curves, which is what makes campaign ledgers reproducible and resumable.
"""

from __future__ import annotations

import contextlib
import logging
import math
import queue
import shlex
import subprocess
import threading
from collections.abc import Generator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .early_stop import CHANCE_LEVEL, REASON_NONE, TrainingHistory
# benchmark/tracing.py wraps serialize by this name; Configuration.key calls it.
from .space import Configuration, ConvLayerHP, SpaceBounds, make_config, serialize  # noqa: F401
from .util import hash_u64, hash_unit

logger = logging.getLogger(__name__)

WORST_SCORE = 0.0  # score of a failed training or estimate
FAILED_REASON = "evaluation-failed"

# Simulated-trainer constants, the same for every campaign.
ACCURACY_QUANTUM = 1e-4  # reported accuracies are rounded to this step
DIVERGENCE_LR = 0.3  # above this learning rate a curve peaks and decays back to chance
ASYMPTOTE_CAP = 0.995  # the best reachable accuracy


@dataclass(frozen=True)
class EvaluationRequest:
    config: Configuration
    max_epochs: int = 200
    data_fraction: float = 1.0
    seed: int = 0
    monitor: object | None = None

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0.0 < self.data_fraction <= 1.0:
            raise ValueError("data_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class EvaluationResult:
    history: TrainingHistory
    final_val_accuracy: float
    epochs_used: int
    stop_reason: str
    wall_cost: float

    @property
    def failed(self) -> bool:
        return self.stop_reason == FAILED_REASON

    @classmethod
    def failure(cls) -> "EvaluationResult":
        """The result of a training that could not run: no epochs, worst score."""
        return cls(TrainingHistory(), WORST_SCORE, 0, FAILED_REASON, 0.0)

    @classmethod
    def of(cls, history: TrainingHistory, reason: str, data_fraction: float) -> "EvaluationResult":
        """The result of a training that ran: its best epoch scores, each epoch costs the fraction."""
        return cls(history, history.best_accuracy(), len(history), reason, len(history) * data_fraction)


@dataclass(frozen=True)
class SimulatedModel:
    """Per-configuration curve parameters derived from the hyperparameters."""

    asymptote: float
    time_constant: float
    divergent: bool
    noise_sigma: float
    noise_seed: int
    initial_lr: float


def _bump(x: float, center: float, width: float) -> float:
    return math.exp(-0.5 * ((x - center) / width) ** 2)


def _config_problem(config: Configuration) -> str | None:
    if config.learning_rate <= 0:
        return "non-positive learning rate"
    if config.batch_size < 1:
        return "batch size below 1"
    if not 0.0 <= config.dropout <= 1.0:
        return "dropout outside [0, 1]"
    if config.weight_decay < 0:
        return "negative weight decay"
    if config.grad_clip <= 0:
        return "non-positive grad clip"
    for layer in config.conv_layers:
        if min(layer.out_channels, layer.kernel_size, layer.stride, layer.pooling) < 1:
            return "conv layer field below 1"
        if layer.padding < 0:
            return "negative padding"
    if any(s < 1 for s in config.fc_sizes):
        return "fc size below 1"
    return None


# Yields (epoch, val_accuracy, val_loss, learning_rate); is sent the next rate or None.
EpochSource = Generator[tuple[int, float, float, float], float | None, None]


def train(request: EvaluationRequest, epochs: EpochSource) -> EvaluationResult:
    """Run one training over an epoch source, invoking the monitor after each epoch.

    A configuration that ``_config_problem`` rejects never starts its source.
    """
    history = TrainingHistory()
    reason = REASON_NONE
    try:
        problem = _config_problem(request.config)
        if problem is not None:
            raise ValueError(problem)
        monitor = request.monitor
        lr = request.config.learning_rate
        if monitor is not None:
            monitor.start(lr)
        epoch = next(epochs)
        while True:
            history.append(*epoch)
            if monitor is not None:
                reason = monitor.verdict(history).reason
                lr = monitor.next_lr()
            if reason != REASON_NONE or len(history) == request.max_epochs:
                epochs.send(None)
                break
            epoch = epochs.send(lr)
    except StopIteration:
        pass
    except (OSError, ValueError) as exc:
        logger.warning("evaluation failed: %s", exc)
        return EvaluationResult.failure()
    finally:
        epochs.close()
    if not history:
        logger.warning("evaluation failed: no epochs")
        return EvaluationResult.failure()
    return EvaluationResult.of(history, reason, request.data_fraction)


@dataclass(frozen=True)
class SimulatedBlackbox:
    """Deterministic stand-in trainer for a 10-class image task."""

    noise_sigma: float = 1e-4

    def _component_scores(self, config: Configuration) -> tuple[float, ...]:
        """Per-hyperparameter fitness bumps, each in (0, 1]."""
        if config.conv_layers:
            conv = float(
                np.mean(
                    [
                        np.mean(
                            [
                                _bump(math.log2(l.out_channels), 6.0, 1.1),
                                _bump(l.kernel_size, 4.0, 1.5),
                                _bump(l.stride, 1.0, 0.8),
                                _bump(l.padding, 1.0, 1.1),
                                _bump(l.pooling, 2.0, 0.8),
                            ]
                        )
                        for l in config.conv_layers
                    ]
                )
            )
        else:
            conv = 0.5
        if config.fc_sizes:
            fc = float(np.mean([_bump(math.log2(s), 8.0, 1.1) for s in config.fc_sizes]))
        else:
            fc = 0.5
        return (
            _bump(math.log10(config.learning_rate), -2.2, 0.35),
            _bump(config.dropout, 0.3, 0.13),
            _bump(math.log10(max(config.weight_decay, 1e-12)), -4.0, 0.9),
            _bump(config.momentum, 0.9, 0.09),
            _bump(math.log2(config.batch_size), 7.0, 1.1),
            _bump(config.lr_decay, 0.5, 0.22),
            _bump(math.log10(config.grad_clip), 0.3, 0.5),
            _bump(config.label_smoothing, 0.1, 0.09),
            _bump(config.epoch_scale, 1.25, 0.36),
            conv,
            fc,
        )

    _WEIGHTS = (0.30, 0.10, 0.08, 0.07, 0.08, 0.05, 0.04, 0.04, 0.04, 0.12, 0.08)

    def model_for(self, config: Configuration, seed: int) -> SimulatedModel:
        """Curve parameters: quality (in [0, 1]) sets the asymptote, stability
        (in (0, 1]; badly off-peak slots slow training) the pace.

        The stability's learning-rate term is one-sided: rates above the
        sweet spot destabilize training (slow pace), while rates below it
        cap the reachable accuracy (through the quality) but still hit that
        low ceiling quickly, which is what lets the plateau scheduler fire.
        """
        scores = self._component_scores(config)
        q = sum(w * s for w, s in zip(self._WEIGHTS, scores))
        log_lr = math.log10(config.learning_rate)
        lr_pace = _bump(log_lr, -2.2, 0.35) if log_lr > -2.2 else 1.0
        stability = math.exp(
            0.35 * (math.log(max(lr_pace, 1e-9)) + sum(math.log(max(s, 1e-9)) for s in scores[1:]))
        )
        depth = 0.5 * (1.0 - math.exp(-0.7 * config.n_conv)) + 0.5 * (
            1.0 - math.exp(-0.5 * config.n_fc)
        )
        offset = hash_unit("arch-offset", config.n_conv, config.n_fc, config.optimizer, seed)
        level = 0.04 + 0.60 * q + 0.16 * depth + 0.20 * offset
        asymptote = CHANCE_LEVEL + (ASYMPTOTE_CAP - CHANCE_LEVEL) * level

        pace = hash_unit("pace-offset", config.n_conv, config.n_fc, config.optimizer, seed)
        mix = min(max(0.95 * (1.0 - stability) + 0.05 * pace, 0.0), 1.0)
        tau = 3.0 + 90.0 * mix

        return SimulatedModel(
            asymptote=asymptote,
            time_constant=tau,
            divergent=config.learning_rate > DIVERGENCE_LR,
            noise_sigma=self.noise_sigma,
            noise_seed=hash_u64("noise", config.key, seed),
            initial_lr=config.learning_rate,
        )

    def evaluate(self, request: EvaluationRequest) -> EvaluationResult:
        """Run one simulated training."""
        return train(request, self.epochs(request))

    def epochs(self, request: EvaluationRequest) -> EpochSource:
        """Epoch source over the simulated curve; each epoch carries the rate it was sent."""
        model = self.model_for(request.config, request.seed)
        acc, loss = curve_arrays(model, request.max_epochs, request.data_fraction)
        lr = model.initial_lr
        for e in range(request.max_epochs):
            lr = yield e + 1, float(acc[e]), float(loss[e]), lr
            if lr is None:
                return

    def final_accuracy(self, config: Configuration, seed: int, epochs: int, data_fraction: float) -> float:
        """Best-epoch accuracy without building a history (fast path)."""
        problem = _config_problem(config)
        if problem is not None:
            logger.warning("evaluation failed: %s", problem)
            return WORST_SCORE
        model = self.model_for(config, seed)
        acc, _ = curve_arrays(model, epochs, data_fraction)
        return float(acc.max())


def curve_arrays(model: SimulatedModel, epochs: int, data_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Accuracy and loss arrays for epochs 1..epochs."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    e = np.arange(1, epochs + 1, dtype=float)
    a_eff = model.asymptote * (0.8 + 0.2 * data_fraction)
    tau = model.time_constant
    acc = CHANCE_LEVEL + (a_eff - CHANCE_LEVEL) * (1.0 - np.exp(-e / tau))
    if model.divergent:
        decay = np.exp(-np.maximum(e - round(0.6 * tau), 0.0) / tau)
        acc = CHANCE_LEVEL + (acc - CHANCE_LEVEL) * decay
    if model.noise_sigma > 0:
        rng = np.random.default_rng(model.noise_seed)
        acc = acc + rng.normal(0.0, model.noise_sigma, epochs)
        loss_wiggle = 1.0 + rng.normal(0.0, 50.0 * model.noise_sigma, epochs)
    else:
        loss_wiggle = np.ones(epochs)
    acc = np.clip(acc, 0.0, 1.0)
    acc = np.clip(np.round(acc / ACCURACY_QUANTUM) * ACCURACY_QUANTUM, 0.0, 1.0)
    loss = -np.log(np.maximum(acc, 1e-4)) * loss_wiggle
    return acc, np.maximum(loss, 0.0)


def simulate_curve(model: SimulatedModel, epochs: int, data_fraction: float = 1.0) -> TrainingHistory:
    """Full curve as a history (constant learning-rate column)."""
    acc, loss = curve_arrays(model, epochs, data_fraction)
    rows = zip(range(1, epochs + 1), acc.tolist(), loss.tolist(), repeat(model.initial_lr))
    return TrainingHistory.from_rows(rows)


# -- coarse-lattice oracle ---------------------------------------------------

LATTICE_LOG_LR = (-5.0, -4.0, -3.0, -2.0, -1.0)
LATTICE_DROPOUT = (0.1, 0.3, 0.6)
LATTICE_BATCH = (64, 128, 256)
LATTICE_LOG_WD = (-7.0, -5.0, -3.0)
LATTICE_MOMENTUM = (0.5, 0.8, 0.95)
LATTICE_ARCH = ((1, 1), (1, 2), (2, 2), (3, 1), (5, 1))


LATTICE_CONV = ConvLayerHP(16, 5, 1, 2, 2)


def coarse_lattice(bounds: SpaceBounds):
    """Fixed coarse grid over the high-impact slots (other scalars at preset values)."""
    for n_conv, n_fc in LATTICE_ARCH:
        for optimizer in bounds.optimizers:
            for log_lr in LATTICE_LOG_LR:
                for dropout in LATTICE_DROPOUT:
                    for batch in LATTICE_BATCH:
                        for log_wd in LATTICE_LOG_WD:
                            for momentum in LATTICE_MOMENTUM:
                                yield make_config(
                                    (LATTICE_CONV,) * n_conv,
                                    (128, 64)[:n_fc],
                                    optimizer=optimizer,
                                    learning_rate=10.0**log_lr,
                                    dropout=dropout,
                                    batch_size=batch,
                                    weight_decay=10.0**log_wd,
                                    momentum=momentum,
                                )


def lattice_sweep(
    blackbox: SimulatedBlackbox,
    bounds: SpaceBounds,
    seed: int,
    max_epochs: int = 200,
) -> tuple[Configuration, float]:
    """Brute-force best (config, accuracy) over the coarse lattice."""
    best_config = None
    best_score = -math.inf
    for config in coarse_lattice(bounds):
        score = blackbox.final_accuracy(config, seed, max_epochs, 1.0)
        if score > best_score:
            best_config, best_score = config, score
    assert best_config is not None
    return best_config, best_score


# -- external process adapter ------------------------------------------------


@dataclass(frozen=True)
class ProcessAdapter:
    """Launch settings for an external line-protocol trainer."""

    command: tuple[str, ...]
    line_timeout: float = 120.0

    @classmethod
    def from_command(cls, command: str, line_timeout: float = 120.0) -> "ProcessAdapter":
        return cls(tuple(shlex.split(command)), line_timeout)

    def epochs(self, request: EvaluationRequest) -> EpochSource:
        """Epoch source over the line protocol of one child process.

        The parent sends one header line and the child answers one ``EPOCH``
        line per epoch.  Sent a rate, the source answers ``CONTINUE``; sent
        ``None``, it answers ``STOP`` and the child must reply ``DONE``.  A
        child may also end early with ``DONE``.  A failed launch, a broken
        pipe, a timeout, a malformed line or a missing ``DONE`` raises.  A
        child that said ``DONE`` gets a grace period to exit; any other is
        killed at once.
        """
        proc = subprocess.Popen(
            list(self.command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
        )
        done = False
        try:
            reader = _LineReader(proc.stdout)
            _write(proc, f"CONFIG {request.config.key} EPOCHS {request.max_epochs}"
                         f" FRACTION {request.data_fraction!r} SEED {request.seed}")
            stopped = False
            while True:
                line = reader.read(self.line_timeout)
                if line.strip() == "DONE":
                    done = True
                    return
                if stopped:
                    raise ValueError(f"missing DONE after STOP, got {line!r}")
                parts = line.split()
                if len(parts) != 8 or parts[0] != "EPOCH" or parts[2] != "ACC" or parts[4] != "LOSS" or parts[6] != "LR":
                    raise ValueError(f"malformed epoch line {line!r}")
                lr = yield int(parts[1]), float(parts[3]), float(parts[5]), float(parts[7])
                stopped = lr is None
                _write(proc, "STOP" if stopped else "CONTINUE")
        finally:
            _end_child(proc, done)


def _write(proc: subprocess.Popen, line: str) -> None:
    proc.stdin.write(line + "\n")
    proc.stdin.flush()


def _end_child(proc: subprocess.Popen, done: bool) -> None:
    """Close the child's input; wait for a child that said ``DONE``, kill any other."""
    with contextlib.suppress(OSError):
        proc.stdin.close()
    if done:
        try:
            proc.wait(timeout=5.0)
            return
        except subprocess.TimeoutExpired:
            pass
    proc.kill()
    proc.wait()


class _LineReader:
    """Background reader so protocol reads can time out cleanly."""

    def __init__(self, stream) -> None:
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._thread = threading.Thread(target=self._pump, args=(stream,), daemon=True)
        self._thread.start()

    def _pump(self, stream) -> None:
        try:
            for line in stream:
                self._queue.put(line.rstrip("\n"))
        finally:
            stream.close()
            self._queue.put(None)

    def read(self, timeout: float) -> str:
        """The next line; raises once ``timeout`` seconds pass or the child closes its output."""
        try:
            line = self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(f"no line within {timeout} s") from None
        if line is None:
            raise ConnectionError("child closed its output")
        return line


def external_evaluate(request: EvaluationRequest, adapter: ProcessAdapter) -> EvaluationResult:
    """Run one training in an external trainer over the line protocol."""
    return train(request, adapter.epochs(request))
