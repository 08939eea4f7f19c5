"""Evaluation backends: a deterministic simulated trainer and a subprocess adapter.

The simulated trainer maps a configuration to a saturating validation
curve whose asymptote and time constant are smooth functions of the
quantitative hyperparameters plus a hashed offset per categorical
signature.  Identical (config, seed) pairs always produce identical
curves, which is what makes campaign ledgers reproducible and resumable.
"""

from __future__ import annotations

import logging
import math
import queue
import shlex
import subprocess
import threading
from dataclasses import dataclass

import numpy as np

from .early_stop import CHANCE_LEVEL, REASON_NONE, TrainingHistory
from .space import Configuration, ConvLayerHP, SpaceBounds, make_config, serialize
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
    if len(config.conv_layers) != config.n_conv:
        return "conv layer count mismatch"
    if len(config.fc_sizes) != config.n_fc:
        return "fc size count mismatch"
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
            noise_seed=hash_u64("noise", serialize(config), seed),
            initial_lr=config.learning_rate,
        )

    def evaluate(self, request: EvaluationRequest) -> EvaluationResult:
        """Run one simulated training, invoking the monitor after each epoch."""
        problem = _config_problem(request.config)
        if problem is not None:
            logger.warning("evaluation failed: %s", problem)
            return EvaluationResult.failure()
        model = self.model_for(request.config, request.seed)
        acc, loss = curve_arrays(model, request.max_epochs, request.data_fraction)
        monitor = request.monitor
        history = TrainingHistory()
        lr = model.initial_lr
        reason = REASON_NONE
        if monitor is not None:
            monitor.start(lr)
        for e in range(1, request.max_epochs + 1):
            history.append(e, float(acc[e - 1]), float(loss[e - 1]), lr)
            if monitor is not None:
                verdict = monitor.verdict(history)
                if verdict.stop:
                    reason = verdict.reason
                    break
                lr = monitor.next_lr()
        return EvaluationResult.of(history, reason, request.data_fraction)

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
        decay = np.exp(-np.maximum(e - max(2, round(0.6 * tau)), 0.0) / tau)
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
    history = TrainingHistory()
    for e in range(1, epochs + 1):
        history.append(e, float(acc[e - 1]), float(loss[e - 1]), model.initial_lr)
    return history


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
            self._queue.put(None)

    def read(self, timeout: float) -> str | None:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None


def _failed_external(transcript: list[str], why: str) -> EvaluationResult:
    logger.warning("external evaluation failed: %s; transcript=%r", why, transcript)
    return EvaluationResult.failure()


def external_evaluate(request: EvaluationRequest, adapter: ProcessAdapter) -> EvaluationResult:
    """Drive an external trainer over the line protocol.

    Parent sends one header line, the child answers one ``EPOCH`` line per
    epoch, the parent acknowledges each with ``CONTINUE`` or ``STOP``, and
    the child finishes with ``DONE``.  Any crash, malformed line or timeout
    yields an evaluation-failed result.
    """
    problem = _config_problem(request.config)
    if problem is not None:
        return _failed_external([], problem)
    transcript: list[str] = []
    try:
        proc = subprocess.Popen(
            list(adapter.command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
        )
    except OSError as exc:
        return _failed_external(transcript, f"launch failed: {exc}")

    def send(line: str) -> bool:
        try:
            assert proc.stdin is not None
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
            return True
        except (BrokenPipeError, OSError):
            return False

    reader = _LineReader(proc.stdout)
    history = TrainingHistory()
    monitor = request.monitor
    reason = REASON_NONE
    try:
        header = (
            f"CONFIG {serialize(request.config)} EPOCHS {request.max_epochs}"
            f" FRACTION {request.data_fraction!r} SEED {request.seed}"
        )
        if not send(header):
            return _failed_external(transcript, "child closed stdin early")
        if monitor is not None:
            monitor.start(request.config.learning_rate)
        stopped = False
        while len(history) < request.max_epochs and not stopped:
            line = reader.read(adapter.line_timeout)
            if line is None:
                return _failed_external(transcript, "timeout or child exit mid-curve")
            transcript.append(line)
            if line.strip() == "DONE":
                break
            parts = line.split()
            try:
                if len(parts) != 8 or parts[0] != "EPOCH" or parts[2] != "ACC" or parts[4] != "LOSS" or parts[6] != "LR":
                    raise ValueError(f"malformed epoch line {line!r}")
                history.append(int(parts[1]), float(parts[3]), float(parts[5]), float(parts[7]))
            except ValueError as exc:
                send("STOP")
                return _failed_external(transcript, str(exc))
            if monitor is not None:
                verdict = monitor.verdict(history)
                if verdict.stop:
                    reason = verdict.reason
                    stopped = True
            if not send("STOP" if (stopped or len(history) >= request.max_epochs) else "CONTINUE"):
                return _failed_external(transcript, "child closed stdin mid-curve")
        if transcript and transcript[-1].strip() != "DONE":
            line = reader.read(adapter.line_timeout)
            if line is None or line.strip() != "DONE":
                return _failed_external(transcript + ([line] if line else []), "missing DONE")
            transcript.append(line)
        if len(history) == 0:
            return _failed_external(transcript, "child produced no epochs")
    finally:
        try:
            if proc.stdin is not None:
                proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return EvaluationResult.of(history, reason, request.data_fraction)
