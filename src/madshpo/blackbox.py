"""Evaluation backends: a deterministic simulated trainer and a subprocess adapter.

Both backends train through ``train(request, epochs)``, the one loop over
epochs.  ``epochs`` is an epoch source: a generator that yields one
``(epoch, val_accuracy, val_loss, learning_rate)`` tuple per epoch and is
sent the learning rate for the next epoch, or ``None`` once the training
stops or reaches ``max_epochs``, after which it ends.  A source may also
end early on its own.  ``train`` checks the configuration, starts the
monitor (``StoppingMonitor("none")`` if the request has none), appends
each epoch to the history and takes the monitor's verdict.  A source
without epochs, a malformed epoch, or one of ``TRAINER_FAULTS`` gives the
failed result; any other exception is a bug and propagates.  The source is
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
import os
import select
import shlex
import subprocess
import time
from collections.abc import Generator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .early_stop import CHANCE_LEVEL, REASON_NONE, StoppingMonitor, TrainingHistory
# benchmark/tracing.py wraps serialize by this name; Configuration.key calls it.
from .space import Configuration, serialize  # noqa: F401
from .util import hash_u64, hash_unit

logger = logging.getLogger(__name__)

WORST_SCORE = 0.0  # score of a failed training or estimate
FAILED_REASON = "evaluation-failed"
# What a training that could not run raises; mads and surrogates catch it too.
TRAINER_FAULTS = (OSError, RuntimeError, ValueError, ArithmeticError, MemoryError, subprocess.SubprocessError)
MAX_LINE_BYTES = 65536  # the longest line that an external trainer may send

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


def _sum(values) -> float:
    """The values added one by one from 0.0, left to right.  ``sum`` is not
    used because it compensates the rounding from Python 3.12 on, so the
    bits would depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def _mean(values: list[float]) -> float:
    """``float(np.mean(values))`` to the last bit, without an array for short
    lists: numpy adds fewer than 8 values one by one from 0.0, as ``_sum`` does."""
    if len(values) >= 8:
        return float(np.mean(values))
    return _sum(values) / len(values)


def _check_config(config: Configuration) -> None:
    """Raise ``ValueError`` naming the first field no trainer can run with."""
    if config.learning_rate <= 0:
        raise ValueError("non-positive learning rate")
    if config.batch_size < 1:
        raise ValueError("batch size below 1")
    if not 0.0 <= config.dropout <= 1.0:
        raise ValueError("dropout outside [0, 1]")
    if config.weight_decay < 0:
        raise ValueError("negative weight decay")
    if config.grad_clip <= 0:
        raise ValueError("non-positive grad clip")
    for layer in config.conv_layers:
        if min(layer.out_channels, layer.kernel_size, layer.stride, layer.pooling) < 1:
            raise ValueError("conv layer field below 1")
        if layer.padding < 0:
            raise ValueError("negative padding")
    if any(s < 1 for s in config.fc_sizes):
        raise ValueError("fc size below 1")


# Yields (epoch, val_accuracy, val_loss, learning_rate); is sent the next rate or None.
EpochSource = Generator[tuple[int, float, float, float], float | None, None]


def train(request: EvaluationRequest, epochs: EpochSource) -> EvaluationResult:
    """Run one training over an epoch source, invoking the monitor after each epoch.

    A configuration that ``_check_config`` rejects never starts its source.
    """
    history = TrainingHistory()
    reason = REASON_NONE
    try:
        _check_config(request.config)
        monitor = request.monitor or StoppingMonitor("none")
        monitor.start(request.config.learning_rate)
        epoch = next(epochs, None)
        if epoch is None:
            raise ValueError("no epochs")
        while True:
            history.append(*epoch)
            reason = monitor.verdict(history).reason
            if reason != REASON_NONE or len(history) == request.max_epochs:
                epochs.send(None)
                break
            epoch = epochs.send(monitor.next_lr())
    except StopIteration:
        pass
    except TRAINER_FAULTS as exc:
        logger.warning("evaluation failed: %s", exc)
        return EvaluationResult.failure()
    finally:
        epochs.close()
    # the best epoch scores, and each epoch costs the data fraction
    return EvaluationResult(history, history.best_accuracy(), len(history), reason, len(history) * request.data_fraction)


@dataclass(frozen=True)
class SimulatedBlackbox:
    """Deterministic stand-in trainer for a 10-class image task."""

    noise_sigma: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")

    def _component_scores(self, config: Configuration) -> tuple[float, ...]:
        """Per-hyperparameter fitness bumps, each in (0, 1]."""
        if config.conv_layers:
            conv = _mean([
                _mean([
                    _bump(math.log2(l.out_channels), 6.0, 1.1),
                    _bump(l.kernel_size, 4.0, 1.5),
                    _bump(l.stride, 1.0, 0.8),
                    _bump(l.padding, 1.0, 1.1),
                    _bump(l.pooling, 2.0, 0.8),
                ])
                for l in config.conv_layers
            ])
        else:
            conv = 0.5
        fc = _mean([_bump(math.log2(s), 8.0, 1.1) for s in config.fc_sizes]) if config.fc_sizes else 0.5
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
        q = _sum(w * s for w, s in zip(self._WEIGHTS, scores))
        log_lr = math.log10(config.learning_rate)
        lr_pace = _bump(log_lr, -2.2, 0.35) if log_lr > -2.2 else 1.0
        stability = math.exp(
            0.35 * (math.log(max(lr_pace, 1e-9)) + _sum(math.log(max(s, 1e-9)) for s in scores[1:]))
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
        """Best-epoch accuracy without building a history (fast path); a
        configuration that ``_check_config`` rejects raises ``ValueError``."""
        _check_config(config)
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


def simulate_curve(model: SimulatedModel, epochs: int) -> TrainingHistory:
    """Full-data curve as a history (constant learning-rate column)."""
    acc, loss = curve_arrays(model, epochs, 1.0)
    rows = zip(range(1, epochs + 1), acc.tolist(), loss.tolist(), repeat(model.initial_lr))
    return TrainingHistory.from_rows(rows)


# -- external process adapter ------------------------------------------------


@dataclass(frozen=True)
class ProcessAdapter:
    """Launch settings for an external line-protocol trainer."""

    command: tuple[str, ...]
    line_timeout: float = 120.0

    def __post_init__(self) -> None:
        if not self.command:
            raise ValueError("external trainer command is empty")

    @classmethod
    def from_command(cls, command: str) -> "ProcessAdapter":
        return cls(tuple(shlex.split(command)))

    def epochs(self, request: EvaluationRequest) -> EpochSource:
        """Epoch source over the line protocol of one child process.

        The parent sends one header line and the child answers one ``EPOCH``
        line per epoch.  Sent a rate, the source answers ``CONTINUE``; sent
        ``None``, it answers ``STOP`` and the child must reply ``DONE``.  A
        child may also end early with ``DONE``.  A failed launch, a broken
        pipe, a timeout, a malformed or overlong line or a missing ``DONE``
        raises.  A child that said ``DONE`` gets a grace period to exit; any
        other is killed at once.

        The calling thread reads the child's output itself: ``select`` waits
        on the pipe (so this runs on POSIX systems only) until a whole line
        has arrived, at most ``line_timeout`` seconds per line.  A line ends
        at ``\n``, one ``\r`` before it is dropped, and a byte that is not
        UTF-8 reads as U+FFFD, so it makes a malformed line.
        """
        proc = subprocess.Popen(list(self.command), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        done = False
        try:
            buffer = bytearray()
            _write(proc, f"CONFIG {request.config.key} EPOCHS {request.max_epochs}"
                         f" FRACTION {request.data_fraction!r} SEED {request.seed}")
            stopped = False
            while True:
                line = _read_line(proc.stdout.fileno(), buffer, self.line_timeout)
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
    proc.stdin.write(f"{line}\n".encode())
    proc.stdin.flush()


def _read_line(fd: int, buffer: bytearray, timeout: float) -> str:
    """The next line of ``fd``, taken from the front of ``buffer``, which keeps
    what was read past it; raises once ``timeout`` seconds pass, the child
    closes its output or the line passes ``MAX_LINE_BYTES``; a last one may lack its ``\n``."""
    deadline = time.monotonic() + timeout
    while (end := buffer.find(b"\n", 0, MAX_LINE_BYTES + 1)) < 0:
        if len(buffer) > MAX_LINE_BYTES:
            raise ValueError(f"a line of more than {MAX_LINE_BYTES} bytes")
        if not select.select([fd], [], [], max(deadline - time.monotonic(), 0.0))[0]:
            raise TimeoutError(f"no line within {timeout} s")
        chunk = os.read(fd, 65536)
        if not chunk and not buffer:
            raise ConnectionError("child closed its output")
        buffer += chunk or b"\n"
    line = buffer[:end].decode(errors="replace").removesuffix("\r")
    del buffer[:end + 1]
    return line


def _end_child(proc: subprocess.Popen, done: bool) -> None:
    """Close the child's input; wait for a child that said ``DONE``, kill any
    other; then close its output."""
    with contextlib.suppress(OSError):
        proc.stdin.close()
    try:
        if done:
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=5.0)
                return
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()


def external_evaluate(request: EvaluationRequest, adapter: ProcessAdapter) -> EvaluationResult:
    """Run one training in an external trainer over the line protocol."""
    return train(request, adapter.epochs(request))
