import math
import re
import subprocess
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from madshpo import blackbox as bb
from madshpo.blackbox import (
    ACCURACY_QUANTUM,
    EvaluationRequest,
    ProcessAdapter,
    SimulatedBlackbox,
    curve_arrays,
    external_evaluate,
    simulate_curve,
    train,
)
from madshpo.early_stop import (
    CHANCE_LEVEL, LR_FACTOR, PATIENCE, BaselineEnvelope, StoppingMonitor, TrainingHistory,
)
from madshpo.space import ConvLayerHP, make_config, preset_config
from madshpo.surrogates import estimate, surrogate_by_name

# A training that could not run raises one of these, and is recorded as a
# failure; any other exception is a bug in the caller and ends the campaign.
TRAINER_FAULTS = [
    RuntimeError("gpu on fire"),
    OSError("trainer lost"),
    TimeoutError("no line within 1 s"),
    ValueError("bad line"),
    ZeroDivisionError("float division by zero"),
    MemoryError(),
    subprocess.TimeoutExpired("trainer", 1.0),
]
CALLER_BUGS = [TypeError("takes 1 positional argument"), AttributeError("no attribute"), KeyError("slot"),
               AssertionError()]


# Configurations no trainer can run: the changes to p1, and the first rule they break.
_P1_CONV = preset_config("p1").conv_layers[0]
UNTRAINABLE = {
    "zero-learning-rate": (dict(learning_rate=0.0), "non-positive learning rate"),
    "zero-batch": (dict(batch_size=0), "batch size below 1"),
    "dropout-above-1": (dict(dropout=1.5), "dropout outside [0, 1]"),
    "negative-dropout": (dict(dropout=-0.1), "dropout outside [0, 1]"),
    "negative-weight-decay": (dict(weight_decay=-1e-5), "negative weight decay"),
    "zero-grad-clip": (dict(grad_clip=0.0), "non-positive grad clip"),
    "zero-stride": (dict(conv_layers=(replace(_P1_CONV, stride=0),)), "conv layer field below 1"),
    "negative-padding": (dict(conv_layers=(replace(_P1_CONV, padding=-1),)), "negative padding"),
    "zero-fc": (dict(fc_sizes=(128, 0)), "fc size below 1"),
}


def exc_id(exc):
    return type(exc).__name__


@pytest.fixture(scope="module")
def blackbox():
    return SimulatedBlackbox()


@pytest.fixture(scope="module")
def clean_blackbox():
    return SimulatedBlackbox(noise_sigma=0.0)


def random_configs(n, seed=42):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        n_conv = int(rng.integers(0, 4))
        n_fc = int(rng.integers(0, 3))
        layers = tuple(
            ConvLayerHP(
                int(rng.integers(4, 129)),
                int(rng.integers(1, 8)),
                int(rng.integers(1, 4)),
                int(rng.integers(0, 4)),
                int(rng.integers(1, 5)),
            )
            for _ in range(n_conv)
        )
        fcs = tuple(int(rng.integers(16, 1025)) for _ in range(n_fc))
        out.append(
            make_config(
                layers,
                fcs,
                optimizer=("sgd", "adam", "adagrad", "rmsprop")[rng.integers(0, 4)],
                learning_rate=10.0 ** rng.uniform(-6, 0),
                batch_size=16 * int(rng.integers(1, 33)),
                dropout=rng.uniform(0, 0.95),
                weight_decay=10.0 ** rng.uniform(-8, -1),
                momentum=rng.uniform(0, 0.99),
                lr_decay=rng.uniform(0.1, 0.9),
                grad_clip=10.0 ** rng.uniform(-1, 1),
                label_smoothing=rng.uniform(0, 0.3),
                epoch_scale=rng.uniform(0.5, 2.0),
            )
        )
    return out


class TestSimulatedCurves:
    def test_backbone_starts_at_chance(self, clean_blackbox):
        # epoch 1 lies at most one time constant's share of the rise above chance
        for config in [preset_config("p1"), *random_configs(20, seed=3)]:
            model = clean_blackbox.model_for(config, 0)
            acc, _ = curve_arrays(model, 1, 1.0)
            rise = (model.asymptote - CHANCE_LEVEL) / model.time_constant
            assert CHANCE_LEVEL - ACCURACY_QUANTUM <= acc[0] <= CHANCE_LEVEL + rise + ACCURACY_QUANTUM

    def test_clean_nondivergent_monotone(self, clean_blackbox):
        for config in random_configs(20):
            model = clean_blackbox.model_for(config, 3)
            if model.divergent:
                continue
            acc, _ = curve_arrays(model, 200, 1.0)
            assert np.all(np.diff(acc) >= 0)

    def test_fraction_strictly_lower_each_epoch(self, clean_blackbox):
        for config in random_configs(20, seed=7):
            model = clean_blackbox.model_for(config, 0)
            full, _ = curve_arrays(model, 100, 1.0)
            frac, _ = curve_arrays(model, 100, 0.1)
            assert np.all(frac < full)

    def test_divergent_decays_after_peak(self, clean_blackbox):
        config = make_config((), (), learning_rate=0.9)
        model = clean_blackbox.model_for(config, 0)
        assert model.divergent
        acc, _ = curve_arrays(model, 200, 1.0)
        peak = int(np.argmax(acc))
        assert peak < 150
        assert acc[-1] < acc[peak]

    def test_accuracy_on_quantum_grid(self, blackbox):
        model = blackbox.model_for(preset_config("p1"), 0)
        acc, _ = curve_arrays(model, 50, 1.0)
        assert np.allclose(np.round(acc / 1e-4) * 1e-4, acc, atol=1e-12)

    def test_identical_seed_identical_curve(self, blackbox):
        config = preset_config("p2")
        model = blackbox.model_for(config, 11)
        assert simulate_curve(model, 60) == simulate_curve(model, 60)

    def test_losses_nonnegative(self, blackbox):
        for config in random_configs(10, seed=9):
            model = blackbox.model_for(config, 0)
            _, loss = curve_arrays(model, 200, 1.0)
            assert np.all(loss >= 0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_mean_is_numpys_to_the_last_bit(self, n):
        # the simulator's curve parameters depend on these bits
        rng = np.random.default_rng(n)
        for values in rng.uniform(0.0, 1.0, (500, n)) ** rng.uniform(0.5, 8.0, (500, 1)):
            values = values.tolist()
            assert bb._mean(values) == float(np.mean(values))

    def test_model_parameter_ranges(self, blackbox):
        for config in random_configs(40, seed=13):
            model = blackbox.model_for(config, 5)
            assert 0.1 <= model.asymptote <= 0.995
            assert model.time_constant > 0


class TestEvaluate:
    def test_full_run_without_monitor(self, blackbox):
        result = blackbox.evaluate(EvaluationRequest(preset_config("p1"), 200, 1.0, 0))
        assert result.epochs_used == 200
        assert len(result.history) == 200
        assert result.stop_reason == "none"
        assert result.wall_cost == pytest.approx(200.0)

    def test_best_epoch_convention(self, blackbox):
        result = blackbox.evaluate(EvaluationRequest(preset_config("p1"), 200, 1.0, 0))
        assert result.final_val_accuracy == max(result.history.val_accuracy)

    def test_deterministic(self, blackbox):
        request = EvaluationRequest(preset_config("p3"), 150, 1.0, 21)
        a = blackbox.evaluate(request)
        b = blackbox.evaluate(request)
        assert a.history == b.history
        assert a.final_val_accuracy == b.final_val_accuracy

    def test_dominating_baseline_stops_at_first_milestone(self, blackbox):
        # baseline constant at the cap: candidate cannot reach 50% of it by epoch 5
        baseline = TrainingHistory.from_rows((e, 0.99, 0.01, 0.01) for e in range(1, 201))
        monitor = StoppingMonitor("scheduler+baseline", BaselineEnvelope(baseline))
        config = make_config((), (), learning_rate=1e-5)  # slow, low-ceiling config
        result = blackbox.evaluate(EvaluationRequest(config, 200, 1.0, 0, monitor))
        assert result.epochs_used == 5
        assert result.stop_reason == "envelope-breach"

    def test_monitor_neutrality(self, blackbox):
        config = preset_config("p1")
        plain = blackbox.evaluate(EvaluationRequest(config, 120, 1.0, 4))
        watched = blackbox.evaluate(
            EvaluationRequest(config, 120, 1.0, 4, StoppingMonitor("none"))
        )
        assert plain.history == watched.history
        assert plain.final_val_accuracy == watched.final_val_accuracy

    def test_invalid_config_fails_with_worst_score(self, blackbox):
        p1 = preset_config("p1")
        broken = replace(p1, conv_layers=(replace(p1.conv_layers[0], padding=-1),))
        result = blackbox.evaluate(EvaluationRequest(broken, 200, 1.0, 0))
        assert result.failed
        assert result.final_val_accuracy == 0.0
        assert result.epochs_used == 0
        # the fast path raises the same fault, and an estimate scores it worst
        with pytest.raises(ValueError, match="negative padding"):
            blackbox.final_accuracy(broken, 0, 200, 0.1)

        def fidelity(config, epochs, fraction):
            return blackbox.final_accuracy(config, 0, epochs, fraction)

        assert estimate(surrogate_by_name("r4"), broken, fidelity) == 0.0

    @pytest.mark.parametrize("changes,message", list(UNTRAINABLE.values()), ids=list(UNTRAINABLE))
    def test_each_untrainable_field_is_named(self, blackbox, changes, message):
        config = replace(preset_config("p1"), **changes)
        with pytest.raises(ValueError, match=re.escape(message)):
            blackbox.final_accuracy(config, 0, 10, 1.0)
        assert blackbox.evaluate(EvaluationRequest(config, 10, 1.0, 0)).failed

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_noise_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            SimulatedBlackbox(noise_sigma=sigma)

    def test_bad_request_parameters_rejected(self):
        with pytest.raises(ValueError):
            EvaluationRequest(preset_config("p1"), 0, 1.0, 0)
        with pytest.raises(ValueError):
            EvaluationRequest(preset_config("p1"), 10, 0.0, 0)
        with pytest.raises(ValueError):
            EvaluationRequest(preset_config("p1"), 10, 1.5, 0)

    def test_short_request_runs_every_epoch(self, blackbox):
        result = blackbox.evaluate(EvaluationRequest(preset_config("p1"), 10, 1.0, 0))
        assert result.epochs_used == 10

    def test_a_curve_needs_an_epoch(self, blackbox):
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            curve_arrays(blackbox.model_for(preset_config("p1"), 0), 0, 1.0)


def fake_epochs(rows, log):
    """In-memory epoch source: yields ``rows`` (raising any exception among
    them) and logs whether it started, each rate it is sent, and its close."""
    log.started, log.sent, log.closed = True, [], False
    try:
        for row in rows:
            if isinstance(row, Exception):
                raise row
            lr = yield row
            log.sent.append(lr)
            if lr is None:
                return
    finally:
        log.closed = True


def flat_rows(n, lr=0.01):
    return [(e, 0.5, 1.0, lr) for e in range(1, n + 1)]


class TestTrain:
    def test_scheduler_cut_reaches_source_and_stop_sends_none(self):
        log = SimpleNamespace(started=False)
        config = preset_config("p1")
        monitor = StoppingMonitor("scheduler")
        result = train(EvaluationRequest(config, 200, 1.0, 0, monitor), fake_epochs(flat_rows(200), log))
        lr = config.learning_rate
        assert log.sent[:PATIENCE - 1] == [lr] * (PATIENCE - 1)
        # the cut decided at epoch PATIENCE is the rate sent for the next epoch
        assert log.sent[PATIENCE - 1] == pytest.approx(lr * LR_FACTOR)
        assert log.sent[PATIENCE] == log.sent[PATIENCE - 1]
        assert result.stop_reason == "scheduler-lr-floor"
        assert log.sent[-1] is None and None not in log.sent[:-1]
        assert len(log.sent) == result.epochs_used
        assert log.closed

    def test_external_floor_counts_the_monitors_own_cuts(self):
        # the protocol never sends the rate, so an external child reports its
        # own; the scheduler still stops at the floor after its seventh cut
        log = SimpleNamespace(started=False)
        request = EvaluationRequest(preset_config("p1"), 300, monitor=StoppingMonitor("scheduler"))
        result = train(request, fake_epochs(flat_rows(300, lr=0.01), log))
        assert result.epochs_used == 7 * PATIENCE == 175
        assert result.stop_reason == "scheduler-lr-floor"
        assert set(result.history.learning_rate) == {0.01}

    def test_max_epochs_sends_none(self):
        log = SimpleNamespace(started=False)
        result = train(EvaluationRequest(preset_config("p1"), 10, 1.0, 0), fake_epochs(flat_rows(50), log))
        assert result.epochs_used == 10
        assert result.stop_reason == "none"
        assert log.sent == [preset_config("p1").learning_rate] * 9 + [None]

    def test_source_ending_early_keeps_its_epochs(self):
        log = SimpleNamespace(started=False)
        monitor = StoppingMonitor("scheduler+baseline", BaselineEnvelope())
        result = train(EvaluationRequest(preset_config("p1"), 200, 0.5, 0, monitor), fake_epochs(flat_rows(7), log))
        assert not result.failed
        assert result.stop_reason == "none"
        assert result.epochs_used == 7
        assert result.wall_cost == pytest.approx(3.5)
        assert None not in log.sent

    @pytest.mark.parametrize("rows", [
        *(flat_rows(2) + [fault] for fault in TRAINER_FAULTS),
        flat_rows(2) + [(3, 1.5, 1.0, 0.01)],
        flat_rows(2) + [(4, 0.5, 1.0, 0.01)],
        [],
    ], ids=[*(f"raises-{exc_id(fault).lower()}" for fault in TRAINER_FAULTS), "accuracy-above-1", "skips-an-epoch",
            "no-epochs"])
    def test_bad_source_fails_and_is_closed(self, rows):
        log = SimpleNamespace(started=False)
        monitor = StoppingMonitor("scheduler+baseline", BaselineEnvelope())
        result = train(EvaluationRequest(preset_config("p1"), 200, 1.0, 0, monitor), fake_epochs(rows, log))
        assert result.failed
        assert result.final_val_accuracy == 0.0
        assert result.epochs_used == 0
        assert log.closed

    @pytest.mark.parametrize("bug", CALLER_BUGS, ids=exc_id)
    def test_a_bug_in_the_source_raises_and_it_is_closed(self, bug):
        log = SimpleNamespace(started=False)
        with pytest.raises(type(bug)):
            train(EvaluationRequest(preset_config("p1"), 200, 1.0, 0), fake_epochs(flat_rows(2) + [bug], log))
        assert log.closed

    def test_a_source_that_yields_after_stop_is_closed_at_the_stop_epoch(self):
        sent, closed = [], []

        def deaf_epochs():
            # keeps yielding after it is sent None
            try:
                for row in flat_rows(50):
                    sent.append((yield row))
            finally:
                closed.append(True)

        result = train(EvaluationRequest(preset_config("p1"), 10, 1.0, 0), deaf_epochs())
        assert (result.epochs_used, len(result.history), result.stop_reason) == (10, 10, "none")
        assert sent[-1] is None and len(sent) == 10
        assert closed == [True]

    def test_rejected_config_never_starts_source(self):
        log = SimpleNamespace(started=False)
        config = replace(preset_config("p1"), learning_rate=-0.01)
        result = train(EvaluationRequest(config, 200, 1.0, 0), fake_epochs(flat_rows(10), log))
        assert result.failed
        assert not log.started

    def test_hung_child_is_killed_at_once(self, tmp_path):
        path = tmp_path / "sleeper.py"
        path.write_text("import sys, time\nsys.stdin.readline()\ntime.sleep(30)\n")
        adapter = ProcessAdapter((sys.executable, "-u", str(path)), line_timeout=0.5)
        started = time.monotonic()
        result = external_evaluate(EvaluationRequest(preset_config("p1"), 10, 1.0, 0), adapter)
        assert result.failed
        assert time.monotonic() - started < adapter.line_timeout + 1.0


class TestFidelityMonotonicity:
    def test_fewer_epochs_or_less_data_never_better(self, clean_blackbox):
        for config in random_configs(30, seed=17):
            full = clean_blackbox.final_accuracy(config, 0, 200, 1.0)
            assert clean_blackbox.final_accuracy(config, 0, 200, 0.1) <= full + 1e-12
            assert clean_blackbox.final_accuracy(config, 0, 200, 0.2) <= full + 1e-12
            assert clean_blackbox.final_accuracy(config, 0, 25, 1.0) <= full + 1e-12
            assert clean_blackbox.final_accuracy(config, 0, 10, 1.0) <= full + 1e-12

    def test_fast_path_matches_evaluate(self, blackbox):
        for config in random_configs(5, seed=23):
            by_eval = blackbox.evaluate(EvaluationRequest(config, 80, 0.2, 3)).final_val_accuracy
            assert blackbox.final_accuracy(config, 3, 80, 0.2) == by_eval
