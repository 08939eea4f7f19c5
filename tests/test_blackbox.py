import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

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
        flat_rows(2) + [OSError("trainer lost")],
        flat_rows(2) + [ValueError("bad line")],
        flat_rows(2) + [(3, 1.5, 1.0, 0.01)],
        flat_rows(2) + [(4, 0.5, 1.0, 0.01)],
        [],
    ], ids=["raises-oserror", "raises-valueerror", "accuracy-above-1", "skips-an-epoch", "no-epochs"])
    def test_bad_source_fails_and_is_closed(self, rows):
        log = SimpleNamespace(started=False)
        monitor = StoppingMonitor("scheduler+baseline", BaselineEnvelope())
        result = train(EvaluationRequest(preset_config("p1"), 200, 1.0, 0, monitor), fake_epochs(rows, log))
        assert result.failed
        assert result.final_val_accuracy == 0.0
        assert result.epochs_used == 0
        assert log.closed

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
