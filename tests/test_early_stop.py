import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from madshpo import mads
from madshpo.blackbox import EvaluationResult, SimulatedBlackbox
from madshpo.campaign import CampaignSettings, build_plan
from madshpo.early_stop import (
    CHANCE_LEVEL,
    DEFAULT_MARGINS,
    DEFAULT_MILESTONES,
    MODES,
    REASON_ENVELOPE,
    REASON_NONE,
    STOP_REASONS,
    BaselineEnvelope,
    StoppingMonitor,
    TrainingHistory,
    check_envelope,
)
from madshpo.ledger import KIND_FULL
from madshpo.space import default_bounds, preset_config
from madshpo.surrogates import surrogate_by_name
from tests.test_golden import LEGACY_ENVELOPE, TAIL_ENVELOPE


def flat_history(epochs, acc=0.10, loss=2.3, lr=0.01):
    return TrainingHistory.from_rows((e, acc, loss, lr) for e in range(1, epochs + 1))


def history_from_acc(accs, lr=0.01):
    h = TrainingHistory()
    for e, a in enumerate(accs, 1):
        h.append(e, a, -math.log(max(a, 1e-4)), lr)
    return h


def replay(mode, history, envelope=None):
    """Feed ``history`` epoch by epoch to a fresh monitor started at its first
    rate, as a training would; return the last verdict and ``next_lr()``."""
    monitor = StoppingMonitor(mode, envelope)
    monitor.start(history.learning_rate[0])
    fed = TrainingHistory()
    for row in zip(history.val_accuracy, history.val_loss, history.learning_rate):
        fed.append(len(fed) + 1, *row)
        verdict = monitor.verdict(fed)
        if verdict.stop:
            break
    return verdict, monitor.next_lr()


class TestTrainingHistory:
    def test_contiguity_enforced(self):
        h = TrainingHistory()
        h.append(1, 0.5, 1.0, 0.01)
        with pytest.raises(ValueError):
            h.append(3, 0.5, 1.0, 0.01)

    def test_starts_empty_and_takes_no_arguments(self):
        # append is the only way in, so every epoch is checked
        with pytest.raises(TypeError):
            TrainingHistory([0.5])
        h = TrainingHistory()
        assert (h.val_accuracy, h.val_loss, h.learning_rate) == ([], [], [])
        h.append(1, 0.5, 1.0, 0.01)
        assert h == flat_history(1, acc=0.5, loss=1.0) != TrainingHistory()
        assert repr(h) == "TrainingHistory(val_accuracy=[0.5], val_loss=[1.0], learning_rate=[0.01])"

    def test_field_ranges(self):
        h = TrainingHistory()
        with pytest.raises(ValueError):
            h.append(1, 1.5, 1.0, 0.01)
        with pytest.raises(ValueError):
            h.append(1, 0.5, -1.0, 0.01)
        with pytest.raises(ValueError):
            h.append(1, 0.5, 1.0, 0.0)
        # a NaN or infinite value is refused by name, so no monitor sees it
        for row, named in (
            ((1, math.nan, 1.0, 0.01), "val_accuracy nan"),
            ((1, 0.5, math.nan, 0.01), "val_loss nan"),
            ((1, 0.5, math.inf, 0.01), "val_loss inf"),
            ((1, 0.5, 1.0, math.nan), "learning_rate nan"),
            ((1, 0.5, 1.0, math.inf), "learning_rate inf"),
        ):
            with pytest.raises(ValueError, match=named):
                h.append(*row)
        assert len(h) == 0


class TestCheckDefault:
    def test_low_accuracy_at_25(self):
        verdict, _ = replay("default", flat_history(25, acc=0.10))
        assert verdict.stop and verdict.reason == "default-low-accuracy"

    def test_identical_losses_plateau(self):
        h = TrainingHistory.from_rows((e, 0.5, 1.234, 0.01) for e in range(1, 51))
        verdict, _ = replay("default", h)
        assert verdict.stop and verdict.reason == "default-loss-plateau"

    def test_not_yet_armed(self):
        assert not replay("default", flat_history(24, acc=0.10))[0].stop

    def test_accuracy_above_floor_survives(self):
        assert not replay("default", flat_history(25, acc=0.13))[0].stop

    def test_noisy_loss_survives(self):
        rng = np.random.default_rng(0)
        h = TrainingHistory.from_rows(
            (e, 0.5, 1.0 + 0.01 * rng.standard_normal(), 0.01) for e in range(1, 80)
        )
        assert not replay("default", h)[0].stop


class TestCheckLastSuccess:
    def test_monotone_rise_continues(self):
        h = history_from_acc([0.3 + 0.005 * e for e in range(100)])
        assert not replay("last-success", h)[0].stop

    def test_stop_after_window_exceeded(self):
        accs = [0.3 + 0.01 * e for e in range(10)] + [0.3] * 26
        verdict, _ = replay("last-success", history_from_acc(accs))
        assert verdict.stop and verdict.reason == "last-success"

    def test_boundary_not_strictly_greater(self):
        accs = [0.3 + 0.01 * e for e in range(10)] + [0.3] * 25
        assert len(accs) == 35
        assert not replay("last-success", history_from_acc(accs))[0].stop


class TestSchedulerStep:
    def test_plateau_reduces_to_floor_boundary(self):
        h = flat_history(25, acc=0.5, lr=1e-7)
        verdict, new_lr = replay("scheduler", h)
        assert new_lr == pytest.approx(1e-8)
        assert not verdict.stop

    def test_one_more_reduction_crosses_floor(self):
        h = flat_history(25, acc=0.5, lr=1e-8)
        verdict, new_lr = replay("scheduler", h)
        assert new_lr < 1e-8
        assert verdict.stop and verdict.reason == "scheduler-lr-floor"

    def test_improving_accuracy_keeps_lr(self):
        h = history_from_acc([0.3 + 0.005 * e for e in range(40)], lr=0.01)
        verdict, new_lr = replay("scheduler", h)
        assert new_lr == 0.01 and not verdict.stop

    def test_reduction_epoch_resets_patience(self):
        # constant lr for 25 epochs, then reduced lr from epoch 26 on
        h = TrainingHistory()
        for e in range(1, 50):
            h.append(e, 0.5, 1.0, 0.01 if e <= 25 else 0.001)
        # decision epoch was 25; at epoch 49 only 24 quiet epochs have passed
        verdict, new_lr = replay("scheduler", h)
        assert new_lr == 0.001 and not verdict.stop
        h.append(50, 0.5, 1.0, 0.001)
        _, new_lr = replay("scheduler", h)
        assert new_lr == pytest.approx(1e-4)

    def test_closed_form_chain(self):
        # persistent plateau from 0.1: k reductions yield 0.1 * 10^-k; the
        # floor verdict first fires at the 8th reduction
        lr = 0.1
        fired_at = None
        for k in range(1, 10):
            lr = lr * 0.1
            if lr < 1e-8:
                fired_at = k
                break
        assert fired_at == 8


class TestEnvelope:
    def make_envelope(self, baseline_acc=0.90, epochs=150):
        return BaselineEnvelope(flat_history(epochs, acc=baseline_acc))

    def test_breach_at_first_milestone(self):
        verdict = check_envelope(flat_history(5, acc=0.44), self.make_envelope())
        assert verdict.stop and verdict.reason == "envelope-breach"

    def test_boundary_survives(self):
        assert not check_envelope(flat_history(5, acc=0.45), self.make_envelope()).stop

    def test_non_milestone_epoch_ignored(self):
        assert not check_envelope(flat_history(7, acc=0.01), self.make_envelope()).stop

    def test_short_baseline_uses_final_accuracy(self):
        envelope = BaselineEnvelope(flat_history(8, acc=0.90))
        # milestone 10 is past the baseline's 8 epochs; final accuracy 0.90 applies
        verdict = check_envelope(flat_history(10, acc=0.53), envelope)
        assert verdict.stop

    def test_chance_level_baseline_disables(self):
        envelope = BaselineEnvelope(flat_history(150, acc=0.10))
        assert not check_envelope(flat_history(5, acc=0.0), envelope).stop

    def test_no_baseline_continues(self):
        assert not check_envelope(flat_history(5, acc=0.0), BaselineEnvelope()).stop

    def test_dominating_candidate_never_stopped(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            base = np.clip(rng.uniform(0.2, 0.9, 160), 0, 1)
            candidate = np.clip(base + rng.uniform(0, 0.05, 160), 0, 1)
            envelope = BaselineEnvelope(history_from_acc(base))
            h = TrainingHistory()
            for e, a in enumerate(candidate, 1):
                h.append(e, a, 1.0, 0.01)
                assert not check_envelope(h, envelope).stop

    def test_verdicts_ignore_history_between_milestones(self):
        envelope = self.make_envelope()
        accs = [0.5] * 150
        variant = list(accs)
        for e in range(150):
            if (e + 1) not in envelope.milestones:
                variant[e] = 0.01  # garbage everywhere except milestones
        for m in envelope.milestones:
            v1 = check_envelope(history_from_acc(accs[:m]), envelope)
            v2 = check_envelope(history_from_acc(variant[:m]), envelope)
            assert v1 == v2

    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            BaselineEnvelope(None, (5, 5, 10), (0.5, 0.6, 0.7))
        with pytest.raises(ValueError):
            BaselineEnvelope(None, (5, 10), (0.6, 0.5))
        with pytest.raises(ValueError):
            BaselineEnvelope(None, (5, 10), (0.5,))
        with pytest.raises(ValueError, match=re.escape("margins must lie in (0, 1]")):
            BaselineEnvelope(None, (5, 10), (0.5, 1.2))
        # a NaN between increasing margins would leave its milestone unable to stop a training
        with pytest.raises(ValueError, match=re.escape("margins must lie in (0, 1]")):
            BaselineEnvelope(None, DEFAULT_MILESTONES, (0.5, math.nan, *DEFAULT_MARGINS[2:]))
        # check_envelope runs from epoch 1 on, so a milestone at 0 or below is never reached
        for milestones in ((0, 10), (-5, 10)):
            with pytest.raises(ValueError, match=re.escape("milestones must be epochs >= 1")):
                BaselineEnvelope(None, milestones, (0.99, 1.0))

    @pytest.mark.parametrize("ratio, stops", [(0.975, [(160, "envelope-breach")]), (0.985, [])])
    def test_the_last_default_milestone_stops_a_candidate_under_its_margin(self, ratio, stops):
        # a flat candidate clears 0.95 x baseline at epoch 150; at epoch 160 it
        # must reach 0.98 x baseline, or the envelope stops it there
        envelope = BaselineEnvelope(flat_history(200, acc=0.90))
        history = TrainingHistory()
        verdicts = []
        for epoch in range(1, 201):
            history.append(epoch, ratio * 0.90, 1.0, 0.01)
            verdict = check_envelope(history, envelope)
            if verdict.stop:
                verdicts.append((epoch, verdict.reason))
                break
        assert verdicts == stops

    def test_empty_history_refused(self):
        with pytest.raises(ValueError, match="history is empty"):
            check_envelope(TrainingHistory(), self.make_envelope())


def scripted_campaign(scores):
    """A p1 campaign whose full evaluations score ``scores`` in order, each
    with a one-epoch curve of its own, where ``None`` raises; returns the
    result, each evaluation's curve and the baseline its monitor saw."""
    curves, seen = [], []

    def full_eval(config, monitor):
        seen.append(monitor.envelope.baseline_curve)
        score = scores[len(seen) - 1]
        curves.append(flat_history(1, acc=0.5))
        if score is None:
            raise RuntimeError("trainer crashed")
        return EvaluationResult(curves[-1], score, 1, "none", 1.0)

    plan = mads.RunPlan(
        bounds=default_bounds(), seed=0, surrogate=surrogate_by_name("none"), stop_mode="scheduler+baseline",
        milestones=DEFAULT_MILESTONES, margins=DEFAULT_MARGINS, full_eval=full_eval,
        fidelity_eval=lambda config, epochs, fraction: 0.0,
    )
    result = mads.run_campaign(preset_config("p1"), len(scores), plan)
    assert len(seen) == len(scores)
    return result, curves, seen


class TestUpdateBaseline:
    """The campaign loop moves the baseline exactly when the incumbent changes."""

    def test_strict_improvement_replaces(self):
        result, curves, seen = scripted_campaign([0.5, 0.4, 0.6, 0.55])
        assert [r.incumbent for r in result.records] == [True, False, True, False]
        assert seen[0] is None
        assert all(a is b for a, b in zip(seen[1:], [curves[0], curves[0], curves[2]]))
        assert (result.incumbent.key, result.best_score) == (result.records[2].config, 0.6)

    def test_tie_keeps_baseline(self):
        result, curves, seen = scripted_campaign([0.5, 0.5, 0.45])
        assert [r.incumbent for r in result.records] == [True, False, False]
        assert seen[2] is curves[0]
        assert (result.incumbent, result.best_score) == (preset_config("p1"), 0.5)

    def test_first_completed_evaluation_is_the_baseline(self):
        # a failed start point leaves no baseline; the first completed
        # evaluation scores above it and becomes incumbent and baseline, but
        # a NaN or -inf score improves on nothing and is neither
        result, curves, seen = scripted_campaign([None, math.nan, -math.inf, 0.2, 0.1])
        assert [r.incumbent for r in result.records] == [False, False, False, True, False]
        assert seen[:4] == [None, None, None, None]
        assert seen[4] is curves[3]


class TestCombinedVerdict:
    def test_envelope_breach_reported_first(self):
        envelope = BaselineEnvelope(flat_history(150, acc=0.90))
        verdict, _ = replay("scheduler+baseline", flat_history(5, acc=0.44), envelope)
        assert verdict.stop and verdict.reason == "envelope-breach"

    def test_default_mode_short_history_continues(self):
        assert not replay("default", flat_history(10))[0].stop

    def test_none_mode_never_stops(self):
        assert not replay("none", flat_history(200, acc=0.0, lr=1e-9))[0].stop


class TestStoppingMonitor:
    def test_scheduler_floor_fires_at_epoch_200(self):
        # criterion: 8 reductions x 25-epoch patience from lr 0.1
        monitor = StoppingMonitor("scheduler")
        monitor.start(0.1)
        h = TrainingHistory()
        stopped_at = None
        for e in range(1, 301):
            h.append(e, 0.5, 1.0, monitor.next_lr())
            verdict = monitor.verdict(h)
            if verdict.stop:
                stopped_at = e
                assert verdict.reason == "scheduler-lr-floor"
                break
        assert stopped_at == 200

    def test_never_stops_after_recent_improvement(self):
        rng = np.random.default_rng(2)
        for mode in ("last-success", "scheduler"):
            for _ in range(10):
                accs = list(rng.uniform(0.2, 0.8, 120))
                # force an improvement within the last 25 epochs
                accs[-int(rng.integers(1, 25))] = 0.99
                monitor = StoppingMonitor(mode)
                monitor.start(0.01)
                h = TrainingHistory()
                final = None
                for e, a in enumerate(accs, 1):
                    h.append(e, a, 1.0, monitor.next_lr())
                    final = monitor.verdict(h)
                assert final is not None and not final.stop

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            StoppingMonitor("hyperband")

    @pytest.mark.parametrize("rate", [0.0, -0.01])
    def test_non_positive_initial_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="initial learning rate must be positive"):
            StoppingMonitor("scheduler").start(rate)


def _baseline_curve():
    # a smooth 200-epoch rise from chance towards 0.9, on the accuracy quantum
    e = np.arange(1, 201)
    acc = np.round(0.1 + 0.8 * (1.0 - np.exp(-e / 15.0)), 4)
    return TrainingHistory.from_rows((int(i), float(a), 1.0, 0.01) for i, a in zip(e, acc))


TABLE_ENVELOPE = BaselineEnvelope(_baseline_curve())


def seeded_curves(kind, seed, epochs):
    """Accuracy and loss series of one seeded kind of training.

    ``walk`` drifts upward from a seeded start with a noisy loss; ``settling``
    has the same accuracies, and its loss noise dies out at a seeded epoch;
    ``stuck`` stays at or below the default accuracy floor; ``flat`` never moves.
    """
    rng = np.random.default_rng(seed)
    if kind == "flat":
        return [0.5] * epochs, [1.0] * epochs
    if kind == "stuck":
        return list(rng.uniform(0.0, 0.12, epochs)), list(rng.uniform(0.5, 1.5, epochs))
    accs = np.clip(rng.uniform(0.05, 0.6) + np.cumsum(rng.uniform(-0.01, 0.02, epochs)), 0, 1)
    if kind == "walk":
        losses = rng.uniform(0.5, 1.5, epochs)
    else:
        calm = int(rng.integers(1, 100))
        losses = 1.0 + np.where(np.arange(epochs) < calm, 0.05, 1e-5) * rng.standard_normal(epochs)
    return [float(a) for a in accs], [float(x) for x in losses]


# (mode, kind, seed, initial rate, rate the trainer reports, stop epoch, reason).
# A reported rate of None stamps each epoch with ``monitor.next_lr()``, as the
# simulated trainer does; a number is the rate an external child reports for
# itself, since the protocol never sends it one.  The low-accuracy rule can
# only fire at ARMING_EPOCH: the best accuracy never falls once it is above
# the floor.
VERDICT_TABLE = [
    ("none", "stuck", 0, 1e-6, None, None, "none"),
    ("default", "stuck", 0, 0.01, None, 25, "default-low-accuracy"),
    ("default", "stuck", 5, 1e-6, None, 25, "default-low-accuracy"),
    ("default", "settling", 0, 0.01, None, 61, "default-loss-plateau"),
    ("default", "settling", 7, 0.01, None, 128, "default-loss-plateau"),
    ("default", "walk", 0, 0.01, None, None, "none"),
    ("last-success", "stuck", 6, 0.01, None, 31, "last-success"),
    ("last-success", "walk", 4, 0.01, None, 87, "last-success"),
    ("last-success", "walk", 7, 0.01, None, 149, "last-success"),
    ("last-success", "walk", 1, 0.01, None, None, "none"),
    ("scheduler", "walk", 0, 0.01, None, None, "none"),
    ("scheduler", "flat", 0, 1e-6, None, 75, "scheduler-lr-floor"),
    ("scheduler", "stuck", 5, 1e-6, None, 85, "scheduler-lr-floor"),
    ("scheduler", "walk", 4, 1e-6, None, 136, "scheduler-lr-floor"),
    ("scheduler", "flat", 0, 0.01, None, 175, "scheduler-lr-floor"),
    ("scheduler", "flat", 0, 0.01, 0.01, 175, "scheduler-lr-floor"),
    ("scheduler+baseline", "stuck", 0, 0.01, None, 5, "envelope-breach"),
    ("scheduler+baseline", "walk", 2, 0.01, None, 10, "envelope-breach"),
    ("scheduler+baseline", "walk", 0, 0.01, None, 25, "envelope-breach"),
    ("scheduler+baseline", "walk", 4, 1e-6, None, 136, "scheduler-lr-floor"),
    ("scheduler+baseline", "walk", 5, 0.01, None, 50, "envelope-breach"),
    ("scheduler+baseline", "walk", 9, 0.01, None, None, "none"),
]


@pytest.mark.parametrize("mode,kind,seed,initial_lr,reported_lr,stop_epoch,reason", VERDICT_TABLE)
def test_verdict_table(mode, kind, seed, initial_lr, reported_lr, stop_epoch, reason):
    # flat rows run long enough for a 0.01 rate to reach the floor
    accs, losses = seeded_curves(kind, seed, 300 if kind == "flat" else 150)
    monitor = StoppingMonitor(mode, TABLE_ENVELOPE)
    monitor.start(initial_lr)
    h = TrainingHistory()
    got = (None, "none")
    for e, (acc, loss) in enumerate(zip(accs, losses), 1):
        h.append(e, acc, loss, reported_lr or monitor.next_lr())
        verdict = monitor.verdict(h)
        if verdict.stop:
            got = (e, verdict.reason)
            break
    assert got == (stop_epoch, reason)


@pytest.mark.parametrize("mode", MODES)
def test_each_mode_gives_exactly_the_reasons_of_its_row(mode):
    # campaign.read_checked_ledger holds a full training's stop reason to its mode's row
    seen = set()
    for kind in ("flat", "stuck", "walk", "settling"):
        for seed in range(8):
            accs, losses = seeded_curves(kind, seed, 300)
            for initial_lr in (0.01, 1e-6):
                for envelope in (None, TABLE_ENVELOPE):
                    monitor = StoppingMonitor(mode, envelope)
                    monitor.start(initial_lr)
                    h = TrainingHistory()
                    for e, (acc, loss) in enumerate(zip(accs, losses), 1):
                        h.append(e, acc, loss, monitor.next_lr())
                        verdict = monitor.verdict(h)
                        seen.add(verdict.reason)
                        if verdict.stop:
                            break
    assert seen - {REASON_NONE} == set(STOP_REASONS[mode])


def test_mode_resource_ordering_on_simulated_corpus():
    """Every non-default strategy spends strictly fewer mean epochs than the
    default criteria on a corpus of simulated trainings."""
    from madshpo.blackbox import EvaluationRequest, SimulatedBlackbox
    from madshpo.space import ConvLayerHP, make_config

    bb = SimulatedBlackbox()
    layer = ConvLayerHP(64, 4, 1, 1, 2)
    rng = np.random.default_rng(5)
    corpus = [
        make_config(
            (layer,),
            (256,),
            learning_rate=10.0 ** rng.uniform(-5.5, -1),
            batch_size=128,
            dropout=float(np.clip(0.3 + rng.normal(0, 0.05), 0, 0.9)),
            weight_decay=1e-4,
            momentum=float(np.clip(0.9 + rng.normal(0, 0.03), 0, 0.99)),
            lr_decay=0.5,
            grad_clip=2.0,
            label_smoothing=0.1,
            epoch_scale=1.25,
        )
        for _ in range(60)
    ]
    best = max(corpus, key=lambda c: bb.final_accuracy(c, 0, 200, 1.0))
    envelope = BaselineEnvelope(bb.evaluate(EvaluationRequest(best, 200, 1.0, 0)).history)
    means = {}
    for mode in ("default", "last-success", "scheduler", "scheduler+baseline"):
        epochs = [
            bb.evaluate(
                EvaluationRequest(c, 200, 1.0, 0, StoppingMonitor(mode, envelope))
            ).epochs_used
            for c in corpus
        ]
        means[mode] = float(np.mean(epochs))
    for mode in ("last-success", "scheduler", "scheduler+baseline"):
        assert means[mode] < means["default"], means


# The grid on which the default envelope is held to the ones before it:
# (preset, ranking, seed) campaigns at GRID_BUDGET BBE, run at each noise level.
GRID = [(preset, surrogate, seed) for preset in ("p1", "p3") for surrogate in ("none", "r4") for seed in range(5)]
GRID_BUDGET = 100
NOISE_LEVELS = (SimulatedBlackbox.noise_sigma, 0.005)
# envelope name -> (milestones, margins)
ENVELOPES = {
    "default": (DEFAULT_MILESTONES, DEFAULT_MARGINS),
    "seven-pairs": (LEGACY_ENVELOPE["milestones"], LEGACY_ENVELOPE["margins"]),
    "tail": (TAIL_ENVELOPE["milestones"], TAIL_ENVELOPE["margins"]),
}


@functools.lru_cache(maxsize=None)
def grid_campaign(preset, surrogate, seed, sigma, envelope):
    """The records of one grid campaign under the named envelope, and the
    headroom of each training that became the incumbent: at each milestone
    it reached, its accuracy over that of the baseline it replaced, read as
    ``check_envelope`` reads it (a baseline at chance level checks nothing)."""
    milestones, margins = ENVELOPES[envelope]
    plan = build_plan(CampaignSettings(preset=preset, seed=seed, surrogate=surrogate, bbe_budget=GRID_BUDGET,
                                       noise_sigma=sigma, milestones=milestones, margins=margins))
    ratios = []

    def full_eval(config, monitor):
        ratios.append({})
        result = plan.full_eval(config, monitor)
        baseline = monitor.envelope.baseline_curve
        for m in milestones:
            if baseline is not None and len(result.history) >= m:
                reference = baseline.val_accuracy[min(m, len(baseline)) - 1]
                if reference > CHANCE_LEVEL:
                    ratios[-1][m] = result.history.val_accuracy[m - 1] / reference
        return result

    records = mads.run_campaign(preset_config(preset), GRID_BUDGET, replace(plan, full_eval=full_eval)).records
    full = [r for r in records if r.kind == KIND_FULL]
    assert len(full) == len(ratios)
    return records, [ratio for r, ratio in zip(full, ratios) if r.incumbent]


@pytest.mark.parametrize("sigma", NOISE_LEVELS)
@pytest.mark.parametrize("reference", ["seven-pairs", "tail"])
def test_the_default_envelope_moves_no_incumbent(reference, sigma):
    # a training that only the default envelope cuts never becomes the incumbent, and
    # BBE charges do not depend on epochs, so the search takes the same path: only the
    # cut rows differ, each stopped earlier at a milestone where the default is stricter
    older = dict(zip(*ENVELOPES[reference]))
    stricter = {m for m, margin in zip(DEFAULT_MILESTONES, DEFAULT_MARGINS) if older.get(m, 0.0) < margin}
    moved, cut = set(), 0
    for case in GRID:
        default, _ = grid_campaign(*case, sigma, "default")
        before, _ = grid_campaign(*case, sigma, reference)
        if len(default) != len(before) or [r for r in default if r.incumbent] != [r for r in before if r.incumbent]:
            moved.add(case)
            continue
        for new, old in zip(default, before):
            if new != old:
                cut += 1
                assert (new.stop_reason, new.epochs_used in stricter) == (REASON_ENVELOPE, True)
                assert new.epochs_used < old.epochs_used
                # the best epoch of the shorter training scores no higher than that of the longer one
                assert new.score <= old.score
                assert replace(new, epochs_used=old.epochs_used, stop_reason=old.stop_reason, score=old.score) == old
    # under noise the milestone at epoch 160 takes two unranked p1 campaigns another
    # way than the seven pairs do, as it did when it was added; the margins since add none
    assert moved == ({("p1", "none", 0), ("p1", "none", 4)} if (reference, sigma) == ("seven-pairs", 0.005) else set())
    assert cut


def test_the_default_margins_sit_below_the_headroom_of_every_new_incumbent():
    # the margins at epochs 50 to 150 were raised to 0.01 below the smallest
    # headroom of a new incumbent, measured under the lower margins before;
    # a margin raised past it would have cut one of these incumbents
    for m in (50, 100, 125, 150):
        headroom = [ratios[m] for case in GRID for sigma in NOISE_LEVELS
                    for ratios in grid_campaign(*case, sigma, "tail")[1] if m in ratios]
        assert len(headroom) > 100
        assert DEFAULT_MARGINS[DEFAULT_MILESTONES.index(m)] <= min(headroom) - 0.01, (m, min(headroom))
