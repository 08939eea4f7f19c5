"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.
"""

import time
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from madshpo import mads
from madshpo.blackbox import SimulatedBlackbox
from madshpo.campaign import (
    LEDGER_NAME,
    CampaignSettings,
    build_plan,
    run,
    resume,
)
from madshpo.early_stop import BaselineEnvelope, StoppingMonitor, TrainingHistory
from madshpo.ledger import KIND_FULL, read_ledger, write_ledger
from madshpo.mads import Mesh
from madshpo.space import (
    default_bounds,
    dimension,
    make_config,
    preset_config,
    slot_layout,
    to_vector,
)
from madshpo.surrogates import surrogate_by_name
from tests.lattice import lattice_sweep
from tests.test_mads import QUAD_CENTER, QUAD_START, frozen_bounds, quadratic_plan


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def campaign(seed, *, budget=200, stop_mode="scheduler+baseline", surrogate="r4",
             charge_ranking=True):
    settings = CampaignSettings(
        preset="p1", bbe_budget=budget, seed=seed, stop_mode=stop_mode,
        surrogate=surrogate, charge_ranking=charge_ranking,
    )
    return mads.run_campaign(preset_config("p1"), budget, build_plan(settings))


@pytest.fixture(scope="module")
def paired_runs():
    """Per seed: the combined-stopping run and the no-early-stop run (200 BBE, R4)."""
    started = time.monotonic()
    out = {}
    for seed in range(10):
        out[seed] = {
            mode: campaign(seed, stop_mode=mode) for mode in ("scheduler+baseline", "none")
        }
    return out, time.monotonic() - started


def test_criterion_1_dimension_formula():
    ok = (
        dimension(1, 2) == 17
        and dimension(2, 2) == 22
        and dimension(5, 1) == 36
    )
    report(1, ok, "dimension(1,2)=17, dimension(2,2)=22, dimension(5,1)=36")


def test_criterion_2_cost_ratio_table():
    costs = {name: surrogate_by_name(name).cost_ratio for name in ("r1", "r2", "r3", "r4")}
    ok = costs == {"r1": 0.125, "r2": 0.05, "r3": 0.20, "r4": 0.10}
    report(2, ok, f"surrogate cost ratios {costs}")


def test_criterion_3_envelope_milestones():
    milestones = (5, 10, 25, 50, 100, 125, 150)
    candidate_at = dict(zip(milestones, (0.44, 0.53, 0.62, 0.71, 0.76, 0.80, 0.85)))
    baseline = TrainingHistory.from_rows((e, 0.90, 0.1, 0.01) for e in range(1, 151))
    envelope = BaselineEnvelope(baseline)

    def stop_epoch(acc_at):
        monitor = StoppingMonitor("scheduler+baseline", envelope)
        monitor.start(0.01)
        history = TrainingHistory()
        level = acc_at[5]
        for e in range(1, 151):
            if e in acc_at:
                level = acc_at[e]
            history.append(e, level, 0.1, monitor.next_lr())
            if monitor.verdict(history).stop:
                return e
        return None

    first = stop_epoch(candidate_at)
    survivor = stop_epoch({**candidate_at, 5: 0.46})
    ok = first == 5 and survivor != 5
    report(3, ok, f"losing candidate stopped at epoch {first}; 0.46-at-5 candidate survives milestone 1")


def test_criterion_4_scheduler_closed_form():
    monitor = StoppingMonitor("scheduler")
    monitor.start(0.1)
    history = TrainingHistory()
    stop_epoch = None
    reductions = 0
    lr = 0.1
    for e in range(1, 301):
        history.append(e, 0.5, 1.0, monitor.next_lr())
        verdict = monitor.verdict(history)
        if monitor.next_lr() != lr:
            reductions += 1
            lr = monitor.next_lr()
        if verdict.stop:
            stop_epoch = e
            break
    ok = stop_epoch == 200 and reductions == 8
    report(4, ok, f"floor verdict at the {reductions}th reduction, epoch {stop_epoch} (8 x 25 = 200)")


def test_criterion_5_quadratic_convergence():
    started = time.monotonic()
    bounds = frozen_bounds()
    start = make_config((), (), **QUAD_START)
    center = to_vector(make_config((), (), **QUAD_CENTER), bounds)
    layout = slot_layout(bounds, 0, 0)
    good = 0
    for seed in range(20):
        result = mads.run_campaign(start, 10**9, quadratic_plan(bounds, center, seed))
        gap = 1.0 - result.best_score
        delta = Mesh(result.mesh.index).poll_sizes(layout).max()
        good += gap <= 1e-3 and delta < 1e-6 and result.next_iteration - 1 <= 500
    elapsed = time.monotonic() - started
    ok = good >= 18 and elapsed < 10.0
    report(5, ok, f"quadratic optimum within 1e-3 and delta < 1e-6 for {good}/20 seeds in {elapsed:.1f}s")


def test_criterion_6_oracle_ranking_single_evaluation():
    violations = 0
    successes = 0
    for seed in range(20):
        result = campaign(seed, budget=60, stop_mode="none", surrogate="oracle",
                          charge_ranking=False)
        per_iteration = defaultdict(lambda: [0, False])
        for rec in result.records:
            if rec.iteration > 0 and rec.kind == KIND_FULL:
                per_iteration[rec.iteration][0] += 1
                per_iteration[rec.iteration][1] |= rec.incumbent
        for count, success in per_iteration.values():
            if success:
                successes += 1
                violations += count != 1
    ok = successes > 0 and violations == 0
    report(6, ok, f"{successes} successful oracle poll steps, {violations} spent more than 1 evaluation")


def test_criterion_7_early_stopping_resource_reduction(paired_runs):
    runs, fixture_seconds = paired_runs
    started = time.monotonic()
    good = 0
    ratios = []
    for seed, pair in runs.items():
        stats = {}
        for mode, result in pair.items():
            fulls = [r for r in result.records if r.kind == KIND_FULL]
            stats[mode] = (float(np.mean([r.epochs_used for r in fulls])), result.best_score)
        mean_es, acc_es = stats["scheduler+baseline"]
        mean_none, acc_none = stats["none"]
        ratios.append(mean_es / mean_none)
        good += (mean_es <= 0.6 * mean_none) and (acc_es >= acc_none - 0.01)
    elapsed = time.monotonic() - started + fixture_seconds
    ok = good >= 8 and elapsed < 60.0
    report(
        7,
        ok,
        f"epoch ratio <= 60% with accuracy within 1pp for {good}/10 seeds "
        f"(mean ratio {np.mean(ratios):.0%}) in {elapsed:.1f}s",
    )


def test_criterion_8_ranking_surrogate_benefit():
    started = time.monotonic()

    def best_at(records, limit):
        scores = [r.score for r in records if r.kind == KIND_FULL and r.cumulative_cost <= limit + 1e-9]
        return max(scores, default=0.0)

    good = 0
    for seed in range(10):
        best = {}
        for surrogate in ("r4", "none"):
            result = campaign(seed, budget=100, stop_mode="none", surrogate=surrogate)
            best[surrogate] = best_at(result.records, 25.0)
        good += best["r4"] >= best["none"]
    elapsed = time.monotonic() - started
    ok = good >= 7 and elapsed < 120.0
    report(8, ok, f"R4-ranked best-so-far at 25% budget >= unranked for {good}/10 seeds in {elapsed:.1f}s")


def test_criterion_9_determinism_and_resume(tmp_path):
    settings = CampaignSettings(preset="p1", bbe_budget=40, seed=5, out_dir=tmp_path / "a")
    run(settings)
    run(replace(settings, out_dir=tmp_path / "b"))
    bytes_a = (tmp_path / "a" / LEDGER_NAME).read_bytes()
    identical = bytes_a == (tmp_path / "b" / LEDGER_NAME).read_bytes()

    header, records = read_ledger(tmp_path / "a" / LEDGER_NAME)
    replay_ok = True
    for cut in (1, len(records) // 3, (2 * len(records)) // 3):
        out = tmp_path / f"cut{cut}"
        out.mkdir()
        write_ledger(out / LEDGER_NAME, records[:cut], header)
        resume(replace(settings, out_dir=out))
        replay_ok &= (out / LEDGER_NAME).read_bytes() == bytes_a
    ok = identical and replay_ok
    report(9, ok, f"byte-identical ledgers={identical}, resume-replay equivalence at 3 cuts={replay_ok}")


def test_criterion_10_brute_force_oracle(paired_runs):
    runs, _ = paired_runs
    blackbox = SimulatedBlackbox()
    bounds = default_bounds()
    good = 0
    gaps = []
    for seed, pair in runs.items():
        _, sweep_best = lattice_sweep(blackbox, bounds, seed)
        campaign_best = pair["scheduler+baseline"].best_score
        gaps.append(campaign_best - sweep_best)
        good += campaign_best >= sweep_best - 0.02
    ok = good >= 8
    report(
        10,
        ok,
        f"campaign within 2pp of lattice-sweep best for {good}/10 seeds "
        f"(worst gap {min(gaps):+.4f})",
    )
