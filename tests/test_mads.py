import importlib.util
import inspect
import logging
import math
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from madshpo.blackbox import FAILED_REASON, WORST_SCORE, EvaluationResult
from madshpo.campaign import CampaignSettings, build_plan
from madshpo.early_stop import DEFAULT_MARGINS, DEFAULT_MILESTONES, BaselineEnvelope, StoppingMonitor, TrainingHistory
from madshpo.ledger import KIND_FULL, KIND_RANKING, KIND_SURROGATE
from madshpo import mads
from madshpo.mads import (
    Mesh,
    generate_poll,
    poll_directions,
    snap_array,
)
from madshpo.space import (
    SlotSpec,
    SpaceBounds,
    default_bounds,
    deserialize,
    make_config,
    neighbors,
    preset_config,
    quantitative_slots,
    serialize,
    slot_layout,
    to_vector,
    validate,
    with_vector,
)
from madshpo.surrogates import surrogate_by_name
from tests.test_blackbox import CALLER_BUGS, TRAINER_FAULTS, exc_id


@pytest.fixture(scope="module")
def bounds():
    return default_bounds()


def frozen_bounds():
    """No layers, single optimizer: a purely quantitative 9-slot space."""
    b = default_bounds()
    return SpaceBounds(
        n_conv_range=(0, 0),
        n_fc_range=(0, 0),
        conv_slots=b.conv_slots,
        fc_slot=b.fc_slot,
        optimizers=("sgd",),
        scalar_slots=b.scalar_slots,
    )


def is_neighbor(config, incumbent):
    """A categorical neighbor's layer counts or optimizer differ from the
    incumbent's; a direction point keeps all three."""
    return (config.n_conv, config.n_fc, config.optimizer) != (incumbent.n_conv, incumbent.n_fc, incumbent.optimizer)


class TestMesh:
    def test_delta_doubles_with_index(self, bounds):
        layout = slot_layout(bounds, 1, 2)
        fine = Mesh(-3).poll_sizes(layout)
        coarse = Mesh(-2).poll_sizes(layout)
        assert np.allclose(coarse, 2 * fine)

    @pytest.mark.parametrize(
        "index,success,expected",
        [(-3, True, -2), (0, True, 0), (-3, False, -4), (0, False, -1)],
    )
    def test_update(self, index, success, expected):
        # the end of a poll iteration is the one place its outcome moves the mesh
        state = mads.CampaignState(incumbent=preset_config("p1"))
        state.mesh, state.next_iteration = Mesh(index), 3
        state.close_iteration(success)
        assert (state.mesh.index, state.next_iteration) == (expected, 4)

    @pytest.mark.parametrize("index", [0, -7])
    def test_project_snaps_a_one_column_matrix(self, bounds, index):
        # snap takes only a matrix; a column snaps to the bits of its own vector
        mesh = Mesh(index)
        for neighbor in neighbors(preset_config("p3"), bounds):
            layout = slot_layout(bounds, neighbor.n_conv, neighbor.n_fc)
            vector = to_vector(neighbor, bounds)
            column = mesh.snap(layout, vector[:, None])
            assert column.shape == (len(layout.slots), 1)
            assert column[:, 0].tobytes() == snap_array(
                vector, mesh.spacing(layout), layout.lowers, layout.uppers).tobytes()
            assert mesh.project(neighbor, bounds) == with_vector(neighbor, bounds, column[:, 0])


class TestPollDirections:
    def test_maximal_basis_shape_and_negation(self):
        d = poll_directions(9, 123)
        assert d.shape == (9, 18)
        assert np.allclose(d[:, 9:], -d[:, :9])
        assert poll_directions(2, 1).shape == (2, 4)  # 2n points for n = 2

    def test_columns_orthogonal_full_rank(self):
        d = poll_directions(9, 5)
        gram = d[:, :9].T @ d[:, :9]
        assert np.allclose(gram - np.diag(np.diag(gram)), 0, atol=1e-10)
        assert np.linalg.matrix_rank(d[:, :9]) == 9

    def test_deterministic_per_seed(self):
        assert np.array_equal(poll_directions(9, 7), poll_directions(9, 7))
        assert not np.array_equal(poll_directions(9, 7), poll_directions(9, 8))

    def test_unit_max_component(self):
        d = poll_directions(12, 11)
        assert np.allclose(np.abs(d).max(axis=0), 1.0)


class TestGeneratePoll:
    def test_direction_count_and_neighbors(self, bounds):
        p1 = preset_config("p1")
        poll = generate_poll(p1, Mesh(0), 42, bounds)
        directions = [c for c in poll.candidates if not is_neighbor(c, p1)]
        neighbors = [c for c in poll.candidates if is_neighbor(c, p1)]
        n = len(quantitative_slots(bounds, 1, 2))
        assert poll.directions.shape == (n, 2 * n)
        assert len(directions) <= 2 * n
        assert len(directions) >= 2 * n - 4  # dedup may drop a few
        assert 3 <= len(neighbors) <= 5
        # direction points first, neighbors last
        assert list(poll.candidates) == directions + neighbors

    def test_deterministic(self, bounds):
        p1 = preset_config("p1")
        a = generate_poll(p1, Mesh(-2), 9, bounds)
        b = generate_poll(p1, Mesh(-2), 9, bounds)
        assert [serialize(c) for c in a.candidates] == [serialize(c) for c in b.candidates]

    def test_all_candidates_on_mesh_and_in_bounds(self, bounds):
        p1 = preset_config("p2")
        for seed in range(5):
            mesh = Mesh(-seed)
            poll = generate_poll(p1, mesh, seed, bounds)
            for cand in poll.candidates:
                assert validate(cand, bounds) == []
                assert cand == mesh.project(cand, bounds)

    @pytest.mark.parametrize("preset", ["p1", "p3"])
    def test_matches_column_by_column_projection(self, bounds, preset):
        # reference: snap every direction point on its own, then keep the
        # first configuration of each serialized key that is not the incumbent
        incumbent = preset_config(preset)
        layout = slot_layout(bounds, incumbent.n_conv, incumbent.n_fc)
        for index, seed in ((0, 1), (-3, 2), (-9, 3), (-40, 4)):
            mesh = Mesh(index)
            deltas = mesh.poll_sizes(layout)
            steps = layout.granularity * np.maximum(1.0, np.round(deltas / layout.granularity))
            directions = poll_directions(len(layout.slots), seed)
            points = to_vector(incumbent, bounds)[:, None] + deltas[:, None] * directions
            expected, seen = [], {serialize(incumbent)}
            for j in range(points.shape[1]):
                vec = snap_array(points[:, j], steps, layout.lowers, layout.uppers)
                key = serialize(with_vector(incumbent, bounds, vec))
                if key not in seen:
                    seen.add(key)
                    expected.append(key)
            poll = generate_poll(incumbent, mesh, seed, bounds)
            got = [c.key for c in poll.candidates if not is_neighbor(c, incumbent)]
            assert got == expected

    def test_candidates_carry_their_serialized_key(self, bounds):
        poll = generate_poll(preset_config("p2"), Mesh(-2), 5, bounds)
        assert all(c.key == serialize(c) for c in poll.candidates)

    def test_traced_names_stay_module_attributes(self):
        # benchmark/tracing.py replaces each (owner, attribute) of TARGETS by a
        # wrapper, so every one must stay where it looks it up
        path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
        spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.TARGETS
        for owner, attr, *_ in tracing.TARGETS:
            assert attr in owner.__dict__, (owner, attr)
            assert callable(owner.__dict__[attr])

    def test_no_duplicates_or_incumbent_copies(self, bounds):
        p1 = preset_config("p1")
        poll = generate_poll(p1, Mesh(-6), 3, bounds)
        keys = [serialize(c) for c in poll.candidates]
        assert len(keys) == len(set(keys))
        assert serialize(p1) not in keys

    def test_displacements_halve_with_mesh(self, bounds):
        # the pre-projection candidate displacements are delta * direction,
        # so halving delta halves every slot's displacement exactly
        layout = slot_layout(bounds, 1, 2)
        directions = poll_directions(len(layout.slots), 77)
        coarse = Mesh(-3).poll_sizes(layout)[:, None] * directions
        fine = Mesh(-4).poll_sizes(layout)[:, None] * directions
        assert np.allclose(fine, 0.5 * coarse, rtol=1e-12)


class TestIntegerSlots:
    """A slot holds an integer because its Configuration field does, whatever its spec's granularity."""

    @staticmethod
    def half_step_fc_bounds():
        return replace(default_bounds(), fc_slot=SlotSpec(16, 1024, granularity=0.5))

    @pytest.mark.parametrize("index", [-1, -3])
    def test_a_fractional_fc_granularity_still_gives_int_sizes(self, index):
        poll = generate_poll(preset_config("p1"), Mesh(index), 5, self.half_step_fc_bounds())
        sizes = [size for c in poll.candidates for size in c.fc_sizes]
        assert sizes and all(type(size) is int for size in sizes)

    def test_a_campaign_with_a_fractional_fc_granularity_finishes(self):
        bounds = self.half_step_fc_bounds()
        plan = replace(build_plan(CampaignSettings(seed=5, charge_ranking=False)), bounds=bounds)
        result = mads.run_campaign(preset_config("p1"), 20, plan)
        # the budget ran out at a poll below mesh index 0, where the FC spacing is a multiple of 50.5
        assert (result.termination, result.mesh.index) == ("budget", -1)
        assert all(validate(deserialize(r.config), bounds) == [] for r in result.records)


def quadratic_plan(bounds, center, seed, max_iterations=500, surrogate="none"):
    slots = quantitative_slots(bounds, 0, 0)
    spans = np.array([s.spec.internal_upper - s.spec.internal_lower for s in slots])
    weights = 1.0 / spans**2

    def score(config):
        v = to_vector(config, bounds)
        return 1.0 - float(np.sum(weights * (v - center) ** 2))

    def full_eval(config, monitor):
        value = score(config)
        h = TrainingHistory()
        h.append(1, min(max(value, 0.0), 1.0), 0.0, config.learning_rate)
        return EvaluationResult(h, value, 1, "none", 1.0)

    return mads.RunPlan(
        bounds=bounds,
        seed=seed,
        surrogate=surrogate_by_name(surrogate),
        stop_mode="none",
        milestones=DEFAULT_MILESTONES,
        margins=DEFAULT_MARGINS,
        full_eval=full_eval,
        fidelity_eval=lambda c, e, f: score(c),
        charge_ranking=False,
        min_mesh_index=-60,
        max_iterations=max_iterations,
    )


QUAD_START = dict(
    learning_rate=1e-4, batch_size=256, dropout=0.7, weight_decay=1e-3, momentum=0.2,
    lr_decay=0.8, grad_clip=0.5, label_smoothing=0.25, epoch_scale=0.6,
)
QUAD_CENTER = dict(
    learning_rate=3e-3, batch_size=256, dropout=0.35, weight_decay=2e-5, momentum=0.85,
    lr_decay=0.45, grad_clip=2.5, label_smoothing=0.12, epoch_scale=1.3,
)


class TestRunCampaign:
    def test_budget_one_is_single_evaluation(self):
        b = frozen_bounds()
        start = make_config((), (), **QUAD_START)
        center = to_vector(make_config((), (), **QUAD_CENTER), b)
        result = mads.run_campaign(start, 1, quadratic_plan(b, center, 0))
        assert len(result.records) == 1
        assert result.records[0].incumbent
        assert result.cumulative == 1.0

    def test_budget_and_initial_validation(self):
        b = frozen_bounds()
        center = to_vector(make_config((), (), **QUAD_CENTER), b)
        plan = quadratic_plan(b, center, 0)
        with pytest.raises(ValueError):
            mads.run_campaign(make_config((), (), **QUAD_START), 0, plan)
        with pytest.raises(ValueError):
            mads.run_campaign(make_config((), (), dropout=2.0), 10, plan)

    def test_the_budget_is_checked_on_every_entry(self):
        b = frozen_bounds()
        start = make_config((), (), **QUAD_START)
        plan = quadratic_plan(b, to_vector(make_config((), (), **QUAD_CENTER), b), 0)
        state = mads.run_campaign(start, 20, plan)
        rows = len(state.records)
        for budget in (0, 0.5, -1.0, math.nan):
            with pytest.raises(ValueError, match="^budget must be at least 1 BBE, the start point's training$"):
                mads.continue_campaign(state, budget, plan)
        assert len(state.records) == rows

    @pytest.mark.parametrize("change, error", [
        # a negative cap acts as 0, and a floor above the start mesh ends the
        # campaign after its start point
        (dict(max_iterations=-2), "max_iterations must be >= 0"),
        (dict(min_mesh_index=3), f"min_mesh_index must be <= {mads.MAX_MESH_INDEX}"),
        (dict(milestones=(0, 10), margins=(0.5, 0.6)), "milestones must be epochs >= 1"),
        (dict(margins=DEFAULT_MARGINS[:-1]), "equal length"),
    ], ids=["negative-cap", "floor-above-start", "zero-milestone", "margin-count"])
    def test_a_plan_refuses_settings_that_cannot_take_effect(self, change, error):
        b = frozen_bounds()
        plan, calls = quadratic_plan(b, to_vector(make_config((), (), **QUAD_CENTER), b), 0), []
        plan = replace(plan, full_eval=lambda config, monitor: calls.append(config))
        given = {f.name: getattr(plan, f.name) for f in fields(plan) if f.init}
        with pytest.raises(ValueError, match=error):
            mads.RunPlan(**{**given, **change})
        with pytest.raises(ValueError, match=error):
            mads.run_campaign(make_config((), (), **QUAD_START), 10, replace(plan, **change))
        # a plan is a value, so a setting changes only through replace, which refuses it
        for name, value in change.items():
            with pytest.raises(FrozenInstanceError):
                setattr(plan, name, value)
        assert not calls

    def test_a_replaced_plan_starts_from_its_own_envelope(self):
        b = frozen_bounds()
        plan = quadratic_plan(b, to_vector(make_config((), (), **QUAD_CENTER), b), 0)
        assert plan.envelope == BaselineEnvelope(None, DEFAULT_MILESTONES, DEFAULT_MARGINS)
        edge = replace(plan, max_iterations=0, min_mesh_index=mads.MAX_MESH_INDEX, milestones=(5, 10),
                       margins=(0.5, 0.6))
        assert edge.envelope == BaselineEnvelope(None, (5, 10), (0.5, 0.6))
        with pytest.raises(ValueError, match="envelope"):
            replace(plan, envelope=edge.envelope)

    def test_one_tape_checks_the_same_rows_in_any_number_of_runs(self):
        # the quadratic campaign of seed 0 to its budget of 11 BBE: 11 rows
        b = frozen_bounds()
        start = make_config((), (), **QUAD_START)
        plan = quadratic_plan(b, to_vector(make_config((), (), **QUAD_CENTER), b), 0)
        result = mads.run_campaign(start, 11, plan)
        assert len(result.records) == 11
        tape, calls = mads.Tape(result.records, "quadratic"), []

        def full_eval(config, monitor):
            calls.append(config)
            return plan.full_eval(config, monitor)

        counted = replace(plan, full_eval=full_eval)
        for _ in range(2):
            fresh = mads.CampaignState(incumbent=start, tape=tape)
            assert mads.continue_campaign(fresh, 11, counted).records == result.records
        assert not calls
        with pytest.raises(FrozenInstanceError):
            tape.rows = []
        # a third run whose poll differs makes a row the tape does not hold
        fresh = mads.CampaignState(incumbent=start, tape=tape)
        with pytest.raises(ValueError, match="^quadratic: record 1: config "):
            mads.continue_campaign(fresh, 11, replace(counted, seed=1))
        assert not calls

    def test_a_fresh_state_is_its_start_point(self):
        # the p1 defaults at 20 BBE: the loop gives a state of only its
        # start point the plan's envelope, so it writes run_campaign's rows
        p1, plan = preset_config("p1"), build_plan(CampaignSettings())
        rows = mads.run_campaign(p1, 20, plan).records
        assert len(rows) == 120
        assert mads.continue_campaign(mads.CampaignState(incumbent=p1), 20, plan).records == rows
        # a fresh state given only a tape of those rows checks them without training
        calls = []
        untrained = replace(plan, full_eval=lambda config, monitor: calls.append(config),
                            fidelity_eval=lambda config, epochs, fraction: calls.append(config))
        taped = mads.CampaignState(incumbent=p1, tape=mads.Tape(rows, "p1"))
        assert mads.continue_campaign(taped, 20, untrained).records == rows
        assert not calls
        # a state is built from its start point and a tape alone: every other field is the loop's
        assert list(inspect.signature(mads.CampaignState).parameters) == ["incumbent", "tape"]
        with pytest.raises(TypeError):
            mads.CampaignState()
        for loop_field in ({"envelope": plan.envelope}, {"next_iteration": 1}, {"cumulative": 3.0},
                           {"records": rows}, {"best_score": 0.5}, {"mesh": Mesh(-1)}, {"termination": "budget"}):
            with pytest.raises(TypeError):
                mads.CampaignState(incumbent=p1, **loop_field)

    def test_deterministic_records(self):
        b = frozen_bounds()
        start = make_config((), (), **QUAD_START)
        center = to_vector(make_config((), (), **QUAD_CENTER), b)
        r1 = mads.run_campaign(start, 100, quadratic_plan(b, center, 3, max_iterations=10))
        r2 = mads.run_campaign(start, 100, quadratic_plan(b, center, 3, max_iterations=10))
        assert r1.records == r2.records

    def test_quadratic_convergence_smoke(self):
        b = frozen_bounds()
        start = make_config((), (), **QUAD_START)
        center = to_vector(make_config((), (), **QUAD_CENTER), b)
        layout = slot_layout(b, 0, 0)
        for seed in (0, 1, 2):
            result = mads.run_campaign(start, 10**9, quadratic_plan(b, center, seed))
            assert 1.0 - result.best_score <= 1e-3
            assert Mesh(result.mesh.index).poll_sizes(layout).max() < 1e-6
            assert result.next_iteration - 1 <= 500

    def test_failed_candidate_scores_worst_and_search_goes_on(self):
        b = frozen_bounds()
        start = make_config((), (), **QUAD_START)
        center = to_vector(make_config((), (), **QUAD_CENTER), b)
        plan = quadratic_plan(b, center, 2, max_iterations=60)
        evaluate = plan.full_eval
        best, failed = -math.inf, []

        def full_eval(config, monitor):
            # raise for the first candidate that would beat an incumbent
            # scored above WORST_SCORE, so that opportunistic polling would
            # otherwise have stopped on it
            nonlocal best
            result = evaluate(config, monitor)
            if not failed and WORST_SCORE < best < result.final_val_accuracy:
                failed.append(serialize(config))
                raise RuntimeError("trainer crashed")
            best = max(best, result.final_val_accuracy)
            return result

        plan = replace(plan, full_eval=full_eval)
        fulls = [r for r in mads.run_campaign(start, 10**6, plan).records if r.kind == KIND_FULL]
        assert failed
        i = [r.config for r in fulls].index(failed[0])
        row = fulls[i]
        assert (row.stop_reason, row.score, row.epochs_used, row.charged_cost, row.incumbent) == (
            FAILED_REASON, WORST_SCORE, 0, 1.0, False
        )
        # the poll goes on to its next candidate, judged against the unchanged incumbent
        incumbent_score = max(r.score for r in fulls[:i])
        following = fulls[i + 1]
        assert following.iteration == row.iteration
        assert following.incumbent == (following.score > incumbent_score)

    @staticmethod
    def run_failing_at(call, max_iterations):
        """The quadratic campaign of seed 2 from QUAD_START, whose initial
        score is below WORST_SCORE, with a full evaluation that raises on
        its ``call``-th call."""
        b = frozen_bounds()
        center = to_vector(make_config((), (), **QUAD_CENTER), b)
        plan = quadratic_plan(b, center, 2, max_iterations=max_iterations)
        evaluate, calls = plan.full_eval, []

        def full_eval(config, monitor):
            calls.append(config)
            if len(calls) == call:
                raise RuntimeError("trainer crashed")
            return evaluate(config, monitor)

        plan = replace(plan, full_eval=full_eval)
        return mads.run_campaign(make_config((), (), **QUAD_START), 10**6, plan)

    def test_failure_never_beats_an_incumbent_below_worst_score(self):
        result = self.run_failing_at(2, max_iterations=3)
        initial, failed, following = result.records[:3]
        assert initial.incumbent and initial.score < WORST_SCORE
        assert (failed.stop_reason, failed.score, failed.incumbent) == (FAILED_REASON, WORST_SCORE, False)
        # the poll goes on to its next candidate instead of ending on the failure
        assert following.iteration == failed.iteration == 1
        assert result.incumbent != deserialize(failed.config)
        assert result.best_score == max(r.score for r in result.records if r.stop_reason != FAILED_REASON)

    def test_failed_initial_point_stays_the_poll_centre(self):
        result = self.run_failing_at(1, max_iterations=2)
        initial = result.records[0]
        assert (initial.stop_reason, initial.incumbent) == (FAILED_REASON, False)
        start = make_config((), (), **QUAD_START)
        first_poll = generate_poll(start, Mesh(), mads.iteration_seed(2, 1), frozen_bounds())
        assert result.records[1].config == first_poll.candidates[0].key
        assert result.records[1].incumbent
        assert result.best_score != WORST_SCORE

    def test_incumbent_monotone_and_mesh_rules(self):
        b = frozen_bounds()
        start = make_config((), (), **QUAD_START)
        center = to_vector(make_config((), (), **QUAD_CENTER), b)
        result = mads.run_campaign(start, 200, quadratic_plan(b, center, 5, max_iterations=40))
        fulls = [r for r in result.records if r.kind == KIND_FULL]
        best = -math.inf
        for rec in fulls:
            if rec.incumbent:
                assert rec.score > best
                best = rec.score
        # mesh transitions follow success/failure of each iteration
        by_iter = {}
        for rec in fulls:
            if rec.iteration >= 1:
                by_iter.setdefault(rec.iteration, []).append(rec)
        for it in sorted(by_iter)[:-1]:
            if it + 1 not in by_iter:
                continue
            idx_now = by_iter[it][0].mesh_index
            idx_next = by_iter[it + 1][0].mesh_index
            if any(r.incumbent for r in by_iter[it]):
                assert idx_next == min(idx_now + 1, 0)
            else:
                assert idx_next == idx_now - 1

    def test_cost_ledger_exact(self):
        b = frozen_bounds()
        start = make_config((), (), **QUAD_START)
        center = to_vector(make_config((), (), **QUAD_CENTER), b)
        plan = quadratic_plan(b, center, 1, max_iterations=8, surrogate="r4")
        plan = replace(plan, charge_ranking=True)
        result = mads.run_campaign(start, 50, plan)
        fulls = sum(1 for r in result.records if r.kind == KIND_FULL)
        surrogate_charges = sum(
            r.charged_cost for r in result.records if r.kind == KIND_SURROGATE
        )
        assert result.cumulative == pytest.approx(fulls * 1.0 + surrogate_charges, abs=1e-9)
        assert result.cumulative <= 50 + 1e-9
        assert result.records[-1].cumulative_cost == pytest.approx(result.cumulative, abs=1e-12)
        ranking = [r for r in result.records if r.kind == KIND_RANKING]
        assert ranking and all(r.charged_cost == 0.0 for r in ranking)
        # a ranking pass charges the poll size times the cost ratio: one ratio per estimate
        estimates = [r for r in result.records if r.kind == KIND_SURROGATE]
        assert estimates and all(r.charged_cost == plan.surrogate.cost_ratio for r in estimates)

    def test_record_stamps_the_state_and_defaults_to_a_ranking_pass(self):
        state = mads.CampaignState(incumbent=preset_config("p1"))
        state.cumulative, state.mesh, state.next_iteration = 2.0, Mesh(-3), 4
        state.record(KIND_RANKING, "a=1", 0.5)
        state.record(KIND_FULL, "a=2", 0.75, epochs=9, reason="last-success", charge=1.0, incumbent=True)
        assert [(r.record_index, r.kind, r.epochs_used, r.stop_reason, r.charged_cost, r.cumulative_cost,
                 r.incumbent, r.iteration, r.mesh_index) for r in state.records] == [
            (0, KIND_RANKING, 0, "none", 0.0, 2.0, False, 4, -3),
            (1, KIND_FULL, 9, "last-success", 1.0, 3.0, True, 4, -3)]
        # a stop reason one ledger line cannot carry charges nothing and makes no row
        with pytest.raises(ValueError, match="stop_reason holds a comma"):
            state.record(KIND_FULL, "a=3", 0.25, reason="stop, early", charge=1.0)
        assert (state.cumulative, len(state.records)) == (3.0, 2)


CRASH = object()  # a scripted score that stands for each trainer fault in turn


class TestOpportunisticPoll:
    """Iteration 1 of a quadratic campaign whose full evaluations return
    scripted scores, the start point's first, with budget for every
    scripted candidate.  A score that is an exception is raised."""

    # rule: (start point's score, candidates' scores, improved, candidates evaluated)
    CASES = {
        "strict-improvement-stops-the-poll": (0.5, [0.4, 0.6, 0.9, 0.9], True, 2),
        "first-candidate-wins-at-once": (0.5, [0.9] * 5, True, 1),
        "no-improvement-evaluates-every-affordable-candidate": (0.99, [0.1] * 6, False, 6),
        "tie-is-not-an-improvement": (0.5, [0.5] * 3, False, 3),
        "failure-is-a-row-and-the-poll-goes-on": (0.5, [CRASH, 0.8, 0.9], True, 2),
        "failure-never-beats-a-negative-incumbent": (-0.5, [CRASH, CRASH, -0.9], False, 3),
    }
    # each failure rule once per trainer fault
    RULES = [
        pytest.param(rule, fault, id=rule if fault is None else f"{rule}-{exc_id(fault).lower()}")
        for rule, (_, scores, _, _) in CASES.items()
        for fault in (TRAINER_FAULTS if CRASH in scores else [None])
    ]

    @staticmethod
    def quadratic(max_iterations):
        """Frozen bounds, the quadratic start point, and its plan at seed 0."""
        b = frozen_bounds()
        center = to_vector(make_config((), (), **QUAD_CENTER), b)
        return b, make_config((), (), **QUAD_START), quadratic_plan(b, center, 0, max_iterations=max_iterations)

    @pytest.mark.parametrize("rule, fault", RULES)
    def test_poll_rule(self, rule, fault):
        start_score, scores, improved, evaluated = self.CASES[rule]
        scores = [fault if score is CRASH else score for score in scores]
        b, start, plan = self.quadratic(max_iterations=1)
        script = iter([start_score, *scores])

        def full_eval(config, monitor):
            score = next(script)
            if isinstance(score, Exception):
                raise score
            h = TrainingHistory()
            h.append(1, min(max(score, 0.0), 1.0), 0.0, config.learning_rate)
            return EvaluationResult(h, score, 1, "none", 1.0)

        plan = replace(plan, full_eval=full_eval)
        result = mads.run_campaign(start, 1 + len(scores), plan)
        poll = generate_poll(start, Mesh(), mads.iteration_seed(0, 1), b)
        assert len(poll.candidates) >= len(scores)
        first, *rows = result.records
        assert (first.config, first.score, first.incumbent) == (start.key, start_score, True)
        assert [r.config for r in rows] == [c.key for c in poll.candidates[:evaluated]]
        assert [r.stop_reason == FAILED_REASON for r in rows] == [
            isinstance(score, Exception) for score in scores[:evaluated]]
        assert all(r.charged_cost == 1.0 and r.iteration == 1 for r in rows)
        assert [r.incumbent for r in rows] == [False] * (evaluated - 1) + [improved]
        assert result.best_score == (scores[evaluated - 1] if improved else start_score)
        # the mesh stays after a success and refines after a failure
        assert result.mesh.index == (0 if improved else -1)

    def test_a_result_of_the_wrong_type_raises(self):
        # a full_eval that returns a bare score instead of an EvaluationResult
        # after its first call is a programming error, not a failed training
        _, start, plan = self.quadratic(max_iterations=30)
        evaluate, calls = plan.full_eval, []

        def full_eval(config, monitor):
            calls.append(config)
            result = evaluate(config, monitor)
            return result if len(calls) == 1 else result.final_val_accuracy

        plan = replace(plan, full_eval=full_eval)
        with pytest.raises(AttributeError):
            mads.run_campaign(start, 10**6, plan)
        assert len(calls) == 2

    @pytest.mark.parametrize("bug", CALLER_BUGS, ids=exc_id)
    @pytest.mark.parametrize("call", [1, 2], ids=["start-point", "candidate"])
    def test_a_bug_in_full_eval_ends_the_campaign(self, bug, call):
        _, start, plan = self.quadratic(max_iterations=30)
        calls = []

        def full_eval(config, monitor):
            calls.append(config)
            if len(calls) == call:
                raise bug
            return plan_eval(config, monitor)

        plan_eval, plan = plan.full_eval, replace(plan, full_eval=full_eval)
        with pytest.raises(type(bug)):
            mads.run_campaign(start, 10**6, plan)
        assert len(calls) == call

    def test_a_full_eval_of_the_wrong_arity_ends_the_campaign(self):
        # a bug in the caller, not a failed training: taken as one, it leaves
        # 50 failure rows, a best score of -inf and termination "budget"
        _, start, plan = self.quadratic(max_iterations=500)
        full_eval = plan.full_eval
        plan = replace(plan, full_eval=lambda config: full_eval(config, None))
        with pytest.raises(TypeError):
            mads.run_campaign(start, 50, plan)

    def test_a_trainer_fault_is_logged_with_its_traceback(self, caplog):
        _, start, plan = self.quadratic(max_iterations=1)

        def full_eval(config, monitor):
            raise RuntimeError("trainer crashed")

        plan = replace(plan, full_eval=full_eval)
        with caplog.at_level(logging.WARNING, logger="madshpo.mads"):
            result = mads.run_campaign(start, 3, plan)
        assert [r.stop_reason for r in result.records] == [FAILED_REASON] * 3
        logged = [r for r in caplog.records if r.name == "madshpo.mads"]
        assert len(logged) == 3
        assert all(r.exc_info and r.exc_info[0] is RuntimeError for r in logged)

    def test_full_eval_always_receives_a_monitor(self):
        _, start, plan = self.quadratic(max_iterations=3)
        full_eval, monitors = plan.full_eval, []

        def watched(config, monitor):
            monitors.append(monitor)
            return full_eval(config, monitor)

        plan = replace(plan, full_eval=watched)
        mads.run_campaign(start, 10**6, plan)
        assert monitors and all(isinstance(m, StoppingMonitor) and m.mode == "none" for m in monitors)

    def test_an_unknown_stop_mode_raises(self):
        _, start, plan = self.quadratic(max_iterations=1)
        plan = replace(plan, stop_mode="bogus")
        with pytest.raises(ValueError, match="unknown stopping mode"):
            mads.run_campaign(start, 3, plan)

    @pytest.mark.parametrize("reason", ["stop, early", 'stop "early"', "stop\nearly"])
    def test_a_stop_reason_the_ledger_cannot_carry_raises_at_once(self, reason):
        _, start, plan = self.quadratic(max_iterations=50)
        evaluate, calls = plan.full_eval, []

        def full_eval(config, monitor):
            calls.append(config)
            return replace(evaluate(config, monitor), stop_reason=reason)

        plan = replace(plan, full_eval=full_eval)
        with pytest.raises(ValueError, match="stop_reason holds a"):
            mads.run_campaign(start, 10**6, plan)
        assert len(calls) == 1
