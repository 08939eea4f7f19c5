import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from madshpo.blackbox import FAILED_REASON, WORST_SCORE, EvaluationResult
from madshpo.early_stop import DEFAULT_MARGINS, DEFAULT_MILESTONES, TrainingHistory
from madshpo.ledger import KIND_FULL, KIND_RANKING, KIND_SURROGATE
from madshpo import mads
from madshpo.mads import (
    Mesh,
    PollCandidate,
    generate_poll,
    opportunistic_evaluate,
    poll_directions,
    snap_array,
    update_mesh,
)
from madshpo.space import (
    SpaceBounds,
    default_bounds,
    deserialize,
    make_config,
    preset_config,
    quantitative_slots,
    serialize,
    slot_layout,
    to_vector,
    validate,
    with_vector,
)
from madshpo.surrogates import surrogate_by_name


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
        assert update_mesh(Mesh(index), success).index == expected


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
        directions = [c for c in poll.candidates if c.origin == "poll-direction"]
        neighbors = [c for c in poll.candidates if c.origin == "categorical-neighbor"]
        n = len(quantitative_slots(bounds, 1, 2))
        assert poll.directions.shape == (n, 2 * n)
        assert len(directions) <= 2 * n
        assert len(directions) >= 2 * n - 4  # dedup may drop a few
        assert 3 <= len(neighbors) <= 5

    def test_deterministic(self, bounds):
        p1 = preset_config("p1")
        a = generate_poll(p1, Mesh(-2), 9, bounds)
        b = generate_poll(p1, Mesh(-2), 9, bounds)
        assert [serialize(c.config) for c in a.candidates] == [
            serialize(c.config) for c in b.candidates
        ]

    def test_all_candidates_on_mesh_and_in_bounds(self, bounds):
        p1 = preset_config("p2")
        for seed in range(5):
            mesh = Mesh(-seed)
            poll = generate_poll(p1, mesh, seed, bounds)
            for cand in poll.candidates:
                assert validate(cand.config, bounds) == []
                assert cand.config == mesh.project(cand.config, bounds)

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
            got = [c.config.key for c in poll.candidates if c.origin == mads.ORIGIN_DIRECTION]
            assert got == expected

    def test_candidates_carry_their_serialized_key(self, bounds):
        poll = generate_poll(preset_config("p2"), Mesh(-2), 5, bounds)
        assert all(c.config.key == serialize(c.config) for c in poll.candidates)
        assert "key" not in PollCandidate.__dataclass_fields__

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
        keys = [serialize(c.config) for c in poll.candidates]
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


class TestOpportunisticEvaluate:
    def make_candidates(self, n):
        out = []
        for i in range(n):
            out.append(
                PollCandidate(make_config((), (), learning_rate=10.0 ** (-1 - i)), "poll-direction")
            )
        return out

    def evaluate(self, cands, incumbent_score, scores):
        """Run opportunistic_evaluate; return its result and the candidates
        the evaluator saw.  A score that is an exception is raised."""
        calls = []

        def evaluator(cand):
            calls.append(cand)
            score = scores[len(calls) - 1]
            if isinstance(score, Exception):
                raise score
            return score

        return opportunistic_evaluate(cands, incumbent_score, evaluator), calls

    def test_stops_at_first_improvement(self):
        cands = self.make_candidates(4)
        improved, calls = self.evaluate(cands, 0.5, [0.4, 0.6, 0.9, 0.9])
        assert improved is True
        assert calls == cands[:2]

    def test_exhaustion_counts_all(self):
        cands = self.make_candidates(6)
        improved, calls = self.evaluate(cands, 0.99, [0.1] * 6)
        assert improved is False
        assert calls == cands

    def test_first_candidate_wins_immediately(self):
        cands = self.make_candidates(5)
        improved, calls = self.evaluate(cands, 0.5, [0.9] * 5)
        assert improved is True
        assert calls == cands[:1]

    def test_tie_is_not_improvement(self):
        cands = self.make_candidates(3)
        improved, calls = self.evaluate(cands, 0.5, [0.5] * 3)
        assert improved is False
        assert calls == cands

    def test_evaluator_failure_scores_worst_and_continues(self):
        cands = self.make_candidates(3)
        improved, calls = self.evaluate(cands, 0.5, [RuntimeError("crashed"), 0.8, 0.9])
        assert improved is True
        assert calls == cands[:2]

    def test_evaluator_failure_never_beats_a_negative_incumbent(self):
        cands = self.make_candidates(3)
        improved, calls = self.evaluate(cands, -0.5, [RuntimeError("crashed")] * 2 + [-0.9])
        assert improved is False
        assert calls == cands


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
        assert result.total_cost == 1.0

    def test_budget_and_initial_validation(self):
        b = frozen_bounds()
        center = to_vector(make_config((), (), **QUAD_CENTER), b)
        plan = quadratic_plan(b, center, 0)
        with pytest.raises(ValueError):
            mads.run_campaign(make_config((), (), **QUAD_START), 0, plan)
        with pytest.raises(ValueError):
            mads.run_campaign(make_config((), (), dropout=2.0), 10, plan)

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
            assert Mesh(result.final_mesh_index).poll_sizes(layout).max() < 1e-6
            assert result.iterations <= 500

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

        plan.full_eval = full_eval
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

        plan.full_eval = full_eval
        return mads.run_campaign(make_config((), (), **QUAD_START), 10**6, plan)

    def test_failure_never_beats_an_incumbent_below_worst_score(self):
        result = self.run_failing_at(2, max_iterations=3)
        initial, failed, following = result.records[:3]
        assert initial.incumbent and initial.score < WORST_SCORE
        assert (failed.stop_reason, failed.score, failed.incumbent) == (FAILED_REASON, WORST_SCORE, False)
        # the poll goes on to its next candidate instead of ending on the failure
        assert following.iteration == failed.iteration == 1
        assert result.best_config != deserialize(failed.config)
        assert result.best_score == max(r.score for r in result.records if r.stop_reason != FAILED_REASON)

    def test_failed_initial_point_stays_the_poll_centre(self):
        result = self.run_failing_at(1, max_iterations=2)
        initial = result.records[0]
        assert (initial.stop_reason, initial.incumbent) == (FAILED_REASON, False)
        start = make_config((), (), **QUAD_START)
        first_poll = generate_poll(start, Mesh(), mads.iteration_seed(2, 1), frozen_bounds())
        assert result.records[1].config == first_poll.candidates[0].config.key
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
        plan.charge_ranking = True
        result = mads.run_campaign(start, 50, plan)
        fulls = sum(1 for r in result.records if r.kind == KIND_FULL)
        surrogate_charges = sum(
            r.charged_cost for r in result.records if r.kind == KIND_SURROGATE
        )
        assert result.total_cost == pytest.approx(fulls * 1.0 + surrogate_charges, abs=1e-9)
        assert result.total_cost <= 50 + 1e-9
        assert result.records[-1].cumulative_cost == pytest.approx(result.total_cost, abs=1e-12)
        ranking = [r for r in result.records if r.kind == KIND_RANKING]
        assert ranking and all(r.charged_cost == 0.0 for r in ranking)
        # a ranking pass charges the poll size times the cost ratio: one ratio per estimate
        estimates = [r for r in result.records if r.kind == KIND_SURROGATE]
        assert estimates and all(r.charged_cost == plan.surrogate.cost_ratio for r in estimates)
