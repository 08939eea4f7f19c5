import math

import numpy as np
import pytest

from madshpo import campaign, mads
from madshpo.blackbox import EvaluationRequest, SimulatedBlackbox
from madshpo.campaign import LEDGER_NAME, CampaignSettings, build_plan
from madshpo.cli import main
from madshpo.ledger import KIND_SURROGATE, read_ledger, write_ledger
from madshpo.mads import CampaignState, Tape, continue_campaign, run_campaign
from madshpo.space import make_config, preset_config, to_vector
from madshpo.surrogates import (
    SURROGATE_TABLE,
    SurrogateSpec,
    estimate,
    rank_candidates,
    surrogate_by_name,
)
from tests.test_blackbox import CALLER_BUGS, TRAINER_FAULTS, exc_id, random_configs
from tests.test_mads import QUAD_CENTER, QUAD_START, frozen_bounds, quadratic_plan


@pytest.fixture(scope="module")
def blackbox():
    return SimulatedBlackbox()


@pytest.fixture(scope="module")
def fidelity(blackbox):
    def call(config, epochs, fraction):
        return blackbox.final_accuracy(config, 0, epochs, fraction)

    return call


class TestCostTable:
    @pytest.mark.parametrize(
        "name,cost",
        [("r1", 0.125), ("r2", 0.05), ("r3", 0.20), ("r4", 0.10), ("oracle", 1.0)],
    )
    def test_cost_ratios(self, name, cost):
        assert surrogate_by_name(name).cost_ratio == cost

    @pytest.mark.parametrize(
        "name,epochs,fraction",
        [("r1", 25, 1.0), ("r2", 10, 1.0), ("r3", 200, 0.2), ("r4", 200, 0.1), ("oracle", 200, 1.0)],
    )
    def test_fidelity_parameters(self, name, epochs, fraction):
        spec = surrogate_by_name(name)
        assert (spec.epoch_budget, spec.data_fraction) == (epochs, fraction)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            surrogate_by_name("hyperband")

    def test_custom_triple(self):
        spec = surrogate_by_name("50,0.5,0.25")
        assert spec == SurrogateSpec(50, 0.5, 0.25)
        assert spec.text == "custom 50 0.5 0.25"

    @pytest.mark.parametrize("name", ["r1", "r2", "r3", "r4", "oracle"])
    def test_a_triple_equal_to_a_row_is_that_row(self, name):
        row = SURROGATE_TABLE[name]
        for text in (",".join(map(str, row)), "custom " + " ".join(map(repr, row))):
            spec = surrogate_by_name(text)
            assert spec == surrogate_by_name(name) and spec.text == name

    @pytest.mark.parametrize("text", ["none", "None", "NONE"])
    def test_none_is_no_surrogate(self, text):
        assert surrogate_by_name(text) is None and "none" not in SURROGATE_TABLE
        # the settings and the ledger header still record it by name
        assert CampaignSettings(surrogate=text).surrogate == "none"

    def test_an_unranked_plan_charges_nothing_per_estimate(self):
        plan = build_plan(CampaignSettings(surrogate="none"))
        assert plan.surrogate is None and plan.estimate_charge == 0.0

    @pytest.mark.parametrize("triple", [(0, 1.0, 0.0), (0, 0.5, 0.25), (-1, 1.0, 0.0)])
    def test_every_surrogate_trains_an_epoch(self, triple):
        with pytest.raises(ValueError, match="epoch_budget must be >= 1"):
            SurrogateSpec(*triple)

    @pytest.mark.parametrize("text", ["0,1.0,0.0", "custom 0 1.0 0.0"])
    def test_no_ranking_is_not_a_zero_epoch_triple(self, tmp_path, capsys, text):
        with pytest.raises(ValueError, match="epoch_budget must be >= 1"):
            surrogate_by_name(text)
        assert main(["run", "--budget", "3", "--rank", text, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: rank: epoch_budget must be >= 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["r2", "custom 12 0.5 0.25", "custom 7 1.0 0.03"])
    def test_text_reads_back(self, text):
        spec = surrogate_by_name(text)
        assert spec.text == text and surrogate_by_name(spec.text) == spec

    # no surrogate trains zero epochs, so a triple of zero epochs is refused
    @pytest.mark.parametrize("text", ["1,2", "0,0.5,0.25", "12,0,0.25", "12,0.5,2", "12,0.5,x", "custom 20", "",
                                      "0,1.0,0.0", "custom 0 1.0 0.0"])
    def test_bad_text_rejected(self, text):
        with pytest.raises(ValueError):
            surrogate_by_name(text)


class TestEstimate:
    def test_oracle_equals_full_fidelity(self, blackbox, fidelity):
        config = preset_config("p1")
        full = blackbox.evaluate(EvaluationRequest(config, 200, 1.0, 0)).final_val_accuracy
        assert estimate(surrogate_by_name("oracle"), config, fidelity) == full

    def test_r4_never_above_full(self, fidelity):
        spec = surrogate_by_name("r4")
        oracle = surrogate_by_name("oracle")
        for config in random_configs(20, seed=31):
            assert estimate(spec, config, fidelity) <= estimate(oracle, config, fidelity) + 2e-4

    def test_r2_below_r1_for_slow_config(self, fidelity):
        slow = make_config((), (), learning_rate=1e-5, batch_size=512, dropout=0.8)
        assert estimate(surrogate_by_name("r2"), slow, fidelity) < estimate(
            surrogate_by_name("r1"), slow, fidelity
        )

    @pytest.mark.parametrize("fault", TRAINER_FAULTS, ids=exc_id)
    def test_blackbox_failure_scores_worst(self, fault):
        def broken(config, epochs, fraction):
            raise fault

        assert estimate(surrogate_by_name("r4"), preset_config("p1"), broken) == 0.0

    @pytest.mark.parametrize("bug", CALLER_BUGS, ids=exc_id)
    def test_a_bug_in_the_caller_propagates(self, bug):
        def broken(config, epochs, fraction):
            raise bug

        with pytest.raises(type(bug)):
            estimate(surrogate_by_name("r4"), preset_config("p1"), broken)

    def test_a_score_that_is_not_a_number_raises(self):
        # only the trainer's own call can fail as a training; its result is the caller's
        with pytest.raises(ValueError, match="could not convert"):
            estimate(surrogate_by_name("r4"), preset_config("p1"), lambda config, epochs, fraction: "abc")

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_a_score_that_is_not_finite_scores_worst(self, caplog, score):
        assert estimate(surrogate_by_name("r4"), preset_config("p1"), lambda config, epochs, fraction: score) == 0.0
        assert caplog.messages == [f"surrogate estimate {score!r} is not finite"]

    @pytest.mark.parametrize("score", [math.nan, math.inf], ids=["nan", "inf"])
    def test_a_campaign_of_non_finite_estimates_writes_a_ledger_that_replays(self, tmp_path, score):
        # a NaN estimate is unequal to itself once read back, so the loop run
        # against the rows would refuse the ranking pass that repeats it; an
        # inf one would rank first
        bounds = frozen_bounds()
        center = to_vector(make_config((), (), **QUAD_CENTER), bounds)
        plan = quadratic_plan(bounds, center, 0, max_iterations=5, surrogate="r4")
        plan.fidelity_eval = lambda config, epochs, fraction: score
        start = make_config((), (), **QUAD_START)
        result = run_campaign(start, 100, plan)
        write_ledger(tmp_path / "ledger.csv", result.records, {})
        _, records = read_ledger(tmp_path / "ledger.csv")
        fresh = CampaignState(incumbent=start, envelope=plan.envelope, tape=Tape(records, "ledger"))
        assert continue_campaign(fresh, 100, plan).records == records
        estimates = [r.score for r in records if r.kind == KIND_SURROGATE]
        assert len(estimates) > 50 and set(estimates) == {0.0}

    def test_a_fidelity_eval_of_the_wrong_arity_ends_the_campaign(self, tmp_path):
        # a bug in the caller, not a failed training: taken as one, every
        # estimate of p1 ranked with r4 scores 0.0 and is still charged
        settings = CampaignSettings(preset="p1", bbe_budget=60, seed=0, surrogate="r4", out_dir=tmp_path)
        plan = build_plan(settings)
        fidelity_eval = plan.fidelity_eval
        plan.fidelity_eval = lambda config, epochs: fidelity_eval(config, epochs, 1.0)
        with pytest.raises(TypeError):
            run_campaign(preset_config("p1"), 60, plan)

    def test_deterministic(self, fidelity):
        spec = surrogate_by_name("r3")
        config = preset_config("p2")
        assert estimate(spec, config, fidelity) == estimate(spec, config, fidelity)


class TestRankCandidates:
    def test_sorted_best_first(self, fidelity):
        configs = random_configs(12, seed=43)
        spec = surrogate_by_name("r4")
        ranked = rank_candidates(configs, spec, fidelity)
        assert list(ranked.estimates) == sorted(ranked.estimates, reverse=True)
        assert sorted(ranked.candidates, key=configs.index) == configs
        assert list(ranked.estimates) == [estimate(spec, c, fidelity) for c in ranked.candidates]

    def test_oracle_order_matches_true_scores(self, blackbox, fidelity):
        configs = random_configs(10, seed=47)
        ranked = rank_candidates(configs, surrogate_by_name("oracle"), fidelity)
        truth = sorted(
            configs,
            key=lambda c: -blackbox.evaluate(EvaluationRequest(c, 200, 1.0, 0)).final_val_accuracy,
        )
        assert list(ranked.candidates) == truth

    def test_ties_keep_original_order(self):
        configs = random_configs(5, seed=53)

        def constant(config, epochs, fraction):
            return 0.5

        ranked = rank_candidates(configs, surrogate_by_name("r4"), constant)
        assert (list(ranked.candidates), ranked.estimates) == (configs, (0.5,) * 5)

    def test_empty_poll_rejected(self, fidelity):
        with pytest.raises(ValueError):
            rank_candidates([], surrogate_by_name("r4"), fidelity)

    def test_estimates_are_the_polls_estimate_rows(self, monkeypatch):
        # each ranking's estimates, best first, are its iteration's
        # surrogate-eval rows in ledger order
        rankings = []
        real = mads.rank_candidates

        def capturing(*args):
            rankings.append(real(*args))
            return rankings[-1]

        monkeypatch.setattr(mads, "rank_candidates", capturing)
        result = run_campaign(preset_config("p1"), 60, build_plan(CampaignSettings(seed=4, surrogate="r4")))
        rows = [r for r in result.records if r.kind == KIND_SURROGATE]
        iterations = sorted({r.iteration for r in rows})
        assert len(rankings) == len(iterations) >= 2
        for ranked, k in zip(rankings, iterations):
            polled = [r for r in rows if r.iteration == k]
            assert list(ranked.estimates) == sorted(ranked.estimates, reverse=True)
            assert [(c.key, e) for c, e in zip(ranked.candidates, ranked.estimates)] == [
                (r.config, r.score) for r in polled]

    def test_an_unranked_campaign_never_ranks(self, tmp_path, monkeypatch):
        def settings(out):
            return CampaignSettings(preset="p1", bbe_budget=30, seed=7, surrogate="none", out_dir=out)

        campaign.run(settings(tmp_path / "plain"))

        def refuse(*args):
            raise AssertionError("an unranked poll was ranked")

        monkeypatch.setattr(mads, "rank_candidates", refuse)
        campaign.run(settings(tmp_path / "patched"))
        plain = (tmp_path / "plain" / LEDGER_NAME).read_bytes()
        assert (tmp_path / "patched" / LEDGER_NAME).read_bytes() == plain


def average_ranks(values):
    """Ranks 1..n, with tied values sharing the mean of their ranks."""
    values = np.asarray(values)
    ranks = np.empty(len(values))
    ranks[np.argsort(values, kind="stable")] = np.arange(1, len(values) + 1)
    _, tie_group, tie_counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.bincount(tie_group, weights=ranks) / tie_counts)[tie_group]


def spearman_rho(a, b):
    """Spearman's rank correlation: Pearson's r of the average ranks."""
    return float(np.corrcoef(average_ranks(a), average_ranks(b))[0, 1])


def test_average_ranks_share_ties():
    assert average_ranks([0.3, 0.1, 0.3, 0.2, 0.3]).tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]
    assert spearman_rho([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)


def test_r4_rank_correlation_pinned(blackbox):
    """Spearman correlation between R4 estimates and true final accuracies
    over 100 random configurations (regression-pinned brute-force value)."""
    configs = random_configs(100, seed=42)
    truth = [blackbox.final_accuracy(c, 0, 200, 1.0) for c in configs]
    approx = [blackbox.final_accuracy(c, 0, 200, 0.1) for c in configs]
    rho = spearman_rho(truth, approx)
    assert rho >= 0.8
    assert rho == pytest.approx(0.9999, abs=2e-3)
