import numpy as np
import pytest

from madshpo.blackbox import EvaluationRequest, SimulatedBlackbox
from madshpo.mads import PollCandidate
from madshpo.space import make_config, preset_config
from madshpo.surrogates import (
    SurrogateSpec,
    estimate,
    rank_candidates,
    surrogate_by_name,
)
from tests.test_blackbox import random_configs


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
        [("r1", 0.125), ("r2", 0.05), ("r3", 0.20), ("r4", 0.10), ("oracle", 1.0), ("none", 0.0)],
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

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValueError):
            SurrogateSpec("r1", 25, 1.0, 0.2)
        with pytest.raises(ValueError):
            SurrogateSpec("r4", 201, 0.1, 0.1)
        with pytest.raises(ValueError):
            SurrogateSpec("r9", 25, 1.0, 0.1)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            surrogate_by_name("hyperband")

    def test_custom_triple(self):
        spec = surrogate_by_name("50,0.5,0.25")
        assert spec.kind == "custom" and spec.cost_ratio == 0.25
        assert (spec.epoch_budget, spec.data_fraction) == (50, 0.5)
        assert spec.text == "custom 50 0.5 0.25"

    @pytest.mark.parametrize("text", ["r2", "none", "custom 12 0.5 0.25", "custom 7 1.0 0.03"])
    def test_text_reads_back(self, text):
        spec = surrogate_by_name(text)
        assert spec.text == text and surrogate_by_name(spec.text) == spec

    @pytest.mark.parametrize("text", ["1,2", "0,0.5,0.25", "12,0,0.25", "12,0.5,2", "12,0.5,x", "custom 20", ""])
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

    def test_blackbox_failure_scores_worst(self):
        def broken(config, epochs, fraction):
            raise RuntimeError("gpu on fire")

        assert estimate(surrogate_by_name("r4"), preset_config("p1"), broken) == 0.0

    def test_disabled_surrogate_cannot_estimate(self, fidelity):
        with pytest.raises(ValueError):
            estimate(surrogate_by_name("none"), preset_config("p1"), fidelity)

    def test_deterministic(self, fidelity):
        spec = surrogate_by_name("r3")
        config = preset_config("p2")
        assert estimate(spec, config, fidelity) == estimate(spec, config, fidelity)


def as_candidates(configs):
    return [PollCandidate(c, "poll-direction") for c in configs]


class TestRankCandidates:
    def test_disabled_returns_original_order_free(self, fidelity):
        configs = random_configs(6, seed=37)
        ranked = rank_candidates(as_candidates(configs), surrogate_by_name("none"), fidelity)
        assert [c.config for c in ranked.candidates] == configs
        assert all(c.estimate is None for c in ranked.candidates)

    def test_sorted_best_first(self, fidelity):
        configs = random_configs(12, seed=43)
        ranked = rank_candidates(as_candidates(configs), surrogate_by_name("r4"), fidelity)
        estimates = [c.estimate for c in ranked.candidates]
        assert estimates == sorted(estimates, reverse=True)

    def test_oracle_order_matches_true_scores(self, blackbox, fidelity):
        configs = random_configs(10, seed=47)
        ranked = rank_candidates(as_candidates(configs), surrogate_by_name("oracle"), fidelity)
        truth = sorted(
            configs,
            key=lambda c: -blackbox.evaluate(EvaluationRequest(c, 200, 1.0, 0)).final_val_accuracy,
        )
        assert [c.config for c in ranked.candidates] == truth

    def test_ties_keep_original_order(self):
        configs = random_configs(5, seed=53)

        def constant(config, epochs, fraction):
            return 0.5

        ranked = rank_candidates(as_candidates(configs), surrogate_by_name("r4"), constant)
        assert [c.config for c in ranked.candidates] == configs

    def test_empty_poll_rejected(self, fidelity):
        with pytest.raises(ValueError):
            rank_candidates([], surrogate_by_name("r4"), fidelity)


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
