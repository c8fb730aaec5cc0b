import csv

import numpy as np
import pytest

from paretofair.baselines import (
    InfeasibleRuleError,
    apply_rule,
    fit_equalizing_rule,
    save_rule_csv,
    train_naive,
    train_rebalanced,
)
from paretofair.data import GroupedDataset, split_dataset
from paretofair.model import MLPClassifier, TrainConfig
from paretofair.oracle import sample_dataset
from paretofair.risk import InputError, group_means, group_risks


def _risks(model, ds):
    return group_risks(model.forward(ds.features), ds.targets, ds.groups)


@pytest.fixture(scope="module")
def trained_pair(acceptance_spec):
    """Naive and rebalanced models on the same imbalanced asymmetric sample."""
    ds = sample_dataset(acceptance_spec, 10_000, seed=0)
    tr, va, te = split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
    cfg = TrainConfig(lr=0.1, batch_size=128, max_epochs=30, patience=4, seed=0)
    naive = train_naive(MLPClassifier([1, 32, 32, 2], seed=0), tr, va, cfg)
    rebal = train_rebalanced(MLPClassifier([1, 32, 32, 2], seed=0), tr, va, cfg)
    return naive, rebal, te


class TestTraining:
    def test_naive_favors_majority(self, trained_pair):
        naive, _rebal, te = trained_pair
        r = _risks(naive, te)
        # group 1 is both the minority and intrinsically noisier
        assert r[1] > r[0]

    def test_rebalanced_narrows_gap(self, trained_pair):
        naive, rebal, te = trained_pair
        rn, rr = _risks(naive, te), _risks(rebal, te)
        assert rr.max() - rr.min() < rn.max() - rn.min()

    def test_rebalanced_helps_minority(self, trained_pair):
        naive, rebal, te = trained_pair
        assert _risks(rebal, te)[1] < _risks(naive, te)[1]

    def test_both_beat_chance(self, trained_pair):
        naive, rebal, te = trained_pair
        assert np.all(_risks(naive, te) < 0.5)
        assert np.all(_risks(rebal, te) < 0.5)

    @pytest.mark.parametrize("trainer", [train_naive, train_rebalanced])
    @pytest.mark.parametrize(
        "train_groups, val_groups", [(2, 1), (1, 2)], ids=["val lacks a group", "train lacks a group"]
    )
    def test_train_and_validation_must_hold_the_same_groups(self, trainer, train_groups, val_groups):
        def dataset(G):
            return GroupedDataset(features=np.linspace(0, 1, 40)[:, None], targets=np.arange(40) % 2,
                                  groups=np.arange(40) // 2 % G)

        with pytest.raises(InputError, match=f"same groups: training has {train_groups}, validation {val_groups}$"):
            trainer(MLPClassifier([1, 2], seed=0), dataset(train_groups), dataset(val_groups), TrainConfig())


class TestFitRule:
    def test_two_group_closed_form(self):
        # accuracies 0.9 and 0.7: keep = (0.7 - 0.5) / (0.9 - 0.5) = 0.5
        n = 10
        groups = np.r_[np.zeros(n, dtype=int), np.ones(n, dtype=int)]
        correct = np.r_[np.ones(9), np.zeros(1), np.ones(7), np.zeros(3)].astype(int)
        rule = fit_equalizing_rule(correct, groups)
        assert np.allclose(rule, [0.5, 1.0])

    def test_three_group_closed_form(self):
        # accuracies 0.9, 0.6, 0.75: target 0.6, keep = 0.1 / (acc - 0.5)
        groups = np.repeat([0, 1, 2], 20)
        correct = np.r_[np.ones(18), np.zeros(2), np.ones(12), np.zeros(8), np.ones(15), np.zeros(5)].astype(int)
        rule = fit_equalizing_rule(correct, groups)
        assert np.allclose(rule, [0.25, 1.0, 0.4])

    def test_missing_group_rejected(self):
        with pytest.raises(InputError, match="group 1"):
            fit_equalizing_rule([1, 0], [0, 2])

    def test_equal_accuracies_keep_everything(self):
        groups = np.array([0, 0, 1, 1])
        correct = np.array([1, 0, 1, 0])
        rule = fit_equalizing_rule(correct, groups)
        assert np.allclose(rule, 1.0)

    def test_below_chance_group_infeasible(self):
        groups = np.r_[np.zeros(10, dtype=int), np.ones(10, dtype=int)]
        correct = np.r_[np.ones(9), np.zeros(1), np.ones(3), np.zeros(7)].astype(int)
        with pytest.raises(InfeasibleRuleError):
            fit_equalizing_rule(correct, groups)

    def test_monte_carlo_equalizes(self):
        rng = np.random.default_rng(0)
        n = 40_000
        groups = rng.integers(0, 2, n)
        acc_by_group = np.array([0.92, 0.68])
        decisions = rng.integers(0, 2, n)
        correct = (rng.random(n) < acc_by_group[groups]).astype(int)
        targets = np.where(correct == 1, decisions, 1 - decisions)
        rule = fit_equalizing_rule(correct, groups)
        post = apply_rule(rule, decisions, groups, seed=1)
        for a in range(2):
            mask = groups == a
            emp = float((post[mask] == targets[mask]).mean())
            assert abs(emp - acc_by_group.min()) < 0.03

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            fit_equalizing_rule([1], [0, 1])

    def test_same_bits_as_the_per_group_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            G = int(rng.integers(1, 5))
            groups = np.r_[np.arange(G), rng.integers(0, G, 40)]
            correct = (rng.random(len(groups)) < rng.uniform(0.5, 1.0, G)[groups]).astype(int)
            acc, _ = group_means(correct, groups)
            target, equal = acc.min(), acc.max() - acc.min() < 1e-12
            if target <= 0.5 and not equal:
                continue  # infeasible
            expected = np.ones(G)
            for a in range(G):
                if not equal and abs(acc[a] - target) >= 1e-12:
                    expected[a] = float(np.clip((target - 0.5) / (acc[a] - 0.5), 0.0, 1.0))
            got = fit_equalizing_rule(correct, groups)
            assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


class TestApplyRule:
    def test_keep_all_is_identity(self):
        decisions = np.array([0, 1, 1, 0])
        rule = np.array([1.0, 1.0])
        out = apply_rule(rule, decisions, np.array([0, 0, 1, 1]), seed=3)
        assert np.array_equal(out, decisions)

    def test_keep_none_is_fair_coin(self):
        rule = np.array([0.0])
        out = apply_rule(rule, np.zeros(20_000, dtype=int), np.zeros(20_000, dtype=int), seed=4)
        assert abs(out.mean() - 0.5) < 0.02

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        decisions = rng.integers(0, 2, 100)
        groups = rng.integers(0, 2, 100)
        rule = np.array([0.6, 0.3])
        a = apply_rule(rule, decisions, groups, seed=6)
        b = apply_rule(rule, decisions, groups, seed=6)
        assert np.array_equal(a, b)

    def test_invalid_keep_prob(self):
        for keep_prob in (1.2, -0.1, float("nan")):
            with pytest.raises(InputError, match=r"keep probabilities must lie in \[0, 1\]"):
                apply_rule(np.array([keep_prob]), [0], [0])

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_bad_seed_named(self, seed):
        with pytest.raises(InputError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            apply_rule([1.0, 0.5], [0, 1], [0, 1], seed=seed)

    @pytest.mark.parametrize(
        "keep_prob, decisions, groups, message",
        [
            # one group id for three decisions would broadcast
            pytest.param([1.0, 0.0], [0, 1, 1], [0], "groups must be a 1-D array of 3 labels",
                         id="one group for three decisions"),
            pytest.param([1.0, 0.0], [0, 1], [0, 1, 1], "groups must be a 1-D array of 2 labels",
                         id="three groups for two decisions"),
            pytest.param([1.0, 0.0], [[0, 1]], [[0, 1]], "decisions must be a 1-D array", id="2-D decisions"),
            # -1 would index the last group
            pytest.param([1.0, 0.0], [0, 1], [0, -1], r"groups must be whole numbers in \[0, 2\)", id="group -1"),
            pytest.param([1.0, 0.0], [0, 1], [0, 2], r"groups must be whole numbers in \[0, 2\)", id="group 2"),
            pytest.param([[1.0, 0.0]], [0, 1], [0, 0], r"keep probabilities must lie in \[0, 1\], one per group",
                         id="2-D keep probabilities"),
            # the coin draws from {0, 1}, so a decision 2 would be kept or lost at random
            pytest.param([1.0, 0.0], [0, 2], [0, 1], r"decisions must be whole numbers in \[0, 2\)", id="decision 2"),
        ],
    )
    def test_malformed_inputs_raise_input_error(self, keep_prob, decisions, groups, message):
        with pytest.raises(InputError, match=message):
            apply_rule(keep_prob, decisions, groups, seed=0)


class TestRuleCsv:
    def test_round_trip(self, tmp_path):
        rule = np.array([0.123456789012345, 1.0])
        path = tmp_path / "rule.csv"
        save_rule_csv(rule, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["group", "keep_prob"], ["0", "0.123456789012345"], ["1", "1.0"]]
        assert np.array_equal([float(kp) for _, kp in rows[1:]], rule)
