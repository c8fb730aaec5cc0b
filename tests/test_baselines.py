import numpy as np
import pytest

from paretofair.baselines import (
    InfeasibleRuleError,
    RandomizedGroupRule,
    apply_rule,
    fit_equalizing_rule,
    load_rule_csv,
    save_rule_csv,
    train_naive,
    train_rebalanced,
)
from paretofair.data import split_dataset
from paretofair.model import MLPClassifier, TrainConfig
from paretofair.oracle import sample_dataset
from paretofair.risk import InputError, group_risks


def _risks(model, ds):
    return group_risks(model.forward(ds.features), ds.targets, ds.groups).risks


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


class TestFitRule:
    def test_two_group_closed_form(self):
        # accuracies 0.9 and 0.7: keep = (0.7 - 0.5) / (0.9 - 0.5) = 0.5
        n = 10
        groups = np.r_[np.zeros(n, dtype=int), np.ones(n, dtype=int)]
        correct = np.r_[np.ones(9), np.zeros(1), np.ones(7), np.zeros(3)].astype(int)
        rule = fit_equalizing_rule(np.zeros(2 * n, dtype=int), correct, groups)
        assert np.allclose(rule.keep_prob, [0.5, 1.0])

    def test_three_group_closed_form(self):
        # accuracies 0.9, 0.6, 0.75: target 0.6, keep = 0.1 / (acc - 0.5)
        groups = np.repeat([0, 1, 2], 20)
        correct = np.r_[np.ones(18), np.zeros(2), np.ones(12), np.zeros(8), np.ones(15), np.zeros(5)].astype(int)
        rule = fit_equalizing_rule(np.zeros(60, dtype=int), correct, groups)
        assert np.allclose(rule.keep_prob, [0.25, 1.0, 0.4])

    def test_missing_group_rejected(self):
        with pytest.raises(InputError, match="group 1"):
            fit_equalizing_rule([0, 0], [1, 0], [0, 2])

    def test_equal_accuracies_keep_everything(self):
        groups = np.array([0, 0, 1, 1])
        correct = np.array([1, 0, 1, 0])
        rule = fit_equalizing_rule(np.zeros(4, dtype=int), correct, groups)
        assert np.allclose(rule.keep_prob, 1.0)

    def test_below_chance_group_infeasible(self):
        groups = np.r_[np.zeros(10, dtype=int), np.ones(10, dtype=int)]
        correct = np.r_[np.ones(9), np.zeros(1), np.ones(3), np.zeros(7)].astype(int)
        with pytest.raises(InfeasibleRuleError):
            fit_equalizing_rule(np.zeros(20, dtype=int), correct, groups)

    def test_monte_carlo_equalizes(self):
        rng = np.random.default_rng(0)
        n = 40_000
        groups = rng.integers(0, 2, n)
        acc_by_group = np.array([0.92, 0.68])
        decisions = rng.integers(0, 2, n)
        correct = (rng.random(n) < acc_by_group[groups]).astype(int)
        targets = np.where(correct == 1, decisions, 1 - decisions)
        rule = fit_equalizing_rule(decisions, correct, groups)
        post = apply_rule(rule, decisions, groups, seed=1)
        for a in range(2):
            mask = groups == a
            emp = float((post[mask] == targets[mask]).mean())
            assert abs(emp - acc_by_group.min()) < 0.03

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            fit_equalizing_rule([0, 1], [1], [0, 1])


class TestApplyRule:
    def test_keep_all_is_identity(self):
        decisions = np.array([0, 1, 1, 0])
        rule = RandomizedGroupRule(keep_prob=np.array([1.0, 1.0]))
        out = apply_rule(rule, decisions, np.array([0, 0, 1, 1]), seed=3)
        assert np.array_equal(out, decisions)

    def test_keep_none_is_fair_coin(self):
        rule = RandomizedGroupRule(keep_prob=np.array([0.0]))
        out = apply_rule(rule, np.zeros(20_000, dtype=int), np.zeros(20_000, dtype=int), seed=4)
        assert abs(out.mean() - 0.5) < 0.02

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        decisions = rng.integers(0, 2, 100)
        groups = rng.integers(0, 2, 100)
        rule = RandomizedGroupRule(keep_prob=np.array([0.6, 0.3]))
        a = apply_rule(rule, decisions, groups, seed=6)
        b = apply_rule(rule, decisions, groups, seed=6)
        assert np.array_equal(a, b)

    def test_invalid_keep_prob(self):
        with pytest.raises(InputError):
            RandomizedGroupRule(keep_prob=np.array([1.2]))


class TestRuleCsv:
    def test_round_trip(self, tmp_path):
        rule = RandomizedGroupRule(keep_prob=np.array([0.123456789012345, 1.0]))
        path = tmp_path / "rule.csv"
        save_rule_csv(rule, path)
        back = load_rule_csv(path)
        assert np.array_equal(back.keep_prob, rule.keep_prob)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(InputError):
            load_rule_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", r"rule\.csv: empty file"),
            ("group,keep_prob\n", r"rule\.csv: group ids must be 0\.\.G-1"),
            ("group,keep_prob\n0,1.0\n1\n", r"rule\.csv:3: expected 2 fields"),
            ("group,keep_prob\n0,high\n", r"rule\.csv:2: "),
            ("group,keep_prob\n0,1.0\n2,0.5\n", r"group ids must be 0\.\.G-1, got \[0, 2\]"),
            ("group,keep_prob\n0,1.0\n0,0.5\n", r"group ids must be 0\.\.G-1, got \[0, 0\]"),
            ("group,keep_prob\n0,1.5\n", r"rule\.csv: keep probabilities must lie in \[0, 1\]"),
            ("group,keep_prob\n0,nan\n", r"rule\.csv: keep probabilities must lie in \[0, 1\]"),
        ],
    )
    def test_malformed_files_name_the_path(self, tmp_path, text, message):
        path = tmp_path / "rule.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=message):
            load_rule_csv(path)
