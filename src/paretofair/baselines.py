"""Comparison methods: naive ERM, group-rebalanced training, and a randomized
post-processing rule that equalizes group accuracies by mixing toward chance."""

from __future__ import annotations

import numpy as np

from paretofair.data import GroupedDataset, write_table
from paretofair.model import MLPClassifier, TrainConfig, sgd_early_stop
from paretofair.risk import InputError, _check_seed, _labels, group_means


def train_naive(model: MLPClassifier, train: GroupedDataset, val: GroupedDataset, config: TrainConfig):
    """Plain ERM: uniform sampling, objective = sample-weighted mean risk."""
    counts = np.bincount(val.groups)

    def objective(r) -> float:
        return float(np.dot(r, counts) / counts.sum())

    model, _, _ = sgd_early_stop(model, train, val, objective, None, config)
    return model


def train_rebalanced(model: MLPClassifier, train: GroupedDataset, val: GroupedDataset, config: TrainConfig):
    """Equal per-group sampling, objective = unweighted mean of group risks."""

    def objective(r) -> float:
        return float(r.mean())

    model, _, _ = sgd_early_stop(model, train, val, objective, np.ones_like, config)
    return model


class InfeasibleRuleError(ValueError):
    """No coin-flip mixing can reach the target accuracy for some group."""


def fit_equalizing_rule(correct, groups) -> np.ndarray:
    """The rule equalizing expected group accuracies at the minimum: a float64 keep probability per group.

    ``correct`` holds 1 where a sample's base decision is right and 0 where
    it is wrong. With target t = min_a acc_a, keeping the base decision with
    probability p and flipping a fair coin otherwise gives expected accuracy
    p * acc_a + (1 - p) / 2, so p_a = (t - 1/2) / (acc_a - 1/2).
    """
    acc, _ = group_means(_labels(correct, "correct", bound=2), groups)
    target = float(acc.min())
    if float(acc.max()) - target < 1e-12:
        return np.ones(len(acc))  # already equal
    if target <= 0.5:
        raise InfeasibleRuleError(f"group {int(acc.argmin())} accuracy {target:.3f} is not above chance; "
                                  "coin-flip mixing cannot equalize below 0.5")
    # every accuracy is at least target > 1/2, so no division by zero
    return np.where(np.abs(acc - target) < 1e-12, 1.0, np.clip((target - 0.5) / (acc - 0.5), 0.0, 1.0))


def apply_rule(keep_prob, decisions, groups, seed: int = 0) -> np.ndarray:
    """Per sample: keep the decision (0 or 1) with prob keep_prob[a], else a fair coin."""
    keep_prob = np.asarray(keep_prob, dtype=float)
    if keep_prob.ndim != 1 or not np.all((keep_prob >= 0) & (keep_prob <= 1)):  # NaN fails too
        raise InputError("keep probabilities must lie in [0, 1], one per group")
    decisions = _labels(decisions, "decisions", bound=2)
    groups = _labels(groups, "groups", len(decisions), len(keep_prob))
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    keep = rng.random(decisions.shape[0]) < keep_prob[groups]
    coin = rng.integers(0, 2, size=decisions.shape[0])
    return np.where(keep, decisions, coin)


def save_rule_csv(keep_prob, path):
    write_table(path, ["group", "keep_prob"], [list(range(len(keep_prob))), np.asarray(keep_prob, dtype=float)])

