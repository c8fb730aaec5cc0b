"""Comparison methods: naive ERM, group-rebalanced training, and a randomized
post-processing rule that equalizes group accuracies by mixing toward chance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from paretofair.data import GroupedDataset, write_table
from paretofair.model import MLPClassifier, TrainConfig, sgd_early_stop
from paretofair.risk import InputError, group_means


def train_naive(
    model: MLPClassifier,
    train: GroupedDataset,
    val: GroupedDataset,
    config: TrainConfig,
    loss: str = "brier",
):
    """Plain ERM: uniform sampling, objective = sample-weighted mean risk."""
    counts = np.bincount(val.groups)

    def objective(r) -> float:
        return float(np.dot(r, counts) / counts.sum())

    model, _, _ = sgd_early_stop(model, train, val, objective, None, config, loss)
    return model


def train_rebalanced(
    model: MLPClassifier,
    train: GroupedDataset,
    val: GroupedDataset,
    config: TrainConfig,
    loss: str = "brier",
):
    """Equal per-group sampling, objective = unweighted mean of group risks."""

    def objective(r) -> float:
        return float(r.mean())

    model, _, _ = sgd_early_stop(model, train, val, objective, np.ones_like, config, loss)
    return model


@dataclass(frozen=True)
class RandomizedGroupRule:
    """Per-group probability of keeping the base decision vs a fair coin flip."""

    keep_prob: np.ndarray

    def __post_init__(self):
        kp = np.asarray(self.keep_prob, dtype=float)
        if not np.all((kp >= 0) & (kp <= 1)):  # NaN fails too
            raise InputError("keep probabilities must lie in [0, 1]")
        object.__setattr__(self, "keep_prob", kp)


class InfeasibleRuleError(ValueError):
    """No coin-flip mixing can reach the target accuracy for some group."""


def fit_equalizing_rule(decisions, correct, groups) -> RandomizedGroupRule:
    """Closed-form rule equalizing expected group accuracies at the minimum.

    With target t = min_a acc_a, keeping the base decision with probability
    p and flipping a fair coin otherwise gives expected accuracy
    p * acc_a + (1 - p) / 2, so p_a = (t - 1/2) / (acc_a - 1/2).
    """
    decisions = np.asarray(decisions, dtype=int)
    correct = np.asarray(correct, dtype=int)
    groups = np.asarray(groups, dtype=int)
    if not (decisions.shape == correct.shape == groups.shape):
        raise InputError("decisions, correct and groups must have equal length")
    G = int(groups.max()) + 1
    acc, counts = group_means(correct, groups, G)
    if np.any(counts == 0):
        raise InputError(f"group {int(np.argmin(counts))} has no samples")
    target = float(acc.min())
    if float(acc.max()) - target < 1e-12:
        return RandomizedGroupRule(keep_prob=np.ones(G))  # already equal
    if target <= 0.5:
        worst = int(acc.argmin())
        raise InfeasibleRuleError(
            f"group {worst} accuracy {target:.3f} is not above chance; "
            "coin-flip mixing cannot equalize below 0.5"
        )
    keep = np.ones(G)
    for a in range(G):
        if abs(acc[a] - target) < 1e-12:
            continue
        keep[a] = float(np.clip((target - 0.5) / (acc[a] - 0.5), 0.0, 1.0))
    return RandomizedGroupRule(keep_prob=keep)


def apply_rule(rule: RandomizedGroupRule, decisions, groups, seed: int = 0) -> np.ndarray:
    """Per sample: keep the decision with prob keep_prob[a], else a fair coin."""
    decisions = np.asarray(decisions, dtype=int)
    groups = np.asarray(groups, dtype=int)
    rng = np.random.default_rng(seed)
    keep = rng.random(decisions.shape[0]) < rule.keep_prob[groups]
    coin = rng.integers(0, 2, size=decisions.shape[0])
    return np.where(keep, decisions, coin)


def save_rule_csv(rule: RandomizedGroupRule, path):
    write_table(path, ["group", "keep_prob"], [list(range(len(rule.keep_prob))), rule.keep_prob])

