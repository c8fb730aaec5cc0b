"""Comparison methods: naive ERM, group-rebalanced training, and a randomized
post-processing rule that equalizes group accuracies by mixing toward chance."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from paretofair.data import GroupedDataset, exact_header, read_table, write_table
from paretofair.model import MLPClassifier, TrainConfig, sgd_early_stop
from paretofair.risk import InputError, RiskVector, group_means


def _uniform_weights(r: RiskVector) -> np.ndarray:
    return np.ones(r.num_groups)


def train_naive(
    model: MLPClassifier,
    train: GroupedDataset,
    val: GroupedDataset,
    config: TrainConfig,
    loss: str = "brier",
):
    """Plain ERM: uniform sampling, objective = sample-weighted mean risk."""
    cfg = replace(config, stratified=False)

    def objective(r: RiskVector) -> float:
        return float(np.dot(r.risks, r.counts) / r.counts.sum())

    model, _, _ = sgd_early_stop(model, train, val, objective, _uniform_weights, cfg, loss)
    return model


def train_rebalanced(
    model: MLPClassifier,
    train: GroupedDataset,
    val: GroupedDataset,
    config: TrainConfig,
    loss: str = "brier",
):
    """Equal per-group sampling, objective = unweighted mean of group risks."""
    cfg = replace(config, stratified=True)

    def objective(r: RiskVector) -> float:
        return float(r.risks.mean())

    model, _, _ = sgd_early_stop(model, train, val, objective, _uniform_weights, cfg, loss)
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


_RULE_HEADER = ["group", "keep_prob"]


def save_rule_csv(rule: RandomizedGroupRule, path):
    write_table(path, _RULE_HEADER, enumerate(rule.keep_prob))


def load_rule_csv(path) -> RandomizedGroupRule:
    """Read a rule CSV; its group ids must be exactly 0..G-1."""
    rows = sorted(read_table(path, exact_header(_RULE_HEADER, lambda row: (int(row[0]), float(row[1])))))
    ids = [a for a, _ in rows]
    if not ids or ids != list(range(len(ids))):
        raise InputError(f"{path}: group ids must be 0..G-1, got {ids}")
    try:
        return RandomizedGroupRule(keep_prob=np.array([kp for _, kp in rows]))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
