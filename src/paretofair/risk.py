"""Per-sample losses, group-conditional risks, disparity metrics, Pareto dominance and archive."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLAMP = 1e-12


class InputError(ValueError):
    """Raised when an operation receives malformed input."""


@dataclass(frozen=True)
class RiskVector:
    """Per-group expected losses and the sample counts behind them."""

    risks: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "risks", np.asarray(self.risks, dtype=float))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=int))
        if self.risks.ndim != 1 or self.counts.shape != self.risks.shape:
            raise InputError("risks and counts must be 1-d arrays of equal length")
        if not np.all(np.isfinite(self.risks)) or np.any(self.risks < 0):
            raise InputError("risks must be finite and nonnegative")

    @property
    def num_groups(self) -> int:
        return self.risks.shape[0]


def _check_targets(targets, n: int, C: int) -> np.ndarray:
    """``targets`` as n integer class labels in [0, C), or InputError."""
    targets = np.asarray(targets, dtype=int)
    if targets.shape != (n,):
        raise InputError("targets length does not match the number of rows")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= C:
        raise InputError("target label out of range")
    return targets


def sample_losses(probs: np.ndarray, targets: np.ndarray, loss: str = "brier") -> np.ndarray:
    """Per-sample losses for an n x C probability matrix and n target labels.

    ``brier``: sum over classes of (p_j - y_j)^2 against the one-hot target,
    range [0, 2]. ``cross_entropy``: -log p_target, clamped away from 0 and 1.
    """
    probs = np.asarray(probs, dtype=float)
    n, C = probs.shape
    targets = _check_targets(targets, n, C)
    if loss == "brier":
        onehot = np.zeros((n, C))
        onehot[np.arange(n), targets] = 1.0
        return np.sum((probs - onehot) ** 2, axis=1)
    if loss == "cross_entropy":
        p = np.clip(probs[np.arange(n), targets], CLAMP, 1.0 - CLAMP)
        return -np.log(p)
    raise InputError(f"unknown loss '{loss}'")


def group_means(values, groups, num_groups: int):
    """Mean of ``values`` per group id 0..num_groups-1, and the sample counts.

    Returns (means, counts); an empty group gets mean 0 and count 0.
    """
    values = np.asarray(values, dtype=float)
    groups = np.asarray(groups, dtype=int)
    means = np.zeros(num_groups)
    counts = np.zeros(num_groups, dtype=int)
    for a in range(num_groups):
        mask = groups == a
        counts[a] = int(mask.sum())
        if counts[a]:
            means[a] = values[mask].mean()
    return means, counts


def group_risks(probs: np.ndarray, targets, groups, loss: str = "brier") -> RiskVector:
    """Mean loss per group; every group id up to max(groups) must be present."""
    groups = np.asarray(groups, dtype=int)
    losses = sample_losses(probs, targets, loss)
    if groups.shape != losses.shape:
        raise InputError("groups length does not match probability rows")
    risks, counts = group_means(losses, groups, int(groups.max()) + 1)
    if np.any(counts == 0):
        raise InputError(f"group {int(np.argmin(counts))} has no samples; cannot estimate its risk")
    return RiskVector(risks=risks, counts=counts)


def max_gap(r: RiskVector) -> float:
    """Worst pairwise risk difference, max_a R_a - min_a R_a (0 for one group)."""
    return float(r.risks.max() - r.risks.min())


def dominates(r1, r2) -> bool:
    """True iff r1 is no worse in every group and strictly better in at least one."""
    a = r1.risks if isinstance(r1, RiskVector) else np.asarray(r1, dtype=float)
    b = r2.risks if isinstance(r2, RiskVector) else np.asarray(r2, dtype=float)
    if a.shape != b.shape:
        raise InputError("risk vectors have different lengths")
    return bool(np.all(a <= b) and np.any(a < b))


def archive_insert(archive: tuple, r: RiskVector):
    """Insert ``r`` unless an archived risk vector dominates it; drop those it dominates.

    ``archive`` is a tuple of mutually non-dominated RiskVectors. Returns
    (accepted, new_archive); the input tuple is never changed.
    """
    if any(dominates(e, r) for e in archive):
        return False, archive
    return True, tuple(e for e in archive if not dominates(r, e)) + (r,)


def metric_summary(per_group_metric, group_ratios):
    """Ratio-weighted mean, unweighted mean, and max-min discrepancy."""
    m = np.asarray(per_group_metric, dtype=float)
    w = np.asarray(group_ratios, dtype=float)
    if m.shape != w.shape:
        raise InputError("metric and ratio lengths differ")
    if abs(float(w.sum()) - 1.0) > 1e-6:
        raise InputError("group ratios must sum to 1")
    sample_mean = float(np.dot(m, w))
    group_mean = float(m.mean())
    discrepancy = float(m.max() - m.min())
    return sample_mean, group_mean, discrepancy
