"""Per-sample losses and their gradients, group risks, disparity metrics, Pareto dominance and archive."""

from __future__ import annotations

import numpy as np

CLAMP = 1e-12
LOSSES = ("brier", "cross_entropy")


class InputError(ValueError):
    """Raised when an operation receives malformed input."""


def _check_targets(targets, n: int, C: int) -> np.ndarray:
    """``targets`` as n integer class labels in [0, C), or InputError."""
    targets = np.asarray(targets, dtype=int)
    if targets.shape != (n,):
        raise InputError("targets length does not match the number of rows")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= C:
        raise InputError("target label out of range")
    return targets


def _losses_and_grads(probs: np.ndarray, targets: np.ndarray, loss: str):
    """Per-sample losses and their gradients dloss/dprobs, for checked targets.

    ``brier``: sum over classes of (p_j - y_j)^2 against the one-hot target,
    range [0, 2], with gradient 2 (p - y). ``cross_entropy``: -log p_target,
    clamped away from 0 and 1, with gradient -1 / p_target in the target's
    column and 0 where the clamp is active.

    Every training minibatch and every risk estimate passes through here, so
    this is where non-finite probabilities (a diverged model) raise InputError.
    """
    n = probs.shape[0]
    rows = np.arange(n)
    if loss == "brier":
        diff = probs.copy()
        diff[rows, targets] -= 1.0
        losses, grads = (diff**2).sum(axis=1), 2.0 * diff
    elif loss == "cross_entropy":
        p = probs[rows, targets]
        pc = np.clip(p, CLAMP, 1.0 - CLAMP)
        grads = np.zeros(probs.shape)
        grads[rows, targets] = np.where((p > CLAMP) & (p < 1.0 - CLAMP), -1.0 / pc, 0.0)
        losses = -np.log(pc)
    else:
        raise InputError(f"unknown loss '{loss}'")
    if not np.isfinite(losses).all():
        raise InputError("losses must be finite; the model's outputs are not (has training diverged?)")
    return losses, grads


def sample_losses(probs: np.ndarray, targets: np.ndarray, loss: str = "brier") -> np.ndarray:
    """Per-sample losses, one of ``LOSSES``, for an n x C probability matrix and n target labels."""
    probs = np.asarray(probs, dtype=float)
    n, C = probs.shape
    return _losses_and_grads(probs, _check_targets(targets, n, C), loss)[0]


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


def group_risks(probs: np.ndarray, targets, groups, loss: str = "brier") -> np.ndarray:
    """Mean loss per group, a float array of length G; every group id up to max(groups) must be present."""
    groups = np.asarray(groups, dtype=int)
    losses = sample_losses(probs, targets, loss)
    if groups.shape != losses.shape:
        raise InputError("groups length does not match probability rows")
    risks, counts = group_means(losses, groups, int(groups.max()) + 1)
    if np.any(counts == 0):
        raise InputError(f"group {int(np.argmin(counts))} has no samples; cannot estimate its risk")
    return risks


def max_gap(r) -> float:
    """Worst pairwise risk difference, max_a R_a - min_a R_a (0 for one group)."""
    r = np.asarray(r, dtype=float)
    return float(r.max() - r.min())


def dominates(r1, r2) -> bool:
    """True iff risk vector r1 is no worse in every group and strictly better in at least one."""
    a = np.asarray(r1, dtype=float)
    b = np.asarray(r2, dtype=float)
    if a.shape != b.shape:
        raise InputError("risk vectors have different lengths")
    return bool(np.all(a <= b) and np.any(a < b))


def archive_insert(archive: tuple, r):
    """Insert ``r`` unless an archived risk vector dominates it; drop those it dominates.

    ``archive`` is a tuple of mutually non-dominated risk vectors. Returns
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
