"""Per-sample losses and their gradients, group risks, disparity metrics, Pareto dominance and archive."""

from __future__ import annotations

import numpy as np

CLAMP = 1e-12
LOSSES = ("brier", "cross_entropy")


class InputError(ValueError):
    """Raised when an operation receives malformed input."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed, int64: bool = False):
    """InputError naming ``seed`` unless numpy takes it (an integer >= 0) and, if
    ``int64``, a checkpoint's int64 seed field does too (below 2**63)."""
    if not (_is_int(seed) and seed >= 0 and (not int64 or seed < 2**63)):
        rule = "an integer in [0, 2**63)" if int64 else "an integer >= 0"
        raise InputError(f"seed must be {rule}, got {seed!r}")


def _check_field(obj, name: str, ok: bool, rule: str):
    """InputError naming the field ``name`` of ``obj`` and its value, unless ``ok``."""
    if not ok:
        raise InputError(f"{name} must be {rule}, got {getattr(obj, name)!r}")


def _labels(values, name: str, n: int | None = None, bound: int = 2**53) -> np.ndarray:
    """``values`` as a 1-D int array of labels: whole numbers in [0, bound), n of them when n is given.

    The one rule for every target, group id and decision array; a value or a
    shape that breaks it raises InputError naming ``name``. ``bound`` is at
    most 2**53, below which float64 holds every whole number exactly.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        labels = values  # already whole numbers; the range check below covers them
    else:
        try:
            f = np.asarray(values, dtype=float)
        except (OverflowError, TypeError, ValueError):  # an int beyond the float range, or not a number
            raise _label_error(name, bound) from None
        if not np.all((f >= 0) & (f < 2.0**53) & (f == np.floor(f))):
            raise _label_error(name, bound)
        labels = f.astype(int)
    if labels.ndim != 1 or n not in (None, len(labels)):
        raise InputError(f"{name} must be a 1-D array of {'n' if n is None else n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= bound):
        raise _label_error(name, bound)
    return labels.astype(int, copy=False)


def _label_error(name: str, bound: int) -> InputError:
    # built only on failure: the training step checks the labels of every minibatch
    return InputError(f"{name} must be whole numbers in [0, {'2**53' if bound == 2**53 else bound})")


def _first_empty(labels):
    """The smallest label in 0..max(labels) that no entry holds (0 when there are none), or None."""
    # n entries fill at most n labels, so labels clipped at n still show the
    # first empty one, and a huge label cannot make a huge count array
    present = np.bincount(np.minimum(labels, len(labels)), minlength=1)
    return int(np.argmin(present)) if np.any(present == 0) else None


def _dense_groups(groups, n: int) -> np.ndarray:
    """``groups`` as n labels in which every id 0..max(groups) is present, or InputError."""
    groups = _labels(groups, "groups", n)
    missing = _first_empty(groups)
    if missing is not None:
        raise InputError(f"group {missing} has no samples")
    return groups


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
    return _losses_and_grads(probs, _labels(targets, "targets", n, C), loss)[0]


def group_means(values, groups):
    """Mean of ``values`` per group id 0..max(groups), and the sample counts.

    ``groups`` holds one id per value, and every id up to the largest must be
    present, or InputError ``group k has no samples``. Returns (means, counts).
    """
    values = np.asarray(values, dtype=float)
    groups = _dense_groups(groups, len(values))
    means = np.array([values[groups == a].mean() for a in range(int(groups.max()) + 1)])
    return means, np.bincount(groups)


def group_risks(probs: np.ndarray, targets, groups, loss: str = "brier") -> np.ndarray:
    """Mean loss per group, a float array of length max(groups) + 1; every group id up to it must be present."""
    return group_means(sample_losses(probs, targets, loss), groups)[0]


def max_gap(r) -> float:
    """Worst pairwise risk difference, max_a R_a - min_a R_a (0 for one group)."""
    r = np.asarray(r, dtype=float)
    if r.size == 0:
        raise InputError("max_gap needs at least one risk")
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
