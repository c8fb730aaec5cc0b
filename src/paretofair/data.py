"""Grouped datasets: validation, CSV serialization, stratified splitting, and
the ``key = value`` settings files."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np

from paretofair.risk import InputError


@dataclass(frozen=True)
class GroupedDataset:
    """Features, target labels and group labels for n samples."""

    features: np.ndarray
    targets: np.ndarray
    groups: np.ndarray
    group_names: tuple = field(default=())

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.targets, dtype=int)
        a = np.asarray(self.groups, dtype=int)
        if X.ndim != 2 or X.shape[0] < 1:
            raise InputError("features must be a nonempty n x d matrix")
        n = X.shape[0]
        if y.shape != (n,) or a.shape != (n,):
            raise InputError("targets and groups must have length n")
        if not np.all(np.isfinite(X)):
            raise InputError("features contain non-finite values")
        if y.min() < 0 or a.min() < 0:
            raise InputError("labels must be nonnegative integers")
        G = int(a.max()) + 1
        present = np.bincount(a, minlength=G)
        if np.any(present == 0):
            missing = int(np.argmin(present))
            raise InputError(f"group {missing} has no samples")
        names = self.group_names or tuple(f"g{i}" for i in range(G))
        if len(names) != G:
            raise InputError("group_names length does not match number of groups")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "groups", a)
        object.__setattr__(self, "group_names", tuple(names))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_groups(self) -> int:
        return int(self.groups.max()) + 1

    @property
    def num_classes(self) -> int:
        return int(self.targets.max()) + 1

    def subset(self, idx) -> "GroupedDataset":
        return GroupedDataset(
            features=self.features[idx],
            targets=self.targets[idx],
            groups=self.groups[idx],
            group_names=self.group_names,
        )

    def group_ratios(self) -> np.ndarray:
        counts = np.bincount(self.groups, minlength=self.num_groups)
        return counts / counts.sum()


class ParseError(ValueError):
    """Raised when a dataset CSV cannot be parsed."""


def save_csv(dataset: GroupedDataset, path):
    """Write a dataset as CSV with columns f0..f{d-1}, target, group."""
    d = dataset.dim
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"f{i}" for i in range(d)] + ["target", "group"])
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            row += [int(dataset.targets[i]), int(dataset.groups[i])]
            w.writerow(row)


def load_csv(path) -> GroupedDataset:
    """Read a dataset CSV (header f0..f{d-1}, target, group)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        for col in ("target", "group"):
            if col not in header:
                raise ParseError(f"{path}: missing required column '{col}'")
        feat_cols = [c for c in header if c not in ("target", "group")]
        expected = [f"f{i}" for i in range(len(feat_cols))]
        if feat_cols != expected:
            raise ParseError(f"{path}: feature columns must be f0..f{len(feat_cols)-1}, got {feat_cols}")
        ti = header.index("target")
        gi = header.index("group")
        fi = [header.index(c) for c in feat_cols]
        feats, targets, groups = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                feats.append([float(row[j]) for j in fi])
                targets.append(int(row[ti]))
                groups.append(int(row[gi]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not feats:
        raise ParseError(f"{path}: no data rows")
    return GroupedDataset(
        features=np.asarray(feats), targets=np.asarray(targets), groups=np.asarray(groups)
    )


def split_dataset(dataset: GroupedDataset, fractions=(0.6, 0.2, 0.2), seed: int = 0):
    """Split stratified by (group, target) so every split keeps every group.

    Returns a tuple of datasets, one per fraction. Raises InputError if any
    split would miss a group.
    """
    fractions = np.asarray(fractions, dtype=float)
    if np.any(fractions <= 0) or abs(float(fractions.sum()) - 1.0) > 1e-9:
        raise InputError("split fractions must be positive and sum to 1")
    rng = np.random.default_rng(seed)
    k = len(fractions)
    buckets = [[] for _ in range(k)]
    keys = dataset.groups.astype(np.int64) * (dataset.targets.max() + 1) + dataset.targets
    for key in np.unique(keys):
        idx = np.flatnonzero(keys == key)
        idx = idx[rng.permutation(len(idx))]
        bounds = np.floor(np.cumsum(fractions) * len(idx)).astype(int)
        start = 0
        for j, stop in enumerate(bounds):
            buckets[j].extend(idx[start:stop].tolist())
            start = stop
    splits = []
    G = dataset.num_groups
    for j, bucket in enumerate(buckets):
        if not bucket:
            raise InputError(f"split {j} is empty")
        sub = np.sort(np.asarray(bucket))
        part_groups = set(dataset.groups[sub].tolist())
        if part_groups != set(range(G)):
            raise InputError(f"split {j} is missing a group; dataset too small for fractions")
        splits.append(dataset.subset(sub))
    return tuple(splits)


def load_key_values(path, cls):
    """Build the dataclass ``cls`` from a flat ``key = value`` text file.

    One key per line; '#' starts a comment. Each value is coerced by the type
    of its field's default: int, float, a comma-separated tuple of the type of
    the default's first item (empty items dropped, so ``hidden =`` is ``()``),
    or else str. Errors name ``path:line``.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, text = (part.strip() for part in line.partition("="))
            if not sep:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            if key not in defaults:
                raise InputError(f"{path}:{lineno}: unknown key '{key}'")
            default = defaults[key]
            try:
                if isinstance(default, tuple):
                    values[key] = tuple(type(default[0])(v) for v in text.split(",") if v.strip())
                elif isinstance(default, (int, float)):
                    values[key] = type(default)(text)
                else:
                    values[key] = text
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {key}: {exc}") from None
    return cls(**values)
