"""Grouped datasets: validation, stratified splitting, and the file formats:
the one CSV table writer and reader, and the ``key = value`` settings files."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from paretofair.risk import InputError


@dataclass(frozen=True)
class GroupedDataset:
    """Features, target labels and group labels for n samples."""

    features: np.ndarray
    targets: np.ndarray
    groups: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = _labels(self.targets, "targets")
        a = _labels(self.groups, "groups")
        if X.ndim != 2 or X.shape[0] < 1:
            raise InputError("features must be a nonempty n x d matrix")
        n = X.shape[0]
        if y.shape != (n,) or a.shape != (n,):
            raise InputError("targets and groups must have length n")
        if not np.all(np.isfinite(X)):
            raise InputError("features contain non-finite values")
        missing = _first_empty(a)
        if missing is not None:
            raise InputError(f"group {missing} has no samples")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "groups", a)

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
        )

    def group_ratios(self) -> np.ndarray:
        counts = np.bincount(self.groups, minlength=self.num_groups)
        return counts / counts.sum()


def _labels(values, name):
    """``values`` as int labels: each must be a whole number in [0, 2**53)."""
    # float64 holds every whole number below 2**53 exactly, so the int copy is exact
    f = np.asarray(values, dtype=float)
    if not np.all((f >= 0) & (f < 2.0**53) & (f == np.floor(f))):
        raise InputError(f"{name} must be whole numbers in [0, 2**53)")
    return f.astype(int)


def _first_empty(labels):
    """The smallest label in 0..max(labels) that no entry holds, or None."""
    # n entries fill at most n labels, so labels clipped at n still show the
    # first empty one, and a huge label cannot make a huge count array
    present = np.bincount(np.minimum(labels, len(labels)))
    return int(np.argmin(present)) if np.any(present == 0) else None


def write_table(path, header, rows):
    """Write a CSV file: the ``header`` row, then ``rows``.

    The one place a float cell is formatted: ``repr(float(v))`` for every float
    (numpy floats too), which reads back bit-identical. Other cells use ``str``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def read_table(path, parse_header):
    """The parsed data rows of the CSV file at ``path``.

    ``parse_header(header)`` checks the header row and returns the function
    that parses one data row (a list of str). An empty file, a row whose field
    count differs from the header's, bytes that are not UTF-8, or a ValueError
    from either function raise InputError naming ``path:line``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file")
            parse_row = parse_header(header)
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                rows.append(parse_row(row))
        except UnicodeDecodeError:
            raise _undecodable(path) from None
        except InputError:
            raise
        except (ValueError, csv.Error) as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    return rows


def exact_header(columns, parse_row):
    """A ``parse_header`` for ``read_table`` that accepts only ``columns``."""

    def parse_header(header):
        if header != columns:
            raise ValueError(f"unexpected header {header}, expected {columns}")
        return parse_row

    return parse_header


def _undecodable(path):
    """InputError naming the line of the first byte of ``path`` that is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return InputError(f"{path}:{line}: {exc}")
    return InputError(f"{path}: not UTF-8 text")


def save_csv(dataset: GroupedDataset, path):
    """Write a dataset as CSV with columns f0..f{d-1}, target, group."""
    header = [f"f{i}" for i in range(dataset.dim)] + ["target", "group"]
    # whole columns through .tolist(): far cheaper than a numpy scalar per cell
    columns = dataset.features.T.tolist() + [dataset.targets.tolist(), dataset.groups.tolist()]
    write_table(path, header, zip(*columns))


def load_csv(path) -> GroupedDataset:
    """Read a dataset CSV: header f0..f{d-1} (in this order), target and group."""

    def parse_header(header):
        for col in ("target", "group"):
            if col not in header:
                raise ValueError(f"missing required column '{col}'")
        feat_cols = [c for c in header if c not in ("target", "group")]
        if feat_cols != [f"f{i}" for i in range(len(feat_cols))]:
            raise ValueError(f"feature columns must be f0..f{len(feat_cols)-1}, got {feat_cols}")
        fi = [header.index(c) for c in feat_cols]
        ti, gi = header.index("target"), header.index("group")
        return lambda row: [float(row[j]) for j in fi] + [int(row[ti]), int(row[gi])]

    rows = read_table(path, parse_header)
    if not rows:
        raise InputError(f"{path}: no data rows")
    # one flat float row per sample and one conversion; GroupedDataset rejects
    # labels of 2**53 and above, which float64 may have rounded
    table = np.asarray(rows, dtype=float)
    try:
        return GroupedDataset(features=table[:, :-2], targets=table[:, -2], groups=table[:, -1])
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


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
    or else str. Errors name ``path:line``, or ``path`` when the class's own
    checks reject a value.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise _undecodable(path) from None
    for lineno, raw in enumerate(lines, start=1):
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
    try:
        return cls(**values)
    except InputError as exc:  # a value the class's own checks reject
        raise InputError(f"{path}: {exc}") from None
