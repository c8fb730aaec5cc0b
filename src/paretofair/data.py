"""Grouped datasets: validation, stratified splitting, and the file formats:
the one CSV table writer and reader, and the ``key = value`` settings files."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain, islice

import numpy as np

from paretofair.risk import InputError, _check_seed, _dense_groups, _labels


@dataclass(frozen=True)
class GroupedDataset:
    """Features, target labels and group labels for n samples."""

    features: np.ndarray
    targets: np.ndarray
    groups: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        if X.ndim != 2 or X.size == 0:
            raise InputError("features must be a nonempty n x d matrix")
        if not np.all(np.isfinite(X)):
            raise InputError("features contain non-finite values")
        y = _labels(self.targets, "targets", X.shape[0])
        a = _dense_groups(self.groups, X.shape[0])
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


# rows per block of a CSV file read, parsed, formatted or written: large
# enough that the per-block calls cost nothing, small enough that a block's
# strings stay in cache
_BLOCK_ROWS = 2048


def write_table(path, header, columns):
    """Write a CSV file: the ``header`` row, then the rows of ``columns``.

    ``columns`` yields one sequence per header entry, all of one length;
    anything else raises ValueError before the file is opened. A caller that
    builds rows passes ``zip(*rows, strict=True)``, so rows of unequal length
    raise too. Rows are formatted and written ``_BLOCK_ROWS`` at a time, so
    the writer holds the strings of one block, whatever the table's length.
    """
    columns = list(columns)
    lengths = sorted({len(col) for col in columns})
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(f"a header of {len(header)} names over {len(columns)} columns of lengths {lengths}")
    n = lengths[0] if lengths else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for start in range(0, n, _BLOCK_ROWS):
            w.writerows(zip(*(_cells(col[start:start + _BLOCK_ROWS]) for col in columns)))


def _cells(col):
    """The cells of a block of one column, as ``csv`` is to write them.

    The one place a float cell is formatted: ``repr(float(v))`` for every
    float (numpy floats too), which reads back bit-identical; a float64 array
    goes through ``tolist`` and ``repr``, and an integer array through
    ``tolist``. Other cells are written by ``csv`` as ``str`` gives them.
    """
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return map(repr, col.tolist())
    if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
        return col.tolist()
    return [repr(float(v)) if isinstance(v, float) else v for v in col]


def read_table(path, parse_header):
    """The parsed blocks of data rows of the CSV file at ``path``, in file order.

    ``parse_header(header)`` checks the header row and returns the function
    that parses a block of data rows (a list of lists of str). Rows are read
    ``_BLOCK_ROWS`` at a time, and each block's field counts are checked
    before it is parsed. On any error the file is read again from the start,
    one row per block, so the error raised is that of the first bad row in
    the file. A parser may therefore see rows a second time, and it must
    raise for a one-row block exactly when that row is bad. An empty file, a
    row whose field count differs from the header's, bytes that are not
    UTF-8, or a ValueError or OverflowError from either function raise
    InputError naming ``path:line``.
    """
    error = None
    for block_rows in (_BLOCK_ROWS, 1):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                if fh.read(1) != "\ufeff":  # start past a leading byte-order mark
                    fh.seek(0)
                header = next(reader, None)
                if header is None:
                    raise InputError(f"{path}: empty file")
                parse_block = parse_header(header)
                blocks = []
                while rows := list(islice(reader, block_rows)):
                    for row in rows:
                        if len(row) != len(header):
                            raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                    blocks.append(parse_block(rows))
                if error is None:
                    return blocks
            except InputError:
                raise
            except UnicodeDecodeError:
                error = _undecodable(path)
            except (ValueError, OverflowError, csv.Error) as exc:
                error = InputError(f"{path}:{reader.line_num}: {exc}")
    # the one-row pass names the first bad row; if it finds none, the parser
    # breaks the contract above and the error of the first pass stands
    raise error


def exact_header(columns, parse_block):
    """A ``parse_header`` for ``read_table`` that accepts only ``columns``."""

    def parse_header(header):
        if header != columns:
            raise ValueError(f"unexpected header {header}, expected {columns}")
        return parse_block

    return parse_header


def _naming(path, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with ``path`` put before the message of an InputError it raises."""
    try:
        return fn(*args, **kwargs)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


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
    write_table(path, header, [*dataset.features.T, dataset.targets, dataset.groups])


def load_csv(path) -> GroupedDataset:
    """Read a dataset CSV: header f0..f{d-1} (in this order), target and group."""

    def parse_header(header):
        repeated = [col for col, count in Counter(header).items() if count > 1]
        if repeated:
            raise ValueError(f"repeated column '{repeated[0]}'")
        for col in ("target", "group"):
            if col not in header:
                raise ValueError(f"missing required column '{col}'")
        feat_cols = [c for c in header if c not in ("target", "group")]
        if feat_cols != [f"f{i}" for i in range(len(feat_cols))]:
            raise ValueError(f"feature columns must be f0..f{len(feat_cols)-1}, got {feat_cols}")
        columns = [header.index(c) for c in [*feat_cols, "target", "group"]]
        d, k = len(feat_cols), len(header)

        def parse_block(rows):
            # one conversion per column: float per feature, then int for target
            # and group, kept as float64 for GroupedDataset's check; a one-row
            # block fails on the cell that a parse of that row alone fails on
            flat = list(chain.from_iterable(rows))
            features, labels = np.empty((len(rows), d)), np.empty((2, len(rows)))
            for j, (out, col) in enumerate(zip([*features.T, *labels], columns)):
                out[:] = np.fromiter(map(float if j < d else int, flat[col::k]), float, len(rows))
            return features, labels

        return parse_block

    blocks = read_table(path, parse_header)
    if not blocks:
        raise InputError(f"{path}: no data rows")
    features = np.concatenate([block[0] for block in blocks])
    targets, groups = np.concatenate([block[1] for block in blocks], axis=1)
    del blocks  # so the labels' conversion holds one copy of the table
    return _naming(path, GroupedDataset, features, targets, groups)


def _fractions_ok(fractions) -> bool:
    """Whether the split ``fractions`` are positive and sum to 1 (NaN fails)."""
    return bool(np.all(np.greater(fractions, 0)) and abs(float(np.sum(fractions)) - 1.0) <= 1e-9)


def split_dataset(dataset: GroupedDataset, fractions=(0.6, 0.2, 0.2), seed: int = 0):
    """Split stratified by (group, target) so every split keeps every group.

    Returns a tuple of datasets, one per fraction. Raises InputError if any
    split would miss a group.
    """
    fractions = np.asarray(fractions, dtype=float)
    if not _fractions_ok(fractions):
        raise InputError("split fractions must be positive and sum to 1")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    k = len(fractions)
    split_of = np.empty(dataset.n, dtype=int)
    keys = dataset.groups.astype(np.int64) * (dataset.targets.max() + 1) + dataset.targets
    for key in np.unique(keys):
        idx = np.flatnonzero(keys == key)
        idx = idx[rng.permutation(len(idx))]
        bounds = np.floor(np.cumsum(fractions) * len(idx)).astype(int)
        bounds[-1] = len(idx)  # fractions may sum to 0.9999999999999999 (0.7, 0.2, 0.1)
        # the rows at positions bounds[j-1]..bounds[j]-1 of idx go to split j
        split_of[idx] = np.searchsorted(bounds, np.arange(len(idx)), side="right")
    splits = []
    G = dataset.num_groups
    for j in range(k):
        sub = np.flatnonzero(split_of == j)
        if len(sub) == 0:
            raise InputError(f"split {j} is empty")
        if np.any(np.bincount(dataset.groups[sub], minlength=G) == 0):
            raise InputError(f"split {j} is missing a group; dataset too small for fractions")
        splits.append(dataset.subset(sub))
    return tuple(splits)


def load_key_values(path, cls):
    """Build the dataclass ``cls`` from a flat ``key = value`` text file.

    One key per line, each at most once; '#' starts a comment. Each value is
    coerced by the type of its field's default: int, float, a comma-separated
    tuple of the type of the default's first item (empty items dropped, so
    ``hidden =`` is ``()``), or else str. Errors name ``path:line``, or
    ``path`` when the class's own checks reject a value.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:  # newlines read as "\n"
            lines = fh.read().removeprefix("\ufeff").split("\n")  # past a leading byte-order mark
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
        if key in values:
            raise InputError(f"{path}:{lineno}: repeated key '{key}'")
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
    return _naming(path, cls, **values)  # a value the class's own checks reject names the file
