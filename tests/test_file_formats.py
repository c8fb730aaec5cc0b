"""Every file the tool reads: exact round trips, and on any input either a
result or an InputError that names the file."""

import csv
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from paretofair import cli
from paretofair.data import (
    _BLOCK_ROWS,
    GroupedDataset,
    _undecodable,
    exact_header,
    load_csv,
    load_key_values,
    read_table,
    save_csv,
    write_table,
)
from paretofair.model import load_checkpoint
from paretofair.oracle import load_scenario, write_reference_csv
from paretofair.report import SUMMARY_ROWS, _HEADER, _parse_metrics_row, load_metrics_csv
from paretofair.risk import InputError

# one file per example, rewritten in place
FILE_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

finite = st.floats(allow_nan=False, allow_infinity=False)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@FILE_SETTINGS
@given(st.lists(st.tuples(finite, st.integers(-1000, 1000), finite), max_size=20))
def test_table_round_trip_is_exact(tmp_path, rows):
    path = tmp_path / "t.csv"
    xs, ks, ys = ([r[j] for r in rows] for j in range(3))
    # a float64 array column is formatted whole, a list column cell by cell
    write_table(path, ["x", "k", "y"], [np.array(xs, dtype=float), ks, ys])
    parse_block = lambda block: [(float(r[0]), int(r[1]), float(r[2])) for r in block]
    back = [row for block in read_table(path, exact_header(["x", "k", "y"], parse_block)) for row in block]
    assert [k for _x, k, _y in back] == [k for _x, k, _y in rows]
    for col in (0, 2):
        assert bits([r[col] for r in back]) == bits([r[col] for r in rows])


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    G = draw(st.integers(1, n))
    features = draw(st.lists(st.lists(finite, min_size=d, max_size=d), min_size=n, max_size=n))
    targets = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    groups = draw(st.permutations([i % G for i in range(n)]))
    return GroupedDataset(features=features, targets=targets, groups=groups)


@FILE_SETTINGS
@given(datasets())
def test_dataset_round_trip_is_exact(tmp_path, ds):
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert bits(back.features) == bits(ds.features)
    assert back.targets.tolist() == ds.targets.tolist()
    assert back.groups.tolist() == ds.groups.tolist()


def returns_or_names_the_file(load, path, data):
    path.write_bytes(data)
    try:
        load(path)
    except InputError as exc:
        assert str(exc).startswith(str(path))


# rows as wide as the prefix's header, of numbers and awkward values (among
# them an integer too large for a float), to get past the header and the
# field counts into the row parsers and the checks after them
CELL = st.integers(-1, 3).map(str) | st.floats().map(repr)
CELL |= st.sampled_from(["0.5", "1e400", "nan", "99999999999999999999", "9" * 400, "", "x"])


def after(prefix):
    """Arbitrary bytes, or ``prefix`` followed by such rows or by arbitrary bytes."""
    width = prefix.split(b"\n")[0].count(b",") + 1
    rows = st.lists(st.lists(CELL, min_size=width, max_size=width), max_size=4)
    lines = rows.map(lambda table: "".join(",".join(row) + "\n" for row in table).encode())
    return st.binary(max_size=200) | (lines | st.binary(max_size=120)).map(lambda body: prefix + body)


TEXT_LOADERS = [
    pytest.param(load_csv, b"f0,target,group\n", id="dataset"),
    pytest.param(load_metrics_csv, b"method,group,ratio,accuracy,brier,n\nx,__sample_mean,,0.5,0.5,\n", id="metrics"),
    pytest.param(lambda p: load_key_values(p, cli.ExperimentConfig), b"hidden = ", id="config hidden"),
    pytest.param(lambda p: load_key_values(p, cli.ExperimentConfig), b"lr = ", id="config lr"),
    pytest.param(load_scenario, b"priors = ", id="scenario priors"),
    pytest.param(load_scenario, b"grid_points = ", id="scenario grid_points"),
]


# -- the block reader against a per-row reference ------------------------------


def reference_read_table(path, parse_header):
    """The CSV reader that parses one row per call, with ``parse_header`` returning a row parser."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if fh.read(1) != "\ufeff":  # a leading byte-order mark is skipped
                fh.seek(0)
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
        except (ValueError, OverflowError, csv.Error) as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    return rows


def reference_load_csv(path):
    """load_csv over the per-row reader: one float row per sample, then one conversion."""

    def parse_header(header):
        for col in header:
            if header.count(col) > 1:
                raise ValueError(f"repeated column '{col}'")
        for col in ("target", "group"):
            if col not in header:
                raise ValueError(f"missing required column '{col}'")
        feat_cols = [c for c in header if c not in ("target", "group")]
        if feat_cols != [f"f{i}" for i in range(len(feat_cols))]:
            raise ValueError(f"feature columns must be f0..f{len(feat_cols)-1}, got {feat_cols}")
        fi = [header.index(c) for c in feat_cols]
        ti, gi = header.index("target"), header.index("group")
        # a label too large for a float is a bad cell, named by its line
        return lambda row: [float(row[j]) for j in fi] + [float(int(row[ti])), float(int(row[gi]))]

    rows = reference_read_table(path, parse_header)
    if not rows:
        raise InputError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    try:
        return GroupedDataset(features=table[:, :-2], targets=table[:, -2], groups=table[:, -1])
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def reference_load_metrics_csv(path):
    """load_metrics_csv over the per-row reader."""
    methods = []  # of every row parsed

    def parse_row(row):
        parsed = _parse_metrics_row(row)
        methods.append(parsed[0])
        if methods[-1] != methods[0]:
            raise ValueError(f"method {methods[-1]!r} differs from the first row's {methods[0]!r}")
        return parsed

    rows = reference_read_table(path, exact_header(_HEADER, parse_row))
    names = [name for _method, name, _values in rows]
    for name in names:
        if names.count(name) > 1:
            raise InputError(f"{path}: repeated row {name}")
    summary = {name: values for _method, name, values in rows if name in SUMMARY_ROWS}
    for name in SUMMARY_ROWS:
        if name not in summary:
            raise InputError(f"{path}: missing summary row {name}")
    groups = {name: values for _method, name, values in rows if name not in SUMMARY_ROWS}
    return rows[-1][0], groups, summary


def exactly(value):
    """``value`` with each float replaced by its bits, so NaN, -0.0 and dtypes compare exactly."""
    if isinstance(value, GroupedDataset):
        arrays = (value.features, value.targets, value.groups)
        return [(a.dtype.str, a.shape, a.view(np.int64).tolist()) for a in arrays]
    if isinstance(value, float):
        return struct.unpack("<q", struct.pack("<d", value))[0]
    if isinstance(value, dict):
        return [(k, exactly(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [exactly(v) for v in value]
    return value


def outcome(load, path):
    try:
        return "result", exactly(load(path))
    except InputError as exc:
        return "error", str(exc)


METRICS_PREFIX = b"method,group,ratio,accuracy,brier,n\nx,__sample_mean,,0.5,0.5,\n"
DATASET = (load_csv, reference_load_csv, b"f0,target,group\n")
METRICS = (load_metrics_csv, reference_load_metrics_csv, METRICS_PREFIX)


@pytest.mark.parametrize("block_rows", [1, 2, _BLOCK_ROWS])
@pytest.mark.parametrize(
    "load, reference, prefix", [pytest.param(*DATASET, id="dataset"), pytest.param(*METRICS, id="metrics")]
)
@FILE_SETTINGS
@given(data=st.data())
def test_block_reader_matches_the_per_row_reader(tmp_path, block_rows, load, reference, prefix, data):
    path = tmp_path / "in.csv"
    path.write_bytes(data.draw(after(prefix)))
    with mock.patch("paretofair.data._BLOCK_ROWS", block_rows):
        assert outcome(load, path) == outcome(reference, path)


GOOD = b"0.5,1,0\n"


@pytest.mark.parametrize(
    "load, reference, head, body, message",
    [
        # a quoted cell over lines 2-4 that parses, then a bad cell on line 5
        pytest.param(*DATASET, b'"\n0.5\n",1,0\n0.5,x,0\n', "5: invalid literal for int",
                     id="dataset quoted cell then a bad cell"),
        pytest.param(*METRICS, b'x,"a\nb",0.5,0.5,0.5,3\nx,g1,y,0,0,0\n', "5: could not convert",
                     id="metrics quoted cell then a bad cell"),
        pytest.param(*DATASET, GOOD + b"\n" + GOOD, "3: expected 3 fields, got 0", id="an empty line"),
        pytest.param(*DATASET, GOOD + b"0.5," + b"9" * 400 + b",0\n", "3: int too large to convert to float",
                     id="a label too large for a float"),
        # more than one block, the bad cell in the last one
        pytest.param(*DATASET, GOOD * (2 * _BLOCK_ROWS + 3) + b"0.5,1,z\n", f"{2 * _BLOCK_ROWS + 5}: invalid",
                     id="a bad cell in the last block"),
        # a bad cell in a full block, and a bad field count in the next
        pytest.param(*DATASET, GOOD * 3 + b"e,1,0\n" + GOOD * _BLOCK_ROWS + b"1\n", "5: could not",
                     id="a bad cell before a bad field count"),
        # a bad field count in the first block, before a bad cell in the second
        pytest.param(*DATASET, b"1\n" + GOOD * _BLOCK_ROWS + b"e,1,0\n", "2: expected 3 fields, got 1",
                     id="a bad field count before a bad cell"),
        # a bad cell, then bytes that are not UTF-8 past the first 8 KiB that
        # the decoder reads, in the same block
        pytest.param(*DATASET, b"e,1,0\n" + GOOD * 2000 + b"\xff,1,0\n", "2: could not",
                     id="a bad cell before bytes that are not UTF-8"),
        pytest.param(*DATASET, GOOD * 2000 + b"\xff,1,0\n", "2002: 'utf-8' codec", id="bytes that are not UTF-8"),
        # a stateful parser: the method changes on the first row of the second
        # block, and the re-read runs the first row's check again
        pytest.param(
            *METRICS,
            b"".join(b"x,g%d,0.5,0.5,0.5,3\n" % i for i in range(_BLOCK_ROWS - 1)) + b"y,h,0.5,0.5,0.5,3\n",
            f"{_BLOCK_ROWS + 2}: method 'y' differs from the first row's 'x'",
            id="a method change in the second block",
        ),
    ],
)
def test_block_reader_errors_name_the_first_bad_line(tmp_path, load, reference, head, body, message):
    path = tmp_path / "d.csv"
    path.write_bytes(head + body)
    want = outcome(reference, path)
    assert want[0] == "error" and want[1].startswith(f"{path}:{message}")
    assert outcome(load, path) == want


def test_block_size_is_read_at_call_time(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("k\n0\n1\n2\n3\n4\n")
    sizes = []
    with mock.patch("paretofair.data._BLOCK_ROWS", 2):
        read_table(path, exact_header(["k"], lambda rows: sizes.append(len(rows))))
    assert sizes == [2, 2, 1]


def test_load_csv_takes_columns_by_name(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("target,f0,group,f1\n1,0.5,0,-2.5\n0,1.5,1,3.0\n")
    ds = load_csv(path)
    assert ds.features.tolist() == [[0.5, -2.5], [1.5, 3.0]]
    assert ds.targets.tolist() == [1, 0]
    assert ds.groups.tolist() == [0, 1]


def test_dataset_of_two_blocks_and_a_row_round_trips(tmp_path):
    n = 2 * _BLOCK_ROWS + 1
    rng = np.random.default_rng(0)
    features = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
    ds = GroupedDataset(features=features, targets=rng.integers(0, 3, n), groups=np.arange(n) % 2)
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    assert exactly(load_csv(path)) == exactly(ds)
    assert exactly(load_csv(path)) == exactly(reference_load_csv(path))


def test_load_csv_peaks_below_two_and_a_half_times_its_result(tmp_path):
    # each block is parsed into arrays; no per-row Python list of labels is built
    n = 200_000
    rng = np.random.default_rng(0)
    ds = GroupedDataset(features=rng.standard_normal((n, 1)), targets=rng.integers(0, 2, n), groups=np.arange(n) % 2)
    save_csv(ds, tmp_path / "d.csv")
    tracemalloc.start()
    try:
        back = load_csv(tmp_path / "d.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = back.features.nbytes + back.targets.nbytes + back.groups.nbytes
    assert exactly(back) == exactly(ds) and back.features.flags.c_contiguous
    assert peak <= 2.5 * size, f"peak {peak} bytes for a {size}-byte dataset"  # measured 2.0 times


# -- the column writer against a per-row reference ------------------------------


def reference_write_table(path, header, rows):
    """The CSV writer that formats one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


FLOATS = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]) | st.floats()
QUOTED = st.sampled_from([",", '"', "\n", "", "a,b", 'say "hi"', "two\nlines", " pad "])
CELLS = FLOATS | FLOATS.map(np.float64) | st.integers() | st.integers(-(2**63), 2**63 - 1).map(np.int64) | QUOTED


INTEGER_DTYPES = st.sampled_from([np.int8, np.int64, np.uint64])
TEXT = QUOTED | st.text(st.characters(blacklist_categories=("Cs",)))  # surrogates do not encode


@st.composite
def tables(draw):
    """Columns of one length: float64 or integer arrays, or lists of any cells or of strings."""
    n, k = draw(st.integers(0, 7)), draw(st.integers(1, 4))
    columns = []
    for _ in range(k):
        kind = draw(st.sampled_from(["float64", "integer", "cells", "str"]))
        if kind == "float64":
            columns.append(np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float))
        elif kind == "integer":
            dtype = np.dtype(draw(INTEGER_DTYPES))
            ints = st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
            columns.append(np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=dtype))
        else:
            columns.append(draw(st.lists(CELLS if kind == "cells" else TEXT, min_size=n, max_size=n)))
    return columns


# blocks of 1, 2 and 3 rows put block edges inside tables of up to 7 rows
@pytest.mark.parametrize("block_rows", [1, 2, 3, _BLOCK_ROWS])
@FILE_SETTINGS
@given(columns=tables())
def test_column_writer_matches_the_row_writer(tmp_path, block_rows, columns):
    header = [f"c{j}" for j in range(len(columns))]
    with mock.patch("paretofair.data._BLOCK_ROWS", block_rows):
        write_table(tmp_path / "new.csv", header, columns)
    reference_write_table(tmp_path / "ref.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_a_float32_array_keeps_the_str_of_each_cell(tmp_path):
    # not tolist: that widens each cell to float64, whose repr of 0.1 is 0.10000000149011612
    col = np.array([0.1, 1 / 3, -0.0, 1e-45, 3.4e38, np.inf, np.nan], dtype=np.float32)
    with mock.patch("paretofair.data._BLOCK_ROWS", 3):
        write_table(tmp_path / "t.csv", ["x"], [col])
    assert (tmp_path / "t.csv").read_text().split() == ["x", *map(str, col)]


def test_save_csv_holds_one_block_whatever_the_row_count(tmp_path):
    peaks = []
    for n in (20_000, 200_000):
        rng = np.random.default_rng(0)
        ds = GroupedDataset(features=rng.standard_normal((n, 1)), targets=rng.integers(0, 2, n),
                            groups=np.arange(n) % 2)
        tracemalloc.start()
        try:
            save_csv(ds, tmp_path / "d.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] == pytest.approx(peaks[0], rel=0.1), f"peaks {peaks[0]} and {peaks[1]} bytes"


@pytest.mark.parametrize("write", [
    lambda path: write_table(path, ["a", "b"], [[1, 2]]),
    lambda path: write_table(path, ["a", "b"], [np.zeros(2), [1]]),
    lambda path: write_reference_csv({"x": [0.1, 0.2], "y": [0.3]}, path),
], ids=["one column under two names", "columns of unequal length", "rows of unequal length"])
def test_a_table_its_reader_would_reject_raises_and_writes_nothing(tmp_path, write):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write(path)
    assert not path.exists()


@pytest.mark.parametrize("load, prefix", TEXT_LOADERS)
@FILE_SETTINGS
@given(data=st.data())
def test_text_loaders_on_any_bytes(tmp_path, load, prefix, data):
    returns_or_names_the_file(load, tmp_path / "in.txt", data.draw(after(prefix)))


@st.composite
def checkpoints(draw):
    """The magic, then random bytes or a header whose payload is about the right size."""
    magic = b"PFCKPT1\n"
    if draw(st.booleans()):
        return magic + draw(st.binary(max_size=200))
    dims = draw(st.lists(st.integers(0, 3), max_size=4))
    tag, seed = draw(st.integers(0, 3)), draw(st.integers(-(2**63), 2**63 - 1))
    head = struct.pack(f"<BI{len(dims)}Iq", tag, len(dims), *dims, seed)
    size = 8 * sum(i * o + o for i, o in zip(dims[:-1], dims[1:])) + draw(st.sampled_from([0, -8, 8]))
    return magic + head + draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))


@FILE_SETTINGS
@given(checkpoints())
def test_checkpoint_loader_on_any_bytes(tmp_path, data):
    returns_or_names_the_file(load_checkpoint, tmp_path / "m.ckpt", data)


@pytest.mark.parametrize(
    "load, text",
    [
        pytest.param(load_csv, b"f0,target,group\n\xff,1,0\n", id="dataset"),
        pytest.param(load_metrics_csv, b"method,group,ratio,accuracy,brier,n\n\xff,g0,1.0,0.9,0.1,10\n", id="metrics"),
        pytest.param(lambda p: cli.build_config(p, {}), b"lr = 0.1\nmethod = \xff\n", id="config"),
        pytest.param(load_scenario, b"grid_points = 11\npriors = \xfe\n", id="scenario"),
    ],
)
def test_bytes_that_are_not_utf8_name_the_line(tmp_path, load, text):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    with pytest.raises(InputError, match=r"bad\.txt:2: 'utf-8' codec can't decode"):
        load(path)


@pytest.mark.parametrize(
    "load",
    [load_csv, load_metrics_csv, lambda p: cli.build_config(p, {}), load_scenario],
    ids=["dataset", "metrics", "config", "scenario"],
)
def test_a_cut_off_byte_order_mark_is_not_utf8(tmp_path, load):
    path = tmp_path / "bad.txt"
    for text in (b"\xef", b"\xef\xbb"):  # the first bytes of the mark, and nothing after them
        path.write_bytes(text)
        with pytest.raises(InputError, match=r"bad\.txt:1: 'utf-8' codec can't decode"):
            load(path)


def _dataset_bits(ds):
    return ds.features.tobytes(), ds.targets.tolist(), ds.groups.tolist()


METRICS_TEXT = "".join(
    f"{line}\n"
    for line in [",".join(_HEADER), "naive,g0,0.75,0.9,0.1,3", "naive,g1,0.25,0.95,0.05,1"]
    + [f"naive,{name},,0.8,0.2," for name in SUMMARY_ROWS]
)


@pytest.mark.parametrize(
    "load, text",
    [
        (lambda p: _dataset_bits(load_csv(p)), "f0,f1,target,group\n0.5,-1.25,1,0\n2.0,0.1,0,1\n"),
        (load_metrics_csv, METRICS_TEXT),
        (lambda p: cli.build_config(p, {}), "n = 500\nhidden = 8,4\nmethod = naive # comment\n"),
        (load_scenario, "grid_points = 11\npriors = 0.6,0.4\n"),
    ],
    ids=["dataset", "metrics", "config", "scenario"],
)
def test_a_leading_byte_order_mark_is_ignored(tmp_path, load, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")  # the same text after the mark EF BB BF
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load(marked) == load(plain)
