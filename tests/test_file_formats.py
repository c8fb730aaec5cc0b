"""Every file the tool reads: exact round trips, and on any input either a
result or an InputError that names the file."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from paretofair import cli
from paretofair.baselines import load_rule_csv
from paretofair.data import GroupedDataset, exact_header, load_csv, load_key_values, read_table, save_csv, write_table
from paretofair.model import load_checkpoint
from paretofair.oracle import load_scenario
from paretofair.report import load_metrics_csv
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
    write_table(path, ["x", "k", "y"], rows)
    back = read_table(path, exact_header(["x", "k", "y"], lambda r: (float(r[0]), int(r[1]), float(r[2]))))
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


# rows as wide as the prefix's header, of numbers and awkward values, to get
# past the header and the field counts into the row parsers and the checks
# after them
CELL = st.integers(-1, 3).map(str) | st.floats().map(repr)
CELL |= st.sampled_from(["0.5", "1e400", "nan", "99999999999999999999", "", "x"])


def after(prefix):
    """Arbitrary bytes, or ``prefix`` followed by such rows or by arbitrary bytes."""
    width = prefix.split(b"\n")[0].count(b",") + 1
    rows = st.lists(st.lists(CELL, min_size=width, max_size=width), max_size=4)
    lines = rows.map(lambda table: "".join(",".join(row) + "\n" for row in table).encode())
    return st.binary(max_size=200) | (lines | st.binary(max_size=120)).map(lambda body: prefix + body)


TEXT_LOADERS = [
    (load_csv, b"f0,target,group\n"),
    (load_rule_csv, b"group,keep_prob\n"),
    (load_metrics_csv, b"method,group,ratio,accuracy,brier,n\nx,__sample_mean,,0.5,0.5,\n"),
    (lambda p: load_key_values(p, cli.ExperimentConfig), b"hidden = "),
    (lambda p: load_key_values(p, cli.ExperimentConfig), b"lr = "),
    (load_scenario, b"priors = "),
    (load_scenario, b"grid_points = "),
]


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
        (load_csv, b"f0,target,group\n\xff,1,0\n"),
        (load_rule_csv, b"group,keep_prob\n\xff,1\n"),
        (load_metrics_csv, b"method,group,ratio,accuracy,brier,n\n\xff,g0,1.0,0.9,0.1,10\n"),
        (lambda p: cli.build_config(p, {}), b"lr = 0.1\nmethod = \xff\n"),
        (load_scenario, b"grid_points = 11\npriors = \xfe\n"),
    ],
)
def test_bytes_that_are_not_utf8_name_the_line(tmp_path, load, text):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    with pytest.raises(InputError, match=r"bad\.txt:2: 'utf-8' codec can't decode"):
        load(path)
