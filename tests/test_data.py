import tracemalloc

import numpy as np
import pytest

from paretofair.data import GroupedDataset, load_csv, save_csv, split_dataset
from paretofair.oracle import ScenarioParams, make_scenario, sample_dataset
from paretofair.risk import InputError


def small_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    return GroupedDataset(
        features=rng.standard_normal((n, 2)),
        targets=rng.integers(0, 2, n) if n > 4 else [0, 1, 0, 1],
        groups=np.r_[np.zeros(n // 2, dtype=int), np.ones(n - n // 2, dtype=int)],
    )


class TestGroupedDataset:
    def test_nonfinite_features_rejected(self):
        with pytest.raises(InputError, match="non-finite"):
            GroupedDataset(features=[[np.nan]], targets=[0], groups=[0])

    def test_missing_group_rejected(self):
        with pytest.raises(InputError, match="group 0"):
            GroupedDataset(features=[[1.0]], targets=[0], groups=[1])

    def test_huge_group_id_allocates_no_counts(self):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="group 0 has no samples"):
                GroupedDataset(features=[[1.0]], targets=[0], groups=[10**7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6  # a count per id up to 10**7 would take 80 MB

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            GroupedDataset(features=[[1.0], [2.0]], targets=[0], groups=[0, 0])

    def test_ratios(self):
        ds = small_dataset(n=10)
        assert np.allclose(ds.group_ratios(), [0.5, 0.5])


class TestCsvRoundTrip:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        ds = GroupedDataset(features=[[0.5], [1.5], [2.5]], targets=[0, 1, 0], groups=[0, 1, 0])
        save_csv(ds, path)
        back = load_csv(path)
        assert back.n == 3

    def test_exact_round_trip(self, tmp_path):
        spec = make_scenario(ScenarioParams())
        ds = sample_dataset(spec, 500, seed=3)
        path = tmp_path / "synth.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)
        assert np.array_equal(back.groups, ds.groups)

    def test_missing_group_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,target\n0.1,0\n")
        with pytest.raises(InputError, match="group"):
            load_csv(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,target,group\n0.1,0,0\nxyz,1,0\n")
        with pytest.raises(InputError, match=":3"):
            load_csv(path)

    def test_unexpected_feature_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,target,group\n0.1,0,0\n")
        with pytest.raises(InputError, match="feature columns"):
            load_csv(path)


class TestSplit:
    def test_fractions_validated(self):
        ds = small_dataset()
        with pytest.raises(InputError):
            split_dataset(ds, (0.5, 0.6), seed=0)

    def test_all_groups_in_all_splits(self):
        ds = small_dataset(n=200, seed=1)
        parts = split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
        assert sum(p.n for p in parts) <= ds.n
        for p in parts:
            assert set(p.groups.tolist()) == {0, 1}

    def test_deterministic(self):
        ds = small_dataset(n=100, seed=2)
        a = split_dataset(ds, (0.5, 0.5), seed=5)
        b = split_dataset(ds, (0.5, 0.5), seed=5)
        assert np.array_equal(a[0].features, b[0].features)

    def test_too_small_fails_loudly(self):
        ds = GroupedDataset(features=[[0.0], [1.0]], targets=[0, 1], groups=[0, 1])
        with pytest.raises(InputError):
            split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
