import tracemalloc

import numpy as np
import pytest

from paretofair.data import GroupedDataset, load_csv, save_csv, split_dataset
from paretofair.oracle import ScenarioParams, make_scenario, sample_dataset
from paretofair.report import metrics_from_decisions
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

    def test_features_need_a_column(self):
        with pytest.raises(InputError, match="^features must be a nonempty n x d matrix$"):
            GroupedDataset(features=np.zeros((3, 0)), targets=[0, 1, 0], groups=[0, 0, 0])

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

    @pytest.mark.parametrize(
        "targets, groups, name",
        [
            ([0.7, 1.9], [0.0, 0.0], "targets"),
            ([0, 1], [0.2, 0.0], "groups"),
            ([0.0, np.nan], [0, 0], "targets"),
            ([0, 1], [0.0, np.inf], "groups"),
            ([0, -1], [0, 0], "targets"),
            ([0, 1], [0, 10**400], "groups"),  # beyond the float range
        ],
    )
    def test_labels_that_are_not_whole_numbers_rejected(self, targets, groups, name):
        with pytest.raises(InputError, match=f"^{name} must be whole numbers"):
            GroupedDataset(features=[[0.0], [1.0]], targets=targets, groups=groups)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            GroupedDataset(features=[[1.0], [2.0]], targets=[0], groups=[0, 0])

    def test_ratios(self):
        # the reported group shares are the counts over n, with those bits
        for n, shares in [(10, [0.5, 0.5]), (7, [3 / 7, 4 / 7])]:
            ds = small_dataset(n=n)
            ratios = metrics_from_decisions(np.zeros(n, dtype=int), ds, [0.0, 0.0], "m").ratios
            assert ratios.tobytes() == (np.bincount(ds.groups) / n).tobytes()
            assert np.allclose(ratios, shares)


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
        # a repeated column is named, not read from its first copy
        path.write_text("f0,target,group,target\n0.1,0,0,1\n")
        with pytest.raises(InputError, match=r"bad\.csv:1: repeated column 'target'"):
            load_csv(path)


def reference_split(dataset, fractions, seed):
    """split_dataset written with Python lists and sets, one bucket per split."""
    fractions = np.asarray(fractions, dtype=float)
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in fractions]
    keys = dataset.groups.astype(np.int64) * (dataset.targets.max() + 1) + dataset.targets
    for key in np.unique(keys):
        idx = np.flatnonzero(keys == key)
        idx = idx[rng.permutation(len(idx))]
        stops = np.floor(np.cumsum(fractions) * len(idx)).astype(int)
        stops[-1] = len(idx)
        start = 0
        for j, stop in enumerate(stops):
            buckets[j].extend(idx[start:stop].tolist())
            start = stop
    for j, bucket in enumerate(buckets):
        if not bucket:
            raise InputError(f"split {j} is empty")
        if set(dataset.groups[bucket].tolist()) != set(range(dataset.num_groups)):
            raise InputError(f"split {j} is missing a group; dataset too small for fractions")
    return [np.sort(bucket) for bucket in buckets]


class TestSplit:
    @pytest.mark.parametrize(
        "fractions",
        [(0.6, 0.2, 0.2), (0.5, 0.5), (1 / 3, 1 / 3, 1 / 3), (0.9, 0.05, 0.05), (0.7, 0.2, 0.1), (0.6, 0.3, 0.1)],
    )
    @pytest.mark.parametrize("n, G, seed", [(7, 1, 0), (40, 2, 1), (301, 3, 2), (1000, 4, 3)])
    def test_matches_the_bucket_reference(self, fractions, n, G, seed):
        rng = np.random.default_rng(seed)
        ds = GroupedDataset(
            features=rng.standard_normal((n, 2)), targets=rng.integers(0, 3, n), groups=np.arange(n) % G
        )
        try:
            want = reference_split(ds, fractions, seed)
        except InputError as exc:
            with pytest.raises(InputError, match=f"^{exc}$"):
                split_dataset(ds, fractions, seed=seed)
            return
        parts = split_dataset(ds, fractions, seed=seed)
        # every row lands in a split, also where the fractions sum to 0.9999999999999999
        assert sum(part.n for part in parts) == n
        assert len(parts) == len(want)
        for part, rows in zip(parts, want):
            assert np.array_equal(part.features, ds.features[rows])
            assert np.array_equal(part.targets, ds.targets[rows])
            assert np.array_equal(part.groups, ds.groups[rows])

    def test_fractions_validated(self):
        ds = small_dataset()
        with pytest.raises(InputError):
            split_dataset(ds, (0.5, 0.6), seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_bad_seed_named(self, seed):
        with pytest.raises(InputError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            split_dataset(small_dataset(), (0.5, 0.5), seed=seed)

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
