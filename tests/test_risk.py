import numpy as np
import pytest
from hypothesis import given, strategies as st

from paretofair.risk import (
    InputError,
    ParetoArchive,
    RiskVector,
    archive_insert,
    brier_loss,
    cross_entropy_loss,
    dominates,
    group_means,
    group_risks,
    max_gap,
    metric_summary,
    sample_losses,
)
from conftest import brute_force_nondominated


class TestBrierLoss:
    def test_perfect_prediction(self):
        assert brier_loss((1.0, 0.0), 0) == 0.0

    def test_uniform_binary(self):
        assert brier_loss((0.5, 0.5), 0) == pytest.approx(0.5)
        assert brier_loss((0.5, 0.5), 1) == pytest.approx(0.5)

    def test_near_perfect(self):
        assert brier_loss((0.9, 0.1), 0) == pytest.approx(0.02)

    def test_malformed_simplex_rejected(self):
        with pytest.raises(InputError):
            brier_loss((0.3, 0.3), 0)
        with pytest.raises(InputError):
            brier_loss((1.5, -0.5), 0)

    def test_target_out_of_range(self):
        with pytest.raises(InputError):
            brier_loss((0.5, 0.5), 2)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5), st.integers(0, 4))
    def test_bounded_and_zero_iff_onehot(self, raw, target):
        probs = np.array(raw) / np.sum(raw)
        target = target % len(probs)
        val = brier_loss(probs, target)
        assert 0.0 <= val <= 2.0
        onehot = np.zeros(len(probs))
        onehot[target] = 1.0
        if np.allclose(probs, onehot, atol=1e-12):
            assert val == pytest.approx(0.0, abs=1e-12)
        elif np.max(np.abs(probs - onehot)) > 1e-6:
            assert val > 0.0


class TestCrossEntropy:
    def test_finite_at_zero_probability(self):
        # clamping keeps the loss finite
        val = cross_entropy_loss((1.0, 0.0), 1)
        assert np.isfinite(val)

    def test_matches_log(self):
        assert cross_entropy_loss((0.25, 0.75), 1) == pytest.approx(-np.log(0.75))


class TestGroupMeans:
    def test_three_groups_by_hand(self):
        means, counts = group_means([1.0, 2.0, 4.0, 0.5, 0.25], [2, 0, 0, 1, 2], 3)
        assert np.array_equal(means, [3.0, 0.5, 0.625])
        assert np.array_equal(counts, [2, 1, 2])

    def test_empty_group_gets_zero(self):
        means, counts = group_means([0.3, 0.9], [0, 2], 4)
        assert np.array_equal(means, [0.3, 0.0, 0.9, 0.0])
        assert np.array_equal(counts, [1, 0, 1, 0])

    def test_booleans_average_to_rates(self):
        means, _ = group_means(np.array([True, False, True, True]), [0, 0, 1, 2], 3)
        assert np.array_equal(means, [0.5, 1.0, 1.0])


class TestGroupRisks:
    def test_two_perfect_singletons(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        r = group_risks(probs, [0, 1], [0, 1])
        assert np.allclose(r.risks, [0.0, 0.0])
        assert list(r.counts) == [1, 1]

    def test_arithmetic_means(self):
        # group 0 losses {0.2, 0.4}; group 1 loss {0.1} via cooked-up probs
        # brier for binary (p, 1-p) with target 0 is 2(1-p)^2
        p = lambda l: 1.0 - np.sqrt(l / 2.0)
        probs = np.array([[p(0.2), 1 - p(0.2)], [p(0.4), 1 - p(0.4)], [p(0.1), 1 - p(0.1)]])
        r = group_risks(probs, [0, 0, 0], [0, 0, 1])
        assert np.allclose(r.risks, [0.3, 0.1])

    def test_matches_independent_scan(self):
        rng = np.random.default_rng(7)
        n, C, G = 1000, 3, 4
        raw = rng.uniform(0.1, 1.0, size=(n, C))
        probs = raw / raw.sum(axis=1, keepdims=True)
        targets = rng.integers(0, C, n)
        groups = rng.integers(0, G, n)
        groups[:G] = np.arange(G)  # every group present
        r = group_risks(probs, targets, groups)
        losses = sample_losses(probs, targets)
        for a in range(G):
            acc, cnt = 0.0, 0
            for i in range(n):
                if groups[i] == a:
                    acc += losses[i]
                    cnt += 1
            assert r.risks[a] == pytest.approx(acc / cnt, rel=1e-12)
            assert r.counts[a] == cnt

    def test_three_groups_by_hand(self):
        # brier for binary (p, 1-p) is 2(1-p)^2 against target 0 and 2p^2 against target 1
        probs = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.75, 0.25], [0.5, 0.5]])
        r = group_risks(probs, [0, 0, 0, 1, 1], [0, 1, 1, 2, 2])
        assert np.allclose(r.risks, [0.0, 1.25, 0.8125])
        assert list(r.counts) == [1, 2, 2]

    def test_missing_group_is_error(self):
        probs = np.array([[0.5, 0.5]])
        with pytest.raises(InputError, match="group"):
            group_risks(probs, [0], [1])  # group 0 absent


class TestDiscriminationGap:
    def test_equal_risks(self):
        r = RiskVector(risks=[0.4, 0.4], counts=[1, 1])
        assert max_gap(r) == 0.0

    def test_three_groups(self):
        r = RiskVector(risks=[0.2, 0.5, 0.3], counts=[1, 1, 1])
        assert max_gap(r) == pytest.approx(0.3)

    def test_single_group(self):
        r = RiskVector(risks=[0.7], counts=[1])
        assert max_gap(r) == 0.0

    @given(st.lists(st.floats(0, 2), min_size=1, max_size=6))
    def test_max_gap_is_range(self, risks):
        r = RiskVector(risks=risks, counts=[1] * len(risks))
        assert max_gap(r) == pytest.approx(max(risks) - min(risks))


class TestDominates:
    def test_strict_dominance(self):
        assert dominates([0.1, 0.2], [0.2, 0.2])

    def test_equality_is_not_dominance(self):
        assert not dominates([0.3, 0.3], [0.3, 0.3])

    def test_incomparable(self):
        assert not dominates([0.1, 0.5], [0.2, 0.3])
        assert not dominates([0.2, 0.3], [0.1, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            dominates([0.1], [0.1, 0.2])

    def test_irreflexive_antisymmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(0, 1, 3)
            b = rng.uniform(0, 1, 3)
            assert not dominates(a, a)
            assert not (dominates(a, b) and dominates(b, a))


class TestArchive:
    def _rv(self, risks):
        return RiskVector(risks=risks, counts=[1] * len(risks))

    def test_insert_into_empty(self):
        ok, arch = archive_insert(ParetoArchive(), self._rv([0.2, 0.2]))
        assert ok and len(arch.entries) == 1

    def test_dominated_insert_rejected(self):
        _, arch = archive_insert(ParetoArchive(), self._rv([0.2, 0.2]))
        ok, arch2 = archive_insert(arch, self._rv([0.3, 0.3]))
        assert not ok
        assert arch2 is arch

    def test_accepting_prunes_dominated_entries(self):
        _, arch = archive_insert(ParetoArchive(), self._rv([0.3, 0.3]))
        ok, arch = archive_insert(arch, self._rv([0.2, 0.2]))
        assert ok and len(arch.entries) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.uniform(0, 1, size=(100, 3))
        arch = ParetoArchive()
        for v in vectors:
            _, arch = archive_insert(arch, self._rv(v))
        got = {tuple(e.risks) for e in arch.risk_vectors()}
        assert got == brute_force_nondominated(vectors)

    def test_order_independence(self):
        rng = np.random.default_rng(11)
        vectors = rng.uniform(0, 1, size=(40, 2))
        results = []
        for perm_seed in range(3):
            order = np.random.default_rng(perm_seed).permutation(len(vectors))
            arch = ParetoArchive()
            for i in order:
                _, arch = archive_insert(arch, self._rv(vectors[i]))
            results.append({tuple(e.risks) for e in arch.risk_vectors()})
        assert results[0] == results[1] == results[2]


class TestMetricSummary:
    def test_basic(self):
        s, g, d = metric_summary([0.8, 0.6], [0.75, 0.25])
        assert s == pytest.approx(0.75)
        assert g == pytest.approx(0.7)
        assert d == pytest.approx(0.2)

    def test_equal_metrics_zero_discrepancy(self):
        _, _, d = metric_summary([0.4, 0.4, 0.4], [0.2, 0.3, 0.5])
        assert d == 0.0

    def test_eight_group_ratio_discrepancy(self):
        ratios_pct = np.array([5.7, 13.3, 12.9, 56.7, 0.4, 0.9, 1.8, 8.3])
        _, _, d = metric_summary(ratios_pct, ratios_pct / 100.0)
        assert d == pytest.approx(56.3)

    def test_bad_ratios(self):
        with pytest.raises(InputError):
            metric_summary([0.5, 0.5], [0.5, 0.6])
