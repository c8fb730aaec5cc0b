import numpy as np
import pytest
from hypothesis import given, strategies as st

from paretofair import risk
from paretofair.baselines import apply_rule, fit_equalizing_rule
from paretofair.data import GroupedDataset
from paretofair.model import MLPClassifier, weighted_grad
from paretofair.report import metrics_from_decisions
from paretofair.risk import (
    CLAMP,
    LOSSES,
    InputError,
    archive_insert,
    dominates,
    group_means,
    group_risks,
    max_gap,
    metric_summary,
    sample_losses,
)
from conftest import brute_force_nondominated


def one_loss(probs, target, loss="brier"):
    return float(sample_losses(np.array([probs], dtype=float), np.array([target]), loss)[0])


class TestBrierLoss:
    def test_perfect_prediction(self):
        assert one_loss((1.0, 0.0), 0) == 0.0

    def test_uniform_binary(self):
        assert one_loss((0.5, 0.5), 0) == pytest.approx(0.5)
        assert one_loss((0.5, 0.5), 1) == pytest.approx(0.5)

    def test_near_perfect(self):
        assert one_loss((0.9, 0.1), 0) == pytest.approx(0.02)

    def test_target_out_of_range(self):
        with pytest.raises(InputError):
            one_loss((0.5, 0.5), 2)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5), st.integers(0, 4))
    def test_bounded_and_zero_iff_onehot(self, raw, target):
        probs = np.array(raw) / np.sum(raw)
        target = target % len(probs)
        val = one_loss(probs, target)
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
        val = one_loss((1.0, 0.0), 1, "cross_entropy")
        assert np.isfinite(val)

    def test_matches_log(self):
        assert one_loss((0.25, 0.75), 1, "cross_entropy") == pytest.approx(-np.log(0.75))


def plain_loss_and_grad(probs, targets, loss):
    """Each loss and its gradient dloss/dprobs, written out from a one-hot target."""
    n, C = probs.shape
    rows = np.arange(n)
    onehot = np.zeros((n, C))
    onehot[rows, targets] = 1.0
    if loss == "brier":
        return np.sum((probs - onehot) ** 2, axis=1), 2.0 * (probs - onehot)
    if loss == "cross_entropy":
        p = probs[rows, targets]
        pc = np.clip(p, CLAMP, 1.0 - CLAMP)
        grads = np.zeros((n, C))
        grads[rows, targets] = np.where((p > CLAMP) & (p < 1.0 - CLAMP), -1.0 / pc, 0.0)
        return -np.log(pc), grads
    raise AssertionError(f"no plain formula for loss {loss!r}")


class TestLossesAndGrads:
    @pytest.mark.parametrize("loss", LOSSES)
    def test_match_plain_formulas_bitwise(self, loss):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((40, 3)) * 4.0
        e = np.exp(z - z.max(axis=1, keepdims=True))
        softmax = e / e.sum(axis=1, keepdims=True)
        # rows whose target probability is exactly 0, CLAMP, 1 - CLAMP and 1
        edges = np.array([[p, (1.0 - p) / 2, (1.0 - p) / 2] for p in (0.0, CLAMP, 1.0 - CLAMP, 1.0)])
        probs = np.vstack([softmax, edges])
        targets = np.concatenate([rng.integers(0, 3, 40), np.zeros(4, dtype=int)])
        losses, grads = risk._losses_and_grads(probs, targets, loss)
        want_losses, want_grads = plain_loss_and_grad(probs, targets, loss)
        assert losses.tobytes() == want_losses.tobytes()
        assert grads.tobytes() == want_grads.tobytes()
        assert sample_losses(probs, targets, loss).tobytes() == want_losses.tobytes()

    def test_unknown_loss(self):
        with pytest.raises(InputError, match="unknown loss 'hinge'"):
            sample_losses(np.full((2, 2), 0.5), [0, 1], "hinge")


def reference_labels(values, name):
    """The label rule as ``data._labels`` wrote it before it moved to ``risk``, kept verbatim as the reference."""
    # float64 holds every whole number below 2**53 exactly, so the int copy is exact
    message = f"{name} must be whole numbers in [0, 2**53)"
    try:
        f = np.asarray(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise InputError(message) from None
    if not np.all((f >= 0) & (f < 2.0**53) & (f == np.floor(f))):
        raise InputError(message)
    return f.astype(int)


LABEL_VALUES = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**64, -(2**63), -0.0, 2.0**53]),
    st.integers(2**63, 2**1100),  # past int64, and past the float range
    st.floats(),  # fractions, NaN, +-inf, -0.0
    st.booleans(),
)
SMALL_INTS = st.lists(st.integers(-3, 40), max_size=6)
# lists, the arrays numpy infers from them (int64, uint64, float64, object), and arrays of fixed dtypes
LABEL_ARRAYS = st.one_of(
    st.lists(LABEL_VALUES, max_size=6),
    st.lists(LABEL_VALUES, max_size=6).map(np.array),
    st.tuples(SMALL_INTS, st.sampled_from([np.int64, np.int32, np.uint8, np.uint64, np.float64, bool])).map(
        lambda xs_t: np.array(xs_t[0]).astype(xs_t[1])
    ),
)


class TestLabels:
    @given(LABEL_ARRAYS)
    def test_same_as_the_reference_rule(self, values):
        try:
            expected = reference_labels(values, "v")
        except InputError:
            with pytest.raises(InputError, match=r"^v must be whole numbers in \[0, 2\*\*53\)$"):
                risk._labels(values, "v")
            return
        got = risk._labels(values, "v")
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_what_is_not_a_number_is_rejected(self):
        for values in (["a"], [{}], [1 + 2j], [[0], [1, 2]]):
            with pytest.raises(InputError, match=r"^v must be whole numbers in \[0, 2\*\*53\)$"):
                risk._labels(values, "v")

    def test_label_arrays_are_one_dimensional(self):
        for values in (3, [[0, 1]], np.zeros((2, 1), dtype=int)):
            with pytest.raises(InputError, match="^v must be a 1-D array of n labels"):
                risk._labels(values, "v")

    def test_an_int_array_is_not_copied(self):
        values = np.array([0, 3, 1])
        assert risk._labels(values, "v", 3, 4) is values


_P = np.array([[0.8, 0.2], [0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
_X = [[0.0], [1.0], [2.0], [3.0]]
_TEST = GroupedDataset(features=_X, targets=[0, 1, 0, 1], groups=[0, 1, 0, 1])

# Every entry point that takes a label array: the argument it names, a valid
# value for it, its bound, and the call with that argument replaced.
LABEL_ENTRY_POINTS = {
    "sample_losses": ("targets", [0, 1, 0, 1], 2, lambda v: sample_losses(_P, v)),
    "weighted_grad": ("targets", [0, 1, 0, 1], 2, lambda v: weighted_grad(MLPClassifier([1, 2]), _X, v, np.ones(4))),
    "group_means": ("groups", [0, 1, 0, 1], 2**53, lambda v: group_means([1.0, 2.0, 3.0, 4.0], v)),
    "group_risks": ("groups", [0, 1, 0, 1], 2**53, lambda v: group_risks(_P, [0, 1, 0, 1], v)),
    "fit_equalizing_rule": ("groups", [0, 1, 0, 1], 2**53, lambda v: fit_equalizing_rule([1, 1, 1, 1], v)),
    "apply_rule": ("groups", [0, 1, 0, 1], 2, lambda v: apply_rule([1.0, 0.5], [0, 1, 0, 1], v)),
    "metrics_from_decisions": ("decisions", [0, 1, 1, 0], 2**53, lambda v: metrics_from_decisions(v, _TEST, [0.0, 0.0], "m")),
}
LABEL_FAULTS = {
    "negative": lambda valid, bound: [valid[0], -1, *valid[2:]],
    "fractional": lambda valid, bound: [valid[0], 0.5, *valid[2:]],
    "at the bound": lambda valid, bound: [valid[0], bound, *valid[2:]],
    "wrong length": lambda valid, bound: valid[:-1],
}


class TestLabelEntryPoints:
    @pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
    def test_valid_labels_pass(self, entry):
        _name, valid, _bound, call = LABEL_ENTRY_POINTS[entry]
        call(valid)

    @pytest.mark.parametrize("fault", LABEL_FAULTS)
    @pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
    def test_bad_labels_raise_input_error_naming_the_argument(self, entry, fault):
        name, valid, bound, call = LABEL_ENTRY_POINTS[entry]
        with pytest.raises(InputError, match=f"^{name} must be"):
            call(LABEL_FAULTS[fault](valid, bound))

    @pytest.mark.parametrize("fault", ["negative", "fractional", "at the bound"])
    def test_bad_correct_flags_rejected(self, fault):
        with pytest.raises(InputError, match="^correct must be whole numbers in \\[0, 2\\)"):
            fit_equalizing_rule(LABEL_FAULTS[fault]([1, 1, 1, 1], 2), [0, 1, 0, 1])


class TestGroupMeans:
    def test_three_groups_by_hand(self):
        means, counts = group_means([1.0, 2.0, 4.0, 0.5, 0.25], [2, 0, 0, 1, 2])
        assert np.array_equal(means, [3.0, 0.5, 0.625])
        assert np.array_equal(counts, [2, 1, 2])

    @pytest.mark.parametrize("G", [1, 2, 3, 4, 5])
    def test_masked_means_bitwise_and_bincount_counts(self, G):
        rng = np.random.default_rng(G)
        for _ in range(50):
            groups = rng.permutation(np.r_[np.arange(G), rng.integers(0, G, int(rng.integers(0, 60)))])
            values = rng.uniform(0, 2, len(groups)) * 10.0 ** rng.integers(-8, 1, len(groups))
            means, counts = group_means(values, groups)
            expected = np.array([values[groups == a].mean() for a in range(G)])
            assert means.dtype == np.float64 and means.tobytes() == expected.tobytes()
            assert np.array_equal(counts, np.bincount(groups))

    def test_absent_group_is_an_error(self):
        with pytest.raises(InputError, match="^group 1 has no samples$"):
            group_means([0.3, 0.9], [0, 2])

    def test_booleans_average_to_rates(self):
        means, _ = group_means(np.array([True, False, True, True]), [0, 0, 1, 2])
        assert np.array_equal(means, [0.5, 1.0, 1.0])


class TestGroupRisks:
    def test_two_perfect_singletons(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        r = group_risks(probs, [0, 1], [0, 1])
        assert np.allclose(r, [0.0, 0.0])

    def test_arithmetic_means(self):
        # group 0 losses {0.2, 0.4}; group 1 loss {0.1} via cooked-up probs
        # brier for binary (p, 1-p) with target 0 is 2(1-p)^2
        p = lambda l: 1.0 - np.sqrt(l / 2.0)
        probs = np.array([[p(0.2), 1 - p(0.2)], [p(0.4), 1 - p(0.4)], [p(0.1), 1 - p(0.1)]])
        r = group_risks(probs, [0, 0, 0], [0, 0, 1])
        assert np.allclose(r, [0.3, 0.1])

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
            assert r[a] == pytest.approx(acc / cnt, rel=1e-12)

    def test_three_groups_by_hand(self):
        # brier for binary (p, 1-p) is 2(1-p)^2 against target 0 and 2p^2 against target 1
        probs = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.75, 0.25], [0.5, 0.5]])
        r = group_risks(probs, [0, 0, 0, 1, 1], [0, 1, 1, 2, 2])
        assert np.allclose(r, [0.0, 1.25, 0.8125])

    def test_missing_group_is_error(self):
        probs = np.array([[0.5, 0.5]])
        with pytest.raises(InputError, match="group"):
            group_risks(probs, [0], [1])  # group 0 absent


class TestDiscriminationGap:
    def test_equal_risks(self):
        assert max_gap([0.4, 0.4]) == 0.0

    def test_three_groups(self):
        assert max_gap([0.2, 0.5, 0.3]) == pytest.approx(0.3)

    def test_single_group(self):
        assert max_gap([0.7]) == 0.0

    def test_no_risks_rejected(self):
        with pytest.raises(InputError, match="^max_gap needs at least one risk$"):
            max_gap([])

    @given(st.lists(st.floats(0, 2), min_size=1, max_size=6))
    def test_max_gap_is_range(self, risks):
        assert max_gap(risks) == pytest.approx(max(risks) - min(risks))


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
    def test_insert_into_empty(self):
        ok, arch = archive_insert((), np.array([0.2, 0.2]))
        assert ok and len(arch) == 1

    def test_dominated_insert_rejected(self):
        _, arch = archive_insert((), np.array([0.2, 0.2]))
        ok, arch2 = archive_insert(arch, np.array([0.3, 0.3]))
        assert not ok
        assert arch2 is arch

    def test_accepting_prunes_dominated_entries(self):
        _, arch = archive_insert((), np.array([0.3, 0.3]))
        ok, arch = archive_insert(arch, np.array([0.2, 0.2]))
        assert ok and len(arch) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.uniform(0, 1, size=(100, 3))
        arch = ()
        for v in vectors:
            _, arch = archive_insert(arch, v)
        got = {tuple(e) for e in arch}
        assert got == brute_force_nondominated(vectors)

    def test_order_independence(self):
        rng = np.random.default_rng(11)
        vectors = rng.uniform(0, 1, size=(40, 2))
        results = []
        for perm_seed in range(3):
            order = np.random.default_rng(perm_seed).permutation(len(vectors))
            arch = ()
            for i in order:
                _, arch = archive_insert(arch, vectors[i])
            results.append({tuple(e) for e in arch})
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

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="^metric and ratio lengths differ$"):
            metric_summary([0.5, 0.5, 0.5], [0.5, 0.5])
