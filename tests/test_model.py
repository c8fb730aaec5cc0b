import math

import numpy as np
import pytest

from paretofair.data import GroupedDataset
from paretofair.model import (
    MLPClassifier,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    sgd_early_stop,
    weighted_grad,
)
from paretofair.risk import InputError, RiskVector, sample_losses


def finite_diff_grads(model, X, y, w, loss, step=1e-5):
    """Central finite differences of the weighted mean loss over all parameters."""

    def value():
        losses = sample_losses(model.forward(X), y, loss)
        return float(np.sum(w * losses) / np.sum(w))

    fd_W, fd_b = [], []
    for W in model.weights:
        g = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            orig = W[idx]
            W[idx] = orig + step
            fp = value()
            W[idx] = orig - step
            fm = value()
            W[idx] = orig
            g[idx] = (fp - fm) / (2 * step)
        fd_W.append(g)
    for b in model.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + step
            fp = value()
            b[idx] = orig - step
            fm = value()
            b[idx] = orig
            g[idx] = (fp - fm) / (2 * step)
        fd_b.append(g)
    return fd_W, fd_b


def max_rel_err(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.abs(f), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


class TestInit:
    def test_seed_determinism(self):
        m1 = MLPClassifier([3, 4, 2], seed=9)
        m2 = MLPClassifier([3, 4, 2], seed=9)
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        m1 = MLPClassifier([3, 4, 2], seed=9)
        m2 = MLPClassifier([3, 4, 2], seed=10)
        assert not np.array_equal(m1.weights[0], m2.weights[0])

    def test_zero_init_uniform_output(self):
        m = MLPClassifier([2, 3], zero_init=True)
        probs = m.forward(np.array([[1.0, -2.0]]))
        assert np.allclose(probs, 1.0 / 3.0)

    def test_bad_dims(self):
        with pytest.raises(InputError):
            MLPClassifier([4])


class TestForward:
    def test_zero_weight_binary(self):
        m = MLPClassifier([1, 2], zero_init=True)
        assert np.allclose(m.forward([[3.7]]), 0.5)

    def test_rows_are_simplex(self):
        m = MLPClassifier([2, 8, 8, 3], activation="tanh", seed=1)
        probs = m.forward(np.random.default_rng(0).standard_normal((50, 2)))
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_logit_monotonicity(self):
        m = MLPClassifier([1, 2], zero_init=True)
        m.weights[0][0, 1] = 1.0  # positive x pushes class 1
        probs = m.forward([[2.0]])
        assert probs[0, 1] > 0.5

    def test_dimension_mismatch(self):
        m = MLPClassifier([2, 2])
        with pytest.raises(InputError):
            m.forward([[1.0]])

    def test_matches_scalar_reimplementation(self):
        m = MLPClassifier([2, 3, 2], activation="tanh", seed=4)
        x = [0.3, -1.1]
        # hand-rolled forward pass with plain python loops
        h = list(x)
        for layer, (W, b) in enumerate(zip(m.weights, m.biases)):
            out = []
            for j in range(W.shape[1]):
                z = b[j] + sum(h[i] * W[i, j] for i in range(W.shape[0]))
                out.append(math.tanh(z) if layer == 0 else z)
            h = out
        exps = [math.exp(v - max(h)) for v in h]
        expected = [e / sum(exps) for e in exps]
        got = m.forward([x])[0]
        assert np.allclose(got, expected, atol=1e-12)


class TestWeightedGrad:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("loss", ["brier", "cross_entropy"])
    def test_matches_finite_differences(self, activation, loss):
        rng = np.random.default_rng(5)
        m = MLPClassifier([3, 6, 5, 2], activation=activation, seed=2)
        X = rng.standard_normal((8, 3))
        y = rng.integers(0, 2, 8)
        w = rng.uniform(0.5, 3.0, 8)
        gW, gb = weighted_grad(m, X, y, w, loss)
        fd_W, fd_b = finite_diff_grads(m, X, y, w, loss)
        assert max_rel_err(gW, fd_W) < 1e-4
        assert max_rel_err(gb, fd_b) < 1e-4

    def test_uniform_equals_unweighted(self):
        rng = np.random.default_rng(6)
        m = MLPClassifier([2, 4, 2], seed=3)
        X = rng.standard_normal((10, 2))
        y = rng.integers(0, 2, 10)
        g1, _ = weighted_grad(m, X, y, np.ones(10))
        g2, _ = weighted_grad(m, X, y, np.full(10, 3.7))
        for a, b in zip(g1, g2):
            assert np.allclose(a, b, atol=1e-14)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(6)
        m = MLPClassifier([2, 4, 2], seed=3)
        X = rng.standard_normal((10, 2))
        y = rng.integers(0, 2, 10)
        w = rng.uniform(0.1, 1.0, 10)
        g1, _ = weighted_grad(m, X, y, w)
        g2, _ = weighted_grad(m, X, y, 2.0 * w)
        for a, b in zip(g1, g2):
            assert np.allclose(a, b, atol=1e-14)

    def test_all_zero_weights_rejected(self):
        m = MLPClassifier([2, 2])
        with pytest.raises(InputError):
            weighted_grad(m, [[1.0, 2.0]], [0], [0.0])


def separable_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.r_[rng.normal(-2.0, 0.3, (half, 1)), rng.normal(2.0, 0.3, (n - half, 1))]
    y = np.r_[np.zeros(half, dtype=int), np.ones(n - half, dtype=int)]
    groups = np.tile([0, 1], n // 2)
    return GroupedDataset(features=X, targets=y, groups=groups)


def uniform_rule(r: RiskVector):
    return np.ones(r.num_groups)


def mean_objective(r: RiskVector):
    return float(r.risks.mean())


class TestSgdEarlyStop:
    def test_separable_converges(self):
        train = separable_dataset(40, seed=1)
        val = separable_dataset(40, seed=2)
        model = MLPClassifier([1, 2], seed=0)
        cfg = TrainConfig(lr=0.5, batch_size=8, max_epochs=200, patience=20, seed=0)
        model, best, _ = sgd_early_stop(model, train, val, mean_objective, uniform_rule, cfg)
        from paretofair.risk import group_risks

        r = group_risks(model.forward(val.features), val.targets, val.groups)
        assert np.all(r.risks < 0.05)

    def test_patience_zero_runs_one_epoch(self):
        train = separable_dataset(20, seed=1)
        val = separable_dataset(20, seed=2)
        model = MLPClassifier([1, 2], seed=0)
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=50, patience=0, seed=0)
        _, _, epochs = sgd_early_stop(model, train, val, mean_objective, uniform_rule, cfg)
        assert epochs == 1

    def test_uniform_weights_match_plain_sgd_bitwise(self):
        train = separable_dataset(48, seed=3)
        val = separable_dataset(48, seed=4)
        cfg = TrainConfig(lr=0.2, batch_size=16, max_epochs=4, patience=4, seed=7, stratified=False)

        model = MLPClassifier([1, 4, 2], seed=5)
        model, _, _ = sgd_early_stop(model, train, val, mean_objective, uniform_rule, cfg)

        # independent plain SGD with the same batch schedule and no weighting
        ref = MLPClassifier([1, 4, 2], seed=5)
        rng = np.random.default_rng(cfg.seed)
        best = ref.get_params()
        best_obj = np.inf
        for _ in range(cfg.max_epochs):
            order = rng.permutation(train.n)
            for j in range(0, train.n, cfg.batch_size):
                idx = order[j : j + cfg.batch_size]
                gW, gb = weighted_grad(ref, train.features[idx], train.targets[idx], np.ones(len(idx)))
                for W, g in zip(ref.weights, gW):
                    W -= cfg.lr * g
                for b, g in zip(ref.biases, gb):
                    b -= cfg.lr * g
            from paretofair.risk import group_risks

            obj = mean_objective(group_risks(ref.forward(val.features), val.targets, val.groups))
            if obj < best_obj:
                best_obj = obj
                best = ref.get_params()
        ref.set_params(best)

        for a, b in zip(model.weights, ref.weights):
            assert np.array_equal(a, b)
        for a, b in zip(model.biases, ref.biases):
            assert np.array_equal(a, b)

    def test_returns_best_checkpoint_seen(self):
        train = separable_dataset(40, seed=1)
        val = separable_dataset(40, seed=2)
        model = MLPClassifier([1, 4, 2], seed=1)
        seen = []

        def spy_objective(r):
            val_ = mean_objective(r)
            seen.append(val_)
            return val_

        cfg = TrainConfig(lr=0.3, batch_size=8, max_epochs=30, patience=30, seed=0)
        model, best, _ = sgd_early_stop(model, train, val, spy_objective, uniform_rule, cfg)
        assert best == pytest.approx(min(seen))
        from paretofair.risk import group_risks

        final = mean_objective(group_risks(model.forward(val.features), val.targets, val.groups))
        assert final == pytest.approx(best)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = MLPClassifier([3, 7, 4], activation="tanh", seed=11)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        assert back.layer_dims == m.layer_dims
        assert back.activation == m.activation
        for a, b in zip(m.weights, back.weights):
            assert np.array_equal(a, b)
        for a, b in zip(m.biases, back.biases):
            assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(InputError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda b: b[:-3], "bytes, but the header implies"),
            (lambda b: b + b"\0", "bytes, but the header implies"),
            (lambda b: b[:11], "truncated checkpoint header"),
            (lambda b: b[:8] + b"\x07" + b[9:], "unknown activation tag 7"),
            (lambda b: b[:9] + b"\xff\xff\xff\xff" + b[13:], "truncated checkpoint header"),
            (lambda b: b[:9] + b"\x01\0\0\0" + b[13:17] + bytes(8), "layer_dims"),
        ],
    )
    def test_corrupt_checkpoint_names_path(self, tmp_path, corrupt, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(MLPClassifier([3, 7, 4], seed=11), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(InputError, match=message) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
