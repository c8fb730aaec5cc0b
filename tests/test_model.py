import math
import tracemalloc

import numpy as np
import pytest

from paretofair import model as model_module
from paretofair.adaptive import group_weights
from paretofair.data import GroupedDataset
from paretofair.model import (
    MLPClassifier,
    TrainConfig,
    _block_weights,
    _rule_weights,
    load_checkpoint,
    save_checkpoint,
    sgd_early_stop,
    weighted_grad,
)
from paretofair.risk import CLAMP, InputError, group_means, group_risks, sample_losses


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

    def test_bad_dims(self):
        with pytest.raises(InputError):
            MLPClassifier([4])


class TestForward:
    def test_zero_weight_binary(self):
        m = MLPClassifier([1, 2])
        m.weights[0][...] = 0.0
        assert np.allclose(m.forward([[3.7]]), 0.5)

    def test_rows_are_simplex(self):
        m = MLPClassifier([2, 8, 8, 3], activation="tanh", seed=1)
        probs = m.forward(np.random.default_rng(0).standard_normal((50, 2)))
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_logit_monotonicity(self):
        m = MLPClassifier([1, 2])
        m.weights[0][...] = 0.0
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

    @pytest.mark.parametrize(
        "X, targets, weights, message",
        [
            ([[1.0, 2.0]], [-1], [1.0], "target label out of range"),
            ([[1.0, 2.0]], [2], [1.0], "target label out of range"),
            ([[1.0, 2.0], [0.5, 0.0]], [1], [1.0, 1.0], "targets length"),
            ([[1.0, 2.0]], [0], [1.0, 1.0], "one per row"),
            ([[1.0, 2.0], [0.5, 0.0]], [0, 1], [1.0, np.nan], "finite"),
            ([[1.0, 2.0]], [0], [np.inf], "finite"),
            ([[1.0]], [0], [1.0], "input of width 2"),
            ([[1.0, 2.0], [0.5, 0.0]], [0, 1], [1.0, np.nan], "finite and nonnegative"),
            ([[1.0, 2.0], [0.5, 0.0]], [0, 1], [1.0, -1.0], "finite and nonnegative"),
            ([[1.0, 2.0], [0.5, 0.0]], [0, 1], [np.inf, 1.0], "finite and nonnegative"),
            ([[1.0, 2.0], [0.5, 0.0]], [0, 1], [1.0, -np.inf], "finite and nonnegative"),
            # finite, but the sum is inf, and w / inf would be a zero gradient
            ([[1.0, 2.0], [0.5, 0.0]], [0, 1], [1e308, 1e308], "finite and nonnegative"),
        ],
    )
    def test_bad_input_rejected(self, X, targets, weights, message):
        m = MLPClassifier([2, 3, 2], seed=0)
        with pytest.raises(InputError, match=message):
            weighted_grad(m, X, targets, weights)

    def test_bad_weights_from_a_function_rejected(self):
        m = MLPClassifier([2, 2])
        with pytest.raises(InputError, match="one per row"):
            weighted_grad(m, [[1.0, 2.0]], [0], lambda losses: np.ones(2))

    @pytest.mark.parametrize("loss", ["brier", "cross_entropy"])
    def test_weight_function_matches_its_array_bitwise(self, loss):
        rng = np.random.default_rng(8)
        m = MLPClassifier([3, 5, 3], seed=6)
        X = rng.standard_normal((12, 3))
        y = rng.integers(0, 3, 12)
        seen = []

        def weights_of(losses):
            seen.append(losses)
            return 1.0 + 3.0 * losses**2

        g_fn = weighted_grad(m, X, y, weights_of, loss)
        losses = sample_losses(m.forward(X), y, loss)
        g_arr = weighted_grad(m, X, y, weights_of(losses), loss)
        assert np.array_equal(seen[0], losses)
        for a, b in zip(g_fn[0] + g_fn[1], g_arr[0] + g_arr[1]):
            assert np.array_equal(a, b)


def reference_forward_and_grad(m, X, y, w, loss):
    """The layer loop written out plainly: it keeps every z = h @ W + b and
    every activation, and masks relu by z > 0. Returns (probs, gW, gb)."""
    L = len(m.weights)
    hs, zs = [X], []
    for i, (W, b) in enumerate(zip(m.weights, m.biases)):
        z = hs[-1] @ W + b
        zs.append(z)
        if i < L - 1:
            hs.append(np.maximum(z, 0.0) if m.activation == "relu" else np.tanh(z))
    shifted = zs[-1] - zs[-1].max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(len(y))
    if loss == "brier":
        onehot = np.zeros(probs.shape)
        onehot[rows, y] = 1.0
        dl_dp = 2.0 * (probs - onehot)
    else:  # cross entropy: -1 / p_target, 0 where the clamp is active
        p = probs[rows, y]
        dl_dp = np.zeros(probs.shape)
        dl_dp[rows, y] = np.where((p > CLAMP) & (p < 1.0 - CLAMP), -1.0 / np.clip(p, CLAMP, 1.0 - CLAMP), 0.0)
    inner = np.sum(dl_dp * probs, axis=1, keepdims=True)
    delta = probs * (dl_dp - inner)
    delta *= (w / float(w.sum()))[:, None]
    gW, gb = [None] * L, [None] * L
    for i in range(L - 1, -1, -1):
        gW[i] = hs[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            act_grad = zs[i - 1] > 0 if m.activation == "relu" else 1.0 - hs[i] * hs[i]
            delta = (delta @ m.weights[i].T) * act_grad
    return probs, gW, gb


class TestLayerLoop:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("loss", ["brier", "cross_entropy"])
    @pytest.mark.parametrize("case", ["random", "one row", "zero pre-activations"])
    def test_matches_plain_reference_bitwise(self, activation, loss, case):
        rng = np.random.default_rng(12)
        m = MLPClassifier([3, 6, 5, 2], activation=activation, seed=4)
        n = 1 if case == "one row" else 16
        X = rng.standard_normal((n, 3))
        if case == "zero pre-activations":
            # zero biases: every z of a zero row is 0.0, and so is every z of a
            # unit whose incoming weights are zero
            X[::2] = 0.0
            m.weights[0][:, 1] = 0.0
            m.weights[1][:, 3] = 0.0
        else:
            for b in m.biases:
                b[...] = rng.standard_normal(b.shape)
        y = rng.integers(0, 2, n)
        w = rng.uniform(0.5, 3.0, n)
        probs, gW, gb = reference_forward_and_grad(m, X, y, w, loss)
        if case == "zero pre-activations":
            assert np.any(X @ m.weights[0] == 0.0)
        assert np.array_equal(m.forward(X), probs)
        got_W, got_b = weighted_grad(m, X, y, w, loss)
        for a, b in zip(got_W + got_b, gW + gb):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dims", [[1, 6, 5, 2], [1, 3]])
    @pytest.mark.parametrize("n", [1, 128, 4000])
    def test_one_column_layer_matches_matmul_bitwise(self, activation, dims, n):
        rng = np.random.default_rng(n)
        m = MLPClassifier(dims, activation=activation, seed=4)
        for b in m.biases:
            b[...] = rng.standard_normal(b.shape)
        X = rng.standard_normal((n, 1))
        X[::3] = 0.0
        X[1::3] = -np.abs(X[1::3])
        W = m.weights[0]
        W[0, ::2] = 0.0
        m.biases[0][:2] = [-0.0, 0.0]
        # each entry is one product either way; only a zero product's sign can
        # differ (BLAS sums onto +0.0), and the bias, the next layer's sum or
        # the softmax's exp takes both zeros to the same bits
        assert np.array_equal(X * W, X @ W)
        y = rng.integers(0, dims[-1], n)
        w = rng.uniform(0.5, 3.0, n)
        probs, gW, gb = reference_forward_and_grad(m, X, y, w, "brier")
        assert m.forward(X).tobytes() == probs.tobytes()
        got_W, got_b = weighted_grad(m, X, y, w, "brier")
        for a, b in zip(got_W + got_b, gW + gb):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_forward_holds_at_most_two_hidden_activations(self, activation):
        m = MLPClassifier([1, 64, 64, 2], activation=activation, seed=0)
        X = np.random.default_rng(0).standard_normal((20000, 1))
        hidden_bytes = X.shape[0] * 64 * 8
        tracemalloc.start()
        try:
            m.forward(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * hidden_bytes, f"peak {peak / hidden_bytes:.2f} hidden activations"


def separable_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.r_[rng.normal(-2.0, 0.3, (half, 1)), rng.normal(2.0, 0.3, (n - half, 1))]
    y = np.r_[np.zeros(half, dtype=int), np.ones(n - half, dtype=int)]
    groups = np.tile([0, 1], n // 2)
    return GroupedDataset(features=X, targets=y, groups=groups)


def uniform_rule(r):
    return np.ones(len(r))


def mean_objective(r):
    return float(r.mean())


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr", float("nan")),
            ("lr", float("inf")),
            ("lr", 0.0),
            ("batch_size", 2.5),
            ("batch_size", 0),
            ("max_epochs", 0),
            ("max_epochs", True),
            ("patience", 1.5),
            ("patience", -1),
            ("patience", 61),
        ],
    )
    def test_out_of_range_setting_names_the_field(self, field, value):
        with pytest.raises(InputError, match=f"^{field} must be .*, got {value!r}$"):
            TrainConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(batch_size=np.int64(32), max_epochs=np.int32(3), patience=np.int64(0))
        assert cfg.batch_size == 32


class TestSgdEarlyStop:
    def test_separable_converges(self):
        train = separable_dataset(40, seed=1)
        val = separable_dataset(40, seed=2)
        model = MLPClassifier([1, 2], seed=0)
        cfg = TrainConfig(lr=0.5, batch_size=8, max_epochs=200, patience=20, seed=0)
        model, best, _ = sgd_early_stop(model, train, val, mean_objective, uniform_rule, cfg)
        from paretofair.risk import group_risks

        r = group_risks(model.forward(val.features), val.targets, val.groups)
        assert np.all(r < 0.05)

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
        cfg = TrainConfig(lr=0.2, batch_size=16, max_epochs=4, patience=4, seed=7)

        model = MLPClassifier([1, 4, 2], seed=5)
        model, _, _ = sgd_early_stop(model, train, val, mean_objective, uniform_rule, cfg, stratified=False)

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

    @pytest.mark.parametrize("stratified", [True, False])
    def test_nan_weight_raises_on_first_minibatch(self, stratified, monkeypatch):
        train = separable_dataset(40, seed=1)
        val = separable_dataset(40, seed=2)
        model = MLPClassifier([1, 3, 2], seed=0)
        model.weights[0][0, 0] = np.nan
        steps = []
        real_grad = model_module.weighted_grad

        def counting_grad(*args):
            steps.append(len(args[1]))
            return real_grad(*args)

        def objective(r):
            raise AssertionError("an epoch finished on a diverged model")

        monkeypatch.setattr(model_module, "weighted_grad", counting_grad)
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=3, patience=3, seed=0)
        with pytest.raises(InputError, match="finite"):
            sgd_early_stop(model, train, val, objective, uniform_rule, cfg, stratified=stratified)
        assert steps == [8]


def grouped_dataset(n, G, seed):
    """n rows in G groups of unequal size, two classes with group-dependent overlap."""
    rng = np.random.default_rng(seed)
    groups = rng.choice(G, size=n, p=np.arange(1, G + 1) / (G * (G + 1) / 2))
    y = rng.integers(0, 2, n)
    X = rng.normal((2.0 * y - 1.0) * (1.0 + groups), 1.0)[:, None]
    return GroupedDataset(features=X, targets=y, groups=groups)


def reference_stratified_sgd(model, train, val, objective, weight_rule, cfg, loss):
    """sgd_early_stop's stratified path written out plainly: one draw per group per
    batch, the group risks from a separate forward pass, array sample weights."""
    rng = np.random.default_rng(cfg.seed)
    G = train.num_groups
    group_indices = [np.flatnonzero(train.groups == a) for a in range(G)]
    per = -(-cfg.batch_size // G)
    best, best_obj = model.get_params(), np.inf
    for _ in range(cfg.max_epochs):
        for _ in range(-(-train.n // cfg.batch_size)):
            idx = np.concatenate([g[rng.integers(0, len(g), size=per)] for g in group_indices])
            X, y, a = train.features[idx], train.targets[idx], train.groups[idx]
            r_hat, _counts = group_means(sample_losses(model.forward(X), y, loss), a, G)
            w = np.asarray(weight_rule(r_hat))[a]
            gW, gb = weighted_grad(model, X, y, w, loss)
            for W, g in zip(model.weights, gW):
                W -= cfg.lr * g
            for b, g in zip(model.biases, gb):
                b -= cfg.lr * g
        obj = objective(group_risks(model.forward(val.features), val.targets, val.groups, loss))
        if obj < best_obj:
            best_obj, best = obj, model.get_params()
    model.set_params(best)
    return best_obj


class TestStratifiedSgd:
    @pytest.mark.parametrize(
        "G, batch_size, loss",
        [(2, 16, "brier"), (3, 13, "brier"), (3, 13, "cross_entropy")],  # 8 and 5 rows per group
    )
    def test_matches_per_group_draws_bitwise(self, G, batch_size, loss):
        train, val = grouped_dataset(150, G, seed=1), grouped_dataset(90, G, seed=2)
        mu = np.linspace(0.5, 4.0, G)  # unequal multipliers give unequal group weights
        c = 0.05

        def objective(r):
            return float(r.mean())

        def weight_rule(r):
            return group_weights(r, mu, c)

        cfg = TrainConfig(lr=0.3, batch_size=batch_size, max_epochs=4, patience=4, seed=11)
        model = MLPClassifier([1, 4, 2], seed=3)
        model, best_obj, _ = sgd_early_stop(model, train, val, objective, weight_rule, cfg, loss)
        ref = MLPClassifier([1, 4, 2], seed=3)
        ref_obj = reference_stratified_sgd(ref, train, val, objective, weight_rule, cfg, loss)
        assert best_obj == ref_obj
        for a, b in zip(model.weights + model.biases, ref.weights + ref.biases):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("G", [1, 2, 3, 5])
    def test_block_weights_match_masked_group_means_bitwise(self, G):
        rng = np.random.default_rng(G)
        groups = np.arange(G)
        for per in range(1, 301):
            # losses of mixed magnitudes, so that the order of the sums shows
            losses = rng.uniform(0, 2, G * per) * 10.0 ** rng.integers(-8, 1, G * per)
            seen = []

            def rule(r):
                seen.append(r)
                return 1.0 + r * np.arange(1, G + 1)

            block = _block_weights(rule, G, per, losses)
            masked = _rule_weights(rule, np.repeat(groups, per), G, losses)
            assert seen[0].tobytes() == seen[1].tobytes()
            assert block.tobytes() == masked.tobytes()

    def test_one_forward_pass_per_minibatch(self, monkeypatch):
        train, val = grouped_dataset(100, 2, seed=1), grouped_dataset(40, 2, seed=2)
        cfg = TrainConfig(lr=0.1, batch_size=16, max_epochs=3, patience=3, seed=0)
        passes, grads = [], []
        real_forward, real_grad = MLPClassifier._forward_cached, model_module.weighted_grad

        def counting_forward(self, X, *rest):
            passes.append(len(X))
            return real_forward(self, X, *rest)

        def counting_grad(*args):
            grads.append(len(args[1]))
            return real_grad(*args)

        monkeypatch.setattr(MLPClassifier, "_forward_cached", counting_forward)
        monkeypatch.setattr(model_module, "weighted_grad", counting_grad)
        _, _, epochs = sgd_early_stop(MLPClassifier([1, 2], seed=0), train, val, mean_objective, uniform_rule, cfg)
        steps = epochs * -(-train.n // cfg.batch_size)
        assert grads == [16] * steps  # every step goes through the module-level weighted_grad
        assert len(passes) == steps + epochs  # one per step, one per validation


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
