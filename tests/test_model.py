import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import paretofair
from paretofair import model as model_module
from paretofair.adaptive import group_weights
from paretofair.data import GroupedDataset
from paretofair.model import (
    MLPClassifier,
    TrainConfig,
    _block_weights,
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

    @pytest.mark.parametrize("seed", [-1, 2.5, True, 2**63])
    def test_seed_outside_the_checkpoint_field_rejected(self, seed):
        with pytest.raises(InputError, match=rf"^seed must be an integer in \[0, 2\*\*63\), got {seed!r}$"):
            MLPClassifier([3, 4, 2], seed=seed)

    def test_largest_seed_round_trips(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(MLPClassifier([3, 4, 2], seed=2**63 - 1), path)
        assert load_checkpoint(path).seed == 2**63 - 1

    @pytest.mark.parametrize("width", [2.7, "4", True])
    def test_non_integer_width_names_layer_dims(self, width):
        with pytest.raises(InputError, match=r"^layer_dims must be .*integers >= 1, got \[1, "):
            MLPClassifier([1, width, 2])

    def test_unknown_activation_named(self):
        with pytest.raises(InputError, match=r"^activation must be one of \('relu', 'tanh'\)$"):
            MLPClassifier([1, 2], activation="sigmoid")

    def test_numpy_integer_widths_accepted(self):
        assert MLPClassifier([np.int64(1), np.int32(3), 2]).layer_dims == [1, 3, 2]

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dims", [[1, 2], [3, 5, 2], [1, 64, 64, 2]])
    def test_params_hold_the_per_layer_draws(self, dims, activation):
        m = MLPClassifier(dims, activation=activation, seed=7)
        # each layer drawn as its own array, W then a zero b, in layer order
        rng = np.random.default_rng(7)
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            layers += [rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in), np.zeros(fan_out)]
        assert m.params.dtype == np.float64
        assert m.params.tobytes() == b"".join(layer.tobytes() for layer in layers)
        for got, want in zip([x for pair in zip(m.weights, m.biases) for x in pair], layers):
            assert got.tobytes() == want.tobytes()

    def test_layers_cannot_be_rebound(self):
        m = MLPClassifier([2, 3, 2])
        with pytest.raises(TypeError):
            m.weights[0] = np.zeros((2, 3))
        with pytest.raises(TypeError):
            m.biases[1] = np.zeros(2)

    def test_sgd_step_writes_the_vector(self):
        rng = np.random.default_rng(3)
        m = MLPClassifier([2, 4, 3], seed=1)
        X, y = rng.standard_normal((16, 2)), rng.integers(0, 3, 16)
        before = m.params.copy()
        gW, gb = weighted_grad(m, X, y, np.ones(16))
        for W, g in zip(m.weights, gW):
            W -= 0.5 * g
        for b, g in zip(m.biases, gb):
            b -= 0.5 * g
        assert not np.array_equal(m.params, before)
        want = [before[:8].reshape(2, 4) - 0.5 * gW[0], before[8:12] - 0.5 * gb[0],
                before[12:24].reshape(4, 3) - 0.5 * gW[1], before[24:] - 0.5 * gb[1]]
        assert m.params.tobytes() == b"".join(part.tobytes() for part in want)

    def test_restoring_a_short_snapshot_raises(self):
        m = MLPClassifier([2, 3, 2])
        with pytest.raises(ValueError):
            m.params[...] = m.params[:-2].copy()


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
            pytest.param([[1.0, 2.0]], [-1], [1.0], r"targets must be whole numbers in \[0, 2\)", id="target -1"),
            pytest.param([[1.0, 2.0]], [2], [1.0], r"targets must be whole numbers in \[0, 2\)", id="target 2"),
            pytest.param([[1.0, 2.0], [0.5, 0.0]], [1], [1.0, 1.0], "targets must be a 1-D array of 2 labels",
                         id="one target for two rows"),
            pytest.param([[1.0, 2.0]], [0], [1.0, 1.0], "one per row", id="two weights for one row"),
            pytest.param([[1.0, 2.0], [0.5, 0.0]], [0, 1], [1.0, np.nan], "finite", id="nan weight"),
            pytest.param([[1.0, 2.0]], [0], [np.inf], "finite", id="one inf weight"),
            pytest.param([[1.0]], [0], [1.0], "input of width 2", id="narrow input"),
            pytest.param([[1.0, 2.0], [0.5, 0.0]], [0, 1], [1.0, np.nan], "finite and nonnegative",
                         id="nan weight, whole rule"),
            pytest.param([[1.0, 2.0], [0.5, 0.0]], [0, 1], [1.0, -1.0], "finite and nonnegative",
                         id="negative weight"),
            pytest.param([[1.0, 2.0], [0.5, 0.0]], [0, 1], [np.inf, 1.0], "finite and nonnegative", id="inf weight"),
            pytest.param([[1.0, 2.0], [0.5, 0.0]], [0, 1], [1.0, -np.inf], "finite and nonnegative",
                         id="-inf weight"),
            # finite, but the sum is inf, and w / inf would be a zero gradient
            pytest.param([[1.0, 2.0], [0.5, 0.0]], [0, 1], [1e308, 1e308], "finite and nonnegative",
                         id="weights summing to inf"),
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


# the instruction set each OpenBLAS core needs: forcing a core the CPU cannot run crashes the process
OPENBLAS_CORES = {"Haswell": "avx2", "SkylakeX": "avx512f", "Sandybridge": "avx"}
BLOCKED_EQUALS_ONE_CALL = """
import numpy as np
from paretofair.model import MLPClassifier

for dims in ([1, 64, 64, 2], [3, 64, 64, 2]):
    rng = np.random.default_rng(dims[0])
    m = MLPClassifier(dims, activation="relu", seed=0)
    for b in m.biases:
        b[...] = rng.standard_normal(b.shape)
    X = rng.standard_normal((100_000, dims[0]))
    for n in (16_385, 40_000, 99_999, 100_000):
        assert m.forward(X[:n]).tobytes() == m._forward_cached(X[:n]).tobytes(), f"{dims}, n = {n}"
"""


class TestLayerLoop:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("loss", ["brier", "cross_entropy"])
    @pytest.mark.parametrize(
        "case, dims, n",
        [
            *(pytest.param(case, [3, 6, 5, 2], n, id=case)
              for case, n in [("random", 16), ("one row", 1), ("zero pre-activations", 16)]),
            *(pytest.param("one column", dims, n, id=f"one column {'-'.join(map(str, dims))} n={n}")
              for dims in ([1, 6, 5, 2], [1, 3]) for n in (1, 128, 4000)),
        ],
    )
    def test_matches_plain_reference_bitwise(self, activation, loss, case, dims, n):
        m = MLPClassifier(dims, activation=activation, seed=4)
        if case == "one column":
            # zero and negative rows, zero weights and a -0.0 first bias: products of
            # -0.0 and sums onto a zero are where one product rule could differ from another
            rng = np.random.default_rng(n)
            for b in m.biases:
                b[...] = rng.standard_normal(b.shape)
            X = rng.standard_normal((n, 1))
            X[::3] = 0.0
            X[1::3] = -np.abs(X[1::3])
            m.weights[0][0, ::2] = 0.0
            m.biases[0][:2] = [-0.0, 0.0]
        else:
            rng = np.random.default_rng(12)
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
        y = rng.integers(0, dims[-1], n)
        w = rng.uniform(0.5, 3.0, n)
        probs, gW, gb = reference_forward_and_grad(m, X, y, w, loss)
        if case == "zero pre-activations":
            assert np.any(X @ m.weights[0] == 0.0)
        assert m.forward(X).tobytes() == probs.tobytes()
        got_W, got_b = weighted_grad(m, X, y, w, loss)
        for a, b in zip(got_W + got_b, gW + gb):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_forward_holds_at_most_two_hidden_activations(self, activation):
        m = MLPClassifier([1, 64, 64, 2], activation=activation, seed=0)
        X = np.random.default_rng(0).standard_normal((100_000, 1))
        hidden_bytes = 8_334 * 64 * 8  # one activation of the largest block: 100,000 rows in 12 blocks
        tracemalloc.start()
        try:
            m.forward(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peak -= X.shape[0] * 2 * 8  # the output
        assert peak <= 2.25 * hidden_bytes, f"peak {peak / hidden_bytes:.2f} hidden activations of a block"

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dims", [[1, 64, 64, 2], [3, 64, 64, 2]])
    def test_blocked_forward_matches_one_call_bitwise(self, activation, dims, monkeypatch):
        rng = np.random.default_rng(dims[0])
        m = MLPClassifier(dims, activation=activation, seed=0)
        for b in m.biases:
            b[...] = rng.standard_normal(b.shape)
        X = rng.standard_normal((100_000, dims[0]))
        want = {n: m._forward_cached(X[:n]) for n in (16_383, 16_384, 16_385, 40_000, 100_000)}
        rows = []
        one_call = MLPClassifier._forward_cached

        def counted(self, X, hs=None):
            rows.append(len(X))
            return one_call(self, X, hs)

        monkeypatch.setattr(MLPClassifier, "_forward_cached", counted)
        for n, probs in want.items():
            assert m.forward(X[:n]).tobytes() == probs.tobytes()
        # n // 8,192 near-equal blocks, each starting at row n * i // k rounded down to a multiple of 8
        assert rows == [16_383, 8_192, 8_192, 8_192, 8_193, *[10_000] * 4, *[8_328, 8_336, 8_336] * 4]

    @pytest.mark.parametrize("core", list(OPENBLAS_CORES))
    def test_blocked_forward_matches_one_call_on_each_openblas_core(self, core):
        try:
            with open("/proc/cpuinfo") as fh:
                flags = set(fh.read().split())
        except OSError:
            flags = set()
        if OPENBLAS_CORES[core] not in flags:
            pytest.skip(f"the CPU lacks {OPENBLAS_CORES[core]}, which the {core} core needs")
        src = os.path.dirname(os.path.dirname(paretofair.__file__))
        env = {
            **os.environ,
            "OPENBLAS_CORETYPE": core,
            "OPENBLAS_VERBOSE": "2",
            # a threaded Haswell call on some odd row counts (16,385 on 2 threads) differs from
            # every blocking in 1 or 2 rows; one thread checks the blocks' row alignment alone
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        out = subprocess.run([sys.executable, "-c", BLOCKED_EQUALS_ONE_CALL], env=env, capture_output=True, text=True)
        if f"Core: {core}" not in out.stderr.splitlines():
            pytest.skip(f"numpy's BLAS did not report the OpenBLAS {core} core")
        assert out.returncode == 0, out.stderr


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
            ("loss", "hinge"),
            ("seed", -1),
            ("seed", 2.5),
            ("seed", True),
        ],
    )
    def test_out_of_range_setting_names_the_field(self, field, value):
        with pytest.raises(InputError, match=f"^{field} must be .*, got {value!r}$"):
            TrainConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(batch_size=np.int64(32), max_epochs=np.int32(3), patience=np.int64(0))
        assert cfg.batch_size == 32

    def test_seed_beyond_the_checkpoint_bound_accepted(self):
        # the paper's trainer runs step ``it`` at seed + it, past any fixed bound
        assert TrainConfig(seed=2**63).seed == 2**63


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

    @pytest.mark.parametrize(
        "make_data", [separable_dataset, lambda n, seed: grouped_dataset(n, 3, seed)], ids=["G2", "G3"]
    )
    def test_uniform_weights_match_plain_sgd_bitwise(self, make_data):
        train = make_data(48, seed=3)
        val = make_data(48, seed=4)
        cfg = TrainConfig(lr=0.2, batch_size=16, max_epochs=4, patience=4, seed=7)

        model = MLPClassifier([1, 4, 2], seed=5)
        model, _, _ = sgd_early_stop(model, train, val, mean_objective, None, cfg)

        # independent plain SGD with the same batch schedule and no weighting
        ref = MLPClassifier([1, 4, 2], seed=5)
        rng = np.random.default_rng(cfg.seed)
        best = ref.params.copy()
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
                best = ref.params.copy()
        ref.params[...] = best

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
        model, best_risks, _ = sgd_early_stop(model, train, val, spy_objective, uniform_rule, cfg)
        best = mean_objective(best_risks)
        assert best == pytest.approx(min(seen))
        from paretofair.risk import group_risks

        final = mean_objective(group_risks(model.forward(val.features), val.targets, val.groups))
        assert final == pytest.approx(best)

    @pytest.mark.parametrize("weight_rule", [uniform_rule, None], ids=["stratified", "erm"])
    def test_nan_weight_raises_on_first_minibatch(self, weight_rule, monkeypatch):
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
            sgd_early_stop(model, train, val, objective, weight_rule, cfg)
        assert steps == [8]

    @pytest.mark.parametrize("weight_rule", [uniform_rule, None], ids=["stratified", "erm"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_objective_names_the_epoch(self, weight_rule, bad):
        train, val = separable_dataset(40, seed=1), separable_dataset(40, seed=2)
        objectives = iter([0.5, 0.4, bad])
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=5, patience=5, seed=0)
        with pytest.raises(InputError, match=f"^the objective is {bad} after epoch 3; it must be finite$"):
            sgd_early_stop(MLPClassifier([1, 2], seed=0), train, val, lambda r: next(objectives), weight_rule, cfg)

    @pytest.mark.parametrize(
        "objective, weight_rule, message",
        [
            (mean_objective, lambda r: np.ones(3),
             r"^the weight rule returned shape \(3,\), expected one weight per group \(2,\)$"),
            (mean_objective, lambda r: 1.0,
             r"^the weight rule returned shape \(\), expected one weight per group \(2,\)$"),
            (lambda r: r, uniform_rule,
             r"^the objective returned array\(\[.*\]\) after epoch 1; it must return one real number$"),
        ],
        ids=["three-weights", "scalar-weight", "array-objective"],
    )
    def test_seam_returning_the_wrong_shape_raises_a_typed_error(self, objective, weight_rule, message):
        train, val = separable_dataset(40, seed=1), separable_dataset(40, seed=2)
        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=3, patience=3, seed=0)
        with pytest.raises(InputError, match=message):
            sgd_early_stop(MLPClassifier([1, 2], seed=0), train, val, objective, weight_rule, cfg)

    @pytest.mark.parametrize("weight_rule", [uniform_rule, None], ids=["stratified", "erm"])
    def test_patience_counts_epochs_since_the_best_and_a_tie_is_no_improvement(self, weight_rule):
        train, val = separable_dataset(40, seed=1), separable_dataset(40, seed=2)
        model = MLPClassifier([1, 3, 2], seed=0)
        scripted = iter([0.5, 0.4, 0.45, 0.39, 0.4, 0.39, 0.3])
        params, risks = [], []

        def objective(r):
            params.append(model.params.copy())
            risks.append(r)
            return next(scripted)

        cfg = TrainConfig(lr=0.1, batch_size=8, max_epochs=7, patience=2, seed=0)
        _, best_risks, epochs = sgd_early_stop(model, train, val, objective, weight_rule, cfg)
        # epoch 4 is the best; epoch 5 is worse and epoch 6 only ties it, so the fit stops there
        assert epochs == len(params) == 6
        assert model.params.tobytes() == params[3].tobytes()
        assert best_risks.tobytes() == risks[3].tobytes()


def grouped_dataset(n, G, seed):
    """n rows in G groups of unequal size, two classes with group-dependent overlap."""
    rng = np.random.default_rng(seed)
    groups = rng.choice(G, size=n, p=np.arange(1, G + 1) / (G * (G + 1) / 2))
    y = rng.integers(0, 2, n)
    X = rng.normal((2.0 * y - 1.0) * (1.0 + groups), 1.0)[:, None]
    return GroupedDataset(features=X, targets=y, groups=groups)


def reference_stratified_sgd(model, train, val, objective, weight_rule, cfg):
    """sgd_early_stop's stratified path written out plainly: one draw per group per
    batch, the group risks from a separate forward pass, array sample weights."""
    rng = np.random.default_rng(cfg.seed)
    G, loss = train.num_groups, cfg.loss
    group_indices = [np.flatnonzero(train.groups == a) for a in range(G)]
    per = -(-cfg.batch_size // G)
    best, best_obj = model.params.copy(), np.inf
    for _ in range(cfg.max_epochs):
        for _ in range(-(-train.n // cfg.batch_size)):
            idx = np.concatenate([g[rng.integers(0, len(g), size=per)] for g in group_indices])
            X, y, a = train.features[idx], train.targets[idx], train.groups[idx]
            r_hat, _counts = group_means(sample_losses(model.forward(X), y, loss), a)
            w = np.asarray(weight_rule(r_hat))[a]
            gW, gb = weighted_grad(model, X, y, w, loss)
            for W, g in zip(model.weights, gW):
                W -= cfg.lr * g
            for b, g in zip(model.biases, gb):
                b -= cfg.lr * g
        obj = objective(group_risks(model.forward(val.features), val.targets, val.groups, loss))
        if obj < best_obj:
            best_obj, best = obj, model.params.copy()
    model.params[...] = best
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

        cfg = TrainConfig(lr=0.3, batch_size=batch_size, max_epochs=4, patience=4, seed=11, loss=loss)
        model = MLPClassifier([1, 4, 2], seed=3)
        model, best_risks, _ = sgd_early_stop(model, train, val, objective, weight_rule, cfg)
        ref = MLPClassifier([1, 4, 2], seed=3)
        ref_obj = reference_stratified_sgd(ref, train, val, objective, weight_rule, cfg)
        assert objective(best_risks) == ref_obj
        # the returned risks are those of the restored parameters
        restored = group_risks(model.forward(val.features), val.targets, val.groups, loss)
        assert best_risks.tobytes() == restored.tobytes()
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
            rows = np.repeat(groups, per)
            masked = np.asarray(rule(group_means(losses, rows)[0]))[rows]
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
        assert back.params.tobytes() == m.params.tobytes()
        for a, b in zip(m.weights, back.weights):
            assert np.array_equal(a, b)
        for a, b in zip(m.biases, back.biases):
            assert np.array_equal(a, b)

    def test_file_is_the_header_then_params(self, tmp_path):
        m = MLPClassifier([3, 7, 4], activation="tanh", seed=11)
        m.params[...] = np.random.default_rng(0).standard_normal(m.params.shape)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        header = b"PFCKPT1\n" + struct.pack("<BI3Iq", 1, 3, 3, 7, 4, 11)
        assert path.read_bytes() == header + m.params.tobytes()

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
            (lambda b: b[:25] + struct.pack("<q", -1) + b[33:], r"seed must be an integer in \[0, 2\*\*63\)"),
        ],
    )
    def test_corrupt_checkpoint_names_path(self, tmp_path, corrupt, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(MLPClassifier([3, 7, 4], seed=11), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(InputError, match=message) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
