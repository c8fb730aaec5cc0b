"""From-scratch differentiable softmax classifiers with weighted minibatch SGD.

Linear models are the degenerate case layer_dims = [d, C]. Everything is
float64 numpy, single threaded and deterministic per seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from paretofair.data import GroupedDataset
from paretofair.risk import InputError, _check_targets, _losses_and_grads, group_means, group_risks

ACTIVATIONS = ("relu", "tanh")
_CKPT_MAGIC = b"PFCKPT1\n"


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_field(obj, name: str, ok: bool, rule: str):
    """InputError naming the field ``name`` of ``obj`` and its value, unless ``ok``."""
    if not ok:
        raise InputError(f"{name} must be {rule}, got {getattr(obj, name)!r}")


@dataclass
class TrainConfig:
    """Inner SGD settings."""

    lr: float = 0.1
    batch_size: int = 128
    max_epochs: int = 60
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        _check_field(self, "lr", 0 < self.lr < np.inf, "finite and positive")
        _check_field(self, "batch_size", _is_int(self.batch_size) and self.batch_size >= 1, "an integer >= 1")
        _check_field(self, "max_epochs", _is_int(self.max_epochs) and self.max_epochs >= 1, "an integer >= 1")
        _check_field(
            self, "patience", _is_int(self.patience) and 0 <= self.patience <= self.max_epochs,
            "an integer in [0, max_epochs]",
        )


class MLPClassifier:
    """Fully connected softmax classifier, zero or more hidden layers."""

    def __init__(self, layer_dims, activation: str = "relu", seed: int = 0):
        layer_dims = list(int(d) for d in layer_dims)
        if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
            raise InputError("layer_dims needs at least [input_dim, num_classes]")
        if activation not in ACTIVATIONS:
            raise InputError(f"activation must be one of {ACTIVATIONS}")
        self.layer_dims = layer_dims
        self.activation = activation
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            self.weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
            self.biases.append(np.zeros(fan_out))

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    # -- parameter snapshots (bit-exact copies) --------------------------------

    def get_params(self):
        return [W.copy() for W in self.weights], [b.copy() for b in self.biases]

    def set_params(self, params):
        weights, biases = params
        for W, src in zip(self.weights, weights):
            W[...] = src
        for b, src in zip(self.biases, biases):
            b[...] = src

    # -- forward ---------------------------------------------------------------

    def _act_grad(self, h):
        """The activation's derivative, from the activation ``h`` it produced."""
        if self.activation == "relu":
            # h = max(z, 0), so h > 0 is exactly z > 0 (NaN and -0.0 give False
            # both ways); a bool mask gives the products a 0.0/1.0 copy gives
            return h > 0
        return 1.0 - h * h

    def _forward_cached(self, X, hs=None):
        """Class probabilities of the rows of ``X``: the one layer loop.

        Each layer computes ``h @ W``, adds ``b`` in place and, if hidden,
        applies the activation in place, so at most two hidden activations
        are alive at once; the softmax runs in place on the logits. A layer
        with one input column computes the outer product ``h * W``, which
        skips the BLAS call: each entry is one product either way, and only a
        product of -0.0, which BLAS sums onto +0.0, differs. Adding ``b``
        maps both zeros to the same bits (for a -0.0 bias, the next layer's
        sum and the softmax do). If ``hs`` is a list, each layer's input
        (``X``, then each hidden activation) is appended to it: those are all
        the backward pass needs.
        """
        h = X
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if hs is not None:
                hs.append(h)
            h = h * W if W.shape[0] == 1 else h @ W
            h += b
            if i < last:
                if self.activation == "relu":
                    np.maximum(h, 0.0, out=h)
                else:
                    np.tanh(h, out=h)
        h -= h.max(axis=1, keepdims=True)
        np.exp(h, out=h)
        h /= h.sum(axis=1, keepdims=True)
        return h

    def _check_input(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.layer_dims[0]:
            raise InputError(f"expected input of width {self.layer_dims[0]}, got shape {X.shape}")
        return X

    def forward(self, X) -> np.ndarray:
        """Class probabilities, one simplex row per input row.

        Keeps no activation beyond the layer being computed, so a forward
        pass over n rows holds at most two n-by-width hidden activations.
        """
        return self._forward_cached(self._check_input(X))

    def decisions(self, X) -> np.ndarray:
        return np.argmax(self.forward(X), axis=1)


def weighted_grad(model: MLPClassifier, X, targets, sample_weights, loss: str = "brier"):
    """Exact gradient of sum_i w_i l_i / sum_i w_i with respect to all parameters.

    ``sample_weights`` holds one finite nonnegative weight per row of ``X``, or
    is a function that returns them from the rows' per-sample losses. The
    function sees the losses of the forward pass the gradient itself uses, so
    loss-dependent weights cost one forward and one backward pass in all.

    Returns (grad_weights, grad_biases) matching model parameter shapes.
    """
    X = model._check_input(X)
    n = X.shape[0]
    targets = _check_targets(targets, n, model.num_classes)
    hs = []
    probs = model._forward_cached(X, hs)
    losses, dl_dp = _losses_and_grads(probs, targets, loss)
    if callable(sample_weights):
        sample_weights = sample_weights(losses)
    w = np.asarray(sample_weights, dtype=float)
    if w.shape != (n,):
        raise InputError(f"sample weights have shape {w.shape}, expected one per row ({n},)")
    with np.errstate(over="ignore"):  # finite weights whose sum overflows raise below
        wsum = float(w.sum())
    # NaN fails the first test; -inf the first, +inf the second
    if not (w.min() >= 0 and math.isfinite(wsum)):
        raise InputError("sample weights must be finite and nonnegative, with a finite sum")
    if wsum <= 0:
        raise InputError("sample weights must not all be zero")
    # softmax Jacobian: dl/dz_k = p_k (g_k - sum_j g_j p_j)
    inner = (dl_dp * probs).sum(axis=1, keepdims=True)
    delta = probs * (dl_dp - inner)
    delta *= (w / wsum)[:, None]
    grad_W = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grad_W[i] = hs[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
            delta *= model._act_grad(hs[i])
    return grad_W, grad_b


def _rule_weights(weight_rule, groups, G: int, losses) -> np.ndarray:
    """Per-sample weights of one minibatch: its group risks mapped through ``weight_rule``."""
    w_groups = np.asarray(weight_rule(group_means(losses, groups, G)[0]), dtype=float)
    return w_groups[groups]


def _block_weights(weight_rule, G: int, per: int, losses) -> np.ndarray:
    """``_rule_weights`` of a stratified batch: ``per`` rows of group 0, then of group 1, ...

    Each group's rows are one contiguous block, so a row of the reshaped
    losses is that group's mask, and its mean has the same bits.
    """
    w_groups = np.asarray(weight_rule(losses.reshape(G, per).mean(axis=1)), dtype=float)
    return np.repeat(w_groups, per)


def sgd_early_stop(
    model: MLPClassifier,
    train: GroupedDataset,
    val: GroupedDataset,
    objective,
    weight_rule,
    config: TrainConfig,
    loss: str = "brier",
    stratified: bool = True,
):
    """Minibatch SGD with group-dependent sample weights and early stopping.

    Each minibatch estimates per-group risks, maps them through
    ``weight_rule`` to G weights, and applies those as sample weights in the
    gradient. ``weight_rule`` receives the batch's mean loss per group, a
    float array of length G (0 for a group the batch does not hold). The
    risks come from the forward pass of the gradient itself
    (``weighted_grad`` takes the weights as a function of the batch's
    losses), so a step runs one forward and one backward pass. ``stratified``
    batches take ceil(batch_size / G) rows of each group, drawn with
    replacement; otherwise each epoch walks one permutation of the rows.
    Either way the epoch's rows are gathered once and each step takes a
    slice of them.
    After each epoch the ``objective`` is evaluated on the validation group
    risks, the float array of length G that ``group_risks`` gives; the best
    parameters seen are restored at the end. Training stops once
    ``patience`` consecutive epochs bring no improvement, or at
    ``max_epochs``. Non-finite losses, as from a diverged model, raise
    InputError at the minibatch that meets them.

    Returns (model, best_val_objective, epochs_run). The model is updated in
    place and also returned.
    """
    rng = np.random.default_rng(config.seed)
    G = train.num_groups
    n = train.n
    lr, bs = config.lr, config.batch_size
    n_batches = -(-n // bs)
    if stratified:
        # A stratified batch holds ``per`` rows of group 0, then of group 1, and
        # so on, indexing the training rows sorted by group. One draw per epoch
        # bounds each row by its group's size, so the draws, and the generator
        # state after them, equal those of one rng.integers call per group per
        # batch.
        per = -(-bs // G)
        pool = np.argsort(train.groups, kind="stable")
        sizes = np.bincount(train.groups, minlength=G)
        starts = np.cumsum(sizes) - sizes
        block_rule = partial(_block_weights, weight_rule, G, per)

    best_obj = np.inf
    best_params = model.get_params()
    bad_epochs = 0
    epochs_run = 0

    for _epoch in range(config.max_epochs):
        if stratified:
            draws = rng.integers(0, sizes[:, None], size=(n_batches, G, per)) + starts[:, None]
            batches = pool[draws].reshape(n_batches, G * per)
            steps = zip(train.features[batches], train.targets[batches], repeat(block_rule))
        else:
            order = rng.permutation(n)
            X, y, a = train.features[order], train.targets[order], train.groups[order]
            steps = (
                (X[j : j + bs], y[j : j + bs], partial(_rule_weights, weight_rule, a[j : j + bs], G))
                for j in range(0, n, bs)
            )
        for X_step, y_step, sw in steps:
            gW, gb = weighted_grad(model, X_step, y_step, sw, loss)
            for W, g_ in zip(model.weights, gW):
                W -= lr * g_
            for b, g_ in zip(model.biases, gb):
                b -= lr * g_
        epochs_run += 1

        val_probs = model.forward(val.features)
        r_val = group_risks(val_probs, val.targets, val.groups, loss)
        obj = float(objective(r_val))
        if obj < best_obj:
            best_obj = obj
            best_params = model.get_params()
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= config.patience:
            break

    model.set_params(best_params)
    return model, best_obj, epochs_run


# -- checkpoint format ---------------------------------------------------------
#
# Flat binary layout:
#   8 bytes   magic "PFCKPT1\n"
#   1 byte    activation tag (0 = relu, 1 = tanh)
#   4 bytes   uint32 little-endian: number of layer dims
#   4 bytes   uint32 per layer dim
#   8 bytes   int64 seed
#   then for each layer: W (fan_in*fan_out float64, row-major), b (fan_out float64)


def save_checkpoint(model: MLPClassifier, path):
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<B", ACTIVATIONS.index(model.activation)))
        fh.write(struct.pack("<I", len(model.layer_dims)))
        for d in model.layer_dims:
            fh.write(struct.pack("<I", d))
        fh.write(struct.pack("<q", model.seed))
        for W, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(W, dtype=float).tobytes())
            fh.write(np.ascontiguousarray(b, dtype=float).tobytes())


def load_checkpoint(path) -> MLPClassifier:
    with open(path, "rb") as fh:
        buf = fh.read()
    if not buf.startswith(_CKPT_MAGIC):
        raise InputError(f"{path}: not a model checkpoint (bad magic)")
    pos = len(_CKPT_MAGIC)
    try:
        tag, ndims = struct.unpack_from("<BI", buf, pos)
        dims = struct.unpack_from(f"<{ndims}I", buf, pos + 5)
        (seed,) = struct.unpack_from("<q", buf, pos + 5 + 4 * ndims)
    except struct.error:
        raise InputError(f"{path}: truncated checkpoint header") from None
    if tag >= len(ACTIVATIONS):
        raise InputError(f"{path}: unknown activation tag {tag}")
    pos += 5 + 4 * ndims + 8
    shapes = list(zip(dims[:-1], dims[1:]))
    expected = pos + 8 * sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
    if len(buf) != expected:
        raise InputError(f"{path}: {len(buf)} bytes, but the header implies {expected}")
    try:
        model = MLPClassifier(dims, activation=ACTIVATIONS[tag], seed=seed)
    except ValueError as exc:  # bad dims, or a seed numpy rejects
        raise InputError(f"{path}: {exc}") from None
    params = np.frombuffer(buf, dtype=float, offset=pos)
    start = 0
    for i, (fan_in, fan_out) in enumerate(shapes):
        stop = start + fan_in * fan_out
        model.weights[i] = params[start:stop].reshape(fan_in, fan_out).copy()
        model.biases[i] = params[stop : stop + fan_out].copy()
        start = stop + fan_out
    return model
