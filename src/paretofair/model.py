"""From-scratch differentiable softmax classifiers with weighted minibatch SGD.

Linear models are the degenerate case layer_dims = [d, C]. Everything is
float64 numpy, single threaded and deterministic per seed.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from paretofair.data import GroupedDataset, _naming
from paretofair.risk import (
    LOSSES,
    InputError,
    _check_field,
    _check_seed,
    _is_int,
    _labels,
    _losses_and_grads,
    group_risks,
)

ACTIVATIONS = ("relu", "tanh")
_CKPT_MAGIC = b"PFCKPT1\n"
# Rows per block of a blocked ``forward``. OpenBLAS (0.3.31, SkylakeX core)
# computes a product with M * N * K <= 10**6 by another kernel: ``H[:m] @ W``
# with W 64 by 2 matched the 100,000-row product bit for bit for m >= 7,813
# and differed for m <= 7,812, and 64-by-64 products matched at every m tried.
# A block of at least 8,192 rows is above that switch, as one call on all
# rows is, so it gives every byte of that call there. The Haswell core (which
# OpenBLAS also picks for AMD Zen) computes a row differently when an odd
# number of the call's rows precede it, so every block starts on a multiple
# of 8 (even starts sufficed in every case tried).
# Then the blocked pass equals one call for 64-wide nets on the SkylakeX,
# Sandybridge and one-thread Haswell cores; a threaded Haswell call on some
# odd row counts, such as 16,385, splits its rows so that 1 or 2 rows differ from
# every blocking tried, and from the one-thread call too.
_FORWARD_BLOCK = 8192


@dataclass
class TrainConfig:
    """Inner SGD settings: the step, the stopping rule, the seed and the loss (one of ``LOSSES``)."""

    lr: float = 0.1
    batch_size: int = 128
    max_epochs: int = 60
    patience: int = 5
    seed: int = 0
    loss: str = "brier"

    def __post_init__(self):
        _check_field(self, "lr", 0 < self.lr < np.inf, "finite and positive")
        _check_field(self, "batch_size", _is_int(self.batch_size) and self.batch_size >= 1, "an integer >= 1")
        _check_field(self, "max_epochs", _is_int(self.max_epochs) and self.max_epochs >= 1, "an integer >= 1")
        _check_field(
            self, "patience", _is_int(self.patience) and 0 <= self.patience <= self.max_epochs,
            "an integer in [0, max_epochs]",
        )
        _check_field(self, "loss", self.loss in LOSSES, f"one of {LOSSES}")
        # any integer >= 0: pareto_fair_optimize trains step ``it`` at seed + it
        _check_seed(self.seed)


def _num_params(layer_dims) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))


class MLPClassifier:
    """Fully connected softmax classifier, zero or more hidden layers.

    ``params`` is one float64 vector holding, layer by layer, W row-major and
    then b: a (fan_in + 1)-by-fan_out block each. ``weights`` and ``biases``
    are tuples of views of those blocks. A snapshot is ``params.copy()``.
    """

    def __init__(self, layer_dims, activation: str = "relu", seed: int = 0):
        layer_dims = list(layer_dims)
        if len(layer_dims) < 2 or not all(_is_int(d) and d >= 1 for d in layer_dims):
            raise InputError(f"layer_dims must be [input_dim, ..., num_classes], integers >= 1, got {layer_dims!r}")
        layer_dims = [int(d) for d in layer_dims]
        if activation not in ACTIVATIONS:
            raise InputError(f"activation must be one of {ACTIVATIONS}")
        _check_seed(seed, int64=True)  # save_checkpoint writes it as an int64
        self.layer_dims = layer_dims
        self.activation = activation
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.params = np.zeros(_num_params(layer_dims))
        self.weights, self.biases, start = (), (), 0
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            block = self.params[start : start + (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out)
            block[:-1] = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
            self.weights += (block[:-1],)
            self.biases += (block[-1],)
            start += block.size

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

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

        n rows are scored in k = max(1, n // 8,192) near-equal blocks, block
        i starting at row ``n * i // k`` rounded down to a multiple of 8 and
        the last ending at row n: fewer than 16,384 rows take one
        ``_forward_cached`` call, and more take blocks of 8,192 to 12,295
        rows, into one (n, C) output. Each call keeps no activation beyond the
        layer being computed, so a forward pass holds at most two hidden
        activations of at most 16,383 rows each (12,295 once n reaches
        16,384), besides the output.
        """
        X = self._check_input(X)
        n = X.shape[0]
        k = max(1, n // _FORWARD_BLOCK)
        out = np.empty((n, self.num_classes))
        bounds = [n * i // k // 8 * 8 for i in range(k)] + [n]
        for start, stop in zip(bounds, bounds[1:]):
            out[start:stop] = self._forward_cached(X[start:stop])
        return out

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
    targets = _labels(targets, "targets", n, model.num_classes)
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


def _block_weights(weight_rule, G: int, per: int, losses) -> np.ndarray:
    """Per-sample weights of a batch of ``per`` rows of group 0, then of group 1, ...:
    its G group means through ``weight_rule``. A row of the reshaped losses is
    one group's block, so its mean has the bits of that group's masked mean.
    """
    w_groups = np.asarray(weight_rule(losses.reshape(G, per).mean(axis=1)), dtype=float)
    if w_groups.shape != (G,):
        raise InputError(f"the weight rule returned shape {w_groups.shape}, expected one weight per group ({G},)")
    return np.repeat(w_groups, per)


def sgd_early_stop(
    model: MLPClassifier,
    train: GroupedDataset,
    val: GroupedDataset,
    objective,
    weight_rule,
    config: TrainConfig,
):
    """Minibatch SGD with group-dependent sample weights and early stopping.

    Every setting comes from ``config``; ``config.loss`` is both the loss the
    gradient descends and the loss of the validation group risks.
    Each epoch draws one index of training rows, gathers them once and takes
    each step as a slice. With ``weight_rule=None`` this is ERM: the index is
    one permutation of the rows, a step ``batch_size`` of them, and every row
    has weight 1. Otherwise a step is ceil(batch_size / G) rows of each
    group, drawn with replacement, and ``weight_rule`` maps the step's mean
    loss per group, a float array of length G, to the G weights of the
    group's rows. Those risks come from the forward pass of the gradient
    itself (``weighted_grad`` takes the weights as a function of the
    losses), so a step runs one forward and one backward pass.
    After each epoch the ``objective`` is evaluated on the validation group
    risks, the float array of length G that ``group_risks`` gives; the best
    parameters seen are restored at the end. Training stops once
    ``patience`` consecutive epochs bring no improvement (a tie is none), or
    at ``max_epochs``. InputError is raised by non-finite losses, as from a
    diverged model, or a rule's weights not one per group, at the step that
    meets them; by an objective not one finite real number, at its epoch;
    and by sets that hold different groups.

    Returns (model, best_risks, epochs_run), where ``best_risks`` are the
    validation group risks of the restored epoch. The model is updated in
    place and also returned.
    """
    G = train.num_groups
    if val.num_groups != G:
        raise InputError(f"the training and validation sets must hold the same groups: "
                         f"training has {G}, validation {val.num_groups}")
    rng = np.random.default_rng(config.seed)
    n = train.n
    lr, bs, loss = config.lr, config.batch_size, config.loss
    if weight_rule is None:
        step, weights, draw_rows = bs, np.ones_like, partial(rng.permutation, n)
    else:
        # Each step holds ``per`` rows of group 0, then of group 1, and so on,
        # indexing the training rows sorted by group. One draw per epoch
        # bounds each row by its group's size, so the draws, and the generator
        # state after them, equal those of one rng.integers call per group per
        # step.
        per = -(-bs // G)
        step, weights = G * per, partial(_block_weights, weight_rule, G, per)
        pool = np.argsort(train.groups, kind="stable")
        sizes = np.bincount(train.groups, minlength=G)[:, None]
        starts = np.cumsum(sizes)[:, None] - sizes

        def draw_rows():
            return pool[rng.integers(0, sizes, size=(-(-n // bs), G, per)) + starts].ravel()

    # a finite objective always beats inf, so the first epoch sets best_risks and best_params
    best_obj, best_epoch = np.inf, 0
    for epochs_run in range(1, config.max_epochs + 1):
        rows = draw_rows()
        X, y = train.features[rows], train.targets[rows]
        for j in range(0, len(rows), step):
            gW, gb = weighted_grad(model, X[j : j + step], y[j : j + step], weights, loss)
            for p, g in zip(model.weights + model.biases, gW + gb):
                p -= lr * g

        val_probs = model.forward(val.features)
        r_val = group_risks(val_probs, val.targets, val.groups, loss)
        obj = objective(r_val)
        if not isinstance(obj, numbers.Real):
            raise InputError(f"the objective returned {obj!r} after epoch {epochs_run}; it must return one real number")
        if not math.isfinite(obj):
            raise InputError(f"the objective is {obj} after epoch {epochs_run}; it must be finite")
        if obj < best_obj:
            best_obj, best_risks, best_epoch = obj, r_val, epochs_run
            best_params = model.params.copy()
        if epochs_run - best_epoch >= config.patience:
            break

    model.params[...] = best_params
    return model, best_risks, epochs_run


# -- checkpoint format ---------------------------------------------------------
#
# Flat binary layout:
#   8 bytes   magic "PFCKPT1\n"
#   1 byte    activation tag (0 = relu, 1 = tanh)
#   4 bytes   uint32 little-endian: number of layer dims
#   4 bytes   uint32 per layer dim
#   8 bytes   int64 seed
#   then params: W_0 (fan_in*fan_out float64, row-major), b_0 (fan_out float64), W_1, b_1, ...


def save_checkpoint(model: MLPClassifier, path):
    dims = model.layer_dims
    header = struct.pack(f"<BI{len(dims)}Iq", ACTIVATIONS.index(model.activation), len(dims), *dims, model.seed)
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + header)
        fh.write(model.params.tobytes())


def load_checkpoint(path) -> MLPClassifier:
    with open(path, "rb") as fh:
        buf = fh.read()
    if not buf.startswith(_CKPT_MAGIC):
        raise InputError(f"{path}: not a model checkpoint (bad magic)")
    pos = len(_CKPT_MAGIC)
    try:
        tag, ndims = struct.unpack_from("<BI", buf, pos)
        *dims, seed = struct.unpack_from(f"<{ndims}Iq", buf, pos + 5)
    except struct.error:
        raise InputError(f"{path}: truncated checkpoint header") from None
    if tag >= len(ACTIVATIONS):
        raise InputError(f"{path}: unknown activation tag {tag}")
    pos += 5 + 4 * ndims + 8
    expected = pos + 8 * _num_params(dims)
    if len(buf) != expected:
        raise InputError(f"{path}: {len(buf)} bytes, but the header implies {expected}")
    model = _naming(path, MLPClassifier, dims, activation=ACTIVATIONS[tag], seed=seed)  # bad dims or seed
    model.params[...] = np.frombuffer(buf, dtype=float, offset=pos)
    return model
