"""The benchmark's workloads: generated inputs, the CLI calls, and output checks.

Every workload turns its seed into input files (scenario, config), runs one or
more ``paretofair`` CLI commands on them, and checks the files they write
against values the benchmark recomputes itself from the model checkpoint, the
dataset and the scenario. Trained models must also reach a quality bound,
measured on the scenario's exact distribution, so a trainer that writes
self-consistent but wrong models fails too. The checks use tolerances, so a
change that only reorders floating-point work still passes; byte identity is
reported apart.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from pathlib import Path

import numpy as np

SPLIT = (0.6, 0.2, 0.2)
TOL = 1e-9


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_config(path, values: dict):
    Path(path).write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


# -- independent recomputation -------------------------------------------------


def read_checkpoint(path):
    """(activation, dims, [(W, b), ...]) parsed from the documented binary layout."""
    buf = Path(path).read_bytes()
    if not buf.startswith(b"PFCKPT1\n"):
        raise ValueError("bad checkpoint magic")
    off = 8
    act = ("relu", "tanh")[buf[off]]
    (ndims,) = struct.unpack_from("<I", buf, off + 1)
    dims = list(struct.unpack_from(f"<{ndims}I", buf, off + 5))
    off += 5 + 4 * ndims + 8  # dims, then the int64 seed
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = np.frombuffer(buf, dtype="<f8", count=fan_in * fan_out, offset=off).reshape(fan_in, fan_out)
        off += 8 * fan_in * fan_out
        b = np.frombuffer(buf, dtype="<f8", count=fan_out, offset=off)
        off += 8 * fan_out
        layers.append((W, b))
    if off != len(buf):
        raise ValueError(f"checkpoint has {len(buf) - off} trailing bytes")
    return act, dims, layers


def predict(ckpt, X):
    """Softmax class probabilities of the checkpointed MLP."""
    act, _dims, layers = ckpt
    h = np.asarray(X, dtype=float)
    for i, (W, b) in enumerate(layers):
        h = h @ W + b
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0) if act == "relu" else np.tanh(h)
    e = np.exp(h - h.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def group_table(decisions, probs, targets, groups, G):
    """Per group: (ratio, accuracy, brier or None, n)."""
    n = len(targets)
    out = []
    for a in range(G):
        m = groups == a
        brier = None
        if probs is not None:
            onehot = np.eye(probs.shape[1])[targets[m]]
            brier = float(np.sum((probs[m] - onehot) ** 2, axis=1).mean())
        out.append((m.sum() / n, float((decisions[m] == targets[m]).mean()), brier, int(m.sum())))
    return out


def two_group_front(spec, num_lambda):
    """Exact non-dominated front of a two-group scenario, all lambdas at once.

    Rows are (lambda_0, lambda_1, r_0, r_1), sorted by (r_0, r_1).
    """
    if spec.num_groups != 2:
        raise ValueError("the benchmark scenarios have two groups")
    t = np.linspace(0.0, 1.0, num_lambda)
    lam = np.stack([t, 1.0 - t], axis=1)
    num = lam @ (spec.density * spec.eta)
    den = lam @ spec.density
    g = np.where(den > 0, num / np.maximum(den, 1e-300), 0.5)
    loss = spec.eta[None] * 2.0 * (1.0 - g[:, None]) ** 2 + (1.0 - spec.eta[None]) * 2.0 * g[:, None] ** 2
    r = np.einsum("ab,kab->ka", spec.density, loss)
    le = np.all(r[None, :, :] <= r[:, None, :], axis=2)  # [i, j]: r_j <= r_i everywhere
    lt = np.any(r[None, :, :] < r[:, None, :], axis=2)
    keep = ~np.any(le & lt, axis=1)
    rows = np.concatenate([lam, r], axis=1)[keep]
    return rows[np.lexsort((rows[:, 3], rows[:, 2]))]


def exact_risks(spec, lam):
    g = (lam @ (spec.density * spec.eta)) / (lam @ spec.density)
    loss = spec.eta * 2.0 * (1.0 - g) ** 2 + (1.0 - spec.eta) * 2.0 * g**2
    return np.einsum("ab,ab->a", spec.density, loss)


def population_risks(spec, ckpt, points_per_bin=16):
    """Exact per-group Brier risks of the checkpointed model under the scenario.

    ``sample_dataset`` jitters x uniformly within its grid bin, so each bin's
    loss is averaged over evenly spaced points of the bin. This has no sampling
    noise, unlike the risks on a test split.
    """
    h = float(spec.grid[1] - spec.grid[0])
    u = (np.arange(points_per_bin) + 0.5) / points_per_bin - 0.5
    x = (spec.grid[:, None] + u[None, :] * h).reshape(-1, 1)
    p1 = predict(ckpt, x)[:, 1].reshape(len(spec.grid), points_per_bin)[None]
    eta = spec.eta[:, :, None]
    loss = eta * 2.0 * (1.0 - p1) ** 2 + (1.0 - eta) * 2.0 * p1**2
    return np.einsum("ab,ab->a", spec.density, loss.mean(axis=2))


def pareto_fair_risks(front_rows):
    r = front_rows[:, 2:]
    gap = r.max(axis=1) - r.min(axis=1)
    best = min(range(len(r)), key=lambda i: (gap[i], r[i].mean()))
    return r[best]


# -- check helpers -------------------------------------------------------------


class Problems(list):
    """Messages of failed checks for one CLI call."""

    def close(self, what, got, want, tol=TOL):
        if not (math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))):
            self.append(f"{what}: got {got!r}, expected {want!r}")

    def equal(self, what, got, want):
        if got != want:
            self.append(f"{what}: got {got!r}, expected {want!r}")


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{Path(path).name} is empty")
    return rows[0], rows[1:]


def check_metrics_csv(p: Problems, path, method, table):
    """metrics.csv against a recomputed per-group table (see ``group_table``)."""
    header, rows = read_rows(path)
    p.equal("metrics header", header, ["method", "group", "ratio", "accuracy", "brier", "n"])
    G = len(table)
    p.equal("metrics rows", len(rows), G + 3)
    if header != ["method", "group", "ratio", "accuracy", "brier", "n"] or len(rows) != G + 3:
        return
    ratios = np.array([t[0] for t in table])
    for a, (row, (ratio, acc, brier, n)) in enumerate(zip(rows, table)):
        p.equal(f"method of group {a}", (row[0], row[1]), (method, f"g{a}"))
        p.close(f"ratio of g{a}", float(row[2]), ratio)
        p.close(f"accuracy of g{a}", float(row[3]), acc)
        p.close(f"brier of g{a}", float(row[4]), brier)
        p.equal(f"n of g{a}", int(row[5]), n)
    accs = np.array([t[1] for t in table])
    briers = np.array([t[2] for t in table])
    for row, name, fn in zip(
        rows[G:],
        ("__sample_mean", "__group_mean", "__discrepancy"),
        (lambda m: float(m @ ratios), lambda m: float(m.mean()), lambda m: float(m.max() - m.min())),
    ):
        p.equal("summary row", row[1], name)
        p.close(f"{name} accuracy", float(row[3]), fn(accs))
        p.close(f"{name} brier", float(row[4]), fn(briers))


def guarded(problems: Problems, fn, *args):
    """Run a check; a malformed file that makes it raise is a failed check."""
    try:
        return fn(problems, *args)
    except Exception as exc:  # any parse failure of an output file is a check failure
        problems.append(f"check raised {type(exc).__name__}: {exc}")
        return None


# -- workloads -----------------------------------------------------------------


class Workload:
    """One benchmark workload. ``steps`` are CLI calls; ``outputs`` are their deterministic files."""

    name = ""
    outputs: dict = {}

    def write_inputs(self, pf, inputs: Path, seed: int):
        raise NotImplementedError

    def steps(self, inputs: Path, out: Path, seed: int):
        raise NotImplementedError

    def check(self, pf, inputs: Path, out: Path, seed: int):
        """Returns ({step: Problems}, {quality metric: value})."""
        raise NotImplementedError

    def cross_check(self, counts: dict, out: Path):
        """Traced work counts against the files the workload wrote: list of mismatches."""
        return []


class PfTrain(Workload):
    name = "pf_train"
    outputs = {"train": ["trace.csv", "metrics.csv", "model.ckpt"]}

    # Fixed work per seed: every inner fit runs max_epochs epochs (patience equals
    # it) and the outer loop always runs max_outer_iters steps, so wall time does
    # not depend on how the seed's accept/reject path happens to go. gamma0 = 1
    # (default 0.5) lets the multipliers grow fast enough that ten outer steps
    # reach the quality bounds below on every seed.
    #
    # Quality bounds, on the model's exact risks: the largest distance of a group
    # risk from the Pareto-fair risks, and how far the risk gap must stay below
    # the gap of the exact rebalanced (equal group weights) predictor. Over seeds
    # 0-15 the correct trainer gives 0.011-0.035 and gaps 0.110-0.164. Sample
    # weights dropped from the gradient give errors near 0.07 and gaps 0.208-0.215
    # (rebalanced: 0.221); zero gradients give an error of 0.125.
    def __init__(self, n=20000, outer=10, epochs=10, max_risk_err=0.06, gap_margin=0.03):
        self.n, self.outer, self.epochs = n, outer, epochs
        self.max_risk_err, self.gap_margin = max_risk_err, gap_margin

    def config(self):
        return {
            "hidden": "64,64", "activation": "relu", "loss": "brier", "n": self.n, "batch_size": 128,
            "lr": 0.1, "max_epochs": self.epochs, "patience": self.epochs, "gamma0": 1.0,
            "max_outer_iters": self.outer, "max_consecutive_rejects": self.outer,
        }

    def write_inputs(self, pf, inputs, seed):
        inputs.mkdir(parents=True)
        pf.oracle.save_scenario(pf.oracle.ScenarioParams(), inputs / "scenario.txt")
        write_config(inputs / "train.cfg", self.config())

    def steps(self, inputs, out, seed):
        return [("train", ["train", "--config", str(inputs / "train.cfg"), "--scenario", str(inputs / "scenario.txt"),
                           "--method", "paretofair", "--seed", str(seed), "--out", str(out)])]

    def check(self, pf, inputs, out, seed):
        p = Problems()
        quality = guarded(p, self._check, pf, inputs, out, seed) or {}
        return {"train": p}, quality

    def _check(self, p, pf, inputs, out, seed):
        spec = pf.oracle.make_scenario(pf.oracle.load_scenario(inputs / "scenario.txt"))
        ds = pf.oracle.sample_dataset(spec, self.n, seed)
        _train, val, test = pf.data.split_dataset(ds, SPLIT, seed=seed)
        ckpt = read_checkpoint(out / "model.ckpt")
        p.equal("checkpoint layers", (ckpt[0], ckpt[1]), ("relu", [1, 64, 64, 2]))

        header, rows = read_rows(out / "trace.csv")
        p.equal("trace header", header,
                ["iter", "accepted", "lr", "gamma", "c", "mu_0", "mu_1", "r_0", "r_1", "max_gap"])
        p.equal("trace rows", len(rows), self.outer)
        p.equal("trace iterations", [int(r[0]) for r in rows], list(range(len(rows))))
        accepted = [r for r in rows if r[1] == "1"]
        p.equal("accepted flags", sorted({r[1] for r in rows} - {"0", "1"}), [])
        if not accepted:
            p.append("no outer step was accepted")
        for r in rows:
            vals = [float(v) for v in r[2:]]
            if not all(math.isfinite(v) for v in vals):
                p.append(f"non-finite value in trace row {r[0]}")
            p.close(f"max_gap of trace row {r[0]}", float(r[9]), abs(float(r[7]) - float(r[8])), 1e-12)
        gaps = [float(r[9]) for r in accepted]
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            p.append(f"accepted gaps do not strictly decrease: {gaps}")

        # the saved model is the last accepted one, so it reproduces that row's risks
        if accepted and ckpt[1] == [1, 64, 64, 2]:
            val_table = group_table(np.zeros(val.n), predict(ckpt, val.features), val.targets, val.groups, 2)
            for a in range(2):
                p.close(f"validation risk of g{a} vs last accepted row", val_table[a][2], float(accepted[-1][7 + a]))
        probs = predict(ckpt, test.features)
        table = group_table(probs.argmax(axis=1), probs, test.targets, test.groups, 2)
        check_metrics_csv(p, out / "metrics.csv", "paretofair", table)

        target = pareto_fair_risks(two_group_front(spec, 1001))
        self.check_quality(p, spec, ckpt, target)
        brier = np.array([t[2] for t in table])
        return {
            "quality.pf_risk_err": float(np.max(np.abs(brier - target))),
            "quality.test_gap": float(brier.max() - brier.min()),
        }

    def check_quality(self, p, spec, ckpt, target):
        risks = population_risks(spec, ckpt)
        err = float(np.max(np.abs(risks - target)))
        if not err <= self.max_risk_err:
            p.append(f"exact risks {risks} are {err:.4f} from the Pareto-fair risks {target} "
                     f"(bound {self.max_risk_err})")
        gap, rebalanced = float(np.ptp(risks)), float(np.ptp(exact_risks(spec, np.array([0.5, 0.5]))))
        if not gap <= rebalanced - self.gap_margin:
            p.append(f"exact risk gap {gap:.4f} is not {self.gap_margin} below the rebalanced gap {rebalanced:.4f}")

    def cross_check(self, counts, out):
        _header, rows = read_rows(out / "trace.csv")
        bad = []
        if counts.get("model.sgd_early_stop.calls", 0) != len(rows):
            bad.append(f"model.sgd_early_stop.calls {counts.get('model.sgd_early_stop.calls', 0)} != trace rows {len(rows)}")
        acc = sum(int(r[1]) for r in rows)
        if counts.get("adaptive.accepted", 0) != acc:
            bad.append(f"adaptive.accepted {counts.get('adaptive.accepted', 0)} != accepted in trace {acc}")
        return bad


def oracle_scenario(ScenarioParams, seed):
    """The default scenario for seed 0; for other seeds a small perturbation of it.

    The grid and group count stay fixed, so the traced front has the same size
    and the oracle does the same work on every seed.
    """
    if seed == 0:
        return ScenarioParams()
    rng = np.random.default_rng(seed)

    def near(x, w):
        return float(x + rng.uniform(-w, w))

    p0 = near(0.7, 0.05)
    return ScenarioParams(
        priors=(p0, 1.0 - p0),
        rho_low=(near(0.1, 0.03), near(0.3, 0.03)),
        rho_high=(near(0.9, 0.03), near(0.7, 0.03)),
        transition_center=near(0.65, 0.03),
        density_centers=(near(0.4, 0.03), near(0.6, 0.03)),
        density_widths=(near(0.15, 0.02), near(0.15, 0.02)),
    )


class OracleFront(Workload):
    name = "oracle_front"
    outputs = {"oracle": ["front.csv", "reference_points.csv"]}

    def __init__(self, num_lambda=501):
        self.num_lambda = num_lambda

    def write_inputs(self, pf, inputs, seed):
        inputs.mkdir(parents=True)
        pf.oracle.save_scenario(oracle_scenario(pf.oracle.ScenarioParams, seed), inputs / "scenario.txt")

    def steps(self, inputs, out, seed):
        return [("oracle", ["oracle", "--scenario", str(inputs / "scenario.txt"),
                            "--num-lambda", str(self.num_lambda), "--out", str(out)])]

    def check(self, pf, inputs, out, seed):
        p = Problems()
        guarded(p, self._check, pf, inputs, out)
        return {"oracle": p}, {}

    def _check(self, p, pf, inputs, out):
        spec = pf.oracle.make_scenario(pf.oracle.load_scenario(inputs / "scenario.txt"))
        front = two_group_front(spec, self.num_lambda)
        header, rows = read_rows(out / "front.csv")
        p.equal("front header", header, ["lambda_0", "lambda_1", "r_0", "r_1", "max_gap", "mean_risk"])
        p.equal("front points", len(rows), len(front))
        for i, (row, want) in enumerate(zip(rows, front)):
            got = [float(v) for v in row]
            for j, name in enumerate(("lambda_0", "lambda_1", "r_0", "r_1")):
                p.close(f"front row {i} {name}", got[j], want[j])
            p.close(f"front row {i} max_gap", got[4], abs(want[2] - want[3]))
            p.close(f"front row {i} mean_risk", got[5], (want[2] + want[3]) / 2)
            if len(p) > 20:
                return

        pf_r = pareto_fair_risks(front)
        expected = {
            "naive": exact_risks(spec, spec.priors),
            "rebalanced": exact_risks(spec, np.array([0.5, 0.5])),
            "pareto_fair": pf_r,
            "equality_of_risk": np.full(2, pf_r.max()),
        }
        header, rows = read_rows(out / "reference_points.csv")
        p.equal("reference header", header, ["name", "r_0", "r_1", "max_gap"])
        p.equal("reference names", [r[0] for r in rows], list(expected))
        for row in rows:
            want = expected.get(row[0])
            if want is not None:
                for a in range(2):
                    p.close(f"{row[0]} r_{a}", float(row[1 + a]), want[a])
                p.close(f"{row[0]} max_gap", float(row[3]), abs(want[0] - want[1]))

    def cross_check(self, counts, out):
        _header, rows = read_rows(out / "front.csv")
        if counts.get("oracle.front_points", 0) != len(rows):
            return [f"oracle.front_points {counts.get('oracle.front_points', 0)} != front.csv rows {len(rows)}"]
        return []


class CsvPipeline(Workload):
    name = "csv_pipeline"
    outputs = {
        "synth": ["data.csv"],
        "train": ["naive/model.ckpt", "naive/metrics.csv"],
        "postproc": ["post/rule.csv", "post/metrics_pre.csv", "post/metrics_post.csv"],
        "report": ["combined.csv"],
    }

    # Quality bound: the naive model's exact prior-weighted risk may exceed that of
    # the exact naive (Bayes) predictor by at most this much. Over seeds 0-5 the
    # excess is 0.008-0.010; an untrained model's is about 0.17.
    def __init__(self, n=200000, max_excess_risk=0.03):
        self.n, self.max_excess_risk = n, max_excess_risk

    def write_inputs(self, pf, inputs, seed):
        inputs.mkdir(parents=True)
        pf.oracle.save_scenario(pf.oracle.ScenarioParams(), inputs / "scenario.txt")
        write_config(inputs / "naive.cfg", {"max_epochs": 3, "patience": 3})

    def steps(self, inputs, out, seed):
        data, s = str(out / "data.csv"), str(seed)
        return [
            ("synth", ["synth", "--scenario", str(inputs / "scenario.txt"), "--n", str(self.n), "--seed", s, "--out", data]),
            ("train", ["train", "--config", str(inputs / "naive.cfg"), "--data", data, "--method", "naive",
                       "--seed", s, "--out", str(out / "naive")]),
            ("postproc", ["postproc", "--checkpoint", str(out / "naive" / "model.ckpt"), "--data", data,
                          "--seed", s, "--out", str(out / "post")]),
            ("report", ["report", str(out / "naive" / "metrics.csv"), str(out / "post" / "metrics_pre.csv"),
                        str(out / "post" / "metrics_post.csv"), "--out", str(out / "combined.csv")]),
        ]

    def check(self, pf, inputs, out, seed):
        problems = {step: Problems() for step in self.outputs}
        ds = guarded(problems["synth"], self._check_data, pf, inputs, out)
        quality = {}
        if ds is None:
            for step in ("train", "postproc"):
                problems[step].append("dataset unreadable")
        else:
            guarded(problems["train"], self._check_train, pf, inputs, ds, out, seed)
            quality = guarded(problems["postproc"], self._check_postproc, pf, ds, out, seed) or {}
        guarded(problems["report"], self._check_report, out)
        return problems, quality

    def _check_data(self, p, pf, inputs, out):
        spec = pf.oracle.make_scenario(pf.oracle.load_scenario(inputs / "scenario.txt"))
        with open(out / "data.csv") as fh:
            p.equal("data header", fh.readline().strip(), "f0,target,group")
        arr = np.loadtxt(out / "data.csv", delimiter=",", skiprows=1, ndmin=2)
        p.equal("data shape", arr.shape, (self.n, 3))
        x, y, a = arr[:, 0], arr[:, 1], arr[:, 2]
        for name, col in (("target", y), ("group", a)):
            if not np.all((col == 0) | (col == 1)):
                p.append(f"{name} column is not 0/1")
        h = float(spec.grid[1] - spec.grid[0])
        if not (x.min() >= spec.grid[0] - h / 2 and x.max() <= spec.grid[-1] + h / 2):
            p.append("features fall outside the scenario grid")
        share0 = float((a == 0).mean())
        p.close("share of group 0", share0, spec.priors[0], 6 * math.sqrt(0.25 / self.n))
        return pf.data.GroupedDataset(features=arr[:, :1], targets=y.astype(int), groups=a.astype(int))

    def _check_train(self, p, pf, inputs, ds, out, seed):
        _train, _val, test = pf.data.split_dataset(ds, SPLIT, seed=seed)
        ckpt = read_checkpoint(out / "naive" / "model.ckpt")
        p.equal("checkpoint layers", (ckpt[0], ckpt[1]), ("relu", [1, 64, 64, 2]))
        probs = predict(ckpt, test.features)
        table = group_table(probs.argmax(axis=1), probs, test.targets, test.groups, 2)
        check_metrics_csv(p, out / "naive" / "metrics.csv", "naive", table)
        spec = pf.oracle.make_scenario(pf.oracle.load_scenario(inputs / "scenario.txt"))
        self.check_quality(p, spec, ckpt)

    def check_quality(self, p, spec, ckpt):
        priors = np.asarray(spec.priors)
        excess = float(priors @ population_risks(spec, ckpt) - priors @ exact_risks(spec, priors))
        if not excess <= self.max_excess_risk:
            p.append(f"exact risk exceeds the Bayes naive risk by {excess:.4f} (bound {self.max_excess_risk})")

    def _check_postproc(self, p, pf, ds, out, seed):
        fit, hold = pf.data.split_dataset(ds, (0.5, 0.5), seed=seed)
        ckpt = read_checkpoint(out / "naive" / "model.ckpt")
        fit_dec = predict(ckpt, fit.features).argmax(axis=1)
        acc = np.array([t[1] for t in group_table(fit_dec, None, fit.targets, fit.groups, 2)])
        keep = np.clip((acc.min() - 0.5) / (acc - 0.5), 0.0, 1.0)
        header, rows = read_rows(out / "post" / "rule.csv")
        p.equal("rule header", header, ["group", "keep_prob"])
        p.equal("rule groups", [r[0] for r in rows], ["0", "1"])
        for a, row in enumerate(rows[:2]):
            p.close(f"keep_prob of group {a}", float(row[1]), keep[a])

        probs = predict(ckpt, hold.features)
        pre = group_table(probs.argmax(axis=1), probs, hold.targets, hold.groups, 2)
        check_metrics_csv(p, out / "post" / "metrics_pre.csv", "pre_rule", pre)

        # The coin flips are random, so post-rule accuracies are checked against
        # their expectation p * acc + (1 - p) / 2 within six standard deviations.
        header, rows = read_rows(out / "post" / "metrics_post.csv")
        p.equal("metrics_post header", header, ["method", "group", "ratio", "accuracy", "brier", "n"])
        post_acc = []
        for a, (ratio, acc_a, brier, n) in enumerate(pre):
            row = rows[a]
            p.equal(f"post row {a}", (row[0], row[1], int(row[5])), ("post_rule", f"g{a}", n))
            p.close(f"post ratio of g{a}", float(row[2]), ratio)
            p.close(f"post brier of g{a}", float(row[4]), brier)
            want = keep[a] * acc_a + (1 - keep[a]) / 2
            p.close(f"post accuracy of g{a}", float(row[3]), want, 6 * math.sqrt(0.25 / n))
            post_acc.append(float(row[3]))
        disc = rows[4]
        p.equal("post discrepancy row", disc[1], "__discrepancy")
        p.close("post accuracy discrepancy", float(disc[3]), max(post_acc) - min(post_acc))
        return {"quality.postproc_acc_gap": float(disc[3])}

    def _check_report(self, p, out):
        files = [out / "naive" / "metrics.csv", out / "post" / "metrics_pre.csv", out / "post" / "metrics_post.csv"]
        tables = [read_rows(f)[1] for f in files]
        want_header = ["group", "ratio"]
        for rows in tables:
            want_header += [f"{rows[0][0]}_acc", f"{rows[0][0]}_brier"]
        want_rows = []
        for i, first in enumerate(tables[0]):
            row = [first[1], first[2] if not first[1].startswith("__") else ""]
            for rows in tables:
                row += [rows[i][3], rows[i][4]]
            want_rows.append(row)
        header, rows = read_rows(out / "combined.csv")
        p.equal("combined header", header, want_header)
        p.equal("combined rows", len(rows), len(want_rows))
        for got, want in zip(rows, want_rows):
            p.equal("combined labels", got[:1], want[:1])
            for g, w in zip(got[1:], want[1:]):
                if (g == "") != (w == ""):
                    p.append(f"combined row {want[0]}: cell {g!r} vs {w!r}")
                elif g:
                    p.close(f"combined row {want[0]}", float(g), float(w))

    def cross_check(self, counts, out):
        with open(out / "data.csv", "rb") as fh:
            lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
        bad = []
        if counts.get("data.save_csv.rows", 0) != lines - 1:
            bad.append(f"data.save_csv.rows {counts.get('data.save_csv.rows', 0)} != data.csv rows {lines - 1}")
        if counts.get("data.load_csv.rows", 0) != 2 * (lines - 1):
            bad.append(f"data.load_csv.rows {counts.get('data.load_csv.rows', 0)} != two reads of {lines - 1} rows")
        return bad


WORKLOADS = {w.name: w for w in (PfTrain(), OracleFront(), CsvPipeline())}
