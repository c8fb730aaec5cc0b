"""End-to-end acceptance gate.

Each test prints one ``[criterion N] PASS``/``FAIL`` line (visible with
``pytest -s``). The heavy trained runs are shared across criteria via
module-scoped fixtures; the exact front is the session-scoped
``front`` fixture of ``conftest.py``.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from paretofair import cli
from paretofair.adaptive import (
    PFHyperparams,
    adaptive_loss,
    group_weights,
    pareto_fair_optimize,
)
from paretofair.baselines import apply_rule, fit_equalizing_rule, train_naive, train_rebalanced
from paretofair.data import split_dataset
from paretofair.model import MLPClassifier, weighted_grad
from paretofair.oracle import (
    ScenarioParams,
    bayes_noise,
    exact_group_risks,
    make_scenario,
    pareto_fair_point,
    reference_points,
    sample_dataset,
    save_scenario,
    scalarized_bayes_predictor,
    trace_front,
)
from paretofair.risk import archive_insert, group_risks, max_gap, sample_losses
from conftest import brute_force_nondominated, model_risks

SEEDS = (0, 1, 2)
ARCH = (1, 64, 64, 2)
N_SAMPLES = 20_000
SPLIT = (0.6, 0.2, 0.2)


@contextmanager
def criterion(n, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {n}] FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"\n[criterion {n}] FAIL (runtime {elapsed:.1f}s over {budget_seconds}s budget)")
        pytest.fail(f"criterion {n} exceeded its {budget_seconds}s runtime budget ({elapsed:.1f}s)")
    print(f"\n[criterion {n}] PASS")


@pytest.fixture(scope="module")
def trained_runs(acceptance_spec):
    """Per seed: pareto-fair, naive and rebalanced models on identical splits."""
    runs = {}
    for seed in SEEDS:
        ds = sample_dataset(acceptance_spec, N_SAMPLES, seed=seed)
        train, val, test = split_dataset(ds, SPLIT, seed=seed)
        hp = PFHyperparams(lr=0.1, batch_size=128, max_epochs=60, patience=5, seed=seed)
        pf_model, trace = pareto_fair_optimize(
            train, val, MLPClassifier(list(ARCH), seed=seed), hp
        )
        naive = train_naive(MLPClassifier(list(ARCH), seed=seed), train, val, hp)
        rebal = train_rebalanced(MLPClassifier(list(ARCH), seed=seed), train, val, hp)
        runs[seed] = {
            "val": val,
            "test": test,
            "pf": pf_model,
            "trace": trace,
            "hp": hp,
            "naive": naive,
            "rebalanced": rebal,
        }
    return runs


def test_criterion_01_gradient_correctness():
    with criterion(1, budget_seconds=30):
        from test_model import finite_diff_grads, max_rel_err

        cases = []
        for loss in ("brier", "cross_entropy"):
            for activation in ("relu", "tanh"):
                cases.append(([3, 2], activation, loss))        # linear
                cases.append(([3, 5, 4, 2], activation, loss))  # two hidden layers
        assert len(cases) == 8
        cases += [([2, 6, 6, 3], "relu", "brier"), ([4, 3], "tanh", "cross_entropy")]
        def smooth_at_batch(model, X):
            # finite differences are meaningless at a relu kink; require all
            # hidden pre-activations to be safely away from zero
            if model.activation != "relu":
                return True
            h = np.asarray(X, dtype=float)
            for W, b in zip(model.weights[:-1], model.biases[:-1]):
                z = h @ W + b
                if np.any(np.abs(z) < 1e-3):
                    return False
                h = np.maximum(z, 0.0)
            return True

        for i, (dims, activation, loss) in enumerate(cases):
            for attempt in range(50):
                rng = np.random.default_rng(1000 * i + attempt)
                model = MLPClassifier(dims, activation=activation, seed=1000 * i + attempt)
                X = rng.standard_normal((6, dims[0]))
                y = rng.integers(0, dims[-1], 6)
                w = rng.uniform(0.5, 2.0, 6)
                if smooth_at_batch(model, X):
                    break
            else:
                pytest.fail(f"no kink-free batch found for case {i}")
            gW, gb = weighted_grad(model, X, y, w, loss)
            fd_W, fd_b = finite_diff_grads(model, X, y, w, loss)
            assert max_rel_err(gW, fd_W) < 1e-4
            assert max_rel_err(gb, fd_b) < 1e-4


def test_criterion_02_penalized_loss_properties():
    with criterion(2, budget_seconds=5):
        assert adaptive_loss([0.5, 0.3], [0.0, 0.0], 0.2) == pytest.approx(0.8, abs=1e-15)
        assert adaptive_loss([0.5, 0.3], [2.0, 0.0], 0.2) == pytest.approx(0.98, abs=1e-15)
        assert adaptive_loss([0.1, 0.2], [5.0, 5.0], 0.3) == pytest.approx(0.3, abs=1e-15)

        rng = np.random.default_rng(0)
        checked = 0
        while checked < 1000:
            G = int(rng.integers(2, 6))
            r = rng.uniform(0, 1, G)
            mu = rng.uniform(0, 5, G)
            c = rng.uniform(0, 0.5)
            # weights equal the loss derivative away from the hinge kink
            h = 1e-6
            if np.any(np.abs(r - c) < 10 * h):
                continue
            w = group_weights(r, mu, c)
            for a in range(G):
                rp, rm = r.copy(), r.copy()
                rp[a] += h
                rm[a] -= h
                fd = (adaptive_loss(rp, mu, c) - adaptive_loss(rm, mu, c)) / (2 * h)
                assert abs(fd - w[a]) / max(abs(fd), 1e-6) < 1e-4
            # monotonicity: bumping any single risk raises the loss
            a = int(rng.integers(0, G))
            bumped = r.copy()
            bumped[a] += 1e-3
            assert adaptive_loss(bumped, mu, c) > adaptive_loss(r, mu, c)
            checked += 1


def test_criterion_03_archive_matches_brute_force():
    with criterion(3, budget_seconds=5):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            vectors = rng.uniform(0, 1, size=(100, 3))
            arch = ()
            for v in vectors:
                _, arch = archive_insert(arch, v)
            got = {tuple(e) for e in arch}
            assert got == brute_force_nondominated(vectors)


def test_criterion_04_oracle_internal_consistency(acceptance_spec, front):
    with criterion(4, budget_seconds=120):
        noise = bayes_noise(acceptance_spec)
        assert np.all(np.abs(noise - np.array([0.18, 0.42])) < 1e-9)

        # every traced front point survives 1000 random-perturbation probes
        rng = np.random.default_rng(1)
        for point in front:
            g = scalarized_bayes_predictor(acceptance_spec, point[:2])
            probes = np.clip(
                g[None, :] + rng.uniform(-0.2, 0.2, (1000, acceptance_spec.num_points)), 0, 1
            )
            pr = exact_group_risks(acceptance_spec, probes)
            base = point[2:]
            dominated = np.all(pr <= base + 1e-12, axis=1) & np.any(pr < base - 1e-12, axis=1)
            assert not dominated.any()

        # exact risks agree with 200k-sample Monte Carlo within 3 sigma
        pf = pareto_fair_point(front)
        g = scalarized_bayes_predictor(acceptance_spec, pf[:2])
        ds = sample_dataset(acceptance_spec, 200_000, seed=2)
        grid = acceptance_spec.grid
        h = grid[1] - grid[0]
        bins = np.clip(np.round((ds.features[:, 0] - grid[0]) / h).astype(int), 0, len(grid) - 1)
        probs = np.c_[1 - g[bins], g[bins]]
        losses = sample_losses(probs, ds.targets)
        for a in range(2):
            mask = ds.groups == a
            emp = float(losses[mask].mean())
            sigma = float(losses[mask].std(ddof=1)) / np.sqrt(mask.sum())
            assert abs(emp - pf[2 + a]) < 3 * sigma


def test_criterion_05_perfect_fairness_unattainable(front):
    with criterion(5, budget_seconds=60):
        r = front[:, 2:]
        min_gap = (r.max(axis=1) - r.min(axis=1)).min()
        max_r0 = r[:, 0].max()
        assert min_gap >= 0.42 - max_r0 - 1e-9
        assert min_gap > 0
        assert max_gap(pareto_fair_point(front)[2:]) > 0.1


def test_criterion_06_symmetric_zero_gap(symmetric_spec):
    with criterion(6):
        refs = reference_points(symmetric_spec, trace_front(symmetric_spec, 1001))
        pf = refs["pareto_fair"]
        assert pf.max() - pf.min() <= 1e-6
        assert np.all(np.abs(pf - refs["naive"]) <= 1e-6)
        assert np.all(np.abs(pf - refs["rebalanced"]) <= 1e-6)


def test_criterion_07_end_to_end_convergence(acceptance_spec, front, trained_runs):
    with criterion(7, budget_seconds=600 * len(SEEDS)):
        target = pareto_fair_point(front)[2:]
        for seed in SEEDS:
            run = trained_runs[seed]
            r_test = model_risks(run["pf"], run["test"])
            assert np.all(np.abs(r_test - target) < 0.03), f"seed {seed}: {r_test} vs {target}"


def test_criterion_08_baseline_ordering(trained_runs):
    with criterion(8):
        for seed in SEEDS:
            run = trained_runs[seed]
            disc = {}
            for name in ("pf", "rebalanced", "naive"):
                r = model_risks(run[name], run["test"])
                disc[name] = float(r.max() - r.min())
            assert disc["pf"] + 0.01 <= disc["rebalanced"], f"seed {seed}: {disc}"
            assert disc["rebalanced"] + 0.01 <= disc["naive"], f"seed {seed}: {disc}"


def test_criterion_09_trace_invariants(trained_runs):
    with criterion(9):
        for seed in SEEDS:
            run = trained_runs[seed]
            trace, hp = run["trace"], run["hp"]
            assert 1 <= len(trace) <= hp.max_outer_iters
            accepted = [row for row in trace if row.accepted]
            gaps = [row.max_gap for row in accepted]
            assert gaps == sorted(gaps, reverse=True)
            assert len(set(gaps)) == len(gaps)  # strict decrease
            for row in accepted:
                assert row.c < row.risks.min()
            # rejected steps are undone bit for bit: the returned model is the last accepted one
            assert np.array_equal(model_risks(run["pf"], run["val"]), accepted[-1].risks)


def test_criterion_10_postprocessing_equalizes(trained_runs):
    with criterion(10, budget_seconds=60):
        run = trained_runs[0]
        model, val, test = run["pf"], run["val"], run["test"]
        fit_dec = model.decisions(val.features)
        rule = fit_equalizing_rule(fit_dec == val.targets, val.groups)

        base = model.decisions(test.features)
        post = apply_rule(rule, base, test.groups, seed=0)

        def group_acc(decisions):
            return np.array([
                float((decisions[test.groups == a] == test.targets[test.groups == a]).mean())
                for a in range(2)
            ])

        pre_acc, post_acc = group_acc(base), group_acc(post)
        assert post_acc.max() - post_acc.min() < 0.03
        assert post_acc.max() - post_acc.min() < pre_acc.max() - pre_acc.min()
        assert post_acc.mean() <= pre_acc.mean() + 1e-12  # pure degradation of service


def test_criterion_11_determinism(tmp_path):
    with criterion(11):
        scenario = tmp_path / "scenario.txt"
        save_scenario(ScenarioParams(), scenario)

        oracle_outputs = []
        for rep in range(2):
            out = tmp_path / f"oracle{rep}"
            assert cli.main(["oracle", "--scenario", str(scenario), "--out", str(out)]) == 0
            oracle_outputs.append(
                ((out / "front.csv").read_bytes(), (out / "reference_points.csv").read_bytes())
            )
        assert oracle_outputs[0] == oracle_outputs[1]

        train_outputs = []
        for rep in range(2):
            out = tmp_path / f"train{rep}"
            assert cli.main([
                "train", "--scenario", str(scenario), "--method", "paretofair",
                "--seed", "0", "--out", str(out),
            ]) == 0
            train_outputs.append(
                ((out / "metrics.csv").read_bytes(), (out / "trace.csv").read_bytes())
            )
        assert train_outputs[0] == train_outputs[1]
