import csv

import numpy as np
import pytest

from paretofair.adaptive import (
    PFHyperparams,
    adaptive_loss,
    evaluate_risk,
    group_weights,
    init_state,
    pareto_fair_optimize,
    pf_accept_update,
    pf_reject_update,
    pf_step_accept,
    write_trace_csv,
)
from paretofair.baselines import train_naive
from paretofair.data import GroupedDataset, split_dataset
from paretofair.model import MLPClassifier, TrainConfig
from paretofair.oracle import ScenarioParams, make_scenario, sample_dataset
from paretofair.risk import InputError, RiskVector, max_gap


def rv(risks):
    return RiskVector(risks=risks, counts=[1] * len(risks))


class TestAdaptiveLoss:
    def test_zero_mu_is_sum_of_risks(self):
        assert adaptive_loss([0.5, 0.3], [0.0, 0.0], 0.2) == pytest.approx(0.8)

    def test_one_active_penalty(self):
        # 0.8 + 2 * (0.5 - 0.2)^2
        assert adaptive_loss([0.5, 0.3], [2.0, 0.0], 0.2) == pytest.approx(0.98)

    def test_inactive_penalties(self):
        assert adaptive_loss([0.1, 0.2], [5.0, 5.0], 0.3) == pytest.approx(0.3)

    def test_negative_mu_rejected(self):
        with pytest.raises(InputError):
            adaptive_loss([0.5, 0.3], [-1.0, 0.0], 0.0)

    def test_monotone_in_each_risk(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            G = int(rng.integers(2, 5))
            r = rng.uniform(0, 1, G)
            mu = rng.uniform(0, 5, G)
            c = rng.uniform(0, 0.5)
            base = adaptive_loss(r, mu, c)
            a = int(rng.integers(0, G))
            bumped = r.copy()
            bumped[a] += 1e-3
            assert adaptive_loss(bumped, mu, c) > base


class TestHyperparams:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("mu_init", float("nan")),
            ("mu_init", float("inf")),
            ("mu_init", 0.0),
            ("k", float("nan")),
            ("k", 1.0),
            ("gamma0", float("inf")),
            ("xi", 1.0),
            ("zeta", float("nan")),
            ("max_outer_iters", 0),
            ("max_outer_iters", 2.5),
            ("max_consecutive_rejects", 0),
            ("lr_min", -1.0),
            ("lr_min", float("nan")),
        ],
    )
    def test_out_of_range_setting_names_the_field(self, field, value):
        with pytest.raises(InputError, match=f"^{field} must be .*, got {value!r}$"):
            PFHyperparams(**{field: value})


class TestGroupWeights:
    def test_zero_mu_gives_ones(self):
        assert np.allclose(group_weights([0.4, 0.9], [0.0, 0.0], 0.1), 1.0)

    def test_arithmetic(self):
        w = group_weights([0.5, 0.1], [3.0, 3.0], 0.2)
        assert np.allclose(w, [2.8, 1.0])

    def test_matches_finite_differences_of_loss(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            G = int(rng.integers(2, 5))
            r = rng.uniform(0, 1, G)
            mu = rng.uniform(0, 5, G)
            c = rng.uniform(0, 0.3)
            w = group_weights(r, mu, c)
            h = 1e-6
            for a in range(G):
                if abs(r[a] - c) < 10 * h:
                    continue  # kink of the positive part
                rp, rm = r.copy(), r.copy()
                rp[a] += h
                rm[a] -= h
                fd = (adaptive_loss(rp, mu, c) - adaptive_loss(rm, mu, c)) / (2 * h)
                assert abs(fd - w[a]) / max(abs(fd), 1e-6) < 1e-4

    def test_weights_at_least_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            w = group_weights(rng.uniform(0, 1, 3), rng.uniform(0, 10, 3), rng.uniform(0, 1))
            assert np.all(w >= 1.0)


def make_state(G=2, model=None):
    model = model or MLPClassifier([1, G], seed=0)
    return init_state(G, PFHyperparams(), model), model


class TestAcceptReject:
    def test_first_point_always_accepted(self):
        state, _ = make_state()
        assert pf_step_accept(state, rv([0.9, 0.8]))

    def test_dominated_point_rejected_despite_smaller_gap(self):
        state, model = make_state()
        r0 = rv([0.2, 0.3])
        assert pf_step_accept(state, r0)
        pf_accept_update(state, r0, model)
        assert not pf_step_accept(state, rv([0.35, 0.36]))

    def test_step_accept_changes_nothing(self):
        state, model = make_state()
        r0 = rv([0.2, 0.3])
        assert pf_step_accept(state, r0)
        assert state.archive == () and state.gamma_star == np.inf
        pf_accept_update(state, r0, model)
        assert len(state.archive) == 1 and state.archive[0] is r0

    def test_equal_gap_rejected(self):
        state, model = make_state()
        r0 = rv([0.2, 0.3])
        pf_step_accept(state, r0)
        pf_accept_update(state, r0, model)
        assert not pf_step_accept(state, rv([0.1, 0.2]))  # same gap 0.1

    def test_accept_update_c_formula(self):
        state, model = make_state()
        c = state.c
        pf_accept_update(state, rv([0.4, 0.2]), model)
        assert state.c == pytest.approx(0.1)
        assert c == 0.0
        assert state.gamma_star == pytest.approx(0.2)

    def test_mu_star_ratio(self):
        state, model = make_state()
        state.c = 0.0
        state.mu = np.array([1.0, 1.0])
        pf_accept_update(state, rv([0.4, 0.2]), model)
        # c goes from 0 to 0.1: mu* = (0.4/0.3, 0.2/0.1)
        assert np.allclose(state.mu_star, [0.4 / 0.3, 2.0])

    def test_mu_star_identity_when_c_unchanged(self):
        state, model = make_state()
        # min(r)/k = 0.3/2 equals the current c, so the rescale ratio is 1
        state.c = 0.15
        state.mu = np.array([2.0, 3.0])
        c = state.c
        pf_accept_update(state, rv([0.4, 0.3]), model)
        assert state.c == pytest.approx(c)
        assert np.allclose(state.mu_star, state.mu)

    def test_reject_update(self):
        state, model = make_state()
        r0 = rv([0.4, 0.2])
        pf_step_accept(state, r0)
        pf_accept_update(state, r0, model)
        lr0, gamma0 = state.lr, state.gamma
        mutated = [W + 1.0 for W in model.weights]
        model.set_params((mutated, model.biases))
        pf_reject_update(state, model)
        pf_reject_update(state, model)
        assert state.lr == pytest.approx(lr0 * state.hp.zeta**2)
        assert state.gamma == pytest.approx(gamma0 * state.hp.xi**2)
        for W, best in zip(model.weights, state.best_params[0]):
            assert np.array_equal(W, best)


class TestEvaluateRisk:
    def test_zero_weight_binary_model(self):
        model = MLPClassifier([1, 2], zero_init=True)
        ds = GroupedDataset(features=[[0.1], [0.2], [0.3]], targets=[0, 1, 0], groups=[0, 1, 0])
        r = evaluate_risk(model, ds)
        assert np.allclose(r.risks, 0.5)

    def test_matches_manual_scan(self):
        rng = np.random.default_rng(3)
        model = MLPClassifier([2, 5, 2], seed=4)
        ds = GroupedDataset(
            features=rng.standard_normal((30, 2)),
            targets=rng.integers(0, 2, 30),
            groups=np.r_[np.zeros(15, dtype=int), np.ones(15, dtype=int)],
        )
        r = evaluate_risk(model, ds)
        probs = model.forward(ds.features)
        for a in range(2):
            total, cnt = 0.0, 0
            for i in range(30):
                if ds.groups[i] == a:
                    onehot = np.zeros(2)
                    onehot[ds.targets[i]] = 1.0
                    total += float(np.sum((probs[i] - onehot) ** 2))
                    cnt += 1
            assert r.risks[a] == pytest.approx(total / cnt)


def _small_hp(seed=0, **kw):
    tc = TrainConfig(lr=0.2, batch_size=64, max_epochs=15, patience=3, seed=seed)
    defaults = dict(max_outer_iters=10, max_consecutive_rejects=4, train=tc)
    defaults.update(kw)
    return PFHyperparams(**defaults)


class TestOuterLoop:
    def test_single_group_matches_naive(self):
        # G = 1: the gap is identically zero, so the loop behaves like ERM
        rng = np.random.default_rng(5)
        n = 1200
        X = np.r_[rng.normal(-2, 0.4, (n // 2, 1)), rng.normal(2, 0.4, (n - n // 2, 1))]
        y = np.r_[np.zeros(n // 2, dtype=int), np.ones(n - n // 2, dtype=int)]
        ds = GroupedDataset(features=X, targets=y, groups=np.zeros(n, dtype=int))
        tr, va = split_dataset(ds, (0.7, 0.3), seed=0)

        pf_model = MLPClassifier([1, 2], seed=1)
        pf_model, _ = pareto_fair_optimize(tr, va, pf_model, _small_hp(seed=1))
        r_pf = evaluate_risk(pf_model, va).risks[0]

        naive = MLPClassifier([1, 2], seed=1)
        train_naive(naive, tr, va, TrainConfig(lr=0.2, batch_size=64, max_epochs=15, patience=3, seed=1))
        r_naive = evaluate_risk(naive, va).risks[0]
        assert abs(r_pf - r_naive) < 1e-3

    def test_symmetric_scenario_reaches_zero_gap(self):
        params = ScenarioParams(
            priors=(0.5, 0.5),
            rho_low=(0.1, 0.1),
            rho_high=(0.9, 0.9),
            density_centers=(0.5, 0.5),
            transition_center=0.5,
            transition_delta=0.0,
        )
        spec = make_scenario(params)
        ds = sample_dataset(spec, 8000, seed=6)
        tr, va = split_dataset(ds, (0.75, 0.25), seed=0)
        model = MLPClassifier([1, 32, 32, 2], seed=2)
        model, trace = pareto_fair_optimize(tr, va, model, _small_hp(seed=2))
        final_gap = max_gap(evaluate_risk(model, va))
        assert final_gap <= 0.02

    def test_trace_invariants(self):
        spec = make_scenario(ScenarioParams())
        ds = sample_dataset(spec, 4000, seed=7)
        tr, va = split_dataset(ds, (0.75, 0.25), seed=0)
        model = MLPClassifier([1, 16, 2], seed=3)
        hp = _small_hp(seed=3, max_outer_iters=8)
        model, trace = pareto_fair_optimize(tr, va, model, hp)
        assert 1 <= len(trace) <= hp.max_outer_iters
        accepted_gaps = [row.max_gap for row in trace if row.accepted]
        assert accepted_gaps == sorted(accepted_gaps, reverse=True)
        assert len(set(accepted_gaps)) == len(accepted_gaps)
        for row in trace:
            if row.accepted:
                assert row.c < row.risks.min()
        # the returned model reproduces the last accepted risk vector
        final = evaluate_risk(model, va)
        last_accept = [row for row in trace if row.accepted][-1]
        assert np.allclose(final.risks, last_accept.risks, atol=1e-12)

    def test_first_step_accepted_and_worst_multiplier_bumped(self):
        spec = make_scenario(ScenarioParams())
        ds = sample_dataset(spec, 2000, seed=10)
        tr, va = split_dataset(ds, (0.75, 0.25), seed=0)
        hp = _small_hp(max_outer_iters=1)
        _, trace = pareto_fair_optimize(tr, va, MLPClassifier([1, 8, 2], seed=0), hp)
        assert trace[0].accepted
        expected = np.full(2, hp.mu_init)
        expected[np.argmax(trace[0].risks)] *= 1.0 + hp.gamma0
        assert np.array_equal(trace[0].mu, expected)

    def test_three_group_trace_invariants(self, three_group_spec):
        ds = sample_dataset(three_group_spec, 3000, seed=11)
        tr, va = split_dataset(ds, (0.75, 0.25), seed=0)
        hp = _small_hp(seed=4, max_outer_iters=4)
        model, trace = pareto_fair_optimize(tr, va, MLPClassifier([1, 8, 2], seed=4), hp)
        assert 1 <= len(trace) <= hp.max_outer_iters
        assert all(row.mu.shape == (3,) and row.risks.shape == (3,) for row in trace)
        accepted = [row for row in trace if row.accepted]
        gaps = [row.max_gap for row in accepted]
        assert gaps == sorted(gaps, reverse=True)
        assert len(set(gaps)) == len(gaps)
        for row in accepted:
            assert row.c < row.risks.min()
        assert np.allclose(evaluate_risk(model, va).risks, accepted[-1].risks, atol=1e-12)

    def test_val_missing_group_errors(self):
        spec = make_scenario(ScenarioParams())
        ds = sample_dataset(spec, 2000, seed=8)
        tr, va = split_dataset(ds, (0.75, 0.25), seed=0)
        keep = np.flatnonzero(va.groups == 0)
        bad_val = GroupedDataset(
            features=va.features[keep], targets=va.targets[keep], groups=np.zeros(len(keep), dtype=int)
        )
        model = MLPClassifier([1, 2], seed=0)
        with pytest.raises(InputError):
            pareto_fair_optimize(tr, bad_val, model, _small_hp())


class TestTraceCsv:
    def test_schema_and_round_trip(self, tmp_path):
        spec = make_scenario(ScenarioParams())
        ds = sample_dataset(spec, 2000, seed=9)
        tr, va = split_dataset(ds, (0.75, 0.25), seed=0)
        model = MLPClassifier([1, 8, 2], seed=0)
        _, trace = pareto_fair_optimize(tr, va, model, _small_hp(max_outer_iters=3))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "accepted", "lr", "gamma", "c", "mu_0", "mu_1", "r_0", "r_1", "max_gap"]
        assert len(rows) == len(trace) + 1
        assert float(rows[1][7]) == pytest.approx(trace[0].risks[0])
