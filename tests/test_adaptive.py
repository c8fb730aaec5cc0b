import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretofair.adaptive import (
    PFHyperparams,
    adaptive_loss,
    exact_solver,
    group_weights,
    outer_loop,
    pareto_fair_optimize,
    write_trace_csv,
)
from paretofair.baselines import train_naive
from paretofair.data import GroupedDataset, split_dataset
from paretofair import adaptive
from paretofair.model import MLPClassifier, TrainConfig, sgd_early_stop
from paretofair.oracle import (
    ScenarioParams,
    exact_group_risks,
    make_scenario,
    pareto_fair_point,
    reference_points,
    sample_dataset,
    scalarized_bayes_predictor,
    trace_front,
)
from paretofair.risk import InputError, dominates, max_gap
from conftest import model_risks


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

    @pytest.mark.parametrize("fn", [adaptive_loss, group_weights])
    def test_mu_length_checked(self, fn):
        with pytest.raises(InputError, match="mu length"):
            fn([0.1, 0.2], [1.0, 1.0, 1.0], 0.0)

    def test_weights_at_least_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            w = group_weights(rng.uniform(0, 1, 3), rng.uniform(0, 10, 3), rng.uniform(0, 1))
            assert np.all(w >= 1.0)

    def test_same_bits_as_the_written_out_rule(self):
        # 2.0 * mu * excess is evaluated as (2.0 * mu) * excess, so hoisting
        # 2.0 * mu out of the minibatch loop keeps the bits
        rng = np.random.default_rng(3)
        for G in (1, 2, 3, 5):
            for _ in range(200):
                r, c = rng.uniform(0, 2, G), rng.uniform(0, 1)
                mu = rng.uniform(0, 10, G) * rng.integers(0, 2, G)
                expected = 1.0 + 2.0 * mu * np.maximum(r - c, 0.0)
                assert group_weights(r, mu, c).tobytes() == expected.tobytes()

    def test_each_fit_trains_with_group_weights_at_its_mu_and_c(self, monkeypatch):
        rules = []
        real = adaptive.sgd_early_stop

        def spy(*args, **kwargs):
            rules.append(kwargs["weight_rule"])
            return real(*args, **kwargs)

        monkeypatch.setattr(adaptive, "sgd_early_stop", spy)
        ds = sample_dataset(make_scenario(ScenarioParams()), 1000, seed=3)
        tr, va = split_dataset(ds, (0.75, 0.25), seed=0)
        hp = _small_hp(max_outer_iters=5, max_epochs=2, patience=2, gamma0=1.0)
        _, trace = pareto_fair_optimize(tr, va, MLPClassifier([1, 4, 2], seed=0), hp)
        # fit k runs at the mu and c that row k - 1 records
        mus = [np.full(2, hp.mu_init)] + [row.mu for row in trace[:-1]]
        cs = [0.0] + [row.c for row in trace[:-1]]
        assert len(rules) == len(trace) == 5
        rng = np.random.default_rng(4)
        for rule, mu, c in zip(rules, mus, cs):
            for r in rng.uniform(0, 2, (50, 2)):
                assert rule(r).tobytes() == group_weights(r, mu, c).tobytes()


def run_script(risks, **hp):
    """``outer_loop`` over a fake solver: step i returns token ``s{i}`` and ``risks[i]``.

    Returns (best, trace, starts, hp); ``starts`` is the snapshot each step started from.
    """
    starts = []

    def solve(start, objective, weight_rule, lr, seed):
        starts.append(start)
        return f"s{len(starts) - 1}", np.array(risks[len(starts) - 1])

    hp = PFHyperparams(**{"max_outer_iters": len(risks), **hp})
    best, trace = outer_loop(solve, "start", len(risks[0]), hp)
    return best, trace, starts, hp


def accepted(trace):
    return [row.accepted for row in trace]


class TestAcceptReject:
    def test_first_point_always_accepted(self):
        _, trace, _, _ = run_script([[0.9, 0.8]])
        assert accepted(trace) == [True]

    def test_dominated_point_rejected_despite_smaller_gap(self):
        _, trace, _, _ = run_script([[0.2, 0.3], [0.35, 0.36]])
        assert accepted(trace) == [True, False]

    def test_step_accept_changes_nothing(self):
        # the rejected [0.1, 0.25] enters neither the archive nor the best gap,
        # so [0.22, 0.28], which only it dominates, is accepted after it
        _, trace, _, _ = run_script([[0.2, 0.3], [0.1, 0.25], [0.22, 0.28]])
        assert accepted(trace) == [True, False, True]

    def test_equal_gap_rejected(self):
        # both gaps are exactly 0.25, and the second point dominates the first
        _, trace, _, _ = run_script([[0.25, 0.5], [0.125, 0.375]])
        assert accepted(trace) == [True, False]

    def test_accept_update_c_formula(self):
        _, trace, _, hp = run_script([[0.4, 0.2], [0.3, 0.25]], k=4.0)
        assert accepted(trace) == [True, True]
        assert [row.c for row in trace] == [0.2 / hp.k, 0.25 / hp.k]

    def test_mu_star_ratio(self):
        _, trace, _, hp = run_script([[0.4, 0.2], [0.5, 0.1]])
        assert accepted(trace) == [True, False]
        # accepting [0.4, 0.2] moves c from 0 to 0.1: mu* = (0.4 / 0.3, 0.2 / 0.1);
        # the reject restores mu* and bumps the worst group, 0, by the decayed gamma
        assert trace[0].mu == pytest.approx([1.0 + hp.gamma0, 1.0])
        assert trace[1].mu == pytest.approx([0.4 / 0.3 * (1.0 + hp.gamma0 * hp.xi), 2.0])

    def test_mu_star_identity_when_c_unchanged(self):
        # min(r) / k = 0.3 / 2 at both accepts, so the rescale ratio is 1
        _, trace, _, hp = run_script([[0.4, 0.3], [0.35, 0.3], [0.6, 0.1]])
        assert accepted(trace) == [True, True, False]
        assert trace[0].c == trace[1].c
        bump, decayed = 1.0 + hp.gamma0, 1.0 + hp.gamma0 * hp.xi
        assert np.array_equal(trace[1].mu, [bump * bump, 1.0])
        assert np.array_equal(trace[2].mu, [bump * decayed, 1.0])

    def test_reject_update(self):
        script = [[0.4, 0.2], [0.5, 0.1], [0.3, 0.25], [0.6, 0.1], [0.1, 0.6]]
        best, trace, starts, hp = run_script(script)
        assert accepted(trace) == [True, False, True, False, False]
        # each reject multiplies lr by zeta and gamma by xi; an accept keeps both
        decays = [0, 1, 1, 2, 3]
        assert [row.lr for row in trace] == pytest.approx([hp.lr * hp.zeta**n for n in decays])
        assert [row.gamma for row in trace] == pytest.approx([hp.gamma0 * hp.xi**n for n in decays])
        # every step starts from the last accepted snapshot, which the loop returns
        assert starts == ["start", "s0", "s0", "s2", "s2"] and best == "s2"


class TestOuterLoopScripted:
    def test_integer_mu_init_gives_float_multipliers(self):
        # two accepts at c = 0.15, each bumping group 1 by 1 + gamma0
        _, trace, _, _ = run_script([[0.3, 0.4], [0.3, 0.35]], mu_init=1)
        _, want, _, _ = run_script([[0.3, 0.4], [0.3, 0.35]], mu_init=1.0)
        assert accepted(trace) == [True, True]
        assert [row.mu.tolist() for row in trace] == [[1.0, 1.5], [1.0, 2.25]]
        assert [row.mu.tobytes() for row in trace] == [row.mu.tobytes() for row in want]

    def test_stops_after_consecutive_rejects(self):
        # an accept resets the count, so the loop runs on past the second reject
        script = [[0.4, 0.2], [0.5, 0.1], [0.3, 0.25], [0.6, 0.1], [0.6, 0.1], [0.6, 0.1]]
        _, trace, _, _ = run_script(script, max_consecutive_rejects=2)
        assert accepted(trace) == [True, False, True, False, False]

    def test_runs_every_step_while_no_reject_run_reaches_the_limit(self):
        # 6 accepts, each followed by 14 rejects: 70 rejects in all decay lr
        # below 1e-6, and only max_outer_iters = 80 stops the loop
        accepts = [[0.5 - 0.05 * i, 0.1] for i in range(6)]
        script = [row for a in accepts for row in [a] + [[0.9, 0.1]] * 14][:80]
        _, trace, _, _ = run_script(script)
        assert len(trace) == 80
        assert [row.iteration for row in trace if row.accepted] == [0, 15, 30, 45, 60, 75]
        assert trace[-1].lr < 1e-6

    @settings(deadline=None, max_examples=200)
    @given(st.integers(2, 3).flatmap(
        lambda G: st.lists(st.lists(st.floats(0.0, 1.0), min_size=G, max_size=G), min_size=1, max_size=30)
    ))
    def test_accepted_steps_shrink_the_gap_and_are_not_dominated_by_earlier_ones(self, risks):
        best, trace, _, _ = run_script(risks)
        kept = [row for row in trace if row.accepted]
        assert kept and trace[0].accepted
        gaps = [row.max_gap for row in kept]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        # a later accept may dominate an earlier one, never the other way round
        for i, row in enumerate(kept):
            assert not any(dominates(earlier.risks, row.risks) for earlier in kept[:i])
        assert best == f"s{kept[-1].iteration}"


def _small_hp(seed=0, **kw):
    defaults = dict(lr=0.2, batch_size=64, max_epochs=15, patience=3, seed=seed, max_outer_iters=10,
                    max_consecutive_rejects=4)
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
        r_pf = model_risks(pf_model, va)[0]

        naive = MLPClassifier([1, 2], seed=1)
        train_naive(naive, tr, va, TrainConfig(lr=0.2, batch_size=64, max_epochs=15, patience=3, seed=1))
        r_naive = model_risks(naive, va)[0]
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
        final_gap = max_gap(model_risks(model, va))
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
        final = model_risks(model, va)
        last_accept = [row for row in trace if row.accepted][-1]
        assert np.array_equal(final, last_accept.risks)

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
        assert np.array_equal(model_risks(model, va), accepted[-1].risks)

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


class TestMultiplierOverflow:
    # the suite turns warnings into errors, so a RuntimeWarning on the way fails these too
    @pytest.mark.parametrize("solver", ["sgd", "exact"])
    @pytest.mark.parametrize(
        "setting, it", [({"mu_init": 1e308}, 0), ({"gamma0": 1e308}, 1)], ids=["mu_init", "gamma0"]
    )
    def test_names_the_iteration_and_the_group(self, acceptance_spec, solver, setting, it):
        hp = _small_hp(max_outer_iters=3, max_epochs=1, patience=1, **setting)
        tr, va = split_dataset(sample_dataset(acceptance_spec, 400, seed=0), (0.75, 0.25), seed=0)
        message = (rf"^outer iteration {it}: the multiplier of group [01], mu = \S+, is too large; "
                   r"2 \* mu must be finite$")
        with pytest.raises(InputError, match=message):
            if solver == "sgd":
                pareto_fair_optimize(tr, va, MLPClassifier([1, 4, 2], seed=0), hp)
            else:
                outer_loop(exact_solver(acceptance_spec), acceptance_spec.priors, 2, hp)


def group_dro_rule(G, eta):
    """Group DRO's exponentiated-gradient group weights (Sagawa et al., 2020) as a ``weight_rule``.

    Returns (rule, q, seen): ``q`` is the rule's distribution over groups, updated in place, and
    ``seen`` the group risks of each call.
    """
    q, seen = np.full(G, 1.0 / G), []

    def rule(r):
        seen.append(r)
        q[:] = q * np.exp(eta * r)
        q[:] /= q.sum()
        return G * q

    return rule, q, seen


class TestGroupDro:
    def test_trains_through_the_unchanged_weight_rule_seam(self, acceptance_spec):
        tr, va = split_dataset(sample_dataset(acceptance_spec, 2000, seed=0), (0.75, 0.25), seed=0)
        rule, q, seen = group_dro_rule(2, eta=0.5)
        cfg = TrainConfig(lr=0.1, batch_size=32, max_epochs=10, patience=10, seed=0)
        _, risks, epochs = sgd_early_stop(MLPClassifier([1, 8, 2], seed=0), tr, va, lambda r: float(r.max()), rule, cfg)
        # one call per step, each with the step's float risk per group
        assert len(seen) == epochs * -(-tr.n // cfg.batch_size)
        assert all(r.dtype == np.float64 and r.shape == (2,) for r in seen)
        # q moves its mass onto the group with the higher risk
        assert np.argmax(q) == np.argmax(np.mean(seen, axis=0)) == np.argmax(risks)
        assert q.max() > 0.9


def exact_loop(spec, **hp):
    """Risks of the last accepted step of ``outer_loop`` over ``exact_solver``, from lambda = priors."""
    _, trace = outer_loop(exact_solver(spec), spec.priors, spec.num_groups, PFHyperparams(**hp))
    return [row for row in trace if row.accepted][-1].risks


def random_two_group_params(rng):
    p = rng.uniform(0.1, 0.9)
    return ScenarioParams(
        priors=(p, 1.0 - p),
        rho_low=tuple(rng.uniform(0.0, 0.4, 2)),
        rho_high=tuple(rng.uniform(0.6, 1.0, 2)),
        transition_center=rng.uniform(0.3, 0.7),
        transition_delta=rng.uniform(0.0, 0.2),
        density_centers=tuple(rng.uniform(0.2, 0.8, 2)),
        density_widths=tuple(rng.uniform(0.05, 0.25, 2)),
    )


def bisected_pareto_fair(spec):
    """(lambda_0, risks) of the exact G = 2 Pareto-fair point.

    Along the scalarized front r_0 - r_1 is nonincreasing in lambda_0, so the
    point is a vertex if the sign never changes and the crossing otherwise.
    """

    def risks(t):
        return exact_group_risks(spec, scalarized_bayes_predictor(spec, [t, 1.0 - t]))

    if risks(1.0)[0] >= risks(1.0)[1]:
        return 1.0, risks(1.0)
    if risks(0.0)[0] <= risks(0.0)[1]:
        return 0.0, risks(0.0)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if risks(mid)[0] > risks(mid)[1] else (lo, mid)
    return min(((t, risks(t)) for t in (lo, hi)), key=lambda p: np.ptp(p[1]))


class TestExactLoop:
    """The outer loop on exact risks, against the exact Pareto-fair point."""

    @pytest.mark.parametrize("gamma0", [0.5, 1.0])
    def test_default_scenario_reaches_the_pareto_fair_point(self, acceptance_spec, front, gamma0):
        target = pareto_fair_point(front)[2:]
        assert np.abs(exact_loop(acceptance_spec, gamma0=gamma0) - target).max() <= 1e-5

    def test_symmetric_scenario_has_zero_gap(self, symmetric_spec):
        assert np.ptp(exact_loop(symmetric_spec)) <= 1e-9

    def test_three_groups_reach_the_lattice_pareto_fair_point(self, three_group_spec):
        target = pareto_fair_point(trace_front(three_group_spec, 1001))[3:]
        assert np.abs(exact_loop(three_group_spec) - target).max() <= 1e-6

    def test_two_group_sweep_against_bisection(self):
        # bounds measured over 200 scenarios of this generator (seeds 0-3, 50
        # each): every group at most 6.9e-4 above the reference, the worst group
        # never below it, median distance 2.5e-7, and the gap at most 2.3e-3
        # above the reference's. 106 of the 200 references lie within 1e-9 of a
        # vertex; there the front can be flat to float precision in the worst
        # group, and the loop stops near lambda = 1e-13 with a gap up to 0.033
        # above the reference's
        rng = np.random.default_rng(0)
        errs = []
        for _ in range(32):
            spec = make_scenario(random_two_group_params(rng))
            t, ref = bisected_pareto_fair(spec)
            got = exact_loop(spec)
            assert np.all(got <= ref + 1e-3)
            assert -1e-12 <= got.max() - ref.max() <= 1e-3
            near_vertex = min(t, 1.0 - t) < 1e-9
            assert np.ptp(got) - np.ptp(ref) <= (0.04 if near_vertex else 3e-3)
            errs.append(np.abs(got - ref).max())
        assert np.median(errs) <= 1e-5

    def test_unconverged_solve_raises(self, acceptance_spec, monkeypatch):
        monkeypatch.setattr(adaptive, "_SOLVER_ITERS", 2)
        with pytest.raises(InputError, match=r"did not converge in 2 iterations \(lambda=\[.*\], weights=\["):
            exact_solver(acceptance_spec)(acceptance_spec.priors, None, lambda r: 1.0 + 2.0 * r, 0.1, 0)

    def test_any_weight_rule_reaches_the_solver(self, acceptance_spec, front):
        # constant weights are the gradient of the plain risk sum: lambda lands on
        # the uniform weights, whose Bayes predictor is the rebalanced one
        lam, r = exact_solver(acceptance_spec)(acceptance_spec.priors, None, lambda r: np.ones(2), 0.1, 0)
        assert lam == pytest.approx([0.5, 0.5], abs=1e-12)
        assert np.abs(r - reference_points(acceptance_spec, front)["rebalanced"]).max() <= 1e-12


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

    def test_empty_trace_raises(self, tmp_path):
        path = tmp_path / "trace.csv"
        with pytest.raises(InputError, match="^empty trace$"):
            write_trace_csv([], path)
        assert not path.exists()
