import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paretofair
from paretofair import cli, oracle
from paretofair.data import GroupedDataset, split_dataset
from paretofair.oracle import (
    ScenarioParams,
    ScenarioSpec,
    bayes_noise,
    exact_group_risks,
    load_scenario,
    make_scenario,
    pareto_fair_point,
    reference_points,
    sample_dataset,
    save_scenario,
    scalarized_bayes_predictor,
    trace_front,
    write_front_csv,
    write_reference_csv,
    _simplex_grid,
)
from paretofair.risk import InputError, dominates, group_risks, max_gap
from conftest import THREE_GROUP_PARAMS, brute_force_nondominated


def single_group_spec(eta_const=0.1, B=101):
    x = np.linspace(0, 1, B)
    dens = np.full((1, B), 1.0 / B)
    eta = np.full((1, B), eta_const)
    return ScenarioSpec(grid=x, priors=np.array([1.0]), density=dens, eta=eta)


class TestConstructor:
    def test_eta_takes_exactly_two_levels(self, acceptance_spec):
        for a, (lo, hi) in enumerate(zip((0.1, 0.3), (0.9, 0.7))):
            values = set(np.unique(acceptance_spec.eta[a]))
            assert values == {lo, hi}

    def test_symmetric_construction(self, symmetric_spec):
        assert np.array_equal(symmetric_spec.density[0], symmetric_spec.density[1])
        assert np.array_equal(symmetric_spec.eta[0], symmetric_spec.eta[1])

    def test_noisier_levels_give_larger_bayes_noise(self, acceptance_spec):
        noise = bayes_noise(acceptance_spec)
        assert noise[1] > noise[0]

    def test_invalid_levels_rejected(self):
        with pytest.raises(InputError):
            make_scenario(ScenarioParams(rho_low=(0.9, 0.3), rho_high=(0.1, 0.7)))

    @pytest.mark.parametrize("grid_points", [2.5, 401.0, True, 1])
    def test_grid_points_must_be_an_integer(self, grid_points):
        with pytest.raises(InputError, match=f"^grid_points must be an integer >= 2, got {grid_points!r}$"):
            make_scenario(ScenarioParams(grid_points=grid_points))

    def test_transition_outside_grid_rejected(self):
        with pytest.raises(InputError):
            make_scenario(ScenarioParams(transition_center=1.5))

    @pytest.mark.parametrize("name", ["priors", "rho_low", "rho_high", "density_centers", "density_widths"])
    def test_short_per_group_tuple_is_named(self, name):
        params = ScenarioParams()
        short = replace(params, **{name: getattr(params, name)[:1]})
        with pytest.raises(InputError, match=name):
            make_scenario(short)

    @pytest.mark.parametrize("width", [0.00001, 1e-300])
    def test_width_with_no_mass_on_the_grid_is_named(self, width, tmp_path, capsys):
        # 0.40125 lies halfway between grid points 0.4 and 0.4025, so a bump this
        # narrow underflows to 0 everywhere; the filterwarnings setting turns any
        # numpy warning on the way into a failure
        path = tmp_path / "scenario.txt"
        path.write_text(f"density_centers = 0.40125,0.6\ndensity_widths = {width!r},0.15\n")
        with pytest.raises(InputError, match=r"density_widths\[0\] .* no mass"):
            make_scenario(load_scenario(path))
        out = str(tmp_path / "out")
        assert cli.main(["oracle", "--scenario", str(path), "--num-lambda", "11", "--out", out]) == 1
        assert "density_widths[0]" in capsys.readouterr().err


class TestScenarioFile:
    def test_round_trip(self, tmp_path):
        params = ScenarioParams(priors=(0.6, 0.4), transition_center=0.55)
        path = tmp_path / "scenario.txt"
        save_scenario(params, path)
        back = load_scenario(path)
        assert back == params

    @pytest.mark.parametrize(
        "given, plain",
        [
            (
                dict(transition_center=np.float64(0.6), grid_points=np.int64(201)),
                dict(transition_center=0.6, grid_points=201),
            ),
            (dict(priors=np.array([0.6, 0.4]), rho_low=[0.1, 0.3]), dict(priors=(0.6, 0.4), rho_low=(0.1, 0.3))),
        ],
        ids=["numpy scalars", "an array and a list"],
    )
    def test_numpy_values_and_lists_are_written_as_plain_numbers(self, tmp_path, given, plain):
        path, plain_path = tmp_path / "scenario.txt", tmp_path / "plain.txt"
        save_scenario(ScenarioParams(**given), path)
        save_scenario(ScenarioParams(**plain), plain_path)
        assert path.read_bytes() == plain_path.read_bytes()
        assert load_scenario(path) == ScenarioParams(**plain)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("bogus = 1\n")
        with pytest.raises(InputError, match="bogus"):
            load_scenario(path)

    def test_three_group_round_trip(self, tmp_path):
        path = tmp_path / "scenario.txt"
        save_scenario(THREE_GROUP_PARAMS, path)
        assert load_scenario(path) == THREE_GROUP_PARAMS

    @pytest.mark.parametrize(
        "text, where",
        [
            ("# comment\ngrid_points = many\n", r"bad\.txt:2: grid_points"),
            ("priors = 0.5,x\n", r"bad\.txt:1: priors"),
            ("grid_min = 0.0\ngrid_max\n", r"bad\.txt:2: expected 'key = value'"),
            ("priors = 0.5,0.5\npriors = 0.9,0.1\n", r"bad\.txt:2: repeated key 'priors'"),
        ],
    )
    def test_errors_name_the_line(self, tmp_path, text, where):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InputError, match=where):
            load_scenario(path)


def _with_nan(values, index=0):
    values = np.array(values, dtype=float)
    values.flat[index] = np.nan
    return values


def _nan_scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("priors = nan,0.5\n")
    return make_scenario(load_scenario(path))


# Each case hands NaN (or a zero width, which makes a NaN density) to one range
# check, and names the check that must catch it; comparisons with NaN are False,
# so only checks written to fail on it catch it.
NAN_CASES = {
    "spec grid": (lambda s, _: replace(s, grid=_with_nan(s.grid)), "must be finite"),
    "spec priors": (lambda s, _: replace(s, priors=_with_nan(s.priors)), "must be finite"),
    "spec density": (lambda s, _: replace(s, density=_with_nan(s.density, 5)), "must be finite"),
    "spec eta": (lambda s, _: replace(s, eta=_with_nan(s.eta, 5)), "must be finite"),
    "scenario file priors": (lambda s, tmp_path: _nan_scenario_file(tmp_path), "must be finite"),
    "zero density width": (
        lambda s, _: make_scenario(ScenarioParams(density_widths=(0.0, 0.15))), "density_widths"
    ),
    "nan density width": (
        lambda s, _: make_scenario(ScenarioParams(density_widths=(np.nan, 0.15))), "density_widths"
    ),
    "nan density center": (
        lambda s, _: make_scenario(ScenarioParams(density_centers=(0.4, np.nan))), "density_centers"
    ),
    "nan grid_min": (lambda s, _: make_scenario(ScenarioParams(grid_min=np.nan)), "grid bounds"),
    "infinite grid_max": (lambda s, _: make_scenario(ScenarioParams(grid_max=np.inf)), "grid bounds"),
    "lambda": (lambda s, _: scalarized_bayes_predictor(s, [np.nan, 0.5]), "lambda"),
    "predictor table": (
        lambda s, _: exact_group_risks(s, _with_nan(np.full(s.num_points, 0.5), 7)), "predictor values"
    ),
    "split fractions": (
        lambda s, _: split_dataset(sample_dataset(s, 200), (np.nan, 0.5, 0.5)), "split fractions"
    ),
}


@pytest.mark.parametrize("case", list(NAN_CASES))
def test_nan_fails_the_range_checks(acceptance_spec, tmp_path, case):
    build, message = NAN_CASES[case]
    with pytest.raises(InputError, match=message):
        build(acceptance_spec, tmp_path)


# Each case breaks one rule of a scenario or a draw with finite values
RULE_CASES = {
    "spec shapes": (lambda s: replace(s, grid=s.grid[:-1]), "inconsistent grid / priors / density / eta shapes"),
    "spec priors": (lambda s: replace(s, priors=[0.5, 0.6]), "priors must be nonnegative and sum to 1"),
    "spec three-group priors": (
        lambda s: make_scenario(replace(THREE_GROUP_PARAMS, priors=(0.5, 0.5, 0.1))),
        "priors must be nonnegative and sum to 1",
    ),
    "spec density rows": (
        lambda s: replace(s, density=s.density * 0.9), "each density row must be nonnegative and sum to 1"
    ),
    "spec eta range": (lambda s: replace(s, eta=s.eta + 1.0), r"eta values must lie in \[0, 1\]"),
    "draw size": (lambda s: sample_dataset(s, 0), "n must be an integer >= 1, got 0"),
}


@pytest.mark.parametrize("case", list(RULE_CASES))
def test_broken_rule_is_named(acceptance_spec, case):
    build, message = RULE_CASES[case]
    with pytest.raises(InputError, match=f"^{message}$"):
        build(acceptance_spec)


class TestSampling:
    def test_determinism(self, acceptance_spec):
        a = sample_dataset(acceptance_spec, 1000, seed=42)
        b = sample_dataset(acceptance_spec, 1000, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_bad_seed_named(self, acceptance_spec, seed):
        with pytest.raises(InputError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            sample_dataset(acceptance_spec, 100, seed=seed)

    def test_one_point_grid_rejected(self):
        # the jitter's bin width is grid[1] - grid[0]
        with pytest.raises(InputError, match="^the grid needs at least 2 points"):
            sample_dataset(single_group_spec(B=1), 100)

    def test_group_frequencies(self, acceptance_spec):
        ds = sample_dataset(acceptance_spec, 100_000, seed=1)
        assert np.all(np.abs(np.bincount(ds.groups) / ds.n - acceptance_spec.priors) < 0.01)

    def test_conditional_label_rates(self, acceptance_spec):
        ds = sample_dataset(acceptance_spec, 100_000, seed=2)
        grid = acceptance_spec.grid
        h = grid[1] - grid[0]
        bins = np.clip(np.round((ds.features[:, 0] - grid[0]) / h).astype(int), 0, len(grid) - 1)
        for a in range(2):
            for b in np.unique(bins[ds.groups == a]):
                mask = (ds.groups == a) & (bins == b)
                if mask.sum() < 300:
                    continue
                emp = ds.targets[mask].mean()
                assert abs(emp - acceptance_spec.eta[a, b]) < 0.05


def replayed_sample(spec, n, seed):
    """``sample_dataset``'s draws, with the jitter built out of place: ``grid[bins] + u * h``."""
    rng = np.random.default_rng(seed)
    G, B = spec.density.shape
    groups = rng.choice(G, size=n, p=spec.priors)
    bins = np.zeros(n, dtype=int)
    for a in range(G):
        mask = groups == a
        if not mask.any():
            raise InputError(f"group {a} has no samples in a draw of {n}")
        bins[mask] = rng.choice(B, size=int(mask.sum()), p=spec.density[a])
    h = float(spec.grid[1] - spec.grid[0])
    x = spec.grid[bins] + rng.uniform(-0.5, 0.5, size=n) * h
    y = (rng.random(n) < spec.eta[groups, bins]).astype(int)
    return GroupedDataset(features=x[:, None], targets=y, groups=groups)


@pytest.mark.parametrize("params", [
    ScenarioParams(priors=(1.0,), rho_low=(0.3,), rho_high=(0.7,), density_centers=(0.5,), density_widths=(0.2,)),
    ScenarioParams(),
    THREE_GROUP_PARAMS,
], ids=["G=1", "G=2", "G=3"])
@pytest.mark.parametrize("n", [1, 50_000])
def test_in_place_jitter_keeps_the_bits_of_the_out_of_place_sum(params, n):
    spec = make_scenario(params)
    try:
        want = replayed_sample(spec, n, seed=7)
    except InputError as exc:
        # a one-row draw misses a group once there are two: both raise the same error
        assert n == 1 and spec.num_groups > 1
        with pytest.raises(InputError, match=f"^{exc}$"):
            sample_dataset(spec, n, seed=7)
        return
    got = sample_dataset(spec, n, seed=7)
    for a, b in [(got.features, want.features), (got.targets, want.targets), (got.groups, want.groups)]:
        assert a.tobytes() == b.tobytes()


class TestExactRisks:
    def test_bayes_predictor_attains_noise(self, acceptance_spec):
        for a in range(2):
            r = exact_group_risks(acceptance_spec, acceptance_spec.eta[a])[a]
            assert r == pytest.approx(bayes_noise(acceptance_spec)[a], abs=1e-12)

    def test_constant_eta_example(self):
        spec = single_group_spec(0.1)
        r = exact_group_risks(spec, np.full(spec.num_points, 0.1))[0]
        assert r == pytest.approx(0.18)

    def test_matches_monte_carlo(self, acceptance_spec):
        rng = np.random.default_rng(4)
        g = rng.uniform(0, 1, acceptance_spec.num_points)
        exact = exact_group_risks(acceptance_spec, g)
        ds = sample_dataset(acceptance_spec, 200_000, seed=5)
        grid = acceptance_spec.grid
        h = grid[1] - grid[0]
        bins = np.clip(np.round((ds.features[:, 0] - grid[0]) / h).astype(int), 0, len(grid) - 1)
        probs = np.c_[1 - g[bins], g[bins]]
        emp = group_risks(probs, ds.targets, ds.groups)
        assert np.all(np.abs(emp - exact) < 0.01)


class TestBayesNoise:
    def test_half(self):
        assert bayes_noise(single_group_spec(0.5))[0] == pytest.approx(0.5)

    def test_noiseless(self):
        assert bayes_noise(single_group_spec(0.0))[0] == pytest.approx(0.0)
        assert bayes_noise(single_group_spec(1.0))[0] == pytest.approx(0.0)

    def test_level_pair_03_07(self):
        # 2 * 0.3 * 0.7 at every grid point, independent of the transition
        for tc in (0.3, 0.5, 0.8):
            spec = make_scenario(
                ScenarioParams(priors=(1.0,), rho_low=(0.3,), rho_high=(0.7,),
                              density_centers=(0.5,), density_widths=(0.2,),
                              transition_center=tc)
            )
            assert bayes_noise(spec)[0] == pytest.approx(0.42, abs=1e-12)


class TestScalarization:
    def test_single_group_recovers_eta(self):
        spec = single_group_spec(0.3)
        g = scalarized_bayes_predictor(spec, np.array([1.0]))
        assert np.allclose(g, spec.eta[0])

    def test_identical_densities_give_convex_combination(self, symmetric_spec):
        lam = np.array([0.3, 0.7])
        g = scalarized_bayes_predictor(symmetric_spec, lam)
        expected = lam[0] * symmetric_spec.eta[0] + lam[1] * symmetric_spec.eta[1]
        assert np.allclose(g, expected)

    def test_not_dominated_by_random_tables(self, acceptance_spec):
        rng = np.random.default_rng(6)
        lam = np.array([0.4, 0.6])
        r = exact_group_risks(acceptance_spec, scalarized_bayes_predictor(acceptance_spec, lam))
        for _ in range(200):
            probe = rng.uniform(0, 1, acceptance_spec.num_points)
            assert not dominates(exact_group_risks(acceptance_spec, probe), r)

    def test_weighted_sum_optimality_under_perturbation(self, acceptance_spec):
        rng = np.random.default_rng(7)
        lam = np.array([0.25, 0.75])
        g = scalarized_bayes_predictor(acceptance_spec, lam)
        base = float(lam @ exact_group_risks(acceptance_spec, g))
        for _ in range(50):
            i = int(rng.integers(0, acceptance_spec.num_points))
            pert = g.copy()
            pert[i] = np.clip(pert[i] + rng.choice([-0.05, 0.05]), 0, 1)
            val = float(lam @ exact_group_risks(acceptance_spec, pert))
            assert val >= base - 1e-12


@st.composite
def scenarios_and_lambdas(draw):
    """A valid two- or three-group scenario and a stack of 1-40 simplex rows."""
    G = draw(st.sampled_from([2, 3]))

    def per_group(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=G, max_size=G)))

    priors = per_group(0.05, 1.0)
    params = ScenarioParams(
        priors=tuple(priors / priors.sum()),
        rho_low=tuple(per_group(0.0, 0.45)),
        rho_high=tuple(per_group(0.55, 1.0)),
        transition_center=draw(st.floats(0.3, 0.7)),
        transition_delta=draw(st.floats(0.0, 0.2)),
        density_centers=tuple(per_group(0.1, 0.9)),
        density_widths=tuple(per_group(0.02, 0.3)),
        grid_points=draw(st.integers(2, 200)),
    )
    # rows with zero entries reach the simplex's faces and vertices
    weights = st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=G, max_size=G)
    rows = draw(st.lists(weights.filter(lambda w: sum(w) > 0), min_size=1, max_size=40))
    lams = np.array(rows)
    return make_scenario(params), lams / lams.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(scenarios_and_lambdas())
def test_each_batched_row_has_the_bits_of_its_one_row_call(case):
    spec, lams = case
    tables = scalarized_bayes_predictor(spec, lams)
    risks = exact_group_risks(spec, tables)
    assert tables.shape == (len(lams), spec.num_points)
    assert risks.shape == (len(lams), spec.num_groups)
    for lam, g, r in zip(lams, tables, risks):
        one = scalarized_bayes_predictor(spec, lam)
        assert one.tobytes() == g.tobytes()
        assert exact_group_risks(spec, one).tobytes() == r.tobytes()
    with pytest.raises(InputError, match="lambda must be a nonnegative G-vector or a stack"):
        scalarized_bayes_predictor(spec, lams[None])
    with pytest.raises(InputError, match="predictor table does not match the grid"):
        exact_group_risks(spec, tables[None])
    off = lams.copy()
    off[-1] *= 1.5
    with pytest.raises(InputError, match="lambda must lie on the simplex"):
        scalarized_bayes_predictor(spec, off)


def test_importing_the_oracle_loads_neither_the_trainer_nor_the_outer_loop():
    code = "import sys, paretofair.oracle; print(sorted(m for m in sys.modules if m.startswith('paretofair')))"
    src = os.path.dirname(os.path.dirname(paretofair.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(["paretofair", "paretofair.data", "paretofair.oracle", "paretofair.risk"])


class TestFront:
    def test_single_group_front_is_noise_point(self):
        spec = single_group_spec(0.2)
        front = trace_front(spec, 11)
        risks = {round(float(p[1]), 12) for p in front}
        assert len(risks) == 1
        assert risks.pop() == pytest.approx(2 * 0.2 * 0.8)

    def test_mirror_symmetry(self):
        # mirrored densities and transitions with complementary levels: swapping
        # groups is the same as reflecting x, so risks swap exactly
        params = ScenarioParams(
            priors=(0.5, 0.5), rho_low=(0.1, 0.1), rho_high=(0.9, 0.9),
            density_centers=(0.4, 0.6), density_widths=(0.15, 0.15),
            transition_center=0.5, transition_delta=0.1,
        )
        spec = make_scenario(params)
        # reflected-group spec: mirror the grid tables
        mirrored = ScenarioSpec(
            grid=spec.grid, priors=spec.priors,
            density=spec.density[::-1, ::-1].copy(),
            eta=1.0 - spec.eta[::-1, ::-1],
        )
        for t in np.linspace(0, 1, 21):
            lam = np.array([t, 1 - t])
            r = exact_group_risks(spec, scalarized_bayes_predictor(spec, lam))
            lam_sw = lam[::-1]
            r_sw = exact_group_risks(mirrored, scalarized_bayes_predictor(mirrored, lam_sw))
            assert np.allclose(r, r_sw[::-1], atol=1e-9)

    def test_front_mutually_nondominated(self, acceptance_spec):
        front = trace_front(acceptance_spec, 101)
        for i, p in enumerate(front):
            for j, q in enumerate(front):
                if i != j:
                    assert not dominates(p[2:], q[2:])

    def test_asymmetric_gap_strictly_positive(self, acceptance_spec):
        front = trace_front(acceptance_spec, 201)
        noise = bayes_noise(acceptance_spec)
        r = front[:, 2:]
        min_gap = (r.max(axis=1) - r.min(axis=1)).min()
        max_r0 = r[:, 0].max()
        assert min_gap >= noise[1] - max_r0 - 1e-9
        assert min_gap > 0

    def test_three_group_front_matches_brute_force(self, three_group_spec):
        spec = three_group_spec
        front = trace_front(spec, 101)
        m = 10  # the lattice step: round(101 ** (1 / (G - 1)))
        lattice = [np.array([i, j, m - i - j]) / m for i in range(m + 1) for j in range(m + 1 - i)]
        assert len(lattice) == 66
        risks = [exact_group_risks(spec, scalarized_bayes_predictor(spec, lam)) for lam in lattice]
        assert {tuple(p[3:]) for p in front} == brute_force_nondominated(risks)
        keys = [(p[3], p[-1]) for p in front]
        assert keys == sorted(keys)
        for p in front:  # each row's risks are those of its own lambda
            assert np.array_equal(p[3:], exact_group_risks(spec, scalarized_bayes_predictor(spec, p[:3])))

    def test_num_lambda_validated(self, acceptance_spec):
        for num_lambda in (2, 11.5, 11.0, True):
            with pytest.raises(InputError, match=f"^num_lambda must be an integer >= 3, got {num_lambda!r}$"):
                trace_front(acceptance_spec, num_lambda)


class TestParetoFairPoint:
    def test_symmetric_zero_gap(self, symmetric_spec):
        pf = pareto_fair_point(trace_front(symmetric_spec, 101))
        assert max_gap(pf[2:]) <= 1e-6

    def test_single_point_front(self):
        spec = single_group_spec(0.2)
        front = trace_front(spec, 11)
        pf = pareto_fair_point(front)
        assert pf[1] == pytest.approx(2 * 0.2 * 0.8)

    def test_empty_front_rejected(self):
        with pytest.raises(InputError):
            pareto_fair_point([])

    def test_smallest_gap_first_then_smallest_mean_risk(self):
        # binary fractions, so the two smallest gaps tie exactly
        front = np.array([
            [1.0, 0.0, 0.0625, 0.125],  # gap 0.0625, the smallest mean risk
            [0.5, 0.5, 0.5, 0.53125],  # gap 0.03125
            [0.0, 1.0, 0.25, 0.28125],  # gap 0.03125, smaller mean risk
        ])
        assert np.array_equal(pareto_fair_point(front), front[2])


class TestReferencePoints:
    def test_symmetric_all_coincide(self, symmetric_spec):
        refs = reference_points(symmetric_spec, trace_front(symmetric_spec, 101))
        assert np.allclose(refs["naive"], refs["rebalanced"], atol=1e-9)
        assert np.allclose(refs["naive"], refs["pareto_fair"], atol=1e-9)

    def test_naive_harms_minority(self, acceptance_spec, front):
        refs = reference_points(acceptance_spec, front)
        assert refs["naive"][1] > refs["rebalanced"][1]

    def test_equality_of_risk_properties(self, acceptance_spec, front):
        refs = reference_points(acceptance_spec, front)
        eq = refs["equality_of_risk"]
        pf = refs["pareto_fair"]
        assert eq.max() - eq.min() == pytest.approx(0.0)
        assert np.all(pf <= eq + 1e-12)  # weak dominance

    def test_equality_of_risk_is_reachable_by_mixing_toward_one_half(self, acceptance_spec):
        # a risk mixed with the constant 0.5 predictor's reaches only levels between it and 0.5
        refs = reference_points(acceptance_spec, np.array([[1.0, 0.0, 0.55, 0.45]]))
        assert np.array_equal(refs["equality_of_risk"], [0.5, 0.5])
        # three groups whose 1001-lambda smallest-gap point has a group risk above 0.5
        spec = make_scenario(ScenarioParams(
            priors=(0.3955, 0.593, 0.0115),
            rho_low=(0.0066, 0.3253, 0.3651),
            rho_high=(0.8427, 0.8918, 0.8174),
            density_centers=(0.674, 0.6263, 0.3011),
            density_widths=(0.1857, 0.1034, 0.173),
        ))
        refs = reference_points(spec, trace_front(spec, 1001))
        assert refs["pareto_fair"].max() > 0.5 > refs["pareto_fair"].min()
        assert np.array_equal(refs["equality_of_risk"], [0.5, 0.5, 0.5])

    def test_reads_the_given_front_and_traces_nothing(self, acceptance_spec, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("reference_points traced a front")

        monkeypatch.setattr(oracle, "trace_front", no_trace)
        hand_built = np.array([[1.0, 0.0, 0.1, 0.5], [0.5, 0.5, 0.2, 0.3], [0.0, 1.0, 0.4, 0.2]])
        refs = reference_points(acceptance_spec, hand_built)
        assert np.array_equal(refs["pareto_fair"], [0.2, 0.3])
        assert np.array_equal(refs["equality_of_risk"], [0.3, 0.3])
        naive = scalarized_bayes_predictor(acceptance_spec, acceptance_spec.priors)
        assert np.array_equal(refs["naive"], exact_group_risks(acceptance_spec, naive))


def recursive_simplex_grid(G, num_lambda):
    """The lattice of _simplex_grid as a recursive enumeration of compositions."""
    if G == 1:
        return [np.array([1.0])]
    if G == 2:
        return [np.array([t, 1.0 - t]) for t in np.linspace(0.0, 1.0, num_lambda)]
    m = max(2, int(round(num_lambda ** (1.0 / (G - 1)))))
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(np.array(prefix + [remaining]) / m)
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], m, G)
    return out


@pytest.mark.parametrize("num_lambda", [3, 11, 101, 1001])
@pytest.mark.parametrize("G", [1, 2, 3, 4, 5])
def test_simplex_grid_matches_the_recursive_enumeration_bitwise(G, num_lambda):
    got = _simplex_grid(G, num_lambda)
    want = recursive_simplex_grid(G, num_lambda)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestGridRefinement:
    def test_front_stable_under_doubling(self):
        coarse = make_scenario(ScenarioParams(grid_points=401))
        fine = make_scenario(ScenarioParams(grid_points=801))
        for t in np.linspace(0.05, 0.95, 7):
            lam = np.array([t, 1 - t])
            rc = exact_group_risks(coarse, scalarized_bayes_predictor(coarse, lam))
            rf = exact_group_risks(fine, scalarized_bayes_predictor(fine, lam))
            assert np.all(np.abs(rc - rf) < 1e-3)


class TestFrontCsv:
    def test_columns(self, acceptance_spec, tmp_path):
        front = trace_front(acceptance_spec, 21)
        path = tmp_path / "front.csv"
        write_front_csv(front, path)
        header = path.read_text().splitlines()[0]
        assert header == "lambda_0,lambda_1,r_0,r_1,max_gap,mean_risk"

    def test_empty_front_rejected(self, tmp_path):
        with pytest.raises(InputError, match="empty front"):
            write_front_csv(np.empty((0, 4)), tmp_path / "front.csv")

    def test_no_reference_points_rejected(self, tmp_path):
        with pytest.raises(InputError, match="no reference points"):
            write_reference_csv({}, tmp_path / "reference_points.csv")
