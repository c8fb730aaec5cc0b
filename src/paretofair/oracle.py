"""Exact synthetic scenario family with analytic Pareto front tracing.

The generative model is discretized on a uniform grid: per-group priors,
per-group densities over the grid, and a piecewise-constant probability of
the positive label with two levels and one transition per group. All risks
here are exact expectations under the binary two-class squared loss
(range [0, 2]); no sampling error is involved except in ``sample_dataset``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from paretofair.adaptive import group_weights
from paretofair.data import GroupedDataset, load_key_values, write_table
from paretofair.model import _is_int
from paretofair.risk import InputError, dominates, max_gap

_TOL = 1e-9
_SOLVER_ITERS = 200  # exact_solver's cap; 13,446 solves on 202 scenarios needed at most 42


@dataclass(frozen=True)
class ScenarioParams:
    """Constructor parameters for the two-level piecewise-constant family."""

    priors: tuple = (0.7, 0.3)
    rho_low: tuple = (0.1, 0.3)
    rho_high: tuple = (0.9, 0.7)
    transition_center: float = 0.65
    transition_delta: float = 0.1
    density_centers: tuple = (0.4, 0.6)
    density_widths: tuple = (0.15, 0.15)
    grid_min: float = 0.0
    grid_max: float = 1.0
    grid_points: int = 401


@dataclass(frozen=True)
class ScenarioSpec:
    """Discretized generative model: grid, priors, p(x|a) and eta_a(x)."""

    grid: np.ndarray
    priors: np.ndarray
    density: np.ndarray  # G x B, rows sum to 1
    eta: np.ndarray  # G x B, values in [0, 1]

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        priors = np.asarray(self.priors, dtype=float)
        density = np.asarray(self.density, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        G, B = density.shape
        if grid.shape != (B,) or eta.shape != (G, B) or priors.shape != (G,):
            raise InputError("inconsistent grid / priors / density / eta shapes")
        if not all(np.all(np.isfinite(v)) for v in (grid, priors, density, eta)):
            raise InputError("grid, priors, density and eta must be finite")
        if abs(float(priors.sum()) - 1.0) > _TOL or np.any(priors < 0):
            raise InputError("priors must be nonnegative and sum to 1")
        if np.any(np.abs(density.sum(axis=1) - 1.0) > _TOL) or np.any(density < 0):
            raise InputError("each density row must be nonnegative and sum to 1")
        if np.any(eta < 0) or np.any(eta > 1):
            raise InputError("eta values must lie in [0, 1]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "eta", eta)

    @property
    def num_groups(self) -> int:
        return self.density.shape[0]

    @property
    def num_points(self) -> int:
        return self.grid.shape[0]


def make_scenario(params: ScenarioParams = ScenarioParams()) -> ScenarioSpec:
    """Build the two-group two-level scenario with bell-shaped densities.

    Each group's label probability takes the value rho_low below its
    transition and rho_high above it; the two transitions are centered at
    ``transition_center`` and separated by ``transition_delta``.
    """
    G = len(params.priors)
    for name in ("rho_low", "rho_high", "density_centers", "density_widths"):
        if len(getattr(params, name)) != G:
            raise InputError(f"{name} has {len(getattr(params, name))} entries, but priors has {G}")
    for lo, hi in zip(params.rho_low, params.rho_high):
        if not (0 <= lo < hi <= 1):
            raise InputError("need 0 <= rho_low < rho_high <= 1 per group")
    if not np.all(np.isfinite(params.density_centers)):
        raise InputError("density_centers must be finite")
    if not np.all(np.asarray(params.density_widths, dtype=float) > 0):
        raise InputError("density_widths must be positive")
    if not (params.grid_points >= 2 and -np.inf < params.grid_min < params.grid_max < np.inf):
        raise InputError("invalid grid bounds")
    x = np.linspace(params.grid_min, params.grid_max, params.grid_points)
    transitions = [
        params.transition_center + (a - (G - 1) / 2.0) * params.transition_delta for a in range(G)
    ]
    for t in transitions:
        if not params.grid_min < t < params.grid_max:
            raise InputError(f"transition at {t} falls outside the grid")
    density = np.zeros((G, params.grid_points))
    eta = np.zeros((G, params.grid_points))
    for a in range(G):
        with np.errstate(over="ignore"):  # a tiny width squares to inf, and exp(-inf) is 0
            bump = np.exp(-0.5 * ((x - params.density_centers[a]) / params.density_widths[a]) ** 2)
        if not bump.sum() > 0:  # a width far below the grid spacing, centered between points
            width = params.density_widths[a]
            raise InputError(f"density_widths[{a}] = {width!r} puts no mass on any grid point")
        density[a] = bump / bump.sum()
        eta[a] = np.where(x < transitions[a], params.rho_low[a], params.rho_high[a])
    return ScenarioSpec(grid=x, priors=np.asarray(params.priors, dtype=float), density=density, eta=eta)


# -- scenario file I/O ---------------------------------------------------------
#
# The ``key = value`` format of ``data.load_key_values``, one key per
# ScenarioParams field; per-group tuples are comma separated.


def save_scenario(params: ScenarioParams, path):
    with open(path, "w") as fh:
        for f in fields(params):
            value = getattr(params, f.name)
            text = ",".join(repr(float(v)) for v in value) if isinstance(value, tuple) else repr(value)
            fh.write(f"{f.name} = {text}\n")


def load_scenario(path) -> ScenarioParams:
    return load_key_values(path, ScenarioParams)


# -- exact risk machinery ------------------------------------------------------


def _pointwise_risk(eta_row, g):
    # binary two-class squared loss: y=1 costs 2(1-g)^2, y=0 costs 2g^2
    return eta_row * 2.0 * (1.0 - g) ** 2 + (1.0 - eta_row) * 2.0 * g**2


def exact_group_risks(spec: ScenarioSpec, g) -> np.ndarray:
    """Exact per-group expected squared loss of the tabulated predictor g, a G-vector."""
    g = np.asarray(g, dtype=float)
    if g.shape != (spec.num_points,):
        raise InputError("predictor table does not match the grid")
    if not np.all((g >= 0) & (g <= 1)):  # NaN fails too
        raise InputError("predictor values must lie in [0, 1]")
    return np.einsum("ab,ab->a", spec.density, _pointwise_risk(spec.eta, g[None, :]))


def bayes_noise(spec: ScenarioSpec) -> np.ndarray:
    """Smallest achievable risk per group: sum_x p(x|a) * 2 eta (1 - eta)."""
    return np.einsum("ab,ab->a", spec.density, 2.0 * spec.eta * (1.0 - spec.eta))


def scalarized_bayes_predictor(spec: ScenarioSpec, lam) -> np.ndarray:
    """Pointwise minimizer of sum_a lam_a R_a.

    g(x) = sum_a lam_a p(x|a) eta_a(x) / sum_a lam_a p(x|a); grid points with
    zero weighted density get the uninformative value 0.5.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (spec.num_groups,) or not np.all(lam >= 0):  # NaN fails too
        raise InputError("lambda must be a nonnegative G-vector")
    if abs(float(lam.sum()) - 1.0) > 1e-9:
        raise InputError("lambda must lie on the simplex")
    num = np.einsum("a,ab->b", lam, spec.density * spec.eta)
    den = np.einsum("a,ab->b", lam, spec.density)
    return np.where(den > 0, num / np.maximum(den, 1e-300), 0.5)


def _simplex_grid(G: int, num_lambda: int):
    if G == 1:
        return [np.array([1.0])]
    if G == 2:
        ts = np.linspace(0.0, 1.0, num_lambda)
        return [np.array([t, 1.0 - t]) for t in ts]
    # coarse lattice for G >= 3: all compositions of m into G parts
    m = max(2, int(round(num_lambda ** (1.0 / (G - 1)))))
    heads = (c for c in itertools.product(range(m + 1), repeat=G - 1) if sum(c) <= m)
    return [np.array([*c, m - sum(c)]) / m for c in heads]


def trace_front(spec: ScenarioSpec, num_lambda: int = 1001) -> np.ndarray:
    """Scalarization sweep over the simplex, pruned to non-dominated points.

    Returns one row per front point: its lambda_0.., then its risks r_0..
    (2G columns), sorted by r_0, then by r_{G-1}.
    """
    if num_lambda < 3:
        raise InputError("num_lambda must be at least 3")
    lams = _simplex_grid(spec.num_groups, num_lambda)
    risks = [exact_group_risks(spec, scalarized_bayes_predictor(spec, lam)) for lam in lams]
    # dominates(r, r) is False, so r need not be skipped in its own scan
    keep = [i for i, r in enumerate(risks) if not any(dominates(q, r) for q in risks)]
    lams, risks = np.array(lams)[keep], np.array(risks)[keep]
    return np.hstack([lams, risks])[np.lexsort((risks[:, -1], risks[:, 0]))]


def _gaps_and_means(front):
    """``front`` as an array, with the max gap and the mean risk of each row."""
    front = np.asarray(front, dtype=float)
    if len(front) == 0:
        raise InputError("empty front")
    r = front[:, front.shape[1] // 2 :]
    return front, r.max(axis=1) - r.min(axis=1), r.mean(axis=1)


def pareto_fair_point(front) -> np.ndarray:
    """The front row (lambda_0.., r_0..) of minimal gap; ties broken by smaller mean risk."""
    front, gaps, means = _gaps_and_means(front)
    return front[np.lexsort((means, gaps))[0]]


def reference_points(spec: ScenarioSpec, front):
    """Named risk vectors: naive, rebalanced, pareto_fair, equality_of_risk.

    ``front`` is the traced front of ``spec`` (``trace_front``); the
    Pareto-fair row is its ``pareto_fair_point``, and nothing is traced here.
    """
    naive = exact_group_risks(spec, scalarized_bayes_predictor(spec, spec.priors))
    uniform = np.full(spec.num_groups, 1.0 / spec.num_groups)
    rebalanced = exact_group_risks(spec, scalarized_bayes_predictor(spec, uniform))
    pf = pareto_fair_point(front)[spec.num_groups :]
    return {
        "naive": naive,
        "rebalanced": rebalanced,
        "pareto_fair": pf,
        # every group degraded (by mixing toward the uninformative predictor)
        # to the worst Pareto-fair group risk
        "equality_of_risk": np.full(spec.num_groups, pf.max()),
    }


def exact_solver(spec: ScenarioSpec):
    """An inner solver for ``adaptive.outer_loop`` on the exact risks of ``spec``.

    Its snapshots are scalarization vectors lambda. With mu and c fixed,
    ``adaptive_loss(R(g), mu, c)`` is convex in the tabulated predictor g, so
    its minimizer is the scalarized Bayes predictor at lambda proportional to
    ``group_weights(R(g), mu, c)``; the damped fixed point
    lambda <- (lambda + w / sum w) / 2 finds it. ``lr`` and ``seed`` are unused.
    """

    def solve(start, mu, c, lr, seed):
        lam = np.asarray(start, dtype=float)
        for _ in range(_SOLVER_ITERS):
            r = exact_group_risks(spec, scalarized_bayes_predictor(spec, lam))
            w = group_weights(r, mu, c)
            step = 0.5 * (w / w.sum() - lam)
            if np.max(np.abs(step)) <= 1e-13:
                return lam, r
            lam = lam + step
        raise InputError(f"exact solver did not converge in {_SOLVER_ITERS} iterations (mu={mu}, c={c})")

    return solve


def sample_dataset(spec: ScenarioSpec, n: int, seed: int = 0) -> GroupedDataset:
    """Draw n triplets (x, y, a); x is jittered uniformly within its grid bin."""
    if not (_is_int(n) and n >= 1):
        raise InputError(f"n must be an integer >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    G, B = spec.density.shape
    groups = rng.choice(G, size=n, p=spec.priors)
    bins = np.zeros(n, dtype=int)
    for a in range(G):
        mask = groups == a
        if mask.any():
            bins[mask] = rng.choice(B, size=int(mask.sum()), p=spec.density[a])
    h = float(spec.grid[1] - spec.grid[0])
    x = spec.grid[bins] + rng.uniform(-0.5, 0.5, size=n) * h
    y = (rng.random(n) < spec.eta[groups, bins]).astype(int)
    return GroupedDataset(features=x[:, None], targets=y, groups=groups)


# -- CSV outputs ---------------------------------------------------------------


def write_front_csv(front, path):
    """Columns lambda_0.., r_0.. (the rows of ``trace_front``), then max_gap, mean_risk."""
    front, gaps, means = _gaps_and_means(front)
    G = front.shape[1] // 2
    header = [f"lambda_{a}" for a in range(G)] + [f"r_{a}" for a in range(G)] + ["max_gap", "mean_risk"]
    write_table(path, header, [*front.T, gaps, means])


def write_reference_csv(refs: dict, path):
    """One row per named risk vector: name, r_0.., max_gap."""
    if not refs:
        raise InputError("no reference points")
    G = len(next(iter(refs.values())))
    header = ["name"] + [f"r_{a}" for a in range(G)] + ["max_gap"]
    rows = ([name, *r, max_gap(r)] for name, r in refs.items())
    write_table(path, header, zip(*rows))
