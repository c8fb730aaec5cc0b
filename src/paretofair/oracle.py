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

from paretofair.data import GroupedDataset, load_key_values, write_table
from paretofair.risk import InputError, _check_seed, _is_int, dominates, max_gap

_TOL = 1e-9


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
        shape = density.shape
        if density.ndim != 2 or grid.shape != shape[1:] or priors.shape != shape[:1] or eta.shape != shape:
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
    if not (_is_int(params.grid_points) and params.grid_points >= 2):
        raise InputError(f"grid_points must be an integer >= 2, got {params.grid_points!r}")
    if not (-np.inf < params.grid_min < params.grid_max < np.inf):
        raise InputError("invalid grid bounds")
    x = np.linspace(params.grid_min, params.grid_max, params.grid_points)
    transitions = params.transition_center + (np.arange(G) - (G - 1) / 2.0) * params.transition_delta
    for t in transitions:
        if not params.grid_min < t < params.grid_max:
            raise InputError(f"transition at {t} falls outside the grid")
    centers, widths, rho_low, rho_high = np.array(
        [params.density_centers, params.density_widths, params.rho_low, params.rho_high], dtype=float
    )[..., None]
    with np.errstate(over="ignore"):  # a tiny width squares to inf, and exp(-inf) is 0
        bump = np.exp(-0.5 * ((x - centers) / widths) ** 2)
    mass = bump.sum(axis=1, keepdims=True)
    if not np.all(mass > 0):  # a width far below the grid spacing, centered between points
        a = int(np.argmin(mass > 0))
        raise InputError(f"density_widths[{a}] = {params.density_widths[a]!r} puts no mass on any grid point")
    eta = np.where(x < transitions[:, None], rho_low, rho_high)
    return ScenarioSpec(grid=x, priors=np.asarray(params.priors, dtype=float), density=bump / mass, eta=eta)


# -- scenario file I/O ---------------------------------------------------------
#
# The ``key = value`` format of ``data.load_key_values``, one key per
# ScenarioParams field; per-group tuples are comma separated.


def save_scenario(params: ScenarioParams, path):
    with open(path, "w") as fh:
        for f in fields(params):
            value = np.asarray(getattr(params, f.name)).tolist()  # numpy scalars and arrays as plain numbers
            text = ",".join(repr(float(v)) for v in value) if isinstance(value, list) else repr(value)
            fh.write(f"{f.name} = {text}\n")


def load_scenario(path) -> ScenarioParams:
    return load_key_values(path, ScenarioParams)


# -- exact risk machinery ------------------------------------------------------


def _pointwise_risk(eta_row, g):
    # binary two-class squared loss: y=1 costs 2(1-g)^2, y=0 costs 2g^2
    return eta_row * 2.0 * (1.0 - g) ** 2 + (1.0 - eta_row) * 2.0 * g**2


def exact_group_risks(spec: ScenarioSpec, g) -> np.ndarray:
    """Exact per-group expected squared loss of the tabulated predictor g, a G-vector.

    A stack of L tables, shape (L, B), gives L x G: each row the bits of its one-table call.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim not in (1, 2) or g.shape[-1] != spec.num_points:
        raise InputError("predictor table does not match the grid")
    if not np.all((g >= 0) & (g <= 1)):  # NaN fails too
        raise InputError("predictor values must lie in [0, 1]")
    return np.einsum("ab,...ab->...a", spec.density, _pointwise_risk(spec.eta, g[..., None, :]))


def bayes_noise(spec: ScenarioSpec) -> np.ndarray:
    """Smallest achievable risk per group: group a's exact risk of its own Bayes predictor g = eta_a."""
    return np.einsum("ab,ab->a", spec.density, _pointwise_risk(spec.eta, spec.eta))


def scalarized_bayes_predictor(spec: ScenarioSpec, lam) -> np.ndarray:
    """Pointwise minimizer of sum_a lam_a R_a.

    g(x) = sum_a lam_a p(x|a) eta_a(x) / sum_a lam_a p(x|a); grid points with
    zero weighted density get the uninformative value 0.5. A stack of L
    lambdas, shape (L, G), gives L tables: each row the bits of its one-lambda call.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim not in (1, 2) or lam.shape[-1] != spec.num_groups or not np.all(lam >= 0):  # NaN fails too
        raise InputError("lambda must be a nonnegative G-vector or a stack of them")
    if np.any(np.abs(lam.sum(axis=-1) - 1.0) > 1e-9):
        raise InputError("lambda must lie on the simplex")
    num = np.einsum("...a,ab->...b", lam, spec.density * spec.eta)
    den = np.einsum("...a,ab->...b", lam, spec.density)
    return np.where(den > 0, num / np.maximum(den, 1e-300), 0.5)


def _simplex_grid(G: int, num_lambda: int) -> np.ndarray:
    """The (L, G) lambda lattice: num_lambda even steps for G = 2, else each composition of m into G parts, over m."""
    if G == 2:
        ts = np.linspace(0.0, 1.0, num_lambda)
        return np.stack([ts, 1.0 - ts], axis=1)
    m = max(2, int(round(num_lambda ** (1.0 / max(G - 1, 1)))))
    heads = (c for c in itertools.product(range(m + 1), repeat=G - 1) if sum(c) <= m)
    return np.array([[*c, m - sum(c)] for c in heads]) / m


def trace_front(spec: ScenarioSpec, num_lambda: int = 1001) -> np.ndarray:
    """Scalarization sweep over the simplex, pruned to non-dominated points.

    Returns one row per front point: its lambda_0.., then its risks r_0..
    (2G columns), sorted by r_0, then by r_{G-1}.
    """
    if not (_is_int(num_lambda) and num_lambda >= 3):
        raise InputError(f"num_lambda must be an integer >= 3, got {num_lambda!r}")
    lams = _simplex_grid(spec.num_groups, num_lambda)
    risks = [exact_group_risks(spec, scalarized_bayes_predictor(spec, lam)) for lam in lams]
    # dominates(r, r) is False, so r need not be skipped in its own scan
    keep = [i for i, r in enumerate(risks) if not any(dominates(q, r) for q in risks)]
    lams, risks = lams[keep], np.array(risks)[keep]
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
    uniform = np.full(spec.num_groups, 1.0 / spec.num_groups)
    naive, rebalanced = exact_group_risks(spec, scalarized_bayes_predictor(spec, np.stack([spec.priors, uniform])))
    pf = pareto_fair_point(front)[spec.num_groups :]
    return {
        "naive": naive,
        "rebalanced": rebalanced,
        "pareto_fair": pf,
        # every group moved to one level by mixing with the uninformative
        # predictor 0.5, whose risk is 0.5 whatever eta is, so group a reaches
        # any level between r_a and 0.5: the worst Pareto-fair risk when it is
        # at most 0.5, and otherwise 0.5, the one level every group reaches
        "equality_of_risk": np.full(spec.num_groups, min(pf.max(), 0.5)),
    }


def sample_dataset(spec: ScenarioSpec, n: int, seed: int = 0) -> GroupedDataset:
    """Draw n triplets (x, y, a), x jittered within its grid bin; InputError if a group gets none."""
    if not (_is_int(n) and n >= 1):
        raise InputError(f"n must be an integer >= 1, got {n!r}")
    _check_seed(seed)
    if spec.num_points < 2:
        raise InputError("the grid needs at least 2 points: the jitter spans one bin width")
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
    # grid[bins] + u * h, built in place: IEEE addition commutes, so the bits are the same
    x = rng.uniform(-0.5, 0.5, size=n)
    x *= h
    x += spec.grid[bins]
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
    write_table(path, header, zip(*rows, strict=True))
