"""Exact synthetic scenario family with analytic Pareto front tracing.

The generative model is discretized on a uniform grid: per-group priors,
per-group densities over the grid, and a piecewise-constant probability of
the positive label with two levels and one transition per group. All risks
here are exact expectations under the binary two-class squared loss
(range [0, 2]); no sampling error is involved except in ``sample_dataset``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from paretofair.data import GroupedDataset, load_key_values, write_table
from paretofair.risk import InputError, RiskVector, dominates, max_gap

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
    params: ScenarioParams | None = None
    group_names: tuple = field(default=())

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        priors = np.asarray(self.priors, dtype=float)
        density = np.asarray(self.density, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        G, B = density.shape
        if grid.shape != (B,) or eta.shape != (G, B) or priors.shape != (G,):
            raise InputError("inconsistent grid / priors / density / eta shapes")
        if abs(float(priors.sum()) - 1.0) > _TOL or np.any(priors < 0):
            raise InputError("priors must be nonnegative and sum to 1")
        if np.any(np.abs(density.sum(axis=1) - 1.0) > _TOL) or np.any(density < 0):
            raise InputError("each density row must be nonnegative and sum to 1")
        if np.any(eta < 0) or np.any(eta > 1):
            raise InputError("eta values must lie in [0, 1]")
        names = self.group_names or tuple(f"g{i}" for i in range(G))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "group_names", tuple(names))

    @property
    def num_groups(self) -> int:
        return self.density.shape[0]

    @property
    def num_points(self) -> int:
        return self.grid.shape[0]


@dataclass(frozen=True)
class FrontPoint:
    lam: np.ndarray
    risks: RiskVector
    max_gap: float


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
    if params.grid_points < 2 or params.grid_max <= params.grid_min:
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
        bump = np.exp(-0.5 * ((x - params.density_centers[a]) / params.density_widths[a]) ** 2)
        density[a] = bump / bump.sum()
        eta[a] = np.where(x < transitions[a], params.rho_low[a], params.rho_high[a])
    return ScenarioSpec(
        grid=x, priors=np.asarray(params.priors, dtype=float), density=density, eta=eta, params=params
    )


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


def exact_group_risks(spec: ScenarioSpec, g) -> RiskVector:
    """Exact per-group expected squared loss of the tabulated predictor g."""
    g = np.asarray(g, dtype=float)
    if g.shape != (spec.num_points,):
        raise InputError("predictor table does not match the grid")
    if np.any(g < 0) or np.any(g > 1):
        raise InputError("predictor values must lie in [0, 1]")
    risks = np.einsum("ab,ab->a", spec.density, _pointwise_risk(spec.eta, g[None, :]))
    return RiskVector(risks=risks, counts=np.zeros(spec.num_groups, dtype=int))


def bayes_noise(spec: ScenarioSpec) -> RiskVector:
    """Smallest achievable risk per group: sum_x p(x|a) * 2 eta (1 - eta)."""
    risks = np.einsum("ab,ab->a", spec.density, 2.0 * spec.eta * (1.0 - spec.eta))
    return RiskVector(risks=risks, counts=np.zeros(spec.num_groups, dtype=int))


def scalarized_bayes_predictor(spec: ScenarioSpec, lam) -> np.ndarray:
    """Pointwise minimizer of sum_a lam_a R_a.

    g(x) = sum_a lam_a p(x|a) eta_a(x) / sum_a lam_a p(x|a); grid points with
    zero weighted density get the uninformative value 0.5.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (spec.num_groups,) or np.any(lam < 0):
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
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(np.array(prefix + [remaining]) / m)
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], m, G)
    return out


def trace_front(spec: ScenarioSpec, num_lambda: int = 1001):
    """Scalarization sweep over the simplex, pruned to non-dominated points."""
    if num_lambda < 3:
        raise InputError("num_lambda must be at least 3")
    points = []
    for lam in _simplex_grid(spec.num_groups, num_lambda):
        r = exact_group_risks(spec, scalarized_bayes_predictor(spec, lam))
        points.append(FrontPoint(lam=lam, risks=r, max_gap=max_gap(r)))
    keep = []
    for i, p in enumerate(points):
        if any(dominates(q.risks, p.risks) for j, q in enumerate(points) if j != i):
            continue
        keep.append(p)
    keep.sort(key=lambda p: (float(p.risks.risks[0]), float(p.risks.risks[-1])))
    return keep


def pareto_fair_point(front) -> FrontPoint:
    """The traced point with minimal gap; ties broken by smaller mean risk."""
    if not front:
        raise InputError("empty front")
    return min(front, key=lambda p: (p.max_gap, float(p.risks.risks.mean())))


def reference_points(spec: ScenarioSpec, num_lambda: int = 1001):
    """Named risk vectors: naive, rebalanced, pareto_fair, equality_of_risk."""
    naive = exact_group_risks(spec, scalarized_bayes_predictor(spec, spec.priors))
    uniform = np.full(spec.num_groups, 1.0 / spec.num_groups)
    rebalanced = exact_group_risks(spec, scalarized_bayes_predictor(spec, uniform))
    front = trace_front(spec, num_lambda)
    pf = pareto_fair_point(front)
    # every group degraded (by mixing toward the uninformative predictor) to
    # the worst Pareto-fair group risk
    worst = float(pf.risks.risks.max())
    eq = RiskVector(
        risks=np.full(spec.num_groups, worst), counts=np.zeros(spec.num_groups, dtype=int)
    )
    return {
        "naive": naive,
        "rebalanced": rebalanced,
        "pareto_fair": pf.risks,
        "equality_of_risk": eq,
    }


def disparity_tradeoff(front):
    """(mean risk, max gap) per front point, pruned to the attainable envelope.

    Points dominated in (mean, gap) space are removed, so mean risk is
    non-increasing as the allowed gap grows.
    """
    if not front:
        raise InputError("empty front")
    pairs = [(float(p.risks.risks.mean()), p.max_gap) for p in front]
    keep = []
    for i, (m, g) in enumerate(pairs):
        if any(
            (m2 <= m and g2 <= g and (m2 < m or g2 < g)) for j, (m2, g2) in enumerate(pairs) if j != i
        ):
            continue
        keep.append((m, g))
    keep.sort(key=lambda t: t[1])
    return keep


def sample_dataset(spec: ScenarioSpec, n: int, seed: int = 0) -> GroupedDataset:
    """Draw n triplets (x, y, a); x is jittered uniformly within its grid bin."""
    if n < 1:
        raise InputError("need n >= 1")
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
    """Columns lambda_0.., r_0.., max_gap, mean_risk."""
    if not front:
        raise InputError("empty front")
    G = front[0].lam.shape[0]
    header = [f"lambda_{a}" for a in range(G)] + [f"r_{a}" for a in range(G)] + ["max_gap", "mean_risk"]
    write_table(path, header, ([*p.lam, *p.risks.risks, p.max_gap, p.risks.risks.mean()] for p in front))


def write_reference_csv(refs: dict, path):
    G = next(iter(refs.values())).num_groups
    header = ["name"] + [f"r_{a}" for a in range(G)] + ["max_gap"]
    write_table(path, header, ([name, *r.risks, max_gap(r)] for name, r in refs.items()))
