"""Adaptive penalized loss and the outer loop searching for the Pareto-fair model.

The outer loop alternates inner solves of the adaptive loss with an
accept/reject test on group risks: a step is kept only if it strictly shrinks
the worst pairwise risk gap and is not dominated by any previously accepted
risk vector. Rejected steps are dropped, and the next step starts again from
the best accepted snapshot with a smaller learning rate and multiplier bump.
``pareto_fair_optimize`` runs it with weighted SGD on validation risks;
``exact_solver`` runs it on a scenario's exact risks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from paretofair.data import GroupedDataset, write_table
from paretofair.model import MLPClassifier, TrainConfig, sgd_early_stop
from paretofair.oracle import ScenarioSpec, exact_group_risks, scalarized_bayes_predictor
from paretofair.risk import InputError, _check_field, _is_int, archive_insert, max_gap
# not called here: bench/selftest.py checks that the bench tracer patches this binding
from paretofair.risk import group_risks  # noqa: F401

_EPS = 1e-12
_SOLVER_ITERS = 200  # exact_solver's cap; 13,446 solves on 202 scenarios needed at most 42


def _check_mu(mu, shape) -> np.ndarray:
    """``mu`` as a float array of the risks' ``shape`` with nonnegative entries, or InputError."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != shape:
        raise InputError("mu length does not match number of groups")
    if np.any(mu < 0):
        raise InputError("mu entries must be nonnegative")
    return mu


def adaptive_loss(r, mu, c: float) -> float:
    """sum_a [ r_a + mu_a * ((r_a - c)^+)^2 ]."""
    risks = np.asarray(r, dtype=float)
    mu = _check_mu(mu, risks.shape)
    return float(np.sum(risks + mu * np.maximum(risks - c, 0.0) ** 2))


def _weights(risks: np.ndarray, two_mu: np.ndarray, c: float) -> np.ndarray:
    """1 + 2 mu (r - c)^+ for float ``risks`` and ``two_mu`` = 2.0 * mu, a nonnegative float array."""
    return 1.0 + two_mu * np.maximum(risks - c, 0.0)


def group_weights(r_hat, mu, c: float) -> np.ndarray:
    """Per-group sample weights w_a = 1 + 2 mu_a (r_a - c)^+.

    This is the derivative of ``adaptive_loss`` in each risk component, so
    weighting per-sample gradients by it optimizes the adaptive loss.
    """
    risks = np.asarray(r_hat, dtype=float)
    return _weights(risks, 2.0 * _check_mu(mu, risks.shape), c)


@dataclass
class PFHyperparams(TrainConfig):
    """Outer-loop settings, on top of the inner SGD settings of ``TrainConfig``."""

    mu_init: float = 1.0
    k: float = 2.0
    gamma0: float = 0.5
    xi: float = 0.85
    zeta: float = 0.85
    max_outer_iters: int = 80
    max_consecutive_rejects: int = 15

    def __post_init__(self):
        super().__post_init__()
        _check_field(self, "mu_init", 0 < self.mu_init < np.inf, "finite and positive")
        # k > 1 keeps c = min risk / k below the smallest group risk
        _check_field(self, "k", 1 < self.k < np.inf, "finite and > 1")
        _check_field(self, "gamma0", 0 < self.gamma0 < np.inf, "finite and positive")
        _check_field(self, "xi", 0 < self.xi < 1, "in (0, 1)")
        _check_field(self, "zeta", 0 < self.zeta < 1, "in (0, 1)")
        for name in ("max_outer_iters", "max_consecutive_rejects"):
            value = getattr(self, name)
            _check_field(self, name, _is_int(value) and value >= 1, "an integer >= 1")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    accepted: bool
    lr: float
    gamma: float
    c: float
    mu: np.ndarray
    risks: np.ndarray
    max_gap: float


def outer_loop(solve, start, G: int, hp: PFHyperparams):
    """The outer loop over an inner solver; returns (best_snapshot, trace).

    ``solve(start, objective, weight_rule, lr, seed) -> (snapshot, risks)``
    minimizes ``objective`` from the snapshot ``start``; ``risks`` is the
    snapshot's float array of G group risks. The pair is the one that
    ``sgd_early_stop`` takes, bound at each step to the adaptive loss at that
    step's multipliers ``mu`` and threshold ``c``, so no solver knows either.
    Every step starts from the best accepted snapshot, so a rejected step is
    undone by dropping its snapshot. A step is accepted iff its gap strictly
    improves and no accepted risk vector dominates it. An accept moves ``c``
    to min risk / k and rescales the multipliers to mu*, which keeps each
    group's weight at the accepted risks; a reject restores mu* and decays
    ``lr`` and the bump ``gamma``. The loop stops after ``max_outer_iters``
    steps, or after ``max_consecutive_rejects`` rejects in a row.
    """
    mu = np.full(G, hp.mu_init, dtype=float)
    mu_star = mu.copy()
    c, gamma, lr, gamma_star = 0.0, hp.gamma0, hp.lr, np.inf
    best, archive, trace, rejects = start, (), [], 0
    for it in range(hp.max_outer_iters):
        with np.errstate(over="ignore"):  # a multiplier that overflows raises here, naming its group
            two_mu = 2.0 * mu
        overflowed = np.flatnonzero(~np.isfinite(two_mu))
        if overflowed.size:
            a = overflowed[0]
            raise InputError(f"outer iteration {it}: the multiplier of group {a}, mu = {mu[a]}, is too large; "
                             "2 * mu must be finite")
        # each rule holds its own array: the loop updates mu in place after the step
        rules = partial(adaptive_loss, mu=mu.copy(), c=c), partial(_weights, two_mu=two_mu, c=c)
        snapshot, r = solve(best, *rules, lr, hp.seed + it)
        gap = max_gap(r)
        accepted, kept = archive_insert(archive, r) if gap < gamma_star else (False, archive)
        with np.errstate(over="ignore"):  # the next step's check names an overflowed multiplier
            if accepted:
                c_old, c = c, float(r.min()) / hp.k
                num = np.maximum(r - c_old, 0.0)
                den = np.maximum(r - c, 0.0)
                mu_star = mu * np.where(den > _EPS, num / np.maximum(den, _EPS), 0.0)
                best, archive, gamma_star, rejects = snapshot, kept, gap, 0
            else:
                lr *= hp.zeta
                mu = mu_star.copy()
                gamma *= hp.xi
                rejects += 1
            # the worst group's multiplier grows after rejected steps too
            mu[int(np.argmax(r))] *= 1.0 + gamma
        trace.append(TraceRow(it, accepted, lr, gamma, c, mu.copy(), r.copy(), gap))
        if rejects >= hp.max_consecutive_rejects:
            break
    return best, trace


def pareto_fair_optimize(train: GroupedDataset, val: GroupedDataset, model: MLPClassifier, hp: PFHyperparams):
    """``outer_loop`` with weighted SGD as its solver; returns (best_model, trace).

    Each step restores the snapshot it is given and runs one
    ``sgd_early_stop`` on the adaptive loss; the step's risks are the fit's
    validation risks at the epoch it restores. The returned model carries
    the parameters of the last accepted step.
    """
    # each step trains on a plain TrainConfig: no subclass check re-runs on seed + it
    inner = {f.name: getattr(hp, f.name) for f in fields(TrainConfig)}

    def solve(start, objective, weight_rule, lr, seed):
        model.params[...] = start
        _, risks, _ = sgd_early_stop(
            model,
            train,
            val,
            objective=objective,
            weight_rule=weight_rule,
            config=TrainConfig(**{**inner, "lr": lr, "seed": seed}),
        )
        return model.params.copy(), risks

    best, trace = outer_loop(solve, model.params.copy(), train.num_groups, hp)
    model.params[...] = best
    return model, trace


def exact_solver(spec: ScenarioSpec):
    """An inner solver for ``outer_loop`` on the exact risks of ``spec``.

    Its snapshots are scalarization vectors lambda. If ``weight_rule`` is the
    gradient in the risks of a convex ``objective`` increasing in each risk,
    as the adaptive loss's is, ``objective(R(g))`` is minimized over the
    tabulated predictor g by the scalarized Bayes predictor at lambda
    proportional to ``w = weight_rule(R(g))``; the damped fixed point
    lambda <- (lambda + w / sum w) / 2 finds it. Only ``weight_rule`` is used.
    """

    def solve(start, objective, weight_rule, lr, seed):
        lam = np.asarray(start, dtype=float)
        for _ in range(_SOLVER_ITERS):
            r = exact_group_risks(spec, scalarized_bayes_predictor(spec, lam))
            w = weight_rule(r)
            step = 0.5 * (w / w.sum() - lam)
            if np.max(np.abs(step)) <= 1e-13:
                return lam, r
            lam = lam + step
        raise InputError(f"exact solver did not converge in {_SOLVER_ITERS} iterations (lambda={lam}, weights={w})")

    return solve


def write_trace_csv(trace, path):
    """One row per outer iteration: iter, accepted, lr, gamma, c, mu_*, r_*, max_gap."""
    if not trace:
        raise InputError("empty trace")
    groups = range(len(trace[0].mu))
    header = ["iter", "accepted", "lr", "gamma", "c", *(f"{k}_{a}" for k in ("mu", "r") for a in groups), "max_gap"]
    rows = ([r.iteration, int(r.accepted), r.lr, r.gamma, r.c, *r.mu, *r.risks, r.max_gap] for r in trace)
    write_table(path, header, zip(*rows, strict=True))
