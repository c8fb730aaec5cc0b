"""Adaptive penalized loss and the outer loop searching for the Pareto-fair model.

The outer loop alternates inner weighted-SGD runs with an accept/reject test
on validation group risks: a step is kept only if it strictly shrinks the
worst pairwise risk gap and is not dominated by any previously accepted risk
vector. Rejected steps restore the best model, shrink the learning rate and
the multiplier bump, and retry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from paretofair.data import GroupedDataset, write_table
from paretofair.model import MLPClassifier, TrainConfig, _check_field, _is_int, sgd_early_stop
from paretofair.risk import (
    InputError,
    RiskVector,
    archive_insert,
    group_risks,
    max_gap,
)

_EPS = 1e-12


def adaptive_loss(r, mu, c: float) -> float:
    """sum_a [ r_a + mu_a * ((r_a - c)^+)^2 ]."""
    risks = r.risks if isinstance(r, RiskVector) else np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != risks.shape:
        raise InputError("mu length does not match number of groups")
    if np.any(mu < 0):
        raise InputError("mu entries must be nonnegative")
    excess = np.maximum(risks - c, 0.0)
    return float(np.sum(risks + mu * excess**2))


def group_weights(r_hat, mu, c: float) -> np.ndarray:
    """Per-group sample weights w_a = 1 + 2 mu_a (r_a - c)^+.

    This is the derivative of ``adaptive_loss`` in each risk component, so
    weighting per-sample gradients by it optimizes the adaptive loss.
    """
    risks = r_hat.risks if isinstance(r_hat, RiskVector) else np.asarray(r_hat, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise InputError("mu entries must be nonnegative")
    return 1.0 + 2.0 * mu * np.maximum(risks - c, 0.0)


@dataclass
class PFHyperparams:
    """Outer-loop settings; ``train`` configures the inner SGD runs."""

    mu_init: float = 1.0
    k: float = 2.0
    gamma0: float = 0.5
    xi: float = 0.85
    zeta: float = 0.85
    max_outer_iters: int = 80
    max_consecutive_rejects: int = 15
    lr_min: float = 1e-6
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        _check_field(self, "mu_init", 0 < self.mu_init < np.inf, "finite and positive")
        # k > 1 keeps c = min risk / k below the smallest group risk
        _check_field(self, "k", 1 < self.k < np.inf, "finite and > 1")
        _check_field(self, "gamma0", 0 < self.gamma0 < np.inf, "finite and positive")
        _check_field(self, "xi", 0 < self.xi < 1, "in (0, 1)")
        _check_field(self, "zeta", 0 < self.zeta < 1, "in (0, 1)")
        for name in ("max_outer_iters", "max_consecutive_rejects"):
            value = getattr(self, name)
            _check_field(self, name, _is_int(value) and value >= 1, "an integer >= 1")
        _check_field(self, "lr_min", self.lr_min >= 0, "nonnegative")


@dataclass
class AdaptiveLossState:
    """Everything the outer loop carries between iterations."""

    hp: PFHyperparams
    mu: np.ndarray
    mu_star: np.ndarray
    c: float
    gamma: float
    lr: float
    gamma_star: float
    best_params: object
    archive: tuple  # mutually non-dominated RiskVectors of the accepted steps


def init_state(G: int, hp: PFHyperparams, model: MLPClassifier) -> AdaptiveLossState:
    """The first outer step trains at ``hp.train.lr``."""
    return AdaptiveLossState(
        hp=hp,
        mu=np.full(G, hp.mu_init),
        mu_star=np.full(G, hp.mu_init),
        c=0.0,
        gamma=hp.gamma0,
        lr=hp.train.lr,
        gamma_star=np.inf,
        best_params=model.get_params(),
        archive=(),
    )


def pf_step_accept(state: AdaptiveLossState, r_val: RiskVector) -> bool:
    """Accept iff the gap strictly improves and no archived risk vector dominates r_val."""
    return max_gap(r_val) < state.gamma_star and archive_insert(state.archive, r_val)[0]


def pf_accept_update(state: AdaptiveLossState, r_val: RiskVector, model: MLPClassifier):
    """Bookkeeping after an accepted step: archive r_val, new best model, c and mu* rescale."""
    _, state.archive = archive_insert(state.archive, r_val)
    state.best_params = model.get_params()
    state.gamma_star = max_gap(r_val)
    c_old, state.c = state.c, float(r_val.risks.min()) / state.hp.k
    num = np.maximum(r_val.risks - c_old, 0.0)
    den = np.maximum(r_val.risks - state.c, 0.0)
    ratio = np.where(den > _EPS, num / np.maximum(den, _EPS), 0.0)
    state.mu_star = state.mu * ratio


def pf_reject_update(state: AdaptiveLossState, model: MLPClassifier):
    """Rejected step: decay lr and gamma, restore multipliers and best model."""
    state.lr *= state.hp.zeta
    state.mu = state.mu_star.copy()
    state.gamma *= state.hp.xi
    model.set_params(state.best_params)


def evaluate_risk(model: MLPClassifier, val: GroupedDataset, loss: str = "brier") -> RiskVector:
    probs = model.forward(val.features)
    return group_risks(probs, val.targets, val.groups, loss)


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


def pareto_fair_optimize(
    train: GroupedDataset,
    val: GroupedDataset,
    model: MLPClassifier,
    hp: PFHyperparams,
    loss: str = "brier",
):
    """Outer optimization loop; returns (best_model, trace).

    The returned model carries the parameters whose validation risk vector
    achieved the smallest max gap while staying non-dominated.
    """
    G = train.num_groups
    if val.num_groups != G:
        raise InputError("validation set must contain every training group")
    state = init_state(G, hp, model)
    trace: list[TraceRow] = []
    consecutive_rejects = 0

    for it in range(hp.max_outer_iters):
        mu = state.mu.copy()
        c = state.c
        cfg = replace(hp.train, lr=state.lr, seed=hp.train.seed + it)
        sgd_early_stop(
            model,
            train,
            val,
            objective=lambda r: adaptive_loss(r, mu, c),
            weight_rule=lambda r: group_weights(r, mu, c),
            config=cfg,
            loss=loss,
        )
        r_val = evaluate_risk(model, val, loss)
        accepted = pf_step_accept(state, r_val)
        if accepted:
            pf_accept_update(state, r_val, model)
            consecutive_rejects = 0
        else:
            pf_reject_update(state, model)
            consecutive_rejects += 1
        # the worst group's multiplier grows after rejected steps too
        worst_group = int(np.argmax(r_val.risks))
        state.mu[worst_group] *= 1.0 + state.gamma
        trace.append(
            TraceRow(
                iteration=it,
                accepted=accepted,
                lr=state.lr,
                gamma=state.gamma,
                c=state.c,
                mu=state.mu.copy(),
                risks=r_val.risks.copy(),
                max_gap=max_gap(r_val),
            )
        )
        if consecutive_rejects >= hp.max_consecutive_rejects or state.lr < hp.lr_min:
            break

    model.set_params(state.best_params)
    return model, trace


def write_trace_csv(trace, path):
    """One row per outer iteration: iter, accepted, lr, gamma, c, mu_*, r_*, max_gap."""
    if not trace:
        raise InputError("empty trace")
    G = len(trace[0].mu)
    header = ["iter", "accepted", "lr", "gamma", "c"]
    header += [f"mu_{a}" for a in range(G)]
    header += [f"r_{a}" for a in range(G)]
    header += ["max_gap"]
    rows = ([r.iteration, int(r.accepted), r.lr, r.gamma, r.c, *r.mu, *r.risks, r.max_gap] for r in trace)
    write_table(path, header, rows)
