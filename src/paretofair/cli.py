"""Command line interface: synth, oracle, train, postproc, report.

Configuration is a flat ``key = value`` text file; any CLI flag overrides the
file value. Every command exits 0 on success and nonzero with a one-line
diagnostic on error. All outputs are deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from paretofair import adaptive, baselines, oracle, report
from paretofair.data import GroupedDataset, _first_empty, load_csv, load_key_values, save_csv, split_dataset
from paretofair.model import MLPClassifier, TrainConfig, load_checkpoint, save_checkpoint
from paretofair.risk import InputError


@dataclass
class ExperimentConfig:
    """Every key a ``--config`` file may set."""

    scenario: str | None = None
    data: str | None = None
    method: str = "paretofair"
    hidden: tuple = (64, 64)
    activation: str = "relu"
    loss: str = "brier"
    n: int = 20000
    split: tuple = (0.6, 0.2, 0.2)
    seed: int = 0
    out: str = "out"
    # inner SGD
    lr: float = TrainConfig.lr
    batch_size: int = TrainConfig.batch_size
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    # outer loop
    mu_init: float = adaptive.PFHyperparams.mu_init
    k: float = adaptive.PFHyperparams.k
    gamma0: float = adaptive.PFHyperparams.gamma0
    xi: float = adaptive.PFHyperparams.xi
    zeta: float = adaptive.PFHyperparams.zeta
    max_outer_iters: int = adaptive.PFHyperparams.max_outer_iters
    max_consecutive_rejects: int = adaptive.PFHyperparams.max_consecutive_rejects
    lr_min: float = adaptive.PFHyperparams.lr_min


def build_config(path, overrides: dict) -> ExperimentConfig:
    """The config file's values, if there is a file, under every non-None override."""
    cfg = load_key_values(path, ExperimentConfig) if path else ExperimentConfig()
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _shared_fields(cls, cfg: ExperimentConfig) -> dict:
    """The fields of ``cls`` that ExperimentConfig also has, with their values in ``cfg``."""
    return {f.name: getattr(cfg, f.name) for f in fields(cls) if hasattr(cfg, f.name)}


def _load_experiment_data(cfg: ExperimentConfig) -> GroupedDataset:
    if cfg.data:
        return load_csv(cfg.data)
    if cfg.scenario:
        spec = oracle.make_scenario(oracle.load_scenario(cfg.scenario))
        return oracle.sample_dataset(spec, cfg.n, cfg.seed)
    raise ValueError("config needs either 'data' (CSV path) or 'scenario' (scenario file)")


def cmd_synth(args) -> int:
    params = oracle.load_scenario(args.scenario)
    spec = oracle.make_scenario(params)
    ds = oracle.sample_dataset(spec, args.n, args.seed)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} samples to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    params = oracle.load_scenario(args.scenario)
    spec = oracle.make_scenario(params)
    front = oracle.trace_front(spec, args.num_lambda)
    os.makedirs(args.out, exist_ok=True)
    front_path = os.path.join(args.out, "front.csv")
    refs_path = os.path.join(args.out, "reference_points.csv")
    oracle.write_front_csv(front, front_path)
    oracle.write_reference_csv(oracle.reference_points(spec, args.num_lambda), refs_path)
    pf = oracle.pareto_fair_point(front)
    print(
        f"front: {len(front)} points -> {front_path}; "
        f"pareto-fair risks {np.array2string(pf.risks.risks, precision=4)} gap {pf.max_gap:.4f}"
    )
    return 0


def cmd_train(args) -> int:
    overrides = {"scenario": args.scenario, "data": args.data, "method": args.method,
                 "seed": args.seed, "out": args.out}
    cfg = build_config(args.config, overrides)
    if cfg.method not in ("naive", "rebalanced", "paretofair"):
        raise ValueError(f"unknown method '{cfg.method}'")
    # every trainer setting is checked before any data is loaded or written
    tc = TrainConfig(**_shared_fields(TrainConfig, cfg))
    hp = adaptive.PFHyperparams(**_shared_fields(adaptive.PFHyperparams, cfg), train=tc)
    ds = _load_experiment_data(cfg)
    # the output layer has one unit per label up to the largest
    empty = _first_empty(ds.targets)
    if empty is not None:
        raise InputError(f"{cfg.data or cfg.scenario}: class {empty} has no samples")
    train, val, test = split_dataset(ds, cfg.split, seed=cfg.seed)
    dims = [ds.dim, *cfg.hidden, ds.num_classes]
    model = MLPClassifier(dims, activation=cfg.activation, seed=cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    if cfg.method == "naive":
        baselines.train_naive(model, train, val, tc, cfg.loss)
    elif cfg.method == "rebalanced":
        baselines.train_rebalanced(model, train, val, tc, cfg.loss)
    else:
        _model, trace = adaptive.pareto_fair_optimize(train, val, model, hp, cfg.loss)
        adaptive.write_trace_csv(trace, os.path.join(cfg.out, "trace.csv"))
    save_checkpoint(model, os.path.join(cfg.out, "model.ckpt"))
    metrics = report.compute_metrics(model, test, cfg.method)
    metrics_path = os.path.join(cfg.out, "metrics.csv")
    report.save_metrics_csv(metrics, metrics_path)
    print(f"{cfg.method}: test brier per group {np.array2string(metrics.brier, precision=4)} -> {metrics_path}")
    return 0


def cmd_postproc(args) -> int:
    model = load_checkpoint(args.checkpoint)
    ds = load_csv(args.data)
    fit_set, holdout = split_dataset(ds, (0.5, 0.5), seed=args.seed)
    decisions = model.decisions(fit_set.features)
    rule = baselines.fit_equalizing_rule(
        decisions, (decisions == fit_set.targets).astype(int), fit_set.groups
    )
    os.makedirs(args.out, exist_ok=True)
    baselines.save_rule_csv(rule, os.path.join(args.out, "rule.csv"))
    base = model.decisions(holdout.features)
    post = baselines.apply_rule(rule, base, holdout.groups, seed=args.seed)
    pre_metrics = report.compute_metrics(model, holdout, "pre_rule")
    post_metrics = report.metrics_from_decisions(post, holdout, pre_metrics.brier, "post_rule")
    report.save_metrics_csv(pre_metrics, os.path.join(args.out, "metrics_pre.csv"))
    report.save_metrics_csv(post_metrics, os.path.join(args.out, "metrics_post.csv"))
    print(
        f"keep probs {np.array2string(rule.keep_prob, precision=4)}; "
        f"holdout accuracies {np.array2string(post_metrics.accuracy, precision=4)}"
    )
    return 0


def cmd_report(args) -> int:
    if not args.metrics:
        raise ValueError("no metrics files given")
    header, rows = report.combine_reports(args.metrics, out_csv=args.out)
    print(report.format_table(header, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="paretofair", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="sample a dataset CSV from a scenario file")
    s.add_argument("--scenario", required=True)
    s.add_argument("--n", type=int, default=20000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("oracle", help="trace the exact Pareto front of a scenario")
    s.add_argument("--scenario", required=True)
    s.add_argument("--num-lambda", type=int, default=1001)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_oracle)

    s = sub.add_parser("train", help="train a model (naive, rebalanced or paretofair)")
    s.add_argument("--config", default=None)
    s.add_argument("--scenario", default=None)
    s.add_argument("--data", default=None)
    s.add_argument("--method", default=None, choices=["naive", "rebalanced", "paretofair"])
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("postproc", help="fit and apply an accuracy-equalizing rule")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_postproc)

    s = sub.add_parser("report", help="combine metrics CSVs into one table")
    s.add_argument("metrics", nargs="*")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"paretofair {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
