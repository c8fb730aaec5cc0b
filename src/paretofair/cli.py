"""Command line interface: synth, oracle, train, postproc, report.

Configuration is a flat ``key = value`` text file; any CLI flag overrides the
file value. Every command exits 0 on success and nonzero with a one-line
diagnostic on error. All outputs are deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from paretofair import adaptive, baselines, oracle, report
from paretofair.data import GroupedDataset, _fractions_ok, _naming, load_csv, load_key_values, save_csv, split_dataset
from paretofair.model import ACTIVATIONS, MLPClassifier, load_checkpoint, save_checkpoint
from paretofair.risk import InputError, _check_field, _check_seed, _first_empty, _is_int, max_gap

METHODS = ("naive", "rebalanced", "paretofair")


@dataclass
class ExperimentConfig(adaptive.PFHyperparams):
    """Every key a ``--config`` file may set: the trainer settings it inherits, and these."""

    scenario: str | None = None
    data: str | None = None
    method: str = "paretofair"
    hidden: tuple = (64, 64)
    activation: str = "relu"
    n: int = 20000
    split: tuple = (0.6, 0.2, 0.2)
    out: str = "out"

    def __post_init__(self):
        # before TrainConfig's own seed check, so an error states the bound the checkpoint needs
        _check_seed(self.seed, int64=True)
        super().__post_init__()
        _check_field(self, "method", self.method in METHODS, f"one of {METHODS}")
        _check_field(self, "activation", self.activation in ACTIVATIONS, f"one of {ACTIVATIONS}")
        _check_field(self, "hidden", all(_is_int(w) and w >= 1 for w in self.hidden), "integer widths >= 1")
        _check_field(self, "n", _is_int(self.n) and self.n >= 1, "an integer >= 1")
        _check_field(self, "split", len(self.split) == 3, "three fractions (train, validation, test)")
        _check_field(self, "split", _fractions_ok(self.split), "positive fractions that sum to 1")


def build_config(path, overrides: dict) -> ExperimentConfig:
    """The config file's values, if there is a file, under every non-None override."""
    cfg = load_key_values(path, ExperimentConfig) if path else ExperimentConfig()
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _load_experiment_data(cfg: ExperimentConfig) -> GroupedDataset:
    if bool(cfg.data) == bool(cfg.scenario):
        raise InputError("set exactly one of 'data' (CSV path) and 'scenario' (scenario file)")
    if cfg.data:
        return load_csv(cfg.data)
    return _naming(cfg.scenario, oracle.sample_dataset, _load_scenario(cfg.scenario), cfg.n, cfg.seed)


def _load_scenario(path) -> oracle.ScenarioSpec:
    """The scenario of the file ``path``, built; every error names the file (``load_scenario``'s already do)."""
    return _naming(path, oracle.make_scenario, oracle.load_scenario(path))


def cmd_synth(args) -> int:
    # train's data step, under train's checks of seed and n
    ds = _load_experiment_data(ExperimentConfig(scenario=args.scenario, n=args.n, seed=args.seed))
    save_csv(ds, args.out)
    print(f"wrote {ds.n} samples to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    spec = _load_scenario(args.scenario)
    front = oracle.trace_front(spec, args.num_lambda)
    os.makedirs(args.out, exist_ok=True)
    front_path = os.path.join(args.out, "front.csv")
    refs_path = os.path.join(args.out, "reference_points.csv")
    refs = oracle.reference_points(spec, front)
    oracle.write_front_csv(front, front_path)
    oracle.write_reference_csv(refs, refs_path)
    pf = refs["pareto_fair"]
    print(
        f"front: {len(front)} points -> {front_path}; "
        f"pareto-fair risks {np.array2string(pf, precision=4)} gap {max_gap(pf):.4f}"
    )
    return 0


def cmd_train(args) -> int:
    overrides = {"scenario": args.scenario, "data": args.data, "method": args.method,
                 "seed": args.seed, "out": args.out}
    # every setting is checked before any data is loaded or written
    cfg = build_config(args.config, overrides)
    ds = _load_experiment_data(cfg)
    # the output layer has one unit per label up to the largest
    empty = _first_empty(ds.targets)
    if empty is not None:
        raise InputError(f"{cfg.data or cfg.scenario}: class {empty} has no samples")
    dims = [ds.dim, *cfg.hidden, ds.num_classes]
    train, val, test = _naming(cfg.data or cfg.scenario, split_dataset, ds, cfg.split, seed=cfg.seed)
    del ds  # the splits hold copies of its rows
    if dims[-1] < 2:
        raise InputError(f"{cfg.data or cfg.scenario}: needs at least two classes")
    model = MLPClassifier(dims, activation=cfg.activation, seed=cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    if cfg.method == "naive":
        baselines.train_naive(model, train, val, cfg)
    elif cfg.method == "rebalanced":
        baselines.train_rebalanced(model, train, val, cfg)
    else:
        _model, trace = adaptive.pareto_fair_optimize(train, val, model, cfg)
        adaptive.write_trace_csv(trace, os.path.join(cfg.out, "trace.csv"))
    save_checkpoint(model, os.path.join(cfg.out, "model.ckpt"))
    metrics = report.compute_metrics(model.forward(test.features), test, cfg.method)
    metrics_path = os.path.join(cfg.out, "metrics.csv")
    report.save_metrics_csv(metrics, metrics_path)
    print(f"{cfg.method}: test brier per group {np.array2string(metrics.brier, precision=4)} -> {metrics_path}")
    return 0


def cmd_postproc(args) -> int:
    _check_seed(args.seed, int64=True)
    model = load_checkpoint(args.checkpoint)
    ds = load_csv(args.data)
    if ds.dim != model.layer_dims[0] or ds.num_classes > model.num_classes:
        raise InputError(f"{args.data} has {ds.dim} feature(s) and labels 0..{ds.num_classes - 1}, but "
                         f"{args.checkpoint} takes {model.layer_dims[0]} feature(s), {model.num_classes} class(es)")
    if model.num_classes != 2:  # the rule mixes each decision with a fair coin over {0, 1}
        raise InputError(f"{args.checkpoint}: the rule needs a two-class model, got {model.num_classes} classes")
    fit_set, holdout = _naming(args.data, split_dataset, ds, (0.5, 0.5), seed=args.seed)
    del ds  # the halves hold copies of its rows
    decisions = model.decisions(fit_set.features)
    keep_prob = baselines.fit_equalizing_rule(decisions == fit_set.targets, fit_set.groups)
    os.makedirs(args.out, exist_ok=True)
    baselines.save_rule_csv(keep_prob, os.path.join(args.out, "rule.csv"))
    probs = model.forward(holdout.features)
    post = baselines.apply_rule(keep_prob, probs.argmax(axis=1), holdout.groups, seed=args.seed)
    pre_metrics = report.compute_metrics(probs, holdout, "pre_rule")
    post_metrics = report.metrics_from_decisions(post, holdout, pre_metrics.brier, "post_rule")
    report.save_metrics_csv(pre_metrics, os.path.join(args.out, "metrics_pre.csv"))
    report.save_metrics_csv(post_metrics, os.path.join(args.out, "metrics_post.csv"))
    print(
        f"keep probs {np.array2string(keep_prob, precision=4)}; "
        f"holdout accuracies {np.array2string(post_metrics.accuracy, precision=4)}"
    )
    return 0


def cmd_report(args) -> int:
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
    s.add_argument("--method", default=None, choices=METHODS)
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
