"""Per-group metrics and the combined summary table.

Metrics CSV schema: columns method, group, ratio, accuracy, brier, n. Summary
rows use the reserved group values __sample_mean, __group_mean and
__discrepancy (their ratio / n cells are empty).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from paretofair.data import GroupedDataset
from paretofair.model import MLPClassifier
from paretofair.risk import InputError, group_means, group_risks, metric_summary

SUMMARY_ROWS = ("__sample_mean", "__group_mean", "__discrepancy")


@dataclass(frozen=True)
class MethodMetrics:
    method: str
    group_names: tuple
    ratios: np.ndarray
    accuracy: np.ndarray
    brier: np.ndarray
    counts: np.ndarray


def compute_metrics(model: MLPClassifier, test: GroupedDataset, method: str) -> MethodMetrics:
    probs = model.forward(test.features)
    r = group_risks(probs, test.targets, test.groups, "brier")
    acc, _counts = group_means(np.argmax(probs, axis=1) == test.targets, test.groups, test.num_groups)
    return MethodMetrics(
        method=method,
        group_names=test.group_names,
        ratios=test.group_ratios(),
        accuracy=acc,
        brier=r.risks.copy(),
        counts=r.counts.copy(),
    )


def metrics_from_decisions(decisions, test: GroupedDataset, brier, method: str) -> MethodMetrics:
    """Metrics where decisions come from a (possibly randomized) rule."""
    decisions = np.asarray(decisions, dtype=int)
    acc, counts = group_means(decisions == test.targets, test.groups, test.num_groups)
    return MethodMetrics(
        method=method,
        group_names=test.group_names,
        ratios=test.group_ratios(),
        accuracy=acc,
        brier=np.asarray(brier, dtype=float),
        counts=counts,
    )


def save_metrics_csv(metrics: MethodMetrics, path):
    acc_s = metric_summary(metrics.accuracy, metrics.ratios)
    bs_s = metric_summary(metrics.brier, metrics.ratios)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "group", "ratio", "accuracy", "brier", "n"])
        for a, name in enumerate(metrics.group_names):
            w.writerow(
                [
                    metrics.method,
                    name,
                    repr(float(metrics.ratios[a])),
                    repr(float(metrics.accuracy[a])),
                    repr(float(metrics.brier[a])),
                    int(metrics.counts[a]),
                ]
            )
        for row_name, av, bv in zip(SUMMARY_ROWS, acc_s, bs_s):
            w.writerow([metrics.method, row_name, "", repr(av), repr(bv), ""])


def load_metrics_csv(path):
    """Returns (method, group rows dict, summary rows dict)."""
    groups = {}
    summary = {}
    method = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file")
        if header != ["method", "group", "ratio", "accuracy", "brier", "n"]:
            raise InputError(f"{path}: unexpected metrics header {header}")
        for row in reader:
            if len(row) != len(header):
                raise InputError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
            method = row[0]
            try:
                if row[1] in SUMMARY_ROWS:
                    summary[row[1]] = (float(row[3]), float(row[4]))
                else:
                    groups[row[1]] = (float(row[2]), float(row[3]), float(row[4]))
            except ValueError as exc:
                raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    if method is None:
        raise InputError(f"{path}: no rows")
    return method, groups, summary


def combine_reports(paths, out_csv=None):
    """Merge per-method metrics CSVs into one table.

    Returns (header, rows); optionally writes the combined CSV. All inputs
    must share the same group set.
    """
    if not paths:
        raise InputError("no metrics files given")
    loaded = [load_metrics_csv(p) for p in paths]
    group_set = list(loaded[0][1].keys())
    for path, (method, groups, _s) in zip(paths, loaded):
        if list(groups.keys()) != group_set:
            raise InputError(f"{path}: group set differs from {paths[0]}")
    header = ["group", "ratio"]
    for method, _g, _s in loaded:
        header += [f"{method}_acc", f"{method}_brier"]
    rows = []
    for name in group_set:
        row = [name, repr(loaded[0][1][name][0])]
        for _method, groups, _s in loaded:
            _ratio, acc, bs = groups[name]
            row += [repr(acc), repr(bs)]
        rows.append(row)
    for summary_name in SUMMARY_ROWS:
        row = [summary_name, ""]
        for _method, _g, summary in loaded:
            acc, bs = summary[summary_name]
            row += [repr(acc), repr(bs)]
        rows.append(row)
    if out_csv is not None:
        with open(out_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    return header, rows


def format_table(header, rows) -> str:
    """Plain-text table with aligned columns and shortened floats."""

    def fmt(cell):
        try:
            return f"{float(cell):.4f}"
        except (TypeError, ValueError):
            return str(cell)

    # the leading group column is a label, never a number
    table = [header] + [[row[0]] + [fmt(c) for c in row[1:]] for row in rows]
    widths = [max(len(r[j]) for r in table) for j in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
