"""Per-group metrics and the combined summary table.

Metrics CSV schema: columns method, group, ratio, accuracy, brier, n. Summary
rows use the reserved group values __sample_mean, __group_mean and
__discrepancy (their ratio / n cells are empty).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from paretofair.data import GroupedDataset, exact_header, read_table, write_table
from paretofair.model import MLPClassifier
from paretofair.risk import InputError, group_means, group_risks, metric_summary

SUMMARY_ROWS = ("__sample_mean", "__group_mean", "__discrepancy")
_HEADER = ["method", "group", "ratio", "accuracy", "brier", "n"]


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
    rows = [
        [metrics.method, name, metrics.ratios[a], metrics.accuracy[a], metrics.brier[a], int(metrics.counts[a])]
        for a, name in enumerate(metrics.group_names)
    ]
    rows += [[metrics.method, name, "", av, bv, ""] for name, av, bv in zip(SUMMARY_ROWS, acc_s, bs_s)]
    write_table(path, _HEADER, rows)


def _parse_metrics_row(row):
    method, name, ratio, acc, brier, _n = row
    if name in SUMMARY_ROWS:
        return method, name, (float(acc), float(brier))
    return method, name, (float(ratio), float(acc), float(brier))


def load_metrics_csv(path):
    """Returns (method, group rows dict, summary rows dict); the method is the last row's."""
    rows = read_table(path, exact_header(_HEADER, _parse_metrics_row))
    summary = {name: values for _method, name, values in rows if name in SUMMARY_ROWS}
    for name in SUMMARY_ROWS:
        if name not in summary:
            raise InputError(f"{path}: missing summary row {name}")
    groups = {name: values for _method, name, values in rows if name not in SUMMARY_ROWS}
    return rows[-1][0], groups, summary


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
        row = [name, loaded[0][1][name][0]]
        for _method, groups, _s in loaded:
            row += groups[name][1:]
        rows.append(row)
    for summary_name in SUMMARY_ROWS:
        row = [summary_name, ""]
        for _method, _g, summary in loaded:
            row += summary[summary_name]
        rows.append(row)
    if out_csv is not None:
        write_table(out_csv, header, rows)
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
