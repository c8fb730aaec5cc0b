"""Training classifiers that minimize group risk disparity without unnecessary harm.

The package provides:

* ``risk``      -- group-conditional risk accounting, the max risk gap,
                   Pareto dominance and a non-dominated archive.
* ``model``     -- a small from-scratch differentiable model family (linear /
                   MLP softmax classifiers) with weighted minibatch SGD and
                   early stopping.
* ``adaptive``  -- the adaptive penalized loss and the outer optimization
                   loop that steers training toward the Pareto-fair point.
* ``oracle``    -- an exact grid-discretized synthetic scenario family with
                   analytic Pareto front tracing, used as ground truth.
* ``baselines`` -- naive ERM, group-rebalanced training and a randomized
                   accuracy-equalizing post-processing rule.
* ``data``      -- grouped datasets, stratified splits, and the file formats:
                   CSV tables and ``key = value`` settings files.
* ``report``    -- per-group metrics and the combined summary table.
* ``cli``       -- the ``paretofair`` command line tool.

Import from the submodules, e.g. ``from paretofair.oracle import trace_front``.
"""

__version__ = "0.1.0"
