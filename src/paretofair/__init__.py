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
* ``cli``       -- the ``paretofair`` command line tool.
"""

from paretofair.data import GroupedDataset, load_csv, save_csv, split_dataset
from paretofair.risk import (
    ParetoArchive,
    RiskVector,
    archive_insert,
    brier_loss,
    cross_entropy_loss,
    dominates,
    group_risks,
    metric_summary,
)
from paretofair.model import MLPClassifier, TrainConfig, sgd_early_stop, weighted_grad
from paretofair.adaptive import (
    AdaptiveLossState,
    PFHyperparams,
    adaptive_loss,
    evaluate_risk,
    group_weights,
    pareto_fair_optimize,
)
from paretofair.oracle import (
    ScenarioParams,
    FrontPoint,
    ScenarioSpec,
    bayes_noise,
    disparity_tradeoff,
    exact_group_risks,
    make_scenario,
    pareto_fair_point,
    reference_points,
    sample_dataset,
    scalarized_bayes_predictor,
    trace_front,
)
from paretofair.baselines import (
    RandomizedGroupRule,
    apply_rule,
    fit_equalizing_rule,
    train_naive,
    train_rebalanced,
)

__version__ = "0.1.0"
