import numpy as np
import pytest

from paretofair.oracle import ScenarioParams, make_scenario, trace_front
from paretofair.risk import group_risks

# a longer parametrize id fails collection: name such a case with pytest.param(..., id=...)
MAX_ID_LENGTH = 60


def pytest_collection_modifyitems(config, items):
    too_long = [item.nodeid for item in items if hasattr(item, "callspec") and len(item.callspec.id) > MAX_ID_LENGTH]
    if too_long:
        raise pytest.UsageError(f"{len(too_long)} test ids are longer than {MAX_ID_LENGTH} characters; name their "
                                "cases with pytest.param(..., id=...):\n" + "\n".join(too_long))


@pytest.fixture(scope="session")
def acceptance_spec():
    """The fixed two-group scenario used across the suite."""
    return make_scenario(ScenarioParams())


@pytest.fixture(scope="session")
def front(acceptance_spec):
    """The exact front of ``acceptance_spec`` at 1001 scalarization weights."""
    return trace_front(acceptance_spec, 1001)


@pytest.fixture(scope="session")
def symmetric_spec():
    """Identical densities and label levels for both groups: zero-gap optimum."""
    params = ScenarioParams(
        priors=(0.5, 0.5),
        rho_low=(0.1, 0.1),
        rho_high=(0.9, 0.9),
        density_centers=(0.5, 0.5),
        density_widths=(0.15, 0.15),
        transition_center=0.5,
        transition_delta=0.0,
    )
    return make_scenario(params)


# three groups of falling size and rising label noise
THREE_GROUP_PARAMS = ScenarioParams(
    priors=(0.5, 0.3, 0.2),
    rho_low=(0.1, 0.2, 0.3),
    rho_high=(0.9, 0.8, 0.7),
    density_centers=(0.4, 0.5, 0.6),
    density_widths=(0.15, 0.15, 0.15),
)


@pytest.fixture(scope="session")
def three_group_spec():
    return make_scenario(THREE_GROUP_PARAMS)


def model_risks(model, ds, loss="brier"):
    """Group risks of ``model``'s predictions on the dataset ``ds``."""
    return group_risks(model.forward(ds.features), ds.targets, ds.groups, loss)


def brute_force_nondominated(vectors):
    """O(n^2) scan: keep v iff no other vector dominates it."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    keep = []
    for i, v in enumerate(vectors):
        dominated = False
        for j, u in enumerate(vectors):
            if i != j and np.all(u <= v) and np.any(u < v):
                dominated = True
                break
        if not dominated:
            keep.append(tuple(v))
    return set(keep)
