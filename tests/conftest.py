import numpy as np
import pytest

from paretofair.oracle import ScenarioParams, make_scenario


@pytest.fixture(scope="session")
def acceptance_spec():
    """The fixed two-group scenario used across the suite."""
    return make_scenario(ScenarioParams())


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


@pytest.fixture(scope="session")
def three_group_spec():
    """Three groups of falling size and rising label noise."""
    params = ScenarioParams(
        priors=(0.5, 0.3, 0.2),
        rho_low=(0.1, 0.2, 0.3),
        rho_high=(0.9, 0.8, 0.7),
        density_centers=(0.4, 0.5, 0.6),
        density_widths=(0.15, 0.15, 0.15),
    )
    return make_scenario(params)


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
