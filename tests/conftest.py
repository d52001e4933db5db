import numpy as np
import pytest

from zpolicy import (
    LoadParams, build_environment, default_z_grid, sensitivity_curves,
)

# reference instance: Theta = (50, 100), z = 100, symmetric wind and comfort
# switching, c = 1.1, h = 1; discomfort weight chosen so the optimal
# distribution is nondegenerate while the analytic and simulated costs agree
GAMMA_REF = 0.1


@pytest.fixture(scope="session")
def ref_env():
    return build_environment((0.04, 0.04), (0.02, 0.02))


@pytest.fixture(scope="session")
def ref_params():
    return LoadParams(h=1.0, c=1.1, comfort_levels=(50.0, 100.0))


@pytest.fixture(scope="session")
def ref_curves(ref_env, ref_params):
    return sensitivity_curves(ref_env, ref_params,
                              z_grid=default_z_grid(ref_params))


@pytest.fixture(scope="session")
def env3():
    return build_environment((0.04, 0.04), [(0.02, 0.02), (0.02, 0.02)])


@pytest.fixture(scope="session")
def params3():
    return LoadParams(h=1.0, c=1.1, comfort_levels=(40.0, 70.0, 100.0))


@pytest.fixture(scope="session")
def curves3(env3, params3):
    return sensitivity_curves(env3, params3, z_grid=default_z_grid(params3))


@pytest.fixture(scope="session")
def env_w3():
    # three wind states (off / half / full), binary comfort
    return build_environment([(0.04, 0.04), (0.04, 0.04)], (0.02, 0.02))


def random_step_distribution(rng, domain=(0.0, 100.0), max_steps=8):
    from zpolicy import ThresholdDistribution
    k = int(rng.integers(1, max_steps))
    locs = np.sort(rng.uniform(domain[0], domain[1], k))
    vals = np.sort(rng.uniform(0.0, 1.0, k))
    return ThresholdDistribution.step_function(locs, vals, domain=domain)


# every (W, C) pair of wind and comfort chain sizes up to 4
CHAIN_SIZES = [(w, c) for w in range(1, 5) for c in range(1, 5)]


def chain_model(n_wind: int, n_comfort: int) -> dict:
    """The config model block of a W x C instance: comfort levels evenly
    spaced up to 100, and birth-death chains with unequal up/down rates."""
    return {"h": 1.0, "c": 1.1,
            "comfort_levels": [100.0 * (j + 1) / n_comfort for j in range(n_comfort)],
            "wind_rates": [[0.04, 0.03]] * (n_wind - 1),
            "comfort_rates": [[0.02, 0.025]] * (n_comfort - 1)}


def chain_instance(n_wind: int, n_comfort: int):
    """(env, params) of chain_model(n_wind, n_comfort)."""
    m = chain_model(n_wind, n_comfort)
    return (build_environment(m["wind_rates"], m["comfort_rates"]),
            LoadParams(h=m["h"], c=m["c"], comfort_levels=m["comfort_levels"]))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two float arrays have one shape and the same bit patterns,
    so -0.0 differs from 0.0 and equal NaNs match."""
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))
