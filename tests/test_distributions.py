import numpy as np
import pytest

from zpolicy import ThresholdDistribution
from zpolicy.errors import NotADistribution


def test_step_function_evaluation():
    u = ThresholdDistribution.step_function([40.0, 80.0], [0.25, 1.0],
                                            (0.0, 100.0))
    assert float(u(10.0)) == 0.0
    assert float(u(40.0)) == 0.25      # right-continuous
    assert float(u.left_values(40.0)) == 0.0
    assert float(u(60.0)) == 0.25
    assert float(u(80.0)) == 1.0


def test_quantile_left_continuous_inverse():
    u = ThresholdDistribution.step_function([40.0, 80.0], [0.25, 1.0],
                                            (0.0, 100.0))
    assert float(u.quantile(0.1)) == 40.0
    assert float(u.quantile(0.25)) == 40.0
    assert float(u.quantile(0.26)) == 80.0
    assert float(u.quantile(1.0)) == 80.0


def test_from_quantiles_roundtrip():
    z = np.array([55.0, 55.0, 70.0, 90.0])
    u = ThresholdDistribution.from_quantiles(z, (0.0, 100.0))
    assert np.array_equal(u.sample_quantiles(4), np.sort(z))


def test_jumps_include_boundaries():
    u = ThresholdDistribution.step_function([50.0], [0.6], (0.0, 100.0))
    jumps = u.jumps
    locs = [j[0] for j in jumps]
    assert 50.0 in locs
    assert 100.0 in locs               # terminal jump to 1


def test_monotonicity_violations_rejected():
    with pytest.raises(NotADistribution):
        ThresholdDistribution(x=np.array([0.0, 50.0, 100.0]),
                              values=np.array([0.0, 0.8, 0.5]),
                              domain=(0.0, 100.0))
    with pytest.raises(NotADistribution):
        ThresholdDistribution(x=np.array([0.0, 100.0]),
                              values=np.array([0.0, 1.4]),
                              domain=(0.0, 100.0))


def test_regrid_preserves_jumps():
    u = ThresholdDistribution.step_function([50.0], [1.0], (0.0, 100.0))
    u2 = u.regrid(np.linspace(0.0, 100.0, 173))
    probe = np.linspace(0.0, 100.0, 1001)
    assert np.array_equal(u(probe), u2(probe))
    assert np.array_equal(u.left_values(probe), u2.left_values(probe))


def test_uniform_distribution():
    u = ThresholdDistribution.uniform((0.0, 100.0))
    assert float(u(50.0)) == 0.5
    assert float(u.quantile(0.3)) == pytest.approx(30.0)


def _random_steps(rng, domain):
    """Step nodes with repeated locations and, at random, jumps at both
    domain ends (a first location at the low end, a last level below 1)."""
    lo, hi = domain
    k = int(rng.integers(1, 9))
    locs = np.sort(rng.choice(np.linspace(lo, hi, 6), k) if rng.random() < 0.5
                   else rng.uniform(lo, hi, k))
    if rng.random() < 0.3:
        locs[0] = lo
    if rng.random() < 0.3:
        locs[-1] = hi
    levels = np.sort(rng.uniform(0.0, 1.0, k))
    if rng.random() < 0.5:
        levels[-1] = 1.0
    return locs, levels


def _probes(rng, u):
    """Evaluation points: every node, points inside, and points outside the
    domain."""
    lo, hi = u.domain
    return np.concatenate([u.x, rng.uniform(lo - 10.0, hi + 10.0, 40), [lo, hi]])


def _same_evaluation(u, x_ref, v_ref, zq):
    import reference_distributions as ref
    assert u(zq).tobytes() == ref.evaluate(x_ref, v_ref, zq).tobytes()
    assert u.left_values(zq).tobytes() == ref.left_values(x_ref, v_ref, zq).tobytes()
    for z in zq[:5]:
        assert u(z) == ref.evaluate(x_ref, v_ref, z)
        assert type(u(z)) is float
        assert u.left_values(z) == ref.left_values(x_ref, v_ref, z)


@pytest.mark.parametrize("seed", range(40))
def test_constructors_and_evaluators_match_frozen_reference(seed):
    import reference_distributions as ref
    rng = np.random.default_rng(seed)
    domain = (0.0, 100.0) if seed % 2 else (-3.0, 7.5)
    lo, hi = domain
    locs, levels = _random_steps(rng, domain)
    u = ThresholdDistribution.step_function(locs, levels, domain)
    x_ref, v_ref = ref.step_function(locs, levels, domain)
    assert u.x.tobytes() == x_ref.tobytes() and u.values.tobytes() == v_ref.tobytes()
    _same_evaluation(u, x_ref, v_ref, _probes(rng, u))

    n = int(rng.integers(1, 12))
    set_points = rng.choice(np.concatenate([[lo, hi], rng.uniform(lo, hi, 3)]), n)
    u = ThresholdDistribution.from_quantiles(set_points, domain)
    x_ref, v_ref = ref.from_quantiles(set_points, domain)
    assert u.x.tobytes() == x_ref.tobytes() and u.values.tobytes() == v_ref.tobytes()
    _same_evaluation(u, x_ref, v_ref, _probes(rng, u))

    # a piecewise-linear grid with a jump inside and at each end
    xs = np.sort(np.concatenate([[lo, lo, hi, hi], rng.uniform(lo, hi, 4)]))
    xs[4] = xs[3]
    vs = np.sort(rng.uniform(0.0, 1.0, len(xs)))
    u = ThresholdDistribution.from_grid(xs, vs, domain=domain)
    _same_evaluation(u, u.x, u.values, _probes(rng, u))


def test_single_node_evaluation_matches_frozen_reference():
    u = ThresholdDistribution(x=np.array([40.0]), values=np.array([0.6]), domain=(0.0, 100.0))
    _same_evaluation(u, u.x, u.values, np.array([10.0, 40.0, 90.0, 40.0, 40.0]))
