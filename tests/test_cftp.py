from dataclasses import replace

import numpy as np
import pytest

from zpolicy import (
    CftpConfig, LoadParams, ThresholdDistribution, cftp_sample, cftp_samples,
    estimate_joint_cost, smooth_distribution, solve_stationary,
)
from zpolicy.errors import EmptySamples, NoCoalescence
from zpolicy.model import MarkovEnvironment


def _rngs(seed, n):
    return [np.random.default_rng(np.random.SeedSequence([seed, k]).generate_state(1)[0])
            for k in range(n)]


def _ref_cftp_config(set_points=(70.0, 90.0), seed=3):
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(50.0, 100.0))
    return CftpConfig(wind_rates=(0.04, 0.04),
                      load_params=(params,) * len(set_points),
                      comfort_rates=((0.02, 0.02),) * len(set_points),
                      set_points=tuple(set_points), seed=seed)


def test_deterministic_environment_coalesces_immediately():
    # wind stuck off and a single fixed comfort level: both chains park at
    # min(Z, Theta) within the first horizon
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(80.0,))
    cfg = CftpConfig(wind_rates=(1e-9, 1e9),   # wind effectively never on
                     load_params=(params, params),
                     comfort_rates=((), ()),
                     set_points=(30.0, 60.0), seed=1)
    sample = cftp_sample(cfg, np.random.default_rng(0))
    assert sample.temperatures == pytest.approx([30.0, 60.0], abs=1e-9)
    assert sample.horizon == pytest.approx(4.0 * 80.0 / 1.0)


def test_single_load_samples_match_analytic(ref_env, ref_params):
    cfg = CftpConfig(wind_rates=(0.04, 0.04), load_params=(ref_params,),
                     comfort_rates=((0.02, 0.02),), set_points=(100.0,), seed=2)
    temps = np.array([s.temperatures[0] for s in cftp_samples(cfg, _rngs(11, 2500))])
    dist = solve_stationary(100.0, ref_env, ref_params)
    grid = np.linspace(0.0, 100.0, 51)
    emp = np.array([(temps <= g + 1e-9).mean() for g in grid])
    assert np.abs(emp - dist.cdf(grid)).max() <= 0.03


def test_identical_loads_equal_set_points_coincide():
    # identical coupling requires identical randomness: share the comfort chain
    base = _ref_cftp_config(set_points=(80.0, 80.0))
    cfg = CftpConfig(wind_rates=base.wind_rates, load_params=base.load_params,
                     comfort_rates=base.comfort_rates,
                     set_points=base.set_points, seed=base.seed,
                     shared_comfort=True)
    for k in range(30):
        s = cftp_sample(cfg, np.random.default_rng(
            np.random.SeedSequence([5, k]).generate_state(1)[0]))
        assert s.temperatures[0] == s.temperatures[1]
        assert s.comfort[0] == s.comfort[1]


def test_coupled_homogeneous_cost_matches_analytic(ref_env, ref_params, ref_curves):
    # shared comfort reproduces the homogeneous model, so the perfect-sample
    # cost estimate must agree with the dominance-based finite cost; the
    # discomfort term is heavy-tailed, so the estimate needs many draws
    from zpolicy import finite_cost
    z = (60.0, 80.0)
    base = _ref_cftp_config(set_points=z)
    cfg = CftpConfig(wind_rates=base.wind_rates, load_params=base.load_params,
                     comfort_rates=base.comfort_rates, set_points=z,
                     seed=base.seed, shared_comfort=True)
    samples = cftp_samples(cfg, _rngs(31, 6000))
    rep = estimate_joint_cost(samples, cfg, gamma=0.1)
    analytic = finite_cost(list(z), ref_env, ref_params, 0.1, curves=ref_curves)
    assert abs(rep.total - analytic.total) <= \
        max(2.0 * rep.std_error, 0.05 * analytic.total)


def test_coalescence_fraction_nondecreasing_in_horizon():
    cfg = _ref_cftp_config()
    horizons = (40.0, 80.0, 160.0, 320.0, 640.0)
    fractions = []
    for t_hor in horizons:
        hits = 0
        for k in range(40):
            c = CftpConfig(wind_rates=cfg.wind_rates, load_params=cfg.load_params,
                           comfort_rates=cfg.comfort_rates,
                           set_points=cfg.set_points, seed=cfg.seed,
                           initial_horizon=t_hor, max_doublings=1)
            rng = np.random.default_rng(np.random.SeedSequence([9, k]).generate_state(1)[0])
            try:
                cftp_sample(c, rng)
                hits += 1
            except NoCoalescence:
                pass
        fractions.append(hits / 40)
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == 1.0


def test_no_coalescence_reports_horizon():
    cfg = CftpConfig(wind_rates=(0.04, 0.04),
                     load_params=(LoadParams(1.0, 1.1, (50.0, 100.0)),),
                     comfort_rates=((0.02, 0.02),), set_points=(90.0,),
                     seed=0, initial_horizon=0.25, max_doublings=1)
    with pytest.raises(NoCoalescence):
        cftp_sample(cfg, np.random.default_rng(1))


def test_estimate_joint_cost_empty():
    with pytest.raises(EmptySamples):
        estimate_joint_cost([], _ref_cftp_config(), gamma=0.1)


def test_estimate_joint_cost_free_samples_zero_power():
    from zpolicy.cftp import JointSample
    cfg = _ref_cftp_config()
    samples = [JointSample(temperatures=np.array([20.0, 30.0]), wind=0,
                           comfort=np.array([1, 1]), horizon=100.0)
               for _ in range(10)]
    rep = estimate_joint_cost(samples, cfg, gamma=0.1)
    assert rep.power_cost == 0.0
    assert rep.discomfort_cost == 0.0


def _per_load_cost(samples, cfg, gamma):
    # frozen copy of the earlier per-load loop, exact for two wind states:
    # parked with wind off draws h, a violation with wind off draws h + c
    power, disc = [], []
    for smp in samples:
        draw = pen = 0.0
        for i, p in enumerate(cfg.load_params):
            theta = p.comfort_levels[int(smp.comfort[i])]
            xi = float(smp.temperatures[i])
            if xi > theta + 1e-9:
                pen += (xi - theta) ** 2
                if smp.wind == 0:
                    draw += p.h + p.c
            elif smp.wind == 0 and abs(xi - min(cfg.set_points[i], theta)) <= 1e-7:
                draw += p.h
        power.append((draw / cfg.n_loads) ** 2)
        disc.append(pen / cfg.n_loads)
    return np.mean(power), np.mean(disc)


def test_estimate_joint_cost_matches_per_load_loop():
    cfg = _ref_cftp_config(set_points=(55.0, 65.0, 75.0, 85.0, 95.0))
    samples = [cftp_sample(cfg, np.random.default_rng([8, k])) for k in range(300)]
    rep = estimate_joint_cost(samples, cfg, gamma=0.1)
    power, disc = _per_load_cost(samples, cfg, 0.1)
    assert rep.power_cost == pytest.approx(power, rel=1e-12)
    assert rep.discomfort_cost == pytest.approx(disc, rel=1e-12)


def test_estimate_joint_cost_se_shrinks():
    cfg = _ref_cftp_config(set_points=(60.0, 70.0, 80.0, 90.0, 100.0))
    cfg = CftpConfig(wind_rates=cfg.wind_rates,
                     load_params=(cfg.load_params[0],) * 5,
                     comfort_rates=((0.02, 0.02),) * 5,
                     set_points=cfg.set_points, seed=1)
    samples = cftp_samples(cfg, _rngs(3, 400))
    small = estimate_joint_cost(samples[:100], cfg, gamma=0.1)
    big = estimate_joint_cost(samples, cfg, gamma=0.1)
    assert big.total > 0
    assert big.std_error < small.std_error
    assert big.std_error == pytest.approx(small.std_error / 2.0, rel=0.5)


def test_smooth_box_kernel_gives_linear_ramp():
    u = ThresholdDistribution.step_function([50.0], [1.0], (0.0, 100.0))
    sm = smooth_distribution(u, bandwidth=10.0, kernel="box", n_grid=2001)
    probe = np.linspace(41.0, 59.0, 19)
    expect = np.clip((probe - 40.0) / 20.0, 0.0, 1.0)
    assert np.abs(sm(probe) - expect).max() <= 0.01
    assert float(sm(30.0)) == 0.0
    assert float(sm(70.0)) == 1.0


def test_smooth_small_bandwidth_approaches_input():
    u = ThresholdDistribution.step_function([40.0, 80.0], [0.3, 1.0],
                                            (0.0, 100.0))
    sm = smooth_distribution(u, bandwidth=0.25, n_grid=4001)
    probe = np.array([20.0, 60.0, 90.0])   # continuity points
    assert np.abs(sm(probe) - u(probe)).max() <= 0.01


def test_smooth_preserves_monotonicity():
    rng = np.random.default_rng(0)
    locs = np.sort(rng.uniform(5.0, 95.0, 6))
    vals = np.sort(rng.uniform(0.0, 1.0, 6))
    u = ThresholdDistribution.step_function(locs, vals, (0.0, 100.0))
    for kernel in ("box", "triangular"):
        sm = smooth_distribution(u, bandwidth=7.0, kernel=kernel)
        assert np.all(np.diff(sm.values) >= -1e-12)


def test_sandwich_never_violated():
    # the monotone flow asserts the sandwich internally; a battery of seeds
    # exercising long horizons must never trip it
    cfg = _ref_cftp_config(set_points=(55.0, 75.0, 95.0))
    cfg = CftpConfig(wind_rates=cfg.wind_rates,
                     load_params=(cfg.load_params[0],) * 3,
                     comfort_rates=((0.02, 0.02),) * 3,
                     set_points=cfg.set_points, seed=1)
    cftp_samples(cfg, _rngs(77, 50))


def _dkw_bound(n, alpha=1e-6, tests=1):
    # the Dvoretzky-Kiefer-Wolfowitz bound the benchmark's CFTP check uses
    return np.sqrt(np.log(2.0 * tests / alpha) / (2.0 * n))


def _ks_distance(samples, dist):
    # sup |F_n - F| for a law with atoms: compare left limits as well
    values, counts = np.unique(samples, return_counts=True)
    fn = np.cumsum(counts) / len(samples)
    fn_left = np.concatenate([[0.0], fn[:-1]])
    return max(np.abs(fn - dist.cdf(values)).max(),
               np.abs(fn_left - dist.cdf(values - 1e-7)).max())


def _marginals(cfg, n_samples, seed):
    return np.array([s.temperatures for s in cftp_samples(cfg, _rngs(seed, n_samples))])


@pytest.mark.parametrize("wind_rates, comfort_rates, levels", [
    (((0.04, 0.04), (0.04, 0.04)), (0.02, 0.02), (50.0, 100.0)),          # W3
    ((0.04, 0.04), ((0.02, 0.02), (0.02, 0.02)), (40.0, 70.0, 100.0)),    # C3
])
def test_single_load_marginal_matches_stationary(wind_rates, comfort_rates, levels):
    params = LoadParams(h=1.0, c=1.1, comfort_levels=levels)
    cfg = CftpConfig(wind_rates=wind_rates, load_params=(params,),
                     comfort_rates=(comfort_rates,), set_points=(90.0,), seed=0)
    temps = _marginals(cfg, 1500, 90)[:, 0]
    from zpolicy import build_environment
    dist = solve_stationary(90.0, build_environment(wind_rates, comfort_rates), params)
    assert _ks_distance(temps, dist) <= _dkw_bound(len(temps))


def test_heterogeneous_loads_match_their_own_stationary_laws():
    from zpolicy import build_environment
    wind = ((0.04, 0.04), (0.04, 0.04))
    loads = [(LoadParams(h=1.0, c=1.1, comfort_levels=(50.0, 100.0)), (0.02, 0.02), 80.0),
             (LoadParams(h=0.8, c=1.5, comfort_levels=(30.0, 60.0, 90.0)),
              ((0.03, 0.02), (0.02, 0.03)), 70.0)]
    cfg = CftpConfig(wind_rates=wind, load_params=tuple(p for p, _, _ in loads),
                     comfort_rates=tuple(r for _, r, _ in loads),
                     set_points=tuple(z for _, _, z in loads), seed=0)
    temps = _marginals(cfg, 1500, 17)
    for i, (params, rates, z) in enumerate(loads):
        dist = solve_stationary(z, build_environment(wind, rates), params)
        assert _ks_distance(temps[:, i], dist) <= _dkw_bound(len(temps), tests=2)


def test_estimate_joint_cost_tops_up_intermediate_wind():
    # one load above Theta_1 in the middle of three wind states: the wind
    # supplies c/2 of the forced cooling and the grid the other c - c/2
    from zpolicy.cftp import JointSample
    params = LoadParams(h=1.0, c=1.1, comfort_levels=(50.0, 100.0))
    cfg = CftpConfig(wind_rates=((0.04, 0.04), (0.04, 0.04)), load_params=(params,),
                     comfort_rates=((0.02, 0.02),), set_points=(90.0,), seed=0)
    sample = JointSample(temperatures=np.array([60.0]), wind=1,
                         comfort=np.array([0]), horizon=1.0)
    rep = estimate_joint_cost([sample, sample], cfg, gamma=0.1)
    assert rep.power_cost == pytest.approx((params.c - params.c / 2) ** 2)
    assert rep.discomfort_cost == pytest.approx(100.0)


@pytest.mark.parametrize("change", [
    {"load_params": ()}, {"set_points": ()}, {"comfort_rates": ()},
    {"set_points": (70.0, 90.0, 80.0)}, {"comfort_rates": ((0.02, 0.02),) * 3},
    {"comfort_rates": ((0.02, 0.02), ((0.02, 0.02), (0.02, 0.02)))},
    {"initial_horizon": -1.0}, {"initial_horizon": 0.0},
    {"initial_horizon": float("nan")}, {"initial_horizon": float("inf")},
    {"max_doublings": 0},
    {"max_doublings": 2.5}, {"max_doublings": 2.0}, {"max_doublings": True},
    {"seed": 1.5}, {"seed": 3.0}, {"seed": True},
])
def test_config_rejects_bad_shapes_and_horizons(change):
    from dataclasses import asdict
    base = _ref_cftp_config()
    with pytest.raises(ValueError):
        CftpConfig(**{**asdict(base), "load_params": base.load_params, **change})


def test_config_takes_numpy_integer_counts():
    cfg = replace(_ref_cftp_config(), seed=np.int64(3), max_doublings=np.int32(24))
    got, expected = cftp_sample(cfg), cftp_sample(_ref_cftp_config())
    assert np.array_equal(got.temperatures, expected.temperatures)
    assert (got.wind, got.horizon) == (expected.wind, expected.horizon)


def test_shared_comfort_needs_one_comfort_chain():
    cfg = _lockstep_case("shared")
    # rates that give the same chain are accepted, however they are written
    replace(cfg, comfort_rates=((0.02, 0.02), ((0.02, 0.02),), (0.02, 0.02)))
    with pytest.raises(ValueError):
        replace(cfg, comfort_rates=((0.02, 0.02), (0.5, 0.5), (0.02, 0.02)))


@pytest.mark.parametrize("bad", [float("nan"), 150.0, -5.0, float("inf")])
def test_config_rejects_set_points_outside_comfort_range(bad):
    from zpolicy.errors import InvalidSetPoint
    with pytest.raises(InvalidSetPoint):
        _ref_cftp_config(set_points=(70.0, bad))


# --- lockstep draws against the frozen one-draw-at-a-time sampler


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.temperatures.tobytes() == w.temperatures.tobytes()
        assert g.comfort.tobytes() == w.comfort.tobytes()
        assert (g.wind, g.horizon) == (w.wind, w.horizon)


def _lockstep_case(name):
    ref = LoadParams(h=1.0, c=1.1, comfort_levels=(50.0, 100.0))
    c3 = LoadParams(h=1.0, c=1.1, comfort_levels=(40.0, 70.0, 100.0))
    hot = LoadParams(h=0.8, c=1.5, comfort_levels=(30.0, 60.0, 90.0))
    w3, r3 = ((0.04, 0.04), (0.04, 0.04)), ((0.02, 0.02), (0.02, 0.02))
    if name == "ref2":
        return _ref_cftp_config()
    if name == "ref10":
        return _ref_cftp_config(set_points=tuple(np.linspace(55.0, 95.0, 10)))
    if name == "w3":
        return CftpConfig(wind_rates=w3, load_params=(ref,), comfort_rates=((0.02, 0.02),),
                          set_points=(90.0,), seed=0)
    if name == "c3":
        return CftpConfig(wind_rates=(0.04, 0.04), load_params=(c3, c3),
                          comfort_rates=(r3, r3), set_points=(60.0, 90.0), seed=0)
    if name == "shared":
        return CftpConfig(wind_rates=(0.04, 0.04), load_params=(ref,) * 3,
                          comfort_rates=((0.02, 0.02),) * 3, set_points=(55.0, 75.0, 75.0),
                          seed=0, shared_comfort=True)
    if name == "heterogeneous":
        return CftpConfig(wind_rates=w3, load_params=(ref, hot, ref),
                          comfort_rates=((0.02, 0.02), ((0.03, 0.02), (0.02, 0.03)),
                                         (0.05, 0.01)),
                          set_points=(80.0, 70.0, 50.0), seed=0)
    if name == "short_horizon":
        # the first horizons are too short for most draws, which therefore
        # coalesce in different doubling rounds
        return CftpConfig(wind_rates=(0.04, 0.04), load_params=(ref,) * 3,
                          comfort_rates=((0.02, 0.02),) * 3, set_points=(60.0, 80.0, 100.0),
                          seed=0, initial_horizon=10.0)
    if name in ("long_horizon", "w3_long_horizon"):
        # in the first doubling the wind chain draws about four chunks and
        # each comfort chain two, so within one wave of extensions the
        # draws sit on different chains
        cfg = _ref_cftp_config(set_points=tuple(np.linspace(55.0, 95.0, 10))) \
            if name == "long_horizon" else _lockstep_case("w3")
        return replace(cfg, initial_horizon=6000.0)
    if name == "one_wind":
        # a one-state wind chain never jumps: its only jump age is inf
        return replace(_ref_cftp_config(set_points=(60.0, 90.0)), wind_rates=())
    if name == "one_comfort":
        top = LoadParams(h=1.0, c=1.1, comfort_levels=(100.0,))
        return replace(_ref_cftp_config(set_points=(60.0, 90.0)), load_params=(top, top),
                       comfort_rates=((),) * 2)
    raise KeyError(name)


@pytest.mark.parametrize("name", ["ref2", "ref10", "w3", "c3", "shared", "heterogeneous",
                                  "short_horizon", "long_horizon", "w3_long_horizon",
                                  "one_wind", "one_comfort"])
def test_lockstep_draws_match_frozen_sampler(name):
    from reference_cftp import cftp_sample as reference
    cfg = _lockstep_case(name)
    want = [reference(cfg, rng) for rng in _rngs(41, 40)]
    _same(cftp_samples(cfg, _rngs(41, 40)), want)
    _same([cftp_sample(cfg, rng) for rng in _rngs(41, 3)], want[:3])
    if name == "short_horizon":
        assert len({s.horizon for s in want}) >= 3


@pytest.mark.parametrize("name", ["w3", "heterogeneous", "short_horizon", "long_horizon",
                                  "w3_long_horizon", "one_wind"])
def test_draws_leave_generators_as_frozen_sampler_does(name):
    # every draw reads its generator as far as the frozen sampler does, in
    # a batch and in a batch of one
    from reference_cftp import cftp_sample as reference
    cfg = _lockstep_case(name)
    want, batched, alone = _rngs(53, 12), _rngs(53, 12), _rngs(53, 12)
    for rng in want:
        reference(cfg, rng)
    cftp_samples(cfg, batched)
    for rng in alone:
        cftp_sample(cfg, rng)
    for w, b, a in zip(want, batched, alone):
        assert b.bit_generator.state == w.bit_generator.state
        assert a.bit_generator.state == w.bit_generator.state


def test_block_size_does_not_change_samples(monkeypatch):
    import zpolicy.cftp as cftp
    cfg = _lockstep_case("heterogeneous")
    whole = cftp.cftp_samples(cfg, _rngs(43, 30))
    monkeypatch.setattr(cftp, "_BLOCK", 7 * cfg.n_loads)     # blocks of 7 draws
    _same(cftp.cftp_samples(cfg, _rngs(43, 30)), whole)


def test_no_coalescence_when_any_draw_in_a_batch_fails():
    from reference_cftp import cftp_sample as reference
    from dataclasses import replace
    cfg = replace(_lockstep_case("short_horizon"), initial_horizon=160.0, max_doublings=1)

    def outcome(rng):
        try:
            return reference(cfg, rng)
        except NoCoalescence:
            return None

    outcomes = [outcome(rng) for rng in _rngs(47, 30)]
    met = [k for k, s in enumerate(outcomes) if s is not None]
    assert 0 < len(met) < len(outcomes)
    with pytest.raises(NoCoalescence):
        cftp_samples(cfg, _rngs(47, 30))
    rngs = _rngs(47, 30)
    _same(cftp_samples(cfg, [rngs[k] for k in met]), [outcomes[k] for k in met])


def test_optimize_thresholds_matches_frozen_reference():
    from reference_cftp import optimize_thresholds as reference
    from zpolicy import optimize_thresholds
    cfg = _ref_cftp_config(set_points=(60.0, 90.0), seed=5)
    kwargs = dict(gamma=0.1, n_samples=20, sweeps=1, golden_iters=3)
    z, report = optimize_thresholds(cfg, **kwargs)
    z_ref, report_ref = reference(cfg, **kwargs)
    assert z.tobytes() == z_ref.tobytes()
    assert report == report_ref


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 3])
@pytest.mark.parametrize("n", [0, 1, 7, 2500])
def test_child_rngs_match_frozen_generators(seed, n):
    # the vectorized seeding gives sample k the generator child_seed(seed, k)
    # gives it, state for state, before and after a draw
    from reference_cftp import child_rngs as reference
    from zpolicy.model import child_rngs
    got, want = child_rngs(seed, n), reference(seed, n)
    assert len(got) == len(want) == n
    for g, w in zip(got, want):
        assert g.bit_generator.state == w.bit_generator.state
        assert g.standard_exponential() == w.standard_exponential()
        assert g.bit_generator.state == w.bit_generator.state


def test_child_rngs_refuse_a_negative_seed():
    from reference_cftp import child_rngs as reference
    from zpolicy.model import child_rngs
    messages = []
    for rngs in (child_rngs, reference):
        with pytest.raises(ValueError) as info:
            rngs(-1, 3)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


_SMOOTHED = {
    # the CLI's empirical law: jumps at 0 and at Theta_C
    "step": ThresholdDistribution.from_quantiles([0.0, 40.0, 100.0, 100.0], (0.0, 100.0)),
    "uniform": ThresholdDistribution.uniform((0.0, 100.0)),
    "ramp": ThresholdDistribution.from_grid([0.0, 20.0, 60.0, 100.0], [0.0, 0.0, 0.7, 0.7],
                                            domain=(0.0, 100.0)),
}


def _same_distribution(a, b):
    assert a.x.tobytes() == b.x.tobytes()
    assert a.values.tobytes() == b.values.tobytes()
    assert a.domain == b.domain


@pytest.mark.parametrize("kernel", ["box", "triangular"])
@pytest.mark.parametrize("bandwidth", [0.25, 5.0, 150.0])
def test_smoothing_matches_frozen_quadrature(kernel, bandwidth):
    from reference_cftp import smooth_distribution as reference
    for u in _SMOOTHED.values():
        for n_grid in (2, 801, 2001):
            _same_distribution(smooth_distribution(u, bandwidth, kernel, n_grid),
                               reference(u, bandwidth, kernel, n_grid))


@pytest.mark.parametrize("block", [1, 7, 500])
def test_smoothing_block_size_does_not_change_the_result(monkeypatch, block):
    import zpolicy.cftp as cftp
    from reference_cftp import smooth_distribution as reference
    monkeypatch.setattr(cftp, "_SMOOTH_BLOCK", block)
    for kernel in ("box", "triangular"):
        _same_distribution(cftp.smooth_distribution(_SMOOTHED["step"], 5.0, kernel),
                           reference(_SMOOTHED["step"], 5.0, kernel))


@pytest.mark.parametrize("kwargs", [{"bandwidth": 0.0}, {"bandwidth": -1.0},
                                    {"bandwidth": np.nan}, {"bandwidth": np.inf},
                                    {"bandwidth": 5.0, "kernel": "gaussian"}])
def test_smoothing_refuses_bad_bandwidths_and_kernels(kwargs):
    from reference_cftp import smooth_distribution as reference
    messages = []
    for smooth in (smooth_distribution, reference):
        with pytest.raises(ValueError) as info:
            smooth(_SMOOTHED["uniform"], **kwargs)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
