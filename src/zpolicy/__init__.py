"""Optimal threshold-policy distributions for thermostatic loads sharing a
Markov-modulated renewable source: stationary analysis, variational
optimization, Monte Carlo and perfect-sampling validation, adaptive
heuristics, and a two-load HJB reference solver."""

from .model import (
    MarkovEnvironment, LoadParams, build_environment, advance_temperatures,
)
from .stationary import (
    StationaryDistribution, solve_stationary, verify_conservation,
    point_mass_curves,
)
from .costs import (
    CostReport, SensitivityCurves, sensitivity_curves, default_z_grid,
    phi, finite_cost, continuum_cost,
)
from .distributions import ThresholdDistribution
from .variational import (
    euler_lagrange, project, project_detailed, fixed_point, isotonic_fit,
    costate,
)
from .simulate import (
    SimulationConfig, SimulationResult, SampledEpisode, simulate, sample_episode,
    run_episode, empirical_cdf, check_dominance, sample_environment_path, child_seed,
)
from .cftp import (
    CftpConfig, JointSample, cftp_sample, cftp_samples, estimate_joint_cost,
    smooth_distribution, optimize_thresholds,
)
from .heuristic import (
    PiecewiseDistribution, AdaptationTrace, sample_episodes, estimate_cost,
    adapt_step, successive_refinement, make_simulation_cost_fn,
)
from .hjb import (
    solve_hjb, classify_policy, coolest_first_heuristic,
)
from . import errors

__version__ = "0.1.0"
