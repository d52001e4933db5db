"""Frozen copy of the chain-size branches and per-row loops that the
sensitivity curves, the model's chain tables and the HJB policy labels
had before they became array code: the de-jump and per-segment gradient
of one curve at a time, the curve derivation with its branches for chains
with no intermediate wind state, the per-state label loop, and the
one-state branches of the wind cooling rates and the birth-death
generator.  The tests compare the current code against them bit for bit;
they are not used by the package.
"""

from __future__ import annotations

import numpy as np

from zpolicy.costs import _segment_slices, _supplement_rates
from zpolicy.errors import NonPositiveRate


def dejump(curve, slices):
    out = curve.copy()
    for k in range(len(slices) - 1, 0, -1):
        left, right = slices[k - 1], slices[k]
        gap = out[right.start] - out[left.stop - 1]
        out[:left.stop] += gap
    return out


def per_segment_gradient(y, z, slices):
    out = np.empty_like(y)
    for sl in slices:
        if sl.stop - sl.start >= 2:
            out[sl] = np.gradient(y[sl], z[sl])
        else:
            out[sl] = 0.0
    return out


def derive_curves(raw, env, params) -> dict:
    """The arrays sensitivity_curves derives from the point-mass curves,
    by SensitivityCurves field name."""
    z_grid = raw.z_grid
    slices = _segment_slices(z_grid, params.comfort_levels)

    delta_z = dejump(raw.delta_z, slices)
    delta_theta = np.array([dejump(raw.delta_theta[j], slices)
                            for j in range(env.n_comfort)])
    tail_off = dejump(raw.tail_wind_off, slices)
    tail_mid = np.array([dejump(t, slices) for t in raw.tail_intermediate]) \
        if raw.tail_intermediate.size else raw.tail_intermediate

    d1 = -per_segment_gradient(delta_z, z_grid, slices)
    d_theta = np.array([-per_segment_gradient(delta_theta[j], z_grid, slices)
                        for j in range(env.n_comfort)])
    phi_prime = per_segment_gradient(raw.phi, z_grid, slices)
    d_hat = -per_segment_gradient(dejump(raw.tail, slices), z_grid, slices)
    d_hat_frontier = np.array([per_segment_gradient(t, z_grid, slices)
                               for t in tail_mid]) \
        if tail_mid.size else np.zeros((0, len(z_grid)))

    h, c = params.h, params.c
    w = h * h * d1 + c * c * d_theta.sum(axis=0)
    for s_i, frontier in zip(_supplement_rates(c, env.n_wind), d_hat_frontier):
        w = w + s_i * s_i * frontier

    return dict(
        z_grid=z_grid, phi=raw.phi, phi_prime=phi_prime,
        d1=d1, d_theta=d_theta, d_hat=d_hat, d_hat_frontier=d_hat_frontier,
        w=w, delta_z=delta_z, delta_theta=delta_theta,
        tail_wind_off=tail_off,
        tail_intermediate=tail_mid if tail_mid.size else np.zeros((0, len(z_grid))),
    )


def classify_policy(policy, params, env):
    h = params.h
    x = policy.x
    nx = len(x)
    labels = np.zeros((env.n_states, nx, nx), dtype=int)
    x1 = x[:, None] * np.ones((1, nx))
    x2 = np.ones((nx, 1)) * x[None, :]
    for e in range(env.n_states):
        p1 = policy.wind[e, :, :, 0] + policy.grid[e, :, :, 0]
        p2 = policy.wind[e, :, :, 1] + policy.grid[e, :, :, 1]
        f1 = h - p1
        f2 = h - p2
        gap_drift = np.sign(x1 - x2) * (f1 - f2)
        labels[e] = np.where(np.isclose(x1, x2), 0,
                             np.where(gap_drift > 1e-9, 1,
                                      np.where(gap_drift < -1e-9, -1, 0)))
    return labels


def wind_cooling_rates(params, n_wind):
    i = np.arange(n_wind, dtype=float)
    if n_wind == 1:
        return i
    return i * params.c / (n_wind - 1)


def birth_death_generator(rates):
    arr = list(rates)
    if len(arr) == 2 and np.isscalar(arr[0]):
        pairs = [(float(arr[0]), float(arr[1]))]
    else:
        pairs = [(float(u), float(d)) for (u, d) in arr]
    if not pairs:
        return np.zeros((1, 1))
    n = len(pairs) + 1
    gen = np.zeros((n, n))
    for k, (up, down) in enumerate(pairs):
        if not (up > 0.0 and down > 0.0):
            raise NonPositiveRate(f"transition rates must be > 0, got {(up, down)}")
        gen[k + 1, k] += up
        gen[k, k] -= up
        gen[k, k + 1] += down
        gen[k + 1, k + 1] -= down
    return gen
