"""Domain model: joint wind/comfort Markov environment and single-load
threshold ("Z") policy dynamics.

A load heats at rate h while below its hold point and draws just enough
grid power to park there; whenever renewable power is available it cools
at the rate the wind state supports (i*c/(W-1) in wind state i, with
state W-1 supporting the full rate c); above the active comfort level
it is force-cooled at the maximum rate c regardless of wind, with grid
power topping up whatever the wind cannot supply.

The environment is the product of two independent finite Markov chains
(wind availability, active comfort level).  Its generator Q follows the
column convention: Q maps probability column vectors, off-diagonal
Q[k, l] is the rate l -> k, and every column sums to zero.  Factor-chain
jumps are sampled here too, for the simulator's forward paths and the
perfect sampler's backward ones: _FactorChain holds the jump tables of
one or more chains, _draw_jumps reads each row's variates from its own
generator, and _walk turns a batch of rows into jump times and states
(the simulator's wind and comfort chains are two rows of one batch).
child_seed is the splitting rule for per-replication seeds, and
child_rngs builds one generator per sample from it, running numpy's
SeedSequence hash for every sample at once.

Temperature evolution between environment jumps is integrated exactly:
the drift is piecewise constant in x, so hit times at 0, the comfort
level and the hold point are closed-form and no Euler stepping is used.
The flow (exact_flow) and the power classification (power_split, whose
grid part is grid_power) are elementwise kernels in which every argument
broadcasts, the environment state included; the perfect sampler, the
simulator's accounting and the CLI all call them, and
advance_temperatures is exact_flow for one environment state given by
its indices.  flow_path is the same flow as a scalar recursion along a
whole path of segments, for one load.  flow_paths gives the same
temperatures for many loads at once, and is what the
simulator calls: on small runs it walks flow_path per load, on large ones
it steps chunks of the path in lockstep with exact_flow and stitches them
where reruns meet the stored trajectories bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSetPoint, NonPositiveRate

__all__ = [
    "MarkovEnvironment",
    "LoadParams",
    "build_environment",
    "advance_temperatures",
    "flow_path",
    "flow_paths",
]


def _check_integers(config, names) -> None:
    """Raise ValueError unless each named field of ``config`` is an int or
    a numpy integer (a bool is not)."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_seed(config) -> None:
    """Raise ValueError unless ``config.seed`` is an integer, as
    _check_integers takes one, and not negative (SeedSequence's range)."""
    _check_integers(config, ("seed",))
    if config.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {config.seed}")


def _birth_death_generator(rates) -> np.ndarray:
    """Generator (column convention) for a birth-death chain.

    ``rates`` is either a flat pair (q_up, q_down) for a 2-state chain or a
    sequence of (up_i, down_i) pairs, one per adjacent state pair; with no
    pairs the chain has one state and its generator is 0.
    """
    arr = list(rates)
    pairs = [arr] if len(arr) == 2 and all(np.isscalar(v) for v in arr) else arr
    if not all(np.ndim(pair) == 1 and len(pair) == 2 for pair in pairs):
        raise ValueError(f"rates must be a pair or a sequence of pairs, got {rates}")
    pairs = [(float(u), float(d)) for (u, d) in pairs]
    n = len(pairs) + 1
    gen = np.zeros((n, n))
    for k, (up, down) in enumerate(pairs):
        if not (up > 0.0 and down > 0.0):
            raise NonPositiveRate(f"transition rates must be > 0, got {(up, down)}")
        gen[k + 1, k] += up      # k -> k+1
        gen[k, k] -= up
        gen[k, k + 1] += down    # k+1 -> k
        gen[k + 1, k + 1] -= down
    return gen


class _FactorChain:
    """Jump tables of one or more factor chains, one per generator, built
    once and padded to the largest chain with absorbing states.  Per chain
    and state: the mean holding time (inf once absorbing), the first next
    state, and the next states with the cumulative branch weights short of
    the last, by which a uniform picks among them (padded with the last
    next state and inf); an absorbing state's only next state is itself."""

    def __init__(self, *generators: np.ndarray):
        n = max(len(q) for q in generators)
        padded = np.zeros((len(generators), n, n))
        for j, q in enumerate(generators):
            padded[j, :len(q), :len(q)] = q
        rates = -np.diagonal(padded, axis1=1, axis2=2)
        exits = np.clip(padded, 0.0, None)
        exits[:, np.arange(n), np.arange(n)] = 0.0
        self.scales = np.full(rates.shape, np.inf)
        np.divide(1.0, rates, out=self.scales, where=rates > 0)
        fan = (exits > 0).sum(axis=1)
        self.branching = fan.max(axis=1) > 1
        width = max(int(fan.max()), 1)
        self.targets = np.tile(np.arange(n)[:, None], (len(generators), 1, width))
        self.cuts = np.full((len(generators), n, width - 1), np.inf)
        for j, s in zip(*np.nonzero(fan)):
            t = np.flatnonzero(exits[j, :, s])
            self.targets[j, s] = t[np.minimum(np.arange(width), len(t) - 1)]
            self.cuts[j, s, :len(t) - 1] = (np.cumsum(exits[j, t, s]) / exits[j, t, s].sum())[:-1]
        self.successor = self.targets[:, :, 0]


def _draw_jumps(chain: _FactorChain, index: np.ndarray, rngs: list,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """The variates of ``n`` jumps of chain index[r] for every row r, read
    from rngs[r] in row order: ``n`` exponentials, then ``n`` uniforms only
    when that chain has a state with more than one possible next state (a
    2-state chain draws exactly ``n`` exponentials); rows x n arrays, the
    uniforms zero where none were drawn."""
    variates, uniforms = np.empty((len(index), n)), np.zeros((len(index), n))
    for r, (fork, rng) in enumerate(zip(chain.branching[index].tolist(), rngs)):
        rng.standard_exponential(out=variates[r])
        if fork:
            rng.random(out=uniforms[r])
    return variates, uniforms


def _walk(chain: _FactorChain, index: np.ndarray, start, variates: np.ndarray,
          uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jumps of a batch of rows: row r walks chain index[r] from state
    start[r] with its variates and uniforms (rows x n, as _draw_jumps draws
    them).  Returns the jump times, cumulative per row (inf once an
    absorbing state is reached), and the rows x (n + 1) states.

    A row of a chain with one next state per state follows its successor
    map f: states[k] = f^k(start), doubling k.  A row of a branching chain
    first builds each jump's step map, the next state of every state, by
    how many of that state's cuts lie at or below the jump's uniform.  It
    composes adjacent maps pairwise into maps of 2, 4, ... jumps, then
    fills in the states from the longest maps down: the state in the middle
    of each block is the map of its first half applied to the state at its
    start.  Either way a row takes O(n * states) work and O(log n) numpy
    calls serve every row.
    """
    n_rows, n = variates.shape
    states = np.empty((n_rows, n + 1), dtype=np.int64)
    states[:, 0] = start
    fork = chain.branching[index]
    plain = np.flatnonzero(~fork)
    if len(plain):
        f, walk, m = chain.successor[index[plain]], states[plain], 1
        rows = np.arange(len(plain))[:, None]
        while m <= n:
            walk[:, m:2 * m] = f[rows, walk[:, :min(m, n + 1 - m)]]
            f, m = f[rows, f], 2 * m
        states[plain] = walk
    fork = np.flatnonzero(fork)
    if len(fork):
        tab, size, width = index[fork], chain.targets.shape[1], 1 << (n - 1).bit_length()
        # maps[0][r * width + k, s]: the state after jump k of row r from
        # state s, with identities past jump n up to a power of two
        picks = (chain.cuts[tab][:, None] <= uniforms[fork][:, :, None, None]).sum(axis=3)
        step = np.empty((len(fork), width, size), dtype=np.int64)
        step[:, :n] = chain.targets[tab[:, None, None], np.arange(size), picks]
        step[:, n:] = np.arange(size)
        # maps[l][r * (width >> l) + i]: the map of row r's jumps from
        # i * 2^l up to (i + 1) * 2^l; a pair never spans two rows
        maps = [step.reshape(-1, size)]
        while len(maps[-1]) > len(fork):
            first, then = maps[-1][0::2], maps[-1][1::2]
            maps.append(then[np.arange(len(then))[:, None], first])
        # the states at multiples of 2^l, from the start alone down to l = 0
        begin = states[fork, 0]
        at = begin
        for q in maps[-2::-1]:
            at = np.stack([at, q[0::2][np.arange(len(at)), at]], axis=1).reshape(-1)
        end = maps[-1][np.arange(len(fork)), begin]
        states[fork, 1:] = np.column_stack([at.reshape(len(fork), width)[:, 1:], end])[:, :n]
    return (variates * chain.scales[index[:, None], states[:, :-1]]).cumsum(axis=1), states


def child_seed(seed: int, replication: int) -> int:
    """Documented splitting rule for per-replication seeds."""
    return int(np.random.SeedSequence([seed, replication]).generate_state(1)[0])


# numpy's SeedSequence with its pool of four 32-bit words, an algorithm
# numpy keeps stable, run on uint32 arrays: one column per sample
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """The pool SeedSequence mixes from each column of the entropy words."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ out >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0]))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _seed_state(pool: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """SeedSequence.generate_state(n_words) of each column of a pool."""
    hash_const, out = _INIT_B, []
    for i in range(n_words):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out.append(value ^ value >> 16)
    return out


def child_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """One generator per sample k < n, seeded with child_seed(seed, k):
    default_rng(child_seed(seed, k)), state for state, with both hashes of
    every sample run at once.  A negative seed raises ValueError, as
    SeedSequence does."""
    # numpy.random is imported here, so that importing the package does not load it
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """The seed words PCG64 asks of SeedSequence(child_seed(seed, k))."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")     # SeedSequence's message
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    # the entropy [seed, k]: the seed's words, low first, then k's one word (n < 2**32)
    entropy = [np.full(n, w, dtype=np.uint32) for w in words] + [np.arange(n, dtype=np.uint32)]
    child = _seed_state(_seed_pool(entropy), 1)
    # PCG64 takes four uint64 words, each two uint32 words low first
    state = np.stack(_seed_state(_seed_pool(child), 8), axis=1)
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    return [Generator(PCG64(Words(w))) for w in state]


@dataclass(frozen=True)
class MarkovEnvironment:
    """Joint (wind, comfort-level) environment.

    States are ordered lexicographically as (wind i, comfort j), i.e. the
    flat index is ``i * n_comfort + j``; for the binary/binary case this is
    the ordering ij = 00, 01, 10, 11.
    """

    wind_generator: np.ndarray
    comfort_generator: np.ndarray
    generator: np.ndarray = field(init=False)

    def __post_init__(self):
        qw = np.asarray(self.wind_generator, dtype=float)
        qc = np.asarray(self.comfort_generator, dtype=float)
        object.__setattr__(self, "wind_generator", qw)
        object.__setattr__(self, "comfort_generator", qc)
        q = np.kron(qw, np.eye(qc.shape[0])) + np.kron(np.eye(qw.shape[0]), qc)
        object.__setattr__(self, "generator", q)

    @property
    def n_wind(self) -> int:
        return self.wind_generator.shape[0]

    @property
    def n_comfort(self) -> int:
        return self.comfort_generator.shape[0]

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]

    def state_index(self, wind: int, comfort: int) -> int:
        return wind * self.n_comfort + comfort

    def split_index(self, state: int) -> tuple[int, int]:
        return divmod(state, self.n_comfort)

    def stationary(self) -> np.ndarray:
        """Stationary probability vector of the joint chain (Q pi = 0)."""
        return stationary_law(self.generator)


def stationary_law(generator: np.ndarray) -> np.ndarray:
    """Stationary probability vector of one generator (column convention)."""
    n = generator.shape[0]
    a = np.vstack([generator, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def build_environment(wind_rates, comfort_rates) -> MarkovEnvironment:
    """Assemble the joint generator from per-chain transition rates.

    For the binary/binary case ``wind_rates=(q0, q1)`` gives mean holding
    times 1/q0 off and 1/q1 on, and ``comfort_rates=(r1, r2)`` gives mean
    holding times 1/r1 at the low level and 1/r2 at the high level.  Longer
    chains are specified as sequences of (up, down) rate pairs and form
    birth-death generators.

    Raises NonPositiveRate if any rate is <= 0, and ValueError if a rate
    spec is neither a flat pair nor a sequence of pairs.
    """
    env = MarkovEnvironment(
        wind_generator=_birth_death_generator(wind_rates),
        comfort_generator=_birth_death_generator(comfort_rates),
    )
    col_sums = env.generator.sum(axis=0)
    assert np.abs(col_sums).max() < 1e-12
    return env


@dataclass(frozen=True)
class LoadParams:
    """Physical load parameters.

    h : heating rate with no power applied (temperature/time)
    c : maximum net cooling rate (temperature/time)
    comfort_levels : ascending comfort thresholds Theta_1 < ... < Theta_C
    """

    h: float
    c: float
    comfort_levels: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "c", float(self.c))
        lv = tuple(float(t) + 0.0 for t in self.comfort_levels)    # adding 0.0 turns -0.0 into 0.0
        object.__setattr__(self, "comfort_levels", lv)
        if not (0 < self.h < np.inf and 0 < self.c < np.inf):
            raise ValueError(f"h and c must be finite and positive, got {self.h} and {self.c}")
        if not lv or not all(0 <= t < np.inf for t in lv) \
                or any(a >= b for a, b in zip(lv, lv[1:])):
            raise ValueError("comfort levels must be one or more finite, nonnegative, "
                             "strictly increasing numbers")

    @property
    def theta_max(self) -> float:
        return self.comfort_levels[-1]

    def check_set_points(self, z) -> None:
        """Raise InvalidSetPoint unless every set-point lies in [0, Theta_C]."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        bad = ~((z >= 0.0) & (z <= self.theta_max))
        if bad.any():
            raise InvalidSetPoint(f"z={z[bad][0]} outside [0, {self.theta_max}]")

    def check_environment(self, env: MarkovEnvironment) -> None:
        """Raise ValueError unless there is one comfort level per state of
        the environment's comfort chain."""
        if len(self.comfort_levels) != env.n_comfort:
            raise ValueError(f"comfort_levels needs one level per comfort state ({env.n_comfort})")

    def wind_cooling_rates(self, n_wind: int) -> np.ndarray:
        """Net cooling rate per wind state: i*c/(W-1), so 0 when off and c at
        full wind.  A one-state wind chain has only the off state."""
        return np.arange(n_wind, dtype=float) * self.c / max(n_wind - 1, 1)


def exact_flow(x, z, theta, h, c, ci, dt, wind):
    """Exact temperature after dt in one environment state, elementwise.

    Every argument broadcasts, the duration and the wind state included,
    so one call can advance loads that sit in different segments.  The
    drift is piecewise constant with at most one rate switch per load
    (crossing the comfort level downward), so the flow is closed-form; hold
    points are hit exactly via min/max, never overshot.  A zero dt maps
    every state to itself.
    """
    cooled = x - c * dt
    # wind off: heat at h or cool at c to the hold point, and park there
    # (from the hold point itself, cooling is clipped back to it)
    park = np.minimum(z, theta)
    off = np.where(x < park, np.minimum(park, x + h * dt), np.maximum(park, cooled))
    # under wind: cool at c for the time t_hit it takes to reach theta (0
    # from at or below it), then at ci down to the floor
    t_hit = np.maximum((x - theta) / c, 0.0)
    on = np.where(dt <= t_hit, cooled, np.maximum(
        0.0, np.minimum(x, theta) - ci * np.maximum(dt - t_hit, 0.0)))
    return np.where(np.asarray(wind) == 0, off, on)


def flow_path(x: float, z: float, h: float, c: float,
              theta: list, ci: list, dt: list, wind: list) -> list[float]:
    """Temperatures of one load at the boundaries of consecutive environment
    segments: the entry temperature of each, then the exit of the last.

    theta, ci, dt and wind give each segment's comfort level, wind cooling
    rate, duration and wind state as Python numbers.  Each step is the
    scalar form of exact_flow, written with the comparisons np.minimum and
    np.maximum make, so the result is bitwise exact_flow's, except that
    from a -0.0 start or hold point the two can return zeros of opposite
    sign (a load at its hold point stays put here, where exact_flow returns
    the hold point).
    """
    out = [x]
    for th, r, d, w in zip(theta, ci, dt, wind):
        if w == 0:
            park = z if z <= th else th
            if x > park:
                y = x - c * d
                x = park if park >= y else y
            elif x < park:
                y = x + h * d
                x = park if park <= y else y
        elif x > th:
            t_hit = (x - th) / c
            if d <= t_hit:
                x = x - c * d
            else:
                y = th - r * (d - t_hit)
                x = 0.0 if 0.0 >= y else y
        else:
            y = x - r * d
            x = 0.0 if 0.0 >= y else y
        out.append(x)
    return out


_LOCKSTEP_WORK = 80000  # loads x segments from which flow_paths steps in lockstep
_CHUNK = 128    # segments per chunk of flow_paths
_FEW = 32       # reruns that flow_paths finishes one at a time


def flow_paths(x0, z: np.ndarray, h: float, c: float, theta: np.ndarray, ci: np.ndarray,
               dt: np.ndarray, wind: np.ndarray) -> np.ndarray:
    """Temperatures of loads with set-points ``z`` along one path of
    segments, from the start temperatures ``x0`` (one, or one per load), as
    a C-contiguous (segments + 1) x loads array: row k holds every load's
    entry temperature of segment k, the last row the exits.  Column j is
    bitwise flow_path(x0[j], z[j], ...), with a -0.0 start or set-point read
    as 0.0 (flow_path and exact_flow can give zeros of opposite sign there).

    Below _LOCKSTEP_WORK loads x segments that is how it is computed, which
    costs less than the lockstep's fixed number of calls.  From there on the
    path is cut into chunks of _CHUNK segments, and every chunk of every
    load takes one step per exact_flow call: chunk 0 from x0, each
    later chunk from a guess, the floor 0.  Then every chunk whose start
    differs from its predecessor's stored end reruns from that end, one
    lane per (chunk, load), and stops as soon as its temperature equals the
    stored one bit for bit; the flow is deterministic, so the rest of the
    chunk is already right.  A rerun that reaches its chunk's end has just
    changed the next chunk's start, so it goes on into that chunk in the
    same pass.  When no rerun is left, every row is the flow of the row
    before it, which is the sequential recursion.  The flow coalesces,
    since a clamp at a hold point or at the floor maps different
    temperatures to one, so most reruns stop after a few steps; the last
    _FEW lanes, whose steps would cost a call each, finish one at a time
    with flow_path.
    """
    z = np.asarray(z, dtype=float) + 0.0          # adding 0.0 turns -0.0 into 0.0
    x0 = np.broadcast_to(np.asarray(x0, dtype=float) + 0.0, z.shape)
    n_seg, n_loads = len(dt), len(z)
    if n_loads * n_seg < _LOCKSTEP_WORK:
        cols = [a.tolist() for a in (theta, ci, dt, wind)]
        return np.array([flow_path(a, b, h, c, *cols)
                         for a, b in zip(x0.tolist(), z.tolist())]).T.copy()
    n_chunks = max(-(-n_seg // _CHUNK), 1)
    # pad to whole chunks with zero durations, which map every state to
    # itself; row t of each table holds step t of every chunk
    pad = n_chunks * _CHUNK - n_seg
    tables = [np.concatenate([a, np.zeros(pad, dtype=a.dtype)]).reshape(n_chunks, _CHUNK).T.copy()
              for a in (theta, ci, dt, wind)]
    out = np.empty((n_chunks * _CHUNK + 1, n_loads))
    out[0] = x0
    body = out[1:].reshape(n_chunks, _CHUNK, n_loads)
    ends = out[:-1:_CHUNK].T      # the start of chunk k is the end of chunk k - 1
    starts = np.zeros((n_loads, n_chunks))
    starts[:, 0] = out[0]
    x, zc = starts, z[:, None]
    for t, (th, rate, d, w) in enumerate(zip(*tables)):
        x = exact_flow(x, zc, th, h, c, rate, d, w)
        body[:, t] = x.T
    # rerun every chunk whose start is not its predecessor's end, one lane
    # per (chunk, load) at row ``row`` (flat index ``at``) holding the right
    # temperature x, until its next temperature equals the stored one; a
    # lane that reaches its chunk's end goes on into the next, whose start
    # it has just changed
    j, k = np.nonzero(starts.view(np.uint64) != ends.view(np.uint64))
    row, x, zl = k * _CHUNK, ends[j, k], z[j]
    at = row * n_loads + j
    flat = out.reshape(-1)
    while len(row) > _FEW:
        x = exact_flow(x, zl, theta[row], h, c, ci[row], dt[row], wind[row])
        row += 1
        at += n_loads
        moved = (x.view(np.uint64) != flat[at].view(np.uint64)) & (row < n_seg)
        flat[at] = x
        if not moved.all():
            row, at, zl, x = row[moved], at[moved], zl[moved], x[moved]
    # the last few lanes one at a time with flow_path, leading lanes first,
    # so that a lane meets what the lanes ahead of it wrote; each takes
    # 8 segments, then twice as many each time until it meets
    for i in np.argsort(-row, kind="stable").tolist():
        r, col, xi, span = int(row[i]), int(at[i] - row[i] * n_loads), float(x[i]), 8
        while r < n_seg:
            stop = min(r + span, n_seg)
            run = np.array(flow_path(xi, float(zl[i]), h, c,
                                     *(a[r:stop].tolist() for a in (theta, ci, dt, wind)))[1:])
            met = np.flatnonzero(run.view(np.uint64) == out[r + 1:stop + 1, col].view(np.uint64))
            if len(met):
                out[r + 1:r + 1 + met[0], col] = run[:met[0]]
                break
            out[r + 1:stop + 1, col] = run
            r, xi, span = stop, float(run[-1]), 2 * span
    return out[:n_seg + 1]


def grid_power(x, z, theta, h, c, ci, wind):
    """Grid power under the threshold policy, elementwise; every argument
    broadcasts, the wind state included.

    Grid power is h+c during a comfort violation with wind off, the
    difference c - ci when an intermediate wind state cannot supply the
    full forced-cooling rate, and h while parked at the hold point with
    wind off; all other situations draw no grid power.
    """
    grid_on = np.where(x > theta, c - ci, 0.0)
    park = np.minimum(z, theta)
    grid_off = np.where(x > park, h + c, np.where(x == park, h, 0.0))
    return np.where(np.asarray(wind) >= 1, grid_on, grid_off)


def power_split(x, z, theta, h, c, ci, wind):
    """(wind power, grid power) under the threshold policy, elementwise,
    with the grid power of grid_power.  Under wind, the wind supplies
    h + ci (h alone at the floor x = 0); with wind off it supplies nothing.
    """
    wind_power = np.where(np.asarray(wind) >= 1, np.where(x <= 0.0, h, h + ci), 0.0)
    return wind_power, grid_power(x, z, theta, h, c, ci, wind)


def advance_temperatures(x: np.ndarray, z: np.ndarray, wind: int, comfort: int,
                         dt: float, params: LoadParams, n_wind: int = 2) -> np.ndarray:
    """Exact temperature update over a window with a constant environment,
    vectorized over loads (see exact_flow)."""
    return exact_flow(np.asarray(x, dtype=float), np.asarray(z, dtype=float),
                      params.comfort_levels[comfort], params.h, params.c,
                      params.wind_cooling_rates(n_wind)[wind], dt, wind)
