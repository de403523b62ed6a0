"""Exit-time Monte Carlo: empirical validation of the V-bound.

Samples the exit times of Brownian motion run at twice the usual speed
(per-coordinate variance 2t, generator = full Laplacian) from a Ball or a
Box, estimates the survival function P(tau_D > t) with Clopper-Pearson
intervals, and checks it against V(eps, d) * exp(-(1-eps) * lambda_D * t).

Boxes need no time steps.  A box is the product of its intervals and the
coordinates move independently, so tau = min_j tau_j, where tau_j is the
exit time of coordinate j from (0, L_j).  Each tau_j is drawn by inverting
its survival series (_interval_inverse), and each exit time is reported
rounded up to a whole number of steps dt.

Balls are stepped.  Discrete monitoring alone biases survival upward (a
path can cross the boundary and come back between monitoring times), which
could spuriously violate the inequality being validated.  The
Brownian-bridge correction kills a path between steps with the half-space
crossing probability

    p = exp(-2 * dist_before * dist_after / (sigma^2 * dt))
      = exp(-dist_before * dist_after / dt)          (sigma^2 = 2)

using the signed radial distance R - |x| before and after the step.

Reproducibility: paths are split into chunks of chunk_size, and chunk i
draws from the Philox counter-based stream `Philox(key=seed).jumped(i)` for
its own paths only.  A box chunk draws one uniform per coordinate per path.
The ball stepper steps the chunks together as one pool of alive paths (the
next chunk joins once at most chunk_size paths are alive, so at most
2 * chunk_size are in flight), but which chunks share a step changes no
draw.  The same (seed, chunk_size) therefore yields the same exit times, in
chunk order, however chunks are scheduled.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._format import payload_checksum
from .errors import AccuracyError, InfeasibleParameterError
from .vfunction import VKind, log_v
from .zeros import first_bessel_zero

#: Simulation is cut off at lambda_D * t = 80; the chance any of n paths
#: survives that long is ~ n * e^-80, i.e. never in practice.
_LAMBDA_T_CAP = 80.0

#: Most time steps a path may take: about 1.4e-7 is the smallest dt on the
#: unit disc, so a tiny dt fails at once instead of running for hours.
_MAX_STEPS = 10 ** 8

#: Most paths one simulation may take.  A run holds about 24 B per path (exit
#: step, exit time and grid index), so 10^8 paths need about 2.4 GB and hours
#: of stepping; a larger count fails at once instead of in numpy's allocator.
_MAX_PATHS = 10 ** 8

#: default_t_grid ends at lambda_D * t = 12.
_GRID_DECAY = 12.0

#: Most points a run's t_grid can have.  SimConfig needs dt at most a tenth of
#: the spacing 12 / (lambda_D (P - 1)), and sample_exit_times steps to
#: t = 80 / lambda_D (past the grid's end), so P points need at least
#: 800 (P - 1) / 12 steps: more than _MAX_STEPS once P exceeds this.
_MAX_GRID_POINTS = 1 + int(_GRID_DECAY * _MAX_STEPS / (10 * _LAMBDA_T_CAP))


def _check_dim(dim: int) -> None:
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InfeasibleParameterError(f"dim must be an integer >= 1, got {dim!r}")


@dataclass(frozen=True)
class Ball:
    """The ball of the given radius centered at the origin of R^dim."""

    radius: float
    dim: int

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if not (0.0 < self.radius < math.inf):
            raise InfeasibleParameterError(
                f"ball needs a positive finite radius, got {self.radius!r}"
            )

    def center(self) -> tuple[float, ...]:
        return (0.0,) * self.dim


@dataclass(frozen=True)
class Box:
    """The axis box prod_i (0, L_i).  sides is stored as a tuple, so a box
    given a list is still hashable, as principal_eigenvalue's cache needs."""

    sides: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sides", tuple(self.sides))
        _check_dim(self.dim)
        if not all(0.0 < s < math.inf for s in self.sides):
            raise InfeasibleParameterError("box sides must be positive and finite")

    @property
    def dim(self) -> int:
        return len(self.sides)

    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * s for s in self.sides)


#: The Monte Carlo domains: annotations name this union.
SimDomain = Ball | Box


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation depends on (and nothing else).

    chunk_size is the unit of the random stream: chunk i, of chunk_size
    paths, draws from Philox(key=seed) jumped i times.  At most
    2 * chunk_size paths are in flight at once.

    dt is the ball stepper's time step.  A box draws its exit times from
    their exact law and reports each rounded up to a whole number of steps
    dt, the law that stepping with the bridge correction approximates.  So
    a box takes no bridge_correction=False: there is no stepping bias to
    show.
    """

    domain: SimDomain
    start: tuple[float, ...]
    dt: float
    n_paths: int
    t_grid: tuple[float, ...]
    seed: int
    bridge_correction: bool = True
    chunk_size: int = 65536

    def __post_init__(self) -> None:
        if len(self.start) != self.domain.dim:
            raise InfeasibleParameterError("start point has wrong dimension")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InfeasibleParameterError(f"dt must be positive, got {self.dt!r}")
        if self.n_paths < 1:
            raise InfeasibleParameterError("n_paths must be >= 1")
        if self.n_paths > _MAX_PATHS:
            raise InfeasibleParameterError(
                f"n_paths={self.n_paths} is too many; at most {_MAX_PATHS:.0e} are allowed"
            )
        if self.chunk_size < 1:
            raise InfeasibleParameterError("chunk_size must be >= 1")
        if isinstance(self.domain, Box) and not self.bridge_correction:
            raise InfeasibleParameterError(
                "a box draws its exit times from their exact law; "
                "bridge_correction=False applies to balls only"
            )
        if not (0 <= self.seed < 2 ** 64):
            raise InfeasibleParameterError("seed must be a 64-bit unsigned integer")
        grid = self.t_grid
        if any(t < 0.0 for t in grid):
            raise InfeasibleParameterError("t_grid times must be >= 0")
        diffs = [b - a for a, b in zip(grid, grid[1:])]
        if any(h <= 0.0 for h in diffs):
            raise InfeasibleParameterError("t_grid must be strictly increasing")
        if diffs and self.dt > min(diffs) / 10.0:
            raise InfeasibleParameterError(
                "dt must be at most one tenth of the smallest t_grid spacing"
            )
        if _start_distance(self.domain, self.start) < -1e-12:
            raise InfeasibleParameterError("start lies outside the domain")

    def fingerprint(self) -> str:
        dom = self.domain
        if isinstance(dom, Ball):
            shape = {"shape": "ball", "radius": dom.radius, "sides": None}
        else:
            shape = {"shape": "box", "radius": None, "sides": list(dom.sides)}
        payload = {
            **shape,
            "dim": dom.dim,
            "start": list(self.start),
            "dt": self.dt,
            "n_paths": self.n_paths,
            "t_grid": list(self.t_grid),
            "seed": self.seed,
            "bridge_correction": self.bridge_correction,
            "chunk_size": self.chunk_size,
        }
        return payload_checksum(payload)


@dataclass(frozen=True)
class TailEstimate:
    """Empirical survival probabilities with 95% confidence intervals."""

    t_grid: tuple[float, ...]
    survival: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    n_paths: int
    config_fingerprint: str

    def __post_init__(self) -> None:
        n = len(self.t_grid)
        if not (len(self.survival) == len(self.ci_low) == len(self.ci_high) == n):
            raise InfeasibleParameterError("tail estimate arrays must align")
        if any(b > a + 1e-15 for a, b in zip(self.survival, self.survival[1:])):
            raise AccuracyError("survival must be nonincreasing over t_grid")
        for lo, s, hi in zip(self.ci_low, self.survival, self.ci_high):
            if not (lo <= s <= hi):
                raise AccuracyError("confidence interval must contain the estimate")


@dataclass(frozen=True)
class VBoundReport:
    """Outcome of one V-bound check against a tail estimate."""

    passed: bool
    worst_margin: float
    worst_index: int
    bound_curve: tuple[float, ...]


def _start_distance(domain: SimDomain, point: tuple[float, ...]) -> float:
    """Distance from point to the boundary; negative outside."""
    if isinstance(domain, Ball):
        return domain.radius - math.sqrt(sum(c * c for c in point))
    return min(min(c, s - c) for c, s in zip(point, domain.sides))


@functools.lru_cache(maxsize=64)
def principal_eigenvalue(domain: SimDomain) -> float:
    """First Dirichlet eigenvalue of the (full) Laplacian on the domain.

    With the twice-speed convention the exit-time tail decays at exactly this
    rate.  Ball of radius R in dimension d: j_{d/2-1,1}^2 / R^2; box with
    sides L: pi^2 * sum_i 1/L_i^2.  Cached, so a caller and sample_exit_times
    share one Bessel root search.  A domain so large that the eigenvalue
    underflows to 0.0, or so small that it overflows, is rejected.

    Examples
    --------
    >>> abs(principal_eigenvalue(Box((1.0, 1.0))) - 2.0 * math.pi ** 2) < 1e-12
    True
    """
    if isinstance(domain, Box):
        try:
            lam = math.pi ** 2 * sum(1.0 / (s * s) for s in domain.sides)
        except ZeroDivisionError:  # a side whose square underflows to 0.0
            lam = math.inf
    else:
        if domain.dim == 1:
            j = 0.5 * math.pi  # first zero of cos = J_{-1/2} direction
        else:
            j = first_bessel_zero(0.5 * domain.dim - 1.0).value
        try:
            lam = (j / domain.radius) ** 2
        except OverflowError:
            lam = math.inf
    if not 0.0 < lam < math.inf:
        raise InfeasibleParameterError(
            f"the domain's principal eigenvalue is {lam!r}, not a positive "
            "finite float: its size is out of range"
        )
    return lam


#: Bridge exponents are clamped here before exp: exp(-700) ~ 1e-304 is still
#: a normal float, and exp of anything past the underflow threshold (~708) is
#: an order of magnitude slower.
_EXPONENT_CAP = 700.0


def _crossing_probability(before: np.ndarray, after: np.ndarray,
                          dt: float) -> np.ndarray:
    """exp(-before * after / dt) with the exponent clamped at _EXPONENT_CAP.

    The test u < p then differs from the unclamped one only when the
    uniform draw u is exactly 0.0, which has probability 2^-53.
    """
    a = before * after
    a /= dt
    np.minimum(a, _EXPONENT_CAP, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    return a


def _row_sum_squares(a: np.ndarray) -> np.ndarray:
    """add.reduce(a * a, axis=1), the sum np.linalg.norm takes a root of.

    Below eight columns numpy adds a row left to right, and so does this
    loop over the columns, which is several times faster than a reduction
    along a short axis.  From eight columns on numpy sums in pairwise
    blocks, so there the reduction itself is kept.
    """
    if a.shape[1] >= 8:
        return np.add.reduce(a * a, axis=1)
    col = a[:, 0]
    out = col * col
    for j in range(1, a.shape[1]):
        col = a[:, j]
        out += col * col
    return out


def _pool_exit_times(config: SimConfig, ball: Ball, max_steps: int) -> np.ndarray:
    """Exit times of all n_paths from a ball, stepped as one pool of alive
    paths.

    Chunk i holds paths i*chunk_size onwards (the last chunk may be shorter)
    and draws from Philox(key=seed) jumped i times: each of its steps draws
    one (alive_i, dim) normal block, then one (alive_i,) uniform block, for
    its own alive paths, and its k-th step ends at t = dt * k.  Its exit
    times therefore do not depend on which other chunks share its steps.
    The next chunk joins whenever the pool holds at most chunk_size alive
    paths, so at most 2 * chunk_size are in flight; each chunk's rows stay
    contiguous and in chunk order.  The start must lie strictly inside the
    domain.
    """
    dim, radius = ball.dim, float(ball.radius)
    dt = config.dt
    n, size = config.n_paths, config.chunk_size
    step_sd = math.sqrt(2.0 * dt)
    start = np.asarray(config.start, dtype=np.float64).reshape(1, dim)

    # gap: the radial distance R - |x| to the boundary, carried from step to
    # step, shape (alive,)
    start_gap = radius - np.sqrt(_row_sum_squares(start))

    exit_step = np.empty(n, dtype=np.int64)  # pool step each path exits in
    joins: list[int] = []  # pool step chunk i joined at
    alive = np.empty(0, dtype=np.int64)  # path index of each pool row
    x = np.empty((0, dim), dtype=np.float64)
    gap = start_gap[:0]
    pool: list[tuple[np.random.Generator, int]] = []  # (stream, end of its rows)
    joined = 0

    for step in itertools.count():
        while joined < n and alive.size <= size:
            take = min(size, n - joined)
            rng = np.random.Generator(
                np.random.Philox(key=config.seed).jumped(joined // size))
            joins.append(step)
            alive = np.concatenate([alive, np.arange(joined, joined + take)])
            x = np.concatenate([x, np.broadcast_to(start, (take, dim))])
            gap = np.concatenate([gap, np.broadcast_to(start_gap, (take,))])
            pool.append((rng, alive.size))
            joined += take
        m = alive.size
        if m == 0:
            break
        # row 0 belongs to the oldest chunk, which has taken the most steps
        if step - joins[alive[0] // size] == max_steps:
            raise AccuracyError(
                f"{pool[0][1]} paths still alive at lambda*t = {_LAMBDA_T_CAP:g}; "
                "exit-time sampling did not terminate"
            )

        x_new = np.empty((m, dim), dtype=np.float64)
        u = np.empty(m, dtype=np.float64)
        lo = 0
        for rng, hi in pool:
            rng.standard_normal(out=x_new[lo:hi])
            rng.random(out=u[lo:hi])
            lo = hi
        x_new *= step_sd
        x_new += x

        # The bridge test also runs on rows that already exited, where it
        # cannot change the outcome.  There the two distances sum to at most
        # the step length sqrt(2 dt) |Z|, so the exponent is at most |Z|^2 / 2
        # and cannot overflow.
        gap_new = radius - np.sqrt(_row_sum_squares(x_new))
        exited = gap_new <= 0.0
        if config.bridge_correction:
            exited |= u < _crossing_probability(gap, gap_new, dt)

        if np.count_nonzero(exited):
            exit_step[alive[exited]] = step
            keep = (~exited).nonzero()[0]
            alive = alive.take(keep)
            x = x_new.take(keep, axis=0)
            gap = gap_new.take(keep)
            # each chunk's kept rows end where its old end falls among keep;
            # a chunk with none left leaves the pool
            ends = np.searchsorted(keep, [hi for _, hi in pool]).tolist()
            pool = [(rng, hi) for (rng, _), hi, lo in zip(pool, ends, [0] + ends)
                    if hi > lo]
        else:
            x, gap = x_new, gap_new

    # a path of chunk i that exits in pool step k took k - joins[i] + 1 steps
    for i, j in enumerate(joins):
        exit_step[i * size:(i + 1) * size] -= j - 1
    return dt * exit_step


#: _interval_inverse's table: nodes at most _TABLE_STEP apart in ln t up to
#: _TABLE_END, summed by the image series up to _IMAGE_END and by the odd
#: terms k = 1..21 of the eigen series above it.
_TABLE_STEP = 1.0 / 300.0
_IMAGE_END = 0.01
_TABLE_END = 0.5
_ODD_K_PI = np.arange(1, 22, 2) * math.pi


def _interval_inverse(f: float) -> Callable[[np.ndarray], np.ndarray]:
    """T with S_1(T(v)) = v, for the unit interval entered at f in (0, 1).

    S_1(t) = sum_{k odd} 4/(k pi) sin(k pi f) exp(-(k pi)^2 t) is the chance
    that the twice-speed motion started at f is still in (0, 1) at time t.
    The returned function maps an array of v in [2^-53, 1] to T(v).

    S_1 is tabulated once, at nodes t_i at most 1/300 apart in ln t, from
    t_0 = (m/10)^2, with m = min(f, 1 - f), to 0.5:
    - up to t = 0.01 by the first pair of images,
      erf(m / (2 sqrt t)) - erfc((1 - m) / (2 sqrt t)), which falls with t.
      The image series alternates with falling terms, so this is off by at
      most its next pair, 2 erfc(1 / (2 sqrt t)) <= 2 erfc(5) < 3.1e-12;
    - above t = 0.01 by the terms k <= 21, off by less than 1e-23.
    Between nodes, and between t = 0 and t_0, T is linear in v.  Below the
    last node's value, T(v) = ln(c_1 / v) / pi^2 with c_1 = 4 sin(pi m) / pi:
    there the terms k >= 3 are below e^(-8 pi^2 0.5) < 1e-17 of the first.
    A fraction within 1e-100 of 0 or 1 is taken as 1e-100 from it, so that
    every node is a finite float; that moves S_1 by less than 1e-100 / sqrt(t).

    The error in law: for V uniform, the CDF G of T(V) is the chord of
    F = 1 - S_1 between nodes, so for every t
        |G(t) - F(t)| <= (t_{i+1} - t_i)^2 max |F''| / 8
                      <= (e^(1/300) - 1)^2 sup_t t^2 |S_1''(t)| / 8 < 9.7e-7,
    where sup_t t^2 |S_1''(t)| is 16 / (pi e^2) ~ 0.6893: the first term's
    maximum, at t = 2 / pi^2 and f = 1/2, and the largest found on a fine
    grid of t and f.  Below t_0 both G and F are at most about
    F(t_0) <= 2 erfc(5).  With the series' errors, |G - F| < 1e-6 for every
    t and f.
    """
    m = max(min(f, 1.0 - f), 1e-100)
    y_0, y_end = 2.0 * math.log(0.1 * m), math.log(_TABLE_END)
    t = np.exp(np.linspace(y_0, y_end, math.ceil((y_end - y_0) / _TABLE_STEP) + 1))
    s = np.empty_like(t)
    image = t <= _IMAGE_END
    s[image] = [math.erf(m * h) - math.erfc((1.0 - m) * h)
                for h in (0.5 / np.sqrt(t[image])).tolist()]
    s[~image] = (np.exp(np.multiply.outer(t[~image], -_ODD_K_PI ** 2))
                 @ (4.0 / _ODD_K_PI * np.sin(_ODD_K_PI * m)))
    # np.interp needs v ascending: t from _TABLE_END down to t_0, then 0
    s_up, t_down = np.append(s[::-1], 1.0), np.append(t[::-1], 0.0)
    c_1 = 4.0 / math.pi * math.sin(math.pi * m)

    def inverse(v: np.ndarray) -> np.ndarray:
        out = np.interp(v, s_up, t_down)
        tail = (v < s_up[0]).nonzero()[0]
        out[tail] = np.log(c_1 / v[tail]) / math.pi ** 2
        return out

    return inverse


def _box_exit_times(config: SimConfig, box: Box) -> np.ndarray:
    """Exit times of all n_paths from a box, drawn from their exact law.

    Coordinate j leaves (0, L_j) at tau_j = L_j^2 T_j(V_j), where T_j is
    _interval_inverse at f_j = x_j / L_j (one table per distinct f_j) and
    the V_j are independent uniforms; the path leaves the box at
    tau = min_j tau_j.  Chunk i draws one (chunk length, dim) block u from
    Philox(key=seed) jumped i times, and V = 1 - u lies in [2^-53, 1].

    Each exit time is reported as dt * ceil(tau / dt), and at least dt
    (tau > 0 almost surely): the law that stepping with the bridge
    correction approximates, P(exit time > t) = S(dt floor(t / dt)).  Box
    survival is the product of the coordinates' survivals, so its error in
    law is at most dim times _interval_inverse's.
    """
    n, size, dt = config.n_paths, config.chunk_size, config.dt
    inverses: dict[float, Callable[[np.ndarray], np.ndarray]] = {}
    columns = []
    for x, side in zip(config.start, box.sides):
        f = x / side
        if f not in inverses:
            inverses[f] = _interval_inverse(f)
        # side^2 / dt overflows to inf on a very long side, and inf * T(1)
        # would be NaN; capped, such a side still never exits first
        columns.append((inverses[f], min(side * side / dt, 1e300)))
    steps = np.empty(n, dtype=np.float64)
    for i, lo in enumerate(range(0, n, size)):
        rng = np.random.Generator(np.random.Philox(key=config.seed).jumped(i))
        v = 1.0 - rng.random((min(size, n - lo), len(columns)))
        steps[lo:lo + len(v)] = np.minimum.reduce(
            [inverse(col) * scale for (inverse, scale), col in zip(columns, v.T)])
    np.ceil(steps, out=steps)
    np.maximum(steps, 1.0, out=steps)
    return dt * steps


def sample_exit_times(config: SimConfig) -> np.ndarray:
    """n_paths independent exit-time samples, deterministic given the seed.

    Paths are drawn in chunks of config.chunk_size, each from its own
    stream, and returned in chunk order, so the output does not depend on
    how chunks share steps.  Every exit time is a whole number of steps dt.
    A start on the boundary exits at t = 0.  A dt that needs more than
    _MAX_STEPS steps is rejected before any path is drawn.
    """
    n = config.n_paths
    if _start_distance(config.domain, config.start) <= 0.0:
        return np.zeros(n, dtype=np.float64)
    t_cap = max(config.t_grid[-1] if config.t_grid else 0.0,
                _LAMBDA_T_CAP / principal_eigenvalue(config.domain))
    steps = t_cap / config.dt
    if not steps <= _MAX_STEPS:
        raise InfeasibleParameterError(
            f"dt={config.dt!r} needs {steps:.3g} time steps; "
            f"at most {_MAX_STEPS:.0e} are allowed"
        )
    if isinstance(config.domain, Box):
        return _box_exit_times(config, config.domain)
    return _pool_exit_times(config, config.domain, int(math.ceil(steps)) + 1)


#: ln 0.025, the probability each Clopper-Pearson limit leaves in its tail.
_LN_TAIL = math.log(0.025)

#: The standard normal deviate with 0.025 above it.
_Z_TAIL = 1.959963984540054

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

#: Caps on the steps of one continued fraction and the Newton steps of one
#: limit.  Up to n = 10^8 paths, over k = 0..30, n-30..n and random k, a
#: fraction took at most 114 steps and a limit at most 6.
_FRACTION_TERMS = 1000
_NEWTON_STEPS = 100


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2) for z >= 10.

    Six terms of the Stirling series; the first term left out is below
    1e-15 at z = 10.
    """
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r * (
        1 / 1188 - r * (691 / 360360)))))) / z


def _log_beta_prefactor(x: float, xc: float, a: int, b: int) -> float:
    """ln(x^a xc^b / B(a, b)) for integers a, b >= 1, where xc = 1 - x.

    The smaller of x and xc must be accurate to its own last bits; the
    larger one's logarithm is taken as log1p of minus the smaller.  When
    min(a, b) < 10, 1 / B(a, b) = L (L + 1) ... (L + m - 1) / (m - 1)! with
    m the smaller and L the larger parameter, an exact integer quotient:
    lgamma differences would lose about seven digits at a + b = 10^8.
    Otherwise ln Gamma is split by Stirling's formula, and the leading
    terms combine into a log1p(u/a) + b log1p(-u/b) with u = x (a + b) - a,
    which is small near the mean a / (a + b), where the limits lie.
    """
    if x < xc:
        lx, lxc = math.log(x), math.log1p(-x)
    else:
        lx, lxc = math.log1p(-xc), math.log(xc)
    m, big = min(a, b), max(a, b)
    if m < 10:
        return a * lx + b * lxc + math.log(
            math.prod(range(big, big + m)) / math.factorial(m - 1))
    c = a + b
    u = x * c - a if x < xc else b - xc * c
    return (a * math.log1p(u / a) + b * math.log1p(-u / b)
            + 0.5 * math.log(a * b / c) - _HALF_LN_2PI
            + _stirling_tail(c) - _stirling_tail(a) - _stirling_tail(b))


def _beta_fraction(x: float, a: int, b: int) -> float:
    """The continued fraction 1 / (1 + d_1 / (1 + d_2 / (1 + ...))) of
    DLMF 8.17.22, in which I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times it,
    by the modified Lentz method.

    d_{2m} = m (b - m) x / ((a + 2m - 1)(a + 2m)) and
    d_{2m+1} = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)).  It converges
    fast for x < (a + 1) / (a + b + 2).
    """
    tiny = 1e-300  # stands in for a zero denominator
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, _FRACTION_TERMS):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 2.3e-16:
            return h
    raise AccuracyError(f"incomplete beta I_x(a={a}, b={b}) at x={x!r}: "
                        "the continued fraction did not converge")


def _log_beta_cdf(x: float, xc: float, a: int, b: int) -> tuple[float, float]:
    """ln I_x(a, b), the regularized incomplete beta, and its derivative in x;
    xc = 1 - x as for _log_beta_prefactor."""
    log_pref = _log_beta_prefactor(x, xc, a, b)
    if x * (a + b + 2.0) < a + 1.0:
        h = _beta_fraction(x, a, b)
        return log_pref + math.log(h / a), a / (x * xc * h)
    # I_x(a, b) = 1 - I_{1-x}(b, a), whose fraction converges fast here
    pref = math.exp(log_pref)
    rest = pref * _beta_fraction(xc, b, a) / b
    return math.log1p(-rest), pref / (x * xc * (1.0 - rest))


def _beta_tail_point(a: int, b: int) -> tuple[float, float]:
    """(x, 1 - x) with I_x(a, b) = 0.025, for integers a, b >= 1.

    Newton's method on ln I, started from the normal approximation of
    Abramowitz & Stegun 26.5.22.  ln I is concave in x (a beta density with
    a, b >= 1 is log-concave, and so is its integral), so the root is
    approached from below once a step lands there; a step that leaves the
    bracket known so far, at first [0, a / (a + b)], is replaced by
    bisection.  The iteration runs on x when a <= b and on 1 - x otherwise,
    so the variable it carries is the smaller one near the root, and the
    returned pair has each of x and 1 - x to its own relative precision.

    The fraction sees x only to its absolute precision, so where 1 - x is
    small ln I is noisy at about 1e-16 x / (1 - x) relative; the iteration
    also stops once its bracket is as narrow as its step tolerance.  At
    n = 10^8 that leaves the high limit of a small count about 1e-9 off.
    """
    lam = (_Z_TAIL * _Z_TAIL - 3.0) / 6.0
    ra, rb = 1.0 / (2 * a - 1.0), 1.0 / (2 * b - 1.0)
    h = 2.0 / (ra + rb)
    e = b * math.exp(2.0 * (_Z_TAIL * math.sqrt(h + lam) / h
                            - (rb - ra) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))))
    # t is x or 1 - x; f < 0 at t_neg and f > 0 at t_pos (the mean)
    on_x = a <= b
    t = (a if on_x else e) / (a + e)
    t_neg, t_pos = (0.0, a / (a + b)) if on_x else (1.0, b / (a + b))
    lo, hi = sorted((t_neg, t_pos))
    for _ in range(_NEWTON_STEPS):
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        x, xc = (t, 1.0 - t) if on_x else (1.0 - t, t)
        f, slope = _log_beta_cdf(x, xc, a, b)
        f -= _LN_TAIL
        if f < 0.0:
            t_neg = t
        else:
            t_pos = t
        lo, hi = sorted((t_neg, t_pos))
        step = f / slope if on_x else -f / slope
        # Newton converges quadratically: after a step below 1e-10 t the
        # error is far below that
        if abs(step) <= 1e-10 * t or hi - lo <= 1e-10 * t:
            if lo <= t - step <= hi:
                t -= step
            return (t, 1.0 - t) if on_x else (1.0 - t, t)
        t -= step
    raise AccuracyError(f"the point where I_x(a={a}, b={b}) = 0.025 was not found")


def _clopper_pearson(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided 95% interval for each success count k out of n.

    The limits of Clopper & Pearson (Biometrika 26 (1934) 404-413): the low
    one solves I_x(k, n - k + 1) = 0.025 and the high one
    I_x(k + 1, n - k) = 0.975, that is I_{1-x}(n - k, k + 1) = 0.025.
    At k = 0 and k = n they have closed forms.  Each distinct k is solved
    once: the counts of a survival curve repeat in its tail.
    """
    counts, where = np.unique(k, return_inverse=True)
    low, high = [], []
    for count in counts.tolist():
        if count == 0:
            low.append(0.0)
            high.append(-math.expm1(_LN_TAIL / n))
        elif count == n:
            low.append(math.exp(_LN_TAIL / n))
            high.append(1.0)
        else:
            low.append(_beta_tail_point(count, n - count + 1)[0])
            high.append(_beta_tail_point(n - count, count + 1)[1])
    return np.array(low)[where], np.array(high)[where]


def _survivor_counts(tau: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """counts[j] = #{i : tau[i] > grid[j]} for an increasing grid, with no
    n x grid matrix.

    idx[i] = searchsorted(grid, tau[i], side="left") is the number of grid
    points strictly below tau[i], so tau[i] > grid[j] exactly when idx[i] > j.
    tau must hold no NaN: numpy sorts NaN last, so it would count as
    surviving every grid time, where tau > grid counts it as surviving none.
    """
    idx = np.searchsorted(grid, tau, side="left")
    at_least = np.bincount(idx, minlength=grid.size + 1)[::-1].cumsum()[::-1]
    return at_least[1:]


def estimate_survival(config: SimConfig, tau: np.ndarray) -> TailEstimate:
    """Empirical survival curve over config.t_grid with 95% CP intervals.

    tau holds the config's exit times, as sample_exit_times(config) returns
    them; a NaN among them is refused.
    """
    if _start_distance(config.domain, config.start) <= 0.0:
        raise InfeasibleParameterError(
            "tail estimation needs a start strictly inside the domain"
        )
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (config.n_paths,):
        raise InfeasibleParameterError(
            f"expected {config.n_paths} exit times, got an array of shape {tau.shape}"
        )
    if np.isnan(tau).any():
        raise InfeasibleParameterError("exit times must not be NaN")
    grid = np.asarray(config.t_grid, dtype=np.float64)
    counts = _survivor_counts(tau, grid)
    n = config.n_paths
    survival = counts / n
    low, high = _clopper_pearson(counts, n)
    return TailEstimate(
        t_grid=tuple(float(t) for t in grid),
        survival=tuple(float(s) for s in survival),
        ci_low=tuple(float(v) for v in low),
        ci_high=tuple(float(v) for v in high),
        n_paths=n,
        config_fingerprint=config.fingerprint(),
    )


def vbound_log_v(vkind: VKind, epsilon: float, dim: int) -> float:
    """ln V(epsilon, dim) of a V-bound that check_vbound can test.

    Raises InfeasibleParameterError where it cannot, so a caller can refuse
    the bound before it simulates any path.  That includes a V too large
    for a float: the bound curve starts at t = 0, where it is V itself.
    """
    if not (0.0 < epsilon < 1.0):
        # at eps = 1 the bound V e^0 >= 1 holds for any estimate
        raise InfeasibleParameterError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    lv = log_v(vkind, epsilon, dim)
    try:
        math.exp(lv)
    except OverflowError:
        raise InfeasibleParameterError(
            f"V(epsilon, dim) = exp({lv:.6g}) overflows a float") from None
    return lv


def check_vbound(estimate: TailEstimate, vkind: VKind, epsilon: float,
                 lambda_d: float, dim: int) -> VBoundReport:
    """Compare the estimate's lower confidence limits against the V-bound.

    Passes iff no grid point's lower confidence limit exceeds
    V(eps, dim) * exp(-(1-eps) * lambda_d * t).  The worst margin is the
    smallest bound - ci_low over the grid (negative means failure).
    """
    lv = vbound_log_v(vkind, epsilon, dim)
    if not lambda_d > 0.0:
        raise InfeasibleParameterError("lambda_d must be positive")
    rate = (1.0 - epsilon) * lambda_d
    bound = tuple(math.exp(lv - rate * t) for t in estimate.t_grid)
    margins = [b - lo for b, lo in zip(bound, estimate.ci_low)]
    worst_index = int(np.argmin(margins)) if margins else 0
    worst = margins[worst_index] if margins else math.inf
    return VBoundReport(
        passed=bool(worst >= 0.0),
        worst_margin=float(worst),
        worst_index=worst_index,
        bound_curve=bound,
    )


def default_t_grid(lambda_d: float, points: int = 25) -> tuple[float, ...]:
    """Evenly spaced grid [0, 12/lambda_d]: survival decays to ~e^-12."""
    if points < 2:
        raise InfeasibleParameterError("need at least 2 grid points")
    t_max = _GRID_DECAY / lambda_d
    return tuple(t_max * i / (points - 1) for i in range(points))


def default_dt(domain: SimDomain, t_grid: tuple[float, ...]) -> float:
    """1e-4 times the squared characteristic length (radius / shortest side),
    or a tenth of t_grid's smallest spacing, as SimConfig requires, if less:
    on default_t_grid, for a ball from d = 37 and a unit box from d = 51."""
    scale = domain.radius if isinstance(domain, Ball) else min(domain.sides)
    return min([1e-4 * scale * scale,
                *((b - a) / 10.0 for a, b in zip(t_grid, t_grid[1:]))])
