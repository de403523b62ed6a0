"""Exit-time Monte Carlo: empirical validation of the V-bound.

Simulates Brownian motion run at twice the usual speed (per-coordinate
increment variance 2*dt, generator = full Laplacian) exiting balls and boxes,
estimates the survival function P(tau_D > t) with Clopper-Pearson intervals,
and checks it against V(eps, d) * exp(-(1-eps) * lambda_D * t).

Discrete monitoring alone biases survival upward (a path can cross the
boundary and come back between monitoring times), which could spuriously
violate the inequality being validated.  The Brownian-bridge correction
kills a path between steps with the half-space crossing probability

    p = exp(-2 * dist_before * dist_after / (sigma^2 * dt))
      = exp(-dist_before * dist_after / dt)          (sigma^2 = 2)

using distances to the boundary before and after the step — per face for
boxes (applied independently; the per-step survival factor is the product
over faces), and via the signed radial distance R - |x| for balls.  A box
step carries only each path's distance to its nearest face, and evaluates
the per-face factors only on paths whose nearest distances before and after
the step have a product below _NEAR_FACE * dt: everywhere else every factor
rounds to exactly 1.0, so skipping them changes no exit time.

Reproducibility: paths are split into chunks of chunk_size, and chunk i
draws from the Philox counter-based stream `Philox(key=seed).jumped(i)` for
its own paths only.  The simulator steps the chunks together as one pool of
alive paths (the next chunk joins once at most chunk_size paths are alive,
so at most 2 * chunk_size are in flight), but which chunks share a step
changes no draw.  The same (seed, chunk_size) therefore yields the same exit
times, in chunk order, however chunks are scheduled.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

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

#: default_t_grid ends at lambda_D * t = 12.
_GRID_DECAY = 12.0


class DomainShape(enum.Enum):
    BALL = "ball"
    BOX = "box"


@dataclass(frozen=True)
class SimDomain:
    """A ball of given radius centered at the origin, or an axis box
    prod_i (0, L_i)."""

    shape: DomainShape
    dim: int
    radius: float | None = None
    sides: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise InfeasibleParameterError(f"dim must be an integer >= 1, got {self.dim!r}")
        if self.shape is DomainShape.BALL:
            if self.sides is not None:
                raise InfeasibleParameterError("ball takes no sides")
            if self.radius is None or not (0.0 < self.radius < math.inf):
                raise InfeasibleParameterError(
                    f"ball needs a positive finite radius, got {self.radius!r}"
                )
        else:
            if self.radius is not None:
                raise InfeasibleParameterError("box takes no radius")
            if self.sides is None or len(self.sides) != self.dim:
                raise InfeasibleParameterError("box needs one side per dimension")
            if not all(0.0 < s < math.inf for s in self.sides):
                raise InfeasibleParameterError("box sides must be positive and finite")
            # a tuple keeps the domain hashable, as principal_eigenvalue's cache needs
            object.__setattr__(self, "sides", tuple(self.sides))

    @classmethod
    def ball(cls, radius: float, dim: int) -> "SimDomain":
        return cls(shape=DomainShape.BALL, dim=dim, radius=radius)

    @classmethod
    def box(cls, sides: tuple[float, ...]) -> "SimDomain":
        return cls(shape=DomainShape.BOX, dim=len(sides), sides=tuple(sides))

    def center(self) -> tuple[float, ...]:
        if self.shape is DomainShape.BALL:
            return (0.0,) * self.dim
        assert self.sides is not None
        return tuple(0.5 * s for s in self.sides)


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation depends on (and nothing else).

    chunk_size is the unit of the random stream: chunk i, of chunk_size
    paths, draws from Philox(key=seed) jumped i times.  At most
    2 * chunk_size paths are in flight at once.
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
        if self.chunk_size < 1:
            raise InfeasibleParameterError("chunk_size must be >= 1")
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
        payload = {
            "shape": dom.shape.value,
            "dim": dom.dim,
            "radius": dom.radius,
            "sides": list(dom.sides) if dom.sides is not None else None,
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
    if domain.shape is DomainShape.BALL:
        assert domain.radius is not None
        return domain.radius - math.sqrt(sum(c * c for c in point))
    assert domain.sides is not None
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
    >>> abs(principal_eigenvalue(SimDomain.box((1.0, 1.0))) - 2.0 * math.pi ** 2) < 1e-12
    True
    """
    if domain.shape is DomainShape.BOX:
        assert domain.sides is not None
        try:
            lam = math.pi ** 2 * sum(1.0 / (s * s) for s in domain.sides)
        except ZeroDivisionError:  # a side whose square underflows to 0.0
            lam = math.inf
    else:
        assert domain.radius is not None
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


#: A box row gets the bridge test only where the product of its nearest-face
#: distances before and after the step is below _NEAR_FACE * dt.  It must
#: stay above 54 ln 2 ~ 37.43 (see _pool_exit_times); a power of two keeps
#: _NEAR_FACE * dt exact.
_NEAR_FACE = 64.0


def _crossing_probability(before: np.ndarray, after: np.ndarray,
                          dt: float) -> np.ndarray:
    """exp(-before * after / dt) with the exponent clamped at _EXPONENT_CAP.

    A box face's factor 1 - p rounds to 1.0 once the exponent passes
    54 ln 2 ~ 37.43, so there the clamp changes nothing.  Box rows come here
    only when near some face (see _pool_exit_times); their other faces give
    factors of exactly 1.0.  For the ball, u < p differs from the unclamped
    test only when the uniform draw u is exactly 0.0, which has probability
    2^-53.
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


def _row_product(a: np.ndarray) -> np.ndarray:
    """multiply.reduce(a, axis=1), one column at a time.

    numpy multiplies a row left to right at any width, so the bits are the
    same.
    """
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        out *= a[:, j]
    return out


def _row_min(a: np.ndarray) -> np.ndarray:
    """minimum.reduce(a, axis=1), one column at a time (a minimum is exact
    in any order)."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.minimum(out, a[:, j], out=out)
    return out


def _box_bridge_exits(x: np.ndarray, x_new: np.ndarray, sides: np.ndarray,
                      u: np.ndarray, dt: float) -> np.ndarray:
    """Which rows the per-face bridge kills during the step x -> x_new.

    A row survives face j with probability 1 - p_j, the faces independently,
    so it is killed when u < 1 - prod_j (1 - p_j).  x is the distance to the
    low faces and sides - x the distance to the high ones; sides has the
    shape of x.
    """
    low = _crossing_probability(x, x_new, dt)
    np.subtract(1.0, low, out=low)
    high = _crossing_probability(sides - x, sides - x_new, dt)
    np.subtract(1.0, high, out=high)
    return u < 1.0 - _row_product(low) * _row_product(high)


def _pool_exit_times(config: SimConfig, max_steps: int) -> np.ndarray:
    """Exit times of all n_paths, stepped as one pool of alive paths.

    Chunk i holds paths i*chunk_size onwards (the last chunk may be shorter)
    and draws from Philox(key=seed) jumped i times: each of its steps draws
    one (alive_i, dim) normal block, then one (alive_i,) uniform block, for
    its own alive paths, and its k-th step ends at t = dt * k.  Its exit
    times therefore do not depend on which other chunks share its steps.
    The next chunk joins whenever the pool holds at most chunk_size alive
    paths, so at most 2 * chunk_size are in flight; each chunk's rows stay
    contiguous and in chunk order.  The start must lie strictly inside the
    domain.

    A box row whose nearest-face distances before and after the step, g and
    g', have fl(g * g') >= _NEAR_FACE * dt gets no bridge test, and this
    changes no exit time.  Such a row has not exited (g' > 0), and on every
    face its distances b before and a after the step, computed by the same
    expressions as g and g', satisfy b >= g > 0 and a >= g' > 0.  Rounded
    multiplication and division are monotone, and _NEAR_FACE * dt is exact
    (_NEAR_FACE is a power of two; should the product overflow to inf, no
    row is skipped).  So fl(b * a) >= fl(g * g') >= _NEAR_FACE * dt, and the
    exponent fl(fl(b * a) / dt) >= _NEAR_FACE.  Clamped at _EXPONENT_CAP it
    is still above 54 ln 2, so p = exp(-exponent) < 2^-54 and 1 - p rounds
    to exactly 1.0 on every face.  The test would read
    u < 1 - 1.0 * ... * 1.0 = 0.0, which no uniform draw u in [0, 1) passes.
    """
    domain = config.domain
    dim = domain.dim
    dt = config.dt
    n, size = config.n_paths, config.chunk_size
    step_sd = math.sqrt(2.0 * dt)
    start = np.asarray(config.start, dtype=np.float64).reshape(1, dim)

    # gap: distance to the boundary, carried from step to step, shape
    # (alive,).  Ball: the radial distance R - |x|.  Box: the distance to
    # the nearest face, min_j min(x_j, L_j - x_j).
    is_ball = domain.shape is DomainShape.BALL
    if is_ball:
        radius = float(domain.radius)  # type: ignore[arg-type]
        start_gap = radius - np.sqrt(_row_sum_squares(start))
    else:
        # one row of sides per path: subtracting equal shapes runs as one
        # flat loop, broadcasting a short row is several times slower
        sides = np.broadcast_to(np.asarray(domain.sides, dtype=np.float64),
                                (min(n, 2 * size), dim)).copy()
        start_gap = _row_min(np.minimum(start, sides[:1] - start))
        near_product = _NEAR_FACE * dt

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
        if is_ball:
            gap_new = radius - np.sqrt(_row_sum_squares(x_new))
            exited = gap_new <= 0.0
            if config.bridge_correction:
                exited |= u < _crossing_probability(gap, gap_new, dt)
        else:
            dist = sides[:m] - x_new
            np.minimum(x_new, dist, out=dist)
            gap_new = _row_min(dist)
            exited = gap_new <= 0.0
            if config.bridge_correction:
                # elsewhere every face factor is exactly 1.0 (see above);
                # a hard exit has gap_new <= 0, so its row counts as near
                near = (gap * gap_new < near_product).nonzero()[0]
                if near.size:
                    exited[near] |= _box_bridge_exits(
                        x.take(near, axis=0), x_new.take(near, axis=0),
                        sides[:near.size], u.take(near), dt)

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


def sample_exit_times(config: SimConfig) -> np.ndarray:
    """n_paths independent exit-time samples, deterministic given the seed.

    Paths are drawn in chunks of config.chunk_size, each from its own
    stream, and returned in chunk order, so the output does not depend on
    how chunks share steps.  A start on the boundary exits at t = 0.  A dt
    that needs more than _MAX_STEPS steps is rejected before any path is
    drawn.
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
    max_steps = int(math.ceil(steps)) + 1
    if config.domain.shape is DomainShape.BALL:
        return _pool_exit_times(config, max_steps)
    # On a box with a side of about 1e154 or more (less at small dt), a
    # product of two face distances, or its quotient by dt, overflows to
    # inf.  There every overflow is harmless: a product past _NEAR_FACE * dt
    # only marks a row as far from every face, and _crossing_probability
    # clamps the exponent.  So it is not reported; one errstate per run
    # costs nothing per step.
    with np.errstate(over="ignore"):
        return _pool_exit_times(config, max_steps)


def _clopper_pearson(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided 95% interval for each success count k out of n."""
    k = k.astype(np.float64)
    low = betaincinv(k, n - k + 1.0, 0.025)
    high = betaincinv(k + 1.0, n - k, 0.975)
    low = np.where(k == 0, 0.0, low)
    high = np.where(k == n, 1.0, high)
    return low, high


def estimate_survival(config: SimConfig, tau: np.ndarray) -> TailEstimate:
    """Empirical survival curve over config.t_grid with 95% CP intervals.

    tau holds the config's exit times, as sample_exit_times(config) returns
    them.
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
    grid = np.asarray(config.t_grid, dtype=np.float64)
    counts = (tau[:, None] > grid[None, :]).sum(axis=0)
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
    the bound before it simulates any path.
    """
    if not (0.0 < epsilon < 1.0):
        # at eps = 1 the bound V e^0 >= 1 holds for any estimate
        raise InfeasibleParameterError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return log_v(vkind, epsilon, dim)


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


def check_grid_dt(lambda_d: float, points: int, dt: float) -> None:
    """Reject a dt that default_t_grid(lambda_d, points) cannot take, before
    that grid is built.

    SimConfig checks dt against the built grid; this check comes first, so a
    huge point count fails at once instead of allocating its grid.  Its
    limit is a hair looser than SimConfig's, whose check on the built grid
    settles the cases within rounding of the limit.
    """
    if points < 2:
        return
    spacing = _GRID_DECAY / lambda_d / (points - 1)
    if not 0.0 < dt <= spacing / 10.0 * (1.0 + 1e-9):
        raise InfeasibleParameterError(
            f"dt must be positive and at most one tenth of the t_grid spacing "
            f"{spacing:.6g}, got {dt!r}"
        )


def default_dt(domain: SimDomain) -> float:
    """1e-4 times the squared characteristic length (radius / shortest side)."""
    if domain.shape is DomainShape.BALL:
        assert domain.radius is not None
        scale = domain.radius
    else:
        assert domain.sides is not None
        scale = min(domain.sides)
    return 1e-4 * scale * scale


def off_center_start(domain: SimDomain, offset_fraction: float = 0.5) -> tuple[float, ...]:
    """A start point displaced from the center along the first axis."""
    center = list(domain.center())
    if domain.shape is DomainShape.BALL:
        assert domain.radius is not None
        center[0] += offset_fraction * domain.radius
    else:
        assert domain.sides is not None
        center[0] += 0.5 * offset_fraction * domain.sides[0]
    return tuple(center)
