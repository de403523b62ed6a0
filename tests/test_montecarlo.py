"""Exit-time simulation: eigenvalues, means, tails, exact laws, and reproducibility.

Path counts here are sized for CI speed; the heavy statistical checks at
100k paths live in the acceptance suite.
"""

import hashlib
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from centre_survival_reference import GRID_200, NODES
from clopper_pearson_reference import LIMITS
from hotspots import (
    AccuracyError,
    Ball,
    Box,
    InfeasibleParameterError,
    SimConfig,
    TailEstimate,
    VKind,
    check_vbound,
    default_dt,
    default_t_grid,
    estimate_survival,
    first_bessel_zero,
    principal_eigenvalue,
    sample_exit_times,
)
import hotspots.montecarlo as mc
from hotspots.montecarlo import (
    _MAX_GRID_POINTS,
    _MAX_PATHS,
    _beta_fraction,
    _beta_tail_point,
    _centre_inverse,
    _centre_table,
    _clopper_pearson,
    _column_times,
    _interval_inverse,
    _interval_table,
    _log_beta_cdf,
    _survivor_counts,
    _table_inverse,
)


def _ball_config(n_paths=20000, dt=1e-4, seed=42, radius=1.0, dim=2, **kw):
    """A ball run from its centre, the only start a ball takes."""
    dom = Ball(radius, dim)
    lam = principal_eigenvalue(dom)
    return SimConfig(domain=dom, start=dom.center(), dt=dt, n_paths=n_paths,
                     t_grid=default_t_grid(lam), seed=seed, **kw)


def _box_config(sides=(1.0, 1.0), start=None, n_paths=3000, dt=1e-3, seed=42, **kw):
    dom = Box(sides)
    lam = principal_eigenvalue(dom)
    return SimConfig(domain=dom, start=start or dom.center(), dt=dt, n_paths=n_paths,
                     t_grid=default_t_grid(lam), seed=seed, **kw)


def _survival(cfg):
    return estimate_survival(cfg, sample_exit_times(cfg))


def _off_center(box):
    """The start half way from the box's centre to its boundary along the
    first axis."""
    start = list(box.center())
    start[0] += 0.25 * box.sides[0]
    return tuple(start)


class TestEigenvalue:
    def test_unit_disc(self):
        lam = principal_eigenvalue(Ball(1.0, 2))
        assert lam == pytest.approx(5.7831859629, abs=1e-8)
        j01 = first_bessel_zero(0.0).value
        assert lam == pytest.approx(j01 * j01, rel=1e-12)

    def test_unit_square(self):
        lam = principal_eigenvalue(Box((1.0, 1.0)))
        assert lam == pytest.approx(2.0 * math.pi**2, rel=1e-12)

    def test_ball_radius_two_dim_three(self):
        lam = principal_eigenvalue(Ball(2.0, 3))
        # j_{1/2,1} = pi, so lambda = (pi/2)^2
        assert lam == pytest.approx(math.pi**2 / 4.0, rel=1e-10)

    def test_interval(self):
        lam = principal_eigenvalue(Ball(1.0, 1))
        assert lam == pytest.approx((math.pi / 2.0) ** 2, rel=1e-12)

    def test_box_sides_given_as_list(self):
        # a list of sides is stored as a tuple, so the box is still an
        # immutable, hashable record
        dom = Box([2.0, 0.5])
        assert dom.sides == (2.0, 0.5)
        assert dom == Box((2.0, 0.5)) and hash(dom) == hash(Box((2.0, 0.5)))
        assert principal_eigenvalue(dom) == principal_eigenvalue(Box((2.0, 0.5)))
        assert dom._replace(sides=[1.0, 3.0]).sides == (1.0, 3.0)

    def test_box_scaling(self):
        lam = principal_eigenvalue(Box((2.0, 0.5)))
        assert lam == pytest.approx(math.pi**2 * (0.25 + 4.0), rel=1e-12)


class TestExitTimes:
    def test_mean_from_disc_center(self):
        cfg = _ball_config(n_paths=20000)
        tau = sample_exit_times(cfg)
        se = tau.std() / math.sqrt(len(tau))
        assert abs(tau.mean() - 0.25) <= 3.0 * se + 3e-4

    def test_mean_scales_with_radius(self):
        dom = Ball(2.0, 2)
        cfg = SimConfig(domain=dom, start=dom.center(), dt=default_dt(dom, (0.0,)),
                        n_paths=10000, t_grid=(0.0,), seed=11)
        tau = sample_exit_times(cfg)
        se = tau.std() / math.sqrt(len(tau))
        assert abs(tau.mean() - 1.0) <= 3.0 * se + 1.5e-3

    def test_boundary_start_exits_immediately(self):
        dom = Box((1.0, 1.0))
        cfg = SimConfig(domain=dom, start=(1.0, 0.5), dt=1e-3, n_paths=500,
                        t_grid=(0.0,), seed=5)
        assert np.all(sample_exit_times(cfg) == 0.0)

    def test_deterministic_replay(self):
        for make in (_ball_config, _box_config):
            cfg = make(n_paths=3000, dt=1e-3)
            a = sample_exit_times(cfg)
            b = sample_exit_times(cfg)
            assert np.array_equal(a, b)
            c = sample_exit_times(make(n_paths=3000, dt=1e-3, seed=43))
            assert not np.array_equal(a, c)

    def test_chunking_is_invisible(self, monkeypatch):
        # chunk i run alone, from its own stream Philox(key=seed) jumped i
        # times, then concatenated in chunk order, must reproduce the pooled
        # run of all chunks exactly: a chunk's exit times do not depend on
        # how many paths follow it
        import hotspots.montecarlo as mc
        philox = np.random.Philox
        for make in (_ball_config, _box_config):
            cfg = make(n_paths=5000, dt=1e-3, chunk_size=1024)
            pooled = sample_exit_times(cfg)
            parts = []
            for i, take in enumerate([1024, 1024, 1024, 1024, 904]):
                monkeypatch.setattr(mc.np.random, "Philox",
                                    lambda key, i=i: philox(key=key).jumped(i))
                parts.append(sample_exit_times(cfg._replace(n_paths=take)))
            monkeypatch.setattr(mc.np.random, "Philox", philox)
            assert np.array_equal(np.concatenate(parts), pooled)

    def test_a_zero_draw_exits_in_the_first_step(self, monkeypatch):
        # u = 0.0, which has probability 2^-53, gives T = 0; on a side whose
        # L^2 / dt overflows to inf, inf * 0 would be a NaN exit time
        class ZeroGenerator:
            def __init__(self, bit_generator):
                pass

            def random(self, shape):
                return np.zeros(shape)

        import hotspots.montecarlo as mc
        monkeypatch.setattr(mc.np.random, "Generator", ZeroGenerator)
        cfg = _box_config(sides=(1e300, 1.0), n_paths=4, dt=1e-3)
        with np.errstate(invalid="raise"):
            assert np.array_equal(sample_exit_times(cfg), np.full(4, 1e-3))

    def test_a_finer_dt_only_shrinks_the_rounding(self):
        # nothing is stepped, so every dt SimConfig takes runs: at one seed
        # and chunking, each exit time is the same exact time rounded up to
        # whole steps dt.  At dt = 1e-320, 1 / dt overflows, and the times
        # are left unrounded.
        for make in (_ball_config, _box_config):
            coarse, fine, finest = (
                sample_exit_times(make(n_paths=3000, dt=dt, chunk_size=1024))
                for dt in (1e-3, 1e-12, 1e-320))
            assert np.all(fine <= coarse) and np.all(coarse - fine <= 1e-3)
            assert np.all(finest <= fine) and np.all(fine - finest <= 1e-12)
            assert np.all(finest > 0.0)

    def test_an_exit_past_the_largest_float_reads_as_inf(self, monkeypatch):
        # V = 2^-53, the last draw, exits after about 6.4 R^2 from the disc's
        # centre and 3.7 L^2 from the square's: past 1.8e308 here.  It reads
        # as inf, the grid's end is finite, and numpy raises nothing
        class LastDraw:
            def __init__(self, bit_generator):
                pass

            def random(self, shape):
                return np.full(shape, 1.0 - 2.0 ** -53)

        monkeypatch.setattr(mc.np.random, "Generator", LastDraw)
        for dom in (Ball(9e153, 2), Box((1e154, 1e154))):
            grid = default_t_grid(principal_eigenvalue(dom), 2)
            cfg = SimConfig(domain=dom, start=dom.center(), dt=default_dt(dom, grid),
                            n_paths=5, t_grid=grid, seed=0)
            with np.errstate(all="raise"):
                tau = sample_exit_times(cfg)
            assert np.all(tau == math.inf) and math.isfinite(grid[-1])
            assert estimate_survival(cfg, tau).survival == (1.0, 1.0)

    def test_column_times_never_warn(self):
        # rounded where a step is at least 1e-300 of L^2, exact below; a
        # time past the largest float is inf, and t = 0 exits at 0, also
        # where L^2 = inf
        t = [0.0, 0.5, 2.0]
        for square, dt, times in ((1e308, 1e304, [0.0, 5e307, math.inf]),
                                  (1.0, 0.3, [0.0, 0.6, 2.1]),
                                  (1e308, 1e-300, [0.0, 5e307, math.inf]),
                                  (math.inf, 1e-3, [0.0, math.inf, math.inf])):
            with np.errstate(all="raise"):
                got = _column_times(np.array(t), square, dt)
            np.testing.assert_allclose(got, times, rtol=1e-15)


def test_sim_config_dt_at_most_a_tenth_of_the_grid_spacing():
    # SimConfig is the one check of dt against the grid: it accepts the limit
    # and refuses just past it
    dom = Ball(1.0, 2)
    lam = principal_eigenvalue(dom)
    for points in (2, 3, 25, 1000):
        grid = default_t_grid(lam, points)
        limit = min(b - a for a, b in zip(grid, grid[1:])) / 10.0
        SimConfig(domain=dom, start=dom.center(), dt=limit, n_paths=1,
                  t_grid=grid, seed=0)
        for dt in (limit * (1.0 + 1e-6), 0.0, -limit, math.nan, math.inf):
            with pytest.raises(InfeasibleParameterError):
                SimConfig(domain=dom, start=dom.center(), dt=dt, n_paths=1,
                          t_grid=grid, seed=0)


@pytest.mark.parametrize("domain", [
    ["--dim", "2"], ["--shape", "box", "--sides", "1,1", "--dim", "2"],
    ["--radius", "3", "--dim", "7"],
], ids=["disc", "square", "ball7"])
def test_grid_point_cap_bounds_a_runs_memory(invoke, domain):
    # _MAX_GRID_POINTS states that a run holds under 600 B per grid point,
    # so that the cap's 1,500,001 points need under 1 GB; a run of 20,000
    # points is traced, its exit-time table built beforehand
    argv = ["verify-vbound", *domain, "--paths", "100", "--grid-points"]
    assert invoke(argv + ["2"]).exit_code == 0
    tracemalloc.start()
    try:
        res = invoke(argv + ["20000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    assert peak < 600 * 20000
    assert 600 * _MAX_GRID_POINTS < 1e9


@pytest.mark.parametrize("grid", [(0.0, math.nan, 1.0), (0.0, math.inf),
                                  (0.0, 1.0, math.nan)])
def test_sim_config_refuses_a_nan_or_infinite_grid_time(grid):
    # each comparison with a NaN is false, and an infinite spacing is no
    # bound on dt, so the order and spacing checks alone would pass these
    dom = Ball(1.0, 2)
    with pytest.raises(InfeasibleParameterError, match="t_grid times must be finite"):
        SimConfig(domain=dom, start=dom.center(), dt=1e-3, n_paths=1, t_grid=grid, seed=0)


def test_default_grid_refuses_points_past_the_largest_float():
    # at radius 1e154, 12 / lambda overflows; at 9e153 it is 1.7e308, so the
    # grid's last point overflows unless the grid has only two
    for dom, points in ((Ball(1e154, 2), 2), (Ball(9e153, 2), 3), (Ball(9e153, 2), 25),
                        (Box((1e154, 1e154)), 25)):
        with pytest.raises(InfeasibleParameterError, match="its size is out of range"):
            default_t_grid(principal_eigenvalue(dom), points)
    assert default_t_grid(principal_eigenvalue(Ball(9e153, 2)), 2)[-1] < math.inf


class TestStepKernel:
    """The kernel every exit time comes from: an exact table, inverted, and
    its time reported in whole steps dt."""

    @pytest.mark.parametrize("domain", [
        Ball(1.0, 2), Ball(1.0, 3), Ball(1.0, 10), Ball(1.0, 50), Ball(1.0, 51),
        Ball(1.0, 222), Box((1.0, 1.0)), Box((1.0, 1.0, 1.0)),
    ], ids=["disc", "ball3", "ball10", "ball50", "ball51", "ball222", "square", "cube"])
    def test_exact_tables_never_underflow(self, domain):
        # a table term such as e^(-(21 pi)^2 / 2) is left out, not computed:
        # np.exp, or the matrix product after it, would report an underflow.
        # A ball's terms are ints, and one that reaches 0 is dropped.
        # Both caches are cleared, so that every table is built here
        _centre_inverse.cache_clear()
        _interval_inverse.cache_clear()
        grid = default_t_grid(principal_eigenvalue(domain))
        cfg = SimConfig(domain=domain, start=domain.center(), dt=default_dt(domain, grid),
                        n_paths=200, t_grid=grid, seed=5)
        with np.errstate(all="raise"):
            tau = sample_exit_times(cfg)
        assert np.all(tau > 0.0)


def _interp_inverse(table, v):
    """T(v) from the table (t, s, c_1, lam_1) by numpy's interp over the
    values ascending, and by the first term's inverse below them: the
    reference that _table_inverse's guide table must match byte for byte."""
    t, s, c_1, lam_1 = table
    out = np.interp(v, np.append(s[::-1], 1.0), np.append(t[::-1], 0.0))
    tail = v < s[-1]
    out[tail] = np.log(c_1 / v[tail]) / lam_1
    return out


class TestTableLookup:
    """_table_inverse's guide table, and the cache of interval tables."""

    @pytest.mark.parametrize("kind,arg", [
        ("interval", 0.5), ("interval", 0.25), ("interval", 1e-3), ("centre", 2),
        ("centre", 3), ("centre", 50), ("centre", 51), ("centre", 222),
    ], ids=["interval0.5", "interval0.25", "interval1e-3", "centre2", "centre3",
            "centre50", "centre51", "centre222"])
    def test_lookup_matches_interp_byte_for_byte(self, kind, arg, monkeypatch):
        if kind == "interval":
            table = _interval_table(arg)
        else:
            table = _centre_table(arg)
        inverse = _table_inverse(*table)
        s_up = np.append(table[1][::-1], 1.0)
        rng = np.random.Generator(np.random.Philox(key=30))
        v = np.concatenate([s_up, np.nextafter(s_up, 0.0), np.nextafter(s_up, 2.0),
                            [1.0, 2.0 ** -53], 1.0 - rng.random(200000)])
        v = v[(v >= 2.0 ** -53) & (v <= 1.0)]
        searched, search = [], np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda a, x, *args: searched.append(x) or search(a, x, *args))
        got = inverse(v)
        monkeypatch.undo()
        assert got.tobytes() == _interp_inverse(table, v).tobytes()

        # both branches are taken: a bucket [b/m, (b+1)/m] with one node
        # resolves without a search, on either side of its node, and only
        # buckets with at least two are searched
        n = s_up.size
        m = min(mc._GUIDE_MAX, max(mc._GUIDE_MIN, 1 << (4 * n - 1).bit_length()))
        b = np.floor(v * m)
        first = np.searchsorted(s_up, b / m, "left")
        nodes = np.searchsorted(s_up, (b + 1) / m, "right") - first
        node = s_up[np.minimum(first, n - 1)]
        was_searched = np.isin(v, np.concatenate(searched))
        assert was_searched.any() and np.all(nodes[was_searched] >= 2)
        one = (nodes == 1) & ~was_searched
        assert np.any(one & (v >= node) & (node > b / m))
        assert np.any(one & (v < node))
        assert was_searched[-200000:].mean() < 0.02  # of the random draws

    @pytest.mark.parametrize("f", [1e-10, 1e-14, 1e-20, 1e-100])
    def test_interval_table_near_a_face_is_ordered(self, f):
        # the image sum meets the eigen series with a rise, and dips below
        # 0 where S_1 is below its error; the lookup needs neither
        s = _interval_table(f)[1]
        assert np.all(np.diff(s) <= 0.0) and np.all(s >= 0.0) and s[0] <= 1.0

    def test_interval_tables_are_built_once(self):
        # the square and the cube start at fraction 1/2 on every side
        _interval_inverse.cache_clear()
        sample_exit_times(_box_config(n_paths=100))
        sample_exit_times(_box_config(sides=(1.0, 1.0, 1.0), n_paths=100))
        assert _interval_inverse.cache_info().misses == 1
        # fractions f and 1 - f share one table
        _interval_inverse.cache_clear()
        sample_exit_times(_box_config(start=(0.25, 0.75), n_paths=100))
        assert _interval_inverse.cache_info().misses == 1

    def test_centre_tables_are_built_once_per_dimension(self):
        # the unit ball's table serves every radius, whose eigenvalue would
        # give back j_1 only to within an ulp
        _centre_inverse.cache_clear()
        for radius in (1.0, 0.3, 3.3):
            ball = Ball(radius, 4)
            sample_exit_times(SimConfig(domain=ball, start=ball.center(), dt=1e-3,
                                        n_paths=100, t_grid=(0.0,), seed=3))
        assert _centre_inverse.cache_info().misses == 1


class TestGoldenStream:
    """sha256 of sample_exit_times(...).tobytes() for small runs, three
    256-path chunks each (600 paths, dt=1e-3, seed 2024).  The staggered
    cases use smaller chunks, so that there are many and the last one is
    short.  Every case draws from an exact law: a box from any start, a
    ball from its centre.

    These freeze the documented Philox stream and the samplers' arithmetic:
    a change that alters any exit time must announce it and re-freeze the
    checksums.  The values were produced with numpy 2.4 on x86-64; a numpy
    whose exp, log or sqrt rounds differently, or a C library whose erf or
    erfc does, would change them too.  They do not depend on numpy's
    interp: each draw's node is found by searchsorted and a guide table,
    which are exact, and its time by a separate multiply and add, each
    rounded once.
    """

    @staticmethod
    def _digest(domain, start, chunk_size=256, dt=1e-3):
        lam = principal_eigenvalue(domain)
        cfg = SimConfig(domain=domain, start=start, dt=dt, n_paths=600,
                        t_grid=default_t_grid(lam), seed=2024, chunk_size=chunk_size)
        return hashlib.sha256(sample_exit_times(cfg).tobytes()).hexdigest()

    def test_disc_from_center(self):
        dom = Ball(1.0, 2)
        assert self._digest(dom, dom.center()) == (
            "8f65d93a7fbe5140da179bb4a7081e567013eeb7eb1ac70663c42f329af21e64")

    def test_square_from_center(self):
        dom = Box((1.0, 1.0))
        assert self._digest(dom, dom.center()) == (
            "c1a36af6c9e5547ef10eaac178319f8b3c6f43f1ef32d09251d0076fa811c961")

    def test_square_off_center(self):
        dom = Box((1.0, 1.0))
        assert self._digest(dom, _off_center(dom)) == (
            "c7c83815555800ff8b8f9167a8dd5715285d5942bc473131f9911d65b0fd5078")

    def test_ball_d3_from_center(self):
        # the centre law's table for d = 3, whose zeros are k pi
        dom = Ball(1.0, 3)
        assert self._digest(dom, dom.center()) == (
            "8ba7fd90cb68b4aa1663a8b7e17c3e728c1076e564db00d3b1ef84de3d607bf0")

    def test_cube_from_center(self):
        dom = Box((1.0, 1.0, 1.0))
        assert self._digest(dom, dom.center()) == (
            "a26aa0189ba03343884f55b21cf8c45a724d2780a73932808de478719629a54f")

    def test_long_box_from_center(self):
        dom = Box((10.0, 1.0))
        assert self._digest(dom, dom.center()) == (
            "c9e1fb9c35ec968d40857b31beaf5b4207b8a60b52ac6dc675a3ff24a0036d79")

    def test_disc_staggered_chunks(self):
        # ten 64-path chunks, the last of 24 paths
        dom = Ball(1.0, 2)
        assert self._digest(dom, dom.center(), chunk_size=64) == (
            "f833aa8509da4991addd9c368eb5efcfbd22d83079d61b17520c3607c9c30696")

    def test_cube_staggered_chunks(self):
        dom = Box((1.0, 1.0, 1.0))
        assert self._digest(dom, dom.center(), chunk_size=64) == (
            "ee42da4b5eb27fe5c76cce2291e61a71c3d781d5222ecb5fa1ab7c6afff3f117")

    def test_square_fine_step(self):
        dom = Box((1.0, 1.0))
        assert self._digest(dom, dom.center(), dt=1e-4) == (
            "d70219c81ca780016ba8972e94bb24853febc01507bee9ab2f091dedcaeabff7")

    def test_nine_dimensional_box_fine_step(self):
        # nine coordinates from one start fraction share one table
        dom = Box((1.0,) * 9)
        assert self._digest(dom, dom.center(), dt=1e-4) == (
            "84ff81cef020d68d1aa13b40aaa8036bf25f271b61ee042a34607b42f5d88639")

    def test_flat_box_off_center_fine_step(self):
        # starts at (2.25, 0.25), 0.75 from the nearest end and 0.25 from
        # the two long faces
        dom = Box((3.0, 0.5))
        assert self._digest(dom, _off_center(dom), dt=1e-4) == (
            "45916371257663acc19a4a3677661e00b558026fd5aa7c44828841c45d41e055")


def _exact_interval_survival(t, f):
    """S_1(t; f), the chance that the twice-speed motion started at f is
    still in (0, 1) at time t >= 0, from its series, not from the sampler's
    table: four pairs of images below t = 0.05, the eigen terms k <= 13
    above, each within 1e-30 of the whole sum."""
    from scipy.special import erfc

    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    small = t < 0.05
    scale = 2.0 * np.sqrt(t[small])
    with np.errstate(divide="ignore"):  # t = 0 gives erfc(inf) = 0
        exits = sum((-1.0) ** j * (erfc((j + f) / scale) + erfc((j + 1 - f) / scale))
                    for j in range(4))
    out[small] = 1.0 - exits
    k = np.arange(1, 14, 2) * math.pi
    out[~small] = np.exp(np.multiply.outer(t[~small], -k * k)) @ (4.0 / k * np.sin(k * f))
    return out


class TestExactBoxLaw:
    """Box exit times against their exact law."""

    @pytest.mark.parametrize("sides,start,dt", [
        ((1.0, 1.0), None, None),
        ((1.0, 1.0), (0.75, 0.5), None),
        ((1.0, 1.0, 1.0), None, None),
        ((1.0,) * 9, None, None),
        ((3.0, 0.5), (2.25, 0.25), None),
        ((1.0, 1.0), None, 2e-3),
    ], ids=["square", "square_off_center", "cube", "nine_dimensional", "flat_box_off_center",
            "square_coarse_step"])
    def test_survival_matches_the_product_series(self, sides, start, dt):
        # an exit time is dt * ceil(tau / dt), so it outlives t exactly when
        # tau outlives dt * floor(t / dt); box survival is the product of the
        # sides' interval survivals.  At the default dt a shift by one step
        # moves survival by well under its standard error; the coarse step
        # shows it.
        dom = Box(sides)
        start = start or dom.center()
        grid = default_t_grid(principal_eigenvalue(dom))
        cfg = SimConfig(domain=dom, start=start, dt=dt or default_dt(dom, grid),
                        n_paths=100000, t_grid=grid, seed=2024)
        est = np.asarray(estimate_survival(cfg, sample_exit_times(cfg)).survival)
        floor = cfg.dt * np.floor(np.asarray(cfg.t_grid) / cfg.dt)
        exact = np.prod([_exact_interval_survival(floor / (side * side), x / side)
                         for x, side in zip(start, sides)], axis=0)
        z = (est - exact)[1:] / np.sqrt(exact * (1.0 - exact) / cfg.n_paths)[1:]
        assert np.all(np.abs(z) <= 4.0), z

    @pytest.mark.parametrize("f", [0.5, 0.75, 0.1, 0.01])
    def test_inverse_keeps_the_stated_cdf_bound(self, f):
        # T is nondecreasing, so the CDF of T(V) is within 1e-6 of the
        # exact one exactly when S_1(T(v)) is within 1e-6 of S_1 at the
        # exact inverse of v, found here by bisection of the series
        near_zero = np.geomspace(2.0 ** -53, 0.01, 20000)
        levels = np.concatenate([np.linspace(0.0, 1.0, 60002)[1:-1], near_zero,
                                 1.0 - near_zero])
        lo, hi = np.full_like(levels, 1e-14), np.full_like(levels, 10.0)
        for _ in range(45):
            mid = np.sqrt(lo * hi)
            above = _exact_interval_survival(mid, f) > levels
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        exact = _exact_interval_survival(hi, f)
        assert np.abs(exact - levels).max() <= 1e-9
        error = np.abs(_exact_interval_survival(_interval_inverse(f)(levels), f) - exact)
        assert error.max() <= 1e-6



def _centre_cut(dim):
    """The t below which _exact_centre_survival takes S as 1: 2e-3 up to
    dim = 10, and 3e-3 at dim = 50, where P(tau <= 3e-3) is below 5.5e-13
    by the Doob bound exp(dim/2 (ln r - r + 1)), r = 1 / (2 dim t), of
    `_doob_floor`."""
    return 3e-3 if dim == 50 else 2e-3


def _exact_centre_survival(dim, t):
    """S(t) from the centre of the unit ball in R^dim, dim = 3 or even, from
    its series and not from the sampler's table: 2 sum_k (-1)^(k+1)
    exp(-k^2 pi^2 t) at dim = 3, and sum_k c_k exp(-j_k^2 t) with
    c_k = j_k^(nu-1) / (2^(nu-1) Gamma(nu+1) J_{nu+1}(j_k)) and scipy's zeros
    otherwise.  80 terms, which are within 1e-20 of the whole sum from
    `_centre_cut`; below it S is 1 to within 1e-12.  Up to dim = 10 the
    float sum is within 1e-12 of S there; at dim = 50 its terms reach 2e7
    at the cut, and it is within about 2e-8 of S."""
    from scipy.special import gamma, jn_zeros, jv

    t = np.asarray(t, dtype=np.float64)
    if dim == 3:
        k = np.arange(1, 81)
        j, c = k * math.pi, 2.0 * (-1.0) ** (k + 1)
    else:
        nu = dim // 2 - 1
        j = jn_zeros(nu, 80)
        c = j ** (nu - 1) / (2.0 ** (nu - 1) * gamma(nu + 1) * jv(nu + 1, j))
    out = np.ones_like(t)
    late = t >= _centre_cut(dim)
    out[late] = np.exp(np.multiply.outer(t[late], -j * j)) @ c
    return out


class TestExactBallLaw:
    """Exit times from a ball's centre against their exact law."""

    @pytest.mark.parametrize("dim", [2, 3, 10, 50])
    def test_inverse_keeps_the_stated_cdf_bound(self, dim):
        # as TestExactBoxLaw's test: S(T(v)) within 1e-6 of S at the exact
        # inverse of v, found by bisection of the series, which at dim = 50
        # is itself within only 2e-8 of S near its cut
        cut = np.array([_centre_cut(dim)])
        assert abs(_exact_centre_survival(dim, cut)[0] - 1.0) < (2e-8 if dim == 50 else 1e-12)
        inverse = _centre_inverse(dim)
        near_zero = np.geomspace(2.0 ** -53, 0.01, 2000)
        levels = np.concatenate([np.linspace(0.0, 1.0, 10002)[1:-1], near_zero,
                                 1.0 - near_zero])
        lo, hi = np.full_like(levels, 1e-3), np.full_like(levels, 10.0)
        for _ in range(36):
            mid = np.sqrt(lo * hi)
            above = _exact_centre_survival(dim, mid) > levels
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        exact = _exact_centre_survival(dim, hi)
        assert np.abs(exact - levels).max() <= 1e-9
        error = np.abs(_exact_centre_survival(dim, inverse(levels)) - exact)
        assert error.max() <= 1e-6

    @pytest.mark.parametrize("dim", [2, 3, 10, 200])
    def test_survival_lies_in_the_simultaneous_band(self, dim):
        # an exit time outlives t exactly when tau outlives dt * floor(t / dt);
        # at every grid point t > 0 the count of survivors must lie inside
        # the binomial 95% band, taken simultaneously over the grid points.
        # At d = 200 the default grid ends at 12 / lambda ~ 1e-3, where S is
        # still 1 - 1e-20, so there the grid spans the law's bulk instead and
        # S comes from the frozen literals
        from scipy.stats import binom

        dom = Ball(1.0, dim)
        if dim == 200:
            grid = tuple(0.0012 + 0.00015 * i for i in range(25))
        else:
            grid = default_t_grid(principal_eigenvalue(dom))
        cfg = SimConfig(domain=dom, start=dom.center(), dt=default_dt(dom, grid),
                        n_paths=100000, t_grid=grid, seed=2024)
        est = estimate_survival(cfg, sample_exit_times(cfg))
        counts = np.rint(np.asarray(est.survival) * cfg.n_paths)[1:]
        floor = cfg.dt * np.floor(np.asarray(cfg.t_grid) / cfg.dt)
        if dim == 200:
            exact = np.array([float(dict(GRID_200)[t]) for t in floor.tolist()])[1:]
        else:
            exact = _exact_centre_survival(dim, floor)[1:]
        tail = 0.025 / counts.size
        assert np.all(binom.cdf(counts, cfg.n_paths, exact) > tail)
        assert np.all(binom.sf(counts - 1, cfg.n_paths, exact) > tail)

    @pytest.mark.parametrize("radius", [1.0, 2.0])
    @pytest.mark.parametrize("dim", [2, 3, 10, 50, 51, 200, 222])
    def test_moments_match_the_rayleigh_sums(self, dim, radius):
        # tau = R^2 sum_k E_k / j_k^2 with E_k ~ Exp(1) (Kent, Ann. Probab. 6
        # (1978)), and the Rayleigh sums give E tau = R^2 / (2d) and
        # Var tau = R^4 / (2 d^2 (d+2)); rounding up to whole steps adds
        # dt / 2 to the mean and dt^2 / 12 to the variance
        dom = Ball(radius, dim)
        grid = default_t_grid(principal_eigenvalue(dom))
        cfg = SimConfig(domain=dom, start=dom.center(), dt=default_dt(dom, grid),
                        n_paths=200000, t_grid=grid, seed=2024)
        tau = sample_exit_times(cfg)
        mean = radius ** 2 / (2 * dim) + cfg.dt / 2
        var = radius ** 4 / (2 * dim ** 2 * (dim + 2)) + cfg.dt ** 2 / 12
        n = tau.size
        assert abs(tau.mean() - mean) <= 3.0 * math.sqrt(tau.var() / n)
        fourth = np.mean((tau - tau.mean()) ** 4)
        assert abs(tau.var() - var) <= 3.0 * math.sqrt((fourth - tau.var() ** 2) / n)

    def test_a_chord_bound_below_the_finest_step_is_refused(self, monkeypatch):
        # no step may be shorter than the grid's unit h = t_lo 2^-20
        monkeypatch.setattr(mc, "_CHORD_ERROR", 1e-30)
        with pytest.raises(AccuracyError, match="needs steps below h"):
            _centre_table(2)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 110.0])
    def test_a_zero_off_its_root_is_refused(self, nu):
        # two Newton steps from 1e-3 away leave the zero far outside
        # z -+ z 2^-120, where the signs of S_nu then agree
        j = first_bessel_zero(nu).value
        mc._refined_zero(nu, j)
        with pytest.raises(AccuracyError, match="no proven sign change"):
            mc._refined_zero(nu, j + 1e-3)

    @pytest.mark.parametrize("dim", sorted(NODES))
    def test_fixed_point_table_matches_the_references(self, dim):
        # 23 nodes from t_lo, where the terms reach 1e16 at d = 200, to
        # t_end, against 50-digit literals (centre_survival_reference.py)
        t, s, _, _ = _centre_table(dim)
        for i, t_ref, s_ref in NODES[dim]:
            assert t[i] == t_ref
            assert abs(s[i] - float(s_ref)) <= 1e-9, (i, s[i], s_ref)

    def test_interval_is_a_ball_of_dimension_one(self):
        # (-R, R) entered at 0 is the box (0, 2R) entered at its middle
        for radius in (1.0, 0.3):
            ball, box = Ball(radius, 1), Box((2.0 * radius,))
            kw = dict(dt=1e-3, n_paths=3000, t_grid=(0.0,), seed=8, chunk_size=1000)
            assert np.array_equal(
                sample_exit_times(SimConfig(domain=ball, start=ball.center(), **kw)),
                sample_exit_times(SimConfig(domain=box, start=box.center(), **kw)))


class TestSurvival:
    def test_trivial_grid(self):
        dom = Ball(1.0, 2)
        cfg = SimConfig(domain=dom, start=dom.center(), dt=1e-3, n_paths=200,
                        t_grid=(0.0,), seed=2)
        est = _survival(cfg)
        assert est.survival == (1.0,)

    def test_deep_tail_is_negligible(self):
        dom = Ball(1.0, 2)
        lam = principal_eigenvalue(dom)
        cfg = SimConfig(domain=dom, start=dom.center(), dt=1e-3, n_paths=2000,
                        t_grid=(0.0, 10.0 / lam, 30.0 / lam), seed=9)
        est = _survival(cfg)
        assert est.survival[-1] <= 1e-6

    def test_survival_nonincreasing(self):
        est = _survival(_ball_config(n_paths=4000, dt=1e-3))
        surv = np.asarray(est.survival)
        assert np.all(np.diff(surv) <= 1e-15)
        assert all(lo <= s <= hi for lo, s, hi in
                   zip(est.ci_low, est.survival, est.ci_high))

    def test_boundary_start_rejected(self):
        dom = Box((1.0, 1.0))
        cfg = SimConfig(domain=dom, start=(0.5, 1.0), dt=1e-3, n_paths=100,
                        t_grid=(0.0,), seed=3)
        with pytest.raises(InfeasibleParameterError):
            estimate_survival(cfg, sample_exit_times(cfg))

    def test_exit_time_count_must_match(self):
        cfg = _ball_config(n_paths=100, dt=1e-3)
        tau = sample_exit_times(cfg)
        for bad in (tau[:-1], np.concatenate([tau, tau]), tau.reshape(10, 10)):
            with pytest.raises(InfeasibleParameterError):
                estimate_survival(cfg, bad)

    def test_counts_match_the_matrix_form(self):
        # survivors of each grid time, counted without the n x grid matrix;
        # a third of the exit times fall exactly on grid points
        rng = np.random.default_rng(16)
        for size in (0, 1, 2, 25, 60):
            grid = np.sort(rng.choice(np.linspace(0.0, 3.0, 301), size, replace=False))
            tau = rng.uniform(-0.5, 3.5, 3000)
            if size:
                tau[::3] = rng.choice(grid, 1000)
            tau[:4] = (0.0, 3.0, math.inf, -math.inf)
            expected = (tau[:, None] > grid[None, :]).sum(axis=0)
            assert np.array_equal(_survivor_counts(tau, grid), expected), size

    def test_nan_exit_time_refused(self):
        # tau > grid would count a NaN as surviving no grid time, and a grid
        # search as surviving every one: a NaN exit time is refused instead
        cfg = _ball_config(n_paths=100, dt=1e-3)
        tau = sample_exit_times(cfg)
        tau[7] = math.nan
        with pytest.raises(InfeasibleParameterError, match="NaN"):
            estimate_survival(cfg, tau)

    def test_path_cap(self):
        # the config refuses the count, so no path array is ever allocated
        import hotspots.montecarlo as mc
        cfg = _ball_config(n_paths=mc._MAX_PATHS)
        for n in (mc._MAX_PATHS + 1, 10 ** 12):
            with pytest.raises(InfeasibleParameterError, match="at most 1e\\+08"):
                cfg._replace(n_paths=n)

    def test_fingerprint_tracks_config(self):
        a = _ball_config(n_paths=100, dt=1e-3)
        b = _ball_config(n_paths=100, dt=1e-3, seed=43)
        assert a.fingerprint() == a.fingerprint()
        assert a.fingerprint() != b.fingerprint()
        assert len(a.fingerprint()) == 64
        assert a._replace(n_paths=200).fingerprint() != a.fingerprint()


class TestVBound:
    def test_disc_passes_reference_epsilons(self):
        est = _survival(_ball_config(n_paths=10000))
        lam = principal_eigenvalue(Ball(1.0, 2))
        for eps in (0.25, 0.5, 0.75):
            for vkind in (VKind.VOGT, VKind.IMPROVED_VOGT):
                rep = check_vbound(est, vkind, eps, lam, 2)
                assert rep.passed, (eps, vkind, rep.worst_margin)
                assert rep.worst_margin >= 0.0

    def test_bound_curve_shape(self):
        est = _survival(_ball_config(n_paths=4000, dt=1e-3))
        lam = principal_eigenvalue(Ball(1.0, 2))
        rep = check_vbound(est, VKind.VOGT, 0.5, lam, 2)
        curve = np.asarray(rep.bound_curve)
        grid = np.asarray(est.t_grid)
        lv = float(curve[0])  # t = 0 gives V itself
        assert lv == pytest.approx(math.exp(0.3466), abs=0.1)
        expect = curve[0] * np.exp(-(1.0 - 0.5) * lam * grid)
        assert np.allclose(curve, expect, rtol=1e-12)

    def test_failure_detected(self):
        # a fabricated certain-survival estimate must violate the bound
        grid = tuple(float(t) for t in np.linspace(0.0, 2.0, 9))
        fake = TailEstimate(t_grid=grid, survival=(1.0,) * 9,
                            ci_low=(0.99,) * 9, ci_high=(1.0,) * 9,
                            n_paths=1000, config_fingerprint="0" * 64)
        rep = check_vbound(fake, VKind.VOGT, 0.5, 5.7832, 2)
        assert not rep.passed
        assert rep.worst_margin < 0.0
        assert rep.worst_index == 8

    def test_epsilon_one_is_rejected(self):
        # V e^0 >= 1 bounds every survival curve: the check would be vacuous
        grid = (0.0, 1.0)
        est = TailEstimate(t_grid=grid, survival=(1.0, 0.5), ci_low=(0.9, 0.4),
                           ci_high=(1.0, 0.6), n_paths=10, config_fingerprint="0" * 64)
        for eps in (1.0, 1.5, 0.0):
            with pytest.raises(InfeasibleParameterError):
                check_vbound(est, VKind.VOGT, eps, 5.7832, 2)


def _scipy_test_counts(n):
    """0..12, n-12..n and 40 random counts out of n."""
    rng = np.random.default_rng(n)
    return np.unique(np.concatenate([np.arange(min(n, 12) + 1),
                                     np.arange(max(0, n - 12), n + 1),
                                     rng.integers(0, n + 1, 40)]))


def _rel(value, ref):
    return abs(value / float(ref) - 1.0)


class TestClopperPearson:
    """The limits against references frozen from a 60-digit run
    (tests/clopper_pearson_reference.py), and each path of the solver."""

    #: survival counts of a 10^4-path unit-disc job on the default 25-point grid
    CURVE = [10000, 8984, 5794, 3577, 2141, 1271, 774, 463, 276, 161, 107, 66, 37,
             22, 8, 7, 6, 5, 2, 2, 1, 1, 0, 0, 0]

    @pytest.mark.parametrize("n", sorted(LIMITS))
    def test_limits_match_the_references(self, n):
        rows = LIMITS[n]
        k = np.array([row[0] for row in rows])
        assert np.array_equal(k, _scipy_test_counts(n))
        lo, hi = _clopper_pearson(k, n)
        assert np.all((lo <= k / n) & (k / n <= hi))
        for (count, ref_lo, ref_hi), got_lo, got_hi in zip(rows, lo.tolist(), hi.tolist()):
            if ref_lo is None:
                assert got_lo == 0.0
            else:
                assert _rel(got_lo, ref_lo) <= 1e-12, (count, got_lo, ref_lo)
                # both x and 1 - x, each to its own relative precision
                x, xc = _beta_tail_point(count, n - count + 1)
                assert x == got_lo
                assert _rel(xc, Decimal(1) - Decimal(ref_lo)) <= 1e-12
            if ref_hi is None:
                assert got_hi == 1.0
            else:
                assert _rel(got_hi, ref_hi) <= 1e-12, (count, got_hi, ref_hi)
                xc, x = _beta_tail_point(n - count, count + 1)
                assert x == got_hi
                assert _rel(xc, Decimal(1) - Decimal(ref_hi)) <= 1e-12

    def test_one_fraction_per_limit_on_a_survival_curve(self, monkeypatch):
        # 19 distinct counts strictly between 0 and n give 38 limits; the low
        # limit of 1 has a closed form.  Each limit of a count from 37 (high)
        # up takes one evaluation; the low limit of 37, both limits of 2 to 22
        # and the high limit of 1, whose starts are 3e-3 to 0.15 off in ln I,
        # take two
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        real = mc._beta_fraction
        monkeypatch.setattr(mc, "_beta_fraction", counted)
        _clopper_pearson(np.array(self.CURVE), 10 ** 4)
        assert len(calls) == 51

    def test_a_start_outside_the_bracket_is_bisected(self, monkeypatch):
        # the normal-approximation start lands inside the bracket for every
        # count tried; past the mean, it is replaced by the bracket's midpoint
        ref = dict((row[0], row[1]) for row in LIMITS[1000])[5]
        monkeypatch.setattr(mc, "_beta_tail_start", lambda a, b: (0.3, 0.7))
        x, xc = _beta_tail_point(5, 996)
        assert _rel(x, ref) <= 1e-12
        monkeypatch.setattr(mc, "_NEWTON_STEPS", 2)
        with pytest.raises(AccuracyError, match="was not found"):
            _beta_tail_point(5, 996)

    def test_no_bound_where_the_proof_would_cross_zero(self):
        # from x = 1e-4, far below the root near 1.6e-3, the interval of
        # _tail_step's proof would reach past x = 0, where phi is singular
        f, slope = _log_beta_cdf(1e-4, True, 5, 996)
        t, err = mc._tail_step(1e-4, True, 5, 996, f - math.log(0.025), slope)
        assert t > 1e-4 and err == math.inf

    def test_fraction_raises_where_it_does_not_converge(self):
        # (a + 1) / (a + b + 2) <= x < a / (a + b): the solver never goes
        # there, and the fraction refuses to return an unconverged value
        a, b = 6 * 10 ** 7, 4 * 10 ** 7 + 1
        x = 0.5 * ((a + 1) / (a + b + 2) + a / (a + b))
        with pytest.raises(AccuracyError, match="did not converge"):
            _beta_fraction(1.0 - x, False, a, b)

    def test_fraction_survives_a_zero_denominator(self):
        # b_0 = 1 - (a + b) x / (a + 1) = 0 at x = 1/2 for (3, 5); the
        # fraction ends after b = 5 steps, so it holds there:
        # I_{1/2}(3, 5) = P(Bin(7, 1/2) >= 3) = 99/128
        for on_x in (True, False):
            ln_i, _ = _log_beta_cdf(0.5, on_x, 3, 5)
            assert ln_i == pytest.approx(math.log(99 / 128), rel=1e-14)


class TestPlumbing:
    def test_clopper_pearson_edges_and_reference(self):
        lo, hi = _clopper_pearson(np.array([0]), 10)
        assert lo[0] == 0.0
        assert hi[0] == pytest.approx(1.0 - 0.025 ** 0.1, rel=1e-10)
        lo, hi = _clopper_pearson(np.array([10]), 10)
        assert hi[0] == 1.0
        assert lo[0] == pytest.approx(0.025 ** 0.1, rel=1e-10)
        lo, hi = _clopper_pearson(np.array([5]), 10)
        assert lo[0] == pytest.approx(0.18708602844739855, rel=1e-10)
        assert hi[0] == pytest.approx(0.8129139715526015, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 10, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, _MAX_PATHS])
    def test_clopper_pearson_matches_scipy(self, n):
        # scipy is a test dependency only; its betaincinv is the reference
        from scipy.special import betaincinv

        k = _scipy_test_counts(n)
        lo, hi = _clopper_pearson(k, n)
        kf = k.astype(np.float64)
        ref_lo = np.where(k == 0, 0.0, betaincinv(kf, n - kf + 1.0, 0.025))
        ref_hi = np.where(k == n, 1.0, betaincinv(kf + 1.0, n - kf, 0.975))
        rel = 1e-10 if n <= 10 ** 6 else 1e-8
        np.testing.assert_allclose(lo, ref_lo, rtol=rel, atol=0.0)
        np.testing.assert_allclose(hi, ref_hi, rtol=rel, atol=0.0)
        assert np.all((lo <= k / n) & (k / n <= hi))
        # the closed forms at k = 0 and k = n agree with scipy to an ulp or so
        lo, hi = _clopper_pearson(np.array([0, n]), n)
        assert hi[0] == pytest.approx(betaincinv(1.0, n, 0.975), rel=1e-15, abs=0.0)
        assert lo[1] == pytest.approx(betaincinv(n, 1.0, 0.025), rel=1e-15, abs=0.0)

    def test_default_dt_scales(self):
        for dom, dt in ((Ball(2.0, 3), 4e-4), (Box((1.0, 3.0)), 1e-4)):
            assert default_dt(dom, ()) == pytest.approx(dt)
            assert default_dt(dom, default_t_grid(principal_eigenvalue(dom))) == dt

    @pytest.mark.parametrize("dom, unclamped", [
        (Ball(1.0, 37), 1e-4), (Ball(3.0, 200), 9e-4), (Box((1.0,) * 51), 1e-4),
    ], ids=["ball37", "ball200", "box51"])
    def test_default_dt_fits_the_grid(self, dom, unclamped):
        # lambda grows like d^2 on a ball and like d on a box, so in high
        # dimension a tenth of the default grid's spacing is below 1e-4 L^2,
        # which SimConfig would refuse
        grid = default_t_grid(principal_eigenvalue(dom))
        dt = default_dt(dom, grid)
        assert dt == min(b - a for a, b in zip(grid, grid[1:])) / 10.0 < unclamped
        ok = dict(domain=dom, start=dom.center(), n_paths=1, t_grid=grid, seed=0)
        SimConfig(dt=dt, **ok)
        with pytest.raises(InfeasibleParameterError, match="one tenth"):
            SimConfig(dt=unclamped, **ok)

    def test_default_grid(self):
        lam = 5.0
        grid = default_t_grid(lam, points=25)
        assert len(grid) == 25
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(12.0 / lam)

    def test_config_validation(self):
        dom = Ball(1.0, 2)
        ok = dict(domain=dom, start=(0.0, 0.0), dt=1e-3, n_paths=10,
                  t_grid=(0.0, 0.5), seed=0)
        SimConfig(**ok)
        for patch in (
            dict(start=(0.0, 0.0, 0.0)),
            dict(dt=0.0),
            dict(dt=0.2),  # more than a tenth of the grid spacing
            dict(n_paths=0),
            dict(t_grid=(0.5, 0.2)),
            dict(t_grid=(-1.0, 0.5)),
            dict(seed=-1),
            dict(seed=2**64),
            dict(start=(2.0, 0.0)),  # outside
            dict(start=(0.5, 0.0)),  # a ball starts at its centre only
            dict(chunk_size=0),
        ):
            with pytest.raises(InfeasibleParameterError):
                SimConfig(**{**ok, **patch})

    @pytest.mark.parametrize("name", ["seed", "n_paths", "chunk_size"])
    @pytest.mark.parametrize("value", [1.5, 10.0, True])
    def test_config_counts_must_be_integers(self, name, value):
        # seed=1.5 would run seed 1's stream under another fingerprint; a
        # float count would fail later inside range or numpy
        cfg = _ball_config(n_paths=10, dt=1e-3)
        with pytest.raises(InfeasibleParameterError, match=f"{name} must be an integer"):
            SimConfig(**{**cfg._asdict(), name: value})

    def test_every_record_construction_path_is_checked(self):
        cfg = _ball_config(n_paths=10, dt=1e-3)
        fields = cfg._asdict()
        assert SimConfig(*cfg) == SimConfig(**fields) == SimConfig._make(cfg) == cfg
        for make in (lambda: SimConfig(*cfg[:3], 0, *cfg[4:]),
                     lambda: SimConfig(**{**fields, "n_paths": 0}),
                     lambda: SimConfig._make(cfg[:3] + (0,) + cfg[4:]),
                     lambda: cfg._replace(n_paths=0)):
            with pytest.raises(InfeasibleParameterError, match="n_paths must be >= 1"):
                make()
        for make in (lambda: Ball._make((0.0, 2)), lambda: Ball(1.0, 2)._replace(dim=223),
                     lambda: Box._make(([1.0, -1.0],)),
                     lambda: Box((1.0,))._replace(sides=())):
            with pytest.raises(InfeasibleParameterError):
                make()
        est = _survival(cfg)
        with pytest.raises(AccuracyError, match="nonincreasing"):
            est._replace(survival=est.survival[::-1])
        with pytest.raises(InfeasibleParameterError, match="align"):
            TailEstimate._make(est[:1] + ((),) + est[2:])
        assert Ball(1.0, 2) == (1.0, 2) and Ball(1.0, 2)[1] == 2

    def test_domain_validation(self):
        with pytest.raises(InfeasibleParameterError):
            Ball(0.0, 2)
        with pytest.raises(InfeasibleParameterError):
            Ball(1.0, 0)
        with pytest.raises(InfeasibleParameterError):
            Box(())
        with pytest.raises(InfeasibleParameterError):
            Box((1.0, -2.0))
        assert Box((1.0, 2.0)).center() == (0.5, 1.0)
        assert Ball(1.0, 3).center() == (0.0, 0.0, 0.0)
