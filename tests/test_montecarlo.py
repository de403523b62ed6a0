"""Exit-time simulation: eigenvalues, means, tails, bridge, and reproducibility.

Path counts here are sized for CI speed; the heavy statistical checks at
100k paths live in the acceptance suite.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hotspots import (
    AccuracyError,
    DomainShape,
    InfeasibleParameterError,
    SimConfig,
    SimDomain,
    TailEstimate,
    VKind,
    check_vbound,
    default_dt,
    default_t_grid,
    estimate_survival,
    first_bessel_zero,
    off_center_start,
    principal_eigenvalue,
    sample_exit_times,
)
from hotspots.montecarlo import (
    _MAX_PATHS,
    _NEAR_FACE,
    _box_bridge_exits,
    _clopper_pearson,
    _crossing_probability,
    check_grid_dt,
    _row_reduce,
    _row_sum_squares,
    _survivor_counts,
)


def _ball_config(n_paths=20000, dt=1e-4, seed=42, radius=1.0, dim=2, **kw):
    dom = SimDomain.ball(radius, dim)
    lam = principal_eigenvalue(dom)
    return SimConfig(domain=dom, start=dom.center(), dt=dt, n_paths=n_paths,
                     t_grid=default_t_grid(lam), seed=seed, **kw)


def _survival(cfg):
    return estimate_survival(cfg, sample_exit_times(cfg))


class TestEigenvalue:
    def test_unit_disc(self):
        lam = principal_eigenvalue(SimDomain.ball(1.0, 2))
        assert lam == pytest.approx(5.7831859629, abs=1e-8)
        j01 = first_bessel_zero(0.0).value
        assert lam == pytest.approx(j01 * j01, rel=1e-12)

    def test_unit_square(self):
        lam = principal_eigenvalue(SimDomain.box((1.0, 1.0)))
        assert lam == pytest.approx(2.0 * math.pi**2, rel=1e-12)

    def test_ball_radius_two_dim_three(self):
        lam = principal_eigenvalue(SimDomain.ball(2.0, 3))
        # j_{1/2,1} = pi, so lambda = (pi/2)^2
        assert lam == pytest.approx(math.pi**2 / 4.0, rel=1e-10)

    def test_interval(self):
        lam = principal_eigenvalue(SimDomain.ball(1.0, 1))
        assert lam == pytest.approx((math.pi / 2.0) ** 2, rel=1e-12)

    def test_box_sides_given_as_list(self):
        # the eigenvalue is cached per domain, so a list of sides must still
        # give a hashable domain
        dom = SimDomain(shape=DomainShape.BOX, dim=2, sides=[2.0, 0.5])
        assert dom.sides == (2.0, 0.5)
        assert principal_eigenvalue(dom) == principal_eigenvalue(SimDomain.box((2.0, 0.5)))

    def test_box_scaling(self):
        lam = principal_eigenvalue(SimDomain.box((2.0, 0.5)))
        assert lam == pytest.approx(math.pi**2 * (0.25 + 4.0), rel=1e-12)


class TestExitTimes:
    def test_mean_from_disc_center(self):
        cfg = _ball_config(n_paths=20000)
        tau = sample_exit_times(cfg)
        se = tau.std() / math.sqrt(len(tau))
        assert abs(tau.mean() - 0.25) <= 3.0 * se + 3e-4

    def test_mean_scales_with_radius(self):
        dom = SimDomain.ball(2.0, 2)
        cfg = SimConfig(domain=dom, start=dom.center(), dt=default_dt(dom),
                        n_paths=10000, t_grid=(0.0,), seed=11)
        tau = sample_exit_times(cfg)
        se = tau.std() / math.sqrt(len(tau))
        assert abs(tau.mean() - 1.0) <= 3.0 * se + 1.5e-3

    def test_boundary_start_exits_immediately(self):
        dom = SimDomain.ball(1.0, 2)
        cfg = SimConfig(domain=dom, start=(1.0, 0.0), dt=1e-3, n_paths=500,
                        t_grid=(0.0,), seed=5)
        assert np.all(sample_exit_times(cfg) == 0.0)

    def test_deterministic_replay(self):
        cfg = _ball_config(n_paths=3000, dt=1e-3)
        a = sample_exit_times(cfg)
        b = sample_exit_times(cfg)
        assert np.array_equal(a, b)
        c = sample_exit_times(_ball_config(n_paths=3000, dt=1e-3, seed=43))
        assert not np.array_equal(a, c)

    def test_chunking_is_invisible(self, monkeypatch):
        # chunk i run alone, from its own stream Philox(key=seed) jumped i
        # times, then concatenated in chunk order, must reproduce the pooled
        # run of all chunks exactly
        import hotspots.montecarlo as mc
        cfg = _ball_config(n_paths=5000, dt=1e-3, chunk_size=1024)
        pooled = sample_exit_times(cfg)
        philox = np.random.Philox
        parts = []
        for i, take in enumerate([1024, 1024, 1024, 1024, 904]):
            monkeypatch.setattr(mc.np.random, "Philox",
                                lambda key, i=i: philox(key=key).jumped(i))
            parts.append(sample_exit_times(dataclasses.replace(cfg, n_paths=take)))
        assert np.array_equal(np.concatenate(parts), pooled)

    def test_pool_admits_a_chunk_once_at_most_chunk_size_paths_remain(self, monkeypatch):
        # record every draw; chunks are created, and draw within a step, in
        # chunk order, so a draw from a chunk no later than the previous one
        # starts a new step
        import hotspots.montecarlo as mc
        real = np.random.Generator
        draws = []  # (chunk, rows) of each normal block

        class RecordingGenerator:
            created = 0

            def __init__(self, bit_generator):
                self._rng = real(bit_generator)
                self.chunk = RecordingGenerator.created
                RecordingGenerator.created += 1

            def standard_normal(self, *, out):
                draws.append((self.chunk, out.shape[0]))
                self._rng.standard_normal(out=out)

            def random(self, *, out):
                self._rng.random(out=out)

        size = 64
        cfg = _ball_config(n_paths=600, dt=1e-3, chunk_size=size)
        expect = sample_exit_times(cfg)
        monkeypatch.setattr(mc.np.random, "Generator", RecordingGenerator)
        assert np.array_equal(sample_exit_times(cfg), expect)
        assert RecordingGenerator.created == 10

        steps = []
        for chunk, rows in draws:
            if not steps or chunk <= steps[-1][-1][0]:
                steps.append([])
            steps[-1].append((chunk, rows))
        first_step = {}
        for s, step in enumerate(steps):
            assert sum(rows for _, rows in step) <= 2 * size
            for chunk, rows in step:
                assert rows > 0  # a chunk with no path left stops drawing
                if chunk not in first_step:
                    first_step[chunk] = s
                    assert rows == min(size, 600 - chunk * size)
                    # the pool before this chunk joined held at most size paths
                    assert sum(r for c, r in step if c < chunk) <= size
            if len(first_step) < 10:
                # a chunk still waits only while the pool is over size
                assert sum(rows for _, rows in step) > size
        assert list(first_step) == list(range(10))  # chunks join in chunk order
        assert first_step[0] == first_step[1] == 0

    def test_bridge_correction_reduces_mean(self):
        # without the crossing correction, discrete sampling overstays;
        # pairing the seed isolates the correction's effect
        on = _ball_config(n_paths=20000, dt=2e-3, bridge_correction=True)
        off = _ball_config(n_paths=20000, dt=2e-3, bridge_correction=False)
        tau_on = sample_exit_times(on)
        tau_off = sample_exit_times(off)
        se = tau_off.std() / math.sqrt(len(tau_off))
        assert tau_on.mean() < tau_off.mean() - se

    def test_survivor_overflow_raises(self, monkeypatch):
        # freeze the driving noise so no path can ever exit
        class FrozenGenerator:
            def __init__(self, bit_generator):
                pass

            def standard_normal(self, *, out):
                out[...] = 0.0

            def random(self, *, out):
                out[...] = 1.0

        import hotspots.montecarlo as mc
        monkeypatch.setattr(mc.np.random, "Generator", FrozenGenerator)
        dom = SimDomain.ball(1.0, 2)
        lam = principal_eigenvalue(dom)
        # one chunk, and four chunks of which only two ever join the pool
        for chunk_size in (65536, 4):
            cfg = SimConfig(domain=dom, start=dom.center(), dt=1.0 / lam,
                            n_paths=16, t_grid=(0.0,), seed=1, chunk_size=chunk_size)
            with pytest.raises(AccuracyError):
                sample_exit_times(cfg)

    def test_step_cap_rejects_a_tiny_dt(self, monkeypatch):
        import hotspots.montecarlo as mc
        cfg = _ball_config(n_paths=10, dt=1e-3)
        steps = 80.0 / principal_eigenvalue(cfg.domain) / cfg.dt  # about 13833
        monkeypatch.setattr(mc, "_MAX_STEPS", math.floor(steps))
        with pytest.raises(InfeasibleParameterError):
            sample_exit_times(cfg)
        monkeypatch.setattr(mc, "_MAX_STEPS", math.ceil(steps))
        assert sample_exit_times(cfg).shape == (10,)


def test_grid_dt_check_agrees_with_sim_config():
    # check_grid_dt runs before the grid exists; at the limit it must accept
    # what SimConfig accepts, and reject just past it
    dom = SimDomain.ball(1.0, 2)
    lam = principal_eigenvalue(dom)
    for points in (2, 3, 25, 1000):
        grid = default_t_grid(lam, points)
        limit = min(b - a for a, b in zip(grid, grid[1:])) / 10.0
        check_grid_dt(lam, points, limit)
        SimConfig(domain=dom, start=dom.center(), dt=limit, n_paths=1,
                  t_grid=grid, seed=0)
        for dt in (limit * (1.0 + 1e-6), 0.0, -limit, math.nan, math.inf):
            with pytest.raises(InfeasibleParameterError):
                check_grid_dt(lam, points, dt)
            with pytest.raises(InfeasibleParameterError):
                SimConfig(domain=dom, start=dom.center(), dt=dt, n_paths=1,
                          t_grid=grid, seed=0)


class TestStepKernel:
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_row_reductions_match_numpy(self, dim):
        # the column loops must give the bits of the numpy reductions they
        # replace, at widths on both sides of numpy's pairwise block of 8
        rng = np.random.default_rng(dim)
        for m in (1, 5, 257):
            a = rng.standard_normal((m, dim)) * 10.0 ** rng.integers(-4, 5, dim)
            assert np.array_equal(np.sqrt(_row_sum_squares(a)),
                                  np.linalg.norm(a, axis=1))
            assert np.array_equal(_row_reduce(np.multiply, a), np.prod(a, axis=1))
            assert np.array_equal(_row_reduce(np.minimum, a), np.min(a, axis=1))

    def test_draws_into_buffers_match_the_sized_calls(self):
        # the pool writes each chunk's draws into its rows of a shared buffer;
        # uniform computes 0 + 1 * next_double, so random gives the same bits
        a = np.random.Generator(np.random.Philox(key=7))
        b = np.random.Generator(np.random.Philox(key=7))
        for m, dim in ((1, 1), (5, 3), (1000, 2)):
            z = np.empty((m, dim))
            u = np.empty(m)
            a.standard_normal(out=z)
            a.random(out=u)
            assert np.array_equal(z, b.standard_normal((m, dim)))
            assert np.array_equal(u, b.uniform(size=m))

    @pytest.mark.parametrize("domain,off_center,chunk_size", [
        (SimDomain.ball(1.0, 2), False, 65536),
        (SimDomain.ball(1.0, 3), False, 65536),
        (SimDomain.box((1.0, 1.0)), True, 65536),
        (SimDomain.box((1.0, 1.0, 1.0)), False, 65536),
        (SimDomain.box((1.0, 1.0)), True, 24),
    ], ids=["disc", "ball3", "square_off_center", "cube", "square_chunks"])
    def test_bridge_exponents_never_underflow(self, domain, off_center, chunk_size):
        # far from the boundary the bridge exponent runs into the thousands;
        # clamping it keeps exp out of its slow underflow path, and without
        # the clamp numpy reports "underflow encountered in exp" here
        lam = principal_eigenvalue(domain)
        start = off_center_start(domain) if off_center else domain.center()
        cfg = SimConfig(domain=domain, start=start, dt=1e-3, n_paths=200,
                        t_grid=default_t_grid(lam), seed=5, chunk_size=chunk_size)
        with np.errstate(all="raise"):
            tau = sample_exit_times(cfg)
        assert np.all(tau > 0.0)


class TestNearFaceSkip:
    """A box row gets the bridge test only when its nearest-face distances
    before and after the step, g and g', have g * g' < _NEAR_FACE * dt.  On
    every other row each face's factor 1 - p must round to exactly 1.0, so
    that the skipped test could not have killed it."""

    @staticmethod
    def _partner(dt, b, slack):
        """_NEAR_FACE * dt / b * (1 + slack), raised to the first float a
        with fl(b * a) >= _NEAR_FACE * dt (slack 0 gives the threshold)."""
        a = _NEAR_FACE * dt / b * (1.0 + slack)
        while b * a < _NEAR_FACE * dt:
            a = float(np.nextafter(a, math.inf))
        return a

    @settings(max_examples=400, deadline=None, database=None)
    @given(dt=st.floats(1e-10, 1.0), b=st.floats(1e-8, 10.0),
           slack=st.floats(0.0, 100.0))
    def test_factor_is_one_past_the_threshold(self, dt, b, slack):
        a = self._partner(dt, b, slack)
        p = _crossing_probability(np.array([b]), np.array([a]), dt)
        assert 1.0 - p[0] == 1.0
        assert 1.0 - math.exp(-min(b * a / dt, 700.0)) == 1.0

    @settings(max_examples=400, deadline=None, database=None)
    @given(dt=st.floats(1e-10, 1.0), b=st.floats(1e-8, 10.0),
           slack=st.floats(0.0, 100.0),
           extra=st.lists(st.tuples(*[st.floats(0.0, 10.0)] * 4), min_size=1,
                          max_size=9))
    def test_a_skipped_row_never_exits_by_the_bridge(self, dt, b, slack, extra):
        # one row in a box of len(extra) dimensions: every face is at least
        # b away before the step and a away after it, plus its own extra
        a = self._partner(dt, b, slack)
        e = np.array(extra).T
        x = (b + e[0])[None, :]
        x_new = (a + e[1])[None, :]
        sides = np.maximum(x + b + e[2], x_new + a + e[3])
        g = _row_reduce(np.minimum, np.minimum(x, sides - x))
        g_new = _row_reduce(np.minimum, np.minimum(x_new, sides - x_new))
        assume(g[0] * g_new[0] >= _NEAR_FACE * dt)  # else the row is tested
        for before, after in ((x, x_new), (sides - x, sides - x_new)):
            assert np.all(1.0 - _crossing_probability(before, after, dt) == 1.0)
        # u = 0.0 is the smallest uniform draw, the likeliest to kill
        assert not _box_bridge_exits(x, x_new, sides, np.zeros(1), dt)[0]

    @pytest.mark.parametrize("sides,off_center,dt,chunk_size", [
        ((1.0, 1.0), False, 1e-4, 256),
        ((1.0, 1.0, 1.0), True, 1e-3, 64),
        ((1.0,) * 9, False, 1e-4, 256),
        ((3.0, 0.5), True, 1e-4, 97),
        ((1.0,), False, 1e-4, 256),
    ])
    def test_same_exit_times_as_a_bridge_on_every_row(self, monkeypatch, sides,
                                                      off_center, dt, chunk_size):
        # with an infinite band every row gets the bridge test: the
        # reference the skip must reproduce exactly
        import hotspots.montecarlo as mc
        dom = SimDomain.box(sides)
        cfg = SimConfig(domain=dom, start=off_center_start(dom) if off_center
                        else dom.center(), dt=dt, n_paths=400,
                        t_grid=(0.0,), seed=17, chunk_size=chunk_size)
        skipped = sample_exit_times(cfg)
        monkeypatch.setattr(mc, "_NEAR_FACE", math.inf)
        assert np.array_equal(sample_exit_times(cfg), skipped)


class TestGoldenStream:
    """sha256 of sample_exit_times(...).tobytes() for small runs, three
    256-path chunks each (600 paths, dt=1e-3, seed 2024), bridge on unless
    a case says otherwise.  The staggered cases use smaller chunks, so that
    many chunks are stepped at once and the last one is short.  The
    dt=1e-4 cases keep most rows farther than sqrt(64 dt) = 0.08 from every
    face, where each box face's bridge factor rounds to 1.0.

    These freeze the documented Philox stream and the simulator's arithmetic:
    a change that alters any exit time must announce it and re-freeze the
    checksums.  The values were produced with numpy 2.4 on x86-64; a numpy
    whose exp or sqrt rounds differently would change them too.
    """

    @staticmethod
    def _digest(domain, start, bridge=True, chunk_size=256, dt=1e-3):
        lam = principal_eigenvalue(domain)
        cfg = SimConfig(domain=domain, start=start, dt=dt, n_paths=600,
                        t_grid=default_t_grid(lam), seed=2024, chunk_size=chunk_size,
                        bridge_correction=bridge)
        return hashlib.sha256(sample_exit_times(cfg).tobytes()).hexdigest()

    def test_disc_from_center(self):
        dom = SimDomain.ball(1.0, 2)
        assert self._digest(dom, dom.center()) == (
            "95a62c6e13065f8f23d9e985afd27b3a0df0c5deb212af42a7be74d60a87ac89")

    def test_square_from_center(self):
        dom = SimDomain.box((1.0, 1.0))
        assert self._digest(dom, dom.center()) == (
            "3a4f63048714608e4390f9f1be2f3381139c4a8c1e593c65fef9c35ac366dad6")

    def test_square_off_center(self):
        dom = SimDomain.box((1.0, 1.0))
        assert self._digest(dom, off_center_start(dom)) == (
            "a0f3f151bfdefd290061c0ad788936fa135981182503a22a0ebfa96dc8c9b547")

    def test_ball_d3_from_center(self):
        # a sum of three squares: catches a reordered radius reduction
        dom = SimDomain.ball(1.0, 3)
        assert self._digest(dom, dom.center()) == (
            "4cb69483acdeeb10100de9202464417d578ff35e95a4e14a4dde9a84186fcacc")

    def test_cube_from_center(self):
        dom = SimDomain.box((1.0, 1.0, 1.0))
        assert self._digest(dom, dom.center()) == (
            "8fddf3f795761a0be6f7d966adb6e7e5735918ba9af263ac4b2cdb3f6f009e29")

    def test_square_without_bridge(self):
        dom = SimDomain.box((1.0, 1.0))
        assert self._digest(dom, dom.center(), bridge=False) == (
            "ca4054b227c8ba18b0dec7eef93f6ebe64e91624fc2f8ce14adf5d4970b5978e")

    def test_long_box_from_center(self):
        dom = SimDomain.box((10.0, 1.0))
        assert self._digest(dom, dom.center()) == (
            "647f6487521e5786f1f5a48ef845faaf6f592ff2fd1d6f7f9712ef62021b5365")

    def test_disc_staggered_chunks(self):
        # ten 64-path chunks, the last of 24 paths
        dom = SimDomain.ball(1.0, 2)
        assert self._digest(dom, dom.center(), chunk_size=64) == (
            "56c91d396fae628e53284287e822462fd79c9d33b6c4acfe1b7c4ec96597c40e")

    def test_cube_staggered_chunks(self):
        dom = SimDomain.box((1.0, 1.0, 1.0))
        assert self._digest(dom, dom.center(), chunk_size=64) == (
            "fc928a8a366dabb4180fc10b3fc85dd2d7432e7b424ccecda59ff74b7f121b2e")

    def test_long_box_staggered_chunks_without_bridge(self):
        # 97 does not divide 600: six full chunks and one of 18 paths
        dom = SimDomain.box((10.0, 1.0))
        assert self._digest(dom, dom.center(), bridge=False, chunk_size=97) == (
            "4902025cee6f64ba97eea91d647b02e542a3b572625acafbac662b6b971ccd9e")

    def test_square_fine_step(self):
        dom = SimDomain.box((1.0, 1.0))
        assert self._digest(dom, dom.center(), dt=1e-4) == (
            "70a188a37f8e0ad91615cf3ebd2ba919f6dd2002797e72f5ef972c8bee9cd814")

    def test_nine_dimensional_box_fine_step(self):
        # nine columns: past numpy's pairwise block of 8
        dom = SimDomain.box((1.0,) * 9)
        assert self._digest(dom, dom.center(), dt=1e-4) == (
            "1a7b6f035837b6d3a00af485304ac1fe9804316db0e2039b7e019e653d9f2ff5")

    def test_flat_box_off_center_fine_step(self):
        # starts at (2.25, 0.25), 0.75 from the nearest end and 0.25 from
        # the two long faces
        dom = SimDomain.box((3.0, 0.5))
        assert self._digest(dom, off_center_start(dom), dt=1e-4) == (
            "cf72e38f765abb8cc765c46013cc6e2f6e9b9c26bc0571a20a3fd16a50b6da6d")


class TestSurvival:
    def test_trivial_grid(self):
        dom = SimDomain.ball(1.0, 2)
        cfg = SimConfig(domain=dom, start=dom.center(), dt=1e-3, n_paths=200,
                        t_grid=(0.0,), seed=2)
        est = _survival(cfg)
        assert est.survival == (1.0,)

    def test_deep_tail_is_negligible(self):
        dom = SimDomain.ball(1.0, 2)
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

    def test_center_start_dominates_off_center(self):
        center = _survival(_ball_config(n_paths=5000, dt=1e-3))
        dom = SimDomain.ball(1.0, 2)
        off = SimConfig(domain=dom, start=off_center_start(dom), dt=1e-3,
                        n_paths=5000, t_grid=center.t_grid, seed=42)
        off_est = _survival(off)
        for hi_c, lo_o in zip(center.ci_high, off_est.ci_low):
            assert hi_c >= lo_o

    def test_boundary_start_rejected(self):
        dom = SimDomain.ball(1.0, 2)
        cfg = SimConfig(domain=dom, start=(0.0, 1.0), dt=1e-3, n_paths=100,
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
                dataclasses.replace(cfg, n_paths=n)

    def test_fingerprint_tracks_config(self):
        a = _ball_config(n_paths=100, dt=1e-3)
        b = _ball_config(n_paths=100, dt=1e-3, seed=43)
        assert a.fingerprint() == a.fingerprint()
        assert a.fingerprint() != b.fingerprint()
        assert len(a.fingerprint()) == 64
        assert dataclasses.replace(a, n_paths=200).fingerprint() != a.fingerprint()


class TestVBound:
    def test_disc_passes_reference_epsilons(self):
        est = _survival(_ball_config(n_paths=10000))
        lam = principal_eigenvalue(SimDomain.ball(1.0, 2))
        for eps in (0.25, 0.5, 0.75):
            for vkind in (VKind.VOGT, VKind.IMPROVED_VOGT):
                rep = check_vbound(est, vkind, eps, lam, 2)
                assert rep.passed, (eps, vkind, rep.worst_margin)
                assert rep.worst_margin >= 0.0

    def test_bound_curve_shape(self):
        est = _survival(_ball_config(n_paths=4000, dt=1e-3))
        lam = principal_eigenvalue(SimDomain.ball(1.0, 2))
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

        rng = np.random.default_rng(n)
        k = np.unique(np.concatenate([np.arange(min(n, 12) + 1),
                                      np.arange(max(0, n - 12), n + 1),
                                      rng.integers(0, n + 1, 40)]))
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
        assert default_dt(SimDomain.ball(2.0, 3)) == pytest.approx(4e-4)
        assert default_dt(SimDomain.box((1.0, 3.0))) == pytest.approx(1e-4)

    def test_default_grid(self):
        lam = 5.0
        grid = default_t_grid(lam, points=25)
        assert len(grid) == 25
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(12.0 / lam)

    def test_config_validation(self):
        dom = SimDomain.ball(1.0, 2)
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
            dict(chunk_size=0),
        ):
            with pytest.raises(InfeasibleParameterError):
                SimConfig(**{**ok, **patch})

    def test_domain_validation(self):
        with pytest.raises(InfeasibleParameterError):
            SimDomain.ball(0.0, 2)
        with pytest.raises(InfeasibleParameterError):
            SimDomain.ball(1.0, 0)
        with pytest.raises(InfeasibleParameterError):
            SimDomain.box(())
        with pytest.raises(InfeasibleParameterError):
            SimDomain.box((1.0, -2.0))
        assert SimDomain.box((1.0, 2.0)).center() == (0.5, 1.0)
        assert SimDomain.ball(1.0, 3).center() == (0.0, 0.0, 0.0)
