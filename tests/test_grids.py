import numpy as np
import pytest
from conftest import direct_circular_convolve
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from vacuumlab import grids
from vacuumlab.errors import (
    DomainExhaustedError,
    InfeasibleKernelError,
    ResolutionError,
)
from vacuumlab.grids import (
    Field,
    GridSpec,
    Mollification,
    constant_field,
    ddt,
    div,
    dspace,
    from_function,
    grad,
    integrate,
    load_field,
    lp_norm,
    make_mollifier,
    mollify,
    restrict,
    save_field,
)
from vacuumlab.vacuum import counterexample_field


class TestGridSpec:
    def test_midpoint_samples(self):
        g = GridSpec(1, (16, 32), (1.0, 2.0))
        x = g.axis_coords(1)
        assert x[0] == pytest.approx(2.0 / 32 / 2)
        assert x[-1] == pytest.approx(2.0 - 2.0 / 32 / 2)

    def test_cell_volume(self):
        g = GridSpec(1, (16, 32), (1.0, 2.0))
        assert g.cell_volume == pytest.approx((1.0 / 16) * (2.0 / 32))

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            GridSpec(1, (4, 64), (1.0, 1.0))

    def test_2d(self):
        g = GridSpec(2, (8, 16, 16), (1.0, 1.0, 1.0))
        assert g.spatial_dim == 2
        assert len(g.spacings) == 3


class TestField:
    def test_arithmetic(self, small_grid):
        a = constant_field(small_grid, 2.0)
        b = constant_field(small_grid, 3.0)
        assert float((a + b).values.max()) == 5.0
        assert float((a * b).values.min()) == 6.0
        assert float((a - b).values.max()) == -1.0

    def test_dot_and_magnitude(self, small_grid):
        u = from_function(small_grid, lambda t, x: 3.0 + 0.0 * x)
        assert float(u.dot(u).values.max()) == pytest.approx(9.0)
        assert float(u.magnitude().max()) == pytest.approx(3.0)

    def test_values_are_readonly(self, small_grid):
        f = constant_field(small_grid, 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 2.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_entry_points_reject_non_finite(self, small_grid, bad):
        vals = np.ones(small_grid.shape)
        vals[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            Field(small_grid, vals)
        f = constant_field(small_grid, 1.0)
        with pytest.raises(ValueError, match="finite"):
            f * bad
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                       match="finite"):
            f.map(lambda v: v * bad)

    def test_wrapped_results_match_checked_ones(self, small_grid):
        a = from_function(small_grid, lambda t, x: 1.0 + np.sin(2 * np.pi * x))
        b = from_function(small_grid, lambda t, x: np.cos(2 * np.pi * (x - t)))
        for got in (a + b, a * 2.0, -a, a.dot(b), a.component(0), ddt(a),
                    dspace(a, 1), grad(a), div(b)):
            ref = Field(got.grid, got.values)
            assert type(got) is Field and got.grid == ref.grid
            assert np.array_equal(got.values, ref.values)
            assert not got.values.flags.writeable
            assert got.values.flags.c_contiguous

    def test_mollification_checks_its_output(self):
        # finite input whose FFT overflows: the circular sum of 1e306
        # over 64 x 64 nodes exceeds the largest double
        g = GridSpec(1, (64, 64), (1.0, 1.0))
        big = constant_field(g, 1e306)
        ker = make_mollifier(0.1, 2, g)
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                       match="finite"):
            Mollification(ker, g, "fft")(big)


class TestQuadrature:
    """integrate and lp_norm reject a non-finite value wherever it sits."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("inside", [True, False])
    def test_non_finite_value_raises(self, small_grid, bad, inside):
        vals = np.ones(small_grid.shape)
        vals[3, 5] = bad
        field = Field._wrap(small_grid, vals)
        mask = np.zeros(small_grid.shape, dtype=bool)
        mask[2:6, 2:8] = True
        if not inside:
            mask = ~mask
        with pytest.raises(ValueError, match="finite"):
            integrate(field, mask=mask)
        with pytest.raises(ValueError, match="finite"):
            lp_norm(field, 2, mask=mask)
        with pytest.raises(ValueError, match="finite"):
            integrate(field)
        with pytest.raises(ValueError, match="finite"):
            lp_norm(field, np.inf)


class TestMollifier:
    def test_unit_mass(self, small_grid):
        ker = make_mollifier(0.1, 2, small_grid)
        total = float(np.sum(ker.weights) * ker.cell_volume)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_plateau_height(self, small_grid):
        # profile is exactly 1 on the inner third, height 1/eps^N
        ker = make_mollifier(0.1, 2, small_grid)
        assert float(ker.weights.max()) == pytest.approx(1.0 / 0.1 ** 2)

    def test_requires_three_cells(self, small_grid):
        with pytest.raises(ResolutionError):
            make_mollifier(1.0 / 64, 2, small_grid)

    def test_constant_is_fixed_point(self, small_grid):
        f = constant_field(small_grid, 4.2)
        fe = mollify(f, make_mollifier(0.1, 2, small_grid))
        assert np.allclose(fe.values, 4.2, atol=1e-12)

    def test_smooth_error_second_order_in_eps(self):
        g = GridSpec(1, (256, 256), (1.0, 1.0))
        f = from_function(g, lambda t, x: np.sin(2 * np.pi * x))
        errs = []
        for eps in (0.1, 0.05, 0.025):
            fe = mollify(f, make_mollifier(eps, 2, g))
            errs.append(lp_norm(fe - restrict(f, fe.grid), np.inf))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("include_time", [False, True])
    @pytest.mark.parametrize("case", ["smooth", "spikes"])
    def test_both_paths_match_direct_summation(self, method, include_time,
                                               case):
        if case == "smooth":
            g = GridSpec(1, (64, 512), (1.0, 1.0))
            f = from_function(g, lambda t, x: 2.0 + np.sin(2 * np.pi * x)
                              * np.cos(2 * np.pi * t))
        else:
            f = counterexample_field(6, 512, time_points=64)
            g = f.grid
        ker = make_mollifier(0.1, 2 if include_time else 1, g,
                             include_time=include_time)
        fe = mollify(f, ker, method=method)
        axes = (0, 1) if include_time else (1,)
        oracle = direct_circular_convolve(f.values[..., 0],
                                          ker.weights * ker.cell_volume, axes)
        j0 = fe.grid.time_offset_from(g)
        oracle = oracle[j0:j0 + fe.grid.shape[0]]
        err = np.max(np.abs(fe.values[..., 0] - oracle))
        assert err <= 1e-13 * float(np.abs(f.values).max())

    def test_theta_search_matches_full_bisection(self, monkeypatch):
        # the search before it stopped on adjacent doubles: bitwise equal
        # kernels, from fewer profile evaluations
        def full_bisection(mass):
            lo, hi = 0.0, 1.0
            while mass(hi) > 1.0:
                hi *= 2.0
                if hi > 1e8:
                    raise InfeasibleKernelError("did not bracket")
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mass(mid) > 1.0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < 1e-16 * max(1.0, hi):
                    break
            return 0.5 * (lo + hi)

        cases = [(GridSpec(1, (128, 256), (1.0, 1.0)), eps, inc)
                 for eps in (0.025, 0.05, 0.1, 0.2) for inc in (False, True)]
        cases += [(GridSpec(2, (24, 32, 40), (1.0, 1.0, 1.0)), eps, inc)
                  for eps in (0.15, 0.2, 0.25) for inc in (False, True)]
        calls = [0]
        profile = grids._profile

        def counted(r, theta):
            calls[0] += 1
            return profile(r, theta)

        monkeypatch.setattr(grids, "_profile", counted)

        def build():
            calls[0] = 0
            kernels = [make_mollifier(eps, g.spatial_dim + inc, g,
                                      include_time=inc)
                       for g, eps, inc in cases]
            return kernels, calls[0]

        new, new_calls = build()
        monkeypatch.setattr(grids, "_solve_theta", full_bisection)
        old, old_calls = build()
        assert {k.weights.ndim for k in new} == {1, 2, 3}
        for a, b in zip(new, old):
            assert a.shape_parameter == b.shape_parameter
            assert np.array_equal(a.weights, b.weights)
        assert new_calls < old_calls / 2

    def test_spatial_only_kernel_keeps_time_extent(self, small_grid):
        f = from_function(small_grid, lambda t, x: np.cos(2 * np.pi * x))
        fe = mollify(f, make_mollifier(0.1, 1, small_grid, include_time=False))
        assert fe.grid.shape[0] == small_grid.shape[0]


class TestMollification:
    """One ``Mollification`` per call against separate ``mollify`` calls."""

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("include_time", [False, True])
    @pytest.mark.parametrize("components", [1, 2, 4])
    @pytest.mark.parametrize("spatial_dim", [1, 2])
    def test_reuse_is_bitwise_equal(self, spatial_dim, components,
                                    include_time, method):
        shape = (24, 40) if spatial_dim == 1 else (16, 20, 24)
        g = GridSpec(spatial_dim, shape, (1.0,) * len(shape))
        rng = np.random.default_rng(components)
        fields = [Field(g, rng.random(shape + (components,)))
                  for _ in range(3)]
        ker = make_mollifier(0.2, spatial_dim + include_time, g,
                             include_time=include_time)
        # per component, each convolution from scratch (kernel included)
        win = ker.weights * ker.cell_volume
        axes = tuple(range(0 if include_time else 1, len(shape)))
        conv = (grids._direct_convolve if method == "direct"
                else grids.circular_convolve)
        moll = Mollification(ker, g, method)
        for f in fields:
            a = moll(f)
            b = mollify(f, ker, method=method)
            want = np.stack([conv(f.values[..., c], win, axes)
                             for c in range(components)], axis=-1)
            j0 = a.grid.time_offset_from(g)
            assert a.grid == b.grid
            assert a.values.tobytes() == b.values.tobytes()
            assert a.values.tobytes() == want[j0:j0 + a.grid.shape[0]].tobytes()

    def test_accepts_derived_aligned_grid(self, small_grid, smooth_pair):
        rho, u = smooth_pair
        m = rho * u  # lives on a derived ``align`` subgrid
        assert m.grid.derived and m.grid != small_grid
        ker = make_mollifier(0.1, 2, small_grid)
        a = Mollification(ker, small_grid)(m)
        b = mollify(m, ker)
        assert a.grid == b.grid
        assert a.values.tobytes() == b.values.tobytes()

    def test_rejects_field_on_another_grid(self, small_grid):
        ker = make_mollifier(0.1, 2, small_grid)
        moll = Mollification(ker, small_grid)
        other = GridSpec(1, (64, 32), (1.0, 1.0))
        with pytest.raises(ValueError, match="grid"):
            moll(constant_field(other, 1.0))
        shorter = small_grid.time_subgrid(0, 32)
        with pytest.raises(ValueError, match="grid"):
            moll(constant_field(shorter, 1.0))

    def test_unknown_method_rejected(self, small_grid):
        f = constant_field(small_grid, 1.0)
        ker = make_mollifier(0.1, 2, small_grid)
        with pytest.raises(ValueError, match="method"):
            mollify(f, ker, method="fast")


class TestSubgrid:
    # extents that are not powers of two, so spacings and coordinates
    # round differently depending on how they are computed
    ROOT = GridSpec(2, (30, 40, 48), (0.7, 1.0, 1.3))

    def test_coordinates_are_the_root_coordinates_sliced(self):
        g = self.ROOT
        sub = g.time_subgrid(3, 27).subgrid(((2, 20), (5, 31), (0, 48)))
        assert sub.root == g and sub.origin == (5, 5, 0)
        assert sub.spacings == g.spacings
        for a, (lo, n) in enumerate(zip(sub.origin, sub.shape)):
            want = g.axis_coords(a)[lo:lo + n]
            assert sub.axis_coords(a).tobytes() == want.tobytes()
        assert sub.t0 == g.t0 + 5 * g.dt
        assert sub.time_offset_from(g) == 5

    def test_uncut_axes_keep_extents_and_compatibility(self):
        g = self.ROOT
        sub = g.time_subgrid(4, 10)
        assert sub.extents[1:] == g.extents[1:]
        assert sub.compatible(g)
        left = g.subgrid(((0, 30), (0, 20), (0, 48)))
        right = g.subgrid(((0, 30), (20, 40), (0, 48)))
        assert left.shape == right.shape and left.extents == right.extents
        assert not left.compatible(right)  # same size, other nodes

    def test_rejects_boxes_outside_the_grid(self):
        with pytest.raises(ValueError, match="box"):
            self.ROOT.subgrid(((0, 31), (0, 40), (0, 48)))
        with pytest.raises(ValueError, match="box"):
            self.ROOT.subgrid(((0, 30), (0, 40)))
        with pytest.raises(ValueError, match="root"):
            GridSpec(2, (4, 40, 48), (0.1, 1.0, 1.3), derived=True,
                     root=self.ROOT, origin=(28, 0, 0))


def _window_case(spatial_dim, vacuum):
    if spatial_dim == 1:
        g = GridSpec(1, (64, 96), (1.0, 1.3))
    else:
        g = GridSpec(2, (32, 40, 48), (1.0, 1.0, 1.3))
    t, *xs = g.meshgrid()
    w = np.sin(2 * np.pi * xs[0]) * (1.0 + 0.3 * np.cos(2 * np.pi * t))
    if vacuum:
        w = np.maximum(w, 0.0)  # exact zeros on half of every line
    v = 0.5 + 0.2 * np.cos(2 * np.pi * (xs[-1] - t))
    return g, Field(g, np.stack([w, v], axis=-1))


def _cut_full(full: Field, part: Field) -> np.ndarray:
    """The values of ``full`` on the nodes of ``part``'s box."""
    box = tuple(slice(o - fo, o - fo + n) for o, fo, n in
                zip(part.grid.origin, full.grid.origin or (0,) * 3,
                    part.grid.shape))
    return full.values[box]


class TestMollificationBox:
    """``Mollification(..., box=...)`` against the whole-grid result."""

    # (spatial_dim, eps, box, shape of the output box): both axes cut; a
    # spatial range too close to x = 0 to cut without wrapping; time only
    # (a constant spatial factor); a box that overlaps the shrunk rows
    CASES = [
        (1, 0.1, ((20, 40), (30, 60)), (20, 30)),
        (1, 0.1, ((20, 40), (2, 30)), (20, 96)),
        (1, 0.1, ((10, 50), (0, 96)), (40, 96)),
        (1, 0.1, ((0, 20), (30, 60)), (14, 30)),
        (2, 0.15, ((8, 24), (10, 30), (0, 20)), (16, 20, 48)),
        (2, 0.15, ((8, 24), (10, 30), (12, 36)), (16, 20, 24)),
    ]
    IDS = ["cut", "wrap-fallback", "time-only", "shrunk-rows", "2d-mixed",
           "2d-cut"]

    @pytest.mark.parametrize("vacuum", [False, True], ids=["positive", "vacuum"])
    @pytest.mark.parametrize("spatial_dim,eps,box,shape", CASES, ids=IDS)
    def test_direct_box_is_the_whole_result_cut_down(self, spatial_dim, eps,
                                                     box, shape, vacuum):
        g, f = _window_case(spatial_dim, vacuum)
        ker = make_mollifier(eps, 1 + spatial_dim, g)
        full = Mollification(ker, g, "direct")(f)
        moll = Mollification(ker, g, "direct", box=box)
        part = moll(moll.crop(f))
        assert part.grid.shape == shape
        assert part.grid.root == g
        want = _cut_full(full, part)
        assert part.values.tobytes() == want.tobytes()
        if vacuum:
            assert (part.values[..., 0] == 0.0).any()

    @pytest.mark.parametrize("spatial_dim,eps,box,shape", CASES, ids=IDS)
    def test_fft_box_matches_the_whole_result(self, spatial_dim, eps, box,
                                              shape):
        g, f = _window_case(spatial_dim, True)
        ker = make_mollifier(eps, 1 + spatial_dim, g)
        full = Mollification(ker, g, "fft")(f)
        moll = Mollification(ker, g, "fft", box=box)
        part = moll(moll.crop(f))
        assert part.grid.shape == shape
        want = _cut_full(full, part)
        assert np.max(np.abs(part.values - want)) <= 1e-13 * np.max(np.abs(want))

    def test_fft_pads_a_cut_axis_of_prime_length(self):
        g = GridSpec(1, (64, 256), (1.0, 1.0))
        f = from_function(g, lambda t, x: np.sin(6 * np.pi * x + t) ** 2)
        ker = make_mollifier(0.1, 2, g)  # spatial half-width 25
        moll = Mollification(ker, g, "fft", box=((20, 40), (30, 77)))
        assert moll.input_grid.shape[1] == 97  # prime: padded to 100
        part = moll(moll.crop(f))
        want = _cut_full(mollify(f, ker, "fft"), part)
        assert np.max(np.abs(part.values - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("method", ["direct", "fft"])
    def test_spatial_kernel_cuts_time_without_convolving_it(self, method):
        g, f = _window_case(1, True)
        ker = make_mollifier(0.1, 1, g, include_time=False)
        full = Mollification(ker, g, method)(f)
        moll = Mollification(ker, g, method, box=((5, 9), (30, 60)))
        part = moll(moll.crop(f))
        assert part.grid.shape == (4, 30)
        want = _cut_full(full, part)
        assert np.max(np.abs(part.values - want)) <= 1e-13 * np.max(np.abs(want))

    def test_takes_fields_on_the_cut_input_grid(self):
        g, f = _window_case(1, False)
        ker = make_mollifier(0.1, 2, g)
        moll = Mollification(ker, g, box=((20, 40), (30, 60)))
        cut = moll.crop(f)
        assert cut.grid == moll.input_grid and cut.grid.shape == (32, 44)
        assert cut.values.tobytes() == f.values[14:46, 23:67].tobytes()
        # arithmetic on cut fields stays on the input grid
        assert moll(cut * cut).grid == moll(cut).grid
        with pytest.raises(ValueError, match="input grid"):
            moll(f)

    def test_box_missing_the_interior_rows_raises(self):
        g, f = _window_case(1, False)
        ker = make_mollifier(0.1, 2, g)  # interior rows [6, 58)
        with pytest.raises(DomainExhaustedError, match="box"):
            Mollification(ker, g, box=((0, 6), (30, 60)))

    def test_rejects_field_on_another_grid(self):
        g, f = _window_case(1, False)
        ker = make_mollifier(0.1, 2, g)
        moll = Mollification(ker, g, box=((20, 40), (30, 60)))
        assert moll.input_grid == g.subgrid(((14, 46), (23, 67)))
        # the input's size, on other nodes in space or in time
        for other in (g.subgrid(((14, 46), (24, 68))),
                      g.subgrid(((0, 32), (23, 67)))):
            with pytest.raises(ValueError, match="grid"):
                moll(constant_field(other, 1.0))
            with pytest.raises(ValueError, match="grid"):
                moll.crop(constant_field(other, 1.0))


class TestDirectConvolve:
    """``_direct_convolve`` against direct summation and ndimage.convolve."""

    @staticmethod
    def vacuum_field(rng, shape, zero_start, zero_len):
        vals = rng.random(shape)
        n = shape[1]
        vals[:, zero_start % n:zero_start % n + zero_len] = 0.0
        if rng.random() < 0.5:
            vals[:shape[0] // 2] = 0.0  # a vacuum slab in time
        return vals

    @settings(max_examples=40, deadline=None)
    @given(spatial_dim=st.sampled_from([1, 2]), include_time=st.booleans(),
           half=st.integers(3, 6), nt=st.integers(14, 24),
           n=st.integers(14, 40), zero_start=st.integers(0, 39),
           zero_len=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_plateau_kernels(self, spatial_dim, include_time, half, nt, n,
                             zero_start, zero_len, seed):
        rng = np.random.default_rng(seed)
        shape = (nt, n) if spatial_dim == 1 else (nt, n, n + 1)
        g = GridSpec(spatial_dim, shape, tuple(map(float, shape)))  # h = 1
        ker = make_mollifier(half + 0.5, spatial_dim + include_time, g,
                             include_time=include_time)
        win = ker.weights * ker.cell_volume
        axes = tuple(range(0 if include_time else 1, len(shape)))
        vals = self.vacuum_field(rng, shape, zero_start, zero_len)
        out = grids._direct_convolve(vals, win, axes)
        oracle = direct_circular_convolve(vals, win, axes)
        assert np.max(np.abs(out - oracle)) <= 1e-13 * max(vals.max(), 1e-300)
        nd = ndimage.convolve(vals, win.reshape((1,) * (len(shape) - win.ndim)
                                                + win.shape), mode="wrap")
        assert np.array_equal(out == 0.0, nd == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(widths=st.lists(st.integers(0, 3), min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_asymmetric_stencil_direction(self, widths, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(tuple(2 * k + 1 for k in widths))
        weights /= weights.sum()  # unit mass, like a mollifier
        shape = (9,) + tuple(2 * k + 3 + rng.integers(0, 6) for k in widths)
        vals = self.vacuum_field(rng, shape, rng.integers(0, 8), 3)
        axes = tuple(range(1, len(shape)))
        out = grids._direct_convolve(vals, weights, axes)
        oracle = direct_circular_convolve(vals, weights, axes)
        assert np.max(np.abs(out - oracle)) <= 1e-13 * max(vals.max(), 1e-300)


class TestCalculus:
    def test_integrate_constant(self, small_grid):
        assert integrate(constant_field(small_grid, 3.0)) == pytest.approx(3.0)

    def test_lp_norm_masked(self, small_grid):
        f = constant_field(small_grid, 2.0)
        mask = np.zeros(small_grid.shape, dtype=bool)
        mask[:, : small_grid.shape[1] // 2] = True
        assert lp_norm(f, 2, mask=mask) == pytest.approx(2.0 / np.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("order,tol", [(2, 2e-3), (4, 2e-6)])
    def test_spatial_derivative_order(self, order, tol):
        g = GridSpec(1, (8, 256), (1.0, 1.0))
        f = from_function(g, lambda t, x: np.sin(2 * np.pi * x))
        exact = from_function(g, lambda t, x: 2 * np.pi * np.cos(2 * np.pi * x))
        err = lp_norm(dspace(f, 1, order=order) - exact, np.inf)
        assert err < tol

    def test_ddt_shrinks_time(self, small_grid):
        f = from_function(small_grid, lambda t, x: t * t + 0.0 * x)
        df = ddt(f)
        assert df.grid.shape[0] < small_grid.shape[0]
        mid = df.grid.axis_coords(0)
        assert np.allclose(df.values[..., 0], 2.0 * mid[:, None], atol=1e-10)

    def test_dspace_rejects_the_time_axis(self, small_grid):
        f = from_function(small_grid, lambda t, x: np.sin(2 * np.pi * x))
        for axis in (0, 2):
            with pytest.raises(ValueError, match="spatial axis"):
                dspace(f, axis)

    def test_div_equals_grad_in_1d(self, small_grid):
        f = from_function(small_grid, lambda t, x: np.sin(2 * np.pi * x))
        assert np.allclose(div(f).values, grad(f).values, atol=1e-12)


def roll_central_diff(vals, axis, h, order, periodic):
    """The finite-difference stencil as a sum of rolled copies (the
    oracle for ``grids._central_diff``)."""
    stencil = {2: {1: 0.5, -1: -0.5},
               4: {2: -1 / 12, 1: 8 / 12, -1: -8 / 12, -2: 1 / 12}}[order]
    trim = order // 2
    out = np.zeros_like(vals)
    for off, c in stencil.items():
        out += c * np.roll(vals, -off, axis=axis)
    out /= h
    if periodic:
        return out, 0
    sl = [slice(None)] * vals.ndim
    sl[axis] = slice(trim, vals.shape[axis] - trim)
    return out[tuple(sl)], trim


@pytest.mark.parametrize("block_rows", [None, 1, 3])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("shape", [(12, 16, 2), (10, 12, 14, 3)])
def test_central_diff_matches_rolled_stencil_bitwise(shape, order, block_rows,
                                                     monkeypatch):
    rng = np.random.default_rng(order + len(shape))
    vals = rng.standard_normal(shape)
    # signed zeros: a -0.0 stencil term must sum as it does from zeros
    vals[..., 0] = np.where(rng.random(shape[:-1]) < 0.5, -0.0, 0.0)
    if block_rows is not None:  # several blocks of time slices, one short
        monkeypatch.setattr(grids, "_FD_BLOCK_BYTES", block_rows * vals[0].nbytes)
    for axis in range(len(shape) - 1):  # time is axis 0, not periodic
        got = grids._central_diff(vals, axis, 0.1, order)
        want = roll_central_diff(vals, axis, 0.1, order, periodic=axis > 0)
        assert got[1] == want[1]
        assert got[0].shape == want[0].shape
        assert got[0].tobytes() == want[0].tobytes()


class TestSerialization:
    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_roundtrip(self, tmp_path, small_grid, fmt):
        f = from_function(small_grid, lambda t, x: np.sin(x + t))
        save_field(f, tmp_path / "field", fmt=fmt)
        back = load_field(tmp_path / "field")
        assert back.grid == f.grid
        assert np.allclose(back.values, f.values, atol=1e-12)

    def test_header_schema(self, tmp_path, small_grid):
        import json
        save_field(constant_field(small_grid, 1.0), tmp_path / "f")
        header = json.loads((tmp_path / "f.json").read_text())
        assert header["schema"] == "vacuumlab-field-1"
        assert header["dtype"] == "<f8"

    def test_roundtrip_short_time_subgrid_at_origin(self, tmp_path, small_grid):
        # a derived grid starting at t0 = 0 with fewer than 8 slices
        sub = small_grid.time_subgrid(0, 4)
        f = from_function(sub, lambda t, x: np.cos(x - t))
        save_field(f, tmp_path / "field")
        back = load_field(tmp_path / "field")
        assert back.grid == sub
        assert np.array_equal(back.values, f.values)

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_roundtrip_boxed_grid(self, tmp_path, fmt):
        g = GridSpec(2, (30, 40, 48), (0.7, 1.0, 1.3))
        sub = g.time_subgrid(3, 27).subgrid(((2, 20), (5, 31), (0, 48)))
        f = from_function(sub, lambda t, x, y: np.cos(x - t) * y)
        save_field(f, tmp_path / "field", fmt=fmt)
        back = load_field(tmp_path / "field")
        assert back.grid == sub
        assert back.grid.axis_coords(1).tobytes() == sub.axis_coords(1).tobytes()
        assert np.allclose(back.values, f.values, rtol=1e-15, atol=0.0)

    def test_box_outside_its_root_is_rejected(self, tmp_path, small_grid):
        import json
        sub = small_grid.subgrid(((2, 6), (10, 20)))
        save_field(constant_field(sub, 1.0), tmp_path / "f")
        path = tmp_path / "f.json"
        header = json.loads(path.read_text())
        header["origin"] = [2, 60]
        path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="root"):
            load_field(tmp_path / "f")

    def test_header_without_derived_flag_infers_it(self, tmp_path, small_grid):
        import json
        sub = small_grid.time_subgrid(2, 6)
        save_field(constant_field(sub, 1.0), tmp_path / "f")
        path = tmp_path / "f.json"
        header = json.loads(path.read_text())
        del header["derived"]
        path.write_text(json.dumps(header))
        assert load_field(tmp_path / "f").grid == sub


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_mollification_is_linear(c):
    g = GridSpec(1, (32, 32), (1.0, 1.0))
    f = from_function(g, lambda t, x: np.sin(2 * np.pi * x) + t)
    ker = make_mollifier(0.12, 2, g)
    lhs = mollify(Field(g, c * f.values), ker)
    rhs = mollify(f, ker)
    assert np.allclose(lhs.values, c * rhs.values, atol=1e-10)
