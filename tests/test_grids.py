import gc
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    assert_time_broadcast,
    convolve_every_slice,
    direct_circular_convolve,
    force_branch,
    hexed,
    record_convolved_rows,
)
from hypothesis import assume, example, given, settings, strategies as st
from scipy import ndimage

from vacuumlab import commutators, energy, grids, pressure, vacuum
from vacuumlab.errors import (
    DomainExhaustedError,
    InfeasibleKernelError,
    NegativityError,
    ResolutionError,
)
from vacuumlab.grids import (
    Field,
    GridSpec,
    HeldField,
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
from vacuumlab.pressure import PressureLaw, make_c2_approximant
from vacuumlab.synth import vacuum_profile
from vacuumlab.testfn import spacetime_bump
from vacuumlab.vacuum import counterexample_field

SRC = str(Path(grids.__file__).resolve().parent.parent)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_extents_and_t0(self, bad):
        with pytest.raises(ValueError, match="extents must be positive and finite"):
            GridSpec(1, (16, 32), (bad, 1.0))
        with pytest.raises(ValueError, match="extents must be positive and finite"):
            GridSpec(2, (16, 32, 32), (1.0, 1.0, bad))
        with pytest.raises(ValueError, match="t0 must be finite"):
            GridSpec(1, (16, 32), (1.0, 1.0), t0=bad)


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

    def test_products_live_on_the_operand_grid(self, small_grid, smooth_pair):
        rho, u = smooth_pair
        for got in (rho * u, rho + u, rho - u, rho.dot(u)):
            assert got.grid is small_grid

    def test_fields_on_different_time_ranges_need_restrict(self, small_grid):
        a = from_function(small_grid, lambda t, x: 1.0 + np.sin(2 * np.pi * x))
        sub = small_grid.time_subgrid(5, 40)
        b = from_function(sub, lambda t, x: np.cos(2 * np.pi * (x - t)))
        a_on_sub = a.values[5:40]  # the rows the time-overlap alignment took
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="restrict"):
                op(a, b)
            got = op(restrict(a, sub), b)
            assert got.grid is sub
            assert got.values.tobytes() == op(a_on_sub, b.values).tobytes()
        with pytest.raises(ValueError, match="restrict"):
            a.dot(b)

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

    def test_mollification_checks_its_output(self, monkeypatch):
        # finite input whose FFT overflows: the circular sum of 1e306
        # over 64 x 64 nodes exceeds the largest double
        g = GridSpec(1, (64, 64), (1.0, 1.0))
        big = constant_field(g, 1e306)
        ker = make_mollifier(0.1, 2, g)
        force_branch(monkeypatch, "fft")
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                       match="finite"):
            Mollification(ker, g)(big)


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
            lp_norm(field, 2, mask=mask)
        with pytest.raises(ValueError, match="finite"):
            integrate(field)
        with pytest.raises(ValueError, match="finite"):
            lp_norm(field, np.inf)


def count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (in a one-item list)."""
    calls, inner = [0], getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def full_bisection(above, lo, hi):
    """The theta search before it stopped on adjacent doubles."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _first_power_below(mass):
    """The first power of two from 1 whose mass is at most 1."""
    hi = 1.0
    while mass(hi) > 1.0:
        hi *= 2.0
    return hi


def frozen_kernel(eps, dim, grid, include_time):
    """(theta, weights) of the construction that evaluates the mass, from
    a freshly built profile, at every point the search tests."""
    spacings = grid.spacings if include_time else grid.spacings[1:]
    half = [int(np.floor(eps / h * (1 - 1e-12))) for h in spacings]
    offsets = np.meshgrid(*[np.arange(-k, k + 1) * h
                            for k, h in zip(half, spacings)], indexing="ij")
    r = np.sqrt(sum(o ** 2 for o in offsets)) / eps
    vol = float(np.prod(spacings))
    scale = vol / eps ** dim
    plateau, trans = r <= 1.0 / 3.0, (r > 1.0 / 3.0) & (r < 1.0)

    def profile(theta):
        out = np.zeros_like(r)
        out[plateau] = 1.0
        s = (3.0 * r[trans] - 1.0) / 2.0
        out[trans] = np.exp(theta * (1.0 - 1.0 / (1.0 - s ** 2)))
        return out

    def mass(theta):
        return float(profile(theta).sum() * scale)

    plateau_mass, full_mass = float(plateau.sum() * scale), mass(0.0)
    if plateau_mass >= 1.0 or full_mass <= 1.0:
        raise InfeasibleKernelError(
            f"no steepness gives unit mass (plateau {plateau_mass:.3g}, "
            f"full {full_mass:.3g})")
    theta = full_bisection(lambda th: mass(th) > 1.0, 0.0,
                           _first_power_below(mass))
    w = profile(theta) / eps ** dim
    tw = float(w[trans].sum() * vol)
    w[trans] *= 1.0 - (float(w.sum() * vol) - 1.0) / tw
    return theta, w


@st.composite
def kernel_cases(draw):
    """(grid, epsilon, include_time) for a kernel the grid resolves, of at
    most about 10^5 nodes."""
    spatial_dim = draw(st.sampled_from([1, 2]))
    include_time = draw(st.booleans())
    top = 600 if spatial_dim == 1 else 60
    shape = tuple(draw(st.integers(8, top)) for _ in range(1 + spatial_dim))
    extents = tuple(draw(st.sampled_from([0.2, 0.5, 1.0, 1.5]))
                    for _ in shape)
    grid = GridSpec(spatial_dim, shape, extents)
    axes = slice(0 if include_time else 1, None)
    h, n = grid.spacings[axes], grid.shape[axes]
    lo, hi = 3.0 * max(h), min((m - 1) / 2 * step for m, step in zip(n, h))
    assume(lo < hi)
    eps = draw(st.floats(lo, hi))
    assume(np.prod([2 * int(eps / step) + 1 for step in h]) <= 120_000)
    return grid, eps, include_time


class TestMollifier:
    def test_unit_mass(self, small_grid):
        ker = make_mollifier(0.1, 2, small_grid)
        total = float(np.sum(ker.weights) * ker.cell_volume)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_plateau_height(self, small_grid):
        # profile is exactly 1 on the inner third, height 1/eps^N
        ker = make_mollifier(0.1, 2, small_grid)
        assert float(ker.weights.max()) == pytest.approx(1.0 / 0.1 ** 2)

    @pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, np.inf, -np.inf])
    def test_radius_must_be_positive_and_finite(self, small_grid, eps):
        with pytest.raises(ValueError,
                           match="epsilon must be positive and finite"):
            make_mollifier(eps, 2, small_grid)

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
                                               case, monkeypatch):
        force_branch(monkeypatch, method)
        if case == "smooth":
            g = GridSpec(1, (64, 512), (1.0, 1.0))
            f = from_function(g, lambda t, x: 2.0 + np.sin(2 * np.pi * x)
                              * np.cos(2 * np.pi * t))
        else:
            f = counterexample_field(6, 512, time_points=64)
            g = f.grid
        ker = make_mollifier(0.1, 2 if include_time else 1, g,
                             include_time=include_time)
        fe = mollify(f, ker)
        axes = (0, 1) if include_time else (1,)
        oracle = direct_circular_convolve(f.values[..., 0],
                                          ker.weights * ker.cell_volume, axes)
        j0 = fe.grid.time_offset_from(g)
        oracle = oracle[j0:j0 + fe.grid.shape[0]]
        err = np.max(np.abs(fe.values[..., 0] - oracle))
        assert err <= 1e-13 * float(np.abs(f.values).max())

    # the frozen construction's four grids, at two radii each
    @settings(max_examples=60, deadline=None)
    @example(case=(GridSpec(1, (2048, 2048), (1.0, 1.0)), 2.0 ** -4, True))
    @example(case=(GridSpec(1, (2048, 2048), (1.0, 1.0)), 2.0 ** -7, False))
    @example(case=(GridSpec(1, (8, 32768), (1.0, 1.0)), 0.01, False))
    @example(case=(GridSpec(1, (8, 32768), (1.0, 1.0)), 1 / 288, False))
    @example(case=(GridSpec(1, (256, 256), (0.2, 1.0)), 0.02, True))
    @example(case=(GridSpec(1, (256, 256), (0.2, 1.0)), 0.05, False))
    @example(case=(GridSpec(2, (32, 128, 128), (1.0, 1.0, 1.0)), 0.15, True))
    @example(case=(GridSpec(2, (32, 128, 128), (1.0, 1.0, 1.0)), 2.0 ** -5,
                   False))
    # eps = 3h exactly: the plateau alone has unit mass
    @example(case=(GridSpec(1, (16, 64), (1.0, 1.0)), 3 / 64, False))
    @given(case=kernel_cases())
    def test_theta_search_matches_full_bisection(self, case):
        # theta and the weights are those of the frozen construction, which
        # evaluates the mass at every point a full bisection tests, from
        # under half its mass evaluations
        grid, eps, include_time = case
        dim = grid.spatial_dim + include_time
        try:
            old = frozen_kernel(eps, dim, grid, include_time)
        except InfeasibleKernelError as exc:
            with pytest.raises(InfeasibleKernelError, match=str(exc)[:20]):
                make_mollifier(eps, dim, grid, include_time=include_time)
            return
        with pytest.MonkeyPatch.context() as patch:
            exps = count_calls(patch, np, "exp")
            frozen_kernel(eps, dim, grid, include_time)
            old_evals = exps[0] - 1  # every exp but the weights' one
            exps[0] = 0
            ker = make_mollifier(eps, dim, grid, include_time=include_time)
        assert ker.shape_parameter == old[0]
        assert ker.weights.tobytes() == old[1].tobytes()
        assert exps[0] - 1 <= old_evals / 2

    @pytest.mark.parametrize("grid", [
        GridSpec(1, (2048, 2048), (1.0, 1.0)),
        GridSpec(1, (8, 32768), (1.0, 1.0)),
        GridSpec(1, (256, 256), (0.2, 1.0)),
        GridSpec(2, (32, 128, 128), (1.0, 1.0, 1.0)),
    ], ids=["2048^2", "8x32768", "budget-256^2", "32x128^2"])
    def test_kernels_equal_the_frozen_construction(self, grid):
        # every radius the grid resolves, with and without time
        built = 0
        for eps in (2.0 ** -4, 0.05, 2.0 ** -5, 0.02, 2.0 ** -6, 2.0 ** -7,
                    0.15, 0.1):
            for include_time in (False, True):
                dim = grid.spatial_dim + include_time
                try:
                    ker = make_mollifier(eps, dim, grid,
                                         include_time=include_time)
                except ResolutionError:
                    continue
                theta, w = frozen_kernel(eps, dim, grid, include_time)
                assert ker.shape_parameter == theta
                assert ker.weights.tobytes() == w.tobytes()
                built += 1
        assert built >= 4

    def test_spike_vacuum_kernels_take_under_20_mass_evaluations(
            self, monkeypatch):
        # the 22 kernels of one spike_vacuum pass: about 60 each before
        exps = count_calls(monkeypatch, np, "exp")
        big = GridSpec(1, (8, 1 << 15), (1.0, 1.0))
        small = GridSpec(1, (8, 4096), (1.0, 1.0))
        cases = ([(big, e) for e in (0.08, 0.04, 0.02, 0.01)]
                 + [(big, 1 / (2 * i * i)) for i in range(6, 13)] * 2
                 + [(small, e) for e in (0.2, 0.1, 0.05, 0.025)])
        for grid, eps in cases:
            make_mollifier(eps, 1, grid, include_time=False)
        assert len(cases) == 22
        assert (exps[0] - len(cases)) / len(cases) <= 20

    @settings(max_examples=60, deadline=None)
    @given(theta=st.one_of(st.floats(0.01, 0.25), st.floats(0.25, 200.0)),
           nodes=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
    def test_bracketed_search_equals_every_test_evaluated(self, theta, nodes,
                                                          seed):
        # masses of any transition exponents, with the crossing at theta;
        # below 0.25 ``_bisect`` stops on its width, not on adjacent
        # doubles.  No grid reaches that: a plateau kernel's mass at
        # theta = 0 is about the unit ball's volume, so theta is over 3
        rng = np.random.default_rng(seed)
        exponent = -rng.exponential(1.0, nodes)
        scale = 1.0 / nodes
        values = np.empty(nodes + 1)
        values[0] = (1.0 - float(np.exp(theta * exponent).sum() * scale)) / scale

        def mass(th):
            values[1:] = np.exp(th * exponent)
            return float(values.sum() * scale)

        target = 1.0 - values[0] * scale
        assume(0.0 < target and mass(0.0) > 1.0)
        want = grids._bisect(lambda th: mass(th) > 1.0, 0.0,
                             _first_power_below(mass))
        assert grids._solve_theta(mass, exponent, scale, target) == want

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
                                    include_time, method, monkeypatch):
        force_branch(monkeypatch, method)
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
                else lambda v, w, axes: _engine(v, w, v.shape[axes[0]:]))
        moll = Mollification(ker, g)
        for f in fields:
            a = moll(f)
            b = mollify(f, ker)
            want = np.stack([conv(f.values[..., c], win, axes)
                             for c in range(components)], axis=-1)
            j0 = a.grid.time_offset_from(g)
            assert a.grid == b.grid
            assert a.values.tobytes() == b.values.tobytes()
            assert a.values.tobytes() == want[j0:j0 + a.grid.shape[0]].tobytes()

    def test_takes_products_of_its_input_fields(self, small_grid, smooth_pair):
        rho, u = smooth_pair
        m = rho * u  # lives on the operands' grid
        assert m.grid is small_grid
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


def record_branches(monkeypatch):
    """Count the calls of each ``Mollification`` branch, of the kernel
    spectrum and of the vacuum test."""
    calls = {"_direct_convolve": 0, "_fft_convolve": 0,
             "_kernel_spectrum": 0, "_touches_vacuum": 0}
    for name in calls:
        def spy(*args, _name=name, _inner=getattr(grids, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(grids, name, spy)
    return calls


class TestBranchRule:
    """A component is summed directly only when the job is small and the
    component touches vacuum (non-negative with an exact zero)."""

    @staticmethod
    def case(include_time):
        g = GridSpec(1, (32, 64), (1.0, 1.0))
        ker = make_mollifier(0.1, 1 + include_time, g,
                             include_time=include_time)
        x = g.meshgrid()[1]
        return g, ker, 1.5 + np.sin(2 * np.pi * x)

    @pytest.mark.parametrize("include_time", [False, True])
    def test_zero_free_positive_field_takes_the_fft(self, include_time,
                                                    monkeypatch):
        g, ker, positive = self.case(include_time)
        calls = record_branches(monkeypatch)
        Mollification(ker, g)(Field(g, positive))
        assert (calls["_direct_convolve"], calls["_fft_convolve"]) == (0, 1)

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    @pytest.mark.parametrize("width", [1, 20])
    @pytest.mark.parametrize("include_time", [False, True])
    def test_vacuum_field_is_summed_directly_and_keeps_its_zeros(
            self, include_time, width, zero, monkeypatch):
        g, ker, values = self.case(include_time)
        values[:, 10:10 + width] = zero
        calls = record_branches(monkeypatch)
        moll = Mollification(ker, g)
        out = moll(Field(g, values))
        assert (calls["_direct_convolve"], calls["_fft_convolve"]) == (1, 0)
        # exact zeros wherever the kept weights (|w| > DBL_EPSILON) see
        # only zeros
        axes = (0, 1) if include_time else (1,)
        seen = np.abs(ker.weights * ker.cell_volume) > np.finfo(float).eps
        reach = direct_circular_convolve((values != 0).astype(float),
                                         seen.astype(float), axes)
        j0 = out.grid.time_offset_from(g)
        off = reach[j0:j0 + out.grid.shape[0]] == 0.0
        assert off.any() == (width == 20)
        assert (out.values[..., 0][off] == 0.0).all()
        assert (out.values[..., 0][~off] > 0.0).all()

    def test_signed_field_with_zeros_takes_the_fft(self, monkeypatch):
        g, ker, _ = self.case(False)
        signed = np.sin(2 * np.pi * g.meshgrid()[1])
        signed[:, :5] = 0.0
        calls = record_branches(monkeypatch)
        Mollification(ker, g)(Field(g, signed))
        assert (calls["_direct_convolve"], calls["_fft_convolve"]) == (0, 1)

    def test_all_direct_mollification_builds_no_spectrum(self, monkeypatch):
        g, ker, values = self.case(True)
        values[:, 20:40] = 0.0
        calls = record_branches(monkeypatch)
        moll = Mollification(ker, g)
        for f in (Field(g, values), Field(g, np.stack([values] * 3, -1))):
            moll(f)
        assert calls["_direct_convolve"] == 4
        assert (calls["_kernel_spectrum"], calls["_fft_convolve"]) == (0, 0)
        assert moll._spectrum is None

    def test_components_pick_their_own_branch(self, monkeypatch):
        g, ker, positive = self.case(True)
        vacuum = positive.copy()
        vacuum[:, 20:40] = 0.0
        both = np.stack([vacuum, positive, positive], axis=-1)
        calls = record_branches(monkeypatch)
        moll = Mollification(ker, g)
        got = moll(Field(g, both))
        assert (calls["_direct_convolve"], calls["_fft_convolve"]) == (1, 2)
        assert calls["_kernel_spectrum"] == 1  # built once, on first use
        for c, values in enumerate((vacuum, positive)):
            alone = mollify(Field(g, values), ker)
            assert got.values[..., c].tobytes() == alone.values[..., 0].tobytes()

    def test_large_job_skips_the_vacuum_test(self, monkeypatch):
        g, ker, values = self.case(True)
        values[:, 20:40] = 0.0
        monkeypatch.setattr(grids, "_DIRECT_WORK_LIMIT",
                            g.node_count * ker.weights.size - 1)
        calls = record_branches(monkeypatch)
        Mollification(ker, g)(Field(g, values))
        assert calls["_touches_vacuum"] == 0
        assert (calls["_direct_convolve"], calls["_fft_convolve"]) == (0, 1)

    @pytest.mark.parametrize("vacuum", [False, True])
    @pytest.mark.parametrize("method", ["direct", "fft"])
    def test_force_branch_sends_every_component(self, method, vacuum,
                                                monkeypatch):
        force_branch(monkeypatch, method)
        g, ker, values = self.case(True)
        if vacuum:
            values[:, 20:40] = 0.0
        calls = record_branches(monkeypatch)
        Mollification(ker, g)(Field(g, np.stack([values, -values], -1)))
        want = (2, 0) if method == "direct" else (0, 2)
        assert (calls["_direct_convolve"], calls["_fft_convolve"]) == want

    @pytest.mark.parametrize("values,touches", [
        ([1.0, 0.0, 2.0], True), ([1.0, -0.0, 2.0], True),
        ([0.0, 0.0, 0.0], True), ([1.0, 1e-300, 2.0], False),
        ([1.0, 0.0, -1e-300], False), ([1.0, 2.0, 3.0], False),
    ])
    def test_touches_vacuum(self, values, touches):
        assert grids._touches_vacuum(np.array(values)) is touches


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

    def test_uncut_axes_keep_extents_and_whole_box_is_the_grid(self):
        g = self.ROOT
        sub = g.time_subgrid(4, 10)
        assert sub.extents[1:] == g.extents[1:]
        assert g.subgrid(((0, 30), (0, 40), (0, 48))) is g
        assert sub.subgrid(((0, 6), (0, 40), (0, 48))) is sub
        assert g.time_subgrid(0, 30) is g
        left = g.subgrid(((0, 30), (0, 20), (0, 48)))
        right = g.subgrid(((0, 30), (20, 40), (0, 48)))
        assert left.shape == right.shape and left.extents == right.extents
        assert left != right  # same size, other nodes

    def test_restrict_keeps_the_spatial_nodes(self):
        g = self.ROOT
        left = g.subgrid(((0, 30), (0, 20), (0, 48)))
        right = g.subgrid(((0, 30), (20, 40), (0, 48)))
        f = constant_field(left, 1.0)
        with pytest.raises(ValueError, match="spatial nodes"):
            restrict(f, right)
        with pytest.raises(ValueError, match="spatial nodes"):
            restrict(f, right.time_subgrid(3, 9))
        with pytest.raises(ValueError, match="spatial nodes"):
            restrict(constant_field(g, 1.0), left)  # a box is not a time range
        assert restrict(f, left.time_subgrid(3, 9)).grid.origin == (3, 0, 0)
        with pytest.raises(ValueError, match="contained"):
            restrict(constant_field(left.time_subgrid(3, 9), 1.0), left)

    def test_time_offsets_are_exact_node_differences(self):
        # t0 and dt = 0.7 / 30 are not dyadic, so t0 differences over dt
        # miss integers by rounding
        root = GridSpec(1, (30, 16), (0.7, 1.0), t0=0.1)
        subs = [root.time_subgrid(j, 30) for j in range(30)]
        for j, a in enumerate(subs):
            assert type(a.time_offset_from(root)) is int
            assert a.time_offset_from(root) == j
            assert root.time_offset_from(a) == -j
            for k, b in enumerate(subs):
                assert a.time_offset_from(b) == j - k
        boxed = root.subgrid(((4, 20), (3, 9)))
        assert boxed.time_offset_from(subs[1]) == 3

    def test_time_offsets_need_one_root(self):
        root = GridSpec(1, (30, 16), (0.7, 1.0), t0=0.1)
        # one step later in time: the same nodes as root's from index 1 on,
        # but a different root
        later = GridSpec(1, (29, 16), (0.7 * 29 / 30, 1.0),
                         t0=0.1 + 0.7 / 30)
        for a, b in ((later, root), (later.time_subgrid(2, 9), root),
                     (root.time_subgrid(3, 9), later)):
            with pytest.raises(ValueError, match="different root"):
                a.time_offset_from(b)
            with pytest.raises(ValueError, match="different root"):
                restrict(constant_field(b, 1.0), a)

    def test_rejects_boxes_outside_the_grid(self):
        with pytest.raises(ValueError, match="box"):
            self.ROOT.subgrid(((0, 31), (0, 40), (0, 48)))
        with pytest.raises(ValueError, match="box"):
            self.ROOT.subgrid(((0, 30), (0, 40)))
        with pytest.raises(ValueError, match="root"):
            GridSpec(2, (4, 40, 48), (0.1, 1.0, 1.3), root=self.ROOT,
                     origin=(28, 0, 0))


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
                                                     box, shape, vacuum,
                                                     monkeypatch):
        force_branch(monkeypatch, "direct")
        g, f = _window_case(spatial_dim, vacuum)
        ker = make_mollifier(eps, 1 + spatial_dim, g)
        full = Mollification(ker, g)(f)
        moll = Mollification(ker, g, box=box)
        part = moll(f)
        assert part.grid.shape == shape
        assert part.grid.root == g
        want = _cut_full(full, part)
        assert part.values.tobytes() == want.tobytes()
        if vacuum:
            assert (part.values[..., 0] == 0.0).any()

    @pytest.mark.parametrize("spatial_dim,eps,box,shape", CASES, ids=IDS)
    def test_fft_box_matches_the_whole_result(self, spatial_dim, eps, box,
                                              shape, monkeypatch):
        force_branch(monkeypatch, "fft")
        g, f = _window_case(spatial_dim, True)
        ker = make_mollifier(eps, 1 + spatial_dim, g)
        full = Mollification(ker, g)(f)
        moll = Mollification(ker, g, box=box)
        part = moll(f)
        assert part.grid.shape == shape
        want = _cut_full(full, part)
        assert np.max(np.abs(part.values - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("spatial_dim,eps,box,shape", CASES, ids=IDS)
    def test_whole_read_box_is_the_whole_result_cut_down(
            self, spatial_dim, eps, box, shape, method, monkeypatch):
        # the box cuts only the output: the transform lengths are the
        # whole grid's, so either branch keeps its bits, held or not
        force_branch(monkeypatch, method)
        g, f = _window_case(spatial_dim, True)
        ker = make_mollifier(eps, 1 + spatial_dim, g)
        whole = Mollification(ker, g)
        full = whole(f)
        moll = Mollification(ker, g, box=box, whole_read=True)
        assert moll.input_grid == g
        assert moll._fft_shape == whole._fft_shape
        for field in (f, HeldField(f)):
            part = moll(field)
            assert part.grid.shape == shape and part.grid.root == g
            assert part.values.tobytes() == _cut_full(full, part).tobytes()

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("varies", [False, True],
                             ids=["time-constant", "time-varying"])
    def test_whole_read_spatial_kernel_cuts_time_rows(self, varies, method,
                                                      monkeypatch):
        force_branch(monkeypatch, method)
        g, f = (_window_case(1, True) if varies
                else TestRepeatedSlices.time_constant(1, 2))
        ker = make_mollifier(0.1, 1, g, include_time=False)
        full = Mollification(ker, g)(f)
        moll = Mollification(ker, g, box=((5, 9), (30, 60)),
                             whole_read=True)
        for field in (f, HeldField(f)):
            part = moll(field)
            assert part.grid.shape == (4, 30)
            assert part.values.tobytes() == _cut_full(full, part).tobytes()

    def test_fft_pads_a_cut_axis_of_prime_length(self, monkeypatch):
        force_branch(monkeypatch, "fft")
        g = GridSpec(1, (64, 256), (1.0, 1.0))
        f = from_function(g, lambda t, x: np.sin(6 * np.pi * x + t) ** 2)
        ker = make_mollifier(0.1, 2, g)  # spatial half-width 25
        moll = Mollification(ker, g, box=((20, 40), (30, 77)))
        assert moll.input_grid.shape[1] == 97  # prime: padded to 100
        part = moll(f)
        want = _cut_full(mollify(f, ker), part)
        assert np.max(np.abs(part.values - want)) <= 1e-13 * np.max(np.abs(want))

    def test_numpy_integer_bounds(self, monkeypatch):
        # bounds as np.flatnonzero gives them, on a cut axis the FFT pads
        force_branch(monkeypatch, "fft")
        g = GridSpec(1, (64, 256), (1.0, 1.0))
        f = from_function(g, lambda t, x: np.sin(6 * np.pi * x + t) ** 2)
        ker = make_mollifier(0.1, 2, g)
        box = ((20, 40), (30, 77))
        moll = Mollification(ker, g, box=tuple(
            (np.int64(lo), np.int64(hi)) for lo, hi in box))
        ref = Mollification(ker, g, box=box)
        assert moll.input_grid == ref.input_grid
        assert moll._fft_shape == ref._fft_shape == (32, 100)
        assert moll(f).values.tobytes() == ref(f).values.tobytes()

    @pytest.mark.parametrize("method", ["direct", "fft"])
    def test_spatial_kernel_cuts_time_without_convolving_it(self, method,
                                                            monkeypatch):
        force_branch(monkeypatch, method)
        g, f = _window_case(1, True)
        ker = make_mollifier(0.1, 1, g, include_time=False)
        full = Mollification(ker, g)(f)
        moll = Mollification(ker, g, box=((5, 9), (30, 60)))
        part = moll(f)
        assert part.grid.shape == (4, 30)
        want = _cut_full(full, part)
        assert np.max(np.abs(part.values - want)) <= 1e-13 * np.max(np.abs(want))

    def test_takes_fields_on_the_cut_input_grid(self):
        g, f = _window_case(1, False)
        ker = make_mollifier(0.1, 2, g)
        moll = Mollification(ker, g, box=((20, 40), (30, 60)))
        view = moll.read(f)  # a field on the whole grid is read in place
        assert np.shares_memory(view, f.values) and view.shape[:2] == (32, 44)
        assert view.tobytes() == f.values[14:46, 23:67].tobytes()
        cut = Field(moll.input_grid, view)
        assert moll.read(cut) is cut.values
        # arithmetic on cut fields stays on the input grid, and a field on
        # the whole grid gives the bits of its cut
        assert moll(cut * cut).grid == moll(cut).grid
        assert moll(f).values.tobytes() == moll(cut).values.tobytes()

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
                moll.read(constant_field(other, 1.0))


class TestRepeatedSlices:
    """A spatial kernel on a field whose time slices have the same bits
    convolves one slice, and gives the bits of convolving every slice."""

    # (spatial_dim, box): whole grid, and a box cut on every axis
    CASES = [(1, None), (1, ((5, 9), (30, 60))),
             (2, None), (2, ((2, 6), (10, 30), (12, 36)))]
    IDS = ["1d", "1d-box", "2d", "2d-box"]

    @staticmethod
    def time_constant(spatial_dim, components):
        g, _ = _window_case(spatial_dim, False)
        one = np.random.default_rng(components).random(g.shape[1:]
                                                        + (components,))
        one[:g.shape[1] // 3] = 0.0  # exact vacuum
        return g, Field(g, np.broadcast_to(one, g.shape + (components,)))

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("components", [1, 3])
    @pytest.mark.parametrize("spatial_dim,box", CASES, ids=IDS)
    def test_one_slice_gives_the_bits_of_every_slice(self, spatial_dim, box,
                                                     components, method,
                                                     monkeypatch):
        force_branch(monkeypatch, method)
        g, f = self.time_constant(spatial_dim, components)
        ker = make_mollifier(0.1 if spatial_dim == 1 else 0.15, spatial_dim,
                             g, include_time=False)
        moll = Mollification(ker, g, box=box)
        rows = record_convolved_rows(monkeypatch)
        once = moll(f)
        assert rows == [1] * components
        convolve_every_slice(monkeypatch)
        every = moll(f)
        assert rows[components:] == [moll.input_grid.shape[0]] * components
        assert once.grid == every.grid
        assert once.values.tobytes() == every.values.tobytes()
        if components == 1:  # the convolved slice, never copied out
            assert_time_broadcast(once.values)
        else:  # the components are copied into one array
            assert once.values.flags.c_contiguous

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("varies", [False, True],
                             ids=["time-constant", "time-varying"])
    def test_finiteness_scan_reads_the_convolved_slices(self, varies, method,
                                                        monkeypatch):
        force_branch(monkeypatch, method)
        g, f = self.time_constant(1, 1)
        if varies:
            vals = f.values.copy()
            vals[5, 50, 0] = np.nextafter(vals[5, 50, 0], 2.0)
            f = Field(g, vals)
        ker = make_mollifier(0.1, 1, g, include_time=False)
        scanned = []
        monkeypatch.setattr(grids, "_require_finite",
                            lambda values: scanned.append(values.shape))
        out = mollify(f, ker)
        assert scanned == [(g.shape[0] if varies else 1,) + g.shape[1:]]
        if varies:
            assert out.values.flags.c_contiguous
        else:
            assert_time_broadcast(out.values)

    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("change", ["one-node", "negative-zero"])
    def test_slices_that_differ_are_all_convolved(self, change, method,
                                                  monkeypatch):
        force_branch(monkeypatch, method)
        g, f = self.time_constant(1, 1)
        vals = f.values.copy()
        if change == "one-node":
            vals[5, 50, 0] = np.nextafter(vals[5, 50, 0], 2.0)
        else:
            vals[-1, 3, 0] = -0.0  # equal to +0.0, other bits
        ker = make_mollifier(0.1, 1, g, include_time=False)
        rows = record_convolved_rows(monkeypatch)
        mollify(Field(g, vals), ker)
        assert rows == [g.shape[0]]

    @pytest.mark.parametrize("method", ["direct", "fft"])
    def test_space_time_kernels_convolve_every_slice(self, method,
                                                     monkeypatch):
        force_branch(monkeypatch, method)
        g, f = self.time_constant(1, 1)
        ker = make_mollifier(0.1, 2, g)
        rows = record_convolved_rows(monkeypatch)
        mollify(f, ker)
        assert rows == [g.shape[0]]

    def test_public_constructor_copies_a_broadcast(self):
        # Field(grid, values) stores C-contiguous values, so it copies a
        # broadcast; only Field._wrap keeps a read-only time broadcast, and
        # it copies a writeable one
        g, f = self.time_constant(1, 1)
        assert f.values.flags.c_contiguous  # built from a broadcast
        once = mollify(f, make_mollifier(0.1, 1, g, include_time=False))
        assert_time_broadcast(once.values)
        assert Field._wrap(g, once.values).values is once.values
        owned = Field(g, once.values)
        assert owned.values.flags.c_contiguous
        assert not owned.values.flags.writeable
        assert owned.values.tobytes() == once.values.tobytes()
        writeable = np.lib.stride_tricks.as_strided(
            owned.values[:1].copy(), owned.values.shape,
            (0,) + owned.values.strides[1:])
        assert Field._wrap(g, writeable).values.flags.c_contiguous

    def test_integrate_sums_a_broadcast_as_its_contiguous_copy(self):
        # a pairwise sum walks a stride-0 broadcast slice by slice, and its
        # bits differ from the sum over the copy (0x1.86888e3eaa77dp-1
        # against ...779p-1 here, on numpy 2.4)
        g = GridSpec(1, (64, 4096), (1.0, 1.0))
        rho = vacuum_profile("sine-power", 0.5, g)
        got = mollify(rho, make_mollifier(0.2, 1, g, include_time=False))
        assert_time_broadcast(got.values)
        assert hexed(integrate(got)) == hexed(integrate(Field(g, got.values)))


class TestFastLength:
    """The pure-Python 5-smooth search against ``scipy.fft.next_fast_len``."""

    def test_matches_scipy_up_to_4096(self):
        from scipy.fft import next_fast_len
        got = [grids._fast_length(n) for n in range(1, 4097)]
        assert got == [next_fast_len(n, real=True) for n in range(1, 4097)]

    def test_matches_scipy_on_the_2048_ladder(self, monkeypatch):
        # the cut axes of criterion 8's five rungs, eps = 2^-4 ... 2^-8
        from scipy.fft import next_fast_len
        from vacuumlab import commutators, testfn
        force_branch(monkeypatch, "direct")  # no kernel spectra needed
        g = GridSpec(1, (2048, 2048), (1.0, 1.0))
        phi = testfn.spacetime_bump((0.5, 0.5), (0.35, 0.35))
        sizes = set()
        for k in range(4, 9):
            ker = make_mollifier(2.0 ** -k, 2, g)
            box = commutators._pairing_box(phi, g, ker)
            moll = Mollification(ker, g, box=box)
            sizes |= {s.stop - s.start for s in moll._read} - {2048}
        assert len(sizes) == 5
        for n in sizes:
            assert grids._fast_length(n) == next_fast_len(n, real=True)


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
        self.assert_matches_oracles(vals, win, axes)

    @staticmethod
    def assert_matches_oracles(vals, win, axes):
        """Within 1e-13 max|w| of direct summation, with the exact-zero
        set of ``ndimage.convolve``."""
        out = grids._direct_convolve(vals, win, axes)
        oracle = direct_circular_convolve(vals, win, axes)
        assert np.max(np.abs(out - oracle)) <= 1e-13 * max(vals.max(), 1e-300)
        nd = ndimage.convolve(vals, win.reshape((1,) * (vals.ndim - win.ndim)
                                                + win.shape), mode="wrap")
        assert np.array_equal(out == 0.0, nd == 0.0)

    @pytest.mark.parametrize("nodes, eps, taps", [
        (4096, 0.2, 1639), (4096, 0.025, 205),
        (32768, 0.025, 1639), (32768, 0.01, 655)])
    def test_spike_lines(self, nodes, eps, taps):
        # the 1-D lines of ``spike_vacuum``; one time slice, as the field
        # is constant in time
        w = counterexample_field(8, nodes)
        ker = make_mollifier(eps, 1, w.grid, include_time=False)
        assert ker.weights.size == taps
        self.assert_matches_oracles(w.values[:1, :, 0],
                                    ker.weights * ker.cell_volume, (1,))

    @pytest.mark.parametrize("eps", [2.0 ** -6, 2.0 ** -7])
    def test_rates_space_time_kernels(self, eps):
        # the 15 x 15 and 7 x 7 space-time kernels of the ``rates`` study
        # on its 512^2 grid, over a field with a vacuum band
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        ker = make_mollifier(eps, 2, g)
        assert ker.weights.shape == (2 * int(eps * 512) - 1,) * 2
        vals = self.vacuum_field(np.random.default_rng(5), g.shape, 100, 60)
        self.assert_matches_oracles(vals, ker.weights * ker.cell_volume,
                                    (0, 1))

    @pytest.mark.parametrize("include_time", [False, True])
    def test_negative_zeros(self, include_time):
        # -0.0 counts as vacuum; it must give the zeros +0.0 gives
        rng = np.random.default_rng(11)
        g = GridSpec(1, (24, 64), (1.0, 1.0))
        vals = self.vacuum_field(rng, g.shape, 10, 20)
        vals[vals == 0.0] = rng.choice([-0.0, 0.0], int((vals == 0.0).sum()))
        assert np.signbit(vals[vals == 0.0]).any()
        ker = make_mollifier(4.5 / 24, 1 + include_time, g,
                             include_time=include_time)
        self.assert_matches_oracles(vals, ker.weights * ker.cell_volume,
                                    (0, 1) if include_time else (1,))

    @pytest.mark.parametrize("taps, dot_taps", [
        (13, None), (23, None), (33, None), (35, None), (101, 40)])
    def test_asymmetric_rows_in_pieces(self, taps, dot_taps, monkeypatch):
        # rows of up to 33 taps go in 11-tap pieces, and longer ones in
        # pieces of _DOT_TAPS (40 here, so 101 taps make 40 + 40 + 21)
        if dot_taps is not None:
            monkeypatch.setattr(grids, "_DOT_TAPS", dot_taps)
        rng = np.random.default_rng(taps)
        weights = rng.random((3, taps))
        weights /= weights.sum()
        vals = self.vacuum_field(rng, (5, 257), 40, 150)
        self.assert_matches_oracles(vals, weights, (0, 1))

    def test_long_rows_do_not_depend_on_blas_threads(self):
        # a one-slice sub-grid lets a direct job carry a 12,001-tap row
        # (16,384 nodes x 12,001 taps is under the work limit); OpenBLAS
        # threads a dot product longer than 10,000, so a row that long
        # is summed in pieces
        g = GridSpec(1, (8, 16384), (1.0, 1.0))
        ker = make_mollifier(6000.5 / 16384, 1, g, include_time=False)
        win = ker.weights * ker.cell_volume
        assert win.size == 12001
        code = """
import sys
import numpy as np
from vacuumlab import grids
g = grids.GridSpec(1, (8, 16384), (1.0, 1.0))
sub = g.subgrid(((0, 1), (0, 16384)))
ker = grids.make_mollifier(6000.5 / 16384, 1, g, include_time=False)
vals = np.random.default_rng(2).random((1, 16384, 1))
vals[:, 2000:16000] = 0.0
out = grids.Mollification(ker, sub)(grids.Field(sub, vals)).values
sys.stdout.buffer.write(out.tobytes())
"""
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC,
                       OPENBLAS_NUM_THREADS=threads)
            outs.append(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, timeout=120).stdout)
        assert outs[0] == outs[1]
        vals = np.random.default_rng(2).random((1, 16384))
        vals[:, 2000:16000] = 0.0
        out = np.frombuffer(outs[0]).reshape(vals.shape)
        oracle = direct_circular_convolve(vals, win, (1,))
        assert np.max(np.abs(out - oracle)) <= 1e-13 * vals.max()
        assert (out[:, 8000:10000] == 0.0).all()

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


# values shape, axes, stencil shape and the nonzero rows of the stencil
# (one row repeated, so ``_direct_convolve`` makes one line and adds it at
# every offset); the offsets include 0 and negative ones
ROLLED_CASES = {
    "1-lead": ((9, 11), (0, 1), (5, 7), [(0,), (2,), (3,)]),
    "1-lead-time-leading": ((4, 9, 11), (1, 2), (5, 7), [(4,), (0,), (2,)]),
    "2-lead": ((6, 9, 11), (0, 1, 2), (3, 5, 7),
               [(0, 1), (1, 2), (1, 0), (2, 4)]),
}


@pytest.mark.parametrize("case", ROLLED_CASES.values(),
                         ids=ROLLED_CASES.keys())
def test_direct_offsets_add_as_rolled_copies_bitwise(case):
    # the reference adds np.roll copies of the line, the first as it is;
    # the line is the same stencil row's convolution with no leading offset
    vshape, axes, wshape, rows = case
    rng = np.random.default_rng(len(rows))
    values, row = rng.random(vshape), 0.1 + rng.random(wshape[-1])
    weights = np.zeros(wshape)
    for idx in rows:
        weights[idx] = row
    line = grids._direct_convolve(
        values, row.reshape((1,) * (len(axes) - 1) + row.shape), axes)
    want = None
    for idx in sorted(rows):  # the stencil's C order, as the terms are added
        steps = tuple(i - n // 2 for i, n in zip(idx, wshape))
        term = np.roll(line, steps, axis=axes[:-1])
        want = term if want is None else operator.iadd(want, term)
    got = grids._direct_convolve(values, weights, axes)
    assert got.shape == want.shape
    assert (got.view(np.int64) == want.view(np.int64)).all()


def _box(keep, shape):
    """``keep`` as one slice per transformed axis: a single slice keeps
    those rows of the first axis and all of the others."""
    if isinstance(keep, tuple):
        return keep
    return (keep,) + (slice(None),) * (len(shape) - 1)


def _rfftn_oracle(values, weights, shape, keep=slice(None)):
    """``irfftn(rfftn(values, shape, axes) * K, shape, axes)`` over the
    trailing ``len(shape)`` axes, K the ``rfftn`` of the centred stencil
    wrapped to ``shape``, cut to the box ``keep`` (see ``_box``)."""
    axes = tuple(range(values.ndim - len(shape), values.ndim))
    kfull = np.zeros(shape)
    kfull[np.ix_(*[np.arange(-(n // 2), n // 2 + 1) % s
                   for n, s in zip(weights.shape, shape)])] = weights
    spec = np.fft.rfftn(values, shape, axes)
    spec *= np.fft.rfftn(kfull)
    out = np.fft.irfftn(spec, shape, axes)
    return out[(slice(None),) * axes[0] + _box(keep, shape)]


def _engine(values, weights, shape, keep=slice(None)):
    return grids._fft_convolve(values, grids._kernel_spectrum(weights, shape),
                               shape, _box(keep, shape))


class TestFFTEngine:
    """The blocked engine against ``rfftn``/``irfftn``, bit for bit."""

    # values shape, transform shape, stencil shape, kept rows
    CASES = {
        "1d-spatial": ((6, 48), (48,), (9,), slice(None)),
        "1d-spatial-padded": ((6, 40), (45,), (7,), slice(3, 37)),
        "2d-space-time": ((40, 64), (40, 64), (9, 11), slice(4, 36)),
        "2d-space-time-padded": ((37, 53), (40, 54), (9, 11), slice(4, 33)),
        "2d-space-time-prime": ((41, 37), (41, 37), (7, 9), slice(3, 38)),
        "3d-space-time": ((12, 20, 16), (12, 20, 16), (5, 7, 9), slice(2, 10)),
        "3d-space-time-padded": ((12, 19, 15), (15, 20, 16), (5, 7, 9),
                                 slice(2, 10)),
        "2d-spatial-on-3d": ((3, 40, 20), (40, 20), (7, 9), slice(None)),
        "2d-spatial-on-3d-padded-prime": ((3, 40, 23), (45, 23), (7, 9),
                                          slice(5, 30)),
    }

    @pytest.mark.parametrize("block", [None, 1, 5])
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_equals_rfftn_bitwise(self, case, block, monkeypatch):
        # block 5 divides none of the column counts (33, 28, 19, 180, 162,
        # 11, 12): the last block of each is partial
        if block is not None:
            monkeypatch.setattr(grids, "_PENCIL_BLOCK", block)
        vshape, shape, wshape, keep = case
        rng = np.random.default_rng(len(vshape) * 100 + vshape[-1])
        values, weights = rng.standard_normal(vshape), rng.random(wshape)
        got = _engine(values, weights, shape, keep)
        want = _rfftn_oracle(values, weights, shape, keep)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("row_block", [None, 1, 5])
    @pytest.mark.parametrize("whole_x", [False, True],
                             ids=["cut-x", "whole-x"])
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_kept_box_equals_rfftn_cut_bitwise(self, case, whole_x,
                                               row_block, monkeypatch):
        # every transformed axis cut by 2 nodes at its start and 3 at its
        # end (the first within the rows given), or x kept whole; the last
        # inverses write the box straight, ``_ROW_BLOCK`` rows at a time
        if row_block is not None:
            monkeypatch.setattr(grids, "_ROW_BLOCK", row_block)
        vshape, shape, wshape, _ = case
        lead = len(vshape) - len(shape)
        ends = (vshape[lead],) + shape[1:]
        box = tuple(slice(2, n - 3) for n in ends)
        if whole_x:
            x = 1 if len(shape) > 1 else 0
            box = box[:x] + (slice(None),) + box[x + 1:]
        rng = np.random.default_rng(len(vshape) * 100 + vshape[-1])
        values, weights = rng.standard_normal(vshape), rng.random(wshape)
        got = _engine(values, weights, shape, box)
        want = _rfftn_oracle(values, weights, shape, box)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    # values shape, transform shape, stencil shape, kept range per axis;
    # every box but the ones that keep x whole has an odd node count
    IN_PLACE = {
        "1-axis": ((45,), (45,), (7,), (slice(2, 43),)),
        "1-axis-leading": ((6, 48), (48,), (9,), (slice(3, 40),)),
        "1-axis-leading-whole": ((6, 47), (50,), (7,), (slice(None),)),
        "1-axis-two-leading": ((2, 3, 30), (32,), (5,), (slice(1, 28),)),
        "2-axes": ((40, 64), (40, 64), (9, 11), (slice(4, 37), slice(3, 60))),
        "2-axes-whole-x": ((37, 53), (40, 54), (9, 11),
                           (slice(4, 33), slice(None))),
        "2-axes-leading": ((3, 40, 20), (40, 20), (7, 9),
                           (slice(3, 36), slice(1, 18))),
        "2-axes-leading-whole-x": ((3, 40, 23), (45, 23), (7, 9),
                                   (slice(5, 30), slice(None))),
        "3-axes": ((12, 19, 15), (15, 20, 16), (5, 7, 9),
                   (slice(2, 9), slice(1, 18), slice(2, 15))),
    }

    @staticmethod
    def in_place_case(case):
        vshape, shape, wshape, keep = case
        rng = np.random.default_rng(len(vshape) * 100 + vshape[-1])
        values, weights = rng.standard_normal(vshape), rng.random(wshape)
        return values, grids._kernel_spectrum(weights, shape), shape, keep

    @pytest.mark.parametrize("row_block", [None, 1, 5])
    @pytest.mark.parametrize("case", IN_PLACE.values(), ids=IN_PLACE.keys())
    def test_consumed_transform_equals_the_read_one_bitwise(
            self, case, row_block, monkeypatch):
        # _fft_convolve inverts the transform in its own memory, _apply
        # without ``consume`` into a fresh box; the blocks of 1 and 5 rows
        # interleave many reads and writes of the shared memory
        if row_block is not None:
            monkeypatch.setattr(grids, "_ROW_BLOCK", row_block)
        values, spectrum, shape, keep = self.in_place_case(case)
        want = grids._apply(grids._forward(values, shape), spectrum, shape,
                            keep)
        got = grids._fft_convolve(values, spectrum, shape, keep)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert (got.view(np.int64) == want.view(np.int64)).all()

    @pytest.mark.parametrize("case", IN_PLACE.values(), ids=IN_PLACE.keys())
    def test_result_holds_only_its_box(self, case):
        # the transform is shrunk to the box, rounded up to whole complex
        # values: 8 bytes more for an odd node count
        got = grids._fft_convolve(*self.in_place_case(case))
        assert got.flags.writeable
        base = got
        while base.base is not None:
            base = base.base
        assert got.nbytes <= base.nbytes <= got.nbytes + 8

    def test_a_transform_held_elsewhere_is_copied_out(self, monkeypatch):
        # the resize refuses while another reference holds the transform;
        # the box is then copied out of it, with the same bits
        values, spectrum, shape, keep = self.in_place_case(
            self.IN_PLACE["2-axes"])
        want = grids._fft_convolve(values, spectrum, shape, keep)
        held, forward = [], grids._forward
        monkeypatch.setattr(grids, "_forward", lambda *args: (
            held.append(forward(*args)) or held[-1]))
        got = grids._fft_convolve(values, spectrum, shape, keep)
        assert got.base is None and got.flags.c_contiguous
        assert (got.view(np.int64) == want.view(np.int64)).all()
        assert held[0].shape == (40, 33)  # not shrunk

    @settings(max_examples=40, deadline=None)
    @given(lead=st.integers(0, 1), sizes=st.lists(st.integers(5, 24),
                                                   min_size=1, max_size=3),
           pads=st.lists(st.integers(0, 5), min_size=3, max_size=3),
           cuts=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                         min_size=3, max_size=3),
           block=st.integers(1, 70), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_boxes_equal_rfftn_bitwise(self, lead, sizes, pads, cuts,
                                              block, seed):
        rng = np.random.default_rng(seed)
        vshape = (3,) * lead + tuple(sizes)
        shape = tuple(n + p for n, p in zip(sizes, pads))
        wshape = tuple(2 * int(rng.integers(0, (n - 1) // 2 + 1)) + 1
                       for n in sizes)
        ends = (sizes[0],) + shape[1:]
        box = tuple(slice(lo, n - hi) for n, (lo, hi) in zip(ends, cuts))
        values, weights = rng.standard_normal(vshape), rng.random(wshape)
        grids._ROW_BLOCK, default = block, grids._ROW_BLOCK
        try:
            got = _engine(values, weights, shape, box)
        finally:
            grids._ROW_BLOCK = default
        want = _rfftn_oracle(values, weights, shape, box)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(lead=st.integers(0, 1), sizes=st.lists(st.integers(5, 24),
                                                   min_size=1, max_size=3),
           pads=st.lists(st.integers(0, 5), min_size=3, max_size=3),
           cut=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           block=st.integers(1, 70), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_shapes_equal_rfftn_bitwise(self, lead, sizes, pads, cut,
                                               block, seed):
        rng = np.random.default_rng(seed)
        vshape = (3,) * lead + tuple(sizes)
        shape = tuple(n + p for n, p in zip(sizes, pads))
        wshape = tuple(2 * int(rng.integers(0, (n - 1) // 2 + 1)) + 1
                       for n in sizes)
        keep = slice(cut[0], sizes[0] - cut[1])
        values, weights = rng.standard_normal(vshape), rng.random(wshape)
        grids._PENCIL_BLOCK, default = block, grids._PENCIL_BLOCK
        try:
            got = _engine(values, weights, shape, keep)
        finally:
            grids._PENCIL_BLOCK = default
        want = _rfftn_oracle(values, weights, shape, keep)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spatial_dim", [1, 2])
    def test_mollification_on_a_box_equals_rfftn_bitwise(self, spatial_dim,
                                                         monkeypatch):
        # the engine gets the kept range of every axis it transforms
        force_branch(monkeypatch, "fft")
        shape = (40, 64) if spatial_dim == 1 else (24, 32, 30)
        g = GridSpec(spatial_dim, shape, (1.0,) * len(shape))
        f = Field(g, np.random.default_rng(spatial_dim).random(shape))
        ker = make_mollifier(0.13, 1 + spatial_dim, g)
        box = ((6, 30), (20, 44)) if spatial_dim == 1 else \
            ((5, 19), (12, 20), (0, 30))
        moll = Mollification(ker, g, box=box)
        got = moll(f)
        start = [o - i for o, i in zip(got.grid.origin,
                                       moll.input_grid.origin)]
        want = _rfftn_oracle(moll.read(f)[..., 0],
                             ker.weights * ker.cell_volume, moll._fft_shape,
                             slice(start[0], start[0] + got.grid.shape[0]))
        want = want[(slice(None),) + tuple(
            slice(a, a + n) for a, n in zip(start[1:], got.grid.shape[1:]))]
        assert moll._fft_shape[1] != shape[1]  # x is cut and padded
        assert got.values[..., 0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [130, 1])
    @pytest.mark.parametrize("tail,shape", [
        ((48,), (130, 48)),            # space-time over one axis
        ((45,), (50,)),                # spatial, padded, time leading
        ((19, 15), (130, 20, 16)),     # space-time over two, padded
        ((40, 23), (45, 23)),          # spatial over two, time leading
    ], ids=["space-time-1d", "spatial-1d", "space-time-2d", "spatial-2d"])
    @pytest.mark.parametrize("fed", ["array", "rows"])
    def test_forward_in_row_blocks_equals_the_whole_transform(
            self, rows, tail, shape, fed):
        # _ROW_BLOCK = 64 divides neither row count, so the last block is
        # partial; rows formed on demand are formed a block at a time
        values = np.random.default_rng(rows).standard_normal((rows,) + tail)
        lead = values.ndim - len(shape)
        want = np.fft.rfft(values, shape[-1], axis=-1)
        for a in range(len(shape) - 2, 0, -1):
            want = np.fft.fft(want, shape[a], axis=lead + a)
        asked = []

        def form(sl):
            asked.append(sl)
            return values[sl]

        fed = values if fed == "array" else grids._Rows(form, values.shape)
        got = grids._forward(fed, shape)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        if asked:
            # one block, or the whole of one row
            step = grids._ROW_BLOCK
            assert [range(rows)[sl] for sl in asked] == [
                range(r, min(r + step, rows)) for r in range(0, rows, step)]

    @pytest.mark.parametrize("wshape,shape", [
        ((9,), (48,)), ((51, 11), (256, 256)), ((9, 11), (40, 54)),
        ((7, 9), (41, 37)), ((5, 7, 9), (15, 20, 16)), ((7, 9), (45, 23)),
        ((57, 57), (256, 256)),
    ])
    def test_kernel_spectrum_equals_the_whole_array_transform(self, wshape,
                                                               shape):
        # the whole zero-padded array through ``_forward``, ``fft`` along
        # the first axis and a transposed copy, one pencil per row; over
        # more than one axis every block of pencils is made and stacked
        weights = np.random.default_rng(len(shape)).random(wshape)
        kfull = np.zeros(shape)
        kfull[np.ix_(*[np.arange(-(n // 2), n // 2 + 1) % s
                       for n, s in zip(wshape, shape)])] = weights
        want = grids._forward(kfull, shape)
        if len(shape) > 1:
            want = np.ascontiguousarray(
                np.fft.fft(want, axis=0).reshape(shape[0], -1).T)
        got = grids._kernel_spectrum(weights, shape)
        if len(shape) > 1:
            assert got.rows.shape == (wshape[0], len(want))
            step = grids._PENCIL_BLOCK
            got = np.concatenate([
                got.block(c0, min(c0 + step, len(got)),
                          np.empty((min(step, len(got) - c0), shape[0]),
                                   complex))
                for c0 in range(0, len(got), step)])
        assert got.shape == want.shape and got.flags.c_contiguous
        assert (got == want).all()
        # bit for bit wherever the value is not zero (a zero may differ in
        # sign)
        nonzero = want.view(float) != 0.0
        assert (got.view(np.int64)[nonzero]
                == want.view(np.int64)[nonzero]).all()

    def test_mollification_keeps_only_the_first_stage_transform(self):
        # after an FFT convolution a space-time Mollification holds no
        # array larger than its kernel's first-stage transform, (2k + 1)
        # x columns, where the whole spectrum is columns x n
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        ker = make_mollifier(0.15, 2, g)  # 153 x 153 nodes
        moll = Mollification(ker, g)
        f = Field(g, 1.5 + np.sin(2 * np.pi * g.meshgrid()[1]))
        moll(f)
        first_stage = moll._spectrum.rows
        assert first_stage.shape == (153, 257)
        whole = 257 * moll._fft_shape[0] * 16
        assert whole > 3 * first_stage.nbytes
        held, seen, todo = [], set(), [moll]
        while todo:  # every array the object reaches, not through a class
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                while isinstance(obj.base, np.ndarray):
                    obj = obj.base
                held.append(obj)
            elif isinstance(obj, (dict, list, tuple, grids._KernelPencils,
                                  Mollification, GridSpec)):
                todo.extend(gc.get_referents(obj))
        assert any(np.shares_memory(a, first_stage) for a in held)
        assert max(a.nbytes for a in held) == first_stage.nbytes


class TestCalculus:
    def test_integrate_constant(self, small_grid):
        assert integrate(constant_field(small_grid, 3.0)) == pytest.approx(3.0)

    def test_lp_norm_masked(self, small_grid):
        f = constant_field(small_grid, 2.0)
        mask = np.zeros(small_grid.shape, dtype=bool)
        mask[:, : small_grid.shape[1] // 2] = True
        assert lp_norm(f, 2, mask=mask) == pytest.approx(2.0 / np.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("order,tol", [(4, 2e-6)])
    def test_spatial_derivative_order(self, order, tol):
        g = GridSpec(1, (8, 256), (1.0, 1.0))
        f = from_function(g, lambda t, x: np.sin(2 * np.pi * x))
        exact = from_function(g, lambda t, x: 2 * np.pi * np.cos(2 * np.pi * x))
        err = lp_norm(dspace(f, 1) - exact, np.inf)
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


def roll_central_diff(vals, axis, h, periodic):
    """The 4th-order stencil as a sum of rolled copies (the oracle for
    ``grids._central_diff``)."""
    trim = 2
    out = np.zeros_like(vals)
    for off, c in {2: -1 / 12, 1: 8 / 12, -1: -8 / 12, -2: 1 / 12}.items():
        out += c * np.roll(vals, -off, axis=axis)
    out /= h
    if periodic:
        return out, 0
    sl = [slice(None)] * vals.ndim
    sl[axis] = slice(trim, vals.shape[axis] - trim)
    return out[tuple(sl)], trim


@pytest.mark.parametrize("block_rows", [None, 1, 3])
@pytest.mark.parametrize("order", [4])  # names the cases, seeds their data
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
        got = grids._central_diff(vals, axis, 0.1)
        want = roll_central_diff(vals, axis, 0.1, periodic=axis > 0)
        assert got[1] == want[1]
        assert got[0].shape == want[0].shape
        assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("block_rows", [None, 1, 3])
@pytest.mark.parametrize("shape", [(12, 16, 2), (10, 12, 14, 3)])
def test_central_diff_overwrite_equals_the_fresh_difference_bitwise(
        shape, block_rows, monkeypatch):
    # written back over its input, a block of time slices at a time, on a
    # contiguous array and on a strided component view
    rng = np.random.default_rng(len(shape))
    vals = rng.standard_normal(shape)
    vals[..., 0] = np.where(rng.random(shape[:-1]) < 0.5, -0.0, 0.0)
    if block_rows is not None:
        monkeypatch.setattr(grids, "_FD_BLOCK_BYTES", block_rows * vals[0].nbytes)
    for axis in range(1, len(shape) - 1):
        for view in (lambda a: a, lambda a: a[..., 1]):
            want = grids._central_diff(view(vals), axis, 0.1)
            work = vals.copy()
            got = grids._central_diff(view(work), axis, 0.1, overwrite=True)
            assert got[1] == want[1] == 0
            assert np.shares_memory(got[0], work)
            assert (got[0].view(np.int64) == want[0].view(np.int64)).all()
    with pytest.raises(ValueError, match="time difference"):
        grids._central_diff(vals, 0, 0.1, overwrite=True)


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

    @staticmethod
    def edit_header(tmp_path, grid, edit):
        """Save a constant field on ``grid`` as ``f``, then ``edit(header)``."""
        import json
        save_field(constant_field(grid, 1.0), tmp_path / "f")
        path = tmp_path / "f.json"
        header = json.loads(path.read_text())
        edit(header)
        path.write_text(json.dumps(header))

    def test_box_outside_its_root_is_rejected(self, tmp_path, small_grid):
        sub = small_grid.subgrid(((2, 6), (10, 20)))
        self.edit_header(tmp_path, sub, lambda h: h.update(origin=[2, 60]))
        with pytest.raises(ValueError, match="root"):
            load_field(tmp_path / "f")

    @pytest.mark.parametrize("key", ["spatial_dim", "shape", "extents", "t0",
                                     "components", "format", "data_file"])
    def test_header_missing_key_names_it(self, tmp_path, small_grid, key):
        self.edit_header(tmp_path, small_grid, lambda h: h.pop(key))
        with pytest.raises(ValueError, match=f"field header lacks the key '{key}'"):
            load_field(tmp_path / "f")

    def test_root_missing_key_names_it(self, tmp_path, small_grid):
        sub = small_grid.subgrid(((2, 6), (10, 20)))
        self.edit_header(tmp_path, sub, lambda h: h["root"].pop("extents"))
        with pytest.raises(ValueError, match="root lacks the key 'extents'"):
            load_field(tmp_path / "f")

    def test_unknown_format_is_rejected(self, tmp_path, small_grid):
        self.edit_header(tmp_path, small_grid, lambda h: h.update(format="xyz"))
        with pytest.raises(ValueError, match=r"unknown format 'xyz'; "
                                             r"expected 'bin' or 'csv'"):
            load_field(tmp_path / "f")

    def test_save_rejects_unknown_format_before_writing(self, tmp_path,
                                                         small_grid):
        with pytest.raises(ValueError, match="fmt must be"):
            save_field(constant_field(small_grid, 1.0), tmp_path / "f", fmt="xyz")
        assert list(tmp_path.iterdir()) == []

    def test_header_that_is_not_an_object(self, tmp_path, small_grid):
        (tmp_path / "f.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="unrecognized field header"):
            load_field(tmp_path / "f")

    def test_header_without_derived_flag_infers_it(self, tmp_path, small_grid):
        sub = small_grid.time_subgrid(2, 6)
        self.edit_header(tmp_path, sub, lambda h: h.pop("derived"))
        assert load_field(tmp_path / "f").grid == sub

    @pytest.mark.parametrize("cut,edit", [
        (False, lambda h: h.pop("derived")),
        (False, lambda h: h.update(derived=True)),
        (True, lambda h: h.update(derived=False)),
        (True, lambda h: h["root"].pop("derived")),
        (True, lambda h: h["root"].update(derived=True)),
    ], ids=["root-removed", "root-wrong", "sub-wrong", "sub-root-record-removed",
            "sub-root-record-wrong"])
    def test_derived_flag_is_not_read(self, tmp_path, small_grid, cut, edit):
        grid = small_grid.subgrid(((2, 6), (10, 20))) if cut else small_grid
        self.edit_header(tmp_path, grid, edit)
        assert load_field(tmp_path / "f").grid == grid

    @pytest.mark.parametrize("edit,key", [
        ({"t0": 5.0}, "t0"),
        ({"extents": [9, 9]}, "extents"),
        ({"t0": 5.0, "extents": [9, 9]}, "t0"),
    ], ids=["t0", "extents", "both"])
    def test_sub_grid_header_must_agree_with_its_root(self, tmp_path,
                                                      small_grid, edit, key):
        sub = small_grid.subgrid(((2, 6), (10, 20)))
        self.edit_header(tmp_path, sub, lambda h: h.update(edit))
        with pytest.raises(ValueError, match=f"field header's '{key}' is "):
            load_field(tmp_path / "f")

    def test_root_header_needs_8_nodes_per_axis(self, tmp_path, small_grid):
        # a header with no root describes a root grid, whatever its t0
        def drop_root(h):
            h.update(root=None, origin=[])

        self.edit_header(tmp_path, small_grid.time_subgrid(2, 6), drop_root)
        with pytest.raises(ValueError, match="8 points"):
            load_field(tmp_path / "f")

    # the header bytes save_field has written since boxes got a root record
    SUB_HEADER = """\
{
  "components": 1,
  "data_file": "f.bin",
  "derived": true,
  "dtype": "<f8",
  "extents": [
    0.27999999999999997,
    0.65
  ],
  "format": "bin",
  "order": "C",
  "origin": [
    2,
    1
  ],
  "root": {
    "derived": false,
    "extents": [
      0.7,
      1.3
    ],
    "shape": [
      10,
      8
    ],
    "t0": 0.1
  },
  "schema": "vacuumlab-field-1",
  "shape": [
    4,
    4
  ],
  "spatial_dim": 1,
  "t0": 0.24
}
"""

    def test_saved_headers_keep_their_bytes(self, tmp_path):
        import json
        root = GridSpec(1, (10, 8), (0.7, 1.3), t0=0.1)
        save_field(constant_field(root.subgrid(((2, 6), (1, 5))), 1.0),
                   tmp_path / "f")
        assert (tmp_path / "f.json").read_text() == self.SUB_HEADER
        save_field(constant_field(root, 1.0), tmp_path / "r")
        header = json.loads((tmp_path / "r.json").read_text())
        assert header["derived"] is False and header["root"] is None


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_mollification_is_linear(c):
    g = GridSpec(1, (32, 32), (1.0, 1.0))
    f = from_function(g, lambda t, x: np.sin(2 * np.pi * x) + t)
    ker = make_mollifier(0.12, 2, g)
    lhs = mollify(Field(g, c * f.values), ker)
    rhs = mollify(f, ker)
    assert np.allclose(lhs.values, c * rhs.values, atol=1e-10)


@pytest.fixture(scope="module")
def signed_case():
    g = GridSpec(1, (32, 128), (1.0, 1.0))
    signed = from_function(g, lambda t, x: np.sin(2 * np.pi * x) + 0.0 * t)
    u = constant_field(g, 0.1)
    law = PressureLaw(gamma=1.4)
    ker = make_mollifier(0.1, 2, g)
    spatial = [make_mollifier(e, 1, g, include_time=False) for e in (0.2, 0.1)]
    phi = spacetime_bump((0.5, 0.5), (0.3, 0.3))
    return {"f": signed, "u": u, "law": law, "ker": ker, "spatial": spatial,
            "phi": phi, "approx": make_c2_approximant(law, 1e-3)}


# entry point -> (the name its message gives the field, the call)
_ENTRY_POINTS = {
    "build_vacuum_sets": ("rho", lambda c: vacuum.build_vacuum_sets(
        c["f"], c["ker"], 0.5)),
    "ratio_condition": ("rho", lambda c: vacuum.ratio_condition(
        c["f"], c["ker"], 0.5, 2)),
    "l1_ratio_lemma_check": ("w", lambda c: vacuum.l1_ratio_lemma_check(
        c["f"], c["spatial"])),
    "reciprocal_integrability_rate": (
        "w", lambda c: vacuum.reciprocal_integrability_rate(
            c["f"], 4.0, 4.0, 2.0, c["spatial"])),
    "qns_check": ("w", lambda c: vacuum.qns_check(
        c["f"], None, [0.05], C=1.0)),
    "qns_mollifier_equivalence": (
        "w", lambda c: vacuum.qns_mollifier_equivalence(
            c["f"], None, c["spatial"], M=3.0)),
    "counterexample_blowup": ("f", lambda c: vacuum.counterexample_blowup(
        c["f"], 2.0, [2, 3, 4])),
    "pressure_commutator": ("rho", lambda c: pressure.pressure_commutator(
        c["f"], c["law"], c["ker"])),
    "commutator_rate": ("rho", lambda c: pressure.commutator_rate(
        c["f"], c["law"], 2, [0.2, 0.1])),
    "holder_remainder_bound": (
        "rho", lambda c: pressure.holder_remainder_bound(
            c["f"], c["law"], c["ker"])),
    "energy_commutators": ("rho", lambda c: commutators.energy_commutators(
        c["f"], c["u"], c["law"], c["ker"], c["phi"])),
    "R_S_terms": ("rho", lambda c: commutators.R_S_terms(
        c["f"], c["u"], c["law"], c["ker"], c["phi"], 0.5)),
    "divmeasure_pressure_term": (
        "rho", lambda c: commutators.divmeasure_pressure_term(
            c["f"], c["u"], c["law"], c["approx"], c["ker"], c["phi"])),
    "mollified_energy_balance": (
        "rho", lambda c: energy.mollified_energy_balance(
            c["f"], c["u"], c["law"], c["ker"], c["phi"])),
    "energy_density": ("rho", lambda c: energy.energy_density(
        c["f"], c["u"], c["law"])),
    "energy_flux": ("rho", lambda c: energy.energy_flux(
        c["f"], c["u"], c["law"])),
    "local_energy_residual": (
        "rho", lambda c: energy.local_energy_residual(
            c["f"], c["u"], c["law"], c["phi"])),
}


class TestRequireNonnegative:
    """One check owns non-negative input fields: every entry point that
    takes a density or a weight w >= 0 rejects a signed one through it."""

    def test_negativity_error_is_a_value_error(self):
        assert issubclass(NegativityError, ValueError)
        f = constant_field(GridSpec(1, (8, 8), (1.0, 1.0)), -1e-300)
        with pytest.raises(ValueError, match=r"^w must be non-negative$"):
            grids.require_nonnegative(f, "w")
        grids.require_nonnegative(constant_field(f.grid, -0.0), "w")

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_entry_point_rejects_signed_field(self, signed_case, entry):
        name, call = _ENTRY_POINTS[entry]
        with pytest.raises(NegativityError,
                           match=rf"^{name} must be non-negative$"):
            call(signed_case)

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_entry_point_rejects_before_convolving(self, signed_case, entry,
                                                   monkeypatch):
        def refuse(*args):
            raise AssertionError("a signed field was convolved")

        for engine in ("_fft_convolve", "_direct_convolve"):
            monkeypatch.setattr(grids, engine, refuse)
        name, call = _ENTRY_POINTS[entry]
        with pytest.raises(NegativityError,
                           match=rf"^{name} must be non-negative$"):
            call(signed_case)
