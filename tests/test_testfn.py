import numpy as np
import pytest

from vacuumlab.grids import GridSpec, integrate
from vacuumlab.testfn import (
    boundary_cutoff,
    smoothstep,
    spacetime_bump,
    time_bump,
    time_window,
)


def fd_time_derivative(tf, t, x, h=1e-6):
    return (tf._phi(t + h, x) - tf._phi(t - h, x)) / (2 * h)


def fd_space_derivative(tf, t, x, h=1e-6):
    return (tf._phi(t, x + h) - tf._phi(t, x - h)) / (2 * h)


class TestSmoothstep:
    def test_plateaus(self):
        s = np.array([-1.0, 0.0, 1.0, 2.0])
        assert np.allclose(smoothstep(s), [0.0, 0.0, 1.0, 1.0])

    def test_monotone(self):
        s = np.linspace(-0.5, 1.5, 401)
        assert np.all(np.diff(smoothstep(s)) >= 0)


class TestSpacetimeBump:
    def test_support_and_peak(self):
        tf = spacetime_bump((0.5, 0.5), (0.2, 0.3))
        t = np.array([0.5, 0.5, 0.1, 0.5])
        x = np.array([0.5, 0.95, 0.5, 0.0])
        vals = tf._phi(t, x)
        assert vals[0] == pytest.approx(1.0)
        assert np.all(vals[1:] == 0.0)

    def test_analytic_time_derivative(self):
        tf = spacetime_bump((0.5, 0.5), (0.2, 0.3))
        t = np.array([0.45, 0.55, 0.62])
        x = np.array([0.5, 0.4, 0.6])
        assert np.allclose(tf._dt(t, x), fd_time_derivative(tf, t, x),
                           rtol=1e-6, atol=1e-9)

    def test_analytic_space_derivative(self):
        tf = spacetime_bump((0.5, 0.5), (0.2, 0.3))
        t = np.array([0.45, 0.55])
        x = np.array([0.42, 0.65])
        assert np.allclose(tf._grad(t, x)[0], fd_space_derivative(tf, t, x),
                           rtol=1e-6, atol=1e-9)

    def test_field_interfaces(self, small_grid):
        tf = spacetime_bump((0.5, 0.5), (0.2, 0.3))
        assert tf.phi(small_grid).values.shape == small_grid.shape + (1,)
        assert tf.grad(small_grid).values.shape == small_grid.shape + (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            spacetime_bump((0.5,), (0.2, 0.3))
        with pytest.raises(ValueError):
            spacetime_bump((0.5, 0.5), (0.2, -0.1))


class TestTimeBump:
    def test_constant_in_space(self, small_grid):
        tf = time_bump(0.5, 0.2)
        vals = tf.phi(small_grid).values
        assert np.allclose(vals, vals[:, :1])
        assert np.all(tf.grad(small_grid).values == 0.0)


class TestTimeWindow:
    def test_plateau_values(self):
        tf = time_window(0.2, 0.8, 0.05)
        t = np.array([0.1, 0.24, 0.35, 0.5, 0.65, 0.76, 0.9])
        x = np.zeros_like(t)
        vals = tf._phi(t, x)
        assert vals[0] == 0.0 and vals[-1] == 0.0
        assert np.allclose(vals[2:5], 1.0)

    def test_edge_derivative_integrates_to_one(self):
        # the rising edge of the window carries unit total derivative
        tf = time_window(0.2, 0.8, 0.05)
        t = np.linspace(0.2, 0.35, 20001)
        x = np.zeros_like(t)
        total = np.trapezoid(tf._dt(t, x), t)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_requires_room_for_margins(self):
        with pytest.raises(ValueError):
            time_window(0.2, 0.3, 0.05)


class TestBoundaryCutoff:
    def test_zero_near_boundary_one_inside(self):
        theta = time_window(0.1, 0.9, 0.05)
        tf = boundary_cutoff(0.05, theta)
        t = np.full(4, 0.5)
        x = np.array([0.02, 0.98, 0.3, 0.5])
        vals = tf._phi(t, x)
        assert np.all(vals[:2] == 0.0)
        assert np.allclose(vals[2:], 1.0)

    def test_gradient_matches_finite_difference(self):
        theta = time_window(0.1, 0.9, 0.05)
        tf = boundary_cutoff(0.05, theta)
        t = np.full(3, 0.5)
        x = np.array([0.06, 0.08, 0.93])
        assert np.allclose(tf._grad(t, x)[0], fd_space_derivative(tf, t, x),
                           rtol=1e-5, atol=1e-8)

    def test_delta_validation(self):
        theta = time_window(0.1, 0.9, 0.05)
        for delta in (0.0, 0.3):
            with pytest.raises(ValueError):
                boundary_cutoff(delta, theta)

    def test_mass_of_gradient(self):
        # int |grad phi| dx over one boundary layer equals 1 (chi climbs 0 to 1)
        theta = time_window(0.1, 0.9, 0.05)
        tf = boundary_cutoff(0.05, theta)
        x = np.linspace(0.0, 0.5, 40001)
        t = np.full_like(x, 0.5)
        total = np.trapezoid(np.abs(tf._grad(t, x)[0]), x)
        assert total == pytest.approx(1.0, abs=1e-6)


GRID_1D = GridSpec(1, (48, 40), (1.0, 1.0))
GRID_2D = GridSpec(2, (24, 20, 28), (1.0, 1.0, 2.0))


def _kinds(grid):
    d = grid.spatial_dim
    kinds = [spacetime_bump((0.5,) + (0.45,) * d, (0.35,) + (0.3,) * d),
             time_bump(0.5, 0.3),
             time_window(0.1, 0.9, 0.1)]
    if d == 1:
        kinds.append(boundary_cutoff(0.1, time_window(0.1, 0.9, 0.1)))
    return kinds


class TestSeparableEvaluation:
    """phi/dt/grad on the open mesh agree with the closures on the full mesh."""

    @pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
    def test_matches_full_meshgrid(self, grid):
        mesh = grid.meshgrid()
        for tf in _kinds(grid):
            for name in ("phi", "dt"):
                got = getattr(tf, name)(grid).values[..., 0]
                want = np.broadcast_to(getattr(tf, "_" + name)(*mesh), grid.shape)
                scale = float(np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-14 * scale, (tf.kind, name)
            got = tf.grad(grid).values
            want = np.stack([np.broadcast_to(p, grid.shape)
                             for p in tf._grad(*mesh)], axis=-1)
            assert got.shape == grid.shape + (grid.spatial_dim,)
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-14 * scale, (tf.kind, "grad")

    def test_boundary_cutoff_is_nontrivial_on_grid(self):
        # guards the oracle above against comparing two all-zero arrays
        tf = _kinds(GRID_1D)[-1]
        assert np.max(np.abs(tf.grad(GRID_1D).values)) > 1.0
        assert np.max(np.abs(tf.dt(GRID_1D).values)) > 1.0
