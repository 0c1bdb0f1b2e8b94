import numpy as np
import pytest

from vacuumlab.grids import Field, GridSpec, integrate
from vacuumlab import testfn
from vacuumlab.testfn import (
    _bump,
    _bump_prime,
    boundary_cutoff,
    smoothstep,
    smoothstep_prime,
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

    def test_rejects_theta_with_a_y_factor(self):
        # the interval cutoff would drop Theta's y factor
        theta = spacetime_bump((0.5, 0.5, 0.5), (0.3, 0.3, 0.3))
        with pytest.raises(ValueError):
            boundary_cutoff(0.1, theta)
        boundary_cutoff(0.1, spacetime_bump((0.5, 0.5), (0.3, 0.3)))

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


# ---------------------------------------------------------------------------
# Oracle: the hand-written closures that each kind carried before test
# functions became per-axis factors, kept verbatim.  Each returns the
# (phi, dt, grad) closures of one kind.
# ---------------------------------------------------------------------------

def _oracle_spacetime_bump(center, radius):
    center = tuple(float(c) for c in center)
    radius = tuple(float(r) for r in radius)

    def phi(*coords):
        out = 1.0
        for z, c, r in zip(coords, center, radius):
            out = out * _bump((z - c) / r)
        return out

    def dt(*coords):
        t, c0, r0 = coords[0], center[0], radius[0]
        out = _bump_prime((t - c0) / r0) / r0
        for z, c, r in zip(coords[1:], center[1:], radius[1:]):
            out = out * _bump((z - c) / r)
        return out

    def grad(*coords):
        parts = []
        for a in range(1, len(coords)):
            out = _bump((coords[0] - center[0]) / radius[0])
            for b in range(1, len(coords)):
                z, c, r = coords[b], center[b], radius[b]
                if b == a:
                    out = out * _bump_prime((z - c) / r) / r
                else:
                    out = out * _bump((z - c) / r)
            parts.append(out)
        return parts

    return phi, dt, grad


def _oracle_time_bump(center, radius):

    def phi(*coords):
        return _bump((coords[0] - center) / radius)

    def dt(*coords):
        return _bump_prime((coords[0] - center) / radius) / radius

    def grad(*coords):
        return [np.zeros_like(coords[0]) for _ in coords[1:]]

    return phi, dt, grad


def _oracle_time_window(t1, t2, nu):

    def phi(*coords):
        t = coords[0]
        up = smoothstep((t - t1 - nu) / nu)
        down = smoothstep((t2 - nu - t) / nu)
        return up * down

    def dt(*coords):
        t = coords[0]
        up = smoothstep((t - t1 - nu) / nu)
        down = smoothstep((t2 - nu - t) / nu)
        dup = smoothstep_prime((t - t1 - nu) / nu) / nu
        ddown = -smoothstep_prime((t2 - nu - t) / nu) / nu
        return dup * down + up * ddown

    def grad(*coords):
        return [np.zeros_like(coords[0]) for _ in coords[1:]]

    return phi, dt, grad


def _oracle_boundary_cutoff(delta, theta):
    theta_phi, theta_dt, _ = theta

    def chi(s):
        return smoothstep(np.asarray(s, float) - 1.0)

    def chi_prime(s):
        return smoothstep_prime(np.asarray(s, float) - 1.0)

    def phi(*coords):
        t, x = coords[0], coords[1]
        d = np.minimum(x, 1.0 - x)
        return chi(d / delta) * theta_phi(t, x)

    def dt(*coords):
        t, x = coords[0], coords[1]
        d = np.minimum(x, 1.0 - x)
        return chi(d / delta) * theta_dt(t, x)

    def grad(*coords):
        t, x = coords[0], coords[1]
        d = np.minimum(x, 1.0 - x)
        dprime = np.where(x < 0.5, 1.0, -1.0)
        return [chi_prime(d / delta) * dprime / delta * theta_phi(t, x)]

    return phi, dt, grad


def _oracle_cutoff_product_rule(delta, theta):
    """The cutoff oracle with chi * d_x Theta added to its gradient.

    The closure above drops that term, which vanishes only for a Theta
    that is constant in space.
    """
    phi, dt, grad = _oracle_boundary_cutoff(delta, theta)

    def full_grad(t, x):
        chi = smoothstep(np.minimum(x, 1.0 - x) / delta - 1.0)
        return [grad(t, x)[0] + chi * theta[2](t, x)[0]]

    return phi, dt, full_grad


def _oracle_pairs(d):
    """(factor form, oracle closures, ulp slack of phi and dt) per kind.

    The slack is 0 (bitwise equal, signed zeros included) except for the
    cutoff of a space-time Theta: the oracle takes chi * (Theta_t Theta_x)
    and the factors Theta_t * (Theta_x chi), which may round differently.
    """
    bump_args = ((0.5,) + (0.45,) * d, (0.35,) + (0.3,) * d)
    pairs = [(spacetime_bump(*bump_args), _oracle_spacetime_bump(*bump_args), 0),
             (time_bump(0.5, 0.3), _oracle_time_bump(0.5, 0.3), 0),
             (time_window(0.1, 0.9, 0.1), _oracle_time_window(0.1, 0.9, 0.1), 0)]
    if d == 1:
        for tf, oracle, _ in pairs[:]:
            pairs.append((boundary_cutoff(0.1, tf),
                          _oracle_cutoff_product_rule(0.1, oracle),
                          2 if tf.kind == "bump" else 0))
    return pairs


def _same(got, want, ulps):
    """Equal values and signs; within ``ulps`` relative rounding if > 0."""
    got, want = np.broadcast_arrays(np.asarray(got, float), np.asarray(want, float))
    slack = ulps * np.finfo(float).eps * np.abs(want)
    return (np.all(np.abs(got - want) <= slack)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _close_grad(got, want):
    got, want = np.broadcast_arrays(np.stack(np.broadcast_arrays(*got)),
                                    np.stack(np.broadcast_arrays(*want)))
    return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestFactorOracle:
    """The factor product against the hand-written closures it replaced."""

    @pytest.mark.parametrize("grid", [GRID_1D, GRID_2D], ids=["1d", "2d"])
    def test_grid_evaluation(self, grid):
        mesh = np.meshgrid(*[grid.axis_coords(a) for a in range(len(grid.shape))],
                           indexing="ij", sparse=True)
        for tf, (phi, dt, grad), ulps in _oracle_pairs(grid.spatial_dim):
            assert _same(tf.phi(grid).values[..., 0], phi(*mesh), ulps), tf.kind
            assert _same(tf.dt(grid).values[..., 0], dt(*mesh), ulps), tf.kind
            got = tf.grad(grid).values
            assert got.shape == grid.shape + (grid.spatial_dim,)
            assert _close_grad(np.moveaxis(got, -1, 0), grad(*mesh)), tf.kind

    @pytest.mark.parametrize("d", [1, 2])
    def test_point_evaluation(self, d):
        rng = np.random.default_rng(7)
        coords = list(rng.uniform(-0.1, 1.1, size=(1 + d, 500)))
        coords[0][:3] = 0.5  # the peak and the plateaus
        for tf, (phi, dt, grad), ulps in _oracle_pairs(d):
            assert _same(tf._phi(*coords), phi(*coords), ulps), tf.kind
            assert _same(tf._dt(*coords), dt(*coords), ulps), tf.kind
            assert _close_grad(tf._grad(*coords), grad(*coords)), tf.kind

    def test_oracle_values_are_nontrivial(self):
        # guards the comparisons above against all-zero or all-one arrays
        mesh = GRID_1D.meshgrid()
        for _, (phi, dt, grad), _ in _oracle_pairs(1):
            assert 0.0 < np.max(np.abs(phi(*mesh))) and np.any(phi(*mesh) < 1.0)
            assert np.max(np.abs(dt(*mesh))) > 0.0

    def test_constant_axes_have_zero_gradient(self):
        for tf in (time_bump(0.5, 0.3), time_window(0.1, 0.9, 0.1)):
            g = tf.grad(GRID_2D).values
            assert g.shape == GRID_2D.shape + (2,)
            assert np.all(g == 0.0), tf.kind

    def test_cutoff_of_spacetime_theta_matches_finite_difference(self):
        tf = boundary_cutoff(0.05, spacetime_bump((0.5, 0.4), (0.3, 0.3)))
        t = np.full(4, 0.55)
        x = np.array([0.12, 0.14, 0.3, 0.6])
        assert np.allclose(tf._grad(t, x)[0], fd_space_derivative(tf, t, x),
                           rtol=1e-5, atol=1e-8)


class TestSupport:
    """``support`` is the bounding box of phi's nonzero nodes on a grid."""

    @pytest.mark.parametrize("tf", [
        spacetime_bump((0.5, 0.5), (0.35, 0.35)),
        spacetime_bump((0.3, 0.05), (0.2, 0.1)),
        time_bump(0.4, 0.2),
        time_window(0.1, 0.9, 0.05),
        boundary_cutoff(0.1, spacetime_bump((0.5, 0.5), (0.3, 0.45))),
    ], ids=["bump", "bump-at-edge", "time-bump", "time-window", "cutoff"])
    def test_matches_nonzero_nodes(self, small_grid, tf):
        nonzero = tf.phi(small_grid).values[..., 0] != 0.0
        want = []
        for axis in range(2):
            idx = np.flatnonzero(nonzero.any(axis=1 - axis))
            want.append((int(idx[0]), int(idx[-1]) + 1))
        assert tf.support(small_grid) == tuple(want)

    def test_constant_factor_spans_its_axis(self):
        g = GridSpec(2, (16, 20, 24), (1.0, 1.0, 1.0))
        lo, hi = time_bump(0.5, 0.25).support(g)[0]
        assert time_bump(0.5, 0.25).support(g) == ((lo, hi), (0, 20), (0, 24))

    def test_support_on_a_subgrid_is_cut_from_the_root(self, small_grid):
        tf = spacetime_bump((0.5, 0.5), (0.2, 0.2))
        sub = small_grid.subgrid(((10, 55), (15, 60)))
        (t0, t1), (x0, x1) = tf.support(small_grid)
        assert tf.support(sub) == ((t0 - 10, t1 - 10), (x0 - 15, x1 - 15))
        cut = tf.phi(small_grid).values[10:55, 15:60]
        assert tf.phi(sub).values.tobytes() == cut.tobytes()

    def test_vanishing_phi_has_no_support(self, small_grid):
        assert spacetime_bump((0.5, 0.5), (0.2, 1e-4)).support(small_grid) is None


class TestPair:
    """``pair`` is int sum_j values_j d_{axes[j]} phi, on a grid or a box."""

    def test_derivatives_of_a_bump_integrate_to_zero(self):
        # the midpoint sums of an odd derivative of a centred bump cancel
        g = GridSpec(1, (200, 160), (1.0, 1.0))
        tf = spacetime_bump((0.5, 0.5), (0.3, 0.3))
        for axis in (0, 1):
            assert abs(tf.pair(np.ones(g.shape + (1,)), g, (axis,))) < 1e-12
        assert tf.pair(np.ones(g.shape + (1,)), g, (None,)) > 0.1

    @pytest.mark.parametrize("grid", [GridSpec(1, (150, 96), (1.0, 1.0)),
                                      GridSpec(2, (70, 24, 20), (1.0,) * 3)],
                             ids=["1d", "2d"])
    def test_matches_the_whole_grid_oracle(self, grid):
        # rows past PAIR_ROWS, a shrunk time sub-grid, one and several
        # components: the same bits as the filled phi, dt and grad
        sub = grid.time_subgrid(3, grid.shape[0] - 3)
        rng = np.random.default_rng(5)
        d = grid.spatial_dim
        for tf in _kinds(grid):
            E = rng.standard_normal(sub.shape + (1,))
            F = rng.standard_normal(sub.shape + (d,))
            Ef, Ff = Field(sub, E), Field(sub, F)
            want = (integrate(tf.phi(sub) * Ef), integrate(tf.dt(sub) * Ef),
                    integrate(tf.grad(sub).dot(Ff)))
            got = (tf.pair(E.copy(), sub, (None,)),
                   tf.pair(E.copy(), sub, (0,)),
                   tf.pair(F.copy(), sub, range(1, 1 + d)))
            assert [v.hex() for v in got] == [v.hex() for v in want], tf.kind

    @pytest.mark.parametrize("grid", [GridSpec(1, (150, 96), (1.0, 1.0)),
                                      GridSpec(2, (70, 24, 20), (1.0,) * 3)],
                             ids=["1d", "2d"])
    def test_each_factor_is_evaluated_once_per_call(self, grid):
        # three PAIR_ROWS blocks in 1-D, two in 2-D, and every component
        # of phi, d_t phi and grad phi: each axis factor and each
        # derivative is evaluated at most once per call
        n = len(grid.shape)
        base = spacetime_bump((0.5,) * n, (0.3,) * n)
        calls = []

        def counted(axis, which, fn):
            return lambda z: calls.append((axis, which)) or fn(z)

        tf = testfn.TestFunction(base.kind, base.params, tuple(
            (counted(a, "value", f), counted(a, "deriv", df))
            for a, (f, df) in enumerate(base.factors)))
        axes = (None,) + tuple(range(len(grid.shape)))
        values = np.random.default_rng(3).standard_normal(
            grid.shape + (len(axes),))
        got = tf.pair(values.copy(), grid, axes)
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) == 2 * len(grid.shape)
        assert got.hex() == base.pair(values.copy(), grid, axes).hex()

    def test_box_pairing_equals_the_whole_grid_pairing(self, small_grid):
        tf = spacetime_bump((0.5, 0.5), (0.2, 0.3))
        box = ((10, 50), (5, 60))
        cut = tuple(slice(lo, hi) for lo, hi in box)
        values = np.zeros(small_grid.shape + (2,))
        values[cut] = np.random.default_rng(2).standard_normal(
            values[cut].shape)
        boxed = tf.pair(values[cut].copy(), small_grid.subgrid(box), (0, 1))
        whole = tf.pair(values, small_grid, (0, 1))
        assert boxed == pytest.approx(whole, rel=1e-13, abs=1e-16)
        assert abs(whole) > 1e-3

    @pytest.mark.parametrize("components", [1, 2])
    def test_sum_does_not_depend_on_the_layout(self, components):
        # ``np.array`` of a time broadcast keeps the stride-0 axis
        # innermost, so its copy is not C-ordered; the pairing sums the
        # weighed values in C order all the same, with the bits of the
        # C-ordered copy
        g = GridSpec(1, (64, 128), (1.0, 1.0))
        tf = spacetime_bump((0.5, 0.5), (0.3, 0.3))
        axes = (None, 1)[:components]
        rng = np.random.default_rng(components)
        first = rng.standard_normal((1,) + g.shape[1:] + (components,))
        broadcast = np.broadcast_to(first, g.shape + (components,))
        copied = np.array(broadcast)
        assert not copied.flags.c_contiguous
        want = tf.pair(np.array(broadcast, order="C"), g, axes)
        assert tf.pair(copied, g, axes).hex() == want.hex()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_raise(self, small_grid, bad):
        tf = spacetime_bump((0.5, 0.5), (0.3, 0.3))
        values = np.ones(small_grid.shape + (1,))
        values[30, 30, 0] = bad
        with pytest.raises(ValueError, match="not finite"):
            tf.pair(values, small_grid, (None,))

    def test_overflowing_sum_raises(self, small_grid):
        tf = time_bump(0.5, 0.4)
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                        match="not finite"):
            tf.pair(np.full(small_grid.shape + (1,), 1e308), small_grid,
                    (None,))
