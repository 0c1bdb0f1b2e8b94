import functools
import itertools

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from vacuumlab import synth

from vacuumlab.errors import AdmissibilityError, BlowupTimeError, ResolutionError
from vacuumlab.grids import GridSpec, ddt, dspace, from_function, lp_norm
from vacuumlab.pressure import PressureLaw
from vacuumlab.synth import (
    RiemannSpec,
    WeierstrassSpec,
    ns_stress,
    riemann_solution,
    shock_dissipation,
    shock_states,
    simple_wave,
    solve_middle_state,
    stress_apply,
    stress_contract_grad,
    vacuum_profile,
    weierstrass_field,
)


WGRID = GridSpec(1, (512, 512), (1.0, 1.0))


class TestWeierstrass:
    def test_deterministic_under_seed(self):
        spec = WeierstrassSpec(alpha=0.5, levels=8, seed=7)
        a = weierstrass_field(spec, WGRID)
        b = weierstrass_field(spec, WGRID)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_field(self):
        a = weierstrass_field(WeierstrassSpec(alpha=0.5, levels=8, seed=7), WGRID)
        b = weierstrass_field(WeierstrassSpec(alpha=0.5, levels=8, seed=8), WGRID)
        assert not np.allclose(a.values, b.values)

    def test_floor_is_minimum(self):
        f = weierstrass_field(WeierstrassSpec(alpha=0.5, levels=8, seed=1),
                              WGRID, floor=0.25)
        assert float(f.values.min()) == pytest.approx(0.25, abs=1e-14)

    def test_nyquist_guard(self, small_grid):
        with pytest.raises(ResolutionError):
            weierstrass_field(WeierstrassSpec(alpha=0.5, levels=12, seed=0),
                              small_grid)
        # one short spatial axis is enough to trip the guard
        with pytest.raises(ResolutionError, match="axis size 64"):
            weierstrass_field(WeierstrassSpec(alpha=0.5, levels=8, seed=0),
                              GridSpec(2, (512, 512, 64), (1.0, 1.0, 1.0)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WeierstrassSpec(alpha=1.5)
        with pytest.raises(ValueError):
            WeierstrassSpec(alpha=0.5, levels=4)

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("grid,stride", [
        (GridSpec(1, (520, 530), (1.0, 2.0)), 1),
        (GridSpec(2, (260, 264, 272), (0.5, 1.0, 2.0), t0=0.25), 3),
    ], ids=["1d", "2d"])
    def test_matches_direct_cosine_sum(self, grid, stride, seed):
        spec = WeierstrassSpec(alpha=0.4, levels=8, seed=seed)
        w = weierstrass_field(spec, grid, floor=0.1).values[..., 0]
        want = direct_cosine_sum(spec, grid, stride)
        # equal up to the constant shift that puts the minimum at the floor
        gap = w[(slice(None, None, stride),) * w.ndim] - want
        assert np.ptp(gap) <= 1e-13 * np.max(np.abs(w))
        if stride == 1:
            assert gap.mean() == pytest.approx(0.1 - want.min(), abs=1e-13)


def direct_cosine_sum(spec, grid, stride):
    """Oracle: the unshifted lacunary sum, one cosine per level over every
    ``stride``-th node of each axis, with the same draws in the same order."""
    rng = np.random.default_rng(spec.seed)
    d = grid.spatial_dim
    coords = np.meshgrid(*[grid.axis_coords(a)[::stride]
                           for a in range(1 + d)], indexing="ij")
    t = coords[0] / grid.extents[0]
    xs = [coords[1 + a] / grid.extents[1 + a] for a in range(d)]
    total = np.zeros(t.shape)
    for j in range(spec.levels):
        mag = spec.base_frequency * 2 ** j
        theta = rng.uniform(0.0, 2.0 * np.pi)
        if d == 1:
            ks = [mag if rng.random() < 0.5 else -mag]
        else:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            ks = [int(round(mag * np.cos(angle))), int(round(mag * np.sin(angle)))]
            if ks == [0, 0]:
                ks = [mag, 0]
        phase = mag * rng.uniform(-1.0, 1.0) * t
        for k, x in zip(ks, xs):
            phase = phase + k * x
        total += 2.0 ** (-spec.alpha * j) * np.cos(2.0 * np.pi * phase + theta)
    return total


class TestVacuumProfiles:
    def test_power_profile_touches_zero(self, small_grid):
        rho = vacuum_profile("power", 0.5, small_grid)
        assert float(rho.values.min()) <= small_grid.spacings[1] ** 0.5
        assert float(rho.values.max()) <= 0.5 ** 0.5 + 1e-12

    def test_sine_power_zeros_at_origin(self, small_grid):
        rho = vacuum_profile("sine-power", 2.0, small_grid)
        x = small_grid.axis_coords(1)
        expect = np.abs(np.sin(np.pi * x)) ** 2
        assert np.allclose(rho.values[0, :, 0], expect)

    def test_validation(self, small_grid):
        with pytest.raises(ValueError):
            vacuum_profile("power", -1.0, small_grid)
        with pytest.raises(ValueError):
            vacuum_profile("cubic", 1.0, small_grid)


class TestExactSolutions:
    def test_simple_wave_zero_amplitude_is_constant(self, law):
        g = GridSpec(1, (64, 128), (0.1, 1.0))
        rho, u = simple_wave(law, 0.0, g)
        assert np.allclose(rho.values, 1.0)
        assert np.allclose(u.values, 0.0)

    def test_simple_wave_solves_mass_equation(self, law):
        # finite-difference residual of d_t rho + d_x (rho u) shrinks with h
        res = []
        for n in (128, 256):
            g = GridSpec(1, (n, n), (0.05, 1.0))
            rho, u = simple_wave(law, 0.2, g)
            m = rho * u
            drop = (n - ddt(rho).grid.shape[0]) // 2
            r = (ddt(rho).values[..., 0]
                 + dspace(m, 1).values[drop:n - drop, :, 0])
            res.append(float(np.max(np.abs(r))))
        assert res[1] < res[0] / 2.5

    @pytest.mark.parametrize("amplitude,u0", [(0.2, 0.0), (0.4, -0.3)])
    def test_simple_wave_matches_general_newton_step(self, amplitude, u0):
        # the Newton step before it used u' + c' = (gamma+1)/2 * c/rho
        law = PressureLaw(gamma=1.4, kappa=0.7)
        g = GridSpec(1, (96, 128), (0.1, 1.0))
        L, gm = g.extents[1], law.gamma

        def c(r):
            return law.sound_speed(r)

        def u_of_rho(r):
            return u0 + 2.0 * (c(r) - c(1.0)) / (gm - 1.0)

        def rho_init(x0):
            return 1.0 + amplitude * np.sin(2.0 * np.pi * x0 / L)

        tt, xx = g.meshgrid()
        x0 = xx.copy()
        for _ in range(60):
            r = rho_init(x0)
            f = x0 + (u_of_rho(r) + c(r)) * tt - xx
            dl = 2.0 * np.pi * amplitude / L * np.cos(2.0 * np.pi * x0 / L)
            dspeed = (np.sqrt(law.dp(r)) / r + 0.5 * law.kappa * gm
                      * (gm - 1) * r ** (gm - 2) / np.sqrt(law.dp(r)))
            step = f / (1.0 + dspeed * dl * tt)
            x0 = x0 - step
            if np.max(np.abs(step)) < 1e-14 * L:
                break
        rho_old = rho_init(x0)

        rho, u = simple_wave(law, amplitude, g, u0=u0)
        assert np.max(np.abs(rho.values[..., 0] - rho_old)) <= 1e-13
        assert np.max(np.abs(u.values[..., 0] - u_of_rho(rho_old))) <= 1e-13

    @pytest.mark.parametrize("block_rows", [None, 1, 7])
    @pytest.mark.parametrize("shape", [(256, 256), (1024, 1024),
                                       (1000, 1000), (999, 1000)])
    def test_simple_wave_blocks_equal_one_sweep_bitwise(self, law, shape,
                                                        block_rows,
                                                        monkeypatch):
        # blocks of 1 and 7 rows: every block count is odd on some grid,
        # and 7 rows leave a partial last block on all four
        if block_rows is not None:
            monkeypatch.setattr(synth, "_NEWTON_BLOCK_BYTES",
                                block_rows * shape[1] * 8)
        g = GridSpec(1, shape, (0.2, 1.0))
        rho, u = simple_wave(law, 0.1, g, u0=0.3)
        want = _one_sweep_simple_wave(law, 0.1, shape, 0.3)
        for got, old in zip((rho, u), want):
            assert got.values[..., 0].tobytes() == old.tobytes()

    @pytest.mark.parametrize("gamma", [1.05, 1.4, 1.95])
    def test_simple_wave_blocks_equal_one_sweep_for_any_gamma(self, gamma,
                                                              monkeypatch):
        # c(rho)'s exponent (gamma - 1) / 2 across (0, 0.5)
        monkeypatch.setattr(synth, "_NEWTON_BLOCK_BYTES", 5 * 128 * 8)
        law = PressureLaw(gamma=gamma, kappa=0.7)
        g = GridSpec(1, (64, 128), (0.1, 1.0))
        rho, u = simple_wave(law, 0.2, g)
        want = _one_sweep_simple_wave(law, 0.2, g.shape, 0.0, T=0.1)
        for got, old in zip((rho, u), want):
            assert got.values[..., 0].tobytes() == old.tobytes()

    def test_simple_wave_blowup_guard(self, law):
        g = GridSpec(1, (64, 128), (10.0, 1.0))
        with pytest.raises(BlowupTimeError):
            simple_wave(law, 0.5, g)

    @pytest.mark.parametrize("gamma,kappa,amplitude,rho0,u0,L", [
        (5.0 / 3.0, 1.0, 0.05, 1.0, 0.0, 1.0),
        (1.05, 2.5, 0.5, 1.0, 0.3, 2.0),
        (1.4, 0.7, 0.9, 1.0, -0.2, 1.0),
        (1.95, 1.0, 0.3, 0.5, 0.0, 0.5),
    ])
    def test_simple_wave_guard_is_the_crossing_time(self, gamma, kappa,
                                                    amplitude, rho0, u0, L):
        # the grid may end just before the characteristics cross, not after
        law = PressureLaw(gamma=gamma, kappa=kappa)
        t_star = _crossing_time(law, amplitude, rho0, u0, L)
        g = GridSpec(1, (8, 8), (t_star * (1 - 1e-9), L))
        simple_wave(law, amplitude, g, rho0=rho0, u0=u0)
        g = GridSpec(1, (8, 8), (t_star * (1 + 1e-9), L))
        with pytest.raises(BlowupTimeError):
            simple_wave(law, amplitude, g, rho0=rho0, u0=u0)


def _crossing_time(law, amplitude, rho0, u0, L):
    """Oracle for 1 / max(-d lambda / d x0), lambda = u + c of the initial
    data: a complex-step derivative sampled at 4096 feet, and a bounded
    scalar minimization around the steepest sample."""
    g, h = law.gamma, 1e-30

    def c(r):
        return np.sqrt(law.kappa * g) * r ** (0.5 * (g - 1.0))

    def dlam(x0):
        r = rho0 + amplitude * np.sin(2.0 * np.pi * (x0 + 1j * h) / L)
        lam = u0 + 2.0 * (c(r) - c(rho0)) / (g - 1.0) + c(r)
        return lam.imag / h

    xs = np.arange(4096) * (L / 4096)
    i = int(np.argmin(dlam(xs)))
    best = minimize_scalar(dlam, bounds=(xs[i] - L / 4096, xs[i] + L / 4096),
                           method="bounded", options={"xatol": 1e-13})
    return 1.0 / -min(best.fun, dlam(xs[i]))


@functools.lru_cache(maxsize=None)
def _one_sweep_simple_wave(law, amplitude, shape, u0, T=0.2):
    """(rho, u) of ``simple_wave`` on ``GridSpec(1, shape, (T, 1))`` as it
    ran its Newton iteration before it was blocked: over all nodes at
    once, with new temporaries for every operation."""
    g = GridSpec(1, shape, (T, 1.0))
    L, gm, rho0 = g.extents[1], law.gamma, 1.0

    def c(r):
        return law.sound_speed(r)

    def u_of_rho(r):
        return u0 + 2.0 * (c(r) - c(rho0)) / (gm - 1.0)

    tt = g.axis_coords(0)[:, None]
    xx = g.axis_coords(1)[None, :]
    x0 = np.broadcast_to(xx, g.shape).copy()
    k = 2.0 * np.pi / L
    c_scale = np.sqrt(law.kappa * gm)
    lam0 = u0 - 2.0 * c(rho0) / (gm - 1.0)
    for _ in range(60):
        angle = k * x0
        r = rho0 + amplitude * np.sin(angle)
        cr = c_scale * r ** (0.5 * (gm - 1.0))
        f = x0 + (lam0 + (gm + 1.0) / (gm - 1.0) * cr) * tt - xx
        jac = 1.0 + 0.5 * (gm + 1.0) * cr / r * (k * amplitude
                                                 * np.cos(angle)) * tt
        step = f / jac
        x0 -= step
        if np.max(np.abs(step)) < 1e-14 * L:
            break
    rho = rho0 + amplitude * np.sin(2.0 * np.pi * x0 / L)
    return rho, u_of_rho(rho)


class TestRiemann:
    def test_shock_states_satisfy_lax(self, law):
        spec = shock_states(law, 0.5, 1.0, family=1)
        sigma = (spec.rho_l * spec.u_l - spec.rho_r * spec.u_r) / (spec.rho_l - spec.rho_r)
        cl = law.sound_speed(spec.rho_l)
        cr = law.sound_speed(spec.rho_r)
        assert spec.u_l - cl > sigma > spec.u_r - cr

    def test_shock_states_wrong_ordering(self, law):
        with pytest.raises(AdmissibilityError):
            shock_states(law, 1.0, 0.5, family=1)
        with pytest.raises(AdmissibilityError):
            shock_states(law, 0.5, 1.0, family=2)

    def test_shock_dissipation_sign(self, law):
        spec = shock_states(law, 0.5, 1.0, family=1)
        D = shock_dissipation(law, spec.rho_l, spec.u_l, spec.rho_r, spec.u_r)
        assert D < 0
        assert shock_dissipation(law, 1.0, 0.3, 1.0, 0.3) == 0.0

    def test_middle_state_of_colliding_states(self, law):
        spec = RiemannSpec(1.0, 0.4, 1.0, -0.4, law)
        rho_m = solve_middle_state(spec)
        assert rho_m > 1.0

    @pytest.mark.parametrize("gamma", [1.05, 1.4, 5.0 / 3.0, 1.95])
    def test_middle_state_matches_brentq(self, gamma):
        # the package's bisection against scipy's brentq on the same
        # bracket, over shocks, rarefactions and one of each
        law = PressureLaw(gamma=gamma)
        for rho_l, u_l, rho_r in itertools.product((0.5, 1.0, 2.0),
                                                   (-0.3, 0.4), (0.25, 1.5)):
            spec = RiemannSpec(rho_l, u_l, rho_r, 0.2 - 0.1 * rho_l, law)

            def eq(rho_m):
                return (spec.u_l - synth._wave_fn(law, rho_m, spec.rho_l)
                        - (spec.u_r + synth._wave_fn(law, rho_m, spec.rho_r)))

            hi = max(rho_l, rho_r)
            while eq(hi) > 0:
                hi *= 2.0
            ref = brentq(eq, 1e-10, hi, xtol=1e-14, rtol=8.9e-16)
            assert solve_middle_state(spec) == pytest.approx(ref, rel=1e-14)

    def test_vacuum_opening_detected(self, law):
        spec = RiemannSpec(1.0, -10.0, 1.0, 10.0, law)
        with pytest.raises(AdmissibilityError):
            solve_middle_state(spec)

    def test_single_shock_sampling(self, law):
        spec = shock_states(law, 0.5, 1.0, family=1)
        g = GridSpec(1, (128, 256), (0.1, 1.0))
        rho, u, D = riemann_solution(spec, g)
        assert D == pytest.approx(
            shock_dissipation(law, spec.rho_l, spec.u_l, spec.rho_r, spec.u_r))
        # far field matches the prescribed states
        assert rho.values[0, 0] == pytest.approx(spec.rho_l)
        assert rho.values[0, -1] == pytest.approx(spec.rho_r)
        assert u.values[0, 0] == pytest.approx(spec.u_l)

    def test_double_rarefaction_has_no_dissipation(self, law):
        spec = RiemannSpec(1.0, 0.1, 1.0, 0.3, law)
        g = GridSpec(1, (64, 256), (0.1, 1.0))
        _, _, D = riemann_solution(spec, g)
        assert D == 0.0

    def test_positive_density_required(self, law):
        with pytest.raises(ValueError):
            RiemannSpec(0.0, 0.0, 1.0, 0.0, law)


class TestViscousStress:
    def test_1d_stress_formula(self):
        g = GridSpec(1, (16, 256), (1.0, 1.0))
        u = from_function(g, lambda t, x: np.sin(2 * np.pi * x))
        mu, nu = 0.7, 0.2
        S = ns_stress(u, mu, nu)
        ux = dspace(u, 1).values[..., 0]
        expect = (4.0 / 3.0 * mu + nu) * ux
        assert np.allclose(S.values[..., 0], expect, atol=1e-10)

    def test_contract_grad_matches_product(self):
        g = GridSpec(1, (16, 256), (1.0, 1.0))
        u = from_function(g, lambda t, x: np.sin(2 * np.pi * x))
        S = ns_stress(u, 1.0, 0.5)
        diss = stress_contract_grad(S, u)
        ux = dspace(u, 1).values[..., 0]
        assert np.allclose(diss.values[..., 0], S.values[..., 0] * ux, atol=1e-12)
        assert float(diss.values.min()) >= -1e-12

    def test_stress_apply(self):
        g = GridSpec(1, (16, 64), (1.0, 1.0))
        u = from_function(g, lambda t, x: np.sin(2 * np.pi * x))
        S = ns_stress(u, 1.0, 0.0)
        Su = stress_apply(S, u)
        assert np.allclose(Su.values[..., 0],
                           S.values[..., 0] * u.values[..., 0], atol=1e-12)

    def test_negative_viscosity_rejected(self):
        g = GridSpec(1, (16, 64), (1.0, 1.0))
        u = from_function(g, lambda t, x: 0.0 * x)
        with pytest.raises(ValueError):
            ns_stress(u, -1.0, 0.0)
