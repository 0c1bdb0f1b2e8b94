import numpy as np
import pytest
from conftest import force_branch

from vacuumlab.energy import (
    EnergyBudget,
    energy_density,
    energy_flux,
    global_energy_balance_bounded,
    local_energy_residual,
    mollified_energy_balance,
    ns_energy_residual,
    weak_pairing,
)
from vacuumlab.commutators import energy_commutators
from vacuumlab.grids import (
    Field,
    GridSpec,
    constant_field,
    from_function,
    make_mollifier,
    mollify,
)
from vacuumlab.synth import riemann_solution, shock_states, simple_wave
from vacuumlab.testfn import spacetime_bump

DELTAS = [0.1, 0.05, 0.025, 0.0125, 0.00625]
NUS = [0.1, 0.05, 0.025]


def acoustic_pair(grid, law, amp=0.02, drift=0.0):
    """Linear standing wave; exact energy constant up to O(amp^3)."""
    c = float(law.sound_speed(1.0))
    B = amp / c
    om = 2.0 * np.pi * c
    rho = from_function(grid, lambda t, x:
                        1.0 + B * np.cos(2 * np.pi * x) * np.cos(om * t))
    u = from_function(grid, lambda t, x:
                      amp * np.sin(2 * np.pi * x) * np.sin(om * t)
                      + drift * (2.0 * x - 1.0))
    return rho, u


class TestDensityAndFlux:
    def test_energy_density_formula(self, law, small_grid, smooth_pair):
        rho, u = smooth_pair
        E = energy_density(rho, u, law)
        expect = (0.5 * rho.values[..., 0] * u.values[..., 0] ** 2
                  + law.potential(rho.values[..., 0]))
        assert np.allclose(E.values[..., 0], expect, atol=1e-14)

    def test_energy_flux_formula(self, law, smooth_pair):
        rho, u = smooth_pair
        F = energy_flux(rho, u, law)
        scalar = (0.5 * rho.values[..., 0] * u.values[..., 0] ** 2
                  + law.p(rho.values[..., 0])
                  + law.potential(rho.values[..., 0]))
        assert np.allclose(F.values[..., 0], scalar * u.values[..., 0],
                           atol=1e-14)

    def test_weak_pairing_of_time_constant_energy(self, law, small_grid):
        # E constant, F zero: both pairings integrate a derivative of a
        # compactly supported bump, so the result vanishes
        E = constant_field(small_grid, 1.0)
        F = constant_field(small_grid, 0.0)
        phi = spacetime_bump((0.5, 0.5), (0.3, 0.3))
        assert weak_pairing(E, F, phi) == pytest.approx(0.0, abs=1e-10)


class TestBudget:
    def test_rows_sorted_by_epsilon(self):
        b = EnergyBudget(residuals=[("a", 0.1, 1.0), ("b", 0.05, 2.0)])
        assert [r[1] for r in b.residuals] == [0.05, 0.1]
        assert b.as_dict()["identity_gap"] == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EnergyBudget(residuals=[("a", 0.1, np.inf)])
        with pytest.raises(ValueError):
            EnergyBudget(residuals=[], identity_gap=np.nan)


class TestLocalResidual:
    def test_constant_state_is_exact(self, law, small_grid):
        rho = constant_field(small_grid, 1.0)
        u = constant_field(small_grid, 0.3)
        phi = spacetime_bump((0.5, 0.5), (0.3, 0.3))
        assert abs(local_energy_residual(rho, u, law, phi)) < 1e-12

    def test_smooth_wave_residual_converges_to_zero(self, law):
        res = []
        for n in (128, 256):
            g = GridSpec(1, (n, n), (0.05, 1.0))
            rho, u = simple_wave(law, 0.2, g)
            phi = spacetime_bump((0.025, 0.5), (0.02, 0.3))
            res.append(abs(local_energy_residual(rho, u, law, phi)))
        assert res[1] < res[0]

    def test_shock_residual_is_negative(self, law):
        spec = shock_states(law, 0.5, 1.0, family=1)
        g = GridSpec(1, (256, 512), (0.1, 1.0))
        rho, u, D = riemann_solution(spec, g)
        phi = spacetime_bump((0.05, 0.5), (0.04, 0.2))
        res = local_energy_residual(rho, u, law, phi)
        assert D < 0
        assert res < 0

    def test_grid_mismatch(self, law, small_grid):
        rho = constant_field(small_grid, 1.0)
        u = constant_field(GridSpec(1, (32, 32), (1.0, 1.0)), 0.0)
        with pytest.raises(ValueError):
            local_energy_residual(rho, u, law,
                                  spacetime_bump((0.5, 0.5), (0.3, 0.3)))


class TestMollifiedBalance:
    def test_identity_gap_small_for_exact_solution(self, law):
        # the balance is an identity only along solutions of the flow
        # equations, so an exact smooth wave must close it to quadrature
        g = GridSpec(1, (256, 256), (0.2, 1.0))
        rho, u = simple_wave(law, 0.05, g)
        phi = spacetime_bump((0.1, 0.5), (0.05, 0.3))
        ker = make_mollifier(0.02, 2, g)
        budget = mollified_energy_balance(rho, u, law, ker, phi)
        assert budget.identity_gap < 1e-8
        assert set(budget.extras["terms"]) == {"r1", "r2", "r3", "s"}

    def test_shared_mollification_is_bitwise_equal(self, law, monkeypatch):
        # the balance before it shared its mollified fields with the
        # commutators: three mollify calls, then energy_commutators.  Only
        # the direct branch gives a boxed result equal to the whole one
        # cut down bit for bit
        force_branch(monkeypatch, "direct")
        g = GridSpec(1, (256, 256), (0.2, 1.0))
        rho, u = simple_wave(law, 0.1, g)
        phi = spacetime_bump((0.1, 0.5), (0.05, 0.3))
        ker = make_mollifier(0.02, 2, g)
        rho_e, u_e, m_e = (mollify(rho, ker), mollify(u, ker),
                           mollify(rho * u, ker))
        kinetic = 0.5 * rho_e.values[..., 0] * np.sum(u_e.values ** 2, axis=-1)
        E_m = Field(rho_e.grid, kinetic + law.potential(
            np.maximum(rho_e.values[..., 0], 0.0)))
        ke_flux = 0.5 * np.sum(u_e.values ** 2, axis=-1)[..., None] * m_e.values
        dP = law.dpotential(np.maximum(rho_e.values, 0.0))
        F_m = Field(rho_e.grid, ke_flux + rho_e.values * dP * u_e.values)
        lhs = weak_pairing(E_m, F_m, phi)
        terms = energy_commutators(rho, u, law, ker, phi).term_values
        rhs = float(sum(terms.values()))

        budget = mollified_energy_balance(rho, u, law, ker, phi)
        assert budget.residuals == [(phi.kind, ker.epsilon, lhs)]
        assert budget.identity_gap == abs(lhs - rhs)
        assert budget.extras == {"lhs": lhs, "rhs": rhs, "terms": terms}

    def test_non_solution_fields_leave_a_gap(self, law):
        g = GridSpec(1, (256, 256), (0.2, 1.0))
        rho = from_function(g, lambda t, x: 1.0 + 0.3 * np.sin(2 * np.pi * x)
                            * np.cos(2 * np.pi * t))
        u = from_function(g, lambda t, x: 0.2 * np.cos(2 * np.pi * (x - t)))
        phi = spacetime_bump((0.1, 0.5), (0.05, 0.3))
        ker = make_mollifier(0.02, 2, g)
        budget = mollified_energy_balance(rho, u, law, ker, phi)
        assert budget.identity_gap > 1e-5


class TestNsResidual:
    def test_dissipation_nonnegative_and_scaling(self, law, small_grid):
        rho = constant_field(small_grid, 1.0)
        u = from_function(small_grid, lambda t, x: 0.05 * np.sin(2 * np.pi * x))
        phi = spacetime_bump((0.5, 0.5), (0.35, 0.35))
        plain = ns_energy_residual(rho, u, law, 1.0, 0.5, False, phi)
        degen = ns_energy_residual(rho, u, law, 1.0, 0.5, True, phi)
        assert plain["dissipation"] >= 0.0
        # unit density makes the weighted stress coincide with the plain one
        assert degen["dissipation"] == pytest.approx(plain["dissipation"],
                                                     rel=1e-12)
        assert plain["residual"] == pytest.approx(
            plain["euler_part"] + plain["viscous_work"] + plain["dissipation"])

    def test_viscosity_validation(self, law, small_grid):
        rho = constant_field(small_grid, 1.0)
        u = constant_field(small_grid, 0.0)
        with pytest.raises(ValueError):
            ns_energy_residual(rho, u, law, 0.0, 0.5, False,
                               spacetime_bump((0.5, 0.5), (0.3, 0.3)))


class TestBoundedDomainBalance:
    def test_acoustic_wave_conserves_energy(self, law):
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        rho, u = acoustic_pair(g, law)
        rep = global_energy_balance_bounded(rho, u, law, DELTAS, NUS,
                                            t1=0.2, t2=0.8)
        assert not rep["boundary_violation"]
        assert rep["boundary_slope"] > 0.8
        assert rep["energy_gap"] < 1e-8
        assert rep["slice_stability"] < 1e-9

    def test_outflow_field_plateaus_and_reports_violation(self, law):
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        rho, u = acoustic_pair(g, law, drift=0.1)
        rep = global_energy_balance_bounded(rho, u, law, DELTAS, NUS,
                                            t1=0.2, t2=0.8)
        assert rep["boundary_violation"]
        assert rep["boundary_plateau"] > 0.01
        assert rep["boundary_slope"] < 0.3

    def test_ladder_validation(self, law):
        g = GridSpec(1, (64, 64), (1.0, 1.0))
        rho, u = acoustic_pair(g, law)
        with pytest.raises(ValueError):
            global_energy_balance_bounded(rho, u, law, [], NUS, 0.2, 0.8)
