import numpy as np
import pytest

from vacuumlab import commutators, grids, vacuum
from vacuumlab.commutators import (
    CommutatorReport,
    R_S_terms,
    degenerate_viscosity_commutator,
    divmeasure_pressure_term,
    energy_commutators,
    mollified_mass_residual,
    pointwise_decomposition_check,
)
from vacuumlab.errors import VacuumSingularityError
from vacuumlab.grids import GridSpec, constant_field, from_function, make_mollifier
from vacuumlab.pressure import make_c2_approximant
from vacuumlab.synth import simple_wave
from vacuumlab.testfn import spacetime_bump

GRID = GridSpec(1, (256, 256), (1.0, 1.0))
PHI = spacetime_bump((0.5, 0.5), (0.35, 0.35))


def asym_pair(grid):
    """Smooth fields with no symmetry about the bump center."""
    rho = from_function(grid, lambda t, x: 1.0 + 0.3 * np.sin(2 * np.pi * x)
                        * np.cos(2 * np.pi * t) + 0.15 * np.cos(6 * np.pi * x))
    u = from_function(grid, lambda t, x: 0.2 * np.cos(2 * np.pi * (x - t))
                      + 0.1 * np.sin(4 * np.pi * x + 1.0))
    return rho, u


class TestReport:
    def test_total_and_finiteness(self):
        rep = CommutatorReport({"a": 1.0, "b": -2.0}, 0.1)
        assert rep.total() == pytest.approx(3.0)
        assert rep.total(["a"]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            CommutatorReport({"a": np.nan}, 0.1)


class TestPointwiseDecomposition:
    @pytest.mark.parametrize("seed", range(5))
    def test_identity_to_roundoff(self, seed):
        g = GridSpec(1, (48, 48), (1.0, 1.0))
        rng = np.random.default_rng(seed)
        tt, xx = g.meshgrid()
        f = from_function(g, lambda t, x: 0.0 * x)
        fv = rng.normal(size=g.shape)[..., None]
        gv = rng.normal(size=g.shape)[..., None]
        from vacuumlab.grids import Field
        fa = Field(g, fv)
        gb = Field(g, gv)
        ker = make_mollifier(0.12, 2, g)
        assert pointwise_decomposition_check(fa, gb, ker) < 1e-10

    def test_grid_mismatch(self):
        a = constant_field(GRID, 1.0)
        b = constant_field(GridSpec(1, (128, 128), (1.0, 1.0)), 1.0)
        with pytest.raises(ValueError):
            pointwise_decomposition_check(a, b, make_mollifier(0.1, 2, GRID))


class TestEnergyCommutators:
    def test_constant_fields_give_zero_terms(self, law):
        rho = constant_field(GRID, 1.0)
        u = constant_field(GRID, 0.3)
        rep = energy_commutators(rho, u, law, make_mollifier(0.05, 2, GRID), PHI)
        assert rep.total() < 1e-10

    def test_terms_decay_with_epsilon(self, law):
        rho, u = asym_pair(GRID)
        totals = []
        for eps in (0.08, 0.04):
            rep = energy_commutators(rho, u, law,
                                     make_mollifier(eps, 2, GRID), PHI)
            totals.append(rep.total())
        assert totals[0] / totals[1] > 2.5

    def test_negative_density_rejected(self, law):
        rho = from_function(GRID, lambda t, x: x - 0.5)
        u = constant_field(GRID, 0.0)
        with pytest.raises(VacuumSingularityError):
            energy_commutators(rho, u, law, make_mollifier(0.05, 2, GRID), PHI)

    @pytest.mark.parametrize("spatial_dim,eps,forward", [(1, 0.15, 6),
                                                         (2, 0.1, 11)])
    def test_kernel_transformed_once_per_call(self, law, monkeypatch,
                                              spatial_dim, eps, forward):
        # one forward FFT per field component plus one for the kernel;
        # both grids are large enough for the FFT branch
        if spatial_dim == 1:
            g = GridSpec(1, (256, 256), (1.0, 1.0))
            rho, u = asym_pair(g)
        else:
            g = GridSpec(2, (32, 128, 128), (1.0, 1.0, 1.0))
            rho = from_function(g, lambda t, x, y: 1.0 + 0.2 * np.sin(
                2 * np.pi * (x + t)) * np.cos(2 * np.pi * y))
            u = from_function(g, lambda t, x, y: (0.1 * np.cos(2 * np.pi * y),
                                                  0.1 * np.sin(2 * np.pi * x)),
                              components=2)
        ker = make_mollifier(eps, 1 + spatial_dim, g)
        phi = spacetime_bump((0.5,) * (1 + spatial_dim),
                             (0.3,) * (1 + spatial_dim))
        counts = {"rfftn": 0, "irfftn": 0}
        for name in counts:
            def counted(*args, _fn=getattr(np.fft, name), _name=name,
                        **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        energy_commutators(rho, u, law, ker, phi)
        assert counts == {"rfftn": forward, "irfftn": forward - 1}

    def test_component_mismatch(self, law):
        g = GridSpec(2, (16, 32, 32), (1.0, 1.0, 1.0))
        rho = constant_field(g, 1.0)
        u = constant_field(g, 0.1)   # scalar on a 2D grid
        with pytest.raises(ValueError):
            energy_commutators(rho, u, law, make_mollifier(0.2, 3, g), PHI)


class TestMassResidual:
    def test_exact_solution_residual_shrinks(self, law):
        res = []
        for n in (128, 256):
            g = GridSpec(1, (n, n), (0.05, 1.0))
            rho, u = simple_wave(law, 0.2, g)
            ker = make_mollifier(0.025, 1, g, include_time=False)
            res.append(mollified_mass_residual(rho, u, ker))
        assert res[1] < res[0] / 2.0

    def test_constant_state_residual_is_roundoff(self, law):
        rho = constant_field(GRID, 1.0)
        u = constant_field(GRID, 0.4)
        assert mollified_mass_residual(rho, u,
                                       make_mollifier(0.05, 2, GRID)) < 1e-11


class TestRSTerms:
    def test_structure_and_partition(self, law):
        rho = from_function(GRID, lambda t, x:
                            np.abs(np.sin(np.pi * x)) ** 1.5)
        u = from_function(GRID, lambda t, x: 0.3 * np.sin(2 * np.pi * x + 0.7))
        ker = make_mollifier(0.05, 2, GRID)
        rep = R_S_terms(rho, u, law, ker, PHI, beta=0.5)
        assert rep.term_values["S_A"] == 0.0
        assert np.isfinite(rep.term_values["R"])
        shrunk_volume = (rep.metadata["measure_A"] + rep.metadata["measure_B"]
                         + rep.metadata["measure_C"])
        # masks partition the shrunk domain, whose time extent lost 2 eps
        assert shrunk_volume == pytest.approx(1.0 - 2 * 0.05, rel=0.05)
        assert rep.term_values["S_B_gap"] == pytest.approx(
            rep.term_values["S_B"] - rep.term_values["S_B_leading"])

    def test_beta_validation(self, law):
        rho = constant_field(GRID, 1.0)
        u = constant_field(GRID, 0.0)
        ker = make_mollifier(0.05, 2, GRID)
        with pytest.raises(ValueError):
            R_S_terms(rho, u, law, ker, PHI, beta=1.5)

    def test_density_mollified_once(self, law, monkeypatch):
        # the vacuum sets reuse R_S_terms' rho_e, with the values of
        # vacuum sets that mollify rho themselves
        rho = from_function(GRID, lambda t, x:
                            np.abs(np.sin(np.pi * x)) ** 1.5)
        u = from_function(GRID, lambda t, x: 0.3 * np.sin(2 * np.pi * x + 0.7))
        ker = make_mollifier(0.05, 2, GRID)
        calls = []
        apply = grids.Mollification.__call__
        monkeypatch.setattr(grids.Mollification, "__call__",
                            lambda self, f: calls.append(f) or apply(self, f))
        rep = R_S_terms(rho, u, law, ker, PHI, beta=0.5)
        assert len(calls) == 4

        def own_rho_e(rho, kernel, beta, atol=None, rho_e=None):
            return vacuum.build_vacuum_sets(rho, kernel, beta, atol)

        monkeypatch.setattr(commutators, "build_vacuum_sets", own_rho_e)
        calls.clear()
        ref = R_S_terms(rho, u, law, ker, PHI, beta=0.5)
        assert len(calls) == 5
        assert rep.term_values == ref.term_values
        assert rep.metadata == ref.metadata


class TestDivMeasureTerm:
    def test_bounds_hold_for_vacuum_plateau_density(self, law):
        def base(t, x):
            ramp = np.clip((x - 0.8) / 0.05, 0.0, 1.0) \
                + np.clip((0.55 - x) / 0.05, 0.0, 1.0)
            return (0.5 + 0.4 * np.sin(2 * np.pi * x) ** 2) * np.minimum(ramp, 1.0)

        rho = from_function(GRID, base)
        u = from_function(GRID, lambda t, x: 0.4 * np.abs(x - 0.37) - 0.1
                          + 0.05 * np.sin(2 * np.pi * t))
        approx = make_c2_approximant(law, 1e-3)
        ker = make_mollifier(0.03, 2, GRID)
        rep = divmeasure_pressure_term(rho, u, law, approx, ker, PHI)
        assert rep["delta"] == pytest.approx(1e-3)
        assert rep["div_holds"] and rep["grad_holds"]
        assert rep["realized_gap"] <= rep["delta"] * (1 + 1e-9)


class TestDegenerateViscosity:
    def test_decays_with_epsilon(self):
        rho, u = asym_pair(GRID)
        vals = []
        for eps in (0.08, 0.04):
            vals.append(abs(degenerate_viscosity_commutator(
                rho, u, 1.0, 0.5, make_mollifier(eps, 2, GRID), PHI)))
        assert vals[0] / vals[1] > 2.0

    def test_viscosity_validation(self):
        rho, u = asym_pair(GRID)
        ker = make_mollifier(0.05, 2, GRID)
        with pytest.raises(ValueError):
            degenerate_viscosity_commutator(rho, u, 0.0, 0.5, ker, PHI)
