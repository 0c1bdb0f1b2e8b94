import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sp_integrate

from vacuumlab.cli import Check
from vacuumlab.errors import NegativityError
from vacuumlab.grids import Field, GridSpec, constant_field, from_function, lp_norm, make_mollifier
from vacuumlab.pressure import (
    C2Approximant,
    PressureLaw,
    commutator_rate,
    holder_remainder_bound,
    make_c2_approximant,
    pressure_commutator,
)
from vacuumlab.synth import WeierstrassSpec, weierstrass_field


def sampled_gap(law, approx, rho_max=10.0, n=20001):
    """Dense-sample estimate of sup |p - p_delta| on [0, rho_max]."""
    s = np.linspace(0.0, rho_max, n)
    return float(np.max(np.abs(law.p(s) - approx.p(s))))


def potential_quadrature(law, rho):
    """Independent oracle: P(rho) = rho * int_1^rho p(r)/r^2 dr."""
    val, _ = sp_integrate.quad(lambda r: law.p(r) / r ** 2, 1.0, rho)
    return rho * val


class TestPressureLaw:
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 0.5, 3.0])
    def test_rejects_gamma_outside_open_interval(self, gamma):
        with pytest.raises(ValueError):
            PressureLaw(gamma=gamma)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            PressureLaw(gamma=1.4, kappa=0.0)

    @pytest.mark.parametrize("rho", [0.1, 0.5, 1.0, 2.5])
    def test_potential_matches_quadrature(self, rho):
        law = PressureLaw(gamma=1.4, kappa=2.0)
        assert law.potential(rho) == pytest.approx(
            potential_quadrature(law, rho), rel=1e-10)

    def test_potential_normalization(self, law):
        assert law.potential(1.0) == pytest.approx(0.0, abs=1e-14)
        assert law.potential(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_dpotential_is_derivative(self, law):
        h = 1e-6
        for rho in (0.3, 1.0, 2.0):
            fd = (law.potential(rho + h) - law.potential(rho - h)) / (2 * h)
            assert law.dpotential(rho) == pytest.approx(fd, rel=1e-7)

    def test_sound_speed_squared_is_dp(self, law):
        rho = np.array([0.2, 1.0, 3.0])
        assert np.allclose(law.sound_speed(rho) ** 2, law.dp(rho), rtol=1e-13)

    def test_dp_vanishes_at_vacuum(self, law):
        assert law.dp(0.0) == 0.0


def _law_methods():
    law = PressureLaw(gamma=1.4, kappa=2.0)
    approx = make_c2_approximant(law, 1e-3)
    return ([(law, name) for name in ("p", "dp", "potential", "dpotential")]
            + [(approx, name) for name in ("p", "dp", "potential")])


class TestExtensionBelowZero:
    """Each law extends below 0 by its value at 0, bit for bit."""

    @pytest.mark.parametrize("owner,name", _law_methods(),
                             ids=lambda v: v if isinstance(v, str)
                             else type(v).__name__)
    @pytest.mark.parametrize("rho", [-1e-17, -0.0, -1.0])
    def test_reads_as_zero(self, owner, name, rho):
        fn = getattr(owner, name)
        at_zero = float(fn(0.0)).hex()
        assert float(fn(rho)).hex() == at_zero
        assert [float(v).hex() for v in fn(np.array([rho, 0.0]))] == [at_zero] * 2


class TestScalarsTakeTheArrayPath:
    # numpy's scalar power and its array loop can differ in the last bit
    @pytest.mark.parametrize("owner,name", _law_methods(),
                             ids=lambda v: v if isinstance(v, str)
                             else type(v).__name__)
    def test_scalar_equals_array_sample(self, owner, name):
        fn = getattr(owner, name)
        samples = np.random.default_rng(7).uniform(0.0, 3.0, 200)
        from_array = fn(samples)
        for s, a in zip(samples, from_array):
            assert float(fn(float(s))).hex() == float(a).hex()


def bisected_cut(law, delta):
    """Oracle for the cut: bisect c on a sampled sup over [0, c] of
    p - T_c, with T_c the second-order Taylor polynomial of p at c."""
    g, k = law.gamma, law.kappa

    def gap(c):
        h = np.linspace(0.0, c, 257) / c - 1.0
        taylor = k * c ** g * (1.0 + g * h + 0.5 * g * (g - 1.0) * h ** 2)
        return float(np.max(law.p(c * (1.0 + h)) - taylor))

    lo, hi = 0.0, 1.0
    while gap(hi) <= delta:
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if gap(mid) > delta:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestC2Approximant:
    # gamma stays 0.01 from the ends of (1, 2): p_delta(0) sums terms of
    # size kappa rho_c**gamma that cancel to (gamma-1)(2-gamma)/2 of that,
    # so the gap's relative rounding error grows like 2/((gamma-1)(2-gamma))
    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(1.01, 1.99), kappa=st.floats(0.1, 10.0),
           delta=st.floats(1e-8, 0.1))
    def test_cut_is_closed_form(self, gamma, kappa, delta):
        law = PressureLaw(gamma, kappa)
        approx = make_c2_approximant(law, delta)
        gap0 = float(law.p(0.0) - approx.p(0.0))
        assert gap0 == pytest.approx(delta, rel=1e-12)
        assert sampled_gap(law, approx) <= delta * (1 + 1e-6)
        assert approx.rho_c == pytest.approx(bisected_cut(law, delta),
                                             rel=1e-9)

    def test_cut_is_derived_not_stored(self, law):
        assert [f.name for f in dataclasses.fields(C2Approximant)] \
            == ["delta", "base"]
        assert (make_c2_approximant(law, 1e-2).rho_c
                > make_c2_approximant(law, 1e-3).rho_c)

    def test_uniform_gap_within_budget(self, law):
        for delta in (1e-2, 1e-4):
            approx = make_c2_approximant(law, delta)
            assert sampled_gap(law, approx) <= delta * (1 + 1e-6)

    def test_matches_law_above_cut(self, law):
        approx = make_c2_approximant(law, 1e-3)
        rho = np.linspace(approx.rho_c, 5.0, 101)
        assert np.allclose(approx.p(rho), law.p(rho), rtol=1e-14)
        assert np.allclose(approx.dp(rho), law.dp(rho), rtol=1e-14)

    def test_c2_junction(self, law):
        approx = make_c2_approximant(law, 1e-3)
        rc, h = approx.rho_c, 1e-8
        for f in (approx.p, approx.dp):
            assert f(rc - h) == pytest.approx(float(f(rc + h)), rel=1e-5)
        # p_delta'' from either side: dp is linear below the cut
        below = (approx.dp(rc - h) - approx.dp(rc - 2 * h)) / h
        above = (approx.dp(rc + 2 * h) - approx.dp(rc + h)) / h
        assert below == pytest.approx(above, rel=1e-3)

    def test_second_derivative_bounded_at_vacuum(self, law):
        approx = make_c2_approximant(law, 1e-3)
        # dp is linear below the cut, so p_delta'' is one finite slope
        rc = approx.rho_c
        near = (approx.dp(rc / 4) - approx.dp(0.0)) / (rc / 4)
        assert np.isfinite(near)
        assert near == pytest.approx((approx.dp(rc / 2) - approx.dp(0.0))
                                     / (rc / 2))
        with np.errstate(divide="ignore"):
            bare = (law.kappa * law.gamma * (law.gamma - 1)
                    * np.float64(0.0) ** (law.gamma - 2))
        assert not np.isfinite(bare)

    # delta = 0.2 puts the cut at 1.42, above the normalization point 1
    @pytest.mark.parametrize("rho,delta", [
        *(pytest.param(rho, 1e-2, id=str(rho))
          for rho in (0.01, 0.5, 1.0, 2.0)),
        *(pytest.param(rho, 0.2, id=f"{rho}-delta0.2")
          for rho in (0.01, 0.5, 1.0, 1.2, 2.0))])
    def test_potential_matches_quadrature(self, law, rho, delta):
        approx = make_c2_approximant(law, delta)
        rc = approx.rho_c
        inside = min(1.0, rho) < rc < max(1.0, rho)
        val, _ = sp_integrate.quad(lambda r: approx.p(r) / r ** 2, 1.0, rho,
                                   points=[rc] if inside else None)
        assert approx.potential(rho) == pytest.approx(rho * val, rel=1e-8)

    def test_rejects_nonpositive_delta(self, law):
        for delta in (0.0, -1e-3):
            with pytest.raises(ValueError, match="delta must be positive"):
                make_c2_approximant(law, delta)
            with pytest.raises(ValueError, match="delta must be positive"):
                C2Approximant(delta, law)


class TestPressureCommutator:
    def test_zero_for_constant_density(self, law, small_grid):
        rho = constant_field(small_grid, 0.7)
        ker = make_mollifier(0.1, 2, small_grid)
        comm = pressure_commutator(rho, law, ker)
        assert lp_norm(comm, np.inf) < 1e-13

    def test_negative_density_rejected(self, law, small_grid):
        rho = from_function(small_grid, lambda t, x: x - 0.5)
        ker = make_mollifier(0.1, 2, small_grid)
        with pytest.raises(NegativityError):
            pressure_commutator(rho, law, ker)

    def test_smooth_density_second_order(self, law):
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        rho = from_function(g, lambda t, x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
        fit = commutator_rate(rho, law, 2, [2.0 ** -k for k in range(3, 8)],
                              window=(0, 5))
        assert fit.exponent == pytest.approx(2.0, abs=0.15)

    def test_vacuum_touching_density_keeps_gamma_beta_rate(self, law):
        # density of shift regularity ~beta touching zero; expected
        # commutator decay exponent >= gamma * beta
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        beta = 0.5
        rho = weierstrass_field(WeierstrassSpec(alpha=beta, levels=8, seed=5), g)
        fit = commutator_rate(rho, law, 2, [2.0 ** -k for k in range(3, 8)],
                              window=(0, 5))
        assert fit.exponent >= law.gamma * beta * 0.9

    def test_rejects_q_below_one(self, law, small_grid):
        rho = constant_field(small_grid, 1.0)
        with pytest.raises(ValueError):
            commutator_rate(rho, law, 0.5, [0.1, 0.05, 0.025, 0.0125, 0.00625])


def _clipped_sine(grid):
    # FFT rounding leaves rho_e near -2e-16 next to the exact vacuum
    return from_function(grid, lambda t, x:
                         np.maximum(np.sin(2 * np.pi * x), 0.0) + 0.0 * t)


class TestVacuumRounding:
    """The law reads rho_e below 0 as vacuum, so no call site clamps it."""

    GRID = GridSpec(1, (512, 512), (1.0, 1.0))

    def test_pressure_commutator_finite(self, law):
        rho = _clipped_sine(self.GRID)
        ker = make_mollifier(2.0 ** -3, 2, self.GRID)
        comm = pressure_commutator(rho, law, ker)
        assert np.isfinite(lp_norm(comm, 2))

    def test_holder_remainder_is_a_number(self, law):
        rho = _clipped_sine(self.GRID)
        ker = make_mollifier(2.0 ** -3, 2, self.GRID)
        rep = holder_remainder_bound(rho, law, ker)
        assert np.isfinite(rep["worst_ratio"])
        assert Check("ratio", rep["worst_ratio"], "<=", rep["bound"]).passed


class TestHolderRemainder:
    def test_bound_holds_for_vacuum_touching_field(self, law):
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        rho = weierstrass_field(WeierstrassSpec(alpha=0.4, levels=8, seed=3), g)
        ker = make_mollifier(0.05, 2, g)
        rep = holder_remainder_bound(rho, law, ker)
        assert Check("ratio", rep["worst_ratio"], "<=", rep["bound"]).passed
        assert rep["bound"] == rep["constant"] * (1 + 1e-9)
