import numpy as np
import pytest

from vacuumlab.cli import Check
from vacuumlab.grids import GridSpec, from_function, lp_norm, mollify, restrict
from vacuumlab.rates import (
    default_window,
    fit_rate,
    kernels_for_ladder,
    tv_divergence_estimate,
)

EPS_LADDER = [2.0 ** -k for k in range(3, 8)]


class TestFitRate:
    def test_recovers_exact_power_law(self):
        samples = [(e, 3.0 * e ** 1.5) for e in EPS_LADDER]
        fit = fit_rate(samples, window=(0, len(samples)))
        assert fit.exponent == pytest.approx(1.5, abs=1e-12)
        assert fit.constant == pytest.approx(3.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nondecreasing_ladder(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.1, 0.5), (0.05, 0.2)])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.05, -0.5), (0.025, 0.2), (0.0125, 0.1),
                      (0.00625, 0.05)])

    def test_floored_values_mark_degenerate(self):
        samples = [(e, 1e-16) for e in EPS_LADDER]
        fit = fit_rate(samples, window=(0, len(samples)))
        assert fit.degenerate
        assert fit.exponent == 0.0

    @pytest.mark.parametrize("n,expected", [(8, (2, 7)), (7, (2, 6)),
                                            (6, (2, 6)), (5, (1, 5)),
                                            (4, (0, 4))])
    def test_default_window(self, n, expected):
        assert default_window(n) == expected


class TestMollificationRates:
    def test_smooth_field_second_order(self):
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        f = from_function(g, lambda t, x: np.sin(2 * np.pi * x)
                          * np.cos(2 * np.pi * t))
        samples = []
        for ker in kernels_for_ladder(g, EPS_LADDER):
            fe = mollify(f, ker)
            samples.append((ker.epsilon,
                            lp_norm(fe - restrict(f, fe.grid), 2)))
        fit = fit_rate(samples, window=(0, len(EPS_LADDER)))
        assert fit.exponent == pytest.approx(2.0, abs=0.1)

    def test_ladder_validation(self, small_grid):
        with pytest.raises(ValueError):
            kernels_for_ladder(small_grid, [0.1, 0.05])
        with pytest.raises(ValueError):
            kernels_for_ladder(small_grid, [0.1, 0.2, 0.05, 0.025, 0.0125])


class TestTvDivergence:
    def test_smooth_velocity_stabilizes(self):
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        u = from_function(g, lambda t, x: np.sin(2 * np.pi * x))
        rep = tv_divergence_estimate(u, EPS_LADDER)
        assert Check("growth", rep["growth_exponent"], ">", -0.2).passed
        assert rep["sup"] == pytest.approx(4.0, rel=0.05)

    def test_requires_vector_components(self):
        g = GridSpec(2, (8, 32, 32), (1.0, 1.0, 1.0))
        u = from_function(g, lambda t, x, y: np.sin(2 * np.pi * x))
        with pytest.raises(ValueError):
            tv_divergence_estimate(u, [0.2, 0.15, 0.12, 0.11, 0.1])
