import numpy as np
import pytest
from conftest import force_branch, hexed

from vacuumlab import commutators, grids, vacuum
from vacuumlab.cli import Check
from vacuumlab.commutators import (
    CommutatorReport,
    R_S_terms,
    degenerate_viscosity_commutator,
    divmeasure_pressure_term,
    energy_commutators,
    pointwise_decomposition_check,
)
from vacuumlab.errors import NegativityError
from vacuumlab.energy import mollified_energy_balance
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
    make_mollifier,
    mollify,
    restrict,
)
from vacuumlab.pressure import make_c2_approximant, pressure_commutator
from vacuumlab.testfn import spacetime_bump, time_bump

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

    def test_overflowing_product_raises(self):
        # f g is finite node by node, but f_e g_e and the products of
        # shifted differences overflow where the kernel sees both spikes
        g = GridSpec(1, (48, 48), (1.0, 1.0))
        x = np.arange(48)
        fv = np.broadcast_to(1.0 + 1e200 * (x == 20), g.shape)
        gv = np.broadcast_to(1.0 + 1e200 * (x == 21), g.shape)
        ker = make_mollifier(0.12, 2, g)
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            pointwise_decomposition_check(Field(g, fv), Field(g, gv), ker)

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
        with pytest.raises(NegativityError, match="rho must be non-negative"):
            energy_commutators(rho, u, law, make_mollifier(0.05, 2, GRID), PHI)

    @pytest.mark.parametrize("spatial_dim,eps,forward", [(1, 0.15, 6),
                                                         (2, 0.1, 11)])
    def test_kernel_transformed_once_per_call(self, law, monkeypatch,
                                              spatial_dim, eps, forward):
        # one forward transform per field component (one engine pass) plus
        # one for the kernel (its spectrum); both grids are large enough
        # for the FFT branch
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
        counts = {"_kernel_spectrum": 0, "_fft_convolve": 0}
        for name in counts:
            def counted(*args, _fn=getattr(grids, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(grids, name, counted)
        energy_commutators(rho, u, law, ker, phi)
        assert counts == {"_kernel_spectrum": 1, "_fft_convolve": forward - 1}

    def test_component_mismatch(self, law):
        g = GridSpec(2, (16, 32, 32), (1.0, 1.0, 1.0))
        rho = constant_field(g, 1.0)
        u = constant_field(g, 0.1)   # scalar on a 2D grid
        with pytest.raises(ValueError):
            energy_commutators(rho, u, law, make_mollifier(0.2, 3, g), PHI)


def outer(a, b):
    """The field a_i b_j, row-major, as one array."""
    grid, av, bv = grids.align(a, b)
    d = av.shape[-1]
    return Field._wrap(grid, (av[..., :, None] * bv[..., None, :]).reshape(
        grid.shape + (d * d,)))


def _oracle_tensor_divergence(T, grid, d):
    """div of a row-major d*d tensor field: out_i = sum_j d_j T_ij."""
    out = np.zeros(grid.shape + (d,))
    for i in range(d):
        for j in range(d):
            comp = Field(grid, T[..., i * d + j])
            out[..., i] += dspace(comp, 1 + j).values[..., 0]
    return Field(grid, out)


def _oracle_commutators(rho, law, phi, mollified):
    """The chained-Field formula of the four terms, kept as the oracle,
    with the pressure law applied to max(rho_e, 0)."""
    atol = vacuum.ATOL_FACTOR * max(float(rho.values.max()), 1.0)
    rho_e, u_e, m_e, mm_e, p_e = mollified
    d = u_e.components

    drift = ddt(rho_e * u_e - m_e)
    r1 = restrict(u_e, drift.grid).dot(drift)

    tens = outer(m_e, u_e) - mm_e
    r2 = u_e.dot(_oracle_tensor_divergence(tens.values, tens.grid, d))

    p_comm = rho_e.map(lambda r: law.p(np.maximum(r, 0.0))) - p_e
    r3 = u_e.dot(grad(p_comm))

    flux_div = div(rho_e * u_e - m_e)
    dP = law.dpotential(np.maximum(rho_e.values, 0.0))
    s_density = np.where(rho_e.values > atol, flux_div.values * dP, 0.0)
    s = Field(flux_div.grid, s_density)

    phi_f = phi.phi(rho_e.grid)
    densities = {"r1": r1, "r2": r2, "r3": r3, "s": s}
    return {name: integrate(dens * restrict(phi_f, dens.grid))
            for name, dens in densities.items()}


def _oracle_case(spatial_dim, density):
    if spatial_dim == 1:
        g = GridSpec(1, (96, 128), (1.0, 1.0))
    else:
        g = GridSpec(2, (32, 48, 40), (1.0, 1.0, 1.3))
    t, *xs = g.meshgrid()
    if density == "positive":
        rho = Field(g, 1.0 + 0.3 * np.sin(2 * np.pi * xs[0] + t)
                    * np.cos(2 * np.pi * t) + 0.2 * np.cos(2 * np.pi * xs[-1]))
    else:
        rho = Field(g, np.maximum(np.sin(2 * np.pi * xs[0]), 0.0)
                    * (1.0 + 0.3 * t))
    u = Field(g, np.stack([0.2 * np.cos(2 * np.pi * (x - t))
                           + 0.1 * np.sin(4 * np.pi * xs[0] + 1.0)
                           for x in xs], axis=-1))
    return g, rho, u


class TestArrayCommutatorsOracle:
    @pytest.mark.parametrize("method", ["direct", "fft"])
    @pytest.mark.parametrize("density", ["positive", "vacuum"])
    @pytest.mark.parametrize("spatial_dim", [1, 2])
    def test_matches_chained_field_formula(self, law, spatial_dim, density,
                                           method, monkeypatch):
        force_branch(monkeypatch, method)
        g, rho, u = _oracle_case(spatial_dim, density)
        ker = make_mollifier(0.12, 1 + spatial_dim, g)
        moll = Mollification(ker, g)
        mollified = [moll(rho), moll(u), moll(rho * u),
                     moll(outer(rho * u, u)),
                     moll(rho.map(law.p))]
        if density == "vacuum":
            # the vacuum-touching case must reach the exact-vacuum nodes
            assert float(mollified[0].values.min()) <= 0.0
        phi = spacetime_bump((0.5,) * (1 + spatial_dim),
                             (0.35,) * (1 + spatial_dim))
        want = _oracle_commutators(rho, law, phi, mollified)
        # no box: the rung's fields are those of ``moll``, on the whole
        # interior grid
        got, _ = commutators._energy_rung(rho, u, law, ker, phi)
        assert set(got.term_values) == set(want)
        for name, value in want.items():
            assert got.term_values[name] == pytest.approx(value, rel=1e-14,
                                                          abs=0.0), name

    def test_no_field_built_in_the_arithmetic(self, law, monkeypatch):
        g, rho, u = _oracle_case(2, "positive")
        ker = make_mollifier(0.12, 3, g)
        phi = spacetime_bump((0.5,) * 3, (0.35,) * 3)
        kept = Mollification(ker, g, box=commutators._pairing_box(
            phi, g, ker))._output_grid
        built = []
        init, wrap = Field.__init__, Field._wrap.__func__
        monkeypatch.setattr(Field, "__init__", lambda self, grid, values:
                            built.append(grid) or init(self, grid, values))
        monkeypatch.setattr(Field, "_wrap", classmethod(
            lambda cls, grid, values: built.append(grid) or wrap(cls, grid,
                                                                 values)))
        energy_commutators(rho, u, law, ker, phi)
        # the only fields are the mollified ones: u, rho u, the four
        # components of rho u (x) u one at a time, rho and p(rho); the
        # products and phi are taken as plain arrays, a few rows at a time
        assert built == [kept] * 8


def _unwindowed(rho, u, law, ker, phi):
    """The terms on the whole interior grid, with no box."""
    return commutators._energy_rung(rho, u, law, ker, phi)[0].term_values


class TestWindowedCommutators:
    """``energy_commutators`` mollifies and pairs only phi's support box."""

    # (spatial_dim, density, eps, phi, whether x is cut): both axes cut;
    # a bump near x = 0, whose widened box would wrap; a time bump, whose
    # constant spatial factor keeps x whole
    CASES = [
        (1, "positive", 0.12, spacetime_bump((0.5, 0.5), (0.35, 0.35)), True),
        (1, "vacuum", 0.12, spacetime_bump((0.5, 0.5), (0.35, 0.35)), True),
        (1, "positive", 0.12, spacetime_bump((0.5, 0.05), (0.3, 0.2)), False),
        (1, "vacuum", 0.12, time_bump(0.45, 0.3), False),
        (2, "positive", 0.12,
         spacetime_bump((0.5, 0.5, 0.6), (0.3, 0.3, 0.35)), True),
        (2, "vacuum", 0.12, time_bump(0.5, 0.3), False),
    ]
    IDS = ["1d-cut", "1d-cut-vacuum", "1d-wrap", "1d-time-bump", "2d-cut",
           "2d-time-bump"]

    @pytest.mark.parametrize("spatial_dim,density,eps,phi,cut_x", CASES,
                             ids=IDS)
    def test_direct_terms_equal_unwindowed_bitwise(self, law, spatial_dim,
                                                   density, eps, phi, cut_x,
                                                   monkeypatch):
        force_branch(monkeypatch, "direct")
        g, rho, u = _oracle_case(spatial_dim, density)
        ker = make_mollifier(eps, 1 + spatial_dim, g)
        box = commutators._pairing_box(phi, g, ker)
        moll = Mollification(ker, g, box=box)
        moll(u)
        assert moll._spectrum is None  # the direct branch
        assert (moll.input_grid.shape[1] < g.shape[1]) == cut_x
        assert moll.input_grid.shape[0] < g.shape[0]  # time is always cut
        got = energy_commutators(rho, u, law, ker, phi).term_values
        assert got == _unwindowed(rho, u, law, ker, phi)

    @pytest.mark.parametrize("phi,cut_x", [
        (spacetime_bump((0.5, 0.5), (0.3, 0.3)), True),
        (spacetime_bump((0.5, 0.05), (0.3, 0.2)), False),
        (time_bump(0.5, 0.3), False),
    ], ids=["cut", "wrap", "time-bump"])
    def test_fft_terms_match_unwindowed(self, law, phi, cut_x):
        g = GridSpec(1, (256, 256), (1.0, 1.0))
        rho, u = asym_pair(g)
        ker = make_mollifier(0.11, 2, g)  # 57 x 57 nodes: the FFT branch
        moll = Mollification(ker, g, box=commutators._pairing_box(phi, g, ker))
        moll(rho)
        assert moll._spectrum is not None
        assert (moll.input_grid.shape[1] < 256) == cut_x
        got = energy_commutators(rho, u, law, ker, phi).term_values
        want = _unwindowed(rho, u, law, ker, phi)
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=1e-13, abs=0.0), name

    def test_box_is_the_support_widened_by_the_stencil(self):
        g = GridSpec(1, (64, 64), (1.0, 1.0))
        phi = spacetime_bump((0.5, 0.5), (0.25, 0.25))
        assert phi.support(g) == ((16, 48), (16, 48))
        ker = make_mollifier(0.1, 2, g)
        assert commutators._pairing_box(phi, g, ker) == ((14, 50), (14, 50))
        edge = spacetime_bump((0.5, 0.02), (0.25, 0.05))
        assert commutators._pairing_box(edge, g, ker)[1] == (0, 6)

    def test_box_widens_by_the_stencil_reach(self):
        # one reach: the stencil's widest offset, the time trim of a
        # difference, and the widening of phi's box
        reach = grids.STENCIL_REACH
        assert reach == max(abs(off) for off in grids._STENCIL) == 2
        assert grids._central_diff(np.zeros((9, 4)), 0, 1.0)[1] == reach
        g = GridSpec(1, (64, 64), (1.0, 1.0))
        phi = spacetime_bump((0.5, 0.5), (0.25, 0.25))
        box = commutators._pairing_box(phi, g, make_mollifier(0.1, 2, g))
        assert box == tuple((lo - reach, hi + reach)
                            for lo, hi in phi.support(g))

    def test_phi_off_the_interior_gives_zero_terms(self, law):
        g, rho, u = _oracle_case(1, "positive")
        ker = make_mollifier(0.12, 2, g)  # interior rows [12, 84) of 96
        phi = spacetime_bump((0.04, 0.5), (0.04, 0.3))
        assert commutators._pairing_box(phi, g, ker) is None
        got = energy_commutators(rho, u, law, ker, phi).term_values
        assert got == {"r1": 0.0, "r2": 0.0, "r3": 0.0, "s": 0.0}

    @pytest.mark.parametrize("branch", ["direct", "fft"])
    def test_streamed_products_match_separate_products(self, law, branch,
                                                       monkeypatch):
        # the products the rung streams, formed from views of the read
        # box, against the formed products mollified as fields
        force_branch(monkeypatch, branch)
        g, rho, u = _oracle_case(2, "vacuum")
        ker = make_mollifier(0.12, 3, g)
        moll = Mollification(ker, g)
        r, v = moll.read(rho)[..., 0], moll.read(u)
        got = (moll.product(lambda rows, i: r[rows] * v[rows, ..., i], 2),
               moll.product(lambda rows, k: r[rows] * v[rows, ..., k // 2]
                            * v[rows, ..., k % 2], 4),
               moll.product(lambda rows, _: law.p(r[rows]), 1))
        want = (moll(rho * u), moll(outer(rho * u, u)), moll(rho.map(law.p)))
        for a, b in zip(got, want):
            assert a.grid == b.grid
            assert a.values.tobytes() == b.values.tobytes()


class _ClampedOldLaw:
    """The law as it was before it owned its extension below 0, frozen,
    applied to max(rho, 0): the form every call site that could see a
    mollified density used to write.  On a density >= 0 the clamp is the
    identity, so the sites that passed rho unclamped read the same."""

    def __init__(self, law):
        self.gamma, self.kappa = law.gamma, law.kappa

    def p(self, rho):
        return self.kappa * np.maximum(rho, 0.0) ** self.gamma

    def dp(self, rho):
        return self.kappa * self.gamma * np.maximum(rho, 0.0) ** (self.gamma - 1)

    def potential(self, rho):
        rho = np.maximum(rho, 0.0)
        return self.kappa * (rho ** self.gamma - rho) / (self.gamma - 1)

    def dpotential(self, rho):
        rho = np.maximum(rho, 0.0)
        return (self.kappa * (self.gamma * rho ** (self.gamma - 1) - 1)
                / (self.gamma - 1))


class TestVacuumPressure:
    """FFT rounding leaves rho_e near -2e-16 next to exact vacuum; the
    pressure law reads it as vacuum instead of giving NaN."""

    @pytest.fixture(scope="class")
    def case(self):
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        rho = from_function(g, lambda t, x:
                            np.maximum(np.sin(2 * np.pi * x), 0.0) + 0.0 * t)
        u = from_function(g, lambda t, x: 0.2 * np.cos(2 * np.pi * (x - t)))
        ker = make_mollifier(2.0 ** -3, 2, g)
        assert float(mollify(rho, ker).values.min()) < 0.0
        return rho, u, ker

    def test_energy_commutators_finite(self, law, case):
        rho, u, ker = case
        rep = energy_commutators(rho, u, law, ker, PHI)
        assert all(np.isfinite(v) for v in rep.term_values.values())

    def test_r_s_terms_finite(self, law, case):
        rho, u, ker = case
        rep = R_S_terms(rho, u, law, ker, PHI, beta=0.5)
        assert all(np.isfinite(v) for v in rep.term_values.values())

    @pytest.mark.parametrize("entry", [
        lambda rho, u, law, ker: pressure_commutator(rho, law, ker),
        lambda rho, u, law, ker: vars(energy_commutators(rho, u, law, ker,
                                                         PHI)),
        lambda rho, u, law, ker: vars(R_S_terms(rho, u, law, ker, PHI,
                                                beta=0.5)),
        lambda rho, u, law, ker: vars(mollified_energy_balance(rho, u, law,
                                                               ker, PHI)),
    ], ids=["pressure_commutator", "energy_commutators", "R_S_terms",
            "mollified_energy_balance"])
    def test_law_without_call_site_clamps_keeps_the_bits(self, law, case,
                                                         entry):
        rho, u, ker = case
        rho_e = mollify(rho, ker).values
        old = _ClampedOldLaw(law)
        for name in ("p", "dp", "potential", "dpotential"):
            assert (getattr(law, name)(rho_e).tobytes()
                    == getattr(old, name)(rho_e).tobytes()), name
        assert hexed(entry(rho, u, law, ker)) == hexed(entry(rho, u, old, ker))


class TestOverflow:
    """Values near 1e200 overflow in the products; every entry point must
    still raise ValueError rather than return a non-finite number."""

    @pytest.fixture(scope="class")
    def huge(self):
        g = GridSpec(1, (64, 64), (1.0, 1.0))
        rho = from_function(g, lambda t, x:
                            1e200 * (1.5 + np.sin(2 * np.pi * x)) + 0.0 * t)
        u = from_function(g, lambda t, x:
                          1e200 * np.cos(2 * np.pi * (x - t)))
        return rho, u, make_mollifier(0.1, 2, g)

    @pytest.mark.parametrize("call", [
        lambda rho, u, law, ker: energy_commutators(rho, u, law, ker, PHI),
        lambda rho, u, law, ker: mollified_energy_balance(rho, u, law, ker,
                                                          PHI),
        lambda rho, u, law, ker: R_S_terms(rho, u, law, ker, PHI, beta=0.5),
    ], ids=["energy_commutators", "mollified_energy_balance", "R_S_terms"])
    def test_raises_value_error(self, law, huge, call):
        rho, u, ker = huge
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            call(rho, u, law, ker)


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

        def own_rho_e(rho, kernel, beta, rho_e=None):
            return vacuum.build_vacuum_sets(rho, kernel, beta)

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
        assert Check("div", abs(rep["div_term"]), "<=", rep["div_bound"]).passed
        assert Check("grad", abs(rep["grad_term"]), "<=",
                     rep["grad_bound"]).passed
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
