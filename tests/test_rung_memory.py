"""One energy-commutator rung, and one energy pairing, holds only the
arrays its numbers need.

The rung (``commutators._energy_rung``) reads rho and u in place, feeds
each product to the forward transform a block of time rows at a time,
mollifies each field just before its first term and drops it after its
last, and takes phi a few rows at a time.  The energy pairings build E
and F in fresh arrays, update them in place and multiply phi's
derivatives into them a few rows at a time.  The numbers must keep every
bit: they are compared, under ``float.hex``, with a frozen copy of the
earlier code, which copied the read box, formed every product whole and
up front, kept all five fields to the end, evaluated phi and its
derivatives on the whole grid or box, and formed every integrand from
fresh temporaries.
Both sides share ``Mollification``, whose engine ``test_grids`` checks
against ``rfftn``/``irfftn`` on its own, and the test function's
``phi``, ``dt`` and ``grad``, which ``test_testfn`` checks.
"""

import tracemalloc
from functools import reduce
from operator import iadd, imul, isub

import numpy as np
import pytest
from conftest import force_branch, hexed

from vacuumlab import commutators, energy, grids
from vacuumlab.cli import _BUDGET_EXTENTS
from vacuumlab.commutators import energy_commutators
from vacuumlab.energy import (
    global_energy_balance_bounded,
    local_energy_residual,
    mollified_energy_balance,
    ns_energy_residual,
)
from vacuumlab.grids import (
    Field,
    GridSpec,
    Mollification,
    from_function,
    integrate,
    make_mollifier,
)
from vacuumlab.pressure import PressureLaw
from vacuumlab.synth import (
    WeierstrassSpec,
    ns_stress,
    simple_wave,
    stress_apply,
    stress_contract_grad,
    vacuum_profile,
    weierstrass_field,
)
from vacuumlab.testfn import (
    boundary_cutoff,
    spacetime_bump,
    time_bump,
    time_window,
)
from vacuumlab.vacuum import vacuum_floor

LAW = PressureLaw(gamma=5.0 / 3.0)


# -- the frozen copy -----------------------------------------------------------

def frozen_potential(law, rho):
    rho = np.maximum(rho, 0.0)
    return law.kappa * (rho ** law.gamma - rho) / (law.gamma - 1)


def frozen_dpotential(law, rho):
    rho = np.maximum(rho, 0.0)
    return (law.kappa * (law.gamma * rho ** (law.gamma - 1) - 1)
            / (law.gamma - 1))


def frozen_weak_pairing(E, F, phi):
    grid = E.grid
    return -(integrate(phi.dt(grid) * E) + integrate(phi.grad(grid).dot(F)))


def frozen_energy_density(rho, u, law):
    kinetic = 0.5 * rho.values[..., 0] * np.sum(u.values ** 2, axis=-1)
    return Field(rho.grid, kinetic + frozen_potential(law, rho.values[..., 0]))


def frozen_energy_flux(rho, u, law):
    scalar = (0.5 * rho.values[..., 0] * np.sum(u.values ** 2, axis=-1)
              + law.p(rho.values[..., 0])
              + frozen_potential(law, rho.values[..., 0]))
    return Field(rho.grid, scalar[..., None] * u.values)


def frozen_local_energy_residual(rho, u, law, phi):
    return frozen_weak_pairing(frozen_energy_density(rho, u, law),
                               frozen_energy_flux(rho, u, law), phi)


def frozen_ns_energy_residual(rho, u, law, mu, nu, degenerate, phi):
    grid = rho.grid
    euler = frozen_local_energy_residual(rho, u, law, phi)
    S = ns_stress(u, mu, nu)
    if degenerate:
        S = Field(grid, rho.values * S.values)
    work = integrate(stress_apply(S, u).dot(phi.grad(grid)))
    dissipation = integrate(phi.phi(grid) * stress_contract_grad(S, u))
    return {"residual": euler + work + dissipation,
            "dissipation": dissipation, "euler_part": euler,
            "viscous_work": work}


def frozen_bounded_balance(rho, u, law, deltas, nus, t1, t2):
    """The numbers of ``global_energy_balance_bounded`` that its pairings
    and slice energies give."""
    grid = rho.grid
    E = frozen_energy_density(rho, u, law)
    F = frozen_energy_flux(rho, u, law)
    theta = time_window(t1, t2, min(nus))
    boundary = [abs(-integrate(boundary_cutoff(d, theta).grad(grid).dot(F)))
                for d in sorted(deltas, reverse=True)]
    window = [abs(-integrate(time_window(t1, t2, v).dt(grid) * E))
              for v in sorted(nus, reverse=True)]
    slice_E = (frozen_energy_density(rho, u, law).values[..., 0].sum(axis=1)
               * grid.spacings[1])
    t = grid.axis_coords(0)
    near = [np.argsort(np.abs(t - s))[:3] for s in (t1, t2)]
    return {"boundary": boundary, "window": window,
            "slice_stability": max(np.ptp(slice_E[n]) for n in near)}


def frozen_outer(a, b):
    d = a.shape[-1]
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (d * d,))


def frozen_mollify_energy_inputs(rho, u, law, kernel, box=None):
    grids.require_nonnegative(rho, "rho")
    moll = Mollification(kernel, rho.grid, box=box)
    rho, u = (Field._wrap(moll.input_grid, moll.read(f)) for f in (rho, u))
    m = rho * u
    m_e, mm_e = moll(m), moll(Field._wrap(m.grid, frozen_outer(m.values,
                                                             u.values)))
    del m
    rho_e, u_e = moll(rho), moll(u)
    p = rho.map(law.p)
    del rho, u
    return rho_e, u_e, m_e, mm_e, moll(p)


def frozen_commutators_from_mollified(rho, law, kernel, phi, mollified):
    atol = vacuum_floor(rho)
    grid = mollified[0].grid
    rho_e, u_e, m_e, mm_e, p_e = (f.values for f in mollified)
    d = u_e.shape[-1]
    nt = grid.shape[0]
    phi_v = phi.phi(grid).values[..., 0]
    support = phi.support(grid) or ((0, 0),) * len(grid.shape)
    space = tuple(slice(lo, hi) for lo, hi in support[1:])

    def diff(vals, axis):
        return grids._central_diff(vals, axis, grid.spacings[axis])[0]

    def pair(dens, trim=0):
        t0 = max(support[0][0], trim)
        t1 = max(min(support[0][1], nt - trim), t0)
        on_dens = (slice(t0 - trim, t1 - trim),) + space
        on_grid = (slice(t0, t1),) + space
        return float(imul(dens[on_dens], phi_v[on_grid]).sum()
                     * grid.cell_volume)

    def tensor(i, j):
        return isub(m_e[..., i] * u_e[..., j], mm_e[..., i * d + j])

    def r2_row(i):
        return imul(reduce(iadd, (diff(tensor(i, j), 1 + j)
                                  for j in range(d))), u_e[..., i])

    defect = isub(rho_e * u_e, m_e)
    dt_defect, trim = grids._central_diff(defect, 0, grid.dt)
    dt_defect *= u_e[trim:nt - trim]
    r1 = pair(dt_defect[..., 0] if d == 1 else dt_defect.sum(axis=-1), trim)
    r2 = pair(reduce(iadd, (r2_row(i) for i in range(d))))
    p_comm = isub(law.p(rho_e[..., 0]), p_e[..., 0])
    r3 = pair(reduce(iadd, (imul(diff(p_comm, 1 + j), u_e[..., j])
                            for j in range(d))))
    s_dens = reduce(iadd, (diff(defect[..., i], 1 + i) for i in range(d)))
    s_dens *= frozen_dpotential(law, rho_e[..., 0])
    np.copyto(s_dens, 0.0, where=rho_e[..., 0] <= atol)
    s = pair(s_dens)
    return {"r1": r1, "r2": r2, "r3": r3, "s": s}


def frozen_energy_commutators(rho, u, law, kernel, phi):
    box = commutators._pairing_box(phi, rho.grid, kernel)
    mollified = frozen_mollify_energy_inputs(rho, u, law, kernel, box)
    return frozen_commutators_from_mollified(rho, law, kernel, phi, mollified)


def frozen_balance(rho, u, law, kernel, phi):
    mollified = frozen_mollify_energy_inputs(rho, u, law, kernel)
    rho_e, u_e, m_e = mollified[:3]
    kinetic = 0.5 * rho_e.values[..., 0] * np.sum(u_e.values ** 2, axis=-1)
    E_m = Field(rho_e.grid,
                kinetic + frozen_potential(law, rho_e.values[..., 0]))
    ke_flux = 0.5 * np.sum(u_e.values ** 2, axis=-1)[..., None] * m_e.values
    dP = frozen_dpotential(law, rho_e.values)
    F_m = Field(rho_e.grid, ke_flux + rho_e.values * dP * u_e.values)
    lhs = frozen_weak_pairing(E_m, F_m, phi)
    terms = frozen_commutators_from_mollified(rho, law, kernel, phi,
                                              mollified)
    rhs = float(sum(terms.values()))
    return {"lhs": lhs, "rhs": rhs, "terms": terms, "gap": abs(lhs - rhs)}


# -- cases --------------------------------------------------------------------

def rung_case(spatial_dim, density):
    """rho, u and a kernel; a vacuum rho has exact zeros on a slab of x, a
    profile rho (``vacuum_profile``) is |x - x0|^1.5, 0 at the node x0."""
    shape = (96, 128) if spatial_dim == 1 else (40, 48, 40)
    g = GridSpec(spatial_dim, shape, (1.0,) * len(shape))
    t, *xs = g.meshgrid()
    if density == "positive":
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * xs[0] + t) * np.cos(2 * np.pi * t)
    elif density == "profile":
        x0 = float(g.axis_coords(1)[shape[1] // 3])
        rho = vacuum_profile("power", 1.5, g, x0=x0).values[..., 0]
    else:
        rho = np.maximum(np.sin(2 * np.pi * xs[0]), 0.0) * (1.0 + 0.3 * t)
    u = np.stack([0.2 * np.cos(2 * np.pi * (x - t))
                  + 0.1 * np.sin(4 * np.pi * xs[0] + 1.0) for x in xs], -1)
    ker = make_mollifier(0.12, 1 + spatial_dim, g)
    return Field(g, rho), Field(g, u), ker


PHIS = {
    "bump": lambda d: spacetime_bump((0.5,) * (1 + d), (0.35,) * (1 + d)),
    # a constant spatial factor: x stays whole and periodic on the box
    "time-bump": lambda d: time_bump(0.5, 0.3),
}


DENSITIES = ["positive", "vacuum", "profile"]


@pytest.mark.parametrize("method", ["auto", "fft"])
@pytest.mark.parametrize("phi", PHIS, ids=PHIS.keys())
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("spatial_dim", [1, 2])
class TestFrozenRung:
    """Bit for bit equal to the frozen copy, on either branch."""

    def setup_case(self, spatial_dim, density, method, monkeypatch):
        if method != "auto":
            force_branch(monkeypatch, method)
        rho, u, ker = rung_case(spatial_dim, density)
        if density != "positive":
            assert float(rho.values.min()) == 0.0
        return rho, u, ker

    def test_energy_commutators(self, spatial_dim, density, phi, method,
                                monkeypatch):
        rho, u, ker = self.setup_case(spatial_dim, density, method,
                                      monkeypatch)
        phi = PHIS[phi](spatial_dim)
        got = energy_commutators(rho, u, LAW, ker, phi).term_values
        assert hexed(got) == hexed(frozen_energy_commutators(rho, u, LAW, ker,
                                                           phi))

    def test_mollified_energy_balance(self, spatial_dim, density, phi,
                                      method, monkeypatch):
        rho, u, ker = self.setup_case(spatial_dim, density, method,
                                      monkeypatch)
        phi = PHIS[phi](spatial_dim)
        budget = mollified_energy_balance(rho, u, LAW, ker, phi)
        want = frozen_balance(rho, u, LAW, ker, phi)
        assert hexed(budget.terms) == hexed(want["terms"])
        got = {"lhs": budget.lhs, "rhs": budget.rhs,
               "gap": budget.identity_gap}
        assert hexed(got) == hexed({k: want[k] for k in got})


def stream_case(name):
    """rho, u, a kernel and phi for ``TestStreamedRung``: the
    ``spacetime_ladder`` workload's fields and phi on 512^2 at two of its
    rungs, a 2-D case (rho u (x) u has four components), and a spatial
    kernel on fields that vary in time, or repeat their first slice."""
    if name.startswith("ladder"):
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        rho = weierstrass_field(WeierstrassSpec(0.6, levels=8, seed=3), g)
        u = weierstrass_field(WeierstrassSpec(0.5, levels=8, seed=7), g)
        ker = make_mollifier(2.0 ** -int(name[-1]), 2, g)
        return rho, u, ker, spacetime_bump((0.5, 0.5), (0.35, 0.35))
    if name == "2d":
        rho, u, ker = rung_case(2, "vacuum")
        return rho, u, ker, PHIS["bump"](2)
    rho, u, _ = rung_case(1, "profile")
    if name == "spatial-repeating":
        rho, u = (Field(f.grid, np.broadcast_to(f.values[:1], f.values.shape))
                  for f in (rho, u))
    ker = make_mollifier(0.12, 1, rho.grid, include_time=False)
    return rho, u, ker, PHIS["bump"](1)


STREAM_CASES = ["ladder-4", "ladder-6", "2d", "spatial", "spatial-repeating"]


@pytest.mark.parametrize("branch", ["direct", "fft"])
@pytest.mark.parametrize("case", STREAM_CASES)
class TestStreamedRung:
    """The streamed rung, its products fed to the transforms in row
    blocks, bit for bit equal to the frozen copy, which formed every
    product whole and kept every field to the end."""

    def test_energy_commutators(self, case, branch, monkeypatch):
        force_branch(monkeypatch, branch)
        rho, u, ker, phi = stream_case(case)
        got = energy_commutators(rho, u, LAW, ker, phi).term_values
        assert hexed(got) == hexed(frozen_energy_commutators(rho, u, LAW, ker,
                                                           phi))

    def test_whole_read_balance(self, case, branch, monkeypatch):
        force_branch(monkeypatch, branch)
        rho, u, ker, phi = stream_case(case)
        budget = mollified_energy_balance(rho, u, LAW, ker, phi)
        want = frozen_balance(rho, u, LAW, ker, phi)
        got = {"lhs": budget.lhs, "rhs": budget.rhs, "terms": budget.terms}
        assert hexed(got) == hexed({k: want[k] for k in got})


def test_fft_rung_forms_no_array_of_the_read_box(monkeypatch):
    # every product enters the transforms a block of time rows at a time;
    # nothing the rung forms has the read box's rows
    force_branch(monkeypatch, "fft")
    rho, u, ker, phi = stream_case("ladder-4")
    box = commutators._pairing_box(phi, rho.grid, ker)
    read = Mollification(ker, rho.grid, box=box).input_grid.shape
    formed = []
    product = grids.Mollification.product

    def spy(self, form, components):
        def recorded(rows, c):
            out = form(rows, c)
            formed.append(out.shape)
            return out
        return product(self, recorded, components)

    monkeypatch.setattr(grids.Mollification, "product", spy)
    energy_commutators(rho, u, LAW, ker, phi)
    # rho u, the one component of rho u (x) u and p(rho), each in blocks
    blocks = -(-read[0] // grids._ROW_BLOCK)
    assert len(formed) == 3 * blocks
    assert max(rows for rows, _ in formed) == grids._ROW_BLOCK < read[0]
    assert {cols for _, cols in formed} == {read[1]}


# phi on the edges of the box the balance keeps, on the ``rung_case``
# grids (extent 1 on every axis; the kernel's radius 0.12 leaves the
# interior time slices t in (0.12, 0.88))
EDGE_PHIS = {
    # support clipped at x = 0, so x is kept whole; y is cut
    "x-edge": lambda d: spacetime_bump((0.5, 0.05, 0.5)[:1 + d],
                                       (0.3, 0.2, 0.3)[:1 + d]),
    # support cut by the first, or by the last, interior time slice
    "t-start": lambda d: spacetime_bump((0.1,) + (0.5,) * d,
                                        (0.15,) + (0.3,) * d),
    "t-end": lambda d: spacetime_bump((0.9,) + (0.5,) * d,
                                      (0.15,) + (0.3,) * d),
    # 0 on every interior node: the whole interior grid is kept
    "vanishing": lambda d: time_bump(0.05, 0.05),
}


def record_kept_grids(monkeypatch):
    """The grid of the fields each balance hands to its LHS."""
    grids_kept = []
    inner = energy._mollified_lhs

    def spy(rho_e, u_e, m_e, kept, *args):
        grids_kept.append(kept)
        return inner(rho_e, u_e, m_e, kept, *args)

    monkeypatch.setattr(energy, "_mollified_lhs", spy)
    return grids_kept


@pytest.mark.parametrize("branch", ["direct", "fft"])
@pytest.mark.parametrize("phi", EDGE_PHIS, ids=EDGE_PHIS.keys())
@pytest.mark.parametrize("density", ["vacuum", "profile"])
@pytest.mark.parametrize("spatial_dim", [1, 2])
def test_balance_on_the_box_edges_keeps_the_whole_grid_bits(
        spatial_dim, density, phi, branch, monkeypatch):
    force_branch(monkeypatch, branch)
    rho, u, ker = rung_case(spatial_dim, density)
    g, name, phi = rho.grid, phi, EDGE_PHIS[phi](spatial_dim)
    kept = record_kept_grids(monkeypatch)
    budget = mollified_energy_balance(rho, u, LAW, ker, phi)
    want = frozen_balance(rho, u, LAW, ker, phi)
    assert hexed(budget.terms) == hexed(want["terms"])
    got = {"lhs": budget.lhs, "rhs": budget.rhs, "gap": budget.identity_gap}
    assert hexed(got) == hexed({k: want[k] for k in got})
    (grid,) = kept
    j0, j1 = grids.interior_time_slices(g, ker.epsilon)
    start, end = grid.origin[0], grid.origin[0] + grid.shape[0]
    if name == "vanishing":
        assert (start, end) == (j0, j1) and grid.shape[1:] == g.shape[1:]
    else:
        assert j0 <= start < end <= j1 and grid.shape[0] < j1 - j0
    assert (start == j0) == (name in ("t-start", "vanishing"))
    assert (end == j1) == (name in ("t-end", "vanishing"))
    if name == "x-edge":
        assert grid.shape[1] == g.shape[1]
        assert grid.shape[2:] < g.shape[2:] or spatial_dim == 1


@pytest.mark.parametrize("spatial_dim", [1, 2])
def test_balance_keeps_only_the_pairing_box_rows(spatial_dim, monkeypatch):
    # every FFT convolution inverts the first axis's pencils whole, then
    # inverts the other axes on the kept rows alone: the pairing box's
    force_branch(monkeypatch, "fft")
    rho, u, ker = rung_case(spatial_dim, "positive")
    d = spatial_dim
    phi = spacetime_bump((0.5,) * (1 + d), (0.2,) * (1 + d))
    keeps = []
    inner = grids._apply

    def spy(spec, spectrum, shape, keep=None, **kwargs):
        keeps.append(keep)
        return inner(spec, spectrum, shape, keep, **kwargs)

    monkeypatch.setattr(grids, "_apply", spy)
    mollified_energy_balance(rho, u, LAW, ker, phi)
    box = commutators._pairing_box(phi, rho.grid, ker)
    j0, j1 = grids.interior_time_slices(rho.grid, ker.epsilon)
    rows = slice(max(j0, box[0][0]), min(j1, box[0][1]))
    assert j0 < rows.start and rows.stop < j1
    # rho, p(rho) and the components of u, rho u and rho u (x) u
    assert len(keeps) == 2 + spatial_dim * (2 + spatial_dim)
    assert all(keep[0] == rows for keep in keeps)


@pytest.mark.parametrize("phi", PHIS, ids=PHIS.keys())
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("spatial_dim", [1, 2])
class TestFrozenEnergyPairings:
    """The raw-field pairings, bit for bit equal to the frozen copy."""

    def test_local_energy_residual(self, spatial_dim, density, phi):
        rho, u, _ = rung_case(spatial_dim, density)
        phi = PHIS[phi](spatial_dim)
        assert (local_energy_residual(rho, u, LAW, phi).hex()
                == frozen_local_energy_residual(rho, u, LAW, phi).hex())

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_ns_energy_residual(self, spatial_dim, density, phi, degenerate):
        rho, u, _ = rung_case(spatial_dim, density)
        phi = PHIS[phi](spatial_dim)
        got = ns_energy_residual(rho, u, LAW, 1.0, 0.5, degenerate, phi)
        want = frozen_ns_energy_residual(rho, u, LAW, 1.0, 0.5, degenerate,
                                         phi)
        assert set(got) == set(want)
        assert hexed(got) == hexed(want)


@pytest.mark.parametrize("density", DENSITIES)
def test_bounded_balance_matches_the_frozen_copy(density):
    rho, u, _ = rung_case(1, density)
    deltas, nus = [0.2, 0.1, 0.05], [0.1, 0.05]
    got = global_energy_balance_bounded(rho, u, LAW, deltas, nus, 0.2, 0.8)
    want = frozen_bounded_balance(rho, u, LAW, deltas, nus, 0.2, 0.8)
    assert ([v.hex() for _, v in got["boundary_samples"]]
            == [v.hex() for v in want["boundary"]])
    assert ([v.hex() for _, v in got["window_samples"]]
            == [v.hex() for v in want["window"]])
    assert got["slice_stability"].hex() == want["slice_stability"].hex()


class TestRungMemory:
    # the traced peak of one rung above its live inputs, in arrays of the
    # kept box: 6.63 here, against 8.63 before the rung streamed its
    # products in row blocks and dropped each field after its last term,
    # and 11.51 before the inputs were read in place, inverted into the
    # kept box and consumed; the pin leaves 0.37 boxes of margin
    KEPT_BOXES = 7

    def test_rung_peak_stays_under_the_pinned_kept_boxes(self):
        g = GridSpec(1, (512, 512), (1.0, 1.0))
        rho = from_function(g, lambda t, x:
                            1.0 + 0.3 * np.sin(2 * np.pi * (x + t)))
        u = from_function(g, lambda t, x:
                          0.2 * np.cos(2 * np.pi * (x - 2 * t)))
        phi = spacetime_bump((0.5, 0.5), (0.35, 0.35))
        ker = make_mollifier(2.0 ** -4, 2, g)  # the FFT branch
        box = commutators._pairing_box(phi, g, ker)
        kept = Mollification(ker, g, box=box)._output_grid
        assert kept.shape == (362, 362)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            energy_commutators(rho, u, LAW, ker, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak - live < self.KEPT_BOXES * kept.node_count * 8


class TestBalanceMemory:
    # the traced peak of one budget balance above its live inputs, in
    # arrays of the pairing grid: 4.11 here, against 5.16 before the rung
    # streamed its products and dropped each field after its last term
    # (the kernel spectrum, of the whole grid, is now held across terms),
    # 8.08 when the mollified fields covered the whole pairing grid, not
    # phi's box, and 13.08 before the LHS built E and F in place and
    # weighed them by phi's derivatives a few rows at a time
    PAIRING_ARRAYS = 6

    def test_balance_peak_stays_under_the_pinned_arrays(self):
        law = PressureLaw(gamma=1.4)
        g = GridSpec(1, (512, 512), _BUDGET_EXTENTS)
        rho, u = simple_wave(law, 0.05, g)
        phi = spacetime_bump((0.1, 0.5), (0.04, 0.3))  # the budget study's
        ker = make_mollifier(0.02, 2, g)
        pairing = Mollification(ker, g)._output_grid
        assert pairing.shape == (410, 512)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            mollified_energy_balance(rho, u, law, ker, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak - live < self.PAIRING_ARRAYS * pairing.node_count * 8
