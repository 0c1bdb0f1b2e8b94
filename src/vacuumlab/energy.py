"""Energy budgets: local residuals, the mollified balance, and boundary layers.

Conventions.  The energy density is E = rho |u|^2 / 2 + P(rho) and the
flux is F = (rho |u|^2 / 2 + p + P) u.  The weak residual of a pair
(rho, u) against a test function is

    residual(phi) = -int int (d_t phi * E + grad phi . F),

so smooth exact solutions give 0 and admissible shocks give a strictly
negative value close to D * int phi dt along the shock path, where D is
the Rankine-Hugoniot dissipation rate.  No derivative of (rho, u) is
ever taken in a pairing; only test-function derivatives appear.  Each
pairing builds its integrand in place in a fresh array and hands it to
``TestFunction.pair``, which weighs it by phi's derivatives a few time
rows at a time, sums it and rejects a non-finite result, so a NaN or an
overflow in the integrand raises too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    Field,
    GridSpec,
    Mollification,
    MollifierKernel,
    require_nonnegative,
)
from .pressure import PressureLaw
from .commutators import _energy_rung, _pairing_box
from .synth import ns_stress, stress_apply, stress_contract_grad
from .testfn import TestFunction, boundary_cutoff, time_window


@dataclass(frozen=True)
class EnergyBudget:
    """Both sides of the mollified balance at one (epsilon, phi).

    lhs is the weak pairing of the mollified energy density and flux, rhs
    the sum of the commutator integrals ``terms``; identity_gap is
    |lhs - rhs|, which must be finite.
    """

    lhs: float
    rhs: float
    terms: dict

    def __post_init__(self):
        if not np.isfinite(self.identity_gap):
            raise ValueError("identity_gap must be finite")

    @property
    def identity_gap(self) -> float:
        return abs(self.lhs - self.rhs)


def _energy(rho: np.ndarray, u: np.ndarray, law: PressureLaw, flux=False):
    """E = rho |u|^2 / 2 + P(rho), or with ``flux`` F = (rho |u|^2 / 2 + p
    + P) u, built in place in a fresh array; rho has no component axis."""
    E = 0.5 * rho * np.sum(u ** 2, axis=-1)
    if flux:
        E += law.p(rho)
    E += law.potential(rho)
    return E[..., None] * u if flux else E[..., None]


def energy_density(rho: Field, u: Field, law: PressureLaw) -> Field:
    """E = rho |u|^2 / 2 + P(rho)."""
    require_nonnegative(rho, "rho")
    return Field(rho.grid, _energy(rho.values[..., 0], u.values, law))


def energy_flux(rho: Field, u: Field, law: PressureLaw) -> Field:
    """F = (rho |u|^2 / 2 + p + P) u."""
    require_nonnegative(rho, "rho")
    return Field(rho.grid, _energy(rho.values[..., 0], u.values, law, True))


def local_energy_residual(rho: Field, u: Field, law: PressureLaw,
                          phi: TestFunction) -> float:
    """Weak energy residual of the raw fields; zero for smooth solutions."""
    if rho.grid != u.grid:
        raise ValueError("fields must share a grid")
    require_nonnegative(rho, "rho")
    grid, r, v = rho.grid, rho.values[..., 0], u.values
    dt_E = phi.pair(_energy(r, v, law), grid, (0,))
    F = _energy(r, v, law, True)
    return -(dt_E + phi.pair(F, grid, range(1, 1 + grid.spatial_dim)))


def mollified_energy_balance(rho: Field, u: Field, law: PressureLaw,
                             kernel: MollifierKernel,
                             phi: TestFunction) -> EnergyBudget:
    """Both sides of the mollified balance and their gap.

    LHS pairs the mollified energy density rho_e |u_e|^2 / 2 + P(rho_e)
    and flux (rho u)_e |u_e|^2 / 2 + rho_e u_e P'(rho_e) against phi;
    RHS is the sum of the four commutator integrals.  The continuum
    derivation is an algebraic identity for exact solutions, so the gap
    must shrink at the quadrature order under grid refinement.  Both
    sides come from one streamed rung of ``energy_commutators``
    (``_energy_rung``), which hands the LHS rho_e, u_e and (rho u)_e at
    the one point all three are alive.  Like ``energy_commutators`` the
    fields cover only phi's support box widened by the differences' reach
    (``_pairing_box``), but they are read from the whole grid
    (``whole_read``): the gap sits near rounding level, and a box's own
    FFT lengths would move it (the budget study's ``gap_order`` by about
    1.1e-6 relative, past its match tolerance), while the whole grid's
    keep every number's bits.
    When phi vanishes on every interior node the fields cover the whole
    interior grid.  Nothing off the box is formed after the products
    are mollified, so an overflow confined there does not raise.
    """
    box = _pairing_box(phi, rho.grid, kernel)
    # the grid a whole-grid mollification returns: the interior one
    interior = Mollification(kernel, rho.grid)._output_grid
    report, lhs = _energy_rung(
        rho, u, law, kernel, phi, box, whole_read=True,
        lhs=lambda *fields: _mollified_lhs(*fields, law, phi, interior))
    rhs = float(sum(report.term_values.values()))
    return EnergyBudget(lhs, rhs, dict(report.term_values))


def _mollified_lhs(rho_e: np.ndarray, u_e: np.ndarray, m_e: np.ndarray,
                   kept: GridSpec, law: PressureLaw, phi: TestFunction,
                   grid: GridSpec) -> float:
    """The balance's LHS: the weak pairing of the mollified energy
    density and flux on ``grid``, the whole interior grid, from the
    fields' values on ``kept``, a box of it.

    E and F are built on the box alone, in place, into arrays of
    ``grid`` that are 0 off the box, so ``pair`` sums an array of the
    whole grid's shape in the whole grid's order.  phi and its
    derivatives vanish off the box, where fields on the whole grid give
    products of +-0: no nonzero sum tells those from the 0s here, so the
    LHS has the whole grid's bits.  E is paired and dropped before F is
    built."""
    rho, u, d = rho_e[..., 0], u_e, u_e.shape[-1]
    box = tuple(slice(o, o + n) for o, n in
                zip(kept.offset_from(grid), kept.shape))
    E = np.zeros(grid.shape + (1,))
    E[box] = _energy(rho, u, law)
    dt_E = phi.pair(E, grid, (0,))
    del E
    F = np.zeros(grid.shape + (d,))
    on_box = np.multiply(0.5 * np.sum(u ** 2, axis=-1)[..., None],
                         m_e, out=F[box])
    w = rho * law.dpotential(rho)
    for j in range(d):
        on_box[..., j] += w * u[..., j]
    return -(dt_E + phi.pair(F, grid, range(1, 1 + grid.spatial_dim)))


def ns_energy_residual(rho: Field, u: Field, law: PressureLaw,
                       mu: float, nu: float, degenerate: bool,
                       phi: TestFunction) -> dict:
    """Weak Navier-Stokes energy residual with its dissipation quadrature.

    residual = -int (d_t phi E + grad phi . F)
               + int grad phi . (S u) + int phi S : grad u,

    where S is the viscous stress (density-weighted when degenerate).
    The dissipation int phi S : grad u is reported separately and must
    be non-negative for non-negative phi.
    """
    if mu <= 0 or nu < 0:
        raise ValueError("mu must be positive, nu non-negative")
    grid = rho.grid
    euler = local_energy_residual(rho, u, law, phi)

    S = ns_stress(u, mu, nu)
    if degenerate:
        S = Field(grid, rho.values * S.values)
    work = phi.pair(np.array(stress_apply(S, u).values), grid,
                    range(1, 1 + grid.spatial_dim))
    dissipation = phi.pair(np.array(stress_contract_grad(S, u).values), grid,
                           (None,))
    if dissipation < -1e-12 and float(np.min(phi.phi_values(grid))) >= 0.0:
        raise ValueError("negative dissipation quadrature with phi >= 0")
    return {
        "residual": euler + work + dissipation,
        "dissipation": dissipation,
        "euler_part": euler,
        "viscous_work": work,
    }


# The largest |u . n| at either end of the interval that still counts as
# the no-flux boundary condition.
BOUNDARY_TOL = 1e-2


def _boundary_speed(u: Field) -> tuple[float, float]:
    """|u . n| at x=0 and x=1, linearly extrapolated from midpoint samples."""
    left = 1.5 * u.values[:, 0, 0] - 0.5 * u.values[:, 1, 0]
    right = 1.5 * u.values[:, -1, 0] - 0.5 * u.values[:, -2, 0]
    return float(np.max(np.abs(left))), float(np.max(np.abs(right)))


def global_energy_balance_bounded(rho: Field, u: Field, law: PressureLaw,
                                  delta_ladder, nu_ladder,
                                  t1: float, t2: float) -> dict:
    """Interval-domain energy balance via the cutoff phi = chi(d/delta) Theta(t).

    For each delta the boundary-layer flux term (the grad-phi pairing,
    carrying the 1/delta weight of chi') is measured; it must vanish
    linearly in delta when u vanishes at the endpoints and plateau at a
    nonzero level otherwise.  For each nu the windowed energy difference
    |E(t1) - E(t2)| is measured by pairing d_t Theta_nu with E over the
    whole interval, with no boundary cutoff.  Slice-wise stability of
    int E dx near both window edges is reported so the slice comparison
    is trusted only for fields that are steady there.
    ``boundary_bound`` (``BOUNDARY_TOL``) gates |u . n| at either end
    (``boundary_speed``): the no-flux boundary condition.
    """
    if rho.grid.spatial_dim != 1:
        raise ValueError("interval balance is one-dimensional")
    delta_ladder = sorted(float(d) for d in delta_ladder)[::-1]
    nu_ladder = sorted(float(v) for v in nu_ladder)[::-1]
    if not delta_ladder or not nu_ladder:
        raise ValueError("ladders must be non-empty")

    grid = rho.grid
    E = energy_density(rho, u, law)
    F = energy_flux(rho, u, law)
    theta = time_window(t1, t2, nu_ladder[-1])

    boundary_samples = []
    for delta in delta_ladder:
        phi = boundary_cutoff(delta, theta)
        boundary = -phi.pair(np.array(F.values), grid, (1,))
        boundary_samples.append((delta, abs(boundary)))

    logs = np.log(np.maximum([b for _, b in boundary_samples], 1e-300))
    slope = float(np.polyfit(np.log([d for d, _ in boundary_samples]), logs, 1)[0])

    # windowed energy difference over the whole interval (the delta -> 0
    # limit of the bulk term): d_t Theta has edge masses exactly -1 and
    # +1, so the pairing reads E(t2) - E(t1) up to O(nu)
    window_samples = []
    for nu_val in nu_ladder:
        theta_nu = time_window(t1, t2, nu_val)
        bulk = -theta_nu.pair(np.array(E.values), grid, (0,))
        window_samples.append((nu_val, abs(bulk)))

    # slice stability near the window edges: int E(t, .) dx per slice
    slice_E = E.values[..., 0].sum(axis=1) * grid.spacings[1]
    t = grid.axis_coords(0)
    near1 = np.argsort(np.abs(t - t1))[:3]
    near2 = np.argsort(np.abs(t - t2))[:3]
    stability = float(max(np.ptp(slice_E[near1]), np.ptp(slice_E[near2])))
    left, right = _boundary_speed(u)

    return {
        "boundary_samples": boundary_samples,
        "boundary_slope": slope,
        "window_samples": window_samples,
        "energy_gap": window_samples[-1][1],
        "slice_stability": stability,
        "boundary_speed": {"left": left, "right": right},
        "boundary_bound": BOUNDARY_TOL,
        "boundary_plateau": float(boundary_samples[-1][1]),
    }
