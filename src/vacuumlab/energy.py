"""Energy budgets: local residuals, the mollified balance, and boundary layers.

Conventions.  The energy density is E = rho |u|^2 / 2 + P(rho) and the
flux is F = (rho |u|^2 / 2 + p + P) u.  The weak residual of a pair
(rho, u) against a test function is

    residual(phi) = -int int (d_t phi * E + grad phi . F),

so smooth exact solutions give 0 and admissible shocks give a strictly
negative value close to D * int phi dt along the shock path, where D is
the Rankine-Hugoniot dissipation rate.  No derivative of (rho, u) is
ever taken in a pairing; only test-function derivatives appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import Field, MollifierKernel, integrate, require_nonnegative
from .pressure import PressureLaw
from .commutators import commutators_from_mollified, mollify_energy_inputs
from .synth import ns_stress, stress_apply, stress_contract_grad
from .testfn import TestFunction, boundary_cutoff, time_window


@dataclass
class EnergyBudget:
    """Residual ledger for one field pair.

    residuals holds (phi identifier, epsilon, value) rows sorted by
    epsilon; identity_gap is the measured discrepancy between the two
    sides of the mollified balance; dissipation carries the shock or
    viscous dissipation when one was measured.
    """

    residuals: list
    identity_gap: float = 0.0
    dissipation: float | None = None
    extras: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.residuals = sorted(self.residuals, key=lambda r: r[1])
        for _, eps, value in self.residuals:
            if not (np.isfinite(eps) and np.isfinite(value)):
                raise ValueError("residual rows must be finite")
        if not np.isfinite(self.identity_gap):
            raise ValueError("identity_gap must be finite")

    def as_dict(self) -> dict:
        return {
            "residuals": [[pid, eps, val] for pid, eps, val in self.residuals],
            "identity_gap": self.identity_gap,
            "dissipation": self.dissipation,
            "extras": self.extras,
        }


def energy_density(rho: Field, u: Field, law: PressureLaw) -> Field:
    """E = rho |u|^2 / 2 + P(rho)."""
    require_nonnegative(rho, "rho")
    kinetic = 0.5 * rho.values[..., 0] * np.sum(u.values ** 2, axis=-1)
    potential = law.potential(rho.values[..., 0])
    return Field(rho.grid, kinetic + potential)


def energy_flux(rho: Field, u: Field, law: PressureLaw) -> Field:
    """F = (rho |u|^2 / 2 + p + P) u."""
    require_nonnegative(rho, "rho")
    scalar = (0.5 * rho.values[..., 0] * np.sum(u.values ** 2, axis=-1)
              + law.p(rho.values[..., 0]) + law.potential(rho.values[..., 0]))
    return Field(rho.grid, scalar[..., None] * u.values)


def weak_pairing(E: Field, F: Field, phi: TestFunction) -> float:
    """-int (d_t phi * E + grad phi . F) on E's grid."""
    grid = E.grid
    return -(integrate(phi.dt(grid) * E) + integrate(phi.grad(grid).dot(F)))


def local_energy_residual(rho: Field, u: Field, law: PressureLaw,
                          phi: TestFunction) -> float:
    """Weak energy residual of the raw fields; zero for smooth solutions."""
    if rho.grid != u.grid:
        raise ValueError("fields must share a grid")
    E = energy_density(rho, u, law)
    F = energy_flux(rho, u, law)
    return weak_pairing(E, F, phi)


def mollified_energy_balance(rho: Field, u: Field, law: PressureLaw,
                             kernel: MollifierKernel,
                             phi: TestFunction) -> EnergyBudget:
    """Both sides of the mollified balance and their gap.

    LHS pairs the mollified energy density rho_e |u_e|^2 / 2 + P(rho_e)
    and flux (rho u)_e |u_e|^2 / 2 + rho_e u_e P'(rho_e) against phi;
    RHS is the sum of the four commutator integrals.  The continuum
    derivation is an algebraic identity for exact solutions, so the gap
    must shrink at the quadrature order under grid refinement.  Both
    sides share one set of mollified fields, on the whole interior grid:
    unlike ``energy_commutators`` it does not cut them to phi's box,
    because the gap sits near rounding level and a box's FFT lengths
    move it (the budget study's ``gap_order`` by about 1.3e-6 relative).
    """
    mollified = mollify_energy_inputs(rho, u, law, kernel)
    rho_e, u_e, m_e = mollified[:3]

    kinetic = 0.5 * rho_e.values[..., 0] * np.sum(u_e.values ** 2, axis=-1)
    E_m = Field(rho_e.grid, kinetic + law.potential(rho_e.values[..., 0]))
    ke_flux = 0.5 * np.sum(u_e.values ** 2, axis=-1)[..., None] * m_e.values
    dP = law.dpotential(rho_e.values)
    F_m = Field(rho_e.grid, ke_flux + rho_e.values * dP * u_e.values)

    lhs = weak_pairing(E_m, F_m, phi)
    report = commutators_from_mollified(rho, law, kernel, phi, mollified)
    rhs = float(sum(report.term_values.values()))
    gap = abs(lhs - rhs)
    return EnergyBudget(
        residuals=[(phi.kind, kernel.epsilon, lhs)],
        identity_gap=gap,
        extras={"lhs": lhs, "rhs": rhs, "terms": dict(report.term_values)},
    )


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
    phi_f = phi.phi(grid)
    g_phi = phi.grad(grid)
    work = integrate(stress_apply(S, u).dot(g_phi))
    dissipation = integrate(phi_f * stress_contract_grad(S, u))
    if float(np.min(phi_f.values)) >= 0.0 and dissipation < -1e-12:
        raise ValueError("negative dissipation quadrature with phi >= 0")
    return {
        "residual": euler + work + dissipation,
        "dissipation": dissipation,
        "euler_part": euler,
        "viscous_work": work,
    }


def _slice_energy(rho: Field, u: Field, law: PressureLaw) -> np.ndarray:
    """int E(t, .) dx per time slice."""
    E = energy_density(rho, u, law).values[..., 0]
    vol = float(np.prod(rho.grid.spacings[1:]))
    axes = tuple(range(1, E.ndim))
    return E.sum(axis=axes) * vol


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
    The boundary condition is violated where |u . n| at either end
    exceeds ``BOUNDARY_TOL``; ``boundary_violation`` reports it.
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
        boundary = -integrate(phi.grad(grid).dot(F))
        boundary_samples.append((delta, abs(boundary)))

    logs = np.log(np.maximum([b for _, b in boundary_samples], 1e-300))
    slope = float(np.polyfit(np.log([d for d, _ in boundary_samples]), logs, 1)[0])

    # windowed energy difference over the whole interval (the delta -> 0
    # limit of the bulk term): d_t Theta has edge masses exactly -1 and
    # +1, so the pairing reads E(t2) - E(t1) up to O(nu)
    window_samples = []
    for nu_val in nu_ladder:
        theta_nu = time_window(t1, t2, nu_val)
        bulk = -integrate(theta_nu.dt(grid) * E)
        window_samples.append((nu_val, abs(bulk)))

    # slice stability near the window edges
    slice_E = _slice_energy(rho, u, law)
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
        "boundary_violation": bool(max(left, right) > BOUNDARY_TOL),
        "boundary_plateau": float(boundary_samples[-1][1]),
    }
