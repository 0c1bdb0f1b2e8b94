"""The phi pairings of the vacuum split, the divergence-measure term and
the degenerate-viscosity commutator, against a frozen copy of their
earlier code.

The earlier code filled phi and grad phi over the whole grid as ``Field``s
and combined them with ``Field`` arithmetic and ``integrate``; now every
integral is one ``TestFunction.pair`` call.  Where the product keeps its
order (phi times a density, or grad phi . a vector density) the number
keeps every bit.  Where the pairing multiplies a product by phi's
derivative last, p (grad phi . u_e) becomes (p u_e) . grad phi, which
moves a number by rounding; it must stay within ``ROUNDING`` of the
largest |term| of the same call.  The cases reuse ``test_rung_memory``'s
fields, two of which touch vacuum.
"""

import numpy as np
import pytest
from test_rung_memory import DENSITIES, LAW, PHIS, rung_case

from vacuumlab.commutators import (
    R_S_terms,
    _grad_dpotential,
    degenerate_viscosity_commutator,
    divmeasure_pressure_term,
)
from vacuumlab.grids import (
    Field,
    Mollification,
    div,
    lp_norm,
    require_nonnegative,
    restrict,
)
from vacuumlab.pressure import make_c2_approximant
from vacuumlab.synth import ns_stress, stress_apply, stress_contract_grad
from vacuumlab.vacuum import build_vacuum_sets

ROUNDING = 1e-15
# the integrals whose product order changed; every other number keeps its bits
REORDERED = {"R", "S_gradphi", "div_term", "grad_term"}


# -- the frozen copy -----------------------------------------------------------

def frozen_integrate(field, mask=None):
    v = field.scalar
    if not np.isfinite(v).all():
        raise ValueError("field values must be finite")
    if mask is not None:
        v = np.where(mask, v, 0.0)
    return float(v.sum() * field.grid.cell_volume)


def frozen_R_S_terms(rho, u, law, kernel, phi, beta):
    require_nonnegative(rho, "rho")
    moll = Mollification(kernel, rho.grid)
    rho_e, u_e, m_e, p_e = (moll(rho), moll(u), moll(rho * u),
                            moll(rho.map(law.p)))
    del moll
    sets = build_vacuum_sets(rho, kernel, beta, rho_e=rho_e)
    sub = rho_e.grid
    phi_f = phi.phi(sub)
    gphi = phi.grad(sub)
    p_comm = rho_e.map(law.p) - p_e
    R = -(frozen_integrate(p_comm * gphi.dot(u_e))
          + frozen_integrate(p_comm * phi_f * div(u_e)))
    defect = rho_e * u_e - m_e
    dP = law.dpotential(rho_e.values)
    s_dens = np.where(sets.A[..., None], 0.0, div(defect).values * dP)
    S_total = frozen_integrate(phi_f * Field(sub, s_dens))
    S_gradphi = frozen_integrate(Field(sub, np.where(
        sets.A[..., None], 0.0, gphi.dot(defect).values * dP)))
    gradP = _grad_dpotential(rho_e, law, sets.A)
    inner = defect.dot(gradP) * phi_f
    S_band = frozen_integrate(inner, mask=sets.B)
    S_bulk = frozen_integrate(inner, mask=sets.C)
    lead = (rho_e - restrict(rho, sub)) * (u_e - restrict(u, sub))
    S_band_lead = frozen_integrate(lead.dot(gradP) * phi_f, mask=sets.B)
    return {"R": R, "S": S_total, "S_gradphi": S_gradphi, "S_A": 0.0,
            "S_B": S_band, "S_C": S_bulk, "S_B_leading": S_band_lead,
            "S_B_gap": S_band - S_band_lead}


def frozen_divmeasure(rho, u, law, approx, kernel, phi):
    gap_field = Field(rho.grid, approx.p(rho.values) - law.p(rho.values))
    moll = Mollification(kernel, rho.grid)
    gap_e, u_e = moll(gap_field), moll(u)
    del moll
    sub = gap_e.grid
    phi_f = phi.phi(sub)
    gphi = phi.grad(sub)
    div_u_e = div(u_e)
    div_term = frozen_integrate(phi_f * gap_e * div_u_e)
    grad_term = frozen_integrate(gap_e * gphi.dot(u_e))
    delta = float(approx.delta)
    tv = lp_norm(div_u_e, 1)
    u3 = lp_norm(u, 3)
    sup_phi = float(np.max(np.abs(phi_f.values)))
    sup_gphi = float(np.max(gphi.magnitude())) + sup_phi
    return {"div_term": div_term, "grad_term": grad_term, "delta": delta,
            "realized_gap": float(np.max(np.abs(gap_field.values))),
            "div_bound": sup_phi * delta * tv * (1 + 1e-9),
            "grad_bound": sup_gphi * delta * u3 * (1 + 1e-9)}


def frozen_degenerate_viscosity(rho, u, mu, nu, kernel, phi):
    moll = Mollification(kernel, rho.grid)
    rho_e, u_e = moll(rho), moll(u)
    rhoS_e = moll(Field(u.grid, rho.values * ns_stress(u, mu, nu).values))
    del moll
    S_e = ns_stress(u_e, mu, nu)
    M = Field(rho_e.grid, rho_e.values * S_e.values) - rhoS_e
    sub = M.grid
    first = frozen_integrate(stress_apply(M, u_e).dot(phi.grad(sub)))
    second = frozen_integrate(phi.phi(sub) * stress_contract_grad(M, u_e))
    return float(-(first + second))


# -- the comparison ------------------------------------------------------------

def assert_matches(got: dict, want: dict, terms) -> None:
    """Each number of ``got`` has ``want``'s bits, or it is a ``REORDERED``
    integral within ``ROUNDING`` of the largest |term| of the call."""
    assert set(got) == set(want)
    scale = max(abs(want[k]) for k in terms)
    moved = {k: abs(got[k] - want[k]) / scale for k in want
             if float(got[k]).hex() != float(want[k]).hex()}
    assert set(moved) <= REORDERED, moved
    assert all(v <= ROUNDING for v in moved.values()), moved


@pytest.mark.parametrize("phi", PHIS, ids=PHIS.keys())
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("spatial_dim", [1, 2])
class TestFrozenPhiPairings:
    """On 1-D and 2-D fields, two of three touching vacuum, and two phi."""

    def test_r_s_terms(self, spatial_dim, density, phi):
        rho, u, ker = rung_case(spatial_dim, density)
        phi = PHIS[phi](spatial_dim)
        got = R_S_terms(rho, u, LAW, ker, phi, beta=0.5).term_values
        assert_matches(got, frozen_R_S_terms(rho, u, LAW, ker, phi, 0.5),
                       got)

    def test_divmeasure_pressure_term(self, spatial_dim, density, phi):
        rho, u, ker = rung_case(spatial_dim, density)
        phi = PHIS[phi](spatial_dim)
        approx = make_c2_approximant(LAW, 1e-2)
        got = divmeasure_pressure_term(rho, u, LAW, approx, ker, phi)
        assert_matches(got, frozen_divmeasure(rho, u, LAW, approx, ker, phi),
                       ("div_term", "grad_term"))

    def test_degenerate_viscosity_commutator(self, spatial_dim, density,
                                             phi):
        rho, u, ker = rung_case(spatial_dim, density)
        phi = PHIS[phi](spatial_dim)
        got = degenerate_viscosity_commutator(rho, u, 1.0, 0.5, ker, phi)
        want = frozen_degenerate_viscosity(rho, u, 1.0, 0.5, ker, phi)
        assert got.hex() == want.hex()
