"""Mollification commutators of the energy balance and their integrals.

Conventions: every "term" is the space-time integral of the named
density against a test function, evaluated on the shrunk domain by
midpoint quadrature: one ``TestFunction.pair`` call per integral, which
weighs the density by phi or one of its derivatives in place and rejects
a non-finite result.  Derivatives of mollified quantities use 4th-order
centered differences on the grid rather than differentiating the kernel.

The four energy commutators of one kernel are one streamed rung
(``_energy_rung``): the products of rho and u enter the forward transform
a block of time rows at a time, each mollified field is made just before
the first term that reads it and dropped after the last, and the kernel
spectrum is held until the last convolution.  The mollified energy
balance (``energy.mollified_energy_balance``) takes its LHS from the same
rung, so a rung holds at most three mollified fields besides the terms'
temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce
from operator import iadd, imul, isub

import numpy as np

from .grids import (
    STENCIL_REACH,
    Field,
    GridSpec,
    Mollification,
    MollifierKernel,
    _central_diff,
    _require_finite,
    div,
    grad,
    interior_time_slices,
    lp_norm,
    require_nonnegative,
    restrict,
)
from .pressure import C2Approximant, PressureLaw
from .rates import tv_divergence_estimate
from .synth import ns_stress, stress_apply, stress_contract_grad
from .testfn import TestFunction
from .vacuum import build_vacuum_sets, vacuum_floor


@dataclass(frozen=True)
class CommutatorReport:
    """Named commutator integrals at one (epsilon, test function) pair."""

    term_values: dict
    epsilon: float
    metadata: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for k, v in self.term_values.items():
            if not np.isfinite(v):
                raise ValueError(f"term {k} is not finite")

    def total(self) -> float:
        """The sum of |term| over every term."""
        return float(sum(abs(v) for v in self.term_values.values()))


# ---------------------------------------------------------------------------
# Pointwise decomposition identity
# ---------------------------------------------------------------------------

def _kernel_offset_iter(kernel: MollifierKernel):
    """Yield (node offsets, weight*cell) for the kernel's nonzero nodes."""
    w = kernel.weights * kernel.cell_volume
    half = kernel.half_widths
    for idx in np.argwhere(w != 0.0):
        yield tuple(int(i - h) for i, h in zip(idx, half)), float(w[tuple(idx)])


def _shift_values(values: np.ndarray, steps) -> np.ndarray:
    """f(. - y) for node offsets, by rolling every axis, time included.

    Time is not periodic, so callers restrict the result to interior time
    slices, which the wrap cannot reach.
    """
    out = values
    for axis, k in enumerate(steps):
        if k:
            out = np.roll(out, k, axis=axis)
    return out


def pointwise_decomposition_check(f: Field, g: Field,
                                  kernel: MollifierKernel) -> float:
    """Max node discrepancy of f_e g_e - (fg)_e against its two-term split.

    The identity is algebraic, so matched quadrature must reproduce it to
    round-off (about 1e-10 at double precision on O(1) fields).
    """
    moll = Mollification(kernel, f.grid)
    fe, ge, fge = moll(f), moll(g), moll(f * g)
    del moll  # free the kernel spectrum before the arithmetic
    sub = fe.grid
    f0 = restrict(f, sub)
    g0 = restrict(g, sub)
    lhs = fe * ge - fge
    first = (fe - f0) * (ge - g0)

    conv = np.zeros(f.grid.shape + (f.values.shape[-1],))
    for steps, wgt in _kernel_offset_iter(kernel):
        df = _shift_values(f.values, steps) - f.values
        dg = _shift_values(g.values, steps) - g.values
        conv += wgt * df * dg
    rhs = first - restrict(Field(f.grid, conv), sub)
    return float(np.max(np.abs(lhs.values - rhs.values)))


# ---------------------------------------------------------------------------
# Energy-balance commutators
# ---------------------------------------------------------------------------

def energy_commutators(rho: Field, u: Field, law: PressureLaw,
                       kernel: MollifierKernel,
                       phi: TestFunction) -> CommutatorReport:
    """The four commutator integrals of the mollified energy balance.

    r1: time-derivative commutator of the momentum;
    r2: transport commutator;
    r3: pressure-gradient commutator;
    s:  mass-flux divergence commutator weighted by P'(rho_e),
        with the integrand set to 0 on the numerical vacuum of rho_e
        (``vacuum_floor(rho)``).

    Each term pairs a density with phi, so only phi's support box matters.
    The inputs are mollified on that box widened by the reach of the
    4th-order differences (``grids.STENCIL_REACH`` nodes), reading only
    that box widened by the kernel's half-width; see ``Mollification`` for
    how a box is cut.  One rung streams its fields (``_energy_rung``): the
    products rho u, rho u (x) u and p(rho) go into the forward transform a
    block of time rows at a time, and each mollified field is dropped after
    the last term that reads it.  Values outside the box are never formed:
    an overflow there cannot raise, and no reported number depends on
    them.  ``mollified_energy_balance`` runs the same rung on the same box
    but reads the whole grid, so its FFT lengths, and its bits, are those
    of the whole interior grid.
    """
    box = _pairing_box(phi, rho.grid, kernel)
    return _energy_rung(rho, u, law, kernel, phi, box)[0]


def _pairing_box(phi: TestFunction, grid: GridSpec, kernel: MollifierKernel):
    """phi's support box on ``grid`` widened by ``STENCIL_REACH``.

    None when phi vanishes on every interior node: the whole-grid path
    then pairs nothing and gives zero terms.
    """
    support = phi.support(grid)
    if support is None:
        return None
    if kernel.include_time:
        j0, j1 = interior_time_slices(grid, kernel.epsilon)
        if support[0][1] <= j0 or support[0][0] >= j1:
            return None
    return tuple((max(lo - STENCIL_REACH, 0), min(hi + STENCIL_REACH, n))
                 for (lo, hi), n in zip(support, grid.shape))


def _energy_rung(rho: Field, u: Field, law: PressureLaw,
                 kernel: MollifierKernel, phi: TestFunction, box=None, *,
                 whole_read: bool = False, lhs=None):
    """The commutator report of one kernel, and ``lhs``'s value (None
    without one), from one ``Mollification`` with ``box`` and
    ``whole_read`` (see ``Mollification``).

    rho and u are read in place (``Mollification.read``), never copied.
    The products rho u, rho u (x) u and p(rho) are formed from those
    views by ``Mollification.product``, so on the FFT branch they enter
    the forward transform a block of time rows at a time; p(rho) is
    checked finite block by block.  The fields are mollified in the order
    the terms consume them, and each is dropped after its last use:
    u_e and (rho u)_e come first, and r2 mollifies each component of
    rho u (x) u just before the one tensor entry that reads it; rho_e
    comes next, and ``lhs(rho_e, u_e, (rho u)_e, grid)``, given, is
    called on the plain arrays while all three are alive; the defect
    rho_e u_e - (rho u)_e, formed once for r1 and s, lets (rho u)_e go,
    and s lets rho_e go once p(rho_e) is formed; p(rho)_e comes last, the
    kernel spectrum is freed, and r3 follows.  The densities are built
    on the plain arrays, in place wherever an operand is no longer
    needed.  Each term is ``TestFunction.pair`` of the density's view on
    phi's support box of the kept grid, the same nodes whether that grid
    is the whole interior or a box.  r1 loses the time stencil's rows at
    both ends and is paired on the support rows it keeps.  Outside the
    support phi is 0, and on a box the spatial differences wrap there.
    rho_e may dip below 0 next to exact vacuum; the law reads that as 0
    (see ``PressureLaw``).  Overflow anywhere in a paired density reaches
    its sum, which ``pair`` rejects; the s integrand is checked before
    the vacuum mask drops nodes.
    """
    require_nonnegative(rho, "rho")
    d = rho.grid.spatial_dim
    if u.components != d:
        raise ValueError("u needs one component per spatial axis")
    atol = vacuum_floor(rho)
    moll = Mollification(kernel, rho.grid, box=box, whole_read=whole_read)
    r, v = moll.read(rho)[..., 0], moll.read(u)

    def pressure(rows, _):
        p = law.p(r[rows])
        _require_finite(p)
        return p

    u_e = moll(u)
    grid, u_e = u_e.grid, u_e.values
    m_e = moll.product(lambda rows, i: r[rows] * v[rows, ..., i], d).values
    nt = grid.shape[0]
    support = phi.support(grid) or ((0, 0),) * len(grid.shape)
    space = tuple(slice(lo, hi) for lo, hi in support[1:])

    def diff(vals, axis):
        return _central_diff(vals, axis, grid.spacings[axis])[0]

    # imul, isub and iadd work in place on fresh arrays, and
    # reduce(iadd, ...) sums the per-component arrays into the first
    def pair(dens, trim=0):
        # dens lacks ``trim`` rows at both ends of grid
        t0 = max(support[0][0], trim)
        t1 = max(min(support[0][1], nt - trim), t0)
        if t0 == t1:
            return 0.0
        box = dens[(slice(t0 - trim, t1 - trim),) + space]
        return phi.pair(box[..., None],
                        grid.subgrid(((t0, t1),) + support[1:]), (None,))

    def tensor(i, j):
        # (rho u_i u_j)_e, mollified just before its one use
        mm_ij = moll.product(lambda rows, _: r[rows] * v[rows, ..., i]
                             * v[rows, ..., j], 1).values[..., 0]
        return isub(m_e[..., i] * u_e[..., j], mm_ij)

    def r2_row(i):
        return imul(reduce(iadd, (diff(tensor(i, j), 1 + j) for j in range(d))),
                    u_e[..., i])

    # r2 = u_e . div(m_e (x) u_e - (rho u (x) u)_e), one tensor row at a time
    r2 = pair(reduce(iadd, (r2_row(i) for i in range(d))))

    rho_e = moll(rho).values
    lhs_value = None if lhs is None else lhs(rho_e, u_e, m_e, grid)
    defect = isub(rho_e * u_e, m_e)
    del m_e

    # r1 = u_e . d_t(defect)
    dt_defect, trim = _central_diff(defect, 0, grid.dt)
    dt_defect *= u_e[trim:nt - trim]
    # one component: pair a view instead of a summed copy
    r1 = pair(dt_defect[..., 0] if d == 1 else dt_defect.sum(axis=-1), trim)
    del dt_defect

    # s = P'(rho_e) div(defect), set to 0 on the numerical vacuum
    s_dens = reduce(iadd, (diff(defect[..., i], 1 + i) for i in range(d)))
    del defect
    s_dens *= law.dpotential(rho_e[..., 0])
    if not np.isfinite(s_dens).all():
        raise ValueError("s integrand is not finite")
    np.copyto(s_dens, 0.0, where=rho_e[..., 0] <= atol)
    s = pair(s_dens)
    del s_dens

    # r3 = u_e . grad(p(rho_e) - p(rho)_e)
    p_comm = law.p(rho_e[..., 0])
    del rho_e
    isub(p_comm, moll.product(pressure, 1).values[..., 0])
    del moll
    r3 = pair(reduce(iadd, (imul(diff(p_comm, 1 + j), u_e[..., j])
                            for j in range(d))))

    report = CommutatorReport({"r1": r1, "r2": r2, "r3": r3, "s": s},
                              kernel.epsilon,
                              {"gamma": law.gamma, "kappa": law.kappa,
                               "atol": atol, "phi": phi.kind})
    return report, lhs_value


# ---------------------------------------------------------------------------
# Localized pressure terms with the vacuum split
# ---------------------------------------------------------------------------

def R_S_terms(rho: Field, u: Field, law: PressureLaw,
              kernel: MollifierKernel, phi: TestFunction,
              beta: float) -> CommutatorReport:
    """Localized pressure-gradient term R and mass-flux term S.

    R is evaluated in integrated-by-parts form.  S is reported whole and
    split across the vacuum set (rho_e numerically zero), the thin band
    (0 < rho_e < eps^beta) and its complement; the band/complement split
    applies to the part of S carrying the gradient of P'(rho_e).  The
    product (rho_e - rho)(u_e - u) leading form of the mass-flux defect
    and its gap from the full defect are reported alongside.
    """
    require_nonnegative(rho, "rho")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    moll = Mollification(kernel, rho.grid)
    rho_e, u_e, m_e, p_e = moll(rho), moll(u), moll(rho * u), moll(rho.map(law.p))
    del moll  # free the kernel spectrum before the arithmetic
    sets = build_vacuum_sets(rho, kernel, beta, rho_e=rho_e)
    sub = rho_e.grid
    grad_phi = range(1, 1 + sub.spatial_dim)

    def on(mask, dens):  # dens on the nodes of mask, 0 elsewhere
        return np.where(mask[..., None], dens, 0.0)

    # R = int grad(p(rho_e) - p(rho)_e) . phi u_e, by parts:
    p_comm = (rho_e.map(law.p) - p_e).values
    R = -(phi.pair(p_comm * u_e.values, sub, grad_phi)
          + phi.pair(p_comm * div(u_e).values, sub, (None,)))

    # S in divergence form, vacuum integrand zeroed
    defect = rho_e * u_e - m_e
    dP = law.dpotential(rho_e.values)
    S_total = phi.pair(on(~sets.A, div(defect).values * dP), sub, (None,))

    # by-parts split: grad-phi piece plus grad-P' piece over B and C
    S_gradphi = phi.pair(on(~sets.A, defect.values * dP), sub, grad_phi)
    gradP = _grad_dpotential(rho_e, law, sets.A)
    inner = defect.dot(gradP).values
    S_band = phi.pair(on(sets.B, inner), sub, (None,))
    S_bulk = phi.pair(on(sets.C, inner), sub, (None,))

    # leading product form of the defect
    lead = (rho_e - restrict(rho, sub)) * (u_e - restrict(u, sub))
    S_band_lead = phi.pair(on(sets.B, lead.dot(gradP).values), sub, (None,))

    values = {
        "R": R,
        "S": S_total,
        "S_gradphi": S_gradphi,
        "S_A": 0.0,
        "S_B": S_band,
        "S_C": S_bulk,
        "S_B_leading": S_band_lead,
        "S_B_gap": S_band - S_band_lead,
    }
    return CommutatorReport(values, kernel.epsilon,
                            {"gamma": law.gamma, "beta": beta,
                             "atol": sets.atol,
                             "measure_A": sets.measure("A"),
                             "measure_B": sets.measure("B"),
                             "measure_C": sets.measure("C"),
                             "phi": phi.kind})


def _grad_dpotential(rho_e: Field, law: PressureLaw, vacuum_mask) -> Field:
    """grad P'(rho_e) = (p'(rho_e)/rho_e) grad rho_e, zeroed on the vacuum set."""
    g = grad(rho_e)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = law.dp(rho_e.values) / rho_e.values
    w = np.where(vacuum_mask[..., None], 0.0, w)
    w = np.where(np.isfinite(w), w, 0.0)
    return Field(g.grid, g.values * w)


# ---------------------------------------------------------------------------
# Divergence-measure pressure term
# ---------------------------------------------------------------------------

def divmeasure_pressure_term(rho: Field, u: Field, law: PressureLaw,
                             approx: C2Approximant, kernel: MollifierKernel,
                             phi: TestFunction, eps_ladder=None) -> dict:
    """The two integrals controlling the C2-approximation defect.

    div-term:  int phi [(p_delta - p)(rho)]_e div u_e, bounded by
               sup|phi| * delta * ||div u||_TV-estimate;
    grad-term: int grad(phi) . u_e [(p_delta - p)(rho)]_e, bounded by
               C ||phi||_C1 * delta * ||u||_L3.
    ``div_bound`` and ``grad_bound`` are these gates, 1e-9 relative slack.
    """
    require_nonnegative(rho, "rho")
    gap_field = Field(rho.grid, approx.p(rho.values) - law.p(rho.values))
    moll = Mollification(kernel, rho.grid)
    gap_e, u_e = moll(gap_field), moll(u)
    del moll  # free the kernel spectrum before the arithmetic
    sub = gap_e.grid
    grad_phi = range(1, 1 + sub.spatial_dim)

    div_u_e = div(u_e)
    div_term = phi.pair(gap_e.values * div_u_e.values, sub, (None,))
    grad_term = phi.pair(gap_e.values * u_e.values, sub, grad_phi)

    delta = float(approx.delta)
    realized_gap = float(np.max(np.abs(gap_field.values)))
    if eps_ladder is None:
        tv = lp_norm(div_u_e, 1)
    else:
        tv = tv_divergence_estimate(u, eps_ladder)["sup"]
    u3 = lp_norm(u, 3)
    sup_phi = float(np.max(np.abs(phi.phi_values(sub))))
    sup_gphi = float(np.max(np.sqrt(sum(phi.phi_values(sub, a) ** 2
                                        for a in grad_phi)))) + sup_phi
    return {
        "div_term": div_term,
        "grad_term": grad_term,
        "delta": delta,
        "realized_gap": realized_gap,
        "div_bound": sup_phi * delta * tv * (1 + 1e-9),
        "grad_bound": sup_gphi * delta * u3 * (1 + 1e-9),
    }


# ---------------------------------------------------------------------------
# Degenerate viscosity commutator
# ---------------------------------------------------------------------------

def degenerate_viscosity_commutator(rho: Field, u: Field, mu: float, nu: float,
                                    kernel: MollifierKernel,
                                    phi: TestFunction) -> float:
    """r_d for the density-weighted stress, in integrated-by-parts form.

    M = rho_e S(grad u_e) - (rho S(grad u))_e;
    r_d = - int (M u_e).grad(phi) - int M : grad(u_e) phi.
    """
    if mu <= 0 or nu < 0:
        raise ValueError("mu must be positive, nu non-negative")
    moll = Mollification(kernel, rho.grid)
    rho_e, u_e = moll(rho), moll(u)
    rhoS_e = moll(Field(u.grid, rho.values * ns_stress(u, mu, nu).values))
    del moll  # free the kernel spectrum before the arithmetic
    S_e = ns_stress(u_e, mu, nu)
    M = Field(rho_e.grid, rho_e.values * S_e.values) - rhoS_e

    sub = M.grid
    first = phi.pair(np.array(stress_apply(M, u_e).values), sub,
                     range(1, 1 + sub.spatial_dim))
    second = phi.pair(np.array(stress_contract_grad(M, u_e).values), sub,
                      (None,))
    return -(first + second)
