"""Polytropic pressure laws, the pressure potential, and the pressure commutator.

The law is p(rho) = kappa * rho**gamma with gamma in (1, 2), so p' is
(gamma-1)-Hoelder with p'(0) = 0 and the second derivative blows up at
vacuum like rho**(gamma-2).  The potential P(rho) = rho * int_1^rho
p(r)/r^2 dr has the closed form kappa * (rho**gamma - rho) / (gamma - 1).
Each law reads a density below 0 as 0 (see ``PressureLaw``).
The C2 law p_delta is p's Taylor polynomial below the cut
rho_c = (2 delta / (kappa (gamma-1) (2-gamma)))**(1/gamma): as p''' < 0,
|p - p_delta| peaks at rho = 0, where it is delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    Field,
    Mollification,
    MollifierKernel,
    ladder,
    lp_norm,
    mollify,
    require_nonnegative,
    restrict,
)
from .rates import RateFit, fit_rate, kernels_for_ladder


def _density(rho) -> np.ndarray:
    """max(rho, 0) as a fresh float array that each law method overwrites;
    0-d for a scalar, as numpy's scalar power can differ from its loop."""
    return np.asarray(np.maximum(rho, 0.0), float)


@dataclass(frozen=True)
class PressureLaw:
    """p(rho) = kappa * rho**gamma on the density range [0, inf).

    p(0) = p'(0) = 0, so the law extends below 0 by its value at 0: every
    method reads max(rho, 0), and FFT rounding just below 0 next to exact
    vacuum reads as vacuum.  ``C2Approximant`` follows the same rule.
    """

    gamma: float
    kappa: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.gamma < 2.0:
            raise ValueError("gamma must lie in (1, 2)")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")

    def p(self, rho):
        rho = _density(rho)  # in place: a whole-grid call holds one array
        rho **= self.gamma
        rho *= self.kappa
        return rho[()]  # a scalar for a scalar

    def dp(self, rho):
        rho = _density(rho)
        rho **= self.gamma - 1
        rho *= self.kappa * self.gamma
        return rho[()]

    def potential(self, rho):
        """P(rho), normalized so P(1) = 0; in place, as ``p``."""
        rho = _density(rho)
        np.subtract(rho ** self.gamma, rho, out=rho)
        rho *= self.kappa
        rho /= self.gamma - 1
        return rho[()]

    def dpotential(self, rho):
        """P'(rho) = kappa (gamma rho**(gamma-1) - 1) / (gamma-1), in place."""
        rho = _density(rho)
        rho **= self.gamma - 1
        rho *= self.gamma
        rho -= 1
        rho *= self.kappa
        rho /= self.gamma - 1
        return rho[()]

    def sound_speed(self, rho):
        return np.sqrt(self.dp(rho))


@dataclass(frozen=True)
class C2Approximant:
    """Twice continuously differentiable uniform approximation of the law.

    Below the cut rho_c the law is replaced by its second-order Taylor
    polynomial at rho_c, which keeps p, p', p'' continuous at the junction
    and bounds the second derivative at vacuum.
    """

    delta: float
    base: PressureLaw

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def rho_c(self) -> float:
        """The cut (2 delta / (kappa (gamma-1) (2-gamma)))**(1/gamma)."""
        g, k = self.base.gamma, self.base.kappa
        return (2.0 * self.delta / (k * (g - 1) * (2 - g))) ** (1 / g)

    def p(self, rho):
        rho = _density(rho)
        law = self.base
        below = rho < self.rho_c
        out = law.p(rho)
        d = rho - self.rho_c
        taylor = (law.p(self.rho_c) + law.dp(self.rho_c) * d
                  + 0.5 * self._ddp_c() * d ** 2)
        return np.where(below, taylor, out)

    def dp(self, rho):
        rho = _density(rho)
        law = self.base
        below = rho < self.rho_c
        return np.where(below,
                        law.dp(self.rho_c) + self._ddp_c() * (rho - self.rho_c),
                        law.dp(rho))

    def _ddp_c(self) -> float:
        g, k = self.base.gamma, self.base.kappa
        return k * g * (g - 1) * self.rho_c ** (g - 2)

    def potential(self, rho):
        """P_delta(rho) = rho * int_1^rho p_delta(r)/r^2 dr, in closed form
        as rho (G(rho) - G(1)) for one antiderivative G of p_delta(r)/r^2."""
        rho = _density(rho)
        law = self.base
        rc = self.rho_c
        # expand the Taylor patch as a*r^2 + b*r + c
        a = 0.5 * self._ddp_c()
        b = law.dp(rc) - self._ddp_c() * rc
        c = law.p(rc) - law.dp(rc) * rc + 0.5 * self._ddp_c() * rc ** 2

        def upper(r):   # for r >= rc, the base law's, 0 at r = 1
            return law.kappa * (r ** (law.gamma - 1) - 1) / (law.gamma - 1)

        def G(r):       # below rc: upper(rc) + integral of (a + b/r + c/r^2)
            above = np.asarray(np.maximum(r, rc))  # 0-d: see ``_density``
            rs = np.maximum(r, 1e-300)
            below = (upper(rc) + a * (rs - rc) + b * np.log(rs / rc)
                     - c * (1 / rs - 1 / rc))
            return np.where(r >= rc, upper(above), below)

        return rho * (G(rho) - G(1.0))


def make_c2_approximant(law: PressureLaw, delta: float) -> C2Approximant:
    """The C2 law p_delta with sup |p - p_delta| = delta on [0, inf).

    Below the cut rho_c, p - p_delta is the Taylor remainder of p at
    rho_c.  Since p''' < 0 on (0, inf), it is positive and decreasing on
    [0, rho_c), so it is largest at rho = 0, where it equals
    kappa rho_c**gamma (gamma-1)(2-gamma)/2; above the cut it is 0.  So
    rho_c = (2 delta / (kappa (gamma-1) (2-gamma)))**(1/gamma).
    """
    return C2Approximant(delta, law)


def pressure_commutator(rho: Field, law: PressureLaw,
                        kernel: MollifierKernel) -> Field:
    """Node-wise p_eps(rho) - p(rho_eps) on the shrunk domain.

    Below 0, rho_eps reads as vacuum (see ``PressureLaw``).
    """
    require_nonnegative(rho, "rho")
    moll = Mollification(kernel, rho.grid)
    p_moll, rho_moll = moll(rho.map(law.p)), moll(rho)
    del moll  # free the kernel spectrum before the arithmetic
    return p_moll - rho_moll.map(law.p)


def commutator_rate(rho: Field, law: PressureLaw, q: float,
                    eps_ladder) -> RateFit:
    """RateFit of ||p_eps(rho) - p(rho_eps)||_Lq against eps.

    For a density of shift regularity beta the fitted exponent should stay
    at or above gamma*beta even when the density touches zero.
    """
    require_nonnegative(rho, "rho")
    if q < 1:
        raise ValueError("q must be >= 1")
    return fit_rate(ladder(
        kernels_for_ladder(rho.grid, eps_ladder), (rho.map(law.p), rho),
        lambda ker, p_moll, rho_moll: (
            ker.epsilon, lp_norm(p_moll - rho_moll.map(law.p), q))))


def holder_remainder_bound(rho: Field, law: PressureLaw,
                           kernel: MollifierKernel) -> dict:
    """Node-wise check |p(rho_e) - p(rho) - p'(rho)(rho_e - rho)| <= C |rho - rho_e|^gamma.

    The analytic constant is kappa (from integrating the Hoelder modulus
    of p'); the empirical worst ratio is returned with ``bound``, the gate
    kappa (1 + 1e-9) for it.
    """
    require_nonnegative(rho, "rho")
    re = mollify(rho, kernel)
    r0 = restrict(rho, re.grid)
    lhs = np.abs(law.p(re.values) - law.p(r0.values)
                 - law.dp(r0.values) * (re.values - r0.values))
    gap = np.abs(r0.values - re.values) ** law.gamma
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(gap > 0, lhs / gap, 0.0)
    worst = float(np.max(ratio))
    return {"worst_ratio": worst, "constant": law.kappa,
            "bound": law.kappa * (1 + 1e-9)}
