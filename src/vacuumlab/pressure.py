"""Polytropic pressure laws, the pressure potential, and the pressure commutator.

The law is p(rho) = kappa * rho**gamma with gamma in (1, 2), so p' is
(gamma-1)-Hoelder with p'(0) = 0 and the second derivative blows up at
vacuum like rho**(gamma-2).  The potential P(rho) = rho * int_1^rho
p(r)/r^2 dr has the closed form kappa * (rho**gamma - rho) / (gamma - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativityError
from .grids import Field, Mollification, MollifierKernel, lp_norm, mollify, restrict
from .rates import RateFit, fit_rate, kernels_for_ladder


@dataclass(frozen=True)
class PressureLaw:
    gamma: float
    kappa: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.gamma < 2.0:
            raise ValueError("gamma must lie in (1, 2)")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")

    def p(self, rho):
        return self.kappa * np.asarray(rho, float) ** self.gamma

    def dp(self, rho):
        return self.kappa * self.gamma * np.asarray(rho, float) ** (self.gamma - 1)

    def potential(self, rho):
        """P(rho), normalized so P(1) = 0."""
        rho = np.asarray(rho, float)
        return self.kappa * (rho ** self.gamma - rho) / (self.gamma - 1)

    def dpotential(self, rho):
        """P'(rho) = kappa * (gamma * rho**(gamma-1) - 1) / (gamma - 1)."""
        rho = np.asarray(rho, float)
        return self.kappa * (self.gamma * rho ** (self.gamma - 1) - 1) / (self.gamma - 1)

    def sound_speed(self, rho):
        return np.sqrt(self.dp(np.asarray(rho, float)))


@dataclass(frozen=True)
class C2Approximant:
    """Twice continuously differentiable uniform approximation of the law.

    Below the cut rho_c the law is replaced by its second-order Taylor
    polynomial at rho_c, which keeps p, p', p'' continuous at the junction
    and bounds the second derivative at vacuum.
    """

    delta: float
    base: PressureLaw
    rho_c: float

    def p(self, rho):
        rho = np.asarray(rho, float)
        law = self.base
        below = rho < self.rho_c
        out = law.p(rho)
        d = rho - self.rho_c
        taylor = (law.p(self.rho_c) + law.dp(self.rho_c) * d
                  + 0.5 * self._ddp_c() * d ** 2)
        return np.where(below, taylor, out)

    def dp(self, rho):
        rho = np.asarray(rho, float)
        law = self.base
        below = rho < self.rho_c
        return np.where(below,
                        law.dp(self.rho_c) + self._ddp_c() * (rho - self.rho_c),
                        law.dp(rho))

    def ddp(self, rho):
        rho = np.asarray(rho, float)
        law = self.base
        g, k = law.gamma, law.kappa
        return np.where(rho < self.rho_c, self._ddp_c(),
                        k * g * (g - 1) * np.maximum(rho, self.rho_c) ** (g - 2))

    def _ddp_c(self) -> float:
        g, k = self.base.gamma, self.base.kappa
        return k * g * (g - 1) * self.rho_c ** (g - 2)

    def sup_gap(self, rho_max: float, n: int = 20001) -> float:
        """Dense-sample estimate of sup |p - p_delta| on [0, rho_max]."""
        s = np.linspace(0.0, rho_max, n)
        return float(np.max(np.abs(self.base.p(s) - self.p(s))))

    def potential(self, rho):
        """P_delta(rho) = rho * int_1^rho p_delta(r)/r^2 dr, closed form."""
        rho = np.asarray(rho, float)
        law = self.base
        rc = self.rho_c
        # expand the Taylor patch as a*r^2 + b*r + c
        a = 0.5 * self._ddp_c()
        b = law.dp(rc) - self._ddp_c() * rc
        c = law.p(rc) - law.dp(rc) * rc + 0.5 * self._ddp_c() * rc ** 2
        # antiderivative of p_delta(r)/r^2 with F(1) = 0; rc <= 1 assumed
        def upper(r):   # for r >= rc, matches the base law
            return law.kappa * (r ** (law.gamma - 1) - 1) / (law.gamma - 1)

        def lower(r):   # for 0 < r < rc: integral of (a + b/r + c/r^2)
            rs = np.maximum(r, 1e-300)
            return upper(rc) + a * (rs - rc) + b * np.log(rs / rc) - c * (1 / rs - 1 / rc)

        F = np.where(rho >= rc, upper(np.maximum(rho, rc)), lower(rho))
        return rho * F


def make_c2_approximant(law: PressureLaw, delta: float,
                        rho_max: float = 10.0) -> C2Approximant:
    """Choose the Taylor cut so the uniform gap on [0, rho_max] is <= delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    # gap scales like rho_c**gamma; bisect the cut downwards from rho_max
    lo, hi = 0.0, rho_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == 0.0:
            break
        gap = C2Approximant(delta, law, mid).sup_gap(rho_max, 4001)
        if gap > delta:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-15 * rho_max:
            break
    rho_c = lo if lo > 0 else hi * 0.5
    approx = C2Approximant(delta, law, rho_c)
    if approx.sup_gap(rho_max) > delta * (1 + 1e-6):
        # one safety notch down
        approx = C2Approximant(delta, law, rho_c * 0.9)
    return approx


def _require_nonnegative(rho: Field) -> None:
    if float(rho.values.min()) < 0:
        raise NegativityError("density has negative samples")


def pressure_commutator(rho: Field, law: PressureLaw,
                        kernel: MollifierKernel) -> Field:
    """Node-wise p_eps(rho) - p(rho_eps) on the shrunk domain.

    The law is applied to max(rho_eps, 0): FFT rounding can leave rho_eps
    slightly negative next to exact vacuum.
    """
    _require_nonnegative(rho)
    moll = Mollification(kernel, rho.grid)
    p_moll, rho_moll = moll(rho.map(law.p)), moll(rho)
    del moll  # free the kernel spectrum before the arithmetic
    return p_moll - rho_moll.map(lambda r: law.p(np.maximum(r, 0.0)))


def commutator_rate(rho: Field, law: PressureLaw, q: float, eps_ladder,
                    window: tuple[int, int] | None = None) -> RateFit:
    """RateFit of ||p_eps(rho) - p(rho_eps)||_Lq against eps.

    For a density of shift regularity beta the fitted exponent should stay
    at or above gamma*beta even when the density touches zero.
    """
    _require_nonnegative(rho)
    if q < 1:
        raise ValueError("q must be >= 1")
    samples = []
    for ker in kernels_for_ladder(rho.grid, eps_ladder):
        comm = pressure_commutator(rho, law, ker)
        samples.append((ker.epsilon, lp_norm(comm, q)))
    return fit_rate(samples, window)


def holder_remainder_bound(rho: Field, law: PressureLaw,
                           kernel: MollifierKernel) -> dict:
    """Node-wise check |p(rho_e) - p(rho) - p'(rho)(rho_e - rho)| <= C |rho - rho_e|^gamma.

    The analytic constant is kappa (from integrating the Hoelder modulus
    of p'); the empirical worst ratio is returned alongside the verdict.
    p(rho_e) is taken at max(rho_e, 0), as in ``pressure_commutator``.
    """
    _require_nonnegative(rho)
    re = mollify(rho, kernel)
    r0 = restrict(rho, re.grid)
    lhs = np.abs(law.p(np.maximum(re.values, 0.0)) - law.p(r0.values)
                 - law.dp(r0.values) * (re.values - r0.values))
    gap = np.abs(r0.values - re.values) ** law.gamma
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(gap > 0, lhs / gap, 0.0)
    worst = float(np.max(ratio))
    return {"worst_ratio": worst, "constant": law.kappa,
            "holds": worst <= law.kappa * (1 + 1e-9)}
