"""Log-log rate fits, epsilon ladders and the total-variation estimate
of a divergence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    Field,
    HeldField,
    Mollification,
    MollifierKernel,
    div,
    lp_norm,
    make_mollifier,
)

DEGENERATE_FLOOR = 1e-14


@dataclass(frozen=True)
class RateFit:
    """Fitted power law value ~ constant * eps**exponent on a window."""

    samples: tuple[tuple[float, float], ...]
    exponent: float
    constant: float
    r_squared: float
    window: tuple[int, int]
    degenerate: bool = False


def default_window(n: int) -> tuple[int, int]:
    """Drop the two coarsest and the finest sample when the ladder allows.

    Shrinks the exclusions (finest first, then coarsest) until at least
    four samples remain.
    """
    lo, hi = 2, 1
    while n - lo - hi < 4 and hi > 0:
        hi -= 1
    while n - lo - hi < 4 and lo > 0:
        lo -= 1
    return lo, n - hi


def fit_rate(samples, window: tuple[int, int] | None = None) -> RateFit:
    """Least-squares line through (log eps, log value)."""
    samples = tuple((float(e), float(v)) for e, v in samples)
    eps = np.array([s[0] for s in samples])
    vals = np.array([s[1] for s in samples])
    if np.any(np.diff(eps) >= 0):
        raise ValueError("epsilon ladder must be strictly decreasing")
    if np.any(vals < 0):
        raise ValueError("rate samples must be non-negative")
    if window is None:
        window = default_window(len(samples))
    lo, hi = window
    e, v = eps[lo:hi], vals[lo:hi]
    keep = v > DEGENERATE_FLOOR
    if keep.sum() < 4:
        return RateFit(samples, exponent=0.0, constant=0.0, r_squared=0.0,
                       window=(lo, hi), degenerate=True)
    x, y = np.log(e[keep]), np.log(v[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateFit(samples, exponent=float(slope),
                   constant=float(np.exp(intercept)),
                   r_squared=max(0.0, min(1.0, r2)), window=(lo, hi))


# ---------------------------------------------------------------------------
# Mollification rate studies
# ---------------------------------------------------------------------------

def _check_ladder(eps_ladder) -> list[float]:
    eps = [float(e) for e in eps_ladder]
    if len(eps) < 5:
        raise ValueError("epsilon ladder needs at least 5 entries")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon ladder must decrease")
    return eps


def kernels_for_ladder(grid, eps_ladder) -> list[MollifierKernel]:
    return [make_mollifier(e, 1 + grid.spatial_dim, grid)
            for e in _check_ladder(eps_ladder)]


def tv_divergence_estimate(u: Field, eps_ladder) -> dict:
    """sup over the ladder of ||div u_eps||_L1; stabilization = measure divergence.

    Returns the sup, the per-epsilon values and a growth fit; a clearly
    negative growth exponent of eps (values increasing as eps decreases)
    signals div u falling outside the measure class.
    """
    if u.components != u.grid.spatial_dim:
        raise ValueError("u must be vector-valued with d components")
    held, samples = HeldField(u), []
    for ker in kernels_for_ladder(u.grid, eps_ladder):
        ue = Mollification(ker, u.grid)(held)
        samples.append((ker.epsilon, lp_norm(div(ue), 1)))
    fit = fit_rate(samples, window=(0, len(samples)))
    values = [v for _, v in samples]
    return {
        "sup": max(values),
        "samples": samples,
        "growth_exponent": fit.exponent,
    }
