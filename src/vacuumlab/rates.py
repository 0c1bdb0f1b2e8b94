"""Shift-scan Besov seminorms, mollification rate checks, log-log fits.

The shift scan replaces the supremum over all offsets by a deterministic
dyadic ladder (per-axis and diagonal directions), so every seminorm here
is a certified lower estimate of the true value; the ladder is part of
the reproducibility record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    Field,
    MollifierKernel,
    div,
    lp_norm,
    make_mollifier,
    mollify,
    restrict,
    shift,
    spacetime_gradient_norm,
)

DEGENERATE_FLOOR = 1e-14


@dataclass(frozen=True)
class BesovEstimate:
    alpha: float
    p: float
    seminorm: float
    scan_shifts: tuple[tuple[float, ...], ...]
    argmax_shift: tuple[float, ...]

    def __post_init__(self):
        if self.seminorm < 0:
            raise ValueError("seminorm must be non-negative")
        if self.argmax_shift not in self.scan_shifts:
            raise ValueError("argmax shift must come from the scan ladder")


@dataclass(frozen=True)
class RateFit:
    """Fitted power law value ~ constant * eps**exponent on a window."""

    samples: tuple[tuple[float, float], ...]
    exponent: float
    constant: float
    r_squared: float
    window: tuple[int, int]
    degenerate: bool = False

    def as_dict(self) -> dict:
        return {
            "samples": [list(s) for s in self.samples],
            "exponent": self.exponent,
            "constant": self.constant,
            "r_squared": self.r_squared,
            "window": list(self.window),
            "degenerate": self.degenerate,
        }


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
# Shift-scan seminorm
# ---------------------------------------------------------------------------

def _scan_offsets(grid, shift_budget: int) -> list[tuple[float, ...]]:
    """Deterministic dyadic ladder of node-aligned offsets.

    Directions: each axis alone plus the main diagonal; magnitudes run
    dyadically from one spacing up to a quarter of each extent.
    """
    naxes = len(grid.shape)
    directions = [tuple(int(a == b) for b in range(naxes)) for a in range(naxes)]
    directions.append((1,) * naxes)
    rungs = max(2, shift_budget // len(directions))
    offsets: list[tuple[float, ...]] = []
    seen = set()
    for d in directions:
        kmax = min(n // 4 for n, on in zip(grid.shape, d) if on)
        ks = np.unique(np.round(np.geomspace(1, max(1, kmax), rungs)).astype(int))
        for k in ks:
            off = tuple(k * h * on for h, on in zip(grid.spacings, d))
            if off not in seen:
                seen.add(off)
                offsets.append(off)
    return offsets


def besov_seminorm(field: Field, alpha: float, p: float,
                   shift_budget: int = 32) -> BesovEstimate:
    """max over the scan ladder of ||w(.+xi) - w||_p(overlap) / |xi|^alpha."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if shift_budget < 16:
        raise ValueError("shift_budget must be at least 16")
    offsets = _scan_offsets(field.grid, shift_budget)
    best, best_off = -1.0, offsets[0]
    for off in offsets:
        shifted = shift(field, off)
        diff = shifted - restrict(field, shifted.grid)
        mag = float(np.sqrt(sum(o * o for o in off)))
        val = lp_norm(diff, p) / mag ** alpha
        if val > best:
            best, best_off = val, off
    return BesovEstimate(alpha=alpha, p=p, seminorm=best,
                         scan_shifts=tuple(offsets), argmax_shift=best_off)


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


def mollification_error_rate(field: Field, p: float, eps_ladder,
                             window: tuple[int, int] | None = None) -> RateFit:
    """RateFit of ||w_eps - w||_p on the shrunk domain against eps."""
    samples = []
    for ker in kernels_for_ladder(field.grid, eps_ladder):
        we = mollify(field, ker)
        diff = we - restrict(field, we.grid)
        samples.append((ker.epsilon, lp_norm(diff, p)))
    return fit_rate(samples, window)


def gradient_blowup_rate(field: Field, p: float, eps_ladder,
                         window: tuple[int, int] | None = None) -> RateFit:
    """RateFit of the space-time gradient norm of w_eps against eps."""
    samples = []
    for ker in kernels_for_ladder(field.grid, eps_ladder):
        we = mollify(field, ker)
        gmag = spacetime_gradient_norm(we.component(0))
        if field.components > 1:
            acc = gmag.values[..., 0] ** 2
            for c in range(1, field.components):
                g = spacetime_gradient_norm(we.component(c))
                acc = acc + g.values[..., 0] ** 2
            gmag = Field(gmag.grid, np.sqrt(acc))
        samples.append((ker.epsilon, lp_norm(gmag, p)))
    return fit_rate(samples, window)


def tv_divergence_estimate(u: Field, eps_ladder) -> dict:
    """sup over the ladder of ||div u_eps||_L1; stabilization = measure divergence.

    Returns the sup, the per-epsilon values and a growth fit; a clearly
    negative growth exponent of eps (values increasing as eps decreases)
    signals div u falling outside the measure class.
    """
    if u.components != u.grid.spatial_dim:
        raise ValueError("u must be vector-valued with d components")
    samples = []
    for ker in kernels_for_ladder(u.grid, eps_ladder):
        ue = mollify(u, ker)
        samples.append((ker.epsilon, lp_norm(div(ue), 1)))
    fit = fit_rate(samples, window=(0, len(samples)))
    values = [v for _, v in samples]
    return {
        "sup": max(values),
        "samples": samples,
        "growth_exponent": fit.exponent,
        "stabilizes": bool(fit.degenerate or fit.exponent > -0.2),
    }
