"""Smooth compactly supported test functions with analytic derivatives.

Four kinds are provided: a space-time bump, a time-only bump, a smooth
time window that climbs from 0 to 1 over a margin nu at both ends, and a
boundary cutoff chi(d(x)/delta) for the unit interval.  All derivatives
are closed-form, so pairing a field against a test function never costs
finite-difference error on the test-function side.

Every kind is a product of 1-D factors, one per axis:
phi(t, x[, y]) = f_0(t) f_1(x) [f_2(y)].  A ``TestFunction`` stores one
``(value, derivative)`` pair of callables per axis, time first; an axis
past the end of ``factors`` is the constant 1, with derivative 0.  One
product, taken in axis order from 1.0, gives phi (all values), d_t phi
(the derivative on axis 0) and each component of grad phi (the
derivative on that spatial axis).  A new kind only supplies its 1-D
factors, written with broadcasting numpy operations.

The pointwise evaluators ``_phi``, ``_dt`` and ``_grad`` take one
coordinate array per axis.  On a grid, ``phi``, ``dt`` and ``grad`` pass
the open mesh of the axis coordinates (time as shape ``(nt, 1[, 1])``,
space as ``(1, nx[, 1])`` and ``(1, 1, ny)``), so each factor costs O(n)
for its own axis and only the final product fills ``grid.shape``.  A
pairing evaluates phi on the grid of its density, such as a shrunk time
subgrid, so nothing is evaluated on the full grid and then cut down.
``support`` reads the node box outside which phi vanishes off the same
factors, one axis at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .grids import Field, GridSpec

def _bump(s: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1-s^2)) on |s|<1, zero outside."""
    s = np.asarray(s, float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si ** 2))
    return out


def _bump_prime(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si ** 2)) * (-2.0 * si) / (1.0 - si ** 2) ** 2
    return out


def _g(s: np.ndarray) -> np.ndarray:
    """exp(-1/s) for s > 0, zero otherwise (the smooth-step ingredient)."""
    s = np.asarray(s, float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def smoothstep(s):
    """0 for s <= 0, 1 for s >= 1, smooth monotone in between."""
    s = np.asarray(s, float)
    a, b = _g(s), _g(1.0 - s)
    with np.errstate(invalid="ignore"):
        out = np.where(a + b > 0, a / np.where(a + b > 0, a + b, 1.0), 0.0)
    return out


def smoothstep_prime(s):
    s = np.asarray(s, float)
    a, b = _g(s), _g(1.0 - s)
    # g'(s) = g(s)/s^2
    with np.errstate(divide="ignore", invalid="ignore"):
        da = np.where(s > 0, a / np.maximum(s, 1e-300) ** 2, 0.0)
        db = np.where(1.0 - s > 0, b / np.maximum(1.0 - s, 1e-300) ** 2, 0.0)
        denom = (a + b) ** 2
        out = np.where(denom > 0, (da * b + a * db) / np.where(denom > 0, denom, 1.0), 0.0)
    return out


def _open_mesh(grid: GridSpec) -> list[np.ndarray]:
    """Per-axis midpoint coordinates shaped to broadcast against each other."""
    return np.meshgrid(*[grid.axis_coords(a) for a in range(len(grid.shape))],
                       indexing="ij", sparse=True)


def _fill(values, grid: GridSpec) -> np.ndarray:
    return np.broadcast_to(np.asarray(values, float), grid.shape)


PAIR_ROWS = 64  # the time rows ``TestFunction.weigh`` takes at a time
# (value, derivative) callables of one axis
Factor = tuple[Callable, Callable]
# the factor of every axis past the end of ``factors``
_ONE: Factor = (lambda z: 1.0, lambda z: 0.0)


@dataclass(frozen=True)
class TestFunction:
    """phi(t, x[, y]) as a product of per-axis factors, time first."""

    kind: str
    params: dict
    factors: tuple[Factor, ...] = dc_field(repr=False, compare=False)

    def factor(self, axis: int) -> Factor:
        return self.factors[axis] if axis < len(self.factors) else _ONE

    def _product(self, coords, deriv_axis: int | None = None):
        """prod_k f_k(z_k), with f_k' on ``deriv_axis``."""
        out = 1.0
        for axis, z in enumerate(coords):
            value, deriv = self.factor(axis)
            out = out * (deriv if axis == deriv_axis else value)(z)
        return out

    def _phi(self, *coords):
        return self._product(coords)

    def _dt(self, *coords):
        return self._product(coords, 0)

    def _grad(self, *coords) -> list:
        return [self._product(coords, a) for a in range(1, len(coords))]

    def support(self, grid: GridSpec) -> tuple[tuple[int, int], ...] | None:
        """Node range ``[lo, hi)`` per axis outside which phi is 0 on ``grid``.

        Read off the 1-D factors: phi is 0 at a node exactly when one
        factor is.  A constant factor spans its whole axis.  None when phi
        is 0 on every node.
        """
        box = []
        for axis in range(len(grid.shape)):
            z = grid.axis_coords(axis)
            nonzero = np.flatnonzero(np.broadcast_to(self.factor(axis)[0](z),
                                                     z.shape))
            if nonzero.size == 0:
                return None
            box.append((int(nonzero[0]), int(nonzero[-1]) + 1))
        return tuple(box)

    def phi(self, grid: GridSpec) -> Field:
        return Field(grid, _fill(self.phi_values(grid), grid))

    def phi_values(self, grid: GridSpec, axis=None) -> np.ndarray:
        """``phi(grid)``, or its derivative on ``axis``, as values that only
        broadcast to ``grid.shape``, neither filled nor scanned."""
        return np.asarray(self._product(_open_mesh(grid), axis), float)

    def weigh(self, values, grid: GridSpec, box, axis=None) -> np.ndarray:
        """``values``, on the node box ``box`` of ``grid``, times phi (or its
        derivative on ``axis``) in place, ``PAIR_ROWS`` time rows at a time."""
        (t0, t1), space = box[0], tuple(box[1:])
        for lo in range(t0, t1, PAIR_ROWS):
            rows = grid.subgrid(((lo, min(lo + PAIR_ROWS, t1)),) + space)
            values[lo - t0:lo - t0 + PAIR_ROWS] *= self.phi_values(rows, axis)
        return values

    def dt(self, grid: GridSpec) -> Field:
        return Field(grid, _fill(self._dt(*_open_mesh(grid)), grid))

    def grad(self, grid: GridSpec) -> Field:
        parts = self._grad(*_open_mesh(grid))
        return Field(grid, np.stack([_fill(p, grid) for p in parts], axis=-1))


def _bump_factor(c: float, r: float) -> Factor:
    return (lambda z: _bump((z - c) / r),
            lambda z: _bump_prime((z - c) / r) / r)


def spacetime_bump(center, radius) -> TestFunction:
    """Product bump: prod_k B((z_k - c_k)/r_k); supported in the box |z-c| < r."""
    center = tuple(float(c) for c in center)
    radius = tuple(float(r) for r in radius)
    if len(center) != len(radius):
        raise ValueError("center and radius must have equal length")
    if any(r <= 0 for r in radius):
        raise ValueError("radii must be positive")
    return TestFunction("bump", {"center": center, "radius": radius, "sup": 1.0},
                        tuple(_bump_factor(c, r) for c, r in zip(center, radius)))


def time_bump(center: float, radius: float) -> TestFunction:
    """Bump in time only, constant 1 in space at the peak."""
    return TestFunction("time_bump", {"center": center, "radius": radius, "sup": 1.0},
                        (_bump_factor(center, radius),))


def time_window(t1: float, t2: float, nu: float) -> TestFunction:
    """Smooth window: 0 outside (t1+nu, t2-nu), 1 on (t1+2nu, t2-2nu).

    Each edge is a smooth step over a margin of width nu, so the time
    integral of the derivative over either edge is exactly +-1.
    """
    if not 0 < 4 * nu < t2 - t1:
        raise ValueError("need t2 - t1 > 4 nu > 0")

    def value(t):
        up = smoothstep((t - t1 - nu) / nu)
        down = smoothstep((t2 - nu - t) / nu)
        return up * down

    def deriv(t):
        up = smoothstep((t - t1 - nu) / nu)
        down = smoothstep((t2 - nu - t) / nu)
        dup = smoothstep_prime((t - t1 - nu) / nu) / nu
        ddown = -smoothstep_prime((t2 - nu - t) / nu) / nu
        return dup * down + up * ddown

    return TestFunction("time_window", {"t1": t1, "t2": t2, "nu": nu, "sup": 1.0},
                        ((value, deriv),))


def boundary_cutoff(delta: float, theta: TestFunction) -> TestFunction:
    """phi = chi(d(x)/delta) * Theta(t, x) on the unit interval.

    chi is 0 for s < 1 and 1 for s > 2 (a shifted smooth step), and
    d(x) = min(x, 1-x) is the distance to the interval boundary.  The cut
    multiplies Theta's space factor, by the product rule for its
    derivative.  Theta may have a time factor and one space factor.
    """
    if delta <= 0 or delta >= 0.25:
        raise ValueError("delta must lie in (0, 0.25)")
    if len(theta.factors) > 2:
        raise ValueError("the interval cutoff takes a Theta of (t, x) only")
    theta_x, dtheta_x = theta.factor(1)

    def cut(x):
        return smoothstep(np.minimum(x, 1.0 - x) / delta - 1.0)

    def dcut(x):
        dprime = np.where(x < 0.5, 1.0, -1.0)
        return smoothstep_prime(np.minimum(x, 1.0 - x) / delta - 1.0) * dprime / delta

    def value(x):
        return theta_x(x) * cut(x)

    def deriv(x):
        return dtheta_x(x) * cut(x) + theta_x(x) * dcut(x)

    return TestFunction("boundary_cutoff",
                        {"delta": delta, "theta": theta.params, "sup": 1.0},
                        (theta.factor(0), (value, deriv)))
