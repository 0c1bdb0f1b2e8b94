"""Smooth compactly supported test functions with analytic derivatives.

Four kinds are provided: a space-time bump, a time-only bump, a smooth
time window that climbs from 0 to 1 over a margin nu at both ends, and a
boundary cutoff chi(d(x)/delta) for the unit interval.  All derivatives
are closed-form, so pairing a field against a test function never costs
finite-difference error on the test-function side.

Evaluation on a grid is separable.  Every kind is a product of per-axis
factors, so ``phi``, ``dt`` and ``grad`` call their closures on the open
mesh of the grid's axis coordinates (time as shape ``(nt, 1[, 1])``,
space as ``(1, nx[, 1])`` and ``(1, 1, ny)``) and only the final product
fills ``grid.shape``.  Each factor costs O(n) for its own axis instead of
O(nt * nx).  A new kind must therefore write its closures with
broadcasting numpy operations that accept per-axis coordinate arrays as
well as equal-shape point arrays; a closure that returns a shape smaller
than the grid is broadcast to it.
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


@dataclass(frozen=True)
class TestFunction:
    """phi(t, x[, y]) with evaluators for phi, d_t phi and grad phi."""

    kind: str
    params: dict
    _phi: Callable = dc_field(repr=False, compare=False, default=None)
    _dt: Callable = dc_field(repr=False, compare=False, default=None)
    _grad: Callable = dc_field(repr=False, compare=False, default=None)

    def phi(self, grid: GridSpec) -> Field:
        return Field(grid, _fill(self._phi(*_open_mesh(grid)), grid))

    def dt(self, grid: GridSpec) -> Field:
        return Field(grid, _fill(self._dt(*_open_mesh(grid)), grid))

    def grad(self, grid: GridSpec) -> Field:
        parts = self._grad(*_open_mesh(grid))
        return Field(grid, np.stack([_fill(p, grid) for p in parts], axis=-1))


def spacetime_bump(center, radius) -> TestFunction:
    """Product bump: prod_k B((z_k - c_k)/r_k); supported in the box |z-c| < r."""
    center = tuple(float(c) for c in center)
    radius = tuple(float(r) for r in radius)
    if len(center) != len(radius):
        raise ValueError("center and radius must have equal length")
    if any(r <= 0 for r in radius):
        raise ValueError("radii must be positive")

    def phi(*coords):
        out = 1.0
        for z, c, r in zip(coords, center, radius):
            out = out * _bump((z - c) / r)
        return out

    def dt(*coords):
        t, c0, r0 = coords[0], center[0], radius[0]
        out = _bump_prime((t - c0) / r0) / r0
        for z, c, r in zip(coords[1:], center[1:], radius[1:]):
            out = out * _bump((z - c) / r)
        return out

    def grad(*coords):
        parts = []
        for a in range(1, len(coords)):
            out = _bump((coords[0] - center[0]) / radius[0])
            for b in range(1, len(coords)):
                z, c, r = coords[b], center[b], radius[b]
                if b == a:
                    out = out * _bump_prime((z - c) / r) / r
                else:
                    out = out * _bump((z - c) / r)
            parts.append(out)
        return parts

    return TestFunction("bump", {"center": center, "radius": radius, "sup": 1.0},
                        phi, dt, grad)


def time_bump(center: float, radius: float) -> TestFunction:
    """Bump in time only, constant 1 in space at the peak."""

    def phi(*coords):
        return _bump((coords[0] - center) / radius)

    def dt(*coords):
        return _bump_prime((coords[0] - center) / radius) / radius

    def grad(*coords):
        return [np.zeros_like(coords[0]) for _ in coords[1:]]

    return TestFunction("time_bump", {"center": center, "radius": radius, "sup": 1.0},
                        phi, dt, grad)


def time_window(t1: float, t2: float, nu: float) -> TestFunction:
    """Smooth window: 0 outside (t1+nu, t2-nu), 1 on (t1+2nu, t2-2nu).

    Each edge is a smooth step over a margin of width nu, so the time
    integral of the derivative over either edge is exactly +-1.
    """
    if not 0 < 4 * nu < t2 - t1:
        raise ValueError("need t2 - t1 > 4 nu > 0")

    def phi(*coords):
        t = coords[0]
        up = smoothstep((t - t1 - nu) / nu)
        down = smoothstep((t2 - nu - t) / nu)
        return up * down

    def dt(*coords):
        t = coords[0]
        up = smoothstep((t - t1 - nu) / nu)
        down = smoothstep((t2 - nu - t) / nu)
        dup = smoothstep_prime((t - t1 - nu) / nu) / nu
        ddown = -smoothstep_prime((t2 - nu - t) / nu) / nu
        return dup * down + up * ddown

    def grad(*coords):
        return [np.zeros_like(coords[0]) for _ in coords[1:]]

    return TestFunction("time_window", {"t1": t1, "t2": t2, "nu": nu, "sup": 1.0},
                        phi, dt, grad)


def boundary_cutoff(delta: float, theta: TestFunction) -> TestFunction:
    """phi = chi(d(x)/delta) * Theta(t) on the unit interval.

    chi is 0 for s < 1 and 1 for s > 2 (a shifted smooth step), and
    d(x) = min(x, 1-x) is the distance to the interval boundary.
    """
    if delta <= 0 or delta >= 0.25:
        raise ValueError("delta must lie in (0, 0.25)")

    def chi(s):
        return smoothstep(np.asarray(s, float) - 1.0)

    def chi_prime(s):
        return smoothstep_prime(np.asarray(s, float) - 1.0)

    def phi(*coords):
        t, x = coords[0], coords[1]
        d = np.minimum(x, 1.0 - x)
        return chi(d / delta) * theta._phi(t, x)

    def dt(*coords):
        t, x = coords[0], coords[1]
        d = np.minimum(x, 1.0 - x)
        return chi(d / delta) * theta._dt(t, x)

    def grad(*coords):
        t, x = coords[0], coords[1]
        d = np.minimum(x, 1.0 - x)
        dprime = np.where(x < 0.5, 1.0, -1.0)
        return [chi_prime(d / delta) * dprime / delta * theta._phi(t, x)]

    return TestFunction("boundary_cutoff",
                        {"delta": delta, "theta": theta.params, "sup": 1.0},
                        phi, dt, grad)
