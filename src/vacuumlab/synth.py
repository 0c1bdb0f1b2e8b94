"""Generators of test inputs.

Lacunary cosine fields with a prescribed shift-regularity exponent,
vacuum-touching density profiles, exact smooth and discontinuous 1D flow
solutions, and the viscous stress assembly.  Everything is deterministic
under a recorded seed.

The lacunary fields are evaluated separably: every level is a product of
one complex exponential per axis, so synthesis costs O(levels * n) per
axis plus one contraction over the levels into the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import AdmissibilityError, BlowupTimeError, ResolutionError
from .grids import Field, GridSpec, _bisect, dspace, from_function
from .pressure import PressureLaw


# ---------------------------------------------------------------------------
# Lacunary cosine fields with tunable regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeierstrassSpec:
    """Sum of dyadic cosines 2^(-alpha j) cos(2 pi k_j.(x,t) + theta_j)."""

    alpha: float
    levels: int = 10
    base_frequency: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.levels < 8:
            raise ValueError("need at least 8 levels")
        if self.base_frequency < 1:
            raise ValueError("base frequency must be a positive integer")


def weierstrass_field(spec: WeierstrassSpec, grid: GridSpec,
                      floor: float = 0.0) -> Field:
    """Sample the lacunary sum, then shift so the minimum equals ``floor``.

    Spatial wavenumbers are integers (periodicity on the torus); the
    direction of each level is randomized from the seed to avoid
    axis-aligned artifacts in shift scans.

    Each level factors along the axes as
    2^(-alpha j) Re(e^{i(2 pi k_t t + theta_j)} e^{2 pi i k.x}).
    """
    rng = np.random.default_rng(spec.seed)
    d = grid.spatial_dim
    t = grid.axis_coords(0) / grid.extents[0]
    xs = [grid.axis_coords(1 + a) / grid.extents[1 + a] for a in range(d)]

    time_factors, space_factors = [], []
    for j in range(spec.levels):
        mag = spec.base_frequency * 2 ** j
        for n in grid.shape:
            if mag >= n // 2:
                raise ResolutionError(
                    f"level {j} frequency {mag} reaches Nyquist of axis size {n}"
                )
        theta = rng.uniform(0.0, 2.0 * np.pi)
        if d == 1:
            sign = 1 if rng.random() < 0.5 else -1
            ks = [sign * mag]
        else:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            k1 = int(round(mag * np.cos(angle)))
            k2 = int(round(mag * np.sin(angle)))
            if k1 == 0 and k2 == 0:
                k1 = mag
            ks = [k1, k2]
        kt = mag * rng.uniform(-1.0, 1.0)
        time_factors.append(2.0 ** (-spec.alpha * j)
                            * np.exp(1j * (2.0 * np.pi * kt * t + theta)))
        space_factors.append(reduce(np.multiply.outer,
                                    [np.exp(2j * np.pi * k * x)
                                     for k, x in zip(ks, xs)]))

    # Re(sum_j a_j b_j) = sum_j (Re a_j Re b_j - Im a_j Im b_j), one real
    # contraction over the stacked level axis
    a = np.stack(time_factors)
    b = np.stack(space_factors).reshape(spec.levels, -1)
    total = np.einsum("jt,js->ts", np.concatenate([a.real, -a.imag]),
                      np.concatenate([b.real, b.imag])).reshape(grid.shape)

    total = total - total.min() + floor
    return Field(grid, total)


# ---------------------------------------------------------------------------
# Vacuum-touching density profiles
# ---------------------------------------------------------------------------

def vacuum_profile(kind: str, m: float, grid: GridSpec,
                   x0: float = 0.5) -> Field:
    """1D-style density with a controlled descent rate into vacuum.

    ``power``: rho = |x - x0|^m near an isolated zero (periodic distance);
    ``sine-power``: rho = |sin(pi x / L)|^m with zeros at x = 0 mod L.
    Both are constant in time.
    """
    if m <= 0:
        raise ValueError("descent exponent m must be positive")
    L = grid.extents[1]

    if kind == "power":
        def fn(t, x, *rest):
            dist = np.abs((x - x0 + L / 2) % L - L / 2)
            return dist ** m
    elif kind == "sine-power":
        def fn(t, x, *rest):
            return np.abs(np.sin(np.pi * x / L)) ** m
    else:
        raise ValueError("kind must be 'power' or 'sine-power'")
    return from_function(grid, fn)


# ---------------------------------------------------------------------------
# Exact solutions
# ---------------------------------------------------------------------------

# simple_wave's Newton iteration runs over blocks of time rows of about
# this size, so a block and its temporaries stay in cache.
_NEWTON_BLOCK_BYTES = 1 << 18


def simple_wave(law: PressureLaw, amplitude: float, grid: GridSpec,
                rho0: float = 1.0, u0: float = 0.0) -> tuple[Field, Field]:
    """Right-moving 1D simple wave: u = u0 + 2(c(rho) - c(rho0))/(gamma-1).

    The initial density rho0 + amplitude*sin(2 pi x / L) is transported
    along straight characteristics with speed lambda = u + c; the
    construction is valid strictly before the characteristics cross, at
    t* = 1 / max(-d lambda / d x0), which is enforced.  With A the
    amplitude, k = 2 pi / L and m = (gamma-3)/2, d lambda / d x0 is
    (gamma+1)/2 sqrt(kappa gamma) A k rho^m cos(k x0); it is least where
    s = sin(k x0) is the root 2 m A / (rho0 + sqrt(rho0^2 + 4 m (1+m) A^2))
    in (-1, 0) of (1+m) A s^2 + rho0 s - m A = 0 and cos(k x0) < 0.

    Each node's foot x0 of its characteristic solves x0 + lambda(x0) t = x
    by Newton's method.  Every iteration sweeps blocks of about
    ``_NEWTON_BLOCK_BYTES`` of whole time rows in turn, and the loop stops
    once the largest step over all blocks is below 1e-14 L; every node
    thus takes the same iterations on the same operands as in one sweep
    over the whole grid, and the result is the same bit for bit.  Every
    node starts at x0 = x, so the first iteration's sin, cos and power
    are evaluated once per column, on one row, with the same operands.
    """
    if grid.spatial_dim != 1:
        raise ValueError("simple waves are one-dimensional")
    if amplitude < 0 or amplitude >= rho0:
        raise ValueError("amplitude must lie in [0, rho0)")
    L = grid.extents[1]
    g = law.gamma

    def c(r):
        return law.sound_speed(r)

    def u_of_rho(r):
        return u0 + 2.0 * (c(r) - c(rho0)) / (g - 1.0)

    def rho_init(x0):
        return rho0 + amplitude * np.sin(2.0 * np.pi * x0 / L)

    # c = sqrt(kappa gamma) rho^((gamma-1)/2), lambda = u + c and
    # d lambda / d rho = u'(rho) + c'(rho) = (gamma+1)/2 * c/rho.
    k = 2.0 * np.pi / L
    c_scale = np.sqrt(law.kappa * g)
    if amplitude > 0:
        # crossing time 1 / max(-d lambda / d x0), in closed form
        m = 0.5 * (g - 3.0)
        s = 2.0 * m * amplitude / (rho0 + np.sqrt(
            rho0 ** 2 + 4.0 * m * (1.0 + m) * amplitude ** 2))
        rate = (0.5 * (g + 1.0) * c_scale * amplitude * k
                * (rho0 + amplitude * s) ** m * np.sqrt(1.0 - s * s))
        t_star = 1.0 / rate
        if grid.t_end >= t_star:
            raise BlowupTimeError(
                f"final time {grid.t_end:.4g} >= characteristic crossing "
                f"time {t_star:.4g}"
            )

    tt = grid.axis_coords(0)[:, None]
    xx = grid.axis_coords(1)[None, :]
    x0 = np.broadcast_to(xx, grid.shape).copy()
    # Newton iteration for x0 + lambda(x0) t = x
    lam0 = u0 - 2.0 * c(rho0) / (g - 1.0)
    # The temporaries are reused buffers; each in-place step is one
    # operation of
    #   f = x0 + (lam0 + (g+1)/(g-1) * cr) * t - x
    #   jac = 1 + (g+1)/2 * cr / r * (k * amplitude * cos(k x0)) * t
    # in that order (with commuted operands), so the bits are the same.

    def before_t(xb, angle, r, f, jac):
        """f and jac up to their factor t, in place, at the feet xb."""
        np.multiply(xb, k, out=angle)
        np.sin(angle, out=r)
        r *= amplitude
        r += rho0
        cr = r ** (0.5 * (g - 1.0))
        cr *= c_scale
        np.multiply(cr, (g + 1.0) / (g - 1.0), out=f)
        f += lam0
        np.multiply(cr, 0.5 * (g + 1.0), out=jac)
        jac /= r
        np.cos(angle, out=angle)
        angle *= k * amplitude
        jac *= angle

    # every foot starts at x0 = x, so the first iteration's f and jac up
    # to t depend on x alone: one row of them serves every time row
    first = np.empty((4, 1) + grid.shape[1:])
    before_t(xx, *first)
    rows = max(1, _NEWTON_BLOCK_BYTES // x0[0].nbytes)
    blocks = [slice(a, a + rows) for a in range(0, grid.shape[0], rows)]
    buffers = np.empty((4, min(rows, grid.shape[0])) + grid.shape[1:])
    for step in range(60):
        largest = 0.0
        for b in blocks:
            xb, tb = x0[b], tt[b]
            angle, r, f, jac = (buf[:len(xb)] for buf in buffers)
            if step:
                before_t(xb, angle, r, f, jac)
            else:
                np.copyto(f, first[2])
                np.copyto(jac, first[3])
            f *= tb
            f += xb
            f -= xx
            jac *= tb
            jac += 1.0
            f /= jac  # the Newton step
            xb -= f
            largest = max(largest, float(np.abs(f, out=f).max()))
        if largest < 1e-14 * L:
            break
    rho = rho_init(x0)
    return Field(grid, rho), Field(grid, u_of_rho(rho))


# ---------------------------------------------------------------------------
# Riemann problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiemannSpec:
    rho_l: float
    u_l: float
    rho_r: float
    u_r: float
    law: PressureLaw

    def __post_init__(self):
        if self.rho_l <= 0 or self.rho_r <= 0:
            raise ValueError("Riemann states need positive density")


def _wave_fn(law: PressureLaw, rho_m: float, rho_s: float) -> float:
    """Velocity drop across one wave connecting rho_s to rho_m.

    Rarefaction (rho_m < rho_s): integral of c/rho in closed form.
    Shock (rho_m > rho_s): Rankine-Hugoniot velocity jump.
    """
    g = law.gamma
    if rho_m <= rho_s:
        return 2.0 * (law.sound_speed(rho_m) - law.sound_speed(rho_s)) / (g - 1.0)
    dp = law.p(rho_m) - law.p(rho_s)
    return float(np.sqrt(dp * (rho_m - rho_s) / (rho_m * rho_s)))


def solve_middle_state(spec: RiemannSpec) -> float:
    """Density of the middle state: the root of the decreasing ``eq``."""
    law = spec.law

    def eq(rho_m):
        return (spec.u_l - _wave_fn(law, rho_m, spec.rho_l)
                - (spec.u_r + _wave_fn(law, rho_m, spec.rho_r)))

    lo = 1e-10
    hi = max(spec.rho_l, spec.rho_r)
    if eq(lo) < 0:
        raise AdmissibilityError("states open a vacuum region")
    while eq(hi) > 0:
        hi *= 2.0
        if hi > 1e12:
            raise AdmissibilityError("no intermediate state found")
    return float(_bisect(lambda rho_m: eq(rho_m) > 0.0, lo, hi))


def shock_states(law: PressureLaw, rho_l: float, rho_r: float,
                 family: int, u_l: float = 0.0) -> RiemannSpec:
    """Rankine-Hugoniot-matched states carrying a single admissible shock.

    Family 1 (speed u - c) requires the density to increase left to
    right; family 2 (speed u + c) the reverse.  The Lax inequalities are
    verified on the constructed states.
    """
    if family not in (1, 2):
        raise ValueError("family must be 1 or 2")
    if family == 1 and rho_l >= rho_r:
        raise AdmissibilityError("a 1-shock needs rho_l < rho_r")
    if family == 2 and rho_l <= rho_r:
        raise AdmissibilityError("a 2-shock needs rho_l > rho_r")
    dp = law.p(rho_l) - law.p(rho_r)
    jump = float(np.sqrt(dp * (rho_l - rho_r) / (rho_l * rho_r)))
    # mass flux m = rho(u - sigma): positive for family 1, negative for 2
    u_r = u_l - jump if family == 1 else u_l + jump
    spec = RiemannSpec(rho_l, u_l, rho_r, u_r, law)
    sigma = (rho_l * u_l - rho_r * u_r) / (rho_l - rho_r)
    cl, cr = law.sound_speed(rho_l), law.sound_speed(rho_r)
    if family == 1:
        lax = u_l - cl > sigma > u_r - cr
    else:
        lax = u_l + cl > sigma > u_r + cr
    if not lax:
        raise AdmissibilityError("constructed states violate the Lax conditions")
    return spec


def shock_dissipation(law: PressureLaw, rho_l, u_l, rho_r, u_r) -> float:
    """Closed-form energy dissipation rate across one shock.

    With the bracket [g] = g_left - g_right, D = sigma [E] - [F_E]; the
    value is strictly negative for admissible shocks.
    """
    if abs(rho_l - rho_r) < 1e-14:
        return 0.0
    sigma = (rho_l * u_l - rho_r * u_r) / (rho_l - rho_r)

    def E(r, u):
        return 0.5 * r * u ** 2 + law.potential(r)

    def F(r, u):
        return (0.5 * r * u ** 2 + law.p(r) + law.potential(r)) * u

    return float(sigma * (E(rho_l, u_l) - E(rho_r, u_r))
                 - (F(rho_l, u_l) - F(rho_r, u_r)))


def riemann_solution(spec: RiemannSpec, grid: GridSpec,
                     x_center: float | None = None
                     ) -> tuple[Field, Field, float]:
    """Exact self-similar solution sampled on the grid, plus total dissipation.

    The initial discontinuity sits at ``x_center`` (default mid-domain so
    the waves stay clear of the periodic re-entry over the grid's time
    span).  Shocks are sampled sharply: each node takes the one-sided
    state of its cell midpoint.
    """
    if grid.spatial_dim != 1:
        raise ValueError("Riemann sampling is one-dimensional")
    law = spec.law
    g = law.gamma
    L = grid.extents[1]
    xc = 0.5 * L if x_center is None else float(x_center)

    rho_m = solve_middle_state(spec)
    u_m = spec.u_l - _wave_fn(law, rho_m, spec.rho_l)
    dissipation = 0.0

    tt, xx = grid.meshgrid()
    xi = (xx - xc) / tt
    rho = np.empty(grid.shape)
    u = np.empty(grid.shape)

    # family-1 wave (left)
    cl = float(law.sound_speed(spec.rho_l))
    cm = float(law.sound_speed(rho_m))
    if rho_m > spec.rho_l:        # 1-shock
        s1_lo = s1_hi = (spec.rho_l * spec.u_l - rho_m * u_m) / (spec.rho_l - rho_m)
        dissipation += shock_dissipation(law, spec.rho_l, spec.u_l, rho_m, u_m)
    else:                          # 1-rarefaction fan
        s1_lo, s1_hi = spec.u_l - cl, u_m - cm
    # family-2 wave (right)
    cr = float(law.sound_speed(spec.rho_r))
    if rho_m > spec.rho_r:        # 2-shock
        s2_lo = s2_hi = (rho_m * u_m - spec.rho_r * spec.u_r) / (rho_m - spec.rho_r)
        dissipation += shock_dissipation(law, rho_m, u_m, spec.rho_r, spec.u_r)
    else:
        s2_lo, s2_hi = u_m + cm, spec.u_r + cr

    left = xi < s1_lo
    fan1 = (xi >= s1_lo) & (xi < s1_hi)
    mid = (xi >= s1_hi) & (xi <= s2_lo)
    fan2 = (xi > s2_lo) & (xi <= s2_hi)
    right = xi > s2_hi

    rho[left], u[left] = spec.rho_l, spec.u_l
    rho[mid], u[mid] = rho_m, u_m
    rho[right], u[right] = spec.rho_r, spec.u_r
    if fan1.any():
        c_fan = (g - 1.0) / (g + 1.0) * (spec.u_l + 2.0 * cl / (g - 1.0) - xi[fan1])
        rho[fan1] = (c_fan ** 2 / (law.kappa * g)) ** (1.0 / (g - 1.0))
        u[fan1] = xi[fan1] + c_fan
    if fan2.any():
        c_fan = (g - 1.0) / (g + 1.0) * (xi[fan2] - spec.u_r + 2.0 * cr / (g - 1.0))
        rho[fan2] = (c_fan ** 2 / (law.kappa * g)) ** (1.0 / (g - 1.0))
        u[fan2] = xi[fan2] - c_fan

    return Field(grid, rho), Field(grid, u), float(dissipation)


# ---------------------------------------------------------------------------
# Viscous stress
# ---------------------------------------------------------------------------

def ns_stress(u: Field, mu: float, nu: float) -> Field:
    """S = mu (grad u + grad u^T - (2/3) div u I) + nu div u I.

    Returned as a d*d-component field, row-major (S_ij at index i*d + j);
    symmetric by construction.
    """
    if mu < 0 or nu < 0:
        raise ValueError("viscosities must be non-negative")
    d = u.grid.spatial_dim
    if u.components != d:
        raise ValueError("u needs one component per spatial axis")
    gradu = np.empty(u.grid.shape + (d, d))
    for i in range(d):
        for j in range(d):
            gradu[..., i, j] = dspace(u.component(i), 1 + j).values[..., 0]
    divu = np.trace(gradu, axis1=-2, axis2=-1)
    eye = np.eye(d)
    S = mu * (gradu + np.swapaxes(gradu, -1, -2)
              - (2.0 / 3.0) * divu[..., None, None] * eye)
    S = S + nu * divu[..., None, None] * eye
    return Field(u.grid, S.reshape(u.grid.shape + (d * d,)))


def stress_contract_grad(S: Field, u: Field) -> Field:
    """Node-wise S : grad u (the viscous dissipation density)."""
    d = u.grid.spatial_dim
    out = np.zeros(u.grid.shape)
    for i in range(d):
        for j in range(d):
            out += (S.values[..., i * d + j]
                    * dspace(u.component(i), 1 + j).values[..., 0])
    return Field(u.grid, out)


def stress_apply(S: Field, v: Field) -> Field:
    """Matrix-vector product (S v)_i = S_ij v_j as a d-component field."""
    d = v.grid.spatial_dim
    out = np.zeros(v.grid.shape + (d,))
    for i in range(d):
        for j in range(d):
            out[..., i] += S.values[..., i * d + j] * v.values[..., j]
    return Field(v.grid, out)
