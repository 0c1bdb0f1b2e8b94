"""Vacuum-set geometry and the near-vacuum mollifier-ratio conditions.

Contains the mask construction for the vacuum / thin-band / bulk split,
the uniform L1 bound on (w_e - w)/w_e, the reciprocal-integrability
route, ball-average (quasi-nearly-subharmonic) checks with their
mollifier equivalence, and the spike construction showing the L^p
version of the ratio bound fails.  Ball averages use the circular FFT;
``vacuum_floor`` sets the numerical-vacuum threshold for every module.
The spike field and its ladders mollify with spatial kernels, and its
time slices are identical, so each ball average or mollification
convolves one slice (see ``grids``).  The QNS checks then form their
ratios and maxima on that one slice too, and each rung of the spike
ladder mollifies only the box of the spike it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExponentRelationError,
    ResolutionError,
    VacuumSingularityError,
)
from .grids import (
    Field,
    GridSpec,
    HeldField,
    Mollification,
    MollifierKernel,
    lp_norm,
    make_mollifier,
    mollify,
    repeats_first_slice,
    require_nonnegative,
    restrict,
)
from .rates import RateFit, fit_rate

ATOL_FACTOR = 1e-13

# A QNS check tests radius r only at region nodes at least r / EPS0 from
# the region's boundary on their time slice (their clearance).
EPS0 = 0.25


def vacuum_floor(w: Field) -> float:
    """Numerical-vacuum threshold of ``w``, for the vacuum sets and the
    commutators' vacuum mask.  The w/w_e quotient (``_guarded_ratio``)
    still tests ``> 0.0``: this floor would move the benchmark's recorded
    numbers, so the quotient moves to it when those are re-recorded."""
    return ATOL_FACTOR * max(float(w.values.max()), 1.0)


def _guarded_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0 (not ``vacuum_floor``); else inf where
    num > 0, and 0.  The module's one quotient by a mollified field: the
    relative defect of w >= 0 is ``_guarded_ratio(w_e - w, w_e)``, never
    inf.  A positive den under 1e-300 divides by 1e-300.  The quotient is
    formed in one output buffer; the nodes with den not > 0 are then set.
    """
    out = np.maximum(den, 1e-300)
    np.divide(num, out, out=out)
    vac = ~(den > 0)
    out[vac] = 0.0
    vac &= num > 0
    out[vac] = np.inf
    return out


@dataclass(frozen=True)
class VacuumSets:
    """Masks over the shrunk domain for a given (rho, epsilon, beta).

    A: mollified density numerically zero; B: thin band 0 < rho_e <
    eps^beta; C: bulk rho_e >= eps^beta; E: unmollified density positive.
    B_strict additionally requires the unmollified density nonzero (both
    variants of the band are computed; they can differ and both values
    are always reported).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray
    B_strict: np.ndarray
    grid: GridSpec
    atol: float
    beta: float
    epsilon: float

    def __post_init__(self):
        both = self.A & self.B | self.A & self.C | self.B & self.C
        if both.any() or not (self.A | self.B | self.C).all():
            raise ValueError("A, B, C must partition the domain")

    def measure(self, name: str) -> float:
        mask = getattr(self, name)
        return float(mask.sum()) * self.grid.cell_volume


def build_vacuum_sets(rho: Field, kernel: MollifierKernel, beta: float,
                      rho_e: Field | None = None) -> VacuumSets:
    """The A/B/C split of ``rho_e``, mollifying ``rho`` unless given it;
    A is where ``rho_e`` is at most ``vacuum_floor(rho)``."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    require_nonnegative(rho, "rho")
    atol = vacuum_floor(rho)
    if rho_e is None:
        rho_e = mollify(rho, kernel)
    r0 = restrict(rho, rho_e.grid)
    re = rho_e.values[..., 0]
    cut = kernel.epsilon ** beta
    A = re <= atol
    B = (~A) & (re < cut)
    C = re >= cut
    E = r0.values[..., 0] > atol
    return VacuumSets(A=A, B=B, C=C, E=E, B_strict=B & E, grid=rho_e.grid,
                      atol=atol, beta=beta, epsilon=kernel.epsilon)


def ratio_condition(rho: Field, kernel: MollifierKernel, beta: float,
                    q: float, strict_band: bool = False) -> float:
    """||(rho_e - rho)/rho_e||_Lq over the thin band, 0 where masked out."""
    require_nonnegative(rho, "rho")
    rho_e = mollify(rho, kernel)
    sets = build_vacuum_sets(rho, kernel, beta, rho_e=rho_e)
    mask = sets.B_strict if strict_band else sets.B
    r0 = restrict(rho, rho_e.grid)
    ratio = np.where(mask[..., None],
                     _guarded_ratio(rho_e.values - r0.values, rho_e.values),
                     0.0)
    return lp_norm(Field(rho_e.grid, ratio), q, mask=mask)


def l1_ratio_lemma_check(w: Field, kernel_ladder: list,
                         region_mask: np.ndarray | None = None) -> dict:
    """Uniform-in-epsilon boundedness of ||(w_e - w)/w_e||_L1(region).

    Reports the last ladder value over the median (NaN if that is 0) and
    the dyadic decades the ladder spans.  ``bounded``, which the benchmark
    reads by key, is criterion 3's checks of the two (<= 2, >= 3), the
    first also the CLI's ``bounded_factor`` row: so NaN fails all three.
    """
    require_nonnegative(w, "w")
    held, values = HeldField(w), []
    for ker in kernel_ladder:
        we = Mollification(ker, w.grid)(held)
        w0 = restrict(w, we.grid)
        mask = region_mask
        if mask is None:
            mask = np.ones(we.grid.shape, dtype=bool)
        elif mask.shape != w.grid.shape:
            raise ValueError("region mask shape mismatch")
        else:
            j0 = we.grid.time_offset_from(w.grid)
            mask = mask[j0:j0 + we.grid.shape[0]]
        if np.any(mask & (we.values[..., 0] <= 0.0) & (w0.values[..., 0] > 0.0)):
            raise VacuumSingularityError(
                "mollified field vanishes inside the region"
            )
        ratio = np.abs(_guarded_ratio(we.values - w0.values, we.values))
        values.append(lp_norm(Field(we.grid, ratio), 1, mask=mask))
    eps = [k.epsilon for k in kernel_ladder]
    span = math.log2(eps[0] / eps[-1])
    med = float(np.median(values))
    factor = float("nan") if med == 0 else values[-1] / med
    return {
        "epsilons": eps,
        "values": values,
        "median": med,
        "last_over_median": factor,
        "decades": span,
        "bounded": factor <= 2.0 and span >= 3.0,
    }


@dataclass(frozen=True)
class ReciprocalReport:
    fit: RateFit
    entries: tuple
    reciprocal_norm: float


def reciprocal_integrability_rate(w: Field, p: float, q: float, r: float,
                                  kernel_ladder: list) -> ReciprocalReport:
    """Bound ||(w_e - w)/w_e||_Lr by ||w_e - w||_Lq * ||1/w||_Lp per rung.

    Requires 1/p + 1/q <= 1/r and w >= 0; the left side must also decay
    along the ladder when the reciprocal norm is finite.  1/w is taken
    where w exceeds ``vacuum_floor(w)``.  Each entry's ``bound`` is that
    product with 5% slack plus 1e-14, the gate for its ``lhs``.
    """
    if 1.0 / p + 1.0 / q > 1.0 / r + 1e-12:
        raise ExponentRelationError("need 1/p + 1/q <= 1/r")
    require_nonnegative(w, "w")
    pos = w.values[..., 0] > vacuum_floor(w)
    recip = np.where(pos, 1.0 / np.where(pos, w.values[..., 0], 1.0), 0.0)
    recip_norm = lp_norm(Field(w.grid, recip), p, mask=pos)

    held, entries, samples = HeldField(w), [], []
    for ker in kernel_ladder:
        we = Mollification(ker, w.grid)(held)
        w0 = restrict(w, we.grid)
        diff = we - w0
        ratio = _guarded_ratio(diff.values, we.values)
        lhs = lp_norm(Field(we.grid, ratio), r)
        bound = lp_norm(diff, q) * recip_norm * 1.05 + 1e-14
        entries.append({"epsilon": ker.epsilon, "lhs": lhs, "bound": bound})
        samples.append((ker.epsilon, lhs))
    fit = fit_rate(samples, window=(0, len(samples)))
    return ReciprocalReport(fit=fit, entries=tuple(entries),
                            reciprocal_norm=recip_norm)


# ---------------------------------------------------------------------------
# Ball-average (quasi-nearly subharmonic) checks
# ---------------------------------------------------------------------------

def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _offsets(grid: GridSpec, halves) -> list[np.ndarray]:
    """Spatial offsets k h of the centred stencil of half-widths ``halves``."""
    return np.meshgrid(*[np.arange(-k, k + 1) * h
                         for k, h in zip(halves, grid.spacings[1:])],
                       indexing="ij")


def _ball_kernel(grid: GridSpec, radius: float) -> np.ndarray:
    """Normalized indicator of the spatial ball of the given radius."""
    halves = [int(np.floor(radius / h)) for h in grid.spacings[1:]]
    if any(2 * k + 1 > n for k, n in zip(halves, grid.shape[1:])):
        raise ResolutionError("ball radius exceeds the domain")
    if all(k == 0 for k in halves):
        raise ResolutionError("ball radius under-resolves the grid")
    ball = (sum(o ** 2 for o in _offsets(grid, halves))
            <= radius ** 2).astype(float)
    return ball / ball.sum()


def _ball_average(w: Field | HeldField, radius: float) -> Field:
    """Spatial ball average per time slice (periodic, circular FFT), of a
    field or of a held one, whose forward transform it then reuses.

    ``HeldField.stencil`` checks what it convolves (one slice of a
    time-constant field), and the broadcast is copied out unscanned."""
    held = w if isinstance(w, HeldField) else HeldField(w)
    return Field._wrap(w.grid, held.stencil(_ball_kernel(w.grid, radius)))


def _clear_nodes(grid: GridSpec, region: np.ndarray,
                 radius: float) -> np.ndarray:
    """The nodes of ``region`` (time slices of ``grid``) whose periodic
    distance to the complement on their slice, times ``EPS0``, is at least
    ``radius``: an erosion by the offsets k with |k h| EPS0 < radius, each
    axis cut at half its length (where every residue has its shortest
    image).  A filled slice has clearance min(extents) / 2, and a region
    that fills every slice is not convolved."""
    axes = tuple(range(1, region.ndim))
    filled = region.all(axis=axes, keepdims=True)
    if min(grid.extents[1:]) / 2.0 * EPS0 < radius:
        region = region & ~filled
    if filled.all():
        return region
    halves = [min(int(radius / EPS0 / h) + 1, n // 2)
              for h, n in zip(grid.spacings[1:], grid.shape[1:])]
    near = np.sqrt(sum(o ** 2 for o in _offsets(grid, halves))) * EPS0 < radius
    outside = Field._wrap(grid.time_subgrid(0, len(region)), ~region)
    return region & (HeldField(outside).stencil(near) < 0.5)


class QnsRegion:
    """A QNS check's region of ``w`` (all nodes for a None mask), the time
    slices its ratio maxima need (``rows``), and per radius its clear
    nodes and its ball-ratio maximum, each computed once; the QNS checks
    share one in place of a mask.

    It holds ``w`` (``held``) while it lives: every ball average and
    every whole-grid mollification of a QNS check reuses one slice-
    constancy test, one vacuum test and one forward transform of ``w``.
    """

    def __init__(self, w: Field, region_mask: np.ndarray | None):
        require_nonnegative(w, "w")
        self.w, self.mask = w, np.broadcast_to(
            True if region_mask is None else region_mask, w.grid.shape)
        self.held = HeldField(w)
        self._clear, self._ball_ratio = {}, {}
        # a spatial kernel leaves every slice of such a field with the same
        # bits, so every ratio slice repeats the first and so do its maxima
        constant = (self.held.repeats_first_slice()
                    and repeats_first_slice(self.mask))
        self.rows = slice(0, 1) if constant else slice(None)

    def clear(self, radius: float) -> np.ndarray:
        if radius not in self._clear:
            self._clear[radius] = _clear_nodes(self.w.grid,
                                               self.mask[self.rows], radius)
        return self._clear[radius]

    def ball_ratio(self, radius: float) -> tuple[float, tuple | None]:
        """The worst ratio of w to its ball average at ``radius`` over the
        clear nodes of ``rows``, and its witness; (0.0, None) when no
        ratio beats 0.  ``np.argmax`` returns the first maximum, and with
        repeated slices that lies in the first, so one slice gives the
        witness of all of them."""
        if radius not in self._ball_ratio:
            avg, rows = _ball_average(self.held, radius), self.rows
            ratio = np.where(self.clear(radius), _guarded_ratio(
                self.w.values[rows, ..., 0], avg.values[rows, ..., 0]), 0.0)
            idx = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
            worst = float(ratio[idx])
            self._ball_ratio[radius] = (worst, (
                tuple(int(i) for i in idx), float(radius), worst)
            ) if worst > 0 else (0.0, None)
        return self._ball_ratio[radius]


def _qns_region(w: Field, region) -> QnsRegion:
    if not isinstance(region, QnsRegion):
        return QnsRegion(w, region)
    if region.w is w:
        return region
    raise ValueError("the QNS region belongs to another field")


def qns_check(w: Field, region_mask: np.ndarray | QnsRegion | None,
              radius_ladder: list, C: float) -> dict:
    """w(x) <= (C/|B_r|) int_{B_r(x)} w for region nodes and ladder radii.

    A radius r is only tested at nodes at least r / ``EPS0`` (4r) from
    the region boundary on their own time slice.  Returns the empirical
    constant (worst ratio of the value to its ball average), its gate
    ``bound`` = C (1 + 1e-9) and the witness node.  Ball averages cover every
    time slice; when ``w`` and the region mask repeat their first slice
    bit for bit (a time-independent field), the ratios and their maximum
    are formed on that slice alone, with the same result.
    """
    region = _qns_region(w, region_mask)
    worst, witness = 0.0, None
    for r in radius_ladder:  # the first radius to reach the worst ratio
        ratio, at = region.ball_ratio(r)
        if ratio > worst:
            worst, witness = ratio, at
    return {"bound": C * (1 + 1e-9), "empirical_C": worst,
            "worst_witness": witness, "C": C}


def _mollifier_ratio_max(w: Field, ker: MollifierKernel,
                         region: QnsRegion) -> float:
    """sup of w / w_e over region nodes clear of the region boundary, on
    the region's ``rows`` of a spatial kernel's result (a space-time
    kernel's slices differ in their rounding, so it reads them all); the
    mollification reuses the region's hold on ``w``."""
    we = Mollification(ker, w.grid)(region.held)
    w0 = restrict(w, we.grid)
    j0 = we.grid.time_offset_from(w.grid)
    if ker.include_time:
        rows, allowed = slice(None), _clear_nodes(
            w.grid, region.mask[j0:j0 + we.grid.shape[0]], ker.epsilon)
    else:  # a spatial kernel keeps every time slice
        rows, allowed = region.rows, region.clear(ker.epsilon)
    if not allowed.any():
        return 0.0
    ratio = _guarded_ratio(w0.values[rows, ..., 0], we.values[rows, ..., 0])
    return float(np.max(np.where(allowed, ratio, 0.0)))


def qns_mollifier_equivalence(w: Field,
                              region_mask: np.ndarray | QnsRegion | None,
                              kernel_ladder: list, M: float,
                              C: float | None = None) -> dict:
    """Both directions of the ball-average / mollifier comparison.

    Forward: a fixed ball-average constant C implies w <= (3^N C /
    omega_N) w_e at every ladder epsilon (the kernel plateau covers the
    ball of radius eps/3).  Backward: a fixed pointwise bound w <= M w_e
    implies the ball-average bound with constant M * omega_N at radius
    eps.  Both are checked rung by rung with the constants held fixed,
    so a family needing a growing constant fails at the fine end; the
    per-rung empirical constants are reported for growth diagnostics.
    C defaults to the ball-average constant measured at the coarsest rung.
    ``forward_bound`` gates every ``M_emp`` and ``backward_bound`` every
    ``C_ball`` (10% slack); the benchmark reads their verdicts by key.
    """
    N = w.grid.spatial_dim
    omega = unit_ball_volume(N)
    region = _qns_region(w, region_mask)

    per_rung = []
    for ker in kernel_ladder:
        M_emp = _mollifier_ratio_max(w, ker, region)
        C_emp = region.ball_ratio(ker.epsilon / 3.0)[0]
        C_ball = region.ball_ratio(ker.epsilon)[0]
        per_rung.append({"epsilon": ker.epsilon, "M_emp": M_emp,
                         "C_emp": C_emp, "C_ball": C_ball})
    if C is None:
        C = per_rung[0]["C_emp"]

    forward_bound = 3.0 ** N * C / omega * 1.1
    backward_bound = M * omega * 1.1
    # growth of the per-rung constants against epsilon (negative exponent
    # of a clearly decaying ladder means no uniform constant exists)
    eps = np.array([r["epsilon"] for r in per_rung])
    memp = np.array([max(r["M_emp"], 1e-300) for r in per_rung])
    growth = float(np.polyfit(np.log(eps), np.log(memp), 1)[0])
    return {
        "forward_pass": max(r["M_emp"] for r in per_rung) <= forward_bound,
        "backward_pass": max(r["C_ball"] for r in per_rung) <= backward_bound,
        "forward_bound": forward_bound,
        "backward_bound": backward_bound,
        "per_rung": per_rung,
        "C": float(C),
        "M": float(M),
        "M_growth_exponent": growth,
        "omega_N": omega,
    }


# ---------------------------------------------------------------------------
# Spike counterexample
# ---------------------------------------------------------------------------

def counterexample_field(i_max: int, grid_points: int,
                         time_points: int = 8) -> Field:
    """Sum of indicator spikes on [1/i, 1/i + 2^-i], i = 2..i_max.

    The index starts at 2 so the intervals are pairwise disjoint inside
    (0, 1); the quadrature integral reproduces the spike mass sum(2^-i)
    within one cell per spike.  Constant in time.
    """
    if i_max < 2:
        raise ValueError("need at least one spike (i_max >= 2)")
    h = 1.0 / grid_points
    if h > 2.0 ** (-i_max) / 8.0:
        raise ResolutionError(
            f"spacing {h:.3g} under-resolves the finest spike "
            f"width {2.0 ** (-i_max):.3g} (need 8 cells)"
        )
    grid = GridSpec(1, (time_points, grid_points), (1.0, 1.0))
    x = grid.axis_coords(1)
    f = np.zeros(grid_points)
    for i in range(2, i_max + 1):
        a, b = _spike_nodes(x, i)
        f[a:b] += 1.0
    return Field(grid, np.broadcast_to(f, grid.shape).copy())


def _spike_nodes(x: np.ndarray, i: int) -> tuple[int, int]:
    """The range [a, b) of the sorted nodes ``x`` on the spike [1/i, 1/i +
    2^-i]: the nodes with 1/i <= x <= 1/i + 2^-i, found by bisection."""
    lo = 1.0 / i
    hi = lo + 2.0 ** (-i)
    return (int(np.searchsorted(x, lo, "left")),
            int(np.searchsorted(x, hi, "right")))


def counterexample_blowup(f: Field, p: float, i_list) -> dict:
    """Localized ratio norms along the tuned ladder eps_i = 1/(2 i^2).

    For each i the quantity is ||f / f_e||_{L^p(spike_i)} / eps_i: the
    ratio norm restricted to the i-th spike interval, divided by the
    kernel scale.  On that interval f = 1 while f_e is of order
    2^{-i}/eps_i, so the compensated value grows like 2^{i(1-1/p)};
    growth is fitted as log2(value) against i and approaches 1 - 1/p for
    p > 1, flattening as p drops to 1 (where no blow-up occurs).

    Each rung mollifies only the spike's box: its run of x nodes on every
    time slice, read with the kernel's half-width on each side (the whole
    line when that widened run would wrap).  The size rule that picks the
    branch is the whole grid's, so a spike field's rungs take the branches
    of mollifying the whole line; a direct rung is the whole-line result
    cut down, bit for bit, and an FFT rung zero-pads the box and agrees
    with it to rounding.  The ratio is
    formed on the box in the order a mask over the whole grid reads it,
    so the norm is the masked whole-grid one of the same f_e bit for bit.
    A spike that holds no node raises ``ResolutionError``.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    require_nonnegative(f, "f")
    i_list = [int(i) for i in i_list]
    if len(i_list) < 3:
        raise ValueError("need at least 3 ladder entries")
    h = f.grid.spacings[1]
    x = f.grid.axis_coords(1)
    samples = []
    for i in i_list:
        eps = 1.0 / (2.0 * i * i)
        if eps < 3.0 * h:
            raise ResolutionError(f"epsilon for i={i} under-resolves the grid")
        a, b = _spike_nodes(x, i)
        if b <= a:
            raise ResolutionError(f"spike i={i} holds no grid node")
        spike = f.grid.subgrid(((0, f.grid.shape[0]), (a, b)))
        moll = Mollification(_spatial_mollifier(eps, f.grid), f.grid,
                             box=((0, f.grid.shape[0]), (a, b)))
        fe = moll(f).values[..., 0]
        if fe.shape[1] != b - a:  # the widened box wraps: the whole line
            fe = fe[:, a:b]
        # inf exactly where f > 0 and f_e is vacuum
        ratio = _guarded_ratio(f.values[:, a:b, 0], fe)
        if np.isinf(ratio).any():
            raise VacuumSingularityError("mollified field vanishes on a spike")
        # lp_norm rejects a non-finite ratio
        local = lp_norm(Field._wrap(spike, ratio), p)
        samples.append((i, eps, local / eps))
    xs = np.array([s[0] for s in samples], float)
    ys = np.log2([s[2] for s in samples])
    slope, _ = np.polyfit(xs, ys, 1)
    return {
        "p": p,
        "samples": samples,
        "growth_per_i": float(slope),
        "theory": 1.0 - 1.0 / p,
    }


def _spatial_mollifier(eps: float, grid: GridSpec) -> MollifierKernel:
    return make_mollifier(eps, grid.spatial_dim, grid, include_time=False)
