"""Uniform periodic space-time grids, sampled fields, plateau mollifiers.

Conventions used throughout the package:

* A grid covers ``(t0, t0 + T) x torus(L1[, L2])``.  Axis 0 is time and is
  *not* periodic; the remaining one or two axes are periodic.
* Samples sit at cell midpoints, so the midpoint quadrature rule
  ``sum(values) * cell_volume`` is exact for constants.
* Mollified quantities live on the time-shrunk domain (interior slices at
  distance greater than the kernel radius from both time boundaries).
* A sub-grid (a shrunk time range, or a box of node ranges) records its
  root grid and its integer node offset from it on every axis; its
  spacings are the root's and its coordinates are the root's sliced, bit
  for bit.  Arithmetic between fields needs them on one grid (``==``);
  ``restrict`` moves a field to a time range of its grid by node offset.
* ``Mollification(kernel, grid)`` applies one kernel to every field of a
  call: it validates the kernel against the grid once, and picks the
  branch per component when it convolves it.  A component is summed
  directly only when it touches vacuum (it is non-negative with an exact
  zero) and the job is small; the direct branch drops kernel weights
  with ``|w| <= DBL_EPSILON`` (the footprint rule of ``ndimage.convolve``)
  and runs the rest as 1-D line convolutions, so the field stays exactly
  zero wherever the remaining weights see only zeros.  Every other
  component goes through the circular FFT, with the kernel spectrum
  built by the first such component and applied to the rest.
  ``mollify(field, kernel)`` is the one-field shorthand.
* The FFT convolution is one engine in two stages.  The forward stage,
  ``_forward``, runs ``rfft`` along the contiguous last axis and ``fft``
  along any middle axes.  The apply stage, ``_apply``, takes the pencils
  of the first transformed axis in blocks of ``_PENCIL_BLOCK`` columns
  (gather, transform, multiply by the kernel spectrum, which is stored
  one pencil per row, and invert in one reused buffer while the block is
  in cache), then the inverses of the other axes on the kept rows alone:
  a caller passes the range it keeps on every transformed axis, the
  other rows of the first axis are never inverted, and the last inverses
  run ``_ROW_BLOCK`` kept rows at a time, straight into a contiguous
  array of the kept box.  Every 1-D transform runs in the order
  ``rfftn`` and ``irfftn`` use and the product is the same elementwise
  one, so the result equals ``irfftn(rfftn(v) * K)`` cut to the box, bit
  for bit; neither a full complex spectrum of the padded field nor a
  full-width real result is held.  The forward stage too reads its input
  ``_ROW_BLOCK`` rows of axis 0 at a time (unless that is the one axis
  it transforms), writing each block's transforms straight into the
  spectrum, so a product of fields (``Mollification.product``) is formed a
  block at a time and never whole.  ``_fft_convolve`` runs both stages
  once.
* A ladder convolves its inputs at many kernels.  ``ladder(kernels,
  fields, measure)`` is the one place a ladder holds them: each input is
  a ``HeldField`` for the length of the call, and each rung mollifies
  every input with one whole-grid ``Mollification`` and hands the results
  to ``measure``.  The apply stage reads a held transform and never
  writes into it, so each component is transformed once, by its first
  FFT convolution, and every later one applies its kernel spectrum to
  that transform, with the bits of transforming afresh.  Its vacuum and
  slice-constancy tests also run once.  Over one axis the held transform
  is the whole one; over more, each rung still transforms the first axis
  (time, for a space-time kernel) in the apply stage.
* A kernel that acts slice by slice (no time axis: a spatial
  ``Mollification`` or ``HeldField.stencil``) convolves only the first
  time slice when every slice has its bits, and broadcasts the result;
  a time-independent field costs one slice, not one per time node.
  Either branch gives the same bits as convolving every slice.  The
  result stays that read-only broadcast (stride 0 along time): a ball
  average, a stencil and a one-component ``Mollification`` return it,
  and ``Field._wrap`` keeps it, so no slice is copied out.  A sum that
  reads such values (``integrate``) reduces a contiguous copy, since a
  pairwise sum's bits depend on the layout it walks.
* ``Mollification(kernel, grid, box=...)`` returns only a box of node
  ranges and reads only the box widened by the kernel's half-width.
  Time is always cut; a spatial axis only when the widened box fits
  without wrapping, and otherwise (a constant spatial factor, say) it
  stays whole and periodic.  The direct branch gives the whole result
  cut down, bit for bit; the FFT branch agrees to rounding.  A field on
  ``grid`` is read in place, as a view of that box, and the engine's
  kept box becomes the result without a copy.  With ``whole_read=True``
  the box cuts only the output, by the same rule, and every axis is read
  whole: the transform lengths, the branch and every kept value are the
  whole-grid call's, bit for bit, and the box saves the memory and the
  work of what is not kept.
* Finite differences are the one 4th-order central stencil, read as
  shifted slices of the samples; periodic axes wrap, and the
  non-periodic time axis loses ``STENCIL_REACH`` slices at both ends.
* Finiteness is checked where values enter, not after every operation.
  ``Field(grid, values)`` scans its values, so synthesis,
  ``from_function``, ``load_field`` and user data are checked, and so is
  ``Field.map``, which applies an arbitrary function.  Results computed
  from checked fields (arithmetic, ``dot``, ``component``, ``restrict``
  and the finite differences) are wrapped without a re-scan.
  An overflow in them is caught where the values leave:
  ``Mollification`` and ``HeldField.stencil`` check what they convolve
  (an FFT of finite values near 1e300 can overflow; a broadcast slice is
  scanned once), ``integrate`` and ``lp_norm`` reject any non-finite
  value, masked or not, ``TestFunction.pair`` rejects a non-finite
  pairing, and reports check their scalars.
* The package runs on numpy alone.  Direct summation is ``np.convolve``
  (rows of over ``_DOT_TAPS`` = 10,000 taps in pieces, as OpenBLAS
  threads longer dot products and rounds them by thread count), FFTs use
  ``numpy.fft``, and padded FFT lengths come from a pure-Python search.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DomainExhaustedError,
    GridMemoryError,
    InfeasibleKernelError,
    NegativityError,
    ResolutionError,
)

# Total sample cap for a single field (nodes, not bytes).
MAX_NODES = 1 << 25

# A field that touches vacuum is summed directly, keeping its exact zeros,
# when (whole-grid nodes x kernel nodes) is at most this; larger jobs, and
# every field without vacuum, go through the circular FFT.
_DIRECT_WORK_LIMIT = 2e8

# np.convolve sums a row of at most _LOOP_TAPS taps in numpy's own loop and
# a longer one by a BLAS dot product per output, which costs more on short
# rows, so rows of up to 3 * _LOOP_TAPS taps are summed in such pieces.
# OpenBLAS threads a dot product longer than _DOT_TAPS and rounds it by the
# thread count, so longer rows are summed in pieces of _DOT_TAPS taps.
_LOOP_TAPS = 11
_DOT_TAPS = 10_000

_TIE = 1e-12  # slack for kernel-resolution comparisons


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: shape = (nt, nx[, ny]), extents = (T, L...).

    A sub-grid keeps the grid it was cut from as ``root`` (a grid without
    one is its own root) and the root index of its first node on every
    axis as ``origin``, and samples at the root's coordinates.
    """

    spatial_dim: int
    shape: tuple[int, ...]
    extents: tuple[float, ...]
    t0: float = 0.0
    root: GridSpec | None = None
    origin: tuple[int, ...] = ()

    def __post_init__(self):
        if self.spatial_dim not in (1, 2):
            raise ValueError(f"spatial_dim must be 1 or 2, got {self.spatial_dim}")
        naxes = 1 + self.spatial_dim
        if len(self.shape) != naxes or len(self.extents) != naxes:
            raise ValueError("shape/extents must have one time and spatial_dim axes")
        if not all(0.0 < e < np.inf for e in self.extents):
            raise ValueError(f"extents must be positive and finite, "
                             f"got {self.extents}")
        if not np.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")
        if any(n < 1 for n in self.shape):
            raise ValueError("axis sizes must be positive")
        if self.root is None and any(n < 8 for n in self.shape):
            raise ValueError("root grids need at least 8 points per axis")
        if self.node_count > MAX_NODES:
            raise GridMemoryError(
                f"grid has {self.node_count} nodes, cap is {MAX_NODES}"
            )
        if self.root is None:
            if self.origin:
                raise ValueError("an origin needs a root grid")
        elif (self.root.root is not None
              or self.root.spatial_dim != self.spatial_dim
              or len(self.origin) != naxes
              or any(o < 0 or o + n > r for o, n, r in
                     zip(self.origin, self.shape, self.root.shape))):
            raise ValueError("sub-grid does not lie inside its root grid")

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacings(self) -> tuple[float, ...]:
        if self.root is not None:
            return self.root.spacings
        return tuple(e / n for e, n in zip(self.extents, self.shape))

    @property
    def dt(self) -> float:
        return self.spacings[0]

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def t_end(self) -> float:
        return self.t0 + self.extents[0]

    def axis_coords(self, axis: int) -> np.ndarray:
        """Midpoint coordinates along one axis (time includes t0 offset)."""
        if self.root is not None:
            o = self.origin[axis]
            return self.root.axis_coords(axis)[o:o + self.shape[axis]]
        h = self.spacings[axis]
        start = self.t0 if axis == 0 else 0.0
        return start + (np.arange(self.shape[axis]) + 0.5) * h

    def meshgrid(self) -> list[np.ndarray]:
        return list(
            np.meshgrid(*[self.axis_coords(a) for a in range(len(self.shape))],
                        indexing="ij")
        )

    def _placement(self) -> tuple["GridSpec", tuple[int, ...]]:
        """The root grid and this grid's node offset on it."""
        if self.root is None:
            return self, (0,) * len(self.shape)
        return self.root, self.origin

    def subgrid(self, box) -> "GridSpec":
        """Sub-grid keeping node range ``[lo, hi)`` of every axis (or self)."""
        box = tuple((int(lo), int(hi)) for lo, hi in box)
        if len(box) != len(self.shape) or any(
                lo < 0 or hi > n for (lo, hi), n in zip(box, self.shape)):
            raise ValueError("box must give one node range inside each axis")
        if all((lo, hi) == (0, n) for (lo, hi), n in zip(box, self.shape)):
            return self
        root, base = self._placement()
        origin = tuple(b + lo for b, (lo, _) in zip(base, box))
        h = root.spacings
        extents = tuple(e if (lo, hi) == (0, n) else (hi - lo) * step
                        for e, (lo, hi), n, step
                        in zip(self.extents, box, self.shape, h))
        return GridSpec(self.spatial_dim, tuple(hi - lo for lo, hi in box),
                        extents, t0=root.t0 + origin[0] * h[0],
                        root=root, origin=origin)

    def time_subgrid(self, j0: int, j1: int) -> "GridSpec":
        """Sub-grid keeping time indices [j0, j1)."""
        if j1 <= j0:
            raise DomainExhaustedError("empty time range")
        return self.subgrid(((j0, j1),) + tuple((0, n) for n in self.shape[1:]))

    def offset_from(self, other: "GridSpec") -> tuple[int, ...]:
        """Index offset of this grid's first node inside ``other``, per
        axis."""
        root, origin = self._placement()
        other_root, other_origin = other._placement()
        if root != other_root:
            raise ValueError("grids are cut from different root grids")
        return tuple(a - b for a, b in zip(origin, other_origin))

    def time_offset_from(self, other: "GridSpec") -> int:
        """Index offset of this grid's first slice inside ``other``."""
        return self.offset_from(other)[0]


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("field values must be finite")


def require_nonnegative(field: "Field", name: str) -> None:
    """The one check that an input density (or weight w) is >= 0."""
    if float(field.values.min()) < 0:
        raise NegativityError(f"{name} must be non-negative")


class Field:
    """Sampled real field; values have shape grid.shape + (components,).

    Arithmetic between two fields needs them on one grid.  The public
    constructor rejects non-finite values.  ``Field._wrap``
    skips that scan and is only for values computed from checked fields;
    see the module docstring for where overflow is caught instead.  Values
    are stored read-only and C-contiguous, copied only when they are not
    contiguous; ``Field._wrap`` alone keeps a read-only array whose time
    axis has stride 0 (one slice broadcast along time, as ``_slicewise``
    returns) as it is.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values: np.ndarray):
        self._store(grid, values)
        _require_finite(self.values)

    @classmethod
    def _wrap(cls, grid: GridSpec, values: np.ndarray) -> "Field":
        out = cls.__new__(cls)
        out._store(grid, values, keep_broadcast=True)
        return out

    def _store(self, grid: GridSpec, values, keep_broadcast=False) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape == grid.shape:
            values = values[..., None]
        if values.shape[:-1] != grid.shape or values.ndim != len(grid.shape) + 1:
            raise ValueError(
                f"values shape {values.shape} does not match grid {grid.shape}"
            )
        if not (keep_broadcast and values.strides[0] == 0
                and not values.flags.writeable):
            values = np.ascontiguousarray(values)
            values.setflags(write=False)
        self.grid = grid
        self.values = values

    @property
    def components(self) -> int:
        return self.values.shape[-1]

    def component(self, i: int) -> "Field":
        return Field._wrap(self.grid, self.values[..., i])

    @property
    def scalar(self) -> np.ndarray:
        """Plain ndarray view for single-component fields."""
        if self.components != 1:
            raise ValueError("scalar view requires a single component")
        return self.values[..., 0]

    def magnitude(self) -> np.ndarray:
        if self.components == 1:
            return np.abs(self.values[..., 0])
        return np.sqrt(np.sum(self.values ** 2, axis=-1))

    def map(self, fn) -> "Field":
        return Field(self.grid, fn(self.values))

    # -- arithmetic on one grid --------------------------------------------

    def _binop(self, other, op):
        if isinstance(other, Field):
            grid, a, b = align(self, other)
            return Field._wrap(grid, op(a, b))
        if np.ndim(other) == 0 and np.isfinite(other):
            return Field._wrap(self.grid, op(self.values, other))
        return Field(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binop(other, np.add)

    __radd__ = __add__  # IEEE addition and multiplication commute

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return Field._wrap(self.grid, -self.values)

    def dot(self, other: "Field") -> "Field":
        """Component contraction; yields a scalar field."""
        grid, a, b = align(self, other)
        return Field._wrap(grid, np.sum(a * b, axis=-1))


def align(*fields: Field):
    """``(grid, values_a, values_b, ...)`` for fields on one grid; values
    broadcast over the trailing component axis as usual."""
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("fields live on different grids; restrict them "
                             "to one grid first")
    return (grid, *(f.values for f in fields))


def restrict(field: Field, grid: GridSpec) -> Field:
    """Restrict a field to a time range of its grid (e.g. the shrunk domain)."""
    j0 = grid.time_offset_from(field.grid)
    j1 = j0 + grid.shape[0]
    if (grid.shape[1:], grid._placement()[1][1:]) != (
            field.grid.shape[1:], field.grid._placement()[1][1:]):
        raise ValueError("restrict cannot change the spatial nodes")
    if j0 < 0 or j1 > field.grid.shape[0]:
        raise ValueError("subgrid is not contained in the field's grid")
    return Field._wrap(grid, field.values[j0:j1])


def constant_field(grid: GridSpec, value, components: int = 1) -> Field:
    vals = np.broadcast_to(np.asarray(value, float),
                           grid.shape + (components,)).copy()
    return Field(grid, vals)


def from_function(grid: GridSpec, fn, components: int = 1) -> Field:
    """Sample fn(t, x[, y]) -> scalar or tuple of components."""
    coords = grid.meshgrid()
    out = fn(*coords)
    if components == 1 and not isinstance(out, (tuple, list)):
        return Field(grid, np.asarray(out, float))
    arrs = [np.broadcast_to(np.asarray(c, float), grid.shape) for c in out]
    return Field(grid, np.stack(arrs, axis=-1))


# ---------------------------------------------------------------------------
# Mollifier kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MollifierKernel:
    """Discretized plateau kernel of radius epsilon.

    The profile is 1 on r <= 1/3, exp(theta * (1 - 1/(1-s^2))) with
    s = (3r-1)/2 on 1/3 < r < 1, and 0 beyond; theta is solved so the
    discrete integral is exactly 1.
    """

    epsilon: float
    dim: int
    include_time: bool
    spacings: tuple[float, ...]
    weights: np.ndarray
    shape_parameter: float

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def half_widths(self) -> tuple[int, ...]:
        return tuple((n - 1) // 2 for n in self.weights.shape)


def _bisect(above, lo: float, hi: float) -> float:
    """Bisect ``[lo, hi]`` for where ``above`` (true below that point, false
    above it) turns false, until ``lo`` and ``hi`` are adjacent doubles or
    under 1e-16 max(1, hi) apart; return their midpoint."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # lo and hi are adjacent doubles: nothing left to halve
        if above(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# Half-width of the bracket around the Newton estimate of theta, relative
# to it: wide enough that the mass at its ends differs from 1 by far more
# than the rounding of a mass sum, narrow enough that the bisection's last
# dozen steps are the only ones that fall inside it.
_THETA_BRACKET = 2.0 ** -42


def _newton_theta(exponent: np.ndarray, scale: float,
                  target: float) -> float | None:
    """An estimate of the theta at which the transition nodes, of profile
    exponents ``exponent``, carry the mass ``target``; None if it does not
    settle.  Newton steps on log(mass) against log(theta), which is nearly
    a line, from theta = 8, each step at most a factor e^4, with plain
    sums (a BLAS dot product would round by thread count)."""
    theta = 8.0
    for _ in range(8):
        ex = np.exp(theta * exponent)
        mass = float(ex.sum() * scale)
        slope = float((exponent * ex).sum() * scale) * theta
        if not (mass > 0.0 and slope < 0.0):
            return None
        step = (math.log(mass) - math.log(target)) * mass / slope
        step = min(max(step, -4.0), 4.0)
        theta *= math.exp(-step)
        if abs(step) < 1e-7:
            return theta
    return None


def _solve_theta(mass, exponent: np.ndarray, scale: float,
                 target: float) -> float:
    """Where ``mass``, falling in theta and above 1 at 0, crosses 1, for
    transition nodes of profile exponents ``exponent`` that must carry the
    mass ``target``: ``_bisect`` on [0, hi], hi the first power of two
    from 1 whose mass is at most 1, as if every test were evaluated.

    A bracket a < theta_hat < b with mass(a) > 1 >= mass(b), checked once,
    answers every test outside (a, b) without evaluating it, as the
    falling mass would.  theta_hat comes from ``_newton_theta`` and the
    bracket is ``_THETA_BRACKET`` of it on each side.  If the check
    fails, every test is evaluated.
    """
    bracket = (-np.inf, np.inf)  # no bracket: every test evaluates
    guess = _newton_theta(exponent, scale, target)
    if guess is not None:
        a, b = guess * (1.0 - _THETA_BRACKET), guess * (1.0 + _THETA_BRACKET)
        if mass(a) > 1.0 >= mass(b):
            bracket = (a, b)

    def above(theta):
        """mass(theta) > 1, evaluated only inside the bracket."""
        a, b = bracket
        return theta <= a or (theta < b and mass(theta) > 1.0)

    hi = 1.0
    while above(hi):
        hi *= 2.0
        if hi > 1e8:
            raise InfeasibleKernelError("steepness search did not bracket")
    return _bisect(above, 0.0, hi)


def make_mollifier(epsilon: float, dim: int, grid: GridSpec,
                   include_time: bool = True) -> MollifierKernel:
    """Build the unit-mass plateau kernel of radius ``epsilon`` on ``grid``.

    ``dim`` must equal 1 + spatial_dim for space-time kernels, or
    spatial_dim for purely spatial kernels (``include_time=False``).

    theta is where the discrete mass crosses 1, found by ``_solve_theta``:
    the bisection of a search that evaluates every test, answered outside
    a checked bracket around a Newton estimate without evaluating.  So
    about 19 mass sums take the place of about 60 on the ``spike_vacuum``
    kernels, and theta and the weights keep their bits.  A non-finite or
    non-positive ``epsilon`` raises ``ValueError``.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    spacings = grid.spacings if include_time else grid.spacings[1:]
    axis_sizes = grid.shape if include_time else grid.shape[1:]
    if dim != len(spacings):
        raise ValueError(f"dim must be {len(spacings)} for this grid")
    for h in spacings:
        if epsilon < 3.0 * h * (1 - _TIE):
            raise ResolutionError(
                f"epsilon={epsilon} under-resolves spacing {h} (need >= 3h)"
            )
    half = []
    for h, n in zip(spacings, axis_sizes):
        k = int(np.floor(epsilon / h * (1 - _TIE)))
        if 2 * k + 1 > n:
            raise ResolutionError("kernel support wider than the grid axis")
        half.append(k)
    offsets = np.meshgrid(
        *[np.arange(-k, k + 1) * h for k, h in zip(half, spacings)],
        indexing="ij",
    )
    r = np.sqrt(sum(o ** 2 for o in offsets)) / epsilon
    vol = float(np.prod(spacings))
    scale = vol / epsilon ** dim

    # everything but one exp per transition node is the same for every
    # theta the search tries, so it is computed once
    plateau = r <= 1.0 / 3.0
    trans = (r > 1.0 / 3.0) & (r < 1.0)
    s = (3.0 * r[trans] - 1.0) / 2.0
    exponent = 1.0 - 1.0 / (1.0 - s ** 2)
    values = plateau.astype(float)

    def profile(theta):
        """The profile at ``theta``, in a buffer the next call reuses."""
        values[trans] = np.exp(theta * exponent)
        return values

    def mass(theta):
        return float(profile(theta).sum() * scale)

    plateau_mass = float(plateau.sum() * scale)
    full_mass = mass(0.0)
    if plateau_mass >= 1.0 or full_mass <= 1.0:
        raise InfeasibleKernelError(
            f"no steepness gives unit mass (plateau {plateau_mass:.3g}, "
            f"full {full_mass:.3g})"
        )
    # mass decreases in theta and exceeds 1 at theta = 0
    theta = _solve_theta(mass, exponent, scale, 1.0 - plateau_mass)
    w = profile(theta) / epsilon ** dim
    # Remove the last floating-point sliver so the discrete integral is 1
    # to full precision (rescales transition nodes only).
    m = float(w.sum() * vol)
    excess = m - 1.0
    tw = float(w[trans].sum() * vol)
    if tw > 0:
        w[trans] *= 1.0 - excess / tw
    return MollifierKernel(epsilon=float(epsilon), dim=dim,
                           include_time=include_time,
                           spacings=tuple(spacings), weights=w,
                           shape_parameter=theta)


def interior_time_slices(grid: GridSpec, epsilon: float) -> tuple[int, int]:
    """Index range [j0, j1) of slices farther than epsilon from both ends."""
    dt = grid.dt
    j0 = int(np.floor(epsilon / dt - 0.5 + _TIE)) + 1
    j1 = grid.shape[0] - j0
    return j0, j1


class Mollification:
    """One kernel applied to the fields of one grid; periodic in space,
    shrunk in time.

    Space-time kernels return fields on the interior time range; purely
    spatial kernels act slice-wise and keep the grid.  Construction
    validates the kernel against ``grid``; the branch is picked per
    component, at call time.  A component is summed directly by
    ``_direct_convolve`` only when both hold: the job is small (grid
    nodes x kernel nodes at most ``_DIRECT_WORK_LIMIT``), and the
    component touches vacuum (``_touches_vacuum``: non-negative with an
    exact zero, -0.0 included).  Direct summation drops weights with
    ``|w| <= DBL_EPSILON``, as ``ndimage.convolve`` does, and runs the
    rest as one ``np.convolve`` per distinct kernel row along the last
    axis (a row over ``_DOT_TAPS`` = 10,000 taps in pieces, so no BLAS
    dot product is threaded), rolled into place along the leading axes;
    the field therefore stays exactly zero wherever the kept weights see
    only zeros.  Every other component uses the circular FFT, the faster
    branch: the kernel spectrum is built by the first component that
    takes it (a call that only sums directly builds none), and every
    later one is multiplied by it; rounding leaves values of order 1e-16
    where direct summation gives zeros.  The FFT branch hands the engine
    (``_fft_convolve``) the range it keeps on every axis the kernel
    spans; only the kept rows of the first (time for a space-time
    kernel) go through the inverse transforms of the other axes, which
    write the kept box straight into the array the result then holds.
    The result is ``irfftn(rfftn(...) * spectrum)`` cut down, bit for
    bit, and each component is scanned for finiteness once.

    A purely spatial kernel convolves a field whose time slices all have
    the same bits once, on its first slice (see ``_slicewise``), and
    scans that slice alone; the result is the same, bit for bit, on
    either branch.  A one-component result is that slice broadcast along
    time, a read-only view, never copied out to every slice; several
    components are copied into one array.

    ``box`` (one node range ``(lo, hi)`` per axis of ``grid``) limits the
    output to that box, on a sub-grid of ``grid``.  Time is always cut:
    the output keeps the box's interior rows and reads them plus the
    kernel's half-width on each side.  A spatial axis is cut the same way
    only when the widened box lies inside it without wrapping; otherwise
    it stays whole and periodic.  The size rule is the whole grid's; the
    vacuum test reads the cut input.  The direct branch gives the
    whole-grid result cut down, bit for bit.  The FFT branch zero-pads
    cut axes to a fast length; the centre of the padded circular result
    is exact on the box and equals the whole-grid one to rounding.  A
    call takes a field on ``grid``, whose read box it reads in place as a
    view (``read``), or a field on ``input_grid``, such as a product
    formed from such views (with nothing cut the two grids are one).

    With ``whole_read`` the box cuts only the output: every axis is read
    whole, as without a box, so the FFT lengths, the branch, every 1-D
    transform and every kept value are the whole-grid call's, bit for
    bit, and only the inverses of the axes after the first (time for a
    space-time kernel) and what follows run on the box alone.  The
    output is cut by the same rule: time always, a spatial axis only
    where the widened box fits.  The direct branch cuts the whole result
    down.  Only the kept box is scanned for finiteness, so an overflow
    confined outside it does not raise.

    A call that reads the whole grid (no box, or ``whole_read``) also
    takes a ``HeldField``, as ``ladder`` passes its inputs to one
    ``Mollification`` per rung: its components keep their tests and
    forward transforms across the rungs, and the result has the bits of
    the call on the plain field.  ``product`` takes a field formed on
    demand from row slices instead, such as a product of the views
    ``read`` gives; the FFT branch feeds it to the forward transform a
    block of time rows at a time, so no array of the read box is made.

    The spectrum is as large as the (cut) input, so keep one object per
    call, and drop it after its last convolution.
    """

    def __init__(self, kernel: MollifierKernel, grid: GridSpec, box=None, *,
                 whole_read: bool = False):
        if box is not None:  # ``_fast_length`` needs Python ints
            box = tuple((int(lo), int(hi)) for lo, hi in box)
        if kernel.include_time:
            if kernel.epsilon >= grid.extents[0] / 2:
                raise DomainExhaustedError("kernel radius >= half the time extent")
            j0, j1 = interior_time_slices(grid, kernel.epsilon)
            if j1 <= j0:
                raise DomainExhaustedError("no interior time slices left")
            axes = tuple(range(len(grid.shape)))
        else:
            j0, j1 = 0, grid.shape[0]
            axes = tuple(range(1, len(grid.shape)))
        for h_grid, h_kernel in zip((grid.spacings[a] for a in axes),
                                    kernel.spacings):
            if abs(h_grid - h_kernel) > _TIE * h_grid:
                raise ValueError("kernel was built for different spacings")

        self.grid = grid
        self._axes = axes
        # per axis: the node range read from ``grid`` and the one returned
        half = dict(zip(axes, kernel.half_widths))
        read, kept = [], []
        for a, n in enumerate(grid.shape):
            lo, hi = (j0, j1) if a == 0 else (0, n)
            k = half.get(a, 0)
            if box is not None and (a == 0 or (box[a][0] >= k
                                               and box[a][1] + k <= n)):
                lo, hi = max(lo, box[a][0]), min(hi, box[a][1])
                if hi <= lo:
                    raise DomainExhaustedError(
                        "box misses the interior time slices")
                read.append((0, n) if whole_read else (lo - k, hi + k))
            else:
                read.append((0, n))
            kept.append((lo, hi))
        self._read = tuple(slice(lo, hi) for lo, hi in read)
        self._kept = tuple(slice(lo - r, hi - r)
                           for (lo, hi), (r, _) in zip(kept, read))
        self.input_grid = grid.subgrid(read)
        self._output_grid = grid.subgrid(kept)

        self._window = kernel.weights * kernel.cell_volume
        self._small = grid.node_count * self._window.size <= _DIRECT_WORK_LIMIT
        sizes = [hi - lo for lo, hi in read]
        self._fft_shape = tuple(
            sizes[a] if sizes[a] == grid.shape[a] else _fast_length(sizes[a])
            for a in axes)
        self._spectrum = None  # built by the first component that needs it

    def _convolve(self, source: _Source) -> np.ndarray:
        """The kept box of one component convolved with the kernel, checked
        finite (see ``_slicewise``)."""
        axes = self._axes
        # either branch cuts the axes the kernel spans; a spatial kernel's
        # kept time rows are cut from its slice-wise result
        keep = tuple(self._kept[a] for a in axes)
        if self._small and source.touches_vacuum:
            cut = (slice(None),) * (len(self._kept) - len(axes)) + keep
            out = _slicewise(
                lambda v: _direct_convolve(v, self._window, axes)[cut],
                source, axes)
        else:
            if self._spectrum is None:
                self._spectrum = _kernel_spectrum(self._window,
                                                  self._fft_shape)
            out = _slicewise(
                lambda v: source.fft(v, self._spectrum, self._fft_shape, keep),
                source, axes)
        return out if 0 in axes else out[self._kept[0]]

    def read(self, field: Field) -> np.ndarray:
        """The values a call reads from a field on ``grid`` or on
        ``input_grid``: the read box, as a view (nothing is copied)."""
        if field.grid == self.input_grid:
            return field.values
        if field.grid == self.grid:
            return field.values[self._read]
        raise ValueError("field lives on neither the mollification's grid "
                         "nor its input grid")

    def __call__(self, field: Field | HeldField) -> Field:
        """The mollified field; a ``HeldField`` lends its tests and its
        forward transforms, and must lie on ``input_grid`` (the whole
        grid: a call that reads all of it)."""
        if isinstance(field, HeldField):
            if field.grid != self.input_grid:
                raise ValueError("a held field serves only a mollification "
                                 "that reads its whole grid")
            return self._mollify(field.sources)
        values = self.read(field)
        return self._mollify([_Source(values[..., c])
                              for c in range(field.components)])

    def product(self, form, components: int) -> Field:
        """The mollified field whose component ``c`` has the rows
        ``form(rows, c)`` (a slice of time rows) on ``input_grid``, such as
        a product of the views ``read`` gives, which must have the bits of
        the whole array's rows.  On the FFT branch each component is formed
        ``_ROW_BLOCK`` rows at a time, straight into the forward transform
        (see ``_forward``), so no array of ``input_grid`` is made; the
        vacuum test, the slice-repeat test and the direct branch form it
        whole, once."""
        shape = self.input_grid.shape
        return self._mollify([_Source(_Rows(lambda rows, c=c: form(rows, c),
                                            shape))
                              for c in range(components)])

    def _mollify(self, sources) -> Field:
        if len(sources) == 1:
            # the engine's kept box, or a broadcast slice, is wrapped as it
            # is; several components are copied into one array
            vals = self._convolve(sources[0])[..., None]
        else:
            vals = np.empty(self._output_grid.shape + (len(sources),))
            for c, source in enumerate(sources):
                vals[..., c] = self._convolve(source)
        return Field._wrap(self._output_grid, vals)


class _Rows:
    """An array formed on demand, by slices of axis 0: ``rows[r0:r1]`` is
    ``form(slice(r0, r1))``, and ``rows[:]`` forms the whole of it."""

    __slots__ = ("form", "shape")

    def __init__(self, form, shape: tuple[int, ...]):
        self.form, self.shape = form, shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.form(rows)


class _Source:
    """One component's values as the convolutions of a call read them.

    ``rows`` is the array, or ``_Rows`` that form it on demand; ``values``
    forms such rows whole, once, and the source then reads that array.
    The vacuum test and the slice-constancy test run at most once each.
    A held source (``HeldField``) also keeps the ``_forward`` transform of
    what it convolved, per transform shape, and applies every later kernel
    spectrum to it (``_apply``); otherwise each convolution transforms
    afresh (``_fft_convolve``).  A shape fixes the slices transformed: a
    spatial one (no time axis) reads the first slice alone exactly when
    every slice repeats it.
    """

    def __init__(self, values, held: bool = False):
        self.rows = values
        self._spectra = {} if held else None

    @property
    def values(self) -> np.ndarray:
        if isinstance(self.rows, _Rows):
            self.rows = self.rows[:]
        return self.rows

    @cached_property
    def touches_vacuum(self) -> bool:
        return _touches_vacuum(self.values)

    @cached_property
    def repeats_first_slice(self) -> bool:
        return repeats_first_slice(self.values)

    def fft(self, values, spectrum: np.ndarray,
            shape: tuple[int, ...], keep) -> np.ndarray:
        """``_fft_convolve(values, ...)``, for ``values`` the slices of
        this source that ``_slicewise`` convolves."""
        if self._spectra is None:
            return _fft_convolve(values, spectrum, shape, keep)
        if shape not in self._spectra:
            self._spectra[shape] = _forward(values, shape)
        return _apply(self._spectra[shape], spectrum, shape, keep)


class HeldField:
    """A field held for the convolutions of one call, such as an epsilon
    ladder over one input: each component's vacuum and slice-constancy
    tests run once, and its forward transform (``_forward``) is made by
    the first FFT convolution and applied to by every later one.

    ``Mollification`` takes it in place of its field, when the call reads
    the whole grid; ``stencil`` convolves it with a spatial stencil.  The
    held transforms are as large as the field, so hold a field only for
    the length of the call that convolves it several times.  ``ladder`` is
    the one place an epsilon ladder holds its inputs; the QNS checks hold
    ``w`` themselves (``QnsRegion.held``), for their ball averages too,
    and lend it to ``ladder``.
    """

    __slots__ = ("grid", "values", "sources")

    def __init__(self, field: Field):
        self.grid, self.values = field.grid, field.values
        self.sources = tuple(_Source(field.values[..., c], held=True)
                             for c in range(field.components))

    def repeats_first_slice(self) -> bool:
        """Whether every time slice has the bits of the first."""
        return all(s.repeats_first_slice for s in self.sources)

    def stencil(self, weights: np.ndarray) -> np.ndarray:
        """The scalar field convolved with a centred odd-length stencil
        over its spatial axes, periodic, by the circular FFT: the same bits
        as ``_fft_convolve``.  A field whose slices repeat the first is
        convolved once, and the result is a read-only broadcast view (see
        ``_slicewise``).  A non-finite result raises ``ValueError``."""
        (source,) = self.sources
        shape = self.grid.shape[1:]
        spectrum = _kernel_spectrum(weights, shape)
        return _slicewise(lambda v: source.fft(v, spectrum, shape, None),
                          source, tuple(range(1, len(self.grid.shape))))


def _touches_vacuum(values: np.ndarray) -> bool:
    """Whether ``values`` are non-negative with at least one exact zero
    (a -0.0 counts): the fields whose exact zeros direct summation keeps."""
    return bool(values.min() == 0.0)


def _slicewise(convolve, source: _Source,
               axes: tuple[int, ...]) -> np.ndarray:
    """``convolve(source.values)`` for a convolution over ``axes``, checked
    finite.

    With axis 0 (time) not among ``axes`` the convolution acts slice by
    slice.  If then every time slice has the bits of the first
    (``repeats_first_slice``), only the first is convolved and the result
    is broadcast along time, as a read-only view.  Otherwise ``convolve``
    gets ``source.rows``: the array, or its rows still to be formed, which
    the direct branch never gets (its vacuum test forms them).  The
    finiteness scan (an FFT of finite values near 1e300 can overflow)
    reads what was convolved: the one slice, not its broadcast.
    """
    if 0 not in axes and source.repeats_first_slice:
        first = convolve(source.values[:1])
        _require_finite(first)
        return np.broadcast_to(first, source.rows.shape[:1] + first.shape[1:])
    out = convolve(source.rows)
    _require_finite(out)
    return out


def repeats_first_slice(values: np.ndarray) -> bool:
    """Whether every slice along axis 0 has the bits of the first.

    Floats are compared as int64, so a -0.0 slice is not a +0.0 one;
    other arrays (masks) by value.  The comparison stops at the first
    slice that differs.
    """
    bits = values.view(np.int64) if values.dtype == np.float64 else values
    return all(np.array_equal(bits[0], b) for b in bits[1:])


def _fast_length(n: int) -> int:
    """Smallest length >= n with only the factors 2, 3 and 5."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to n or beyond
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def mollify(field: Field, kernel: MollifierKernel) -> Field:
    """Convolve one field with the kernel; see ``Mollification``.

    A call that mollifies several fields with one kernel should build one
    ``Mollification`` and apply it to each, so the kernel spectrum is
    transformed once.
    """
    return Mollification(kernel, field.grid)(field)


def ladder(kernels, fields, measure) -> list:
    """``measure(kernel, *fields_e)`` for each kernel of an epsilon ladder,
    in order, where ``fields_e`` are ``fields`` mollified by that kernel.

    The one place a ladder holds its inputs: each of ``fields`` (a
    ``Field``, or a ``HeldField`` the caller already holds) is held for
    the whole ladder, so it is transformed once.  Each rung mollifies
    every field with one whole-grid ``Mollification``, which it drops,
    and with it the kernel spectrum, before ``measure`` runs; it drops
    the mollified fields once ``measure`` returns, before the next rung
    convolves.
    """
    held = [f if isinstance(f, HeldField) else HeldField(f) for f in fields]
    out = []
    for kernel in kernels:
        moll = Mollification(kernel, held[0].grid)
        fields_e = [moll(f) for f in held]
        del moll
        out.append(measure(kernel, *fields_e))
        del fields_e
    return out


def _direct_convolve(values: np.ndarray, weights: np.ndarray,
                     axes: tuple[int, ...]) -> np.ndarray:
    """Periodic direct summation over ``axes`` as 1-D line convolutions.

    ``weights`` is a centred odd-length stencil, one axis per entry of
    ``axes``, the last of them the last axis of ``values``.  Weights with
    ``|w| <= DBL_EPSILON`` are set to 0, the footprint rule of
    ``ndimage.convolve``, so exact zeros of the result match its.  Each
    nonzero row along the last axis, trimmed symmetrically to its
    support, convolves the field's wrapped lines, laid end to end, once
    per distinct row by ``np.convolve`` (in pieces: see ``_LOOP_TAPS``);
    the result is added rolled by every offset of that row along the
    leading axes.
    """
    w = np.where(np.abs(weights) > np.finfo(float).eps, weights, 0.0)
    c = w.shape[-1] // 2
    rows = {}
    for idx in np.ndindex(w.shape[:-1]):
        nonzero = np.flatnonzero(w[idx])
        if nonzero.size:
            r = int(np.abs(nonzero - c).max())
            row = w[idx][c - r:c + r + 1]
            steps = tuple(i - n // 2 for i, n in zip(idx, w.shape))
            rows.setdefault(row.tobytes(), (row, []))[1].append(steps)
    n = values.shape[-1]
    pad = max(row.size for row, _ in rows.values()) // 2
    padded = values.shape[:-1] + (n + 2 * pad,)
    size = values.size // n * padded[-1]
    # every line wrapped by ``pad`` on both sides, laid end to end; the
    # 2 * pad zeros after the last keep every piece's outputs in range
    buf = np.zeros(size + 2 * pad)
    np.take(values, np.arange(-pad, n + pad), axis=-1, mode="wrap",
            out=buf[:size].reshape(padded))
    lead = axes[:-1]
    out = None
    for row, offsets in rows.values():
        line = None
        step = _LOOP_TAPS if row.size <= 3 * _LOOP_TAPS else _DOT_TAPS
        for a in range(0, row.size, step):
            # output i of a line lands at i + pad + row half-width - last tap
            at = pad + row.size // 2 - min(a + step, row.size) + 1
            part = np.convolve(buf, row[a:a + step], "valid")[at:at + size]
            line = part if line is None else np.add(line, part, out=line)
        line = line.reshape(padded)[..., :n]
        for steps in offsets:
            # with no leading axes there is one row and one offset, so the
            # line itself, made contiguous, can become the result
            term = (np.roll(line, steps, axis=lead) if lead
                    else np.ascontiguousarray(line))
            if out is None:
                out = term
            else:
                out += term
    return out


def _kernel_spectrum(weights: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Spectrum of the centred stencil, zero-padded and wrapped to ``shape``,
    laid out for ``_fft_convolve``.

    Its values are those of ``np.fft.rfftn``.  Over one axis it is that 1-D
    spectrum; over more, row ``c`` holds the pencil of the first axis at
    flat column ``c`` of the others, shape ``(columns, shape[0])``.  Only
    the first-axis rows the stencil occupies go through ``_forward``; the
    pencils are zero elsewhere, so an exact zero may differ in sign from
    ``rfftn``'s, and every other value is bit for bit the same.
    """
    wrapped = [np.arange(-(n - 1) // 2, (n - 1) // 2 + 1) % s
               for n, s in zip(weights.shape, shape)]
    if len(shape) == 1:
        kfull = np.zeros(shape)
        kfull[wrapped[0]] = weights
        return _forward(kfull, shape)
    rows = np.zeros(weights.shape[:1] + shape[1:])
    rows[(slice(None),) + np.ix_(*wrapped[1:])] = weights
    part = _forward(rows, shape).reshape(len(rows), -1)
    spec = np.zeros((part.shape[1], shape[0]), complex)
    spec[:, wrapped[0]] = part.T
    return np.fft.fft(spec, axis=-1, out=spec)


def _forward(values, shape: tuple[int, ...]) -> np.ndarray:
    """All of ``rfftn`` over the trailing ``len(shape)`` axes but the first
    axis's transform: ``rfft`` along the last axis, then ``fft`` along the
    middle axes from the last to the second, zero-padding to ``shape``.

    ``values`` is an array or ``_Rows``.  Unless axis 0 is the one axis
    transformed, or holds one block or less, the transforms take
    ``_ROW_BLOCK`` slices of axis 0 at a time, and the last writes them
    straight into the result; ``_Rows`` are formed a block at a time.
    Every 1-D transform reads one pencil, so a block gives the bits of the
    whole array.
    """
    lead = values.ndim - len(shape)
    steps = [(np.fft.rfft, shape[-1], -1)] + [
        (np.fft.fft, shape[a], lead + a) for a in range(len(shape) - 2, 0, -1)]

    def transformed(block, out=None):
        for transform, n, axis in steps[:-1]:
            block = transform(block, n, axis=axis)
        transform, n, axis = steps[-1]
        return transform(block, n, axis=axis, out=out)

    if values.ndim == 1 or len(values) <= _ROW_BLOCK:
        return transformed(values[:])
    size = list(values.shape)
    size[-1] = shape[-1] // 2 + 1
    for a in range(1, len(shape) - 1):
        size[lead + a] = shape[a]
    spec = np.empty(size, complex)
    for r0 in range(0, len(values), _ROW_BLOCK):
        rows = slice(r0, r0 + _ROW_BLOCK)
        transformed(values[rows], spec[rows])
    return spec


# The first transformed axis's pencils go through fft, the kernel product
# and ifft this many at a time; a block and its kernel pencils stay in cache.
# 64 timed a little faster than 32 and 128 on a 2048^2 space-time job.
_PENCIL_BLOCK = 64

# The rest of the inverse (``ifft`` along the middle axes, ``irfft`` along
# the last) runs on this many kept rows at a time, and each block's kept
# columns are copied into the result, so no full-width array is made.
_ROW_BLOCK = 64


def _fft_convolve(values: np.ndarray, spectrum: np.ndarray,
                  shape: tuple[int, ...], keep=None) -> np.ndarray:
    """Circular convolution over the trailing ``len(shape)`` axes of
    ``values``, zero-padded to ``shape``, with the kernel whose
    ``_kernel_spectrum`` is ``spectrum``; only the kept box is returned,
    ``keep`` holding one slice per transformed axis (all of each when
    None), as a fresh contiguous array.  Leading axes are kept whole.

    Both stages once: ``_apply`` of the ``_forward`` transform, which
    nothing else reads, so ``_apply`` may consume it.
    """
    return _apply(_forward(values, shape), spectrum, shape, keep,
                  consume=True)


def _apply(spec: np.ndarray, spectrum: np.ndarray, shape: tuple[int, ...],
           keep=None, consume: bool = False) -> np.ndarray:
    """The kept box of the convolution whose ``_forward`` transform is
    ``spec``, with the kernel whose ``_kernel_spectrum`` is ``spectrum``
    (see ``_fft_convolve``), as a fresh contiguous array.

    ``spec`` is only read, so a ladder can apply every rung's spectrum to
    one held transform; with ``consume`` its storage takes the product
    (over one axis) or the first axis's kept rows (over more), as one
    spectrum less of memory.  Every 1-D transform runs in the order
    ``rfftn`` and ``irfftn`` use, on the same pencils, and the product is
    the same elementwise one.  With more than one axis, each block of
    ``_PENCIL_BLOCK`` columns of the first axis's pencils is gathered once
    into one reused buffer, zero-filled past the input rows, and goes
    through ``fft``, the product and ``ifft`` in place; only its kept rows
    are copied out.  The other axes are inverted on the kept rows alone,
    ``_ROW_BLOCK`` rows at a time, straight into the kept box.
    """
    lead = spec.ndim - len(shape)
    if keep is None:
        keep = (slice(None),) * len(shape)
    out = np.empty(spec.shape[:lead] + tuple(
        len(range(n)[k]) for n, k in zip(shape, keep)))
    if len(shape) == 1:
        spec = np.multiply(spec, spectrum, out=spec if consume else None)
        rows = spec.reshape(-1, spec.shape[-1])
        _invert_rows(rows, out.reshape(len(rows), -1), shape, keep)
        return out
    n, rows, first = shape[0], spec.shape[lead], keep[0]
    cols = spec.reshape(-1, rows, len(spectrum))
    step = min(_PENCIL_BLOCK, len(spectrum))
    buf = np.empty((step, n), complex)
    # the kept rows after the first axis's inverse: in the consumed
    # transform, or apart from the one that is only read
    apart = None if consume else np.empty((len(range(n)[first]),
                                           len(spectrum)), complex)
    for part, box in zip(cols, out.reshape((len(cols),) + out.shape[lead:])):
        kept = part[first] if consume else apart
        for c0 in range(0, len(spectrum), step):
            c1 = min(c0 + step, len(spectrum))
            block = buf[:c1 - c0]
            block[:, :rows] = part[:, c0:c1].T
            block[:, rows:] = 0.0
            np.fft.fft(block, axis=-1, out=block)
            block *= spectrum[c0:c1]
            np.fft.ifft(block, axis=-1, out=block)
            kept[:, c0:c1] = block[:, first].T
        _invert_rows(kept.reshape((-1,) + spec.shape[lead + 1:]), box,
                     shape[1:], keep[1:])
    return out


def _invert_rows(spec: np.ndarray, out: np.ndarray, shape: tuple[int, ...],
                 keep: tuple[slice, ...]) -> None:
    """Write into ``out`` the inverse over the trailing ``len(shape)`` axes
    of ``spec`` (``ifft`` along all but the last, from the first, then
    ``irfft``), each axis cut to its ``keep`` once it is inverted, in
    blocks of ``_ROW_BLOCK`` rows along axis 0.  Every 1-D inverse reads
    one pencil, so a block gives the bits of the whole array.  When the
    last axis is kept whole, ``irfft`` writes into ``out`` itself."""
    whole = range(shape[-1])[keep[-1]] == range(shape[-1])
    for r0 in range(0, len(spec), _ROW_BLOCK):
        block = spec[r0:r0 + _ROW_BLOCK]
        for a in range(1, len(shape)):
            block = np.fft.ifft(block, shape[a - 1], axis=a)
            block = block[(slice(None),) * a + (keep[a - 1],)]
        if whole:
            np.fft.irfft(block, shape[-1], axis=-1,
                         out=out[r0:r0 + _ROW_BLOCK])
        else:
            out[r0:r0 + _ROW_BLOCK] = np.fft.irfft(block, shape[-1],
                                                   axis=-1)[..., keep[-1]]


def lp_norm(field: Field, p: float, mask: np.ndarray | None = None) -> float:
    """Midpoint-quadrature L^p norm of |w| (Euclidean over components).

    An empty mask returns 0 and emits a warning, distinguishing "set is
    empty" from "norm is zero".
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    _require_finite(field.values)
    mag = field.magnitude()
    if mask is not None:
        if mask.shape != field.grid.shape:
            raise ValueError("mask shape mismatch")
        if not mask.any():
            warnings.warn("lp_norm over an empty mask", stacklevel=2)
            return 0.0
        mag = mag[mask]
    if np.isinf(p):
        return float(np.max(mag))
    mag **= p  # a fresh array: |w|, or its masked nodes
    return float((np.sum(mag) * field.grid.cell_volume) ** (1.0 / p))


def integrate(field: Field) -> float:
    """Midpoint quadrature of a scalar field (signed); a non-finite value
    raises ``ValueError``.  A time broadcast is summed as its contiguous
    copy, so the result has the bits of the same values owned."""
    v = np.ascontiguousarray(field.scalar)
    _require_finite(v)
    return float(v.sum() * field.grid.cell_volume)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

# The 4th-order central difference: offset -> coefficient.  Its terms are
# summed in this order, which fixes the bits of every derivative.
_STENCIL = {2: -1 / 12, 1: 8 / 12, -1: -8 / 12, -2: 1 / 12}

# How many nodes the stencil reads on each side of the node it differences.
STENCIL_REACH = max(map(abs, _STENCIL))

# Finite differences run in blocks of time slices of about this size, so
# the block and its temporary stay in cache across the stencil terms.
_FD_BLOCK_BYTES = 1 << 18


def _central_diff(vals: np.ndarray, axis: int,
                  h: float) -> tuple[np.ndarray, int]:
    """4th-order central difference along ``axis``: values and trim.

    Axis 0 is time and not periodic: the result loses ``STENCIL_REACH``
    slices (the trim) at both ends.  The other axes are periodic.  Each term
    ``c * vals[i + off]`` is one multiply of shifted slices into a reused
    temporary, and the terms are summed in ``_STENCIL`` order starting
    from 0, so the result equals the sum of rolled copies bit for bit.
    """
    trim = STENCIL_REACH if axis == 0 else 0
    n = vals.shape[axis]
    if n <= 2 * trim:
        raise DomainExhaustedError("empty time range")

    def along(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    out = np.empty((vals.shape[0] - 2 * trim,) + vals.shape[1:])
    step = max(1, min(len(out), _FD_BLOCK_BYTES // out[0].nbytes))
    tmp = np.empty((step,) + out.shape[1:])
    for a in range(0, out.shape[0], step):
        block = out[a:a + step]
        scratch = tmp[:len(block)]
        for i, (off, c) in enumerate(_STENCIL.items()):
            dst = scratch if i else block
            if axis == 0:
                lo = a + trim + off
                np.multiply(vals[lo:lo + len(block)], c, out=dst)
            else:
                rows, k = vals[a:a + step], off % n
                np.multiply(rows[along(k, n)], c, out=dst[along(0, n - k)])
                np.multiply(rows[along(0, k)], c, out=dst[along(n - k, n)])
            block += scratch if i else 0.0  # 0 + first term: -0.0 -> +0.0
        block /= h
    return out, trim


def ddt(field: Field) -> Field:
    """Time derivative; trims stencil-width slices at both ends."""
    vals, trim = _central_diff(field.values, 0, field.grid.dt)
    sub = field.grid.time_subgrid(trim, field.grid.shape[0] - trim)
    return Field._wrap(sub, vals)


def dspace(field: Field, axis: int) -> Field:
    """Spatial derivative along periodic axis (1-based over space axes)."""
    if not 1 <= axis <= field.grid.spatial_dim:
        raise ValueError(f"axis must be a spatial axis, got {axis}")
    vals, _ = _central_diff(field.values, axis, field.grid.spacings[axis])
    return Field._wrap(field.grid, vals)


def grad(field: Field) -> Field:
    """Spatial gradient of a scalar field; components = spatial_dim."""
    if field.components != 1:
        raise ValueError("grad expects a scalar field")
    parts = [dspace(field, a).values[..., 0]
             for a in range(1, 1 + field.grid.spatial_dim)]
    return Field._wrap(field.grid, np.stack(parts, axis=-1))


def div(field: Field) -> Field:
    """Spatial divergence of a vector field."""
    d = field.grid.spatial_dim
    if field.components != d:
        raise ValueError("div expects a d-component field")
    out = sum(dspace(field.component(i), 1 + i).values[..., 0]
              for i in range(d))
    return Field._wrap(field.grid, out)


# ---------------------------------------------------------------------------
# Import / export
# ---------------------------------------------------------------------------

def save_field(field: Field, path, fmt: str = "bin") -> None:
    """Write a field as raw little-endian float64 (or CSV) plus JSON header.

    The header records a sub-grid's root grid and origin, so a field on a
    box or a shrunk time range loads back on an equal grid.  ``derived``
    (whether the grid has a root) is written but not read back.
    """
    if fmt not in ("bin", "csv"):
        raise ValueError("fmt must be 'bin' or 'csv'")
    path = Path(path)
    header = {
        "schema": "vacuumlab-field-1",
        "spatial_dim": field.grid.spatial_dim,
        "shape": list(field.grid.shape),
        "extents": list(field.grid.extents),
        "t0": field.grid.t0,
        "derived": field.grid.root is not None,
        "root": _grid_header(field.grid.root),
        "origin": list(field.grid.origin),
        "components": field.components,
        "format": fmt,
        "dtype": "<f8",
        "order": "C",
        "data_file": path.name + (".bin" if fmt == "bin" else ".csv"),
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(header, indent=2, sort_keys=True) + "\n")
    data = Path(str(path) + (".bin" if fmt == "bin" else ".csv"))
    flat = field.values.astype("<f8")
    if fmt == "bin":
        data.write_bytes(flat.tobytes(order="C"))
    else:
        np.savetxt(data, flat.reshape(-1, field.components), delimiter=",")


def _grid_header(grid: GridSpec | None) -> dict | None:
    if grid is None:
        return None
    return {"shape": list(grid.shape), "extents": list(grid.extents),
            "t0": grid.t0, "derived": False}


# keys every field header holds, and every root grid record within one
_HEADER_KEYS = ("spatial_dim", "shape", "extents", "t0", "components",
                "format", "data_file")
_ROOT_KEYS = ("shape", "extents", "t0")


def _require_keys(record, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(record, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key in keys:
        if key not in record:
            raise ValueError(f"{where} lacks the key {key!r}")


def load_field(path) -> Field:
    """Read a field written by ``save_field``; a sub-grid keeps its root
    and origin.  A header that does not describe a valid grid (a missing
    key, a format other than ``bin`` or ``csv``, no root and an axis under
    8 nodes, a ``t0`` or ``extents`` other than the ones its root and
    origin give) raises ``ValueError``; ``derived`` is not read."""
    path = Path(path)
    header = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    if not isinstance(header, dict) or header.get("schema") != "vacuumlab-field-1":
        raise ValueError("unrecognized field header")
    _require_keys(header, _HEADER_KEYS, "field header")
    if header["format"] not in ("bin", "csv"):
        raise ValueError(f"field header names the unknown format "
                         f"{header['format']!r}; expected 'bin' or 'csv'")
    root = header.get("root")
    if root is not None:
        _require_keys(root, _ROOT_KEYS, "field header's root")
        root = GridSpec(header["spatial_dim"], tuple(root["shape"]),
                        tuple(root["extents"]), t0=root["t0"])
    grid = GridSpec(header["spatial_dim"], tuple(header["shape"]),
                    tuple(header["extents"]), t0=header["t0"], root=root,
                    origin=tuple(header.get("origin", ())))
    if root is not None:
        placed = root.subgrid(tuple((o, o + n)
                                    for o, n in zip(grid.origin, grid.shape)))
        for key in ("t0", "extents"):
            if getattr(grid, key) != getattr(placed, key):
                raise ValueError(
                    f"field header's {key!r} is {header[key]}, but its root "
                    f"and origin give {getattr(placed, key)}")
    shape = tuple(header["shape"]) + (header["components"],)
    data = path.parent / header["data_file"]
    if header["format"] == "bin":
        vals = np.frombuffer(data.read_bytes(), dtype="<f8").reshape(shape)
    else:
        vals = np.loadtxt(data, delimiter=",").reshape(shape)
    return Field(grid, vals.copy())
