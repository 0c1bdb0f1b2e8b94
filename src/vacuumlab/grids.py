"""Uniform periodic space-time grids, sampled fields, plateau mollifiers.

Conventions used throughout the package:

* A grid covers ``(t0, t0 + T) x torus(L1[, L2])``.  Axis 0 is time and is
  *not* periodic; the remaining one or two axes are periodic.
* Samples sit at cell midpoints, so the midpoint quadrature rule
  ``sum(values) * cell_volume`` is exact for constants.
* Mollified quantities live on the time-shrunk domain (interior slices at
  distance greater than the kernel radius from both time boundaries).
* A derived grid (a shrunk time range, or a box of node ranges) records
  its root grid and its node offset from it on every axis; its spacings
  are the root's and its coordinates are the root's sliced, bit for bit.
  Fields on different time ranges of one root align by time origin.
* ``Mollification(kernel, grid)`` applies one kernel to every field of a
  call: it validates the kernel against the grid and picks the branch
  once.  Small jobs are summed directly; the direct branch drops kernel
  weights with ``|w| <= DBL_EPSILON`` (the footprint rule of
  ``ndimage.convolve``) and runs the rest as 1-D line convolutions, so a
  non-negative field is exactly zero wherever the remaining weights see
  only zeros.  Large jobs go through the circular FFT, with the kernel
  spectrum built once and applied to every component of every field.
  ``mollify(field, kernel)`` is the one-field shorthand.
* ``Mollification(kernel, grid, box=...)`` returns only a box of node
  ranges and reads only the box widened by the kernel's half-width.
  Time is always cut; a spatial axis only when the widened box fits
  without wrapping, and otherwise (a constant spatial factor, say) it
  stays whole and periodic.  The direct branch gives the whole result
  cut down, bit for bit; the FFT branch agrees to rounding.
* Finite differences read shifted slices of the samples; periodic axes
  wrap, and the non-periodic time axis loses the stencil width at both
  ends.
* Finiteness is checked where values enter, not after every operation.
  ``Field(grid, values)`` scans its values, so synthesis,
  ``from_function``, ``load_field`` and user data are checked, and so is
  ``Field.map``, which applies an arbitrary function.  Results computed
  from checked fields (arithmetic, ``dot``, ``component``, ``restrict``
  and the finite differences) are wrapped without a re-scan.  An overflow
  in them is caught where the values leave: ``Mollification`` checks
  what it returns (an FFT of finite values near 1e300 can overflow),
  ``integrate`` and ``lp_norm`` reject any non-finite value, masked or
  not, and reports check their scalars.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import (
    DomainExhaustedError,
    EmptyOverlapError,
    GridMemoryError,
    InfeasibleKernelError,
    ResolutionError,
)

# Total sample cap for a single field (nodes, not bytes).
MAX_NODES = 1 << 25

# Direct-summation convolution is used below this (field nodes x kernel
# nodes) work estimate; larger jobs go through the circular FFT path.
_DIRECT_WORK_LIMIT = 2e8

_TIE = 1e-12  # slack for grid-alignment comparisons


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
    derived: bool = False
    root: GridSpec | None = None
    origin: tuple[int, ...] = ()

    def __post_init__(self):
        if self.spatial_dim not in (1, 2):
            raise ValueError(f"spatial_dim must be 1 or 2, got {self.spatial_dim}")
        naxes = 1 + self.spatial_dim
        if len(self.shape) != naxes or len(self.extents) != naxes:
            raise ValueError("shape/extents must have one time and spatial_dim axes")
        if any(e <= 0 for e in self.extents):
            raise ValueError("extents must be positive")
        if any(n < 1 for n in self.shape):
            raise ValueError("axis sizes must be positive")
        if not self.derived and any(n < 8 for n in self.shape):
            raise ValueError("root grids need at least 8 points per axis")
        if self.node_count > MAX_NODES:
            raise GridMemoryError(
                f"grid has {self.node_count} nodes, cap is {MAX_NODES}"
            )
        if self.root is None:
            if self.origin:
                raise ValueError("an origin needs a root grid")
        elif (not self.derived or self.root.root is not None
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

    def subgrid(self, box) -> "GridSpec":
        """Sub-grid keeping node range ``[lo, hi)`` of every axis."""
        box = tuple((int(lo), int(hi)) for lo, hi in box)
        if len(box) != len(self.shape) or any(
                lo < 0 or hi > n for (lo, hi), n in zip(box, self.shape)):
            raise ValueError("box must give one node range inside each axis")
        root = self if self.root is None else self.root
        base = self.origin or (0,) * len(self.shape)
        origin = tuple(b + lo for b, (lo, _) in zip(base, box))
        h = root.spacings
        extents = tuple(e if (lo, hi) == (0, n) else (hi - lo) * step
                        for e, (lo, hi), n, step
                        in zip(self.extents, box, self.shape, h))
        return GridSpec(self.spatial_dim, tuple(hi - lo for lo, hi in box),
                        extents, t0=root.t0 + origin[0] * h[0], derived=True,
                        root=root, origin=origin)

    def time_subgrid(self, j0: int, j1: int) -> "GridSpec":
        """Sub-grid keeping time indices [j0, j1)."""
        if j1 <= j0:
            raise DomainExhaustedError("empty time range")
        return self.subgrid(((j0, j1),) + tuple((0, n) for n in self.shape[1:]))

    def time_offset_from(self, other: "GridSpec") -> int:
        """Index offset of this grid's first slice inside ``other``."""
        off = (self.t0 - other.t0) / self.dt
        k = int(round(off))
        if abs(off - k) > 1e-9:
            raise ValueError("grids are not time-aligned")
        return k

    def compatible(self, other: "GridSpec") -> bool:
        """Same spatial sampling (nodes, extents and position) and time step."""
        return (self.spatial_dim == other.spatial_dim
                and self.shape[1:] == other.shape[1:]
                and self.extents[1:] == other.extents[1:]
                and self._space_origin() == other._space_origin()
                and abs(self.dt - other.dt) < _TIE * self.dt)

    def _space_origin(self) -> tuple[int, ...]:
        return self.origin[1:] or (0,) * self.spatial_dim


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("field values must be finite")


class Field:
    """Sampled real field; values have shape grid.shape + (components,).

    The public constructor rejects non-finite values.  ``Field._wrap``
    skips that scan and is only for values computed from checked fields;
    see the module docstring for where overflow is caught instead.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values: np.ndarray):
        self._store(grid, values)
        _require_finite(self.values)

    @classmethod
    def _wrap(cls, grid: GridSpec, values: np.ndarray) -> "Field":
        out = cls.__new__(cls)
        out._store(grid, values)
        return out

    def _store(self, grid: GridSpec, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape == grid.shape:
            values = values[..., None]
        if values.shape[:-1] != grid.shape or values.ndim != len(grid.shape) + 1:
            raise ValueError(
                f"values shape {values.shape} does not match grid {grid.shape}"
            )
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

    # -- aligned arithmetic ------------------------------------------------

    def _binop(self, other, op):
        if isinstance(other, Field):
            grid, a, b = align(self, other)
            return Field._wrap(grid, op(a, b))
        if np.ndim(other) == 0 and np.isfinite(other):
            return Field._wrap(self.grid, op(self.values, other))
        return Field(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __radd__(self, other):
        return self._binop(other, lambda a, b: b + a)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return Field._wrap(self.grid, -self.values)

    def dot(self, other: "Field") -> "Field":
        """Component contraction; yields a scalar field."""
        grid, a, b = align(self, other)
        return Field._wrap(grid, np.sum(a * b, axis=-1))


def align(*fields: Field):
    """Slice fields to their common time range.

    Returns ``(grid, values_a, values_b, ...)``; values broadcast over the
    trailing component axis as usual.
    """
    g0 = fields[0].grid
    for f in fields[1:]:
        if not g0.compatible(f.grid):
            raise ValueError("fields live on incompatible grids")
    t_lo = max(f.grid.t0 for f in fields)
    t_hi = min(f.grid.t_end for f in fields)
    if t_hi - t_lo < g0.dt * (1 - _TIE):
        raise EmptyOverlapError("fields share no time slices")
    out = []
    grid = None
    for f in fields:
        j0 = int(round((t_lo - f.grid.t0) / g0.dt))
        j1 = j0 + int(round((t_hi - t_lo) / g0.dt))
        sub = f.grid.time_subgrid(j0, j1)
        if grid is None:
            grid = sub
        out.append(f.values[j0:j1])
    return (grid, *out)


def restrict(field: Field, grid: GridSpec) -> Field:
    """Restrict a field to a time-aligned subgrid (e.g. the shrunk domain)."""
    j0 = grid.time_offset_from(field.grid)
    j1 = j0 + grid.shape[0]
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
    def peak(self) -> float:
        return 1.0 / self.epsilon ** self.dim

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def half_widths(self) -> tuple[int, ...]:
        return tuple((n - 1) // 2 for n in self.weights.shape)

    def mass(self) -> float:
        return float(self.weights.sum() * self.cell_volume)


def _profile(r: np.ndarray, theta: float) -> np.ndarray:
    out = np.zeros_like(r)
    out[r <= 1.0 / 3.0] = 1.0
    trans = (r > 1.0 / 3.0) & (r < 1.0)
    s = (3.0 * r[trans] - 1.0) / 2.0
    out[trans] = np.exp(theta * (1.0 - 1.0 / (1.0 - s ** 2)))
    return out


def _solve_theta(mass) -> float:
    """Bisect for the steepness theta at which ``mass(theta)`` is 1.

    ``mass`` decreases in theta and exceeds 1 at theta = 0.
    """
    lo, hi = 0.0, 1.0
    while mass(hi) > 1.0:
        hi *= 2.0
        if hi > 1e8:
            raise InfeasibleKernelError("steepness search did not bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # lo and hi are adjacent doubles: nothing left to halve
        if mass(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def make_mollifier(epsilon: float, dim: int, grid: GridSpec,
                   include_time: bool = True) -> MollifierKernel:
    """Build the unit-mass plateau kernel of radius ``epsilon`` on ``grid``.

    ``dim`` must equal 1 + spatial_dim for space-time kernels, or
    spatial_dim for purely spatial kernels (``include_time=False``).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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

    def mass(theta):
        return float(_profile(r, theta).sum() * scale)

    plateau_mass = float((r <= 1.0 / 3.0).sum() * scale)
    full_mass = mass(0.0)
    if plateau_mass >= 1.0 or full_mass <= 1.0:
        raise InfeasibleKernelError(
            f"no steepness gives unit mass (plateau {plateau_mass:.3g}, "
            f"full {full_mass:.3g})"
        )
    theta = _solve_theta(mass)
    w = _profile(r, theta) / epsilon ** dim
    # Remove the last floating-point sliver so the discrete integral is 1
    # to full precision (rescales transition nodes only).
    m = float(w.sum() * vol)
    trans = (r > 1.0 / 3.0) & (r < 1.0)
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
    validates the kernel against ``grid`` and picks the branch once.  Jobs
    of at most ``_DIRECT_WORK_LIMIT`` (field nodes x kernel nodes) are
    summed directly by ``_direct_convolve``: weights with
    ``|w| <= DBL_EPSILON`` are dropped, as ``ndimage.convolve`` does, and
    the rest run as one ``ndimage.convolve1d`` per distinct kernel row
    along the last axis, rolled into place along the leading axes.  A
    non-negative field therefore stays exactly zero wherever the kept
    weights see only zeros.  Larger jobs use the circular FFT: the kernel
    spectrum is built here, once, and every component of every field is
    multiplied by it; rounding leaves values of order 1e-16 where the
    direct branch gives zeros.  ``method`` forces either branch ("direct"
    or "fft").

    ``box`` (one node range ``(lo, hi)`` per axis of ``grid``) limits the
    output to that box, on a sub-grid of ``grid``.  Time is always cut:
    the output keeps the box's interior rows and reads them plus the
    kernel's half-width on each side.  A spatial axis is cut the same way
    only when the widened box lies inside it without wrapping; otherwise
    it stays whole and periodic.  The branch is the one the whole grid
    takes.  The direct branch gives the whole-grid result cut down, bit
    for bit.  The FFT branch zero-pads cut axes to a fast length; the
    centre of the padded circular result is exact on the box and equals
    the whole-grid one to rounding.  A call takes fields on
    ``input_grid``; ``crop`` cuts a field on ``grid`` down to it (with no
    box the two grids are one).

    The spectrum is as large as the (cut) input, so keep one object per
    call and drop it before the call's arithmetic.
    """

    def __init__(self, kernel: MollifierKernel, grid: GridSpec,
                 method: str = "auto", box=None):
        if method not in ("auto", "direct", "fft"):
            raise ValueError(f"method must be 'auto', 'direct' or 'fft', "
                             f"got {method!r}")
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
                read.append((lo - k, hi + k))
            else:
                read.append((0, n))
            kept.append((lo, hi))
        self._read = tuple(slice(lo, hi) for lo, hi in read)
        self._kept = tuple(slice(lo - r, hi - r)
                           for (lo, hi), (r, _) in zip(kept, read))
        if box is not None:
            self.input_grid = grid.subgrid(read)
            self._output_grid = grid.subgrid(kept)
        else:
            # a spatial kernel returns each field on its own grid
            self.input_grid = grid
            self._output_grid = (grid.time_subgrid(j0, j1)
                                 if kernel.include_time else None)

        win = kernel.weights * kernel.cell_volume
        nwork = grid.node_count * win.size
        if method == "direct" or (method == "auto" and nwork <= _DIRECT_WORK_LIMIT):
            self._window, self._spectrum = win, None
        else:
            sizes = [hi - lo for lo, hi in read]
            self._fft_shape = tuple(
                sizes[a] if sizes[a] == grid.shape[a] else _fast_length(sizes[a])
                for a in axes)
            self._window = None
            self._spectrum = _kernel_spectrum(win, self._fft_shape)

    def _convolve(self, values: np.ndarray) -> np.ndarray:
        if self._spectrum is None:
            return _direct_convolve(values, self._window, self._axes)
        return _apply_spectrum(values, self._spectrum, self._axes,
                               self._fft_shape)

    def crop(self, field: Field) -> Field:
        """The part of a field on ``grid`` that is read, on ``input_grid``."""
        if not _same_sampling(field.grid, self.grid):
            raise ValueError("field does not live on the mollification's grid")
        if self.input_grid is self.grid:
            return field
        return Field._wrap(self.input_grid, field.values[self._read])

    def __call__(self, field: Field) -> Field:
        # ``rho * u`` lives on a derived ``align`` subgrid: compare the
        # sampling, not the dataclass
        if not _same_sampling(field.grid, self.input_grid):
            raise ValueError("field does not live on the mollification's "
                             "input grid")
        kept = self._kept
        if field.components == 1:
            vals = self._convolve(field.values[..., 0])[kept][..., None]
        else:
            vals = np.empty(tuple(s.stop - s.start for s in kept)
                            + (field.components,))
            for c in range(field.components):
                vals[..., c] = self._convolve(field.values[..., c])[kept]
        return Field(self._output_grid or field.grid, vals)


def _same_sampling(a: GridSpec, b: GridSpec) -> bool:
    return (a.shape == b.shape and a.compatible(b)
            and abs(a.t0 - b.t0) <= 1e-9 * a.dt)


def _fast_length(n: int) -> int:
    """Smallest length >= n with only the factors 2, 3 and 5."""
    # imported here: only cut (padded) FFT axes need it
    from scipy.fft import next_fast_len
    return next_fast_len(n, real=True)


def mollify(field: Field, kernel: MollifierKernel, method: str = "auto") -> Field:
    """Convolve one field with the kernel; see ``Mollification``.

    A call that mollifies several fields with one kernel should build one
    ``Mollification`` and apply it to each, so the kernel spectrum is
    transformed once.
    """
    return Mollification(kernel, field.grid, method)(field)


def _direct_convolve(values: np.ndarray, weights: np.ndarray,
                     axes: tuple[int, ...]) -> np.ndarray:
    """Periodic direct summation over ``axes`` as 1-D line convolutions.

    ``weights`` is a centred odd-length stencil, one axis per entry of
    ``axes``.  Weights with ``|w| <= DBL_EPSILON`` are set to 0, the
    footprint rule of ``ndimage.convolve``, so exact zeros of the result
    match its.  Each nonzero row along the last axis, trimmed
    symmetrically to its support, convolves the field once per distinct
    row (``convolve1d`` halves the multiplies on symmetric rows); the
    result is added rolled by every offset of that row along the leading
    axes.
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
    lead = axes[:-1]
    out = None
    for row, offsets in rows.values():
        line = ndimage.convolve1d(values, row, axis=axes[-1], mode="wrap")
        for steps in offsets:
            # with no leading axes there is one row and one offset, so the
            # line itself can become the result
            term = np.roll(line, steps, axis=lead) if lead else line
            if out is None:
                out = term
            else:
                out += term
    return out


def circular_convolve(values: np.ndarray, weights: np.ndarray,
                      axes: tuple[int, ...]) -> np.ndarray:
    """Periodic convolution over the trailing ``axes`` by the circular FFT.

    ``weights`` is a centred odd-length stencil; leading axes broadcast.
    """
    shape = tuple(values.shape[a] for a in axes)
    return _apply_spectrum(values, _kernel_spectrum(weights, shape), axes)


def _kernel_spectrum(weights: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """rfftn of the centred stencil, zero-padded and wrapped to ``shape``."""
    kfull = np.zeros(shape)
    idx = np.ix_(*[
        (np.arange(-(n - 1) // 2, (n - 1) // 2 + 1)) % s
        for n, s in zip(weights.shape, shape)
    ])
    kfull[idx] = weights
    return np.fft.rfftn(kfull)


def _apply_spectrum(values: np.ndarray, spectrum: np.ndarray,
                    axes: tuple[int, ...], shape=None) -> np.ndarray:
    """Multiply the spectrum of ``values`` over ``axes`` by a kernel spectrum.

    ``shape`` zero-pads ``values`` over ``axes`` first (default: none).
    """
    if shape is None:
        shape = tuple(values.shape[a] for a in axes)
    fv = np.fft.rfftn(values, s=shape, axes=axes)
    fv *= spectrum.reshape((1,) * (values.ndim - len(axes)) + spectrum.shape)
    return np.fft.irfftn(fv, s=shape, axes=axes)


def shift(field: Field, xi) -> Field:
    """w(. + xi) for a node-aligned offset; torus rotation in space."""
    grid = field.grid
    xi = tuple(float(x) for x in xi)
    if len(xi) != len(grid.shape):
        raise ValueError("offset must have one entry per axis")
    steps = []
    for x, h in zip(xi, grid.spacings):
        k = int(round(x / h))
        if abs(x - k * h) > 1e-9 * max(h, abs(x)):
            raise ValueError(f"offset {x} is not node-aligned (spacing {h})")
        steps.append(k)
    s = steps[0]
    nt = grid.shape[0]
    if abs(s) >= nt:
        raise EmptyOverlapError("time shift consumes the whole domain")
    vals = field.values
    for a, k in enumerate(steps[1:], start=1):
        if k:
            vals = np.roll(vals, -k, axis=a)
    if s >= 0:
        sub = grid.time_subgrid(0, nt - s)
        out = vals[s:nt]
    else:
        sub = grid.time_subgrid(-s, nt)
        out = vals[: nt + s]
    return Field(sub, out)


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
    return float((np.sum(mag ** p) * field.grid.cell_volume) ** (1.0 / p))


def integrate(field: Field, mask: np.ndarray | None = None) -> float:
    """Midpoint quadrature of a scalar field (signed).

    A non-finite value raises ``ValueError``, inside the mask or not.
    """
    v = field.scalar
    _require_finite(v)
    if mask is not None:
        v = np.where(mask, v, 0.0)
    return float(v.sum() * field.grid.cell_volume)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

_STENCILS = {
    2: {1: 0.5, -1: -0.5},
    4: {2: -1 / 12, 1: 8 / 12, -1: -8 / 12, -2: 1 / 12},
}

# Finite differences run in blocks of time slices of about this size, so
# the block and its temporary stay in cache across the stencil terms.
_FD_BLOCK_BYTES = 1 << 18


def _central_diff(vals: np.ndarray, axis: int, h: float,
                  order: int) -> tuple[np.ndarray, int]:
    """Central difference along ``axis``; returns the values and the trim.

    Axis 0 is time and not periodic: the result loses ``order // 2``
    slices (the trim) at both ends.  The other axes are periodic.  Each
    term ``c * vals[i + off]`` is one multiply of shifted slices into a
    reused temporary, and the terms are summed in stencil order starting
    from 0, so the result equals the sum of rolled copies bit for bit.
    """
    if order not in _STENCILS:
        raise ValueError("order must be 2 or 4")
    trim = order // 2 if axis == 0 else 0
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
        for i, (off, c) in enumerate(_STENCILS[order].items()):
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


def ddt(field: Field, order: int = 4) -> Field:
    """Time derivative; trims stencil-width slices at both ends."""
    vals, trim = _central_diff(field.values, 0, field.grid.dt, order)
    sub = field.grid.time_subgrid(trim, field.grid.shape[0] - trim)
    return Field._wrap(sub, vals)


def dspace(field: Field, axis: int, order: int = 4) -> Field:
    """Spatial derivative along periodic axis (1-based over space axes)."""
    if not 1 <= axis <= field.grid.spatial_dim:
        raise ValueError(f"axis must be a spatial axis, got {axis}")
    vals, _ = _central_diff(field.values, axis, field.grid.spacings[axis],
                            order)
    return Field._wrap(field.grid, vals)


def grad(field: Field, order: int = 4) -> Field:
    """Spatial gradient of a scalar field; components = spatial_dim."""
    if field.components != 1:
        raise ValueError("grad expects a scalar field")
    parts = [dspace(field, a, order).values[..., 0]
             for a in range(1, 1 + field.grid.spatial_dim)]
    return Field._wrap(field.grid, np.stack(parts, axis=-1))


def div(field: Field, order: int = 4) -> Field:
    """Spatial divergence of a vector field."""
    d = field.grid.spatial_dim
    if field.components != d:
        raise ValueError("div expects a d-component field")
    out = sum(dspace(field.component(i), 1 + i, order).values[..., 0]
              for i in range(d))
    return Field._wrap(field.grid, out)


def spacetime_gradient_norm(field: Field, order: int = 4) -> Field:
    """|(d_t w, grad w)| as a scalar field on the time-trimmed grid."""
    if field.components != 1:
        raise ValueError("expects a scalar field")
    gt = ddt(field, order)
    parts = [restrict(dspace(field, a, order), gt.grid).values[..., 0]
             for a in range(1, 1 + field.grid.spatial_dim)]
    total = gt.values[..., 0] ** 2 + sum(p ** 2 for p in parts)
    return Field(gt.grid, np.sqrt(total))


# ---------------------------------------------------------------------------
# Import / export
# ---------------------------------------------------------------------------

def save_field(field: Field, path, fmt: str = "bin") -> None:
    """Write a field as raw little-endian float64 (or CSV) plus JSON header.

    The header records a sub-grid's root grid and origin, so a field on a
    box or a shrunk time range loads back on an equal grid.
    """
    path = Path(path)
    header = {
        "schema": "vacuumlab-field-1",
        "spatial_dim": field.grid.spatial_dim,
        "shape": list(field.grid.shape),
        "extents": list(field.grid.extents),
        "t0": field.grid.t0,
        "derived": field.grid.derived,
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
    elif fmt == "csv":
        np.savetxt(data, flat.reshape(-1, field.components), delimiter=",")
    else:
        raise ValueError("fmt must be 'bin' or 'csv'")


def _grid_header(grid: GridSpec | None) -> dict | None:
    if grid is None:
        return None
    return {"shape": list(grid.shape), "extents": list(grid.extents),
            "t0": grid.t0, "derived": grid.derived}


def load_field(path) -> Field:
    """Read a field written by ``save_field``; a sub-grid keeps its root
    and origin.  A header that does not describe a valid grid raises
    ``ValueError``."""
    path = Path(path)
    header = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    if header.get("schema") != "vacuumlab-field-1":
        raise ValueError("unrecognized field header")
    # headers written before "derived" was recorded: infer it from t0
    derived = header.get("derived", header["t0"] != 0.0)
    root = header.get("root")
    if root is not None:
        root = GridSpec(header["spatial_dim"], tuple(root["shape"]),
                        tuple(root["extents"]), t0=root["t0"],
                        derived=root["derived"])
    grid = GridSpec(header["spatial_dim"], tuple(header["shape"]),
                    tuple(header["extents"]), t0=header["t0"],
                    derived=derived, root=root,
                    origin=tuple(header.get("origin", ())))
    shape = tuple(header["shape"]) + (header["components"],)
    data = path.parent / header["data_file"]
    if header["format"] == "bin":
        vals = np.frombuffer(data.read_bytes(), dtype="<f8").reshape(shape)
    else:
        vals = np.loadtxt(data, delimiter=",").reshape(shape)
    return Field(grid, vals.copy())
