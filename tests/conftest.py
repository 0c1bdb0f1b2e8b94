import math

import numpy as np
import pytest
from hypothesis import settings

from vacuumlab import grids
from vacuumlab.grids import Field, GridSpec, from_function
from vacuumlab.pressure import PressureLaw

# CI runs ``--hypothesis-profile=ci``: every run draws the same examples,
# so a failure there replays locally with the same flag
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def law():
    return PressureLaw(gamma=5.0 / 3.0)


@pytest.fixture(scope="session")
def small_grid():
    return GridSpec(1, (64, 64), (1.0, 1.0))


@pytest.fixture(scope="session")
def smooth_pair(small_grid):
    rho = from_function(small_grid,
                        lambda t, x: 1.0 + 0.3 * np.sin(2 * np.pi * x)
                        * np.cos(2 * np.pi * t))
    u = from_function(small_grid,
                      lambda t, x: 0.2 * np.cos(2 * np.pi * (x - t)))
    return rho, u


def direct_circular_convolve(values, weights, axes):
    """Periodic convolution over ``axes`` as a sum of rolled copies.

    ``weights`` is a centred odd-length stencil, one axis per entry of
    ``axes``.  This is the direct-summation oracle for the FFT paths.
    """
    out = np.zeros(values.shape)
    centre = [(n - 1) // 2 for n in weights.shape]
    for idx in np.ndindex(weights.shape):
        if weights[idx] != 0.0:
            steps = [i - c for i, c in zip(idx, centre)]
            out += weights[idx] * np.roll(values, steps, axis=axes)
    return out


def force_branch(monkeypatch, branch):
    """Send every component of every ``Mollification`` down one branch,
    "direct" or "fft", whatever its size and whether it touches vacuum."""
    direct = branch == "direct"
    monkeypatch.setattr(grids, "_DIRECT_WORK_LIMIT",
                        math.inf if direct else -1)
    monkeypatch.setattr(grids, "_touches_vacuum", lambda values: direct)


def record_convolved_rows(monkeypatch):
    """List, per convolution of either ``Mollification`` branch or of
    ``HeldField.stencil``, the number of time slices it convolves: the
    calls of ``_direct_convolve`` and of the FFT engine's apply stage,
    which every FFT convolution runs once, held or not."""
    rows = []
    for name in ("_direct_convolve", "_apply"):
        def spy(values, *args, _inner=getattr(grids, name), **kwargs):
            rows.append(values.shape[0])
            return _inner(values, *args, **kwargs)

        monkeypatch.setattr(grids, name, spy)
    return rows


def convolve_every_slice(monkeypatch):
    """Turn the repeated-slice rule off: every time slice is convolved."""
    monkeypatch.setattr(grids, "_slicewise",
                        lambda convolve, source, axes: convolve(source.values))


def assert_time_broadcast(values):
    """``values`` is one time slice broadcast along axis 0 as a read-only
    view (stride 0 on axis 0), not an array of every slice."""
    assert values.strides[0] == 0
    assert not values.flags.writeable


def hexed(value):
    """``value`` with every float replaced by its ``float.hex`` (a -0.0 is
    not a 0.0), and a ``Field`` by the list of its values so; dicts are
    walked in key order, lists and tuples become lists."""
    if isinstance(value, Field):
        return [float(v).hex() for v in value.values.ravel()]
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value.hex() if isinstance(value, float) else value
