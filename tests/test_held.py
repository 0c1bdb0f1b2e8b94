"""Ladders that hold their inputs (``HeldField``) against per-rung calls.

Each holder transforms an input once and applies every rung's kernel
spectrum to that transform; every epsilon ladder holds its inputs in one
function, ``grids.ladder``.  Every rung's mollification, and every ball
average, must have the bits of the same call on the plain field, which
transforms afresh.
"""

import weakref

import numpy as np
import pytest
from conftest import assert_time_broadcast, force_branch, hexed

from vacuumlab import grids, pressure, rates, vacuum
from vacuumlab.grids import Field, GridSpec, HeldField, make_mollifier
from vacuumlab.pressure import PressureLaw

# (spatial_dim, positive, time-varying)
FIELDS = [(dim, positive, varying) for dim in (1, 2)
          for positive in (True, False) for varying in (False, True)]
FIELD_IDS = [f"{dim}d-{'positive' if positive else 'vacuum'}-"
             f"{'varying' if varying else 'constant'}"
             for dim, positive, varying in FIELDS]


def sample(dim, positive, varying, components=1):
    """A field >= 0: a product of sines, lifted above 0 or cut at 0 (exact
    vacuum on about half the nodes), constant in time or scaled by 1 + t/2."""
    g = (GridSpec(1, (48, 128), (1.0, 1.0)) if dim == 1
         else GridSpec(2, (24, 24, 20), (1.0, 1.0, 1.0)))
    t, *xs = g.meshgrid()
    parts = []
    for c in range(components):
        wave = np.prod([np.sin(2 * np.pi * (k + 1 + c) * x)
                        for k, x in enumerate(xs)], axis=0)
        vals = 1.5 + wave if positive else np.maximum(wave, 0.0)
        parts.append(vals * (1.0 + 0.5 * t) if varying else vals)
    return Field(g, np.stack(parts, axis=-1))


def spatial_kernels(grid):
    eps = (0.2, 0.1, 0.05, 0.03) if grid.spatial_dim == 1 else \
        (0.4, 0.3, 0.2, 0.16)
    return [make_mollifier(e, grid.spatial_dim, grid, include_time=False)
            for e in eps]


def space_time_ladder(grid):
    return ((0.2, 0.16, 0.12, 0.1, 0.08) if grid.spatial_dim == 1
            else (0.35, 0.3, 0.25, 0.2, 0.16))


# holder -> (components of its input, number of inputs it holds, the call)
HOLDERS = {
    "qns": (1, 1, lambda w: vacuum.qns_mollifier_equivalence(
        w, None, spatial_kernels(w.grid), M=10.0)),
    "l1": (1, 1, lambda w: vacuum.l1_ratio_lemma_check(
        w, spatial_kernels(w.grid))),
    "reciprocal": (1, 1, lambda w: vacuum.reciprocal_integrability_rate(
        w, 4.0, 4.0, 2.0, spatial_kernels(w.grid))),
    "commutator_rate": (1, 2, lambda w: pressure.commutator_rate(
        w, PressureLaw(gamma=5.0 / 3.0), 2.0, space_time_ladder(w.grid))),
    "tv_divergence": ("d", "d", lambda u: rates.tv_divergence_estimate(
        u, space_time_ladder(u.grid))),
}


def record_rungs(monkeypatch):
    """Per ``Mollification`` call and ball average: the result, and a
    function that makes the same call on the plain field."""
    rungs = []
    call = grids.Mollification.__call__

    def mollify_spy(self, field):
        out = call(self, field)
        plain = Field._wrap(field.grid, field.values)
        rungs.append((out, lambda: call(self, plain), field))
        return out

    average = vacuum._ball_average

    def average_spy(w, radius):
        out = average(w, radius)
        plain = Field._wrap(w.grid, w.values)
        rungs.append((Field._wrap(w.grid, out), lambda: Field._wrap(
            w.grid, average(plain, radius)), w))
        return out

    monkeypatch.setattr(grids.Mollification, "__call__", mollify_spy)
    monkeypatch.setattr(vacuum, "_ball_average", average_spy)
    return rungs


def count_field_transforms(monkeypatch):
    """The forward transforms of fields: every ``_forward`` call but the
    one each kernel spectrum makes (in a one-item list)."""
    count = [0]
    for name, step in (("_forward", 1), ("_kernel_spectrum", -1)):
        def spy(*args, _inner=getattr(grids, name), _step=step):
            count[0] += _step
            return _inner(*args)

        monkeypatch.setattr(grids, name, spy)
    return count


@pytest.mark.parametrize("branch", ["auto", "fft"])
@pytest.mark.parametrize("dim,positive,varying", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("holder", HOLDERS)
def test_every_rung_equals_the_per_rung_call(holder, dim, positive, varying,
                                             branch, monkeypatch):
    # "auto" sums the vacuum fields' small jobs directly; "fft" sends
    # every rung through the held transform
    if branch == "fft":
        force_branch(monkeypatch, "fft")
    components, inputs, run = HOLDERS[holder]
    components = dim if components == "d" else components
    inputs = dim if inputs == "d" else inputs
    w = sample(dim, positive, varying, components)
    rungs = record_rungs(monkeypatch)
    transforms = count_field_transforms(monkeypatch)
    run(w)
    transformed = transforms[0]
    held = [out for out, _, field in rungs if isinstance(field, HeldField)]
    assert len(held) >= 4
    for out, per_rung, _ in rungs:
        want = per_rung()
        assert out.grid == want.grid
        assert out.values.tobytes() == want.values.tobytes()
    # one transform per held component: at the parent, one per rung
    if branch == "fft":
        assert transformed == inputs
    else:
        assert transformed <= inputs


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("holder", HOLDERS)
def test_every_holder_calls_ladder_once(holder, dim, monkeypatch):
    # one ``ladder`` call per holder call, holding every input: a ladder
    # that loops over its rungs by hand calls it no more
    components, inputs, run = HOLDERS[holder]
    components = dim if components == "d" else components
    inputs = dim if inputs == "d" else inputs
    w = sample(dim, True, True, components)
    calls = []
    for module in (pressure, rates, vacuum):
        def spy(kernels, fields, measure, _inner=module.ladder):
            calls.append(fields)
            return _inner(kernels, fields, measure)

        monkeypatch.setattr(module, "ladder", spy)
    run(w)
    (fields,) = calls
    assert sum(f.values.shape[-1] for f in fields) == inputs
    assert any(f.values is w.values for f in fields)


def test_ladder_releases_each_rung(monkeypatch):
    # a rung's mollification, and with it the kernel spectrum, is gone
    # before its measure runs, and its mollified fields before the next
    # rung's first convolution
    force_branch(monkeypatch, "fft")
    w = sample(1, True, True)
    fields = (w.map(np.sqrt), w)
    results, machines, log = [], [], []
    call = grids.Mollification.__call__

    def convolve(self, field):
        if len(results) % len(fields) == 0:
            log.append(("convolve", [r() is not None for r in results]))
        out = call(self, field)
        machines.append((weakref.ref(self), weakref.ref(self._spectrum)))
        results.append(weakref.ref(out.values))
        return out

    def measure(kernel, *fields_e):
        log.append(("measure", [m() is not None or s() is not None
                                for m, s in machines]))
        assert all(f.values is r()
                   for f, r in zip(fields_e, results[-len(fields):]))
        return kernel.epsilon

    monkeypatch.setattr(grids.Mollification, "__call__", convolve)
    kernels = spatial_kernels(w.grid)[:3]
    assert grids.ladder(kernels, fields, measure) == [k.epsilon
                                                      for k in kernels]
    assert log == [("convolve", []), ("measure", [False, False]),
                   ("convolve", [False, False]),
                   ("measure", [False] * 4),
                   ("convolve", [False] * 4),
                   ("measure", [False] * 6)]


def test_qns_call_transforms_the_spike_field_once(monkeypatch):
    # the spike_vacuum QNS call: 3 FFT mollifications and 8 ball averages
    # of one slice of w, each a forward transform of it when nothing is
    # held
    w = vacuum.counterexample_field(12, 1 << 15)
    kernels = [make_mollifier(e, 1, w.grid, include_time=False)
               for e in (0.08, 0.04, 0.02, 0.01)]
    forwards = []
    forward = grids._forward

    def spy(values, shape):
        forwards.append(np.shares_memory(values, w.values))
        return forward(values, shape)

    monkeypatch.setattr(grids, "_forward", spy)
    held = vacuum.qns_mollifier_equivalence(w, None, kernels, M=10.0, C=10.0)
    assert sum(forwards) == 1
    forwards.clear()
    monkeypatch.setattr(grids._Source, "fft",
                        lambda self, values, spectrum, shape, keep:
                        grids._fft_convolve(values, spectrum, shape, keep))
    per_rung = vacuum.qns_mollifier_equivalence(w, None, kernels, M=10.0,
                                                C=10.0)
    assert sum(forwards) == 11
    assert repr(held) == repr(per_rung)


def test_qns_ball_averages_are_not_copied_out(monkeypatch):
    # the spike_vacuum QNS call: w repeats its first slice, so each of its
    # 8 ball averages is that slice's, broadcast along time; copied out to
    # every slice, as averages once were, they give the same report
    w = vacuum.counterexample_field(12, 1 << 15)
    kernels = [make_mollifier(e, 1, w.grid, include_time=False)
               for e in (0.08, 0.04, 0.02, 0.01)]
    averages = []
    average = vacuum._ball_average
    monkeypatch.setattr(vacuum, "_ball_average", lambda w, r: (
        averages.append(average(w, r)) or averages[-1]))
    shared = vacuum.qns_mollifier_equivalence(w, None, kernels, M=10.0,
                                              C=10.0)
    assert len(averages) == 8
    for avg in averages:
        assert avg.shape == w.grid.shape
        assert_time_broadcast(avg)
    monkeypatch.setattr(vacuum, "_ball_average", lambda w, r:
                        np.ascontiguousarray(average(w, r)))
    copied = vacuum.qns_mollifier_equivalence(w, None, kernels, M=10.0,
                                              C=10.0)
    assert repr(shared) == repr(copied)


def test_spike_mollifications_are_not_copied_out(monkeypatch):
    # the spike_vacuum calls: each spatial mollification of the
    # time-constant spike field is its one convolved slice, broadcast along
    # time; copied out to every slice, as results once were, every report
    # keeps its bits
    w = vacuum.counterexample_field(12, 1 << 15)
    kernels = [make_mollifier(e, 1, w.grid, include_time=False)
               for e in (0.08, 0.04, 0.02, 0.01)]
    small = vacuum.counterexample_field(8, 4096)
    ladder = [make_mollifier(e, 1, small.grid, include_time=False)
              for e in (0.2, 0.1, 0.05, 0.025)]

    def reports():
        return hexed([
            vacuum.qns_mollifier_equivalence(w, None, kernels, M=10.0,
                                             C=10.0),
            vacuum.counterexample_blowup(w, 2.0, range(6, 13)),
            vacuum.counterexample_blowup(w, 1.05, range(6, 13)),
            vacuum.l1_ratio_lemma_check(small, ladder)])

    results = []
    mollify = grids.Mollification._mollify
    monkeypatch.setattr(grids.Mollification, "_mollify", lambda self, s: (
        results.append(mollify(self, s)) or results[-1]))
    shared = reports()
    assert len(results) == 4 + 2 * 7 + 4
    for out in results:
        assert_time_broadcast(out.values)
    monkeypatch.setattr(grids.Mollification, "_mollify", lambda self, s: (
        Field._wrap(self._output_grid,
                    np.ascontiguousarray(mollify(self, s).values))))
    assert reports() == shared


def test_held_field_serves_only_whole_grid_calls():
    w = sample(1, True, False)
    moll = grids.Mollification(spatial_kernels(w.grid)[0], w.grid,
                               box=((4, 20), (30, 60)))
    with pytest.raises(ValueError, match="whole grid"):
        moll(HeldField(w))


@pytest.mark.parametrize("i_max,nodes", [(12, 1 << 15), (8, 4096),
                                         (13, 1 << 16), (5, 512)])
def test_spike_field_equals_the_whole_line_comparisons(i_max, nodes):
    # each spike by its index range: the bits of two comparisons per
    # spike over the whole line
    f = vacuum.counterexample_field(i_max, nodes)
    x = f.grid.axis_coords(1)
    want = np.zeros(nodes)
    for i in range(2, i_max + 1):
        lo = 1.0 / i
        want += ((x >= lo) & (x <= lo + 2.0 ** (-i))).astype(float)
    assert f.values.tobytes() == np.broadcast_to(
        want, f.grid.shape)[..., None].tobytes()
