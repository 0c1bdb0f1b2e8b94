"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

They fail when a traced name disappears from its module, when a module
binds a traced function without the tracer patching it (so a rename
cannot silently drop a layer), and when the metric names or units drift
from BENCHMARK.json.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from vacuumlab import grids, testfn, vacuum  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def originals():
    return {id(tracer.resolve(module, attr)[2]): f"{module}:{attr}"
            for targets in tracer.LAYERS.values() for module, attr in targets}


@pytest.mark.parametrize("module,attr", [t for targets in tracer.LAYERS.values()
                                         for t in targets])
def test_traced_name_exists(module, attr):
    owner, name, original = tracer.resolve(module, attr)
    assert callable(original), f"{module}:{attr} is not callable"


def test_every_binding_is_patched_and_restored():
    modules = tracer.vacuumlab_modules()
    wrapped = originals()
    bindings = {(m.__name__, alias): value for m in modules
                for alias, value in vars(m).items()}
    binders = [m.__name__ for m in modules if "mollify" in vars(m)]
    assert {"vacuumlab.commutators", "vacuumlab.vacuum", "vacuumlab.pressure",
            "vacuumlab.rates", "vacuumlab.energy"} <= set(binders)
    with tracer.Tracer():
        for mod in modules:
            for alias, value in vars(mod).items():
                assert id(value) not in wrapped, \
                    f"{mod.__name__}.{alias} still binds {wrapped[id(value)]}"
        assert hasattr(grids.Field.__init__, "__wrapped__")
    assert originals() == wrapped
    assert {(m.__name__, alias): value for m in modules
            for alias, value in vars(m).items()} == bindings


def test_workloads_call_through_module_attributes():
    # a name bound in workloads.py would bypass the tracer's patches
    wrapped = originals()
    for alias, value in vars(workloads).items():
        assert id(value) not in wrapped, f"workloads.{alias} binds a traced function"


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_traced_pass_splits_direct_and_fft_convolution():
    grid = grids.GridSpec(1, (16, 64), (1.0, 1.0))
    w = grids.Field(grid, np.abs(np.sin(np.arange(64) / 5.0))[None, :].repeat(16, 0))
    kernel = grids.make_mollifier(0.1, 1, grid, include_time=False)
    t = tracer.Tracer()
    t.begin_pass()
    with t:
        vacuum.qns_check(w, None, [0.05], C=10.0)
        grids.mollify(w, kernel, method="direct")
        grids.mollify(w, kernel, method="fft")
        vacuum.l1_ratio_lemma_check(w, [kernel])  # mollify bound in vacuum
        bump = testfn.spacetime_bump((0.5, 0.5), (0.3, 0.3))
        bump.phi(grid)
        bump.phi(grid=grid)
        bump.dt(grid)
    m = t.pass_metrics()
    assert m["grids.mollify.calls"] == 3
    assert (m["grids.mollify.direct_calls"], m["grids.mollify.fft_calls"]) == (2, 1)
    assert m["grids.mollify.repeat_input_share"] == pytest.approx(2 / 3)
    assert m["ndimage.convolve.vacuum.calls"] == 1
    assert m["ndimage.convolve.grids.calls"] == 2
    assert m["numpy.fft.transforms"] == 3
    assert m["testfn.eval.calls"] == 3
    assert m["testfn.eval.repeat_share"] == pytest.approx(1 / 3)
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s"))
    assert set(m) | {"cli.report_bytes", "trace.overhead_s"} == set(tracer.METRICS)


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.begin_pass()
    t.spans[:] = [["cli.main", 0.0, 10.0, -1],
                  ["grids.mollify", 1.0, 4.0, 0],
                  ["numpy.fft", 2.0, 3.0, 1]]
    m = t.pass_metrics()
    assert m["cli.main.self_s"] == 7.0
    assert m["grids.mollify.self_s"] == 2.0
    assert m["numpy.fft.self_s"] == 1.0


def test_compare_against_reference():
    ref = {"a": 2.0, "b": 0.0, "c": 1e-16}
    assert workloads.compare(dict(ref), ref) == (0.0, True)
    dev, ok = workloads.compare({"a": 2.0 * (1 + 1e-3), "b": 0.0, "c": 1e-16}, ref)
    assert dev == pytest.approx(1e-3) and not ok
    assert workloads.compare({"a": 2.0, "b": 0.0, "c": 3e-16}, ref)[1]
    assert workloads.compare({"a": 2.0}, ref) == (math.inf, False)
