"""The package runs on numpy alone: no study path, the direct branch of
``Mollification`` included, loads scipy, which only the tests' oracles
use."""

import os
import subprocess
import sys
from pathlib import Path

import vacuumlab

SRC = str(Path(vacuumlab.__file__).resolve().parent.parent)

SCIPY_LOADED = ("print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")


def run_fresh(code: str) -> list[str]:
    """Run ``code`` in a new interpreter; return its stdout lines."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.splitlines()


def test_import_loads_no_scipy():
    assert run_fresh(f"import sys, vacuumlab, vacuumlab.cli; {SCIPY_LOADED}") \
        == ["[]"]


def test_padded_fft_commutators_load_no_scipy():
    # 512^2 with a 33 x 33 kernel is an FFT job; phi's box cuts both axes
    # to 340 nodes, which pad to 360
    code = f"""
import sys
import numpy as np
from vacuumlab import commutators, grids, testfn
from vacuumlab.pressure import PressureLaw
g = grids.GridSpec(1, (512, 512), (1.0, 1.0))
phi = testfn.spacetime_bump((0.5, 0.5), (0.3, 0.3))
ker = grids.make_mollifier(2.0 ** -5, 2, g)
moll = grids.Mollification(ker, g, box=commutators._pairing_box(phi, g, ker))
print(moll._fft_shape)
rho = grids.from_function(g, lambda t, x: 1.0 + 0.2 * np.sin(2 * np.pi * x))
u = grids.from_function(g, lambda t, x: 0.1 * np.cos(2 * np.pi * (x - t)))
print(commutators.energy_commutators(rho, u, PressureLaw(5 / 3), ker, phi).total() > 0)
{SCIPY_LOADED}
"""
    assert run_fresh(code) == ["(360, 360)", "True", "[]"]


def test_qns_region_and_riemann_solution_load_no_scipy():
    # a region with a boundary is eroded on the FFT engine, and the middle
    # state is bisected
    code = f"""
import sys
import numpy as np
from vacuumlab import grids, synth, vacuum
from vacuumlab.pressure import PressureLaw
g = grids.GridSpec(1, (8, 2048), (1.0, 1.0))
w = grids.from_function(g, lambda t, x: np.abs(x - 0.5) + 0.05)
x = g.axis_coords(1)
region = np.broadcast_to((x > 0.1) & (x < 0.9), g.shape)
rep = vacuum.qns_check(w, region, [0.02, 0.01], C=1.0)
print(rep["empirical_C"] <= rep["bound"])
spec = synth.shock_states(PressureLaw(5 / 3), 0.5, 1.0, family=1)
print(synth.riemann_solution(spec, grids.GridSpec(1, (64, 128), (0.1, 1.0)))[2] < 0)
{SCIPY_LOADED}
"""
    assert run_fresh(code) == ["True", "True", "[]"]


# the ``rates`` study config of the benchmark's ``cli_studies`` workload
RATES_CONFIG = """[study]
kind = rates
output = {output}
seed = 3
[grid]
nt = 512
nx = 512
[generator]
levels = 8
[ladders]
eps = 0.125, 0.0625, 0.03125, 0.015625, 0.0078125
"""


def test_direct_branch_and_rates_study_load_no_scipy(tmp_path):
    # every rung of the lemma check sums directly (8 x 4096 nodes, up to
    # 1,639 taps), and so does some rung of the rates study
    cfg = tmp_path / "rates.ini"
    cfg.write_text(RATES_CONFIG.format(output=tmp_path / "out"))
    code = f"""
import sys
from vacuumlab import cli, grids, vacuum
calls = []
def direct(*args, _inner=grids._direct_convolve):
    calls.append(1)
    return _inner(*args)
grids._direct_convolve = direct
w = vacuum.counterexample_field(8, 4096)
kernels = [grids.make_mollifier(e, 1, w.grid, include_time=False)
           for e in (0.2, 0.1, 0.05, 0.025)]
print(vacuum.l1_ratio_lemma_check(w, kernels)["bounded"], len(calls))
print(cli.main(["run", {str(cfg)!r}]), len(calls) > 4)
{SCIPY_LOADED}
"""
    lines = run_fresh(code)
    assert lines[0] == "True 4"
    assert lines[-2:] == ["0 True", "[]"]


def test_module_entry_point_prints_usage():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-m", "vacuumlab", "--help"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: vacuumlab ")
    assert "{run,report,export-field}" in out.stdout
