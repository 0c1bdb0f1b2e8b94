"""The package loads numpy alone; scipy loads where a study calls it."""

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


def test_module_entry_point_prints_usage():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-m", "vacuumlab", "--help"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: vacuumlab ")
    assert "{run,report,export-field}" in out.stdout
