"""The benchmark's three workloads.

Each workload has a set-up that builds its static inputs (grids, ladders,
test functions, config files) and a pass that runs its studies once.
Field synthesis belongs to the pass, because every ``vacuumlab run`` pays
for it.  A pass returns one verdict per study call, the numbers compared
against ``reference.json``, and (for the CLI workload) the bytes each
study wrote.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Calls go through module attributes (``vacuum.qns_check``), never through
# names bound here, so the tracer's patches see them.
from vacuumlab import cli, commutators, grids, synth, testfn, vacuum
from vacuumlab.pressure import PressureLaw

DEFAULT_SEED = 3
LAW = PressureLaw(gamma=5.0 / 3.0)


@dataclass
class Call:
    """Outcome of one study call: it fails if it raises, exits non-zero
    or returns a verdict other than the expected one."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    calls: list = field(default_factory=list)
    numbers: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


def _attempt(result: PassResult, name: str, study):
    """Run ``study() -> (ok, detail, numbers)`` and record it as one call."""
    try:
        ok, detail, numbers = study()
    except Exception:  # a raising study is a failed call, not a crash
        result.calls.append(Call(name, False, traceback.format_exc()))
        return
    result.calls.append(Call(name, bool(ok), detail))
    result.numbers.update({f"{name}.{k}": v for k, v in numbers.items()})


def _spatial_kernels(grid, eps_list):
    return [grids.make_mollifier(e, grid.spatial_dim, grid, include_time=False)
            for e in eps_list]


class SpacetimeLadder:
    """Criterion 8's path at 2048^2: FFT convolution, test functions,
    finite differences, synthesis and Field arithmetic; no ball averages."""

    name = "spacetime_ladder"
    uses_seed = True
    ladder = (2.0 ** -4, 2.0 ** -6, 2.0 ** -8)  # kernel half-widths 127, 31, 7
    exponent_min = 0.15

    def setup(self, seed: int, workdir: Path) -> dict:
        return {
            "grid": grids.GridSpec(1, (2048, 2048), (1.0, 1.0)),
            "rho_spec": synth.WeierstrassSpec(0.6, levels=9, seed=seed),
            "u_spec": synth.WeierstrassSpec(0.5, levels=9, seed=seed + 4),
            "phi": testfn.spacetime_bump((0.5, 0.5), (0.35, 0.35)),
        }

    def run_pass(self, inputs: dict) -> PassResult:
        result = PassResult()
        grid, phi = inputs["grid"], inputs["phi"]

        def ladder():
            rho = synth.weierstrass_field(inputs["rho_spec"], grid)
            u = synth.weierstrass_field(inputs["u_spec"], grid)
            numbers = {}
            for k, eps in zip((4, 6, 8), self.ladder):
                kernel = grids.make_mollifier(eps, 2, grid)
                rep = commutators.energy_commutators(rho, u, LAW, kernel, phi)
                numbers[f"total_eps2^-{k}"] = rep.total()
            totals = [max(v, 1e-300) for v in numbers.values()]
            exponent = float(np.polyfit(np.log(self.ladder), np.log(totals), 1)[0])
            numbers["exponent"] = exponent
            return (exponent >= self.exponent_min,
                    f"exponent={exponent:.6f} (gate >= {self.exponent_min})",
                    numbers)

        _attempt(result, "energy_commutators", ladder)
        return result


class SpikeVacuum:
    """Spatial kernels on fields that touch vacuum: direct ball averages
    dominate; no test functions, finite differences or space-time kernels.
    The spike fields are deterministic, so the seed is unused."""

    name = "spike_vacuum"
    uses_seed = False
    qns_eps = (0.08, 0.04, 0.02, 0.01)
    blowup_i = tuple(range(6, 13))
    l1_eps = (0.2, 0.1, 0.05, 0.025)

    def setup(self, seed: int, workdir: Path) -> dict:
        return {}

    def run_pass(self, inputs: dict) -> PassResult:
        result = PassResult()

        def spike():
            return vacuum.counterexample_field(12, 1 << 15)

        def qns():
            w = spike()
            rep = vacuum.qns_mollifier_equivalence(
                w, None, _spatial_kernels(w.grid, self.qns_eps),
                M=10.0, C=10.0)
            memps = [r["M_emp"] for r in rep["per_rung"]]
            ok = (not rep["forward_pass"] and not rep["backward_pass"]
                  and memps[-1] > memps[0])
            numbers = {f"M_emp{i}": m for i, m in enumerate(memps)}
            numbers["M_growth_exponent"] = rep["M_growth_exponent"]
            return ok, f"M_emp {memps[0]:.3f} -> {memps[-1]:.3f}", numbers

        def blowup(p, holds):
            def study():
                rep = vacuum.counterexample_blowup(spike(), p, self.blowup_i)
                growth = rep["growth_per_i"]
                return holds(growth), f"growth_per_i={growth:.6f}", \
                    {"growth_per_i": growth}
            return study

        def l1():
            small = vacuum.counterexample_field(8, 4096)
            kernels = _spatial_kernels(small.grid, self.l1_eps)
            rep = vacuum.l1_ratio_lemma_check(small, kernels)
            numbers = {f"value{i}": v for i, v in enumerate(rep["values"])}
            return rep["bounded"], f"factor={rep['last_over_median']:.6f}", numbers

        _attempt(result, "qns_mollifier_equivalence", qns)
        # criterion 2: p = 2 grows by >= 0.4 per i, p = 1.05 by <= 0.15
        _attempt(result, "counterexample_blowup_p2", blowup(2.0, lambda g: g >= 0.4))
        _attempt(result, "counterexample_blowup_p1.05",
                 blowup(1.05, lambda g: g <= 0.15))
        _attempt(result, "l1_ratio_lemma_check", l1)
        return result


# Study configs for ``cli_studies``.  Every override that departs from the
# shipped defaults carries a comment naming the defect it avoids or the
# sizing it sets.
CLI_CONFIGS = {
    "rates": """
[grid]
nt = 512
nx = 512
[generator]
; default levels = 9 puts level 8 (frequency 256) at the Nyquist limit of nx = 512: exit 1
levels = 8
[ladders]
; default eps reaches 2^-8 < 3h at nx = 512 (under-resolved, as in the README example): exit 1
eps = 0.125, 0.0625, 0.03125, 0.015625, 0.0078125
""",
    "vacuum": """
[grid]
; sizing: 64 x 4096, the grid of criterion 3
nt = 64
nx = 4096
[generator]
; default weierstrass generator (levels = 9) reaches Nyquist at nx = 512: exit 1
kind = spikes
; sizing: default i_max = 13 needs nx >= 65536 (8 cells on the finest spike)
i_max = 8
[ladders]
; default eps reaches 2^-8, which does not span the criterion-3 decades on this grid
eps = 0.2, 0.1, 0.05, 0.025
""",
    "budget": """
[grid]
; default 512^2 leaves 3 feasible rungs, fit_rate needs 4, rhs_decay reads 0.0: exit 2
nt = 256
nx = 256
[ladders]
; five rungs inside the feasible band 3h <= eps <= 0.05 at 256^2
eps = 0.05, 0.04, 0.03, 0.025, 0.02
""",
    "qns": """
[grid]
; sizing: 8 x 2048, the convex-profile grid of criterion 9
nt = 8
nx = 2048
[generator]
; default weierstrass generator (levels = 9) reaches Nyquist: exit 1
kind = abs
[ladders]
; the shipped default, written out
radius = 0.02, 0.01, 0.005
""",
    "counterexample": "",
    "boundary": "",
    "ns": "",
}


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}", value[k], out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    elif isinstance(value, (bool, int, float)):
        out[prefix] = float(value)


class CliStudies:
    """All seven study kinds through ``cli.main(["run", cfg])``: many short
    calls on small grids, where the size heuristic picks direct summation
    for some rungs and FFT for others."""

    name = "cli_studies"
    uses_seed = True
    report_files = ("report.json", "ladder.csv", "ladder.dat")

    def setup(self, seed: int, workdir: Path) -> dict:
        studies = []
        for kind, overrides in CLI_CONFIGS.items():
            cfg = Path(workdir) / f"{kind}.ini"
            out = Path(workdir) / "out" / kind
            cfg.write_text(f"[study]\nkind = {kind}\noutput = {out}\n"
                           f"seed = {seed}\n{overrides}")
            cli.load_config(cfg)  # reject a malformed config at set-up
            studies.append((kind, cfg, out))
        return {"studies": studies}

    def run_pass(self, inputs: dict) -> PassResult:
        result = PassResult()
        for kind, cfg, out in inputs["studies"]:

            def study():
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(["run", str(cfg)])
                detail = f"exit {code}: {stdout.getvalue().strip()}"
                if code != 0:
                    return False, detail, {}
                data = {n: (out / n).read_bytes() for n in self.report_files}
                result.outputs[kind] = data
                numbers = {}
                _flatten("results", json.loads(data["report.json"])["results"],
                         numbers)
                return True, detail, numbers

            _attempt(result, kind, study)
        return result


WORKLOADS = {w.name: w for w in (SpacetimeLadder(), SpikeVacuum(), CliStudies())}


# A number matches its reference within REF_RTOL relative plus REF_ATOL
# absolute deviation.  The atol covers results that are rounding noise
# around zero (identity gaps near 1e-16); the rtol lets summation order
# change in the last digits while a changed answer still shows.
REF_RTOL = 1e-6
REF_ATOL = 1e-12


def compare(numbers: dict, reference: dict) -> tuple[float, bool]:
    """Largest relative deviation of ``numbers`` from ``reference``, and
    whether every number is within tolerance.

    A number missing on either side counts as an infinite deviation; a
    zero reference value is compared absolutely, and NaN matches only NaN.
    """
    if numbers.keys() != reference.keys():
        return math.inf, False
    worst, ok = 0.0, True
    for key, ref in reference.items():
        value = numbers[key]
        if math.isnan(value) or math.isnan(ref):
            diff = 0.0 if math.isnan(value) and math.isnan(ref) else math.inf
        else:
            diff = abs(value - ref)
        worst = max(worst, diff / abs(ref) if ref else diff)
        ok = ok and diff <= REF_RTOL * abs(ref) + REF_ATOL
    return worst, ok
