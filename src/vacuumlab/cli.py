"""Config-driven studies with deterministic reports.

Subcommands: ``run <config>`` executes one study and writes a JSON
report plus CSV/plot data into the configured output directory;
``report <dir>...`` consolidates finished studies into one summary
table; ``export-field <field> <path>`` writes a named generator field
to disk.  Exit codes: 0 all assertions passed, 2 assertion failure
(with a machine-readable failure list on stdout), 1 usage or config
error, or a study that raised (``<kind> study failed: <class>: <message>``).
Every verdict, a row here or a part of an acceptance criterion, is a
``Check`` (``value relation bound``, relation ``<``, ``<=``, ``>`` or
``>=``); model functions return gates, slack included, never verdicts.
A row holds the check's five fields and ``passed``; ``report`` prints
``<study>.<name> measured <value> <relation> <bound> PASS|FAIL`` and a
criterion prints ``name value relation bound`` for each of its checks.
``run`` creates the output directory before the study starts, so an
output path that cannot be created is a config error.  So is a
Weierstrass generator whose top level reaches the grid's Nyquist limit.
So is a ``budget`` eps ladder with fewer than four feasible rungs.
So is a ladder key with no values, or an unknown generator kind.
So is a float that is NaN or infinite, in any key or ladder, and a grid
axis (``nt``, ``nx``) of fewer than ``MIN_AXIS_NODES`` = 8 nodes.
``report`` exits 1 on a ``report.json`` that is not JSON, lacks the
``study`` or ``assertions`` key, or holds an assertion row without a
string ``name``, numeric ``bound`` and ``value``, a ``relation`` among
the four and a boolean ``passed`` that agrees with them.

Configs are INI files with typed keys; unknown sections or keys are
rejected with the offending line number.  Every default is echoed into
the report so reruns are reproducible from the report alone, and
reports avoid timestamps so identical configs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import configparser
import json
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, VacuumLabError
from .grids import GridSpec, from_function, make_mollifier, save_field
from .pressure import PressureLaw, commutator_rate
from .rates import fit_rate
from .synth import WeierstrassSpec, simple_wave, vacuum_profile, weierstrass_field
from .testfn import spacetime_bump
from .vacuum import (
    QnsRegion,
    counterexample_blowup,
    counterexample_field,
    l1_ratio_lemma_check,
    qns_check,
    qns_mollifier_equivalence,
)
from .commutators import energy_commutators
from .energy import (
    global_energy_balance_bounded,
    local_energy_residual,
    mollified_energy_balance,
    ns_energy_residual,
)

REPORT_SCHEMA = "vacuumlab-report-2"

# section -> key -> (type, default); None default means required
_SCHEMA = {
    "study": {"kind": (str, None), "output": (str, None), "seed": (int, 11)},
    "law": {"gamma": (float, 5.0 / 3.0), "kappa": (float, 1.0),
            "mu": (float, 1.0), "nu": (float, 0.5)},
    "grid": {"nt": (int, 512), "nx": (int, 512),
             "extent_t": (float, 1.0), "extent_x": (float, 1.0)},
    "ladders": {"eps": ("floats", [0.05, 0.04, 0.03, 0.02, 0.01]),
                "delta": ("floats", [0.1, 0.05, 0.025, 0.0125, 0.00625]),
                "nu": ("floats", [0.08, 0.04, 0.02]),
                "radius": ("floats", [0.02, 0.01, 0.005]),
                "i": ("ints", list(range(6, 13)))},
    "generator": {"kind": (str, "weierstrass"), "alpha": (float, 0.5),
                  "beta": (float, 0.5), "levels": (int, 8),
                  "base_frequency": (int, 1), "amplitude": (float, 0.05),
                  "m": (float, 0.5), "p": (float, 2.0), "q": (float, 3.0),
                  "i_max": (int, 13)},
    "tolerances": {"exponent_min": (float, 0.0), "r2_min": (float, 0.95),
                   "growth_min": (float, -10.0), "growth_max": (float, 10.0),
                   "factor_max": (float, 2.0), "order_min": (float, 1.8),
                   "slope_min": (float, 0.9), "gap_max": (float, 1e-6),
                   "constant": (float, 1.0)},
}


def _line_of(path: Path, needle: str, section: str | None = None) -> int:
    """First line that is the section header ``needle`` or, under the
    header of ``section`` when one is given, assigns the key ``needle``
    (keys compare lower-cased, as configparser reads them); 0 if none
    does.  A comment or a value that mentions ``needle`` is no match."""
    inside = section is None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.strip()
        if section is not None and text.startswith("["):
            inside = text == f"[{section}]"
        key = text.split("=", 1)[0].split(":", 1)[0].strip().lower()
        if inside and needle in (text, key):
            return lineno
    return 0


# the fewest nodes a config grid axis may have
MIN_AXIS_NODES = 8


def load_config(path) -> dict:
    """Parse and validate an INI config; echo defaults for unset keys.

    Every float must be finite, so no ladder rung or tolerance is NaN or
    infinite, and a report holds strict JSON."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: no such config file")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}:{_line_of(path, '[' + section + ']')}: "
                              f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}:{_line_of(path, key, section)}: "
                                  f"unknown key {key!r} in [{section}]")

    config = {}
    for section, keys in _SCHEMA.items():
        config[section] = {}
        for key, (typ, default) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                line = f"{path}:{_line_of(path, key, section)}"
                try:
                    if typ == "floats":
                        value = [float(v) for v in raw.split(",") if v.strip()]
                    elif typ == "ints":
                        value = [int(v) for v in raw.split(",") if v.strip()]
                    else:
                        value = typ(raw)
                    if typ in (float, "floats") and not np.isfinite(value).all():
                        raise ValueError("not finite")
                except ValueError:
                    raise ConfigError(f"{line}: bad value for {key!r}: {raw!r}")
                if typ in ("floats", "ints") and not value:
                    raise ConfigError(f"{line}: {key!r} needs at least one "
                                      f"value")
                if section == "grid" and typ is int and value < MIN_AXIS_NODES:
                    raise ConfigError(f"{line}: {key} = {value} is below "
                                      f"{MIN_AXIS_NODES} nodes")
            elif default is None:
                raise ConfigError(f"{path}: missing required key "
                                  f"{key!r} in [{section}]")
            else:
                value = default
            config[section][key] = value
    for section, kinds in (("study", STUDY_KINDS),
                           ("generator", GENERATOR_KINDS)):
        if config[section]["kind"] not in kinds:
            raise ConfigError(f"{path}:{_line_of(path, 'kind', section)}: "
                              f"{section} kind must be one of "
                              f"{', '.join(kinds)}")
    _check_nyquist(path, config)
    _check_budget_rungs(path, config)
    return config


def _check_nyquist(path: Path, config: dict) -> None:
    """Reject a Weierstrass generator whose top level reaches Nyquist.

    ``weierstrass_field`` would raise ``ResolutionError`` once the study
    had started; here the config names the ``levels`` key instead.  The
    ``rates`` study always synthesises one; ``vacuum`` and ``qns`` do
    when the generator kind is ``weierstrass``.
    """
    gen, kind = config["generator"], config["study"]["kind"]
    if kind != "rates" and not (kind in ("vacuum", "qns")
                                and gen["kind"] == "weierstrass"):
        return
    top = gen["base_frequency"] * 2 ** (gen["levels"] - 1)
    limit = min(config["grid"]["nt"], config["grid"]["nx"]) // 2
    if top >= limit:
        line = _line_of(path, "levels", "generator")
        key = (f"{path}:{line}: levels = {gen['levels']}" if line else
               f"{path}: levels = {gen['levels']} (the default)")
        raise ConfigError(
            f"{key} puts frequency {top} (base_frequency * 2^(levels - 1)) "
            f"at or above the Nyquist limit {limit} of the "
            f"{config['grid']['nt']} x {config['grid']['nx']} grid")


# the budget study's grid extents (T, L), and the fewest rungs from which
# ``fit_rate`` fits a rate
_BUDGET_EXTENTS = (0.2, 1.0)
_MIN_RUNGS = 4


def _budget_rungs(config) -> tuple[float, list]:
    """The least eps that spans 3 spacings on every budget-grid axis, and
    the ladder's rungs from it up to 0.05 (which keeps the test-function
    support inside the time-shrunk domain)."""
    shape = (config["grid"]["nt"], config["grid"]["nx"])
    floor = 3.0 * max(e / n for e, n in zip(_BUDGET_EXTENTS, shape))
    return floor, [e for e in config["ladders"]["eps"] if floor <= e <= 0.05]


def _check_budget_rungs(path: Path, config: dict) -> None:
    """Reject a budget ladder with fewer feasible rungs than a fit needs.

    The study would fit a degenerate rate, report ``rhs_decay`` as 0.0
    and exit 2 after all its work; here the config names the ``eps`` key.
    """
    nt, nx = config["grid"]["nt"], config["grid"]["nx"]
    if config["study"]["kind"] != "budget":
        return
    floor, rungs = _budget_rungs(config)
    if len(rungs) >= _MIN_RUNGS:
        return
    line = _line_of(path, "eps", "ladders")
    key = f"{path}:{line}: eps" if line else f"{path}: eps (the default)"
    raise ConfigError(
        f"{key} leaves {len(rungs)} feasible rungs, and the budget fit needs "
        f"{_MIN_RUNGS}: on the {nt} x {nx} budget grid a rung must lie in "
        f"[{floor:.6g}, 0.05]")


def _law(config) -> PressureLaw:
    return PressureLaw(gamma=config["law"]["gamma"],
                       kappa=config["law"]["kappa"])


def _grid(config) -> GridSpec:
    g = config["grid"]
    return GridSpec(1, (g["nt"], g["nx"]), (g["extent_t"], g["extent_x"]))


RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
             ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    """The verdict ``value relation bound`` of a row; NaN fails them all."""

    name: str
    value: float
    relation: str
    bound: float
    operation: str = ""

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"{self.name!r} has relation {self.relation!r}, "
                             f"not one of {', '.join(RELATIONS)}")

    @property
    def passed(self) -> bool:
        return bool(RELATIONS[self.relation](self.value, self.bound))

    def row(self) -> dict:
        return {**vars(self), "passed": self.passed}

    def __str__(self) -> str:
        return f"{self.name} {self.value:.6g} {self.relation} {self.bound:.6g}"


def _ladder_rows(samples) -> list:
    return [[float(e), float(v)] for e, v in samples]


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

def _study_rates(config) -> dict:
    law = _law(config)
    grid = _grid(config)
    gen = config["generator"]
    tol = config["tolerances"]
    spec = WeierstrassSpec(gen["beta"], gen["levels"], gen["base_frequency"],
                           seed=config["study"]["seed"])
    rho = weierstrass_field(spec, grid, floor=0.0)
    fit = commutator_rate(rho, law, gen["q"], config["ladders"]["eps"])
    e, r2, op = fit.exponent, fit.r_squared, "pressure.commutator_rate"
    return {"results": {"exponent": e, "r_squared": r2,
                        "constant": fit.constant},
            "ladder": ("eps,value", _ladder_rows(fit.samples)),
            "assertions": [Check("exponent", e, ">=", tol["exponent_min"], op),
                           Check("r_squared", r2, ">=", tol["r2_min"], op)]}


def _study_counterexample(config) -> dict:
    gen = config["generator"]
    tol = config["tolerances"]
    nx = max(config["grid"]["nx"], 8 * 2 ** gen["i_max"])
    f = counterexample_field(gen["i_max"], nx, time_points=8)
    rep = counterexample_blowup(f, gen["p"], config["ladders"]["i"])
    g, op = rep["growth_per_i"], "vacuum.counterexample_blowup"
    rows = [[int(i), float(e), float(v)] for i, e, v in rep["samples"]]
    return {"results": {"growth_per_i": g, "theory": rep["theory"],
                        "p": rep["p"]},
            "ladder": ("i,eps,value", rows),
            "assertions": [
                Check("growth_min", g, ">=", tol["growth_min"], op),
                Check("growth_max", g, "<=", tol["growth_max"], op)]}


# generator kind -> the scalar field of the vacuum and qns studies, from
# [generator], the seed and the grid; in the order the config error lists
_GENERATORS = {
    "weierstrass": lambda gen, seed, grid: weierstrass_field(
        WeierstrassSpec(gen["alpha"], gen["levels"], gen["base_frequency"],
                        seed=seed), grid, floor=0.0),
    "spikes": lambda gen, seed, grid: counterexample_field(
        gen["i_max"], grid.shape[1], time_points=grid.shape[0]),
    "power": lambda gen, seed, grid: vacuum_profile("power", gen["m"], grid),
    "sine-power": lambda gen, seed, grid: vacuum_profile("sine-power",
                                                         gen["m"], grid),
    "abs": lambda gen, seed, grid: from_function(
        grid, lambda t, x: np.abs(x - 0.5)),
}
GENERATOR_KINDS = tuple(_GENERATORS)


def _generator_scalar(config, grid):
    gen = config["generator"]
    return _GENERATORS[gen["kind"]](gen, config["study"]["seed"], grid)


def _study_vacuum(config) -> dict:
    grid = _grid(config)
    tol = config["tolerances"]
    w = _generator_scalar(config, grid)
    kernels = [make_mollifier(e, 1, grid, include_time=False)
               for e in config["ladders"]["eps"]]
    rep = l1_ratio_lemma_check(w, kernels)
    factor, op = rep["last_over_median"], "vacuum.l1_ratio_lemma_check"
    return {"results": {"factor": factor, "median": rep["median"],
                        "decades": rep["decades"]},
            "ladder": ("eps,value",
                       _ladder_rows(zip(rep["epsilons"], rep["values"]))),
            "assertions": [Check("bounded_factor", factor, "<=",
                                 tol["factor_max"], op)]}


def _study_qns(config) -> dict:
    grid = _grid(config)
    tol = config["tolerances"]
    w = _generator_scalar(config, grid)
    x = grid.axis_coords(1)
    region = QnsRegion(w, (x > 0.1) & (x < 0.9))
    C, radii = tol["constant"], config["ladders"]["radius"]
    chk = qns_check(w, region, radii, C=C)
    kernels = [make_mollifier(3.0 * r, 1, grid, include_time=False)
               for r in radii]
    eq = qns_mollifier_equivalence(w, region, kernels, M=C * 3.0, C=C)
    op = "vacuum.qns_mollifier_equivalence"
    return {"results": {"empirical_C": chk["empirical_C"],
                        "forward_pass": eq["forward_pass"],
                        "backward_pass": eq["backward_pass"],
                        "M_growth_exponent": eq["M_growth_exponent"]},
            "ladder": ("eps,value",
                       [[r["epsilon"], r["M_emp"]] for r in eq["per_rung"]]),
            "assertions": [
                Check("ball_average", chk["empirical_C"], "<=", chk["bound"],
                      "vacuum.qns_check"),
                Check("forward", max(r["M_emp"] for r in eq["per_rung"]),
                      "<=", eq["forward_bound"], op),
                Check("backward", max(r["C_ball"] for r in eq["per_rung"]),
                      "<=", eq["backward_bound"], op)]}


def _study_budget(config) -> dict:
    law = _law(config)
    gen = config["generator"]
    tol = config["tolerances"]
    nt, nx = config["grid"]["nt"], config["grid"]["nx"]
    phi = spacetime_bump((0.1, 0.5), (0.04, 0.3))

    g = GridSpec(1, (nt, nx), _BUDGET_EXTENTS)
    rho, u = simple_wave(law, gen["amplitude"], g)

    def gap(scale):
        """The identity gap of the rung ``scale`` times finer than ``g``;
        a finer rung's wave lives only for its balance."""
        fine = GridSpec(1, (nt * scale, nx * scale), _BUDGET_EXTENTS)
        pair = (rho, u) if scale == 1 else simple_wave(law, gen["amplitude"],
                                                       fine)
        ker = make_mollifier(0.02, 2, fine)
        return mollified_energy_balance(*pair, law, ker, phi).identity_gap

    gaps = [(1.0 / (nx * scale), gap(scale)) for scale in (1, 2, 4)]
    order = float(np.log2(max(gaps[0][1], 1e-300)
                          / max(gaps[1][1], 1e-300)))

    rhs_samples = [(e, energy_commutators(rho, u, law, make_mollifier(e, 2, g),
                                          phi).total())
                   for e in _budget_rungs(config)[1]]
    rhs_fit = fit_rate(rhs_samples)
    residual = local_energy_residual(rho, u, law, phi)
    return {"results": {"identity_gaps": _ladder_rows(gaps),
                        "gap_order": order, "rhs_exponent": rhs_fit.exponent,
                        "local_residual": residual},
            "ladder": ("eps,value", _ladder_rows(rhs_samples)),
            "assertions": [
                Check("gap_order", order, ">=", tol["order_min"],
                      "energy.mollified_energy_balance"),
                Check("rhs_decay", rhs_fit.exponent, ">", 0.0,
                      "commutators.energy_commutators"),
                Check("local_residual", abs(residual), "<=", tol["gap_max"],
                      "energy.local_energy_residual")]}


def _acoustic_pair(amp, grid, law):
    """A standing acoustic wave of velocity amplitude ``amp`` about rho = 1."""
    c = float(law.sound_speed(1.0))
    B = amp / c
    om = 2.0 * np.pi * c
    rho = from_function(grid, lambda t, x:
                        1.0 + B * np.cos(2 * np.pi * x) * np.cos(om * t))
    u = from_function(grid, lambda t, x:
                      amp * np.sin(2 * np.pi * x) * np.sin(om * t))
    return rho, u


def _study_boundary(config) -> dict:
    law = _law(config)
    grid = _grid(config)
    tol = config["tolerances"]
    rho, u = _acoustic_pair(config["generator"]["amplitude"], grid, law)
    ladders = config["ladders"]
    rep = global_energy_balance_bounded(rho, u, law, ladders["delta"],
                                        ladders["nu"], t1=0.2, t2=0.8)
    slope, gap = rep["boundary_slope"], rep["energy_gap"]
    op = "energy.global_energy_balance_bounded"
    return {"results": {"boundary_slope": slope, "energy_gap": gap,
                        "slice_stability": rep["slice_stability"],
                        "boundary_plateau": rep["boundary_plateau"]},
            "ladder": ("eps,value", _ladder_rows(rep["boundary_samples"])),
            "assertions": [
                Check("boundary_slope", slope, ">=", tol["slope_min"], op),
                Check("energy_gap", gap, "<=", tol["gap_max"], op),
                Check("no_violation", max(rep["boundary_speed"].values()),
                      "<=", rep["boundary_bound"], op)]}


def _study_ns(config) -> dict:
    law = _law(config)
    grid = _grid(config)
    tol = config["tolerances"]
    mu, nu = config["law"]["mu"], config["law"]["nu"]
    amp = config["generator"]["amplitude"]
    rho = from_function(grid, lambda t, x: np.ones_like(x))
    u = from_function(grid, lambda t, x: amp * np.sin(2 * np.pi * x))
    phi = spacetime_bump((0.5, 0.5), (0.35, 0.35))
    plain = ns_energy_residual(rho, u, law, mu, nu, False, phi)
    degen = ns_energy_residual(rho, u, law, mu, nu, True, phi)
    scale = degen["dissipation"] / plain["dissipation"] \
        if plain["dissipation"] else 1.0
    op = "energy.ns_energy_residual"
    samples = [(1.0, plain["dissipation"]), (0.5, degen["dissipation"])]
    return {"results": {"residual": plain["residual"],
                        "dissipation": plain["dissipation"],
                        "degenerate_dissipation": degen["dissipation"]},
            "ladder": ("eps,value", _ladder_rows(samples)),
            "assertions": [
                Check("dissipation_sign", plain["dissipation"], ">=", 0.0, op),
                Check("degenerate_scaling", abs(scale - 1.0), "<=", 1e-9, op)]}


# in the order the config error lists them
_STUDIES = {
    "rates": _study_rates,
    "vacuum": _study_vacuum,
    "counterexample": _study_counterexample,
    "budget": _study_budget,
    "qns": _study_qns,
    "boundary": _study_boundary,
    "ns": _study_ns,
}
STUDY_KINDS = tuple(_STUDIES)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _write_report(outdir: Path, config: dict, outcome: dict) -> dict:
    report = {
        "schema": REPORT_SCHEMA,
        "study": config["study"]["kind"],
        "config": config,
        "results": outcome["results"],
        "assertions": [c.row() for c in outcome["assertions"]],
        "passed": all(c.passed for c in outcome["assertions"]),
    }
    (outdir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    header, rows = outcome["ladder"]
    lines = [header] + [",".join(f"{v:.17g}" if isinstance(v, float)
                                 else str(v) for v in row) for row in rows]
    (outdir / "ladder.csv").write_text("\n".join(lines) + "\n")
    (outdir / "ladder.dat").write_text("\n".join(
        " ".join(f"{float(v):.17g}" for v in row[-2:]) for row in rows) + "\n")
    return report


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    outdir = Path(config["study"]["output"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory: {exc}",
              file=sys.stderr)
        return 1
    kind = config["study"]["kind"]
    try:
        outcome = _STUDIES[kind](config)
    except (VacuumLabError, ValueError) as exc:
        print(f"{kind} study failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    report = _write_report(outdir, config, outcome)
    if not report["passed"]:
        failures = [a for a in report["assertions"] if not a["passed"]]
        print(json.dumps({"failures": failures}, sort_keys=True))
        return 2
    print(f"{kind}: all {len(report['assertions'])} assertions passed")
    return 0


# key, accepted types and their description, for each assertion row
_ASSERTION_KEYS = (("name", str, "a string"), ("bound", (int, float), "a number"),
                   ("value", (int, float), "a number"), ("passed", bool, "a boolean"),
                   ("relation", str, "a string"))


def _check_type(where: str, value, types, kind: str) -> None:
    # JSON true/false load as bool, which is an int: not a number here
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and types is not bool):
        raise ValueError(f"{where} is a JSON {type(value).__name__}, "
                         f"not {kind}")


def _read_report(path: Path) -> tuple[str, list]:
    """The study and checks of a ``report.json``; ValueError says why not."""
    rep = json.loads(path.read_text())
    if not isinstance(rep, dict):
        raise ValueError(f"top level is a JSON {type(rep).__name__}, "
                         f"not an object")
    for key in ("study", "assertions"):
        if key not in rep:
            raise ValueError(f"missing key {key!r}")
    _check_type("'study'", rep["study"], str, "a string")
    _check_type("'assertions'", rep["assertions"], list, "a list")
    checks = []
    for i, row in enumerate(rep["assertions"]):
        where = f"assertions[{i}]"
        _check_type(where, row, dict, "an object")
        for key, types, kind in _ASSERTION_KEYS:
            if key not in row:
                raise ValueError(f"{where}: missing key {key!r}")
            _check_type(f"{where}[{key!r}]", row[key], types, kind)
        check = Check(row["name"], row["value"], row["relation"], row["bound"])
        if row["passed"] != check.passed:
            raise ValueError(f"{where} ({row['name']!r}) stores passed "
                             f"{json.dumps(row['passed'])}, but {check} "
                             f"is {json.dumps(check.passed)}")
        checks.append(check)
    return rep["study"], checks


def cmd_report(args) -> int:
    if not args.dirs:
        print("usage error: report needs at least one study directory",
              file=sys.stderr)
        return 1
    rows = []
    for d in args.dirs:
        path = Path(d) / "report.json"
        if not path.is_file():
            print(f"usage error: {path} not found", file=sys.stderr)
            return 1
        try:
            study, checks = _read_report(path)
        except ValueError as exc:  # includes JSON and UTF-8 decode errors
            print(f"usage error: {path} is not a vacuumlab report: {exc}",
                  file=sys.stderr)
            return 1
        if not checks:
            print(f"{study}: no assertions in {path}")
        rows += [(study, c) for c in checks]
    rows.sort(key=lambda r: (r[0], r[1].name))
    width = max((len(s) + len(c.name) for s, c in rows), default=0) + 2
    for study, c in rows:
        label = f"{study}.{c.name}"
        print(f"{label:<{width}} measured {c.value:<14.6g} {c.relation:<2} "
              f"{c.bound:<12.6g} {'PASS' if c.passed else 'FAIL'}")
    print(f"overall: {'PASS' if all(c.passed for _, c in rows) else 'FAIL'}")
    return 0


_EXPORT_LAW = PressureLaw(gamma=5.0 / 3.0)
# field name -> builder of the field ``export-field`` writes
EXPORT_FIELDS = {
    "counterexample": lambda: counterexample_field(10, 1 << 14, time_points=8),
    # top level 2^7 = 128 stays under Nyquist on both axes
    "weierstrass": lambda: weierstrass_field(
        WeierstrassSpec(0.5, 8, 1, seed=11),
        GridSpec(1, (512, 1024), (1.0, 1.0))),
    "simple-wave": lambda: simple_wave(
        _EXPORT_LAW, 0.05, GridSpec(1, (256, 1024), (0.2, 1.0)))[0],
    "acoustic": lambda: _acoustic_pair(
        0.02, GridSpec(1, (256, 1024), (1.0, 1.0)), _EXPORT_LAW)[0],
    "sine-power": lambda: vacuum_profile(
        "sine-power", 0.5, GridSpec(1, (256, 1024), (1.0, 1.0))),
}


def cmd_export_field(args) -> int:
    name = args.field
    path = Path(args.path)
    if name not in EXPORT_FIELDS:
        print(f"usage error: unknown field {name!r}; choose from "
              f"{', '.join(EXPORT_FIELDS)}", file=sys.stderr)
        return 1
    try:
        f = EXPORT_FIELDS[name]()
        fmt = "csv" if path.suffix == ".csv" else "bin"
        target = path.with_suffix("") if path.suffix in (".csv", ".bin") \
            else path
        save_field(f, target, fmt=fmt)
    except (VacuumLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {name} to {target}.{fmt} (+ header json)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacuumlab",
        description="Energy-conservation studies for compressible flow "
                    "with vacuum")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a study config")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)
    p_rep = sub.add_parser("report", help="consolidate study outputs")
    p_rep.add_argument("dirs", nargs="*")
    p_rep.set_defaults(func=cmd_report)
    p_exp = sub.add_parser("export-field", help="write a named field")
    p_exp.add_argument("field")
    p_exp.add_argument("path")
    p_exp.set_defaults(func=cmd_export_field)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
