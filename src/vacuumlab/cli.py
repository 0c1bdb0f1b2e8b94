"""Config-driven studies with deterministic reports.

Subcommands: ``run <config>`` executes one study and writes a JSON
report plus CSV/plot data into the configured output directory;
``report <dir>...`` consolidates finished studies into one summary
table; ``export-field <field> <path>`` writes a named generator field
to disk.  Exit codes: 0 all assertions passed, 2 assertion failure
(with a machine-readable failure list on stdout), 1 usage or config
error, or a study that raised (``<kind> study failed: <class>: <message>``).
``run`` creates the output directory before the study starts, so an
output path that cannot be created is a config error.  So is a
Weierstrass generator whose top level reaches the grid's Nyquist limit.
``report`` exits 1 on a ``report.json`` that is not JSON or lacks the
``study`` or ``assertions`` key.

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
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, VacuumLabError
from .grids import GridSpec, from_function, make_mollifier, save_field
from .pressure import PressureLaw, commutator_rate
from .rates import fit_rate
from .synth import WeierstrassSpec, simple_wave, vacuum_profile, weierstrass_field
from .testfn import spacetime_bump
from .vacuum import (
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

REPORT_SCHEMA = "vacuumlab-report-1"

STUDY_KINDS = ("rates", "vacuum", "counterexample", "budget", "qns",
               "boundary", "ns")

# section -> key -> (type, default); None default means required
_SCHEMA = {
    "study": {"kind": (str, None), "output": (str, None), "seed": (int, 11)},
    "law": {"gamma": (float, 5.0 / 3.0), "kappa": (float, 1.0),
            "mu": (float, 1.0), "nu": (float, 0.5)},
    "grid": {"nt": (int, 512), "nx": (int, 512),
             "extent_t": (float, 1.0), "extent_x": (float, 1.0)},
    "ladders": {"eps": ("floats", [2.0 ** -k for k in range(4, 9)]),
                "delta": ("floats", [0.1, 0.05, 0.025, 0.0125, 0.00625]),
                "nu": ("floats", [0.08, 0.04, 0.02]),
                "radius": ("floats", [0.02, 0.01, 0.005]),
                "i": ("ints", list(range(6, 13)))},
    "generator": {"kind": (str, "weierstrass"), "alpha": (float, 0.5),
                  "beta": (float, 0.5), "levels": (int, 9),
                  "base_frequency": (int, 1), "amplitude": (float, 0.05),
                  "m": (float, 0.5), "p": (float, 2.0), "q": (float, 3.0),
                  "i_max": (int, 13)},
    "tolerances": {"exponent_min": (float, 0.0), "r2_min": (float, 0.95),
                   "growth_min": (float, -10.0), "growth_max": (float, 10.0),
                   "factor_max": (float, 2.0), "order_min": (float, 1.8),
                   "slope_min": (float, 0.9), "gap_max": (float, 1e-6),
                   "constant": (float, 1.0)},
}


def _line_of(path: Path, needle: str) -> int:
    """First line holding ``needle`` outside a comment; 0 if none does."""
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if needle in line and not line.lstrip().startswith(("#", ";")):
            return lineno
    return 0


def load_config(path) -> dict:
    """Parse and validate an INI config; echo defaults for unset keys."""
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
                raise ConfigError(f"{path}:{_line_of(path, key)}: "
                                  f"unknown key {key!r} in [{section}]")

    config = {}
    for section, keys in _SCHEMA.items():
        config[section] = {}
        for key, (typ, default) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    if typ == "floats":
                        value = [float(v) for v in raw.split(",") if v.strip()]
                    elif typ == "ints":
                        value = [int(v) for v in raw.split(",") if v.strip()]
                    else:
                        value = typ(raw)
                except ValueError:
                    raise ConfigError(f"{path}:{_line_of(path, key)}: "
                                      f"bad value for {key!r}: {raw!r}")
            elif default is None:
                raise ConfigError(f"{path}: missing required key "
                                  f"{key!r} in [{section}]")
            else:
                value = default
            config[section][key] = value
    if config["study"]["kind"] not in STUDY_KINDS:
        raise ConfigError(f"{path}:{_line_of(path, 'kind')}: study kind must "
                          f"be one of {', '.join(STUDY_KINDS)}")
    _check_nyquist(path, config)
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
        line = _line_of(path, "levels")
        key = (f"{path}:{line}: levels = {gen['levels']}" if line else
               f"{path}: levels = {gen['levels']} (the default)")
        raise ConfigError(
            f"{key} puts frequency {top} (base_frequency * 2^(levels - 1)) "
            f"at or above the Nyquist limit {limit} of the "
            f"{config['grid']['nt']} x {config['grid']['nx']} grid")


def _law(config) -> PressureLaw:
    return PressureLaw(gamma=config["law"]["gamma"],
                       kappa=config["law"]["kappa"])


def _grid(config) -> GridSpec:
    g = config["grid"]
    return GridSpec(1, (g["nt"], g["nx"]), (g["extent_t"], g["extent_x"]))


def _assertion(name, passed, value, bound, operation, entry=None) -> dict:
    row = {"name": name, "passed": bool(passed), "value": value,
           "bound": bound, "operation": operation}
    if entry is not None:
        row["ladder_entry"] = entry
    return row


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
    ladder = config["ladders"]["eps"]
    fit = commutator_rate(rho, law, gen["q"], ladder,
                          window=(0, len(ladder)))
    assertions = [
        _assertion("exponent", fit.exponent >= tol["exponent_min"],
                   fit.exponent, tol["exponent_min"],
                   "pressure.commutator_rate"),
        _assertion("r_squared", fit.r_squared >= tol["r2_min"],
                   fit.r_squared, tol["r2_min"], "pressure.commutator_rate"),
    ]
    return {"results": {"exponent": fit.exponent, "r_squared": fit.r_squared,
                        "constant": fit.constant},
            "csv": {"ladder.csv": ("eps,value", _ladder_rows(fit.samples))},
            "assertions": assertions}


def _study_counterexample(config) -> dict:
    gen = config["generator"]
    tol = config["tolerances"]
    nx = max(config["grid"]["nx"], 8 * 2 ** gen["i_max"])
    f = counterexample_field(gen["i_max"], nx, time_points=8)
    rep = counterexample_blowup(f, gen["p"], config["ladders"]["i"])
    assertions = [
        _assertion("growth_min", rep["growth_per_i"] >= tol["growth_min"],
                   rep["growth_per_i"], tol["growth_min"],
                   "vacuum.counterexample_blowup"),
        _assertion("growth_max", rep["growth_per_i"] <= tol["growth_max"],
                   rep["growth_per_i"], tol["growth_max"],
                   "vacuum.counterexample_blowup"),
    ]
    rows = [[int(i), float(e), float(v)] for i, e, v in rep["samples"]]
    return {"results": {"growth_per_i": rep["growth_per_i"],
                        "theory": rep["theory"], "p": rep["p"]},
            "csv": {"ladder.csv": ("i,eps,value", rows)},
            "assertions": assertions}


def _generator_scalar(config, grid):
    gen = config["generator"]
    kind = gen["kind"]
    if kind == "weierstrass":
        spec = WeierstrassSpec(gen["alpha"], gen["levels"],
                               gen["base_frequency"],
                               seed=config["study"]["seed"])
        return weierstrass_field(spec, grid, floor=0.0)
    if kind == "spikes":
        return counterexample_field(gen["i_max"], grid.shape[1],
                                    time_points=grid.shape[0])
    if kind in ("power", "sine-power"):
        return vacuum_profile(kind, gen["m"], grid)
    if kind == "abs":
        return from_function(grid, lambda t, x: np.abs(x - 0.5))
    raise ConfigError(f"unknown generator kind {gen['kind']!r}")


def _study_vacuum(config) -> dict:
    grid = _grid(config)
    tol = config["tolerances"]
    w = _generator_scalar(config, grid)
    kernels = [make_mollifier(e, 1, grid, include_time=False)
               for e in config["ladders"]["eps"]]
    rep = l1_ratio_lemma_check(w, kernels)
    values = rep["values"]
    factor = rep["last_over_median"]
    assertions = [
        _assertion("bounded_factor", factor <= tol["factor_max"], factor,
                   tol["factor_max"], "vacuum.l1_ratio_lemma_check"),
    ]
    return {"results": {"factor": factor, "median": rep["median"],
                        "decades": rep["decades"]},
            "csv": {"ladder.csv": ("eps,value",
                                   _ladder_rows(zip(rep["epsilons"], values)))},
            "assertions": assertions}


def _study_qns(config) -> dict:
    grid = _grid(config)
    tol = config["tolerances"]
    w = _generator_scalar(config, grid)
    x = grid.axis_coords(1)
    region = np.broadcast_to((x > 0.1) & (x < 0.9), grid.shape).copy()
    chk = qns_check(w, region, config["ladders"]["radius"],
                    C=tol["constant"])
    kernels = [make_mollifier(3.0 * r, 1, grid, include_time=False)
               for r in config["ladders"]["radius"]]
    eq = qns_mollifier_equivalence(w, region, kernels,
                                   M=tol["constant"] * 3.0,
                                   C=tol["constant"])
    assertions = [
        _assertion("ball_average", chk["pass"], chk["empirical_C"],
                   tol["constant"], "vacuum.qns_check"),
        _assertion("forward", eq["forward_pass"],
                   max(r["M_emp"] for r in eq["per_rung"]),
                   3.0 * tol["constant"] / eq["omega_N"],
                   "vacuum.qns_mollifier_equivalence"),
        _assertion("backward", eq["backward_pass"],
                   max(r["C_ball"] for r in eq["per_rung"]),
                   tol["constant"] * 3.0 * eq["omega_N"],
                   "vacuum.qns_mollifier_equivalence"),
    ]
    rows = [[r["epsilon"], r["M_emp"]] for r in eq["per_rung"]]
    return {"results": {"empirical_C": chk["empirical_C"],
                        "forward_pass": eq["forward_pass"],
                        "backward_pass": eq["backward_pass"],
                        "M_growth_exponent": eq["M_growth_exponent"]},
            "csv": {"ladder.csv": ("eps,value", rows)},
            "assertions": assertions}


def _study_budget(config) -> dict:
    law = _law(config)
    gen = config["generator"]
    tol = config["tolerances"]
    nt, nx = config["grid"]["nt"], config["grid"]["nx"]
    phi = spacetime_bump((0.1, 0.5), (0.04, 0.3))

    gaps = []
    for scale in (1, 2, 4):
        g = GridSpec(1, (nt * scale, nx * scale), (0.2, 1.0))
        rho, u = simple_wave(law, gen["amplitude"], g)
        ker = make_mollifier(0.02, 2, g)
        budget = mollified_energy_balance(rho, u, law, ker, phi)
        gaps.append((1.0 / (nx * scale), budget.identity_gap))
    order = float(np.log2(max(gaps[0][1], 1e-300)
                          / max(gaps[1][1], 1e-300)))

    g = GridSpec(1, (nt, nx), (0.2, 1.0))
    rho, u = simple_wave(law, gen["amplitude"], g)
    # kernels must fit the grid (>= 3 spacings per axis) and leave the
    # test-function support inside the time-shrunk domain
    feasible = [e for e in config["ladders"]["eps"]
                if 3.0 * max(g.spacings) <= e <= 0.05]
    if len(feasible) < 3:
        raise ConfigError("eps ladder leaves fewer than 3 feasible rungs "
                          "for the budget grid (need 3 spacings <= eps <= 0.05)")
    rhs_samples = []
    for eps in feasible:
        ker = make_mollifier(eps, 2, g)
        rep = energy_commutators(rho, u, law, ker, phi)
        rhs_samples.append((eps, rep.total()))
    rhs_fit = fit_rate(rhs_samples, window=(0, len(rhs_samples)))
    residual = local_energy_residual(rho, u, law, phi)
    assertions = [
        _assertion("gap_order", order >= tol["order_min"], order,
                   tol["order_min"], "energy.mollified_energy_balance"),
        _assertion("rhs_decay", rhs_fit.exponent > 0.0, rhs_fit.exponent,
                   0.0, "commutators.energy_commutators"),
        _assertion("local_residual", abs(residual) <= tol["gap_max"],
                   residual, tol["gap_max"], "energy.local_energy_residual"),
    ]
    return {"results": {"identity_gaps": _ladder_rows(gaps),
                        "gap_order": order, "rhs_exponent": rhs_fit.exponent,
                        "local_residual": residual},
            "csv": {"ladder.csv": ("eps,value", _ladder_rows(rhs_samples))},
            "assertions": assertions}


def _acoustic_pair(config, grid, law, boundary_speed=0.0):
    amp = config["generator"]["amplitude"]
    c = float(law.sound_speed(1.0))
    B = amp / c
    om = 2.0 * np.pi * c
    rho = from_function(grid, lambda t, x:
                        1.0 + B * np.cos(2 * np.pi * x) * np.cos(om * t))
    u = from_function(grid, lambda t, x:
                      amp * np.sin(2 * np.pi * x) * np.sin(om * t)
                      + boundary_speed * (2.0 * x - 1.0))
    return rho, u


def _study_boundary(config) -> dict:
    law = _law(config)
    grid = _grid(config)
    tol = config["tolerances"]
    rho, u = _acoustic_pair(config, grid, law)
    rep = global_energy_balance_bounded(rho, u, law,
                                        config["ladders"]["delta"],
                                        config["ladders"]["nu"],
                                        t1=0.2, t2=0.8)
    assertions = [
        _assertion("boundary_slope", rep["boundary_slope"] >= tol["slope_min"],
                   rep["boundary_slope"], tol["slope_min"],
                   "energy.global_energy_balance_bounded"),
        _assertion("energy_gap", rep["energy_gap"] <= tol["gap_max"],
                   rep["energy_gap"], tol["gap_max"],
                   "energy.global_energy_balance_bounded"),
        _assertion("no_violation", not rep["boundary_violation"],
                   rep["boundary_speed"]["left"], 1e-2,
                   "energy.global_energy_balance_bounded"),
    ]
    return {"results": {"boundary_slope": rep["boundary_slope"],
                        "energy_gap": rep["energy_gap"],
                        "slice_stability": rep["slice_stability"],
                        "boundary_plateau": rep["boundary_plateau"]},
            "csv": {"ladder.csv": ("eps,value",
                                   _ladder_rows(rep["boundary_samples"]))},
            "assertions": assertions}


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
    assertions = [
        _assertion("dissipation_sign", plain["dissipation"] >= 0.0,
                   plain["dissipation"], 0.0, "energy.ns_energy_residual"),
        _assertion("degenerate_scaling", abs(scale - 1.0) <= 1e-9, scale,
                   1.0, "energy.ns_energy_residual"),
    ]
    samples = [(1.0, plain["dissipation"]), (0.5, degen["dissipation"])]
    return {"results": {"residual": plain["residual"],
                        "dissipation": plain["dissipation"],
                        "degenerate_dissipation": degen["dissipation"]},
            "csv": {"ladder.csv": ("eps,value", _ladder_rows(samples))},
            "assertions": assertions}


_STUDIES = {
    "rates": _study_rates,
    "counterexample": _study_counterexample,
    "vacuum": _study_vacuum,
    "qns": _study_qns,
    "budget": _study_budget,
    "boundary": _study_boundary,
    "ns": _study_ns,
}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _write_report(outdir: Path, config: dict, outcome: dict) -> dict:
    report = {
        "schema": REPORT_SCHEMA,
        "study": config["study"]["kind"],
        "config": config,
        "results": outcome["results"],
        "assertions": outcome["assertions"],
        "passed": all(a["passed"] for a in outcome["assertions"]),
    }
    (outdir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, (header, rows) in outcome.get("csv", {}).items():
        lines = [header]
        for row in rows:
            lines.append(",".join(f"{v:.17g}" if isinstance(v, float)
                                  else str(v) for v in row))
        (outdir / name).write_text("\n".join(lines) + "\n")
        plot = outdir / (Path(name).stem + ".dat")
        plot.write_text("\n".join(
            " ".join(f"{float(v):.17g}" for v in row[-2:]) for row in rows
        ) + "\n")
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


def _read_report(path: Path) -> dict:
    """Load a study's ``report.json``; ValueError names what is wrong."""
    rep = json.loads(path.read_text())
    if not isinstance(rep, dict):
        raise ValueError(f"top level is a JSON {type(rep).__name__}, "
                         f"not an object")
    for key in ("study", "assertions"):
        if key not in rep:
            raise ValueError(f"missing key {key!r}")
    return rep


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
            rep = _read_report(path)
        except ValueError as exc:  # includes JSON and UTF-8 decode errors
            print(f"usage error: {path} is not a vacuumlab report: {exc}",
                  file=sys.stderr)
            return 1
        if not rep["assertions"]:
            print(f"{rep['study']}: no assertions in {path}")
        for a in rep["assertions"]:
            rows.append((rep["study"], a["name"], a["bound"], a["value"],
                         "PASS" if a["passed"] else "FAIL"))
    rows.sort(key=lambda r: (r[0], r[1]))
    width = max((len(r[0]) + len(r[1]) for r in rows), default=0) + 2
    for study, name, bound, value, verdict in rows:
        label = f"{study}.{name}"
        print(f"{label:<{width}} expected {bound:<12.6g} "
              f"measured {value:<14.6g} {verdict}")
    overall = "PASS" if all(r[4] == "PASS" for r in rows) else "FAIL"
    print(f"overall: {overall}")
    return 0


_EXPORTABLE = ("counterexample", "weierstrass", "simple-wave", "acoustic",
               "sine-power")


def cmd_export_field(args) -> int:
    name = args.field
    path = Path(args.path)
    law = PressureLaw(gamma=5.0 / 3.0)
    try:
        if name == "counterexample":
            f = counterexample_field(10, 1 << 14, time_points=8)
        elif name == "weierstrass":
            grid = GridSpec(1, (256, 1024), (1.0, 1.0))
            f = weierstrass_field(WeierstrassSpec(0.5, 9, 1, seed=11), grid)
        elif name == "simple-wave":
            grid = GridSpec(1, (256, 1024), (0.2, 1.0))
            f, _ = simple_wave(law, 0.05, grid)
        elif name == "acoustic":
            grid = GridSpec(1, (256, 1024), (1.0, 1.0))
            c = float(law.sound_speed(1.0))
            f = from_function(grid, lambda t, x:
                              1.0 + 0.02 / c * np.cos(2 * np.pi * x)
                              * np.cos(2 * np.pi * c * t))
        elif name == "sine-power":
            grid = GridSpec(1, (256, 1024), (1.0, 1.0))
            f = vacuum_profile("sine-power", 0.5, grid)
        else:
            print(f"usage error: unknown field {name!r}; choose from "
                  f"{', '.join(_EXPORTABLE)}", file=sys.stderr)
            return 1
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
