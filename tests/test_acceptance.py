"""Acceptance suite: twelve end-to-end criteria with pinned tolerances.

A criterion is a list of ``Check``s and passes when all of them pass.
Each test prints one `criterion N (<name>): PASS|FAIL  [...]` line, with
`name value relation bound` for each check, so the suite output doubles
as the acceptance report.
"""

import numpy as np

from vacuumlab.cli import Check, main
from vacuumlab.commutators import (
    divmeasure_pressure_term,
    energy_commutators,
    pointwise_decomposition_check,
)
from vacuumlab.energy import (
    global_energy_balance_bounded,
    local_energy_residual,
    mollified_energy_balance,
)
from vacuumlab.grids import (
    Field,
    GridSpec,
    constant_field,
    from_function,
    make_mollifier,
)
from vacuumlab.pressure import PressureLaw, commutator_rate, make_c2_approximant
from vacuumlab.synth import (
    WeierstrassSpec,
    riemann_solution,
    shock_states,
    simple_wave,
    weierstrass_field,
)
from vacuumlab.testfn import spacetime_bump
from vacuumlab.vacuum import (
    counterexample_blowup,
    counterexample_field,
    l1_ratio_lemma_check,
    qns_check,
    qns_mollifier_equivalence,
)

LAW = PressureLaw(gamma=5.0 / 3.0)


def verdict(number: int, name: str, checks: list) -> bool:
    passed = all(c.passed for c in checks)
    print(f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'}  "
          f"[{'; '.join(map(str, checks))}]")
    return passed


def spatial_kernels(grid, eps_list):
    return [make_mollifier(e, grid.spatial_dim, grid, include_time=False)
            for e in eps_list]


def test_criterion_1_pressure_commutator_rate():
    # gamma=5/3, beta=0.5 vacuum-touching density, q=3, eps 2^-4..2^-9:
    # fitted exponent >= gamma*beta - 0.1 = 0.733 with r^2 >= 0.95
    g = GridSpec(1, (2048, 2048), (1.0, 1.0))
    rho = weierstrass_field(WeierstrassSpec(0.5, levels=9, seed=11), g)
    ladder = [2.0 ** -k for k in range(4, 10)]
    fit = commutator_rate(rho, LAW, 3, ladder, window=(0, len(ladder)))
    assert verdict(1, "pressure commutator rate", [
        Check("exponent", fit.exponent, ">=", 0.733),
        Check("r2", fit.r_squared, ">=", 0.95)])


def test_criterion_2_counterexample_blowup():
    # p=2 growth per i >= 0.4 (theory 0.5); p=1.05 growth <= 0.15
    f = counterexample_field(12, 1 << 15)
    i_list = list(range(6, 13))
    strong = counterexample_blowup(f, 2.0, i_list)
    weak = counterexample_blowup(f, 1.05, i_list)
    assert verdict(2, "counterexample blow-up", [
        Check("p=2 growth", strong["growth_per_i"], ">=", 0.4),
        Check("p=1.05 growth", weak["growth_per_i"], "<=", 0.15)])


def test_criterion_3_l1_ratio_lemma():
    # ratio norm varies by <= factor 2 over three dyadic decades for the
    # spike field and for |sin|
    eps_list = [0.2, 0.1, 0.05, 0.025]
    spike = counterexample_field(8, 4096)
    rep_spike = l1_ratio_lemma_check(spike,
                                     spatial_kernels(spike.grid, eps_list))
    g = GridSpec(1, (64, 4096), (1.0, 1.0))
    w = from_function(g, lambda t, x: np.abs(np.sin(2 * np.pi * x)))
    rep_sin = l1_ratio_lemma_check(w, spatial_kernels(g, eps_list))
    assert verdict(3, "L1 ratio uniform bound", [
        Check(f"{name} {key}", rep[key], rel, bound)
        for name, rep in (("spike", rep_spike), ("sin", rep_sin))
        for key, rel, bound in (("last_over_median", "<=", 2.0),
                                ("decades", ">=", 3.0))])


def test_criterion_4_pointwise_decomposition():
    # the two-term split of f_e g_e - (fg)_e holds to 1e-10 on 10 random pairs
    g = GridSpec(1, (48, 48), (1.0, 1.0))
    ker = make_mollifier(0.12, 2, g)
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        f = Field(g, rng.normal(size=g.shape)[..., None])
        h = Field(g, rng.normal(size=g.shape)[..., None])
        worst = max(worst, pointwise_decomposition_check(f, h, ker))
    assert verdict(4, "pointwise decomposition identity", [
        Check("max discrepancy", worst, "<=", 1e-10)])


def test_criterion_5_mollified_balance_identity():
    # LHS-RHS gap closes at observed order >= 1.8 under two halvings of h
    phi = spacetime_bump((0.1, 0.5), (0.05, 0.3))
    gaps = []
    for n in (256, 512, 1024):
        g = GridSpec(1, (n, n), (0.2, 1.0))
        rho, u = simple_wave(LAW, 0.05, g)
        ker = make_mollifier(0.02, 2, g)
        gaps.append(mollified_energy_balance(rho, u, LAW, ker, phi).identity_gap)
    orders = [np.log2(max(gaps[k], 1e-300) / max(gaps[k + 1], 1e-300))
              for k in range(2)]
    assert verdict(5, "mollified balance identity", [
        Check(f"order {k + 1}", o, ">=", 1.8) for k, o in enumerate(orders)])


def test_criterion_6_smooth_energy_conservation():
    # smooth-wave residual vanishes at order >= 1.8; constants at 1e-12
    phi = spacetime_bump((0.025, 0.5), (0.02, 0.3))
    res = []
    for n in (128, 256, 512):
        g = GridSpec(1, (n, n), (0.05, 1.0))
        rho, u = simple_wave(LAW, 0.2, g)
        res.append(abs(local_energy_residual(rho, u, LAW, phi)))
    orders = [np.log2(max(res[k], 1e-300) / max(res[k + 1], 1e-300))
              for k in range(2)]
    g = GridSpec(1, (128, 128), (0.05, 1.0))
    rho0 = constant_field(g, 1.0)
    u0 = constant_field(g, 0.3)
    const_res = abs(local_energy_residual(rho0, u0, LAW, phi))
    assert verdict(6, "smooth energy conservation", [
        *(Check(f"order {k + 1}", o, ">=", 1.8) for k, o in enumerate(orders)),
        Check("constant-state residual", const_res, "<=", 1e-12)])


def test_criterion_7_shock_dissipation():
    # measured residual within 5% of the closed-form jump dissipation,
    # strictly negative, for one admissible 1-shock
    spec = shock_states(LAW, 0.5, 1.0, family=1)
    g = GridSpec(1, (256, 512), (0.1, 1.0))
    rho, u, D = riemann_solution(spec, g)
    phi = spacetime_bump((0.05, 0.5), (0.04, 0.2))
    res = local_energy_residual(rho, u, LAW, phi)
    sigma = (spec.rho_l * spec.u_l - spec.rho_r * spec.u_r) \
        / (spec.rho_l - spec.rho_r)
    t = g.axis_coords(0)
    closed = D * np.trapezoid(phi._phi(t, 0.5 + sigma * t), t)
    rel = abs(res - closed) / abs(closed)
    assert verdict(7, "shock dissipation", [
        Check("residual", res, "<", 0.0),
        Check("jump dissipation", D, "<", 0.0),
        Check("relative gap to closed form", rel, "<=", 0.05)])


def test_criterion_8_commutator_vanishing():
    # (alpha, beta) = (0.5, 0.6) satisfies alpha + gamma beta > 1 and
    # 2 alpha + beta > 1: ladder fit exponent >= 0.15; the violating
    # pair (0.2, 0.2) must come out strictly below it
    g = GridSpec(1, (2048, 2048), (1.0, 1.0))
    phi = spacetime_bump((0.5, 0.5), (0.35, 0.35))
    ladder = [2.0 ** -k for k in range(4, 9)]

    def exponent(alpha, beta):
        rho = weierstrass_field(WeierstrassSpec(beta, levels=9, seed=3), g)
        u = weierstrass_field(WeierstrassSpec(alpha, levels=9, seed=7), g)
        samples = []
        for eps in ladder:
            rep = energy_commutators(rho, u, LAW,
                                     make_mollifier(eps, 2, g), phi)
            samples.append((eps, rep.total()))
        e = np.log([s[0] for s in samples])
        v = np.log([max(s[1], 1e-300) for s in samples])
        return float(np.polyfit(e, v, 1)[0])

    passing = exponent(0.5, 0.6)
    violating = exponent(0.2, 0.2)
    assert verdict(8, "commutator vanishing", [
        Check("passing exponent", passing, ">=", 0.15),
        Check("violating exponent", violating, "<", passing)])


def test_criterion_9_qns_equivalence():
    # convex profile: both directions hold with the 3^N / omega_N
    # relation (10% slack); spike family: both directions fail for a
    # fixed constant over three dyadic decades, with the per-rung
    # constants growing as the ladder descends
    g = GridSpec(1, (8, 2048), (1.0, 1.0))
    w = from_function(g, lambda t, x: np.abs(x - 0.5) + 0.05)
    x = g.axis_coords(1)
    region = np.broadcast_to((x > 0.1) & (x < 0.9), g.shape).copy()
    chk = qns_check(w, region, [0.02, 0.01], C=1.0)
    eq = qns_mollifier_equivalence(w, region,
                                   spatial_kernels(g, [0.06, 0.03, 0.015,
                                                       0.0075]),
                                   M=1.2, C=1.0)

    spike = counterexample_field(13, 1 << 16)
    ladder = spatial_kernels(spike.grid, [0.08, 0.04, 0.02, 0.01])
    bad = qns_mollifier_equivalence(spike, None, ladder, M=10.0, C=10.0)
    memps = [r["M_emp"] for r in bad["per_rung"]]
    cballs = [r["C_ball"] for r in bad["per_rung"]]
    assert verdict(9, "QNS mollifier equivalence", [
        Check("convex C", chk["empirical_C"], "<=", chk["bound"]),
        Check("convex M_emp", max(r["M_emp"] for r in eq["per_rung"]), "<=",
              eq["forward_bound"]),
        Check("convex C_ball", max(r["C_ball"] for r in eq["per_rung"]),
              "<=", eq["backward_bound"]),
        Check("spike M_emp", max(memps), ">", bad["forward_bound"]),
        Check("spike C_ball", max(cballs), ">", bad["backward_bound"]),
        Check("spike finest M_emp", memps[-1], ">", memps[0])])


def test_criterion_10_divmeasure_pressure_term():
    # defect term bounded by delta * TV * ||phi|| on the full delta
    # ladder; |term| fits linearly in delta (slope 1.0 +- 0.1)
    g = GridSpec(1, (2048, 2048), (1.0, 1.0))

    def base(t, x):
        ramp = np.clip((x - 0.8) / 0.05, 0.0, 1.0) \
            + np.clip((0.55 - x) / 0.05, 0.0, 1.0)
        return (0.5 + 0.4 * np.sin(2 * np.pi * x) ** 2) * np.minimum(ramp, 1.0)

    rho = from_function(g, base)
    u = from_function(g, lambda t, x: 0.4 * np.abs(x - 0.37) - 0.1
                      + 0.05 * np.sin(2 * np.pi * t))
    phi = spacetime_bump((0.5, 0.5), (0.3, 0.3))
    ker = make_mollifier(0.03, 2, g)
    samples = []
    checks = []
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        approx = make_c2_approximant(LAW, delta)
        rep = divmeasure_pressure_term(rho, u, LAW, approx, ker, phi)
        checks += [Check(f"|{term}_term| at delta={delta:g}",
                         abs(rep[f"{term}_term"]), "<=", rep[f"{term}_bound"])
                   for term in ("div", "grad")]
        samples.append((delta, abs(rep["div_term"])))
    slope = float(np.polyfit(np.log([s[0] for s in samples]),
                             np.log([max(s[1], 1e-300) for s in samples]),
                             1)[0])
    assert verdict(10, "divergence-measure pressure term", [
        *checks, Check("slope", slope, ">=", 0.9),
        Check("slope", slope, "<=", 1.1)])


def test_criterion_11_bounded_domain_balance():
    # u.n = 0 field: boundary term decays at slope >= 0.9 and the
    # windowed energy difference is tiny; a deliberate 0.1 outflow
    # plateaus at a detected nonzero level
    g = GridSpec(1, (512, 512), (1.0, 1.0))
    c = float(LAW.sound_speed(1.0))
    amp = 0.02
    om = 2.0 * np.pi * c

    def pair(drift):
        rho = from_function(g, lambda t, x:
                            1.0 + amp / c * np.cos(2 * np.pi * x)
                            * np.cos(om * t))
        u = from_function(g, lambda t, x:
                          amp * np.sin(2 * np.pi * x) * np.sin(om * t)
                          + drift * (2.0 * x - 1.0))
        return rho, u

    deltas = [0.1, 0.05, 0.025, 0.0125, 0.00625]
    nus = [0.08, 0.04, 0.02]
    rho, u = pair(0.0)
    good = global_energy_balance_bounded(rho, u, LAW, deltas, nus, 0.2, 0.8)
    rho_b, u_b = pair(0.1)
    bad = global_energy_balance_bounded(rho_b, u_b, LAW, deltas, nus,
                                        0.2, 0.8)
    assert verdict(11, "bounded-domain balance", [
        Check("slope", good["boundary_slope"], ">=", 0.9),
        Check("energy gap", good["energy_gap"], "<=", 1e-6),
        Check("boundary speed", max(good["boundary_speed"].values()), "<=",
              good["boundary_bound"]),
        Check("outflow boundary speed", max(bad["boundary_speed"].values()),
              ">", bad["boundary_bound"]),
        Check("outflow plateau", bad["boundary_plateau"], ">", 0.01)])


def test_criterion_12_determinism(tmp_path):
    # two runs of the same config produce byte-identical reports
    cfg = tmp_path / "study.ini"
    cfg.write_text(f"[study]\nkind = ns\noutput = {tmp_path / 'out'}\n"
                   "[grid]\nnt = 64\nnx = 64\n")
    assert main(["run", str(cfg)]) == 0
    first = {name: (tmp_path / "out" / name).read_bytes()
             for name in ("report.json", "ladder.csv", "ladder.dat")}
    assert main(["run", str(cfg)]) == 0
    second = {name: (tmp_path / "out" / name).read_bytes()
              for name in first}
    assert verdict(12, "determinism", [
        Check("files that differ", sum(first[n] != second[n] for n in first),
              "<=", 0)])
