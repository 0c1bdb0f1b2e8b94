import numpy as np
import pytest
from conftest import (
    convolve_every_slice,
    direct_circular_convolve,
    force_branch,
    record_convolved_rows,
)
from hypothesis import given, settings, strategies as st

from vacuumlab import cli, grids, vacuum
from vacuumlab.cli import Check
from vacuumlab.errors import (
    ExponentRelationError,
    ResolutionError,
    VacuumSingularityError,
)
from vacuumlab.grids import (
    Field,
    GridSpec,
    constant_field,
    from_function,
    integrate,
    make_mollifier,
)
from vacuumlab.vacuum import (
    build_vacuum_sets,
    counterexample_blowup,
    counterexample_field,
    l1_ratio_lemma_check,
    qns_check,
    qns_mollifier_equivalence,
    ratio_condition,
    reciprocal_integrability_rate,
    unit_ball_volume,
)

GRID = GridSpec(1, (256, 256), (1.0, 1.0))


def ball_check(rep):
    """The CLI's ``ball_average`` check of a ``qns_check`` report."""
    return Check("ball_average", rep["empirical_C"], "<=", rep["bound"])


def l1_checks(rep):
    """Criterion 3's checks of an ``l1_ratio_lemma_check`` report, the
    first also the CLI's ``bounded_factor`` row at its default."""
    return [Check("factor", rep["last_over_median"], "<=", 2.0),
            Check("decades", rep["decades"], ">=", 3.0)]


def spatial_kernels(grid, eps_list):
    return [make_mollifier(e, grid.spatial_dim, grid, include_time=False)
            for e in eps_list]


class TestVacuumSets:
    def test_partition(self, law):
        rho = from_function(GRID, lambda t, x: np.abs(np.sin(np.pi * x)))
        sets = build_vacuum_sets(rho, make_mollifier(0.05, 2, GRID), 0.5)
        union = sets.A | sets.B | sets.C
        assert union.all()
        assert not (sets.A & sets.B).any()
        assert not (sets.B & sets.C).any()
        assert sets.measure("A") + sets.measure("B") + sets.measure("C") \
            == pytest.approx(union.size * sets.grid.cell_volume)

    def test_strict_band_subset(self):
        rho = from_function(GRID, lambda t, x: np.abs(np.sin(np.pi * x)) ** 2)
        sets = build_vacuum_sets(rho, make_mollifier(0.05, 2, GRID), 0.5)
        assert not (sets.B_strict & ~sets.B).any()

    def test_validation(self):
        rho = constant_field(GRID, 1.0)
        ker = make_mollifier(0.05, 2, GRID)
        with pytest.raises(ValueError):
            build_vacuum_sets(rho, ker, 0.0)
        bad = from_function(GRID, lambda t, x: x - 0.5)
        with pytest.raises(ValueError):
            build_vacuum_sets(bad, ker, 0.5)


class TestRatioCondition:
    def test_bounded_density_has_empty_band(self, law):
        rho = constant_field(GRID, 1.0)
        with pytest.warns(UserWarning, match="empty mask"):
            val = ratio_condition(rho, make_mollifier(0.05, 2, GRID), 0.5, 1)
        assert val == 0.0

    def test_vacuum_touching_band_is_finite(self):
        rho = from_function(GRID, lambda t, x: np.abs(np.sin(np.pi * x)) ** 2)
        val = ratio_condition(rho, make_mollifier(0.05, 2, GRID), 0.5, 1)
        assert np.isfinite(val) and val >= 0.0

    @pytest.mark.parametrize("strict_band", [False, True])
    def test_density_mollified_once(self, monkeypatch, strict_band):
        # the vacuum sets reuse ratio_condition's rho_e, with the value of
        # vacuum sets that mollify rho themselves
        rho = from_function(GRID, lambda t, x: np.abs(np.sin(np.pi * x)) ** 2)
        ker = make_mollifier(0.05, 2, GRID)
        calls = []
        apply = grids.Mollification.__call__
        monkeypatch.setattr(grids.Mollification, "__call__",
                            lambda self, f: calls.append(f) or apply(self, f))
        val = ratio_condition(rho, ker, 0.5, 2, strict_band=strict_band)
        assert len(calls) == 1

        def own_rho_e(rho, kernel, beta, rho_e=None):
            return build_vacuum_sets(rho, kernel, beta)

        monkeypatch.setattr(vacuum, "build_vacuum_sets", own_rho_e)
        calls.clear()
        ref = ratio_condition(rho, ker, 0.5, 2, strict_band=strict_band)
        assert len(calls) == 2
        assert val == ref


class TestL1RatioLemma:
    def test_bounded_for_isolated_zero(self):
        w = from_function(GRID, lambda t, x: np.abs(np.sin(np.pi * x)))
        ladder = spatial_kernels(GRID, [0.2, 0.1, 0.05, 0.025])
        rep = l1_ratio_lemma_check(w, ladder)
        assert rep["bounded"]
        assert all(c.passed for c in l1_checks(rep))
        assert rep["decades"] >= 3.0

    def test_short_ladder_cannot_certify(self):
        w = from_function(GRID, lambda t, x: np.abs(np.sin(np.pi * x)))
        rep = l1_ratio_lemma_check(w, spatial_kernels(GRID, [0.2, 0.1]))
        assert not rep["bounded"]
        assert [c.passed for c in l1_checks(rep)] == [True, False]

    def test_zero_median_is_not_bounded(self):
        # w_e = w on a constant field: every value and the median are 0, so
        # the factor is NaN, which the CLI row and criterion 3 both fail
        g = GridSpec(1, (16, 1024), (1.0, 1.0))
        w = constant_field(g, 2.0)
        rep = l1_ratio_lemma_check(
            w, spatial_kernels(g, [0.2, 0.1, 0.05, 0.025]))
        assert rep["median"] == 0.0 and np.isnan(rep["last_over_median"])
        assert rep["bounded"] is False
        assert [c.passed for c in l1_checks(rep)] == [False, True]
        # l1_checks' factor gate is the CLI row's default
        assert cli._SCHEMA["tolerances"]["factor_max"][1] == 2.0

    def test_negative_field_rejected(self):
        w = from_function(GRID, lambda t, x: x - 0.5)
        with pytest.raises(ValueError):
            l1_ratio_lemma_check(w, spatial_kernels(GRID, [0.2, 0.1]))

    def test_mask_shape_checked(self):
        w = constant_field(GRID, 1.0)
        bad = np.ones((8, 8), dtype=bool)
        with pytest.raises(ValueError):
            l1_ratio_lemma_check(w, spatial_kernels(GRID, [0.2]), bad)


class TestReciprocalIntegrability:
    def test_exponent_relation_enforced(self):
        w = constant_field(GRID, 1.0)
        with pytest.raises(ExponentRelationError):
            reciprocal_integrability_rate(w, 2, 2, 2,
                                          spatial_kernels(GRID, [0.1]))

    def test_holds_for_bounded_below_density(self):
        w = from_function(GRID, lambda t, x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
        rep = reciprocal_integrability_rate(
            w, 4, 4, 2, spatial_kernels(GRID, [0.2, 0.1, 0.05, 0.025, 0.0125]))
        assert all(Check("lhs", e["lhs"], "<=", e["bound"]).passed
                   for e in rep.entries)
        assert rep.reciprocal_norm < np.inf

    def test_negative_field_rejected(self):
        # a signed w could give w_e - w > 0 where w_e <= 0
        w = from_function(GRID, lambda t, x: x - 0.5)
        with pytest.raises(ValueError, match="w must be non-negative"):
            reciprocal_integrability_rate(
                w, 4, 4, 2, spatial_kernels(GRID, [0.2, 0.1, 0.05, 0.025,
                                                   0.0125]))


class TestQns:
    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(np.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)

    def test_constant_field_has_unit_constant(self):
        w = constant_field(GRID, 2.0)
        rep = qns_check(w, None, [0.05, 0.1], C=1.0)
        assert ball_check(rep).passed
        assert rep["empirical_C"] == pytest.approx(1.0, rel=1e-12)

    def test_convex_field_passes_away_from_kinks(self):
        g = GridSpec(1, (8, 2048), (1.0, 1.0))
        w = from_function(g, lambda t, x: np.abs(x - 0.5))
        region = np.zeros(g.shape, dtype=bool)
        x = g.axis_coords(1)
        region[:, (x > 0.1) & (x < 0.9)] = True
        rep = qns_check(w, region, [0.02, 0.01], C=1.0)
        assert ball_check(rep).passed
        assert rep["empirical_C"] <= 1.0 + 1e-9

    def test_negative_field_rejected(self):
        w = from_function(GRID, lambda t, x: x - 0.5)
        with pytest.raises(ValueError):
            qns_check(w, None, [0.05], C=1.0)

    def test_equivalence_for_convex_field(self):
        g = GridSpec(1, (8, 2048), (1.0, 1.0))
        w = from_function(g, lambda t, x: np.abs(x - 0.5) + 0.05)
        region = np.zeros(g.shape, dtype=bool)
        x = g.axis_coords(1)
        region[:, (x > 0.1) & (x < 0.9)] = True
        ladder = spatial_kernels(g, [0.06, 0.03, 0.015, 0.0075])
        rep = qns_mollifier_equivalence(w, region, ladder, M=1.2, C=1.0)
        assert rep["forward_pass"] and rep["backward_pass"]
        assert Check("growth", rep["M_growth_exponent"], ">", -0.2).passed
        assert all(r["M_emp"] <= 1.2 for r in rep["per_rung"])

    @pytest.mark.parametrize("case", ["convex", "spikes"])
    def test_pass_keys_are_the_checks_on_the_bounds(self, case):
        # the benchmark reads forward_pass and backward_pass by key; each
        # is the CLI's check of the worst rung against the returned bound
        if case == "spikes":
            w, region = counterexample_field(8, 4096), None
            ladder = spatial_kernels(w.grid, [0.08, 0.04, 0.02, 0.01])
        else:
            w = from_function(GridSpec(1, (8, 2048), (1.0, 1.0)),
                              lambda t, x: np.abs(x - 0.5) + 0.05)
            region = None
            ladder = spatial_kernels(w.grid, [0.06, 0.03, 0.015])
        rep = qns_mollifier_equivalence(w, region, ladder, M=1.2, C=1.0)
        forward = Check("forward", max(r["M_emp"] for r in rep["per_rung"]),
                        "<=", rep["forward_bound"])
        backward = Check("backward",
                         max(r["C_ball"] for r in rep["per_rung"]), "<=",
                         rep["backward_bound"])
        assert rep["forward_pass"] is forward.passed
        assert rep["backward_pass"] is backward.passed
        assert forward.passed is backward.passed is (case == "convex")


def brute_clearance(grid, region):
    """Oracle for ``vacuum._clear_nodes``: each region node's distance to
    the complement on its own slice, the least over every complement node
    of the shortest periodic image per axis; min(extents) / 2 on a filled
    slice.  A node is clear of radius r when this times EPS0 is >= r."""
    space = np.array(region.shape[1:])
    nodes = np.indices(space).reshape(len(space), -1).T
    out = np.zeros(region.shape)
    for j, inside in enumerate(region.reshape(len(region), -1)):
        if inside.all():
            clear = np.full(inside.shape, min(grid.extents[1:]) / 2.0)
        else:
            gap = np.abs(nodes[:, None, :] - nodes[None, ~inside, :])
            gap = np.minimum(gap, space - gap) * np.array(grid.spacings[1:])
            clear = np.sqrt((gap ** 2).sum(axis=-1)).min(axis=1)
        out[j] = clear.reshape(space)
    return out


def clearance_case(name):
    """(grid, region mask, radii) for the clearance oracle."""
    rng = np.random.default_rng(5)
    if name == "qns-study":
        # the CLI qns region; radii of the study and of criterion 9, with
        # their kernels' epsilon and epsilon / 3
        g = GridSpec(1, (8, 2048), (1.0, 1.0))
        x = g.axis_coords(1)
        region = np.broadcast_to((x > 0.1) & (x < 0.9), g.shape).copy()
        return g, region, [0.06, 0.03, 0.02, 0.015, 0.01, 0.0075, 0.005,
                           0.0025]
    if name == "holes-2d":
        # 2% random holes, drawn afresh on every slice
        g = GridSpec(2, (8, 64, 48), (1.0, 1.0, 1.0))
        return g, rng.random(g.shape) >= 0.02, [0.005, 0.01, 0.02, 0.04, 0.2]
    if name == "disc-2d":
        g = GridSpec(2, (8, 40, 32), (1.0, 1.0, 0.8))
        _, x, y = g.meshgrid()
        return g, (x - 0.5) ** 2 + (y - 0.4) ** 2 < 0.3 ** 2, \
            [0.005, 0.01, 0.02, 0.04, 0.06, 0.08]
    if name == "line-2d":
        # clearances up to half the x period: the stencil wraps there
        g = GridSpec(2, (8, 16, 12), (1.0, 1.0, 1.0))
        region = np.ones(g.shape, dtype=bool)
        region[:, 3] = False
        return g, region, [0.1, 0.12, 0.125, 0.13]
    # slice 0 has no boundary; slices 1..7 have a hole at x in [0.5, 0.55)
    g = GridSpec(1, (8, 512), (1.0, 1.0))
    region = np.ones(g.shape, dtype=bool)
    region[1:, 256:282] = False
    return g, region, [0.001, 0.005, 0.01, 0.02, 0.125, 0.2]


class TestClearance:
    @pytest.mark.parametrize("name", ["qns-study", "holes-2d", "disc-2d",
                                      "line-2d", "time-varying"])
    def test_erosion_matches_brute_force_distance(self, name):
        g, region, radii = clearance_case(name)
        clearance = brute_clearance(g, region)
        for r in radii:
            oracle = region & (clearance * vacuum.EPS0 >= r)
            assert np.array_equal(vacuum._clear_nodes(g, region, r),
                                  oracle), r
        if name == "qns-study":
            # 4r = 0.02 is 40.96 cells: 40 of the 1638 region nodes go on
            # either side
            assert vacuum._clear_nodes(g, region, 0.005).sum() == 8 * 1558

    def test_qns_study_erodes_each_radius_once(self, tmp_path, monkeypatch):
        # the study tests the radii r, and its kernels eps = 3r test eps
        # and eps / 3 = r: 12 erosions for these 6 radii when each check
        # eroded on its own, 6 with one shared region
        erode, radii = vacuum._clear_nodes, []
        monkeypatch.setattr(vacuum, "_clear_nodes", lambda g, region, r:
                            radii.append(r) or erode(g, region, r))
        cfg = tmp_path / "qns.ini"
        reports = []
        for shared in (True, False):
            if not shared:  # erode on every call, as each check did alone
                monkeypatch.setattr(vacuum.QnsRegion, "clear", lambda self, r:
                                    vacuum._clear_nodes(
                                        self.w.grid, self.mask[self.rows], r))
                ball_ratio = vacuum.QnsRegion.ball_ratio
                monkeypatch.setattr(vacuum.QnsRegion, "ball_ratio",
                                    lambda self, r: self._ball_ratio.clear()
                                    or ball_ratio(self, r))
            out = tmp_path / "out"  # the report echoes the path
            cfg.write_text(f"[study]\nkind = qns\noutput = {out}\n[grid]\n"
                           "nt = 8\nnx = 2048\n[generator]\nkind = abs\n"
                           "[ladders]\nradius = 0.02, 0.01, 0.005\n")
            radii.clear()
            assert cli.main(["run", str(cfg)]) == 0
            assert sorted(set(radii)) == [0.005, 0.01, 0.015, 0.02, 0.03,
                                          0.06]
            assert len(radii) == (6 if shared else 12)
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_qns_study_averages_each_radius_once(self, tmp_path,
                                                 monkeypatch):
        # qns_check averages at the radii r, and the kernels eps = 3r
        # average at eps / 3 = r and at eps: 9 ball averages when each
        # ratio maximum was formed on its own, 6 with the region's
        average, radii = vacuum._ball_average, []
        monkeypatch.setattr(vacuum, "_ball_average", lambda w, r:
                            radii.append(r) or average(w, r))
        cfg = tmp_path / "qns.ini"
        reports = []
        for shared in (True, False):
            if not shared:  # form every ratio maximum afresh
                ball_ratio = vacuum.QnsRegion.ball_ratio
                monkeypatch.setattr(vacuum.QnsRegion, "ball_ratio",
                                    lambda self, r: self._ball_ratio.clear()
                                    or ball_ratio(self, r))
            out = tmp_path / "out"  # the report echoes the path
            cfg.write_text(f"[study]\nkind = qns\noutput = {out}\n[grid]\n"
                           "nt = 8\nnx = 2048\n[generator]\nkind = abs\n"
                           "[ladders]\nradius = 0.02, 0.01, 0.005\n")
            radii.clear()
            assert cli.main(["run", str(cfg)]) == 0
            assert sorted(set(radii)) == [0.005, 0.01, 0.015, 0.02, 0.03,
                                          0.06]
            assert len(radii) == (6 if shared else 9)
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_region_belongs_to_its_field(self):
        g, region, _ = clearance_case("qns-study")
        w = from_function(g, lambda t, x: 1.0 + x)
        with pytest.raises(ValueError, match="another field"):
            qns_check(from_function(g, lambda t, x: 1.0 + x),
                      vacuum.QnsRegion(w, region), [0.01], C=1.0)

    def test_time_constant_region_erodes_one_slice(self, monkeypatch):
        g, region, _ = clearance_case("qns-study")
        rows = record_convolved_rows(monkeypatch)
        vacuum._clear_nodes(g, region, 0.01)
        assert rows == [1]

    def test_region_without_boundary_is_not_convolved(self, monkeypatch):
        g = GridSpec(1, (8, 4096), (1.0, 1.0))
        rows = record_convolved_rows(monkeypatch)
        full = np.ones(g.shape, dtype=bool)
        assert vacuum._clear_nodes(g, full, 0.125).all()
        assert not vacuum._clear_nodes(g, full, 0.13).any()
        assert rows == []

    def test_node_next_to_a_later_hole_is_not_tested(self):
        # x = 0.5518 is one cell from the hole on slice 1, so no radius is
        # tested there, though slice 0 has no hole; a peak at that node
        # would otherwise give a ratio near 10
        g, region, _ = clearance_case("time-varying")
        vals = np.ones(g.shape)
        vals[1, 282] = 10.0
        rep = qns_check(Field(g, vals), region, [0.005, 0.01], C=1.0)
        assert rep["empirical_C"] == pytest.approx(1.0, rel=1e-12)
        assert ball_check(rep).passed


def direct_ball_average(w, radius):
    axes = tuple(range(1, len(w.grid.shape)))
    return Field(w.grid, direct_circular_convolve(
        w.values[..., 0], vacuum._ball_kernel(w.grid, radius), axes))


class TestBallAverageOracle:
    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2]), n=st.integers(8, 40),
           cells=st.integers(1, 19), zero_start=st.integers(0, 39),
           zero_len=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_fft_matches_direct_summation(self, dim, n, cells, zero_start,
                                          zero_len, seed):
        rng = np.random.default_rng(seed)
        shape = (8, n) if dim == 1 else (8, n, n + 3)
        g = GridSpec(dim, shape, (1.0,) * len(shape))
        vals = rng.random(shape)
        block = slice(zero_start % n, zero_start % n + zero_len)
        vals[:, block] = 0.0  # exact vacuum, possibly the whole field
        w = Field(g, vals)
        radius = (min(cells, (n - 1) // 2) + 0.5) * min(g.spacings[1:])
        fft = vacuum._ball_average(w, radius).values[..., 0]
        direct = direct_ball_average(w, radius).values[..., 0]
        scale = max(float(vals.max()), 1e-300)
        assert np.max(np.abs(fft - direct)) <= 1e-13 * scale
        assert np.all(fft[direct > 0.0] > 0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_repeated_slices_are_averaged_once(self, dim, monkeypatch):
        if dim == 1:
            w = counterexample_field(8, 4096)
        else:
            g = GridSpec(2, (8, 40, 48), (1.0, 1.0, 1.0))
            w = from_function(g, lambda t, x, y: np.maximum(
                np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y), 0.0))
        radius = 0.01 if dim == 1 else 0.1
        rows = record_convolved_rows(monkeypatch)
        once = vacuum._ball_average(w, radius)
        assert rows == [1]
        convolve_every_slice(monkeypatch)
        every = vacuum._ball_average(w, radius)
        assert rows == [1, 8]
        assert once.values.tobytes() == every.values.tobytes()

    @pytest.mark.parametrize("varies", [False, True],
                             ids=["time-constant", "time-varying"])
    def test_finiteness_scan_reads_the_convolved_slices(self, varies,
                                                        monkeypatch):
        w = counterexample_field(8, 4096)
        if varies:
            vals = w.values.copy()
            vals[3] *= 0.5
            w = Field(w.grid, vals)
        scanned = []
        monkeypatch.setattr(grids, "_require_finite",
                            lambda values: scanned.append(values.shape))
        avg = vacuum._ball_average(w, 0.01)
        assert scanned == [(8 if varies else 1, 4096)]
        assert avg.values.flags.c_contiguous

    @pytest.mark.parametrize("case", ["spikes", "abs"])
    def test_qns_check_matches_direct_summation(self, case, monkeypatch):
        if case == "spikes":
            w = counterexample_field(8, 4096)
        else:
            g = GridSpec(1, (8, 2048), (1.0, 1.0))
            w = from_function(g, lambda t, x: np.abs(np.sin(7 * x)) ** 0.5)
        radii = [0.05, 0.02, 0.01, 0.005]
        fft = qns_check(w, None, radii, C=1.0)
        monkeypatch.setattr(vacuum, "_ball_average", direct_ball_average)
        direct = qns_check(w, None, radii, C=1.0)
        assert fft["empirical_C"] == pytest.approx(direct["empirical_C"],
                                                   rel=1e-12)
        assert fft["worst_witness"][:2] == direct["worst_witness"][:2]
        assert ball_check(fft).passed == ball_check(direct).passed


def _hexed(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


class TestOneSliceMaxima:
    """Ratio maxima of a field and region mask that repeat their first
    time slice are formed on that slice, with the bits of all slices."""

    @staticmethod
    def record_ratio_rows(monkeypatch):
        rows = []
        ratio = vacuum._guarded_ratio
        monkeypatch.setattr(vacuum, "_guarded_ratio", lambda num, den: (
            rows.append(num.shape[0]) or ratio(num, den)))
        return rows

    @staticmethod
    def case(name):
        """(field, region mask, ball radii, spatial kernel ladder)."""
        if name == "spikes":
            w = counterexample_field(8, 4096)
            return w, None, [0.05, 0.02, 0.01], spatial_kernels(
                w.grid, [0.08, 0.04, 0.02, 0.01])
        # the qns study's generator and region
        g = GridSpec(1, (8, 2048), (1.0, 1.0))
        w = from_function(g, lambda t, x: np.abs(x - 0.5))
        x = g.axis_coords(1)
        region = np.broadcast_to((x > 0.1) & (x < 0.9), g.shape).copy()
        radii = [0.02, 0.01, 0.005]
        return w, region, radii, spatial_kernels(g, [3.0 * r for r in radii])

    @staticmethod
    def evaluate(w, region, radii, ladder):
        return (qns_check(w, region, radii, C=1.0),
                qns_mollifier_equivalence(w, region, ladder, M=3.0, C=1.0))

    @pytest.mark.parametrize("name", ["spikes", "abs"])
    def test_one_slice_gives_the_bits_of_every_slice(self, name,
                                                     monkeypatch):
        w, region, radii, ladder = self.case(name)
        rows = self.record_ratio_rows(monkeypatch)
        once = self.evaluate(w, region, radii, ladder)
        assert rows and set(rows) == {1}
        monkeypatch.setattr(vacuum, "repeats_first_slice", lambda v: False)
        rows.clear()
        every = self.evaluate(w, region, radii, ladder)
        assert set(rows) == {w.grid.shape[0]}
        assert once[0]["worst_witness"] is not None
        assert _hexed(once) == _hexed(every)

    @pytest.mark.parametrize("change", ["one-ulp", "negative-zero",
                                        "region", "space-time-kernel"])
    def test_inputs_that_vary_in_time_take_every_slice(self, change,
                                                       monkeypatch):
        w, region, radii, ladder = self.case("spikes")
        if change == "space-time-kernel":
            # 64 slices, so the kernel fits in time and keeps rows 6..57
            w = counterexample_field(8, 4096, time_points=64)
            ladder = [ladder[0], make_mollifier(0.1, 2, w.grid)]
        vals = w.values.copy()
        region = np.ones(w.grid.shape, dtype=bool)
        if change == "one-ulp":
            vals[5, 1500, 0] = np.nextafter(vals[5, 1500, 0], 2.0)
        elif change == "negative-zero":
            vals[-1, 3, 0] = -0.0  # equal to +0.0, other bits
        elif change == "region":
            region[3, 2000:2100] = False
        w = Field(w.grid, vals)
        rows = self.record_ratio_rows(monkeypatch)
        self.evaluate(w, region, radii, ladder)
        if change == "space-time-kernel":
            # the mollifier ratio reads its 52 interior rows; the ball
            # averages act slice-wise and still read one
            assert rows == [1] * 3 + [1, 1, 1] + [52, 1, 1]
        else:
            assert set(rows) == {w.grid.shape[0]}


def test_guarded_ratio_matches_the_where_expression():
    # zeros of both signs, subnormals, dens under 1e-300, negatives
    values = [0.0, -0.0, 5e-324, 1e-310, 5e-301, 1e-300, 2e-300, 1e-200,
              0.25, 1.0, 7.5, -1e-310, -2.0]
    num, den = np.meshgrid(values, values, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        old = np.where(den > 0, num / np.maximum(den, 1e-300),
                       np.where(num > 0, np.inf, 0.0))
    new = vacuum._guarded_ratio(num, den)
    assert np.isinf(new).any() and (new == 0.0).any()
    assert new.tobytes() == old.tobytes()


class TestQuotientOracle:
    """The four w/w_e quotients, frozen in the ``np.where(w_e > 0.0, ...)``
    forms they had before they shared ``_guarded_ratio``, give the same
    bits on a field that touches vacuum, on either branch."""

    @staticmethod
    def old_ratio_condition(rho, kernel, beta, q):
        rho_e = grids.mollify(rho, kernel)
        sets = build_vacuum_sets(rho, kernel, beta, rho_e=rho_e)
        r0 = grids.restrict(rho, rho_e.grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (rho_e.values - r0.values) / rho_e.values
        ratio = np.where(sets.B[..., None], ratio, 0.0)
        return grids.lp_norm(Field(rho_e.grid, ratio), q, mask=sets.B)

    @staticmethod
    def old_defects(w, ladder, relative):
        """Per rung, the L1 norm of |w_e - w| / w_e (``relative``, as
        ``l1_ratio_lemma_check``) or the L2 norm of the signed quotient
        (as ``reciprocal_integrability_rate``)."""
        out = []
        for ker in ladder:
            we = grids.mollify(w, ker)
            w0 = grids.restrict(w, we.grid)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = (we.values - w0.values) / we.values
            ratio = np.where(we.values > 0.0, ratio, 0.0)
            out.append(grids.lp_norm(Field(we.grid, np.abs(ratio)), 1)
                       if relative else
                       grids.lp_norm(Field(we.grid, ratio), 2))
        return out

    @staticmethod
    def old_blowup_samples(f, p, i_list):
        x = f.grid.axis_coords(1)
        samples = []
        for i in i_list:
            eps = 1.0 / (2.0 * i * i)
            nodes = np.flatnonzero((x >= 1.0 / i) & (x <= 1.0 / i + 2.0 ** -i))
            a, b = nodes[0], nodes[-1] + 1
            box = ((0, f.grid.shape[0]), (a, b))
            moll = grids.Mollification(spatial_kernels(f.grid, [eps])[0],
                                       f.grid, box=box)
            fe = moll(f).values[..., 0]
            fs = f.values[:, a:b, 0]
            pos = fs > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(pos, fs / np.maximum(fe, 1e-300), 0.0)
            local = grids.lp_norm(Field(f.grid.subgrid(box), ratio), p)
            samples.append((i, eps, local / eps))
        return samples

    @pytest.mark.parametrize("branch", ["direct", "fft"])
    def test_shared_quotient_keeps_the_bits(self, branch, monkeypatch):
        force_branch(monkeypatch, branch)
        f = counterexample_field(9, 4096)
        ladder = spatial_kernels(f.grid, [0.1, 0.05, 0.025, 0.0125, 0.00625])
        assert (f.values == 0.0).any()

        got = ratio_condition(f, ladder[1], 0.5, 2)
        assert got > 0.0
        assert got.hex() == self.old_ratio_condition(f, ladder[1], 0.5,
                                                     2).hex()
        got = l1_ratio_lemma_check(f, ladder)["values"]
        assert _hexed(got) == _hexed(self.old_defects(f, ladder, True))
        got = [e["lhs"] for e in reciprocal_integrability_rate(
            f, 2, np.inf, 2, ladder).entries]
        assert _hexed(got) == _hexed(self.old_defects(f, ladder, False))
        i_list = [4, 5, 6, 7, 8, 9]
        got = counterexample_blowup(f, 2.0, i_list)["samples"]
        assert _hexed(got) == _hexed(self.old_blowup_samples(f, 2.0, i_list))


class TestCounterexample:
    def test_field_mass(self):
        f = counterexample_field(8, 4096)
        mass = integrate(f) / f.grid.extents[0]
        expect = sum(2.0 ** -i for i in range(2, 9))
        assert mass == pytest.approx(expect, abs=4 * 7 / 4096)

    def test_spikes_are_disjoint_indicators(self):
        f = counterexample_field(8, 4096)
        assert set(np.unique(f.values)) <= {0.0, 1.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            counterexample_field(1, 4096)
        with pytest.raises(ResolutionError):
            counterexample_field(12, 1024)

    def test_blowup_growth_tracks_theory(self):
        f = counterexample_field(10, 8192)
        rep = counterexample_blowup(f, 2.0, [4, 6, 8, 10])
        assert rep["theory"] == pytest.approx(0.5)
        assert rep["growth_per_i"] > 0.25

    def test_no_blowup_near_p_equal_one(self):
        f = counterexample_field(10, 8192)
        strong = counterexample_blowup(f, 3.0, [4, 6, 8, 10])
        weak = counterexample_blowup(f, 1.05, [4, 6, 8, 10])
        assert strong["growth_per_i"] > weak["growth_per_i"] + 0.3
        assert weak["growth_per_i"] < 0.1

    @pytest.mark.parametrize("p", [2.0, 1.05])
    @pytest.mark.parametrize("varying", [False, True])
    def test_blowup_equals_the_whole_grid_ratio_bitwise(self, p, varying):
        # the ratio read on the spike's nodes alone gives the samples and
        # the slope of a ratio formed on the whole grid and then masked
        f = counterexample_field(10, 8192)
        if varying:  # time slices that differ: the mask's order matters
            f = Field(f.grid,
                      f.values * (1.0 + 0.1 * np.arange(8))[:, None, None])
        i_list = [4, 5, 6, 8, 10]
        x = f.grid.axis_coords(1)
        samples = []
        for i in i_list:
            eps = 1.0 / (2.0 * i * i)
            fe = grids.mollify(f, make_mollifier(eps, 1, f.grid,
                                                 include_time=False))
            spike = (x >= 1.0 / i) & (x <= 1.0 / i + 2.0 ** (-i))
            mask = np.broadcast_to(spike, f.grid.shape)
            pos = mask & (f.values[..., 0] > 0.0)
            ratio = np.where(pos, f.values[..., 0]
                             / np.maximum(fe.values[..., 0], 1e-300), 0.0)
            local = grids.lp_norm(Field(f.grid, ratio), p, mask=mask)
            samples.append((i, eps, local / eps))
        slope = float(np.polyfit(np.array(i_list, float),
                                 np.log2([s[2] for s in samples]), 1)[0])
        rep = counterexample_blowup(f, p, i_list)
        assert rep["samples"] == samples
        assert rep["growth_per_i"] == slope

    @staticmethod
    def spike_box(f, i):
        x = f.grid.axis_coords(1)
        nodes = np.flatnonzero((x >= 1.0 / i) & (x <= 1.0 / i + 2.0 ** (-i)))
        return int(nodes[0]), int(nodes[-1]) + 1

    @staticmethod
    def short_line():
        """Spikes 2..4 on a line of length 0.8: spike 2's box widened by
        eps_2 = 1/8 would pass its end, so rung 2 reads the whole line."""
        g = GridSpec(1, (8, 1000), (1.0, 0.8))
        x = g.axis_coords(1)
        spikes = sum((x >= 1.0 / i) & (x <= 1.0 / i + 2.0 ** (-i))
                     for i in (2, 3, 4))
        return Field(g, np.broadcast_to(spikes, g.shape).astype(float))

    @pytest.mark.parametrize("branch", ["direct", "fft"])
    @pytest.mark.parametrize("case", ["spikes", "wrap"])
    def test_each_rung_mollifies_its_spike_box(self, case, branch,
                                               monkeypatch):
        # f_e on spike i is the whole-grid one cut to the spike's nodes:
        # bit for bit by direct summation, to rounding by the padded FFT
        force_branch(monkeypatch, branch)
        if case == "spikes":
            f, i_list = counterexample_field(10, 8192), [4, 6, 8, 10]
        else:
            f, i_list = self.short_line(), [2, 3, 4]
        rungs = []
        apply = grids.Mollification.__call__
        monkeypatch.setattr(grids.Mollification, "__call__",
                            lambda self, g: rungs.append(apply(self, g))
                            or rungs[-1])
        counterexample_blowup(f, 2.0, i_list)
        monkeypatch.setattr(grids.Mollification, "__call__", apply)
        assert len(rungs) == len(i_list)
        wraps = []
        for i, fe in zip(i_list, rungs):
            a, b = self.spike_box(f, i)
            ker = make_mollifier(1.0 / (2.0 * i * i), 1, f.grid,
                                 include_time=False)
            wraps.append(b + ker.half_widths[0] > f.grid.shape[1])
            if wraps[-1]:
                assert fe.grid == f.grid
                got = fe.values[:, a:b]
            else:
                assert fe.grid == f.grid.subgrid(((0, 8), (a, b)))
                got = fe.values
            want = grids.mollify(f, ker).values[:, a:b]
            if branch == "direct" or wraps[-1]:
                assert got.tobytes() == want.tobytes()
            else:
                assert (np.max(np.abs(got - want))
                        <= 1e-13 * np.max(np.abs(want)))
        assert wraps == [case == "wrap", False, False, False][:len(i_list)]

    # the per-rung branches (F: FFT, D: direct) are those of mollifying
    # the whole line, which the size rule reads
    @pytest.mark.parametrize("i_max,nx,i_list,branches", [
        (12, 1 << 15, range(6, 13), "FDDDDDD"),
        (10, 1 << 13, range(4, 11), "DDDDDDD"),
    ])
    def test_each_rung_convolves_one_slice_of_its_box(self, i_max, nx,
                                                      i_list, branches,
                                                      monkeypatch):
        calls = []
        for name, tag in (("_direct_convolve", "D"), ("_fft_convolve", "F")):
            def spy(values, *args, _inner=getattr(grids, name), _tag=tag):
                calls.append((_tag, values.shape))
                return _inner(values, *args)

            monkeypatch.setattr(grids, name, spy)
        f = counterexample_field(i_max, nx)
        counterexample_blowup(f, 2.0, i_list)
        assert "".join(tag for tag, _ in calls) == branches
        for i, (_, shape) in zip(i_list, calls):
            a, b = self.spike_box(f, i)
            k = make_mollifier(1.0 / (2.0 * i * i), 1, f.grid,
                               include_time=False).half_widths[0]
            assert shape == (1, b - a + 2 * k)

    def test_blowup_spike_without_nodes(self):
        # at 605 nodes eps_10 = 1/200 spans 3 spacings, yet no node lies on
        # [1/10, 1/10 + 2^-10]
        f = constant_field(GridSpec(1, (8, 605), (1.0, 1.0)), 1.0)
        with pytest.raises(ResolutionError, match="i=10 holds no grid node"):
            counterexample_blowup(f, 2.0, [4, 6, 10])

    def test_blowup_validation(self):
        f = counterexample_field(8, 4096)
        with pytest.raises(ValueError):
            counterexample_blowup(f, 1.0, [4, 6, 8])
        with pytest.raises(ValueError):
            counterexample_blowup(f, 2.0, [4, 6])
        with pytest.raises(ValueError, match="f must be non-negative"):
            counterexample_blowup(Field(f.grid, f.values - 0.5), 2.0,
                                  [4, 6, 8])
