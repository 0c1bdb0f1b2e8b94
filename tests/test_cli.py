import json
import re

import numpy as np
import pytest

from vacuumlab import cli, energy, grids
from vacuumlab.cli import load_config, main
from vacuumlab.errors import ConfigError
from vacuumlab.grids import Field, load_field
from vacuumlab.synth import simple_wave


def write_config(tmp_path, body, name="study.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


def ns_config(tmp_path, outdir="out", extra=""):
    return write_config(tmp_path, f"""\
[study]
kind = ns
output = {tmp_path / outdir}

[grid]
nt = 64
nx = 64
{extra}""")


class TestLoadConfig:
    def test_defaults_echoed(self, tmp_path):
        cfg = load_config(ns_config(tmp_path))
        assert cfg["law"]["gamma"] == pytest.approx(5.0 / 3.0)
        assert cfg["study"]["seed"] == 11
        assert cfg["grid"]["nt"] == 64

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            load_config(tmp_path / "absent.ini")

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_config(tmp_path, "[study]\nkind = ns\noutput = o\nwibble = 3\n")
        with pytest.raises(ConfigError, match=r"study\.ini:4.*wibble"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[study]\nkind = ns\noutput = o\n[junk]\na = 1\n")
        with pytest.raises(ConfigError, match=r"unknown section"):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path, "[study]\nkind = ns\n")
        with pytest.raises(ConfigError, match="missing required"):
            load_config(path)

    def test_bad_value_type(self, tmp_path):
        path = write_config(tmp_path,
                            "[study]\nkind = ns\noutput = o\n"
                            "[grid]\nnt = many\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_unknown_study_kind(self, tmp_path):
        # the message lists the kinds the study table runs, in its order
        assert cli.STUDY_KINDS == tuple(cli._STUDIES)
        path = write_config(tmp_path, "[study]\nkind = sorcery\noutput = o\n")
        with pytest.raises(ConfigError, match="study kind must be one of "
                           "rates, vacuum, counterexample, budget, qns, "
                           "boundary, ns$"):
            load_config(path)

    @pytest.mark.parametrize("kind", ["vacuum", "rates"])
    def test_unknown_generator_kind(self, tmp_path, capsys, kind):
        # rejected before the output directory is made, whether or not the
        # study reads a generator; the line is the [generator] kind's
        assert cli.GENERATOR_KINDS == tuple(cli._GENERATORS)
        out = tmp_path / "out"
        path = write_config(tmp_path, f"[study]\nkind = {kind}\n"
                            f"output = {out}\n[generator]\nkind = cubic\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"config error: {path}:5: generator kind must be one "
                       f"of weierstrass, spikes, power, sine-power, abs\n")
        assert not out.exists()

    def test_error_line_is_in_the_keys_section(self, tmp_path):
        # nu is a key of [law] and of [ladders]
        path = write_config(tmp_path, "[study]\nkind = boundary\noutput = o\n"
                            "[law]\nnu = 0.5\n[ladders]\nnu = fast\n")
        with pytest.raises(ConfigError, match=r"study\.ini:7: bad value for "
                           r"'nu': 'fast'$"):
            load_config(path)

    def test_nyquist_generator_rejected_with_shipped_rates_defaults(
            self, tmp_path, capsys):
        # default levels = 8 puts frequency 128 at the Nyquist limit of 256^2
        out = tmp_path / "out"
        path = write_config(tmp_path, f"[study]\nkind = rates\noutput = {out}\n"
                                      f"[grid]\nnt = 256\nnx = 256\n")
        with pytest.raises(ConfigError, match=r"levels = 8 \(the default\).*"
                                              r"Nyquist limit 128"):
            load_config(path)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_nyquist_check_names_the_levels_line(self, tmp_path):
        path = write_config(tmp_path, "[study]\nkind = qns\noutput = o\n"
                            "[grid]\nnt = 256\nnx = 2048\n"
                            "[generator]\n; levels must stay below Nyquist\n"
                            "levels = 8\n")
        with pytest.raises(ConfigError, match=r"study\.ini:9: levels = 8 "
                                              r".*frequency 128"):
            load_config(path)

    @pytest.mark.parametrize("kind,generator,ok", [
        ("rates", "weierstrass", False),
        ("vacuum", "weierstrass", False),
        ("qns", "weierstrass", False),
        ("vacuum", "spikes", True),
        ("qns", "abs", True),
        ("budget", "weierstrass", True),
    ])
    def test_nyquist_check_applies_to_synthesised_generators(
            self, tmp_path, kind, generator, ok):
        # default levels = 8 reaches Nyquist on 256^2, where the default
        # budget ladder keeps the four feasible rungs a fit needs
        path = write_config(tmp_path, f"[study]\nkind = {kind}\noutput = o\n"
                            f"[grid]\nnt = 256\nnx = 256\n"
                            f"[generator]\nkind = {generator}\n")
        if ok:
            load_config(path)
        else:
            with pytest.raises(ConfigError, match="Nyquist"):
                load_config(path)

    def test_nyquist_limit_is_strict(self, tmp_path):
        body = "[study]\nkind = rates\noutput = o\n[grid]\nnt = 258\nnx = 1024\n"
        load_config(write_config(tmp_path, body))  # 128 < 258 // 2
        with pytest.raises(ConfigError, match="Nyquist"):
            load_config(write_config(tmp_path, body.replace("258", "257")))

    def test_budget_shipped_defaults_rejected(self, tmp_path, capsys):
        # 128^2 admits eps = 0.05, 0.04, 0.03 only; fit_rate needs 4 rungs
        out = tmp_path / "out"
        path = write_config(tmp_path, f"[study]\nkind = budget\noutput = {out}\n"
                                      f"[grid]\nnt = 128\nnx = 128\n")
        with pytest.raises(ConfigError, match=r"eps \(the default\) leaves 3 "
                                              r"feasible rungs.*needs 4"):
            load_config(path)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_budget_check_names_the_eps_line(self, tmp_path):
        path = write_config(tmp_path, "[study]\nkind = budget\noutput = o\n"
                            "[ladders]\n; eps must span 3 spacings\n"
                            "eps = 0.05, 0.04, 0.03, 0.001\n")
        with pytest.raises(ConfigError, match=r"study\.ini:6: eps leaves 3 "
                                              r"feasible rungs"):
            load_config(path)

    def test_error_line_is_the_key_not_a_value_naming_it(self, tmp_path):
        # the output path mentions eps before the eps key is set
        path = write_config(tmp_path, "[study]\nkind = budget\n"
                            "output = out/eps_study\n[ladders]\n"
                            "EPS : 0.05, 0.04, 0.001\n")
        with pytest.raises(ConfigError, match=r"study\.ini:5: eps leaves 2"):
            load_config(path)

    def test_budget_five_rungs_at_256_load(self, tmp_path):
        path = write_config(tmp_path, "[study]\nkind = budget\noutput = o\n"
                            "[grid]\nnt = 256\nnx = 256\n"
                            "[ladders]\neps = 0.05, 0.04, 0.03, 0.025, 0.02\n")
        cfg = load_config(path)
        assert cli._budget_rungs(cfg)[1] == [0.05, 0.04, 0.03, 0.025, 0.02]

    def test_ladder_parsing(self, tmp_path):
        path = write_config(tmp_path, "[study]\nkind = ns\noutput = o\n"
                            "[ladders]\neps = 0.1, 0.05, 0.025\n")
        cfg = load_config(path)
        assert cfg["ladders"]["eps"] == [0.1, 0.05, 0.025]

    @pytest.mark.parametrize("kind,key,generator", [
        ("rates", "eps", "levels = 8"),
        ("vacuum", "eps", "kind = abs"),
        ("counterexample", "i", ""),
        ("budget", "eps", ""),
        ("qns", "radius", "kind = abs"),
        ("boundary", "delta", ""),
        ("boundary", "nu", ""),
    ])
    def test_empty_ladder_is_a_config_error(self, tmp_path, capsys, kind,
                                            key, generator):
        # each generator clears the Nyquist check, so only the empty
        # ladder stands between the config and the study
        out = tmp_path / "out"
        path = write_config(tmp_path, f"[study]\nkind = {kind}\n"
                            f"output = {out}\n[generator]\n{generator}\n"
                            f"[ladders]\n; no rungs\n{key} = ,\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"config error: {path}:8: {key!r} needs at least one "
                       f"value\n")
        assert "Traceback" not in err
        assert not out.exists()


class TestRun:
    def test_ns_study_passes_and_writes_report(self, tmp_path, capsys):
        rc = main(["run", str(ns_config(tmp_path))])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema"] == "vacuumlab-report-2"
        assert report["passed"]
        assert (tmp_path / "out" / "ladder.csv").is_file()
        assert (tmp_path / "out" / "ladder.dat").is_file()
        assert "assertions passed" in capsys.readouterr().out

    def test_reports_are_deterministic(self, tmp_path):
        cfg = ns_config(tmp_path)
        main(["run", str(cfg)])
        first = (tmp_path / "out" / "report.json").read_bytes()
        main(["run", str(cfg)])
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_budget_synthesizes_one_wave_per_grid(self, tmp_path,
                                                  monkeypatch):
        # the coarse pair serves both the gap ladder and the rhs ladder
        cfg = write_config(tmp_path, f"""\
[study]
kind = budget
output = {tmp_path / 'out'}
[grid]
nt = 256
nx = 256
[ladders]
eps = 0.05, 0.04, 0.03, 0.025, 0.02
""")
        calls, waves = [], []

        def counted(*args):
            calls.append(args)
            waves.append(simple_wave(*args))
            return waves[-1]

        monkeypatch.setattr(cli, "simple_wave", counted)
        assert main(["run", str(cfg)]) == 0
        assert [args[2].shape for args in calls] == [(256, 256), (512, 512),
                                                     (1024, 1024)]
        # a second synthesis on the coarse grid gives the same pair, bit for
        # bit, so the report is the one a separate synthesis gave
        again = simple_wave(*calls[0])
        for fresh, reused in zip(again, waves[0]):
            assert fresh.values.tobytes() == reused.values.tobytes()

    @pytest.mark.parametrize("kind,body,touches_vacuum", [
        ("budget", "[grid]\nnt = 256\nnx = 256\n[ladders]\n"
                   "eps = 0.05, 0.04, 0.03, 0.025, 0.02\n", False),
        ("vacuum", "[grid]\nnt = 64\nnx = 2048\n[generator]\n"
                   "kind = spikes\ni_max = 8\n[ladders]\n"
                   "eps = 0.2, 0.1, 0.05, 0.025\n", True),
    ])
    def test_only_vacuum_fields_are_summed_directly(self, tmp_path,
                                                    monkeypatch, kind, body,
                                                    touches_vacuum):
        # budget's simple waves have rho >= 0.95 and take the FFT; the
        # vacuum study's spikes touch vacuum and keep their exact zeros
        cfg = write_config(tmp_path, f"[study]\nkind = {kind}\n"
                                     f"output = {tmp_path / 'out'}\n{body}")
        calls = []
        direct = grids._direct_convolve
        monkeypatch.setattr(grids, "_direct_convolve",
                            lambda *args: calls.append(1) or direct(*args))
        assert main(["run", str(cfg)]) == 0
        assert bool(calls) == touches_vacuum

    def test_no_violation_reports_the_faster_end(self, tmp_path, monkeypatch,
                                                 capsys):
        # flow through the right end only: the row reports the speed its
        # verdict tests, not the left end's
        acoustic, speeds = cli._acoustic_pair, []

        def right_flow(amp, grid, law):
            rho, u = acoustic(amp, grid, law)
            x = grid.axis_coords(1)
            u = Field(grid, u.values + 5e-3 * x[None, :, None] ** 20)
            speeds.append(energy._boundary_speed(u))
            return rho, u

        monkeypatch.setattr(cli, "_acoustic_pair", right_flow)
        cfg = write_config(tmp_path, "[study]\nkind = boundary\n"
                                     f"output = {tmp_path / 'out'}\n")
        main(["run", str(cfg)])  # exit 2: the other rows see the flow
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        row, = (a for a in report["assertions"] if a["name"] == "no_violation")
        (left, right), = speeds
        assert left < 1e-6 < 4e-3 < right < energy.BOUNDARY_TOL
        assert row["value"] == right
        assert row["bound"] == energy.BOUNDARY_TOL
        assert row["passed"]

    def test_boundary_violation_fails_its_row(self, tmp_path, monkeypatch,
                                              capsys):
        # flow through the right end above the tolerance: the study runs
        # to its report and the no_violation row reads failed
        acoustic = cli._acoustic_pair

        def outflow(amp, grid, law):
            rho, u = acoustic(amp, grid, law)
            x = grid.axis_coords(1)
            return rho, Field(grid, u.values + 2e-2 * x[None, :, None] ** 20)

        monkeypatch.setattr(cli, "_acoustic_pair", outflow)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"[study]\nkind = boundary\n"
                                     f"output = {out}\n")
        assert main(["run", str(cfg)]) == 2
        failures = json.loads(capsys.readouterr().out)["failures"]
        row, = (a for a in failures if a["name"] == "no_violation")
        assert row["value"] > energy.BOUNDARY_TOL == row["bound"]
        report = json.loads((out / "report.json").read_text())
        assert not report["passed"]

    @pytest.mark.parametrize("kind", cli.STUDY_KINDS)
    def test_shipped_defaults_run(self, tmp_path, capsys, kind):
        # a config of kind and output alone; the Weierstrass field is not
        # QNS at C = 1, so qns fails its ball-average row and no other
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"[study]\nkind = {kind}\n"
                                     f"output = {out}\n")
        code = main(["run", str(cfg)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if kind == "qns":
            assert code == 2
            failures = json.loads(captured.out)["failures"]
            assert [a["name"] for a in failures] == ["ball_average"]
        else:
            assert code == 0, captured.err
        # every row is a check, and its stored verdict is the check's
        rows = json.loads((out / "report.json").read_text())["assertions"]
        assert rows
        for row in rows:
            assert set(row) == {"name", "value", "relation", "bound",
                                "operation", "passed"}
            check = cli.Check(row["name"], row["value"], row["relation"],
                              row["bound"], row["operation"])
            assert row["passed"] == check.passed
            if row["name"] in ("forward", "backward") and row["passed"]:
                assert row["value"] <= row["bound"]

    def test_failing_assertion_exit_code_and_json(self, tmp_path, capsys):
        path = write_config(tmp_path, f"""\
[study]
kind = vacuum
output = {tmp_path / 'out'}

[grid]
nt = 64
nx = 2048

[generator]
kind = spikes
i_max = 8

[ladders]
eps = 0.2, 0.1, 0.05, 0.025

[tolerances]
factor_max = 0.001
""")
        rc = main(["run", str(path)])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"]
        assert payload["failures"][0]["name"] == "bounded_factor"

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "[study]\nkind = ns\noutput = o\nbad = 1\n")
        assert main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_study_error_names_kind_and_class(self, tmp_path, capsys):
        # the config check passes a rates ladder, but eps = 2^-8 < 3h at
        # nx = 512, which the study itself rejects
        path = write_config(tmp_path, f"[study]\nkind = rates\n"
                                      f"output = {tmp_path / 'out'}\n"
                                      f"[ladders]\neps = 0.0625, 0.03125, "
                                      f"0.015625, 0.0078125, 0.00390625\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rates study failed: ResolutionError: ")
        assert "under-resolves" in err
        assert "config error" not in err

    @pytest.mark.parametrize("eps", [
        "0.125, 0.0625, nan, 0.015625, 0.0078125",
        "inf, 0.125, 0.0625, 0.03125, 0.015625"], ids=["nan", "inf"])
    def test_non_finite_epsilon_is_a_study_error(self, tmp_path, capsys,
                                                 eps):
        # the ladder check lets both through (nan compares false, inf
        # leads); the kernel rejects the radius, with no traceback
        path = write_config(tmp_path, f"[study]\nkind = rates\n"
                                      f"output = {tmp_path / 'out'}\n"
                                      f"[generator]\nlevels = 8\n"
                                      f"[ladders]\neps = {eps}\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == ("rates study failed: ValueError: epsilon must be "
                       "positive and finite\n")

    @pytest.mark.parametrize("key", ["extent_t", "extent_x"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_extent_is_named(self, tmp_path, capsys, key, value):
        path = ns_config(tmp_path, extra=f"{key} = {value}\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ns study failed: ValueError: extents must be "
                              "positive and finite, got (")
        assert value in err

    def test_uncreatable_output_directory(self, tmp_path, monkeypatch,
                                          capsys):
        (tmp_path / "plain").write_text("a regular file\n")
        path = ns_config(tmp_path, outdir="plain/out")

        def study(config):
            raise AssertionError("study ran before the output check")

        monkeypatch.setitem(cli._STUDIES, "ns", study)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output directory")
        assert len(err.strip().splitlines()) == 1


class TestReport:
    def test_consolidated_table(self, tmp_path, capsys):
        main(["run", str(ns_config(tmp_path))])
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ns.dissipation_sign" in out
        assert re.search(r"^ns\.dissipation_sign +measured \S+ +>= 0 +PASS$",
                         out, re.MULTILINE)
        assert out.strip().endswith("overall: PASS")

    def test_report_without_assertions(self, tmp_path, capsys):
        main(["run", str(ns_config(tmp_path))])
        main(["run", str(ns_config(tmp_path, outdir="empty"))])
        capsys.readouterr()
        path = tmp_path / "empty" / "report.json"
        rep = json.loads(path.read_text())
        rep["assertions"] = []
        path.write_text(json.dumps(rep))
        rc = main(["report", str(tmp_path / "empty")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ns: no assertions" in out
        assert out.strip().endswith("overall: PASS")
        rc = main(["report", str(tmp_path / "out"), str(tmp_path / "empty")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ns.dissipation_sign" in out and "no assertions" in out

    def test_report_not_json(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text("{ not json")
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {tmp_path / 'report.json'} "
                              f"is not a vacuumlab report: ")
        assert "Expecting" in err

    def test_report_without_assertions_key(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text(json.dumps({"study": "ns"}))
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"usage error: {tmp_path / 'report.json'} is not a "
                       f"vacuumlab report: missing key 'assertions'\n")

    @pytest.mark.parametrize("report,reason", [
        ({"study": "x", "assertions": [{"name": "a"}]},
         "assertions[0]: missing key 'bound'"),
        ({"study": "x", "assertions": "oops"},
         "'assertions' is a JSON str, not a list"),
        ({"study": "x", "assertions": [3]},
         "assertions[0] is a JSON int, not an object"),
        ({"study": "x", "assertions": [{"name": "a", "bound": "1", "value": 0,
                                        "passed": True}]},
         "assertions[0]['bound'] is a JSON str, not a number"),
        ({"study": "x", "assertions": [{"name": "a", "bound": 1, "value": True,
                                        "passed": True}]},
         "assertions[0]['value'] is a JSON bool, not a number"),
        ({"study": "x", "assertions": [{"name": "a", "bound": 1, "value": 0.5,
                                        "passed": 1}]},
         "assertions[0]['passed'] is a JSON int, not a boolean"),
        ({"study": ["x"], "assertions": []},
         "'study' is a JSON list, not a string"),
    ])
    def test_malformed_assertions(self, tmp_path, capsys, report, reason):
        (tmp_path / "report.json").write_text(json.dumps(report))
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"usage error: {tmp_path / 'report.json'} is not a "
                       f"vacuumlab report: {reason}\n")

    def test_row_without_relation(self, tmp_path, capsys):
        row = {"name": "a", "bound": 1, "value": 0.5, "passed": True}
        (tmp_path / "report.json").write_text(
            json.dumps({"study": "x", "assertions": [row]}))
        assert main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: {tmp_path / 'report.json'} is not a vacuumlab "
            f"report: assertions[0]: missing key 'relation'\n")

    def test_row_with_unknown_relation(self, tmp_path, capsys):
        row = {"name": "a", "bound": 1, "value": 0.5, "passed": True,
               "relation": "=="}
        (tmp_path / "report.json").write_text(
            json.dumps({"study": "x", "assertions": [row]}))
        assert main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: {tmp_path / 'report.json'} is not a vacuumlab "
            f"report: 'a' has relation '==', not one of <, <=, >, >=\n")

    def test_stored_verdict_contradicting_its_check(self, tmp_path, capsys):
        # a study's own report with one row's passed flipped
        main(["run", str(ns_config(tmp_path))])
        capsys.readouterr()
        path = tmp_path / "out" / "report.json"
        rep = json.loads(path.read_text())
        i, row = next((i, a) for i, a in enumerate(rep["assertions"])
                      if a["name"] == "dissipation_sign")
        row["passed"] = False
        path.write_text(json.dumps(rep))
        assert main(["report", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {path} is not a vacuumlab "
                              f"report: assertions[{i}] ('dissipation_sign') "
                              f"stores passed false, but dissipation_sign ")
        assert err.endswith(" >= 0 is true\n")

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nowhere")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        assert main(["report"]) == 1
        assert "at least one" in capsys.readouterr().err


class TestExportField:
    @pytest.mark.parametrize("name", cli.EXPORT_FIELDS)
    def test_every_field_exports_and_loads(self, tmp_path, capsys, name):
        assert main(["export-field", name, str(tmp_path / "f.bin")]) == 0
        assert capsys.readouterr().err == ""
        f = load_field(tmp_path / "f")
        assert f.values.size > 0

    def test_sine_power_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "field.csv"
        assert main(["export-field", "sine-power", str(target)]) == 0
        f = load_field(tmp_path / "field")
        assert float(f.values.min()) >= 0.0
        header = json.loads((tmp_path / "field.json").read_text())
        assert header["dtype"] == "<f8"

    def test_unknown_field(self, tmp_path, capsys):
        assert main(["export-field", "dragon", str(tmp_path / "f")]) == 1
        assert capsys.readouterr().err == (
            "usage error: unknown field 'dragon'; choose from counterexample, "
            "weierstrass, simple-wave, acoustic, sine-power\n")

    def test_acoustic_is_the_boundary_study_wave(self, tmp_path, capsys):
        # the boundary study's pair at amplitude 0.02, on the export grid
        assert main(["export-field", "acoustic", str(tmp_path / "f.bin")]) == 0
        f = load_field(tmp_path / "f")
        c = float(cli._EXPORT_LAW.sound_speed(1.0))
        t = f.grid.axis_coords(0)[:, None]
        x = f.grid.axis_coords(1)[None, :]
        want = (1.0 + 0.02 / c * np.cos(2 * np.pi * x)
                * np.cos(2 * np.pi * c * t))
        assert f.grid.shape == (256, 1024)
        assert f.values[..., 0].tobytes() == want.tobytes()


class TestParser:
    def test_requires_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["dance"]) == 1
