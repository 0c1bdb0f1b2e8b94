import json

import numpy as np
import pytest

from vacuumlab import cli
from vacuumlab.cli import load_config, main
from vacuumlab.errors import ConfigError
from vacuumlab.grids import load_field


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
        path = write_config(tmp_path, "[study]\nkind = sorcery\noutput = o\n")
        with pytest.raises(ConfigError, match="study kind"):
            load_config(path)

    def test_nyquist_generator_rejected_with_shipped_rates_defaults(
            self, tmp_path, capsys):
        # default levels = 9 puts frequency 256 at the Nyquist limit of 512^2
        out = tmp_path / "out"
        path = write_config(tmp_path, f"[study]\nkind = rates\noutput = {out}\n")
        with pytest.raises(ConfigError, match=r"levels = 9 \(the default\).*"
                                              r"Nyquist limit 256"):
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
        path = write_config(tmp_path, f"[study]\nkind = {kind}\noutput = o\n"
                            f"[generator]\nkind = {generator}\n")
        if ok:
            load_config(path)
        else:
            with pytest.raises(ConfigError, match="Nyquist"):
                load_config(path)

    def test_nyquist_limit_is_strict(self, tmp_path):
        body = "[study]\nkind = rates\noutput = o\n[grid]\nnt = 514\nnx = 1024\n"
        load_config(write_config(tmp_path, body))  # 256 < 514 // 2
        with pytest.raises(ConfigError, match="Nyquist"):
            load_config(write_config(tmp_path, body.replace("514", "513")))

    def test_ladder_parsing(self, tmp_path):
        path = write_config(tmp_path, "[study]\nkind = ns\noutput = o\n"
                            "[ladders]\neps = 0.1, 0.05, 0.025\n")
        cfg = load_config(path)
        assert cfg["ladders"]["eps"] == [0.1, 0.05, 0.025]


class TestRun:
    def test_ns_study_passes_and_writes_report(self, tmp_path, capsys):
        rc = main(["run", str(ns_config(tmp_path))])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema"] == "vacuumlab-report-1"
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
        # levels = 8 clears Nyquist at nx = 512, but the default eps ladder
        # reaches 2^-8 < 3h, which the study itself rejects
        path = write_config(tmp_path, f"[study]\nkind = rates\n"
                                      f"output = {tmp_path / 'out'}\n"
                                      f"[generator]\nlevels = 8\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rates study failed: ResolutionError: ")
        assert "under-resolves" in err
        assert "config error" not in err

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

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nowhere")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        assert main(["report"]) == 1
        assert "at least one" in capsys.readouterr().err


class TestExportField:
    def test_sine_power_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "field.csv"
        assert main(["export-field", "sine-power", str(target)]) == 0
        f = load_field(tmp_path / "field")
        assert float(f.values.min()) >= 0.0
        header = json.loads((tmp_path / "field.json").read_text())
        assert header["dtype"] == "<f8"

    def test_unknown_field(self, tmp_path, capsys):
        assert main(["export-field", "dragon", str(tmp_path / "f")]) == 1
        assert "unknown field" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["dance"]) == 1
