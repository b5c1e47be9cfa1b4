import json

import numpy as np
import pytest

from shearstab.cli import main, parse_range
from shearstab.errors import ConfigurationError
from shearstab.instability import hopf_series


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRange:
    def test_single_value(self):
        assert np.allclose(parse_range("2.5"), [2.5])

    def test_window(self):
        assert np.allclose(parse_range("0.5:1.5"), [0.5, 1.5])

    def test_linear_inclusive(self):
        got = parse_range("4000:10000:4")
        assert np.allclose(got, [4000, 6000, 8000, 10000])

    def test_log_prefix(self):
        got = parse_range("log:1:100:3")
        assert np.allclose(got, [1, 10, 100])

    def test_malformed(self):
        for bad in ("1:2:3:4", "a:b", "log:1:100", "1:2:0"):
            with pytest.raises(ConfigurationError):
                parse_range(bad)


class TestHeatKernel:
    def test_exact_gaussian_row(self, capsys):
        code, out, _ = run_cli(capsys, ["heat-kernel", "--t", "1", "--nu", "1",
                                        "--dx", "0"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,nu,dx,value"
        assert len(lines) == 2
        value = float(lines[1].split(",")[3])
        assert value == pytest.approx(0.2820948, abs=1e-6)

    def test_sweep_row_count(self, capsys):
        code, out, _ = run_cli(capsys, ["heat-kernel", "--t", "0.5:2:4",
                                        "--dx", "0:1:3"])
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 12


class TestValidation:
    def test_unknown_profile_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["spectrum", "--profile", "nosuch"])
        assert code == 2
        assert "nosuch" in err

    def test_torus_profile_exit_2(self, capsys):
        # the periodic Kolmogorov flow has no collocation grid
        code, _, err = run_cli(capsys, ["spectrum", "--profile", "kolmogorov"])
        assert code == 2
        assert "torus" in err

    def test_unknown_subcommand_exit_2(self, capsys):
        assert main(["nosuch-command"]) == 2

    def test_missing_subcommand_exit_2(self, capsys):
        assert main([]) == 2

    def test_bad_range_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["heat-kernel", "--t", "1:2:3:4"])
        assert code == 2
        assert "range" in err

    def test_numerical_failure_exit_3(self, capsys):
        # window too narrow to bracket the band edges
        code, _, err = run_cli(capsys, [
            "neutral-curve", "--profile", "poiseuille", "--re", "10000",
            "--alpha", "0.9:1.05", "--n", "96",
        ])
        assert code == 3
        assert err.startswith("shearstab:")


class TestNeutralCurveOutput:
    @pytest.mark.parametrize("flags, rows, edges", [
        pytest.param(["--re", "4000:8000:2", "--alpha", "0.6:1.4", "--n", "96"],
                     [("4000", "stable"), ("8000", "unstable")], None, id="N96"),
        # eigenvalue-only scans, tracked pairs and the package's own Brent
        # iteration at N = 64: the Re = 8000 edges within 5e-3 of the dense values
        pytest.param(["--re", "6000:8000:2", "--alpha", "0.8:1.2", "--n", "64", "--tol", "1e-2"],
                     [("6000", "unstable"), ("8000", "unstable")], (0.85583, 1.09632), id="N64"),
    ])
    def test_csv_contract(self, capsys, flags, rows, edges):
        code, out, _ = run_cli(capsys, ["neutral-curve", "--profile", "poiseuille", *flags])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "Re,alpha_low,alpha_up,status"
        table = [line.split(",") for line in lines[1:]]
        assert [(row[0], row[3]) for row in table] == rows
        # every band lies inside the window and holds alpha = 1
        lo, hi = map(float, flags[3].split(":"))
        for row in table:
            if row[3] == "unstable":
                assert lo < float(row[1]) < 1.0 < float(row[2]) < hi
        if edges:
            assert abs(float(table[-1][1]) - edges[0]) <= 5e-3 and abs(float(table[-1][2]) - edges[1]) <= 5e-3


class TestDeterminism:
    def test_semigroup_seeded(self, capsys):
        args = ["semigroup", "--t", "0.5:2:3", "--seed", "5"]
        _, out1, _ = run_cli(capsys, args)
        _, out2, _ = run_cli(capsys, args)
        assert out1 == out2
        assert all(line.split(",")[2] == "true"
                   for line in out1.strip().splitlines()[1:])

    @pytest.mark.parametrize("seed", ["11", "1"])
    def test_genfunc_check_seeded(self, capsys, seed):
        args = ["genfunc-check", "--seed", seed]
        code, out1, _ = run_cli(capsys, args)
        assert code == 0
        _, out2, _ = run_cli(capsys, args)
        assert out1 == out2
        for line in out1.strip().splitlines()[1:]:
            assert line.split(",")[2] == "true"

    def test_different_seed_differs(self, capsys):
        _, out1, _ = run_cli(capsys, ["semigroup", "--seed", "1"])
        _, out2, _ = run_cli(capsys, ["semigroup", "--seed", "2"])
        assert out1 != out2


class TestJsonOutput:
    def test_riccati_document(self, capsys):
        code, out, _ = run_cli(capsys, [
            "instability", "--mode", "riccati", "--epsilon", "0.1",
            "--alpha", "1", "--phi0", "0.01", "--t", "0:30:4",
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["subcommand"] == "instability"
        assert doc["t_star"] == pytest.approx(10.0 * np.log(11.0))
        assert doc["points"][-1]["blown_up"] is True
        assert doc["points"][-1]["value"] is None

    def test_spectrum_document(self, capsys):
        code, out, _ = run_cli(capsys, [
            "spectrum", "--profile", "tanh", "--z0", "1.0", "--alpha", "0.5",
            "--n", "128", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(out)
        eigs = doc["points"][0]["eigenvalues"]
        assert any(im > 1e-6 for _, im in eigs)


class TestFilesAndConfig:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "heat.csv"
        code, out, _ = run_cli(capsys, ["heat-kernel", "--t", "1",
                                        "--out", str(target)])
        assert code == 0
        assert out == ""
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "t,nu,dx,value"

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = 2\nnu = 1\ndx = 0\n")
        _, base, _ = run_cli(capsys, ["heat-kernel", "--config", str(cfg)])
        assert base.strip().splitlines()[1].startswith("2,1,0,")
        # a flag overrides the config value
        _, over, _ = run_cli(capsys, ["heat-kernel", "--config", str(cfg),
                                      "--t", "1"])
        row = over.strip().splitlines()[1]
        assert row.startswith("1,1,0,")
        assert float(row.split(",")[3]) == pytest.approx(0.2820948, abs=1e-6)

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value pair\n")
        code, _, err = run_cli(capsys, ["heat-kernel", "--config", str(cfg)])
        assert code == 2
        assert "key=value" in err


class TestInstabilityModes:
    def test_bootstrap_quantities(self, capsys):
        code, out, _ = run_cli(capsys, ["instability", "--mode", "bootstrap"])
        assert code == 0
        table = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(table["residual_slope"]) == pytest.approx(6.0, rel=0.05)
        assert float(table["sigma0"]) == pytest.approx(
            0.5 * np.exp(-float(table["sigma"]))
        )

    def test_hopf_table(self, capsys):
        code, out, _ = run_cli(capsys, ["instability", "--mode", "hopf",
                                        "--order", "8", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["majorant"]["residual_ok"] is True
        assert doc["majorant"]["K_monotone_ok"] is True
        # the majorant's m = 0 column is each term's own sup norm, bit for bit
        series = hopf_series({1: 0.5, -1: 0.5}, 1.0, 8)
        assert doc["sup_norms"] == [series.sup_norm(n) for n in range(1, 9)]

    def test_euler_summary(self, capsys):
        code, out, _ = run_cli(capsys, ["instability", "--mode", "euler",
                                        "--order", "2"])
        assert code == 0
        table = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(table["alpha_real"]) > 0

    def test_unknown_mode(self, capsys):
        code, _, err = run_cli(capsys, ["instability", "--mode", "nosuch"])
        assert code == 2
        assert "nosuch" in err
