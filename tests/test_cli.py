import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbounds import cli, models
from qbounds.cli import (
    _check_row,
    build_config,
    main,
    make_parser,
    render_csv,
)
from qbounds.core import GridFunction
from qbounds.errors import ConfigError, InvariantViolation

# small grid keeps the CLI suite fast; still odd and Simpson-compatible
GRID = ["--grid", "1001"]


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    report = tmp_path / "report.json"
    code = main([*argv, "--out", str(out), "--report", str(report)])
    csv_text = out.read_text() if out.exists() else None
    doc = json.loads(report.read_text()) if report.exists() else None
    return code, csv_text, doc


def rows_of(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestBoundsSweep:
    def test_noon_sweep(self, tmp_path):
        code, csv_text, doc = run(
            tmp_path, "bounds", "--example", "noon", "--n-range", "1:30", *GRID
        )
        assert code == 0
        header, rows = rows_of(csv_text)
        assert header == ["axis", "qcrb", "obb", "mmse", "obb_residual"]
        assert len(rows) == 30
        assert float(rows[0][1]) == pytest.approx(0.01, rel=1e-10)
        for r in rows:
            axis, qcrb, obb, mmse = (float(v) for v in r[:4])
            assert obb <= qcrb + 1e-12
            assert obb <= mmse + 1e-10
        assert doc["diagnostics"]["grid_m"] == 1001
        assert doc["diagnostics"]["max_ode_residual"] <= 1e-4
        assert doc["version"]

    def test_dephasing_eta_sweep(self, tmp_path):
        values = ",".join(f"{v/10:.1f}" for v in range(1, 11))
        code, csv_text, _ = run(
            tmp_path,
            "bounds", "--example", "dephasing", "--n", "5",
            "--sweep", f"eta={values}", *GRID,
        )
        assert code == 0
        _, rows = rows_of(csv_text)
        assert len(rows) == 10
        assert [float(r[0]) for r in rows] == pytest.approx(
            [v / 10 for v in range(1, 11)]
        )
        # eta = 1 row matches the scalar closed form at J = n eta^2 = 5
        j, a = 5.0, math.pi
        expected = 1 / j - 2 / (a * j**1.5) * math.tanh(a * math.sqrt(j) / 2)
        assert float(rows[-1][2]) == pytest.approx(expected, rel=1e-5)

    def test_field_single_row(self, tmp_path):
        code, csv_text, _ = run(
            tmp_path, "bounds", "--example", "field", "--n", "1", *GRID
        )
        assert code == 0
        _, rows = rows_of(csv_text)
        assert float(rows[0][1]) == pytest.approx(0.70711, abs=1e-4)

    @pytest.mark.parametrize(
        "field, oracle", [("B=1e-3", 0.2056167329891), ("B=1e-4", 0.2056167581024)]
    )
    def test_field_small_information(self, tmp_path, field, oracle):
        # oracle: solve_bvp (tol 1e-12) + quad, as in test_bounds.TestSmallInformation
        code, csv_text, _ = run(
            tmp_path, "bounds", "--example", "field", "--n", "1", "--param", field
        )
        assert code == 0
        _, rows = rows_of(csv_text)
        assert float(rows[0][2]) == pytest.approx(oracle, rel=0.0, abs=1e-11)

    def test_field_at_vanishing_field(self, tmp_path):
        # J = 4 sin^2(B/2) (sin^2(B/2) + cos^2(B/2) cos^2 x) carries no
        # cancellation, so the OBB reaches the prior variance (pi/2)^2/12
        code, csv_text, _ = run(
            tmp_path, "bounds", "--example", "field", "--n", "1", "--param", "B=1e-8"
        )
        assert code == 0
        _, rows = rows_of(csv_text)
        assert float(rows[0][2]) == pytest.approx(math.pi**2 / 48, rel=0.0, abs=1e-11)

    def test_negative_prior_end(self, tmp_path):
        # "--prior -0.1:0.1" reads as an unknown flag; the = form does not.
        # p1 = sin^2(5x) is even in x, so the MMSE is the prior variance 0.2^2/12
        code, csv_text, _ = run(
            tmp_path, "bounds", "--example", "noon", "--n", "1", "--prior=-0.1:0.1", *GRID
        )
        assert code == 0
        _, rows = rows_of(csv_text)
        obb, mmse = float(rows[0][2]), float(rows[0][3])
        assert obb <= mmse
        assert mmse == pytest.approx(0.04 / 12, rel=1e-9)

    def test_interferometer_mmse_column_empty(self, tmp_path):
        code, csv_text, _ = run(
            tmp_path, "bounds", "--example", "interferometer", "--n", "2", *GRID
        )
        assert code == 0
        _, rows = rows_of(csv_text)
        assert rows[0][3] == ""

    def test_determinism(self, tmp_path):
        args = ("bounds", "--example", "noon", "--n-range", "1:5", *GRID)
        _, first, _ = run(tmp_path, *args)
        _, second, _ = run(tmp_path, *args)
        assert first == second

    def test_report_round_trip(self, tmp_path):
        code, csv_text, doc = run(
            tmp_path, "bounds", "--example", "noon", "--n-range", "1:3", *GRID
        )
        assert code == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code2, csv2, _ = run(tmp_path, "bounds", "--config", str(cfg))
        assert code2 == 0
        assert csv2 == csv_text

    def test_config_echo_is_lossless(self, tmp_path):
        _, _, doc = run(tmp_path, "bounds", "--example", "noon", "--n", "2", *GRID)
        cfg = doc["config"]
        assert cfg["example"] == "noon"
        assert cfg["params"] == {"N": 10}
        assert isinstance(cfg["params"]["N"], int)
        assert cfg["prior"] == pytest.approx([0.0, math.pi / 10.0])
        assert cfg["grid_points"] == 1001
        assert cfg["n_list"] == [2]


class TestBiasDump:
    def test_stride_row_count(self, tmp_path):
        code, csv_text, _ = run(
            tmp_path,
            "bias", "--example", "noon", "--n", "1",
            "--grid", "4001", "--stride", "100",
        )
        assert code == 0
        header, rows = rows_of(csv_text)
        assert header == ["x", "bias_opt", "bias_mmse"]
        assert len(rows) == 41

    def test_midpoint_bias_zero(self, tmp_path):
        code, csv_text, _ = run(
            tmp_path, "bias", "--example", "noon", "--n", "1", *GRID
        )
        assert code == 0
        _, rows = rows_of(csv_text)
        mid = rows[len(rows) // 2]
        assert float(mid[1]) == pytest.approx(0.0, abs=1e-8)

    def test_mmse_bias_decays(self, tmp_path):
        def max_bias(n):
            _, csv_text, _ = run(
                tmp_path, "bias", "--example", "noon", "--n", str(n), *GRID
            )
            _, rows = rows_of(csv_text)
            return max(abs(float(r[2])) for r in rows)

        assert max_bias(20) < max_bias(1)

    def test_interferometer_unsupported(self, tmp_path):
        code, _, _ = run(tmp_path, "bias", "--example", "interferometer", "--n", "1")
        assert code == 2


class TestMmseCommand:
    def test_prior_baseline_n0(self, tmp_path):
        code, csv_text, doc = run(
            tmp_path, "mmse", "--example", "noon", "--n", "0", *GRID
        )
        assert code == 0
        header, rows = rows_of(csv_text)
        assert header == ["k", "estimate", "zero_evidence"]
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(math.pi / 20.0, rel=1e-10)
        assert doc["diagnostics"]["mse"] == pytest.approx((math.pi / 10) ** 2 / 12, rel=1e-9)

    def test_estimates_per_outcome(self, tmp_path):
        code, csv_text, _ = run(
            tmp_path, "mmse", "--example", "noon", "--n", "4", *GRID
        )
        assert code == 0
        _, rows = rows_of(csv_text)
        assert len(rows) == 5
        estimates = [float(r[1]) for r in rows]
        assert estimates == sorted(estimates)

    def test_report_round_trip(self, tmp_path):
        # the echo holds "stride": 1, the one stride mmse accepts
        code, csv_text, doc = run(
            tmp_path, "mmse", "--example", "dephasing", "--n", "3", *GRID
        )
        assert code == 0
        assert doc["config"]["stride"] == 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code2, csv2, _ = run(tmp_path, "mmse", "--config", str(cfg))
        assert code2 == 0
        assert csv2 == csv_text


class TestConfigErrors:
    def test_empty_n_range(self, tmp_path):
        code, _, _ = run(tmp_path, "bounds", "--example", "noon", "--n-range", "5:1")
        assert code == 2

    def test_missing_example(self, tmp_path):
        code, _, _ = run(tmp_path, "bounds", "--n", "1")
        assert code == 2

    def test_even_grid(self, tmp_path):
        code, _, _ = run(
            tmp_path, "bounds", "--example", "noon", "--n", "1", "--grid", "1000"
        )
        assert code == 2

    def test_n_zero_rejected_for_bounds(self, tmp_path):
        code, _, _ = run(tmp_path, "bounds", "--example", "noon", "--n", "0")
        assert code == 2

    def test_bad_param_syntax(self, tmp_path):
        code, _, _ = run(
            tmp_path, "bounds", "--example", "noon", "--n", "1", "--param", "N:10"
        )
        assert code == 2

    def test_bad_model_parameter(self, tmp_path):
        code, _, _ = run(
            tmp_path,
            "bounds", "--example", "dephasing", "--n", "1",
            "--param", "eta=-0.5", *GRID,
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_unwritable_output(self, tmp_path, capsys, flag):
        path = str(tmp_path / "missing" / "x")
        argv = ["bounds", "--example", "noon", "--n", "1", *GRID, flag, path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qbounds: cannot write {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


# every key of a config file, as the report of a bias run echoes them
FULL_CONFIG = {"example": "interferometer", "params": {"n_a": 2.0, "n_b": 3.0},
               "prior": [0.0, 0.2], "grid_points": 501, "n_list": [2],
               "sweep": None, "stride": 3}


class TestSettings:
    @pytest.mark.parametrize("argv", [
        ("bounds", "--example", "noon", "--n-range", "1:3"),
        ("bounds", "--example", "dephasing", "--n", "5", "--sweep", "eta=0.1,0.9"),
        ("bias", "--example", "noon", "--n", "1", "--stride", "50"),
        ("mmse", "--example", "dephasing", "--n", "0"),
        ("bounds", "--example", "dephasing", "--n", "5", "--param", "gamma=0.2"),
        ("bounds", "--example", "noon", "--n", "1", "--prior=-0.1:0.1"),
    ], ids=["n-range", "sweep", "stride", "mmse-n0", "gamma", "negative-prior"])
    def test_report_replays_to_same_csv(self, tmp_path, argv):
        code, csv_text, _ = run(tmp_path, *argv, *GRID)
        assert code == 0
        replay = tmp_path / "replay.csv"
        assert main([argv[0], "--config", str(tmp_path / "report.json"),
                     "--out", str(replay)]) == 0
        assert replay.read_text() == csv_text

    @staticmethod
    def settings(tmp_path, command, *flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FULL_CONFIG))
        args = make_parser().parse_args([command, "--config", str(path), *flags])
        return build_config(args)

    def test_file_alone(self, tmp_path):
        config = self.settings(tmp_path, "bias")
        assert asdict(config) == {**FULL_CONFIG, "prior": (0.0, 0.2)}

    @pytest.mark.parametrize("argv, key, value", [
        (("bias", "--prior", "0.1:0.3"), "prior", (0.1, 0.3)),
        (("bias", "--grid", "1001"), "grid_points", 1001),
        (("bias", "--n", "7"), "n_list", [7]),
        (("bias", "--stride", "5"), "stride", 5),
        (("bias", "--param", "n_b=4"), "params", {"n_a": 2.0, "n_b": 4.0}),
        # bounds takes several n or a sweep, but no stride
        (("bounds", "--stride", "1", "--n-range", "4:6"), "n_list", [4, 5, 6]),
        (("bounds", "--stride", "1", "--sweep", "n_a=5,6"), "sweep",
         {"param": "n_a", "values": [5.0, 6.0]}),
    ], ids=["prior", "grid", "n", "stride", "param-merges", "n-range", "sweep"])
    def test_flag_overrides_file(self, tmp_path, argv, key, value):
        assert getattr(self.settings(tmp_path, *argv), key) == value

    def test_example_flag_overrides_file(self, tmp_path):
        # the file's parameters belong to its own example, not the flag's
        with pytest.raises(ConfigError, match="the noon example has no parameter 'n_a'"):
            self.settings(tmp_path, "bias", "--example", "noon")


class TestCommandWord:
    def test_flags_may_precede_the_command(self, capsys):
        flags = ["--example", "noon", "--n-range", "1:3"]
        assert main(["bounds", *flags]) == 0
        after = capsys.readouterr().out
        assert main([*flags, "bounds"]) == 0
        assert capsys.readouterr().out == after

    def test_unknown_example_fails_as_from_the_config_file(self, tmp_path, capsys):
        assert main(["bounds", "--example", "foo", "--n", "1"]) == 2
        err = capsys.readouterr().err
        assert err == ("qbounds: --example must be one of noon, dephasing, "
                       "interferometer, field, got 'foo'\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"example": "foo"}))
        assert main(["bounds", "--config", str(cfg), "--n", "1"]) == 2
        assert capsys.readouterr().err == err

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(f"{name}: " in out for name in cli._RUNNERS)


class TestFailureExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            # h^2 underflows to zero on this support, and the bound, about
            # 8e-322, would print as 0
            ("--example", "noon", "--n", "1", "--prior", "0:1e-160"),
            # the same underflow with a non-constant QFI profile
            ("--example", "field", "--n", "1", "--prior", "0:1e-160"),
        ],
    )
    def test_numerical_failure(self, tmp_path, capsys, argv):
        code, csv_text, _ = run(tmp_path, "bounds", *argv)
        assert code == 3
        assert csv_text is None
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_row(self, tmp_path, capsys):
        # the prior density 1e-300 drives the MMSE risk to nan
        code, csv_text, _ = run(
            tmp_path, "bounds", "--example", "noon", "--n", "1", "--prior", "0:1e300"
        )
        assert code == 4
        assert csv_text is None
        assert "axis=1.0: mmse is nan" in capsys.readouterr().err

    def test_wide_prior_bias_curve_warns_nothing(self):
        # the risk overflows at this support (test_non_finite_row and
        # test_non_finite_run_value), but the bias curve takes no spread;
        # the solver's residual warning from bounds.py stays
        proc = self.run_under_limit(["bias", "--example", "noon", "--n", "1",
                                     "--prior", "0:1e300", "--stride", "1000"])
        assert proc.returncode == 0, proc.stderr
        assert "estimation.py" not in proc.stderr
        assert len(rows_of(proc.stdout)[1]) == 5

    @pytest.mark.parametrize("gamma, code", [("350", 3), ("355", 2)])
    def test_tiny_information_fails_in_one_line(self, gamma, code):
        # at gamma = 350 n J = 1e-304 is normal but the bias system on 4001
        # nodes overflows; at gamma = 355 n J is subnormal
        proc = self.run_under_limit(["bounds", "--example", "dephasing", "--n", "1",
                                     "--param", f"gamma={gamma}"])
        assert proc.returncode == code
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    @pytest.mark.parametrize("command", ["bounds", "bias"])
    def test_grid_below_derivative_stencil(self, tmp_path, capsys, command):
        # odd and Simpson-compatible, but the five-point derivative needs 5 nodes
        code, csv_text, _ = run(
            tmp_path, command, "--example", "noon", "--n", "1", "--grid", "3"
        )
        assert code == 2
        assert csv_text is None
        assert "m >= 5" in capsys.readouterr().err

    def test_mmse_takes_no_derivative_at_grid_3(self, tmp_path):
        code, csv_text, _ = run(
            tmp_path, "mmse", "--example", "noon", "--n", "1", "--grid", "3"
        )
        assert code == 0
        assert len(rows_of(csv_text)[1]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_run_value(self, tmp_path, capsys):
        # the Bayes risk overflows to nan; the report must not carry it
        code, csv_text, doc = run(
            tmp_path, "mmse", "--example", "noon", "--n", "1", "--prior", "0:1e300"
        )
        assert code == 4
        assert csv_text is None and doc is None
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("qbounds:") and "mse is nan" in err

    @staticmethod
    def cli_env(threads=1):
        """The environment of a CLI subprocess on ``threads`` BLAS threads."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        return {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    @classmethod
    def run_under_limit(cls, argv, limit=None, threads=1):
        """The CLI in a subprocess on ``threads`` BLAS threads, its address
        space capped at ``limit``."""
        def limit_address_space():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        return subprocess.run(
            [sys.executable, "-m", "qbounds.cli", *argv], env=cls.cli_env(threads),
            preexec_fn=limit_address_space if limit else None,
            capture_output=True, text=True, timeout=120,
        )

    def test_closed_stdout_exits_2_in_one_line(self):
        # 20001 rows, about 450 kB, outgrow the 64 KiB pipe buffer, so the
        # CLI is still writing when the reader closes the pipe (as | head -1
        # does); no traceback, and no "Exception ignored" line at exit
        argv = ["mmse", "--example", "noon", "--n", "20000"]
        with subprocess.Popen([sys.executable, "-m", "qbounds.cli", *argv],
                              env=self.cli_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.readline() == "k,estimate,zero_evidence\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 2
        assert err == "qbounds: cannot write stdout: [Errno 32] Broken pipe\n"

    # 1-D sums over nodes are numpy's pairwise sums and call no BLAS; the
    # matrix products over nodes (the MMSE walk's) do, so the digits of a
    # 40001-node grid and of an MMSE run must not depend on the thread count
    @pytest.mark.parametrize("argv", [
        ("bounds", "--example", "field", "--n-range", "1:4", "--grid", "40001"),
        ("bias", "--example", "noon", "--n", "1", "--grid", "40001", "--stride", "1"),
        ("mmse", "--example", "dephasing", "--n", "3000", "--param", "eta=0.9"),
    ], ids=["bounds", "bias", "mmse"])
    def test_output_does_not_depend_on_blas_threads(self, argv):
        runs = [self.run_under_limit(argv, threads=t) for t in (1, 2, 4)]
        assert all(r.returncode == 0 for r in runs), "".join(r.stderr for r in runs)
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs RLIMIT_AS")
    @pytest.mark.parametrize("argv", [
        ("bounds", "--example", "noon", "--n", "200000"),
        ("mmse", "--example", "dephasing", "--n", "200000"),
    ], ids=["bounds", "mmse"])
    def test_large_n_fits_in_memory(self, argv):
        # one banded block at a time: O(n) outcome arrays plus one block,
        # where the dense table would be 6.4 GB
        proc = self.run_under_limit(argv, 400_000_000)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        header, rows = rows_of(proc.stdout)
        assert len(rows) == (1 if argv[0] == "bounds" else 200001)
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs RLIMIT_AS")
    @pytest.mark.parametrize("argv", [
        ("bounds", "--example", "noon", "--n", "1000000000"),
        ("mmse", "--example", "dephasing", "--n", "1000000000"),
    ], ids=["bounds", "mmse"])
    def test_out_of_memory(self, argv):
        # the O(n) outcome arrays alone need 16 GB; the limit stops them at 3 GB
        proc = self.run_under_limit(argv, 3_000_000_000)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


class TestParameterChecks:
    @pytest.mark.parametrize(
        "argv, cfg",
        [
            pytest.param(("bounds", "--example", "dephasing", "--n", "5",
                          "--param", "gamma=0.2", "--sweep", "eta=0.1,0.9"), None,
                         id="gamma-with-eta-sweep"),
            pytest.param(("bounds", "--example", "noon", "--n", "1",
                          "--sweep", "foo=1,2"), None, id="unknown-sweep"),
            pytest.param(("bounds", "--example", "noon", "--n", "1",
                          "--param", "N=10.9"), None, id="fractional-N"),
            pytest.param(("bounds", "--example", "noon", "--n", "1",
                          "--param", "N=nan"), None, id="nan-N"),
            pytest.param(("bounds", "--example", "noon", "--n", "1",
                          "--sweep", "N=9.5,10"), None, id="fractional-N-sweep"),
            pytest.param(("bounds", "--example", "noon", "--n", "1",
                          "--param", "M=3"), None, id="unknown-param"),
            pytest.param(("bounds", "--example", "interferometer", "--n", "1",
                          "--param", "N=3"), None, id="param-of-other-example"),
            pytest.param(("bounds", "--example", "field", "--n", "1",
                          "--param", "B=inf"), None, id="infinite-B"),
            pytest.param(("bounds", "--example", "noon", "--n-range", "1.9:3.9"),
                         None, id="fractional-n-range"),
            pytest.param(("bounds", "--example", "noon", "--n-range", "1:1e300"),
                         None, id="huge-n-range"),
            pytest.param(("bounds", "--example", "noon", "--n-range", "5:10005"),
                         None, id="n-range-past-limit"),
            pytest.param(("bias", "--example", "dephasing", "--n", "1",
                          "--sweep", "eta=0.1,0.5"), None, id="bias-sweep"),
            pytest.param(("bias", "--example", "noon", "--n-range", "1:5"), None,
                         id="bias-n-range"),
            pytest.param(("mmse", "--example", "noon", "--n-range", "1:3"), None,
                         id="mmse-n-range"),
            pytest.param(("bounds", "--example", "noon", "--n", "1.5"), None,
                         id="fractional-n"),
            pytest.param(("bias", "--example", "noon", "--n", "1", "--stride", "2.5"),
                         None, id="fractional-stride"),
            # only bias thins its rows; bounds and mmse printed every row
            pytest.param(("mmse", "--example", "dephasing", "--n", "3", "--stride", "2"),
                         None, id="mmse-stride"),
            pytest.param(("bounds", "--example", "noon", "--n-range", "1:3", "--stride", "2"),
                         None, id="bounds-stride"),
            pytest.param(("bounds",), {"example": "noon", "n_list": [1.5, 2.7]},
                         id="config-fractional-n_list"),
            pytest.param(("bounds", "--n", "1"),
                         {"example": "noon", "params": {"N": "ten"}},
                         id="config-text-param"),
            pytest.param(("bounds", "--n", "1"), {"example": "noon", "prior": 5},
                         id="config-scalar-prior"),
            # float(N) ** 2 raised OverflowError
            pytest.param(("bounds", "--example", "noon", "--n", "1",
                          "--param", "N=1e170"), None, id="N-squared-overflows"),
            # J = inf made the obb nan
            pytest.param(("bounds", "--example", "interferometer", "--n", "1",
                          "--param", "n_a=1e200", "--param", "n_b=1e200"), None,
                         id="infinite-interferometer-qfi"),
            # .12g prints both n as 1.23456789012e+12
            pytest.param(("bounds", "--example", "interferometer",
                          "--n-range", "1234567890123:1234567890124"), None,
                         id="n-past-print-limit"),
            pytest.param(("bounds", "--example", "noon", "--n", "1e21"), None,
                         id="huge-n"),
            # a misspelt key was ignored: this ran on the default 4001 nodes
            pytest.param(("bounds",), {"example": "noon", "grid": 501},
                         id="config-unknown-key"),
            pytest.param(("bounds",), {"example": "noon", "n_list": [1] * 10001},
                         id="config-n_list-past-limit"),
            pytest.param(("bounds", "--example", "dephasing", "--n", "1",
                          "--sweep", "eta=" + ",".join(["0.5"] * 10001)), None,
                         id="sweep-past-limit"),
            pytest.param(("bounds",), {"example": "dephasing",
                                       "sweep": {"param": "eta", "values": [0.5] * 10001}},
                         id="config-sweep-past-limit"),
            # an empty flag was taken for an absent one
            pytest.param(("bounds", "--example", "noon", "--n", "1", "--prior", ""),
                         None, id="empty-prior"),
            pytest.param(("bounds", "--example", "noon", "--n-range", ""),
                         None, id="empty-n-range"),
            pytest.param(("bounds", "--example", "noon", "--n", "1", "--sweep", ""),
                         None, id="empty-sweep"),
            pytest.param(("bounds", "--example", "noon", "--n", "1", "--config", ""),
                         None, id="empty-config"),
            # --n was dropped in favour of --n-range, whatever the flag order
            pytest.param(("bounds", "--example", "noon", "--n", "5", "--n-range", "1:3"),
                         None, id="n-with-n-range"),
            # a falsy sweep was taken for no sweep and ran the n_list
            pytest.param(("bounds",), {"example": "noon", "sweep": 0, "n_list": [1, 2]},
                         id="config-sweep-0"),
            pytest.param(("bounds",), {"example": "noon", "sweep": False, "n_list": [1, 2]},
                         id="config-sweep-false"),
            pytest.param(("bounds",), {"example": "noon", "sweep": [], "n_list": [1, 2]},
                         id="config-sweep-empty-list"),
            pytest.param(("bounds",), {"example": "noon", "sweep": {}, "n_list": [1, 2]},
                         id="config-sweep-empty-object"),
            # n * J overflowed past the checks and made the obb nan
            pytest.param(("bounds", "--example", "interferometer", "--n", "999999999999",
                          "--param", "n_a=1e297"), None, id="nJ-overflows"),
            # the last of a repeated key ran without a word
            pytest.param(("bounds", "--example", "noon", "--n", "1",
                          "--param", "N=10", "--param", "N=9"), None, id="repeated-param"),
            pytest.param(("bounds", "--n", "1"), {"example": "noon", "params": [1]},
                         id="config-params-list"),
            pytest.param(("bounds",), [1], id="config-not-object"),
            pytest.param(("bounds", "--example", "dephasing", "--n-range", "1:3",
                          "--sweep", "eta=0.1,0.2"), None, id="sweep-with-n-range"),
            pytest.param(("bias", "--example", "noon", "--n", "1", "--stride", "0"),
                         None, id="zero-stride"),
        ],
    )
    def test_rejected_with_exit_2(self, tmp_path, capsys, argv, cfg):
        if cfg is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            argv = (*argv, "--config", str(path))
        code, csv_text, _ = run(tmp_path, *argv, *GRID)
        assert code == 2
        assert csv_text is None
        err = capsys.readouterr().err
        assert err.startswith("qbounds: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    # json keeps the last of a repeated key, so these ran N = 9 and exited 0
    @pytest.mark.parametrize("text, key", [
        ('{"example": "noon", "params": {"N": 10, "N": 9}, "n_list": [1]}', "N"),
        ('{"example": "noon", "n_list": [1], "n_list": [2]}', "n_list"),
    ], ids=["nested", "top-level"])
    def test_repeated_config_key_rejected_with_exit_2(self, tmp_path, capsys, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, csv_text, _ = run(tmp_path, "bounds", "--config", str(path), *GRID)
        assert (code, csv_text) == (2, None)
        assert capsys.readouterr().err == f"qbounds: config key {key} is given twice\n"

    def test_fractional_grid_rejected_with_exit_2(self, tmp_path, capsys):
        # not a case of the table above: it appends its own --grid
        code, csv_text, _ = run(tmp_path, "bounds", "--example", "noon", "--n", "1",
                                "--grid", "1001.5")
        assert (code, csv_text) == (2, None)
        err = capsys.readouterr().err
        assert err.startswith("qbounds: grid size") and err.count("\n") == 1

    def test_nan_prior_rejected_with_exit_2(self, tmp_path, capsys):
        # on the default 4001 nodes the density is inf and the Simpson total
        # nan; at --grid 1001 the total is inf, which was always rejected
        code, csv_text, _ = run(tmp_path, "mmse", "--example", "noon", "--n", "1",
                                "--prior", "0:1e-320")
        assert (code, csv_text) == (2, None)
        err = capsys.readouterr().err
        assert err.startswith("qbounds: prior") and err.count("\n") == 1

    def test_n_at_print_limit_accepted(self):
        args = make_parser().parse_args(
            ["bounds", "--example", "noon", "--n", "999999999999"])
        assert build_config(args).n_list == [999999999999]

    def test_n_range_at_limit_accepted(self):
        # parsed only: 10000 rows at n up to 10004 would take far too long
        args = make_parser().parse_args(
            ["bounds", "--example", "noon", "--n-range", "5:10004"])
        assert build_config(args).n_list == list(range(5, 10005))

    def test_integral_float_accepted(self, tmp_path):
        args = ("bounds", "--example", "noon", "--n-range", "1:3", *GRID)
        code, csv_text, doc = run(tmp_path, *args, "--param", "N=10.0")
        assert code == 0
        assert doc["config"]["params"] == {"N": 10}
        assert csv_text == run(tmp_path, *args)[1]

    def test_integral_float_n_accepted(self, tmp_path):
        args = ("bounds", "--example", "noon", *GRID)
        code, csv_text, doc = run(tmp_path, *args, "--n", "2.0")
        assert code == 0
        assert doc["config"]["n_list"] == [2]
        assert csv_text == run(tmp_path, *args, "--n", "2")[1]

    def test_gamma_alone_round_trip(self, tmp_path):
        code, csv_text, doc = run(
            tmp_path, "bounds", "--example", "dephasing", "--n", "5",
            "--param", "gamma=0.2", *GRID,
        )
        assert code == 0
        assert doc["config"]["params"] == {"gamma": 0.2}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code2, csv2, _ = run(tmp_path, "bounds", "--config", str(cfg))
        assert code2 == 0
        assert csv2 == csv_text

    def test_replay_of_sweep_echo_with_default_eta(self, tmp_path):
        # earlier releases echoed the default eta next to an eta sweep
        code, csv_text, _ = run(
            tmp_path, "bounds", "--example", "dephasing", "--n", "5",
            "--sweep", "eta=0.1,0.9", *GRID,
        )
        assert code == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config": {
            "example": "dephasing", "params": {"eta": 1.0},
            "prior": [0.0, math.pi], "grid_points": 1001, "n_list": [5],
            "sweep": {"param": "eta", "values": [0.1, 0.9]}, "stride": 1,
            "command": "bounds",
        }}))
        code2, csv2, _ = run(tmp_path, "bounds", "--config", str(cfg))
        assert code2 == 0
        assert csv2 == csv_text


@st.composite
def csv_columns(draw):
    """Three columns of 0-20 rows, each None, finite floats or ints; one present."""
    rows = draw(st.integers(0, 20))
    kinds = [st.none(),
             st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=rows, max_size=rows).map(np.array),
             st.lists(st.integers(0, 999_999_999_999),
                      min_size=rows, max_size=rows).map(lambda v: np.array(v, dtype=int))]
    columns = draw(st.lists(st.one_of(kinds), min_size=3, max_size=3))
    assume(any(c is not None for c in columns))
    return rows, columns


def format_reference(columns, rows):
    """The data lines by the reference formatter the CSV has always been
    defined by: each cell through format(..., ".12g"), a None column empty."""
    return "".join(
        ",".join("" if c is None else format(float(c[i]), ".12g") for c in columns)
        + "\n" for i in range(rows))


# chunk-edge runs of a given row count: int k and zero_evidence columns
# (mmse), an empty mmse column (interferometer bounds), and bias
CHUNKED_RUNS = {
    "mmse": lambda rows: ("mmse", "--example", "field", "--n", str(rows - 1), *GRID),
    "bounds": lambda rows: ("bounds", "--example", "interferometer",
                            "--n-range", f"1:{rows}", *GRID),
    "bias": lambda rows: ("bias", "--example", "noon", "--n", "1", *GRID,
                          "--stride", str(-(-1001 // rows))),
}


class TestOutputContract:
    @given(csv_columns())
    @settings(max_examples=200, deadline=None)
    def test_render_csv_matches_format_reference(self, drawn):
        rows, columns = drawn
        # render_csv returns the data lines; main writes the header
        assert render_csv("bias", columns) == format_reference(columns, rows)

    @pytest.mark.parametrize("command", CHUNKED_RUNS)
    @pytest.mark.parametrize("chunk, rows", [
        (chunk, chunk + d) for chunk in (1, 2, 7) for d in (-1, 0, 1) if chunk + d
    ])
    def test_chunked_output_matches_format_reference(
            self, tmp_path, capsys, monkeypatch, command, chunk, rows):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        real, runs = cli._RUNNERS[command], []

        def recorded(config):
            runs.append(real(config))
            return runs[-1]

        monkeypatch.setitem(cli._RUNNERS, command, recorded)
        argv = CHUNKED_RUNS[command](rows)
        assert main(list(argv)) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        columns = runs[0][0]
        assert len(columns[0]) == rows
        expected = (",".join(cli._CSV_COLUMNS[command]) + "\n"
                    + format_reference(columns, rows))
        assert stdout == expected
        assert out.read_text() == expected

    @pytest.mark.parametrize("command, target", [
        ("bias", "estimator_bias"), ("mmse", "mmse_mse"),
    ])
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_bad_last_row_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                         command, target, to_file):
        # the last of several chunks holds the one nan cell
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
        real = getattr(cli, target)

        def nan_at_last_row(*args):
            result = real(*args)
            if target == "estimator_bias":
                values = result.values.copy()
                values[-1] = math.nan
                return GridFunction(result.grid, values)
            estimates = result.estimates.copy()
            estimates[-1] = math.nan
            return replace(result, estimates=estimates)

        monkeypatch.setattr(cli, target, nan_at_last_row)
        argv = [command, "--example", "noon", "--n", "6", "--grid", "11"]
        out = tmp_path / "out.csv"
        assert main(argv + (["--out", str(out)] if to_file else [])) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        message = {"bias": f"x={math.pi / 10}: bias_mmse is nan",  # the prior's end
                   "mmse": "k=6: estimate is nan"}[command]
        assert captured.err == f"qbounds: output invariant violated: {message}\n"

    def test_mmse_output_memory_does_not_grow_with_the_csv(self):
        # the whole CSV rendered at once (3 columns of 200001 rows) peaks
        # at 35 MB traced; rendered 4096 rows at a time, at 14 MB
        tracemalloc.start()
        try:
            code = main(["mmse", "--example", "noon", "--n", "200000",
                         "--out", os.devnull])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 20e6

    @pytest.mark.parametrize("command, row, message", [
        ("bounds", (1.0, 0.01, 0.005, math.nan, 1e-12), "axis=1.0: mmse is nan"),
        ("bounds", (2.0, math.nan, 0.005, None, 1e-12), "axis=2.0: qcrb is nan"),
        ("bias", (0.25, 0.1, math.nan), "x=0.25: bias_mmse is nan"),
        ("mmse", (3, math.nan, 0), "k=3: estimate is nan"),
    ])
    def test_check_row_rejects_nan_cell(self, command, row, message):
        with pytest.raises(InvariantViolation, match=message):
            _check_row(command, row)

    @pytest.mark.parametrize("command, row", [
        ("bounds", (1.0, 0.01, 0.005, 0.008, 1e-12)),
        ("bounds", (1.0, 0.01, 0.005, None, 1e-12)),
        ("bias", (0.25, 0.1, -0.1)),
        ("mmse", (3, 0.2, 1)),
        # obb above mmse by a rounding-level 1e-15 relative
        ("bounds", (5.0, 0.2, 0.2 * (1.0 + 1e-15), 0.2, 1e-12)),
    ])
    def test_check_row_passes_finite_row(self, command, row):
        assert _check_row(command, row) is row

    @pytest.mark.parametrize("row, message", [
        ((1.0, 0.01, 0.01 + 1e-11, None, 0.0), "obb .* exceeds qcrb"),
        ((1.0, 0.01, 0.005, 0.005 - 1e-9, 0.0), "obb .* exceeds mmse"),
        # bounds --example noon --n 5000000: the posterior is narrower than the
        # grid spacing, and mmse is at least 3% low, by less than the absolute 1e-10
        ((5e6, 2e-9, 1.9995225603146756e-09, 1.9416345168909303e-09, 0.0),
         "obb .* exceeds mmse"),
    ])
    def test_check_row_orders_bounds(self, row, message):
        with pytest.raises(InvariantViolation, match=message):
            _check_row("bounds", row)

    def test_column_screen_reports_first_bad_row(self):
        x, opt, mmse = np.arange(10) * 0.25, np.zeros(10), np.zeros(10)
        # row 3 holds two bad cells and row 7 one; the first of row 3 is named
        opt[3], mmse[3], opt[7] = math.nan, math.inf, math.inf
        with pytest.raises(InvariantViolation, match=r"^x=0\.75: bias_opt is nan$"):
            _check_row("bias", [x, opt, mmse])
        estimates = np.array([0.5, 0.25, math.nan, math.nan])
        with pytest.raises(InvariantViolation, match=r"^k=2: estimate is nan$"):
            _check_row("mmse", [np.arange(4), estimates, np.zeros(4, dtype=int)])
        # bounds: obb above qcrb at row 1 comes before the nan qcrb at row 2
        axis, qcrb = np.array([1.0, 2.0, 3.0]), np.array([0.01, 0.01, math.nan])
        obb, residual = np.array([0.005, 0.02, 0.005]), np.zeros(3)
        with pytest.raises(InvariantViolation,
                           match=r"^axis=2\.0: obb 0\.02 exceeds qcrb 0\.01$"):
            _check_row("bounds", [axis, qcrb, obb, None, residual])
        # a None mmse column is skipped, and a finite one is ordered
        columns = [axis[:1], qcrb[:1], obb[:1], None, residual[:1]]
        assert _check_row("bounds", columns) is columns
        with pytest.raises(InvariantViolation, match=r"^axis=1\.0: obb .* exceeds mmse"):
            _check_row("bounds", [axis[:1], qcrb[:1], obb[:1], np.array([0.001]),
                                  residual[:1]])

    @pytest.mark.parametrize("command, target, message", [
        ("bias", "estimator_bias", "bias_mmse is nan"),
        ("mmse", "mmse_mse", "k=2: estimate is nan"),
    ])
    def test_non_finite_column_exits_4(self, tmp_path, capsys, monkeypatch,
                                       command, target, message):
        real = getattr(cli, target)

        def inject_nan(*args):
            # the bias curve at node 2, or the estimate of outcome k = 2
            result = real(*args)
            if target == "estimator_bias":
                values = result.values.copy()
                values[2] = math.nan
                return GridFunction(result.grid, values)
            estimates = result.estimates.copy()
            estimates[2] = math.nan
            return replace(result, estimates=estimates)

        monkeypatch.setattr(cli, target, inject_nan)
        code, csv_text, doc = run(
            tmp_path, command, "--example", "noon", "--n", "4", *GRID)
        assert code == 4
        assert csv_text is None and doc is None
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("qbounds: output invariant violated: ") and message in err

    @pytest.mark.parametrize("argv, run_value", [
        (("mmse", "--example", "dephasing", "--n", "3", *GRID), "mse"),
        (("bias", "--example", "noon", "--n", "1", "--grid", "4001", "--stride", "1"),
         "max_ode_residual"),
        (("mmse", "--example", "dephasing", "--n", "3000"), "mse"),
        (("bounds", "--example", "interferometer", "--n-range", "1:3", *GRID),
         "max_ode_residual"),
    ])
    def test_report_counts_csv_rows(self, tmp_path, argv, run_value):
        code, csv_text, doc = run(tmp_path, *argv)
        assert code == 0
        # the CSV is the one copy of the rows; the report counts them
        assert set(doc) == {"config", "diagnostics", "version"}
        assert set(doc["diagnostics"]) == {run_value, "grid_m", "wall_time_ms",
                                           "row_count"}
        assert doc["diagnostics"]["row_count"] + 1 == len(csv_text.splitlines())

    def test_bounds_sweep_stops_at_first_bad_row(self, tmp_path, capsys, monkeypatch):
        real, solved = cli.obb_variational, []

        def above_qcrb_at_n2(problem):
            # the 2nd of 3 points reports an obb above its qcrb
            report = real(problem)
            solved.append(report)
            if len(solved) == 2:
                return replace(report, value=2.0 * cli.bayesian_qcrb(problem).value)
            return report

        monkeypatch.setattr(cli, "obb_variational", above_qcrb_at_n2)
        code, csv_text, doc = run(
            tmp_path, "bounds", "--example", "noon", "--n-range", "1:3", *GRID)
        assert code == 4
        assert csv_text is None and doc is None
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "axis=2.0: obb" in err and "exceeds qcrb" in err
        assert len(solved) == 2


class TestExampleTable:
    BUILDERS = ("noon_model", "dephasing_model", "interferometer_problem", "field_model")

    @pytest.mark.parametrize("example", models.EXAMPLES)
    def test_builds_go_through_the_models_names(self, tmp_path, monkeypatch, example):
        # a wrapper installed on the models module's names, as the
        # benchmark's tracer installs one, sees every build of the CLI
        calls = []

        def wrapped(name, real):
            return lambda *args: calls.append(name) or real(*args)

        for name in self.BUILDERS:
            monkeypatch.setattr(models, name, wrapped(name, getattr(models, name)))
        code, csv_text, _ = run(
            tmp_path, "bounds", "--example", example, "--n-range", "1:3", *GRID)
        assert code == 0
        assert len(rows_of(csv_text)[1]) == 3
        assert len(calls) == 3 and len(set(calls)) == 1
