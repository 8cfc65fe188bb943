import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbounds.cli import _check_row, build_config, main, make_parser, render_csv
from qbounds.errors import InvariantViolation

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

    def test_env_grid_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QBOUNDS_GRID", "501")
        _, _, doc = run(tmp_path, "bounds", "--example", "noon", "--n", "1")
        assert doc["config"]["grid_points"] == 501

    def test_env_grid_must_be_odd(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QBOUNDS_GRID", "500")
        code, _, _ = run(tmp_path, "bounds", "--example", "noon", "--n", "1")
        assert code == 2


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
        assert "mmse is nan" in capsys.readouterr().err

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
    def run_under_limit(argv, limit):
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run(
            [sys.executable, "-m", "qbounds.cli", *argv], env=env,
            preexec_fn=limit_address_space, capture_output=True, text=True,
            timeout=120,
        )

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


class TestOutputContract:
    @given(st.lists(st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.integers(0, 999_999_999_999), st.none()),
        min_size=3, max_size=3), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_render_csv_matches_format_reference(self, rows):
        # the reference formatter the CSV has always been defined by
        expected = ["x,bias_opt,bias_mmse"] + [
            ",".join("" if v is None else format(float(v), ".12g") for v in row)
            for row in rows
        ]
        assert render_csv("bias", rows) == "\n".join(expected) + "\n"

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

    def test_report_rows_are_csv_rows(self, tmp_path):
        code, csv_text, doc = run(
            tmp_path, "mmse", "--example", "dephasing", "--n", "3", *GRID)
        assert code == 0
        assert render_csv("mmse", doc["rows"]) == csv_text
        assert set(doc["diagnostics"]) == {"mse", "grid_m", "wall_time_ms"}
