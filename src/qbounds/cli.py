"""Command-line front end.

Subcommands:

* ``bounds`` - sweep the QCRB, the variational OBB, and (when the example has
  a measurement law) the MMSE risk over n or over a secondary parameter axis;
  emits a CSV of rows ``axis,qcrb,obb,mmse,obb_residual``.
* ``bias``   - dump the solved optimal-bias curve next to the MMSE estimator
  bias curve at one n; CSV ``x,bias_opt,bias_mmse``.
* ``mmse``   - posterior-mean estimates per outcome count at one n; CSV
  ``k,estimate,zero_evidence``.

Output is deterministic byte-for-byte: floats are printed with 12 significant
digits, rows are ordered by axis value, and nothing in the pipeline is
random. Every run can also emit a JSON report (``--report``) whose config
echo reproduces the identical CSV when fed back through ``--config``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 invariant violation in the emitted rows.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .bounds import bayesian_qcrb, obb_variational
from .core import DEFAULT_GRID_M
from .errors import (
    ConfigError,
    ConvergenceFailure,
    InvariantViolation,
    QboundsError,
    SingularSystem,
    UnsupportedExample,
)
from .estimation import mmse_mse
from .models import (
    DephasingParams,
    FieldParams,
    InterferometerParams,
    NoonParams,
    dephasing_model,
    field_model,
    interferometer_problem,
    noon_model,
)

EXAMPLES = ("noon", "dephasing", "interferometer", "field")

_DEFAULT_PRIOR = {
    "noon": (0.0, math.pi / 10.0),
    "dephasing": (0.0, math.pi),
    "interferometer": (0.0, math.pi / 5.0),
    "field": (0.0, math.pi / 2.0),
}

_DEFAULT_PARAMS = {
    "noon": {"N": 10.0},
    "dephasing": {"eta": 1.0},
    "interferometer": {"n_a": 1.0, "n_b": 1.0},
    "field": {"B": math.pi / 2.0},
}

# Ordering tolerances enforced on every emitted row.
_OBB_VS_QCRB_TOL = 1e-12
_OBB_VS_MMSE_TOL = 1e-10


@dataclass
class RunConfig:
    example: str
    params: dict = field(default_factory=dict)
    prior: tuple[float, float] = (0.0, 1.0)
    grid_points: int = DEFAULT_GRID_M
    n_list: list[int] = field(default_factory=lambda: [1])
    sweep: dict | None = None          # {"param": name, "values": [...]}
    stride: int = 1
    out: str | None = None
    report: str | None = None

    def echo(self) -> dict:
        """Lossless resolved-config dictionary for the JSON report."""
        return {
            "example": self.example,
            "params": dict(self.params),
            "prior": [self.prior[0], self.prior[1]],
            "grid_points": self.grid_points,
            "n_list": list(self.n_list),
            "sweep": dict(self.sweep) if self.sweep else None,
            "stride": self.stride,
        }


def _fmt(v) -> str:
    if v is None:
        return ""
    return format(float(v), ".12g")


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{flag} expects A:B, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _parse_params(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--param {key}: {exc}") from exc
    return out


def _parse_sweep(text: str) -> dict:
    if "=" not in text:
        raise ConfigError(f"--sweep expects KEY=V1,V2,..., got {text!r}")
    key, _, rest = text.partition("=")
    try:
        values = [float(v) for v in rest.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--sweep {key}: {exc}") from exc
    if not values:
        raise ConfigError("--sweep needs at least one value")
    return {"param": key.strip(), "values": values}


def _default_grid() -> int:
    env = os.environ.get("QBOUNDS_GRID")
    if env is None:
        return DEFAULT_GRID_M
    try:
        m = int(env)
    except ValueError as exc:
        raise ConfigError(f"QBOUNDS_GRID must be an integer, got {env!r}") from exc
    if m < 3 or m % 2 == 0:
        raise ConfigError(f"QBOUNDS_GRID must be odd and >= 3, got {m}")
    return m


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    # Accept a full JSON report as a config: unwrap the echo.
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file, environment, and flags (flags win)."""
    file_cfg = _load_config_file(args.config) if args.config else {}

    example = args.example or file_cfg.get("example")
    if example not in EXAMPLES:
        raise ConfigError(
            f"--example must be one of {', '.join(EXAMPLES)}, got {example!r}"
        )

    params = dict(_DEFAULT_PARAMS[example])
    params.update(file_cfg.get("params", {}))
    params.update(_parse_params(args.param))

    if args.prior:
        prior = _parse_pair(args.prior, "--prior")
    elif "prior" in file_cfg:
        prior = tuple(float(v) for v in file_cfg["prior"])
    else:
        prior = _DEFAULT_PRIOR[example]

    if args.grid is not None:
        grid_points = args.grid
    elif "grid_points" in file_cfg:
        grid_points = int(file_cfg["grid_points"])
    else:
        grid_points = _default_grid()
    if grid_points < 3 or grid_points % 2 == 0:
        raise ConfigError(f"grid size must be odd and >= 3, got {grid_points}")

    allow_n0 = args.command == "mmse"
    if args.n_range:
        lo, hi = (int(v) for v in _parse_pair(args.n_range, "--n-range"))
        if lo > hi:
            raise ConfigError(f"--n-range is empty: {lo}:{hi}")
        n_list = list(range(lo, hi + 1))
    elif args.n is not None:
        n_list = [args.n]
    elif "n_list" in file_cfg:
        n_list = [int(v) for v in file_cfg["n_list"]]
        if not n_list:
            raise ConfigError("config n_list is empty")
    else:
        n_list = [1]
    floor = 0 if allow_n0 else 1
    if min(n_list) < floor:
        raise ConfigError(
            f"n must be >= {floor} for the {args.command} command, got {min(n_list)}"
        )

    if args.sweep:
        sweep = _parse_sweep(args.sweep)
    else:
        sweep = file_cfg.get("sweep") or None
        if sweep is not None:
            sweep = {"param": str(sweep["param"]),
                     "values": [float(v) for v in sweep["values"]]}
    if sweep is not None and len(n_list) != 1:
        raise ConfigError("a parameter sweep requires a single fixed n")

    stride = args.stride if args.stride is not None else int(file_cfg.get("stride", 1))
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")

    return RunConfig(
        example=example,
        params=params,
        prior=prior,
        grid_points=grid_points,
        n_list=n_list,
        sweep=sweep,
        stride=stride,
        out=args.out,
        report=args.report,
    )


def _build(example: str, params: dict, prior, m: int, n: int):
    """Instantiate (problem, measurement model or None) for one axis point."""
    if example == "noon":
        return noon_model(NoonParams(int(params["N"])), prior, m, n)
    if example == "dephasing":
        if "gamma" in params:
            dp = DephasingParams(params["gamma"])
        else:
            dp = DephasingParams.from_eta(params["eta"])
        return dephasing_model(dp, prior, m, n)
    if example == "interferometer":
        ip = InterferometerParams(params["n_a"], params["n_b"])
        return interferometer_problem(ip, prior, m, n), None
    if example == "field":
        return field_model(FieldParams(params["B"]), prior, m, n)
    raise ConfigError(f"unknown example {example!r}")


def run_bounds_sweep(config: RunConfig) -> list[dict]:
    """One row per axis value (n, or the sweep parameter at fixed n)."""
    rows = []
    if config.sweep is not None:
        axis_iter = [
            ({**config.params, config.sweep["param"]: v}, config.n_list[0], v)
            for v in config.sweep["values"]
        ]
    else:
        axis_iter = [(config.params, n, float(n)) for n in config.n_list]

    for params, n, axis in sorted(axis_iter, key=lambda t: t[2]):
        problem, model = _build(
            config.example, params, config.prior, config.grid_points, n
        )
        qcrb = bayesian_qcrb(problem).value
        obb = obb_variational(problem)
        mmse = None
        if model is not None:
            mmse = mmse_mse(model, problem.prior, n, problem.target).mse
        row = {
            "axis": axis,
            "qcrb": qcrb,
            "obb": obb.value,
            "mmse": mmse,
            "obb_residual": obb.diagnostics.ode_residual_max,
        }
        _check_row(row)
        rows.append(row)
    return rows


def _check_row(row: dict) -> None:
    for key in ("qcrb", "obb", "mmse"):
        if row[key] is not None and not math.isfinite(row[key]):
            raise InvariantViolation(f"axis={row['axis']}: {key} is {row[key]!r}")
    if row["obb"] > row["qcrb"] + _OBB_VS_QCRB_TOL:
        raise InvariantViolation(
            f"axis={row['axis']}: obb {row['obb']!r} exceeds qcrb {row['qcrb']!r}"
        )
    if row["mmse"] is not None and row["obb"] > row["mmse"] + _OBB_VS_MMSE_TOL:
        raise InvariantViolation(
            f"axis={row['axis']}: obb {row['obb']!r} exceeds mmse {row['mmse']!r}"
        )


def run_bias_dump(config: RunConfig) -> list[dict]:
    """Solved optimal bias next to the MMSE estimator bias at one n."""
    if config.example == "interferometer":
        raise UnsupportedExample(
            "the interferometer example has no measurement model; "
            "bias curves are undefined"
        )
    n = config.n_list[0]
    problem, model = _build(
        config.example, config.params, config.prior, config.grid_points, n
    )
    report = obb_variational(problem)
    bias_mmse = mmse_mse(model, problem.prior, n, problem.target).bias_curve
    x = problem.grid.nodes()
    rows = [
        {"x": x[i], "bias_opt": report.bias.values[i],
         "bias_mmse": bias_mmse.values[i],
         "obb_residual": report.diagnostics.ode_residual_max}
        for i in range(0, problem.grid.m, config.stride)
    ]
    return rows


def run_mmse(config: RunConfig) -> list[dict]:
    """Posterior-mean estimates and risk for one n."""
    if config.example == "interferometer":
        raise UnsupportedExample(
            "the interferometer example has no measurement model"
        )
    n = config.n_list[0]
    # the n=0 baseline needs no QFI profile; build the problem with one
    # repetition and run the estimator at the requested n
    problem, model = _build(
        config.example, config.params, config.prior, config.grid_points, max(n, 1)
    )
    rep = mmse_mse(model, problem.prior, n, problem.target)
    return [
        {"k": k, "estimate": rep.estimates[k],
         "zero_evidence": int(rep.zero_evidence[k]), "mse": rep.mse}
        for k in range(n + 1)
    ]


_CSV_COLUMNS = {
    "bounds": ("axis", "qcrb", "obb", "mmse", "obb_residual"),
    "bias": ("x", "bias_opt", "bias_mmse"),
    "mmse": ("k", "estimate", "zero_evidence"),
}


def render_csv(command: str, rows: list[dict]) -> str:
    cols = _CSV_COLUMNS[command]
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = row[c]
            if c in ("k", "zero_evidence"):
                cells.append(str(int(v)))
            else:
                cells.append(_fmt(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_report(
    config: RunConfig, command: str, rows: list[dict], wall_time_ms: float
) -> dict:
    residuals = [
        r["obb_residual"]
        for r in rows
        if r.get("obb_residual") is not None
    ]
    doc = {
        "config": {**config.echo(), "command": command},
        "rows": rows,
        "diagnostics": {
            "max_ode_residual": max(residuals) if residuals else None,
            "grid_m": config.grid_points,
            "wall_time_ms": wall_time_ms,
        },
        "version": __version__,
    }
    return doc


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbounds",
        description="MSE lower bounds and Bayesian MMSE simulation for "
        "quantum parameter estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bounds", "sweep QCRB / OBB / MMSE over n or a parameter axis"),
        ("bias", "dump optimal-bias and estimator-bias curves at one n"),
        ("mmse", "posterior-mean estimates per outcome count at one n"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--example", choices=EXAMPLES)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--n-range", default=None, metavar="MIN:MAX")
        p.add_argument("--prior", default=None, metavar="A1:A2")
        p.add_argument("--grid", type=int, default=None, metavar="M")
        p.add_argument("--param", action="append", metavar="KEY=VALUE")
        p.add_argument("--sweep", default=None, metavar="KEY=V1,V2,...")
        p.add_argument("--stride", type=int, default=None)
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--report", default=None, metavar="PATH")
        p.add_argument("--config", default=None, metavar="PATH")
    return parser


_RUNNERS = {"bounds": run_bounds_sweep, "bias": run_bias_dump, "mmse": run_mmse}


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = build_config(args)
        start = time.perf_counter()
        rows = _RUNNERS[args.command](config)
        wall_ms = (time.perf_counter() - start) * 1e3
        _write(config.out, render_csv(args.command, rows))
        if config.report:
            doc = emit_report(config, args.command, rows, wall_ms)
            _write(config.report, json.dumps(doc, indent=2) + "\n")
    except InvariantViolation as exc:
        print(f"qbounds: output invariant violated: {exc}", file=sys.stderr)
        return 4
    except (SingularSystem, ConvergenceFailure) as exc:
        print(f"qbounds: numerical failure: {exc}", file=sys.stderr)
        return 3
    except QboundsError as exc:
        print(f"qbounds: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
