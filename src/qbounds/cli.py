"""Command-line front end.

Subcommands:

* ``bounds`` - sweep the QCRB, the variational OBB, and (when the example has
  a measurement law) the MMSE risk over n or over a secondary parameter axis;
  emits a CSV of rows ``axis,qcrb,obb,mmse,obb_residual``.
* ``bias``   - dump the solved optimal-bias curve next to the MMSE estimator
  bias curve at one n; CSV ``x,bias_opt,bias_mmse``.
* ``mmse``   - posterior-mean estimates per outcome count at one n; CSV
  ``k,estimate,zero_evidence``.

Every runner returns its rows as tuples in CSV column order, each checked
by ``_check_row`` as it is produced, and a dict of run-level values
(``max_ode_residual`` for bounds and bias, ``mse`` for mmse), checked to be
finite by ``_check_values`` before anything is written. Output is
deterministic byte-for-byte: each cell is printed with ``%.12g`` (exact for
the integers below 1e12 that n and k are capped to), rows are ordered by
axis value, and nothing in the pipeline is random. Every run can also emit
a JSON report (``--report``) whose ``rows`` are the CSV rows, whose
``diagnostics`` hold the run-level values, and whose config echo reproduces
the identical CSV when fed back through ``--config``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (or out
of memory), 4 invariant violation in the emitted rows.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

from . import __version__
from .bounds import bayesian_qcrb, obb_variational
from .core import DEFAULT_GRID_M
from .errors import (
    ConfigError,
    InvariantViolation,
    QboundsError,
    SingularSystem,
    UnsupportedExample,
)
from .estimation import estimator_bias, mmse_mse
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


class _Example(NamedTuple):
    prior: tuple[float, float]
    params: dict  # defaults; an int default marks an integral parameter
    build: Callable  # (params, prior, m, n) -> (problem, model or None)


# Builders call the model functions through this module's globals, so a
# wrapper installed on those names (as bench/spans.py does) sees every build.
_EXAMPLES = {
    "noon": _Example(
        (0.0, math.pi / 10.0), {"N": 10},
        lambda p, *args: noon_model(NoonParams(p["N"]), *args)),
    "dephasing": _Example(
        (0.0, math.pi), {"eta": 1.0},
        lambda p, *args: dephasing_model(
            DephasingParams(p["gamma"]) if "gamma" in p
            else DephasingParams.from_eta(p["eta"]), *args)),
    "interferometer": _Example(
        (0.0, math.pi / 5.0), {"n_a": 1.0, "n_b": 1.0},
        lambda p, *args: (interferometer_problem(
            InterferometerParams(p["n_a"], p["n_b"]), *args), None)),
    "field": _Example(
        (0.0, math.pi / 2.0), {"B": math.pi / 2.0},
        lambda p, *args: field_model(FieldParams(p["B"]), *args)),
}
# Other names for a parameter: the dephasing decay rate gamma = -ln(eta).
_ALIASES = {"gamma": "eta"}

# Longest --n-range accepted: each n is a full bound and MMSE evaluation.
_MAX_N_RANGE = 10_000
# Largest n accepted: %.12g prints every integer up to here exactly.
_MAX_N = 999_999_999_999

# Ordering tolerances enforced on every emitted row. The obb <= mmse slack
# is the smaller of an absolute and a relative one, so that it stays a
# rounding-level allowance when both values are small.
_OBB_VS_QCRB_TOL = 1e-12
_OBB_VS_MMSE_TOL = 1e-10
_OBB_VS_MMSE_RTOL = 1e-9


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
        return {k: v for k, v in asdict(self).items() if k not in ("out", "report")}


def _number(value, what: str, integral: bool = False):
    """A value from a flag, the config file or the environment, checked.

    Returns a finite float, or an int when ``integral``; anything else
    (text that is no number, nan, inf, 10.9 where an integer is due, a
    JSON list or bool) raises ConfigError.
    """
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x) or (integral and not x.is_integer()):
        kind = "an integer" if integral else "a finite number"
        raise ConfigError(f"{what} must be {kind}, got {value!r}")
    return int(x) if integral else x


def _pair(parts, what: str, integral: bool = False) -> tuple:
    if not isinstance(parts, (list, tuple)) or len(parts) != 2:
        raise ConfigError(f"{what} expects two values A:B, got {parts!r}")
    return tuple(_number(v, what, integral) for v in parts)


def _split(text: str, flag: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"{flag} expects KEY=VALUE, got {text!r}")
    key, _, value = text.partition("=")
    return key.strip(), value


def _resolve_params(example: str, given: dict, sweep: dict | None):
    """Checked (params, sweep) of one example from raw names and values.

    Every name must belong to the example and each parameter may be set
    under one name only, the sweep's included; defaults fill only the
    parameters nobody set. Raises ConfigError otherwise.
    """
    defaults = _EXAMPLES[example].params
    named = {}
    for name in [*given, *([sweep["param"]] if sweep else [])]:
        canonical = _ALIASES.get(name, name)
        if canonical not in defaults:
            raise ConfigError(
                f"the {example} example has no parameter {name!r} "
                f"(it takes {', '.join(defaults)})"
            )
        if named.setdefault(canonical, name) != name:
            raise ConfigError(f"{named[canonical]} and {name} set the same parameter")

    def check(name, value):
        integral = isinstance(defaults[_ALIASES.get(name, name)], int)
        return _number(value, f"parameter {name}", integral)

    params = {k: v for k, v in defaults.items() if k not in named}
    params.update((k, check(k, v)) for k, v in given.items())
    if sweep:
        sweep = {"param": sweep["param"],
                 "values": [check(sweep["param"], v) for v in sweep["values"]]}
    return params, sweep


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
    if not isinstance(example, str) or example not in _EXAMPLES:
        raise ConfigError(
            f"--example must be one of {', '.join(_EXAMPLES)}, got {example!r}"
        )

    given = file_cfg.get("params", {})
    if not isinstance(given, dict):
        raise ConfigError(f"config params must be an object, got {given!r}")
    given = {**given, **dict(_split(item, "--param") for item in args.param or ())}
    if args.sweep:
        key, values = _split(args.sweep, "--sweep")
        sweep = {"param": key, "values": [v for v in values.split(",") if v.strip()]}
    else:
        sweep = file_cfg.get("sweep") or None
    if sweep is not None and not (
        isinstance(sweep, dict) and isinstance(sweep.get("param"), str)
        and isinstance(sweep.get("values"), list) and sweep["values"]
    ):
        raise ConfigError(f"a sweep needs a parameter and at least one value: {sweep!r}")
    params, sweep = _resolve_params(example, given, sweep)

    prior = args.prior.split(":") if args.prior else file_cfg.get(
        "prior", _EXAMPLES[example].prior)
    prior = _pair(prior, "prior")

    grid_points = _number(
        args.grid if args.grid is not None else file_cfg.get(
            "grid_points", os.environ.get("QBOUNDS_GRID", DEFAULT_GRID_M)),
        "grid size (--grid, config grid_points or QBOUNDS_GRID)", integral=True)
    if grid_points < 3 or grid_points % 2 == 0:
        raise ConfigError(f"grid size must be odd and >= 3, got {grid_points}")

    if args.n_range:
        lo, hi = _pair(args.n_range.split(":"), "--n-range", integral=True)
        if hi - lo >= _MAX_N_RANGE:
            raise ConfigError(f"--n-range holds more than {_MAX_N_RANGE} values, "
                              f"got {args.n_range!r}")
        n_list = list(range(lo, hi + 1))
    else:
        n_list = [args.n] if args.n is not None else file_cfg.get("n_list", [1])
    if not isinstance(n_list, list) or not n_list:
        raise ConfigError(f"need a non-empty list of n, got {args.n_range or n_list!r}")
    n_list = [_number(v, "n", integral=True) for v in n_list]
    floor = 0 if args.command == "mmse" else 1
    if min(n_list) < floor:
        raise ConfigError(
            f"n must be >= {floor} for the {args.command} command, got {min(n_list)}"
        )
    if max(n_list) > _MAX_N:
        raise ConfigError(f"n must be <= {_MAX_N}, got {max(n_list)}")
    if args.command != "bounds" and (len(n_list) != 1 or sweep is not None):
        raise ConfigError(f"the {args.command} command takes one n and no sweep")
    if sweep is not None and len(n_list) != 1:
        raise ConfigError("a parameter sweep requires a single fixed n")

    stride = _number(args.stride if args.stride is not None
                     else file_cfg.get("stride", 1), "stride", integral=True)
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
    return _EXAMPLES[example].build(params, prior, m, n)


def _measured_point(config: RunConfig):
    """(problem, model, n) at the single n of the bias and mmse commands."""
    n = config.n_list[0]
    # the n=0 baseline needs no QFI profile; build the problem with one
    # repetition and run the estimator at the requested n
    problem, model = _build(
        config.example, config.params, config.prior, config.grid_points, max(n, 1)
    )
    if model is None:
        raise UnsupportedExample(f"the {config.example} example has no measurement model")
    return problem, model, n


def run_bounds_sweep(config: RunConfig) -> tuple[list[tuple], dict]:
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
            mmse = mmse_mse(model, problem.prior, n).mse
        rows.append(_check_row("bounds", (axis, qcrb, obb.value, mmse, obb.residual)))
    return rows, {"max_ode_residual": max(row[-1] for row in rows)}


def _check_row(command: str, row: tuple) -> tuple:
    """The output invariants of one row of ``command``; returns the row.

    Every non-empty cell is finite, and a bounds row keeps obb <= qcrb and
    obb <= mmse within their tolerances. Raises InvariantViolation.
    """
    cols = _CSV_COLUMNS[command]
    for name, v in zip(cols, row):
        if v is not None and not math.isfinite(v):
            raise InvariantViolation(f"{cols[0]}={row[0]}: {name} is {v}")
    if command == "bounds":
        axis, qcrb, obb, mmse, _ = row
        if obb > qcrb + _OBB_VS_QCRB_TOL:
            raise InvariantViolation(f"axis={axis}: obb {obb!r} exceeds qcrb {qcrb!r}")
        if mmse is not None and obb > mmse + min(_OBB_VS_MMSE_TOL,
                                                 _OBB_VS_MMSE_RTOL * mmse):
            raise InvariantViolation(f"axis={axis}: obb {obb!r} exceeds mmse {mmse!r}")
    return row


def _check_values(values: dict) -> None:
    """Every run-level value is finite; raises InvariantViolation otherwise."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise InvariantViolation(f"{name} is {v}")


def run_bias_dump(config: RunConfig) -> tuple[list[tuple], dict]:
    """Solved optimal bias next to the MMSE estimator bias at one n."""
    problem, model, n = _measured_point(config)
    report = obb_variational(problem)
    bias_mmse = estimator_bias(model, mmse_mse(model, problem.prior, n).estimates)
    columns = (problem.grid.nodes(), report.bias.values, bias_mmse.values)
    rows = [_check_row("bias", row)
            for row in zip(*(c[::config.stride].tolist() for c in columns))]
    return rows, {"max_ode_residual": report.residual}


def run_mmse(config: RunConfig) -> tuple[list[tuple], dict]:
    """Posterior-mean estimates for one n; the risk is a run-level value."""
    problem, model, n = _measured_point(config)
    rep = mmse_mse(model, problem.prior, n)
    estimates, zero = rep.estimates.tolist(), rep.zero_evidence.tolist()
    rows = [_check_row("mmse", (k, estimates[k], int(zero[k]))) for k in range(n + 1)]
    return rows, {"mse": rep.mse}


_CSV_COLUMNS = {
    "bounds": ("axis", "qcrb", "obb", "mmse", "obb_residual"),
    "bias": ("x", "bias_opt", "bias_mmse"),
    "mmse": ("k", "estimate", "zero_evidence"),
}


def render_csv(command: str, rows: list[tuple]) -> str:
    """The CSV text: a header, then each cell as %.12g, None as empty."""
    return "\n".join([",".join(_CSV_COLUMNS[command]), *[
        ",".join(["" if v is None else "%.12g" % v for v in row]) for row in rows
    ]]) + "\n"


def emit_report(config: RunConfig, command: str, rows: list[tuple],
                values: dict, wall_time_ms: float) -> dict:
    return {
        "config": {**config.echo(), "command": command},
        "rows": rows,
        "diagnostics": {**values, "grid_m": config.grid_points,
                        "wall_time_ms": wall_time_ms},
        "version": __version__,
    }


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
        # values stay text here: build_config checks them with _number, like
        # the same values from the config file or the environment
        p.add_argument("--example", choices=_EXAMPLES)
        p.add_argument("--n", default=None)
        p.add_argument("--n-range", default=None, metavar="MIN:MAX")
        p.add_argument("--prior", default=None, metavar="A1:A2")
        p.add_argument("--grid", default=None, metavar="M")
        p.add_argument("--param", action="append", metavar="KEY=VALUE")
        p.add_argument("--sweep", default=None, metavar="KEY=V1,V2,...")
        p.add_argument("--stride", default=None)
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
        rows, values = _RUNNERS[args.command](config)
        _check_values(values)
        wall_ms = (time.perf_counter() - start) * 1e3
        _write(config.out, render_csv(args.command, rows))
        if config.report:
            doc = emit_report(config, args.command, rows, values, wall_ms)
            _write(config.report, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    except InvariantViolation as exc:
        print(f"qbounds: output invariant violated: {exc}", file=sys.stderr)
        return 4
    except (SingularSystem, MemoryError) as exc:
        print(f"qbounds: numerical failure: {exc}", file=sys.stderr)
        return 3
    except QboundsError as exc:
        print(f"qbounds: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
