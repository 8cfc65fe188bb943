"""Command-line front end: ``qbounds COMMAND [flags]``.

Commands (one positional word, before, between or after the flags):

* ``bounds`` - sweep the QCRB, the variational OBB, and (when the example has
  a measurement law) the MMSE risk over n or over a secondary parameter axis;
  emits a CSV of rows ``axis,qcrb,obb,mmse,obb_residual``.
* ``bias``   - dump the solved optimal-bias curve next to the MMSE estimator
  bias curve at one n; CSV ``x,bias_opt,bias_mmse``.
* ``mmse``   - posterior-mean estimates per outcome count at one n; CSV
  ``k,estimate,zero_evidence``.

Every runner returns its output as columns in CSV column order (None for
one the run lacks) and its run-level values (``max_ode_residual`` for bounds
and bias, ``mse`` for mmse), checked by ``_check_values``. ``_check_row``
states the output invariants; bounds calls it on each row as it is solved,
bias and mmse once on their columns. Each cell prints as ``%.12g`` (exact
for the integers below 1e12 that n and k are capped to), rows are ordered by
axis value, and nothing is random, so output is deterministic. Nothing is
written until every check has passed; then the header goes out, and the rows
are rendered and written in chunks of 4096, so the CSV never sits in memory
whole. The JSON report (``--report``) holds the run-level values and the row
count; its config echo replays the identical CSV through ``--config``. A
config file holds the echo's keys only; the flags given override them.
Values stay text in the parser and ``build_config`` checks each, from a flag
or the file, once: a bad ``--example`` gets the config file's one-line error.

Exit codes: 0 success, 2 configuration error (or unwritable output), 3
numerical failure (or out of memory), 4 invariant violation in the rows.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .bounds import bayesian_qcrb, obb_variational
from .core import DEFAULT_GRID_M
from .errors import ConfigError, InvariantViolation, QboundsError, SingularSystem
from .estimation import estimator_bias, mmse_mse
from .models import EXAMPLES

# Most n values, or sweep values, of one run: each is a full evaluation.
_MAX_POINTS = 10_000
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
    params: dict
    prior: tuple[float, float]
    grid_points: int
    n_list: list[int]
    sweep: dict | None  # {"param": name, "values": [...]}
    stride: int


def _number(value, what: str, integral: bool = False):
    """A value from a flag or the config file, checked.

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


def _points(values, what: str) -> list:
    """A list or range of 1 to _MAX_POINTS values as a list; else ConfigError."""
    if not isinstance(values, (list, range)) or not values:
        raise ConfigError(f"{what} needs a non-empty list of values, got {values!r}")
    if len(values[:_MAX_POINTS + 1]) > _MAX_POINTS:  # len(range(1, 10**300)) overflows
        raise ConfigError(f"{what} holds more than {_MAX_POINTS} values")
    return list(values)


def _split(text: str, flag: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"{flag} expects KEY=VALUE, got {text!r}")
    key, _, value = text.partition("=")
    return key.strip(), value


def _resolve_params(example: str, given, sweep):
    """Checked (params, sweep) of one example from raw names and values.

    Every name must belong to the example and each parameter may be set
    under one name only, the sweep's included; defaults fill only the
    parameters nobody set. Raises ConfigError otherwise.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"config params must be an object, got {given!r}")
    if sweep is not None and not (isinstance(sweep, dict)
                                  and isinstance(sweep.get("param"), str)):
        raise ConfigError(f"a sweep needs a parameter and its values, got {sweep!r}")
    defaults, aliases = EXAMPLES[example].defaults, EXAMPLES[example].aliases
    named = {}
    for name in [*given, *([sweep["param"]] if sweep is not None else [])]:
        canonical = aliases.get(name, name)
        if canonical not in defaults:
            raise ConfigError(
                f"the {example} example has no parameter {name!r} "
                f"(it takes {', '.join(defaults)})"
            )
        if named.setdefault(canonical, name) != name:
            raise ConfigError(f"{named[canonical]} and {name} set the same parameter")

    def check(name, value):
        integral = isinstance(defaults[aliases.get(name, name)], int)
        return _number(value, f"parameter {name}", integral)

    params = {k: v for k, v in defaults.items() if k not in named}
    params.update((k, check(k, v)) for k, v in given.items())
    if sweep is not None:
        sweep = {"param": sweep["param"],
                 "values": [check(sweep["param"], v)
                            for v in _points(sweep.get("values"), "sweep")]}
    return params, sweep


def _once(pairs, name: str = "config key") -> dict:
    """The (key, value) pairs as a dict; ConfigError if a key is given twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"{name} {key} is given twice")
        out[key] = value
    return out


def _load_config_file(path: str) -> dict:
    """A config file's settings, or a report's config echo (its command unused)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_once)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    unknown = set(data) - {f.name for f in fields(RunConfig)} - {"command"}
    if unknown:
        raise ConfigError(f"config has unknown keys {', '.join(sorted(unknown))}")
    return data


def _flag_settings(args: argparse.Namespace, file_params) -> dict:
    """The settings the flags give, under the config file's keys."""
    flags = {"example": args.example, "grid_points": args.grid, "stride": args.stride}
    if args.prior is not None:
        flags["prior"] = args.prior.split(":")
    if args.n_range is not None and args.n is not None:
        raise ConfigError("give --n or --n-range, not both")
    if args.n_range is not None:
        lo, hi = _pair(args.n_range.split(":"), "--n-range", integral=True)
        flags["n_list"] = range(lo, hi + 1)
    elif args.n is not None:
        flags["n_list"] = [args.n]
    if args.sweep is not None:
        key, values = _split(args.sweep, "--sweep")
        flags["sweep"] = {"param": key,
                          "values": [v for v in values.split(",") if v.strip()]}
    # params that are no object stay in place, for _resolve_params to reject
    if args.param and isinstance(file_params, dict):
        given = _once((_split(item, "--param") for item in args.param), "--param")
        flags["params"] = {**file_params, **given}
    return {k: v for k, v in flags.items() if v is not None}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Overlay the flags on the config file's settings, then check each once."""
    settings = {} if args.config is None else _load_config_file(args.config)
    settings.update(_flag_settings(args, settings.get("params", {})))

    example = settings.get("example")
    if not isinstance(example, str) or example not in EXAMPLES:
        raise ConfigError(
            f"--example must be one of {', '.join(EXAMPLES)}, got {example!r}"
        )

    params, sweep = _resolve_params(example, settings.get("params", {}),
                                    settings.get("sweep"))

    prior = _pair(settings.get("prior", EXAMPLES[example].support), "prior")
    # ParameterGrid rejects an even grid or one below 3 nodes
    grid_points = _number(settings.get("grid_points", DEFAULT_GRID_M),
                          "grid size (--grid or config grid_points)", integral=True)

    n_list = [_number(v, "n", integral=True)
              for v in _points(settings.get("n_list", [1]), "n_list")]
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

    stride = _number(settings.get("stride", 1), "stride", integral=True)
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if args.command != "bias" and stride != 1:
        raise ConfigError(f"the {args.command} command takes no stride, got {stride}")

    return RunConfig(example, params, prior, grid_points, n_list, sweep, stride)


def _build(example: str, params: dict, prior, m: int, n: int):
    """Instantiate (problem, measurement model or None) for one axis point."""
    return EXAMPLES[example].build(params, prior, m, n)


def _measured_point(config: RunConfig):
    """(problem, model, n) at the single n of the bias and mmse commands."""
    n = config.n_list[0]
    # the n=0 baseline has no information to bound; build the problem at
    # n = 1 and run the estimator at the requested n
    problem, model = _build(
        config.example, config.params, config.prior, config.grid_points, max(n, 1)
    )
    if model is None:
        raise ConfigError(f"the {config.example} example has no measurement model")
    return problem, model, n


def run_bounds_sweep(config: RunConfig) -> tuple[list, dict]:
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
    # an example has a measurement model at every point or at none
    columns = [None if col[0] is None else np.array(col) for col in zip(*rows)]
    return columns, {"max_ode_residual": max(row[-1] for row in rows)}


def _check_row(command: str, row) -> tuple:
    """The output invariants of ``command``'s rows; returns ``row``.

    The cells, in CSV column order, are numbers or whole columns (None: empty).
    Each is finite, and bounds keep obb <= qcrb and obb <= mmse within their
    tolerances. Raises InvariantViolation at the first failing row.
    """
    cells = {k: v for k, v in zip(_CSV_COLUMNS[command], row) if v is not None}
    checks = [(f"{name} is {{{name}}}", ~np.isfinite(v)) for name, v in cells.items()]
    if command == "bounds":
        obb, mmse = cells["obb"], cells.get("mmse", math.inf)  # no mmse bounds nothing
        checks += [("obb {obb!r} exceeds qcrb {qcrb!r}",
                    obb > cells["qcrb"] + _OBB_VS_QCRB_TOL),
                   ("obb {obb!r} exceeds mmse {mmse!r}",
                    obb > mmse + np.minimum(_OBB_VS_MMSE_TOL, _OBB_VS_MMSE_RTOL * mmse))]
    for i in np.flatnonzero(np.logical_or.reduce([bad for _, bad in checks]))[:1]:
        # .item(): under numpy 2 a numpy scalar's repr reads np.float64(...)
        at = {name: np.ravel(v)[i].item() for name, v in cells.items()}
        text = next(text for text, bad in checks if np.ravel(bad)[i])
        first = next(iter(at))
        raise InvariantViolation(f"{first}={at[first]}: " + text.format(**at))
    return row


def _check_values(values: dict) -> None:
    """Every run-level value is finite; raises InvariantViolation otherwise."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise InvariantViolation(f"{name} is {v}")


def run_bias_dump(config: RunConfig) -> tuple[list, dict]:
    """Solved optimal bias next to the MMSE estimator bias at one n."""
    problem, model, n = _measured_point(config)
    report = obb_variational(problem)
    bias_mmse = estimator_bias(model, problem.prior, n)
    columns = [c[::config.stride] for c in
               (problem.grid.nodes(), report.bias.values, bias_mmse.values)]
    return _check_row("bias", columns), {"max_ode_residual": report.residual}


def run_mmse(config: RunConfig) -> tuple[list, dict]:
    """Posterior-mean estimates for one n; the risk is a run-level value."""
    problem, model, n = _measured_point(config)
    rep = mmse_mse(model, problem.prior, n)
    columns = [np.arange(n + 1), rep.estimates, rep.zero_evidence.astype(int)]
    return _check_row("mmse", columns), {"mse": rep.mse}


_CSV_COLUMNS = {
    "bounds": ("axis", "qcrb", "obb", "mmse", "obb_residual"),
    "bias": ("x", "bias_opt", "bias_mmse"),
    "mmse": ("k", "estimate", "zero_evidence"),
}


# Rows rendered per chunk: a chunk's Python floats and text stay near 1 MB.
_CHUNK_ROWS = 4096


def render_csv(command: str, columns: list) -> str:
    """The data lines of ``command``'s CSV, one per row of ``columns``.

    One row template, %.12g per column and empty for a None column, is
    filled in one % pass; integer columns print as floats, all below 2^53.
    Each call renders one chunk of _CHUNK_ROWS rows. ``command`` is unused
    but kept: the benchmark's trace reads ``columns`` as the second argument.
    """
    present = [c for c in columns if c is not None]
    line = ",".join("" if c is None else "%.12g" for c in columns) + "\n"
    cells = tuple(np.column_stack(present).ravel().tolist())
    return (line * len(present[0])) % cells


def _csv_chunks(command: str, columns: list):
    """The header line, then the rows rendered _CHUNK_ROWS at a time."""
    yield ",".join(_CSV_COLUMNS[command]) + "\n"
    for i in range(0, len(columns[0]), _CHUNK_ROWS):
        yield render_csv(command, [None if c is None else c[i:i + _CHUNK_ROWS]
                                   for c in columns])


def _write(path: str | None, chunks) -> None:
    """Write each text of ``chunks`` as it is made, to stdout or ``path``,
    opened once; an OSError on either (a closed pipe too) raises ConfigError."""
    stdout = path is None or path == "-"
    try:
        if stdout:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        if stdout:  # the text still buffered would fail again at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ConfigError(f"cannot write {'stdout' if stdout else path}: {exc}") from exc


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbounds",
        description="MSE lower bounds and Bayesian MMSE simulation for "
        "quantum parameter estimation",
    )
    parser.add_argument(
        "command", choices=_RUNNERS,
        help="bounds: QCRB, OBB and MMSE over n or a parameter axis; "
        "bias: optimal-bias and estimator-bias curves at one n; "
        "mmse: posterior-mean estimates per outcome count at one n")
    # one flag set for all three commands; values stay text for build_config
    for flag, metavar in (
        ("--example", "{%s}" % ",".join(EXAMPLES)), ("--n", "N"),
        ("--n-range", "MIN:MAX"), ("--grid", "M"),
        ("--sweep", "KEY=V1,V2,..."), ("--stride", "K"), ("--out", "PATH"),
        ("--report", "PATH"), ("--config", "PATH"),
    ):
        parser.add_argument(flag, metavar=metavar)
    # argparse takes "-0.1:0.1" for an unknown flag
    parser.add_argument("--prior", metavar="A1:A2",
                        help="prior support; write --prior=-0.1:0.1 when A1 is negative")
    parser.add_argument("--param", action="append", metavar="KEY=VALUE")
    return parser


_RUNNERS = {"bounds": run_bounds_sweep, "bias": run_bias_dump, "mmse": run_mmse}


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = build_config(args)
        start = time.perf_counter()
        columns, values = _RUNNERS[args.command](config)
        _check_values(values)
        wall_ms = (time.perf_counter() - start) * 1e3
        _write(args.out, _csv_chunks(args.command, columns))
        if args.report:
            doc = {"config": {**asdict(config), "command": args.command},
                   "diagnostics": {**values, "grid_m": config.grid_points,
                                   "wall_time_ms": wall_ms,
                                   "row_count": len(columns[0])},
                   "version": __version__}
            _write(args.report, [json.dumps(doc, indent=2, allow_nan=False) + "\n"])
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
