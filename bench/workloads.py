"""The benchmark's workloads: fixed lists of ``qbounds`` command lines.

Each workload is a fixed list of CLI invocations. The seed draws only the
physical parameters (N, B, eta, the photon numbers and, on ``large_n``, the
repetition counts) within the regimes of the paper figures; point counts,
n-ranges and grid sizes never change. Seed 0 reproduces the README commands
verbatim. Every invocation also carries the full physical problem it asks
for, which the correctness oracles in ``checks.py`` evaluate independently
of how the CLI parses its flags.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "large_n", "fine_grid")
DEFAULT_SEED = 0
DEFAULT_GRID = 4001

# The CLI's default prior supports, all of the form (0, a).
PRIOR = {
    "noon": (0.0, math.pi / 10.0),
    "dephasing": (0.0, math.pi),
    "interferometer": (0.0, math.pi / 5.0),
    "field": (0.0, math.pi / 2.0),
}
DEFAULT_PARAMS = {
    "noon": {"N": 10.0},
    "dephasing": {"eta": 1.0},
    "interferometer": {"n_a": 1.0, "n_b": 1.0},
    "field": {"B": math.pi / 2.0},
}
# large_n moves repetitions between the noon and field rows, whose cost per
# unit n is about equal, and keeps the largest table at n = 3000: the work
# and the peak memory stay level across seeds while n varies by up to 10%.
LARGE_N_SHIFT = 200


@dataclass(frozen=True)
class Point:
    """One evaluated parameter point: its repetition count and parameters."""

    n: int
    params: dict


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its argv and the problem it must evaluate, row by row."""

    argv: tuple
    command: str
    example: str
    grid: int
    points: tuple  # of Point, in CSV row order


def _num(v: float) -> str:
    return format(v, ".6g")


class _Builder:
    """Renders invocations; with no rng it emits the README commands."""

    def __init__(self, seed: int):
        self.rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def params(self, example: str, draw) -> dict:
        """Default parameters, overridden by ``draw(rng)`` for seeded runs."""
        params = dict(DEFAULT_PARAMS[example])
        if self.rng is not None:
            params.update(draw(self.rng))
        return params

    def invocation(self, command, example, params, ns, *, grid=None,
                   sweep=None, extra=()):
        argv = [command, "--example", example]
        if len(ns) > 1:
            argv += ["--n-range", f"{ns[0]}:{ns[-1]}"]
        else:
            argv += ["--n", str(ns[0])]
        if grid is not None:
            argv += ["--grid", str(grid)]
        if self.rng is not None:
            for key, value in params.items():
                if sweep is None or key != sweep[0]:
                    argv += ["--param", f"{key}={_num(value)}"]
        if sweep is not None:
            key, values = sweep
            argv += ["--sweep", f"{key}=" + ",".join(str(v) for v in values)]
            points = tuple(Point(ns[0], {**params, key: v}) for v in sorted(values))
        else:
            points = tuple(Point(n, params) for n in ns)
        return Invocation(tuple(argv) + tuple(extra), command, example,
                          grid or DEFAULT_GRID, points)


def _noon(rng):
    # N <= 10 keeps sin^2(Nx/2) monotone on the default prior (0, pi/10).
    return {"N": float(rng.randint(8, 10))}


def _field(rng):
    return {"B": float(_num(math.pi / 2.0 * rng.uniform(0.9, 1.1)))}


def _interferometer(rng):
    return {"n_a": float(_num(rng.uniform(0.8, 1.2))),
            "n_b": float(_num(rng.uniform(0.8, 1.2)))}


def _sweep(b: _Builder) -> list[Invocation]:
    ns = list(range(1, 31))
    jitter = (lambda: 0.0) if b.rng is None else b.rng.random
    etas = [round(i / 10.0 - 0.05 * jitter(), 4) for i in range(1, 11)]
    return [
        b.invocation("bounds", "noon", b.params("noon", _noon), ns),
        b.invocation("bounds", "field", b.params("field", _field), ns),
        b.invocation("bounds", "interferometer",
                     b.params("interferometer", _interferometer), ns),
        b.invocation("bounds", "dephasing", b.params("dephasing", lambda r: {}),
                     [5], sweep=("eta", etas)),
    ]


def _large_n(b: _Builder) -> list[Invocation]:
    shift = 0 if b.rng is None else b.rng.randint(0, LARGE_N_SHIFT)
    eta = lambda r: {"eta": float(_num(r.uniform(0.8, 1.0)))}
    return [
        b.invocation("bounds", "noon", b.params("noon", _noon), [3000 - shift]),
        b.invocation("bounds", "field", b.params("field", _field), [2000 + shift]),
        b.invocation("mmse", "dephasing", b.params("dephasing", eta), [3000]),
    ]


def _fine_grid(b: _Builder) -> list[Invocation]:
    return [
        b.invocation("bounds", "field", b.params("field", _field), [1, 2, 3, 4],
                     grid=40001),
        b.invocation("bias", "noon", b.params("noon", _noon), [1], grid=40001,
                     extra=("--stride", "1")),
    ]


_BUILDERS = {"sweep": _sweep, "large_n": _large_n, "fine_grid": _fine_grid}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations for this seed, in pass order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](_Builder(seed))
