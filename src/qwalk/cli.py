"""Command-line front end and flat-file output for the walk toolkit.

Four subcommands: ``simulate`` (exact finite-time distribution with
amplitudes), ``density`` (limit density on a grid), ``compare``
(simulation scored against a limit law), and ``sweep`` (support
half-width over a parameter grid).  ``simulate`` and ``compare`` evolve
the walk with the exact momentum-space engine
:func:`~qwalk.fourier.evolve_fourier` (O(t log t), ``t`` at most
:data:`~qwalk.fourier.MAX_STEPS`).  Output is CSV or JSON.  CSV writes
each float as ``'%.17g'`` (17 significant digits), JSON as ``repr``
(the fewest digits that read back as the same double), so both
round-trip doubles losslessly, and identical invocations produce
byte-identical files.  Non-finite values are ``nan``/``inf``/``-inf``
in CSV and ``NaN``/``Infinity``/``-Infinity`` (as ``json.dumps``) in JSON.

The rows are rendered by :func:`qwalk.render.render_rows` without a
Python call per value: numpy array arithmetic forms each float's digits
from a power-of-ten table held to about 2**-104, and Python's own ``%``
or ``json.dumps`` writes only the elements that arithmetic cannot decide
(within 2**-38 of a rounding tie or an interval edge, subnormal,
non-finite, or in JSON a power of two), so every file is byte for byte
what per-value formatting writes.  A command computes its result before
the file is opened, so refused input leaves no file; the file is then
written one rendered block at a time, never whole in memory.

Angles accept raw radians or exact tokens like ``pi/2``, ``-pi/4``,
``3pi/4``, also as a separate argument (``--nu -pi/4``).  Complex coin
amplitudes are written ``re,im``.  A flat ``key=value`` config file can
supply any flag; explicit flags win.  A command reads only its own
options, so a key of another command is ignored whatever its value, and
a key that no command takes is refused.  Each value is checked once, by
the code that uses it, so a bad value is refused alike from a flag or a
file; ``--help`` names the accepted values.

Exit codes: 0 success, 2 invalid parameters, 1 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .fourier import MAX_STEPS, evolve_fourier
from .harness import ComparisonReport, run_comparison
from .limitlaw import LAW_KINDS, make_limit_law, support_halfwidth
from .render import render_rows
from .walk import VARIANTS, CoinSpinor, WalkParams, distribution

__all__ = [
    "main",
    "parse_angle",
    "parse_complex",
    "report_to_dict",
    "report_from_dict",
]

SCHEMA_VERSION = 2

_DENSITY_GRID_POINTS = 2001
_DENSITY_GRID_PAD = 1.05

_ANGLE_PATTERN = re.compile(r"^([+-]?)(\d+)?pi(?:/(\d+))?$")


def parse_angle(text: str) -> float:
    """Parse an angle: a float literal or a pi-token like ``-3pi/4``."""
    cleaned = text.strip().lower().replace(" ", "")
    match = _ANGLE_PATTERN.match(cleaned)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        num = int(match.group(2)) if match.group(2) else 1
        den = int(match.group(3)) if match.group(3) else 1
        if den == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        return sign * num * math.pi / den
    return float(cleaned)


def parse_complex(text: str) -> complex:
    """Parse ``"re,im"`` (or a bare real) into a complex number."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) != 2:
        raise ValueError(f"complex value must be 're,im', got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _read_config_file(path: str) -> dict[str, str]:
    data: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed config line {raw!r}")
        data[key.strip()] = value.strip()
    return data


# Each long option and its help; a config file may set any of them but
# ``config``.  ``--help`` names the accepted values; each value is
# checked once, where it is used, so a flag and a config line are
# refused alike.
_OPTION_HELP = {
    "rho": "reflection weight in (0,1)",
    "nu": "phase angle (radians or pi-token like pi/2)",
    "alpha": "coin amplitude a0 as re,im (default 1,0)",
    "beta": "coin amplitude a1 as re,im (default 0,0)",
    "t": "number of steps",
    "variant": f"walk variant: {' or '.join(VARIANTS)} (default {VARIANTS[0]})",
    "law": f"limit law: {', '.join(LAW_KINDS)} (default theorem1,"
    " or cmv_only for the cmv_only variant)",
    "n": "branch index of the standard law (default: the one nu decides)",
    "grid": "rho_min,rho_max,rho_steps,nu_min,nu_max,nu_steps (angles may use pi-tokens)",
    "config": "flat key=value file; flags override it",
    "out": "output file path",
    "format": "csv (default) or json",
}
_OPTION_KEYS = tuple(key for key in _OPTION_HELP if key != "config")


def _merged_options(args: argparse.Namespace) -> dict[str, str]:
    """The config file's values, if any, overridden by the flags given."""
    merged: dict[str, str] = {}
    if args.config:
        merged.update(_read_config_file(args.config))
    for key in merged:
        if key not in _OPTION_KEYS:
            raise ValueError(f"unknown config key {key!r}")
    for key in _OPTION_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _require(options: dict[str, str], key: str) -> str:
    value = options.get(key)
    if value is None:
        raise ValueError(f"missing required option --{key}")
    return value


def _parse_grid(text: str) -> tuple[float, float, int, float, float, int]:
    tokens = text.replace(",", " ").split()
    if len(tokens) != 6:
        raise ValueError(
            "grid must have six entries: rho_min rho_max rho_steps"
            " nu_min nu_max nu_steps"
        )
    rho_min, rho_max = float(tokens[0]), float(tokens[1])
    rho_steps = int(tokens[2])
    nu_min, nu_max = parse_angle(tokens[3]), parse_angle(tokens[4])
    nu_steps = int(tokens[5])
    for name, bound in (("nu_min", nu_min), ("nu_max", nu_max)):
        if not math.isfinite(bound):
            raise ValueError(f"grid {name} must be finite, got {bound!r}")
    if not (0.0 < rho_min <= rho_max < 1.0):
        raise ValueError("grid rho bounds must satisfy 0 < rho_min <= rho_max < 1")
    if nu_min > nu_max:
        raise ValueError("grid nu bounds must satisfy nu_min <= nu_max")
    if not math.isfinite(nu_max - nu_min):
        raise ValueError("grid nu span nu_max - nu_min must be finite")
    if rho_steps < 2 or nu_steps < 2:
        raise ValueError("grid must have at least 2 steps per axis")
    # No more rows than simulate writes at its step limit, refused
    # before the grid is built.
    if rho_steps * nu_steps > 2 * MAX_STEPS + 1:
        raise ValueError(
            f"grid must have at most {2 * MAX_STEPS + 1} points,"
            f" got {rho_steps} x {nu_steps}"
        )
    return (rho_min, rho_max, rho_steps, nu_min, nu_max, nu_steps)


def _walk(options: dict[str, str]) -> tuple[WalkParams, CoinSpinor]:
    """The walk parameters and initial coin of ``options``."""
    params = WalkParams(
        rho=float(_require(options, "rho")),
        nu=parse_angle(_require(options, "nu")),
    )
    coin = CoinSpinor(
        a0=parse_complex(options.get("alpha", "1,0")),
        a1=parse_complex(options.get("beta", "0,0")),
    )
    return params, coin


# A file's ASCII text, as bytes and uint8 arrays in order.
Chunks = Iterator[bytes | np.ndarray]


def _csv_text(columns: dict[str, np.ndarray], meta: dict) -> Chunks:
    """A ``# key,value`` line per entry of ``meta`` (one per moment error),
    the header, then one line per entry of the parallel ``columns``,
    floats as ``%.17g``."""
    lines = []
    for key, value in meta.items():
        if key == "moment_errors":
            lines += [f"# moment_error_r{e['r']},{_fmt(e['error'])}" for e in value]
        else:
            text = _fmt(value) if isinstance(value, float) else value
            lines.append(f"# {key},{text}")
    lines.append(",".join(columns))
    yield ("\n".join(lines) + "\n").encode()
    pieces = ["", *[","] * (len(columns) - 1), "\n"]
    yield from render_rows(pieces, list(columns.values()), shortest=False)


def _json_text(payload: dict, columns: dict[str, np.ndarray]) -> Chunks:
    """``payload`` plus a ``"rows"`` list of ``{name: value}`` objects, one
    per entry of the parallel ``columns``, as ``json.dumps(..., indent=2)``
    writes it."""
    body = {"schema_version": SCHEMA_VERSION, **payload}
    head = json.dumps(body, indent=2)[: -len("\n}")]
    # Each row starts with the comma that separates it from the one
    # before; the first row's is dropped.
    names = [json.dumps(name) for name in columns]
    pieces = [f",\n    {{\n      {names[0]}: "]
    pieces += [f",\n      {name}: " for name in names[1:]]
    pieces.append("\n    }")
    blocks = render_rows(pieces, list(columns.values()), shortest=True)
    first = next(blocks, None)
    if first is None:
        yield f'{head},\n  "rows": []\n}}\n'.encode()
        return
    yield f'{head},\n  "rows": ['.encode()
    yield first[1:]
    yield from blocks
    yield b"\n  ]\n}\n"


def _table(
    fmt: str, payload: dict, columns: dict[str, np.ndarray], meta: bool = False
) -> Chunks:
    """The file of ``columns`` in format ``fmt``: JSON rows after
    ``payload``, or CSV rows, after ``payload``'s lines if ``meta``."""
    if fmt == "json":
        return _json_text(payload, columns)
    return _csv_text(columns, payload if meta else {})


def cmd_simulate(options: dict[str, str], fmt: str) -> Chunks:
    """Exact distribution and amplitudes after t steps, one row per site.

    Evolved by :func:`~qwalk.fourier.evolve_fourier`; the rows cover
    ``[-t, t]``.
    """
    params, coin = _walk(options)
    t = int(_require(options, "t"))
    state = evolve_fourier(coin, params, t, variant=options.get("variant", VARIANTS[0]))
    amps = state.amps
    columns = {
        "x": state.positions(),
        "prob": distribution(state).probs,
        "amp0_re": amps[:, 0].real,
        "amp0_im": amps[:, 0].imag,
        "amp1_re": amps[:, 1].real,
        "amp1_im": amps[:, 1].imag,
    }
    return _table(fmt, {"command": "simulate"}, columns)


def cmd_density(options: dict[str, str], fmt: str) -> Chunks:
    """Limit density on a 2001-point grid padded 5% beyond the support."""
    params, coin = _walk(options)
    n = int(options["n"]) if "n" in options else None
    law = make_limit_law(options.get("law", "theorem1"), params, coin, n=n)
    xs = np.linspace(
        -_DENSITY_GRID_PAD * law.support_hi,
        _DENSITY_GRID_PAD * law.support_hi,
        _DENSITY_GRID_POINTS,
    )
    return _table(fmt, {"command": "density"}, {"x": xs, "density": law.density(xs)})


def _report_header(report: ComparisonReport) -> dict:
    """Everything of :func:`report_to_dict` but the rows, in its key order."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "t": int(report.t),
        "variant": report.variant,
        "law": report.law_kind,
        "ks_distance": float(report.ks_distance),
        "moment_errors": [
            {"r": int(r), "error": float(e)} for r, e in report.moment_errors
        ],
    }


def _report_columns(report: ComparisonReport) -> dict[str, np.ndarray]:
    return {
        "x": report.positions,
        "simulated": report.simulated,
        "approx": report.approx,
    }


def report_to_dict(report: ComparisonReport) -> dict:
    """JSON-ready dictionary of a comparison report: the parsed text of
    the JSON file that ``compare`` writes."""
    text = _json_text(_report_header(report), _report_columns(report))
    return json.loads(b"".join(text))


def report_from_dict(data: dict) -> ComparisonReport:
    """Rebuild a comparison report from its JSON dictionary."""
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {data.get('schema_version')!r}")
    rows = data["rows"]
    return ComparisonReport(
        t=int(data["t"]),
        variant=data["variant"],
        law_kind=data["law"],
        ks_distance=float(data["ks_distance"]),
        moment_errors=tuple(
            (int(item["r"]), float(item["error"]))
            for item in data["moment_errors"]
        ),
        positions=np.array([row["x"] for row in rows], dtype=int),
        simulated=np.array([row["simulated"] for row in rows]),
        approx=np.array([row["approx"] for row in rows]),
    )


def cmd_compare(options: dict[str, str], fmt: str) -> Chunks:
    """Comparison report: metadata block plus per-site rows."""
    params, coin = _walk(options)
    n = int(options["n"]) if "n" in options else None
    report = run_comparison(
        params,
        coin,
        int(_require(options, "t")),
        variant=options.get("variant", VARIANTS[0]),
        law_kind=options.get("law"),
        n=n,
    )
    return _table(fmt, _report_header(report), _report_columns(report), meta=True)


def cmd_sweep(options: dict[str, str], fmt: str) -> Chunks:
    """Support half-width over the (rho, nu) grid, rho-major row order."""
    rho_min, rho_max, rho_steps, nu_min, nu_max, nu_steps = _parse_grid(
        _require(options, "grid")
    )
    rhos, nus = np.meshgrid(
        np.linspace(rho_min, rho_max, rho_steps),
        np.linspace(nu_min, nu_max, nu_steps),
        indexing="ij",
    )
    columns = {"rho": rhos.ravel(), "nu": nus.ravel()}
    columns["h_star"] = np.array(
        [
            support_halfwidth(WalkParams(rho=rho, nu=nu))
            for rho, nu in zip(columns["rho"].tolist(), columns["nu"].tolist())
        ]
    )
    return _table(fmt, {"command": "sweep"}, columns)


_WALK_KEYS = ("rho", "nu", "alpha", "beta")
# Each command, its summary, and the options it reads besides config,
# out and format.
_COMMANDS = {
    "simulate": (
        cmd_simulate, "exact finite-time distribution", (*_WALK_KEYS, "t", "variant")
    ),
    "density": (cmd_density, "limit density on a grid", (*_WALK_KEYS, "law", "n")),
    "compare": (
        cmd_compare,
        "simulation vs limit law report",
        (*_WALK_KEYS, "t", "variant", "law", "n"),
    ),
    "sweep": (cmd_sweep, "support half-width over a parameter grid", ("grid",)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Five-diagonal unitary walk: simulation, limit laws, comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, keys) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for key in (*keys, "config", "out", "format"):
            command.add_argument(f"--{key}", help=_OPTION_HELP[key])
    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -value`` as ``--flag=-value``.

    argparse reads a separate token with a leading ``-`` as an option
    unless it is a plain negative number, so ``--nu -pi/4`` and
    ``--beta -0.6,0`` would be refused.  Every option but ``--help``
    takes one value, and every option but ``-h`` starts with ``--``, so
    a single-dash token other than ``-h`` after a long option is that
    option's value.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if (
            token.startswith("--")
            and "=" not in token
            and not "--help".startswith(token)
            and value.startswith("-")
            and not value.startswith("--")
            and value != "-h"
        ):
            out.append(f"{token}={value}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one command; return 0 on success, 2 on invalid parameters and
    1 on an I/O failure.  A refused command writes no file."""
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_join_dash_values(argv))
    try:
        options = _merged_options(args)
        output = Path(_require(options, "out"))
        fmt = options.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")
        chunks = _COMMANDS[args.command][0](options, fmt)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with output.open("wb") as out:
            out.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
