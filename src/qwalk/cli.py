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
supply any flag; explicit flags win; a key that no command takes is refused.

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
from dataclasses import dataclass
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

SCHEMA_VERSION = 1

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


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed invocation; the variant and the law kind are checked
    by the library calls that use them."""

    command: str
    output: Path
    format: str
    params: WalkParams | None = None
    coin: CoinSpinor | None = None
    t: int = 0
    variant: str = VARIANTS[0]
    law: str = "theorem1"
    n: int = 0
    grid: tuple[float, float, int, float, float, int] | None = None


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


def _merged_options(args: argparse.Namespace) -> dict[str, str]:
    keys = ("rho", "nu", "alpha", "beta", "t", "variant", "law", "n", "grid",
            "out", "format")
    merged: dict[str, str] = {}
    if args.config:
        merged.update(_read_config_file(args.config))
    for key in merged:
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
    for key in keys:
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
    if not (0.0 < rho_min <= rho_max < 1.0):
        raise ValueError("grid rho bounds must satisfy 0 < rho_min <= rho_max < 1")
    if nu_min > nu_max:
        raise ValueError("grid nu bounds must satisfy nu_min <= nu_max")
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


def _make_config(args: argparse.Namespace) -> RunConfig:
    options = _merged_options(args)
    command = args.command
    output = Path(_require(options, "out"))
    fmt = options.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")

    if command == "sweep":
        return RunConfig(
            command=command,
            output=output,
            format=fmt,
            grid=_parse_grid(_require(options, "grid")),
        )

    params = WalkParams(
        rho=float(_require(options, "rho")),
        nu=parse_angle(_require(options, "nu")),
    )
    coin = CoinSpinor(
        a0=parse_complex(options.get("alpha", "1,0")),
        a1=parse_complex(options.get("beta", "0,0")),
    )

    t = 0
    if command in ("simulate", "compare"):
        t = int(_require(options, "t"))

    return RunConfig(
        command=command,
        output=output,
        format=fmt,
        params=params,
        coin=coin,
        t=t,
        variant=options.get("variant", VARIANTS[0]),
        law=options.get("law", "theorem1"),
        n=int(options.get("n", "0")),
    )


# A file's ASCII text, as bytes and uint8 arrays in order.
Chunks = Iterator[bytes | np.ndarray]


def _csv_text(columns: dict[str, np.ndarray], meta: list[str] | None = None) -> Chunks:
    """``# key,value`` metadata lines, the header, then one line per entry
    of the parallel ``columns``, floats as ``%.17g``."""
    lines = [f"# {key_value}" for key_value in meta] if meta else []
    lines.append(",".join(columns))
    yield ("\n".join(lines) + "\n").encode()
    pieces = ["", *[","] * (len(columns) - 1), "\n"]
    yield from render_rows(pieces, list(columns.values()), shortest=False)


def cmd_simulate(cfg: RunConfig) -> Chunks:
    """Exact distribution and amplitudes after t steps, one row per site.

    Evolved by :func:`~qwalk.fourier.evolve_fourier`; the rows cover
    ``[-t, t]``.
    """
    state = evolve_fourier(cfg.coin, cfg.params, cfg.t, variant=cfg.variant)
    amps = state.amps
    columns = {
        "x": state.positions(),
        "prob": distribution(state).probs,
        "amp0_re": amps[:, 0].real,
        "amp0_im": amps[:, 0].imag,
        "amp1_re": amps[:, 1].real,
        "amp1_im": amps[:, 1].imag,
    }
    if cfg.format == "json":
        return _json_text({"command": "simulate"}, columns)
    return _csv_text(columns)


def cmd_density(cfg: RunConfig) -> Chunks:
    """Limit density on a 2001-point grid padded 5% beyond the support."""
    law = make_limit_law(cfg.law, cfg.params, cfg.coin, n=cfg.n)
    xs = np.linspace(
        -_DENSITY_GRID_PAD * law.support_hi,
        _DENSITY_GRID_PAD * law.support_hi,
        _DENSITY_GRID_POINTS,
    )
    columns = {"x": xs, "density": law.density(xs)}
    if cfg.format == "json":
        return _json_text({"command": "density"}, columns)
    return _csv_text(columns)


def report_to_dict(report: ComparisonReport) -> dict:
    """JSON-ready dictionary of a comparison report."""
    body = _report_header(report)
    columns = _report_columns(report)
    rows = zip(*(c.tolist() for c in columns.values()))
    body["rows"] = [dict(zip(columns, row)) for row in rows]
    return body


def _report_header(report: ComparisonReport) -> dict:
    """Everything of :func:`report_to_dict` but the rows, in its key order."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "t": int(report.t),
        "variant": report.variant,
        "law": report.law_kind,
        "smoothing_width": int(report.smoothing_width),
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
        smoothing_width=int(data["smoothing_width"]),
    )


def cmd_compare(cfg: RunConfig) -> Chunks:
    """Comparison report: metadata block plus per-site rows."""
    report = run_comparison(
        cfg.params,
        cfg.coin,
        cfg.t,
        variant=cfg.variant,
        law_kind=cfg.law,
        n=cfg.n,
    )
    columns = _report_columns(report)
    if cfg.format == "json":
        return _json_text(_report_header(report), columns)
    meta = [
        f"schema_version,{SCHEMA_VERSION}",
        "command,compare",
        f"t,{report.t}",
        f"variant,{report.variant}",
        f"law,{report.law_kind}",
        f"smoothing_width,{report.smoothing_width}",
        f"ks_distance,{_fmt(report.ks_distance)}",
    ]
    meta.extend(
        f"moment_error_r{r},{_fmt(e)}" for r, e in report.moment_errors
    )
    return _csv_text(columns, meta=meta)


def cmd_sweep(cfg: RunConfig) -> Chunks:
    """Support half-width over the (rho, nu) grid, rho-major row order."""
    rho_min, rho_max, rho_steps, nu_min, nu_max, nu_steps = cfg.grid
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
    if cfg.format == "json":
        return _json_text({"command": "sweep"}, columns)
    return _csv_text(columns)


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


_COMMANDS = {
    "simulate": cmd_simulate,
    "density": cmd_density,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Five-diagonal unitary walk: simulation, limit laws, comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value file; flags override it")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"), dest="format")

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rho", help="reflection weight in (0,1)")
        p.add_argument("--nu", help="phase angle (radians or pi-token like pi/2)")
        p.add_argument("--alpha", help="coin amplitude a0 as re,im (default 1,0)")
        p.add_argument("--beta", help="coin amplitude a1 as re,im (default 0,0)")

    p_sim = sub.add_parser("simulate", help="exact finite-time distribution")
    add_params(p_sim)
    p_sim.add_argument("--t", help="number of steps")
    p_sim.add_argument("--variant", choices=VARIANTS)
    add_common(p_sim)

    p_den = sub.add_parser("density", help="limit density on a grid")
    add_params(p_den)
    p_den.add_argument("--law", choices=LAW_KINDS)
    p_den.add_argument("--n", help="branch index of the standard law")
    add_common(p_den)

    p_cmp = sub.add_parser("compare", help="simulation vs limit law report")
    add_params(p_cmp)
    p_cmp.add_argument("--t", help="number of steps")
    p_cmp.add_argument("--variant", choices=VARIANTS)
    p_cmp.add_argument("--law", choices=LAW_KINDS)
    p_cmp.add_argument("--n", help="branch index of the standard law")
    add_common(p_cmp)

    p_swp = sub.add_parser("sweep", help="support half-width over a parameter grid")
    p_swp.add_argument(
        "--grid",
        help="rho_min,rho_max,rho_steps,nu_min,nu_max,nu_steps (angles may use pi-tokens)",
    )
    add_common(p_swp)

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
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_join_dash_values(argv))
    try:
        cfg = _make_config(args)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        chunks = _COMMANDS[cfg.command](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with cfg.output.open("wb") as out:
            out.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write {cfg.output}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
