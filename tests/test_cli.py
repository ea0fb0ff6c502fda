"""Command-line interface: parsing, file formats, golden outputs, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import COIN_BAL, COIN_RIGHT, PARAMS_CANONICAL, PARAMS_SPECIAL, SQ2

import qwalk
from qwalk import (
    CoinSpinor,
    WalkParams,
    distribution,
    evolve,
    evolve_fourier,
    make_limit_law,
    run_comparison,
    support_halfwidth,
)
from qwalk.cli import _json_text, main, parse_angle, parse_complex, report_from_dict
from qwalk.fourier import MAX_STEPS

CANON_FLAGS = ["--rho", "0.70710678118654757", "--nu", "pi/4"]
BAL_FLAGS = [
    "--alpha",
    "0.70710678118654757,0",
    "--beta",
    "0,0.70710678118654757",
]


def run_cli(*argv):
    return main([str(a) for a in argv])


# --------------------------------------------------------------- parsing


@pytest.mark.parametrize(
    "text, expected",
    [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("-pi/4", -math.pi / 4),
        ("3pi/4", 3 * math.pi / 4),
        ("2pi", 2 * math.pi),
        ("+pi/3", math.pi / 3),
        (" PI / 2 ", math.pi / 2),
        ("0.75", 0.75),
        ("-1.5e-1", -0.15),
    ],
)
def test_parse_angle(text, expected):
    assert parse_angle(text) == pytest.approx(expected, abs=0.0)


@pytest.mark.parametrize("text", ["pi/0", "pie", "2pi/", ""])
def test_parse_angle_rejects_bad_tokens(text):
    with pytest.raises(ValueError):
        parse_angle(text)


def test_parse_complex():
    assert parse_complex("0.6,0.8") == complex(0.6, 0.8)
    assert parse_complex("-1") == complex(-1.0, 0.0)
    with pytest.raises(ValueError):
        parse_complex("1,2,3")
    with pytest.raises(ValueError):
        parse_complex("a,b")


# -------------------------------------------------------------- simulate


def test_simulate_time_zero_golden(tmp_path):
    out = tmp_path / "t0.csv"
    rc = run_cli(
        "simulate", *CANON_FLAGS, "--t", 0, "--out", out
    )
    assert rc == 0
    assert out.read_text().splitlines() == [
        "x,prob,amp0_re,amp0_im,amp1_re,amp1_im",
        "0,1,1,0,0,0",
    ]


def test_simulate_long_run_row_count_and_mass(tmp_path):
    out = tmp_path / "long.csv"
    assert run_cli(
        "simulate", *CANON_FLAGS, *BAL_FLAGS, "--t", 500, "--out", out
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,prob,amp0_re,amp0_im,amp1_re,amp1_im"
    assert len(lines) == 1 + 1001
    probs = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert abs(probs.sum() - 1.0) <= 1e-10
    xs = [int(line.split(",")[0]) for line in lines[1:]]
    assert xs[0] == -500 and xs[-1] == 500


def test_simulate_json_round_trips_amplitudes(tmp_path):
    out = tmp_path / "t0.json"
    assert run_cli(
        "simulate", *CANON_FLAGS, "--t", 0, "--format", "json", "--out", out
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["command"] == "simulate"
    assert payload["rows"] == [
        {
            "x": 0,
            "prob": 1.0,
            "amp0_re": 1.0,
            "amp0_im": 0.0,
            "amp1_re": 0.0,
            "amp1_im": 0.0,
        }
    ]


def test_repeated_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["simulate", *CANON_FLAGS, *BAL_FLAGS, "--t", 60]
    assert run_cli(*argv, "--out", first) == 0
    assert run_cli(*argv, "--out", second) == 0
    assert first.read_bytes() == second.read_bytes()

    argv = ["compare", *CANON_FLAGS, *BAL_FLAGS, "--t", 80]
    assert run_cli(*argv, "--out", first) == 0
    assert run_cli(*argv, "--out", second) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "params, coin, variant",
    [
        (PARAMS_CANONICAL, COIN_BAL, "full"),
        (PARAMS_SPECIAL, COIN_BAL, "full"),
        (WalkParams(0.5, 1.2), COIN_RIGHT, "cmv_only"),
    ],
)
def test_simulate_matches_lattice_oracle(tmp_path, params, coin, variant):
    t = 300
    out = tmp_path / "sim.csv"
    assert run_cli(
        "simulate",
        "--rho", repr(params.rho),
        "--nu", repr(params.nu),
        "--alpha", f"{coin.a0.real!r},{coin.a0.imag!r}",
        "--beta", f"{coin.a1.real!r},{coin.a1.imag!r}",
        "--variant", variant,
        "--t", t,
        "--out", out,
    ) == 0
    data = np.array(
        [[float(v) for v in line.split(",")]
         for line in out.read_text().splitlines()[1:]]
    )
    oracle = evolve(coin, params, t, variant=variant)
    np.testing.assert_array_equal(data[:, 0], oracle.positions())
    assert 0.5 * np.sum(np.abs(data[:, 1] - distribution(oracle).probs)) <= 1e-12
    amps = data[:, 2:6:2] + 1j * data[:, 3:6:2]
    np.testing.assert_allclose(amps, oracle.amps, rtol=0.0, atol=1e-12)


# --------------------------------------------------------------- density


def density_file(tmp_path, name, *flags):
    out = tmp_path / name
    assert run_cli("density", *flags, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,density"
    data = np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:]]
    )
    return data[:, 0], data[:, 1]


@pytest.mark.parametrize(
    "flags",
    [
        ["--rho", "0.85", "--nu", "-1.3", *BAL_FLAGS],
        ["--rho", "0.70710678118654757", "--nu", "pi/4", *BAL_FLAGS],
        ["--rho", "0.85", "--nu", "0.7", "--law", "cmv_only"],
    ],
)
def test_density_grid_mass_and_padding(tmp_path, flags):
    xs, vals = density_file(tmp_path, "d.csv", *flags)
    assert len(xs) == 2001
    # grid extends 5% beyond the support, so the ends must be exactly zero
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert abs(np.trapezoid(vals, xs) - 1.0) <= 5e-3
    assert np.min(vals) >= 0.0


def test_density_standard_branches_are_mirror_images(tmp_path):
    xs0, vals0 = density_file(
        tmp_path,
        "n0.csv",
        "--rho",
        "0.70710678118654757",
        "--nu",
        "pi/2",
        *BAL_FLAGS,
        "--law",
        "standard",
        "--n",
        "0",
    )
    xs1, vals1 = density_file(
        tmp_path,
        "n1.csv",
        "--rho",
        "0.70710678118654757",
        "--nu",
        "3pi/2",
        *BAL_FLAGS,
        "--law",
        "standard",
        "--n",
        "1",
    )
    np.testing.assert_allclose(xs0, xs1, atol=1e-15)
    np.testing.assert_allclose(vals0, vals1[::-1], atol=1e-12)


# --------------------------------------------------------------- compare


def test_compare_csv_metadata_block(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run_cli(
        "compare", *CANON_FLAGS, *BAL_FLAGS, "--t", 100, "--out", out
    ) == 0
    lines = out.read_text().splitlines()
    meta_keys = [
        line[2:].split(",")[0] for line in lines if line.startswith("# ")
    ]
    assert meta_keys == [
        "schema_version",
        "command",
        "t",
        "variant",
        "law",
        "smoothing_width",
        "ks_distance",
        "moment_error_r1",
        "moment_error_r2",
    ]
    meta = dict(line[2:].split(",", 1) for line in lines[:9])
    assert meta["schema_version"] == "1"
    assert meta["t"] == "100"
    assert meta["variant"] == "full"
    assert meta["law"] == "theorem1"
    assert 0.0 < float(meta["ks_distance"]) <= 0.1
    assert lines[9] == "x,simulated,approx"
    assert len(lines) == 9 + 1 + 201


def test_compare_json_round_trip(tmp_path):
    out = tmp_path / "cmp.json"
    assert run_cli(
        "compare",
        *CANON_FLAGS,
        *BAL_FLAGS,
        "--t",
        50,
        "--format",
        "json",
        "--out",
        out,
    ) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "schema_version",
        "command",
        "t",
        "variant",
        "law",
        "smoothing_width",
        "ks_distance",
        "moment_errors",
        "rows",
    }
    report = report_from_dict(payload)
    assert report.t == 50
    assert len(report.positions) == 101
    assert report.simulated.sum() == pytest.approx(1.0, abs=1e-12)

    payload["schema_version"] = 999
    with pytest.raises(ValueError):
        report_from_dict(payload)


# ----------------------------------------------------------------- sweep


def test_sweep_golden_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        "sweep",
        "--grid",
        "0.70710678118654757,0.9,3,0,pi,5",
        "--out",
        out,
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,nu,h_star"
    assert len(lines) == 1 + 15
    # exact row at the special parameter pair: h* = rho = 1/sqrt(2)
    assert (
        "0.70710678118654757,1.5707963267948966,0.70710678118654757" in lines
    )
    table = np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:]]
    )
    # nu = 0 rows carry h* = rho * rho0
    for rho, nu, h in table[np.abs(table[:, 1]) < 1e-15]:
        assert h == pytest.approx(rho * math.sqrt(1 - rho * rho), abs=1e-12)
    # reflection symmetry nu <-> pi - nu within each rho block
    for rho in np.unique(table[:, 0]):
        block = table[table[:, 0] == rho]
        for (_, nu_a, h_a), (_, nu_b, h_b) in zip(block, block[::-1]):
            assert nu_a + nu_b == pytest.approx(math.pi, abs=1e-12)
            assert h_a == pytest.approx(h_b, abs=1e-12)


def test_sweep_matches_library_values(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--grid", "0.2,0.8,4,-pi,pi,3", "--out", out) == 0
    for line in out.read_text().splitlines()[1:]:
        rho, nu, h = (float(v) for v in line.split(","))
        assert h == pytest.approx(
            support_halfwidth(WalkParams(rho, nu)), abs=1e-15
        )


# ------------------------------------------------- byte-identical rendering
#
# The renderings below are the per-value format(x, ".17g") and
# json.dumps(..., indent=2) forms that the command files must keep
# matching byte for byte.


def _old_fmt(value) -> str:
    return format(float(value), ".17g")


def _old_csv(header, rows, meta=None) -> str:
    lines = [f"# {key_value}" for key_value in meta] if meta else []
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _old_json(payload) -> str:
    body = {"schema_version": 1}
    body.update(payload)
    return json.dumps(body, indent=2) + "\n"


def _coin_flags(coin):
    return [
        "--alpha", f"{coin.a0.real!r},{coin.a0.imag!r}",
        "--beta", f"{coin.a1.real!r},{coin.a1.imag!r}",
    ]


def _cli_text(tmp_path, fmt, *argv):
    out = tmp_path / f"out.{fmt}"
    assert run_cli(*argv, "--format", fmt, "--out", out) == 0
    return out.read_text()


RENDER_CASES = [
    (PARAMS_CANONICAL, COIN_BAL, "full", 0),
    (WalkParams(0.85, -1.3), CoinSpinor(0.6, 0.8j), "full", 257),
    (PARAMS_SPECIAL, COIN_BAL, "full", 64),
    (WalkParams(0.5, 1.2), COIN_RIGHT, "cmv_only", 120),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("params, coin, variant, t", RENDER_CASES)
def test_simulate_rendering_is_byte_identical(
    tmp_path, fmt, params, coin, variant, t
):
    text = _cli_text(
        tmp_path, fmt, "simulate", "--rho", repr(params.rho), "--nu", repr(params.nu),
        *_coin_flags(coin), "--variant", variant, "--t", t,
    )
    state = evolve_fourier(coin, params, t, variant=variant)
    probs = distribution(state).probs
    xs = state.positions()
    if fmt == "json":
        rows = [
            {
                "x": int(x),
                "prob": float(p),
                "amp0_re": float(a[0].real),
                "amp0_im": float(a[0].imag),
                "amp1_re": float(a[1].real),
                "amp1_im": float(a[1].imag),
            }
            for x, p, a in zip(xs, probs, state.amps)
        ]
        assert text == _old_json({"command": "simulate", "rows": rows})
    else:
        rows = [
            ",".join(
                (str(int(x)), _old_fmt(p), _old_fmt(a[0].real), _old_fmt(a[0].imag),
                 _old_fmt(a[1].real), _old_fmt(a[1].imag))
            )
            for x, p, a in zip(xs, probs, state.amps)
        ]
        assert text == _old_csv("x,prob,amp0_re,amp0_im,amp1_re,amp1_im", rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "params, coin, variant, law_kind, n",
    [
        (WalkParams(0.85, -1.3), CoinSpinor(0.6, 0.8j), "full", "theorem1", 0),
        (WalkParams(SQ2, 3 * math.pi / 2), COIN_RIGHT, "full", "standard", 1),
        (WalkParams(0.3, 0.7), COIN_BAL, "cmv_only", "cmv_only", 0),
    ],
)
def test_compare_rendering_is_byte_identical(
    tmp_path, fmt, params, coin, variant, law_kind, n
):
    t = 150
    text = _cli_text(
        tmp_path, fmt, "compare", "--rho", repr(params.rho), "--nu", repr(params.nu),
        *_coin_flags(coin), "--variant", variant, "--law", law_kind, "--n", n, "--t", t,
    )
    report = run_comparison(params, coin, t, variant=variant, law_kind=law_kind, n=n)
    triples = zip(report.positions, report.simulated, report.approx)
    if fmt == "json":
        expected = _old_json(
            {
                "schema_version": 1,
                "command": "compare",
                "t": int(report.t),
                "variant": report.variant,
                "law": report.law_kind,
                "smoothing_width": int(report.smoothing_width),
                "ks_distance": float(report.ks_distance),
                "moment_errors": [
                    {"r": int(r), "error": float(e)} for r, e in report.moment_errors
                ],
                "rows": [
                    {"x": int(x), "simulated": float(s), "approx": float(a)}
                    for x, s, a in triples
                ],
            }
        )
    else:
        meta = [
            "schema_version,1",
            "command,compare",
            f"t,{report.t}",
            f"variant,{report.variant}",
            f"law,{report.law_kind}",
            f"smoothing_width,{report.smoothing_width}",
            f"ks_distance,{_old_fmt(report.ks_distance)}",
        ]
        meta.extend(f"moment_error_r{r},{_old_fmt(e)}" for r, e in report.moment_errors)
        rows = [f"{int(x)},{_old_fmt(s)},{_old_fmt(a)}" for x, s, a in triples]
        expected = _old_csv("x,simulated,approx", rows, meta=meta)
    assert text == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_and_sweep_rendering_is_byte_identical(tmp_path, fmt):
    params = WalkParams(0.85, -1.3)
    text = _cli_text(
        tmp_path, fmt, "density", "--rho", "0.85", "--nu", "-1.3", *BAL_FLAGS
    )
    law = make_limit_law("theorem1", params, COIN_BAL)
    xs = np.linspace(-1.05 * law.support_hi, 1.05 * law.support_hi, 2001)
    pairs = list(zip(xs, law.density(xs)))
    if fmt == "json":
        rows = [{"x": float(x), "density": float(v)} for x, v in pairs]
        assert text == _old_json({"command": "density", "rows": rows})
    else:
        rows = [f"{_old_fmt(x)},{_old_fmt(v)}" for x, v in pairs]
        assert text == _old_csv("x,density", rows)

    text = _cli_text(tmp_path, fmt, "sweep", "--grid", "0.2,0.8,4,-pi/2,pi,5")
    triples = [
        (rho, nu, support_halfwidth(WalkParams(float(rho), float(nu))))
        for rho in np.linspace(0.2, 0.8, 4)
        for nu in np.linspace(-math.pi / 2, math.pi, 5)
    ]
    if fmt == "json":
        rows = [
            {"rho": float(r), "nu": float(v), "h_star": float(h)}
            for r, v, h in triples
        ]
        assert text == _old_json({"command": "sweep", "rows": rows})
    else:
        rows = [f"{_old_fmt(r)},{_old_fmt(v)},{_old_fmt(h)}" for r, v, h in triples]
        assert text == _old_csv("rho,nu,h_star", rows)


@pytest.mark.parametrize(
    "columns",
    [
        {"x": np.array([-1, 0, 1]), "v": np.array([0.25, math.nan, 1e-300])},
        {"x": np.array([0, 1]), "v": np.array([math.inf, -math.inf])},
        {"x": np.array([], dtype=int), "v": np.array([])},
    ],
)
def test_json_rows_with_non_finite_or_no_values_match_json_dumps(columns):
    rows = [
        {"x": x, "v": v} for x, v in zip(columns["x"].tolist(), columns["v"].tolist())
    ]
    expected = _old_json({"command": "t", "rows": rows})
    assert _json_text({"command": "t"}, columns) == expected


# --------------------------------------------------- config file and exits


def test_config_file_with_flag_override(tmp_path):
    out = tmp_path / "cfg_run.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# walk configuration\n"
        "rho = 0.6\n"
        "nu = 1.0\n"
        "t = 5\n"
        f"out = {out}\n"
    )
    assert run_cli("simulate", "--config", cfg, "--t", 7) == 0
    lines = out.read_text().splitlines()
    # --t 7 overrides the config's t = 5: window is [-7, 7]
    assert len(lines) == 1 + 15
    assert lines[1].split(",")[0] == "-7"


def test_config_file_alone_supplies_everything(tmp_path):
    out = tmp_path / "cfg_only.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"rho=0.6\nnu=1.0\nt=5\nout={out}\n")
    assert run_cli("simulate", "--config", cfg) == 0
    assert len(out.read_text().splitlines()) == 1 + 11


def test_malformed_config_line_is_a_parameter_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho 0.6\n")
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "x") == 2


def test_missing_config_file_is_an_io_error(tmp_path):
    rc = run_cli(
        "simulate", "--config", tmp_path / "absent.cfg", "--out", tmp_path / "x"
    )
    assert rc == 1


def test_invalid_coin_exits_2_without_output(tmp_path):
    out = tmp_path / "never.csv"
    rc = run_cli(
        "simulate",
        "--rho",
        "0.6",
        "--nu",
        "1.0",
        "--t",
        3,
        "--alpha",
        "1,0",
        "--beta",
        "1,0",
        "--out",
        out,
    )
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--rho", "0.6", "--nu", "0.3", "--alpha", "nan,0"],
        ["--rho", "0.6", "--nu", "0.3", "--alpha", "1,0", "--beta", "0,inf"],
        ["--rho", "0.6", "--nu", "inf"],
        ["--rho", "nan", "--nu", "0.3"],
    ],
)
def test_non_finite_input_exits_2_without_output(tmp_path, flags):
    out = tmp_path / "never.csv"
    assert run_cli("simulate", *flags, "--t", 5, "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_step_count_over_cap_exits_2_without_output(tmp_path, command):
    # refused before any array is built; never run a step count near the cap
    out = tmp_path / "never.csv"
    rc = run_cli(command, *CANON_FLAGS, "--t", MAX_STEPS + 1, "--out", out)
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, rest",
    [
        ("density", "--nu", "-pi/4", ["--rho", "0.6"]),
        (
            "simulate",
            "--beta",
            "-0.6,0",
            ["--rho", "0.6", "--nu", "1.0", "--alpha", "0.8,0", "--t", "4"],
        ),
    ],
)
def test_negative_value_as_separate_argument(tmp_path, command, flag, value, rest):
    joined = tmp_path / "joined.csv"
    spaced = tmp_path / "spaced.csv"
    assert run_cli(command, *rest, f"{flag}={value}", "--out", joined) == 0
    assert run_cli(command, *rest, flag, value, "--out", spaced) == 0
    assert spaced.read_bytes() == joined.read_bytes()


def test_missing_required_option_exits_2(tmp_path):
    assert run_cli(
        "simulate", "--rho", "0.6", "--nu", "1.0", "--out", tmp_path / "x"
    ) == 2
    assert run_cli("simulate", "--rho", "0.6", "--nu", "1.0", "--t", 3) == 2


def test_unwritable_output_exits_1(tmp_path):
    rc = run_cli(
        "simulate",
        "--rho",
        "0.6",
        "--nu",
        "1.0",
        "--t",
        2,
        "--out",
        tmp_path / "no_such_dir" / "out.csv",
    )
    assert rc == 1


def test_bad_grid_exits_2(tmp_path):
    assert run_cli(
        "sweep", "--grid", "0.9,0.5,3,0,pi,5", "--out", tmp_path / "x"
    ) == 2
    assert run_cli(
        "sweep", "--grid", "0.2,0.8,3,0,pi", "--out", tmp_path / "x"
    ) == 2


def test_law_variant_mismatch_exits_2(tmp_path):
    rc = run_cli(
        "compare",
        *CANON_FLAGS,
        "--t",
        10,
        "--law",
        "cmv_only",
        "--out",
        tmp_path / "x",
    )
    assert rc == 2


def test_standard_law_off_special_exits_2(tmp_path):
    rc = run_cli(
        "density",
        "--rho",
        "0.6",
        "--nu",
        "1.0",
        "--law",
        "standard",
        "--out",
        tmp_path / "x",
    )
    assert rc == 2
    assert not (tmp_path / "x").exists()


# ----------------------------------------------------------- dependencies


def test_package_and_compare_load_no_scipy(tmp_path):
    """The runtime needs numpy only: a fresh interpreter that imports the
    package and runs one ``compare`` has no ``scipy`` module loaded."""
    out = tmp_path / "cmp.csv"
    script = "\n".join(
        (
            "import sys",
            "import qwalk, qwalk.cli",
            "out = '--out=' + sys.argv[1]",
            "argv = ['compare', '--rho=0.6', '--nu=0.7', '--t=50', out]",
            "assert qwalk.cli.main(argv) == 0",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
    )
    env = dict(os.environ)
    src = str(Path(qwalk.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert out.read_text().startswith("# schema_version,")
