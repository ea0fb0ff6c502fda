"""Command-line interface: parsing, file formats, golden outputs, exit codes."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from conftest import COIN_BAL, COIN_RIGHT, PARAMS_CANONICAL, PARAMS_SPECIAL

from qwalk import WalkParams, distribution, evolve, support_halfwidth
from qwalk.cli import main, parse_angle, parse_complex, report_from_dict
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
