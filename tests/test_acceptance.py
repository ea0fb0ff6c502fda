"""End-to-end acceptance checks.

Each test prints a one-line ``[PASS]``/``[FAIL]`` verdict with the
measured margin (run ``pytest -s`` to see the passing lines too) and
then asserts, so the suite doubles as a quantitative report.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from conftest import (
    COIN_BAL,
    COIN_GEN,
    COIN_RIGHT,
    PARAM_POINTS,
    PARAMS_SPECIAL,
    PARAMS_CANONICAL,
    REGRESSION_GRID,
    SQ2,
    branch_eigenvectors,
    momentum_branch_derivative,
    phase_rotation,
    shifted_symbol,
)
from scipy.optimize import minimize_scalar

from qwalk import (
    CoinSpinor,
    WalkParams,
    distribution,
    empirical_moment,
    evolve,
    evolve_fourier,
    group_velocity,
    initial_state,
    make_limit_law,
    momentum_branch,
    run_comparison,
    spectral_limit_moment,
    step_cmv_only,
    step_full,
    support_halfwidth,
)
from qwalk import limitlaw
from qwalk.cli import main as cli_main
from qwalk.fourier import _gap_parts

TEN_POINTS = (
    PARAMS_SPECIAL,
    WalkParams(SQ2, 3 * math.pi / 2),
    PARAMS_CANONICAL,
    WalkParams(0.6, 1.0),
    WalkParams(0.85, -1.3),
    WalkParams(0.3, 0.7),
    WalkParams(0.45, 0.9),
    WalkParams(0.2, 2.4),
    WalkParams(0.95, 0.3),
    WalkParams(0.5, -2.0),
)

OFF_SPECIAL_POINTS = (
    PARAMS_CANONICAL,
    WalkParams(0.3, 0.7),
    WalkParams(0.6, 1.0),
    WalkParams(0.85, -1.3),
    WalkParams(0.45, 0.9),
    WalkParams(0.2, 2.4),
    WalkParams(0.95, 0.3),
    WalkParams(0.5, -2.0),
    WalkParams(0.7, 0.0),
    WalkParams(0.35, -2.9),
)


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {name} — {detail}"
    print(line)
    assert ok, line


def _random_points(count: int = 20):
    rng = np.random.default_rng(20260825)
    points = []
    for _ in range(count):
        rho = float(rng.uniform(0.05, 0.95))
        nu = float(rng.uniform(-math.pi, math.pi))
        z = rng.normal(size=4)
        z /= np.linalg.norm(z)
        coin = CoinSpinor(complex(z[0], z[1]), complex(z[2], z[3]))
        points.append((WalkParams(rho, nu), coin))
    return points


def test_criterion_01_unitarity_and_normalization():
    milestones = {1, 10, 100, 500}
    worst = 0.0
    for params, coin in _random_points(20):
        for stepper in (step_full, step_cmv_only):
            state = initial_state(coin)
            for t in range(1, 501):
                state = stepper(state, params)
                if t in milestones:
                    err = abs(distribution(state).total() - 1.0)
                    worst = max(worst, err)
    _verdict(
        1,
        "unitarity & normalization",
        worst <= 1e-10,
        f"max |total mass - 1| = {worst:.3e} over 20 random points,"
        f" both variants, t in {sorted(milestones)} (tol 1e-10)",
    )


def test_criterion_02_picture_equivalence():
    worst = 0.0
    for params in TEN_POINTS:
        for variant, stepper in (
            ("full", step_full),
            ("cmv_only", step_cmv_only),
        ):
            state = initial_state(COIN_GEN)
            for t in range(1, 201):
                state = stepper(state, params)
                if t in (1, 50, 200):
                    direct = distribution(state)
                    spectral = distribution(
                        evolve_fourier(COIN_GEN, params, t, variant=variant)
                    )
                    tv = 0.5 * float(
                        np.sum(np.abs(direct.probs - spectral.probs))
                    )
                    worst = max(worst, tv)
    _verdict(
        2,
        "picture equivalence",
        worst <= 1e-10,
        f"max TV(direct, spectral) = {worst:.3e} on 10 points,"
        " t in {1, 50, 200}, both variants (tol 1e-10)",
    )


def test_criterion_03_eigensystem_fidelity(monkeypatch):
    """The package's eigenvalues ``1j*s +/- sqrt(gap_sq)`` on a k-grid, and
    its closed-form branch weights at the spectral route's nodes, against
    numpy's eigenvectors of the symbol."""
    ks = np.linspace(-math.pi, math.pi, 1000)
    worst_mod = 0.0
    worst_res = 0.0
    worst_weight = 0.0
    rule_nodes, panel_rule = [], limitlaw._panel_rule

    def recorded_rule(lo, hi):
        k, weights = panel_rule(lo, hi)
        rule_nodes.append(k.ravel().copy())
        return k, weights

    monkeypatch.setattr(limitlaw, "_panel_rule", recorded_rule)
    for params in OFF_SPECIAL_POINTS:
        s, root = _gap_parts(np.cos(ks), np.sin(ks), params)
        values = np.stack((1j * s + root, 1j * s - root), 1)
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(values) - 1.0))))
        for k, pair in zip(ks, values):
            symbol = shifted_symbol(float(k), params)
            vectors = branch_eigenvectors(float(k), params)
            for j in range(2):
                residual = symbol @ vectors[:, j] - pair[j] * vectors[:, j]
                worst_res = max(worst_res, float(np.linalg.norm(residual)))
        rule_nodes.clear()
        _, weight_plus, weight_minus = limitlaw._spectral_nodes.__wrapped__(
            params, COIN_GEN
        )
        phi = phase_rotation(params.nu / 2) @ COIN_GEN.as_array()
        share = weight_plus / (weight_plus + weight_minus)
        for k, got in zip(rule_nodes[0], share):
            overlap = abs(np.vdot(branch_eigenvectors(float(k), params)[:, 0], phi))
            worst_weight = max(worst_weight, abs(got - overlap**2))
    ok = worst_mod <= 1e-12 and worst_res <= 1e-10 and worst_weight <= 1e-10
    _verdict(
        3,
        "eigen-system fidelity",
        ok,
        f"max ||lambda|-1| = {worst_mod:.3e} (tol 1e-12),"
        f" max residual = {worst_res:.3e} (tol 1e-10),"
        " 1000-point k-grid x 10 points;"
        f" max branch-weight error = {worst_weight:.3e} (tol 1e-10)"
        " at the spectral nodes",
    )


def test_criterion_04_special_case_reduction():
    xs = np.linspace(-0.9, 0.9, 200)
    worst = 0.0
    for n, params in ((0, PARAMS_SPECIAL), (1, WalkParams(SQ2, 3 * math.pi / 2))):
        for coin in (COIN_BAL, COIN_RIGHT, COIN_GEN):
            general = make_limit_law("theorem1", params, coin)
            special = make_limit_law("standard", params, coin, n=n)
            worst = max(
                worst,
                float(np.max(np.abs(general.density(xs) - special.density(xs)))),
            )
    _verdict(
        4,
        "special-case reduction",
        worst <= 1e-12,
        f"max |theorem1 - standard| = {worst:.3e} at 200 sample points,"
        " both special parameter pairs (tol 1e-12)",
    )


def test_criterion_05_support_halfwidth_anchors():
    err_special = abs(support_halfwidth(PARAMS_SPECIAL) - SQ2)
    err_zero = max(
        abs(
            support_halfwidth(WalkParams(rho, 0.0))
            - rho * math.sqrt(1.0 - rho * rho)
        )
        for rho in np.linspace(0.05, 0.95, 10)
    )
    err_max = 0.0
    for params in PARAM_POINTS:
        ks = np.linspace(-math.pi, math.pi, 4001)
        i = int(np.argmax(np.abs(group_velocity(ks, params))))
        refined = minimize_scalar(
            lambda k: -abs(group_velocity(float(k), params)),
            bounds=(ks[max(i - 1, 0)], ks[min(i + 1, len(ks) - 1)]),
            method="bounded",
            options={"xatol": 1e-12},
        )
        err_max = max(err_max, abs(-refined.fun - support_halfwidth(params)))
    ok = err_special <= 1e-12 and err_zero <= 1e-12 and err_max <= 1e-8
    _verdict(
        5,
        "support half-width anchors",
        ok,
        f"special-point error {err_special:.3e} (tol 1e-12),"
        f" nu=0 error {err_zero:.3e} over 10 rho (tol 1e-12),"
        f" max-velocity error {err_max:.3e} on 5 points (tol 1e-8)",
    )


def test_criterion_06_moment_routes_agree():
    worst = 0.0
    for params in (*PARAM_POINTS, PARAMS_SPECIAL, WalkParams(SQ2, 3 * math.pi / 2)):
        for coin in (COIN_BAL, CoinSpinor(0.8, complex(0.36, 0.48))):
            law = make_limit_law("theorem1", params, coin)
            for r in range(4):
                diff = abs(law.moment(r) - spectral_limit_moment(r, params, coin))
                worst = max(worst, diff)
    _verdict(
        6,
        "dual moment routes",
        worst <= 1e-6,
        f"max |density-route - spectral-route| = {worst:.3e} for"
        " r in 0..3 on 5 off-special points and both special pairs,"
        " two coins (tol 1e-6)",
    )


def test_criterion_07_weak_convergence():
    configs = (
        (PARAMS_SPECIAL, "full", "theorem1"),
        (PARAMS_CANONICAL, "full", "theorem1"),
        (PARAMS_CANONICAL, "cmv_only", "cmv_only"),
    )
    worst_ks = 0.0
    worst_gap = -1.0
    worst_m1 = 0.0
    for params, variant, law_kind in configs:
        for coin in (COIN_BAL, COIN_RIGHT):
            reports = {
                t: run_comparison(
                    params, coin, t, variant=variant, law_kind=law_kind
                )
                for t in (100, 500)
            }
            worst_ks = max(worst_ks, reports[500].ks_distance)
            worst_gap = max(
                worst_gap,
                reports[500].ks_distance - reports[100].ks_distance,
            )
            worst_m1 = max(worst_m1, dict(reports[500].moment_errors)[1])
    ok = worst_ks <= 0.05 and worst_gap < 0.0 and worst_m1 <= 0.01
    _verdict(
        7,
        "weak convergence",
        ok,
        f"max ks(500) = {worst_ks:.4f} (tol 0.05),"
        f" max ks(500)-ks(100) = {worst_gap:.4f} (< 0 required),"
        f" max first-moment error = {worst_m1:.2e} (tol 0.01),"
        " 3 configurations x 2 coins",
    )


def test_criterion_08_change_of_variables():
    worst_fd = 0.0
    worst_inv = 0.0
    for params in PARAM_POINTS:
        hstar = support_halfwidth(params)
        xs = np.linspace(0.0, hstar, 102)[1:-1]
        eps = np.minimum(1e-6, (hstar - xs) / 4)
        for sign in (1, -1):
            fd = (
                momentum_branch(xs + eps, params, sign)
                - momentum_branch(xs - eps, params, sign)
            ) / (2 * eps)
            exact = momentum_branch_derivative(xs, params, sign)
            worst_fd = max(worst_fd, float(np.max(np.abs(exact - fd))))
            ks = momentum_branch(xs, params, sign)
            worst_inv = max(
                worst_inv,
                float(np.max(np.abs(group_velocity(ks, params) - xs))),
            )
    ok = worst_fd <= 1e-6 and worst_inv <= 1e-10
    _verdict(
        8,
        "change of variables",
        ok,
        f"max |dk/dx - finite difference| = {worst_fd:.3e} (tol 1e-6),"
        f" max |h(k(x)) - x| = {worst_inv:.3e} (tol 1e-10),"
        " 100 interior points x 5 parameter points, both branches",
    )


def test_criterion_09_density_normalization():
    worst = 0.0
    for params, coin, _, law_kind, n in REGRESSION_GRID:
        law = make_limit_law(law_kind, params, coin, n=n)
        worst = max(worst, abs(law.moment(0) - 1.0))
    _verdict(
        9,
        "density normalization",
        worst <= 1e-6,
        f"max |integral - 1| = {worst:.3e} across the regression grid,"
        " all three law kinds (tol 1e-6)",
    )


def test_criterion_10_sign_discrimination():
    t = 500
    dist = distribution(evolve(COIN_BAL, PARAMS_SPECIAL, t))
    simulated = empirical_moment(dist, t, 1)
    base = 1.0 - SQ2
    cross_im = (COIN_BAL.a0 * np.conj(COIN_BAL.a1)).imag
    m1_minus = (abs(COIN_BAL.a0) ** 2 - abs(COIN_BAL.a1) ** 2 + 2 * cross_im) * base
    m1_plus = (abs(COIN_BAL.a0) ** 2 + abs(COIN_BAL.a1) ** 2 + 2 * cross_im) * base
    law = make_limit_law("standard", PARAMS_SPECIAL, COIN_BAL, n=0)
    err_minus = abs(simulated - m1_minus)
    err_plus = abs(simulated - m1_plus)
    err_law = abs(law.moment(1) - m1_minus)
    ok = err_minus <= 0.01 and err_plus > 0.05 and err_law <= 1e-9
    _verdict(
        10,
        "sign discrimination",
        ok,
        f"simulated m1 = {simulated:.5f}; difference-form error"
        f" {err_minus:.2e} (tol 0.01), sum-form error {err_plus:.3f}"
        f" (> 0.05 required), law matches difference form to {err_law:.1e}",
    )


def test_criterion_11_cli_determinism_and_schema(tmp_path):
    def run(*argv):
        return cli_main([str(a) for a in argv])

    flags = [
        "--rho",
        "0.70710678118654757",
        "--nu",
        "pi/4",
        "--alpha",
        "0.70710678118654757,0",
        "--beta",
        "0,0.70710678118654757",
    ]
    identical = True
    for argv in (
        ["simulate", *flags, "--t", "60"],
        ["compare", *flags, "--t", "80"],
        ["density", *flags],
        ["sweep", "--grid", "0.2,0.8,3,0,pi,4"],
    ):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*argv, "--out", a) == 0
        assert run(*argv, "--out", b) == 0
        identical = identical and a.read_bytes() == b.read_bytes()

    out = tmp_path / "golden"
    assert run("simulate", *flags, "--t", "2", "--out", out) == 0
    headers_ok = (
        out.read_text().splitlines()[0]
        == "x,prob,amp0_re,amp0_im,amp1_re,amp1_im"
    )
    assert run("density", *flags, "--out", out) == 0
    headers_ok = headers_ok and out.read_text().splitlines()[0] == "x,density"
    assert run("compare", *flags, "--t", "20", "--out", out) == 0
    lines = out.read_text().splitlines()
    headers_ok = (
        headers_ok
        and lines[0] == "# schema_version,2"
        and lines[8] == "x,simulated,approx"
    )
    assert run("sweep", "--grid", "0.2,0.8,3,0,pi,4", "--out", out) == 0
    headers_ok = headers_ok and out.read_text().splitlines()[0] == "rho,nu,h_star"

    assert (
        run("compare", *flags, "--t", "20", "--format", "json", "--out", out)
        == 0
    )
    payload = json.loads(out.read_text())
    schema_ok = set(payload) == {
        "schema_version",
        "command",
        "t",
        "variant",
        "law",
        "ks_distance",
        "moment_errors",
        "rows",
    } and payload["schema_version"] == 2
    assert run("simulate", *flags, "--t", "2", "--format", "json", "--out", out) == 0
    payload = json.loads(out.read_text())
    schema_ok = schema_ok and set(payload) == {
        "schema_version",
        "command",
        "rows",
    }

    ok = identical and headers_ok and schema_ok
    _verdict(
        11,
        "CLI determinism & schema",
        ok,
        f"byte-identical reruns: {identical}; golden headers: {headers_ok};"
        f" JSON schema keys: {schema_ok}",
    )
