"""The three benchmark workloads: seeded inputs, one timed op, its checks.

Every workload is a closed loop of one client.  Ops come in rounds of a
fixed make-up (see ``README.md``); a run attempts whole rounds only.
Parameters are stratified draws, so every run covers the parameter
ranges the same way and costs about the same whatever the seed.

Each workload offers:

``warm_up()``        one untimed op on fixed, seed-independent inputs;
``round_ops(r)``     the op list of round ``r``, drawn from ``(seed, r)``;
``run(op)``          the timed op; returns its raw result;
``twin(op)``         the same op on a phase-rotated coin (see ``_twin``),
                     run untraced after each traced op to time the tracing;
``load(op, raw)``    untimed: turns the raw result into what is checked
                     (``compare_cli`` reads its output file back here);
``check(op, res)``   independent checks, a list of failure messages;
``corruptions(op, res)``  ``(label, op, result)`` triples whose result
                     is corrupted; ``check`` must reject each (the checker
                     self-test).
"""

from __future__ import annotations

import cmath
import copy
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import qwalk
import qwalk.cli
from qwalk import CoinSpinor, WalkParams

from oracles import closed_form_cdf, spectral_moments

RHO_RANGE = (0.3, 0.85)
NU_RANGE = (-math.pi, math.pi)
SQ2 = math.sqrt(0.5)
# Fixed warm-up inputs: the canonical point of the package's own tests.
WARM_PARAMS = WalkParams(0.6, 0.7)
WARM_COIN = CoinSpinor(SQ2, 1j * SQ2)

# Random draws stay out of a box of these half-widths (in rho, in nu)
# around each special point rho = 1/sqrt(2), nu = +-pi/2.  Inside it the
# package's theorem1 quadrature and spectral moments lose the accuracy
# the checks demand (see the FOUND lines in CHANGES.md); outside it the
# largest moment(0) error seen is 3.9e-9.
SPECIAL_BOX = (0.03, 0.1)
TWIN_PHASE = cmath.exp(1j)

# Round make-up shared by compare_cli and law_queries: 20 ops, of which
# 5 swap-free (cmv_only) ops at these positions, one special-set
# (standard) op, and theorem1 ops everywhere else.
ROUND_SIZE = 20
CMV_POSITIONS = (1, 4, 9, 12, 17)
STANDARD_POSITION = 10
# Parameter cells per cycle of 5 rounds (100 ops, the least a run holds):
# (rho bins, nu bins, step) for 14 theorem1 and 5 cmv_only points a round.
CYCLE = 5
CYCLE_GRID = {"theorem1": (7, 10, 2), "cmv_only": (5, 5, 1)}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _unit_coin(rng: np.random.Generator) -> CoinSpinor:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return CoinSpinor(complex(v[0], v[1]), complex(v[2], v[3]))


def _near_special(rho: float, nu: float) -> bool:
    return (
        abs(rho - SQ2) < SPECIAL_BOX[0]
        and abs(abs(nu) - math.pi / 2) < SPECIAL_BOX[1]
    )


def _draw_in_cell(
    rng: np.random.Generator, i: int, n_rho: int, j: int, n_nu: int
) -> WalkParams:
    """A uniform point of cell ``(i, j)`` of an ``n_rho`` x ``n_nu`` grid
    over the parameter ranges, drawn again while it is near the special set."""
    (rlo, rhi), (nlo, nhi) = RHO_RANGE, NU_RANGE
    while True:
        rho = rlo + (rhi - rlo) * (i + rng.random()) / n_rho
        nu = nlo + (nhi - nlo) * (j + rng.random()) / n_nu
        if not _near_special(rho, nu):
            return WalkParams(float(rho), float(nu))


def _latin_params(rng: np.random.Generator, n: int) -> list[WalkParams]:
    """``n`` points, one in each of ``n`` equal bins of each range."""
    return [
        _draw_in_cell(rng, i, n, j, n)
        for i, j in zip(rng.permutation(n), rng.permutation(n))
    ]


@dataclass
class LawSpec:
    """One (params, coin, evolution variant, law kind, branch) point."""

    params: WalkParams
    coin: CoinSpinor
    variant: str
    kind: str
    n: int = 0
    nu_text: str = ""

    @property
    def special(self) -> bool:
        return self.kind == "standard"


def _cycle_params(rng: np.random.Generator, kind: str, r: int) -> list[WalkParams]:
    """The points of round ``r`` for one law kind, in shuffled order.

    Each kind's (rho, nu) ranges are cut into a grid of cells, and each
    cycle of ``CYCLE`` rounds puts one point in every cell; round ``r``
    takes the cells with ``(j + step * i) % CYCLE == r % CYCLE``, which
    spread over both ranges.
    """
    n_rho, n_nu, step = CYCLE_GRID[kind]
    points = [
        _draw_in_cell(rng, i, n_rho, j, n_nu)
        for i in range(n_rho)
        for j in range(n_nu)
        if (j + step * i) % CYCLE == r % CYCLE
    ]
    return [points[k] for k in rng.permutation(len(points))]


def _round_specs(rng: np.random.Generator, r: int) -> list[LawSpec]:
    """Law points in the shared 20-op round make-up."""
    full_pos = [
        i for i in range(ROUND_SIZE)
        if i not in CMV_POSITIONS and i != STANDARD_POSITION
    ]
    draws = {}
    for kind, positions in (("theorem1", full_pos), ("cmv_only", CMV_POSITIONS)):
        for pos, params in zip(positions, _cycle_params(rng, kind, r)):
            draws[pos] = (kind, params)
    specs = []
    for pos in range(ROUND_SIZE):
        coin = _unit_coin(rng)
        if pos == STANDARD_POSITION:
            n = r % 2
            nu_text = "pi/2" if n == 0 else "-pi/2"
            params = WalkParams(SQ2, math.pi / 2 if n == 0 else -math.pi / 2)
            specs.append(LawSpec(params, coin, "full", "standard", n, nu_text))
            continue
        kind, params = draws[pos]
        variant = "cmv_only" if kind == "cmv_only" else "full"
        specs.append(LawSpec(params, coin, variant, kind, 0, repr(params.nu)))
    return specs


def _twin(spec: LawSpec) -> LawSpec:
    """The same point with the coin times a global phase.

    No probability changes, but the law is a distinct object, so caches
    the first run filled do not serve the twin.
    """
    coin = CoinSpinor(spec.coin.a0 * TWIN_PHASE, spec.coin.a1 * TWIN_PHASE)
    return replace(spec, coin=coin)


def _oracle_moments(spec: LawSpec, orders) -> dict[int, float]:
    return spectral_moments(spec.params, spec.coin, spec.variant, orders)


# --------------------------------------------------------------- compare_cli

COMPARE_T = 2000
COMPARE_KS_GATE = 0.05
COMPARE_MOMENT_TOL = 1e-3
MASS_TOL = 1e-10
TV_TOL = 1e-10


@dataclass
class CompareOp:
    spec: LawSpec
    fmt: str
    path: Path
    args: list[str]
    tv_check: bool = False


@dataclass
class Report:
    meta: dict
    rows: np.ndarray  # columns x, simulated, approx
    size: int


def _compare_args(spec: LawSpec, t: int, fmt: str, path: Path) -> list[str]:
    # Flags are passed as --key=value: a value with a leading minus sign
    # (e.g. --nu -pi/4 or --beta -0.6,0) is taken by argparse for an option.
    c = spec.coin
    return [
        "compare",
        f"--rho={spec.params.rho!r}",
        f"--nu={spec.nu_text}",
        f"--alpha={c.a0.real!r},{c.a0.imag!r}",
        f"--beta={c.a1.real!r},{c.a1.imag!r}",
        f"--t={t}",
        f"--variant={spec.variant}",
        f"--law={spec.kind}",
        f"--n={spec.n}",
        f"--format={fmt}",
        f"--out={path}",
    ]


REPORT_KEYS = ("command", "t", "variant", "law", "ks_distance", "moment_error_r1")


def read_report(path: Path, fmt: str) -> Report:
    """Parse a ``qwalk compare`` CSV or JSON file."""
    text = path.read_text()
    if fmt == "json":
        data = json.loads(text)
        meta = {k: data[k] for k in REPORT_KEYS[:-1]}
        meta["moment_error_r1"] = next(
            e["error"] for e in data["moment_errors"] if e["r"] == 1
        )
        rows = np.array(
            [(r["x"], r["simulated"], r["approx"]) for r in data["rows"]], dtype=float
        )
    else:
        lines = text.splitlines()
        meta = {}
        i = 0
        while lines[i].startswith("# "):
            key, _, value = lines[i][2:].partition(",")
            meta[key] = value
            i += 1
        if lines[i] != "x,simulated,approx":
            raise ValueError(f"unexpected CSV header {lines[i]!r}")
        missing = set(REPORT_KEYS) - meta.keys()
        if missing:
            raise ValueError(f"metadata lacks {sorted(missing)}")
        rows = np.array([line.split(",") for line in lines[i + 1:]], dtype=float)
    return Report(meta=meta, rows=rows, size=len(text.encode()))


class CompareCli:
    """``qwalk.cli.main(["compare", ...])`` in-process at t = 2000."""

    name = "compare_cli"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.t = COMPARE_T

    def _op(self, spec: LawSpec, fmt: str, tag: str, tv: bool = False) -> CompareOp:
        path = self.out_dir / f"compare-{tag}.{fmt}"
        return CompareOp(spec, fmt, path, _compare_args(spec, self.t, fmt, path), tv)

    def warm_up(self) -> None:
        spec = LawSpec(WARM_PARAMS, WARM_COIN, "full", "theorem1", 0, repr(WARM_PARAMS.nu))
        op = self._op(spec, "csv", "warm")
        self.run(op)
        op.path.unlink()

    def round_ops(self, r: int) -> list[CompareOp]:
        specs = _round_specs(_rng(self.seed, 1, r), r)
        # One op a round is also checked against both evolution engines:
        # position 0 (theorem1) in even rounds, 1 (cmv_only) in odd ones.
        return [
            self._op(
                spec, "csv" if (pos + r) % 2 == 0 else "json", str(pos), pos == r % 2
            )
            for pos, spec in enumerate(specs)
        ]

    def twin(self, op: CompareOp) -> CompareOp:
        return self._op(_twin(op.spec), op.fmt, "twin")

    def run(self, op: CompareOp) -> Path:
        rc = qwalk.cli.main(op.args)
        if rc != 0:
            raise RuntimeError(f"qwalk compare exited {rc}")
        return op.path

    def load(self, op: CompareOp, path: Path) -> Report:
        report = read_report(path, op.fmt)
        path.unlink()
        return report

    def check(self, op: CompareOp, report: Report) -> list[str]:
        errors = []
        t = self.t
        meta, rows = report.meta, report.rows
        echo = {
            "command": "compare",
            "t": str(t),
            "variant": op.spec.variant,
            "law": op.spec.kind,
        }
        for key, want in echo.items():
            if key not in meta or str(meta[key]) != want:
                errors.append(f"metadata {key}={meta.get(key)!r}, request {want!r}")
        if rows.shape != (2 * t + 1, 3) or not np.array_equal(
            rows[:, 0], np.arange(-t, t + 1)
        ):
            return errors + [f"rows do not cover [-{t}, {t}] once each"]
        probs = rows[:, 1]
        if not abs(probs.sum() - 1.0) <= MASS_TOL:
            errors.append(f"simulated mass {probs.sum()!r} != 1")
        ks = float(meta["ks_distance"])
        if not 0.0 < ks <= COMPARE_KS_GATE:
            errors.append(f"ks_distance {ks!r} outside (0, {COMPARE_KS_GATE}]")
        if not float(meta["moment_error_r1"]) <= COMPARE_MOMENT_TOL:
            errors.append(f"reported first-moment error {meta['moment_error_r1']}")
        first = float(np.dot(rows[:, 0] / t, probs))
        ref = _oracle_moments(op.spec, (1,))[1]
        if not abs(first - ref) <= COMPARE_MOMENT_TOL:
            errors.append(f"first moment {first!r} vs spectral oracle {ref!r}")
        if not np.all(rows[:, 2] >= 0.0):
            errors.append("negative limit-density points")
        if op.tv_check:
            p = op.spec
            for engine in (qwalk.evolve, qwalk.evolve_fourier):
                other = qwalk.distribution(engine(p.coin, p.params, t, variant=p.variant))
                tv = 0.5 * float(np.sum(np.abs(other.probs - probs)))
                if not (other.x_min == -t and tv <= TV_TOL):
                    errors.append(f"{engine.__name__} differs by TV {tv!r}")
        return errors

    def corruptions(self, op: CompareOp, report: Report):
        shifted = copy.deepcopy(report)
        shifted.rows[self.t, 1] += 1e-6
        moment = copy.deepcopy(report)
        moment.meta["moment_error_r1"] = str(2 * COMPARE_MOMENT_TOL)
        op = replace(op, tv_check=False)
        return [
            ("mass shifted by 1e-6", op, shifted),
            ("perturbed moment error", op, moment),
        ]


# -------------------------------------------------------------- fourier_deep

DEEP_T = 100_000
DEEP_KS_GATE = 0.01
# |empirical_moment(r) - limit moment| <= DEEP_MOMENT_C / t for r = 1, 2;
# the largest value of |error| * t seen at t = 1e5 is about 0.3.
DEEP_MOMENT_C = 1.0
DEEP_ORDERS = (1, 2)


@dataclass
class DeepResult:
    x_min: int
    probs: np.ndarray
    ks: float
    moments: list[float]


class FourierDeep:
    """``evolve_fourier`` at t = 1e5, scored by KS distance and moments."""

    name = "fourier_deep"

    def __init__(self, seed: int, out_dir: Path):
        self.t = DEEP_T
        rng = _rng(seed, 2)
        points = []
        kinds = ("theorem1", "theorem1", "cmv_only", "theorem1")
        for kind, params in zip(kinds, _latin_params(rng, len(kinds))):
            variant = "cmv_only" if kind == "cmv_only" else "full"
            points.append(LawSpec(params, _unit_coin(rng), variant, kind))
        for n, nu in ((0, math.pi / 2), (1, -math.pi / 2)):
            params = WalkParams(SQ2, nu)
            points.append(LawSpec(params, _unit_coin(rng), "full", "standard", n))
        self.points = points
        self.twins = {id(p): _twin(p) for p in points}
        self._refs = {}

    def warm_up(self) -> None:
        self.run(LawSpec(WARM_PARAMS, WARM_COIN, "full", "theorem1"))

    def round_ops(self, r: int) -> list[LawSpec]:
        return self.points

    def twin(self, spec: LawSpec) -> LawSpec:
        return self.twins[id(spec)]

    def run(self, spec: LawSpec) -> DeepResult:
        t = self.t
        law = qwalk.make_limit_law(spec.kind, spec.params, spec.coin, n=spec.n)
        state = qwalk.evolve_fourier(spec.coin, spec.params, t, variant=spec.variant)
        dist = qwalk.distribution(state)
        ks = qwalk.kolmogorov_distance(dist, t, law)
        moments = [qwalk.empirical_moment(dist, t, r) for r in DEEP_ORDERS]
        return DeepResult(dist.x_min, dist.probs, ks, moments)

    def load(self, spec: LawSpec, result: DeepResult) -> DeepResult:
        return result

    def _references(self, spec: LawSpec) -> list[tuple[str, dict[int, float]]]:
        key = id(spec)
        if key not in self._refs:
            if spec.kind == "theorem1":
                program = {
                    r: qwalk.spectral_limit_moment(r, spec.params, spec.coin)
                    for r in DEEP_ORDERS
                }
            else:
                law = qwalk.make_limit_law(spec.kind, spec.params, spec.coin, n=spec.n)
                program = {r: law.moment(r) for r in DEEP_ORDERS}
            self._refs[key] = [
                ("package", program),
                ("spectral oracle", _oracle_moments(spec, DEEP_ORDERS)),
            ]
        return self._refs[key]

    def check(self, spec: LawSpec, res: DeepResult) -> list[str]:
        t = self.t
        errors = []
        if res.x_min != -t or len(res.probs) != 2 * t + 1:
            errors.append("distribution window is not [-t, t]")
        if not abs(float(res.probs.sum()) - 1.0) <= MASS_TOL:
            errors.append(f"mass {float(res.probs.sum())!r} != 1")
        if not float(res.probs.min()) >= -1e-15:
            errors.append("negative probability")
        if not 0.0 < res.ks <= DEEP_KS_GATE:
            errors.append(f"ks {res.ks!r} outside (0, {DEEP_KS_GATE}]")
        for label, ref in self._references(spec):
            for r, got in zip(DEEP_ORDERS, res.moments):
                if not abs(got - ref[r]) <= DEEP_MOMENT_C / t:
                    errors.append(f"moment r={r} {got!r} vs {label} {ref[r]!r}")
        return errors

    def corruptions(self, spec: LawSpec, res: DeepResult):
        probs = res.probs.copy()
        probs[self.t] += 1e-6
        moments = list(res.moments)
        moments[0] += 2 * DEEP_MOMENT_C / self.t
        return [
            ("mass shifted by 1e-6", spec, replace(res, probs=probs)),
            ("perturbed moment", spec, replace(res, moments=moments)),
        ]


# --------------------------------------------------------------- law_queries

DENSITY_GRID_POINTS = 2001  # the grid of `qwalk density`
DENSITY_GRID_PAD = 1.05
CDF_POINTS = 200
BRANCH_POINTS = 100
LAW_ORDERS = range(5)
CDF_TOL = 1e-8
MOMENT0_TOL = 1e-8  # the tolerance of the package's own unit-mass unit test
MOMENT_TOL = 1e-6
BRANCH_TOL = 1e-10


@dataclass
class LawResult:
    support_hi: float
    coeff: float
    density_x: np.ndarray
    density: np.ndarray
    cdf_x: np.ndarray
    cdf: np.ndarray
    moments: list[float]
    spectral: dict[int, float]
    branch_x: np.ndarray
    branches: dict[int, np.ndarray] = field(default_factory=dict)


class LawQueries:
    """Analytic limit-law queries, one never-repeated law per op."""

    name = "law_queries"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def warm_up(self) -> None:
        self.run(LawSpec(WARM_PARAMS, WARM_COIN, "full", "theorem1"))

    def round_ops(self, r: int) -> list[LawSpec]:
        return _round_specs(_rng(self.seed, 3, r), r)

    def twin(self, spec: LawSpec) -> LawSpec:
        return _twin(spec)

    def run(self, spec: LawSpec) -> LawResult:
        law = qwalk.make_limit_law(spec.kind, spec.params, spec.coin, n=spec.n)
        hi = law.support_hi
        dx = np.linspace(-DENSITY_GRID_PAD * hi, DENSITY_GRID_PAD * hi, DENSITY_GRID_POINTS)
        density = law.density(dx)
        cx = np.linspace(-hi, hi, CDF_POINTS)
        cdf = law.cdf(cx)
        moments = [law.moment(r) for r in LAW_ORDERS]
        # The spectral route gives the theorem1 law; at the special set the
        # symbol's eigenvalues collide on its momentum grid and it refuses.
        spectral = {} if spec.kind != "theorem1" else {
            r: qwalk.spectral_limit_moment(r, spec.params, spec.coin) for r in (1, 2)
        }
        hstar = qwalk.support_halfwidth(spec.params)
        bx = np.linspace(0.0, hstar, BRANCH_POINTS + 2)[1:-1]
        branches = {s: qwalk.momentum_branch(bx, spec.params, s) for s in (1, -1)}
        return LawResult(
            hi, law.coeff, dx, density, cx, cdf, moments, spectral, bx, branches
        )

    def load(self, spec: LawSpec, result: LawResult) -> LawResult:
        return result

    def check(self, spec: LawSpec, res: LawResult) -> list[str]:
        errors = []
        if not np.all(res.density >= 0.0):
            errors.append("negative density")
        if np.any(res.density[np.abs(res.density_x) >= res.support_hi] != 0.0):
            errors.append("density nonzero outside the support")
        if not np.all(np.diff(res.cdf) >= 0.0):
            errors.append("CDF not monotone")
        if not (abs(res.cdf[0]) <= CDF_TOL and abs(res.cdf[-1] - 1.0) <= CDF_TOL):
            errors.append(f"CDF ends {res.cdf[0]!r}, {res.cdf[-1]!r}")
        if spec.kind in ("cmv_only", "standard"):
            exact = closed_form_cdf(res.cdf_x, res.support_hi, res.coeff)
            gap = float(np.max(np.abs(res.cdf - exact)))
            if not gap <= CDF_TOL:
                errors.append(f"CDF off the closed form by {gap!r}")
        if not abs(res.moments[0] - 1.0) <= MOMENT0_TOL:
            errors.append(f"moment(0) = {res.moments[0]!r}")
        for r, value in res.spectral.items():
            if not abs(res.moments[r] - value) <= MOMENT_TOL:
                errors.append(f"moment({r}) {res.moments[r]!r} vs spectral {value!r}")
        oracle = _oracle_moments(spec, range(1, 5))
        for r, value in oracle.items():
            if not abs(res.moments[r] - value) <= MOMENT_TOL:
                errors.append(f"moment({r}) {res.moments[r]!r} vs oracle {value!r}")
        # At the special set one branch (minus for n = 0, plus for n = 1)
        # sits where the gap closes; the identity holds on the other.
        for s in ((-1) ** spec.n,) if spec.special else (1, -1):
            gv = qwalk.group_velocity(res.branches[s], spec.params)
            if not np.max(np.abs(gv - res.branch_x)) <= BRANCH_TOL:
                errors.append(f"group_velocity(momentum_branch(x, {s})) != x")
        return errors

    def corruptions(self, spec: LawSpec, res: LawResult):
        swapped = res.cdf.copy()
        mid = CDF_POINTS // 2
        swapped[mid], swapped[mid + 1] = swapped[mid + 1], swapped[mid]
        moment = list(res.moments)
        moment[2] += 10 * MOMENT_TOL
        mass = list(res.moments)
        mass[0] += 1e-6
        return [
            ("non-monotone CDF", spec, replace(res, cdf=swapped)),
            ("perturbed moment", spec, replace(res, moments=moment)),
            ("mass shifted by 1e-6", spec, replace(res, moments=mass)),
        ]


WORKLOADS = {w.name: w for w in (CompareCli, FourierDeep, LawQueries)}
