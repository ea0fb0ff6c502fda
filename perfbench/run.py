"""qwalk benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload compare_cli --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.
The workload runs as one client in a fresh worker process with every
BLAS/OpenMP thread pool pinned to one thread.  Set-up is timed from
here, over several cold starts of that worker (interpreter start,
``import qwalk, qwalk.cli``, input generation, one warm-up op); the last
cold start goes on to run the measured loop.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("compare_cli", "fourier_deep", "law_queries")
LAYERS = ("walk", "fourier", "limitlaw", "harness", "cli")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
IMPORT_TARGET = "import qwalk, qwalk.cli"
# Every child must finish within this many seconds of the start.
DEADLINE_S = 170.0


class ClientError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def start_worker(args, out_dir: Path, env, deadline: float):
    """Start a cold worker; return it and the seconds until it was ready."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(out_dir),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise ClientError(f"worker did not become ready (got {line!r})")
    return proc, elapsed


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def import_times(env, deadline: float) -> dict[str, float]:
    """Median cumulative import time of each layer module, in seconds."""
    samples: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_TARGET],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 1),
        )
        if proc.returncode != 0:
            raise ClientError(f"import failed: {proc.stderr[-500:]}")
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            parts = line[len("import time:"):].split("|")
            name = parts[2].strip()
            if name.startswith("qwalk.") and name[6:] in samples:
                samples[name[6:]].append(int(parts[1]) / 1e6)
    return {layer: statistics.median(v) for layer, v in samples.items()}


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    probes = 1 if args.trace else SETUP_PROBES
    setups = []
    proc = None
    try:
        for probe in range(probes):
            proc, elapsed = start_worker(args, out_dir, env, deadline)
            setups.append(elapsed)
            if probe + 1 < probes:
                proc.communicate("exit\n", timeout=max(deadline - time.monotonic(), 1))
        out, _ = proc.communicate("go\n", timeout=max(deadline - time.monotonic(), 1))
        if proc.returncode != 0 or not out.strip():
            raise ClientError(f"worker exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            for layer, seconds in import_times(env, deadline).items():
                result["metrics"][f"{layer}.import_s"] = {"value": seconds, "unit": "s"}
        else:
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        return result
    finally:
        if proc is not None:
            stop(proc)
        shutil.rmtree(out_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description="qwalk benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qwalk" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (ClientError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for msg in result.pop("problems"):
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
