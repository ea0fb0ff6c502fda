"""One benchmark client: a fresh process that runs one workload.

Protocol with ``run.py``: the worker imports the package, draws its
seeded inputs, runs one untimed warm-up op and prints ``ready``.  It
then reads one line from stdin: ``go`` starts the measured loop, and
anything else ends the process (a set-up probe).  The loop's result is
printed as one JSON line.

With ``--trace 1`` each op runs traced and, next to it, untraced as its
twin, so the difference times the tracing itself.  The tracer wraps, from
outside the package, every public function named in a layer module's
``__all__`` -- in every ``qwalk`` namespace that binds it -- and the
``LimitLaw`` methods ``density``, ``cdf`` and ``moment``.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import inspect
import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

LAYERS = ("walk", "fourier", "limitlaw", "harness", "cli")
# Called once per time step inside evolve(); a span per step would cost
# more than the step itself.
PER_STEP = {"step_full", "step_cmv_only"}
LAW_METHODS = ("density", "cdf", "moment")
# Spans reported as <name>.self_s and <name>.calls (per traced op).
REPORTED_SPANS = (
    "walk.evolve",
    "walk.distribution",
    "fourier.evolve_fourier",
    "limitlaw.make_limit_law",
    "limitlaw.LimitLaw.cdf",
    "limitlaw.LimitLaw.density",
    "limitlaw.LimitLaw.moment",
    "limitlaw.spectral_limit_moment",
    "limitlaw.momentum_branch",
    "harness.run_comparison",
    "harness.kolmogorov_distance",
    "harness.empirical_moment",
    "cli.main",
)
# An untraced run times at least this many ops, so op_p90_ms has ten
# samples above it.
MIN_OPS = 100


class Tracer:
    """In-memory spans ``[name, start, end, parent, op]`` plus layer counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None  # None: calls pass through unrecorded
        self.counts: collections.Counter = collections.Counter()
        self.alloc_peaks: list[int] = []
        self.cdf_outer: list[int] = []
        self._states: list = []

    def wrap(self, name: str, fn):
        tracer = self
        measure_alloc = name == "fourier.evolve_fourier"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(index)
            if measure_alloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if measure_alloc:
                    tracer.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            tracer._observe(name, index, parent, args, result)
            return result

        return traced

    def _observe(self, name, index, parent, args, result) -> None:
        if name == "walk.evolve":
            self._states.append(result)
            self.counts["site_steps"] += result.time**2
        elif name == "fourier.evolve_fourier":
            self.counts["fourier_sites"] += len(result.amps)
        elif name == "limitlaw.LimitLaw.cdf" and (
            parent < 0 or self.spans[parent][0] != name
        ):
            self.cdf_outer.append(index)
            self.counts["cdf_points"] += int(np.size(args[1]))

    def finish_op(self) -> None:
        """Untimed bookkeeping on the states the op's evolve calls returned."""
        tiny = np.finfo(np.float64).tiny
        for state in self._states:
            mag = np.abs(state.amps.view(np.float64))
            nonzero = mag != 0.0
            self.counts["nonzero"] += int(np.count_nonzero(nonzero))
            self.counts["subnormal"] += int(np.count_nonzero(nonzero & (mag < tiny)))
        self._states.clear()

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "qwalk"]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"qwalk.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and attr not in PER_STEP:
                    home = fn.__module__.rsplit(".", 1)[-1]
                    wrapped[fn] = self.wrap(f"{home}.{fn.__qualname__}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        law_cls = sys.modules["qwalk.limitlaw"].LimitLaw
        for method in LAW_METHODS:
            fn = getattr(law_cls, method)
            setattr(law_cls, method, self.wrap(f"limitlaw.LimitLaw.{method}", fn))

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        durations = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += durations[i]
        self_s: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter()
        for i, span in enumerate(self.spans):
            self_s[span[0]] += durations[i] - child[i]
            calls[span[0]] += 1
        out = {}
        for name in REPORTED_SPANS:
            out[f"{name}.self_s"] = (self_s[name] / n_ops, "s")
            out[f"{name}.calls"] = (calls[name] / n_ops, "count")
        c = self.counts

        def rate(num, seconds):
            return num / seconds if seconds > 0 else 0.0

        cdf_busy = sum(durations[i] for i in self.cdf_outer)
        out["walk.site_steps_per_s"] = (rate(c["site_steps"], self_s["walk.evolve"]), "1/s")
        out["walk.subnormal_share"] = (
            c["subnormal"] / c["nonzero"] if c["nonzero"] else 0.0, "ratio"
        )
        out["fourier.sites_per_s"] = (
            rate(c["fourier_sites"], self_s["fourier.evolve_fourier"]), "1/s"
        )
        out["fourier.evolve_fourier.alloc_peak_mb"] = (
            statistics.median(self.alloc_peaks) / 2**20 if self.alloc_peaks else 0.0, "MB"
        )
        out["limitlaw.cdf_points_per_s"] = (rate(c["cdf_points"], cdf_busy), "1/s")
        out["cli.bytes_per_s"] = (rate(c["cli_bytes"], self_s["cli.main"]), "B/s")
        return out

    def write(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent", "op"))
            out.writerows(self.spans)


def run_loop(wl, seconds: float, tracer: Tracer | None) -> dict:
    """Whole rounds until ``seconds`` have passed (and, untraced, ``MIN_OPS`` ops).

    When tracing, every op also runs untraced as its twin.
    """
    attempted = failed = 0
    problems: list[str] = []
    op_times: dict[bool, list[float]] = {False: [], True: []}
    round_walls: list[float] = []
    sample = None

    def attempt(op, traced: bool):
        nonlocal attempted, failed
        attempted += 1
        if traced:
            tracer.op = attempted
        t0 = time.perf_counter()
        try:
            raw = wl.run(op)
        except Exception:  # a failed op is counted, the run goes on
            failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.op = None
        op_times[traced].append(elapsed)
        if traced:
            tracer.finish_op()
        try:
            result = wl.load(op, raw)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            problems.append(f"round {r}: unreadable result: {exc!r}")
            return None
        if traced:
            tracer.counts["cli_bytes"] += getattr(result, "size", 0)
        problems.extend(f"round {r}: {msg}" for msg in wl.check(op, result))
        return elapsed, result

    start = time.perf_counter()
    r = 0
    while True:
        wall = 0.0
        for i, op in enumerate(wl.round_ops(r)):
            # The twin runs after the traced op on even positions and
            # before it on odd ones, so the order effect cancels.
            if tracer is not None and i % 2:
                attempt(wl.twin(op), False)
            done = attempt(op, tracer is not None)
            if done is not None:
                wall += done[0]
                sample = sample or (op, done[1])
            if tracer is not None and not i % 2:
                attempt(wl.twin(op), False)
        round_walls.append(wall)
        r += 1
        enough = tracer is not None or len(op_times[False]) >= MIN_OPS
        if time.perf_counter() - start >= seconds and enough:
            break

    if sample is None:
        problems.append("no op completed, so the checker self-test did not run")
    else:
        for label, op, bad in wl.corruptions(*sample):
            if not wl.check(op, bad):
                problems.append(f"checker self-test: {label} was not rejected")

    metrics: dict[str, tuple[float, str]] = {}
    if tracer is None:
        times = op_times[False]
        metrics["wall_s"] = (statistics.median(round_walls), "s")
        metrics["op_p50_ms"] = (1e3 * statistics.median(times), "ms")
        metrics["op_p90_ms"] = (1e3 * statistics.quantiles(times, n=10)[8], "ms")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        )
    else:
        metrics.update(tracer.layer_metrics(len(op_times[True])))
        overhead = statistics.fmean(op_times[True]) - statistics.fmean(op_times[False])
        metrics["trace.overhead_s"] = (overhead, "s")
    return {
        "correct": not problems,
        "problems": problems[:20],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    wl.round_ops(0)
    wl.warm_up()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run_loop(wl, args.seconds, tracer)
    if tracer is not None:
        tracer.write(args.out_dir.parent / f"trace-{args.workload}-seed{args.seed}.csv")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
