"""End-to-end and per-layer benchmark for mvinterp.

    python3 perfbench/run.py --workload gs_wide --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from its
`src/` directory, nothing is installed.  One process, closed loop, one solve
at a time; each instance is solved once per run (twice in a traced run, see
below).  Workloads and why each exists are described in workloads.py and
README.md.

--trace 0 prints the end-to-end metrics, measured with no wrapper in place.
Their times are scaled to a reference host speed (hostspeed.py), because
the shared host's own speed drifts more between runs than the bounds in
BENCHMARK.json allow; the wall times as measured are in the report line.
--trace 1 solves every instance once untraced and once with every public
layer wrapped (layers.py), alternating which goes first, and prints the
per-layer metrics plus the traced/untraced time ratio.  On gs_deep and
small_field it then also solves the first few instances with the dense
backend, the structured-versus-dense baseline.

Every outcome is checked outside the clock: a Solution by the benchmark's
own Hasse-condition oracle, a verdict against the oracle's prediction.
A Failure, an exception, a wrong verdict or a rejected Solution counts as
failed, and the command then exits 1.  The last stdout line is the JSON
result; the line before it is a JSON report with machine and run facts and
the sample count behind every statistic.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import hostspeed
import layers
import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 3  # set-up runs per process; setup_s is their median
# instances drawn per run: several times what the seed commit solves in one
POOL = {"gs_wide": 300, "gs_deep": 300, "small_field": 420, "decoders": 600}
WARM_UP = {"gs_wide": 1, "gs_deep": 1, "small_field": 1, "decoders": 3}
DENSE_BASELINE = {"gs_deep": 2, "small_field": 4}
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it


@dataclass
class State:
    mv: object
    specs: list


def import_library():
    """Fresh import of mvinterp from the checkout, dropping any earlier one,
    so every set-up pays the import and starts with empty library caches."""
    for name in [n for n in sys.modules if n == "mvinterp" or n.startswith("mvinterp.")]:
        del sys.modules[name]
    mv = importlib.import_module("mvinterp")
    if Path(mv.__file__).resolve().parent != SRC / "mvinterp":
        raise SystemExit(f"perfbench: imported mvinterp from {mv.__file__}, not {SRC}")
    return mv


def make_call(mv, spec):
    """Library objects for one spec; returns solve(rng, backend)."""
    ctx = mv.prime_field(spec.p)
    el = ctx.el
    m = spec.mults[0]
    if spec.kind in ("gs", "multi", "soft"):
        inst = mv.InterpolationInstance(
            ctx, len(spec.weights), spec.ell, spec.b, spec.weights,
            tuple((el(x), tuple(el(y) for y in ys)) for x, ys in spec.points),
            spec.mults, allow_duplicate_x=spec.kind == "soft",
        )
        if spec.kind == "soft":
            return lambda rng, backend="hankel": mv.soft_interpolate(inst, rng, backend)
        return lambda rng, backend="hankel": mv.interpolate_instance(inst, rng, backend)
    if spec.kind == "reencode":
        params = mv.GsParams(ctx, spec.weights[0], m, spec.ell, spec.b,
                             tuple((el(x), el(ys[0])) for x, ys in spec.points))
        return lambda rng, backend="hankel": mv.reencode_interpolate(params, spec.n0, rng, backend)
    pts = tuple(mv.ExtPoint(el(x), None if ys[0] is None else el(ys[0])) for x, ys in spec.points)
    params = mv.GsParams(ctx, spec.weights[0], m, spec.ell, spec.b, ())
    return lambda rng, backend="hankel": mv.wu_interpolate(pts, params, rng, backend)


def set_up(workload: str, seed) -> State:
    """Import, instance generation, the verdict oracle and warm-up.

    Warm-up instances come from another seed than the timed ones, so
    caches keyed on instance data are not filled for the timed solves.
    """
    mv = import_library()
    warm = workloads.draw(workload, "warm-up", WARM_UP[workload])
    specs = [s for s in workloads.draw(workload, seed, POOL[workload]) if s not in warm]
    if workload == "small_field":
        rank = importlib.import_module("mvinterp.linalg").matrix_rank
        specs = [replace(s, expect_solution=oracle.solvable(mv.prime_field, rank, s))
                 for s in specs]
    for i, spec in enumerate(warm):
        make_call(mv, spec)(random.Random(f"{workload}:warm-up:solve:{i}"))
    return State(mv, specs)


def judge(mv, spec, out) -> bool:
    if isinstance(out, mv.Solution):
        return spec.expect_solution and oracle.check_solution(spec, out.value)
    if isinstance(out, mv.NoSolution):
        return not spec.expect_solution
    return False


class Tally:
    """Per-call times and outcomes of one kind of solve.

    `times` are scaled to the reference host speed (hostspeed.py), `raw`
    are the wall times as measured.
    """

    def __init__(self, scale):
        self.scale = scale
        self.raw = []
        self.marks = []
        self.good = 0
        self.outcomes = {"solution": 0, "no_solution": 0, "failure": 0}

    def solve(self, mv, spec, call, rng):
        gc.collect()  # the previous solve's garbage is not this one's cost
        t0 = perf_counter()
        try:
            out = call(rng)
        except Exception as exc:  # a crash is a counted failure, not an abort
            out = exc
        self.raw.append(perf_counter() - t0)
        self.marks.append(self.scale.mark())
        if isinstance(out, mv.Solution):
            self.outcomes["solution"] += 1
        elif isinstance(out, mv.NoSolution):
            self.outcomes["no_solution"] += 1
        else:
            self.outcomes["failure"] += 1
            if isinstance(out, Exception):
                print(f"# instance raised {type(out).__name__}: {out}", file=sys.stderr)
        self.good += judge(mv, spec, out)

    @property
    def times(self):
        return [self.scale.adjust(t, m) for t, m in zip(self.raw, self.marks)]

    @property
    def attempted(self):
        return len(self.raw)


def run_timed(state, workload, seed, seconds):
    tally = Tally(hostspeed.Scale())
    deadline = perf_counter() + seconds
    for i, spec in enumerate(state.specs):
        if i % workloads.CYCLE[workload] == 0 and perf_counter() >= deadline:
            break
        call = make_call(state.mv, spec)
        tally.solve(state.mv, spec, call, random.Random(f"{workload}:{seed}:solve:{i}"))
    return tally


def run_traced(state, workload, seed, seconds):
    """Each instance untraced and traced with the same solver seed; the
    order alternates so neither side always runs on a warmer cache."""
    scale = hostspeed.Scale()
    plain, traced = Tally(scale), Tally(scale)
    tracer = layers.Tracer(layers.LAYERS)
    deadline = perf_counter() + seconds
    for i, spec in enumerate(state.specs):
        if i % workloads.CYCLE[workload] == 0 and perf_counter() >= deadline:
            break
        call = make_call(state.mv, spec)
        solver_seed = f"{workload}:{seed}:solve:{i}"
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            if side:
                with tracer:
                    traced.solve(state.mv, spec, call, random.Random(solver_seed))
            else:
                plain.solve(state.mv, spec, call, random.Random(solver_seed))
    dense, dense_tally = layers.Tracer(layers.DENSE), Tally(scale)
    for i, spec in enumerate(state.specs[: DENSE_BASELINE.get(workload, 0)]):
        call = make_call(state.mv, spec)
        with dense:
            dense_tally.solve(state.mv, spec, lambda rng: call(rng, "dense"),
                              random.Random(f"{workload}:{seed}:dense:{i}"))
    return plain, traced, tracer, dense, dense_tally


def tail(times):
    """(value, percentile): the highest order statistic with TAIL_BEYOND
    samples above it, or the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def facts(args):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    """HEAD of the checkout read from .git, or 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def emit(report, correct, attempted, failed, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mvinterp" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}/mvinterp", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_raw, marks, scale = [], [], hostspeed.Scale()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        state = set_up(args.workload, args.seed)
        setup_raw.append(perf_counter() - t0)
        marks.append(scale.mark())
    setup_times = [scale.adjust(t, m) for t, m in zip(setup_raw, marks)]
    report = {"facts": facts(args), "setup_s_samples": setup_times,
              "setup_s_raw": setup_raw, "pool": len(state.specs)}

    if not args.trace:
        tally = run_timed(state, args.workload, args.seed, args.seconds)
        failed = tally.attempted - tally.good
        tail_s, tail_pct = tail(tally.times)
        metrics = {
            "solves_per_s": (tally.good / sum(tally.times), "1/s"),
            "solve_ms_p50": (statistics.median(tally.times) * 1000.0, "ms"),
            "solve_ms_tail": (tail_s * 1000.0, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report.update(
            samples=tally.attempted,
            raw_solve_ms_p50=statistics.median(tally.raw) * 1000.0,
            raw_solves_per_s=tally.good / sum(tally.raw),
            reference_ms_p50=statistics.median(tally.scale.refs) * 1000.0,
            solve_ms_tail_percentile=tail_pct,
            fail_ratio=failed / tally.attempted,
            outcomes=tally.outcomes,
        )
        emit(report, failed == 0, tally.attempted, failed, metrics)
        return 0 if failed == 0 else 1

    plain, traced, tracer, dense, dense_tally = run_traced(
        state, args.workload, args.seed, args.seconds)
    metrics = tracer.metrics(traced.attempted)
    metrics.update({f"outcome.{k}": (v, "count") for k, v in traced.outcomes.items()})
    metrics["trace.solves"] = (traced.attempted, "count")
    metrics["trace.overhead_ratio"] = (sum(traced.times) / sum(plain.times), "ratio")
    name = layers.DENSE[0][0]
    calls, total, _ = dense.stats[name]
    metrics[f"{name}.calls"] = (calls, "count")
    metrics[f"{name}.ms"] = (total * 1000.0 / max(calls, 1), "ms")
    tallies = (plain, traced, dense_tally)
    attempted = sum(t.attempted for t in tallies)
    failed = attempted - sum(t.good for t in tallies)
    report.update(samples=traced.attempted, dense_samples=dense_tally.attempted,
                  missing_layers=tracer.missing + dense.missing,
                  fail_ratio=failed / attempted)
    emit(report, failed == 0, attempted, failed, metrics)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
