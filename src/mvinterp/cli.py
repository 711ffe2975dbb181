"""Command-line front end: gen, solve, verify, bench.

Exit codes for solve: 0 a verified solution was written, 2 certified
no-solution, 3 the randomized solver exhausted its retries, 1 any input
problem.  All diagnostics go to standard error; solution text goes to
--out (or standard output).
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

from .apps import (
    ExtPoint,
    GsParams,
    interpolate_instance,
    reencode_interpolate,
    soft_interpolate,
    solve_approx,
    verify_wu,
    wu_interpolate,
)
from .backend import BUILDERS, solve_built
from .errors import MvInterpError
from .formats import (
    ParsedApprox,
    ParsedInstance,
    ParseError,
    format_instance,
    format_solution,
    instance_hash,
    parse_instance,
    parse_solution,
)
from .approx import verify_approx
from .field import prime_field
from .outcomes import Failure, NoSolution, Solution
from .reduction import MultiPoly, verify_solution

MODES = ("gs", "reencode", "wu", "soft", "raw-approx")


def _die(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ------------------------------------------------------------------- solve


def _gs_params(parsed: ParsedInstance) -> GsParams:
    if parsed.s != 1:
        raise ParseError("this mode needs s = 1")
    if parsed.has_infinite():
        raise ParseError("infinite y is only meaningful in wu mode")
    m = parsed.uniform_mult()
    pts = tuple((x, ys[0]) for x, _, ys in parsed.rows)
    return GsParams(
        parsed.ctx, k=parsed.weights[0], m=m, ell=parsed.ell, b=parsed.b, points=pts
    )


def _wu_params(parsed: ParsedInstance):
    """Points (y may be infinite) and parameters of a wu-mode instance."""
    if parsed.s != 1:
        raise ParseError("wu mode needs s = 1")
    pts = tuple(ExtPoint(x, ys[0]) for x, _, ys in parsed.rows)
    p = GsParams(
        parsed.ctx,
        k=parsed.weights[0],
        m=parsed.uniform_mult(),
        ell=parsed.ell,
        b=parsed.b,
        points=(),
    )
    return pts, p


def _solve_parsed(parsed, mode: str, rng, backend: str, max_retries: int):
    """Run the requested pipeline; returns (outcome, verifier callback)."""
    kw = {"max_retries": max_retries}
    if mode == "raw-approx":
        if not isinstance(parsed, ParsedApprox):
            raise ParseError("raw-approx mode needs an approx-format instance file")
        a = parsed.approx
        out = solve_approx(a, rng, backend, **kw)
        return out, lambda qs: verify_approx(a, qs)
    if isinstance(parsed, ParsedApprox):
        raise ParseError(f"mode {mode} needs an interpolation instance file")

    if mode == "soft":
        inst = parsed.interpolation_instance(allow_duplicate_x=True)
        return soft_interpolate(inst, rng, backend, **kw), (
            lambda Q: verify_solution(inst, Q)
        )
    if mode == "wu":
        pts, p = _wu_params(parsed)
        out = wu_interpolate(pts, p, rng, backend, **kw)
        return out, lambda Q: verify_wu(pts, p, Q)
    if mode == "reencode":
        if parsed.n0 is None:
            raise ParseError("reencode mode needs an n0 line in the instance file")
        p = _gs_params(parsed)
        out = reencode_interpolate(p, parsed.n0, rng, backend, **kw)
        inst = parsed.interpolation_instance()
        return out, lambda Q: verify_solution(inst, Q)
    # plain mode: the engine takes the instance as parsed (any s, mixed m)
    inst = parsed.interpolation_instance()
    out = interpolate_instance(inst, rng, backend, **kw)
    return out, lambda Q: verify_solution(inst, Q)


def cmd_solve(args) -> int:
    if args.max_retries < 1:
        return _die("--max-retries must be at least 1")
    try:
        text = _read(args.infile)
    except OSError as exc:
        return _die(str(exc))
    rng = random.Random(args.seed)
    try:
        parsed = parse_instance(text)
        out, check = _solve_parsed(parsed, args.mode, rng, args.backend, args.max_retries)
    except (ParseError, MvInterpError) as exc:
        return _die(str(exc))

    if isinstance(out, NoSolution):
        print(f"NO_SOLUTION: {out.reason}" if out.reason else "NO_SOLUTION")
        return 2
    if isinstance(out, Failure):
        print(f"FAILURE after {out.attempts} attempts")
        return 3

    value = out.value
    if not check(value):
        return _die("internal error: solution failed final verification")
    if isinstance(value, MultiPoly):
        body = format_solution(value, instance_hash(text), args.backend)
    else:  # raw-approx: unknowns indexed like a one-variable solution
        terms = {(j,): q for j, q in enumerate(value) if not q.is_zero()}
        body = format_solution(
            MultiPoly(parsed.ctx, 1, terms), instance_hash(text), args.backend
        )
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return 0


# ------------------------------------------------------------------ verify


def cmd_verify(args) -> int:
    try:
        inst_text = _read(args.infile)
        sol_text = _read(args.solution)
    except OSError as exc:
        return _die(str(exc))
    try:
        parsed = parse_instance(inst_text)
        nvars = 1 if isinstance(parsed, ParsedApprox) else parsed.s
        got_hash, _, Q = parse_solution(sol_text, parsed.ctx, nvars)
    except (ParseError, MvInterpError) as exc:
        return _die(str(exc))
    if got_hash != instance_hash(inst_text):
        print("warning: solution hash does not match this instance", file=sys.stderr)

    try:
        if isinstance(parsed, ParsedApprox):
            a = parsed.approx
            qs = [Q.coeff((j,)) for j in range(a.nu)]
            ok = any(not q.is_zero() for q in qs) and verify_approx(a, qs)
        elif parsed.has_infinite():
            ok = verify_wu(*_wu_params(parsed), Q)
        else:
            inst = parsed.interpolation_instance(allow_duplicate_x=True)
            ok = verify_solution(inst, Q)
    except (ParseError, MvInterpError) as exc:
        return _die(str(exc))
    if not ok:
        print("not a solution", file=sys.stderr)
        return 1
    print("verified")
    return 0


# --------------------------------------------------------------------- gen


def _auto_b(n: int, m: int, ell: int, k: int) -> int:
    """Smallest bound that makes the linearized system underdetermined."""
    rows = n * m * (m + 1) // 2
    b = max(1, ell * k + 1)
    while (ell + 1) * b - k * ell * (ell + 1) // 2 <= rows:
        b += 1
    return b


def _gen_instance(p, n, m, ell, k, b, mode, seed) -> ParsedInstance:
    ctx = prime_field(p)
    rng = random.Random(seed)
    if mode == "soft":
        pool = rng.sample(range(p), max(1, (n + 1) // 2))
        xs = [pool[0], pool[0]] + [rng.choice(pool) for _ in range(n - 2)]
        xs = xs[:n]
    else:
        xs = rng.sample(range(p), n)
    n0 = None
    rows = []
    if mode == "reencode":
        n0 = max(k + 1, (n + 1) // 2)
        if n0 >= n:
            raise ParseError("reencode generation needs n0 = max(k+1, n/2) < n")
        for i, x in enumerate(xs):
            y = 0 if i < n0 else rng.randint(1, p - 1)
            rows.append((ctx.el(x), m, (ctx.el(y),)))
    elif mode == "wu":
        n_inf = max(1, n // 4)
        for i, x in enumerate(xs):
            y = None if i >= n - n_inf else ctx.el(rng.randrange(p))
            rows.append((ctx.el(x), m, (y,)))
    else:
        for x in xs:
            rows.append((ctx.el(x), m, (ctx.el(rng.randrange(p)),)))
    if b == "auto":
        b = _auto_b(n, m, ell, k)
    return ParsedInstance(ctx, 1, ell, int(b), (k,), tuple(rows), n0)


def cmd_gen(args) -> int:
    try:
        if args.n < 1 or args.m < 1 or args.ell < 1 or args.k < 0:
            raise ParseError("need n, m, ell >= 1 and k >= 0")
        if args.n > args.p:
            raise ParseError("cannot pick n distinct x-coordinates with n > p")
        if args.mode in ("reencode", "wu") and args.m > args.ell:
            raise ParseError(f"{args.mode} generation needs m <= ell")
        b = args.b if args.b == "auto" else int(args.b)
        parsed = _gen_instance(args.p, args.n, args.m, args.ell, args.k, b, args.mode, args.seed)
    except (ParseError, ValueError) as exc:
        return _die(str(exc))
    body = format_instance(parsed)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return 0


# ------------------------------------------------------------------- bench


# big enough that the sampling-set floor 6(P+1)^2 stays below the field
# order for every default size, so the structured kernel never pays for an
# extension field
BENCH_PRIME = 16777213


def cmd_bench(args) -> int:
    try:
        sizes = [int(t) for t in args.sizes.split(",") if t]
        if any(n < 1 for n in sizes) or args.reps < 1:
            raise ParseError("sizes and --reps must be at least 1")
        backends = [t for t in args.backend.split(",") if t]
        for bk in backends:
            if bk not in BUILDERS:
                raise ParseError(f"unknown backend {bk!r}")
    except (ParseError, ValueError) as exc:
        return _die(str(exc))

    from .approx import trim_instance, unpack_solution
    from .reduction import build_reduction

    print("size,backend,median_ms,verdict,reps")
    for n in sizes:
        parsed = _gen_instance(BENCH_PRIME, n, 1, 2, n // 4, "auto", "gs", seed=n)
        _, a = build_reduction(parsed.interpolation_instance())
        a, _, _ = trim_instance(a)
        for bk in backends:
            # only the nullspace kernel is timed: the linearization is built
            # once outside the clock
            try:
                built = BUILDERS[bk](a)
            except MvInterpError as exc:  # the dense build's size guard
                return _die(str(exc))
            solve_built(a, built, random.Random(0))  # warm-up, untimed
            times = []
            verdict = "?"
            for rep in range(args.reps):
                rng = random.Random(1000 * n + rep)
                t0 = time.perf_counter()
                out = solve_built(a, built, rng)
                times.append((time.perf_counter() - t0) * 1000.0)
                if isinstance(out, Solution):
                    qs = unpack_solution(a.ctx, out.value, a.col_bounds)
                    verdict = "solution" if verify_approx(a, qs) else "failure"
                else:
                    verdict = "no-solution" if isinstance(out, NoSolution) else "failure"
            print(f"{n},{bk},{statistics.median(times):.3f},{verdict},{args.reps}")
            sys.stdout.flush()
    return 0


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mvinterp",
        description="multiplicity interpolation via structured linear algebra",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    so = sub.add_parser("solve", help="solve an instance file")
    so.add_argument("--mode", choices=MODES, default="gs")
    so.add_argument("--backend", choices=tuple(BUILDERS), default="hankel")
    so.add_argument("--seed", type=int, required=True)
    so.add_argument("--max-retries", type=int, default=8)
    so.add_argument("--in", dest="infile", required=True)
    so.add_argument("--out", default=None)
    so.set_defaults(func=cmd_solve)

    ve = sub.add_parser("verify", help="check a solution file against an instance")
    ve.add_argument("--in", dest="infile", required=True)
    ve.add_argument("--solution", required=True)
    ve.set_defaults(func=cmd_verify)

    ge = sub.add_parser("gen", help="generate a random instance file")
    ge.add_argument("--p", type=int, required=True)
    ge.add_argument("--n", type=int, required=True)
    ge.add_argument("--m", type=int, default=1)
    ge.add_argument("--ell", type=int, default=2)
    ge.add_argument("--k", type=int, default=1)
    ge.add_argument("--b", default="auto")
    ge.add_argument("--mode", choices=MODES[:4], default="gs")
    ge.add_argument("--seed", type=int, required=True)
    ge.add_argument("--out", default=None)
    ge.set_defaults(func=cmd_gen)

    be = sub.add_parser("bench", help="dense vs structured timing table (CSV)")
    be.add_argument("--sizes", default="64,128,256,512")
    be.add_argument("--backend", default="hankel,dense")
    be.add_argument("--reps", type=int, default=5)
    be.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
