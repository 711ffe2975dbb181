"""Per-layer timing from outside the library.

A Tracer replaces each public layer function at the module attribute its
callers look up (`mvinterp.apps.build_reduction`, not
`mvinterp.reduction.build_reduction`, because apps imported the name) with
a timing wrapper, and puts the originals back on exit.  The library itself
is not changed and carries no tracing code.

Self time of a call is its duration minus the durations of the timed calls
nested directly inside it.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (metric prefix "module.function", modules whose globals hold the name the
# callers use).  A name a later version no longer has is skipped and reads 0.
LAYERS = (
    ("reduction.build_reduction", ("apps",)),
    ("poly.lagrange_interp", ("reduction", "apps")),
    ("apps.reencode_build", ("apps",)),
    ("apps.wu_build", ("apps",)),
    ("apps.soft_reduce", ("apps",)),
    ("approx.trim_instance", ("backend", "apps")),
    ("mosaic_hankel.build_hankel_generators", ("mosaic_hankel",)),
    ("struct_solve.hankel_to_toeplitz", ("backend",)),
    ("struct_solve.nullspace_structured", ("backend",)),
    ("field.build_extension", ("apps",)),
    ("approx.lift_instance", ("apps",)),
    ("field.project_solution_to_base", ("apps",)),
    ("apps.solve_approx", ("apps",)),
    ("approx.verify_approx", ("backend", "apps")),
    ("reduction.verify_solution", ("apps",)),
    ("reduction.assemble_Q", ("apps",)),
)
DENSE = (("toeplitz_like.solve_via_dense", ("apps",)),)

KERNEL = "struct_solve.nullspace_structured"
EXTENSION = "field.build_extension"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Context manager: wraps `layers` on entry, restores them on exit."""

    def __init__(self, layers):
        self.layers = layers
        self.stats = {name: [0, 0.0, 0.0] for name, _ in layers}  # calls, s, self s
        self.missing = []
        self._stack = []
        self._saved = []
        self.field_too_small = 0
        self.useful = 0
        self.size_max = 0
        self.alpha_max = 0
        self.d_total = 0
        self.d_calls = 0
        mv = importlib.import_module("mvinterp")
        self._verdicts = (mv.Solution, mv.NoSolution)
        self._too_small = mv.FieldTooSmall

    def __enter__(self):
        for name, callers in self.layers:
            attr = name.rsplit(".", 1)[1]
            found = False
            for caller in callers:
                try:
                    mod = importlib.import_module(f"mvinterp.{caller}")
                except ModuleNotFoundError:
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(name, orig))
                found = True
            if not found:
                self.missing.append(name)
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)
        return False

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            out = error = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                error = exc
                raise
            finally:
                dt = perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - nested
                self._count(name, args, kwargs, out, error)

        return timed

    def _count(self, name, args, kwargs, out, error):
        """Counters read from arguments, return values and exceptions."""
        if name == KERNEL:
            G = _arg(args, kwargs, 0, "G")
            self.size_max = max(self.size_max, G.nrows, G.ncols)
            self.alpha_max = max(self.alpha_max, G.alpha)
            if isinstance(error, self._too_small):
                self.field_too_small += 1
            elif error is None and isinstance(out, self._verdicts):
                self.useful += 1
        elif name == EXTENSION:
            self.d_total += _arg(args, kwargs, 1, "d")
            self.d_calls += 1

    def metrics(self, solves: int) -> dict:
        """{metric: (value, unit)}; calls and times are per traced solve."""
        per = 1.0 / max(solves, 1)
        out = {}
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = (calls * per, "count")
            out[f"{name}.ms"] = (total * 1000.0 * per, "ms")
            out[f"{name}.self_ms"] = (own * 1000.0 * per, "ms")
        if KERNEL in self.stats:
            kernel_calls = self.stats[KERNEL][0]
            out[f"{KERNEL}.field_too_small"] = (self.field_too_small * per, "count")
            out[f"{KERNEL}.useful_ratio"] = (self.useful / max(kernel_calls, 1), "ratio")
            out[f"{KERNEL}.size_max"] = (self.size_max, "rows")
            out[f"{KERNEL}.alpha_max"] = (self.alpha_max, "count")
            out[f"{EXTENSION}.d_mean"] = (self.d_total / max(self.d_calls, 1), "degree")
            lifts = self.stats["approx.lift_instance"][0]
            out["apps.solve_approx.lift_ratio"] = (
                lifts / max(self.stats["apps.solve_approx"][0], 1), "ratio")
        return out
