"""Plain-text on-disk formats for instances and solutions.

Instance files are whitespace-delimited keyword lines ('#' starts a comment):

    field <p> [<d> <c_0> ... <c_d>]   # optional extension with defining poly
    s <nvars>
    ell <ydeg bound>
    b <weighted degree bound>
    k <k_1> ... <k_s>
    n0 <prefix length>                # optional, re-encoding mode only
    points <n>
    <x> <m> <y_1> ... <y_s>           # n rows; y tokens may be "inf"

Alternatively a file may carry a bare simultaneous-approximation problem:

    field <p> [...]
    approx <mu> <nu>
    bounds <N_1> ... <N_nu>
    modulus <i> : <c_0> ... (monic)
    residue <i> <j> : <c_0> ...       # omitted residues are zero

Field elements are decimal residues; extension elements are comma-joined
coefficient lists (low degree first).  Solution files echo the instance
hash and the backend, then one record per nonzero unknown:

    hash <sha256 of the instance file>
    backend <name>
    <j_1> ... <j_s> : <c_0> ... <c_deg>

Instance and solution files round-trip exactly (parse of a printed file
reproduces the object, and printing is canonical); approximation files are
only read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .approx import ApproxInstance
from .field import FieldCtx, FieldElement, prime_field
from .poly import Poly
from .reduction import InterpolationInstance, MultiPoly


class ParseError(ValueError):
    """Malformed instance or solution text."""


@dataclass(frozen=True)
class ParsedInstance:
    ctx: FieldCtx
    s: int
    ell: int
    b: int
    weights: tuple
    rows: tuple  # (x: FieldElement, m: int, ys: tuple[FieldElement | None])
    n0: int = None

    @property
    def n(self):
        return len(self.rows)

    def has_infinite(self) -> bool:
        return any(y is None for _, _, ys in self.rows for y in ys)

    def uniform_mult(self) -> int:
        ms = {m for _, m, _ in self.rows}
        if len(ms) != 1:
            raise ParseError("this mode needs one common multiplicity")
        return ms.pop()

    def interpolation_instance(self, allow_duplicate_x=False) -> InterpolationInstance:
        pts = []
        for x, _, ys in self.rows:
            if any(y is None for y in ys):
                raise ParseError("infinite y is only meaningful in wu mode")
            pts.append((x, ys))
        return InterpolationInstance(
            self.ctx,
            self.s,
            self.ell,
            self.b,
            self.weights,
            tuple(pts),
            tuple(m for _, m, _ in self.rows),
            allow_duplicate_x=allow_duplicate_x,
        )


@dataclass(frozen=True)
class ParsedApprox:
    ctx: FieldCtx
    approx: ApproxInstance


# ------------------------------------------------------------------ tokens


def format_element(el: FieldElement) -> str:
    return ",".join(str(v) for v in el.c)


def parse_element(ctx: FieldCtx, token: str) -> FieldElement:
    parts = token.split(",")
    try:
        coeffs = [int(t) for t in parts]
    except ValueError:
        raise ParseError(f"bad field element {token!r}") from None
    if len(coeffs) > ctx.d:
        raise ParseError(f"element {token!r} has more than {ctx.d} coefficients")
    return ctx.el(coeffs)


def _int(token, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad {what}: {token!r}") from None


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_field(toks) -> FieldCtx:
    if not toks:
        raise ParseError("field line needs a prime")
    if len(toks) == 1:
        p = _int(toks[0], "prime")
        try:
            return prime_field(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    d = _int(toks[1], "extension degree")
    coeffs = [_int(t, "defining coefficient") for t in toks[2:]]
    if len(coeffs) != d + 1:
        raise ParseError(f"defining polynomial needs {d + 1} coefficients")
    try:
        return FieldCtx(_int(toks[0], "prime"), tuple(coeffs))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# --------------------------------------------------------------- instances


def parse_instance(text: str):
    """Parse an instance file into ParsedInstance or ParsedApprox."""
    ctx = None
    header = {}
    weights = None
    rows = []
    # raw-approx parts
    approx_dims = None
    bounds = None
    moduli = {}
    residues = {}
    seen = set()  # keywords that may appear once

    for lineno, toks in _content_lines(text):
        key = toks[0]
        if len(rows) < header.get("points", 0):
            if ctx is None or "s" not in header:
                raise ParseError("field and s lines must precede the points")
            if len(toks) != 2 + header["s"]:
                raise ParseError(f"line {lineno}: point row needs x, m and {header['s']} y values")
            x = parse_element(ctx, toks[0])
            m = _int(toks[1], "multiplicity")
            ys = tuple(
                None if t == "inf" else parse_element(ctx, t) for t in toks[2:]
            )
            rows.append((x, m, ys))
            continue
        if key not in ("modulus", "residue"):
            if key in seen:
                raise ParseError(f"line {lineno}: repeated {key} line")
            seen.add(key)
        if key == "field":
            ctx = _parse_field(toks[1:])
        elif key in ("s", "ell", "b", "n0", "points"):
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: {key} takes one value")
            header[key] = _int(toks[1], key)
        elif key == "k":
            weights = tuple(_int(t, "weight") for t in toks[1:])
        elif key == "approx":
            if len(toks) != 3:
                raise ParseError(f"line {lineno}: approx takes mu and nu")
            approx_dims = (_int(toks[1], "mu"), _int(toks[2], "nu"))
        elif key == "bounds":
            bounds = tuple(_int(t, "bound") for t in toks[1:])
        elif key in ("modulus", "residue"):
            if ctx is None:
                raise ParseError("field line must precede polynomial records")
            head = 2 if key == "modulus" else 3
            if len(toks) <= head or toks[head] != ":":
                raise ParseError(f"line {lineno}: expected '{key} <indices> : <coeffs>'")
            coeffs = [parse_element(ctx, t) for t in toks[head + 1 :]]
            poly = Poly(ctx, coeffs) if coeffs else Poly.zero(ctx)
            if key == "modulus":
                table, index = moduli, _int(toks[1], "row")
            else:
                table, index = residues, (_int(toks[1], "row"), _int(toks[2], "column"))
            if index in table:
                raise ParseError(f"line {lineno}: repeated {key} {index}")
            table[index] = poly
        else:
            raise ParseError(f"line {lineno}: unknown keyword {key!r}")

    if ctx is None:
        raise ParseError("missing field line")
    if approx_dims is not None:
        if bounds is None or len(bounds) != approx_dims[1]:
            raise ParseError("bounds line must list one bound per unknown")
        mu, nu = approx_dims
        if sorted(moduli) != list(range(mu)):
            raise ParseError(f"need moduli 0..{mu - 1}")
        for (i, j) in residues:
            if not (0 <= i < mu and 0 <= j < nu):
                raise ParseError(f"residue index ({i}, {j}) out of range")
        try:
            a = ApproxInstance(
                ctx,
                tuple(moduli[i] for i in range(mu)),
                tuple(
                    tuple(residues.get((i, j), Poly.zero(ctx)) for j in range(nu))
                    for i in range(mu)
                ),
                bounds,
            )
        except Exception as exc:
            raise ParseError(f"bad approximation instance: {exc}") from None
        return ParsedApprox(ctx, a)

    for key in ("s", "ell", "b"):
        if key not in header:
            raise ParseError(f"missing {key} line")
    if weights is None or len(weights) != header["s"]:
        raise ParseError("k line must list one weight per variable")
    if "points" not in header:
        raise ParseError("missing points line")
    if len(rows) != header["points"]:
        raise ParseError(f"expected {header['points']} point rows, found {len(rows)}")
    return ParsedInstance(
        ctx, header["s"], header["ell"], header["b"], weights, tuple(rows),
        header.get("n0"),
    )


def _field_line(ctx: FieldCtx) -> str:
    if ctx.d == 1:
        return f"field {ctx.p}"
    return f"field {ctx.p} {ctx.d} " + " ".join(str(c) for c in ctx.modulus)


def format_instance(inst: ParsedInstance) -> str:
    out = [_field_line(inst.ctx)]
    out.append(f"s {inst.s}")
    out.append(f"ell {inst.ell}")
    out.append(f"b {inst.b}")
    out.append("k " + " ".join(str(w) for w in inst.weights))
    if inst.n0 is not None:
        out.append(f"n0 {inst.n0}")
    out.append(f"points {inst.n}")
    for x, m, ys in inst.rows:
        cells = [format_element(x), str(m)]
        cells += ["inf" if y is None else format_element(y) for y in ys]
        out.append(" ".join(cells))
    return "\n".join(out) + "\n"


# --------------------------------------------------------------- solutions


def instance_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def format_solution(Q: MultiPoly, inst_hash: str, backend: str) -> str:
    out = [f"hash {inst_hash}", f"backend {backend}"]
    for j, q in Q.sorted_terms():
        out.append(
            " ".join(str(e) for e in j)
            + " : "
            + " ".join(format_element(c) for c in q.c)
        )
    return "\n".join(out) + "\n"


def parse_solution(text: str, ctx: FieldCtx, nvars: int):
    """Return (hash, backend, MultiPoly) from a solution file."""
    header = {}
    terms = {}
    for lineno, toks in _content_lines(text):
        if toks[0] in ("hash", "backend") and len(toks) == 2:
            if toks[0] in header:
                raise ParseError(f"line {lineno}: repeated {toks[0]} line")
            header[toks[0]] = toks[1]
        else:
            if ":" not in toks:
                raise ParseError(f"line {lineno}: expected '<exponents> : <coeffs>'")
            at = toks.index(":")
            if at != nvars:
                raise ParseError(f"line {lineno}: expected {nvars} exponents")
            j = tuple(_int(t, "exponent") for t in toks[:at])
            coeffs = [parse_element(ctx, t) for t in toks[at + 1 :]]
            if j in terms:
                raise ParseError(f"line {lineno}: duplicate record for {j}")
            terms[j] = Poly(ctx, coeffs)
    if len(header) < 2:
        raise ParseError("missing hash or backend header")
    return header["hash"], header["backend"], MultiPoly(ctx, nvars, terms)
