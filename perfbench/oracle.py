"""Correctness oracles the benchmark owns.

They work on plain ints mod p straight from the problem statement, the
shifted-coefficient (Hasse derivative) conditions, and never go through
the library's reduction or verifier, so a bug there cannot hide itself.
"""

from __future__ import annotations

from math import comb


def exponents(nvars: int, bound: int):
    """Exponent tuples of total degree <= bound."""
    if nvars == 1:
        return [(t,) for t in range(bound + 1)]
    return [(a,) + rest for a in range(bound + 1) for rest in exponents(nvars - 1, bound - a)]


def columns(s, ell, b, weights):
    """(exponent, degree bound) for every admissible Y-monomial."""
    out = []
    for j in exponents(s, ell):
        bound = b - sum(a * w for a, w in zip(j, weights))
        if bound >= 1:
            out.append((j, bound))
    return out


def condition_count(s, mults):
    """Linear conditions a point set imposes: sum over points of
    sum_{k < m_r} (number of Y-orders i with |i| = k) * (m_r - k)."""
    return sum(
        comb(t + s - 1, s - 1) * (m - t) for m in mults for t in range(m)
    )


def _hasse(coeffs, x, count, p):
    """[D_h q (x) for h < count], D_h the order-h Hasse derivative."""
    out = []
    for h in range(count):
        acc = 0
        for t in range(len(coeffs) - 1, h - 1, -1):
            acc = (acc * x + comb(t, h) * coeffs[t]) % p
        out.append(acc)
    return out


def _y_factor(j, i, ys, p):
    """prod_t binom(j_t, i_t) * y_t^(j_t - i_t), or 0 when j < i fails."""
    acc = 1
    for jt, it, y in zip(j, i, ys):
        if jt < it:
            return 0
        acc = acc * comb(jt, it) * pow(y, jt - it, p) % p
    return acc


def _vanishes(terms, x, ys, m, s, p):
    """Every coefficient of X^h Y^i in Q(X + x, Y + y) with h + |i| < m is 0."""
    hasse = {j: _hasse(c, x, m, p) for j, c in terms.items()}
    for i in exponents(s, m - 1):
        for h in range(m - sum(i)):
            acc = sum(_y_factor(j, i, ys, p) * hv[h] for j, hv in hasse.items())
            if acc % p:
                return False
    return True


def check_solution(spec, Q) -> bool:
    """Does the returned multivariate polynomial solve `spec`?

    Points at infinity (wu) need (X - x)^(m - j) to divide Q_{l-j} for
    j < m, i.e. the Hasse derivatives of order < m - j vanish at x.
    """
    s = len(spec.weights)
    ctx = Q.ctx
    if ctx.p != spec.p or ctx.d != 1 or Q.nvars != s:
        return False
    terms = {tuple(j): [int(c) % spec.p for c in q.to_ints()] for j, q in Q.terms.items()}
    terms = {j: c for j, c in terms.items() if any(c)}
    if not terms:
        return False
    for j, c in terms.items():
        if sum(j) > spec.ell:
            return False
        if len(c) - 1 + sum(a * w for a, w in zip(j, spec.weights)) >= spec.b:
            return False
    for (x, ys), m in zip(spec.points, spec.mults):
        if ys[0] is None:
            for j in range(m):
                coeffs = terms.get((spec.ell - j,))
                if coeffs and any(_hasse(coeffs, x, m - j, spec.p)):
                    return False
        elif not _vanishes(terms, x, ys, m, s, spec.p):
            return False
    return True


def solvable(prime_field, matrix_rank, spec) -> bool:
    """Verdict from the dense rank of the Hasse-condition matrix.

    Computed once per instance at set-up, with the library's dense
    `linalg.matrix_rank` on a matrix the benchmark builds itself.
    """
    s, p = len(spec.weights), spec.p
    cols = columns(s, spec.ell, spec.b, spec.weights)
    unknowns = [(j, t) for j, bound in cols for t in range(bound)]
    if not unknowns:
        return False
    if len(unknowns) > condition_count(s, spec.mults):
        return True
    rows = []
    for (x, ys), m in zip(spec.points, spec.mults):
        for i in exponents(s, m - 1):
            for h in range(m - sum(i)):
                rows.append([
                    _y_factor(j, i, ys, p) * comb(t, h) * pow(x, t - h, p) % p if t >= h else 0
                    for j, t in unknowns
                ])
    ctx = prime_field(p)
    dense = [[ctx.el(v) for v in row] for row in rows]
    return matrix_rank(ctx, dense, len(unknowns)) < len(unknowns)
