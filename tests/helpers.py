"""Shared random-object factories and dense oracles for the test suite.

Everything random takes an explicit random.Random so failures reproduce
from the seed printed by the test that drew them.  The dense oracles work
on plain FieldElement rows, independently of the structured kernel.
kernel_basis eliminates prime fields below 2^31 with the library's int64
echelon form and every other field with _rref_generic, an element-wise
echelon form in FieldElement arithmetic, independent of the library's
elimination over F_p (linalg), which runs every field through one
realified matrix.
"""

import math
import random

import numpy as np

from mvinterp.approx import ApproxInstance
from mvinterp.field import prime_field, residues
from mvinterp.formats import _field_line, format_element
from mvinterp.linalg import _NP_PRIME_LIMIT, _rref_np
from mvinterp.errors import BadLength, TooLarge
from mvinterp.mosaic_hankel import compute_s_star
from mvinterp.poly import Poly, poly_divrem, reverse, series_inv
from mvinterp.reduction import InterpolationInstance, MultiPoly, graded_exponents
from mvinterp.struct_solve import TAG_TOEPLITZ, GeneratorPair
from mvinterp.toeplitz_like import DENSE_GUARD_CELLS

_RECONSTRUCT_GUARD_CELLS = 1 << 14


def trunc(f: Poly, n: int) -> Poly:
    """f mod X^n."""
    return Poly.from_residues(f.ctx, f.a[:, : max(n, 0)])


def poly_mod(a: Poly, b: Poly) -> Poly:
    return poly_divrem(a, b)[1]


def mul_univariate(Q: MultiPoly, f: Poly) -> MultiPoly:
    """Q with every coefficient Q_j multiplied by f."""
    return MultiPoly(Q.ctx, Q.nvars, {j: q * f for j, q in Q.terms.items()})


def from_ints(ctx, ints):
    """The polynomial with coefficients ints (low degree first) mod p."""
    return Poly(ctx, [ctx.el(v) for v in ints])


def random_poly(ctx, deg_bound, rng, monic=False, exact=False):
    """Random polynomial of degree < deg_bound (or == deg_bound-1 when exact,
    monic when asked).  deg_bound <= 0 gives the zero polynomial."""
    if deg_bound <= 0:
        return Poly.zero(ctx)
    coefs = [ctx.from_index(rng.randrange(ctx.order)) for _ in range(deg_bound)]
    if monic or exact:
        coefs[-1] = ctx.one() if monic else ctx.from_index(rng.randrange(1, ctx.order))
    return Poly(ctx, coefs)


def random_monic(ctx, deg, rng):
    return random_poly(ctx, deg + 1, rng, monic=True)


def random_approx_instance(
    ctx,
    rng,
    max_mu=3,
    max_nu=4,
    max_moddeg=4,
    max_bound=4,
):
    """Random simultaneous-approximation instance (not trimmed)."""
    mu = rng.randint(1, max_mu)
    nu = rng.randint(1, max_nu)
    moduli = tuple(random_monic(ctx, rng.randint(1, max_moddeg), rng) for _ in range(mu))
    residues = tuple(
        tuple(random_poly(ctx, moduli[i].deg, rng) for _ in range(nu)) for i in range(mu)
    )
    bounds = tuple(rng.randint(1, max_bound) for _ in range(nu))
    return ApproxInstance(ctx, moduli, residues, bounds)


def random_interp_instance(
    p,
    rng,
    max_s=3,
    max_n=8,
    max_mult=3,
    max_ell=4,
    allow_negative_weights=True,
):
    """Random Problem-1 instance over F_p with pairwise-distinct x."""
    ctx = prime_field(p)
    s = rng.randint(1, max_s)
    n = rng.randint(1, min(max_n, p))
    xs = rng.sample(range(p), n)
    points = tuple(
        (ctx.el(x), tuple(ctx.el(rng.randrange(p)) for _ in range(s))) for x in xs
    )
    mults = tuple(rng.randint(1, max_mult) for _ in range(n))
    ell = rng.randint(1, max_ell)
    lo = -2 if allow_negative_weights else 0
    weights = tuple(rng.randint(lo, 3) for _ in range(s))
    # keep the column set nonempty: wdeg bound must admit at least Y^0
    b = rng.randint(1, 8) + max(0, ell * max(weights + (0,)))
    return InterpolationInstance(
        ctx,
        nvars=s,
        ydeg_bound=ell,
        wdeg_bound=b,
        weights=weights,
        points=points,
        mults=mults,
    )


def spread_seeds(base, count):
    """Independent child seeds from one base seed."""
    top = random.Random(base)
    return [top.randrange(2**63) for _ in range(count)]


# ------------------------------------------------------------ matrices and generators


def rand_el(ctx, rng):
    return ctx.from_index(rng.randrange(ctx.order))


def rand_matrix(ctx, m, n, rng):
    return [[rand_el(ctx, rng) for _ in range(n)] for _ in range(m)]


def low_rank_matrix(ctx, m, n, r, rng):
    B = rand_matrix(ctx, m, r, rng)
    C = rand_matrix(ctx, r, n, rng)
    return [
        [sum((B[i][k] * C[k][j] for k in range(r)), ctx.zero()) for j in range(n)]
        for i in range(m)
    ]


def generator(tag, m, n, v_cols, w_rows, ctx):
    """GeneratorPair from FieldElement columns of V and rows of W."""
    R = residues(ctx)

    def stack(vectors, length):
        arrays = [R.array(x) for x in vectors]
        return np.stack(arrays) if arrays else np.zeros((0, ctx.d, length), R.dtype)

    return GeneratorPair(tag, m, n, stack(v_cols, m), stack(w_rows, n), ctx)


def halves(G):
    """The columns of V and the rows of W as FieldElement lists."""
    R = residues(G.ctx)
    return [R.elements(c) for c in G.v], [R.elements(r) for r in G.w]


def gen_from_dense(tag, rows, ctx):
    """Width-N generator straight from the displacement (V = D, W = I)."""
    m, n = len(rows), len(rows[0])
    D = displacement_of_dense(tag, rows, ctx)
    v_cols = tuple(tuple(D[i][j] for i in range(m)) for j in range(n))
    w_rows = tuple(
        tuple(ctx.one() if k == j else ctx.zero() for k in range(n)) for j in range(n)
    )
    return generator(tag, m, n, v_cols, w_rows, ctx)


def rand_generator(tag, ctx, m, n, alpha, rng):
    v = tuple(tuple(rand_el(ctx, rng) for _ in range(m)) for _ in range(alpha))
    w = tuple(tuple(rand_el(ctx, rng) for _ in range(n)) for _ in range(alpha))
    return generator(tag, m, n, v, w, ctx)


# ------------------------------------------------------------ dense oracles


def reconstruct_dense(G):
    """The unique matrix with the given displacement, as FieldElement rows."""
    M, N = G.nrows, G.ncols
    if M * N > _RECONSTRUCT_GUARD_CELLS:
        raise TooLarge(f"{M}x{N} exceeds the dense reconstruction guard")
    z = G.ctx.zero()
    D = [[z] * N for _ in range(M)]
    for col, row in zip(*halves(G)):
        for i, vi in enumerate(col):
            if not vi.is_zero():
                Di = D[i]
                for j, wj in enumerate(row):
                    Di[j] = Di[j] + vi * wj
    A = [list(r) for r in D]
    cur = D
    for _ in range(1, min(M, N)):
        if G.tag == TAG_TOEPLITZ:
            nxt = [[z] * N] + [[z] + r[:-1] for r in cur[:-1]]
        else:
            nxt = [[z] * N] + [r[1:] + [z] for r in cur[:-1]]
        if not any(any(not e.is_zero() for e in r) for r in nxt):
            break
        for i in range(M):
            Ai, Ni = A[i], nxt[i]
            for j in range(N):
                Ai[j] = Ai[j] + Ni[j]
        cur = nxt
    return A


def mat_vec(rows, x, ctx):
    return [sum((a * b for a, b in zip(r, x)), ctx.zero()) for r in rows]


def elements(ctx, x):
    """FieldElements of a (d, n) residue vector, such as a kernel Solution's."""
    return residues(ctx).elements(x)


def res(ctx, values):
    """The (d, n) residue array of n ints or FieldElements."""
    return residues(ctx).array([ctx.el(v) for v in values])


def res_matrix(ctx, rows, ncols):
    """The (M, d, N) residue array of a matrix of FieldElement rows."""
    A = res(ctx, [e for row in rows for e in row])
    return A.reshape(ctx.d, len(rows), ncols).swapaxes(0, 1)


def element_rows(ctx, A):
    """FieldElement rows of an (M, d, N) residue matrix, such as
    dense_build_Aprime's."""
    return [elements(ctx, row) for row in A]


def apply_generator(G, x):
    """A·x for the matrix a generator of either tag represents."""
    return mat_vec(reconstruct_dense(G), x, G.ctx)


def generator_product(G):
    """V·W as dense FieldElement rows (the displacement the generator claims)."""
    z = G.ctx.zero()
    out = [[z] * G.ncols for _ in range(G.nrows)]
    for col, row in zip(*halves(G)):
        for i, vi in enumerate(col):
            if not vi.is_zero():
                oi = out[i]
                for j, wj in enumerate(row):
                    oi[j] = oi[j] + vi * wj
    return out


def displacement_of_dense(tag, rows, ctx):
    """A - Z A Z^T (toeplitz) or A - Z A Z (hankel) of a dense matrix."""
    M = len(rows)
    N = len(rows[0]) if rows else 0
    z = ctx.zero()
    out = []
    for i in range(M):
        line = []
        for j in range(N):
            if i == 0:
                line.append(rows[i][j])
            elif tag == TAG_TOEPLITZ:
                line.append(rows[i][j] - (rows[i - 1][j - 1] if j >= 1 else z))
            else:
                line.append(rows[i][j] - (rows[i - 1][j + 1] if j + 1 < N else z))
        out.append(line)
    return out


def _np_eligible(ctx) -> bool:
    return ctx.d == 1 and ctx.p < _NP_PRIME_LIMIT


def _to_np(ctx, rows, ncols):
    arr = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        arr[i] = [e.c[0] for e in row]
    return arr


def _rref_generic(rows, ctx):
    """Reduced row echelon form and pivot columns, element by element in
    FieldElement arithmetic: the reference the library's elimination over
    F_p (linalg._rref_np) is checked against."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def kernel_basis(ctx, rows, ncols):
    """Basis of the right nullspace as a list of FieldElement vectors."""
    if ncols == 0:
        return []
    if not rows:
        basis = []
        for f in range(ncols):
            v = [ctx.zero()] * ncols
            v[f] = ctx.one()
            basis.append(v)
        return basis
    if _np_eligible(ctx):
        arr = _to_np(ctx, rows, ncols)
        pivots = _rref_np(arr, ctx.p)
        piv_set = set(pivots)
        basis = []
        for f in range(ncols):
            if f in piv_set:
                continue
            v = [0] * ncols
            v[f] = 1
            for i, c in enumerate(pivots):
                v[c] = int(-arr[i, f]) % ctx.p
            basis.append([ctx.el(x) for x in v])
        return basis
    red, pivots = _rref_generic(rows, ctx)
    piv_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in piv_set:
            continue
        v = [ctx.zero()] * ncols
        v[f] = ctx.one()
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(v)
    return basis


# ------------------------------------------------------------ Hasse expansion


def exp_leq(i, j) -> bool:
    return all(a <= b for a, b in zip(i, j))


def binom_mod(ctx, n: int, k: int):
    """Binomial coefficient reduced mod the characteristic, as a FieldElement."""
    if k < 0 or k > n:
        return ctx.zero()
    return ctx.el(math.comb(n, k))


def multi_binom(ctx, j, i):
    """prod_t binom(j_t, i_t) in ctx, by FieldElement products."""
    acc = ctx.one()
    for a, b in zip(j, i):
        acc = acc * binom_mod(ctx, a, b)
        if acc.is_zero():
            return acc
    return acc


def _hasse_eval(q, x, h):
    """Order-h Hasse derivative of q evaluated at x (characteristic-safe)."""
    ctx = q.ctx
    if h > q.deg:
        return ctx.zero()
    acc = ctx.zero()
    for t in range(q.deg, h - 1, -1):
        acc = acc * x + binom_mod(ctx, t, h) * q.c[t]
    return acc


def hasse_shift_expand(Q, point):
    """All nonzero coefficients of Q(X + x, Y + y) as {(h, i): value}.

    Brute-force expansion; verification oracle for desk-scale inputs only.
    """
    x, ys = point
    ctx = Q.ctx
    out = {}
    for j, q in Q.terms.items():
        shifted = [_hasse_eval(q, x, h) for h in range(q.deg + 1)]
        for i in graded_exponents(Q.nvars, sum(j)):
            if not exp_leq(i, j):
                continue
            coef = multi_binom(ctx, j, i)
            if coef.is_zero():
                continue
            for t in range(Q.nvars):
                coef = coef * ys[t] ** (j[t] - i[t])
            if coef.is_zero():
                continue
            for h, u in enumerate(shifted):
                if not u.is_zero():
                    key = (h, i)
                    out[key] = out.get(key, ctx.zero()) + u * coef
    return {k: v for k, v in out.items() if not v.is_zero()}


def extend_recurrence(init, charpoly, count):
    """First `count` terms of the sequence with b[:m] = init and
    b[i+m] = -sum_j charpoly[j] * b[i+j], charpoly monic of degree m.

    Computed through the generating function: B = N / rev(charpoly) as a
    power series, with N determined by the initial terms.
    """
    ctx = charpoly.ctx
    m = charpoly.deg
    if m < 1 or charpoly.lead() != ctx.one():
        raise BadLength("characteristic polynomial must be monic of degree >= 1")
    init = [ctx.el(v) for v in init]
    if len(init) != m:
        raise BadLength(f"need {m} initial terms, got {len(init)}")
    if count <= m:
        return init[:count]
    denom = reverse(charpoly, m)
    numer = trunc(Poly(ctx, init) * denom, m)
    series = trunc(numer * series_inv(denom, count), count)
    return [series.coeff(i) for i in range(count)]


def pack_solution(qs, bounds):
    """Flat FieldElement coefficient vector of a solution tuple (what
    approx.unpack_solution splits, as a residue array)."""
    vec = []
    for q, b in zip(qs, bounds):
        if q.deg >= b:
            raise BadLength(f"degree {q.deg} exceeds bound {b}")
        vec.extend(q.coeff(i) for i in range(b))
    return vec


def dense_build_A(a: ApproxInstance):
    """The mosaic-Hankel matrix of an instance itself, as FieldElement rows."""
    M, N = a.total_rows, a.total_cols
    if M * N > DENSE_GUARD_CELLS:
        raise TooLarge(f"{M}x{N} dense mosaic exceeds the guard")
    s_star = compute_s_star(a)
    rows = [[a.ctx.zero()] * N for _ in range(M)]
    r0 = 0
    for i, mi in enumerate(a.row_bounds):
        c0 = 0
        for j, nj in enumerate(a.col_bounds):
            s = Poly.from_residues(a.ctx, s_star[i][j])
            for u in range(mi):
                row = rows[r0 + u]
                for v in range(nj):
                    row[c0 + v] = s.coeff(u + v)
            c0 += nj
        r0 += mi
    return rows


def markov_tops(P, F, count):
    """The top coefficients of X^v * F mod P for v < count: the first count
    terms of compute_s_star on the one-block instance (P; F; count)."""
    series = Poly.from_residues(P.ctx, compute_s_star(ApproxInstance(P.ctx, (P,), ((F,),), (count,)))[0][0])
    return tuple(series.coeff(v) for v in range(count))


# ------------------------------------------------------------ dense residue oracles


def dense_from_halves(R, v, w):
    """The matrix A with A - Z A Z^T = V·W of toeplitz-tagged halves v
    (alpha, d, M) and w (alpha, d, N), as an (M, d, N) residue array: V·W
    from entrywise products, then A[i, j] = (V·W)[i, j] + A[i-1, j-1]."""
    A = sum(R.emul(vc.T[:, :, None], wc[None]) for vc, wc in zip(v, w)) % R.p
    for i in range(1, len(A)):
        A[i, :, 1:] = (A[i, :, 1:] + A[i - 1, :, :-1]) % R.p
    return A


def dense_toeplitz(R, first, upper):
    """The unit-triangular Toeplitz matrix with first row (upper) or first
    column (lower) `first` (d, n), as an (n, d, n) residue array."""
    n = first.shape[1]
    i, j = np.indices((n, n))
    k = j - i if upper else i - j
    return np.where(k[:, None, :] >= 0, first[:, k.clip(0)].transpose(1, 0, 2), 0)


def dense_matvec(R, A, x):
    """A·x for an (M, d, N) residue matrix and a (d, N) vector, as (d, M)."""
    return (R.emul(A, x[None]).sum(axis=-1) % R.p).T


def format_approx(parsed):
    """An approximation file for a ParsedApprox, as parse_instance reads it."""
    a = parsed.approx
    out = [_field_line(parsed.ctx)]
    out.append(f"approx {a.mu} {a.nu}")
    out.append("bounds " + " ".join(str(b) for b in a.col_bounds))
    for i, p in enumerate(a.moduli):
        out.append(f"modulus {i} : " + " ".join(format_element(c) for c in p.c))
    for i, row in enumerate(a.residues):
        for j, f in enumerate(row):
            if not f.is_zero():
                out.append(
                    f"residue {i} {j} : " + " ".join(format_element(c) for c in f.c)
                )
    return "\n".join(out) + "\n"


def assert_column_budgets(plan, b, k, ell, known):
    """Every column a univariate plan keeps has the budget b - j*k - known(j)
    as its bound, and the columns it leaves out are exactly those whose
    budget is <= 0; known(j) is the degree of the known divisor of Q_j."""
    budgets = [(j, b - j * k - known(j)) for j in range(ell + 1)]
    assert plan.exponents == tuple((j,) for j, v in budgets if v >= 1), budgets
    assert plan.col_bounds == tuple(v for _, v in budgets if v >= 1), budgets
