"""The structured kernel on every kind of field it accepts.

Prime fields with int64 residues, a large prime and 2^61 - 1 (Python-int
residues), an odd-characteristic extension and GF(2^8).  Verdicts are
checked against the dense matrix the generator represents; the golden
vectors pin the exact output for fixed draws, which depends only on the
matrix and the random stream (the pivot rows of the elimination are
invariants of the preconditioned matrix).
"""

import random

import numpy as np
import pytest

from helpers import (
    dense_from_halves,
    dense_matvec,
    elements,
    gen_from_dense,
    generator,
    low_rank_matrix,
    mat_vec,
    rand_el,
    rand_generator,
    rand_matrix,
    reconstruct_dense,
    spread_seeds,
)
from mvinterp import struct_solve
from mvinterp.apps import GsParams, gs_interpolate
from mvinterp.field import FieldCtx, Residues, prime_field
from mvinterp.linalg import matrix_rank
from mvinterp.outcomes import Failure, NoSolution, Solution
from mvinterp.reduction import InterpolationInstance, verify_solution
from mvinterp.struct_solve import (
    GeneratorPair,
    _compress,
    _precondition,
    _schur_step,
    _schur_step_prime,
    nullspace_structured,
)

F7 = prime_field(7)
F65537 = prime_field(65537)
F13_4 = FieldCtx(13, (6, 12, 6, 0, 1))
P31 = prime_field(2147483659)
M61 = prime_field(2**61 - 1)
GF256 = FieldCtx(2, (1, 0, 1, 1, 1, 0, 0, 0, 1))

# GF(2^8) is below subset_floor of these sizes, so the kernel samples all of it
FIELDS = {"F65537": F65537, "F13^4": F13_4, "P2147483659": P31, "M61": M61, "GF256": GF256}


@pytest.mark.parametrize("name", list(FIELDS))
def test_nullspace_matches_dense_oracle(name):
    ctx = FIELDS[name]
    rng = random.Random(79)
    solved = refused = 0
    for k, seed in enumerate(spread_seeds(83, 12)):
        r = random.Random(seed)
        m, n = r.randint(2, 8), r.randint(2, 8)
        if k % 2:
            G = rand_generator("toeplitz", ctx, m, n, r.randint(1, 3), r)
        else:
            G = gen_from_dense(
                "toeplitz", low_rank_matrix(ctx, m, n, r.randint(1, min(m, n)), r), ctx
            )
        A = reconstruct_dense(G)
        out = nullspace_structured(G, rng, 8)
        if matrix_rank(ctx, A, n) == n:
            assert isinstance(out, NoSolution)
            refused += 1
        else:
            assert isinstance(out, Solution)
            assert out.value.any()
            assert all(e.is_zero() for e in mat_vec(A, elements(ctx, out.value), ctx))
            solved += 1
    assert solved and refused


# ------------------------------------------------------------ the Schur step


def generator_matrix(R, v, w, n):
    return reconstruct_dense(GeneratorPair("toeplitz", n, n, v, w, R.ctx))


def dense_schur_complement(S):
    inv = S[0][0].inv()
    return [[row[j] - row[0] * inv * S[0][j] for j in range(1, len(S))] for row in S[1:]]


@pytest.mark.parametrize("name", ["F65537", "F13^4", "M61", "GF256"])
def test_schur_step_tracks_the_dense_schur_complement(name):
    # after every step the generator represents the next Schur complement of
    # the preconditioned matrix, at no more than its compressed length; a
    # zero complement reached mid-elimination compresses to nothing.  Prime
    # fields (F65537, M61) run _schur_step_prime, the others _schur_step
    ctx = FIELDS[name]
    certified = completed = 0
    for k, seed in enumerate(spread_seeds(31, 8)):
        r = random.Random(seed)
        size = r.randint(2, 7)
        if k % 2:
            G = rand_generator("toeplitz", ctx, size, size, r.randint(1, 3), r)
        else:
            rank = r.randint(1, size - 1)
            G = gen_from_dense("toeplitz", low_rank_matrix(ctx, size, size, rank, r), ctx)
        R = Residues(ctx)
        u = [ctx.one()] + [rand_el(ctx, r) for _ in range(size - 1)]
        l = [ctx.one()] + [rand_el(ctx, r) for _ in range(size - 1)]
        v, w = _precondition(R, G.v, G.w, R.array(u), R.array(l))
        S = generator_matrix(R, v, w, size)
        v, w = _compress(R, v, w)
        alpha = len(v)
        assert generator_matrix(R, v, w, size) == S
        schur_step = _schur_step_prime if ctx.d == 1 else _schur_step  # as _eliminate picks
        while S:
            step = schur_step(R, np.stack([v, w]))
            if S[0][0].is_zero():
                assert step is None
                zero = all(e.is_zero() for row in S for e in row)
                assert (not len(_compress(R, v, w)[0])) == zero
                certified += zero and len(S) < size
                break
            norm, (v, w) = step
            assert R.elements(norm) == [e * S[0][0].inv() for e in S[0]]
            S = dense_schur_complement(S)
            assert len(v) <= alpha
            if S:
                assert generator_matrix(R, v, w, len(S)) == S
        else:
            completed += 1
    assert certified and completed


def gs_deep_params():
    """gs at n=64, m=3, l=6: a 384 x 385 system of displacement rank 10."""
    ctx = prime_field(16777213)
    rng = random.Random(64)
    xs = rng.sample(range(ctx.p), 64)
    pts = tuple((ctx.el(x), ctx.el(rng.randrange(ctx.p))) for x in xs)
    return GsParams(ctx, k=16, m=3, ell=6, b=103, points=pts)


def test_one_compression_per_attempt(monkeypatch):
    # each attempt on the gs 384 x 385 system compresses its preconditioned
    # generator once, and once more at the leading entry that vanishes where
    # the Schur complement is zero
    params = gs_deep_params()
    calls = dict.fromkeys(["_compress", "_precondition"], 0)
    for name in calls:

        def counted(*args, real=getattr(struct_solve, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(struct_solve, name, counted)
    assert isinstance(gs_interpolate(params, random.Random(5)), Solution)
    attempts = calls["_precondition"]
    assert attempts <= calls["_compress"] <= 2 * attempts


@pytest.mark.parametrize("case", ["gs-384x385", "F7-breakdown"])
def test_prime_elimination_matches_the_generic_step(monkeypatch, case):
    # over a prime field _eliminate runs _schur_step_prime; with the
    # (alpha, d, n) _schur_step in its place every call must end the same:
    # the same pivot rows, and the same certified end or the same
    # compressed Schur complement left by a pivot breakdown
    def solve():
        if case == "gs-384x385":
            return gs_interpolate(gs_deep_params(), random.Random(5))
        return nullspace_structured(golden_case(F7, "square", 1), random.Random(101), 8)

    runs = []
    for generic in (False, True):
        calls = []

        def recorded(R, v, w, size, real=struct_solve._eliminate):
            rows, rest = real(R, v, w, size)
            left = None if rest is None else [half.tolist() for half in rest]
            calls.append((size, [row.tolist() for row in rows], rest is None, left))
            return rows, rest

        with monkeypatch.context() as patch:
            patch.setattr(struct_solve, "_eliminate", recorded)
            if generic:
                patch.setattr(struct_solve, "_schur_step_prime", struct_solve._schur_step)
            out = solve()
        assert isinstance(out, Solution)
        value = out.value
        runs.append((calls, value.tolist() if case == "F7-breakdown" else value))
    assert runs[0] == runs[1]
    calls = runs[0][0]
    # the last attempt: from the last call on the whole padded matrix
    size = calls[0][0]
    start = max(i for i, call in enumerate(calls) if call[0] == size)
    last = calls[start:]
    assert last[-1][2]
    assert (len(last) > 1) == (case == "F7-breakdown")
    assert sum(len(rows) for _, rows, _, _ in last) == (384 if case == "gs-384x385" else 5)


def test_back_substitution_sums_past_int64():
    # over p = 479001599 the generators stay int64 (alpha 6 after
    # preconditioning), but a back-substitution row of a 250 x 251 system
    # sums up to 250 products of residues; uniform residues average p^2/4 a
    # product, so such a sum passes 2^63 (it needs 161 terms on average, 41
    # at worst) and must run in R.sum_dtype(size), not int64
    ctx = prime_field(479001599)
    rng = random.Random(479)
    m, n = 250, 251
    t = {k: rand_el(ctx, rng) for k in range(1 - n, m)}
    A = [[t[i - j] for j in range(n)] for i in range(m)]  # Toeplitz: displacement rank 2
    e0_m, e0_n = ([ctx.one()] + [ctx.zero()] * (k - 1) for k in (m, n))
    first_col = [ctx.zero()] + [A[i][0] for i in range(1, m)]
    G = generator("toeplitz", m, n, [e0_m, first_col], [A[0], e0_n], ctx)
    out = nullspace_structured(G, random.Random(5), 8)
    assert isinstance(out, Solution)
    assert out.value.any()
    assert all(e.is_zero() for e in mat_vec(A, elements(ctx, out.value), ctx))


@pytest.mark.parametrize("p", [2**31 - 1, 998244353, 479001599])
def test_gs_solves_over_mid_size_primes(p):
    # residues are stored as int64, but the longer sums of the reduction and
    # the verifiers pass 2^62 and run on Python ints; over 479001599 the
    # kernel keeps int64 generators (alpha 6) while its convolutions of
    # length 37 run on Python ints
    ctx = prime_field(p)
    rng = random.Random(p)
    xs = rng.sample(range(10**6), 12)
    pts = tuple((ctx.el(x), ctx.el(rng.randrange(p))) for x in xs)
    params = GsParams(ctx, k=3, m=2, ell=3, b=14, points=pts)
    out = gs_interpolate(params, random.Random(5))
    assert isinstance(out, Solution)
    inst = InterpolationInstance(ctx, 1, 3, 14, (3,), tuple((x, (y,)) for x, y in pts), (2,) * 12)
    assert verify_solution(inst, out.value)


# ------------------------------------------------------------ golden vectors

GOLDEN_FIELDS = {"F7": F7, "F65537": F65537, "F13^4": F13_4, "M61": M61, "GF256": GF256}

# nullspace_structured(G, random.Random(100 + seed), 8) for the generator
# golden_case(field, kind, seed) builds; F7 and GF256 are sampled whole.
# Recorded from the per-vector implementation this kernel replaced, except
# F7: it breaks down twice, and since the elimination resumes on the Schur
# complement it preconditions at sizes 8, 7 and 6 where a restart drew a
# fresh size-8 attempt, so its draws, and its vector, differ.
GOLDEN = {
    ("F7", "square", 1): [0, 2, 6, 1, 2, 6, 4, 1],
    ("F65537", "wide", 1): [30834, 45722, 38518, 52645, 30498, 61228, 45033, 18957, 44118],
    ("F65537", "square", 2): [52889, 8589, 19637, 36369, 50488, 24686, 29754, 33229],
    ("F65537", "tall", 3): [36947, 10437, 24894, 45136, 18825, 43279],
    ("F13^4", "wide", 1): [
        (12, 6, 4, 5), (0, 7, 12, 7), (4, 10, 2, 0), (6, 7, 2, 7), (4, 2, 12, 2),
        (6, 5, 7, 4), (11, 4, 0, 12), (4, 0, 5, 10), (7, 3, 7, 3),
    ],
    ("F13^4", "square", 2): [
        (8, 5, 8, 2), (2, 6, 11, 8), (2, 6, 0, 11), (6, 10, 7, 9), (9, 11, 9, 2),
        (11, 4, 10, 7), (4, 6, 0, 5), (3, 12, 3, 9),
    ],
    ("F13^4", "tall", 3): [
        (5, 3, 0, 11), (9, 12, 11, 2), (6, 6, 0, 8), (4, 10, 4, 8), (7, 5, 2, 7),
        (7, 11, 8, 2),
    ],
    ("M61", "wide", 1): [
        2068703654681153284, 1074502063148546764, 33669571086863302,
        1958599733383005796, 480146195052310574, 1380806783238888900,
        391668073993020467, 2270209738785645675, 1001610126146464808,
    ],
    ("M61", "square", 2): [
        1878703946774741076, 1995666806049900668, 1202743605107168461,
        1041429403257339020, 1240029596976163855, 2001479733229365730,
        1382222875461047534, 129122862321458159,
    ],
    ("M61", "tall", 3): [
        839190928295313704, 2197804232779141863, 630801841077170683,
        754309803561791188, 847606018109240730, 18983463720743403,
    ],
    ("GF256", "wide", 1): [
        (0, 1, 1, 0, 1, 1, 0, 0), (1, 0, 0, 0, 1, 0, 0, 1), (1, 1, 0, 0, 1, 0, 1, 0),
        (1, 0, 1, 0, 1, 0, 1, 1), (0, 1, 1, 0, 1, 0, 0, 0), (0, 1, 0, 1, 1, 0, 1, 0),
        (1, 1, 1, 1, 0, 0, 1, 0), (1, 1, 0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 0, 1, 0),
    ],
    ("GF256", "square", 2): [
        (0, 0, 0, 1, 0, 0, 0, 1), (1, 1, 1, 1, 0, 0, 1, 1), (0, 0, 0, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 1, 0, 1, 1), (0, 0, 0, 0, 1, 1, 1, 1), (0, 0, 1, 1, 1, 0, 1, 1),
        (0, 1, 0, 1, 1, 1, 1, 0), (0, 0, 1, 0, 0, 0, 0, 1),
    ],
    ("GF256", "tall", 3): [
        (1, 1, 1, 0, 1, 0, 1, 1), (1, 0, 0, 0, 1, 1, 1, 0), (0, 1, 0, 0, 1, 0, 1, 0),
        (0, 0, 1, 0, 1, 1, 1, 1), (1, 1, 1, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1, 1, 0),
    ],
}


def golden_case(ctx, kind, seed):
    r = random.Random(seed)
    if kind == "wide":
        return rand_generator("toeplitz", ctx, 7, 9, 3, r)
    if kind == "square":
        return gen_from_dense("toeplitz", low_rank_matrix(ctx, 8, 8, 5, r), ctx)
    return gen_from_dense("toeplitz", low_rank_matrix(ctx, 9, 6, 4, r), ctx)


@pytest.mark.parametrize("key", list(GOLDEN), ids=["-".join(map(str, k)) for k in GOLDEN])
def test_nullspace_golden_vectors(key):
    name, kind, seed = key
    ctx = GOLDEN_FIELDS[name]
    G = golden_case(ctx, kind, seed)
    out = nullspace_structured(G, random.Random(100 + seed), 8)
    assert isinstance(out, Solution)
    want = [v if isinstance(v, tuple) else (v,) for v in GOLDEN[key]]
    x = elements(ctx, out.value)
    assert [e.c for e in x] == want
    assert all(e.is_zero() for e in mat_vec(reconstruct_dense(G), x, ctx))


# ------------------------------------------------------------ pivot breakdowns


def test_breakdown_resumes_on_the_schur_complement(monkeypatch):
    # the F7 case breaks down: the next preconditioning is of the Schur
    # complement left, smaller than the padded matrix, and the vector that
    # climbs back through the levels is in the kernel
    sizes = []

    def recorded(R, v, w, u_full, l_full, real=struct_solve._precondition):
        sizes.append(u_full.shape[1])
        return real(R, v, w, u_full, l_full)

    monkeypatch.setattr(struct_solve, "_precondition", recorded)
    G = golden_case(F7, "square", 1)
    out = nullspace_structured(G, random.Random(101), 8)
    assert isinstance(out, Solution)
    assert sizes[0] == 8 and min(sizes) < 8
    y = mat_vec(reconstruct_dense(G), elements(F7, out.value), F7)
    assert all(e.is_zero() for e in y)


TINY_FIELDS = {
    "F3": prime_field(3),
    "F5": prime_field(5),
    "F13": prime_field(13),
    "GF4": FieldCtx(2, (1, 1, 1)),  # the extension-field Schur step
}


@pytest.mark.parametrize("name", list(TINY_FIELDS))
def test_tiny_field_verdicts_match_the_dense_rank(name):
    # fields far below subset_floor break down often; a breakdown costs one
    # preconditioning of the complement, not the attempt, so most solves
    # still end in a verdict, and every verdict matches the dense matrix
    ctx = TINY_FIELDS[name]
    rng = random.Random(ctx.order)
    outcomes = []
    for k, seed in enumerate(spread_seeds(ctx.order, 24)):
        r = random.Random(seed)
        m, n = r.randint(4, 16), r.randint(4, 16)
        if k % 2:
            A = rand_matrix(ctx, m, n, r)
        else:
            A = low_rank_matrix(ctx, m, n, r.randint(1, min(m, n)), r)
        out = nullspace_structured(gen_from_dense("toeplitz", A, ctx), rng, 8)
        if isinstance(out, Solution):
            assert out.value.any()
            assert all(e.is_zero() for e in mat_vec(A, elements(ctx, out.value), ctx))
        elif isinstance(out, NoSolution):
            assert matrix_rank(ctx, A, n) == n
        outcomes.append(type(out))
    assert Solution in outcomes and NoSolution in outcomes
    # a prime field's Failure is lifted to an extension; GF4 is never lifted
    assert outcomes.count(Failure) <= (3 if ctx.d > 1 else 0)


def test_f5_square_systems_rarely_fail():
    # random 20 x 20 systems over F_5, each of rank 19 or 20: at most 8
    # preconditionings in all, then the lift, so no solve ends in Failure
    F5 = prime_field(5)
    outcomes = []
    for seed in range(37, 47):
        r = random.Random(seed)
        A = rand_matrix(F5, 20, 20, r)
        out = nullspace_structured(gen_from_dense("toeplitz", A, F5), r, 8)
        if isinstance(out, Solution):
            assert all(e.is_zero() for e in mat_vec(A, elements(F5, out.value), F5))
        elif isinstance(out, NoSolution):
            assert matrix_rank(F5, A, 20) == 20
        outcomes.append(type(out))
    assert Failure not in outcomes


# ------------------------------------------------------------ the lift


@pytest.mark.parametrize("p, m", [(5, 60), (13, 130)])
def test_small_prime_field_failures_are_lifted(p, m):
    # systems many times larger than p eliminate about p pivots per level,
    # so the 8 preconditionings run out in the base field; the lift to
    # F_{p^d} answers each with a base-field vector in the dense kernel
    ctx = prime_field(p)
    R = Residues(ctx)
    for seed in range(6):
        r = random.Random(seed)
        G = rand_generator("toeplitz", ctx, m, m + 1, 3, r)
        out = nullspace_structured(G, r, 8)
        assert isinstance(out, Solution)  # more unknowns than equations
        x = out.value
        assert x.shape == (1, m + 1) and x.any()  # a base-field vector
        assert not dense_matvec(R, dense_from_halves(R, G.v, G.w), x).any()


def break_down_in_prime_fields(monkeypatch):
    """Make every prime-field elimination a pivot breakdown with no pivots,
    so the base field runs out of attempts and the kernel lifts."""
    real = struct_solve._eliminate
    monkeypatch.setattr(
        struct_solve,
        "_eliminate",
        lambda R, v, w, size: ([], (v, w)) if R.d == 1 else real(R, v, w, size),
    )


def test_a_size_two_system_over_f2_lifts_to_degree_six(monkeypatch):
    # subset_floor(2) = 54 and 2^5 < 54 <= 2^6: with every base-field
    # elimination breaking down, the one lift goes to F_64
    F2 = prime_field(2)
    break_down_in_prime_fields(monkeypatch)
    lifts = []
    build = struct_solve.build_extension
    monkeypatch.setattr(
        struct_solve, "build_extension", lambda *args: lifts.append(args[:2]) or build(*args)
    )
    A = [[F2.one(), F2.one()], [F2.one(), F2.one()]]
    out = nullspace_structured(gen_from_dense("toeplitz", A, F2), random.Random(0), 8)
    assert lifts == [(F2, 6)]
    assert isinstance(out, Solution) and out.value.tolist() == [[1, 1]]


@pytest.mark.parametrize(
    "scalar, vec, expected",
    [
        ((0, 1, 0), (1, 2, 1), (1, 2, 1)),  # residue row 0 is zero: row 1 is kept
        ((0, 0, 2), (1, 2, 1), (2, 4, 2)),
        ((3, 1, 0), (1, 2, 1), (3, 1, 3)),  # row 0 wins over row 1
        ((0, 1, 0), (1, 0, 0), None),  # a projection outside the kernel is refused
    ],
)
def test_the_lift_keeps_the_first_nonzero_residue_row(monkeypatch, scalar, vec, expected):
    # (1, 2, 1) spans the kernel of this 2 x 3 system over F_5, which pads to
    # size 3 and so lifts to F_125.  The extension's answer is replaced by
    # scalar * vec; the kernel returns its first nonzero residue row only
    # when the matrix maps that row to zero
    F5 = prime_field(5)
    A = [[F5.el(a) for a in row] for row in ((1, 0, 4), (0, 1, 3))]
    break_down_in_prime_fields(monkeypatch)
    real = struct_solve.nullspace_structured

    def over_extension(G, rng, max_retries):
        assert G.ctx.d == 3
        return Solution(Residues(G.ctx).array([G.ctx.el(scalar) * G.ctx.el(x) for x in vec]))

    monkeypatch.setattr(struct_solve, "nullspace_structured", over_extension)
    out = real(gen_from_dense("toeplitz", A, F5), random.Random(0), 8)
    if expected is None:
        assert out == Failure(8)
    else:
        assert isinstance(out, Solution) and out.value.tolist() == [list(expected)]
