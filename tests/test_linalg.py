import random

import pytest

from helpers import _rref_generic, _to_np, kernel_basis, low_rank_matrix, spread_seeds
from mvinterp.field import FieldCtx, build_extension, prime_field
from mvinterp.linalg import _rref_np, kernel_vector_echelon, matrix_rank

F13 = prime_field(13)

# fields the library eliminates over F_p at d > 1 or in object dtype, and
# kernel_basis element by element (_rref_generic)
REALIFIED = {
    "F9": build_extension(prime_field(3), 2, random.Random(1)),
    "F13^4": FieldCtx(13, (6, 12, 6, 0, 1)),
    "GF256": FieldCtx(2, (1, 0, 1, 1, 1, 0, 0, 0, 1)),
    "P2147483647^2": build_extension(prime_field(2**31 - 1), 2, random.Random(3)),
    "M61": prime_field(2**61 - 1),
}


def rand_matrix(ctx, m, n, rng):
    return [[ctx.from_index(rng.randrange(ctx.order)) for _ in range(n)] for _ in range(m)]


def mat_vec(rows, x, ctx):
    return [sum((a * b for a, b in zip(r, x)), ctx.zero()) for r in rows]


def test_rank_nullity_and_kernel_annihilation():
    for seed in spread_seeds(3, 40):
        rng = random.Random(seed)
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = rand_matrix(F13, m, n, rng)
        basis = kernel_basis(F13, A, n)
        assert matrix_rank(F13, A, n) + len(basis) == n
        for v in basis:
            assert any(not e.is_zero() for e in v)
            assert all(e.is_zero() for e in mat_vec(A, v, F13))


def test_kernel_vector_echelon_matches_rank():
    for seed in spread_seeds(5, 40):
        rng = random.Random(seed)
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = rand_matrix(F13, m, n, rng)
        v = kernel_vector_echelon(F13, A, n)
        if matrix_rank(F13, A, n) == n:
            assert v is None
        else:
            assert v is not None
            assert any(not e.is_zero() for e in v)
            assert all(e.is_zero() for e in mat_vec(A, v, F13))


@pytest.mark.parametrize("name", list(REALIFIED))
def test_extension_field_generic_path(name):
    ctx = REALIFIED[name]
    for seed in spread_seeds(7, 15):
        rng = random.Random(seed)
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        if seed % 2:
            A = rand_matrix(ctx, m, n, rng)
        else:
            A = low_rank_matrix(ctx, m, n, rng.randint(0, min(m, n) - 1), rng)
        basis = kernel_basis(ctx, A, n)
        rank = matrix_rank(ctx, A, n)
        assert rank + len(basis) == n
        for v in basis:
            assert all(e.is_zero() for e in mat_vec(A, v, ctx))
        v = kernel_vector_echelon(ctx, A, n)
        if rank == n:
            assert v is None
        else:
            assert v is not None and any(not e.is_zero() for e in v)
            assert all(e.is_zero() for e in mat_vec(A, v, ctx))


def test_np_and_generic_rref_agree():
    for seed in spread_seeds(11, 20):
        rng = random.Random(seed)
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(F13, m, n, rng)
        arr = _to_np(F13, A, n)
        piv_np = _rref_np(arr, 13)
        red, piv_gen = _rref_generic(A, F13)
        assert piv_np == piv_gen
        for i in range(m):
            assert [int(x) for x in arr[i]] == [e.c[0] for e in red[i]]


def test_empty_rows_full_kernel():
    basis = kernel_basis(F13, [], 3)
    assert len(basis) == 3
    v = kernel_vector_echelon(F13, [], 3)
    assert v is not None and not v[0].is_zero()
