import random

from helpers import kernel_basis, spread_seeds
from mvinterp.field import build_extension, prime_field
from mvinterp.linalg import (
    _rref_generic,
    _rref_np,
    _to_np,
    kernel_vector_echelon,
    matrix_rank,
)

F13 = prime_field(13)


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


def test_extension_field_generic_path():
    ext = build_extension(prime_field(3), 2, random.Random(1))
    for seed in spread_seeds(7, 15):
        rng = random.Random(seed)
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(ext, m, n, rng)
        basis = kernel_basis(ext, A, n)
        assert matrix_rank(ext, A, n) + len(basis) == n
        for v in basis:
            assert all(e.is_zero() for e in mat_vec(A, v, ext))
        v = kernel_vector_echelon(ext, A, n)
        assert (v is None) == (len(basis) == 0)


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
