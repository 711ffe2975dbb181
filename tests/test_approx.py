import random

import numpy as np
import pytest

from mvinterp.approx import (
    ApproxInstance,
    lift_trimmed,
    trim_instance,
    unpack_solution,
    verify_approx,
)
from mvinterp.errors import BadLength, Degenerate
from mvinterp.field import FieldCtx, prime_field, residues
from mvinterp.poly import Poly

from helpers import from_ints

F13 = prime_field(13)


def P13(*ints):
    return from_ints(F13, ints)


def single(P, F, bound):
    return ApproxInstance(F13, [P], [[F]], [bound])


X2 = P13(0, 0, 1)  # X^2
X = P13(0, 1)

UNPACK_FIELDS = pytest.mark.parametrize(
    "ctx", [F13, FieldCtx(2, (1, 1, 1))], ids=["F13", "GF4"]
)


# ---------------------------------------------------------------- construction


def test_invariants_enforced():
    with pytest.raises(Degenerate):
        single(P13(0, 2), X, 2)  # non-monic modulus
    with pytest.raises(Degenerate):
        single(P13(5), X, 2)  # constant modulus
    with pytest.raises(Degenerate):
        single(X2, X2, 2)  # residue degree too high
    with pytest.raises(Degenerate):
        single(X2, X, 0)  # zero degree bound
    with pytest.raises(BadLength):
        ApproxInstance(F13, [X2], [[X, X]], [2])


def test_dimension_properties():
    a = ApproxInstance(F13, [X2, P13(1, 1)], [[X, P13(2)], [P13(3), P13(0)]], [2, 3])
    assert a.mu == 2 and a.nu == 2
    assert a.row_bounds == (2, 1)
    assert a.total_rows == 3
    assert a.total_cols == 5


# ---------------------------------------------------------------- verify


def test_verify_known_cases():
    a = single(X2, X, 2)
    assert verify_approx(a, [X])  # X*X = 0 mod X^2
    assert not verify_approx(a, [Poly.zero(F13)])
    b = single(X2, X, 1)
    assert not verify_approx(b, [P13(1)])  # X*1 != 0 mod X^2


def test_verify_degree_bound():
    a = single(X2, X, 2)
    assert not verify_approx(a, [X2])  # deg 2 not < 2


def test_verify_shape_mismatch():
    a = single(X2, X, 2)
    with pytest.raises(BadLength):
        verify_approx(a, [X, X])


def test_verify_multi_row():
    # q must satisfy both rows: X*q = 0 mod X^2 and (X+1)-divisibility via F=1
    a = ApproxInstance(F13, [X2, P13(1, 1)], [[X], [P13(1)]], [3])
    q = X * P13(1, 1)  # X(X+1): divisible by X (so X*q = X^2(X+1) = 0 mod X^2) and by X+1
    assert verify_approx(a, [q])
    assert not verify_approx(a, [X])  # fails second row


# ---------------------------------------------------------------- trim


def test_trim_identity():
    a = single(X2, X, 3)  # total_cols = 3 = total_rows + 1
    t, dropped = trim_instance(a)
    assert t is a and dropped == 0 and t.col_bounds[-1] == 3


def test_trim_shrinks_last_kept():
    a = ApproxInstance(F13, [X2], [[X, P13(1)]], [2, 2])
    t, dropped = trim_instance(a)
    assert t.col_bounds == (2, 1)
    assert dropped == 0
    assert t.total_cols == a.total_rows + 1


def test_trim_drops_whole_columns():
    a = ApproxInstance(F13, [X2], [[X, P13(1)]], [4, 2])
    t, dropped = trim_instance(a)
    assert t.col_bounds == (3,)
    assert dropped == 1


def test_trim_preserves_solutions_by_padding():
    rng = random.Random(2)
    for _ in range(25):
        mu = rng.randrange(1, 3)
        nu = rng.randrange(1, 4)
        moduli = []
        residues = []
        for _ in range(mu):
            d = rng.randrange(1, 4)
            p = from_ints(F13, [rng.randrange(13) for _ in range(d)] + [1])
            moduli.append(p)
        for p in moduli:
            residues.append(
                [from_ints(F13, [rng.randrange(13) for _ in range(p.deg)]) for _ in range(nu)]
            )
        bounds = [rng.randrange(1, 5) for _ in range(nu)]
        a = ApproxInstance(F13, moduli, residues, bounds)
        t, dropped = trim_instance(a)
        assert t.total_cols <= a.total_rows + 1
        # any solution of the trimmed instance lifts by zero-padding
        qs = [
            from_ints(F13, [rng.randrange(13) for _ in range(bnd)])
            for bnd in t.col_bounds
        ]
        if verify_approx(t, qs):
            assert verify_approx(a, lift_trimmed(t, qs, dropped))


# ---------------------------------------------------------------- unpacking


@UNPACK_FIELDS
def test_unpack_splits_a_residue_vector(ctx):
    # the (d, n) vector splits low-to-high into one polynomial per bound
    x = np.random.default_rng(ctx.order).integers(0, ctx.p, (ctx.d, 7))
    qs = unpack_solution(ctx, x, (3, 4))
    assert [q.coeffs(b).tolist() for q, b in zip(qs, (3, 4))] == [
        x[:, :3].tolist(),
        x[:, 3:].tolist(),
    ]


@UNPACK_FIELDS
@pytest.mark.parametrize("n", [6, 8])
def test_unpack_rejects_a_residue_vector_of_wrong_length(ctx, n):
    # the length is the vector's second axis; its first is d
    with pytest.raises(BadLength):
        unpack_solution(ctx, residues(ctx).zeros(n), (3, 4))
