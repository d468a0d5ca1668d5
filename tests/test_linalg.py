import random

import pytest
from hypothesis import given, settings, strategies as st

from spinor10.fields import ExtField, PrimeField, QQ, field_spec, is_prime
from spinor10.linalg import (
    Subspace,
    SymBilinearForm,
    identity_matrix,
    kernel_basis,
    mat,
    mat_vec,
    orth_complement,
    restrict_form,
    rref,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
FIELDS = [F2, F3, F5, QQ]


def random_matrix(field, rng, rows, cols):
    return mat([[field.sample(rng) for _ in range(cols)] for _ in range(rows)])


def test_field_spec_parse():
    assert field_spec("5") == F5
    assert field_spec("Q") is QQ
    with pytest.raises(ValueError):
        field_spec("6")
    assert is_prime(65521) and not is_prime(65536)


def test_prime_field_bounds():
    with pytest.raises(ValueError):
        PrimeField(1 << 16)  # not prime anyway
    with pytest.raises(ValueError):
        PrimeField(65537)


def test_rref_identity():
    m = identity_matrix(F3, 3)
    red, rank, _ = rref(F3, m)
    assert red == m and rank == 3


def test_rref_zero():
    m = mat([[0] * 4, [0] * 4])
    red, rank, _ = rref(F2, m)
    assert red == m and rank == 0


def test_rref_dependent_rows_f5():
    m = mat([[1, 2], [2, 4]])
    red, rank, _ = rref(F5, m)
    assert rank == 1
    assert red[0] == (1, 2)


def test_kernel_identity_and_zero():
    assert kernel_basis(F3, identity_matrix(F3, 3)) == ()
    k = kernel_basis(F3, mat([[0, 0, 0], [0, 0, 0]]))
    assert len(k) == 3


def test_kernel_f3_row():
    m = mat([[1, 1, 0]])
    k = kernel_basis(F3, m)
    assert len(k) == 2
    for v in k:
        assert mat_vec(F3, m, v) == (0,)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.data())
def test_rref_idempotent(fi, data):
    field = FIELDS[fi]
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 6))
    m = random_matrix(field, rng, rows, cols)
    red, _, _ = rref(field, m)
    red2, _, _ = rref(field, red)
    assert red2 == red


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.data())
def test_kernel_rank_duality(fi, data):
    field = FIELDS[fi]
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 6))
    m = random_matrix(field, rng, rows, cols)
    _, rank, _ = rref(field, m)
    assert len(kernel_basis(field, m)) + rank == cols
    for v in kernel_basis(field, m):
        assert all(x == field.zero for x in mat_vec(field, m, v))


def test_intersect_trivial_cases():
    a = Subspace(F5, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = Subspace(F5, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert a.intersect(a) == a
    assert a.intersect(b).dim == 0
    with pytest.raises(ValueError):
        a.intersect(Subspace(F5, 3))


def test_intersect_sum_dimension_formula():
    rng = random.Random(7)
    for _ in range(1000):
        field = FIELDS[rng.randrange(4)]
        n = rng.randint(2, 8)
        a = Subspace(field, n, random_matrix(field, rng, rng.randint(0, n), n))
        b = Subspace(field, n, random_matrix(field, rng, rng.randint(0, n), n))
        inter = a.intersect(b)
        assert a.dim + b.dim == inter.dim + a.sum(b).dim
        assert a.contains_subspace(inter) and b.contains_subspace(inter)


def test_generic_5dim_pairs_in_8_space_meet_in_2():
    rng = random.Random(3)
    hits = 0
    for _ in range(20):
        a = Subspace(F5, 8, random_matrix(F5, rng, 5, 8))
        b = Subspace(F5, 8, random_matrix(F5, rng, 5, 8))
        if a.dim == 5 and b.dim == 5 and a.intersect(b).dim == 2:
            hits += 1
    assert hits >= 18  # generic behaviour dominates


def hyperbolic_form(field, n):
    g = [[field.zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        g[i][n + i] = field.one
        g[n + i][i] = field.one
    return SymBilinearForm(field, g)


def test_orth_complement_trivial():
    f = hyperbolic_form(F5, 2)
    zero = Subspace(F5, 4)
    assert orth_complement(zero, f) == Subspace.full(F5, 4)


def test_orth_complement_isotropic_line():
    f = hyperbolic_form(F5, 1)
    e = Subspace(F5, 2, [[1, 0]])
    perp = orth_complement(e, f)
    assert perp == e  # b(e, e) = 0 forces e inside its own perp


def test_orth_complement_involution():
    rng = random.Random(11)
    for _ in range(200):
        field = FIELDS[rng.randrange(4)]
        n = rng.randint(1, 3)
        f = hyperbolic_form(field, n)
        a = Subspace(field, 2 * n, random_matrix(field, rng, rng.randint(0, 2 * n), 2 * n))
        assert orth_complement(orth_complement(a, f), f) == a
        assert orth_complement(a, f).dim == 2 * n - a.dim


def test_restrict_form():
    f = hyperbolic_form(F5, 2)  # coords e1 e2 f1 f2
    iso = Subspace(F5, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    g, corank = restrict_form(f, iso)
    assert corank == 2 and g.rank() == 0
    full, corank = restrict_form(f, Subspace.full(F5, 4))
    assert full.gram == f.gram and corank == 0
    plane = Subspace(F5, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])  # <e1, f1>
    g, corank = restrict_form(f, plane)
    assert corank == 0 and g.gram == ((0, 1), (1, 0))


def test_sym_form_requires_symmetry():
    with pytest.raises(ValueError):
        SymBilinearForm(F3, [[0, 1], [2, 0]])


def test_ext_field_arithmetic():
    for p, m in [(2, 4), (3, 2), (5, 2), (2, 6), (3, 1), (7, 1)]:
        f = ExtField(p, m)
        rng = random.Random(p * 100 + m)
        for _ in range(200):
            a, b, c = f.sample(rng), f.sample(rng), f.sample(rng)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        # Frobenius fixes exactly the prime subfield
        fixed = [a for a in f.elements() if f.mul(a, _pow(f, a, p - 1)) == a and a]
        assert len([a for a in f.elements() if _pow(f, a, p ** m) == a]) == p ** m


def _pow(f, a, e):
    r = f.one
    for _ in range(e):
        r = f.mul(r, a)
    return r


def test_ext_field_linalg():
    f = ExtField(2, 3)
    rng = random.Random(5)
    for _ in range(50):
        m = random_matrix(f, rng, 3, 5)
        _, rank, _ = rref(f, m)
        assert len(kernel_basis(f, m)) + rank == 5
