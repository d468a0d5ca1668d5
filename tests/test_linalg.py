import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinor10.fields import (
    ExtField, PrimeField, QQ, _factor, _find_primitive, _poly_mulmod, _poly_powmod, field_spec, is_prime,
)
from spinor10.linalg import (
    Subspace,
    SymBilinearForm,
    identity_matrix,
    kernel_basis,
    mat,
    mat_vec,
    rref,
    rref_mod_p,
)
from spinor10.scan import ExtTables

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


def column_rref(field, m):
    """Reference: Gauss-Jordan column by column, each pivot the first
    nonzero entry at or below the current row."""
    rows = [list(r) for r in m]
    ncols = len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != field.zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = field.inv(rows[r][c])
        rows[r] = [field.mul(scale, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != field.zero:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return mat(rows), r, tuple(pivots)


@st.composite
def rref_inputs(draw):
    """A field of F_2, F_3, F_5, F_65521, Q and a matrix over it: random rows,
    with the unit rows mixed in for a tall matrix of full column rank (rref
    stops early), and duplicate and zero rows."""
    field = draw(st.sampled_from([F2, F3, F5, PrimeField(65521), QQ]))
    if field.char:
        elem = st.one_of(st.sampled_from([0, 1, field.p - 1]), st.integers(0, field.p - 1))
    else:
        elem = st.fractions(-3, 3, max_denominator=3)
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(elem, min_size=ncols, max_size=ncols), max_size=8))
    if draw(st.booleans()):
        rows += [[field.one if i == j else field.zero for j in range(ncols)] for i in range(ncols)]
        rows += draw(st.lists(st.lists(elem, min_size=ncols, max_size=ncols), max_size=2 * ncols))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    if draw(st.booleans()):
        rows.append([field.zero] * ncols)
    return field, mat(draw(st.permutations(rows)))


@settings(max_examples=300, deadline=None)
@given(rref_inputs())
def test_rref_is_the_reduced_echelon_form_of_the_row_space(case):
    field, m = case
    ncols = len(m[0]) if m else 0
    red, rank, pivots = rref(field, m)
    assert (red, rank, pivots) == column_rref(field, m)
    # RREF: leading 1s at increasing pivots, pivot columns cleared, zero rows last
    assert len(red) == len(m) and all(len(r) == ncols for r in red)
    assert list(pivots) == sorted(set(pivots)) and len(pivots) == rank
    for i, c in enumerate(pivots):
        assert all(x == field.zero for x in red[i][:c]) and red[i][c] == field.one
        assert all(red[j][c] == field.zero for j in range(len(red)) if j != i)
    assert all(x == field.zero for r in red[rank:] for x in r)
    # the same row space: no row of either adds to the rank of the other
    assert column_rref(field, m + red)[1] == column_rref(field, m)[1] == rank
    if field.char and m:
        rows, piv = rref_mod_p(np.array(m, dtype=np.int64).reshape(len(m), ncols), field.p)
        assert (rows.tolist(), tuple(piv)) == ([list(r) for r in red[:rank]], pivots)
        assert all(type(x) is int for r in red for x in r)


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


def stepped_tables(p, m):
    """Reference exp/log tables: the first monic f in code order whose powers
    of x, stepped with _poly_mulmod, are exactly the q - 1 nonzero codes
    before they return to 1."""
    q = p**m
    x = [0, 1] + [0] * (m - 2)

    def encode(digits):
        return sum(d * p**t for t, d in enumerate(digits))

    for code in range(q):
        modulus = [code // p**t % p for t in range(m)] + [1]
        cur, log = [1] + [0] * (m - 1), {}
        while (a := encode(cur)) not in log:
            log[a] = len(log)
            cur = _poly_mulmod(x, cur, modulus, p)
        if len(log) == q - 1 and a == 1:
            return list(log), [log.get(c, 0) for c in range(q)]


EXT_ORDERS = [
    (p, m) for p in range(2, 65) if is_prime(p) for m in range(2, 13) if p**m <= 1 << 12
] + [(2, 16), (2, 1), (3, 1), (251, 1)]


@pytest.mark.parametrize("p, m", EXT_ORDERS)
def test_ext_field_tables_equal_the_stepped_powers_of_the_generator(p, m):
    f = ExtField(p, m)
    assert (f.exp_table, f.log_table) == stepped_tables(p, m)
    assert all(type(a) is int for a in f.exp_table + f.log_table)


def unfiltered_primitive(p, m):
    """The first monic f in code order in which x has order q - 1, trying
    every code with f(0) != 0."""
    q = p**m
    x, one = [0, 1] + [0] * (m - 2), [1] + [0] * (m - 1)
    for code in range(1, q):
        modulus = [code // p**t % p for t in range(m)] + [1]
        if code % p and _poly_powmod(x, q - 1, modulus, p) == one and all(
            _poly_powmod(x, (q - 1) // ell, modulus, p) != one for ell in _factor(q - 1)
        ):
            return modulus


def test_norm_filter_keeps_the_first_primitive_modulus():
    orders = [(p, m) for p in range(2, 1 << 12) if is_prime(p) for m in range(1, 13) if p**m <= 1 << 12]
    assert len(orders) == 604
    assert all(_find_primitive(p, m) == unfiltered_primitive(p, m) for p, m in orders)


def _digitwise(p, m, a, b, sign=1):
    """a + sign b on base-p codes, one digit at a time."""
    return sum((a // p**t + sign * (b // p**t)) % p * p**t for t in range(m))


@pytest.mark.parametrize(
    "p, m, pairs",
    [(3, 2, None), (5, 2, None), (3, 3, None), (5, 3, None), (3, 10, 4000), (5, 6, 4000), (7, 5, 4000)],
)
def test_zech_addition_equals_digitwise_addition(p, m, pairs):
    """All pairs (pairs None), or random pairs with zeros and a = -b mixed in."""
    f = ExtField(p, m)
    if pairs is None:
        a, b = map(list, zip(*itertools.product(range(f.q), repeat=2)))
    else:
        rng = random.Random(p**m)
        a = [f.sample(rng) for _ in range(pairs)] + [0, 0, 5]
        b = [f.sample(rng) for _ in range(pairs)] + [0, 7, 0]
        b[:50] = [_digitwise(p, m, 0, x, -1) for x in a[:50]]
    ref = [_digitwise(p, m, x, y) for x, y in zip(a, b)]
    assert ExtTables(f).add(np.array(a), np.array(b)).tolist() == ref
    assert [f.add(x, y) for x, y in zip(a, b)] == ref
    assert [f.sub(x, y) for x, y in zip(a, b)] == [_digitwise(p, m, x, y, -1) for x, y in zip(a, b)]
    assert [f.neg(y) for y in b] == [_digitwise(p, m, 0, y, -1) for y in b]


@pytest.mark.parametrize("p", [2, 3, 251, 65521])
def test_ext_field_of_degree_one_is_the_prime_field(p):
    f, g = ExtField(p, 1), PrimeField(p)
    rng = random.Random(p)
    for _ in range(500):
        a, b = f.sample(rng), f.sample(rng)
        for op in ("add", "sub", "mul"):
            assert getattr(f, op)(a, b) == getattr(g, op)(a, b)
        assert f.neg(a) == g.neg(a)
        if a:
            assert f.inv(a) == g.inv(a)


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
