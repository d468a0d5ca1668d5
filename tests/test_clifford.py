import random

import pytest

from spinor10.fields import PrimeField, QQ, get_ext_field
from spinor10 import clifford as cl
from spinor10.clifford import (
    DIM_S,
    HalfSpinor,
    MINUS,
    PLUS,
    MINUS_SUBSETS,
    MU_INT,
    PLUS_SUBSETS,
    SUBSET_INDEX,
    action_matrix,
    bV,
    basis_e,
    basis_f,
    basis_images,
    basis_pullbacks,
    clifford_mul,
    pairing,
    pairing_orthogonal,
    pairing_rows,
    qV,
)
from spinor10.linalg import Subspace, identity_matrix, kernel_basis, mat, rref, transpose, vec_dot
from spinor10.variety import is_pure, mu, random_isotropic

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F4 = get_ext_field(2, 2)


def spin(field, half, *terms):
    return HalfSpinor.from_subsets(field, half, [(t, field.one) for t in terms]).coords


def rand_vec(field, rng):
    return tuple(field.sample(rng) for _ in range(10))


def rand_spinor(field, rng):
    return tuple(field.sample(rng) for _ in range(DIM_S))


def test_subset_order_documented():
    assert PLUS_SUBSETS[:6] == ((), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3))
    assert PLUS_SUBSETS[10] == (4, 5)
    assert PLUS_SUBSETS[11] == (1, 2, 3, 4)
    assert PLUS_SUBSETS[-1] == (2, 3, 4, 5)


def test_wedge_on_vacuum():
    one = spin(QQ, PLUS, ())
    out = clifford_mul(QQ, basis_e(QQ, 1), one, PLUS)
    assert out == spin(QQ, MINUS, (1,))


def test_contraction():
    e1 = spin(QQ, MINUS, (1,))
    assert clifford_mul(QQ, basis_f(QQ, 1), e1, MINUS) == spin(QQ, PLUS, ())
    assert clifford_mul(QQ, basis_f(QQ, 2), e1, MINUS) == tuple([QQ.zero] * 16)


def test_clifford_relation_hyperbolic_pair():
    v = tuple(QQ.add(a, b) for a, b in zip(basis_e(QQ, 1), basis_f(QQ, 1)))
    e1 = spin(QQ, MINUS, (1,))
    assert clifford_mul(QQ, v, e1, MINUS) == spin(QQ, PLUS, ())
    rng = random.Random(0)
    s = rand_spinor(QQ, rng)
    twice = clifford_mul(QQ, v, clifford_mul(QQ, v, s, PLUS), MINUS)
    assert twice == s  # q_V(e1 + f1) = 1


def test_clifford_relation_random():
    rng = random.Random(1)
    for field in (F2, F3, F5, QQ):
        for _ in range(250):
            v = rand_vec(field, rng)
            s = rand_spinor(field, rng)
            half = rng.choice([PLUS, MINUS])
            twice = clifford_mul(
                field, v, clifford_mul(field, v, s, half), cl.other_half(half)
            )
            q = qV(field, v)
            assert twice == tuple(field.mul(q, c) for c in s)


def test_qv_bv():
    assert qV(QQ, basis_e(QQ, 1)) == 0
    assert bV(QQ, basis_e(QQ, 1), basis_f(QQ, 1)) == 1
    v = tuple(QQ.add(a, b) for a, b in zip(basis_e(QQ, 1), basis_f(QQ, 1)))
    assert qV(QQ, v) == 1
    rng = random.Random(2)
    for _ in range(100):
        v, w = rand_vec(F5, rng), rand_vec(F5, rng)
        assert bV(F5, v, w) == F5.sub(
            F5.sub(qV(F5, tuple(F5.add(a, b) for a, b in zip(v, w))), qV(F5, v)),
            qV(F5, w),
        )


def test_pairing_examples():
    top = spin(QQ, MINUS, (1, 2, 3, 4, 5))
    one = spin(QQ, PLUS, ())
    assert pairing(QQ, top, one) in (QQ.one, QQ.neg(QQ.one))  # top-form, unit scale
    e1 = spin(QQ, MINUS, (1,))
    assert abs(pairing(QQ, e1, spin(QQ, PLUS, (2, 3, 4, 5)))) == 1
    assert pairing(QQ, e1, spin(QQ, PLUS, (1, 2, 3, 4))) == 0


def test_pairing_nondegenerate_all_fields():
    for field in (F2, F3, F5, QQ):
        rows = []
        for i in range(DIM_S):
            t = [field.zero] * DIM_S
            t[i] = field.one
            rows.append(
                tuple(
                    pairing(
                        field,
                        tuple(t),
                        tuple(
                            field.one if j == k else field.zero for k in range(DIM_S)
                        ),
                    )
                    for j in range(DIM_S)
                )
            )
        _, rank, _ = rref(field, mat(rows))
        assert rank == DIM_S


def test_adjunction_global_sign():
    rng = random.Random(3)
    eps = None
    for _ in range(1000):
        field = (F3, F5, QQ)[rng.randrange(3)]
        v = rand_vec(field, rng)
        s = rand_spinor(field, rng)  # plus
        t = rand_spinor(field, rng)  # plus
        lhs = pairing(field, clifford_mul(field, v, s, PLUS), t)
        rhs = pairing(field, clifford_mul(field, v, t, PLUS), s)
        if lhs == field.zero and rhs == field.zero:
            continue
        if lhs == rhs:
            this = 1
        elif lhs == field.neg(rhs):
            this = -1
        else:
            raise AssertionError("no global adjunction sign")
        if eps is None:
            eps = this
        assert this == eps
    assert eps is not None


def test_mu_vanishes_on_pure_witnesses_and_not_on_a_mixed_spinor():
    # the conditions that pin the pairing's sign convention: 1 and e12 are
    # pure, 1 + e1234 is not (its annihilator is the line <f5>)
    for field in (F2, F3, F5, QQ):
        assert is_pure(field, spin(field, PLUS, ()), PLUS)
        assert is_pure(field, spin(field, PLUS, (1, 2)), PLUS)
        assert any(x != field.zero for x in mu(field, spin(field, PLUS, (), (1, 2, 3, 4)), PLUS))


def test_pair_terms_read_the_top_coefficient_of_rev_t_wedge_s():
    top = SUBSET_INDEX[MINUS][(1, 2, 3, 4, 5)]
    units = identity_matrix(QQ, DIM_S)
    for t, b_t in zip(MINUS_SUBSETS, units):
        for s in units:
            # rev(e_t) ^ s = e_{t_d} ^ ... ^ e_{t_1} ^ s: apply e_{t_1} first
            x, half = s, PLUS
            for i in t:
                x, half = clifford_mul(QQ, basis_e(QQ, i), x, half), cl.other_half(half)
            assert pairing(QQ, b_t, s) == x[top]


def test_mu_int_is_the_halved_fold_of_the_pairing_matrix():
    units = identity_matrix(QQ, DIM_S)
    ws = [basis_f(QQ, j) for j in range(1, 6)] + [basis_e(QQ, j) for j in range(1, 6)]
    for half in (PLUS, MINUS):
        quadrics = []
        for w in ws:
            images = [clifford_mul(QQ, w, b, half) for b in units]
            if half == PLUS:
                m = [[pairing(QQ, images[i], units[j]) for j in range(DIM_S)] for i in range(DIM_S)]
            else:
                m = [[pairing(QQ, units[i], images[j]) for j in range(DIM_S)] for i in range(DIM_S)]
            terms = []
            for i in range(DIM_S):
                for j in range(i, DIM_S):
                    t = m[i][i] if i == j else m[i][j] + m[j][i]
                    assert t % 2 == 0  # <w.s, s> is twice an integral quadric
                    if t:
                        terms.append((i, j, int(t) // 2))
            quadrics.append(tuple(terms))
        assert MU_INT[half] == tuple(quadrics)


def test_mu_int_is_ten_four_term_quadrics():
    for half in (PLUS, MINUS):
        assert len(MU_INT[half]) == 10
        for terms in MU_INT[half]:
            assert len(terms) == 4 and list(terms) == sorted(terms)
            for u, v, c in terms:
                assert 0 <= u < v < DIM_S and type(c) is int and c in (1, -1)


def exterior_mul(field, v, coords, half):
    """v . s from the definition, without the tables: e_i wedges, with sign
    (-1)^#{t in S : t < i}; f_i contracts, with sign (-1)^(position of i in S)."""
    out = {}
    for subset, c in zip(cl.SUBSETS[half], coords):
        for i in range(1, 6):
            if i in subset:
                a, flips, target = v[4 + i], subset.index(i), tuple(t for t in subset if t != i)
            else:
                a, flips, target = v[i - 1], sum(t < i for t in subset), tuple(sorted(subset + (i,)))
            term = field.mul(a, c)
            out[target] = field.add(out.get(target, field.zero), field.neg(term) if flips % 2 else term)
    return tuple(out.get(s, field.zero) for s in cl.SUBSETS[cl.other_half(half)])


def test_basis_images_and_pullbacks_read_the_action_of_each_basis_vector():
    rng = random.Random(12)
    for field in (F2, F3, F4, QQ):
        vs = identity_matrix(field, 10)  # e1..e5, f1..f5
        units = identity_matrix(field, DIM_S)
        for half in (PLUS, MINUS):
            for _ in range(4):
                s, functional = rand_spinor(field, rng), rand_spinor(field, rng)
                ref = [exterior_mul(field, v, s, half) for v in vs]
                assert basis_images(field, s, half) == ref
                assert [clifford_mul(field, v, s, half) for v in vs] == ref
                assert basis_pullbacks(field, functional, half) == [
                    tuple(vec_dot(field, functional, exterior_mul(field, v, b, half)) for b in units) for v in vs
                ]


def test_action_matrix_rows_are_the_columns_of_the_action_on_unit_spinors():
    rng = random.Random(13)
    for field in (F2, F3, F5, QQ):
        units = identity_matrix(field, DIM_S)
        for half in (PLUS, MINUS):
            for dim in (1, 3, 5):
                for w in random_isotropic(field, rng, dim).basis:
                    cols = [exterior_mul(field, w, b, half) for b in units]
                    assert mat(action_matrix(field, w, half)) == transpose(cols)
                    assert [clifford_mul(field, w, b, half) for b in units] == cols


def sparse_subspace(field, rng, dim):
    """A subspace of S of exactly the given dim, spanned by random vectors
    with about half their coordinates zero, so pivots fall anywhere."""
    while True:
        rows = [[field.sample(rng) if rng.random() < 0.5 else field.zero for _ in range(DIM_S)] for _ in range(dim)]
        W = Subspace(field, DIM_S, rows)
        if W.dim == dim:
            return W


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_orthogonal_read_off_the_rref_is_the_kernel_of_the_pairing_rows(monkeypatch, field):
    rng = random.Random(14)
    built = []

    class Spy(Subspace):
        def __init__(self, field, n, rows=()):
            built.append([tuple(r) for r in rows])
            super().__init__(field, n, rows)

    for half in (PLUS, MINUS):
        for dim in range(DIM_S + 1):
            W = sparse_subspace(field, rng, dim)
            # the reference: the kernel of the functionals <., w>
            ref = Subspace(field, DIM_S, kernel_basis(field, pairing_rows(W, half)) if dim else identity_matrix(field, DIM_S))
            with monkeypatch.context() as m:
                m.setattr(cl, "Subspace", Spy)
                perp = pairing_orthogonal(W, half)
            assert perp == ref and perp.dim == DIM_S - dim
            # the rows handed to the constructor are already in RREF
            rows = built.pop()
            assert tuple(rows) == perp.basis
