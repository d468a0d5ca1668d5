import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from spinor10.clifford import (
    DIM_S,
    DIM_V,
    HalfSpinor,
    MINUS,
    MU_INT,
    PLUS,
    basis_e,
    basis_f,
    clifford_mul,
    eval_quadratic,
)
from spinor10.fields import PrimeField, QQ, get_ext_field
from spinor10.linalg import Subspace, mat
from spinor10.variety import (
    annihilator,
    annihilator_kernel,
    extend_isotropic4,
    f_reference,
    half_of_maximal_isotropic,
    is_isotropic,
    is_pure,
    mu,
    phi_v,
    random_isotropic,
    random_maximal_isotropic,
    random_pure_witness,
    random_spinor,
    restrict_quadric,
    witness_from_isotropic5,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def spin(field, half, *terms):
    return HalfSpinor.from_subsets(field, half, [(t, field.one) for t in terms]).coords


def poly_value(field, coeff, t):
    """sum_{i <= j} coeff_ij t_i t_j for an upper-triangular coefficient matrix."""
    n = len(coeff)
    terms = (field.mul(field.mul(t[i], t[j]), coeff[i][j]) for i in range(n) for j in range(i, n))
    return reduce(field.add, terms, field.zero)


def test_mu_pure_examples():
    assert mu(QQ, spin(QQ, PLUS, ()), PLUS) == (0,) * 10
    assert mu(QQ, spin(QQ, PLUS, (1, 2)), PLUS) == (0,) * 10


def test_mu_witness_is_f5_direction():
    val = mu(QQ, spin(QQ, PLUS, (), (1, 2, 3, 4)), PLUS)
    assert val[9] != 0  # the f5 coordinate
    assert all(val[i] == 0 for i in range(10) if i != 9)


def test_annihilator_examples():
    f = f_reference(QQ)
    assert annihilator(QQ, spin(QQ, PLUS, ()), PLUS) == f
    a = annihilator(QQ, spin(QQ, PLUS, (2, 3, 4, 5)), PLUS)
    expected = Subspace(
        QQ, DIM_V, [basis_f(QQ, 1)] + [basis_e(QQ, i) for i in (2, 3, 4, 5)]
    )
    assert a == expected
    w = annihilator(QQ, spin(QQ, PLUS, (), (1, 2, 3, 4)), PLUS)
    assert w.dim == 1 and w == Subspace(QQ, DIM_V, [basis_f(QQ, 5)])
    with pytest.raises(ValueError):
        annihilator(QQ, (QQ.zero,) * DIM_S, PLUS)


def test_annihilator_kernel_dims():
    rng = random.Random(0)
    for field in (F2, F3, F5, QQ):
        for d in range(1, 5):
            u = random_isotropic(field, rng, d)
            k = annihilator_kernel(field, u, PLUS)
            assert k.dim == 2 ** (4 - d)
        w = random_maximal_isotropic(field, rng)
        h = half_of_maximal_isotropic(field, w)
        from spinor10.clifford import other_half

        assert annihilator_kernel(field, w, h).dim == 1
        assert annihilator_kernel(field, w, other_half(h)).dim == 0


def test_annihilator_kernel_examples():
    u = Subspace(QQ, DIM_V, [basis_e(QQ, 1)])
    k = annihilator_kernel(QQ, u, PLUS)
    assert k.dim == 8
    for row in k.basis:
        assert clifford_mul(QQ, basis_e(QQ, 1), row, PLUS) == (QQ.zero,) * DIM_S
    u3 = Subspace(QQ, DIM_V, [basis_e(QQ, i) for i in (1, 2, 3)])
    k3 = annihilator_kernel(QQ, u3, PLUS)
    assert k3 == Subspace(
        QQ, DIM_S, [spin(QQ, PLUS, (1, 2, 3, 4)), spin(QQ, PLUS, (1, 2, 3, 5))]
    )
    u4 = Subspace(QQ, DIM_V, [basis_f(QQ, i) for i in (2, 3, 4, 5)])
    assert annihilator_kernel(QQ, u4, PLUS) == Subspace(QQ, DIM_S, [spin(QQ, PLUS, ())])
    with pytest.raises(ValueError):
        annihilator_kernel(QQ, Subspace(QQ, DIM_V, [basis_e(QQ, 1) , tuple(map(QQ.add, basis_f(QQ,1), (QQ.zero,)*10))]), PLUS)


def test_kernel_image_identity():
    rng = random.Random(1)
    for field in (F3, F5):
        for _ in range(20):
            u = random_isotropic(field, rng, 1)
            v = u.basis[0]
            ker = annihilator_kernel(field, u, MINUS)
            basis = [
                tuple(field.one if k == i else field.zero for k in range(DIM_S))
                for i in range(DIM_S)
            ]
            image = Subspace(
                field, DIM_S, [clifford_mul(field, v, b, PLUS) for b in basis]
            )
            assert image == ker


def test_extend_isotropic4_coordinate_cases():
    u4 = Subspace(QQ, DIM_V, [basis_f(QQ, i) for i in (2, 3, 4, 5)])
    wp, wm = extend_isotropic4(QQ, u4)
    assert wp.spinor == spin(QQ, PLUS, ())
    assert wp.annihilator == f_reference(QQ)
    assert wm.spinor == spin(QQ, MINUS, (1,))
    u4e = Subspace(QQ, DIM_V, [basis_e(QQ, i) for i in (1, 2, 3, 4)])
    wp, wm = extend_isotropic4(QQ, u4e)
    assert wm.spinor == spin(QQ, MINUS, (1, 2, 3, 4, 5))
    assert wp.spinor == spin(QQ, PLUS, (1, 2, 3, 4))


def test_extend_isotropic4_random():
    rng = random.Random(2)
    for _ in range(30):
        u4 = random_isotropic(F5, rng, 4)
        wp, wm = extend_isotropic4(F5, u4)
        assert wp.annihilator.intersect(wm.annihilator) == u4
        assert half_of_maximal_isotropic(F5, wp.annihilator) == PLUS
        assert half_of_maximal_isotropic(F5, wm.annihilator) == MINUS


def test_parity_rule():
    rng = random.Random(3)
    for _ in range(300):
        field = (F2, F3, F5)[rng.randrange(3)]
        w1 = random_pure_witness(field, rng, rng.choice([PLUS, MINUS]))
        w2 = random_pure_witness(field, rng, rng.choice([PLUS, MINUS]))
        d = w1.annihilator.intersect(w2.annihilator).dim
        if w1.half == w2.half:
            assert d % 2 == 1
        else:
            assert d % 2 == 0


def test_purity_suite():
    rng = random.Random(4)
    for _ in range(300):
        field = (F2, F3, F5, QQ)[rng.randrange(4)]
        w = random_pure_witness(field, rng, rng.choice([PLUS, MINUS]))
        assert mu(field, w.spinor, w.half) == (field.zero,) * 10
        assert annihilator(field, w.spinor, w.half).dim == 5
        assert is_pure(field, w.spinor, w.half)
    nonpure = 0
    while nonpure < 300:
        field = (F2, F3, F5)[rng.randrange(3)]
        s = random_spinor(field, rng, PLUS)
        if all(c == field.zero for c in s):
            continue
        if annihilator(field, s, PLUS).dim < 5:
            assert any(x != field.zero for x in mu(field, s, PLUS))
            nonpure += 1


def test_phi_v_f1_case():
    v = basis_f(QQ, 1)
    sp = phi_v(QQ, v, PLUS)
    # coordinates: spinors whose subset avoids 1 union those containing... the
    # kernel of contraction by f1 is spanned by subsets not containing 1
    for row in sp.space.basis:
        assert clifford_mul(QQ, v, row, PLUS) == (QQ.zero,) * DIM_S
    assert sp.form.rank() == 8
    # pure spinors inside the 8-space satisfy the quadric
    one_coords = sp.space.basis  # use known pure points: 1 and e_{ij}
    rng = random.Random(5)
    for _ in range(20):
        w = random_pure_witness(QQ, rng, PLUS)
        if w.annihilator.contains(v):
            t = _coords_in(sp.space, w.spinor)
            assert poly_value(QQ, sp.poly, t) == QQ.zero


def _coords_in(space, vec):
    field = space.field
    v = list(vec)
    t = []
    for row, p in zip(space.basis, space.pivots):
        c = v[p]
        t.append(c)
        if c != field.zero:
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    assert all(x == field.zero for x in v)
    return tuple(t)


def test_phi_v_nondegenerate_random():
    rng = random.Random(6)
    for field in (F3, F5):
        for _ in range(25):
            u = random_isotropic(field, rng, 1)
            sp = phi_v(field, u.basis[0], PLUS)
            assert sp.form.corank() == 0


def test_phi_v_rejects_nonisotropic():
    v = tuple(QQ.add(a, b) for a, b in zip(basis_e(QQ, 1), basis_f(QQ, 1)))
    with pytest.raises(ValueError):
        phi_v(QQ, v, PLUS)


def test_pure_spinor_on_quadric_char2():
    rng = random.Random(7)
    for _ in range(20):
        u = random_isotropic(F2, rng, 1)
        sp = phi_v(F2, u.basis[0], PLUS)
        w = random_pure_witness(F2, rng, PLUS)
        if w.annihilator.contains(u.basis[0]) and sp.space.contains(w.spinor):
            t = _coords_in(sp.space, w.spinor)
            assert poly_value(F2, sp.poly, t) == F2.zero


def test_random_maximal_isotropic_families():
    rng = random.Random(8)
    for field in (F2, F3, QQ):
        for half in (PLUS, MINUS):
            for _ in range(10):
                w = random_maximal_isotropic(field, rng, half)
                assert is_isotropic(field, w)
                assert half_of_maximal_isotropic(field, w) == half
                wit = witness_from_isotropic5(field, w)
                assert wit.half == half
                assert annihilator(field, wit.spinor, half) == w


@pytest.mark.parametrize("field", [F2, F3, F7, PrimeField(65521), QQ], ids=str)
def test_restrict_quadric_agrees_with_evaluation_on_the_span(field):
    rng = random.Random(8)
    for d in range(1, DIM_S + 1):
        for half in (PLUS, MINUS):
            rows = [random_spinor(field, rng, half) for _ in range(d)]
            t = [field.sample(rng) for _ in range(d)]
            s = [field.zero] * DIM_S
            for ti, row in zip(t, rows):
                s = [field.add(x, field.mul(ti, y)) for x, y in zip(s, row)]
            for terms in MU_INT[half]:
                form = restrict_quadric(field, terms, rows)
                assert len(form) == d and all(len(r) == d for r in form)
                assert all(form[i][j] == field.zero for i in range(d) for j in range(i))
                assert poly_value(field, form, t) == eval_quadratic(field, terms, s)


@pytest.mark.parametrize("field", [F2, F3, PrimeField(65521), QQ], ids=str)
def test_restrict_quadric_takes_all_ten_in_one_call(field):
    rng = random.Random(9)
    for d in (0, 1, 5, 16):
        for half in (PLUS, MINUS):
            rows = [random_spinor(field, rng, half) for _ in range(d)]
            ten = restrict_quadric(field, MU_INT[half], rows)
            assert ten == [restrict_quadric(field, terms, rows) for terms in MU_INT[half]]
            # plain Python elements, which Field arithmetic takes
            kind = int if field.char else Fraction
            assert all(type(x) is kind for form in ten for row in form for x in row)


def test_restrict_quadric_reads_numpy_and_list_terms():
    # one quadric with np.int64 entries or list terms, and a list of
    # list-quadrics, restrict as the tuples do
    rng = random.Random(10)
    rows = [random_spinor(F3, rng, MINUS) for _ in range(4)]
    ten = restrict_quadric(F3, MU_INT[MINUS], rows)
    for n, terms in enumerate(MU_INT[MINUS]):
        for same in (np.array(terms, dtype=np.int64), [list(t) for t in terms]):
            assert restrict_quadric(F3, same, rows) == ten[n]
            assert restrict_quadric(F3, [same], rows) == [ten[n]]
    assert restrict_quadric(F3, [[list(t) for t in terms] for terms in MU_INT[MINUS]], rows) == ten


def test_restrict_quadric_refuses_extension_fields():
    F4 = get_ext_field(2, 2)
    with pytest.raises(ValueError, match="prime field or the rationals"):
        restrict_quadric(F4, MU_INT[MINUS], [[1] * DIM_S])
