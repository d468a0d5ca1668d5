import random
from itertools import combinations

import pytest

from spinor10.clifford import (
    DIM_S,
    HalfSpinor,
    MINUS,
    MU_INT,
    PLUS,
    bV,
    clifford_mul,
    qV,
)
from spinor10.fields import PrimeField, QQ
from spinor10.gamma import (
    LineComplexValue,
    PureSpinorError,
    coords_in,
    gamma,
    mu_table,
    polarize_mu,
    r_kappa_form,
    rho,
    rho_form,
)
from spinor10.linalg import Subspace, mat_vec, transpose
from spinor10.variety import is_pure, mu, random_pure_witness, random_spinor

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def spin(field, half, *terms):
    return HalfSpinor.from_subsets(field, half, [(t, field.one) for t in terms]).coords


def rand_subspace(field, rng, k):
    while True:
        K = Subspace(field, DIM_S, [random_spinor(field, rng, MINUS) for _ in range(k)])
        if K.dim == k:
            return K


def rand_nonpure(field, rng):
    while True:
        s = random_spinor(field, rng, MINUS)
        if any(c != field.zero for c in s) and not is_pure(field, s, MINUS):
            return s


def test_gamma_hand_example():
    kappa = spin(QQ, MINUS, (1,), (2, 3, 4))
    v = gamma(QQ, kappa)
    assert v[9] != 0 and all(v[i] == 0 for i in range(10) if i != 9)  # prop. to f5


def test_gamma_rejects_pure():
    with pytest.raises(PureSpinorError):
        gamma(QQ, spin(QQ, MINUS, (1,)))


def test_gamma_postconditions_random():
    rng = random.Random(0)
    for _ in range(300):
        kappa = rand_nonpure(F5, rng)
        v = gamma(F5, kappa)
        assert qV(F5, v) == F5.zero
        assert clifford_mul(F5, v, kappa, MINUS) == (F5.zero,) * DIM_S
    for _ in range(30):
        kappa = rand_nonpure(QQ, rng)
        v = gamma(QQ, kappa)
        assert qV(QQ, v) == QQ.zero
        assert clifford_mul(QQ, v, kappa, MINUS) == (QQ.zero,) * DIM_S


def test_gamma_coordinates_quadratic_symbolically():
    # each coordinate is stored as quadratic terms c s_u s_v, u <= v: no
    # linear or constant part by construction
    for c in MU_INT[MINUS]:
        for u, v, coeff in c:
            assert 0 <= u <= v < DIM_S and type(coeff) is int and coeff != 0
    # and evaluation is 4-homogeneous under scaling... degree 2: f(t*s) = t^2 f(s)
    rng = random.Random(1)
    s = random_spinor(QQ, rng, MINUS)
    t = QQ.from_int(7)
    scaled = tuple(QQ.mul(t, x) for x in s)
    assert mu(QQ, scaled, MINUS) == tuple(QQ.mul(QQ.mul(t, t), x) for x in mu(QQ, s, MINUS))


def test_polarize_mu_basic():
    rng = random.Random(2)
    for _ in range(50):
        k = random_spinor(F5, rng, MINUS)
        assert polarize_mu(F5, k, k) == mu(F5, k, MINUS)
    e1 = spin(QQ, MINUS, (1,))
    assert polarize_mu(QQ, e1, e1) == (QQ.zero,) * 10
    k2 = spin(QQ, MINUS, (2, 3, 4))
    pol = polarize_mu(QQ, e1, k2)
    assert pol[9] != 0 and all(pol[i] == 0 for i in range(10) if i != 9)


def test_polarize_mu_char2_rejected():
    with pytest.raises(ValueError):
        polarize_mu(F2, spin(F2, MINUS, (1,)), spin(F2, MINUS, (2,)))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_line_complex_is_minus_twice_rho(p):
    # mu(t k1 + u k2) = t^2 a + t u B + u^2 c with q_V(mu) = 0 over Z gives
    # b_V(a, c) = -q_V(B) = -2 rho(k1, k2)
    field = PrimeField(p)
    rng = random.Random(p)
    minus_two = field.from_int(-2)
    for _ in range(100):
        k1, k2 = random_spinor(field, rng, MINUS), random_spinor(field, rng, MINUS)
        lhs = bV(field, mu(field, k1, MINUS), mu(field, k2, MINUS))
        assert lhs == field.mul(minus_two, rho(field, k1, k2).value)


@pytest.mark.parametrize("field", [F2, F3, F7], ids=str)
def test_mu_table_expands_mu_in_every_characteristic(field):
    rng = random.Random(8)
    basis = [random_spinor(field, rng, MINUS) for _ in range(4)]
    squares, B = mu_table(field, basis)
    assert squares == [mu(field, k, MINUS) for k in basis]
    for _ in range(20):
        t = [field.sample(rng) for _ in basis]
        kappa = mat_vec(field, transpose(basis), t)
        want = [field.zero] * 10
        for i, j in combinations(range(4), 2):
            want = [field.add(w, field.mul(field.mul(t[i], t[j]), x)) for w, x in zip(want, B[i, j])]
        for ti, a in zip(t, squares):
            want = [field.add(w, field.mul(field.mul(ti, ti), x)) for w, x in zip(want, a)]
        assert mu(field, kappa, MINUS) == tuple(want)
        if field.char != 2:
            two = field.from_int(2)
            assert all(B[i, j] == tuple(field.mul(two, x) for x in polarize_mu(field, basis[i], basis[j]))
                       for i, j in B)


def test_rho_diagonal_vanishes():
    rng = random.Random(3)
    for _ in range(50):
        k = random_spinor(F5, rng, MINUS)
        assert rho(F5, k, k).vanishes(F5)


def test_rho_determinant_square_scaling():
    rng = random.Random(4)
    for _ in range(1000):
        field = (F3, F5, QQ)[rng.randrange(3)]
        k1 = random_spinor(field, rng, MINUS)
        k2 = random_spinor(field, rng, MINUS)
        a, b, c, d = (field.sample(rng) for _ in range(4))
        l1 = tuple(field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(k1, k2))
        l2 = tuple(field.add(field.mul(c, x), field.mul(d, y)) for x, y in zip(k1, k2))
        det = field.sub(field.mul(a, d), field.mul(b, c))
        lhs = rho(field, l1, l2).value
        rhs = field.mul(field.mul(det, det), rho(field, k1, k2).value)
        assert lhs == rhs


def test_secant_vanishing():
    rng = random.Random(5)
    for _ in range(200):
        field = (F3, F5, QQ)[rng.randrange(3)]
        pure = random_pure_witness(field, rng, MINUS)
        k2 = random_spinor(field, rng, MINUS)
        assert rho(field, pure.spinor, k2).vanishes(field)


def test_rho_form_k2_matches_rho():
    rng = random.Random(6)
    for _ in range(50):
        K = Subspace(F5, DIM_S, [random_spinor(F5, rng, MINUS) for _ in range(2)])
        if K.dim != 2:
            continue
        pq = rho_form(F5, K)
        assert pq.form.ambient_dim == 1
        k1, k2 = K.basis
        val = pq.value_on_pair(F5, (F5.one, F5.zero), (F5.zero, F5.one))
        assert val == rho(F5, k1, k2).value


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("field", [F3, F5, F7, QQ], ids=str)
def test_rho_form_consistency_on_decomposables(field, k):
    # R_K equals rho on every a ^ b and is zero at ((i,j),(l,m)), i<j<l<m:
    # the gauge fixes the form modulo the Pluecker quadrics, so together
    # these pin every Gram entry
    rng = random.Random(7 * k)
    K = rand_subspace(field, rng, k)
    pq = rho_form(field, K)
    idx = {P: n for n, P in enumerate(pq.pairs)}
    for i, j, l, m in combinations(range(k), 4):
        assert pq.form.gram[idx[i, j]][idx[l, m]] == field.zero
    basis_t = transpose(K.basis)
    for _ in range(10):
        a = tuple(field.sample(rng) for _ in range(k))
        b = tuple(field.sample(rng) for _ in range(k))
        va = mat_vec(field, basis_t, a)
        vb = mat_vec(field, basis_t, b)
        assert pq.value_on_pair(field, a, b) == rho(field, va, vb).value


def test_rho_form_k4_not_identically_zero():
    rng = random.Random(8)
    nonzero = 0
    for _ in range(20):
        K = Subspace(F5, DIM_S, [random_spinor(F5, rng, MINUS) for _ in range(4)])
        if K.dim != 4:
            continue
        if not rho_form(F5, K).is_zero(F5):
            nonzero += 1
    assert nonzero >= 18


def test_r_kappa_form_k2_scalar():
    rng = random.Random(9)
    for _ in range(20):
        K = Subspace(F5, DIM_S, [random_spinor(F5, rng, MINUS) for _ in range(2)])
        if K.dim != 2:
            continue
        kappa = K.basis[0]
        form, corank = r_kappa_form(F5, kappa, K)
        assert form.ambient_dim == 1
        assert form.gram[0][0] == rho(F5, kappa, K.basis[1]).value


@pytest.mark.parametrize("field", [F3, F5, QQ], ids=str)
def test_r_kappa_form_is_the_polarization_of_rho(field):
    # on the complement basis c_i (K's basis without the first vector kappa
    # has a coefficient on), entry (i, j) is the polarization of
    # lambda -> rho(kappa, lambda)
    rng = random.Random(12)
    half = field.inv(field.from_int(2))
    for k in range(2, 7):
        K = rand_subspace(field, rng, k)
        kappa = mat_vec(field, transpose(K.basis), [field.sample(rng) for _ in range(k)])
        if all(x == field.zero for x in kappa):
            continue
        form, corank = r_kappa_form(field, kappa, K)
        pivot = next(i for i, x in enumerate(coords_in(K, kappa)) if x != field.zero)
        comp = [b for i, b in enumerate(K.basis) if i != pivot]
        assert form.ambient_dim == k - 1 and corank == form.corank()
        vals = [rho(field, kappa, c).value for c in comp]
        for i, j in combinations(range(k - 1), 2):
            s = tuple(field.add(x, y) for x, y in zip(comp[i], comp[j]))
            total = rho(field, kappa, s).value
            assert form.gram[i][j] == field.mul(half, field.sub(field.sub(total, vals[i]), vals[j]))
        assert [form.gram[i][i] for i in range(k - 1)] == vals


def test_r_kappa_form_requires_membership():
    rng = random.Random(10)
    K = Subspace(F5, DIM_S, [random_spinor(F5, rng, MINUS) for _ in range(3)])
    outside = random_spinor(F5, rng, MINUS)
    if not K.contains(outside):
        with pytest.raises(ValueError):
            r_kappa_form(F5, outside, K)
