import random

import pytest

from spinor10.clifford import (
    DIM_S,
    DIM_V,
    HalfSpinor,
    MINUS,
    PLUS,
    basis_e,
    basis_f,
)
from spinor10.counting import count_section_points
from spinor10.fields import PrimeField, QQ
from spinor10.linalg import InvariantError, Subspace
from spinor10.scan import BudgetExceededError, num_projective_points
from spinor10.sections import make_section
from spinor10.spaces import (
    LinearSpaceOnX,
    _f4_constraint_space,
    contains,
    f4_scan,
    four_space_on_x,
    line_on_x,
    pi4_meet_quadric,
    plane_on_x,
    span_pi4,
    three_space_a,
    three_space_b,
)
from spinor10.variety import (
    annihilator_kernel,
    extend_isotropic4,
    is_pure,
    random_isotropic,
    random_pure_witness,
    witness_from_spinor,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def spin(field, half, *terms):
    return HalfSpinor.from_subsets(field, half, [(t, field.one) for t in terms]).coords


def tau_e1(field):
    return witness_from_spinor(field, spin(field, MINUS, (1,)), MINUS)


def tau_top(field):
    return witness_from_spinor(field, spin(field, MINUS, (1, 2, 3, 4, 5)), MINUS)


def test_span_pi4_e1():
    span = span_pi4(tau_e1(QQ))
    expected = Subspace(
        QQ,
        DIM_S,
        [spin(QQ, PLUS, ())]
        + [spin(QQ, PLUS, (1, j)) for j in (2, 3, 4, 5)],
    )
    assert span == expected


def test_span_pi4_top():
    span = span_pi4(tau_top(QQ))
    expected = Subspace(
        QQ,
        DIM_S,
        [
            spin(QQ, PLUS, s)
            for s in [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5)]
        ],
    )
    assert span == expected


def test_span_pi4_matches_extension_construction():
    # every plus extension of every 4-dim subspace of U5- lies in the span
    rng = random.Random(0)
    for field in (F3, F5, QQ):
        for _ in range(10):
            tau = random_pure_witness(field, rng, MINUS)
            span = span_pi4(tau)
            assert span.dim == 5
            u5 = tau.annihilator
            for _ in range(5):
                rows = [
                    tuple(field.sample(rng) for _ in range(5)) for _ in range(4)
                ]
                from spinor10.linalg import mat_vec, transpose

                u4 = Subspace(
                    field,
                    DIM_V,
                    [mat_vec(field, transpose(u5.basis), r) for r in rows],
                )
                if u4.dim != 4:
                    continue
                wp, _ = extend_isotropic4(field, u4)
                assert span.contains(wp.spinor)


def test_linear_space_span_dims():
    rng = random.Random(1)
    field = F5
    tau = random_pure_witness(field, rng, MINUS)
    u5 = tau.annihilator
    u3 = random_isotropic(field, rng, 3)
    line = line_on_x(field, u3)
    assert line.span.dim == 2
    u2 = Subspace(field, DIM_V, u5.basis[:2])
    assert plane_on_x(field, u2, tau).span.dim == 3
    assert three_space_a(field, Subspace(field, DIM_V, u3.basis[:2])).span.dim == 4
    u1 = Subspace(field, DIM_V, u5.basis[:1])
    assert three_space_b(field, u1, tau).span.dim == 4
    assert four_space_on_x(tau).span.dim == 5
    # every pure spinor sampled from spans lies on X (spot check on the line)
    for s in line.span.basis:
        assert is_pure(field, s, PLUS)


def test_a_linear_space_of_the_wrong_dimension_raises_invariant_error():
    u3 = random_isotropic(F3, random.Random(5), 3)
    one = Subspace(F3, DIM_S, [spin(F3, PLUS, ())])
    with pytest.raises(InvariantError, match="line on X spans dim 2"):
        LinearSpaceOnX("line", (u3,), one)
    assert issubclass(InvariantError, RuntimeError)


def test_contains_trivial():
    field = F3
    rng = random.Random(2)
    tau = random_pure_witness(field, rng, MINUS)
    span = span_pi4(tau)
    assert contains(Subspace(field, DIM_S), span)
    # K = dual vector pairing nontrivially with 1 in the span of tau = e1
    k = Subspace(F2, DIM_S, [spin(F2, MINUS, (1, 2, 3, 4, 5))])
    assert not contains(k, span_pi4(tau_e1(F2)))


def test_contains_by_construction():
    rng = random.Random(3)
    field = F3
    for _ in range(5):
        tau = random_pure_witness(field, rng, MINUS)
        span = span_pi4(tau)
        from spinor10.spaces import _f4_constraint_space

        # any K inside the perp of the span contains the 4-space
        perp_rows = []
        from spinor10.clifford import pairing
        from spinor10.linalg import kernel_basis, mat

        rows = [
            tuple(
                pairing(field, tuple(field.one if i == j else field.zero for j in range(DIM_S)), s)
                for i in range(DIM_S)
            )
            for s in span.basis
        ]
        perp = Subspace(field, DIM_S, kernel_basis(field, mat(rows)))
        pick = Subspace(field, DIM_S, perp.basis[:3])
        assert contains(pick, span)


def test_f4_scan_k0_is_dual_variety():
    wits = f4_scan(Subspace(F2, DIM_S))
    assert len(wits) == 2295
    assert all(w.half == MINUS for w in wits[:10])


def test_f4_scan_smooth_hyperplane():
    kappa = spin(F2, MINUS, (1,), (2, 3, 4))  # non-pure: gamma lands on f5
    K = Subspace(F2, DIM_S, [kappa])
    wits = f4_scan(K)
    assert len(wits) == 63
    for w in wits[:5]:
        assert contains(K, span_pi4(w))


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_f4_taxonomy_at_larger_q(q):
    # #F_4(X_K)(F_q) = #(X^v cap P(C_K)): every point for a general
    # hyperplane, a line for a special pencil, one point for a very-special net
    field = PrimeField(q)
    want = {"generic-1": num_projective_points(q, 6), "special": q + 1, "generic-2": 0,
            "very-special": 1, "generic-3": 0}
    for kind, n in want.items():
        K = make_section(kind, field, seed=q).K
        assert count_section_points(_f4_constraint_space(K), "X^v") == n, kind


@pytest.mark.parametrize("q", [5, 7])
def test_f4_scan_lists_the_line_of_a_special_pencil(q):
    field = PrimeField(q)
    K = make_section("special", field, seed=1).K
    wits = f4_scan(K)
    assert len(wits) == q + 1
    assert Subspace(field, DIM_S, [w.spinor for w in wits]).dim == 2
    assert all(is_pure(field, w.spinor, MINUS) and contains(K, span_pi4(w)) for w in wits)


def test_f4_scan_refuses_by_budget_not_by_q():
    # P(C_K) = P^15(F_5) for K = 0; a hyperplane over F_23 has P^6(F_23)
    with pytest.raises(BudgetExceededError, match="f4 scan of 38146972656 points"):
        f4_scan(Subspace(F5, DIM_S))
    with pytest.raises(BudgetExceededError, match="154764793 points"):
        f4_scan(make_section("generic-1", PrimeField(23), seed=0).K)
    assert len(f4_scan(make_section("very-special", PrimeField(23), seed=0).K)) == 1
    with pytest.raises(ValueError, match="prime field"):
        f4_scan(Subspace(QQ, DIM_S, [spin(QQ, MINUS, (1,))]))


def test_pi4_meet_quadric_coordinate_cases():
    tau = tau_e1(QQ)
    assert pi4_meet_quadric(tau, basis_e(QQ, 1)) == 4
    assert pi4_meet_quadric(tau, basis_f(QQ, 1)) == 1
    v = tuple(QQ.add(a, b) for a, b in zip(basis_e(QQ, 1), basis_f(QQ, 1)))
    with pytest.raises(ValueError):
        pi4_meet_quadric(tau, v)


def test_pi4_meet_quadric_dichotomy():
    rng = random.Random(4)
    for _ in range(100):
        tau = random_pure_witness(F5, rng, MINUS)
        v = random_isotropic(F5, rng, 1).basis[0]
        d = pi4_meet_quadric(tau, v)
        if tau.annihilator.contains(v):
            assert d == 4
        else:
            assert d == 1


def test_sampled_pure_points_meet_annihilator():
    rng = random.Random(5)
    for _ in range(20):
        tau = random_pure_witness(F3, rng, MINUS)
        span = span_pi4(tau)
        from spinor10.linalg import mat_vec, transpose
        from spinor10.variety import annihilator

        s = mat_vec(
            F3, transpose(span.basis), tuple(F3.sample(rng) for _ in range(5))
        )
        if all(x == F3.zero for x in s):
            continue
        if is_pure(F3, s, PLUS):
            a = annihilator(F3, s, PLUS)
            assert a.intersect(tau.annihilator).dim >= 4
