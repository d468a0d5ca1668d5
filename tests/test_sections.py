import random

import pytest

from spinor10.clifford import DIM_S, HalfSpinor, MINUS, PLUS, clifford_mul, pairing, v_basis
from spinor10.fields import PrimeField, QQ
from spinor10.gamma import r_kappa_form, rho
from spinor10.linalg import Subspace, identity_matrix, kernel_basis, mat, mat_vec, transpose
from spinor10.sections import (
    NonTransversalError,
    SectionK,
    classify,
    make_section,
    perp_in_minus,
    perp_in_plus,
    q_kappa_K,
    smoothness_scan,
    w_u3,
)
from spinor10.spaces import _f4_constraint_space, f4_scan
from spinor10.variety import is_pure, random_isotropic, random_pure_witness, random_spinor

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def spin(field, half, *terms):
    return HalfSpinor.from_subsets(field, half, [(t, field.one) for t in terms]).coords


def pure_kappa(field):
    return spin(field, MINUS, (1,))


def smooth_kappa(field):
    return spin(field, MINUS, (1,), (2, 3, 4))


def test_section_k_perp_dim():
    for field in (F2, F3):
        K = Subspace(field, DIM_S, [smooth_kappa(field)])
        s = SectionK.make(K)
        assert s.Kperp.dim == 15
        assert s.k == 1


def test_smoothness_scan_pure_immediately_singular():
    K = Subspace(F2, DIM_S, [pure_kappa(F2)])
    cert = smoothness_scan(K)
    assert cert.status == "certified-singular"
    assert cert.witness[1] == 1


def test_smoothness_scan_smooth_hyperplane():
    K = Subspace(F2, DIM_S, [smooth_kappa(F2)])
    cert = smoothness_scan(K, max_degree=6)
    assert cert.smooth_so_far


def test_smoothness_scan_dim2_high_degree():
    rng = random.Random(0)
    found = 0
    for _ in range(5):
        K = Subspace(F2, DIM_S, [random_spinor(F2, rng, MINUS) for _ in range(2)])
        if K.dim != 2:
            continue
        cert = smoothness_scan(K, max_degree=12)
        assert cert.status in ("certified-singular", "no-point-up-to-degree-M")
        found += 1
    assert found


def _kernel(field, rows):
    return Subspace(field, DIM_S, kernel_basis(field, mat(rows)) if rows else identity_matrix(field, DIM_S))


def test_orthogonals_match_kernels_of_scalar_pairing_rows():
    # the reference builds every row entry by one scalar pairing call
    rng = random.Random(11)
    for field in (F2, F3, F5, QQ):
        units = identity_matrix(field, DIM_S)
        for k in (0, 1, 2, 3, 4, 5):
            K = Subspace(field, DIM_S, [random_spinor(field, rng, MINUS) for _ in range(k)])
            W = Subspace(field, DIM_S, [random_spinor(field, rng, PLUS) for _ in range(k)])
            plus = [[pairing(field, kappa, b) for b in units] for kappa in K.basis]
            minus = [[pairing(field, b, w) for b in units] for w in W.basis]
            f4 = [
                [pairing(field, kappa, clifford_mul(field, v, b, MINUS)) for b in units]
                for kappa in K.basis
                for v in v_basis(field)
            ]
            assert perp_in_plus(K) == _kernel(field, plus)
            assert perp_in_minus(W) == _kernel(field, minus)
            assert _f4_constraint_space(K) == _kernel(field, f4)


def test_a_scan_that_skips_every_degree_certifies_nothing():
    # a pencil through a pure spinor: X_K is singular
    rng = random.Random(4)
    tau = random_pure_witness(F3, rng, MINUS).spinor
    K = Subspace(F3, DIM_S, [tau, random_spinor(F3, rng, MINUS)])
    assert smoothness_scan(K).status == "certified-singular"
    for cert in (smoothness_scan(K, budget=0), smoothness_scan(K, max_degree=0)):
        assert cert.status == "not-scanned" and not cert.smooth_so_far
        assert cert.scanned == () and cert.witness is None
    assert classify(K, budget=0).smoothness.status == "not-scanned"
    cert = smoothness_scan(Subspace(QQ, DIM_S, [smooth_kappa(QQ)]), budget=0)
    assert (cert.status, cert.scanned, cert.skipped) == ("not-scanned", (), (3, 5, 7))
    for kind in ("special", "very-special", "generic-2"):
        with pytest.raises(ValueError, match="scans no degree"):
            make_section(kind, F3, seed=1, budget=0)


def test_smoothness_scan_rationals():
    K = Subspace(QQ, DIM_S, [smooth_kappa(QQ)])
    cert = smoothness_scan(K, max_degree=3)
    assert cert.smooth_so_far
    Kp = Subspace(QQ, DIM_S, [pure_kappa(QQ)])
    cert = smoothness_scan(Kp, max_degree=2)
    assert cert.status == "singular-mod-p"


def test_classify_hyperplanes():
    assert classify(Subspace(F3, DIM_S, [pure_kappa(F3)])).label == "singular-hyperplane"
    assert classify(Subspace(F3, DIM_S, [smooth_kappa(F3)])).label == "smooth-hyperplane"


def test_w_u3_dim8():
    rng = random.Random(1)
    for field in (F2, F3, F5, QQ):
        for _ in range(8):
            u3 = random_isotropic(field, rng, 3)
            assert w_u3(field, u3).dim == 8


def test_make_special_f3():
    s = make_section("special", F3, seed=5)
    assert s.k == 2
    rep = classify(s.K)
    assert rep.label == "special"
    assert rho(F3, s.K.basis[0], s.K.basis[1]).vanishes(F3)
    wits = f4_scan(s.K)
    assert len(wits) == 4  # P^1(F_3)
    # collinear: the four tau span a 2-dim subspace of S-
    line = Subspace(F3, DIM_S, [w.spinor for w in wits])
    assert line.dim == 2


def test_make_special_f2():
    s = make_section("special", F2, seed=3)
    wits = f4_scan(s.K)
    assert len(wits) == 3  # P^1(F_2)
    assert Subspace(F2, DIM_S, [w.spinor for w in wits]).dim == 2
    assert classify(s.K).label == "special"


def test_make_very_special_f3():
    s = make_section("very-special", F3, seed=7)
    rep = classify(s.K)
    assert rep.label == "very-special"
    from spinor10.gamma import rho_form

    assert rho_form(F3, s.K).is_zero(F3)
    assert len(f4_scan(s.K)) == 1


def test_make_generic_sections():
    s2 = make_section("generic-2", F3, seed=11)
    assert classify(s2.K).label == "nonspecial"
    s4 = make_section("generic-4", F3, seed=11)
    assert classify(s4.K).label == "generic"
    assert len(f4_scan(s4.K)) == 0


def test_taxonomy_closure():
    cases = [
        ("special", F3, "special"),
        ("very-special", F3, "very-special"),
        ("generic-2", F5, "nonspecial"),
        ("generic-4", F5, "generic"),
    ]
    for kind, field, want in cases:
        for seed in range(3):
            s = make_section(kind, field, seed=seed)
            assert classify(s.K).label == want


def test_q_kappa_k_hyperplane():
    K = Subspace(F5, DIM_S, [smooth_kappa(F5)])
    s = SectionK.make(K)
    form, dim, corank = q_kappa_K(K.basis[0], s)
    assert dim == 8 and corank == 0


def test_q_kappa_k_nonspecial_vs_special():
    rng = random.Random(2)
    s = make_section("generic-2", F5, seed=13)
    kappa = s.K.basis[0]
    _, dim, corank = q_kappa_K(kappa, s)
    assert dim == 7 and corank == 0
    sp = make_section("special", F5, seed=13)
    coranks = []
    for t in range(F5.p):
        kappa = tuple(
            F5.add(a, F5.mul(t, b)) for a, b in zip(sp.K.basis[0], sp.K.basis[1])
        )
        if is_pure(F5, kappa, MINUS):
            continue
        _, dim, c = q_kappa_K(kappa, sp)
        coranks.append(c)
    assert coranks and all(c >= 1 for c in coranks)


def test_q_kappa_k_rejects_pure():
    K = Subspace(F5, DIM_S, [pure_kappa(F5), smooth_kappa(F5)])
    s = SectionK.make(K)
    from spinor10.gamma import PureSpinorError

    with pytest.raises(PureSpinorError):
        q_kappa_K(pure_kappa(F5), s)


def test_corank_equality_remark():
    rng = random.Random(3)
    done = 0
    while done < 25:
        k = rng.choice([3, 4, 5])
        K = Subspace(F5, DIM_S, [random_spinor(F5, rng, MINUS) for _ in range(k)])
        if K.dim != k:
            continue
        kappa = K.basis[rng.randrange(k)]
        if is_pure(F5, kappa, MINUS):
            continue
        s = SectionK.make(K)
        try:
            _, _, c1 = q_kappa_K(kappa, s)
        except NonTransversalError:
            continue
        _, c2 = r_kappa_form(F5, kappa, K)
        assert c1 == c2
        done += 1


def test_char2_classifier_fallback():
    s = make_section("special", F2, seed=1)
    rep = classify(s.K)
    assert rep.label == "special"
    assert "char-2" in rep.notes
    g = make_section("generic-2", F2, seed=1)
    assert classify(g.K).label == "nonspecial"


def test_generic_pencils_over_f2_are_nonspecial():
    # the constructor applies the same special-pencil test as classify
    for seed in range(20):
        K = make_section("generic-2", F2, seed=seed).K
        assert classify(K).label == "nonspecial", seed
        assert f4_scan(K) == [], seed
