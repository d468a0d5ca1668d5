import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from spinor10.clifford import DIM_S, HalfSpinor, MINUS, PLUS, clifford_mul, pairing, v_basis
from spinor10.counting import count_section_points
from spinor10.fields import PrimeField, QQ, get_ext_field
from spinor10.gamma import r_kappa_form, rho
from spinor10.linalg import Subspace, identity_matrix, kernel_basis, mat, mat_vec, rref, transpose
from spinor10.scan import ext_zero_locus
from spinor10.sections import (
    NonTransversalError,
    SectionK,
    _hilbert_function,
    _restricted_dual_forms,
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
F7 = PrimeField(7)


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
    cert = smoothness_scan(K)
    assert cert.smooth_so_far
    assert (cert.status, cert.degree, cert.hilbert) == ("certified-smooth", 2, (0,))


def test_smoothness_scan_dim2_high_degree():
    # a common zero of binary quadrics lies in P^1(F_{q^2}), so a scan there
    # decides a pencil exactly
    rng = random.Random(0)
    # a pencil over F_2 that meets X^v in two conjugate points over F_4
    pencils = [Subspace(F2, DIM_S, [
        (0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1),
        (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0),
    ])]
    for field in (F2, F3):
        for n in range(12):
            rows = [random_spinor(field, rng, MINUS) for _ in range(2)]
            if n % 3 == 0:
                rows[0] = random_pure_witness(field, rng, MINUS).spinor
            pencils.append(Subspace(field, DIM_S, rows))
    seen = set()
    for K in pencils:
        if K.dim != 2:
            continue
        points = ext_zero_locus(_restricted_dual_forms(K), get_ext_field(K.field.p, 2), 2)[0]
        cert = smoothness_scan(K)
        assert cert.status == ("certified-singular" if points else "certified-smooth")
        assert cert.witness is not None or cert.hilbert[-1] == points
        seen.add((cert.status, cert.degree))
    assert seen == {("certified-singular", 1), ("certified-singular", 3), ("certified-smooth", 2)}


def macaulay_hilbert(field, forms, k, D):
    """dim S_D - rank of the dense Macaulay matrix: row m * f for every
    quadric f and monomial m of degree D - 2, one column per monomial."""
    cols = {m: j for j, m in enumerate(combinations_with_replacement(range(k), D))}
    rows = []
    for f in forms:
        for m in combinations_with_replacement(range(k), D - 2):
            row = [field.zero] * len(cols)
            for i in range(k):
                for j in range(i, k):
                    c = cols[tuple(sorted(m + (i, j)))]
                    row[c] = field.add(row[c], f[i][j])
            rows.append(row)
    return len(cols) - rref(field, rows)[1]


def test_hilbert_function_matches_dense_macaulay_ranks():
    rng = random.Random(21)
    verdicts = set()
    for field in (F2, F3, F5, F7):
        for k in range(1, 6):
            for n in range(3):
                while True:
                    rows = [random_spinor(field, rng, MINUS) for _ in range(k)]
                    if n == 0:
                        rows[0] = random_pure_witness(field, rng, MINUS).spinor
                    K = Subspace(field, DIM_S, rows)
                    if K.dim == k:
                        break
                forms = _restricted_dual_forms(K)
                hilbert = _hilbert_function(forms, field.p, k)
                top = 4 if k == 5 else k + 1
                ref = [macaulay_hilbert(field, forms, k, D) for D in range(2, top + 1)]
                padded = hilbert + (0,) * (len(ref) - len(hilbert))
                assert padded[: len(ref)] == tuple(ref), (field.p, k, n)
                if k <= 4:
                    smooth = smoothness_scan(K).smooth_so_far
                    assert smooth == (ref[-1] == 0), (field.p, k, n)
                    verdicts.add(smooth)
    assert verdicts == {True, False}


# make_section("generic-5", F_3, seed=80 | 129) before smoothness was decided
# exactly: X^v meets P(K) in 3 points over F_27 and 4 over F_81
SINGULAR_GENERIC_5 = {
    80: [
        (1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 1, 0, 2, 0, 2),
        (0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 1),
        (0, 0, 1, 0, 0, 1, 2, 2, 2, 2, 1, 0, 2, 0, 1, 1),
        (0, 0, 0, 1, 0, 2, 1, 2, 0, 2, 2, 0, 2, 2, 0, 2),
        (0, 0, 0, 0, 1, 0, 2, 1, 0, 1, 2, 1, 0, 2, 1, 0),
    ],
    129: [
        (1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 2, 1, 2, 1, 0),
        (0, 1, 0, 0, 0, 1, 2, 0, 1, 0, 1, 1, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 2, 2, 1, 0, 0, 0, 1, 0, 2, 1, 2),
        (0, 0, 0, 1, 0, 0, 0, 2, 1, 1, 2, 1, 0, 2, 0, 2),
        (0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 2, 0, 0, 2, 0),
    ],
}


@pytest.mark.parametrize("seed, points", [(80, 3), (129, 4)])
def test_generic_5_sections_singular_beyond_f9_are_certified_singular(seed, points):
    K = Subspace(F3, DIM_S, SINGULAR_GENERIC_5[seed])
    cert = smoothness_scan(K)
    assert (cert.status, cert.degree, cert.hilbert[-1]) == ("certified-singular", 6, points)
    if seed == 80:
        assert ext_zero_locus(_restricted_dual_forms(K), get_ext_field(3, 3), 5)[0] == points
    K = make_section("generic-5", F3, seed=seed).K
    assert K != Subspace(F3, DIM_S, SINGULAR_GENERIC_5[seed])
    assert smoothness_scan(K).status == "certified-smooth"


def test_net_through_a_pure_spinor_at_large_p_is_certified_singular():
    # P^2(F_65521) is over the witness-scan budget: the Hilbert function decides
    field = PrimeField(65521)
    rng = random.Random(6)
    tau = random_pure_witness(field, rng, MINUS).spinor
    K = Subspace(field, DIM_S, [tau] + [random_spinor(field, rng, MINUS) for _ in range(2)])
    cert = smoothness_scan(K)
    assert (cert.status, cert.degree, cert.witness) == ("certified-singular", 4, None)
    assert cert.hilbert[-1] > 0


def test_smoothness_is_not_decided_for_k_at_least_6():
    # P(K) meets X^v by dimension (10 + k - 1 >= 15), so points say nothing
    K = make_section("generic-6", F3, seed=2).K
    with pytest.raises(ValueError, match="1 <= k <= 5"):
        smoothness_scan(K)
    with pytest.raises(ValueError, match="1 <= k <= 5"):
        smoothness_scan(Subspace(F3, DIM_S, []))
    for kind in ("generic-6", "generic-7", "generic-8"):
        for field in (F2, F3):
            assert classify(make_section(kind, field, seed=1).K).smoothness is None


def test_smoothness_scan_refuses_extension_fields():
    F4 = get_ext_field(2, 2)
    K = Subspace(F4, DIM_S, [spin(F4, MINUS, (1,), (2, 3, 4))])
    with pytest.raises(ValueError, match="prime field or the rationals"):
        smoothness_scan(K)


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


def test_smoothness_scan_rationals():
    K = Subspace(QQ, DIM_S, [smooth_kappa(QQ)])
    assert smoothness_scan(K).status == "certified-smooth"
    Kp = Subspace(QQ, DIM_S, [pure_kappa(QQ)])
    cert = smoothness_scan(Kp)
    assert (cert.status, cert.witness) == ("singular-mod-p", (3, 1, (1,)))
    # the basis rows e_1 + e_3/105 and e_2 + e_3/105 are equal mod 3, 5 and 7
    e = [tuple(Fraction(int(i == j)) for j in range(DIM_S)) for i in range(3)]
    rows = [tuple(a + b / 105 for a, b in zip(e[i], e[2])) for i in range(2)]
    cert = smoothness_scan(Subspace(QQ, DIM_S, rows))
    assert (cert.status, cert.degree, cert.witness) == ("undecided", None, None)


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
    # k = 2 is decided by b_V(mu(k_0), mu(k_1)) in every characteristic and
    # carries no note; only the k = 3 span test keeps the char-2 note
    s = make_section("special", F2, seed=1)
    rep = classify(s.K)
    assert (rep.label, rep.rho_data, rep.notes) == ("special", (0, 1), "")
    g = classify(make_section("generic-2", F2, seed=1).K)
    assert (g.label, g.rho_data, g.notes) == ("nonspecial", (1, 0), "")
    n = classify(make_section("very-special", F2, seed=1).K)
    assert (n.label, n.notes) == ("very-special", "char-2 fallback: gamma-span test (equivalence unproven)")


@pytest.mark.parametrize("kind", ["special", "generic-2"])
def test_char2_special_pencils_are_the_pencils_with_4_spaces(kind):
    # over F_2 a special pencil has q + 1 = 3 four-spaces, a nonspecial none;
    # over F_4 the 4-spaces are the q + 1 = 5 points of X^v on P(C_K)
    for seed in range(4):
        K = make_section(kind, F2, seed=seed).K
        special = classify(K).label == "special"
        assert special == (kind == "special")
        assert len(f4_scan(K)) == (3 if special else 0), seed
        assert count_section_points(_f4_constraint_space(K), "X^v", 2) == (5 if special else 0), seed


def test_generic_pencils_over_f2_are_nonspecial():
    # the constructor applies the same special-pencil test as classify
    for seed in range(20):
        K = make_section("generic-2", F2, seed=seed).K
        assert classify(K).label == "nonspecial", seed
        assert f4_scan(K) == [], seed
