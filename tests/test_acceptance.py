"""Acceptance gate: eleven pinned criteria, one test per criterion.

Each test prints a single "[criterion N] PASS/FAIL" line and fails when its
criterion does.
"""

import random
import time

import pytest

from spinor10.clifford import DIM_S, DIM_V, MINUS, MU_INT, PLUS, bV, clifford_mul, qV
from spinor10.counting import (
    count_section_points,
    predicted_count,
    quadric_count,
    verify_blowup_identity,
    verify_k6_relation,
)
from spinor10.fields import PrimeField, QQ
from spinor10.gamma import PureSpinorError, gamma, polarize_mu, r_kappa_form, rho
from spinor10.linalg import Subspace
from spinor10.sections import (
    NonTransversalError,
    SectionK,
    make_section,
    q_kappa_K,
    smoothness_scan,
)
from spinor10.spaces import f4_scan, pi4_meet_quadric
from spinor10.variety import (
    annihilator,
    half_of_maximal_isotropic,
    is_pure,
    mu,
    phi_v,
    random_isotropic,
    random_maximal_isotropic,
    random_pure_witness,
    random_spinor,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

EXPECTED_F2 = {1: 1143, 2: 567, 3: 279, 4: 135, 5: 63}


def _report(n, ok, detail=""):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def _random_smooth_sections(field, k, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        K = Subspace(field, DIM_S, [random_spinor(field, rng, MINUS) for _ in range(k)])
        if K.dim != k:
            continue
        if smoothness_scan(K).smooth_so_far:
            out.append(K)
    return out


@pytest.fixture(scope="module")
def smooth_sections_f2():
    return {k: _random_smooth_sections(F2, k, 20, seed=100 + k) for k in range(1, 6)}


def test_criterion_01_full_scan_f2():
    t0 = time.monotonic()
    K0 = Subspace(F2, DIM_S, [])
    n = count_section_points(K0, "X")
    elapsed = time.monotonic() - t0
    product = (2 + 1) * (2**2 + 1) * (2**3 + 1) * (2**4 + 1)
    ok = n == 2295 == predicted_count(0, 2) == product and elapsed < 1.0
    _report(1, ok, f"#X(F_2) = {n}, product = {product}, {elapsed:.3f}s")


def test_criterion_02_motive_counts(smooth_sections_f2):
    t0 = time.monotonic()
    bad = []
    for k, sections in smooth_sections_f2.items():
        for K in sections:
            n = count_section_points(K, "X")
            if n != EXPECTED_F2[k]:
                bad.append((k, n))
    K3 = make_section("generic-1", F3, seed=1).K
    n3 = count_section_points(K3, "X")
    if n3 != 30604:
        bad.append((("F3", 1), n3))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 30.0
    _report(2, ok, f"100 F_2 sections + F_3 hyperplane ({n3}), {elapsed:.1f}s, bad={bad}")


def test_criterion_03_blowup_identity(smooth_sections_f2):
    nq = quadric_count(2)
    bad = []
    for k, sections in smooth_sections_f2.items():
        for K in sections:
            r = verify_blowup_identity(K)
            if r.identity_lhs != r.identity_rhs:
                bad.append((k, r.identity_lhs, r.identity_rhs))
    ok = nq == 527 and not bad
    _report(3, ok, f"#Q(F_2) = {nq}, identity exact on 100 sections, bad={bad}")


def test_criterion_04_f4_taxonomy():
    t0 = time.monotonic()
    issues = []
    h = make_section("generic-1", F2, seed=0)
    n = len(f4_scan(h.K))
    if n != 63:
        issues.append(f"hyperplane q=2: {n} != 63")
    for field, q in ((F2, 2), (F3, 3)):
        s = make_section("special", field, seed=3)
        wits = f4_scan(s.K)
        if len(wits) != q + 1:
            issues.append(f"special q={q}: {len(wits)} != {q + 1}")
        elif Subspace(field, DIM_S, [w.spinor for w in wits]).dim != 2:
            issues.append(f"special q={q}: witnesses not collinear")
        vs = make_section("very-special", field, seed=7)
        if len(f4_scan(vs.K)) != 1:
            issues.append(f"very-special q={q}: count != 1")
    for field in (F2, F3):
        for k in (4, 5):
            for seed in range(5):
                g = make_section(f"generic-{k}", field, seed=seed)
                if f4_scan(g.K):
                    issues.append(f"generic k={k} over {field}: nonempty")
    elapsed = time.monotonic() - t0
    ok = not issues and elapsed < 120.0
    _report(4, ok, f"63 / q+1 collinear / 1 / 0 pattern, {elapsed:.1f}s {issues}")


def test_criterion_05_purity_suite():
    rng = random.Random(50)
    failures = 0
    for i in range(1000):
        field = (F2, F3, F5)[i % 3]
        half = (PLUS, MINUS)[i % 2]
        w = random_pure_witness(field, rng, half)
        if any(x != field.zero for x in mu(field, w.spinor, half)):
            failures += 1
        if annihilator(field, w.spinor, half).dim != 5:
            failures += 1
    nonpure = 0
    tried = 0
    while nonpure < 1000:
        field = (F2, F3, F5)[tried % 3]
        s = random_spinor(field, rng, MINUS)
        tried += 1
        if any(x != field.zero for x in s) and not is_pure(field, s, MINUS):
            nonpure += 1
            if all(x == field.zero for x in mu(field, s, MINUS)):
                failures += 1
    parity_bad = 0
    for i in range(1000):
        field = (F2, F3, F5)[i % 3]
        w1 = random_maximal_isotropic(field, rng)
        w2 = random_maximal_isotropic(field, rng)
        same = half_of_maximal_isotropic(field, w1) == half_of_maximal_isotropic(
            field, w2
        )
        if same != (w1.intersect(w2).dim % 2 == 1):
            parity_bad += 1
    ok = failures == 0 and parity_bad == 0
    _report(5, ok, f"pure/non-pure failures={failures}, parity failures={parity_bad}")


def test_criterion_06_gamma_suite():
    rng = random.Random(60)
    failures = 0

    def check(field, count):
        bad = 0
        done = 0
        while done < count:
            kappa = random_spinor(field, rng, MINUS)
            if all(x == field.zero for x in kappa) or is_pure(field, kappa, MINUS):
                continue
            done += 1
            v = gamma(field, kappa)
            if qV(field, v) != field.zero:
                bad += 1
            if clifford_mul(field, v, kappa, MINUS) != (field.zero,) * DIM_S:
                bad += 1
        return bad

    failures += check(F5, 1000)
    failures += check(QQ, 100)
    # symbolic: each gamma coordinate is a sum of quadratic terms c s_u s_v
    symbolic_ok = all(
        0 <= u <= v < DIM_S and type(coeff) is int and coeff != 0
        for c in MU_INT[MINUS]
        for u, v, coeff in c
    )
    ok = failures == 0 and symbolic_ok
    _report(6, ok, f"q_V(gamma)=0 and gamma.kappa=0 on 1100 draws, failures={failures}")


def _polarization_span_isotropic(field, K):
    vecs = []
    for i in range(K.dim):
        for j in range(i, K.dim):
            vecs.append(polarize_mu(field, K.basis[i], K.basis[j]))
    span = Subspace(field, DIM_V, [list(v) for v in vecs])
    return all(
        bV(field, a, b) == field.zero for a in span.basis for b in span.basis
    ) and all(qV(field, a) == field.zero for a in span.basis), span.dim


def test_criterion_07_line_complex_equivalence():
    rng = random.Random(70)
    issues = []
    sections = []
    while len(sections) < 100:
        K = Subspace(F3, DIM_S, [random_spinor(F3, rng, MINUS) for _ in range(2)])
        if K.dim == 2 and smoothness_scan(K).smooth_so_far:
            sections.append(K)
    for seed in range(20):
        sections.append(make_section("special", F3, seed=seed).K)
    for K in sections:
        rho0 = rho(F3, K.basis[0], K.basis[1]).vanishes(F3)
        f4 = bool(f4_scan(K))
        iso, dim = _polarization_span_isotropic(F3, K)
        iso3 = iso and dim == 3
        if not (rho0 == f4 == iso3):
            issues.append((rho0, f4, iso, dim))
    # determinant-square scaling on 1000 bases
    scale_bad = 0
    for i in range(1000):
        field = (F3, F5, QQ)[i % 3]
        k1 = random_spinor(field, rng, MINUS)
        k2 = random_spinor(field, rng, MINUS)
        a, b, c, d = (field.sample(rng) for _ in range(4))
        l1 = tuple(field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(k1, k2))
        l2 = tuple(field.add(field.mul(c, x), field.mul(d, y)) for x, y in zip(k1, k2))
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if rho(field, l1, l2).value != field.mul(
            field.mul(det, det), rho(field, k1, k2).value
        ):
            scale_bad += 1
    secant_bad = 0
    for i in range(500):
        field = (F3, F5, QQ)[i % 3]
        pure = random_pure_witness(field, rng, MINUS)
        other = random_spinor(field, rng, MINUS)
        if not rho(field, pure.spinor, other).vanishes(field):
            secant_bad += 1
    ok = not issues and scale_bad == 0 and secant_bad == 0
    _report(
        7,
        ok,
        f"120 sections triple-equivalent, scaling bad={scale_bad}, "
        f"secant bad={secant_bad}, issues={issues[:3]}",
    )


def test_criterion_08_corank_equality():
    rng = random.Random(80)
    done = 0
    bad = 0
    while done < 100:
        k = rng.choice([3, 4, 5])
        K = Subspace(F5, DIM_S, [random_spinor(F5, rng, MINUS) for _ in range(k)])
        if K.dim != k:
            continue
        kappa = K.basis[rng.randrange(k)]
        if is_pure(F5, kappa, MINUS):
            continue
        try:
            _, _, c1 = q_kappa_K(kappa, SectionK.make(K))
        except NonTransversalError:
            continue
        _, c2 = r_kappa_form(F5, kappa, K)
        if c1 != c2:
            bad += 1
        done += 1
    _report(8, bad == 0, f"corank(Q) = corank(R) on 100 draws, bad={bad}")


def test_criterion_09_phi_v_rank_one():
    rng = random.Random(90)
    bad = 0
    for i in range(100):
        field = (F3, F5)[i % 2]
        v = random_isotropic(field, rng, 1).basis[0]
        # phi_v asserts internally that the 10 restricted quadrics span a
        # 1-dimensional system and that the space has dimension 8
        s8 = phi_v(field, v, PLUS)
        if s8.form is None or s8.corank() != 0:
            bad += 1
    _report(9, bad == 0, f"rank-1 restriction, nondegenerate Phi_v, bad={bad}")


def test_criterion_10_dichotomy():
    rng = random.Random(100)
    bad = 0
    for i in range(1000):
        field = (F2, F3, F5)[i % 3]
        tau = random_pure_witness(field, rng, MINUS)
        v = random_isotropic(field, rng, 1).basis[0]
        d = pi4_meet_quadric(tau, v)
        expected = 4 if tau.annihilator.contains(v) else 1
        if d != expected:
            bad += 1
    _report(10, bad == 0, f"pi4 meets Q_v in dim 1 or 4 matching membership, bad={bad}")


def test_criterion_11_k6_relation():
    rng = random.Random(110)
    checked = 0
    failures = []
    while checked < 10:
        K = Subspace(F2, DIM_S, [random_spinor(F2, rng, MINUS) for _ in range(6)])
        if K.dim != 6:
            continue
        r = verify_k6_relation(K, max_degree=4)
        checked += 1
        if not r.passed:
            failures.append((r.actual, r.predicted))
    _report(
        11,
        not failures,
        f"#X_K = 1 + q + q^3 + q^4 + q^2 #X^v_K on {checked} sections, failures={failures}",
    )
