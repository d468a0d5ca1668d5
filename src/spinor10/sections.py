"""Linear sections X_K = X cap P(K^perp): smoothness scanning, the
classification taxonomy, the quadrics Q_{kappa,K}, and constructors for
special / very special / generic sections.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .clifford import DIM_S, DIM_V, MINUS, PLUS, bV, pairing_orthogonal, qV
from .fields import Field, PrimeField, RationalField, get_ext_field
from .gamma import coords_in, gamma, rho, rho_form
from .linalg import Subspace, SymBilinearForm, check_invariant, mat_vec, transpose
from .scan import ext_zero_locus, find_first_zero, num_projective_points
from .spaces import span_pi4
from .variety import (
    MU_INT,
    annihilator_kernel,
    is_pure,
    mu,
    phi_v,
    random_isotropic,
    random_pure_witness,
    random_spinor,
    restrict_quadric,
    witness_from_spinor,
)

DEFAULT_MAX_DEGREE = 6
DEFAULT_BUDGET = 300_000
REDUCTION_PRIMES = (3, 5, 7)
MAX_TRIES = 200


def perp_in_plus(K: Subspace) -> Subspace:
    """K^perp inside S+ under the duality pairing, for K inside S-."""
    return pairing_orthogonal(K, MINUS)


def perp_in_minus(W: Subspace) -> Subspace:
    """{kappa in S- : <kappa, w> = 0 for all w in W}, for W inside S+."""
    return pairing_orthogonal(W, PLUS)


@dataclass(frozen=True)
class SectionK:
    field: Field
    K: Subspace
    Kperp: Subspace

    @classmethod
    def make(cls, K: Subspace) -> "SectionK":
        kp = perp_in_plus(K)
        check_invariant(kp.dim == DIM_S - K.dim, "K^perp has dim 16 - k")
        return cls(K.field, K, kp)

    @property
    def k(self) -> int:
        return self.K.dim


@dataclass(frozen=True)
class SmoothnessCertificate:
    # "certified-singular" | "singular-mod-p" | "no-point-up-to-degree-M" |
    # "not-scanned" (no degree, or over Q no reduction prime, was scanned)
    status: str
    max_degree: int
    witness: tuple | None  # (prime, degree, point coefficients on the K basis)
    scanned: tuple
    skipped: tuple
    notes: str = ""

    @property
    def smooth_so_far(self) -> bool:
        return self.status == "no-point-up-to-degree-M"


def _restricted_dual_forms(K: Subspace):
    return [restrict_quadric(K.field, c, K.basis) for c in MU_INT[MINUS]]


def _prime_smoothness_scan(K, q, max_degree, budget):
    forms = _restricted_dual_forms(K)
    k = K.dim
    scanned, skipped = [], []
    for m in range(1, max_degree + 1):
        if num_projective_points(q**m, k) > budget:
            skipped.append(m)
            continue
        if m == 1:
            pt = find_first_zero(forms, q, k)
        else:
            pts = ext_zero_locus(forms, get_ext_field(q, m), k, find_first=True)[1]
            pt = pts[0] if pts else None
        if pt is not None:
            return ("certified-singular", (q, m, pt), tuple(scanned), tuple(skipped))
        scanned.append(m)
    status = "no-point-up-to-degree-M" if scanned else "not-scanned"
    return (status, None, tuple(scanned), tuple(skipped))


def smoothness_scan(
    K: Subspace,
    max_degree: int = DEFAULT_MAX_DEGREE,
    budget: int = DEFAULT_BUDGET,
) -> SmoothnessCertificate:
    """Scan X^v cap P(K) for points over F_{q^m}, m = 1..max_degree.

    For k <= 5 emptiness over the algebraic closure is equivalent to X_K
    smooth; the scan certifies emptiness only up to the given degree, and
    levels whose point count exceeds the budget are skipped (recorded).  A
    scan that skips every level proves nothing and is "not-scanned".
    Over the rationals the scan runs over REDUCTION_PRIMES; a section is
    flagged singular-mod-p when every scanned prime exhibits a point.  That
    is modular evidence, not a proof that X_K itself is singular.
    """
    field = K.field
    if isinstance(field, PrimeField):
        status, wit, scanned, skipped = _prime_smoothness_scan(
            K, field.p, max_degree, budget
        )
        return SmoothnessCertificate(status, max_degree, wit, scanned, skipped)
    if isinstance(field, RationalField):
        hits = []
        scanned, skipped = [], []
        for p in REDUCTION_PRIMES:
            Kp = _reduce_mod_p(K, p)
            if Kp is None:
                skipped.append(p)
                continue
            status, wit, _, _ = _prime_smoothness_scan(Kp, p, max_degree, budget)
            if status == "not-scanned":
                skipped.append(p)
                continue
            scanned.append(p)
            if status == "certified-singular":
                hits.append(wit)
        if scanned and len(hits) == len(scanned):
            return SmoothnessCertificate(
                "singular-mod-p",
                max_degree,
                hits[0],
                tuple(scanned),
                tuple(skipped),
                notes="modular evidence at every scanned reduction prime",
            )
        status = "no-point-up-to-degree-M" if scanned else "not-scanned"
        return SmoothnessCertificate(status, max_degree, None, tuple(scanned), tuple(skipped))
    raise ValueError("smoothness_scan needs a prime field or the rationals")


def _reduce_mod_p(K: Subspace, p: int):
    fp = PrimeField(p)
    rows = []
    for row in K.basis:
        denom = 1
        for x in row:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
        rows.append(tuple((x.numerator * denom // x.denominator) % p for x in row))
    Kp = Subspace(fp, K.ambient_dim, rows)
    return Kp if Kp.dim == K.dim else None


@dataclass(frozen=True)
class ClassificationReport:
    k: int
    smoothness: SmoothnessCertificate
    label: str
    rho_data: tuple | None  # (rank, corank) of the relevant form, when computed
    notes: str = ""


def _mu_span(field: Field, basis):
    """Dimension and total isotropy of the span of mu over the points of
    P(K), K spanned by `basis`, over any field of more than two elements
    containing the base field (over F_2 itself the span can be smaller).

    mu is quadratic: mu(sum t_i k_i) = sum t_i^2 mu(k_i) + sum_{i<j} t_i t_j
    (mu(k_i + k_j) - mu(k_i) - mu(k_j)), and over such a field the
    monomials t_i^2, t_i t_j are independent functions, so the span is
    spanned by the rational vectors mu(k_i) and mu(k_i + k_j).
    """
    vecs = [mu(field, b, MINUS) for b in basis]
    for i, a in enumerate(basis):
        for b in basis[i + 1 :]:
            vecs.append(mu(field, tuple(field.add(x, y) for x, y in zip(a, b)), MINUS))
    span = Subspace(field, DIM_V, vecs)
    iso = all(
        qV(field, a) == field.zero
        and all(bV(field, a, b) == field.zero for b in span.basis)
        for a in span.basis
    )
    return span.dim, iso


def _is_special_pencil(field: Field, basis) -> bool:
    """The k = 2 special test: rho vanishes on the pencil (odd
    characteristic); in characteristic 2, the mu-span has dim <= 3 and is
    totally isotropic."""
    if field.char != 2:
        return rho(field, basis[0], basis[1]).vanishes(field)
    dim, iso = _mu_span(field, basis)
    return dim <= 3 and iso


def _is_very_special(field: Field, basis) -> bool:
    dim, iso = _mu_span(field, basis)
    return dim == 5 and iso


def classify(
    K: Subspace,
    max_degree: int = DEFAULT_MAX_DEGREE,
    budget: int = DEFAULT_BUDGET,
) -> ClassificationReport:
    """Taxonomy: k=1 singular/smooth hyperplane; k=2 special/nonspecial via
    the line complex; k=3 very-special via the span of mu; k>=4 generic
    with the rho_form rank reported."""
    field = K.field
    k = K.dim
    cert = smoothness_scan(K, max_degree, budget)
    notes = ""
    if field.char == 2 and k in (2, 3):
        notes = "char-2 fallback: gamma-span test (equivalence unproven)"
    rho_data = None
    if k == 1:
        label = (
            "singular-hyperplane"
            if is_pure(field, K.basis[0], MINUS)
            else "smooth-hyperplane"
        )
    elif k == 2:
        special = _is_special_pencil(field, K.basis)
        label = "special" if special else "nonspecial"
        if field.char != 2:
            rho_data = (0, 1) if special else (1, 0)
    else:
        label = "generic"
        if k == 3 and _is_very_special(field, K.basis):
            label = "very-special"
        if field.char != 2 and k >= 3:
            form = rho_form(field, K)
            rho_data = (form.form.rank(), form.form.corank())
    return ClassificationReport(k, cert, label, rho_data, notes)


class NonTransversalError(ValueError):
    pass


def q_kappa_K(kappa, section: SectionK):
    """The quadric Q_{kappa,K} = Q_{gamma(kappa)} cap P(K^perp).

    Returns (SymBilinearForm on 9-k coordinates, ambient linear dim, corank).
    """
    field = section.field
    if field.char == 2:
        raise ValueError("requires characteristic != 2")
    v = gamma(field, kappa)  # raises PureSpinorError on X^v
    sp = phi_v(field, v, PLUS)
    inter = sp.space.intersect(section.Kperp)
    expected = 9 - section.k
    if inter.dim != expected:
        raise NonTransversalError(
            f"S8_v cap K^perp has dim {inter.dim}, expected {expected}"
        )
    coords = [coords_in(sp.space, row) for row in inter.basis]
    gram = [
        [sp.form.apply(a, b) for b in coords] for a in coords
    ]
    form = SymBilinearForm(field, gram)
    return form, inter.dim, form.corank()


def _random_subspace_of(space: Subspace, rng, dim):
    field = space.field
    cols = transpose(space.basis)
    while True:
        rows = [
            mat_vec(field, cols, tuple(field.sample(rng) for _ in range(space.dim)))
            for _ in range(dim)
        ]
        sub = Subspace(field, space.ambient_dim, rows)
        if sub.dim == dim:
            return sub


def w_u3(field: Field, u3: Subspace) -> Subspace:
    """W_{U3}: the span of the 4-space spans over the line L^-_{U3} in X^v.

    This is the 8-dim fiber of the resolution of the line complex; dim 8 is
    checked.
    """
    T = annihilator_kernel(field, u3, MINUS)  # dim 2, checked there
    pts = []
    b0, b1 = T.basis
    pts.append(b0)
    pts.append(b1)
    pts.append(tuple(field.add(a, b) for a, b in zip(b0, b1)))
    if field.char != 2:
        two = field.from_int(2)
        pts.append(tuple(field.add(a, field.mul(two, b)) for a, b in zip(b0, b1)))
    w = Subspace(field, DIM_S)
    for p in pts:
        tau = witness_from_spinor(field, p, MINUS)
        w = w.sum(span_pi4(tau))
    check_invariant(w.dim == 8, "W_{U3} has dim 8")
    return w


def make_section(
    kind: str,
    field: Field,
    seed: int = 0,
    max_degree: int = DEFAULT_MAX_DEGREE,
    budget: int = DEFAULT_BUDGET,
) -> SectionK:
    """Construct a section of the requested kind (deterministic in the seed).

    kind: "special", "very-special", or "generic-k" with k in 1..8.
    """
    rng = random.Random(seed)
    if kind == "special":
        return _make_special(field, rng, max_degree, budget)
    if kind == "very-special":
        return _make_very_special(field, rng, max_degree, budget)
    if kind.startswith("generic-"):
        k = int(kind.split("-", 1)[1])
        if not 1 <= k <= 8:
            raise ValueError("generic-k needs k in 1..8")
        return _make_generic(field, rng, k, max_degree, budget)
    raise ValueError(f"unknown section kind {kind!r}")


def _smooth(K, max_degree, budget):
    cert = smoothness_scan(K, max_degree, budget)
    if cert.status == "not-scanned":
        # the skipped degrees depend only on (q, k, max_degree, budget)
        raise ValueError(
            f"budget {budget} scans no degree up to {max_degree}: smoothness cannot be checked"
        )
    return cert.smooth_so_far


def _make_special(field, rng, max_degree, budget):
    for _ in range(MAX_TRIES):
        u3 = random_isotropic(field, rng, 3)
        w = w_u3(field, u3)
        wperp = perp_in_minus(w)
        for _ in range(20):
            K = _random_subspace_of(wperp, rng, 2)
            if not _smooth(K, max_degree, budget):
                continue
            if not _is_special_pencil(field, K.basis):
                continue
            return SectionK.make(K)
    raise RuntimeError("retry budget exhausted for special section")


def _make_very_special(field, rng, max_degree, budget):
    for _ in range(MAX_TRIES):
        tau = random_pure_witness(field, rng, MINUS)
        perp = perp_in_minus(span_pi4(tau))
        for _ in range(20):
            K = _random_subspace_of(perp, rng, 3)
            if not _smooth(K, max_degree, budget):
                continue
            return SectionK.make(K)
    raise RuntimeError("retry budget exhausted for very-special section")


def _make_generic(field, rng, k, max_degree, budget):
    for _ in range(MAX_TRIES):
        K = Subspace(
            field, DIM_S, [random_spinor(field, rng, MINUS) for _ in range(k)]
        )
        if K.dim != k:
            continue
        if k <= 5 and not _smooth(K, max_degree, budget):
            continue
        if k == 2 and _is_special_pencil(field, K.basis):
            continue
        if k == 3 and _is_very_special(field, K.basis):
            continue
        return SectionK.make(K)
    raise RuntimeError("retry budget exhausted for generic section")
