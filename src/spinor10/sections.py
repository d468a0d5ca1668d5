"""Linear sections X_K = X cap P(K^perp): exact smoothness decisions, the
classification taxonomy, the quadrics Q_{kappa,K}, and constructors for
special / very special / generic sections.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .clifford import DIM_S, DIM_V, MINUS, PLUS, bV, pairing_orthogonal
from .fields import Field, PrimeField, RationalField
from .gamma import coords_in, gamma, mu_table, rho, rho_form
from .linalg import Subspace, SymBilinearForm, check_invariant, mat_vec, rref_mod_p, transpose
from .scan import find_first_zero, num_projective_points
from .spaces import span_pi4
from .variety import (
    MU_INT,
    annihilator_kernel,
    is_pure,
    phi_v,
    random_isotropic,
    random_pure_witness,
    random_spinor,
    restricted_forms,
    witness_from_spinor,
)

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
    # "certified-smooth" | "certified-singular"; over Q "singular-mod-p" or
    # "undecided" (see smoothness_scan)
    status: str
    degree: int | None  # the D where it decided; 1 for a witness
    hilbert: tuple  # c_2, ..., c_D with c_D = dim (S/I)_D
    witness: tuple | None  # (prime, 1, point coefficients on the basis of K mod prime)

    @property
    def smooth_so_far(self) -> bool:
        # the verdict is exact; the name is kept for perfbench/workloads.py
        return self.status == "certified-smooth"


@lru_cache(maxsize=None)
def _monomial_products(k, D):
    """Rows (i, index of m, index of M) for every way M = x_i * m of writing
    a degree-D monomial M in k variables, grouped by M; monomials of each
    degree are indexed in combinations_with_replacement order."""
    low = {m: j for j, m in enumerate(combinations_with_replacement(range(k), D - 1))}
    return np.array([
        (i, low[M[: M.index(i)] + M[M.index(i) + 1 :]], j)
        for j, M in enumerate(combinations_with_replacement(range(k), D))
        for i in sorted(set(M))
    ]).T


def _hilbert_function(forms, p, k):
    """c_D = dim (S/I)_D, D = 2, ..., k + 1 or the first c_D = 0, for I the
    ideal of quadrics (upper-triangular (k, k) arrays) in F_p[x_0..x_{k-1}].
    As I_D = S_1 I_{D-1}, S_D/I_D is spanned by the k c_{D-1} products x_i b,
    b in a basis of S_{D-1}/I_{D-1}: each step eliminates their relations
    (two ways of writing one monomial), from the quadrics at D = 2."""
    i, j = np.triu_indices(k)
    # the relations among the columns, and each degree-D monomial over them
    rows = np.asarray(forms, dtype=np.int64)[:, i, j]
    head = np.eye(len(i), dtype=np.int64)
    hilbert = []
    for D in range(2, k + 2):
        red, pivots = rref_mod_p(rows, p)
        free = np.ones(rows.shape[1], dtype=bool)
        free[pivots] = False
        free = np.flatnonzero(free)
        hilbert.append(len(free))
        if not len(free) or D == k + 1:
            break
        nf = (head[:, free] - head[:, pivots] @ red[:, free]) % p
        var, sub, mono = _monomial_products(k, D + 1)
        prods = (np.eye(k, dtype=np.int64)[var, :, None] * nf[sub, None, :]).reshape(len(var), -1)
        same = mono[1:] == mono[:-1]
        rows = (prods[1:] - prods[:-1])[same]
        head = prods[np.r_[True, ~same]]
    return tuple(hilbert)


def _prime_smoothness_scan(K, p):
    forms = restricted_forms(K.field, MU_INT[MINUS], K.basis)
    if num_projective_points(p, K.dim) <= DEFAULT_BUDGET:
        pt = find_first_zero(forms, p, K.dim)
        if pt is not None:
            return SmoothnessCertificate("certified-singular", 1, (), (p, 1, pt))
    hilbert = _hilbert_function(forms, p, K.dim)
    status = "certified-singular" if hilbert[-1] else "certified-smooth"
    return SmoothnessCertificate(status, len(hilbert) + 1, hilbert, None)


def smoothness_scan(K: Subspace) -> SmoothnessCertificate:
    """Decide whether X_K is smooth, for 1 <= k <= 5.

    For k <= 5, X_K is smooth iff P(K) misses X^v over the algebraic
    closure: iff the ten quadrics mu restricted to K have no common zero.
    Let I be their ideal in the k coordinates of K, c_D = dim (S/I)_D.  If
    some c_D = 0 there is no common zero.  If there is none, k general
    combinations of the quadrics form a regular sequence, so by Macaulay's
    bound sum (d_i - 1) + 1 = k + 1, c_{k+1} = 0 (Macaulay, The Algebraic
    Theory of Modular Systems, 1916; Lazard, EUROCAL 1983).  Ranks do not
    change under field extension, so c_D over F_p decides both ways:
    "certified-smooth" at the first c_D = 0, "certified-singular" if
    c_{k+1} > 0.  A first-hit scan of P^{k-1}(F_p), run when it has at most
    DEFAULT_BUDGET points, first looks for a witness; it filters the points
    directly when P^{k-1}(F_p) has at most scan.DIRECT_SCAN_MAX of them.

    Over Q, rank over Q >= rank mod p: c_D = 0 at a prime of
    REDUCTION_PRIMES that keeps dim K proves X_K smooth.  c_{k+1} > 0 at
    each such prime is "singular-mod-p", evidence, not proof; with no such
    prime the answer is "undecided".
    """
    if not 1 <= K.dim <= 5:
        raise ValueError(f"smoothness is decided for 1 <= k <= 5, not k = {K.dim}")
    if isinstance(K.field, PrimeField):
        return _prime_smoothness_scan(K, K.field.p)
    if not isinstance(K.field, RationalField):
        raise ValueError("smoothness_scan needs a prime field or the rationals")
    singular = None
    for p in REDUCTION_PRIMES:
        Kp = _reduce_mod_p(K, p)
        if Kp.dim == K.dim:
            cert = _prime_smoothness_scan(Kp, p)
            if cert.status == "certified-smooth":
                return cert
            singular = singular or cert
    if singular is None:
        return SmoothnessCertificate("undecided", None, (), None)
    return replace(singular, status="singular-mod-p")


def _reduce_mod_p(K: Subspace, p: int) -> Subspace:
    """The span mod p of K's basis rows, each cleared of denominators."""
    rows = [[x * math.lcm(*(y.denominator for y in row)) for x in row] for row in K.basis]
    return Subspace(PrimeField(p), K.ambient_dim, [[int(x) % p for x in row] for row in rows])


@dataclass(frozen=True)
class ClassificationReport:
    k: int
    smoothness: SmoothnessCertificate | None  # None for k >= 6
    label: str
    rho_data: tuple | None  # (rank, corank) of the relevant form, when computed
    notes: str = ""


def _is_special_pencil(field: Field, basis) -> bool:
    """The k = 2 special test, in every characteristic: b_V(a, c) = 0 for
    mu(t k_0 + u k_1) = t^2 a + t u B + u^2 c.  As q_V(mu) = 0 over Z,
    b_V(a, B) = b_V(B, c) = 0 and q_V(B) = -b_V(a, c) = 2 rho(k_0, k_1), so
    this says the span of mu over the pencil is totally isotropic."""
    return rho(field, *basis).vanishes(field)


def _is_very_special(field: Field, basis) -> bool:
    """The k = 3 test: the span of mu over P(K), spanned by `mu_table`, has
    dim 5 and b_V vanishes on it, so q_V does (q_V(B_ij) = -b_V(a_i, a_j))."""
    squares, B = mu_table(field, basis)
    span = Subspace(field, DIM_V, squares + list(B.values()))
    return span.dim == 5 and all(
        bV(field, x, y) == field.zero for x, y in combinations_with_replacement(span.basis, 2)
    )


def classify(K: Subspace) -> ClassificationReport:
    """Taxonomy: k=1 singular/smooth hyperplane; k=2 special/nonspecial by
    the line complex b_V(mu(k_0), mu(k_1)), rho_data its 1x1 form, in every
    characteristic; k=3 very-special via the span of mu; k>=3 generic, with
    the rho_form rank in odd characteristic.  No smoothness for k >= 6,
    where P(K) meets X^v by dimension."""
    field = K.field
    k = K.dim
    cert = smoothness_scan(K) if k <= 5 else None
    notes = ""
    if field.char == 2 and k == 3:
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
        rho_data = (0, 1) if special else (1, 0)
    else:
        label = "generic"
        if k == 3 and _is_very_special(field, K.basis):
            label = "very-special"
        if field.char != 2:
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
    checked.  span_pi4(tau) = V . tau is linear in tau, so the spans at the
    two basis points of the line already sum to W_{U3}.
    """
    T = annihilator_kernel(field, u3, MINUS)  # dim 2, checked there
    w = Subspace(field, DIM_S)
    for b in T.basis:
        w = w.sum(span_pi4(witness_from_spinor(field, b, MINUS)))
    check_invariant(w.dim == 8, "W_{U3} has dim 8")
    return w


def make_section(kind: str, field: Field, seed: int = 0) -> SectionK:
    """Construct a section of the requested kind (deterministic in the seed).

    kind: "special", "very-special", or "generic-k" with k in 1..8.
    """
    rng = random.Random(seed)
    if kind == "special":
        return _make_special(field, rng)
    if kind == "very-special":
        return _make_very_special(field, rng)
    if kind.startswith("generic-"):
        k = int(kind.split("-", 1)[1])
        if not 1 <= k <= 8:
            raise ValueError("generic-k needs k in 1..8")
        return _make_generic(field, rng, k)
    raise ValueError(f"unknown section kind {kind!r}")


def _make_special(field, rng):
    for _ in range(MAX_TRIES):
        u3 = random_isotropic(field, rng, 3)
        w = w_u3(field, u3)
        wperp = perp_in_minus(w)
        for _ in range(20):
            K = _random_subspace_of(wperp, rng, 2)
            smooth = smoothness_scan(K).status == "certified-smooth"
            if smooth and _is_special_pencil(field, K.basis):
                return SectionK.make(K)
    raise RuntimeError("retry budget exhausted for special section")


def _make_very_special(field, rng):
    for _ in range(MAX_TRIES):
        tau = random_pure_witness(field, rng, MINUS)
        perp = perp_in_minus(span_pi4(tau))
        for _ in range(20):
            K = _random_subspace_of(perp, rng, 3)
            if smoothness_scan(K).status == "certified-smooth":
                return SectionK.make(K)
    raise RuntimeError("retry budget exhausted for very-special section")


def _make_generic(field, rng, k):
    for _ in range(MAX_TRIES):
        K = Subspace(
            field, DIM_S, [random_spinor(field, rng, MINUS) for _ in range(k)]
        )
        if K.dim != k:
            continue
        if k <= 5 and smoothness_scan(K).status != "certified-smooth":
            continue
        if k == 2 and _is_special_pencil(field, K.basis):
            continue
        if k == 3 and _is_very_special(field, K.basis):
            continue
        return SectionK.make(K)
    raise RuntimeError("retry budget exhausted for generic section")
