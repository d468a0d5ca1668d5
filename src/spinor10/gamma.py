"""The gamma map P(S-) \\ X^v -> Q given by the quadrics through X^v, its
polarization, and the spinor quadratic line complex R with the restricted
forms R_K (on Pluecker coordinates of Lambda^2 K) and R_{kappa,K}.

Everything here except `gamma` itself divides by 2 and therefore requires
characteristic != 2; the characteristic-2 classifier fallback lives in
:mod:`spinor10.sections`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .clifford import MINUS, bV
from .fields import Field
from .linalg import Subspace, SymBilinearForm
from .variety import mu


class PureSpinorError(ValueError):
    pass


def gamma(field: Field, kappa):
    """mu on S-, defined away from X^v; lands in the quadric Q and satisfies
    gamma(kappa) . kappa = 0."""
    v = mu(field, kappa, MINUS)
    if all(x == field.zero for x in v):
        raise PureSpinorError("gamma is undefined on X^v")
    return v


def _require_odd_char(field: Field):
    if field.char == 2:
        raise ValueError("operation requires characteristic != 2")


def polarize_mu(field: Field, k1, k2):
    """The symmetric bilinear map with polarize_mu(k, k) = mu(k) on S-."""
    _require_odd_char(field)
    s = tuple(field.add(a, b) for a, b in zip(k1, k2))
    m12 = mu(field, s, MINUS)
    m1 = mu(field, k1, MINUS)
    m2 = mu(field, k2, MINUS)
    inv2 = field.inv(field.from_int(2))
    return tuple(
        field.mul(inv2, field.sub(field.sub(a, b), c)) for a, b, c in zip(m12, m1, m2)
    )


@dataclass(frozen=True)
class LineComplexValue:
    value: object
    basis_pair: tuple

    def vanishes(self, field: Field) -> bool:
        return self.value == field.zero


def rho(field: Field, k1, k2) -> LineComplexValue:
    """The spinor quadratic line complex evaluated on the pencil <k1, k2>.

    Vanishing is basis-independent; for K2 with X_{K2} smooth it detects the
    special sections (those containing linear 4-spaces).

    The value is b_V(q~(k1,k2), q~(k1,k2)).  Polarizing the identity
    q_V(mu(kappa)) == 0 gives b_V(q~11, q~22) = -2 b_V(q~12, q~12), so the
    alternative representative b(q~12,q~12) - b(q~11,q~22) is 3 times this
    one and degenerates in characteristic 3; the primitive representative
    is used so that the complex stays meaningful over F_3.
    """
    _require_odd_char(field)
    q12 = polarize_mu(field, k1, k2)
    val = bV(field, q12, q12)
    return LineComplexValue(val, (tuple(k1), tuple(k2)))


@dataclass(frozen=True)
class PlueckerQuadric:
    k: int
    pairs: tuple  # index pairs (i, j), i < j, lexicographic
    form: SymBilinearForm
    basis: tuple  # the k spinors the Pluecker coordinates refer to

    def value_on_pair(self, field: Field, a_coeffs, b_coeffs):
        """Evaluate on the decomposable a ^ b given in K-basis coefficients."""
        w = []
        for i, j in self.pairs:
            w.append(
                field.sub(
                    field.mul(a_coeffs[i], b_coeffs[j]),
                    field.mul(a_coeffs[j], b_coeffs[i]),
                )
            )
        return self.form.apply(w, w)

    def is_zero(self, field: Field) -> bool:
        return all(x == field.zero for row in self.form.gram for x in row)


def rho_form(field: Field, K: Subspace) -> PlueckerQuadric:
    """The quadric R_K on the Pluecker coordinates of Lambda^2 K.

    The gram is interpolated from rho on decomposables: the diagonal entry
    at (i,j) is rho(ki, kj); pairs sharing an index use the decomposable
    sum e_I + e_J = x ^ y (dividing only by 2); disjoint pairs (k >= 4) are
    fixed in the gauge -- valid up to Pluecker-quadric multiples -- where
    the entry at ((i,j),(l,m)) with i<j<l<m is zero, and the two crossing
    entries carry b(q~_im, q~_jl) and b(q~_il, q~_jm).  This keeps every
    coefficient integral, so the form stays meaningful in characteristic 3,
    and values on decomposables equal rho exactly."""
    _require_odd_char(field)
    if K.dim < 2:
        raise ValueError("need dim K >= 2")
    basis = K.basis
    k = K.dim
    qt = {}
    for i in range(k):
        for j in range(i, k):
            qt[i, j] = qt[j, i] = polarize_mu(field, basis[i], basis[j])
    pairs = tuple(combinations(range(k), 2))
    inv2 = field.inv(field.from_int(2))

    def rho_val(x, y):
        q = polarize_mu(field, x, y)
        return bV(field, q, q)

    def shared_entry(I, J, diag_I, diag_J):
        (s,) = set(I) & set(J)
        u = I[0] if I[1] == s else I[1]
        v = J[0] if J[1] == s else J[1]
        eps_u = field.one if I == (s, u) else field.neg(field.one)
        eps_v = field.one if J == (s, v) else field.neg(field.one)
        y = tuple(
            field.add(field.mul(eps_u, a), field.mul(eps_v, b))
            for a, b in zip(basis[u], basis[v])
        )
        total = rho_val(basis[s], y)
        return field.mul(inv2, field.sub(field.sub(total, diag_I), diag_J))

    idx = {P: n for n, P in enumerate(pairs)}
    n = len(pairs)
    gram = [[field.zero] * n for _ in range(n)]
    for P in pairs:
        gram[idx[P]][idx[P]] = rho_val(basis[P[0]], basis[P[1]])
    for a in range(n):
        for b in range(a + 1, n):
            I, J = pairs[a], pairs[b]
            if set(I) & set(J):
                x = shared_entry(I, J, gram[a][a], gram[b][b])
                gram[a][b] = gram[b][a] = x
    for (i, j, l, m) in combinations(range(k), 4):
        # gauge: entry at ((i,j),(l,m)) stays zero
        x = bV(field, qt[i, m], qt[j, l])
        a, b = idx[(i, l)], idx[(j, m)]
        gram[a][b] = gram[b][a] = x
        y = bV(field, qt[i, l], qt[j, m])
        a, b = idx[(i, m)], idx[(j, l)]
        gram[a][b] = gram[b][a] = y
    return PlueckerQuadric(k, pairs, SymBilinearForm(field, gram), basis)


def coords_in(space: Subspace, vec):
    """Coefficients of vec on the echelon basis of space (vec must lie in it)."""
    field = space.field
    v = list(vec)
    t = []
    for row, p in zip(space.basis, space.pivots):
        c = v[p]
        t.append(c)
        if c != field.zero:
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    if any(x != field.zero for x in v):
        raise ValueError("vector not in subspace")
    return tuple(t)


def r_kappa_form(field: Field, kappa, K: Subspace):
    """The quadratic form lambda -> rho(kappa, lambda) on K/<kappa>.

    Returns (SymBilinearForm on a complement basis, corank)."""
    _require_odd_char(field)
    c = coords_in(K, kappa)  # raises if kappa not in K
    pivot = next(i for i, x in enumerate(c) if x != field.zero)
    comp = [K.basis[i] for i in range(K.dim) if i != pivot]
    inv2 = field.inv(field.from_int(2))

    def q(lam):
        return rho(field, kappa, lam).value

    n = len(comp)
    gram = [[field.zero] * n for _ in range(n)]
    vals = [q(comp[i]) for i in range(n)]
    for i in range(n):
        gram[i][i] = vals[i]
        for j in range(i + 1, n):
            s = tuple(field.add(a, b) for a, b in zip(comp[i], comp[j]))
            x = field.mul(inv2, field.sub(field.sub(q(s), vals[i]), vals[j]))
            gram[i][j] = gram[j][i] = x
    form = SymBilinearForm(field, gram)
    return form, form.corank()
