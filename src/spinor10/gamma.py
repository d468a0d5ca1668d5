"""The gamma map P(S-) \\ X^v -> Q given by the quadrics through X^v, its
polarization, and the spinor quadratic line complex R with the restricted
forms R_K (on Pluecker coordinates of Lambda^2 K) and R_{kappa,K}.

`gamma`, `mu_table` and whether `rho` vanishes work in every characteristic;
everything else divides by 2 and therefore requires characteristic != 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .clifford import MINUS, MU_INT, bV
from .fields import Field
from .linalg import Subspace, SymBilinearForm
from .variety import mu, restrict_quadric


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


def mu_table(field: Field, basis):
    """(a, B) with a[i] = mu(k_i) and B[i, j] = mu(k_i + k_j) - a[i] - a[j]
    (i < j), so mu(sum t_i k_i) = sum t_i^2 a[i] + sum_{i<j} t_i t_j B[i, j]
    in every characteristic: the diagonal and upper entries of the ten mu
    restricted to the span of the basis."""
    r = restrict_quadric(field, MU_INT[MINUS], basis)
    a = [tuple(m[i][i] for m in r) for i in range(len(basis))]
    return a, {(i, j): tuple(m[i][j] for m in r) for i, j in combinations(range(len(basis)), 2)}


def _halve(field: Field, v):
    inv2 = field.inv(field.from_int(2))
    return tuple(field.mul(inv2, x) for x in v)


def polarize_mu(field: Field, k1, k2):
    """The symmetric bilinear map with polarize_mu(k, k) = mu(k) on S-: half
    of mu_table's B for the pair."""
    _require_odd_char(field)
    return _halve(field, mu_table(field, (k1, k2))[1][0, 1])


@dataclass(frozen=True)
class LineComplexValue:
    """rho on a pencil, held as b = b_V(mu(k1), mu(k2)) = -2 rho, which
    vanishes with rho in every characteristic; `value`, rho, needs char != 2."""

    field: Field
    b: object

    @property
    def value(self):
        _require_odd_char(self.field)
        return self.field.mul(self.field.inv(self.field.from_int(-2)), self.b)

    def vanishes(self, field: Field) -> bool:
        return self.b == field.zero


def rho(field: Field, k1, k2) -> LineComplexValue:
    """The spinor quadratic line complex evaluated on the pencil <k1, k2>.

    Vanishing is basis-independent; for K2 with X_{K2} smooth it detects the
    special sections (those containing linear 4-spaces).

    The value is b_V(q~(k1,k2), q~(k1,k2)).  Polarizing q_V(mu(kappa)) == 0
    over Z gives b_V(mu(k1), mu(k2)) = -2 b_V(q~(k1,k2), q~(k1,k2)), so it is
    computed from mu(k1) and mu(k2) alone, and whether it vanishes is read
    from b_V(mu(k1), mu(k2)) in every characteristic.
    """
    return LineComplexValue(field, bV(field, mu(field, k1, MINUS), mu(field, k2, MINUS)))


@dataclass(frozen=True)
class PlueckerQuadric:
    k: int
    pairs: tuple  # index pairs (i, j), i < j, lexicographic
    form: SymBilinearForm
    basis: tuple  # the k spinors the Pluecker coordinates refer to

    def is_zero(self, field: Field) -> bool:
        return all(x == field.zero for row in self.form.gram for x in row)


def rho_form(field: Field, K: Subspace) -> PlueckerQuadric:
    """The quadric R_K on the Pluecker coordinates of Lambda^2 K.

    q~ = polarize_mu is bilinear and rho(x, y) = b_V(q~(x, y), q~(x, y)), so
    every Gram entry is one b_V of the table q~_ij = q~(k_i, k_j).  For pairs
    I = (a, b) <= J = (c, d) in lexicographic order the entry is 0 if b < c,
    -b_V(q~_ac, q~_bd) if b = c, and b_V(q~_ad, q~_bc) otherwise.  The zeros
    are a gauge: a form on Lambda^2 K is fixed only up to the Pluecker
    quadrics, one per index quadruple i < j < l < m, and each is spent on
    making the entry at ((i,j),(l,m)) zero.  Every coefficient is integral,
    so the form stays meaningful in characteristic 3, and values on
    decomposables equal rho exactly."""
    _require_odd_char(field)
    if K.dim < 2:
        raise ValueError("need dim K >= 2")
    k = K.dim
    squares, B = mu_table(field, K.basis)
    qt = {(i, i): v for i, v in enumerate(squares)}
    for (i, j), v in B.items():
        qt[i, j] = qt[j, i] = _halve(field, v)
    pairs = tuple(combinations(range(k), 2))
    n = len(pairs)
    gram = [[field.zero] * n for _ in range(n)]
    for x, y in combinations_with_replacement(range(n), 2):
        (a, b), (c, d) = pairs[x], pairs[y]
        if b == c:
            gram[x][y] = gram[y][x] = field.neg(bV(field, qt[a, c], qt[b, d]))
        elif b > c:
            gram[x][y] = gram[y][x] = bV(field, qt[a, d], qt[b, c])
    return PlueckerQuadric(k, pairs, SymBilinearForm(field, gram), K.basis)


def coords_in(space: Subspace, vec):
    """Coefficients of vec on the echelon basis of space (vec must lie in it)."""
    field = space.field
    v = list(vec)
    t = []
    for row, p in zip(space.basis, space.pivots):
        c = v[p]
        t.append(c)
        if c != field.zero:
            v = field.sub_scaled(v, c, row)
    if any(x != field.zero for x in v):
        raise ValueError("vector not in subspace")
    return tuple(t)


def r_kappa_form(field: Field, kappa, K: Subspace):
    """The quadratic form lambda -> rho(kappa, lambda) on K/<kappa>: the Gram
    matrix [b_V(P_i, P_j)] of P_i = polarize_mu(kappa, c_i) over the
    complement basis c_i, since rho(kappa, -) = b_V(q~(kappa, -), q~(kappa, -)).

    Returns (SymBilinearForm on a complement basis, corank)."""
    _require_odd_char(field)
    c = coords_in(K, kappa)  # raises if kappa not in K
    pivot = next(i for i, x in enumerate(c) if x != field.zero)
    P = [polarize_mu(field, kappa, K.basis[i]) for i in range(K.dim) if i != pivot]
    gram = [[field.zero] * len(P) for _ in P]
    for i, j in combinations_with_replacement(range(len(P)), 2):
        gram[i][j] = gram[j][i] = bV(field, P[i], P[j])
    form = SymBilinearForm(field, gram)
    return form, form.corank()
