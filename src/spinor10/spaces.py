"""Linear spaces on the spinor tenfold: spans of lines, planes, 3-spaces and
4-spaces, containment in sections, the F4 enumeration, and the 4-space /
maximal-quadric intersection dichotomy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford import DIM_S, DIM_V, MINUS, PLUS, clifford_mul, pairing, pairing_orthogonal, qV, v_basis
from .fields import Field, PrimeField
from .linalg import Subspace, check_invariant, mat_vec, transpose
from .scan import DEFAULT_COUNT_BUDGET, BudgetExceededError, num_projective_points, zero_locus
from .variety import (
    MU_INT,
    PureSpinorWitness,
    annihilator_kernel,
    restrict_quadric,
    witness_from_spinor,
)

_KINDS = {
    "line": ("U3", 2),
    "plane": ("U2+U5-", 3),
    "three-space-a": ("U2", 4),
    "three-space-b": ("U1+U5-", 4),
    "four-space": ("U5-", 5),
}


@dataclass(frozen=True)
class LinearSpaceOnX:
    kind: str
    witness: tuple  # the defining isotropic data, as Subspace(s)
    span: Subspace  # of S+, linear dim = projective dim + 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind}")
        dim = _KINDS[self.kind][1]
        check_invariant(self.span.dim == dim, f"a {self.kind} on X spans dim {dim}")


def line_on_x(field: Field, u3: Subspace) -> LinearSpaceOnX:
    """L_{U3}: the line of maximal isotropics containing U3 (plus family)."""
    return LinearSpaceOnX("line", (u3,), annihilator_kernel(field, u3, PLUS))


def three_space_a(field: Field, u2: Subspace) -> LinearSpaceOnX:
    return LinearSpaceOnX("three-space-a", (u2,), annihilator_kernel(field, u2, PLUS))


def plane_on_x(field: Field, u2: Subspace, tau: "PureSpinorWitness") -> LinearSpaceOnX:
    """Pi^2_{U2, U5-}: 4-subspaces of U5- containing U2 (needs U2 inside U5-)."""
    if not tau.annihilator.contains_subspace(u2) or u2.dim != 2:
        raise ValueError("need a 2-dim subspace of U5-")
    span = span_pi4(tau).intersect(annihilator_kernel(field, u2, PLUS))
    return LinearSpaceOnX("plane", (u2, tau.annihilator), span)


def three_space_b(field: Field, u1: Subspace, tau: "PureSpinorWitness") -> LinearSpaceOnX:
    """Pi^3_{U1, U5-}: 4-subspaces of U5- containing the line U1."""
    if not tau.annihilator.contains_subspace(u1) or u1.dim != 1:
        raise ValueError("need a line inside U5-")
    span = span_pi4(tau).intersect(annihilator_kernel(field, u1, PLUS))
    return LinearSpaceOnX("three-space-b", (u1, tau.annihilator), span)


def four_space_on_x(tau: "PureSpinorWitness") -> LinearSpaceOnX:
    return LinearSpaceOnX("four-space", (tau.annihilator,), span_pi4(tau))


def span_pi4(tau: PureSpinorWitness) -> Subspace:
    """The linear span of Pi^4_{U5-} = Gr(4, U5-) inside S+.

    Equals the image V . tau of the Clifford action (a Spin-equivariant
    description of Lambda^4 U5-): linear in tau, dimension exactly 5, and
    containing the plus extension of every 4-dim subspace of U5-.
    """
    if tau.half != MINUS:
        raise ValueError("need a minus-family pure spinor")
    field = tau.field
    rows = [clifford_mul(field, v, tau.spinor, MINUS) for v in v_basis(field)]
    span = Subspace(field, DIM_S, rows)
    check_invariant(span.dim == 5, "span_pi4 has dim 5")
    return span


def contains(K: Subspace, space: Subspace) -> bool:
    """Is the given span of S+ contained in X_K's ambient P(K^perp)?"""
    field = K.field
    return all(
        pairing(field, kappa, s) == field.zero
        for kappa in K.basis
        for s in space.basis
    )


def _f4_constraint_space(K: Subspace) -> Subspace:
    """{tau in S- : <kappa, v . tau> = 0 for all kappa in K, v in V}.

    For pure tau this is exactly the condition span_pi4(tau) subset K^perp,
    since span_pi4(tau) = V . tau.  By the adjunction <kappa, v . tau> =
    +-<tau, v . kappa> it is the orthogonal of V . K inside S-.
    """
    field = K.field
    vk = [clifford_mul(field, v, kappa, MINUS) for kappa in K.basis for v in v_basis(field)]
    return pairing_orthogonal(Subspace(field, DIM_S, vk), PLUS)


def f4_scan(K: Subspace):
    """All F_q-points tau of X^v with the 4-space Pi^4 of tau inside X_K.

    The scan of P(S-)(F_q) is restricted exactly (not heuristically) to the
    linear constraint subspace above before filtering mu = 0; a scan of more
    than DEFAULT_COUNT_BUDGET points is refused with BudgetExceededError.
    """
    field = K.field
    if not isinstance(field, PrimeField):
        raise ValueError("f4_scan needs a prime field")
    cspace = _f4_constraint_space(K)
    q, d = field.p, cspace.dim
    n = num_projective_points(q, d)
    if n > DEFAULT_COUNT_BUDGET:
        raise BudgetExceededError(f"f4 scan of {n} points (q={q}, d={d}) exceeds budget {DEFAULT_COUNT_BUDGET}")
    if d == 0:
        return []
    forms = restrict_quadric(field, MU_INT[MINUS], cspace.basis)
    _, pts = zero_locus(forms, q, d, collect=True)
    cols = transpose(cspace.basis)
    return [witness_from_spinor(field, mat_vec(field, cols, t), MINUS) for t in pts]


def pi4_meet_quadric(tau: PureSpinorWitness, v) -> int:
    """dim(span Pi^4 cap span Q_v): 4 if v in U5-, else 1."""
    field = tau.field
    if qV(field, v) != field.zero:
        raise ValueError("v must be isotropic")
    vline = Subspace(field, DIM_V, [v])
    s8 = annihilator_kernel(field, vline, PLUS)
    return span_pi4(tau).intersect(s8).dim
