"""Finite-field point counts of X_K and X^v_K, Lefschetz-type predicted
counts, the blowup-fibration identity, and the experimental k = 6 relation.

Counts scan normalized projective representatives in lexicographic order;
the enumeration is deterministic and independent of the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford import MINUS, PLUS, MU_INT
from .fields import PrimeField, get_ext_field
from .linalg import Subspace
from .scan import ext_zero_locus, num_projective_points, zero_locus
from .sections import perp_in_plus
from .variety import restrict_quadric

DEFAULT_COUNT_BUDGET = 1 << 26

# Multiplicities n_0..n_{10-k} of the Lefschetz powers in the integral
# motive of a smooth X_K; the k = 6 row is experimental (the middle entry
# counts a length-12 finite scheme, not a Tate class count).
MOTIVE_ROWS = {
    0: (1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1),
    1: (1, 1, 1, 2, 2, 2, 2, 1, 1, 1),
    2: (1, 1, 1, 2, 2, 2, 1, 1, 1),
    3: (1, 1, 1, 2, 2, 1, 1, 1),
    4: (1, 1, 1, 2, 1, 1, 1),
    5: (1, 1, 1, 1, 1, 1),
    6: (1, 1, 12, 1, 1),
}


class BudgetExceededError(RuntimeError):
    pass


def predicted_count(k: int, q: int) -> int:
    """Point count forced by the Lefschetz-type motive: sum n_i * q^i."""
    if not 0 <= k <= 5:
        raise ValueError("predicted_count needs 0 <= k <= 5")
    return sum(n * q**i for i, n in enumerate(MOTIVE_ROWS[k]))


def projective_count(q: int, dim: int) -> int:
    """#P^dim(F_q)."""
    return num_projective_points(q, dim + 1)


def _section_forms_and_dim(K: Subspace, side: str):
    field = K.field
    if side == "X":
        amb = perp_in_plus(K)
        mats = MU_INT[PLUS]
    elif side == "X^v":
        amb = K
        mats = MU_INT[MINUS]
    else:
        raise ValueError("side must be 'X' or 'X^v'")
    if amb.dim == 0:
        return None, 0
    forms = [restrict_quadric(field, c, amb.basis) for c in mats]
    return forms, amb.dim


def count_section_points(
    K: Subspace,
    side: str = "X",
    m: int = 1,
    *,
    budget: int = DEFAULT_COUNT_BUDGET,
    workers: int = 1,
) -> int:
    """Exact number of F_{q^m}-points of X_K (side "X") or X^v_K ("X^v")."""
    field = K.field
    if not isinstance(field, PrimeField):
        raise ValueError("counting needs a prime field")
    if m < 1:
        raise ValueError(f"extension degree must be at least 1, got {m}")
    q = field.p
    forms, d = _section_forms_and_dim(K, side)
    if d == 0:
        return 0
    n = num_projective_points(q**m, d)
    if n > budget:
        raise BudgetExceededError(
            f"scan of {n} points (q={q}, m={m}, d={d}) exceeds budget {budget}"
        )
    if m == 1:
        count, _ = zero_locus(forms, q, d, workers=workers)
        return count
    count, _ = ext_zero_locus(forms, get_ext_field(q, m), d, workers=workers)
    return count


def quadric_count(q: int) -> int:
    """#Q(F_q) for the 8-dimensional quadric Q = {q_V = 0} in P^9: q_V is
    the split (hyperbolic) form sum e_i f_i, so #Q = #P^8 + q^4."""
    return projective_count(q, 8) + q**4


@dataclass(frozen=True)
class CountReport:
    q: int
    m: int
    k: int
    side: str
    actual: int
    predicted: int
    passed: bool
    identity_lhs: int | None = None
    identity_rhs: int | None = None
    notes: str = ""

    CSV_HEADER = "q, m, k, side, actual, predicted, pass"

    def csv_row(self) -> str:
        return (
            f"{self.q}, {self.m}, {self.k}, {self.side}, "
            f"{self.actual}, {self.predicted}, {self.passed}"
        )


def count_report(K: Subspace, side: str = "X", m: int = 1, **kw) -> CountReport:
    """CountReport comparing the enumerated count with the motive prediction."""
    actual = count_section_points(K, side, m, **kw)
    q = K.field.p
    k = K.dim
    if side == "X" and 0 <= k <= 5 and m == 1:
        predicted = predicted_count(k, q)
        return CountReport(q, m, k, side, actual, predicted, actual == predicted)
    return CountReport(q, m, k, side, actual, actual, True, notes="no prediction")


def verify_blowup_identity(K: Subspace, **kw) -> CountReport:
    """The fibration cross-check: blowing up X_K inside P^{15-k} fibers over
    the quadric Q with P^{8-k} fibers away from a P^{k-1} of special fibers:

        #P^{15-k} + #X_K (#P^4 - 1) = #Q #P^{7-k} + #P^{k-1} q^{8-k}
    """
    q = K.field.p
    k = K.dim
    if not 1 <= k <= 5:
        raise ValueError("blowup identity needs 1 <= k <= 5")
    nx = count_section_points(K, "X", 1, **kw)
    nq = quadric_count(q)
    lhs = projective_count(q, 15 - k) + nx * (projective_count(q, 4) - 1)
    rhs = nq * projective_count(q, 7 - k) + projective_count(q, k - 1) * q ** (8 - k)
    return CountReport(
        q, 1, k, "X", nx, predicted_count(k, q),
        lhs == rhs, identity_lhs=lhs, identity_rhs=rhs,
    )


def dual_point_profile(K: Subspace, max_degree: int = 4, *, budget: int = DEFAULT_COUNT_BUDGET):
    """Closed-point degrees of the finite scheme X^v_K (k = 6 expected length 12).

    Returns (counts, degrees) where counts[m] = #X^v_K(F_{q^m}) and degrees
    maps d -> number of closed points of degree d, recovered from
    N_m = sum_{d | m} d * a_d.
    """
    counts = {}
    for m in range(1, max_degree + 1):
        try:
            counts[m] = count_section_points(K, "X^v", m, budget=budget)
        except BudgetExceededError:
            break
    degrees = {}
    for m in sorted(counts):
        known = sum(d * a for d, a in degrees.items() if m % d == 0)
        extra = counts[m] - known
        if extra < 0 or extra % m:
            raise ValueError("inconsistent extension counts (non-reduced scheme?)")
        if extra:
            degrees[m] = extra // m
    return counts, degrees


def verify_k6_relation(K: Subspace, *, max_degree: int = 4, **kw) -> CountReport:
    """Experimental: #X_K(F_q) = 1 + q + q^3 + q^4 + q^2 #X^v_K(F_q) for k = 6
    sections with reduced dual scheme.  Reported as an observation; the
    length-12 bound is checked via extension-degree bookkeeping.
    """
    q = K.field.p
    if K.dim != 6:
        raise ValueError("k = 6 relation needs dim K = 6")
    counts, degrees = dual_point_profile(K, max_degree, **kw)
    length_seen = sum(d * a for d, a in degrees.items())
    if length_seen > 12:
        raise ValueError(f"dual scheme has length >= {length_seen} > 12")
    nd = counts[1]
    nx = count_section_points(K, "X", 1, **kw)
    predicted = 1 + q + q**3 + q**4 + q**2 * nd
    notes = f"experimental; dual degrees {sorted(degrees.items())}, length >= {length_seen}"
    return CountReport(q, 1, 6, "X", nx, predicted, nx == predicted, notes=notes)
