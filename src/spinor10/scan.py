"""Exact vectorized point scans over F_q and F_{p^m}.

Enumeration order is the lexicographic order of normalized projective
representatives (first nonzero coordinate = 1), realized as contiguous
blocks by leading-coordinate position and scanned in that order.

A scan enumerates prefixes and solves for the coordinates after them.  On
the root path P^{d-1} is the point e_{d-1} followed by every prefix
(x_0, ..., x_{d-2}) of P^{d-2} extended by t = 0..q-1, in that order.  On
a prefix the first form is a t^2 + b t + c with a constant, so its roots
are solved for a whole block of prefixes at once, and only the (prefix,
root) candidates, in (prefix, t) order, go through the other forms.  A
scan over F_p of at most DIRECT_SCAN_MAX points filters them directly.

A scan whose root path would walk more than one block of prefixes takes a
linear tail instead, when the forms have one (`_tail_plan`): a quadric
with no square term in the last r coordinates z is affine in z over a
fixed prefix y, and row reduction mod p finds e >= r such combinations of
the forms for the largest such r.  P^{d-1} is then P^{r-1} of the tail
(y = 0, scanned alike) followed by every prefix y of P^{d-r-1} with the
solutions z of its e x r system, in (y, z) order; only those go through
the other forms.

The same field tables solve these and other batches of small affine
systems (`affine_solve`) and count the zeros of batches of quadratic forms
in closed form (`quadric_points`): the fibres of the chart counts in
`counting`.  Over F_{p^m} those counts visit one held point per Frobenius
orbit (`frobenius_orbits`): the equations have F_p coefficients, so x ->
x^p on each coordinate maps the solutions over a point one to one onto
those over its image.  The scans here visit every point.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce

import numpy as np

from .linalg import rref_mod_p

BLOCK = 1 << 14
DEFAULT_COUNT_BUDGET = 1 << 26
# Timed per call against the root path on a 2-core Xeon over F_p, p from 2
# to 127 (ten restricted mu, or one or three random forms; count, collect,
# first hit; 279 cases, two runs): up to 2047 points the direct filter took
# a median 0.65 of the root path's time (0.52-0.89 from the 10th to the 90th
# percentile), at 2380-4095 points a median 1.00, and near BLOCK points
# (p = 11, 127) 2-4 times as long.  Over F_{p^m} it gained 0-20% at 585-1365
# points (q = 4, 8, 9, 25, 27), so those scans keep the root path.
DIRECT_SCAN_MAX = 1 << 11


class BudgetExceededError(RuntimeError):
    pass


def num_projective_points(q: int, d: int) -> int:
    return (q**d - 1) // (q - 1)


@lru_cache(maxsize=None)
def _low_table(q: int):
    """All tuples over 0..q-1 of the L lowest coordinates, in lexicographic
    order; L is the largest with q^L <= BLOCK, and at least 1."""
    L = 1
    while q ** (L + 1) <= BLOCK:
        L += 1
    return np.indices((q,) * L).reshape(L, -1).T.copy()


def projective_blocks(q: int, d: int, dtype=np.int64, width=None):
    """Yield (n, width) arrays (width defaults to d) of normalized
    representatives over the codes 0..q-1, in order, in the first d columns.

    A piece is a run of consecutive values of the high coordinates, each
    followed by a copy of the table of low coordinates (or, for q > BLOCK,
    by a slice of it), so no piece exceeds BLOCK rows or shrinks to a
    handful of rows at large q.  Consecutive pieces are merged into blocks
    of at most BLOCK rows, so small scans take few blocks.
    """
    return in_blocks(_pieces(q, d, dtype, width or d), BLOCK)


def in_blocks(pieces, limit: int):
    """Consecutive arrays of pieces joined into blocks of at most limit rows
    (a longer piece is a block of its own)."""
    pending = []
    for piece in pieces:
        if pending and sum(map(len, pending)) + len(piece) > limit:
            yield pending[0] if len(pending) == 1 else np.concatenate(pending)
            pending = []
        pending.append(piece)
    if pending:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def _pieces(q, d, dtype, width):
    low = _low_table(q)
    L = low.shape[1]
    for lead in range(d - 1, -1, -1):
        r = d - lead - 1
        h = max(r - L, 0)
        tail = low[: q ** (r - h), L - (r - h) :]
        step = max(1, BLOCK // len(tail))
        for h0 in range(0, q**h, step):
            hi = np.arange(h0, min(h0 + step, q**h), dtype=np.int64)
            head = np.zeros((len(hi), 1, width), dtype=dtype)
            head[:, 0, lead] = 1
            for t in range(h):
                head[:, 0, lead + 1 + t] = (hi // q ** (h - 1 - t)) % q
            for s in range(0, len(tail), BLOCK):
                lo = tail[s : s + BLOCK]
                block = np.empty((len(hi), len(lo), width), dtype=dtype)
                block[:] = head
                block[:, :, lead + 1 + h : d] = lo
                yield block.reshape(-1, width)


# Kept under its old name: extension scans enumerate the same index vectors.
ext_projective_blocks = projective_blocks


class _Solver:
    """Roots of a t^2 + b t + c over one field, vectorized over rows.

    A subclass supplies q = p^m, p, m and elementwise mul / add on field
    codes (p - 1 is the code of -1).  The tables are built on first use.
    """

    def neg(self, a):
        return self.mul(a, self.p - 1)

    @cached_property
    def inv(self):
        """x^(q-2): the inverse of each nonzero code; 0 at 0."""
        out, base, e = np.ones(self.q, dtype=np.int64), np.arange(self.q), self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base, e = self.mul(base, base), e >> 1
        out[0] = 0
        return out

    @cached_property
    def digits(self):
        """(m, q) floats: digits[t, a] is the t-th base-p digit of code a."""
        return np.arange(self.q) // self.p ** np.arange(self.m)[:, None] % self.p * 1.0

    @cached_property
    def sqrt(self):
        """A square root of each square; -1 at the non-squares."""
        x = np.arange(self.q, dtype=np.int64)
        out = np.full(self.q, -1, dtype=np.int64)
        out[self.mul(x, x)] = x
        return out

    @cached_property
    def artin(self):
        """Characteristic 2: a root u of u^2 + u = s; -1 where there is none."""
        u = np.arange(self.q, dtype=np.int64)
        out = np.full(self.q, -1, dtype=np.int64)
        out[self.add(self.mul(u, u), u)] = u
        return out

    def roots(self, a, b, c):
        """Roots t of a t^2 + b t + c on each row (a a constant code, b and c
        code arrays): (t1, t2, every) with t1 < t2, -1 where a row has no
        first or second root, and `every` marking rows where every t is one.
        """
        if a == 0:
            lin = b != 0
            t1 = np.where(lin, self.mul(self.neg(c), self.inv[b]), -1)
            return t1, np.full_like(b, -1), ~lin & (c == 0)
        if self.p == 2:
            # t = sqrt(C) if B = 0, else t = B u, B (u + 1) with u^2 + u = C / B^2
            ia = self.inv[a]
            B, C = self.mul(b, ia), self.mul(c, ia)
            u = self.artin[self.mul(C, self.inv[self.mul(B, B)])]
            r1 = self.mul(B, np.maximum(u, 0))
            r2 = self.add(r1, B)
            two = (B != 0) & (u >= 0)
            t1 = np.where(B == 0, self.sqrt[C], np.where(two, np.minimum(r1, r2), -1))
        else:
            # t = (-b +- s) / 2a with s^2 = b^2 - 4ac
            s = self.sqrt[self.add(self.mul(b, b), self.neg(self.mul(c, 4 * a % self.p)))]
            i2a = self.inv[2 * a % self.p]
            sc = np.maximum(s, 0)
            r1 = self.mul(self.add(self.neg(b), sc), i2a)
            r2 = self.mul(self.add(self.neg(b), self.neg(sc)), i2a)
            two = s > 0
            t1 = np.where(s >= 0, np.minimum(r1, r2), -1)
        t2 = np.where(two, np.maximum(r1, r2), -1)
        return t1, t2, np.zeros(len(b), dtype=bool)


def _candidates(x, t1, t2, every, q):
    """The rows of x with each root put in the last column, in (row, root)
    order; in chunks of at most 2 BLOCK rows, or one row's q candidates."""
    bounds = [0, len(x)]
    if every.any():
        ends = np.cumsum((t1 >= 0).astype(np.int64) + (t2 >= 0) + q * every)
        bounds = [0]
        while bounds[-1] < len(x):
            lo = bounds[-1]
            start = ends[lo - 1] if lo else 0
            bounds.append(max(lo + 1, int(np.searchsorted(ends, start + 2 * BLOCK, side="right"))))
    for lo, hi in zip(bounds, bounds[1:]):
        flat = np.stack((t1[lo:hi], t2[lo:hi]), axis=1).ravel()
        k = np.flatnonzero(flat >= 0)
        rows, t = lo + (k >> 1), flat[k]
        full = lo + np.flatnonzero(every[lo:hi])
        if len(full):
            # a stable sort by row merges in the rows where every t is a root
            rows = np.concatenate((rows, np.repeat(full, q)))
            t = np.concatenate((t, np.tile(np.arange(q), len(full))))
            order = np.argsort(rows, kind="stable")
            rows, t = rows[order], t[order]
        y = x.take(rows, axis=0)
        y[:, -1] = t
        yield y


def _tail_plan(forms, p, d):
    """The linear tail of upper-triangular (d, d) forms over F_p, or None.

    Each form is a row of its coefficients on the monomials x_i x_j (i <= j),
    ordered by min(i, j) descending, and the rows are reduced mod p, which
    keeps their zero set.  The r (r + 1) / 2 monomials in the last r
    coordinates z come first, so a row pivoting past them has no term in z
    alone: with x = (y, z) it is affine in z over a fixed y.  r is the
    largest with at least r such rows, and at least 2: at r = 1 the prefixes
    would be the root path's own.  Returns (r, lin, linear forms,
    residual forms), lin[i, l r + c] being the y_i z_c coefficient of the
    l-th linear form."""
    i, j = np.array([(a, b) for a in range(d - 1, -1, -1) for b in range(a, d)]).T
    rows, pivots = rref_mod_p(forms[:, i, j], p)
    for r in range(d - 1, 1, -1):
        lin = np.array(pivots, dtype=np.int64) >= r * (r + 1) // 2
        if lin.sum() >= r:
            break
    else:
        return None
    mats = np.zeros((len(rows), d, d), dtype=np.int64)
    mats[:, i, j] = rows
    coef = mats[lin, : d - r, d - r :].transpose(1, 0, 2).reshape(d - r, -1)
    return r, coef, mats[lin], mats[~lin]


def _scan(field, d, forms, mode):
    """Filter P^{d-1}(F_q) through quadratic forms, (d, d) integer arrays
    over F_p.  `field` gives `values(x, form)`, the form's values on the rows
    of x as int64 codes, on forms it has `compile`d; `dtype(d)`, the dtype of
    the rows; `split(form, d)`, the (a, b, c) with form = a t^2 + b t + c, b
    and c being forms valued on rows whose last coordinate is 1; `roots`,
    and the arithmetic of `affine_solve` and `fp_map`.

    A scan whose root path would walk more than one block of prefixes
    (#P^{d-2} > BLOCK) takes the linear tail of `_tail_plan` if the forms
    have one.  After e_{d-1}, a scan over F_p of at most DIRECT_SCAN_MAX
    points filters them all directly; every other scan takes the root path.
    All give the same points in the same order.

    mode "count" returns (count, []); "collect" (count, points); "first"
    (1, [first point]) or (0, []).
    """
    mats = np.array(forms, dtype=np.int64).reshape(-1, d, d)
    if not len(mats):
        mats = np.zeros((1, d, d), dtype=np.int64)
    # upper-triangular: x_i x_j and x_j x_i are one monomial
    forms = (np.triu(mats) + np.tril(mats, -1).swapaxes(1, 2)) % field.p
    dtype = field.dtype(d)
    if num_projective_points(field.q, d - 1) > BLOCK:
        plan = _tail_plan(forms, field.p, d)
        if plan is not None:
            return _tail_scan(field, d, dtype, forms, plan, mode)
    forms = [field.compile(c) for c in forms]
    last = np.zeros((1, d), dtype=dtype)
    last[0, -1] = 1
    count = int(all(field.values(last, f)[0] == 0 for f in forms))
    points = [(0,) * (d - 1) + (1,)] if count and mode != "count" else []
    if d == 1 or (count and mode == "first"):
        return count, points
    if field.m == 1 and num_projective_points(field.q, d) <= DIRECT_SCAN_MAX:
        return _merge([_filter(field, projective_blocks(field.q, d, dtype), forms, mode)], mode, 0, [])
    a, bform, cform = field.split(forms[0], d)

    def survivors(x):
        x[:, -1] = 1
        b, c = field.values(x, bform), field.values(x, cform)
        return _filter(field, _candidates(x, *field.roots(a, b, c), field.q), forms[1:], mode)

    blocks = projective_blocks(field.q, d - 1, dtype, d)
    return _merge(map(survivors, blocks), mode, count, points)


def _tail_scan(field, d, dtype, forms, plan, mode):
    """The scan with the last r coordinates z solved linearly.  The points
    with y = 0 come first: P^{r-1} of the tail, scanned on the forms' z
    parts.  On a prefix y of P^{d-r-1} the linear forms f are the system
    sum_c (y lin_c) z_c + f(y, 0) = 0, solved for a block of prefixes at
    once; its solutions, in (prefix, z) order, go through the residual
    forms."""
    r, lin, linear, residual = plan
    s = d - r
    count, points = _scan(field, r, forms[:, s:, s:], mode)
    points = [(0,) * s + pt for pt in points]
    if count and mode == "first":
        return count, points
    linear = [field.compile(c) for c in linear]
    residual = [field.compile(c) for c in residual]

    def survivors(x):
        const = np.stack([field.values(x, c) for c in linear], axis=1)
        coef = fp_map(field, x[:, :s].astype(np.int64), lin).reshape(len(x), len(linear), r)
        # solved for z reversed, so that each pivot z_c depends only on free z left of c
        system = np.concatenate((coef[:, :, ::-1], const[:, :, None]), axis=2)
        rank, ok, sol = affine_solve(field, system)
        sizes = np.where(ok, field.q ** (r - rank), 0)
        fibres = _fibres(field, x, s, sol[:, ::-1, r], sol[:, ::-1, r - 1 :: -1], sizes)
        return _filter(field, fibres, residual, mode)

    blocks = projective_blocks(field.q, s, dtype, d)
    return _merge(map(survivors, blocks), mode, count, points)


def _fibres(field, x, s, v0, kern, sizes):
    """The rows of x with each solution z put in columns s.., in (row, z)
    order, in chunks of at most 2 BLOCK rows.  Row i has sizes[i] solutions
    v0_i + sum_c t_c kern_i[:, c] over its free columns c, where z_c = t_c
    and each pivot z depends only on the free t left of it; so z runs in
    order as t does, t_c being the base-q digits of 0..sizes[i] - 1 in the
    order of c."""
    q, r = field.q, len(v0[0])
    free = kern[:, np.arange(r), np.arange(r)] != 0
    place = q ** np.where(free, free.sum(axis=1, keepdims=True) - np.cumsum(free, axis=1), 0)
    ends = np.cumsum(sizes)
    for lo in range(0, int(ends[-1]), 2 * BLOCK):
        g = np.arange(lo, min(lo + 2 * BLOCK, int(ends[-1])))
        rows = np.searchsorted(ends, g, side="right")
        z = v0[rows]
        k = np.flatnonzero(sizes[rows] > 1)
        at, digits = rows[k], g[k] - ends[rows[k]] + sizes[rows[k]]
        for c in np.flatnonzero(free[at].any(axis=0)):
            t = digits // place[at, c] % q * free[at, c]
            z[k] = field.add(z[k], field.mul(t[:, None], kern[at, :, c]))
        y = x.take(rows, axis=0)
        y[:, s:] = z
        yield y


def _filter(field, chunks, forms, mode):
    """(number, chunks) of the candidate rows where every form vanishes; a
    first-hit scan stops at the first chunk with a hit."""
    n, found = 0, []
    for y in chunks:
        for form in forms:
            if not len(y):
                break
            y = y.compress(field.values(y, form) == 0, axis=0)
        n += len(y)
        if mode != "count" and len(y):
            found.append(y)
            if mode == "first":
                break
    return n, found


def _merge(results, mode, count, points):
    """Block results added in block order to (count, points); a first-hit
    scan returns at the first block with a hit, and as results are drawn
    lazily, no later block is made or scanned."""
    for n, found in results:
        if mode == "first" and n:
            return 1, [tuple(int(v) for v in found[0][0])]
        count += n
        if mode == "collect":
            points.extend(tuple(int(v) for v in row) for y in found for row in y)
    return count, points


# PrimeTables reduces a product or sum of two codes, which lies below p^2, by
# one lookup in arange(p^2) % p while p^2 <= RESIDUE_TABLE_MAX (p <= 251).
# Measured on a 2-core Xeon, on (600, 10, 6) int64 arrays: a lookup takes
# 37-41 us up to 2^16 entries (512 KiB), int64 % 139-317 us.  Past that the
# table outgrows the cache: at 2^18 entries (p = 509) a lookup takes 75 us,
# at 2^24 (p = 4093) 117 us, and that table holds 134 MB and takes 100 ms to
# build; near p = 2^16 it could not be held at all.  So larger p keep %.
RESIDUE_TABLE_MAX = 1 << 16


class PrimeTables(_Solver):
    """F_p arithmetic on int64 codes; forms are float (d, d) matrices c with
    values sum((x @ c) * x) mod p, exact in the dtype of `dtype`.  For
    p^2 <= RESIDUE_TABLE_MAX, mul and add reduce by one lookup in a residue
    table built on first use; for larger p, by int64 %."""

    def __init__(self, p):
        self.q = self.p = p
        self.m = 1
        self.lookup = p * p <= RESIDUE_TABLE_MAX

    @cached_property
    def residue(self):
        """a mod p for each 0 <= a < p^2."""
        return np.arange(self.p * self.p, dtype=np.int64) % self.p

    def mul(self, a, b):
        return self.residue.take(a * b) if self.lookup else a * b % self.p

    def add(self, a, b):
        return self.residue.take(a + b) if self.lookup else (a + b) % self.p

    def values(self, x, c):
        """x^T c x on each row, or x . c for a vector c (a linear form)."""
        v = x @ c
        if c.ndim == 2:
            v = np.einsum("ij,ij->i", v, x)
        return v.astype(np.int64) % self.p

    def dtype(self, d):
        """The float dtype in which every partial sum of x^T c x is an exact
        integer: entries of x and c are < p, so the sum is at most d^2 (p-1)^3."""
        bound = d * d * (self.p - 1) ** 3
        if bound < 1 << 24:
            return np.float32
        if bound < 1 << 53:
            return np.float64
        raise ValueError(f"q = {self.p}, d = {d}: form values exceed exact float64 range")

    def compile(self, c):
        return c.astype(self.dtype(len(c)))

    def split(self, c, d):
        b = np.zeros(d, dtype=c.dtype)
        b[:-1] = (c[:-1, -1] + c[-1, :-1]) % self.p
        rest = c.copy()
        rest[-1, :] = rest[:, -1] = 0
        return int(c[-1, -1]), b, rest


_prime_tables = lru_cache(maxsize=None)(PrimeTables)


def zero_locus(forms, q: int, d: int, *, collect: bool = False):
    """Count (and optionally collect) projective F_q-points where all the
    quadratic forms vanish.  `forms` are (d, d) integer coefficient arrays.
    """
    count, points = _scan(_prime_tables(q), d, forms, "collect" if collect else "count")
    return count, points if collect else None


def find_first_zero(forms, q: int, d: int):
    """First projective F_q-point (enumeration order) where all forms vanish."""
    _, points = _scan(_prime_tables(q), d, forms, "first")
    return points[0] if points else None


class ExtTables(_Solver):
    """Numpy log/exp tables for F_{p^m} element codes (see fields.ExtField).

    Zero gets the log `zero` = 3(q-1), so a sum of three logs indexes `exp`
    at the product when no factor is zero, and at a 0 entry otherwise.
    """

    def __init__(self, ext):
        self.ext, self.q, self.p, self.m = ext, ext.q, ext.p, ext.m
        self.zero = 3 * (ext.q - 1)
        self.log = ext.log_array.copy()
        self.log[0] = self.zero
        self.exp = np.zeros(2 * self.zero + ext.q, dtype=np.int64)
        self.exp[: self.zero] = np.tile(ext.exp_array, 3)

    @cached_property
    def zech(self):
        """a + b = exp[log a + zech[log b - log a + zero]]: Zech logarithms, 0 at
        b = 0, log b - zero at a = 0, and an index into exp's zero tail at a = -b."""
        n, zero = self.q - 1, self.zero
        z = np.zeros(2 * zero + 1, dtype=np.int64)
        z[:n] = np.arange(n) - zero
        z[zero - n + 1 : zero + n] = np.tile(self.ext.zech_array, 2)[1:]
        z[z == -1] = zero
        return z

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        la = self.log[a]
        return self.exp[la + self.zech[self.log[b] - la + self.zero]]

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def dtype(self, d):
        return np.int64

    @cached_property
    def frobenius(self):
        """a^p on each code: the Frobenius automorphism, which fixes F_p."""
        out = self.ext.exp_array[self.ext.log_array * self.p % (self.q - 1)]
        out[0] = 0
        return out

    def compile(self, form):
        """The form as sum_i x_i L_i, L_i = sum_{j >= i} c_ij x_j: a list of
        (i, [(j, log c_ij), ...]) over the nonzero prime-subfield c_ij."""
        d, form = len(form), np.asarray(form).tolist()
        rows = [
            (i, [(j, self.ext.log_table[form[i][j]]) for j in range(i, d) if form[i][j]])
            for i in range(d)
        ]
        return [(i, row) for i, row in rows if row]

    def values(self, x, terms):
        cols = np.ascontiguousarray(x.T)
        acc = np.zeros(len(x), dtype=np.int64)
        for i, row in terms:
            lin = reduce(
                self.add,
                (cols[j] if lc == 0 else self.exp[self.log[cols[j]] + lc] for j, lc in row),
            )
            acc = self.add(acc, self.mul(cols[i], lin))
        return acc

    def split(self, terms, d):
        """a is the x_{d-1}^2 coefficient; b's single row is x_{d-1} times
        the x_i x_{d-1} terms (x_{d-1} = 1 where b is evaluated); c is the rest."""
        last = d - 1
        pairs = [(i, j, lc) for i, row in terms for j, lc in row]
        a = next((self.ext.exp_table[lc] for i, j, lc in pairs if i == j == last), 0)
        b = [(last, [(i, lc) for i, j, lc in pairs if i < j == last])]
        c = [(i, [(j, lc) for j, lc in row if j < last]) for i, row in terms if i < last]
        return a, [g for g in b if g[1]], [g for g in c if g[1]]


_tables_for = lru_cache(maxsize=None)(ExtTables)


def ext_zero_locus(forms, ext, d: int, *, find_first: bool = False):
    """Scan P^{d-1}(F_{p^m}) for common zeros of quadratic forms.

    `forms` are (d, d) integer coefficient arrays, read mod p as elements of
    the prime subfield, as for `zero_locus`.  Returns (count, []), or with
    find_first (1, [first hit]) or (0, []); points are index-vectors.
    """
    mode = "first" if find_first else "count"
    return _scan(_tables_for(ext), d, forms, mode)


def field_tables(field):
    """The code tables of F_p (field the prime p) or of an ExtField."""
    return _prime_tables(field) if isinstance(field, int) else _tables_for(field)


def frobenius_orbits(tables, x):
    """The rows of x, an (n, c) array of F_{p^m} codes, that are least in
    lexicographic order in their orbit under coordinatewise Frobenius
    a -> a^p, and the size of each one's orbit, a divisor of m: (rows,
    sizes).  x is compared with each image column by column (the first
    nonzero sign of image - x decides, c < 63), never as one base-q
    number, which could overflow."""
    n, c = x.shape
    place = 1 << np.arange(c - 1, -1, -1, dtype=np.int64)
    keep, size = np.ones(n, dtype=bool), np.full(n, tables.m, dtype=np.int64)
    live, y = np.arange(n), x
    for j in range(1, tables.m):
        # y is Frobenius^j of the live rows: neither beaten nor back to x yet
        y = tables.frobenius[y]
        order = np.sign(y - x[live]) @ place
        keep[live[order < 0]] = False
        size[live[order == 0]] = j
        live, y = live[order > 0], y[order > 0]
    return np.flatnonzero(keep), size[keep]


def fp_map(tables, v, a):
    """v @ a for (n, r) field codes v and an (r, c) int matrix a over F_p.
    An F_p-linear map acts on each base-p digit of the codes alone, and a
    float64 product of digits is exact: r (p - 1)^2 < 2^53."""
    p, af = tables.p, a.astype(np.float64)
    out = np.zeros((len(v), a.shape[1]), dtype=np.int64)
    for t, digits in enumerate(tables.digits):
        out += (digits.take(v) @ af).astype(np.int64) % p * p**t
    return out


def affine_solve(tables, e):
    """Gauss-Jordan on each system e_i [a, 1] = 0, a in F_q^u, of an (n,
    rows, u + 1) array of codes: (rank, ok, sol), ok marking the consistent
    systems, whose solutions are sol_i [t, 1] for t in F_q^u, each q^rank
    times.  Column j is cleared with the first unused row nonzero there (0
    left of j), which cancels itself and is put back normalized."""
    mul, add, neg = tables.mul, tables.add, tables.neg
    e = np.array(e, dtype=np.int64)
    n, rows, u = e.shape[0], e.shape[1], e.shape[2] - 1
    at, used, prow = np.arange(n), np.zeros((n, rows), dtype=bool), np.zeros((n, u), dtype=np.int64)
    for j in range(u):
        live = (e[:, :, j] != 0) & ~used
        has, r = live.any(axis=1), live.argmax(axis=1)
        head = mul(e[at, r, j + 1 :], neg(tables.inv[np.where(has, e[at, r, j], 0)])[:, None])
        e[:, :, j + 1 :] = add(e[:, :, j + 1 :], mul(e[:, :, j, None], head[:, None, :]))
        e[at[has], r[has], j + 1 :] = neg(head[has])
        used[at[has], r[has]] = True
        prow[:, j] = np.where(has, r, -1)
    pivot = prow >= 0
    sol = np.where(pivot[:, :, None], neg(e[at[:, None], prow]), np.eye(u, u + 1, dtype=np.int64))
    sol[:, :, :u] *= ~pivot[:, None, :]
    return used.sum(axis=1), ~((e[:, :, u] != 0) & ~used).any(axis=1), sol


def quadric_points(tables, forms):
    """Zeros in F_q^d of each form z^T c z, c an (n, d, d) array of codes
    (upper-triangular, or any), and of its restriction to z_{d-1} = 0; the
    difference is q - 1 times the zeros of the affine form at z_{d-1} = 1.

    Rank r, h = r // 2: q^(d-1) + eps (q - 1) q^(d-1-h) zeros (Lidl and
    Niederreiter, Finite Fields, ch. 6).  Odd q: the symmetric matrix is
    diagonalized by congruence; eps = 0 for odd r, else +-1 as (-1)^h times
    the product of the pivots is a square or not.  Even q: hyperbolic pairs
    (e, f) of the polar form b are split off; eps = 0 if the form is
    nonzero on the radical of b, else +-1 as the Arf invariant, the sum of
    F(e) F(f), is some u^2 + u or not.  Pivots are taken in z_0..z_{d-2}
    first, so one elimination gives both counts."""
    mul, add = tables.mul, tables.add
    c = np.asarray(forms, dtype=np.int64)
    n, d = c.shape[:2]
    q, p, at, ii = tables.q, tables.p, np.arange(n), np.arange(d)
    if q**d >= 1 << 62:
        raise ValueError(f"q = {q}, d = {d}: zero counts exceed int64")
    b, fv = add(c, c.transpose(0, 2, 1)), c[:, ii, ii]
    if p > 2:
        b = mul(b, (p + 1) // 2)
    # disc: the product of the pivots (odd q) or the Arf sum (even q)
    rank, disc, out = np.zeros(n, dtype=np.int64), np.full(n, int(p > 2)), []
    for a in (d - 1, d):
        for _ in range(a):
            nz = b[:, :a, :a] != 0
            if not nz.any():
                break
            if p == 2:
                # z_v += b(v, f) e + b(v, e) f for e = z_i, f = z_j / b_ij
                i, j = np.divmod(nz.reshape(n, -1).argmax(axis=1), a)
                ib = tables.inv[b[at, i, j]]
                be, bf = b[at, :, i], mul(b[at, :, j], ib[:, None])
                fe, ff = fv[at, i], mul(fv[at, j], mul(ib, ib))
                disc = add(disc, mul(fe, ff))
                fv = add(fv, add(mul(be, bf), add(mul(mul(bf, bf), fe[:, None]), mul(mul(be, be), ff[:, None]))))
                cross = mul(be[:, :, None], bf[:, None, :])
                b = add(b, add(cross, cross.transpose(0, 2, 1)))
                rank += 2 * (ib != 0)
                continue
            diag = nz[:, ii[:a], ii[:a]]
            fix = np.flatnonzero(~diag.any(axis=1) & nz.any(axis=(1, 2)))
            # no square term: z_i += z_l makes b_ii = 2 b_il nonzero
            i, l = np.divmod(nz[fix].reshape(len(fix), a * a).argmax(axis=1), a)
            b[fix, i] = add(b[fix, i], b[fix, l])
            b[fix, :, i] = add(b[fix, :, i], b[fix, :, l])
            diag[fix, i] = True
            i = diag.argmax(axis=1)
            piv, col = b[at, i, i], b[at, :, i]
            b = add(b, mul(col[:, :, None], mul(col, tables.neg(tables.inv[piv])[:, None])[:, None, :]))
            rank += piv != 0
            disc = mul(disc, np.where(piv != 0, piv, 1))
        h = rank // 2
        if p == 2:
            eps = np.where((fv[:, :a] != 0).any(axis=1), 0, 2 * (tables.artin[disc] >= 0) - 1)
        else:
            eps = np.where(rank % 2, 0, 2 * (tables.sqrt[mul(disc, np.where(h % 2, p - 1, 1))] >= 0) - 1)
        pw = q ** np.arange(max(a, 1), dtype=np.int64)
        out.append(pw[a - 1] + eps * (q - 1) * pw[a - 1 - h] if a else np.ones(n, dtype=np.int64))
    return out[1], out[0]
