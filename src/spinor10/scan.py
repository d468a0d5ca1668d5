"""Exact vectorized point scans over F_q and F_{p^m}.

Enumeration order is the lexicographic order of normalized projective
representatives (first nonzero coordinate = 1), realized as contiguous
blocks by leading-coordinate position; parallel runs merge block results
in block order, so output is independent of the worker count.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

BLOCK = 1 << 16


def num_projective_points(q: int, d: int) -> int:
    return (q**d - 1) // (q - 1)


def projective_blocks(q: int, d: int, dtype=np.int64):
    """Yield (n, d) arrays of normalized representatives over the codes
    0..q-1, in order."""
    for lead in range(d - 1, -1, -1):
        r = d - lead - 1
        total = q**r
        for start in range(0, total, BLOCK):
            idx = np.arange(start, min(start + BLOCK, total), dtype=np.int64)
            block = np.zeros((len(idx), d), dtype=dtype)
            block[:, lead] = 1
            for t in range(r):
                block[:, lead + 1 + t] = (idx // q ** (r - 1 - t)) % q
            yield block


# Kept under its old name: extension scans enumerate the same index vectors.
ext_projective_blocks = projective_blocks


def _in_block_order(blocks, fn, workers):
    """fn over the blocks, results in block order.  At most workers + 1
    blocks are in flight, which bounds memory and lets a first-hit scan
    stop soon after its hit."""
    if workers <= 1:
        yield from map(fn, blocks)
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        pending = deque()
        for block in blocks:
            pending.append(ex.submit(fn, block))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _scan(q, d, dtype, forms, values, mode, workers):
    """Filter P^{d-1}(F_q) through the forms; `values(x, form)` gives the
    form's values on the rows of x as field codes.

    mode "count" returns (count, []); "collect" (count, points); "first"
    (1, [first point]) or (0, []).
    """

    def survivors(block):
        x = block
        for form in forms:
            if not len(x):
                break
            x = x[values(x, form) == 0]
        return x

    count, points = 0, []
    for x in _in_block_order(projective_blocks(q, d, dtype), survivors, workers):
        if mode == "first" and len(x):
            return 1, [tuple(int(v) for v in x[0])]
        count += len(x)
        if mode == "collect":
            points.extend(tuple(int(v) for v in row) for row in x)
    return count, points


def _exact_dtype(q: int, d: int):
    """The float dtype in which every partial sum of x^T c x is an exact
    integer: entries of x and c are < q, so the sum is at most d^2 (q-1)^3."""
    bound = d * d * (q - 1) ** 3
    if bound < 1 << 24:
        return np.float32
    if bound < 1 << 53:
        return np.float64
    raise ValueError(f"q = {q}, d = {d}: form values exceed exact float64 range")


def _prime_scan(forms, q, d, mode, workers=1):
    dtype = _exact_dtype(q, d)
    mats = [(np.asarray(c, dtype=np.int64) % q).astype(dtype) for c in forms]
    return _scan(
        q, d, dtype, mats, lambda x, c: np.mod(np.sum((x @ c) * x, axis=1), q), mode, workers
    )


def zero_locus(forms, q: int, d: int, *, collect: bool = False, workers: int = 1):
    """Count (and optionally collect) projective F_q-points where all the
    quadratic forms vanish.  `forms` are (d, d) integer coefficient arrays.
    """
    count, points = _prime_scan(forms, q, d, "collect" if collect else "count", workers)
    return count, points if collect else None


def find_first_zero(forms, q: int, d: int):
    """First projective F_q-point (enumeration order) where all forms vanish."""
    _, points = _prime_scan(forms, q, d, "first")
    return points[0] if points else None


class ExtTables:
    """Numpy log/exp tables for F_{p^m} element codes (see fields.ExtField).

    Zero gets the log `zero` = 3(q-1), so a sum of three logs indexes `exp`
    at the product when no factor is zero, and at a 0 entry otherwise.
    """

    def __init__(self, ext):
        q = ext.q
        self.ext = ext
        self.zero = 3 * (q - 1)
        self.log = np.full(q, self.zero, dtype=np.int64)
        self.log[np.asarray(ext.exp_table, dtype=np.int64)] = np.arange(q - 1)
        self.exp = np.zeros(2 * self.zero + q, dtype=np.int64)
        self.exp[: self.zero] = np.tile(np.asarray(ext.exp_table, dtype=np.int64), 3)

    def add(self, a, b):
        p = self.ext.p
        if p == 2:
            return a ^ b
        # digitwise base-p addition (memory-light for large q)
        out = np.zeros_like(a)
        for t in range(self.ext.m):
            pw = p**t
            out += (((a // pw) + (b // pw)) % p) * pw
        return out

    def compile(self, form):
        """(i, j, log c_ij) for the nonzero prime-subfield coefficients."""
        d = len(form)
        return [
            (i, j, int(self.ext.log_table[int(form[i][j])]))
            for i in range(d)
            for j in range(i, d)
            if int(form[i][j])
        ]

    def values(self, x, terms):
        lx = self.log[x.T]
        acc = np.zeros(len(x), dtype=np.int64)
        for i, j, lc in terms:
            acc = self.add(acc, self.exp[lx[i] + lx[j] + lc])
        return acc


@lru_cache(maxsize=None)
def _tables_for(ext):
    return ExtTables(ext)


def ext_zero_locus(forms, ext, d: int, *, find_first: bool = False, workers: int = 1):
    """Scan P^{d-1}(F_{p^m}) for common zeros of quadratic forms.

    `forms` are (d, d) upper-triangular coefficient matrices with entries in
    the prime subfield (ints in [0, p)).  Returns (count, []), or with
    find_first (1, [first hit]) or (0, []); points are index-vectors.
    """
    tables = _tables_for(ext)
    terms = [tables.compile(c) for c in forms]
    mode = "first" if find_first else "count"
    return _scan(ext.q, d, np.int64, terms, tables.values, mode, workers)
