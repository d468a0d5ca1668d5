"""The benchmark workloads: seeded inputs, ops, and reference checks.

An op is one user-level answer of spinor10: one verified count, one
constructed-and-classified section, one smoothness verdict, or one k = 6
profile.  Each op has a reference check that does not reuse the code path
that produced the answer (the motive prediction, p + 1, scalar mu
membership, singular-by-construction pencils, the f4 taxonomy).  A check
returns None when the answer is right and a reason otherwise.

The library is reached through module attributes (``lib.counting.f``) at
call time, so a tracer that replaces those attributes sees every call.
"""

from __future__ import annotations

import ast
import itertools
import random
import re
from dataclasses import dataclass
from typing import Callable

# sections.DEFAULT_MAX_DEGREE: smoothness scans reach F_{p^m} for m <= 6.
MAX_DEGREE = 6
MAX_EXT_ORDER = 1 << 16
# spinor coordinates, clifford.DIM_S
DIM_S = 16


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    # "k6" marks a k = 6 profile, whose relation outcome is a finding.
    kind: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    # Primes whose extension fields F_{p^m}, 2 <= m <= MAX_DEGREE, the
    # workload touches; building them is its lazy set-up.
    primes: tuple
    # Passes whose ops feed op_p50_s / op_tail_s.  Fixed per workload, so
    # the sample count, and the percentile the tail rule reaches, do not
    # depend on machine speed.
    stat_passes: int
    # Ops drawn anew for every pass from (seed, pass index).  Op cost depends
    # on the draw, so more draws per run keep it out of the run's medians.
    per_pass: Callable

    def ext_fields(self):
        return [
            (p, m)
            for p in self.primes
            for m in range(2, MAX_DEGREE + 1)
            if p**m <= MAX_EXT_ORDER
        ]

    def draw_pass(self, lib, seed: int, index: int):
        return self.per_pass(lib, random.Random(f"{self.name}:{seed}:{index}"))


def _expect_equal(expected):
    def check(answer):
        if answer != expected:
            return f"got {answer}, expected {expected}"
        return None

    return check


# --- count-prime --------------------------------------------------------------


def build_count_prime(lib, rng):
    """#X_K(F_3) for k = 0..5 against the motive prediction."""
    field = lib.fields.PrimeField(3)
    ops = []
    for k in range(6):
        if k == 0:
            K = lib.linalg.Subspace(field, DIM_S, [])
        else:
            K = lib.sections.make_section(f"generic-{k}", field, seed=rng.randrange(1 << 30)).K
        expected = lib.counting.predicted_count(k, 3)
        ops.append(
            Op(
                f"count X k={k} q=3",
                lambda K=K: lib.counting.count_section_points(K, "X"),
                _expect_equal(expected),
            )
        )
    return ops


# --- count-ext ----------------------------------------------------------------

K6_PER_PASS = 5
K6_MAX_DEGREE = 4
_DEGREES = re.compile(r"dual degrees \[(.*?)\]")

# 6-dim K in S^- over F_2, one 16-bit mask per basis spinor (bit j is
# coordinate j).  The k = 6 relation is stated for a finite dual scheme; a K
# whose X^v_K is positive-dimensional is refused by verify_k6_relation.  So
# the K were screened once (screen_k6.py) and are fixed here: a change that
# breaks the extension counts then fails ops instead of changing the inputs.
K6_POOL = (
    (0x60E0, 0xC993, 0x565D, 0x1FE1, 0xA7DB, 0x4ADC),
    (0xE2C7, 0xFAF9, 0x0548, 0x9013, 0xE6AB, 0x3A45),
    (0x402F, 0x79D3, 0x011E, 0xB5A2, 0x1536, 0xEAD9),
    (0x8036, 0x5C22, 0x9C3B, 0x6277, 0x4484, 0xE41C),
    (0xB2F2, 0xA63B, 0x810C, 0x4ACE, 0x13CF, 0xB6D2),
    (0x4230, 0x0BC0, 0x069A, 0xA065, 0xA99F, 0xF202),
    (0xC855, 0xA070, 0x41AB, 0x2016, 0xAF11, 0xD11E),
    (0x9D2D, 0xDC3A, 0x2A50, 0xED89, 0x182B, 0xBB77),
    (0xED4E, 0xD96A, 0x976E, 0x3E02, 0xEF1B, 0x7BF9),
    (0xFDED, 0x976C, 0x02E3, 0xEF34, 0x451A, 0x1B67),
    (0x0ACA, 0xB58C, 0xCF97, 0x6AC1, 0x370B, 0x08D4),
    (0x36EF, 0x81F0, 0xE1B3, 0xD70D, 0x493A, 0x97C8),
    (0x62BA, 0x33F3, 0xDBAC, 0x7BA6, 0xB256, 0x0A5D),
    (0x2025, 0x273F, 0xA73A, 0x7C8F, 0xEA1A, 0xD1CC),
    (0x4218, 0x05CD, 0x22BE, 0x3C70, 0x731F, 0x736A),
    (0x7E6C, 0xF513, 0x6899, 0xA26E, 0x7B08, 0x04B8),
    (0xD12B, 0x99FA, 0x6AAD, 0x2F41, 0x0589, 0x3BAE),
    (0x96CB, 0x02BA, 0x2A7B, 0x74E2, 0x8C91, 0x632C),
    (0x1E3F, 0x1D38, 0xAB9A, 0x115D, 0x40CD, 0xA6AC),
    (0x66EC, 0xD578, 0xF18A, 0xB699, 0xAC3C, 0xEFE0),
    (0x0EC3, 0x4532, 0xA4A3, 0xD9EF, 0x2261, 0xE4B9),
    (0xADED, 0x6105, 0x0273, 0xCF1E, 0xF23A, 0xEEC2),
    (0xFD9B, 0xC39A, 0x5741, 0xE1C5, 0x269F, 0x6E1C),
    (0x3447, 0xD0B7, 0x911F, 0x9E88, 0xF545, 0x7D8E),
)


def k6_basis(rows):
    return [tuple((r >> j) & 1 for j in range(DIM_S)) for r in rows]


def projective_points(q: int, d: int):
    """Normalized points of P^{d-1}(F_q) over the element codes 0..q-1."""
    for lead in range(d):
        for rest in itertools.product(range(q), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + rest


_DUAL_COUNTS = {}


def scalar_dual_count(lib, rows, m: int) -> int:
    """#X^v_K(F_{2^m}) by scalar mu membership at every point of P(K)."""
    key = (rows, m)
    if key not in _DUAL_COUNTS:
        field = lib.fields.PrimeField(2) if m == 1 else lib.fields.get_ext_field(2, m)
        basis = k6_basis(rows)
        n = 0
        for t in projective_points(2**m, len(rows)):
            # the basis has 0/1 entries, so each coordinate is a sum of t_i
            s = [field.zero] * DIM_S
            for ti, row in zip(t, basis):
                if ti:
                    for j, bit in enumerate(row):
                        if bit:
                            s[j] = field.add(s[j], ti)
            n += lib.variety.is_pure(field, tuple(s), lib.clifford.MINUS)
        _DUAL_COUNTS[key] = n
    return _DUAL_COUNTS[key]


def check_k6(lib, rows, report):
    """A k = 6 report against scalar counts of X^v_K over F_2 and F_4.

    With N_m = #X^v_K(F_{2^m}) counted by scalar mu membership, the reported
    closed-point degrees a_d must give N_1 = a_1 and N_2 = a_1 + 2 a_2, have
    total length at most 12, and the predicted count must be
    1 + q + q^3 + q^4 + q^2 N_1.  Whether the relation itself held is a
    finding, not a failure.
    """
    q = 2
    n1, n2 = (scalar_dual_count(lib, rows, m) for m in (1, 2))
    want = 1 + q + q**3 + q**4 + q * q * n1
    if report.predicted != want:
        return f"predicted count {report.predicted}, expected {want} from N_1 = {n1}"
    match = _DEGREES.search(report.notes)
    if match is None:
        return f"no closed-point degrees in notes {report.notes!r}"
    degrees = dict(ast.literal_eval("[" + match.group(1) + "]"))
    if any(not 1 <= d <= K6_MAX_DEGREE or a <= 0 for d, a in degrees.items()):
        return f"bad closed-point degrees {degrees}"
    length = sum(d * a for d, a in degrees.items())
    if length > 12:
        return f"dual scheme length {length} > 12"
    a1, a2 = degrees.get(1, 0), degrees.get(2, 0)
    if (a1, a1 + 2 * a2) != (n1, n2):
        return f"degrees give N_1, N_2 = {a1}, {a1 + 2 * a2}; scalar counts {n1}, {n2}"
    return None


def build_ext_counts(lib, rng):
    """#X_K(F_4) for a generic-4 and a generic-5 section over F_2."""
    field = lib.fields.PrimeField(2)
    ops = []
    for k in (4, 5):
        K = lib.sections.make_section(f"generic-{k}", field, seed=rng.randrange(1 << 30)).K
        ops.append(
            Op(
                f"count X k={k} q=4",
                lambda K=K: lib.counting.count_section_points(K, "X", 2),
                _expect_equal(lib.counting.predicted_count(k, 4)),
            )
        )
    return ops


def build_k6(lib, rng):
    """k = 6 profiles over F_2 (dual counts over F_2..F_16) of pool sections."""
    field = lib.fields.PrimeField(2)
    ops = []
    for rows in rng.sample(K6_POOL, K6_PER_PASS):
        K = lib.linalg.Subspace(field, DIM_S, k6_basis(rows))
        ops.append(
            Op(
                f"k6 profile q=2 K={'.'.join(f'{r:04x}' for r in rows)}",
                lambda K=K: lib.counting.verify_k6_relation(K, max_degree=K6_MAX_DEGREE),
                lambda report, rows=rows: check_k6(lib, rows, report),
                "k6",
            )
        )
    return ops


def build_count_ext(lib, rng):
    return build_ext_counts(lib, rng) + build_k6(lib, rng)


# --- sections -----------------------------------------------------------------

SECTION_KINDS = ("special", "very-special", "generic-2", "generic-3", "generic-4", "generic-5")
SECTION_LABEL = {"special": "special", "very-special": "very-special", "generic-2": "nonspecial"}
SECTION_REPS = 5


def check_section(lib, kind, answer):
    K, K2, report, witnesses = answer
    field = K.field
    q = field.p
    if K2 != K:
        return "scene round trip changed the section"
    label = SECTION_LABEL.get(kind, "generic")
    if report.label != label:
        return f"label {report.label!r}, constructed {label!r}"
    if not report.smoothness.smooth_so_far:
        return f"smoothness {report.smoothness.status!r}"
    want = {"special": q + 1, "very-special": 1}.get(kind, 0)
    if len(witnesses) != want:
        return f"f4 count {len(witnesses)}, expected {want}"
    spinors = [w.spinor for w in witnesses]
    if kind == "special":
        span = lib.linalg.Subspace(field, DIM_S, spinors)
        if span.dim != 2:
            return f"f4 witnesses span dim {span.dim}, not a line"
    for s in spinors:
        if not lib.variety.is_pure(field, s, lib.clifford.MINUS):
            return "f4 witness fails scalar mu membership"
    if q % 2:
        vanishes = report.rho_data is not None and report.rho_data[0] == 0
        if vanishes != bool(witnesses):
            return f"rho vanishes={vanishes} but f4 count {len(witnesses)}"
    return None


def _section_op(lib, kind, field, seed):
    def run():
        sec = lib.sections.make_section(kind, field, seed=seed)
        text = lib.scene.emit_scene(lib.scene.section_scene(field, sec.K, seed=seed))
        scene = lib.scene.parse_scene(text)
        K2 = scene.get("K").as_subspace(scene.field)
        report = lib.sections.classify(K2)
        return sec.K, K2, report, lib.spaces.f4_scan(K2)

    return Op(
        f"section {kind} q={field.p} seed={seed}",
        run,
        lambda answer: check_section(lib, kind, answer),
    )


# generic-2 over F_2 is left to the f2-pencils workload: make_section has no
# rho test in characteristic 2 and returns special pencils for about half the
# seeds, which the checks reject (classify and f4_scan both say special).
SECTION_FIELD_KINDS = {2: tuple(k for k in SECTION_KINDS if k != "generic-2"), 3: SECTION_KINDS}


def build_sections(lib, rng):
    """make_section -> scene round trip -> classify -> f4_scan, per section."""
    ops = []
    for _ in range(SECTION_REPS):
        for p, kinds in SECTION_FIELD_KINDS.items():
            field = lib.fields.PrimeField(p)
            for kind in kinds:
                ops.append(_section_op(lib, kind, field, rng.randrange(1 << 30)))
    return ops


def build_f2_pencils(lib, rng):
    """The sections op on generic-2 over F_2, where constructor and checks disagree."""
    field = lib.fields.PrimeField(2)
    return [_section_op(lib, "generic-2", field, rng.randrange(1 << 30)) for _ in range(20)]


# --- large-q ------------------------------------------------------------------

LARGE_PRIMES = (257, 1021, 4093)
PENCIL_PRIMES = (1021, 65521)


def _conic(p):
    # x0*x2 - x1^2 as an upper-triangular coefficient matrix
    return [[0, 0, 1], [0, p - 1, 0], [0, 0, 0]]


def check_dual_points(lib, K, n):
    """At least the 3 spanning pure spinors, and every point scalar-pure."""
    if n < 3:
        return f"count {n} < 3 spanning pure spinors"
    field = K.field
    minus = lib.clifford.MINUS
    forms = [lib.variety.restrict_quadric(field, c, K.basis) for c in lib.clifford.MU_INT[minus]]
    count, pts = lib.scan.zero_locus(forms, field.p, K.dim, collect=True)
    if count != n or len(pts) != n:
        return f"collected {len(pts)} points, counted {n}"
    cols = list(zip(*K.basis))
    for t in pts:
        s = tuple(sum(a * b for a, b in zip(t, col)) % field.p for col in cols)
        if not lib.variety.is_pure(field, s, minus):
            return f"point {t} fails scalar mu membership"
    return None


def build_large_q(lib, rng):
    """Scan-layer answers at large q and dimension <= 3."""
    ops = []
    minus = lib.clifford.MINUS
    for p in LARGE_PRIMES:
        ops.append(
            Op(
                f"conic q={p}",
                lambda p=p: lib.scan.zero_locus([_conic(p)], p, 3)[0],
                _expect_equal(p + 1),
            )
        )
    for p in LARGE_PRIMES:
        field = lib.fields.PrimeField(p)
        while True:
            taus = [lib.variety.random_pure_witness(field, rng, minus).spinor for _ in range(3)]
            K = lib.linalg.Subspace(field, DIM_S, taus)
            if K.dim == 3:
                break
        ops.append(
            Op(
                f"count X^v 3 pure q={p}",
                lambda K=K: lib.counting.count_section_points(K, "X^v"),
                lambda n, K=K: check_dual_points(lib, K, n),
            )
        )
    for p in PENCIL_PRIMES:
        field = lib.fields.PrimeField(p)
        while True:
            tau = lib.variety.random_pure_witness(field, rng, minus).spinor
            K = lib.linalg.Subspace(
                field, DIM_S, [tau, lib.variety.random_spinor(field, rng, minus)]
            )
            if K.dim == 2:
                break
        ops.append(
            Op(
                f"smoothness pencil through pure q={p}",
                lambda K=K: lib.sections.smoothness_scan(K).status,
                _expect_equal("certified-singular"),
            )
        )
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "count-prime",
            primes=(3,),
            stat_passes=3,
            per_pass=build_count_prime,
        ),
        Workload(
            "count-ext",
            primes=(2,),
            # The generic-4 count is most of a pass and its cost varies by
            # draw, so passes are kept short (one count of each kind) and
            # many, for a steady median.
            stat_passes=6,
            per_pass=build_count_ext,
        ),
        Workload(
            "sections",
            primes=(2, 3),
            stat_passes=12,
            per_pass=build_sections,
        ),
        Workload(
            "f2-pencils",
            primes=(2,),
            stat_passes=2,
            per_pass=build_f2_pencils,
        ),
        Workload(
            "large-q",
            primes=(),
            stat_passes=2,
            per_pass=build_large_q,
        ),
    )
}
