"""Span tracing of the spinor10 layers, installed from outside the package.

`Tracer.install` replaces every public module-level function of each layer
module with a timing wrapper, at the module's own name and at every name
another spinor10 module bound with ``from .x import f``.  Calls made through
those names (including calls inside the defining module, which look the
name up in its globals) record a span: name, start, end, parent span and op
id.  `uninstall` puts the originals back.

Not wrapped, so their time counts toward the calling function's self time:
methods (field arithmetic, ``Subspace`` methods), private helpers, and
generator functions (a wrapper would only time the generator's creation).

Spans are kept in flat arrays in memory and written out by the caller.  The
scan entry points also record, per call, the field order, ambient dimension,
number of forms, mode, points enumerated and hits; the point counts are
computed here from the arguments and results, not read from the library.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array
from collections import defaultdict

LAYERS = (
    "fields",
    "linalg",
    "clifford",
    "variety",
    "gamma",
    "sections",
    "spaces",
    "scan",
    "counting",
    "scene",
)

# Name of the root span the runner opens around each op.
OP_SPAN = "op"


def num_projective_points(q: int, d: int) -> int:
    """#P^{d-1}(F_q): normalized representatives in d coordinates."""
    return (q**d - 1) // (q - 1)


def lex_rank(point, q: int) -> int:
    """Rank of a normalized projective point in lexicographic order.

    The points are normalized (first nonzero coordinate = 1) vectors over
    the q element codes 0..q-1.  Every point whose first nonzero coordinate
    lies further right comes earlier; within one leading position the
    remaining coordinates are read as a base-q number.
    """
    d = len(point)
    lead = next(i for i, x in enumerate(point) if x)
    r = d - lead - 1
    value = 0
    for x in point[lead + 1 :]:
        value = value * q + int(x)
    return (q**r - 1) // (q - 1) + value


def merged_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts, ends, parents):
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        covered = 0.0
        if kids:
            covered = merged_length(
                (max(starts[c], s), min(ends[c], e)) for c in kids if ends[c] > s and starts[c] < e
            )
        out.append((e - s) - covered)
    return out


# --- per-call work counts of the scan entry points --------------------------


def _scan_count_zero_locus(bound, result):
    count, _ = result
    q, d = bound["q"], bound["d"]
    mode = "collect" if bound.get("collect") else "count"
    return (q, d, len(bound["forms"]), mode, num_projective_points(q, d), count)


def _scan_count_find_first(bound, result):
    q, d = bound["q"], bound["d"]
    points = num_projective_points(q, d) if result is None else lex_rank(result, q) + 1
    return (q, d, len(bound["forms"]), "first", points, 0 if result is None else 1)


def _scan_count_ext(bound, result):
    count, pts = result
    q, d = bound["ext"].q, bound["d"]
    if bound.get("find_first"):
        points = lex_rank(pts[0], q) + 1 if pts else num_projective_points(q, d)
        return (q, d, len(bound["forms"]), "first", points, 1 if pts else 0)
    mode = "collect" if bound.get("collect_limit") else "count"
    return (q, d, len(bound["forms"]), mode, num_projective_points(q, d), count)


SCAN_COUNTERS = {
    "scan.zero_locus": _scan_count_zero_locus,
    "scan.find_first_zero": _scan_count_find_first,
    "scan.ext_zero_locus": _scan_count_ext,
}

ATTR_FIELDS = ("q", "d", "forms", "mode", "points", "hits")


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        target = getattr(obj, "__wrapped__", obj)
        if not isinstance(target, types.FunctionType):
            continue
        if inspect.isgeneratorfunction(target):
            continue
        yield name, obj


class Tracer:
    """Records spans while `active`; one instance per traced process."""

    def __init__(self, package: str = "spinor10"):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.attrs: dict[int, tuple] = {}
        self.errors: set[int] = set()
        self.cold: set[int] = set()
        # scan calls whose arguments the counters could not read
        self.uncounted = 0
        self.stack: list[int] = []
        self.active = False
        self.op_id = -1
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def clear(self):
        for col in (self.start, self.end, self.parent, self.name, self.op):
            del col[:]
        self.attrs.clear()
        self.errors.clear()
        self.cold.clear()
        self.uncounted = 0
        self.stack.clear()

    def open_span(self, name: str) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(self._name_id(name))
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close_span(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, qualname: str, fn):
        tracer = self
        name_id = self._name_id(qualname)
        starts, ends, parents, names, ops = self.start, self.end, self.parent, self.name, self.op
        stack = self.stack
        clock = time.perf_counter
        counter = SCAN_COUNTERS.get(qualname)
        signature = inspect.signature(fn) if counter else None
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(name_id)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            misses = cache_info().misses if cache_info else 0
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors.add(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if cache_info and cache_info().misses > misses:
                tracer.cold.add(idx)
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    tracer.attrs[idx] = counter(bound.arguments, result)
                except (TypeError, KeyError, ValueError):
                    tracer.uncounted += 1
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, modules: dict):
        """Wrap the public functions of `modules` ({layer: module}).

        Every spinor10 module attribute that is one of those functions is
        replaced, so both ``x.f`` and names bound by ``from .x import f``
        go through the wrapper.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, module in modules.items():
            for fname, fn in _public_functions(module):
                qualname = f"{layer}.{fname}"
                wrappers[id(fn)] = (fn, self._wrap(qualname, fn), qualname)
        pkg_modules = [
            m
            for n, m in sys.modules.items()
            if m is not None and (n == self.package or n.startswith(self.package + "."))
        ]
        for module in pkg_modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))
        return sorted(qualname for _, _, qualname in wrappers.values())

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def span_records(self):
        """The recorded spans as columns, with names resolved."""
        return {
            "names": list(self.names),
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "attrs": {str(i): dict(zip(ATTR_FIELDS, a)) for i, a in self.attrs.items()},
            "errors": sorted(self.errors),
        }

    def function_stats(self):
        """{qualified name: stats} over the spans recorded since `clear`.

        Stats are calls, self_s, and for the scan entry points points and
        hits summed over calls; get_ext_field also gets cold_builds and
        build_s (the total duration of the calls that missed its cache).
        """
        selfs = self_times(self.start, self.end, self.parent)
        stats = {}
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            st = stats.get(name)
            if st is None:
                st = stats[name] = {"calls": 0, "self_s": 0.0}
            st["calls"] += 1
            st["self_s"] += selfs[i]
            a = self.attrs.get(i)
            if a is not None:
                st["points"] = st.get("points", 0) + a[4]
                st["hits"] = st.get("hits", 0) + a[5]
            if i in self.cold:
                st["cold_builds"] = st.get("cold_builds", 0) + 1
                st["build_s"] = st.get("build_s", 0.0) + (self.end[i] - self.start[i])
        return stats

    def accept_ratio(self, outer: str, inner: str):
        """(outer calls returned, inner calls made under an outer span)."""
        nid_outer = self.name_ids.get(outer)
        nid_inner = self.name_ids.get(inner)
        if nid_outer is None:
            return 0, 0
        returned = sum(
            1 for i, n in enumerate(self.name) if n == nid_outer and i not in self.errors
        )
        made = 0
        for i, n in enumerate(self.name):
            if n != nid_inner:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name[p] == nid_outer:
                    made += 1
                    break
                p = self.parent[p]
        return returned, made
