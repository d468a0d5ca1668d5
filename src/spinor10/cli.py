"""Command-line surface: deterministic queries, section construction,
counting, and verification suites.

Exit codes: 0 on success/pass, 1 on verification failure, 2 on usage
errors.  Output depends only on (inputs, seed, flags), never on the
worker count.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .clifford import DIM_S, DIM_V, MINUS, PLUS
from .counting import (
    BudgetExceededError,
    CountReport,
    count_section_points,
    predicted_count,
    quadric_count,
    verify_blowup_identity,
    verify_k6_relation,
)
from .fields import Field, PrimeField, QQ, field_spec
from .gamma import PureSpinorError, gamma, rho
from .linalg import Subspace
from .scene import (
    Scene,
    SceneError,
    emit_scene,
    parse_scene,
    section_scene,
    subspace_object,
)
from .sections import SectionK, classify, make_section, smoothness_scan
from .spaces import f4_scan, span_pi4
from .variety import annihilator, annihilator_kernel, mu, random_spinor


class CliError(Exception):
    pass


def _half(s: str):
    if s == "+":
        return PLUS
    if s == "-":
        return MINUS
    raise CliError(f"bad half {s!r}, expected '+' or '-'")


def _parse_coords(field: Field, text: str, n: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise CliError(f"expected {n} comma-separated coordinates, got {len(parts)}")
    out = []
    for p in parts:
        if isinstance(field, PrimeField):
            try:
                out.append(int(p) % field.p)
            except ValueError:
                raise CliError(f"bad F_{field.p} element {p!r}") from None
        else:
            try:
                out.append(Fraction(p))
            except (ValueError, ZeroDivisionError):
                raise CliError(f"bad rational {p!r}") from None
    return tuple(out)


def _load_scene(path: str) -> Scene:
    try:
        with open(path) as fh:
            return parse_scene(fh.read())
    except OSError as e:
        raise CliError(f"cannot read scene {path}: {e}") from None


def _scene_vector(args, field, n, obj_types):
    """Fetch a vector either inline (--coords) or from a scene object."""
    if args.coords:
        return field, _parse_coords(field, args.coords, n)
    if args.scene:
        scene = _load_scene(args.scene)
        name = args.object
        obj = scene.get(name) if name else next(
            o for o in scene.objects if o.type in obj_types
        )
        if obj.type not in obj_types:
            raise CliError(f"object {obj.name!r} has type {obj.type}, need {obj_types}")
        return scene.field, obj.data
    raise CliError("need --coords or --scene")


def _scene_section(args) -> tuple:
    scene = _load_scene(args.scene)
    name = getattr(args, "object", None)
    obj = scene.get(name) if name else next(
        o for o in scene.objects if o.type == "section"
    )
    return scene.field, obj.as_subspace(scene.field)


def _emit(args, payload: dict, csv_rows=None):
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=str))
    elif csv_rows is not None:
        for row in csv_rows:
            print(row)
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")


def cmd_member(args):
    field = field_spec(args.field)
    half = _half(args.half)
    field, s = _scene_vector(args, field, DIM_S, ("spinor+", "spinor-"))
    m = mu(field, s, half)
    on = all(x == field.zero for x in m)
    _emit(args, {"mu": list(map(str, m)), "on_variety": on})
    return 0


def cmd_gamma(args):
    field = field_spec(args.field)
    field, kappa = _scene_vector(args, field, DIM_S, ("spinor-",))
    try:
        v = gamma(field, kappa)
    except PureSpinorError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _emit(args, {"gamma": list(map(str, v))})
    return 0


def cmd_annihilator(args):
    field = field_spec(args.field)
    half = _half(args.half)
    field, s = _scene_vector(args, field, DIM_S, ("spinor+", "spinor-"))
    ann = annihilator(field, s, half)
    _emit(args, {"dim": ann.dim, "basis": [list(map(str, r)) for r in ann.basis]})
    return 0


def cmd_span(args):
    field = field_spec(args.field)
    if args.kind == "pi4":
        field, tau = _scene_vector(args, field, DIM_S, ("spinor-",))
        from .variety import witness_from_spinor

        sp = span_pi4(witness_from_spinor(field, tau, MINUS))
    else:
        scene = _load_scene(args.scene)
        obj = scene.get(args.object) if args.object else next(
            o for o in scene.objects if o.type == "subspace-v"
        )
        U = obj.as_subspace(scene.field)
        sp = annihilator_kernel(scene.field, U, _half(args.half))
    _emit(args, {"dim": sp.dim, "basis": [list(map(str, r)) for r in sp.basis]})
    return 0


def cmd_rho(args):
    field = field_spec(args.field)
    if args.scene:
        scene = _load_scene(args.scene)
        names = [n.strip() for n in (args.objects or "").split(",") if n.strip()]
        if len(names) == 2:
            k1, k2 = (scene.get(n).data for n in names)
        else:
            spinors = [o.data for o in scene.objects if o.type == "spinor-"]
            if len(spinors) < 2:
                raise CliError("scene needs two spinor- objects (or --objects a,b)")
            k1, k2 = spinors[:2]
        field = scene.field
    else:
        if not (args.coords and args.coords2):
            raise CliError("need --coords and --coords2, or --scene")
        k1 = _parse_coords(field, args.coords, DIM_S)
        k2 = _parse_coords(field, args.coords2, DIM_S)
    val = rho(field, k1, k2)
    _emit(args, {"rho": str(val.value), "vanishes": val.vanishes(field)})
    return 0


def cmd_classify(args):
    field, K = _scene_section(args)
    rep = classify(K, max_degree=args.ext_degree, budget=args.budget)
    _emit(
        args,
        {
            "k": K.dim,
            "label": rep.label,
            "smoothness": rep.smoothness.status if rep.smoothness else None,
            "notes": rep.notes,
        },
    )
    return 0


def cmd_make_section(args):
    field = field_spec(args.field)
    s = make_section(
        args.kind, field, seed=args.seed,
        max_degree=args.ext_degree, budget=args.budget,
    )
    scene = section_scene(field, s.K, seed=args.seed)
    text = emit_scene(scene)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_f4(args):
    field, K = _scene_section(args)
    wits = f4_scan(K)
    _emit(
        args,
        {
            "count": len(wits),
            "spinors": [list(map(str, w.spinor)) for w in wits],
        },
    )
    return 0


def cmd_count(args):
    field = field_spec(args.field)
    if not isinstance(field, PrimeField):
        raise CliError("count needs a prime field")
    if args.scene:
        field, K = _scene_section(args)
    elif args.k == 0:
        K = Subspace(field, DIM_S, [])
    else:
        K = make_section(f"generic-{args.k}", field, seed=args.seed).K
    try:
        n = count_section_points(
            K, args.side, args.ext_degree, budget=args.budget, workers=args.workers
        )
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(n)
    if args.side == "X" and args.ext_degree == 1 and K.dim <= 5:
        return 0 if n == predicted_count(K.dim, field.p) else 1
    return 0


def _verify_motive(args, field):
    rows, ok = [], True
    rng = random.Random(args.seed)
    for k in range(6):
        if k == 0:
            K = Subspace(field, DIM_S, [])
        else:
            K = make_section(f"generic-{k}", field, seed=rng.randrange(1 << 30)).K
        n = count_section_points(K, "X", budget=args.budget, workers=args.workers)
        pred = predicted_count(k, field.p)
        rows.append(CountReport(field.p, 1, k, "X", n, pred, n == pred))
        ok = ok and n == pred
    return rows, ok


def _verify_blowup(args, field):
    rows, ok = [], True
    rng = random.Random(args.seed)
    for k in range(1, 6):
        K = make_section(f"generic-{k}", field, seed=rng.randrange(1 << 30)).K
        r = verify_blowup_identity(K, budget=args.budget, workers=args.workers)
        rows.append(r)
        ok = ok and r.passed
    return rows, ok


def _verify_k6(args, field):
    rows, ok = [], True
    rng = random.Random(args.seed)
    tries = 0
    while len(rows) < args.sections and tries < 50 * args.sections:
        tries += 1
        K = Subspace(
            field, DIM_S, [random_spinor(field, rng, MINUS) for _ in range(6)]
        )
        if K.dim != 6:
            continue
        try:
            r = verify_k6_relation(K, max_degree=args.ext_degree, budget=args.budget)
        except (ValueError, BudgetExceededError):
            continue
        rows.append(r)
        if not r.passed:
            path = f"k6-counterexample-{len(rows)}.json"
            with open(path, "w") as fh:
                fh.write(emit_scene(section_scene(field, K, seed=args.seed)))
            print(f"counterexample logged: {path}", file=sys.stderr)
    # experimental finding: failures are reported, never fatal
    return rows, True


def cmd_verify(args):
    field = field_spec(args.field)
    if not isinstance(field, PrimeField):
        raise CliError("verify needs a prime field")
    suites = {"motive": _verify_motive, "blowup": _verify_blowup, "k6": _verify_k6}
    rows, ok = suites[args.suite](args, field)
    if args.format == "json":
        print(json.dumps([r.__dict__ for r in rows], indent=2, default=str))
    else:
        print(CountReport.CSV_HEADER)
        for r in rows:
            print(r.csv_row())
    return 0 if ok else 1


def cmd_report(args):
    field = field_spec(args.field)
    if not isinstance(field, PrimeField):
        raise CliError("report needs a prime field")
    rows, ok = _verify_motive(args, field)
    if args.format == "json":
        print(json.dumps([r.__dict__ for r in rows], indent=2, default=str))
    else:
        print(CountReport.CSV_HEADER)
        for r in rows:
            print(r.csv_row())
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spinor10",
        description="Exact tools for the spinor tenfold, its dual, and their linear sections.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # Each subcommand declares its own defaults here: smoothness work
    # (classify, make-section) scans up to degree 6, and counting scans
    # (count, verify, report) are larger than section scans.
    def common(p, scene=True, ext_degree=1, budget=300_000):
        p.add_argument("--field", default="2", help="prime p, or Q")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--ext-degree", type=int, default=ext_degree, metavar="M")
        p.add_argument("--budget", type=int, default=budget)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
        if scene:
            p.add_argument("--scene", help="scene JSON file")
            p.add_argument("--object", help="object name within the scene")

    p = sub.add_parser("member", help="test whether a spinor lies on X / X^v")
    common(p)
    p.add_argument("--half", default="-", choices=("+", "-"))
    p.add_argument("--coords", help="inline comma-separated spinor coordinates")
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("gamma", help="evaluate the gamma map on a spinor in S-")
    common(p)
    p.add_argument("--coords")
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("annihilator", help="annihilator of a spinor inside V")
    common(p)
    p.add_argument("--half", default="-", choices=("+", "-"))
    p.add_argument("--coords")
    p.set_defaults(fn=cmd_annihilator)

    p = sub.add_parser("span", help="annihilator_kernel of a subspace, or span_pi4")
    common(p)
    p.add_argument("--kind", choices=("annihilator-kernel", "pi4"), required=True)
    p.add_argument("--half", default="+", choices=("+", "-"))
    p.add_argument("--coords")
    p.set_defaults(fn=cmd_span)

    p = sub.add_parser("rho", help="spinor quadratic line complex value")
    common(p)
    p.add_argument("--coords")
    p.add_argument("--coords2")
    p.add_argument("--objects", help="comma-separated pair of scene object names")
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("classify", help="classify a linear section")
    common(p, ext_degree=6)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("make-section", help="construct a section and emit a scene")
    common(p, scene=False, ext_degree=6)
    p.add_argument("--kind", required=True, help="special | very-special | generic-K")
    p.add_argument("--out", help="output scene path (default stdout)")
    p.set_defaults(fn=cmd_make_section)

    p = sub.add_parser("f4", help="scan for linear 4-spaces inside a section")
    common(p)
    p.set_defaults(fn=cmd_f4)

    p = sub.add_parser("count", help="count points of X_K / X^v_K")
    common(p, budget=1 << 26)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--side", choices=("X", "X^v"), default="X")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("verify", help="run a named verification suite")
    common(p, scene=False, budget=1 << 26)
    p.add_argument("suite", choices=("motive", "blowup", "k6"))
    p.add_argument("--sections", type=int, default=5, help="sections for the k6 suite")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="emit the motive count table")
    common(p, scene=False, budget=1 << 26)
    p.set_defaults(fn=cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, SceneError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        print(f"error: no such object {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
