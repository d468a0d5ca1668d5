"""Command-line surface: deterministic queries, section construction,
counting, and the verification suites `motive` (k = 0..5) and `incidence`.

Exit codes: 0 on success/pass, 1 on verification failure or a budget
refusal, 2 on usage errors.  Output depends only on (inputs, seed, flags).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .clifford import DIM_S, MINUS, PLUS
from .counting import CountReport, count_report
from .fields import Field, PrimeField, field_spec
from .gamma import PureSpinorError, gamma, rho
from .linalg import Subspace
from .scan import DEFAULT_COUNT_BUDGET, BudgetExceededError
from .scene import Scene, SceneError, emit_scene, parse_scene, section_scene
from .sections import classify, make_section
from .spaces import f4_scan, span_pi4
from .variety import annihilator, annihilator_kernel, mu, random_spinor, witness_from_spinor


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


def _refuse_ignored_scene_flags(args):
    """--object and --objects only name scene objects, and --coords and
    --coords2 replace the scene: refuse each where it would be ignored."""
    flags = vars(args)
    for name in ("object", "objects"):
        if flags.get(name) and not flags.get("scene"):
            raise CliError(f"--{name} needs --scene")
    for name in ("coords", "coords2"):
        if flags.get(name) and flags.get("scene"):
            raise CliError(f"--{name} and --scene exclude each other")


def _scene_object(args, types):
    """The scene's field and the object named by --object, else the scene's
    first object of one of the given types."""
    if not args.scene:
        raise CliError("need --scene")
    scene = _load_scene(args.scene)
    if args.object:
        return scene.field, scene.get(args.object)
    for obj in scene.objects:
        if obj.type in types:
            return scene.field, obj
    raise CliError(f"scene {args.scene} has no object of type {' or '.join(types)}")


def _scene_vector(args, field, n, obj_types):
    """Fetch a vector either inline (--coords) or from a scene object."""
    if args.coords:
        return field, _parse_coords(field, args.coords, n)
    if args.scene:
        field, obj = _scene_object(args, obj_types)
        if obj.type not in obj_types:
            raise CliError(f"object {obj.name!r} has type {obj.type}, need {obj_types}")
        return field, obj.data
    raise CliError("need --coords or --scene")


def _scene_section(args) -> Subspace:
    field, obj = _scene_object(args, ("section",))
    return obj.as_subspace(field)


def _emit(args, payload: dict):
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=str))
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
        sp = span_pi4(witness_from_spinor(field, tau, MINUS))
    else:
        field, obj = _scene_object(args, ("subspace-v",))
        sp = annihilator_kernel(field, obj.as_subspace(field), _half(args.half))
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
            section = next((o for o in scene.objects if o.type == "section"), None)
            if len(spinors) < 2 and section is not None:
                # the scene that make-section writes: the pencil's stored
                # rows (rho is invariant only up to det^2 under a change of
                # basis), or its reduced basis when more than two are stored
                K = section.as_subspace(scene.field)
                if K.dim != 2:
                    raise CliError(f"rho needs a pencil (k = 2); section {section.name!r} has k = {K.dim}")
                rows = [r for r in section.data if any(r)]
                spinors = rows if len(rows) == 2 else K.basis
            if len(spinors) < 2:
                raise CliError("scene needs two spinor- objects or a section of dim 2 (or --objects a,b)")
            k1, k2 = spinors[:2]
        field = scene.field
    else:
        if not (args.coords and args.coords2):
            raise CliError("need --coords and --coords2, or --scene")
        k1 = _parse_coords(field, args.coords, DIM_S)
        k2 = _parse_coords(field, args.coords2, DIM_S)
    val = rho(field, k1, k2)
    value = {} if field.char == 2 else {"rho": str(val.value)}
    _emit(args, {**value, "vanishes": val.vanishes(field)})
    return 0


def cmd_classify(args):
    K = _scene_section(args)
    rep = classify(K)
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
    s = make_section(args.kind, field, seed=args.seed)
    scene = section_scene(field, s.K, seed=args.seed)
    text = emit_scene(scene)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_f4(args):
    K = _scene_section(args)
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
    if args.scene:
        for flag in ("--k", "--seed"):
            if flag in args.given:
                raise CliError(f"{flag} does not apply to a count of a --scene section")
        K = _scene_section(args)
        if "--field" in args.given and field_spec(args.field) != K.field:
            raise CliError(f"--field {args.field} is not the field of the --scene section")
    else:
        field = field_spec(args.field)
        if not isinstance(field, PrimeField):
            raise CliError("count needs a prime field")
        if args.k == 0:
            K = Subspace(field, DIM_S, [])
        else:
            K = make_section(f"generic-{args.k}", field, seed=args.seed).K
    rep = count_report(K, args.side, args.ext_degree, budget=args.budget)
    print(rep.actual)
    return 0 if rep.passed else 1


def _motive_sections(field, rng):
    """X, then one smooth generic section for each k = 1..5."""
    yield Subspace(field, DIM_S, [])
    for k in range(1, 6):
        yield make_section(f"generic-{k}", field, seed=rng.randrange(1 << 30)).K


def _incidence_sections(field, rng):
    """For each k = 1..15, the span of k random spinors of S-, redrawn
    until it has dim k."""
    for k in range(1, DIM_S):
        K = Subspace(field, DIM_S, [])
        while K.dim < k:
            K = Subspace(field, DIM_S, [random_spinor(field, rng, MINUS) for _ in range(k)])
        yield K


def cmd_verify(args):
    field = field_spec(args.field)
    if not isinstance(field, PrimeField):
        raise CliError("verify needs a prime field")
    suites = {"motive": _motive_sections, "incidence": _incidence_sections}
    rows = [
        count_report(K, "X", args.ext_degree, budget=args.budget)
        for K in suites[args.suite](field, random.Random(args.seed))
    ]
    if args.format == "json":
        print(json.dumps([r.__dict__ for r in rows], indent=2, default=str))
    else:
        print(CountReport.CSV_HEADER)
        for r in rows:
            print(r.csv_row())
    return 0 if all(r.passed for r in rows) else 1


def _int_at_least(low: int):
    """An argparse type: an int >= low, else a usage error."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


class _Given(argparse.Action):
    """Store the value and add the flag to args.given, so a handler can
    tell a flag given at its default value from one left out."""

    def __call__(self, parser, args, value, option_string=None):
        setattr(args, self.dest, value)
        args.given = args.given | {option_string}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spinor10",
        description="Exact tools for the spinor tenfold, its dual, and their linear sections.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # Each subcommand declares exactly the flags its handler reads.
    def field(p):
        p.add_argument("--field", default="2", action=_Given, help="prime p, or Q")

    def seed(p):
        p.add_argument("--seed", type=int, default=0, action=_Given)

    def fmt(default):
        # json, or the one other form the command prints
        return lambda p: p.add_argument("--format", choices=(default, "json"), default=default)

    def coords(p):
        p.add_argument("--coords", help="inline comma-separated spinor coordinates")

    def half(default):
        return lambda p: p.add_argument("--half", default=default, choices=("+", "-"))

    def scene(required=False):
        def add(p):
            p.add_argument("--scene", required=required, help="scene JSON file")
            p.add_argument("--object", help="object name within the scene")
        return add

    def count_limits(p):
        p.add_argument("--ext-degree", type=_int_at_least(1), default=1, metavar="M")
        p.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_COUNT_BUDGET)

    def command(name, fn, help, *flags):
        p = sub.add_parser(name, help=help)
        for add in flags:
            add(p)
        p.set_defaults(fn=fn, given=frozenset())
        return p

    command("member", cmd_member, "test whether a spinor lies on X / X^v",
            field, half("-"), coords, scene(), fmt("plain"))
    command("gamma", cmd_gamma, "evaluate the gamma map on a spinor in S-",
            field, coords, scene(), fmt("plain"))
    command("annihilator", cmd_annihilator, "annihilator of a spinor inside V",
            field, half("-"), coords, scene(), fmt("plain"))
    p = command("span", cmd_span, "annihilator_kernel of a subspace, or span_pi4",
                field, half("+"), coords, scene(), fmt("plain"))
    p.add_argument("--kind", choices=("annihilator-kernel", "pi4"), required=True)
    p = command("rho", cmd_rho, "spinor quadratic line complex value",
                field, coords, fmt("plain"))
    p.add_argument("--coords2")
    p.add_argument("--scene", help="scene JSON file")
    p.add_argument("--objects", help="comma-separated pair of scene object names")
    command("classify", cmd_classify, "classify a linear section",
            scene(required=True), fmt("plain"))
    p = command("make-section", cmd_make_section, "construct a section and emit a scene",
                field, seed)
    p.add_argument("--kind", required=True, help="special | very-special | generic-K")
    p.add_argument("--out", help="output scene path (default stdout)")
    command("f4", cmd_f4, "scan for linear 4-spaces inside a section",
            scene(required=True), fmt("plain"))
    p = command("count", cmd_count, "count points of X_K / X^v_K",
                field, seed, count_limits, scene())
    p.add_argument("--k", type=int, default=0, action=_Given)
    p.add_argument("--side", choices=("X", "X^v"), default="X")
    p = command("verify", cmd_verify, "run a named verification suite",
                field, seed, count_limits, fmt("csv"))
    p.add_argument("suite", choices=("motive", "incidence"))

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _refuse_ignored_scene_flags(args)
        return args.fn(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CliError, SceneError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        print(f"error: no such object {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
