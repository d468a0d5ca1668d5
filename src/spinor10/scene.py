"""Scene files: versioned JSON serialization of field, seed, and named
objects (vectors in V, half-spinors, subspaces, sections).

Schema "spinor10-scene/1".  Elements of F_p are JSON integers in [0, p);
rationals are strings "a/b" in lowest terms with positive denominator.
Spinor coordinates follow the documented subset order (by size, then
lexicographic).  Emission is canonical: fixed key order, two-space
indentation; emit(parse(text)) canonicalizes and parse(emit(scene)) is the
identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .clifford import DIM_S, DIM_V
from .fields import Field, PrimeField, QQ, RationalField, is_prime
from .linalg import Subspace

SCHEMA = "spinor10-scene/1"

OBJECT_TYPES = {
    "vector-v": ("vector", DIM_V),
    "spinor+": ("vector", DIM_S),
    "spinor-": ("vector", DIM_S),
    "subspace-v": ("subspace", DIM_V),
    "subspace-s+": ("subspace", DIM_S),
    "subspace-s-": ("subspace", DIM_S),
    "section": ("subspace", DIM_S),
}


class SceneError(ValueError):
    """Schema violation, with a path to the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class SceneObject:
    name: str
    type: str
    data: tuple  # coordinate tuple, or tuple of basis rows

    def as_subspace(self, field: Field) -> Subspace:
        if OBJECT_TYPES[self.type][0] != "subspace":
            raise SceneError(self.name, "not a subspace object")
        dim = OBJECT_TYPES[self.type][1]
        return Subspace(field, dim, [list(r) for r in self.data])


@dataclass(frozen=True)
class Scene:
    field: Field
    seed: int = 0
    objects: tuple = ()

    def get(self, name: str) -> SceneObject:
        for obj in self.objects:
            if obj.name == name:
                return obj
        raise KeyError(name)


def field_to_spec(field: Field) -> str:
    if isinstance(field, PrimeField):
        return str(field.p)
    if isinstance(field, RationalField):
        return "Q"
    raise ValueError(f"unserializable field {field!r}")


def _parse_field(spec, path) -> Field:
    if spec == "Q":
        return QQ
    if isinstance(spec, bool) or not isinstance(spec, (int, str)):
        raise SceneError(path, f"bad field spec {spec!r}")
    try:
        p = int(spec)
    except ValueError:
        raise SceneError(path, f"bad field spec {spec!r}") from None
    if not is_prime(p):
        raise SceneError(path, f"not prime: {p}")
    return PrimeField(p)


def _parse_element(field: Field, x, path):
    if isinstance(field, PrimeField):
        if isinstance(x, bool) or not isinstance(x, int):
            raise SceneError(path, f"F_{field.p} element must be an integer, got {x!r}")
        if not 0 <= x < field.p:
            raise SceneError(path, f"element {x} out of range [0, {field.p})")
        return x
    if not isinstance(x, str) or "/" not in x:
        raise SceneError(path, f'rational must be a string "a/b", got {x!r}')
    num, _, den = x.partition("/")
    try:
        a, b = int(num), int(den)
    except ValueError:
        raise SceneError(path, f"bad rational {x!r}") from None
    if b <= 0:
        raise SceneError(path, f"rational {x!r} needs a positive denominator")
    f = Fraction(a, b)
    if (f.numerator, f.denominator) != (a, b):
        raise SceneError(path, f"rational {x!r} not in lowest terms")
    return f


def _emit_element(field: Field, x):
    if isinstance(field, PrimeField):
        return int(x)
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _parse_vector(field, data, n, path):
    if not isinstance(data, list) or len(data) != n:
        raise SceneError(path, f"expected a list of {n} coordinates")
    return tuple(
        _parse_element(field, x, f"{path}[{i}]") for i, x in enumerate(data)
    )


def parse_scene(text: str) -> Scene:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneError(f"line {e.lineno}", f"invalid JSON: {e.msg}") from None
    if not isinstance(doc, dict):
        raise SceneError("$", "scene must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SceneError("schema", f"expected {SCHEMA!r}, got {doc.get('schema')!r}")
    field = _parse_field(doc.get("field"), "field")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 64:
        raise SceneError("seed", "seed must be a 64-bit unsigned integer")
    objects = []
    raw = doc.get("objects", [])
    if not isinstance(raw, list):
        raise SceneError("objects", "must be a list")
    seen = set()
    for i, o in enumerate(raw):
        path = f"objects[{i}]"
        if not isinstance(o, dict):
            raise SceneError(path, "object must be a JSON object")
        name = o.get("name")
        if not isinstance(name, str) or not name:
            raise SceneError(f"{path}.name", "missing or empty name")
        if name in seen:
            raise SceneError(f"{path}.name", f"duplicate name {name!r}")
        seen.add(name)
        typ = o.get("type")
        if typ not in OBJECT_TYPES:
            raise SceneError(f"{path}.type", f"unknown type {typ!r}")
        kind, n = OBJECT_TYPES[typ]
        if kind == "vector":
            data = _parse_vector(field, o.get("coords"), n, f"{path}.coords")
        else:
            rows = o.get("basis")
            if not isinstance(rows, list):
                raise SceneError(f"{path}.basis", "expected a list of basis rows")
            data = tuple(
                _parse_vector(field, r, n, f"{path}.basis[{j}]")
                for j, r in enumerate(rows)
            )
        objects.append(SceneObject(name, typ, data))
    return Scene(field, seed, tuple(objects))


def emit_scene(scene: Scene) -> str:
    doc = {
        "schema": SCHEMA,
        "field": field_to_spec(scene.field),
        "seed": scene.seed,
        "objects": [],
    }
    for obj in scene.objects:
        kind, _ = OBJECT_TYPES[obj.type]
        entry = {"name": obj.name, "type": obj.type}
        if kind == "vector":
            entry["coords"] = [_emit_element(scene.field, x) for x in obj.data]
        else:
            entry["basis"] = [
                [_emit_element(scene.field, x) for x in row] for row in obj.data
            ]
        doc["objects"].append(entry)
    return json.dumps(doc, indent=2) + "\n"


def subspace_object(name: str, typ: str, space: Subspace) -> SceneObject:
    return SceneObject(name, typ, tuple(tuple(r) for r in space.basis))


def section_scene(field: Field, K: Subspace, seed: int = 0, name: str = "K") -> Scene:
    return Scene(field, seed, (subspace_object(name, "section", K),))
