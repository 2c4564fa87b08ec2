"""JSON input and output documents.

All numbers are encoded as strings ("p/q" or "p") or as tagged exact-radius
objects; no floats ever appear, so documents round-trip losslessly and
outputs are byte-stable across runs.
"""

from __future__ import annotations

import json
from collections import Counter

from .barcode import Interval, PointedBarcode
from .complexes import Complex, PLMap
from .errors import InputError
from .exact import ExactRadius, format_rational, parse_rational

NORM_NAMES = ("l1", "l2", "linf")


def encode_radius(r: ExactRadius) -> dict:
    value = r.as_fraction()
    if value is not None:
        return {"rat": format_rational(value)}
    if r.minus == 0:
        return {"sqrt": format_rational(r.plus)}
    # Difference of two square roots (l2 bottleneck values).
    return {"sqrt_diff": [format_rational(r.plus), format_rational(r.minus)]}


def decode_radius(obj) -> ExactRadius:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError(f"bad exact-radius encoding: {obj!r}")
    kind, payload = next(iter(obj.items()))
    try:
        if kind == "rat":
            return ExactRadius.of(parse_rational(payload))
        if kind == "sqrt":
            return ExactRadius.sqrt(parse_rational(payload))
        if kind == "sqrt_diff":
            if not isinstance(payload, list) or len(payload) != 2:
                raise ValueError("payload must be a list of two rationals")
            return ExactRadius(*map(parse_rational, payload))
    except ValueError as exc:
        raise InputError(f"bad exact radius {obj!r}: {exc}") from exc
    raise InputError(f"unknown exact-radius kind {kind!r}")


def dumps(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

def parse_input(text: str) -> PLMap:
    """Parse an input document into a validated map on a complex."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    for key in ("n", "norm", "vertices", "simplices", "values"):
        if key not in doc:
            raise InputError(f"missing field {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError("field 'n' must be a positive integer")
    norm = doc["norm"]
    if norm not in NORM_NAMES:
        raise InputError(f"field 'norm' must be one of {NORM_NAMES}")
    vertices = doc["vertices"]
    if (not isinstance(vertices, list) or not vertices
            or not all(isinstance(v, str) for v in vertices)):
        raise InputError("field 'vertices' must be a nonempty list of ids")
    if len(set(vertices)) != len(vertices):
        raise InputError("duplicate vertex id in 'vertices'")
    if any(v.startswith("(") for v in vertices):
        raise InputError("a vertex id must not begin with '(', which names subdivision points")
    declared = set(vertices)
    simplices = doc["simplices"]
    if not isinstance(simplices, list) or not simplices:
        raise InputError("field 'simplices' must be a nonempty list")
    for simplex in simplices:
        if not isinstance(simplex, list) or not simplex:
            raise InputError(f"bad simplex {simplex!r}")
        for v in simplex:
            if not isinstance(v, str):
                raise InputError(f"bad simplex {simplex!r}")
            if v not in declared:
                raise InputError(f"simplex {simplex!r} references undeclared vertex {v!r}")
    values = doc["values"]
    if not isinstance(values, dict):
        raise InputError("field 'values' must be an object")
    parsed_values = {}
    for v in vertices:
        if v not in values:
            raise InputError(f"vertex {v!r} has no value")
        raw = values[v]
        if not isinstance(raw, list) or len(raw) != n:
            raise InputError(f"value of vertex {v!r} must be a list of {n} rationals")
        try:
            parsed_values[v] = tuple(parse_rational(x) for x in raw)
        except ValueError as exc:
            raise InputError(f"value of vertex {v!r}: {exc}") from exc
    extra = set(values) - declared
    if extra:
        raise InputError(f"values given for undeclared vertices: {sorted(extra)}")
    complex_ = Complex.build(simplices)
    missing = set(complex_.vertices) - declared
    if missing:
        raise InputError(f"simplices use undeclared vertices: {sorted(missing)}")
    isolated = declared - set(complex_.vertices)
    if isolated:
        # Declared-but-unused vertices become isolated 0-simplices.
        complex_ = Complex(list(complex_.simplices) + [(v,) for v in sorted(isolated)])
    return PLMap(complex_, parsed_values, n, norm)


def serialize_input(f: PLMap) -> dict:
    """Input document of a map (maximal simplices only)."""
    all_simplices = set(f.complex.simplices)
    maximal = [
        s for s in f.complex.all_simplices()
        if not any(s != t and set(s) <= set(t) for t in all_simplices)
    ]
    return {
        "n": f.n,
        "norm": f.norm,
        "vertices": list(f.complex.vertices),
        "simplices": [list(s) for s in sorted(maximal)],
        "values": {
            v: [format_rational(x) for x in f.values[v]]
            for v in f.complex.vertices
        },
    }


# ---------------------------------------------------------------------------
# barcode documents
# ---------------------------------------------------------------------------

def serialize_barcode(barcode: PointedBarcode, *, mode: str, field: str,
                      criticals, has_zero_min: bool, robust_radius: ExactRadius,
                      seeds: dict, determinacy: bool) -> dict:
    rows = []
    distinguished_left = barcode.distinguished
    for interval, mult in barcode.bars:
        if distinguished_left is not None and interval == distinguished_left:
            rows.append(_bar_row(interval, 1, True))
            if mult > 1:
                rows.append(_bar_row(interval, mult - 1, False))
            distinguished_left = None
        else:
            rows.append(_bar_row(interval, mult, False))
    return {
        "mode": mode,
        "field": field,
        "criticals": [encode_radius(c) for c in criticals],
        "has_zero_min": has_zero_min,
        "bars": rows,
        "robust_radius": encode_radius(robust_radius),
        "seeds": seeds,
        "determinacy": determinacy,
    }


def _bar_row(interval: Interval, mult: int, distinguished: bool) -> dict:
    return {
        "birth": encode_radius(interval.birth),
        "death": encode_radius(interval.death),
        "multiplicity": mult,
        "distinguished": distinguished,
    }


def parse_barcode(doc) -> PointedBarcode:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "bars" not in doc:
        raise InputError("not a barcode document (no 'bars' field)")
    if not isinstance(doc["bars"], list):
        raise InputError("field 'bars' must be a list")
    counter: Counter = Counter()
    distinguished = None
    flagged = 0
    for row in doc["bars"]:
        if not isinstance(row, dict) or "birth" not in row or "death" not in row:
            raise InputError(f"bar row must be an object with 'birth' and 'death': {row!r}")
        interval = Interval(decode_radius(row["birth"]), decode_radius(row["death"]))
        mult = row.get("multiplicity", 1)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise InputError(f"bad multiplicity in bar row {row!r}")
        counter[interval] += mult
        if row.get("distinguished"):
            flagged += 1
            distinguished = interval
    if flagged > 1:
        raise InputError("more than one distinguished bar")
    return PointedBarcode.from_multiset(counter, distinguished)


def looks_like_barcode(text: str) -> bool:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return False
    return isinstance(doc, dict) and "bars" in doc
