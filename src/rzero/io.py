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
    """A bar endpoint: a nonnegative {"rat": q} or {"sqrt": q}, the two
    encodings rzero writes endpoints in.  "sqrt_diff" is written only for
    bottleneck distances and is no endpoint."""
    kind = next(iter(obj)) if isinstance(obj, dict) and len(obj) == 1 else None
    if kind not in ("rat", "sqrt"):
        raise InputError(f'bad bar endpoint {obj!r}: an endpoint is a nonnegative '
                         f'{{"rat": "p/q"}} or {{"sqrt": "p/q"}}')
    try:
        value = parse_rational(obj[kind])
        return ExactRadius.of(value) if kind == "rat" else ExactRadius.sqrt(value)
    except ValueError as exc:
        raise InputError(f"bad bar endpoint {obj!r}: {exc}") from exc


def dumps(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

def _json_document(text: str):
    """The JSON value of a document's text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def parse_input(doc) -> PLMap:
    """Parse an input document, as text or loaded, into a validated map
    on a complex."""
    if isinstance(doc, str):
        doc = _json_document(doc)
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
    """Input document of a map (maximal simplices only).  In a face-closed
    complex a simplex is maximal iff it is no facet of another simplex."""
    simplices = f.complex.simplices
    facets = {t[:k] + t[k + 1:] for t in simplices if len(t) > 1 for k in range(len(t))}
    maximal = simplices - facets
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
    """Parse a barcode document, as text or loaded."""
    if isinstance(doc, str):
        doc = _json_document(doc)
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
