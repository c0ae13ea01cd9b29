"""The session file format: one JSON document naming everything a command needs.

Top-level keys: ``field``, ``objects``, ``maps``, ``homotopies``,
``roofs``.  Objects are complexes given by sparse degree tables::

    {
      "field": {"kind": "prime", "p": 5},
      "objects": {
        "A": {"dims": {"0": 2, "1": 1}, "diff": {"0": [[1, 2]]}}
      },
      "maps": {
        "f": {"from": "A", "to": "A", "components": {"0": [[1, 0], [0, 1]], "1": [[1]]}}
      },
      "homotopies": {},
      "roofs": {}
    }

Degree keys are decimal integers in canonical form; omitted degrees are
zero.  Scalars are integers (reduced modulo p on load) over a prime
field, and integers or "a/b" strings over the rationals.  A complex's
support window is the hull of its declared degrees; emission writes
every window degree into ``dims``, so windows survive a round trip and
``emit(parse(emit(x)))`` equals ``emit(x)`` byte for byte.

Parsing is eager: every complex must satisfy d(d(x)) = 0, every map
must commute with the differentials, and every roof denominator must be
a quasi-isomorphism before any command runs.  The sizes a session
declares are checked against MAX_DEGREES and MAX_ENTRIES before any
matrix is built.  Emission raises SessionSyntaxError, naming the matrix,
on a rational scalar with more digits than parsing accepts, so homcat
never writes a file it would refuse to read.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .chainmaps import ChainMap, Homotopy, _require_valid_map
from .complexes import CochainComplex, validate_complex
from .errors import (
    InvalidComplexError,
    NotQuasiIsoError,
    SessionSyntaxError,
    ShapeMismatchError,
    UnknownReferenceError,
    quote,
)
from .fields import FieldSpec, _Frozen
from .matrices import Matrix, _canonical
from .roofs import Roof

__all__ = [
    "MapEntry",
    "HomotopyEntry",
    "RoofEntry",
    "SessionFile",
    "parse_session",
    "emit_session",
    "matrix_payload",
]

_TOP_KEYS = ("field", "objects", "maps", "homotopies", "roofs")
_DEGREE_RE = re.compile(r"0|-?[1-9][0-9]*")
_FRACTION_RE = re.compile(r"(-?[0-9]+)/([0-9]+)")

# Caps on the dense data a session makes the parser allocate, checked
# before any matrix of it exists.  MAX_DEGREES bounds the window degrees
# summed over all objects, maps and homotopies.  MAX_ENTRIES bounds the
# matrix entries they imply: per object degree i, the differential
# dim(i+1) x dim(i) plus dim(i) x dim(i) for the square matrices
# (identities, kernel bases) that commands build there; per map and
# homotopy, every component, zero-filled or not.
MAX_DEGREES = 100_000
MAX_ENTRIES = 4_000_000


class MapEntry(_Frozen):
    _fields = ("source", "target", "value")

    def __init__(self, source: str, target: str, value: ChainMap) -> None:
        self._store(source=source, target=target, value=value)


class HomotopyEntry(_Frozen):
    _fields = ("source", "target", "value")

    def __init__(self, source: str, target: str, value: Homotopy) -> None:
        self._store(source=source, target=target, value=value)


class RoofEntry(_Frozen):
    _fields = ("denom", "numer", "value")

    def __init__(self, denom: str, numer: str, value: Roof) -> None:
        self._store(denom=denom, numer=numer, value=value)


class SessionFile(_Frozen):
    """A parsed session; each table omitted is a fresh empty dict."""

    _fields = ("field", "objects", "maps", "homotopies", "roofs")

    def __init__(
        self,
        field: FieldSpec,
        objects: dict[str, CochainComplex] | None = None,
        maps: dict[str, MapEntry] | None = None,
        homotopies: dict[str, HomotopyEntry] | None = None,
        roofs: dict[str, RoofEntry] | None = None,
    ) -> None:
        self._store(
            field=field,
            objects={} if objects is None else objects,
            maps={} if maps is None else maps,
            homotopies={} if homotopies is None else homotopies,
            roofs={} if roofs is None else roofs,
        )


# -- parsing -----------------------------------------------------------------


class _Budget:
    """Running totals of a session's declared size, checked against the caps."""

    def __init__(self) -> None:
        self.degrees = 0
        self.entries = 0

    def charge(self, where: str, degrees: int, entries: int) -> None:
        self.degrees += degrees
        self.entries += entries
        if self.degrees > MAX_DEGREES or self.entries > MAX_ENTRIES:
            raise SessionSyntaxError(
                f"{where}: declares {degrees} degrees and {entries} matrix entries, taking "
                f"the session over its cap of {MAX_DEGREES} degrees and {MAX_ENTRIES} entries"
            )


def _no_duplicate_pairs(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise SessionSyntaxError(f"duplicate key {quote(key)}")
        out[key] = value
    return out


def _parse_field(payload) -> FieldSpec:
    if not isinstance(payload, dict):
        raise SessionSyntaxError("'field' must be an object")
    kind = payload.get("kind")
    if kind == "prime":
        if set(payload) != {"kind", "p"}:
            raise SessionSyntaxError("prime field takes exactly the keys 'kind' and 'p'")
        p = payload["p"]
        if isinstance(p, bool) or not isinstance(p, int):
            raise SessionSyntaxError(f"field modulus must be an integer, got {quote(p)}")
        try:
            return FieldSpec.prime(p)
        except ValueError:
            raise SessionSyntaxError(f"field modulus {quote(p)} is not a prime in [2, 2^31)") from None
    if kind == "rational":
        if set(payload) != {"kind"}:
            raise SessionSyntaxError("rational field takes exactly the key 'kind'")
        return FieldSpec.rational()
    raise SessionSyntaxError(f"unknown field kind {quote(kind)}")


def _parse_int(digits: str, where: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on digits per integer
        raise SessionSyntaxError(f"{where}: integer of {len(digits)} digits is too long") from None


def _parse_degree(key, where: str) -> int:
    if not isinstance(key, str) or not _DEGREE_RE.fullmatch(key):
        raise SessionSyntaxError(f"{where}: degree keys must be canonical integers, got {quote(key)}")
    return _parse_int(key, where)


def _parse_scalar(fld: FieldSpec, value, where: str):
    if isinstance(value, bool) or isinstance(value, float):
        raise SessionSyntaxError(f"{where}: not an exact scalar: {quote(value)}")
    if fld.kind == "prime":
        if not isinstance(value, int):
            raise SessionSyntaxError(f"{where}: expected an integer scalar, got {quote(value)}")
        return value % fld.p
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _FRACTION_RE.fullmatch(value)
        if m:
            num, den = _parse_int(m.group(1), where), _parse_int(m.group(2), where)
            if den != 0:
                return Fraction(num, den)
        raise SessionSyntaxError(f"{where}: bad rational scalar {quote(value)}")
    raise SessionSyntaxError(f"{where}: expected an integer or 'a/b' string, got {quote(value)}")


def _parse_matrix(fld: FieldSpec, value, where: str) -> Matrix:
    if not isinstance(value, list) or not value:
        raise SessionSyntaxError(f"{where}: a matrix is a non-empty list of rows")
    width = None
    flat = []
    for r, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise SessionSyntaxError(f"{where}: row {r} is not a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SessionSyntaxError(f"{where}: row {r} has {len(row)} entries, expected {width}")
        flat.extend([_parse_scalar(fld, x, f"{where} row {r}") for x in row])
    # the scalars are canonical already, so they need no second check
    return _canonical(len(value), width, tuple(flat), fld)


def _table(doc: dict, key: str) -> dict:
    payload = doc.get(key, {})
    if not isinstance(payload, dict):
        raise SessionSyntaxError(f"'{key}' must be an object")
    for name in payload:
        if not name:
            raise SessionSyntaxError(f"'{key}' contains an empty name")
    return payload


def _parse_complex(fld: FieldSpec, name: str, payload, budget: _Budget) -> CochainComplex:
    where = f"object {quote(name)}"
    if not isinstance(payload, dict) or not set(payload) <= {"dims", "diff"}:
        raise SessionSyntaxError(f"{where}: expected the keys 'dims' and optionally 'diff'")
    dims_raw = payload.get("dims", {})
    diff_raw = payload.get("diff", {})
    if not isinstance(dims_raw, dict) or not isinstance(diff_raw, dict):
        raise SessionSyntaxError(f"{where}: 'dims' and 'diff' must be objects")
    dims = {}
    for key, value in dims_raw.items():
        i = _parse_degree(key, where)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise SessionSyntaxError(f"{where}: dimension at degree {i} must be a nonnegative integer")
        dims[i] = value
    diff_degrees = [_parse_degree(key, where) for key in diff_raw]
    degrees = set(dims) | set(diff_degrees) | {i + 1 for i in diff_degrees}
    budget.charge(
        where,
        max(degrees) - min(degrees) + 1 if degrees else 1,
        sum(n * (n + dims.get(i + 1, 0)) for i, n in dims.items()),
    )
    diff = {}
    for i, value in zip(diff_degrees, diff_raw.values()):
        diff[i] = _parse_matrix(fld, value, f"{where} diff {i}")
    try:
        return CochainComplex.create(fld, dims, diff)
    except ShapeMismatchError as e:
        raise ShapeMismatchError(f"{where}: {e}") from None


def _resolve(table: dict, ref, kind: str, where: str):
    if not isinstance(ref, str):
        raise SessionSyntaxError(f"{where}: {kind} reference must be a string, got {quote(ref)}")
    if ref not in table:
        raise UnknownReferenceError(f"{where}: unknown {kind} {quote(ref)}")
    return table[ref]


def parse_session(text: str) -> SessionFile:
    """Parse and fully validate a session document."""
    try:
        doc = json.loads(text, object_pairs_hook=_no_duplicate_pairs)
    except json.JSONDecodeError as e:
        raise SessionSyntaxError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise SessionSyntaxError("JSON nesting is too deep") from None
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise SessionSyntaxError(str(e)) from None
    if not isinstance(doc, dict):
        raise SessionSyntaxError("top level must be an object")
    unknown = set(doc) - set(_TOP_KEYS)
    if unknown:
        raise SessionSyntaxError(f"unknown top-level keys: {quote(sorted(unknown))}")
    if "field" not in doc:
        raise SessionSyntaxError("missing required key 'field'")
    fld = _parse_field(doc["field"])

    budget = _Budget()
    objects: dict[str, CochainComplex] = {}
    for name, payload in _table(doc, "objects").items():
        objects[name] = _parse_complex(fld, name, payload, budget)
    for name, complex_ in objects.items():
        report = validate_complex(complex_)
        if not report.ok:
            raise InvalidComplexError(
                f"object {quote(name)}: d(d(x)) != 0 at degree {report.degree}"
            )

    maps: dict[str, MapEntry] = {}
    homotopies: dict[str, HomotopyEntry] = {}
    for section, kind, cls, entry, table in (
        ("maps", "map", ChainMap, MapEntry, maps),
        ("homotopies", "homotopy", Homotopy, HomotopyEntry, homotopies),
    ):
        for name, payload in _table(doc, section).items():
            where = f"{kind} {quote(name)}"
            if not isinstance(payload, dict) or not set(payload) <= {"from", "to", "components"}:
                raise SessionSyntaxError(f"{where}: expected 'from', 'to' and optional 'components'")
            if "from" not in payload or "to" not in payload:
                raise SessionSyntaxError(f"{where}: both 'from' and 'to' are required")
            source = _resolve(objects, payload["from"], "object", where)
            target = _resolve(objects, payload["to"], "object", where)
            raw = payload.get("components", {})
            if not isinstance(raw, dict):
                raise SessionSyntaxError(f"{where}: 'components' must be an object")
            comps = {}
            for degree, rows in raw.items():
                i = _parse_degree(degree, where)
                comps[i] = _parse_matrix(fld, rows, f"{where} component {i}")
            window = cls._window(source, target)
            budget.charge(where, len(window), sum(target.dim(i + cls.degree) * source.dim(i) for i in window))
            try:
                value = cls.create(source, target, comps)
            except ShapeMismatchError as e:
                raise ShapeMismatchError(f"{where}: {e}") from None
            if cls is ChainMap:
                _require_valid_map(value, f"{where}: square")
            table[name] = entry(payload["from"], payload["to"], value)

    roofs: dict[str, RoofEntry] = {}
    for name, payload in _table(doc, "roofs").items():
        where = f"roof {quote(name)}"
        if not isinstance(payload, dict) or set(payload) != {"denom", "numer"}:
            raise SessionSyntaxError(f"{where}: expected exactly 'denom' and 'numer'")
        denom = _resolve(maps, payload["denom"], "map", where)
        numer = _resolve(maps, payload["numer"], "map", where)
        try:
            value = Roof(apex=denom.value.source, denom=denom.value, numer=numer.value)
        except ShapeMismatchError as e:
            raise ShapeMismatchError(f"{where}: {e}") from None
        except NotQuasiIsoError as e:
            raise NotQuasiIsoError(f"{where}: {e}") from None
        roofs[name] = RoofEntry(payload["denom"], payload["numer"], value)

    return SessionFile(fld, objects, maps, homotopies, roofs)


# -- emission ----------------------------------------------------------------


def _field_payload(fld: FieldSpec):
    if fld.kind == "prime":
        return {"kind": "prime", "p": fld.p}
    return {"kind": "rational"}


def _scalar_payload(fld: FieldSpec, x, where: str):
    if fld.kind == "prime":
        return int(x)
    frac = Fraction(x)
    try:
        text = f"{frac.numerator}/{frac.denominator}"
    except ValueError:  # past the interpreter's limit on digits per integer, as in _parse_int
        raise SessionSyntaxError(f"{where}: a scalar has an integer too long to write") from None
    return frac.numerator if frac.denominator == 1 else text


def matrix_payload(m: Matrix, where: str):
    """Nested-list JSON form of a matrix, scalars formatted for its field.

    ``where`` names the matrix in the error raised when a scalar is too
    long to write.
    """
    return [[_scalar_payload(m.field, x, where) for x in m.row(i)] for i in range(m.rows)]


def _complex_payload(c: CochainComplex, where: str):
    payload = {"dims": {str(i): c.dim(i) for i in c.degrees()}}
    diff = {}
    for i in range(c.lo, c.hi):
        d = c.d(i)
        if d.rows > 0 and d.cols > 0:
            diff[str(i)] = matrix_payload(d, f"{where} diff {i}")
    if diff:
        payload["diff"] = diff
    return payload


def _graded_payload(entry: MapEntry | HomotopyEntry, where: str):
    payload = {"from": entry.source, "to": entry.target}
    f = entry.value
    comps = {}
    for i in f.window:
        m = f.component(i)
        if m.rows > 0 and m.cols > 0:
            comps[str(i)] = matrix_payload(m, f"{where} component {i}")
    if comps:
        payload["components"] = comps
    return payload


def emit_session(session: SessionFile) -> str:
    """Canonical text form: fixed key order, ascending degrees, declaration order."""
    doc = {
        "field": _field_payload(session.field),
        "objects": {name: _complex_payload(c, f"object {quote(name)}") for name, c in session.objects.items()},
        "maps": {name: _graded_payload(e, f"map {quote(name)}") for name, e in session.maps.items()},
        "homotopies": {
            name: _graded_payload(e, f"homotopy {quote(name)}") for name, e in session.homotopies.items()
        },
        "roofs": {name: {"denom": e.denom, "numer": e.numer} for name, e in session.roofs.items()},
    }
    return json.dumps(doc, indent=2) + "\n"
