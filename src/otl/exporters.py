"""Serialization of validated models.

Three exchange formats:

* canonical JSON (``.otl.json``, schema version ``otl-json/1``): object keys
  sorted, arrays in declaration order, UTF-8, LF newlines, two-space indent,
  byte-stable across runs.  Number values are carried as decimal literal
  strings so nothing is lost to binary floating point.  The schema is
  written once, in ``_ENTITIES`` (one row per entity array, in load order)
  and ``_OPS`` (one row per expression operator); each field has a codec
  with its JSON shape, its writer and its reader.  ``to_json`` writes the
  bytes of ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``
  without building ``doc``: one ``%`` template per row, keys in sorted
  order, filled a column at a time with strings escaped by the C escaper
  ``json.dumps`` uses.  Each derived intension (a genus chain of n concepts
  holds n²/2 names) is one ``join`` over a list made from its genus's:
  copied, with its own differentiae, quoted once, insorted.  An object
  value is written once per call for each (attribute, value object), and
  the parser makes one value object per distinct literal.  The text comes
  in pieces, one per entity, which ``to_json`` joins and ``otl export``
  writes as they come.  ``from_json`` checks and reads each
  array by column, from the same rows, and builds its entities
  positionally; only an array that fails a check is walked entity by
  entity, to word its first fault with a JSON-pointer path (RFC 6901).
  Each stated intension is compared as given to the derived one, made by
  the same helper as the writer's, and sorted only when they differ.
* DSL text (``.otl``): ``print_dsl`` writes what the parser reads back,
  less labels, part notes and unnamed differences; declarations are
  emitted in dependency order.
* DOT (``.dot``): ``to_dot`` and ``ExportOptions`` live in ``otl.dot``.

The JSON schema is documented in docs/schema.md.
"""

from __future__ import annotations

import json
from bisect import insort
from decimal import Decimal
from itertools import chain, compress, repeat
from operator import attrgetter, itemgetter
from typing import Any, Callable, Container, Iterable, Iterator, NamedTuple, NoReturn, Optional

from . import model as m
from .classes import And, AttrEquals, ClassExpression, HasAttr, InConcept, Not, Or, _children, fold
from .reasoner import validate_or_raise

JSON_VERSION = "otl-json/1"


class JsonSchemaError(m.OtlError):
    code = "E_JSON_SCHEMA"

    def __init__(self, path: str | tuple, message: str):
        tokens = []
        while isinstance(path, tuple):  # (path, token), a path one token longer, spelt out only here
            path, token = path
            tokens.append(token)
        self.path = path + "".join(reversed(tokens))
        super().__init__(f"{self.path}: {message}")


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


_quote = json.encoder.encode_basestring  # the C escaper json.dumps(ensure_ascii=False) uses


def _pad(depth: int) -> str:
    return "\n" + "  " * depth


def _template(depth: int, keys: tuple[str, ...]) -> str:
    """``%`` template of an object opened at nesting ``depth`` whose values
    are JSON text already, to be filled in the sorted order of ``keys``."""
    pad = _pad(depth)
    return "{" + ",".join(pad + '  "' + key + '": %s' for key in sorted(keys)) + pad + "}"


def _array(items: list[str], depth: int) -> str:
    """Array opened at nesting ``depth`` of items that are JSON text already."""
    if not items:
        return "[]"
    pad = _pad(depth)
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def _shape_error(path: str | tuple, expected: str, node: Any) -> JsonSchemaError:
    return JsonSchemaError(path, f"expected {expected}, got {type(node).__name__}")


class _Codec(NamedTuple):
    """How a field's values are written and read.  ``shape`` is the JSON type
    a value must have.  ``write(values, depth)`` turns a column of the
    model's values into their JSON texts, each opened at ``depth``.
    ``read(node, path)`` turns a JSON value into the model's value, or
    raises; without it the JSON value is taken as it is.  ``load(column)``
    reads a column of values of the shape at once, and raises unworded where
    ``read`` would; without it ``read`` reads the column value by value."""

    shape: type
    write: Optional[Callable[[Iterable[Any], int], Iterable[str]]] = None
    read: Optional[Callable[[Any, str], Any]] = None
    load: Optional[Callable[[list], list]] = None


class _Field(NamedTuple):
    """One key of a JSON object.  A ``derive``d field is output of
    validation: ``derive(model, entities, depth)`` writes its column of JSON
    texts, it is optional on input, and a stated value, as read by the
    codec, must agree with the validated model."""

    key: str
    codec: _Codec
    derive: Optional[Callable[[m.Model, Iterable[Any], int], Iterable[str]]] = None


def _check(node: Any, path: str | tuple, fields: Iterable[_Field], keys: Container[str]) -> None:
    """Check the keys of a JSON object and the shape of each field's value:
    first any key not in ``keys``, then each field's presence and shape in
    field order."""
    if not isinstance(node, dict):
        raise _shape_error(path, "object", node)
    for key in node:
        if key not in keys:
            raise JsonSchemaError((path, "/" + _token(key)), "unexpected key")
    for key, codec, derive in fields:
        if key not in node:
            if derive is None:
                raise JsonSchemaError(path, f"missing key '{key}'")
        elif not isinstance(node[key], codec.shape):
            raise _shape_error((path, "/" + key), codec.shape.__name__, node[key])


def _token(key: str) -> str:  # a key as a JSON-pointer path token (RFC 6901)
    return key.replace("~", "~0").replace("/", "~1")


def _require(ok: bool) -> None:  # a failed column check, which _walk words
    if not ok:
        raise ValueError


def _read_opt(node: Any, path: str) -> Optional[str]:
    if node is None or isinstance(node, str):
        return node
    raise _shape_error(path, "string or null", node)


def _strings(node: list, path: str) -> list[str]:
    try:
        "".join(node)  # fails on the first item that is not a string, at C speed
    except TypeError:
        raise JsonSchemaError(path, "expected array of strings") from None
    return node


_STR = _Codec(str, lambda texts, depth: map(_quote, texts))
_OPT = _Codec(object, lambda texts, depth: ("null" if t is None else _quote(t) for t in texts), _read_opt,
              lambda column: _require(set(map(type, column)) <= {str, type(None)}) or column)
_STRINGS = _Codec(
    list,
    lambda lists, depth: (_array(list(map(_quote, s)), depth) for s in lists),
    lambda node, path: tuple(_strings(node, path)),
)


def _derived_intensions(model: m.Model, text: Callable[[str], str], stated: dict) -> dict[Optional[str], list[str]]:
    """Each concept's intension as the sorted list of ``text`` of its
    differences, in the superiors' numbering, which puts each genus first:
    its genus's list copied, its own differentiae (not in it) insorted.  A
    list of ``stated`` equal to it stands in its place, held once."""
    concepts, derived = model.concepts, {None: []}
    for cid in model.superiors.names:
        members = derived[concepts[cid].genus].copy()
        for diff in concepts[cid].differentiae:
            insort(members, text(diff))
        derived[cid] = stated[cid] if stated.get(cid) == members else members
    return derived


def _write_intensions(model: m.Model, concepts: Iterable[m.Concept], depth: int) -> Iterator[str]:
    """Each concept's derived intension as an array opened at ``depth``, one
    join over its differences quoted and indented, which keeps their order:
    ``"`` sorts before each character of an identifier (``E_NAME``)."""
    pad, close = _pad(depth + 1), _pad(depth) + "]"
    derived = _derived_intensions(model, lambda diff: pad + _quote(diff), {})
    return ("[" + ",".join(derived[c.id]) + close if derived[c.id] else "[]" for c in concepts)


def _enum(parse: Callable[[str], Any], noun: str) -> _Codec:
    """Codec of a str enum, written as its value."""

    def read(node: str, path: str) -> Any:
        try:
            return parse(node)
        except (ValueError, m.UnknownIdentifierError):
            raise JsonSchemaError(path, f"unknown {noun} {node!r}") from None

    return _Codec(str, _STR.write, read, lambda column: list(map({t: parse(t) for t in set(column)}.__getitem__, column)))


# A value is a tagged object: {"kind": "text" | "number" | "boolean", "value": ...}.
_VALUE_FIELDS = (_Field("kind", _STR), _Field("value", _Codec(object)))
_VALUE_KEYS = tuple(field.key for field in _VALUE_FIELDS)
# Each kind's JSON type of "value", and the error when it has another.
_KINDS = {
    "text": (str, "text value must be a string"),
    "boolean": (bool, "boolean value must be true or false"),
    "number": (str, "number value must be a decimal literal string"),
}


def _tagged(value: m.Value, template: str) -> str:
    if isinstance(value, str):
        return template % ('"text"', _quote(value))
    if isinstance(value, bool):
        return template % ('"boolean"', "true" if value else "false")
    return template % ('"number"', _quote(m.number_text(value)))  # a validated value has one of the kinds


def _read_value(node: Any, path: str | tuple) -> m.Value:
    _check(node, path, _VALUE_FIELDS, _VALUE_KEYS)
    kind, raw = node["kind"], node["value"]
    if kind not in _KINDS:
        raise JsonSchemaError((path, "/kind"), f"unknown value kind {kind!r}")
    if not isinstance(raw, _KINDS[kind][0]):
        raise JsonSchemaError((path, "/value"), _KINDS[kind][1])
    if kind != "number":
        return raw
    if not m.NUMBER_LITERAL.fullmatch(raw):
        raise JsonSchemaError((path, "/value"), f"invalid decimal literal {raw!r}")
    return Decimal(raw)


def _write_values(dicts: Iterable[dict[str, m.Value]], depth: int) -> Iterator[str]:
    """Each object's values as a JSON object opened at ``depth``.  Each
    ``"attribute": value`` text is made once per value object, keyed by its id,
    which the model holds for the whole write: ``1`` and ``Decimal("1.0")`` differ."""
    template, pad = _template(depth + 1, _VALUE_KEYS), _pad(depth)
    first, between, last = "{" + pad + "  ", "," + pad + "  ", pad + "}"
    texts: dict[tuple[str, int], str] = {}
    for d in dicts:
        items = []
        for k, value in sorted(d.items()):  # keys differ, so no value is compared
            text = texts.get((k, id(value)))
            if text is None:
                text = texts[k, id(value)] = _quote(k) + ": " + _tagged(value, template)
            items.append(text)
        yield first + between.join(items) + last if items else "{}"


def _load_values(dicts: list[dict]) -> list[dict[str, m.Value]]:
    """The objects' values, every tagged value checked and read at once."""
    kinds, raws = _columns(list(chain.from_iterable(map(dict.values, dicts))), _VALUE_FIELDS, {})
    _require(set(zip(kinds, map(type, raws))) <= {(kind, shape) for kind, (shape, _) in _KINDS.items()})
    numbers = set(compress(raws, map("number".__eq__, kinds)))
    _require(all(map(m.NUMBER_LITERAL.fullmatch, numbers)))
    values = map({("number", raw): Decimal(raw) for raw in numbers}.get, zip(kinds, raws), raws)
    read = list(map(dict, dicts))
    for node in read:  # copies: a fault found later walks the document as it was
        for key in node:
            node[key] = next(values)
    return read


_VALUE = _Codec(object, lambda values, depth: (_tagged(v, _template(depth, _VALUE_KEYS)) for v in values), _read_value)
_VALUES = _Codec(dict, _write_values,
                 lambda node, path: {k: _read_value(v, f"{path}/{_token(k)}") for k, v in node.items()}, _load_values)


# An expression is written with one call of _expr per level (its codecs call
# it through map, never a comprehension), as deep as the recursion limit lets
# it; it is read in one fold, each node's path a (path, token) pair: O(depth).


def _expr(expr: ClassExpression, depth: int) -> str:
    op = _OP_OF[type(expr)]
    texts = {"op": _quote(op)}
    for key, codec, _ in _OPS[op][1]:
        (texts[key],) = codec.write((getattr(expr, key),), depth + 1)
    keys = sorted(texts)
    return _template(depth, tuple(keys)) % tuple(map(texts.__getitem__, keys))


def _reach(item: tuple[Any, str | tuple]) -> list[tuple[Any, tuple]]:
    """Check an expression node as the walk reaches it; its children, with paths."""
    node, path = item
    if not isinstance(node, dict) or "op" not in node:
        raise JsonSchemaError(path, "expected expression object with 'op'")
    op = node["op"]
    if not isinstance(op, str) or op not in _OPS:
        raise JsonSchemaError((path, "/op"), f"unknown operator {op!r}")
    fields = _OPS[op][1]
    _check(node, path, fields, {"op", *(field.key for field in fields)})
    if op == "not":
        return [(node["child"], (path, "/child"))]
    return [(child, (path, f"/children/{i}")) for i, child in enumerate(node.get("children", ()))]


def _build(item: tuple[Any, str | tuple], exprs: list[ClassExpression]) -> ClassExpression:
    """Build an expression node from its children, once they are built."""
    node, path = item
    cls, fields = _OPS[node["op"]]
    if cls not in (And, Or, Not):  # a leaf: its fields are read here, the eq value among them
        return cls(*[node[k] if codec.read is None else codec.read(node[k], (path, "/" + k)) for k, codec, _ in fields])
    try:
        return Not(exprs[0]) if cls is Not else cls(tuple(exprs))
    except ValueError:  # And and Or take two children or more
        raise JsonSchemaError((path, "/children"), f"'{node['op']}' needs at least two children") from None


def _exprs(children: tuple[ClassExpression, ...], depth: int) -> str:
    return _array(list(map(_expr, children, repeat(depth + 1))), depth)


_EXPR = _Codec(object, lambda exprs, depth: map(_expr, exprs, repeat(depth)),
               lambda node, path: fold((node, path), _build, _reach))
_EXPRS = _Codec(list, lambda lists, depth: map(_exprs, lists, repeat(depth)))

# The otl-json/1 schema.  ``_OPS``: each expression operator's class and
# fields; ``_ENTITIES``: one row per entity array, in load order, with the
# entity class, the noun of duplicate-id errors (None for arrays without
# ids) and the fields.  Fields come in the order from_json checks them, and
# each key is the name of the entity's attribute that holds the value.
_OPS: dict[str, tuple[type, tuple[_Field, ...]]] = {
    "in": (InConcept, (_Field("concept", _STR),)),
    "eq": (AttrEquals, (_Field("attribute", _STR), _Field("value", _VALUE))),
    "has": (HasAttr, (_Field("attribute", _STR),)),
    "and": (And, (_Field("children", _EXPRS),)),
    "or": (Or, (_Field("children", _EXPRS),)),
    "not": (Not, (_Field("child", _EXPR),)),
}
_OP_OF = {cls: op for op, (cls, _) in _OPS.items()}

_ID, _LABEL = _Field("id", _STR), _Field("label", _STR)
_ENTITIES: tuple[tuple[str, type, Optional[str], tuple[_Field, ...]], ...] = (
    ("differences", m.Difference, "difference", (
        _ID, _LABEL,
        _Field("axis", _OPT, lambda model, differences, depth: _OPT.write(map(attrgetter("axis"), differences), depth)),
    )),
    ("axes", m.Axis, "axis", (
        _ID, _LABEL, _Field("scope", _STR), _Field("members", _STRINGS),
        _Field("exclusive", _Codec(bool, lambda flags, depth: ("true" if f else "false" for f in flags))),
    )),
    ("concepts", m.Concept, "concept", (
        _ID, _LABEL, _Field("genus", _OPT), _Field("differentiae", _STRINGS),
        _Field("intension", _Codec(list, read=_strings), _write_intensions),
    )),
    ("attributes", m.AttributeDecl, "attribute", (
        _ID, _LABEL, _Field("domain", _STR), _Field("value_kind", _enum(m.ValueKind, "value kind")),
    )),
    ("objects", m.ObjectInstance, "object", (_ID, _LABEL, _Field("concept", _STR), _Field("values", _VALUES))),
    ("parts", m.PartLink, None, (_Field("whole", _STR), _Field("part", _STR), _Field("note", _OPT))),
    ("relations", m.AssociativeLink, None, (
        _Field("relation_type", _enum(m.parse_relation_kind, "relation type")),
        _Field("source", _STR), _Field("target", _STR),
    )),
    ("terms", m.Term, None, (
        _Field("designation", _STR), _Field("language", _STR), _Field("status", _enum(m.TermStatus, "term status")),
        _Field("concept", _STR), _Field("nl_definition", _OPT),
    )),
    ("classes", m.ClassDef, "class", (_ID, _Field("expr", _EXPR))),
)


def _entities(model: m.Model, key: str, fields: tuple[_Field, ...]) -> Iterable[str]:
    """The array of one entity kind at depth 1 in pieces, written a column at
    a time: each field's values in one pass, then one ``%`` fill per entity."""
    items = getattr(model, key)
    if isinstance(items, dict):
        items = items.values()
    columns = [
        derive(model, items, 3) if derive else codec.write(map(attrgetter(field_key), items), 3)
        for field_key, codec, derive in sorted(fields)
    ]
    template = "," + _pad(2) + _template(2, tuple(field.key for field in fields))
    pieces = map(template.__mod__, zip(*columns))
    first = next(pieces, None)  # opens the array in place of its comma
    return ("[]",) if first is None else chain(("[" + first[1:],), pieces, (_pad(1) + "]",))


def _json_pieces(model: m.Model) -> Iterator[str]:
    """The text of ``to_json`` in pieces.  The class expressions, the one
    writer that can raise, are written before this returns, so a caller
    that writes the pieces as they come writes nothing when it fails."""
    model.require_validated("to_json")
    try:
        arrays = {key: _entities(model, key, fields) for key, _, _, fields in _ENTITIES}
        arrays.update(classes=list(arrays["classes"]), version=(_quote(JSON_VERSION),))
    except RecursionError:  # _expr, until it writes at any depth
        raise m.OtlError("a class expression is nested too deeply to write as JSON") from None
    *between, end = (_template(0, tuple(arrays)) + "\n").split("%s")
    return chain(*[chain((text,), arrays[key]) for text, key in zip(between, sorted(arrays))], (end,))


@m.collector_paused
def to_json(model: m.Model) -> str:
    """Canonical JSON for a validated model, including derived intensions."""
    return "".join(_json_pieces(model))


# What json.loads cannot read for its nesting (near 1000 levels on 3.10 and
# 3.11, 1500 on 3.12, 10000 on 3.13); the expression reader takes any depth.
_TOO_DEEP = "document nested too deeply"


def _columns(nodes: list, fields: tuple[_Field, ...], stated: dict[str, dict]) -> list[list]:
    """Each field's column of a list of JSON objects as the model's values:
    all keys counted, then each column's shape tested, its ids tested for
    repeats and last its values read, each at once; a derived field's
    values go to ``stated`` by id.  Raises, unworded, on any fault."""
    holders = [nodes if derive is None else [node for node in nodes if key in node] for key, _, derive in fields]
    raw = [list(map(itemgetter(key), held)) for (key, _, _), held in zip(fields, holders)]
    _require(sum(map(len, nodes)) == sum(map(len, raw)))  # no key that no field names
    for (key, codec, _), column in zip(fields, raw):
        _require(codec.shape is object or set(map(type, column)) <= {codec.shape})
        _require(key != "id" or len(set(column)) == len(column))
    columns = []
    for (key, codec, derive), held, column in zip(fields, holders, raw):
        if codec.read is not None:
            column = codec.load(column) if codec.load else list(map(codec.read, column, repeat("")))
        if derive is None:
            columns.append(column)
        else:
            stated[key] = dict(zip(map(itemgetter("id"), held), column))
    return columns


def _walk(nodes: list, key: str, noun: Optional[str], fields: tuple[_Field, ...]) -> NoReturn:
    """Raise the first fault of an entity array that failed a column check."""
    keys, ids = {field.key for field in fields}, set()
    for i, node in enumerate(nodes):
        path = f"/{key}/{i}"
        _check(node, path, fields, keys)
        if noun and node["id"] in ids:
            raise JsonSchemaError(f"{path}/id", f"duplicate {noun} '{node['id']}'")
        ids.add(node.get("id"))
        for field_key, codec, _ in fields:
            if codec.read and field_key in node:
                codec.read(node[field_key], f"{path}/{field_key}")
    raise AssertionError(f"/{key} passed the walk but not a column check")


@m.collector_paused
def from_json(text: str) -> m.Model:
    """Load a canonical JSON document and defensively re-validate it.

    Raises JsonSchemaError for shape problems (with a JSON-pointer path) and
    InvalidModelError when the rebuilt model fails validation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonSchemaError("/", f"not valid JSON: {exc}") from None
    except RecursionError:
        raise JsonSchemaError("/", _TOO_DEEP) from None
    if not isinstance(doc, dict):
        raise JsonSchemaError("/", "expected top-level object")
    top_keys = ("version", *(row[0] for row in _ENTITIES))
    for key in doc:
        if key not in top_keys:
            raise JsonSchemaError(f"/{_token(key)}", "unexpected key")
    for key in top_keys:
        if key not in doc:
            raise JsonSchemaError("/", f"missing key '{key}'")
    if doc["version"] != JSON_VERSION:
        raise JsonSchemaError("/version", f"unsupported version {doc['version']!r}")

    model = m.Model()
    stated: dict[str, dict[str, Any]] = {}  # derived fields, compared after validation
    for key, cls, noun, fields in _ENTITIES:
        nodes, store = doc[key], getattr(model, key)
        if not isinstance(nodes, list):
            raise _shape_error(f"/{key}", "list", nodes)
        try:
            columns: Optional[list[list]] = _columns(nodes, fields, stated)
        except (LookupError, TypeError, ValueError, m.OtlError):  # raised unworded by checks and readers
            columns = None
        if columns is None:
            _walk(nodes, key, noun, fields)
        entities = list(map(cls, *columns))
        if noun is None:
            store.extend(entities)
        else:
            store.update(zip(map(attrgetter("id"), entities), entities))

    validate_or_raise(model)

    # Stated derived data, when present, must agree with what validation
    # recomputed; hand-edited files drift here first.  An intension that is
    # not listed as to_json lists it, in sorted-id order, is compared sorted.
    given, derived = stated["intension"], _derived_intensions(model, str, stated["intension"])
    for i, cid in enumerate(model.concepts):
        if cid in given and given[cid] is not derived[cid] and sorted(given[cid]) != derived[cid]:
            message = f"stated intension of '{cid}' does not match the derived one"
            raise JsonSchemaError(f"/concepts/{i}/intension", message)
    for i, did in enumerate(model.differences):
        if did in stated["axis"] and model.differences[did].axis != stated["axis"][did]:
            message = f"stated axis of '{did}' does not match axis membership"
            raise JsonSchemaError(f"/differences/{i}/axis", message)
    return model


# ---------------------------------------------------------------------------
# DSL printer
# ---------------------------------------------------------------------------


def _dsl_node(node: ClassExpression, texts: list[str]) -> str:
    # Parenthesize any compound child of a compound node: precedence is
    # preserved and so is the exact tree shape (nested Or inside Or survives
    # a round-trip instead of being flattened).
    if isinstance(node, InConcept):
        return f"in {node.concept}"
    if isinstance(node, AttrEquals):
        return f"{node.attribute} = {m.render_value(node.value)}"
    if isinstance(node, HasAttr):
        return f"has {node.attribute}"
    texts = [f"({t})" if isinstance(c, (And, Or)) else t for c, t in zip(_children(node), texts)]
    if isinstance(node, Not):
        return "not " + texts[0]
    return (" and " if isinstance(node, And) else " or ").join(texts)


def _emission_order(model: m.Model) -> list[m.Concept]:
    """Concepts in the order of repeated passes over the declarations that
    each emit, in declaration order, every concept whose genus is out:
    pass(root) = 0 and pass(c) = pass(genus) + (c declared before its
    genus).  Computed in the superiors' numbering, which lists each genus
    before its children, so each pass is one lookup of the genus's."""
    concepts = model.concepts
    position = {cid: i for i, cid in enumerate(concepts)}
    passes: dict[str, int] = {}
    for cid in model.superiors.names:
        genus = concepts[cid].genus
        passes[cid] = 0 if genus is None else passes[genus] + (position[cid] < position[genus])
    return sorted(concepts.values(), key=lambda c: passes[c.id])  # stable: declaration order within a pass


@m.collector_paused
def print_dsl(model: m.Model) -> str:
    """Render a validated model as DSL source.  Parsing it back yields an
    equal model but for what the DSL cannot state: every label becomes its
    id, and part notes and differences that no concept or axis names are
    dropped; that model prints as the same text.  Declarations come out in
    dependency order: each concept after its genus, each axis right after
    its scope concept."""
    model.require_validated("print_dsl")
    lines: list[str] = []

    axes_by_scope: dict[str, list[m.Axis]] = {}
    for axis in model.axes.values():
        axes_by_scope.setdefault(axis.scope, []).append(axis)

    for concept in _emission_order(model):
        if concept.genus is not None:
            lines.append(f"concept {concept.id} := {concept.genus} + " + ", ".join(concept.differentiae))
        elif concept.differentiae:
            lines.append(f"concept {concept.id} := " + ", ".join(concept.differentiae))
        else:
            lines.append(f"concept {concept.id}")
        for axis in axes_by_scope.get(concept.id, ()):
            flag = "" if axis.exclusive else " nonexclusive"
            members = ", ".join(axis.members)
            lines.append(f"axis {axis.id} of {axis.scope}{flag} {{ {members} }}")

    for attr in model.attributes.values():
        lines.append(f"attribute {attr.id} : {attr.value_kind.value} on {attr.domain}")
    for obj in model.objects.values():
        assigns = ", ".join(f"{k} = {m.render_value(v)}" for k, v in obj.values.items())
        lines.append(f"object {obj.id} : {obj.concept}" + (f" {{ {assigns} }}" if assigns else ""))
    for part in model.parts:
        lines.append(f"part {part.whole} has {part.part}")
    for index, link in enumerate(model.relations, start=1):
        lines.append(f"relation r{index} ({link.relation_type.value}) {link.source} -> {link.target}")
    for term in model.terms:
        suffix = "" if term.nl_definition is None else f" definition {m.dsl_quote(term.nl_definition)}"
        lines.append(
            f"term {m.dsl_quote(term.designation)} ({term.language}, {term.status.value}) for {term.concept}{suffix}"
        )
    for cdef in model.classes.values():
        lines.append(f"class {cdef.id} := {{ x | {fold(cdef.expr, _dsl_node)} }}")

    lines.append("")  # the final newline, in the one join
    return "\n".join(lines)
