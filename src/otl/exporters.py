"""Serialization of validated models.

Three exchange formats:

* canonical JSON (``.otl.json``, schema version ``otl-json/1``): object keys
  sorted, arrays in declaration order, UTF-8, LF newlines, two-space indent,
  byte-stable across runs.  Number values are carried as decimal literal
  strings so nothing is lost to binary floating point.  The bytes are those
  of ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``, but
  ``to_json`` builds no ``doc``: it fills one ``%`` template per entity kind,
  whose keys are written in sorted order, with field values escaped by the
  C escaper ``json.dumps`` uses, and joins each array once.
* DSL text (``.otl``): ``print_dsl`` is the round-trip partner of the
  parser; declarations are emitted in dependency order.
* DOT (``.dot``): the concept hierarchy as a directed graph, with declared
  genus links solid, additional derived subsumption edges dashed, and
  object attachment dotted.

The JSON schema is documented in docs/schema.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from typing import Any, Iterable, Optional

from . import model as m
from .classes import And, AttrEquals, ClassExpression, HasAttr, InConcept, Not, Or
from .reasoner import compute_hierarchy, validate

JSON_VERSION = "otl-json/1"


class JsonSchemaError(m.OtlError):
    code = "E_JSON_SCHEMA"

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class ExportOptions:
    include_objects: bool = False
    include_derived_edges: bool = False
    rankdir: str = "TB"  # TB = top-down, LR = left-right

    def __post_init__(self) -> None:
        if self.rankdir not in ("TB", "LR"):
            raise ValueError(f"rankdir must be 'TB' or 'LR', got {self.rankdir!r}")


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


_quote = json.encoder.encode_basestring  # the C escaper json.dumps(ensure_ascii=False) uses


def _pad(depth: int) -> str:
    return "\n" + "  " * depth


def _template(depth: int, *keys: str) -> str:
    """``%`` template of an object opened at nesting ``depth`` whose values
    are JSON text already; ``keys`` come in sorted order."""
    pad = _pad(depth)
    return "{" + ",".join(pad + '  "' + key + '": %s' for key in keys) + pad + "}"


def _array(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Array opened at nesting ``depth`` of items that are JSON text already;
    with ``brackets="{}"``, an object of ``"key": value`` items."""
    if not items:
        return brackets
    pad = _pad(depth)
    return brackets[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + brackets[1]


def _strings(items: Iterable[str], depth: int) -> str:
    return _array(list(map(_quote, items)), depth)


def _opt(text: Optional[str]) -> str:
    return "null" if text is None else _quote(text)


def _value(value: m.Value, template: str) -> str:
    kind = m.value_kind_of(value)
    if kind is m.ValueKind.TEXT:
        return template % ('"text"', _quote(value))  # type: ignore[arg-type]
    if kind is m.ValueKind.NUMBER:
        return template % ('"number"', _quote(str(value)))
    return template % ('"boolean"', "true" if value else "false")


def _expr(expr: ClassExpression, depth: int) -> str:
    if isinstance(expr, InConcept):
        return _template(depth, "concept", "op") % (_quote(expr.concept), '"in"')
    if isinstance(expr, AttrEquals):
        value = _value(expr.value, _template(depth + 1, "kind", "value"))
        return _template(depth, "attribute", "op", "value") % (_quote(expr.attribute), '"eq"', value)
    if isinstance(expr, HasAttr):
        return _template(depth, "attribute", "op") % (_quote(expr.attribute), '"has"')
    if isinstance(expr, (And, Or)):
        children = _array([_expr(c, depth + 2) for c in expr.children], depth + 1)
        return _template(depth, "children", "op") % (children, '"and"' if isinstance(expr, And) else '"or"')
    return _template(depth, "child", "op") % (_expr(expr.child, depth + 1), '"not"')


# Entities sit at depth 2: in an array (depth 1) in the document (depth 0).
_DOCUMENT = _template(
    0, "attributes", "axes", "classes", "concepts", "differences",
    "objects", "parts", "relations", "terms", "version",
)
_DIFFERENCE = _template(2, "axis", "id", "label")
_AXIS = _template(2, "exclusive", "id", "label", "members", "scope")
_CONCEPT = _template(2, "differentiae", "genus", "id", "intension", "label")
_ATTRIBUTE = _template(2, "domain", "id", "label", "value_kind")
_OBJECT = _template(2, "concept", "id", "label", "values")
_OBJECT_VALUE = _template(4, "kind", "value")
_PART = _template(2, "note", "part", "whole")
_RELATION = _template(2, "relation_type", "source", "target")
_TERM = _template(2, "concept", "designation", "language", "nl_definition", "status")
_CLASS = _template(2, "expr", "id")


def _values(values: dict[str, m.Value]) -> str:
    return _array([_quote(k) + ": " + _value(values[k], _OBJECT_VALUE) for k in sorted(values)], 3, "{}")


def to_json(model: m.Model) -> str:
    """Canonical JSON for a validated model, including derived intensions."""
    model.require_validated("to_json")
    q = _quote
    return _DOCUMENT % (
        _array([
            _ATTRIBUTE % (q(a.domain), q(a.id), q(a.label), q(a.value_kind.value))
            for a in model.attributes.values()
        ], 1),
        _array([
            _AXIS % ("true" if a.exclusive else "false", q(a.id), q(a.label), _strings(a.members, 3), q(a.scope))
            for a in model.axes.values()
        ], 1),
        _array([_CLASS % (_expr(c.expr, 3), q(c.id)) for c in model.classes.values()], 1),
        _array([
            _CONCEPT % (
                _strings(c.differentiae, 3), _opt(c.genus), q(c.id),
                _strings(sorted(model.intensions[c.id]), 3), q(c.label),
            )
            for c in model.concepts.values()
        ], 1),
        _array([_DIFFERENCE % (_opt(d.axis), q(d.id), q(d.label)) for d in model.differences.values()], 1),
        _array([
            _OBJECT % (q(o.concept), q(o.id), q(o.label), _values(o.values))
            for o in model.objects.values()
        ], 1),
        _array([_PART % (_opt(p.note), q(p.part), q(p.whole)) for p in model.parts], 1),
        _array([
            _RELATION % (q(r.relation_type.value), q(r.source), q(r.target)) for r in model.relations
        ], 1),
        _array([
            _TERM % (q(t.concept), q(t.designation), q(t.language), _opt(t.nl_definition), q(t.status.value))
            for t in model.terms
        ], 1),
        q(JSON_VERSION),
    ) + "\n"


class _Loader:
    """Strict walker over otl-json documents; errors carry JSON-pointer paths."""

    def obj(self, node: Any, path: str, required: dict[str, type], optional: dict[str, type] | None = None) -> dict:
        if not isinstance(node, dict):
            raise JsonSchemaError(path, f"expected object, got {type(node).__name__}")
        optional = optional or {}
        for key in node:
            if key not in required and key not in optional:
                raise JsonSchemaError(f"{path}/{key}", "unexpected key")
        out = {}
        for key, expected in required.items():
            if key not in node:
                raise JsonSchemaError(path, f"missing key '{key}'")
            out[key] = self.typed(node[key], f"{path}/{key}", expected)
        for key, expected in optional.items():
            if key in node:
                out[key] = self.typed(node[key], f"{path}/{key}", expected)
        return out

    def typed(self, node: Any, path: str, expected: type) -> Any:
        if expected is object:
            return node
        if expected is str and isinstance(node, str):
            return node
        if expected is bool and isinstance(node, bool):
            return node
        if expected is list and isinstance(node, list):
            return node
        if expected is dict and isinstance(node, dict):
            return node
        raise JsonSchemaError(path, f"expected {expected.__name__}, got {type(node).__name__}")

    def opt_str(self, node: Any, path: str) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, str):
            return node
        raise JsonSchemaError(path, f"expected string or null, got {type(node).__name__}")

    def str_list(self, node: Any, path: str) -> list[str]:
        if not isinstance(node, list) or not all(isinstance(x, str) for x in node):
            raise JsonSchemaError(path, "expected array of strings")
        return node

    def value(self, node: Any, path: str) -> m.Value:
        fields = self.obj(node, path, {"kind": str, "value": object})
        kind = fields["kind"]
        raw = fields["value"]
        if kind == "text":
            if not isinstance(raw, str):
                raise JsonSchemaError(f"{path}/value", "text value must be a string")
            return raw
        if kind == "boolean":
            if not isinstance(raw, bool):
                raise JsonSchemaError(f"{path}/value", "boolean value must be true or false")
            return raw
        if kind == "number":
            if not isinstance(raw, str):
                raise JsonSchemaError(f"{path}/value", "number value must be a decimal literal string")
            if not m.NUMBER_LITERAL.fullmatch(raw):
                raise JsonSchemaError(f"{path}/value", f"invalid decimal literal {raw!r}")
            return Decimal(raw)
        raise JsonSchemaError(f"{path}/kind", f"unknown value kind {kind!r}")

    def expr(self, node: Any, path: str) -> ClassExpression:
        if not isinstance(node, dict) or "op" not in node:
            raise JsonSchemaError(path, "expected expression object with 'op'")
        op = node["op"]
        if op == "in":
            fields = self.obj(node, path, {"op": str, "concept": str})
            return InConcept(fields["concept"])
        if op == "eq":
            fields = self.obj(node, path, {"op": str, "attribute": str, "value": object})
            return AttrEquals(fields["attribute"], self.value(fields["value"], f"{path}/value"))
        if op == "has":
            fields = self.obj(node, path, {"op": str, "attribute": str})
            return HasAttr(fields["attribute"])
        if op in ("and", "or"):
            fields = self.obj(node, path, {"op": str, "children": list})
            children = [
                self.expr(child, f"{path}/children/{i}")
                for i, child in enumerate(fields["children"])
            ]
            if len(children) < 2:
                raise JsonSchemaError(f"{path}/children", f"'{op}' needs at least two children")
            return And(tuple(children)) if op == "and" else Or(tuple(children))
        if op == "not":
            fields = self.obj(node, path, {"op": str, "child": object})
            return Not(self.expr(fields["child"], f"{path}/child"))
        raise JsonSchemaError(f"{path}/op", f"unknown operator {op!r}")


_TOP_KEYS = (
    "version",
    "differences",
    "axes",
    "concepts",
    "attributes",
    "objects",
    "parts",
    "relations",
    "terms",
    "classes",
)


# json.loads (3.10, 3.11) or the expression walk (3.12 on) runs out of
# recursion depth first on nesting near the interpreter's recursion limit.
_TOO_DEEP = "document nested too deeply"


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
    loader = _Loader()
    if not isinstance(doc, dict):
        raise JsonSchemaError("/", "expected top-level object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise JsonSchemaError(f"/{key}", "unexpected key")
    for key in _TOP_KEYS:
        if key not in doc:
            raise JsonSchemaError("/", f"missing key '{key}'")
    if doc["version"] != JSON_VERSION:
        raise JsonSchemaError("/version", f"unsupported version {doc['version']!r}")

    model = m.Model()
    stated_intensions: dict[str, list[str]] = {}
    stated_axis_refs: dict[str, Optional[str]] = {}

    for i, node in enumerate(loader.typed(doc["differences"], "/differences", list)):
        path = f"/differences/{i}"
        fields = loader.obj(node, path, {"id": str, "label": str}, {"axis": object})
        if fields["id"] in model.differences:
            raise JsonSchemaError(f"{path}/id", f"duplicate difference '{fields['id']}'")
        model.differences[fields["id"]] = m.Difference(fields["id"], fields["label"])
        if "axis" in fields:
            stated_axis_refs[fields["id"]] = loader.opt_str(fields["axis"], f"{path}/axis")

    for i, node in enumerate(loader.typed(doc["axes"], "/axes", list)):
        path = f"/axes/{i}"
        fields = loader.obj(
            node,
            path,
            {"id": str, "label": str, "scope": str, "members": list, "exclusive": bool},
        )
        if fields["id"] in model.axes:
            raise JsonSchemaError(f"{path}/id", f"duplicate axis '{fields['id']}'")
        members = loader.str_list(fields["members"], f"{path}/members")
        model.axes[fields["id"]] = m.Axis(
            fields["id"], fields["label"], fields["scope"], tuple(members), fields["exclusive"]
        )

    for i, node in enumerate(loader.typed(doc["concepts"], "/concepts", list)):
        path = f"/concepts/{i}"
        fields = loader.obj(
            node,
            path,
            {"id": str, "label": str, "genus": object, "differentiae": list},
            {"intension": list},
        )
        if fields["id"] in model.concepts:
            raise JsonSchemaError(f"{path}/id", f"duplicate concept '{fields['id']}'")
        genus = loader.opt_str(fields["genus"], f"{path}/genus")
        differentiae = loader.str_list(fields["differentiae"], f"{path}/differentiae")
        model.concepts[fields["id"]] = m.Concept(
            fields["id"], fields["label"], genus, tuple(differentiae)
        )
        if "intension" in fields:
            stated_intensions[fields["id"]] = loader.str_list(
                fields["intension"], f"{path}/intension"
            )

    for i, node in enumerate(loader.typed(doc["attributes"], "/attributes", list)):
        path = f"/attributes/{i}"
        fields = loader.obj(
            node, path, {"id": str, "label": str, "domain": str, "value_kind": str}
        )
        if fields["id"] in model.attributes:
            raise JsonSchemaError(f"{path}/id", f"duplicate attribute '{fields['id']}'")
        try:
            kind = m.ValueKind(fields["value_kind"])
        except ValueError:
            raise JsonSchemaError(
                f"{path}/value_kind", f"unknown value kind {fields['value_kind']!r}"
            ) from None
        model.attributes[fields["id"]] = m.AttributeDecl(
            fields["id"], fields["label"], fields["domain"], kind
        )

    for i, node in enumerate(loader.typed(doc["objects"], "/objects", list)):
        path = f"/objects/{i}"
        fields = loader.obj(
            node, path, {"id": str, "label": str, "concept": str, "values": dict}
        )
        if fields["id"] in model.objects:
            raise JsonSchemaError(f"{path}/id", f"duplicate object '{fields['id']}'")
        values = {
            key: loader.value(val, f"{path}/values/{key}")
            for key, val in fields["values"].items()
        }
        model.objects[fields["id"]] = m.ObjectInstance(
            fields["id"], fields["label"], fields["concept"], values
        )

    for i, node in enumerate(loader.typed(doc["parts"], "/parts", list)):
        path = f"/parts/{i}"
        fields = loader.obj(node, path, {"whole": str, "part": str, "note": object})
        model.parts.append(
            m.PartLink(fields["whole"], fields["part"], loader.opt_str(fields["note"], f"{path}/note"))
        )

    for i, node in enumerate(loader.typed(doc["relations"], "/relations", list)):
        path = f"/relations/{i}"
        fields = loader.obj(
            node, path, {"relation_type": str, "source": str, "target": str}
        )
        try:
            kind = m.parse_relation_kind(fields["relation_type"])
        except m.UnknownIdentifierError:
            raise JsonSchemaError(
                f"{path}/relation_type",
                f"unknown relation type {fields['relation_type']!r}",
            ) from None
        model.relations.append(m.AssociativeLink(kind, fields["source"], fields["target"]))

    for i, node in enumerate(loader.typed(doc["terms"], "/terms", list)):
        path = f"/terms/{i}"
        fields = loader.obj(
            node,
            path,
            {
                "designation": str,
                "language": str,
                "status": str,
                "concept": str,
                "nl_definition": object,
            },
        )
        try:
            status = m.TermStatus(fields["status"])
        except ValueError:
            raise JsonSchemaError(
                f"{path}/status", f"unknown term status {fields['status']!r}"
            ) from None
        model.terms.append(
            m.Term(
                fields["designation"],
                fields["language"],
                status,
                fields["concept"],
                loader.opt_str(fields["nl_definition"], f"{path}/nl_definition"),
            )
        )

    for i, node in enumerate(loader.typed(doc["classes"], "/classes", list)):
        path = f"/classes/{i}"
        fields = loader.obj(node, path, {"id": str, "expr": object})
        if fields["id"] in model.classes:
            raise JsonSchemaError(f"{path}/id", f"duplicate class '{fields['id']}'")
        try:
            expr = loader.expr(fields["expr"], f"{path}/expr")
        except RecursionError:
            raise JsonSchemaError("/", _TOO_DEEP) from None
        model.classes[fields["id"]] = m.ClassDef(fields["id"], expr)

    diagnostics = validate(model)
    if m.has_errors(diagnostics):
        raise m.InvalidModelError(diagnostics)

    # Stated derived data, when present, must agree with what validation
    # recomputed; hand-edited files drift here first.
    for i, cid in enumerate(model.concepts):
        if cid in stated_intensions:
            stated, derived = stated_intensions[cid], model.intensions[cid]
            if len(stated) != len(derived) or derived != frozenset(stated):
                raise JsonSchemaError(
                    f"/concepts/{i}/intension",
                    f"stated intension of '{cid}' does not match the derived one",
                )
    for i, did in enumerate(model.differences):
        if did in stated_axis_refs:
            if model.differences[did].axis != stated_axis_refs[did]:
                raise JsonSchemaError(
                    f"/differences/{i}/axis",
                    f"stated axis of '{did}' does not match axis membership",
                )
    return model


# ---------------------------------------------------------------------------
# DSL printer
# ---------------------------------------------------------------------------


def _expr_to_dsl(expr: ClassExpression) -> str:
    # Parenthesize any compound child of a compound node: precedence is
    # preserved and so is the exact tree shape (nested Or inside Or survives
    # a round-trip instead of being flattened).
    def wrap(child: ClassExpression) -> str:
        text = _expr_to_dsl(child)
        if isinstance(child, (And, Or)):
            return f"({text})"
        return text

    if isinstance(expr, InConcept):
        return f"in {expr.concept}"
    if isinstance(expr, AttrEquals):
        return f"{expr.attribute} = {m.render_value(expr.value)}"
    if isinstance(expr, HasAttr):
        return f"has {expr.attribute}"
    if isinstance(expr, And):
        return " and ".join(wrap(c) for c in expr.children)
    if isinstance(expr, Or):
        return " or ".join(wrap(c) for c in expr.children)
    return f"not {wrap(expr.child)}"


def print_dsl(model: m.Model) -> str:
    """Render a validated model as DSL source; parsing it back yields a
    structurally equal model.  Declarations come out in dependency order:
    each concept after its genus, each axis right after its scope concept."""
    model.require_validated("print_dsl")
    lines: list[str] = []

    axes_by_scope: dict[str, list[m.Axis]] = {}
    for axis in model.axes.values():
        axes_by_scope.setdefault(axis.scope, []).append(axis)

    emitted: set[str] = set()
    pending = list(model.concepts.values())
    while pending:
        progressed = False
        remaining: list[m.Concept] = []
        for concept in pending:
            if concept.genus is not None and concept.genus not in emitted:
                remaining.append(concept)
                continue
            progressed = True
            emitted.add(concept.id)
            if concept.genus is not None:
                lines.append(
                    f"concept {concept.id} := {concept.genus} + "
                    + ", ".join(concept.differentiae)
                )
            elif concept.differentiae:
                lines.append(f"concept {concept.id} := " + ", ".join(concept.differentiae))
            else:
                lines.append(f"concept {concept.id}")
            for axis in axes_by_scope.get(concept.id, ()):
                flag = "" if axis.exclusive else " nonexclusive"
                members = ", ".join(axis.members)
                lines.append(f"axis {axis.id} of {axis.scope}{flag} {{ {members} }}")
        if not progressed:  # unreachable on validated models (genus resolved, acyclic)
            raise m.InvalidModelError([])
        pending = remaining

    for attr in model.attributes.values():
        lines.append(f"attribute {attr.id} : {attr.value_kind.value} on {attr.domain}")
    for obj in model.objects.values():
        if obj.values:
            assigns = ", ".join(
                f"{k} = {m.render_value(v)}" for k, v in obj.values.items()
            )
            lines.append(f"object {obj.id} : {obj.concept} {{ {assigns} }}")
        else:
            lines.append(f"object {obj.id} : {obj.concept}")
    for part in model.parts:
        lines.append(f"part {part.whole} has {part.part}")
    for index, link in enumerate(model.relations, start=1):
        lines.append(
            f"relation r{index} ({link.relation_type.value}) {link.source} -> {link.target}"
        )
    for term in model.terms:
        suffix = (
            f" definition {m.dsl_quote(term.nl_definition)}"
            if term.nl_definition is not None
            else ""
        )
        lines.append(
            f"term {m.dsl_quote(term.designation)} ({term.language}, {term.status.value}) "
            f"for {term.concept}{suffix}"
        )
    for cdef in model.classes.values():
        lines.append(f"class {cdef.id} := {{ x | {_expr_to_dsl(cdef.expr)} }}")

    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_quote(text: str) -> str:
    return '"' + _dot_escape(text) + '"'


def to_dot(model: m.Model, opts: ExportOptions | None = None) -> str:
    """DOT digraph of the concept hierarchy.

    Solid edges are declared genus links; with ``include_derived_edges`` the
    remaining covering edges of the derived poly-hierarchy appear dashed;
    with ``include_objects`` objects hang off their concept on dotted edges.
    """
    opts = opts or ExportOptions()
    hierarchy = compute_hierarchy(model)
    lines = [
        "digraph concept_system {",
        f"  rankdir={opts.rankdir};",
        "  node [shape=box];",
    ]
    for concept in model.concepts.values():
        # \n here is DOT's newline escape inside the label, not a raw newline
        diffs = ", ".join(_dot_escape(d) for d in concept.differentiae)
        label = f'"{_dot_escape(concept.label)}\\n{{{diffs}}}"'
        lines.append(f"  {_dot_quote(concept.id)} [label={label}];")
    if opts.include_objects:
        for obj in model.objects.values():
            lines.append(
                f"  {_dot_quote(obj.id)} [label={_dot_quote(obj.label)}, shape=ellipse];"
            )
    for concept in model.concepts.values():
        if concept.genus is not None:
            lines.append(f"  {_dot_quote(concept.genus)} -> {_dot_quote(concept.id)};")
    if opts.include_derived_edges:
        for concept in model.concepts.values():
            derived = hierarchy.direct_super[concept.id] - {concept.genus}
            for superordinate in sorted(derived):
                lines.append(
                    f"  {_dot_quote(superordinate)} -> {_dot_quote(concept.id)} [style=dashed];"
                )
    if opts.include_objects:
        for obj in model.objects.values():
            lines.append(
                f"  {_dot_quote(obj.concept)} -> {_dot_quote(obj.id)} [style=dotted];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
