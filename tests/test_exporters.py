"""Serialization: canonical JSON, DSL printing, DOT emission, round-trips."""

import json
import random
import re
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from otl import (
    And,
    AssociativeLink,
    AttrEquals,
    AttributeDecl,
    Axis,
    ClassDef,
    Concept,
    Difference,
    ExportOptions,
    HasAttr,
    InConcept,
    InvalidModelError,
    JsonSchemaError,
    Model,
    Not,
    ObjectInstance,
    OtlError,
    Or,
    PartLink,
    RelationKind,
    Term,
    TermStatus,
    ValueKind,
    describe_object,
    evaluate_class,
    from_json,
    parse,
    print_dsl,
    to_dot,
    to_json,
    validate,
    validate_or_raise,
)

from conftest import load_fixture
from gen import dsl_identifier, mutated_document, valid_random_model


def build(source):
    result = parse(source)
    assert result.model is not None, [d.render() for d in result.diagnostics]
    return validate_or_raise(result.model)


# -- a minimal DOT checker (no external tooling) --------------------------------

_DOT_ID = r'"(?:[^"\\]|\\.)*"'
_DOT_ATTRS = r"\s*(?:\[[^\]\[]*\])?"
_DOT_NODE = re.compile(rf"^\s*{_DOT_ID}{_DOT_ATTRS};$")
_DOT_EDGE = re.compile(rf"^\s*{_DOT_ID}\s*->\s*{_DOT_ID}{_DOT_ATTRS};$")
_DOT_PLAIN = re.compile(r"^\s*\w+\s*(=\s*\w+)?\s*(\[[^\]\[]*\])?;$")


def assert_valid_dot(text):
    lines = text.splitlines()
    assert lines[0] == "digraph concept_system {"
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert (
            _DOT_NODE.match(line) or _DOT_EDGE.match(line) or _DOT_PLAIN.match(line)
        ), f"not valid DOT: {line!r}"
    assert text.endswith("}\n")


# -- JSON -------------------------------------------------------------------------


def test_empty_model_json():
    model = build("")
    doc = json.loads(to_json(model))
    assert doc["version"] == "otl-json/1"
    assert doc["concepts"] == []
    assert doc["objects"] == []
    assert doc["classes"] == []


def test_mouse_json_matches_golden(mouse, golden_dir):
    expected = (golden_dir / "mouse.otl.json").read_text(encoding="utf-8")
    assert to_json(mouse) == expected


def test_json_byte_stable_across_runs(mouse):
    first = to_json(mouse)
    rebuilt = build(load_fixture("mouse.otl"))
    assert to_json(rebuilt) == first
    assert to_json(from_json(first)) == first


def test_json_round_trip_identity(mouse, porphyry, multi_genus, red_things):
    for model in (mouse, porphyry, multi_genus, red_things):
        assert from_json(to_json(model)) == model


def test_json_preserves_part_notes():
    model = Model()
    model.concepts["A"] = Concept("A", "A", None, ("x",))
    model.concepts["B"] = Concept("B", "B", None, ("y",))
    model.parts.append(PartLink("A", "B", "a structural note"))
    validate_or_raise(model)
    rebuilt = from_json(to_json(model))
    assert rebuilt.parts[0].note == "a structural note"
    assert rebuilt == model


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda d: d.pop("version"), "version"),
        (lambda d: d.__setitem__("version", "otl-json/9"), "/version"),
        (lambda d: d.__setitem__("extra", []), "/extra"),
        (lambda d: d["concepts"][0].pop("label"), "/concepts/0"),
        (lambda d: d["concepts"][0].__setitem__("genus", 3), "/concepts/0/genus"),
        (
            lambda d: d["objects"][0]["values"].__setitem__(
                "colour", {"kind": "number", "value": "not-a-number"}
            ),
            "/objects/0/values/colour",
        ),
        (
            lambda d: d["concepts"].append(dict(d["concepts"][0])),
            "/concepts/3/id",
        ),
        (
            lambda d: d["concepts"][1].__setitem__("intension", ["wrong"]),
            "/concepts/1/intension",
        ),
        pytest.param(
            lambda d: d["concepts"][2]["intension"].append("optical"),
            "/concepts/2/intension",
            id="duplicated-intension-entry",
        ),
        pytest.param(
            lambda d: d["concepts"][1]["intension"].clear(),
            "/concepts/1/intension",
            id="missing-intension-entry",
        ),
    ],
)
def test_json_schema_errors_carry_paths(mouse, mutate, path_fragment):
    doc = json.loads(to_json(mouse))
    mutate(doc)
    with pytest.raises(JsonSchemaError) as exc:
        from_json(json.dumps(doc))
    assert path_fragment in str(exc.value)


# -- every from_json error, pinned: type, path and message ---------------------------

_GONE = object()


def put(path, value=_GONE):
    """Mutation that sets (or, with no value, deletes) the node at a
    JSON-pointer path of the document."""
    *parents, last = path.split("/")[1:]

    def mutate(doc):
        node = doc
        for step in parents:
            node = node[int(step) if isinstance(node, list) else step]
        key = int(last) if isinstance(node, list) else last
        if value is _GONE:
            del node[key]
        else:
            node[key] = value

    return mutate


def add(array, entity):
    return lambda doc: doc[array].append(entity)


def dup(array, index):
    return lambda doc: doc[array].append(dict(doc[array][index]))


def both(*mutations):
    def mutate(doc):
        for mutation in mutations:
            mutation(doc)

    return mutate


def text(make):
    """Mutation that replaces the whole document text."""
    return lambda doc: make(json.dumps(doc))


def klass(expr, cid="Q"):
    return add("classes", {"id": cid, "expr": expr})


PART = {"whole": "PointingDevice", "part": "OpticalMouse", "note": None}
RELATION = {"relation_type": "causal", "source": "MechanicalMouse", "target": "OpticalMouse"}
HAS = {"op": "has", "attribute": "colour"}
COLOUR = "/objects/0/values/colour"


def not_chain(depth):
    """The text of a `has colour` expression under `depth` `not`s."""
    return '{"op": "not", "child": ' * depth + json.dumps(HAS) + "}" * depth


def loads_reads(text):
    """Whether json.loads reads the nesting of a text: it stops near 1000
    levels on 3.10 and 3.11, 1500 on 3.12 and 10000 on 3.13."""
    try:
        json.loads(text)
    except RecursionError:
        return False
    return True


TOO_DEEP = not_chain(3000)
# A class nested deeper than json.loads reads: from_json reads whatever
# json.loads returns, so where json.loads reads TOO_DEEP the row is deeper.
BEYOND_LOADS = not_chain(3000 if not loads_reads(TOO_DEEP) else 30000)

# name: (mutation of the mouse document, path, message)
JSON_ERRORS = {
    "not_json": (
        text(lambda t: "{version" + t[1:]),
        "/",
        "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "too_deep": (
        text(lambda t: t.replace('"classes": []', '"classes": [{"id": "Q", "expr": ' + BEYOND_LOADS + "}]")),
        "/",
        "document nested too deeply",
    ),
    "top_not_object": (text(lambda t: "[" + t + "]"), "/", "expected top-level object"),
    "top_unexpected_key": (put("/extra", []), "/extra", "unexpected key"),
    "top_missing_key": (put("/terms"), "/", "missing key 'terms'"),
    "top_unexpected_before_missing": (both(put("/terms"), put("/extra", [])), "/extra", "unexpected key"),
    "top_missing_in_load_order": (both(put("/classes"), put("/axes")), "/", "missing key 'axes'"),
    "version": (put("/version", "otl-json/9"), "/version", "unsupported version 'otl-json/9'"),
    "version_not_string": (put("/version", 1), "/version", "unsupported version 1"),
    "version_after_keys": (both(put("/version", 2), put("/terms")), "/", "missing key 'terms'"),
    **{
        f"{key}_not_array": (put(f"/{key}", {}), f"/{key}", "expected list, got dict")
        for key in (
            "differences", "axes", "concepts", "attributes", "objects", "parts", "relations", "terms", "classes"
        )
    },
    "arrays_in_load_order": (both(put("/classes", 3), put("/differences", "x")), "/differences", "expected list, got str"),
    "entity_not_object": (put("/concepts/1", "MechanicalMouse"), "/concepts/1", "expected object, got str"),
    "entity_unexpected_key": (put("/concepts/1/colour", "blue"), "/concepts/1/colour", "unexpected key"),
    "entity_missing_key": (put("/concepts/1/label"), "/concepts/1", "missing key 'label'"),
    "entity_unexpected_before_missing": (
        both(put("/concepts/1/label"), put("/concepts/1/colour", 1)),
        "/concepts/1/colour",
        "unexpected key",
    ),
    "entity_missing_in_field_order": (both(put("/terms/0/concept"), put("/terms/0/designation")), "/terms/0", "missing key 'designation'"),
    "entity_shape_before_later_missing": (
        both(put("/concepts/1/id", 7), put("/concepts/1/differentiae")),
        "/concepts/1/id",
        "expected str, got int",
    ),
    "difference_id": (put("/differences/0/id", None), "/differences/0/id", "expected str, got NoneType"),
    "difference_label": (put("/differences/1/label", 1.5), "/differences/1/label", "expected str, got float"),
    "axis_scope": (put("/axes/0/scope", []), "/axes/0/scope", "expected str, got list"),
    "axis_members": (put("/axes/0/members", "mechanical"), "/axes/0/members", "expected list, got str"),
    "axis_exclusive": (put("/axes/0/exclusive", "true"), "/axes/0/exclusive", "expected bool, got str"),
    "axis_exclusive_int": (put("/axes/0/exclusive", 1), "/axes/0/exclusive", "expected bool, got int"),
    "concept_differentiae": (put("/concepts/2/differentiae", {}), "/concepts/2/differentiae", "expected list, got dict"),
    "concept_intension": (put("/concepts/1/intension", "mechanical"), "/concepts/1/intension", "expected list, got str"),
    "attribute_domain": (put("/attributes/0/domain", 3), "/attributes/0/domain", "expected str, got int"),
    "attribute_value_kind": (put("/attributes/0/value_kind", True), "/attributes/0/value_kind", "expected str, got bool"),
    "object_concept": (put("/objects/0/concept", ["OpticalMouse"]), "/objects/0/concept", "expected str, got list"),
    "object_values": (put("/objects/0/values", []), "/objects/0/values", "expected dict, got list"),
    "part_part": (add("parts", {**PART, "part": 3}), "/parts/0/part", "expected str, got int"),
    "part_missing_note": (add("parts", {"whole": "A", "part": "B"}), "/parts/0", "missing key 'note'"),
    "relation_source": (add("relations", {**RELATION, "source": None}), "/relations/0/source", "expected str, got NoneType"),
    "term_status": (put("/terms/0/status", 0), "/terms/0/status", "expected str, got int"),
    "term_language": (put("/terms/0/language", {}), "/terms/0/language", "expected str, got dict"),
    "class_id": (klass(HAS, cid=1), "/classes/0/id", "expected str, got int"),
    "class_missing_expr": (add("classes", {"id": "Q"}), "/classes/0", "missing key 'expr'"),
    "duplicate_difference": (dup("differences", 0), "/differences/2/id", "duplicate difference 'mechanical'"),
    "duplicate_axis": (dup("axes", 0), "/axes/1/id", "duplicate axis 'DetectionMechanism'"),
    "duplicate_concept": (dup("concepts", 0), "/concepts/3/id", "duplicate concept 'PointingDevice'"),
    "duplicate_attribute": (dup("attributes", 0), "/attributes/1/id", "duplicate attribute 'colour'"),
    "duplicate_object": (dup("objects", 0), "/objects/1/id", "duplicate object 'thisOpticalMouse'"),
    "duplicate_class": (both(klass(HAS), klass(HAS)), "/classes/1/id", "duplicate class 'Q'"),
    "shape_before_duplicate": (
        both(dup("concepts", 0), put("/concepts/3/label", 3)),
        "/concepts/3/label",
        "expected str, got int",
    ),
    "duplicate_before_deep_read": (
        both(dup("concepts", 0), put("/concepts/3/genus", 3)),
        "/concepts/3/id",
        "duplicate concept 'PointingDevice'",
    ),
    "concept_genus": (put("/concepts/1/genus", 3), "/concepts/1/genus", "expected string or null, got int"),
    "difference_axis": (put("/differences/0/axis", 3), "/differences/0/axis", "expected string or null, got int"),
    "part_note": (add("parts", {**PART, "note": 3}), "/parts/0/note", "expected string or null, got int"),
    "term_nl_definition": (put("/terms/0/nl_definition", []), "/terms/0/nl_definition", "expected string or null, got list"),
    "axis_members_strings": (put("/axes/0/members", ["mechanical", 1]), "/axes/0/members", "expected array of strings"),
    "concept_differentiae_strings": (put("/concepts/1/differentiae", [None]), "/concepts/1/differentiae", "expected array of strings"),
    "concept_intension_strings": (put("/concepts/1/intension", [["mechanical"]]), "/concepts/1/intension", "expected array of strings"),
    "deep_reads_in_field_order": (
        both(put("/concepts/1/intension", [1]), put("/concepts/1/differentiae", [1]), put("/concepts/1/genus", 1)),
        "/concepts/1/genus",
        "expected string or null, got int",
    ),
    "value_kind": (put("/attributes/0/value_kind", "colour"), "/attributes/0/value_kind", "unknown value kind 'colour'"),
    "term_status_unknown": (put("/terms/0/status", "obsolete"), "/terms/0/status", "unknown term status 'obsolete'"),
    "term_status_before_nl_definition": (
        both(put("/terms/0/status", "obsolete"), put("/terms/0/nl_definition", 1)),
        "/terms/0/status",
        "unknown term status 'obsolete'",
    ),
    "relation_type": (add("relations", {**RELATION, "relation_type": "caused_by"}), "/relations/0/relation_type", "unknown relation type 'caused_by'"),
    "relation_alias_accepted": (
        both(add("relations", {**RELATION, "relation_type": "cause_effect"}), put("/terms/0/status", "obsolete")),
        "/terms/0/status",
        "unknown term status 'obsolete'",
    ),
    "value_not_object": (put(COLOUR, "blue"), COLOUR, "expected object, got str"),
    "value_unexpected_key": (put(COLOUR + "/unit", "cm"), COLOUR + "/unit", "unexpected key"),
    "value_missing_kind": (put(COLOUR + "/kind"), COLOUR, "missing key 'kind'"),
    "value_missing_value": (put(COLOUR + "/value"), COLOUR, "missing key 'value'"),
    "value_kind_not_string": (put(COLOUR + "/kind", 1), COLOUR + "/kind", "expected str, got int"),
    "value_kind_unknown": (put(COLOUR + "/kind", "colour"), COLOUR + "/kind", "unknown value kind 'colour'"),
    "value_text": (put(COLOUR + "/value", 3), COLOUR + "/value", "text value must be a string"),
    "value_boolean": (
        put(COLOUR, {"kind": "boolean", "value": "yes"}),
        COLOUR + "/value",
        "boolean value must be true or false",
    ),
    "value_number_not_string": (
        put(COLOUR, {"kind": "number", "value": 3}),
        COLOUR + "/value",
        "number value must be a decimal literal string",
    ),
    "value_number_literal": (
        put(COLOUR, {"kind": "number", "value": "3e2"}),
        COLOUR + "/value",
        "invalid decimal literal '3e2'",
    ),
    "values_in_key_order": (
        both(put("/objects/0/values/weight", 3), put(COLOUR + "/value", 3)),
        COLOUR + "/value",
        "text value must be a string",
    ),
    "expr_not_object": (klass("has colour"), "/classes/0/expr", "expected expression object with 'op'"),
    "expr_without_op": (klass({"attribute": "colour"}), "/classes/0/expr", "expected expression object with 'op'"),
    "expr_unknown_op": (klass({"op": "xor"}), "/classes/0/expr/op", "unknown operator 'xor'"),
    "expr_op_not_string": (klass({"op": 3}), "/classes/0/expr/op", "unknown operator 3"),
    "expr_op_unhashable": (klass({"op": ["in"]}), "/classes/0/expr/op", "unknown operator ['in']"),
    "expr_unexpected_key": (klass({**HAS, "concept": "A"}), "/classes/0/expr/concept", "unexpected key"),
    "expr_missing_key": (klass({"op": "in"}), "/classes/0/expr", "missing key 'concept'"),
    "expr_in_shape": (klass({"op": "in", "concept": 3}), "/classes/0/expr/concept", "expected str, got int"),
    "expr_has_shape": (klass({"op": "has", "attribute": None}), "/classes/0/expr/attribute", "expected str, got NoneType"),
    "expr_eq_missing_value": (klass({"op": "eq", "attribute": "colour"}), "/classes/0/expr", "missing key 'value'"),
    "expr_eq_value": (
        klass({"op": "eq", "attribute": "colour", "value": {"kind": "text", "value": 1}}),
        "/classes/0/expr/value/value",
        "text value must be a string",
    ),
    "expr_eq_value_object": (
        klass({"op": "eq", "attribute": "colour", "value": "blue"}),
        "/classes/0/expr/value",
        "expected object, got str",
    ),
    "expr_children_shape": (klass({"op": "or", "children": {}}), "/classes/0/expr/children", "expected list, got dict"),
    "expr_and_one_child": (klass({"op": "and", "children": [HAS]}), "/classes/0/expr/children", "'and' needs at least two children"),
    "expr_or_no_children": (klass({"op": "or", "children": []}), "/classes/0/expr/children", "'or' needs at least two children"),
    "expr_child_before_count": (
        klass({"op": "and", "children": [{"op": "xor"}]}),
        "/classes/0/expr/children/0/op",
        "unknown operator 'xor'",
    ),
    "expr_not_missing_child": (klass({"op": "not"}), "/classes/0/expr", "missing key 'child'"),
    "expr_not_child": (klass({"op": "not", "child": {"op": "in"}}), "/classes/0/expr/child", "missing key 'concept'"),
    "expr_nested_path": (
        klass({"op": "and", "children": [HAS, {"op": "not", "child": {"op": "or", "children": [HAS, {"op": "has"}]}}]}),
        "/classes/0/expr/children/1/child/children/1",
        "missing key 'attribute'",
    ),
    "top_unexpected_key_escaped": (lambda doc: doc.update({"a~b/c": []}), "/a~0b~1c", "unexpected key"),
    "entity_unexpected_key_escaped": (
        lambda doc: doc["concepts"][0].update({"a/b": 1}),
        "/concepts/0/a~1b",
        "unexpected key",
    ),
    "value_key_escaped": (
        lambda doc: doc["objects"][0]["values"].update({"x~/y": {"kind": "hue", "value": "1"}}),
        "/objects/0/values/x~0~1y/kind",
        "unknown value kind 'hue'",
    ),
    "stale_intension": (
        put("/concepts/1/intension", ["optical"]),
        "/concepts/1/intension",
        "stated intension of 'MechanicalMouse' does not match the derived one",
    ),
    "stale_axis": (
        put("/differences/1/axis", None),
        "/differences/1/axis",
        "stated axis of 'optical' does not match axis membership",
    ),
    "stale_intension_before_axis": (
        both(put("/differences/0/axis", "K"), put("/concepts/2/intension", [])),
        "/concepts/2/intension",
        "stated intension of 'OpticalMouse' does not match the derived one",
    ),
}


@pytest.mark.parametrize("name", sorted(JSON_ERRORS))
def test_json_errors_carry_exact_paths_and_messages(mouse, name):
    mutate, path, message = JSON_ERRORS[name]
    doc = json.loads(to_json(mouse))
    replaced = mutate(doc)
    with pytest.raises(JsonSchemaError) as exc:
        from_json(json.dumps(doc) if replaced is None else replaced)
    assert (type(exc.value), exc.value.path, str(exc.value)) == (JsonSchemaError, path, f"{path}: {message}")


# -- the same errors from long arrays ------------------------------------------------

LONG = 2000
_ENTITY_PATH = re.compile(r"/([a-z]+)/([0-9]+)(.*)")

# Well-formed entity k of each array, none of them declaring a mouse name.
# Padding concepts also adds their differences, so a padded document still
# validates.
FILLERS = {
    "differences": lambda k: {"id": f"pad{k}", "label": f"pad{k}", "axis": None},
    "axes": lambda k: {
        "id": f"Pad{k}", "label": f"Pad{k}", "scope": "PointingDevice", "members": ["mechanical", "optical"],
        "exclusive": True,
    },
    "concepts": lambda k: {
        "id": f"Pad{k}", "label": f"Pad{k}", "genus": None, "differentiae": [f"pad{k}"], "intension": [f"pad{k}"],
    },
    "attributes": lambda k: {"id": f"pad{k}", "label": f"pad{k}", "domain": "PointingDevice", "value_kind": "number"},
    "objects": lambda k: {
        "id": f"pad{k}", "label": f"pad{k}", "concept": "PointingDevice",
        "values": {"colour": {"kind": "text", "value": f"shade {k}"}},
    },
    "parts": lambda k: {**PART, "note": f"note {k}"},
    "relations": lambda k: RELATION,
    "terms": lambda k: {
        "designation": f"pad {k}", "language": "en", "status": "admitted", "concept": "PointingDevice",
        "nl_definition": None,
    },
    "classes": lambda k: {"id": f"Pad{k}", "expr": HAS},
}


def lengthen(doc, array, last=None):
    """Append fillers to an array of the document until it holds LONG
    entities, the last of them `last` when given."""
    nodes = doc[array]
    count = LONG - len(nodes) - (last is not None)
    nodes.extend(map(FILLERS[array], range(count)))
    if array == "concepts":
        doc["differences"].extend(map(FILLERS["differences"], range(count)))
    if last is not None:
        nodes.append(last)


@pytest.mark.parametrize("name", sorted(JSON_ERRORS))
def test_json_errors_are_the_same_from_the_last_entity_of_a_long_array(mouse, name):
    # the edited entity is moved to the end of its array, after fillers that
    # make the array LONG long; a fault outside any entity is replayed on a
    # document whose concepts are LONG long
    mutate, path, message = JSON_ERRORS[name]
    doc = json.loads(to_json(mouse))
    entity = _ENTITY_PATH.fullmatch(path)
    if entity is None:
        lengthen(doc, "concepts")
        replaced = mutate(doc)
    else:
        replaced = mutate(doc)
        array, index, rest = entity[1], int(entity[2]), entity[3]
        lengthen(doc, array, last=doc[array].pop(index))
        path = f"/{array}/{LONG - 1}{rest}"
    with pytest.raises(JsonSchemaError) as exc:
        from_json(json.dumps(doc) if replaced is None else replaced)
    assert (type(exc.value), exc.value.path, str(exc.value)) == (JsonSchemaError, path, f"{path}: {message}")


def test_a_lengthened_document_loads(mouse):
    # the fillers of axes, parts and relations break model rules, so only
    # the arrays whose fillers load are lengthened
    doc = json.loads(to_json(mouse))
    for array in ("concepts", "attributes", "objects", "terms", "classes"):
        lengthen(doc, array)
    model = from_json(json.dumps(doc))
    assert {array: len(getattr(model, array)) for array in FILLERS} == {
        **{array: LONG for array in FILLERS}, "differences": LONG - 1, "axes": 1, "parts": 0, "relations": 0,
    }


# Two faults in one document: the one in the earlier array, or the earlier
# entity of one array, is reported.
TWO_FAULTS = {
    "read_then_key": (
        both(put("/concepts/1000/genus", 3), put("/concepts/1001/colour", "blue")),
        "/concepts/1000/genus",
        "expected string or null, got int",
    ),
    "value_read_then_key": (
        both(put("/objects/1000/values/colour/kind", "hue"), put("/objects/1001/colour", "blue")),
        "/objects/1000/values/colour/kind",
        "unknown value kind 'hue'",
    ),
    "enum_read_then_missing": (
        both(put("/terms/1000/status", "obsolete"), put("/terms/1001/concept")),
        "/terms/1000/status",
        "unknown term status 'obsolete'",
    ),
    "key_then_read": (
        both(put("/concepts/1000/colour", "blue"), put("/concepts/1001/genus", 3)),
        "/concepts/1000/colour",
        "unexpected key",
    ),
    "concept_shape_then_object_duplicate": (
        both(put("/concepts/1999/label", 3), put("/objects/1/id", "thisOpticalMouse")),
        "/concepts/1999/label",
        "expected str, got int",
    ),
    "difference_duplicate_then_concept_shape": (
        both(put("/differences/1500/id", "pad3"), put("/concepts/10/label", 3)),
        "/differences/1500/id",
        "duplicate difference 'pad3'",
    ),
    "tagged_value_then_term_enum": (
        both(put("/objects/1500/values/colour", {"kind": "number", "value": "1e3"}), put("/terms/10/status", "obsolete")),
        "/objects/1500/values/colour/value",
        "invalid decimal literal '1e3'",
    ),
    "tagged_value_then_relation_enum": (
        both(put("/objects/1999/values/colour/value", True), put("/relations/0/relation_type", "caused_by")),
        "/objects/1999/values/colour/value",
        "text value must be a string",
    ),
}


@pytest.mark.parametrize("name", sorted(TWO_FAULTS))
def test_json_reports_the_earlier_of_two_faults(mouse, name):
    mutate, path, message = TWO_FAULTS[name]
    doc = json.loads(to_json(mouse))
    for array in ("concepts", "objects", "terms"):
        lengthen(doc, array)
    doc["relations"].append(RELATION)
    mutate(doc)
    with pytest.raises(JsonSchemaError) as exc:
        from_json(json.dumps(doc))
    assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")


@pytest.mark.parametrize("deep_first", [False, True])
def test_json_reports_a_fault_before_an_expression_too_deep_to_read(mouse, deep_first):
    # where json.loads reads the nesting (3.13 on), so does from_json, and
    # the other class's fault is reported; where it cannot, the document is
    # too deep
    doc = json.loads(to_json(mouse))
    classes = [{"id": "A", "expr": HAS, "extra": 1}, {"id": "B", "expr": "DEEP"}]
    doc["classes"] = classes[::-1] if deep_first else classes
    text = json.dumps(doc).replace('"DEEP"', TOO_DEEP)
    if loads_reads(text):
        expected = (f"/classes/{int(deep_first)}/extra", "unexpected key")
    else:
        expected = ("/", "document nested too deeply")
    with pytest.raises(JsonSchemaError) as exc:
        from_json(text)
    assert (exc.value.path, str(exc.value)) == (expected[0], f"{expected[0]}: {expected[1]}")


def test_json_stated_intension_may_list_its_differences_in_any_order(porphyry):
    doc = json.loads(to_json(porphyry))
    for concept in doc["concepts"]:
        concept["intension"].reverse()
    assert max(len(c["intension"]) for c in doc["concepts"]) >= 2
    assert from_json(json.dumps(doc)) == porphyry


WEIGHED = "concept A := x\nattribute weight : number on A\nobject o : A { weight = 3 }\n"


def _with_weight(raw):
    doc = json.loads(to_json(build(WEIGHED)))
    doc["objects"][0]["values"]["weight"]["value"] = raw
    return json.dumps(doc)


@pytest.mark.parametrize(
    "raw",
    [
        "sNaN", "NaN", "Infinity", "-Infinity", "1e5", " 7 ", "+3", "1_000", "3.", ".5", "-", "", "٣",
        "007", "-01", "00.5",
    ],
)
def test_json_number_strings_outside_the_dsl_grammar_are_schema_errors(raw):
    with pytest.raises(JsonSchemaError) as exc:
        from_json(_with_weight(raw))
    assert exc.value.path == "/objects/0/values/weight/value"


@pytest.mark.parametrize("raw", ["-3.5", "0", "-0", "10", "12", "0.25"])
def test_json_number_strings_in_the_dsl_grammar_load_and_round_trip(raw):
    model = from_json(_with_weight(raw))
    assert str(model.objects["o"].values["weight"]) == raw
    assert parse(print_dsl(model)).diagnostics == []
    assert json.loads(to_json(model))["objects"][0]["values"]["weight"]["value"] == raw


@pytest.mark.parametrize("literal", ["0.0000001", "-0.0000000", "0.00000010"])
@pytest.mark.parametrize("where", ["object o : A { n = %s }", "class K := { x | n = %s }"], ids=["object", "class"])
def test_small_numbers_print_as_the_literal_they_were_read_from(literal, where):
    model = build("concept A := x\nattribute n : number on A\n" + where % literal)
    dsl = print_dsl(model)
    assert f"n = {literal}" in dsl
    assert build(dsl) == model and print_dsl(build(dsl)) == dsl
    text = to_json(model)
    assert f'"value": "{literal}"' in text
    assert to_json(from_json(text)) == text
    if "o" in model.objects:
        assert describe_object(model, "o") == f"o : A / n = {literal}"


def test_json_nested_too_deeply_is_a_schema_error(mouse):
    # where json.loads reads the nesting (3.13 on), from_json reads it too
    doc = json.loads(to_json(mouse))
    doc["classes"] = [{"id": "Deep", "expr": "EXPR"}]
    text = json.dumps(doc).replace('"EXPR"', TOO_DEEP)
    if loads_reads(text):
        expected = HasAttr("colour")
        for _ in range(3000):
            expected = Not(expected)
        assert from_json(text).classes["Deep"].expr == expected
    else:
        with pytest.raises(JsonSchemaError) as exc:
            from_json(text)
        assert exc.value.path == "/"


@pytest.mark.parametrize("deep_first", [False, True])
def test_json_export_of_a_class_too_deep_to_write_raises_an_otl_error(deep_first):
    # the writer makes a call per nesting level; the first class is written
    # while the arrays are set up, the others after
    classes = ["class Shallow := { x | has colour }", "class Deep := { x | " + "not " * 1200 + "has colour }"]
    model = build("concept A := x\nattribute colour : text on A\n" + "\n".join(classes[::-1] if deep_first else classes))
    try:
        text = to_json(model)
    except OtlError as exc:
        assert str(exc) == "a class expression is nested too deeply to write as JSON"
    else:  # once the writer reaches any depth
        assert sorted(c["id"] for c in json.loads(text)["classes"]) == ["Deep", "Shallow"]


def not_nodes(depth, leaf):
    """A `leaf` expression object under `depth` `not` objects."""
    for _ in range(depth):
        leaf = {"op": "not", "child": leaf}
    return leaf


def test_json_expressions_are_read_at_any_depth(mouse, monkeypatch):
    # json.loads stands in for one that reads any nesting, as 3.13's reads
    # more than the interpreter's recursion limit
    doc = json.loads(to_json(mouse))
    monkeypatch.setattr(json, "loads", lambda text: doc)
    doc["classes"] = [{"id": "Deep", "expr": not_nodes(5000, HAS)}]
    tracemalloc.start()
    try:
        model = from_json("the document above")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000  # a path a node, each spelt out, held 75 MB
    assert model.validated and validate(model) == []
    coloured = {oid for oid, obj in model.objects.items() if "colour" in obj.values}
    assert evaluate_class(model, model.classes["Deep"].expr) == coloured
    assert print_dsl(model).endswith("\nclass Deep := { x | " + "not " * 5000 + "has colour }\n")
    doc["classes"] = [{"id": "Deep", "expr": not_nodes(5000, {"op": "has"})}]
    with pytest.raises(JsonSchemaError) as exc:
        from_json("the document above")
    assert str(exc.value) == "/classes/0/expr" + "/child" * 5000 + ": missing key 'attribute'"


def test_json_not_json_at_all():
    with pytest.raises(JsonSchemaError):
        from_json("{not json")


def test_json_accepts_relation_alias_and_normalizes():
    source = "concept A := x\nconcept B := y\nrelation r1 (causal) A -> B\n"
    model = build(source)
    doc = json.loads(to_json(model))
    assert doc["relations"][0]["relation_type"] == "causal"
    doc["relations"][0]["relation_type"] = "cause_effect"
    rebuilt = from_json(json.dumps(doc))
    assert rebuilt == model
    assert json.loads(to_json(rebuilt))["relations"][0]["relation_type"] == "causal"


def test_from_json_revalidates():
    doc = {
        "version": "otl-json/1",
        "differences": [],
        "axes": [],
        "concepts": [
            {"id": "G", "label": "G", "genus": None, "differentiae": ["g"]},
            {"id": "S", "label": "S", "genus": "G", "differentiae": []},
        ],
        "attributes": [],
        "objects": [],
        "parts": [],
        "relations": [],
        "terms": [],
        "classes": [],
    }
    with pytest.raises(InvalidModelError) as exc:
        from_json(json.dumps(doc))
    assert any(d.code == "E_NO_DELIMITING" for d in exc.value.diagnostics)


# -- DSL printer --------------------------------------------------------------------


def test_print_dsl_empty_model():
    assert print_dsl(build("")) == ""


def test_print_dsl_round_trips_fixtures(mouse, porphyry, multi_genus, red_things, mouse_parts, terms_model):
    for model in (mouse, porphyry, multi_genus, red_things, mouse_parts, terms_model):
        text = print_dsl(model)
        result = parse(text, "roundtrip.otl")
        assert result.model is not None, [d.render() for d in result.diagnostics]
        validate(result.model)
        assert result.model == model


def test_print_dsl_drops_what_the_dsl_cannot_state(mouse):
    # the DSL has no syntax for labels, part notes or a difference that no
    # concept or axis names
    doc = json.loads(to_json(mouse))
    doc["parts"].append({"note": None, "part": "OpticalMouse", "whole": "PointingDevice"})
    expected = from_json(json.dumps(doc))
    doc["concepts"][0]["label"] = "Pointing device"
    doc["parts"][0]["note"] = "a note"
    doc["differences"].append({"axis": None, "id": "zzz", "label": "zzz"})
    model = from_json(json.dumps(doc))
    text = print_dsl(model)
    reparsed = validate_or_raise(parse(text).model)
    assert reparsed != model
    assert reparsed == expected
    assert reparsed.concepts["PointingDevice"].label == "PointingDevice"
    assert reparsed.parts == [PartLink("PointingDevice", "OpticalMouse")]
    assert "zzz" not in reparsed.differences
    assert print_dsl(reparsed) == text


def test_print_dsl_emits_dependencies_first():
    # declared in reverse order on purpose; the printer must reorder
    model = build(
        "concept Specific := Generic + s\n"
        "concept Generic\n"
        "axis K of Generic { s, t }\n"
    )
    text = print_dsl(model)
    lines = text.splitlines()
    assert lines.index("concept Generic") < lines.index(
        "concept Specific := Generic + s"
    )
    assert lines.index("concept Generic") < lines.index(
        "axis K of Generic { s, t }"
    )


def reference_emission_order(model):
    """Concept ids in the order of print_dsl's former emission loop: passes
    over the pending concepts in declaration order, each emitting every
    concept whose genus is already out."""
    emitted, pending = [], list(model.concepts.values())
    while pending:
        remaining = []
        for concept in pending:
            if concept.genus is not None and concept.genus not in emitted:
                remaining.append(concept)
            else:
                emitted.append(concept.id)
        assert len(remaining) < len(pending)
        pending = remaining
    return emitted


@given(st.integers(min_value=0, max_value=10_000))
def test_print_dsl_emits_concepts_in_the_order_of_the_pass_loop(seed):
    model = valid_random_model(seed, max_concepts=30, with_extras=True)
    ids = list(model.concepts)
    random.Random(seed).shuffle(ids)
    model.concepts = {cid: model.concepts[cid] for cid in ids}
    validate_or_raise(model)
    lines = print_dsl(model).splitlines()
    assert [line.split()[1] for line in lines if line.startswith("concept ")] == reference_emission_order(model)


def test_print_dsl_quotes_strings():
    model = build('concept A := x\nterm "say \\"hi\\"" (en, preferred) for A\n')
    text = print_dsl(model)
    assert 'term "say \\"hi\\"" (en, preferred) for A' in text


# -- DOT ------------------------------------------------------------------------------


def test_dot_single_root():
    text = to_dot(build("concept Only\n"))
    assert_valid_dot(text)
    assert text.count("->") == 0
    assert '"Only" [label="Only\\n{}"];' in text


def test_dot_mouse_counts(mouse, golden_dir):
    text = to_dot(mouse)
    assert_valid_dot(text)
    assert text == (golden_dir / "mouse.dot").read_text(encoding="utf-8")
    node_lines = [l for l in text.splitlines() if "[label=" in l]
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert len(node_lines) == 3
    assert len(edge_lines) == 2
    assert all("style" not in l for l in edge_lines)  # solid genus links


def test_dot_derived_edges_dashed(multi_genus):
    plain = to_dot(multi_genus)
    assert '"C2" -> "C3"' not in plain
    derived = to_dot(multi_genus, ExportOptions(include_derived_edges=True))
    assert_valid_dot(derived)
    assert '"C1" -> "C3";' in derived
    assert '"C2" -> "C3" [style=dashed];' in derived


def test_dot_objects_dotted(mouse, golden_dir):
    text = to_dot(mouse, ExportOptions(include_objects=True, include_derived_edges=True))
    assert text == (golden_dir / "mouse_tree_full.dot").read_text(encoding="utf-8")
    assert '"OpticalMouse" -> "thisOpticalMouse" [style=dotted];' in text
    assert "shape=ellipse" in text


def test_export_options_validate_rankdir():
    assert to_dot(build("concept A\n"), ExportOptions(rankdir="LR")).splitlines()[1] == "  rankdir=LR;"
    with pytest.raises(ValueError):
        ExportOptions(rankdir="diagonal")


# -- properties -----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_identities_on_random_models(seed):
    model = valid_random_model(seed, max_concepts=15, with_extras=True)
    assert from_json(to_json(model)) == model
    text = print_dsl(model)
    result = parse(text, "rt.otl")
    assert result.model is not None, [d.render() for d in result.diagnostics]
    validate(result.model)
    assert result.model == model


@given(st.integers(min_value=0, max_value=10_000))
def test_dot_is_always_valid(seed):
    model = valid_random_model(seed, max_concepts=12, with_extras=True)
    assert_valid_dot(
        to_dot(model, ExportOptions(include_objects=True, include_derived_edges=True))
    )


# -- the canonical layout, against the stdlib encoder as an independent oracle ------


def stdlib_layout(text):
    return json.dumps(json.loads(text), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@given(st.integers(min_value=0, max_value=10_000))
def test_json_layout_is_the_stdlib_layout_on_random_models(seed):
    text = to_json(valid_random_model(seed, max_concepts=15, with_extras=True))
    assert text == stdlib_layout(text)
    for concept in json.loads(text)["concepts"]:
        assert concept["intension"] == sorted(concept["intension"])


def test_json_layout_is_the_stdlib_layout_on_fixtures_and_sparse_models(
    mouse, porphyry, multi_genus, red_things, mouse_parts, terms_model
):
    sparse = Model()
    sparse.concepts["A"] = Concept("A", "A")
    sparse.attributes["w"] = AttributeDecl("w", "w", "A", ValueKind.TEXT)
    sparse.objects["o"] = ObjectInstance("o", "o", "A")
    validate_or_raise(sparse)
    # a genus chain's intensions are dense: they are written from the
    # numbering through compress, not by walking their bits
    chain = build("concept C0\n" + "".join(f"concept C{i} := C{i - 1} + d{i}\n" for i in range(1, 300)))
    models = (build(""), sparse, mouse, porphyry, multi_genus, red_things, mouse_parts, terms_model, chain)
    for model in models:
        text = to_json(model)
        assert text == stdlib_layout(text)
        assert from_json(text) == model


_AWKWARD = st.text(alphabet='"\\\n\t\x00\x7f\u2028é€𝄞 a', max_size=6) | st.text(max_size=4)


@given(st.lists(_AWKWARD, min_size=11, max_size=11), st.integers(-10**20, 10**20))
def test_json_layout_is_the_stdlib_layout_on_awkward_strings(texts, whole):
    model = Model()
    model.differences["x"] = Difference("x", texts[0])
    model.differences["y"] = Difference("y", texts[1])
    model.concepts["A"] = Concept("A", texts[2])
    model.concepts["B"] = Concept("B", texts[3], "A", ("x",))
    model.concepts["C"] = Concept("C", "C", "A", ("y",))
    model.axes["K"] = Axis("K", texts[4], "A", ("x", "y"), False)
    kinds = {"t": ValueKind.TEXT, "n": ValueKind.NUMBER, "d": ValueKind.NUMBER, "b": ValueKind.BOOLEAN}
    for aid, kind in kinds.items():
        model.attributes[aid] = AttributeDecl(aid, texts[5], "A", kind)
    model.objects["o"] = ObjectInstance(
        "o", texts[6], "B", {"t": texts[7], "n": whole, "d": Decimal("-0.25"), "b": False}
    )
    model.objects["p"] = ObjectInstance("p", "p", "C")
    model.parts.append(PartLink("B", "C", texts[8]))
    model.relations.append(AssociativeLink(RelationKind.CAUSAL, "B", "C"))
    model.terms.append(Term(texts[9] or "t", "en", TermStatus.PREFERRED, "B", texts[10]))
    model.terms.append(Term("u", "en", TermStatus.ADMITTED, "C"))
    expr = Or((AttrEquals("t", texts[7]), Not(And((InConcept("B"), HasAttr("b")))), AttrEquals("b", False)))
    model.classes["Q"] = ClassDef("Q", expr)
    validate_or_raise(model)
    text = to_json(model)
    assert text == stdlib_layout(text)
    assert from_json(text) == model


# -- literals spelt apart stay apart -------------------------------------------------
#
# Values equal under == but spelt differently (1, 1.0, -0 and 0, true and 1,
# the text "1") must each keep their spelling through the parser, to_json,
# from_json and print_dsl, even where a writer or reader shares the work of
# equal spellings.  (object, attribute, DSL literal, API value, JSON kind,
# JSON value); the literal 1 and the text "1" are each given to two
# attributes, and o4's block spans lines, so the token reader reads it.

_SPELLINGS = (
    ("o1", "n", "1", 1, "number", "1"),
    ("o1", "m", "1", Decimal("1"), "number", "1"),
    ("o1", "t", '"1"', "1", "text", "1"),
    ("o1", "u", '"true"', "true", "text", "true"),
    ("o1", "b", "true", True, "boolean", True),
    ("o2", "n", "1.0", Decimal("1.0"), "number", "1.0"),
    ("o2", "m", "0", Decimal("0"), "number", "0"),
    ("o2", "t", '"true"', "true", "text", "true"),
    ("o2", "u", '"1"', "1", "text", "1"),
    ("o2", "b", "false", False, "boolean", False),
    ("o3", "n", "-0", Decimal("-0"), "number", "-0"),
    ("o3", "m", "1.0", Decimal("1.0"), "number", "1.0"),
    ("o3", "b", "true", True, "boolean", True),
    ("o4", "n", "0", Decimal("0"), "number", "0"),
    ("o4", "m", "-0", Decimal("-0"), "number", "-0"),
    ("o4", "t", '"1"', "1", "text", "1"),
)
_SPELLING_KINDS = {"n": "number", "m": "number", "t": "text", "u": "text", "b": "boolean"}


def _spelt_models():
    source = "concept Thing\n" + "".join(f"attribute {a} : {k} on Thing\n" for a, k in _SPELLING_KINDS.items())
    for oid in ("o1", "o2", "o3"):
        assigns = ", ".join(f"{a} = {literal}" for o, a, literal, *_ in _SPELLINGS if o == oid)
        source += f"object {oid} : Thing {{ {assigns} }}\n"
    source += "object o4 : Thing {\n  n = 0,\n  m = -0, t =\n    \"1\" }\n"
    api = Model()
    api.concepts["Thing"] = Concept("Thing", "Thing")
    for aid, kind in _SPELLING_KINDS.items():
        api.attributes[aid] = AttributeDecl(aid, aid, "Thing", ValueKind(kind))
    for oid, aid, _, value, *_ in _SPELLINGS:
        api.objects.setdefault(oid, ObjectInstance(oid, oid, "Thing")).values[aid] = value
    return build(source), validate_or_raise(api)


def test_literals_spelt_apart_keep_their_spelling_through_every_format():
    parsed, api = _spelt_models()
    doc = {
        "version": "otl-json/1", "differences": [], "axes": [], "parts": [], "relations": [], "terms": [],
        "classes": [],
        "concepts": [{"id": "Thing", "label": "Thing", "genus": None, "differentiae": [], "intension": []}],
        "attributes": [{"id": a, "label": a, "domain": "Thing", "value_kind": k} for a, k in _SPELLING_KINDS.items()],
        "objects": [{"id": oid, "label": oid, "concept": "Thing", "values": {
            a: {"kind": kind, "value": value} for o, a, _, _, kind, value in _SPELLINGS if o == oid
        }} for oid in ("o1", "o2", "o3", "o4")],
    }
    expected = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    spelt = {(o, a): repr(Decimal(value) if kind == "number" else value) for o, a, _, _, kind, value in _SPELLINGS}

    def spellings(model):
        return {(o.id, a): repr(v) for o in model.objects.values() for a, v in o.values.items()}

    assert spellings(parsed) == spelt
    for model in (parsed, api):
        text = to_json(model)
        assert text.encode("utf-8") == expected.encode("utf-8")
        loaded = from_json(text)
        assert loaded == model and spellings(loaded) == spelt and to_json(loaded) == text
        printed = print_dsl(model)
        reparsed = build(printed)
        assert spellings(reparsed) == spelt and print_dsl(reparsed) == printed


# -- from_json on edited documents: a schema or model error, or a clean round trip ---


def _declared_names(model):
    return [
        *model.differences, *model.axes, *model.concepts, *model.attributes, *model.objects,
        *model.classes, *(term.language for term in model.terms),
    ]


def _loads_or_rejects(text):
    """The model from_json loads from `text`, or None when it rejects the
    text with one of its two documented errors."""
    try:
        return from_json(text)
    except (JsonSchemaError, InvalidModelError):
        return None


@given(st.integers(min_value=0, max_value=10**6))
def test_edited_documents_are_rejected_or_round_trip(seed):
    rng = random.Random(seed)
    model = valid_random_model(seed % 10_000, max_concepts=12, with_extras=True)
    doc = mutated_document(rng, json.loads(to_json(model)))
    loaded = _loads_or_rejects(json.dumps(doc))
    if loaded is None:
        return
    text = to_json(loaded)
    assert to_json(from_json(text)) == text
    assert all(map(dsl_identifier, _declared_names(loaded)))
    dsl = print_dsl(loaded)
    reparsed = parse(dsl, "rt.otl")
    assert reparsed.model is not None, [d.render() for d in reparsed.diagnostics]
    validate_or_raise(reparsed.model)
    assert print_dsl(reparsed.model) == dsl


def test_names_from_json_that_are_not_dsl_identifiers_are_rejected(mouse):
    # print_dsl writes names unquoted, so a name the DSL cannot spell would
    # print as DSL that does not parse
    doc = json.loads(to_json(mouse))
    doc["concepts"][1]["id"] = "Mechanical Mouse"
    doc["objects"][0]["id"] = "class"
    doc["terms"][0]["language"] = "007"
    with pytest.raises(InvalidModelError) as raised:
        from_json(json.dumps(doc))
    assert [d.render() for d in raised.value.diagnostics] == [
        "ERROR E_NAME Mechanical Mouse concept 'Mechanical Mouse' is not a DSL identifier",
        "ERROR E_NAME class object 'class' is a DSL keyword",
        "ERROR E_NAME 0 term language '007' is not a DSL identifier",
    ]
