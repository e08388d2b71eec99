"""Serialization: canonical JSON, DSL printing, DOT emission, round-trips."""

import json
import re
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
    NotValidatedError,
    ObjectInstance,
    Or,
    PartLink,
    RelationKind,
    Term,
    TermStatus,
    ValueKind,
    from_json,
    parse,
    print_dsl,
    to_dot,
    to_json,
    validate,
    validate_or_raise,
)

from conftest import load_fixture
from gen import valid_random_model


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


def test_json_requires_validated_model():
    with pytest.raises(NotValidatedError):
        to_json(Model())


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


def test_json_nested_too_deeply_is_a_schema_error(mouse):
    deep = '{"op": "not", "child": ' * 3000 + '{"op": "has", "attribute": "colour"}' + "}" * 3000
    doc = json.loads(to_json(mouse))
    doc["classes"] = [{"id": "Deep", "expr": "EXPR"}]
    with pytest.raises(JsonSchemaError) as exc:
        from_json(json.dumps(doc).replace('"EXPR"', deep))
    assert exc.value.path == "/"


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
    for model in (build(""), sparse, mouse, porphyry, multi_genus, red_things, mouse_parts, terms_model):
        text = to_json(model)
        assert text == stdlib_layout(text)


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
