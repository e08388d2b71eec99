"""Validation diagnostics and the derived hierarchy."""

import importlib.util
import itertools
import json
import random
import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otl import (
    AmbiguousIdentifierError,
    And,
    AssociativeLink,
    AttrEquals,
    AttributeDecl,
    Axis,
    ClassDef,
    Concept,
    Difference,
    HasAttr,
    InConcept,
    InvalidModelError,
    Model,
    Not,
    NotValidatedError,
    ObjectInstance,
    OtlError,
    Or,
    PartLink,
    RelationKind,
    Severity,
    Term,
    TermStatus,
    UnknownIdentifierError,
    ValueKind,
    classify_object,
    compute_hierarchy,
    coordinates,
    evaluate_class,
    extension,
    from_json,
    has_errors,
    intension,
    parse,
    print_dsl,
    resolve,
    subsumes,
    to_json,
    validate,
    validate_or_raise,
)
from otl.model import DIAGNOSTIC_CODES
from otl.parser import MAX_EXPR_DEPTH

from conftest import load_fixture
from gen import random_model, valid_random_model
from oracles import (
    oracle_axis_clashes,
    oracle_classify,
    oracle_direct_super,
    oracle_intension,
    oracle_part_cycles,
    oracle_subsumes,
)


def parse_ok(source):
    result = parse(source)
    assert result.model is not None, [d.render() for d in result.diagnostics]
    return result.model


def codes(diagnostics):
    return [d.code for d in diagnostics]


# -- validator diagnostics ----------------------------------------------------


def test_duplicate_intension_single_diagnostic():
    model = parse_ok(
        "concept PointingDevice\n"
        "axis DetectionMechanism of PointingDevice { mechanical, optical }\n"
        "concept OpticalMouse := PointingDevice + optical\n"
        "concept LaserMouse := PointingDevice + optical\n"
    )
    diagnostics = validate(model)
    assert codes(diagnostics).count("E_DUP_INTENSION") == 1
    (diag,) = [d for d in diagnostics if d.code == "E_DUP_INTENSION"]
    assert "'LaserMouse'" in diag.message and "'OpticalMouse'" in diag.message


def test_duplicate_intensions_of_a_built_model_are_reported_group_by_group():
    # with no source positions to sort by, each group's repeats follow its
    # first concept, groups in the order of their first concepts
    declared = [("X1", "a"), ("Y1", "b"), ("X2", "a"), ("Y2", "b"), ("X3", "a")]
    model = Model(concepts={cid: Concept(cid, cid, None, (diff,)) for cid, diff in declared})
    assert [(d.location, d.message.split()[-1]) for d in validate(model)] == [
        ("X2", "'X1'"), ("X3", "'X1'"), ("Y2", "'Y1'"),
    ]


def test_no_delimiting_characteristic():
    model = Model()
    model.concepts["G"] = Concept("G", "G", None, ("g",))
    model.concepts["S"] = Concept("S", "S", "G", ())
    diagnostics = validate(model)
    assert codes(diagnostics).count("E_NO_DELIMITING") == 1
    # the intension collision with the genus is a consequence, not a second fault
    assert "E_DUP_INTENSION" not in codes(diagnostics)


def test_axis_contradiction():
    model = parse_ok(
        "concept PointingDevice\n"
        "axis DetectionMechanism of PointingDevice { mechanical, optical }\n"
        "concept Both := PointingDevice + mechanical, optical\n"
    )
    diagnostics = validate(model)
    (diag,) = [d for d in diagnostics if d.code == "E_AXIS_CONTRADICTION"]
    assert "DetectionMechanism" in diag.message


def test_nonexclusive_axis_allows_combination():
    model = parse_ok(
        "concept G\n"
        "axis K of G nonexclusive { a, b }\n"
        "concept Both := G + a, b\n"
    )
    assert validate(model) == []


def test_unresolved_genus():
    model = parse_ok("concept X := Ghost + a\n")
    diagnostics = validate(model)
    assert "E_UNRESOLVED" in codes(diagnostics)


def test_genus_cycle_detected_once():
    model = Model()
    model.concepts["A"] = Concept("A", "A", "B", ("x",))
    model.concepts["B"] = Concept("B", "B", "A", ("y",))
    diagnostics = validate(model)
    assert codes(diagnostics).count("E_GENUS_CYCLE") == 1


def test_genus_cycle_located_at_its_first_declared_member():
    # the walk from Tail enters the first cycle at B; C is declared first
    source = (
        "concept Tail := B + t\n"
        "concept C := B + c\n"
        "concept A := C + a\n"
        "concept B := A + b\n"
        "concept Z := Q + z\n"
        "concept Q := Z + q\n"
    )
    result = parse(source, "cyc.otl")
    assert result.model is not None
    assert [d.render() for d in validate(result.model)] == [
        "ERROR E_GENUS_CYCLE cyc.otl:2:9 generic cycle: A -> C -> B -> A",
        "ERROR E_GENUS_CYCLE cyc.otl:5:9 generic cycle: Q -> Z -> Q",
    ]


def both_ways(concepts, axes=(), emptied=(), nonexclusive=()):
    """One model as DSL source (diagnostics at spans) and through the API
    (at identifiers, so found order breaks ties).  `concepts` are (id,
    genus, differentiae), `axes` (id, scope, members), exclusive unless
    named in `nonexclusive`.  The DSL cannot state a genus without
    differentiae, so a concept in `emptied` is emptied after parsing."""
    lines = [f"concept {cid} := {genus} + {', '.join(diffs)}" if genus else
             f"concept {cid} := {', '.join(diffs)}" if diffs else f"concept {cid}"
             for cid, genus, diffs in concepts]
    lines += [f"axis {aid} of {scope} {'nonexclusive ' * (aid in nonexclusive)}{{ {', '.join(members)} }}"
              for aid, scope, members in axes]
    result = parse("\n".join(lines) + "\n", "order.otl")
    assert not result.diagnostics
    api = Model()
    for cid, genus, diffs in concepts:
        for model in (result.model, api):
            model.concepts[cid] = Concept(cid, cid, genus, () if cid in emptied else tuple(diffs))
    for aid, scope, members in axes:
        api.axes[aid] = Axis(aid, aid, scope, tuple(members), aid not in nonexclusive)
    return result.model, api


def test_genus_cycles_are_reported_once_each_in_a_fixed_order():
    # each cycle is entered from a chain declared before it, then again from
    # a concept declared after it
    dsl, api = both_ways([
        ("Leaf", "Mid", ["l"]), ("Mid", "Y", ["m"]), ("Y", "X", ["y"]), ("Z", "Y", ["z"]),
        ("X", "Z", ["x"]), ("Tail", "Q", ["t"]), ("Q", "P", ["q"]), ("P", "Q", ["p"]),
        ("Late", "X", ["w"]), ("Later", "P", ["v"]),
    ])
    assert [d.render() for d in validate(dsl)] == [
        "ERROR E_GENUS_CYCLE order.otl:3:9 generic cycle: X -> Z -> Y -> X",
        "ERROR E_GENUS_CYCLE order.otl:7:9 generic cycle: P -> Q -> P",
    ]
    assert [d.render() for d in validate(api)] == [
        "ERROR E_GENUS_CYCLE Y generic cycle: X -> Z -> Y -> X",
        "ERROR E_GENUS_CYCLE Q generic cycle: P -> Q -> P",
    ]


def test_intension_checks_are_reported_in_a_fixed_order():
    dsl, api = both_ways(
        [
            ("Root", None, []), ("Thing", "Root", ["thing"]), ("Other", "Root", ["other"]),
            ("N1", "Root", ["n1"]), ("N2", "Thing", ["n2"]),
            ("R1", "Thing", ["thing"]), ("R2", "Thing", ["red", "thing", "blue"]),
            ("X1", "Other", ["red", "blue", "big", "small"]),
            ("U1", "Root", ["p", "q"]), ("P", "Root", ["p"]), ("U2", "Root", ["q", "p"]),
            ("U3", "P", ["q"]), ("S1", "Other", ["big"]),
        ],
        axes=[("Colour", "Root", ["red", "blue"]), ("Size", "Thing", ["big", "small"])],
        emptied={"N1", "N2"},
    )
    assert [d.render() for d in validate(dsl)] == [
        "ERROR E_NO_DELIMITING order.otl:4:9 concept 'N1' adds no delimiting difference to genus 'Root'",
        "ERROR E_NO_DELIMITING order.otl:5:9 concept 'N2' adds no delimiting difference to genus 'Thing'",
        "ERROR E_REDUNDANT_DIFFERENTIA order.otl:6:9 concept 'R1' restates thing already in the intension of 'Thing'",
        "ERROR E_AXIS_CONTRADICTION order.otl:7:9 concept 'R2' combines blue, red, exclusive on axis 'Colour'",
        "ERROR E_REDUNDANT_DIFFERENTIA order.otl:7:9 concept 'R2' restates thing already in the intension of 'Thing'",
        "ERROR E_AXIS_CONTRADICTION order.otl:8:9 concept 'X1' combines blue, red, exclusive on axis 'Colour'",
        "ERROR E_AXIS_CONTRADICTION order.otl:8:9 concept 'X1' combines big, small, exclusive on axis 'Size'",
        "ERROR E_AXIS_SCOPE order.otl:8:9 concept 'X1' uses 'big' of axis 'Size' scoped at 'Thing', "
        "but is not under 'Thing'",
        "ERROR E_AXIS_SCOPE order.otl:8:9 concept 'X1' uses 'small' of axis 'Size' scoped at 'Thing', "
        "but is not under 'Thing'",
        "ERROR E_DUP_INTENSION order.otl:11:9 concept 'U2' has the same combination of differences as 'U1'",
        "ERROR E_DUP_INTENSION order.otl:12:9 concept 'U3' has the same combination of differences as 'U1'",
        "ERROR E_AXIS_SCOPE order.otl:13:9 concept 'S1' uses 'big' of axis 'Size' scoped at 'Thing', "
        "but is not under 'Thing'",
    ]
    assert [d.render() for d in validate(api)] == [
        "ERROR E_AXIS_CONTRADICTION R2 concept 'R2' combines blue, red, exclusive on axis 'Colour'",
        "ERROR E_AXIS_CONTRADICTION X1 concept 'X1' combines blue, red, exclusive on axis 'Colour'",
        "ERROR E_AXIS_CONTRADICTION X1 concept 'X1' combines big, small, exclusive on axis 'Size'",
        "ERROR E_AXIS_SCOPE X1 concept 'X1' uses 'big' of axis 'Size' scoped at 'Thing', but is not under 'Thing'",
        "ERROR E_AXIS_SCOPE X1 concept 'X1' uses 'small' of axis 'Size' scoped at 'Thing', but is not under 'Thing'",
        "ERROR E_AXIS_SCOPE S1 concept 'S1' uses 'big' of axis 'Size' scoped at 'Thing', but is not under 'Thing'",
        "ERROR E_DUP_INTENSION U2 concept 'U2' has the same combination of differences as 'U1'",
        "ERROR E_DUP_INTENSION U3 concept 'U3' has the same combination of differences as 'U1'",
        "ERROR E_NO_DELIMITING N1 concept 'N1' adds no delimiting difference to genus 'Root'",
        "ERROR E_NO_DELIMITING N2 concept 'N2' adds no delimiting difference to genus 'Thing'",
        "ERROR E_REDUNDANT_DIFFERENTIA R1 concept 'R1' restates thing already in the intension of 'Thing'",
        "ERROR E_REDUNDANT_DIFFERENTIA R2 concept 'R2' restates thing already in the intension of 'Thing'",
    ]


_CLASHES = [
    ("Thing", None, []),
    ("Child", "Mid", ["big"]),  # inherits the clash of a genus declared after it
    ("Mid", "Red", ["blue"]),  # states a member that clashes with one it inherits
    ("Red", "Thing", ["red"]),
    ("Two", "Red", ["green", "big", "small"]),  # clashes on two axes, one of them its own pair
    ("Grand", "Two", ["calm", "wild"]),  # a pair on the nonexclusive axis, two clashes inherited
    ("Calm", "Thing", ["calm", "wild"]),
    ("Small", "Calm", ["small"]),
]
_CLASH_AXES = [("Colour", "Thing", ["red", "blue", "green"]), ("Size", "Thing", ["big", "small"]),
               ("Mood", "Thing", ["calm", "wild"])]


# each clash: its location in the DSL, its location through the API, its message
_CLASH_DIAGNOSTICS = [
    ("order.otl:2:9", "Child", "concept 'Child' combines blue, red, exclusive on axis 'Colour'"),
    ("order.otl:3:9", "Mid", "concept 'Mid' combines blue, red, exclusive on axis 'Colour'"),
    ("order.otl:5:9", "Two", "concept 'Two' combines green, red, exclusive on axis 'Colour'"),
    ("order.otl:5:9", "Two", "concept 'Two' combines big, small, exclusive on axis 'Size'"),
    ("order.otl:6:9", "Grand", "concept 'Grand' combines green, red, exclusive on axis 'Colour'"),
    ("order.otl:6:9", "Grand", "concept 'Grand' combines big, small, exclusive on axis 'Size'"),
]


# the first four concepts clash only where a stated member meets an inherited one
@pytest.mark.parametrize("count, reported", [(4, 2), (len(_CLASHES), len(_CLASH_DIAGNOSTICS))])
def test_axis_clashes_are_reported_for_every_concept_whose_intension_holds_them(count, reported):
    dsl, api = both_ways(_CLASHES[:count], _CLASH_AXES, nonexclusive={"Mood"})
    expected = _CLASH_DIAGNOSTICS[:reported]
    assert [d.render() for d in validate(dsl)] == [f"ERROR E_AXIS_CONTRADICTION {at} {text}" for at, _, text in expected]
    assert [d.render() for d in validate(api)] == [f"ERROR E_AXIS_CONTRADICTION {at} {text}" for _, at, text in expected]


_CONTRADICTION = re.compile(r"concept '(\w+)' combines (.+), exclusive on axis '(\w+)'")


@given(st.integers(min_value=0))
@settings(max_examples=300)
def test_axis_contradictions_are_the_clashes_of_every_intension(seed):
    # concepts in a shuffled order, so a child is often declared before its genus
    rng = random.Random(seed)
    model = random_model(rng, allow_clashes=True)
    concepts = list(model.concepts.items())
    rng.shuffle(concepts)
    model.concepts = dict(concepts)
    diagnostics = [d for d in validate(model) if d.is_error]
    assert {d.code for d in diagnostics} <= {"E_AXIS_CONTRADICTION"}
    triples = [_CONTRADICTION.fullmatch(d.message).groups() for d in diagnostics]
    found = [(cid, axis, tuple(members.split(", "))) for cid, members, axis in triples]
    assert sorted(found) == sorted(oracle_axis_clashes(model))


def test_reference_checks_are_reported_in_a_fixed_order():
    source = (
        "concept Root\n"
        "axis Lone of Nowhere { a }\n"
        "axis Twice of Root { x, a, x }\n"
        "concept Odd := Ghost + d, e, d\n"
        "attribute weight : number on Phantom\n"
        "object o1 : Spirit { colour = \"red\" }\n"
        "object o2 : Shade { size = 3 }\n"
        "part Whole has Piece\n"
        "relation r (associative) From -> To\n"
        "term \"thing\" (en, preferred) for Wraith\n"
        "class K := { x | in Banshee and has height }\n"
    )
    result = parse(source, "refs.otl")
    assert not result.diagnostics
    api = Model()
    api.concepts["Root"] = Concept("Root", "Root", None, ())
    api.axes["Lone"] = Axis("Lone", "Lone", "Nowhere", ("a",))
    api.axes["Twice"] = Axis("Twice", "Twice", "Root", ("x", "a", "x"))
    api.concepts["Odd"] = Concept("Odd", "Odd", "Ghost", ("d", "e", "d"))
    api.attributes["weight"] = AttributeDecl("weight", "weight", "Phantom", ValueKind.NUMBER)
    api.objects["o1"] = ObjectInstance("o1", "o1", "Spirit", {"colour": "red"})
    api.objects["o2"] = ObjectInstance("o2", "o2", "Shade", {"size": Decimal(3)})
    api.parts.append(PartLink("Whole", "Piece"))
    api.relations.append(AssociativeLink(RelationKind.ASSOCIATIVE, "From", "To"))
    api.terms.append(Term("thing", "en", TermStatus.PREFERRED, "Wraith"))
    api.classes["K"] = ClassDef("K", And((InConcept("Banshee"), HasAttr("height"))))
    assert [d.render() for d in validate(result.model)] == [
        "ERROR E_AXIS_ARITY refs.otl:2:6 axis 'Lone' needs at least two member differences",
        "ERROR E_UNRESOLVED refs.otl:2:6 axis 'Lone' scoped at unknown concept 'Nowhere'",
        "ERROR E_DUP_DECL refs.otl:3:6 difference 'a' belongs to both axis 'Lone' and axis 'Twice'",
        "ERROR E_DUP_DECL refs.otl:3:6 axis 'Twice' lists difference 'x' twice",
        "ERROR E_DUP_DECL refs.otl:4:9 concept 'Odd' states differentia 'd' twice",
        "ERROR E_UNRESOLVED refs.otl:4:9 concept 'Odd' names unknown genus 'Ghost'",
        "ERROR E_UNRESOLVED refs.otl:5:11 attribute 'weight' declared on unknown concept 'Phantom'",
        "ERROR E_UNRESOLVED refs.otl:6:8 object 'o1' reifies unknown concept 'Spirit'",
        "ERROR E_UNRESOLVED refs.otl:6:22 object 'o1' values undeclared attribute 'colour'",
        "ERROR E_UNRESOLVED refs.otl:7:8 object 'o2' reifies unknown concept 'Shade'",
        "ERROR E_UNRESOLVED refs.otl:7:21 object 'o2' values undeclared attribute 'size'",
        "ERROR E_UNRESOLVED refs.otl:8:1 part link names unknown concept 'Whole'",
        "ERROR E_UNRESOLVED refs.otl:8:1 part link names unknown concept 'Piece'",
        "ERROR E_UNRESOLVED refs.otl:9:1 relation names unknown concept 'From'",
        "ERROR E_UNRESOLVED refs.otl:9:1 relation names unknown concept 'To'",
        "ERROR E_UNRESOLVED refs.otl:10:6 term 'thing' names unknown concept 'Wraith'",
        "ERROR E_UNRESOLVED refs.otl:11:7 class 'K' references unknown concept 'Banshee'",
        "ERROR E_UNRESOLVED refs.otl:11:7 class 'K' references unknown attribute 'height'",
    ]
    assert [d.render() for d in validate(api)] == [
        "ERROR E_AXIS_ARITY Lone axis 'Lone' needs at least two member differences",
        "ERROR E_DUP_DECL Twice difference 'a' belongs to both axis 'Lone' and axis 'Twice'",
        "ERROR E_DUP_DECL Twice axis 'Twice' lists difference 'x' twice",
        "ERROR E_DUP_DECL Odd concept 'Odd' states differentia 'd' twice",
        "ERROR E_UNRESOLVED Lone axis 'Lone' scoped at unknown concept 'Nowhere'",
        "ERROR E_UNRESOLVED Odd concept 'Odd' names unknown genus 'Ghost'",
        "ERROR E_UNRESOLVED weight attribute 'weight' declared on unknown concept 'Phantom'",
        "ERROR E_UNRESOLVED o1 object 'o1' reifies unknown concept 'Spirit'",
        "ERROR E_UNRESOLVED o1.colour object 'o1' values undeclared attribute 'colour'",
        "ERROR E_UNRESOLVED o2 object 'o2' reifies unknown concept 'Shade'",
        "ERROR E_UNRESOLVED o2.size object 'o2' values undeclared attribute 'size'",
        "ERROR E_UNRESOLVED 0 part link names unknown concept 'Whole'",
        "ERROR E_UNRESOLVED 0 part link names unknown concept 'Piece'",
        "ERROR E_UNRESOLVED 0 relation names unknown concept 'From'",
        "ERROR E_UNRESOLVED 0 relation names unknown concept 'To'",
        "ERROR E_UNRESOLVED 0 term 'thing' names unknown concept 'Wraith'",
        "ERROR E_UNRESOLVED K class 'K' references unknown concept 'Banshee'",
        "ERROR E_UNRESOLVED K class 'K' references unknown attribute 'height'",
    ]
    assert list(result.model.differences) == list(api.differences) == ["a", "x", "d", "e"]


def test_a_name_listed_without_plus_is_a_differentia_even_when_a_concept_has_it():
    model = parse_ok("concept G := g\nconcept S := G\n")
    assert validate(model) == []
    assert model.concepts["S"].genus is None
    assert intension(model, "S") == frozenset({"G"})
    assert compute_hierarchy(model).roots == frozenset({"G", "S"})
    with pytest.raises(AmbiguousIdentifierError) as exc:
        resolve(model, "G")
    assert exc.value.candidates == ["concept 'G'", "difference 'G'"]


def test_redundant_differentia():
    model = parse_ok("concept G := g\nconcept S := G + g, s\n")
    diagnostics = validate(model)
    assert "E_REDUNDANT_DIFFERENTIA" in codes(diagnostics)


def test_axis_arity():
    model = Model()
    model.concepts["G"] = Concept("G", "G")
    from otl import Axis

    model.axes["K"] = Axis("K", "K", "G", ("only",))
    diagnostics = validate(model)
    assert "E_AXIS_ARITY" in codes(diagnostics)


def test_names_the_dsl_cannot_spell_are_rejected():
    from otl import AttributeDecl, Axis, ClassDef, InConcept, ObjectInstance, Term, TermStatus, ValueKind

    model = parse_ok("concept A\nconcept B := A + b\n")
    model.concepts["2nd"] = Concept("2nd", "2nd", "A", ("ö",))
    model.axes["or"] = Axis("or", "or", "A", ("x1", "x2"), True)
    model.attributes["size kg"] = AttributeDecl("size kg", "size kg", "A", ValueKind.NUMBER)
    model.objects["_o"] = ObjectInstance("_o", "_o", "A", {})
    model.classes[""] = ClassDef("", InConcept("A"))
    model.terms.append(Term("a", "en-GB", TermStatus.PREFERRED, "A", None))
    assert [d.render() for d in validate(model)] == [
        "ERROR E_NAME 2nd concept '2nd' is not a DSL identifier",
        "ERROR E_NAME ö difference 'ö' is not a DSL identifier",
        "ERROR E_NAME or axis 'or' is a DSL keyword",
        "ERROR E_NAME size kg attribute 'size kg' is not a DSL identifier",
        "ERROR E_NAME _o object '_o' is not a DSL identifier",
        "ERROR E_NAME  class '' is not a DSL identifier",
        "ERROR E_NAME 0 term language 'en-GB' is not a DSL identifier",
    ]
    assert not model.validated


def test_axis_arity_from_dsl():
    model = parse_ok("concept G\naxis K of G { only }\n")
    assert "E_AXIS_ARITY" in codes(validate(model))


def test_axis_arity_counts_distinct_members():
    # a repeated member is reported, and does not count towards the two
    result = parse("concept A\naxis K of A { x, x }\n", "t.otl")
    assert [d.render() for d in validate(result.model)] == [
        "ERROR E_AXIS_ARITY t.otl:2:6 axis 'K' needs at least two member differences",
        "ERROR E_DUP_DECL t.otl:2:6 axis 'K' lists difference 'x' twice",
    ]


# The duplicate checks live in the validator alone: the parser keeps every
# name it reads, so DSL input (parsed, then validated) and the same edit of
# the mouse otl-json/1 document reach the one diagnostic.
# name: (DSL source, its diagnostic and span length, JSON edit, its diagnostic)
DUPLICATES = {
    "axis_duplicate_member": (
        "concept A\naxis K of A { x, y, x }\n",
        ("ERROR E_DUP_DECL t.otl:2:6 axis 'K' lists difference 'x' twice", 1),
        lambda doc: doc["axes"][0]["members"].append("mechanical"),
        "ERROR E_DUP_DECL DetectionMechanism axis 'DetectionMechanism' lists difference 'mechanical' twice",
    ),
    "shared_axis_member": (
        "concept G\naxis K of G { a, b }\naxis L of G { b, c }\n",
        ("ERROR E_DUP_DECL t.otl:3:6 difference 'b' belongs to both axis 'K' and axis 'L'", 1),
        lambda doc: doc["axes"].append(
            dict(doc["axes"][0], id="Link", label="Link", members=["optical", "radio"])
        ),
        "ERROR E_DUP_DECL Link difference 'optical' belongs to both axis 'DetectionMechanism' and axis 'Link'",
    ),
    "concept_duplicate_differentia": (
        "concept A\nconcept B := A + x, y, x\n",
        ("ERROR E_DUP_DECL t.otl:2:9 concept 'B' states differentia 'x' twice", 1),
        lambda doc: doc["concepts"][2]["differentiae"].append("optical"),
        "ERROR E_DUP_DECL OpticalMouse concept 'OpticalMouse' states differentia 'optical' twice",
    ),
    "duplicate_term_triple": (
        'concept A := x\nterm "a" (en, preferred) for A\nterm "a" (en, admitted) for A\n',
        ("ERROR E_DUP_DECL t.otl:3:6 term 'a' (en) for 'A' already declared", 3),
        lambda doc: doc["terms"].append(dict(doc["terms"][0], status="admitted")),
        "ERROR E_DUP_DECL 1 term 'optical mouse' (en) for 'OpticalMouse' already declared",
    ),
}


@pytest.mark.parametrize("name", sorted(DUPLICATES))
def test_validator_owns_duplicate_checks(mouse, name):
    source, expected, mutate, expected_json = DUPLICATES[name]
    result = parse(source, "t.otl")
    assert result.diagnostics == []
    assert [(d.render(), d.location.length) for d in validate(result.model)] == [expected]

    doc = json.loads(to_json(mouse))
    mutate(doc)
    with pytest.raises(InvalidModelError) as exc:
        from_json(json.dumps(doc))
    assert [d.render() for d in exc.value.diagnostics] == [expected_json]
    assert str(exc.value) == expected_json


def test_axis_scope_violation():
    model = parse_ok(
        "concept A := x\n"
        "concept B := y\n"
        "axis K of A { p, q }\n"
        "concept Bad := B + p\n"
    )
    diagnostics = validate(model)
    assert "E_AXIS_SCOPE" in codes(diagnostics)


def test_axis_scope_satisfied_under_scope():
    model = parse_ok(
        "concept A := x\n"
        "axis K of A { p, q }\n"
        "concept Good := A + p\n"
    )
    assert validate(model) == []


def test_attribute_domain_violation():
    model = parse_ok(
        "concept A := x\n"
        "concept B := y\n"
        "attribute size : number on A\n"
        "object bob : B { size = 3 }\n"
    )
    diagnostics = validate(model)
    assert "E_ATTR_DOMAIN" in codes(diagnostics)


def test_attribute_value_kind_violation():
    model = parse_ok(
        "concept A := x\n"
        "attribute size : number on A\n"
        'object al : A { size = "big" }\n'
    )
    diagnostics = validate(model)
    assert "E_ATTR_VALUE" in codes(diagnostics)


@pytest.mark.parametrize("raw", ["NaN", "-Infinity", "sNaN"])
def test_non_finite_number_values_are_rejected(raw):
    model = Model(
        differences={"x": Difference("x", "x")},
        concepts={"A": Concept("A", "A", None, ("x",))},
        attributes={"n": AttributeDecl("n", "n", "A", ValueKind.NUMBER)},
        objects={"o": ObjectInstance("o", "o", "A", {"n": Decimal(raw)})},
    )
    assert [d.render() for d in validate(model)] == [
        f"ERROR E_ATTR_VALUE o.n object 'o' gives attribute 'n' the non-finite number {raw}"
    ]
    with pytest.raises(NotValidatedError):
        evaluate_class(model, AttrEquals("n", Decimal(raw)))


@pytest.mark.parametrize("raw", ["NaN", "-Infinity", "sNaN"])
def test_non_finite_class_literals_are_rejected(raw):
    model = Model(
        differences={"x": Difference("x", "x")},
        concepts={"A": Concept("A", "A", None, ("x",))},
        attributes={"n": AttributeDecl("n", "n", "A", ValueKind.NUMBER)},
        objects={"o": ObjectInstance("o", "o", "A", {"n": Decimal("1")})},
        classes={"K": ClassDef("K", And((HasAttr("n"), AttrEquals("n", Decimal(raw)))))},
    )
    assert [d.render() for d in validate(model)] == [
        f"ERROR E_ATTR_VALUE K class 'K' compares attribute 'n' with the non-finite number {raw}"
    ]
    del model.classes["K"]
    validate_or_raise(model)
    with pytest.raises(OtlError, match=f"^class expression compares attribute 'n' with the non-finite number {raw}$"):
        evaluate_class(model, And((HasAttr("n"), AttrEquals("n", Decimal(raw)))))


def numbered_model(**collections):
    """A model of one concept A with a number attribute n, and `collections`."""
    return Model(
        differences={"x": Difference("x", "x")},
        concepts={"A": Concept("A", "A", None, ("x",))},
        attributes={"n": AttributeDecl("n", "n", "A", ValueKind.NUMBER)},
        **collections,
    )


@pytest.mark.parametrize("value", [1.5, None])
def test_values_of_no_kind_are_rejected(value):
    # an object value, a class literal and an ad-hoc class literal of a type
    # no value kind covers
    model = numbered_model(objects={"o": ObjectInstance("o", "o", "A", {"n": value})})
    assert [d.render() for d in validate(model)] == [
        f"ERROR E_ATTR_VALUE o.n object 'o' gives attribute 'n' {value!r}, a value of no kind"
    ]
    model = numbered_model(classes={"K": ClassDef("K", Or((HasAttr("n"), AttrEquals("n", value))))})
    assert [d.render() for d in validate(model)] == [
        f"ERROR E_ATTR_VALUE K class 'K' compares attribute 'n' with {value!r}, a value of no kind"
    ]
    del model.classes["K"]
    validate_or_raise(model)
    with pytest.raises(OtlError, match=f"^class expression compares attribute 'n' with {value!r}, a value of no kind$"):
        evaluate_class(model, AttrEquals("n", value))


def alternating(levels):
    """`and` and `or` nodes alternating `levels` deep, each with a leaf beside."""
    expr = HasAttr("n")
    for level in range(levels):
        expr = (Or if level % 2 else And)((expr, InConcept("A")))
    return expr


def test_a_class_the_dsl_can_nest_round_trips_through_print_dsl():
    # 201 levels print as 200 nested groups, as deep as the parser reads
    model = validate_or_raise(numbered_model(classes={"K": ClassDef("K", alternating(MAX_EXPR_DEPTH + 1))}))
    text = print_dsl(model)
    reparsed = parse(text)
    assert reparsed.diagnostics == []
    assert reparsed.model.classes == model.classes
    assert validate(reparsed.model) == [] and print_dsl(reparsed.model) == text


@pytest.mark.parametrize(
    "expr, groups",
    [
        (alternating(MAX_EXPR_DEPTH + 2), MAX_EXPR_DEPTH + 1),
        (Not(alternating(MAX_EXPR_DEPTH + 1)), MAX_EXPR_DEPTH + 1),  # not (...) is one group more
        (And((Not(alternating(MAX_EXPR_DEPTH + 3)), HasAttr("n"))), MAX_EXPR_DEPTH + 3),
    ],
)
def test_a_class_nested_deeper_than_the_dsl_reads_is_rejected(expr, groups):
    model = numbered_model(classes={"K": ClassDef("K", expr)})
    assert [d.render() for d in validate(model)] == [
        f"ERROR E_EXPR_DEPTH K class 'K' nests {groups} parenthesized groups in DSL, "
        f"deeper than the parser reads ({MAX_EXPR_DEPTH})"
    ]
    assert "E_EXPR_DEPTH" in DIAGNOSTIC_CODES


def test_a_not_chain_adds_no_group():
    expr = HasAttr("n")
    for _ in range(3000):
        expr = Not(expr)
    assert validate(numbered_model(classes={"K": ClassDef("K", Not(And((expr, expr))))})) == []


def test_part_cycle():
    model = parse_ok(
        "concept A := x\nconcept B := y\npart A has B\npart B has A\n"
    )
    diagnostics = validate(model)
    assert codes(diagnostics).count("E_PART_CYCLE") == 1


def test_part_self_loop():
    model = Model()
    model.concepts["A"] = Concept("A", "A")
    model.parts.append(PartLink("A", "A"))
    diagnostics = validate(model)
    assert "E_PART_CYCLE" in codes(diagnostics)


def test_part_cycles_render_each_component_at_its_first_edge():
    # e loops on itself; f and a feed the cycle b -> c -> d -> b from
    # outside without being part of it
    source = (
        "concept a := xa; concept b := xb; concept c := xc\n"
        "concept d := xd; concept e := xe; concept f := xf\n"
        "part f has a\n"
        "part a has b\n"
        "part a has c\n"
        "part e has e\n"
        "part c has d\n"
        "part d has b\n"
        "part b has c\n"
        "part e has a\n"
    )
    result = parse(source, "p")
    assert result.model is not None
    assert [d.render() for d in validate(result.model)] == [
        "ERROR E_PART_CYCLE p:6:1 part links form a cycle through: e",
        "ERROR E_PART_CYCLE p:7:1 part links form a cycle through: b, c, d",
    ]


@given(st.integers(min_value=0))
@settings(max_examples=300)
def test_part_cycles_are_the_oracles(seed):
    # 1-12 concepts named out of order, 0-2n random links: self-loops and
    # repeated links included
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    names = [f"c{k}" for k in rng.sample(range(40), n)]
    model = Model()
    for name in names:
        model.concepts[name] = Concept(name, name, None, (f"d{name}",))
    model.parts = [PartLink(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 2 * n))]
    diagnostics = validate(model)
    assert {d.code for d in diagnostics} <= {"E_PART_CYCLE"}
    found = [(tuple(d.message.split(": ")[1].split(", ")), int(d.location)) for d in diagnostics]
    assert sorted(found) == oracle_part_cycles(model)


def test_part_chain_without_cycle_is_fine():
    model = parse_ok(
        "concept A := x\nconcept B := y\nconcept C := z\n"
        "part A has B\npart B has C\n"
    )
    assert validate(model) == []


def test_undistinguished_coordinates_are_one_dup_intension_error():
    # equal relative differences under one genus are equal intensions: the
    # error says it all, and no hierarchy is derived for a model with errors
    model = Model()
    model.concepts["G"] = Concept("G", "G", None, ("g",))
    model.concepts["A"] = Concept("A", "A", "G", ("d",))
    model.concepts["B"] = Concept("B", "B", "G", ("d",))
    assert [d.render() for d in validate(model)] == [
        "ERROR E_DUP_INTENSION B concept 'B' has the same combination of differences as 'A'"
    ]
    assert model.hierarchy is None


def test_no_preferred_term_warning():
    model = parse_ok(load_fixture("terms.otl"))
    diagnostics = validate(model)
    warnings = [d for d in diagnostics if d.code == "W_NO_PREFERRED_TERM"]
    assert len(warnings) == 1
    assert "'Device'" in warnings[0].message
    assert warnings[0].severity is Severity.WARNING


def test_warnings_do_not_block_validation():
    model = parse_ok(load_fixture("terms.otl"))
    diagnostics = validate(model)
    assert not has_errors(diagnostics)
    assert model.validated


def test_all_emitted_codes_are_catalogued():
    sources = [
        "concept X := Y + ;",
        "concept A\nconcept A\n",
        "concept X := Ghost + a\n",
        "concept G := g\nconcept S := G + g\n",
    ]
    for source in sources:
        result = parse(source)
        diagnostics = list(result.diagnostics)
        if result.model is not None:
            diagnostics += validate(result.model)
        assert all(d.code in DIAGNOSTIC_CODES for d in diagnostics)


def test_diagnostics_ordered_by_source_position():
    source = (
        "concept B := Ghost + b\n"
        "concept A := Ghost2 + a\n"
    )
    model = parse_ok(source)
    diagnostics = validate(model)
    lines = [d.location.line for d in diagnostics]
    assert lines == sorted(lines)


def test_diagnostic_render_format():
    model = parse_ok("concept X := Ghost + a\n")
    (diag,) = validate(model)
    rendered = diag.render()
    severity, code, location, rest = rendered.split(" ", 3)
    assert severity == "ERROR"
    assert code == "E_UNRESOLVED"
    assert location == "<input>:1:9"
    assert rest


def test_axis_backreferences_filled(mouse):
    axis = mouse.axes["DetectionMechanism"]
    for member in axis.members:
        assert mouse.differences[member].axis == axis.id
    free = [d for d in mouse.differences.values() if d.axis is None]
    assert free == []


def test_free_standing_difference_has_no_axis(porphyry):
    assert porphyry.differences["mortal"].axis is None
    assert porphyry.differences["rational"].axis == "Rationality"


# -- subsumes ------------------------------------------------------------------


def test_subsumes_is_irreflexive(mouse):
    for cid in mouse.concepts:
        assert not subsumes(mouse, cid, cid)


def test_subsumes_triple(multi_genus):
    assert subsumes(multi_genus, "C1", "C3")
    assert subsumes(multi_genus, "C2", "C3")
    assert not subsumes(multi_genus, "C1", "C2")
    assert not subsumes(multi_genus, "C2", "C1")


def test_subsumes_on_mouse_matches_oracle(mouse):
    for c1 in mouse.concepts:
        for c2 in mouse.concepts:
            assert subsumes(mouse, c1, c2) == oracle_subsumes(mouse, c1, c2)
    assert subsumes(mouse, "PointingDevice", "OpticalMouse")


def test_subsumes_unknown_identifier(mouse):
    with pytest.raises(UnknownIdentifierError):
        subsumes(mouse, "PointingDevice", "Ghost")


# -- hierarchy -----------------------------------------------------------------


def test_singleton_hierarchy():
    model = validate_or_raise(parse_ok("concept Only\n"))
    hierarchy = compute_hierarchy(model)
    assert hierarchy.roots == {"Only"}
    assert hierarchy.direct_super["Only"] == frozenset()


def test_triple_direct_super(multi_genus):
    hierarchy = compute_hierarchy(multi_genus)
    assert hierarchy.direct_super["C3"] == {"C1", "C2"}
    assert hierarchy.roots == {"C1", "C2"}


def test_hierarchy_subsumes_method_agrees(multi_genus):
    hierarchy = compute_hierarchy(multi_genus)
    for c1 in multi_genus.concepts:
        for c2 in multi_genus.concepts:
            assert hierarchy.subsumes(c1, c2) == subsumes(multi_genus, c1, c2)


def test_porphyry_chain_is_covering_chain(porphyry):
    hierarchy = compute_hierarchy(porphyry)
    chain = ["Substance", "Body", "LivingThing", "Animal", "Human"]
    for upper, lower in zip(chain, chain[1:]):
        assert hierarchy.direct_super[lower] == {upper}
    assert hierarchy.direct_super["Human"] == {"Animal"}
    assert hierarchy.roots == {"Substance"}
    assert oracle_direct_super(porphyry) == {
        c: set(hierarchy.direct_super[c]) for c in porphyry.concepts
    }


def assert_hierarchy_matches_oracles(model):
    hierarchy = compute_hierarchy(model)
    # oracle_subsumes, with each oracle intension computed once
    intension = {c: oracle_intension(model, c) for c in model.concepts}
    assert hierarchy.superiors == {
        c: {g for g in intension if intension[g] < intension[c]} for c in intension
    }
    covering = oracle_direct_super(model)
    assert {c: set(s) for c, s in hierarchy.direct_super.items()} == covering
    inverse = {c: set() for c in model.concepts}
    for specific, supers in covering.items():
        for generic in supers:
            inverse[generic].add(specific)
    assert {c: set(s) for c, s in hierarchy.direct_sub.items()} == inverse
    assert hierarchy.roots == {c for c in model.concepts if not model.superiors[c]}
    assert hierarchy.roots == {c for c, s in covering.items() if not s}


def test_hierarchy_of_an_empty_root_beside_roots_with_differences():
    model = validate_or_raise(
        parse_ok(
            "concept R1 := a\n"
            "concept Top\n"
            "concept R2 := a, b\n"
            "concept S := Top + a, c\n"
            "concept R3 := b\n"
        )
    )
    assert_hierarchy_matches_oracles(model)
    assert compute_hierarchy(model).roots == {"Top"}
    assert compute_hierarchy(model).direct_super["R2"] == {"R1", "R3"}


def test_hierarchy_of_a_difference_declared_in_subtrees_at_several_depths():
    model = validate_or_raise(
        parse_ok(
            "concept T\n"
            "concept A := T + x\n"
            "concept A1 := A + y\n"
            "concept A2 := A1 + d\n"
            "concept B := T + d\n"
            "concept C := T + z\n"
            "concept C1 := C + d\n"
            "concept C2 := C1 + x, y\n"
            "concept D := T + y, d\n"
            "concept E := d, x\n"
        )
    )
    assert_hierarchy_matches_oracles(model)
    assert compute_hierarchy(model).direct_super["A2"] == {"A1", "D", "E"}


def one_smaller_missing(model):
    """The concepts with some intension one difference smaller than their
    own that is no concept's."""
    intensions = {oracle_intension(model, c) for c in model.concepts}
    return {
        c for c in model.concepts
        if any(oracle_intension(model, c) - {d} not in intensions for d in oracle_intension(model, c))
    }


def test_hierarchy_of_all_small_subsets():
    # the poly-hierarchy: every superior is found by looking up the
    # intensions one difference smaller, and each of those is a concept
    names = "abcdefg"
    lines = []
    for size in (1, 2, 3):
        for combo in itertools.combinations(names, size):
            genus = f"S{''.join(combo[:-1])} + " if size > 1 else ""
            lines.append(f"concept S{''.join(combo)} := {genus}{combo[-1]}\n")
    model = validate_or_raise(parse_ok("".join(lines)))
    assert one_smaller_missing(model) == {"S" + name for name in names}  # only the roots, which have none above
    assert_hierarchy_matches_oracles(model)
    assert compute_hierarchy(model).direct_super["Sace"] == {"Sac", "Sae", "Sce"}


@pytest.mark.parametrize(
    "source, concept, covering",
    [
        # {a} and {b, c} under {a, b, c}, with {a, b} and {a, c} absent
        ("concept A := a\nconcept BC := b, c\nconcept ABC := A + b, c\n", "ABC", {"A", "BC"}),
        # no intension one smaller is a concept: {b} is found by the scan
        ("concept A := a\nconcept B := b\nconcept ABC := A + b, c\n", "ABC", {"A", "B"}),
        # {a, b, c} is found by lookup, {d} only by the scan
        (
            "concept X := a\nconcept Y := b, c\nconcept Z := d\n"
            "concept V := X + b, c\nconcept W := X + b, c, d\n",
            "W",
            {"V", "Z"},
        ),
        # {b} is a candidate but lies under {b, c}, found by lookup: no cover
        ("concept B := b\nconcept BC := B + c\nconcept A := a\nconcept ABC := A + b, c\n", "ABC", {"A", "BC"}),
        # a root whose differences are shared: the empty concept and a scan
        ("concept Top\nconcept P := p\nconcept Q := q\nconcept PQR := p, q, r\n", "PQR", {"P", "Q"}),
    ],
    ids=["genus_and_hit", "scan_only", "lookup_and_scan", "candidate_under_lookup", "root"],
)
def test_hierarchy_where_some_intension_one_smaller_is_no_concept(source, concept, covering):
    model = validate_or_raise(parse_ok(source))
    assert concept in one_smaller_missing(model)
    assert_hierarchy_matches_oracles(model)
    assert compute_hierarchy(model).direct_super[concept] == covering


def test_hierarchy_of_a_long_genus_chain():
    source = "concept K0\n" + "".join(
        f"concept K{i} := K{i - 1} + e{i}\n" for i in range(1, 300)
    )
    model = validate_or_raise(parse_ok(source))
    assert_hierarchy_matches_oracles(model)
    assert len(model.superiors["K299"]) == 299


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
def test_hierarchy_over_few_differences_matches_oracles(seed, max_diffs):
    # few differences: most are declared by several concepts
    assert_hierarchy_matches_oracles(valid_random_model(seed, max_diffs=max_diffs))


@given(st.integers(min_value=0, max_value=10_000))
def test_derived_index_views_equal_the_oracle_dicts(seed):
    model = valid_random_model(seed, max_concepts=20)
    ids = list(model.concepts)
    intensions = {c: oracle_intension(model, c) for c in ids}
    superiors = {c2: {c1 for c1 in ids if oracle_subsumes(model, c1, c2)} for c2 in ids}
    hierarchy = compute_hierarchy(model)
    assert model.superiors is hierarchy.superiors
    assert model.intensions == intensions and intensions == model.intensions
    assert model.superiors == superiors and superiors == model.superiors
    assert model.intensions != {**intensions, ids[0]: frozenset({"elsewhere"})}
    assert list(model.intensions) == list(model.superiors) == ids
    assert list(hierarchy.direct_super) == list(hierarchy.direct_sub) == ids
    assert all(type(view[c]) is frozenset for view in (hierarchy.direct_super, hierarchy.direct_sub) for c in ids)
    for view in (model.intensions, model.superiors, hierarchy.direct_super, hierarchy.direct_sub):
        with pytest.raises(TypeError):
            view[ids[0]] = frozenset()
        with pytest.raises(TypeError):
            del view[ids[0]]


def test_the_order_sweep_finds_no_counterexample_in_500_random_models():
    # the checks of scripts/order_sweep.py, on the models its CI run makes
    spec = importlib.util.spec_from_file_location(
        "order_sweep", Path(__file__).resolve().parent.parent / "scripts" / "order_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    models = [valid_random_model(seed) for seed in range(500)]
    assert sweep.strict_order_violations(models) == 0
    assert sweep.oracle_disagreements(models) == (0, sum(len(model.concepts) ** 2 for model in models))
    assert sweep.covering_disagreements(models) == (0, sum(len(model.concepts) for model in models))
    assert sweep.duality_breaks(models) == 0


# -- coordinates ---------------------------------------------------------------


def test_coordinates_of_mechanical_mouse(mouse):
    assert coordinates(mouse, "MechanicalMouse") == {"OpticalMouse"}


def test_coordinates_only_child():
    model = validate_or_raise(parse_ok("concept G\nconcept S := G + s\n"))
    assert coordinates(model, "S") == frozenset()


def test_coordinates_of_roots_empty(multi_genus):
    # C1 and C2 are roots: no shared superordinate, hence no coordination
    assert coordinates(multi_genus, "C1") == frozenset()
    assert coordinates(multi_genus, "C2") == frozenset()


def test_coordinates_with_shared_root():
    model = validate_or_raise(
        parse_ok("concept Top\nconcept C1 := Top + a\nconcept C2 := Top + b\n")
    )
    assert coordinates(model, "C1") == {"C2"}


# -- classify_object ------------------------------------------------------------


def test_classify_mouse_object(mouse):
    assert classify_object(mouse, "thisOpticalMouse") == [
        "OpticalMouse",
        "PointingDevice",
    ]


def test_classify_root_object():
    model = validate_or_raise(parse_ok("concept Top\nobject t : Top\n"))
    assert classify_object(model, "t") == ["Top"]


def test_classify_multi_genus_object(multi_genus):
    assert classify_object(multi_genus, "o3") == ["C3", "C1", "C2"]


def test_classify_unknown_object(mouse):
    with pytest.raises(UnknownIdentifierError):
        classify_object(mouse, "ghost")


# -- properties over random models ----------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
def test_strict_partial_order(seed):
    model = valid_random_model(seed)
    ids = list(model.concepts)
    sup = model.superiors
    for c in ids:
        assert c not in sup[c]  # irreflexive
    for c2 in ids:
        for c1 in sup[c2]:
            assert c2 not in sup[c1]  # asymmetric
            assert sup[c1] <= sup[c2] - {c1}  # transitive


@given(st.integers(min_value=0, max_value=10_000))
def test_subsumes_equals_oracle(seed):
    model = valid_random_model(seed, max_concepts=20)
    for c1 in model.concepts:
        for c2 in model.concepts:
            assert subsumes(model, c1, c2) == oracle_subsumes(model, c1, c2)


@given(st.integers(min_value=0, max_value=10_000))
def test_covering_edges_add_a_differentia(seed):
    model = valid_random_model(seed)
    hierarchy = compute_hierarchy(model)
    for specific, supers in hierarchy.direct_super.items():
        for generic in supers:
            assert model.intensions[specific] - model.intensions[generic]


@given(st.integers(min_value=0, max_value=10_000))
def test_covering_edges_equal_oracle(seed):
    assert_hierarchy_matches_oracles(valid_random_model(seed))


@given(st.integers(min_value=0, max_value=10_000))
def test_coordinates_are_distinguished(seed):
    model = valid_random_model(seed)
    hierarchy = compute_hierarchy(model)
    for genus, children in hierarchy.direct_sub.items():
        relatives = [
            model.intensions[c] - model.intensions[genus] for c in sorted(children)
        ]
        assert len(set(relatives)) == len(relatives)


@given(st.integers(min_value=0, max_value=10_000))
def test_extension_duality(seed):
    model = valid_random_model(seed, max_concepts=20)
    for c2 in model.concepts:
        for c1 in model.superiors[c2]:
            assert extension(model, c2) <= extension(model, c1)


@given(st.integers(min_value=0, max_value=10_000))
def test_classify_matches_oracle(seed):
    model = valid_random_model(seed, max_concepts=20)
    for oid in model.objects:
        assert classify_object(model, oid) == oracle_classify(model, oid)
