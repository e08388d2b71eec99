"""The contract of otl's record types, one row per class: construction by
position and by keyword with the same defaults, equality only within a
class, hashing, the repr text, frozen fields, positional match patterns,
and copy, deepcopy and pickle round trips."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from decimal import Decimal

import pytest

import otl
from otl import (
    And,
    AssociativeLink,
    AttrEquals,
    AttributeDecl,
    Axis,
    ClassDef,
    Concept,
    Contradiction,
    Diagnostic,
    Difference,
    ExportOptions,
    GeneratedDefinition,
    HasAttr,
    Hierarchy,
    InConcept,
    Model,
    Not,
    ObjectInstance,
    Or,
    ParseResult,
    PartLink,
    RelationKind,
    Severity,
    SourceSpan,
    Term,
    TermStatus,
    ValueKind,
    evaluate_class,
    extension,
    parse,
    parse_class_expr,
    subsumes,
    to_json,
    validate,
)
from otl.model import BitSets, Frozen, Record

from conftest import build_model

SPAN = SourceSpan("t.otl", 2, 3, 4)
ATOM = InConcept("A")
PAIR = (InConcept("A"), HasAttr("colour"))

# class, its fields in order, one value for each, the repr of that record,
# and whether it is frozen
RECORDS = [
    (SourceSpan, ("file", "line", "column", "length"), ("t.otl", 2, 3, 4),
     "SourceSpan(file='t.otl', line=2, column=3, length=4)", True),
    (Diagnostic, ("severity", "code", "message", "location"), (Severity.ERROR, "E_SYN", "bad", SPAN),
     "Diagnostic(severity=<Severity.ERROR: 'error'>, code='E_SYN', message='bad', "
     "location=SourceSpan(file='t.otl', line=2, column=3, length=4))", True),
    (Difference, ("id", "label", "axis"), ("d", "D", "ax"),
     "Difference(id='d', label='D', axis='ax')", False),
    (Axis, ("id", "label", "scope", "members", "exclusive"), ("ax", "Ax", "C", ("a", "b"), False),
     "Axis(id='ax', label='Ax', scope='C', members=('a', 'b'), exclusive=False)", False),
    (Concept, ("id", "label", "genus", "differentiae"), ("A", "A", "G", ("x", "y")),
     "Concept(id='A', label='A', genus='G', differentiae=('x', 'y'))", False),
    (AttributeDecl, ("id", "label", "domain", "value_kind"), ("colour", "Colour", "C", ValueKind.NUMBER),
     "AttributeDecl(id='colour', label='Colour', domain='C', value_kind=<ValueKind.NUMBER: 'number'>)", False),
    (ObjectInstance, ("id", "label", "concept", "values"), ("o", "O", "C", {"colour": "blue", "n": Decimal("2.5")}),
     "ObjectInstance(id='o', label='O', concept='C', values={'colour': 'blue', 'n': Decimal('2.5')})", False),
    (PartLink, ("whole", "part", "note"), ("W", "P", "wheel"),
     "PartLink(whole='W', part='P', note='wheel')", True),
    (AssociativeLink, ("relation_type", "source", "target"), (RelationKind.CAUSAL, "S", "T"),
     "AssociativeLink(relation_type=<RelationKind.CAUSAL: 'causal'>, source='S', target='T')", True),
    (Term, ("designation", "language", "status", "concept", "nl_definition"),
     ("mouse", "en", TermStatus.PREFERRED, "M", "a device"),
     "Term(designation='mouse', language='en', status=<TermStatus.PREFERRED: 'preferred'>, "
     "concept='M', nl_definition='a device')", True),
    (ClassDef, ("id", "expr"), ("K", Not(ATOM)),
     "ClassDef(id='K', expr=Not(child=InConcept(concept='A')))", False),
    (InConcept, ("concept",), ("A",), "InConcept(concept='A')", True),
    (AttrEquals, ("attribute", "value"), ("n", Decimal("2")), "AttrEquals(attribute='n', value=Decimal('2'))", True),
    (HasAttr, ("attribute",), ("colour",), "HasAttr(attribute='colour')", True),
    (And, ("children",), (PAIR,),
     "And(children=(InConcept(concept='A'), HasAttr(attribute='colour')))", True),
    (Or, ("children",), (PAIR,),
     "Or(children=(InConcept(concept='A'), HasAttr(attribute='colour')))", True),
    (Not, ("child",), (ATOM,), "Not(child=InConcept(concept='A'))", True),
    (Contradiction, ("axis", "differences", "concepts"), ("ax", ("a", "b"), ("A", "B")),
     "Contradiction(axis='ax', differences=('a', 'b'), concepts=('A', 'B'))", True),
    (ParseResult, ("model", "diagnostics"), (None, [Diagnostic(Severity.ERROR, "E_SYN", "bad")]),
     "ParseResult(model=None, diagnostics=[Diagnostic(severity=<Severity.ERROR: 'error'>, "
     "code='E_SYN', message='bad', location=None)])", False),
    (Hierarchy, ("superiors", "direct_super", "direct_sub", "roots"),
     ({"B": frozenset({"A"})}, {"B": frozenset({"A"})}, {"A": frozenset({"B"})}, frozenset({"A"})),
     "Hierarchy(superiors={'B': frozenset({'A'})}, direct_super={'B': frozenset({'A'})}, "
     "direct_sub={'A': frozenset({'B'})}, roots=frozenset({'A'}))", False),
    (GeneratedDefinition, ("concept", "kind", "formal", "gloss"), ("M", "intensional", ("G", ("x",)), "a G that is x"),
     "GeneratedDefinition(concept='M', kind='intensional', formal=('G', ('x',)), gloss='a G that is x')", True),
    (ExportOptions, ("include_objects", "include_derived_edges", "rankdir"), (True, True, "LR"),
     "ExportOptions(include_objects=True, include_derived_edges=True, rankdir='LR')", False),
]
IDS = [row[0].__name__ for row in RECORDS]
FROZEN = [row for row in RECORDS if row[4]]
MUTABLE = [row for row in RECORDS if not row[4]]

MODEL_FIELDS = (
    "differences", "axes", "concepts", "attributes", "objects", "parts", "relations", "terms", "classes",
    "spans", "source", "validated", "intensions", "superiors", "hierarchy", "parts_by_whole",
)


def record_classes():
    """Every subclass of Record that a module of the otl package defines."""
    for module in pkgutil.iter_modules(otl.__path__):
        importlib.import_module(f"otl.{module.name}")
    found, stack = set(), [Record]
    while stack:
        subclasses = stack.pop().__subclasses__()
        stack.extend(subclasses)
        found.update(cls for cls in subclasses if cls.__module__.split(".")[0] == "otl")
    return found


def test_every_record_class_has_a_row():
    assert record_classes() - {Frozen, Model} == {row[0] for row in RECORDS}  # Model has tests of its own below
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("cls, fields, values, text, frozen", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, values, text, frozen):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert [getattr(by_position, f) for f in fields] == list(values)
    assert [getattr(by_keyword, f) for f in fields] == list(values)
    assert by_position == by_keyword
    assert cls.__match_args__ == fields
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls", [row[0] for row in RECORDS] + [Model], ids=IDS + ["Model"])
def test_the_constructor_takes_the_slots_in_order(cls):
    assert tuple(inspect.signature(cls).parameters) == cls.__slots__
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


DEFAULTS = [
    (SourceSpan("t.otl", 1, 2), SourceSpan("t.otl", 1, 2, 1)),
    (Diagnostic(Severity.WARNING, "W_X", "m"), Diagnostic(Severity.WARNING, "W_X", "m", None)),
    (Difference("d", "d"), Difference("d", "d", None)),
    (Axis("ax", "ax", "C", ("a", "b")), Axis("ax", "ax", "C", ("a", "b"), True)),
    (Concept("A", "A"), Concept("A", "A", None, ())),
    (ObjectInstance("o", "o", "C"), ObjectInstance("o", "o", "C", {})),
    (PartLink("W", "P"), PartLink("W", "P", None)),
    (Term("t", "en", TermStatus.ADMITTED, "C"), Term("t", "en", TermStatus.ADMITTED, "C", None)),
    (ExportOptions(), ExportOptions(False, False, "TB")),
]


@pytest.mark.parametrize("short, full", DEFAULTS, ids=[type(d[0]).__name__ for d in DEFAULTS])
def test_defaults(short, full):
    assert short == full
    assert repr(short) == repr(full)


def test_mutable_defaults_are_fresh_per_instance():
    assert ObjectInstance("o", "o", "C").values is not ObjectInstance("o", "o", "C").values
    first, second = Model(), Model()
    for name in ("differences", "axes", "concepts", "attributes", "objects", "parts", "relations",
                 "terms", "classes", "spans"):
        assert getattr(first, name) is not getattr(second, name)
    assert first.intensions is not second.intensions
    assert (first.source, first.validated, first.hierarchy) == (None, False, None)


@pytest.mark.parametrize("cls, fields, values, text, frozen", RECORDS, ids=IDS)
def test_repr(cls, fields, values, text, frozen):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, fields, values, text, frozen", RECORDS, ids=IDS)
def test_equality_compares_the_fields_within_one_class(cls, fields, values, text, frozen):
    record = cls(*values)
    assert record == cls(*copy.deepcopy(values))
    assert not record != cls(*values)
    assert record != values and record != object()
    assert record.__eq__(object()) is NotImplemented
    other = {And: (ATOM, ATOM), Or: (ATOM, ATOM), ExportOptions: "TB"}.get(cls, "other")
    assert record != cls(*values[:-1], other)


def test_records_of_different_classes_are_never_equal():
    assert InConcept("a") != HasAttr("a")
    assert And(PAIR) != Or(PAIR)
    assert PartLink("a", "b") != Contradiction("a", "b", None)


@pytest.mark.parametrize("cls, fields, values, text, frozen", FROZEN, ids=[r[0].__name__ for r in FROZEN])
def test_frozen_records_hash_as_the_tuple_of_their_fields(cls, fields, values, text, frozen):
    record = cls(*values)
    assert hash(record) == hash(values) == hash(cls(*values))
    assert {record, cls(*values)} == {record}


@pytest.mark.parametrize("cls, fields, values, text, frozen", MUTABLE, ids=[r[0].__name__ for r in MUTABLE])
def test_mutable_records_are_unhashable_and_assignable(cls, fields, values, text, frozen):
    record = cls(*values)
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(record)
    for name in fields:
        setattr(record, name, "new")
        assert getattr(record, name) == "new"


def test_model_is_unhashable():
    assert Model.__hash__ is None
    with pytest.raises(TypeError):
        hash(Model())


@pytest.mark.parametrize("cls, fields, values, text, frozen", FROZEN, ids=[r[0].__name__ for r in FROZEN])
def test_frozen_fields_cannot_be_assigned_or_deleted(cls, fields, values, text, frozen):
    record = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, "new")
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert record == cls(*values)


def test_constructors_reject_what_they_always_rejected():
    with pytest.raises(ValueError, match="^And requires at least two children$"):
        And((ATOM,))
    with pytest.raises(ValueError, match="^Or requires at least two children$"):
        Or(())
    with pytest.raises(ValueError, match="^rankdir must be 'TB' or 'LR', got 'BT'$"):
        ExportOptions(rankdir="BT")


def describe(expr):
    match expr:
        case Not(InConcept(concept)):
            return f"outside {concept}"
        case And((InConcept(first), *rest)):
            return f"{first} and {len(rest)} more"
        case Or(children=children):
            return f"any of {len(children)}"
        case AttrEquals(attribute, value):
            return f"{attribute} = {value}"
        case HasAttr(attribute):
            return f"has {attribute}"
        case _:
            return "other"


def test_positional_match_patterns():
    assert describe(parse_class_expr("not in A")) == "outside A"
    assert describe(parse_class_expr("in A and has b and has c")) == "A and 2 more"
    assert describe(parse_class_expr("in A or in B")) == "any of 2"
    assert describe(parse_class_expr("size = 3")) == "size = 3"
    assert describe(parse_class_expr("has colour")) == "has colour"
    assert describe(parse_class_expr("not has colour")) == "other"
    match Concept("A", "A", "G", ("x",)):
        case Concept(cid, _, genus, (first,)):
            assert (cid, genus, first) == ("A", "G", "x")
        case _:
            pytest.fail("no match")
    match Term("t", "en", TermStatus.PREFERRED, "C"):
        case Term(designation, "en", TermStatus.PREFERRED, concept, None):
            assert (designation, concept) == ("t", "C")
        case _:
            pytest.fail("no match")
    assert Model.__match_args__ == MODEL_FIELDS


def round_trips(value, protocols=range(pickle.HIGHEST_PROTOCOL + 1)):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in protocols:
        yield pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("cls, fields, values, text, frozen", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, fields, values, text, frozen):
    record = cls(*values)
    for clone in round_trips(record):
        assert type(clone) is cls
        assert clone == record
        assert repr(clone) == text
    deep = copy.deepcopy(record)
    shallow = copy.copy(record)
    for name, value in zip(fields, values):
        assert getattr(shallow, name) is value
        if isinstance(value, (dict, list)):
            assert getattr(deep, name) is not value


def test_a_parsed_model_and_a_bitset_view_round_trip_at_every_protocol():
    model = parse("concept A\nconcept B := A + x", "t.otl").model
    model.source.span(0, 1)  # fills the newline table, which a clone rebuilds
    for clone in round_trips(model):
        assert type(clone) is Model and clone == model and clone.validated is False
        assert clone.spans == model.spans
        assert (clone.source.file, clone.source.text) == ("t.otl", model.source.text)
        assert clone.source.span(10, 1) == SourceSpan("t.otl", 2, 1, 1)
    view = BitSets({"K": 0b101, "L": 0}, ["a", "b", "c"])
    for clone in round_trips(view):
        assert type(clone) is BitSets
        assert (clone.bits, clone.names, clone.index) == (view.bits, view.names, view.index)
        assert dict(clone) == {"K": frozenset({"a", "c"}), "L": frozenset()}


def test_a_validated_model_round_trips_with_its_indexes(mouse):
    mouse.spans[("note", "x")] = (0, 1)
    for clone in round_trips(mouse):
        assert type(clone) is Model
        assert clone == mouse
        assert repr(clone) == repr(mouse)
        assert clone.validated is True
        assert clone.spans == mouse.spans
        assert clone.source.text == mouse.source.text
        assert clone.intensions.bits == mouse.intensions.bits
        assert dict(clone.intensions) == dict(mouse.intensions)
        assert clone.superiors.bits == mouse.superiors.bits
        assert clone.hierarchy == mouse.hierarchy
        assert clone.superiors is clone.hierarchy.superiors
        assert subsumes(clone, "PointingDevice", "OpticalMouse")
        assert extension(clone, "PointingDevice") == {"thisOpticalMouse"}
        assert evaluate_class(clone, parse_class_expr("has colour")) == {"thisOpticalMouse"}
        assert to_json(clone) == to_json(mouse)


def test_a_bitset_view_shows_each_keys_members_in_numbering_order():
    model = parse("concept A\nconcept B := A + x", "t.otl").model
    assert validate(model) == []
    assert repr(model.intensions) == "BitSets({'A': [], 'B': ['x']})"
    assert repr(model.superiors) == "BitSets({'A': [], 'B': ['A']})"
    assert repr(model.hierarchy).startswith("Hierarchy(superiors=BitSets({'A': [], 'B': ['A']}), ")
    assert repr(BitSets({"K": 0b1101}, ["c", "b", "a", "d"])) == "BitSets({'K': ['c', 'a', 'd']})"
    assert repr(BitSets()) == "BitSets({})"


def test_model_repr_shows_the_collections_and_validated():
    assert repr(Model()) == (
        "Model(differences={}, axes={}, concepts={}, attributes={}, objects={}, parts=[], "
        "relations=[], terms=[], classes={}, validated=False)"
    )
    model = build_model("mouse.otl")
    text = repr(model)
    assert text.startswith("Model(differences={'mechanical': Difference(id='mechanical', ")
    assert text.endswith("], classes={}, validated=True)")
    assert "spans" not in text and "source" not in text and "hierarchy" not in text


def test_model_equality_compares_only_the_nine_collections(mouse):
    bare = Model(
        mouse.differences, mouse.axes, mouse.concepts, mouse.attributes, mouse.objects,
        mouse.parts, mouse.relations, mouse.terms, mouse.classes,
    )
    assert bare == mouse and not bare != mouse
    assert bare.validated is False and bare.spans == {} and bare.hierarchy is None
    assert Model(classes={"K": ClassDef("K", ATOM)}) != Model()
    assert Model(parts=[PartLink("A", "B")]) != Model()
    assert Model() != object() and Model().__eq__(object()) is NotImplemented


def test_model_takes_every_field_by_position_and_by_keyword(mouse):
    values = [getattr(mouse, name) for name in MODEL_FIELDS]
    for model in (Model(*values), Model(**dict(zip(MODEL_FIELDS, values)))):
        assert [getattr(model, name) for name in MODEL_FIELDS] == values
        assert model.superiors is mouse.hierarchy.superiors
