"""Core model operations: intension, extension, resolve, value semantics."""

from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from otl import (
    AmbiguousIdentifierError,
    Concept,
    GenusCycleError,
    InConcept,
    Model,
    NotValidatedError,
    ObjectInstance,
    RelationKind,
    UnknownIdentifierError,
    classify_object,
    compute_hierarchy,
    concept_conjunction,
    concept_disjunction,
    coordinates,
    describe_object,
    evaluate_class,
    extension,
    extensional_definition,
    has_errors,
    intension,
    intensional_definition,
    lexicon,
    parse,
    print_dsl,
    relation_kind_is_a,
    resolve,
    subsumes,
    to_dot,
    to_json,
    validate,
    validate_or_raise,
)
from otl.model import value_kind_of, values_equal, ValueKind

from conftest import load_fixture
from gen import valid_random_model
from oracles import oracle_extension, oracle_intension


def test_intension_empty_root():
    model = Model()
    model.concepts["Top"] = Concept("Top", "Top")
    assert intension(model, "Top") == frozenset()


def test_intension_union_of_genus_and_differentiae():
    model = Model()
    model.concepts["C1"] = Concept("C1", "C1", None, ("a",))
    model.concepts["C3"] = Concept("C3", "C3", "C1", ("b",))
    assert intension(model, "C3") == {"a", "b"}
    assert intension(model, "C1") == {"a"}


def test_intension_inherits_through_chain(porphyry):
    result = intension(porphyry, "Human")
    assert "mortal" in result
    assert "rational" in result
    assert result == intension(porphyry, "Animal") | {"rational"}


def test_intension_unknown_concept():
    with pytest.raises(UnknownIdentifierError):
        intension(Model(), "Ghost")


def test_intension_detects_genus_cycle():
    model = Model()
    model.concepts["A"] = Concept("A", "A", "B", ("x",))
    model.concepts["B"] = Concept("B", "B", "A", ("y",))
    with pytest.raises(GenusCycleError):
        intension(model, "A")


def test_extension_empty_for_uninstantiated_leaf(mouse):
    assert extension(mouse, "MechanicalMouse") == frozenset()


def test_extension_contains_subordinate_objects(mouse):
    assert extension(mouse, "OpticalMouse") == {"thisOpticalMouse"}
    assert extension(mouse, "PointingDevice") >= extension(mouse, "OpticalMouse")
    assert "thisOpticalMouse" in extension(mouse, "PointingDevice")


def test_extension_matches_oracle_on_fixture(mouse):
    for cid in mouse.concepts:
        assert extension(mouse, cid) == oracle_extension(mouse, cid)


# Every public read operation, called on the mouse fixture with `cid` in one
# place where it takes a concept id; those in TAKE_CONCEPTS take one.
READS = {
    "extension": lambda model, cid: extension(model, cid),
    "subsumes": lambda model, cid: subsumes(model, "PointingDevice", cid),
    "coordinates": lambda model, cid: coordinates(model, cid),
    "classify_object": lambda model, cid: classify_object(model, "thisOpticalMouse"),
    "evaluate_class": lambda model, cid: evaluate_class(model, InConcept(cid)),
    "concept_conjunction": lambda model, cid: concept_conjunction(model, cid, "OpticalMouse"),
    "concept_disjunction": lambda model, cid: concept_disjunction(model, ["OpticalMouse", cid]),
    "intensional_definition": lambda model, cid: intensional_definition(model, cid),
    "extensional_definition": lambda model, cid: extensional_definition(model, cid),
    "describe_object": lambda model, cid: describe_object(model, "thisOpticalMouse"),
    "lexicon": lambda model, cid: lexicon(model, "en"),
    "to_json": lambda model, cid: to_json(model),
    "print_dsl": lambda model, cid: print_dsl(model),
    "to_dot": lambda model, cid: to_dot(model),
    "compute_hierarchy": lambda model, cid: compute_hierarchy(model),
}
TAKE_CONCEPTS = {
    "extension",
    "subsumes",
    "coordinates",
    "evaluate_class",
    "concept_conjunction",
    "concept_disjunction",
    "intensional_definition",
    "extensional_definition",
}


@pytest.mark.parametrize("operation", READS)
def test_read_operations_name_themselves_and_reject_unknown_concepts(operation):
    model = parse(load_fixture("mouse.otl")).model
    with pytest.raises(NotValidatedError, match=f"^{operation} requires a validated model$"):
        READS[operation](model, "OpticalMouse")
    validate_or_raise(model)
    if operation in TAKE_CONCEPTS:
        with pytest.raises(UnknownIdentifierError, match="^unknown concept 'Ghost'$"):
            READS[operation](model, "Ghost")


# Edits to a validated mouse model after which it no longer validates.
BREAKING_EDITS = {
    "genus_cycle": lambda model: setattr(model.concepts["PointingDevice"], "genus", "OpticalMouse"),
    "object_of_unknown_concept": lambda model: model.objects.update(stray=ObjectInstance("stray", "stray", "Nope")),
}


@pytest.mark.parametrize("edit", BREAKING_EDITS)
@pytest.mark.parametrize("operation", READS)
def test_a_model_edited_into_an_invalid_one_answers_no_read_once_validated_again(operation, edit):
    model = parse(load_fixture("mouse.otl")).model
    validate_or_raise(model)
    BREAKING_EDITS[edit](model)
    assert has_errors(validate(model))
    assert not model.validated
    with pytest.raises(NotValidatedError, match=f"^{operation} requires a validated model$"):
        READS[operation](model, "OpticalMouse")


def test_resolve_finds_concept(mouse):
    hit = resolve(mouse, "OpticalMouse")
    assert hit.kind == "concept"
    assert hit.entity is mouse.concepts["OpticalMouse"]


def test_resolve_empty_name_not_found(mouse):
    with pytest.raises(UnknownIdentifierError):
        resolve(mouse, "")


def test_resolve_ambiguous_across_namespaces():
    source = "concept X := q\nclass X := { x | in X }\n"
    model = parse(source).model
    assert model is not None
    validate_or_raise(model)
    with pytest.raises(AmbiguousIdentifierError) as exc:
        resolve(model, "X")
    assert exc.value.candidates == ["concept 'X'", "class 'X'"]


def test_resolve_searches_all_namespaces(red_things):
    assert resolve(red_things, "colour").kind == "attribute"
    assert resolve(red_things, "lunchApple").kind == "object"
    assert resolve(red_things, "Nature").kind == "axis"
    assert resolve(red_things, "optical").kind == "difference"
    assert resolve(red_things, "Red").kind == "class"


def test_value_kinds_are_disjoint():
    assert value_kind_of(True) is ValueKind.BOOLEAN
    assert value_kind_of(Decimal("1")) is ValueKind.NUMBER
    assert value_kind_of("1") is ValueKind.TEXT
    # bool is an int subtype and Decimal(1) == True under ==; typed equality
    # must keep the kinds apart
    assert not values_equal(True, Decimal("1"))
    assert not values_equal("1", Decimal("1"))
    assert values_equal(Decimal("2.50"), Decimal("2.5"))


def test_relation_kind_taxonomy():
    assert relation_kind_is_a(RelationKind.CAUSAL, RelationKind.SEQUENTIAL)
    assert relation_kind_is_a(RelationKind.CAUSAL, RelationKind.ASSOCIATIVE)
    assert relation_kind_is_a(RelationKind.TEMPORAL, RelationKind.ASSOCIATIVE)
    assert not relation_kind_is_a(RelationKind.SEQUENTIAL, RelationKind.CAUSAL)
    assert not relation_kind_is_a(RelationKind.TEMPORAL, RelationKind.SEQUENTIAL)


@given(st.integers(min_value=0, max_value=10_000))
def test_intension_matches_oracle_on_random_models(seed):
    model = valid_random_model(seed)
    for cid in model.concepts:
        assert model.intensions[cid] == oracle_intension(model, cid)


@given(st.integers(min_value=0, max_value=10_000))
def test_genus_intension_strictly_below_concept(seed):
    model = valid_random_model(seed)
    for concept in model.concepts.values():
        if concept.genus is not None:
            assert model.intensions[concept.genus] < model.intensions[concept.id]


@given(st.integers(min_value=0, max_value=10_000))
def test_intensions_unique(seed):
    model = valid_random_model(seed)
    seen = set(model.intensions.values())
    assert len(seen) == len(model.concepts)


@given(st.integers(min_value=0, max_value=10_000))
def test_no_intension_combines_exclusive_axis_members(seed):
    model = valid_random_model(seed)
    for cid in model.concepts:
        for axis in model.axes.values():
            if axis.exclusive:
                assert len(model.intensions[cid].intersection(axis.members)) <= 1


@given(st.integers(min_value=0, max_value=10_000))
def test_validation_is_idempotent(seed):
    model = valid_random_model(seed, with_extras=True)
    first = validate(model)
    second = validate(model)
    assert first == second
    assert model.validated
