"""Class algebra: evaluation semantics, conjunction/disjunction, laws."""

import copy
import pickle
import random
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otl import (
    And,
    AttrEquals,
    Contradiction,
    HasAttr,
    InConcept,
    Not,
    Or,
    UnknownIdentifierError,
    concept_conjunction,
    concept_disjunction,
    evaluate_class,
    extension,
    parse,
    subsumes,
    validate_or_raise,
)
from otl.classes import fold

from gen import random_expr, valid_random_model
from oracles import oracle_evaluate


def build(source):
    result = parse(source)
    assert result.model is not None, [d.render() for d in result.diagnostics]
    return validate_or_raise(result.model)


def test_red_class_gathers_objects_of_different_concepts(red_things):
    red = red_things.classes["Red"].expr
    assert red == AttrEquals("colour", "red")
    members = evaluate_class(red_things, red)
    assert members == {"unclesFerrari", "lunchApple"}
    concepts = {red_things.objects[oid].concept for oid in members}
    assert concepts == {"Car", "Fruit"}


def test_negated_has_attr_over_fully_described_universe(red_things):
    # every object carries colour, so the complement is empty
    assert evaluate_class(red_things, Not(HasAttr("colour"))) == frozenset()


def test_conjunction_of_concept_and_attribute(red_things):
    expr = And((InConcept("PointingDevice"), AttrEquals("colour", "blue")))
    assert evaluate_class(red_things, expr) == {"thisOpticalMouse"}
    assert evaluate_class(red_things, expr) == oracle_evaluate(red_things, expr)


def test_in_concept_closed_under_subsumption(red_things):
    assert evaluate_class(red_things, InConcept("Thing")) == frozenset(
        red_things.objects
    )
    assert evaluate_class(red_things, InConcept("PointingDevice")) == {
        "thisOpticalMouse"
    }


def test_closed_world_negation(red_things):
    # an object without the attribute satisfies the negation of any test on it
    model = build(
        "concept A := x\n"
        "attribute size : number on A\n"
        "object bare : A\n"
        "object sized : A { size = 2 }\n"
    )
    assert evaluate_class(model, Not(HasAttr("size"))) == {"bare"}
    assert evaluate_class(model, Not(AttrEquals("size", 2))) == {"bare"}


def test_evaluate_unknown_attribute(red_things):
    with pytest.raises(UnknownIdentifierError):
        evaluate_class(red_things, HasAttr("weight"))
    with pytest.raises(UnknownIdentifierError):
        evaluate_class(red_things, InConcept("Ghost"))


def test_conjunction_contradiction_on_coordinates(mouse):
    result = concept_conjunction(mouse, "MechanicalMouse", "OpticalMouse")
    assert isinstance(result, Contradiction)
    assert result.axis == "DetectionMechanism"
    assert set(result.differences) == {"mechanical", "optical"}
    assert "DetectionMechanism" in result.describe()


def test_conjunction_with_itself_is_extension(mouse):
    result = concept_conjunction(mouse, "OpticalMouse", "OpticalMouse")
    assert not isinstance(result, Contradiction)
    assert evaluate_class(mouse, result) == extension(mouse, "OpticalMouse")


def test_conjunction_across_roots_is_intersection(multi_genus):
    result = concept_conjunction(multi_genus, "C1", "C2")
    assert not isinstance(result, Contradiction)
    assert evaluate_class(multi_genus, result) == extension(
        multi_genus, "C1"
    ) & extension(multi_genus, "C2")
    # o3 belongs to C3, which both C1 and C2 subsume
    assert evaluate_class(multi_genus, result) == {"o3"}


def test_conjunction_of_genus_and_specific_is_fine(mouse):
    result = concept_conjunction(mouse, "PointingDevice", "OpticalMouse")
    assert not isinstance(result, Contradiction)
    assert evaluate_class(mouse, result) == extension(mouse, "OpticalMouse")


def test_disjunction_union(mouse):
    expr = concept_disjunction(mouse, ["MechanicalMouse", "OpticalMouse"])
    assert expr == Or((InConcept("MechanicalMouse"), InConcept("OpticalMouse")))
    assert evaluate_class(mouse, expr) == extension(mouse, "MechanicalMouse") | extension(
        mouse, "OpticalMouse"
    )


def test_disjunction_with_own_specific_collapses_to_generic_branch(mouse):
    expr = concept_disjunction(mouse, ["PointingDevice", "OpticalMouse"])
    assert evaluate_class(mouse, expr) == extension(mouse, "PointingDevice")


def test_disjunction_requires_two_distinct(mouse):
    with pytest.raises(ValueError):
        concept_disjunction(mouse, ["OpticalMouse", "OpticalMouse"])
    with pytest.raises(ValueError):
        concept_disjunction(mouse, ["OpticalMouse"])


def test_and_or_arity_enforced():
    with pytest.raises(ValueError):
        And((InConcept("A"),))
    with pytest.raises(ValueError):
        Or(())


# -- algebraic laws -------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
def test_de_morgan(seed):
    rng = random.Random(seed)
    model = valid_random_model(seed, max_concepts=15, max_objects=15)
    a = random_expr(rng, model, depth=2)
    b = random_expr(rng, model, depth=2)
    left = evaluate_class(model, Not(And((a, b))))
    right = evaluate_class(model, Or((Not(a), Not(b))))
    assert left == right


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15)
def test_double_negation_beyond_the_recursion_limit(seed):
    rng = random.Random(seed)
    model = valid_random_model(seed, max_concepts=12, max_objects=15)
    base = random_expr(rng, model, depth=3)
    expected = evaluate_class(model, base)
    depth = 2 * (sys.getrecursionlimit() // 2 + rng.randint(1, 500))
    expr = base
    for _ in range(depth):
        expr = Not(expr)
    assert evaluate_class(model, expr) == expected
    assert evaluate_class(model, Not(expr)) == frozenset(model.objects) - expected


@given(st.integers(min_value=0, max_value=10_000))
def test_monotonicity_of_in_concept(seed):
    model = valid_random_model(seed, max_concepts=15)
    for c2 in model.concepts:
        for c1 in model.superiors[c2]:
            assert subsumes(model, c1, c2)
            assert evaluate_class(model, InConcept(c2)) <= evaluate_class(
                model, InConcept(c1)
            )


@given(st.integers(min_value=0, max_value=10_000))
def test_evaluate_agrees_with_interpreter_oracle(seed):
    rng = random.Random(seed)
    model = valid_random_model(seed, max_concepts=12, max_objects=15)
    for _ in range(5):
        expr = random_expr(rng, model, depth=3)
        assert evaluate_class(model, expr) == oracle_evaluate(model, expr)


@given(st.integers(min_value=0, max_value=10_000))
def test_contradiction_soundness(seed):
    # when conjunction reports a contradiction, no concept of the model could
    # ever host an object satisfying both sides
    model = valid_random_model(seed, max_concepts=25)
    ids = list(model.concepts)
    rng = random.Random(seed)
    for _ in range(10):
        c1, c2 = rng.choice(ids), rng.choice(ids)
        result = concept_conjunction(model, c1, c2)
        if isinstance(result, Contradiction):
            combined = model.intensions[c1] | model.intensions[c2]
            for other in ids:
                assert not combined <= model.intensions[other]
            assert evaluate_class(
                model, And((InConcept(c1), InConcept(c2)))
            ) == frozenset()


def test_fold_reaches_nodes_in_preorder_and_combines_them_in_postorder():
    a, b, c, d = InConcept("a"), HasAttr("b"), InConcept("c"), AttrEquals("d", "x")
    expr = And((Not(a), Or((b, Not(c))), d))
    reached, combined = [], []

    def children(node):
        reached.append(node)
        return (node.child,) if isinstance(node, Not) else getattr(node, "children", ())

    def combine(node, results):
        combined.append(node)
        return len(results)

    assert fold(expr, combine, children) == 3
    inner = expr.children[1]
    assert reached == [expr, Not(a), a, inner, b, Not(c), c, d]
    assert combined == [a, Not(a), b, c, Not(c), inner, d, expr]
    assert fold(expr, lambda node, results: [node, results]) == fold(expr, lambda node, results: [node, results], children)


def deep_source(leaf):
    return "concept A := x\nattribute colour : text on A\nclass Deep := { x | " + "not " * 5000 + leaf + " }\n"


def test_expressions_compare_at_any_depth():
    # one walk over both trees: the record comparison recursed once a level
    deep = parse(deep_source("has colour")).model
    assert deep == parse(deep_source("has colour")).model
    assert deep != parse(deep_source("in A")).model
    assert deep.classes["Deep"].expr != Not(deep.classes["Deep"].expr)
    assert And((HasAttr("a"), Not(InConcept("b")))) == And((HasAttr("a"), Not(InConcept("b"))))
    assert And((HasAttr("a"), HasAttr("b"))) != And((HasAttr("a"), HasAttr("b"), HasAttr("b")))
    assert Or((HasAttr("a"), HasAttr("b"))) != And((HasAttr("a"), HasAttr("b")))
    assert Not(AttrEquals("a", Decimal("1.0"))) == Not(AttrEquals("a", Decimal("1")))


def test_equality_and_pickle_see_arity():
    # both trees list a, b, c, d, and, and in postorder: only the arities
    # of their rows tell them apart
    a, b, c, d = map(InConcept, "abcd")
    left, right = And((a, b, And((c, d)))), And((a, And((b, c, d))))
    assert left != right and right != left
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clones = [pickle.loads(pickle.dumps(expr, protocol)) for expr in (left, right)]
        assert clones == [left, right] and clones[0] != right and clones[1] != left and clones[0] != clones[1]


def test_repr_hash_and_deepcopy_take_any_depth():
    # each walked a level per call: repr and deepcopy stopped near 330-400
    # nested nots, the hash near 500-600
    source = deep_source("has colour").replace("not " * 5000, "not " * 1200)
    model = validate_or_raise(parse(source).model)
    expr = model.classes["Deep"].expr
    assert repr(expr) == "Not(child=" * 1200 + "HasAttr(attribute='colour')" + ")" * 1200
    assert repr(model.classes["Deep"]) == f"ClassDef(id='Deep', expr={expr!r})"
    assert repr(expr) in repr(model)
    assert hash(expr) == hash(parse(source).model.classes["Deep"].expr)
    assert hash(expr) != hash(expr.child)
    assert copy.deepcopy(expr) is expr
    clone = copy.deepcopy(model)
    assert clone == model and clone.classes["Deep"].expr is expr and clone.classes is not model.classes
    # one level down, the hash is Frozen's hash of the field tuple
    pair = (InConcept("A"), Not(HasAttr("b")))
    for shallow in (And(pair), Or(pair), Not(And(pair))):
        assert hash(shallow) == hash(shallow._values())


def test_pickle_takes_any_depth():
    # pickle reduced each node to its children, recursing once a level: it
    # stopped near 500 nested nots
    model = validate_or_raise(parse(deep_source("has colour")).model)
    nots = model.classes["Deep"].expr
    mixed = HasAttr("colour")
    for level in range(1500):
        mixed = (And if level % 2 else Or)((mixed, InConcept("A")))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for expr in (nots, mixed):
            clone = pickle.loads(pickle.dumps(expr, protocol))
            assert clone is not expr and type(clone) is type(expr) and clone == expr
        clone = pickle.loads(pickle.dumps(model, protocol))
        assert clone == model and clone.validated is True
        assert evaluate_class(clone, clone.classes["Deep"].expr) == evaluate_class(model, nots)
    assert copy.copy(nots) is nots and copy.copy(mixed) is mixed  # as deepcopy: not through the reduce
