"""Classes as logical predicates over objects.

A class gathers the objects satisfying a formula, whatever their concept or
attribute structure.  Expressions combine concept membership, attribute
predicates and boolean connectives; evaluation is closed-world over the
model's declared objects: an object with no value for an attribute fails
both ``HasAttr`` and ``AttrEquals`` and therefore satisfies their negations.

Conjunction and disjunction of concepts yield classes, never new concepts.
Conjoining two concepts whose combined differences clash on an exclusive
axis is reported as a ``Contradiction`` instead of an expression.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence, TypeVar, Union

from . import model as m


class InConcept(m.Frozen):
    __slots__ = ("concept",)


class AttrEquals(m.Frozen):
    __slots__ = ("attribute", "value")


class HasAttr(m.Frozen):
    __slots__ = ("attribute",)


class And(m.Frozen):
    __slots__ = ("children",)
    def __init__(self, children: tuple[ClassExpression, ...]):
        if len(children) < 2:
            raise ValueError("And requires at least two children")
        object.__setattr__(self, "children", children)


class Or(m.Frozen):
    __slots__ = ("children",)
    def __init__(self, children: tuple[ClassExpression, ...]):
        if len(children) < 2:
            raise ValueError("Or requires at least two children")
        object.__setattr__(self, "children", children)


class Not(m.Frozen):
    __slots__ = ("child",)


ClassExpression = Union[InConcept, AttrEquals, HasAttr, And, Or, Not]


class Contradiction(m.Frozen):
    """Report that two concepts cannot be conjoined: an exclusive axis
    forbids combining the clashing differences."""

    __slots__ = ("axis", "differences", "concepts")

    def describe(self) -> str:
        c1, c2 = self.concepts
        clash = ", ".join(self.differences)
        return (
            f"conjunction of '{c1}' and '{c2}' is contradictory: "
            f"exclusive axis '{self.axis}' forbids combining {clash}"
        )


_T = TypeVar("_T")
_COMBINE = object()  # marks on fold's stack where a node is combined
_Clash = tuple[str, list[str]]


def _children(expr: ClassExpression) -> tuple[ClassExpression, ...]:
    return (expr.child,) if isinstance(expr, Not) else getattr(expr, "children", ())


def fold(expr: Any, combine: Callable[[Any, list[_T]], _T], children: Callable[[Any], Sequence] = _children) -> _T:
    """Combine a tree bottom-up in a recursive walk's order, on one explicit
    stack, so at any depth: `children(node)` is called on reaching a node and
    `combine(node, results)` once its children, left to right, are combined."""
    results: list[_T] = []
    stack = [expr]  # the nodes to reach; under a reached node's children, its arity, itself and _COMBINE
    while stack:
        node = stack.pop()
        if node is _COMBINE:
            node, arity = stack.pop(), stack.pop()
            cut = len(results) - arity
            results[cut:] = [combine(node, results[cut:])]
        elif kids := children(node):
            stack += (len(kids), node, _COMBINE, *reversed(kids))
        else:
            results.append(combine(node, []))
    return results[0]


def _rows(expr: ClassExpression) -> list:
    """The expression's rows in postorder, by one walk so at any depth: a leaf
    as itself, a node as its class and arity.  Postorder with arities decodes
    to one tree, so expressions with equal rows are equal."""
    rows: list = []
    fold(expr, lambda node, kids: rows.append((node.__class__, len(kids)) if kids else node))
    return rows


def _equal(self: ClassExpression, other: object) -> bool:
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _rows(self) == _rows(other)  # type: ignore[arg-type]


class _Hashed(int):  # a hash already taken: a tuple of these hashes as the tuple of the nodes
    __slots__ = ()
    __hash__ = int.__int__  # the int itself, not its hash mod 2**61 - 1


def _hash(node: Any, hashes: list[int]) -> int:  # Frozen's hash of the field tuple, one level at a time
    if isinstance(node, (And, Or)):
        return hash((tuple(map(_Hashed, hashes)),))
    return hash((_Hashed(hashes[0]),)) if isinstance(node, Not) else hash(node)


def _repr(node: Any, shown: list[str]) -> str:  # Record's repr, one level at a time
    if isinstance(node, (And, Or)):
        return f"{node.__class__.__qualname__}(children=({', '.join(shown)}))"
    return f"Not(child={shown[0]})" if isinstance(node, Not) else repr(node)


def _reduce(self: ClassExpression) -> tuple:
    """Pickle a nested expression as its rows, so at any depth."""
    return _rebuild, (_rows(self),)


def _rebuild(rows: list) -> ClassExpression:
    stack: list = []
    for row in rows:
        if isinstance(row, tuple):  # a node over the last `arity` built
            cls, arity = row
            cut = len(stack) - arity
            stack[cut:] = [Not(stack[cut]) if cls is Not else cls(tuple(stack[cut:]))]
        else:
            stack.append(row)
    return stack[0]


# Set after the classes are made (an __eq__ in the body would unset the
# hash): the walks over a nested expression are folds, so at any depth.
for _node in (And, Or, Not):
    _node.__eq__, _node.__hash__ = _equal, lambda self: fold(self, _hash)  # type: ignore
    _node.__repr__, _node.__reduce__ = lambda self: fold(self, _repr), _reduce  # type: ignore
for _node in (InConcept, AttrEquals, HasAttr, And, Or, Not):  # immutable: a copy is the node itself
    _node.__copy__, _node.__deepcopy__ = lambda self: self, lambda self, memo: self  # type: ignore


def expression_references(expr: ClassExpression) -> tuple[set[str], set[str], list[AttrEquals], int]:
    """Concept and attribute identifiers referenced by an expression, its
    comparisons with a literal, and how deep the parenthesized groups of its
    printed form nest (each ``and`` or ``or`` below another node is one
    group), in one walk."""
    concepts: set[str] = set()
    attributes: set[str] = set()
    compared: list[AttrEquals] = []

    def note(node: ClassExpression, depths: list[int]) -> int:  # the most groups on a path from the node down
        if isinstance(node, Not):
            return depths[0]
        if isinstance(node, (And, Or)):
            return max(depths) + 1
        if isinstance(node, InConcept):
            concepts.add(node.concept)
        else:
            attributes.add(node.attribute)
            if isinstance(node, AttrEquals):
                compared.append(node)
        return 0

    depth = fold(expr, note)
    return concepts, attributes, compared, depth - isinstance(expr, (And, Or))  # the root is printed bare


def evaluate_class(model: m.Model, expr: ClassExpression) -> frozenset[str]:
    """Set of object identifiers satisfying the expression."""
    model.require_validated("evaluate_class")
    universe = frozenset(model.objects)

    def evaluate(node: ClassExpression, parts: list[frozenset[str]]) -> frozenset[str]:
        if isinstance(node, InConcept):
            return m.extension(model, node.concept)
        if isinstance(node, (And, Or)):
            return parts[0].intersection(*parts[1:]) if isinstance(node, And) else parts[0].union(*parts[1:])
        if isinstance(node, Not):
            return universe - parts[0]
        if node.attribute not in model.attributes:
            raise m.UnknownIdentifierError(f"unknown attribute '{node.attribute}'")
        if isinstance(node, HasAttr):
            return frozenset(oid for oid in universe if node.attribute in model.objects[oid].values)
        if fault := m.literal_fault(node.value):  # the check validate makes of a named class
            raise m.OtlError(f"class expression compares attribute '{node.attribute}' with {fault}")
        return frozenset(oid for oid in universe if node.attribute in model.objects[oid].values
                         and m.values_equal(model.objects[oid].values[node.attribute], node.value))

    return fold(expr, evaluate)


def axis_clashes(model: m.Model, numbering: m.BitSets) -> tuple[dict[str, int], Callable[[int], list[_Clash]]]:
    """The exclusive-axis rule over sets of differences (bits of `numbering`):
    each member of an exclusive axis with the bits of its axis's members, and
    a function from a set to its clashes, (axis, members) for each exclusive
    axis holding two or more, axes in declaration order, members sorted."""
    masks: dict[str, int] = {}
    for axis in model.axes.values():
        if axis.exclusive:
            masks.update(dict.fromkeys(axis.members, numbering.mask(axis.members)))
    exclusive = numbering.mask(masks)

    def clashes(bits: int) -> list[_Clash]:
        by_axis: dict[str, list[str]] = {}
        for diff in numbering.members(bits & exclusive):  # in sorted order
            by_axis.setdefault(model.differences[diff].axis, []).append(diff)
        found = [(axis, diffs) for axis, diffs in by_axis.items() if len(diffs) > 1]
        return sorted(found, key=lambda c: list(model.axes).index(c[0])) if len(found) > 1 else found

    return masks, clashes


def concept_conjunction(
    model: m.Model, c1: str, c2: str
) -> Union[ClassExpression, Contradiction]:
    """Class of objects belonging to both concepts, or a Contradiction when
    the combined intensions clash on an exclusive axis.

    The result is a class: conjunction never mints a new concept.
    """
    model.require_validated("concept_conjunction", c1, c2)
    bits = model.intensions.bits
    clashes = axis_clashes(model, model.intensions)[1](bits[c1] | bits[c2])
    if clashes:
        return Contradiction(clashes[0][0], tuple(clashes[0][1]), (c1, c2))
    return And((InConcept(c1), InConcept(c2)))


def concept_disjunction(model: m.Model, concepts: Iterable[str]) -> ClassExpression:
    """Class of objects belonging to any of the given concepts.

    Requires at least two distinct concepts; no generic concept is created,
    the union stays a class.
    """
    distinct = list(dict.fromkeys(concepts))
    model.require_validated("concept_disjunction", *distinct)
    if len(distinct) < 2:
        raise ValueError("concept_disjunction requires at least two distinct concepts")
    return Or(tuple(InConcept(cid) for cid in distinct))
