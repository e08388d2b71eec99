"""Core data model for conceptual systems.

A model gathers essential characteristics (differences), the axes that group
them into subdivision criteria, the concepts they define, descriptive
attributes, reified objects, whole/part and associative links between
concepts, named object classes, and the terms that designate concepts in
natural languages.  Every other module in the package (parser, validator,
hierarchy reasoner, class algebra, definition generator, exporters) operates
on this container.

A freshly built model is *unvalidated*: cross-references are symbolic and the
derived indexes are empty.  ``otl.reasoner.validate`` resolves and checks
everything; afterwards the model is treated as immutable and the read-only
operations here (``intension``, ``extension``, ``resolve``) are safe to call
from multiple threads.

The package's entity, expression and result types are records: classes that
name their fields once, in ``__slots__``.  Their base ``Record`` gives each
an ``__init__`` taking the slots in order, with the defaults of its
``_defaults``, unless the class writes its own (``And``, ``Or`` and
``ExportOptions`` check their arguments).  It compares two of the same class
by the tuple of their ``_fields`` (by default the slots) and shows those in
its repr, matches the slots positionally, copies and pickles through the
constructor, and is unhashable.  ``Frozen`` hashes the field tuple and
refuses assignment and deletion; its ``__init__`` sets each slot with
``object.__setattr__``.
"""

from __future__ import annotations

import gc
import re
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from decimal import Decimal
from enum import Enum
from functools import reduce, wraps
from itertools import compress
from operator import or_
from typing import NamedTuple, Optional, Union


class Record:
    """Base of the record types (see the module docstring)."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls) -> None:
        if "__slots__" in cls.__dict__:  # a subclass without slots keeps its base's fields
            cls.__match_args__ = cls.__slots__
            cls._fields = cls.__dict__.get("_fields", cls.__slots__)
            if cls.__slots__ and "__init__" not in cls.__dict__:
                cls.__init__ = _generated_init(cls)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])


class Frozen(Record):
    """A record whose fields cannot change once set, hashed as their tuple."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__  # bound once: a Frozen __init__ sets each slot with it
_FRESH = {dict: "{}", list: "[]"}  # made by a literal, as a written-out body would, not by a call


def _generated_init(cls: type) -> Callable[..., None]:
    """A record's ``__init__``: its parameters are the slots in order, with
    the defaults of ``_defaults``, where a class stands for a new instance of
    it on each call; its body is the one a person would write, compiled once."""
    defaults = dict(cls.__dict__.get("_defaults", {}))
    scope: dict = {"_set": _set, "_defaults": defaults}
    assign = '_set(self, "{0}", {1})' if issubclass(cls, Frozen) else "self.{0} = {1}"
    params, body = [], []
    for name in cls.__slots__:
        value = name
        if isinstance(defaults.get(name), type):
            fresh, defaults[name] = defaults[name], None
            scope[fresh.__name__] = fresh
            value = f"{_FRESH.get(fresh, fresh.__name__ + '()')} if {name} is None else {name}"
        params.append(f"{name}=_defaults[{name!r}]" if name in defaults else name)
        body.append(assign.format(name, value))
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), scope)
    init = scope["__init__"]
    init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__
    return init


def collector_paused(call: Callable) -> Callable:
    """Run a whole-model call with the cyclic collector paused, as Mercurial's
    ``util.nogc`` does: a model forms no cycles.  The pause is process-wide; only
    the call that made it lifts it, so a caller's setting (or an outer call's)
    is kept, and a thread that toggles the collector meanwhile races with it."""
    @wraps(call)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return call(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


# Attribute values are typed: text, number (exact decimal), or boolean.
# Plain ints are accepted anywhere a number is (convenient for hand-built
# expressions); parsing and deserialization always produce Decimal.
Value = Union[str, bool, Decimal, int]

# The one literal form of a number, shared by the DSL lexer and otl-json/1:
# an optional minus, ASCII digits without a leading zero and an optional
# fraction.  No exponent, plus sign, blank, underscore, NaN or Infinity, so
# every number that parse or from_json loads prints back as the literal it
# was read from.
NUMBER_LITERAL = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?")

# The one spelling of a name, shared by the DSL lexer and the validator: an
# ASCII letter, then ASCII letters, digits and underscores, and not a
# keyword.  `validate` holds every declared id and term language to it, so
# whatever parse or from_json loads prints as DSL that parses again.
IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
STATEMENT_KEYWORDS = ("concept", "axis", "attribute", "object", "part", "relation", "term", "class")
KEYWORDS = frozenset(STATEMENT_KEYWORDS).union(
    ("of", "on", "has", "for", "definition", "nonexclusive"),
    ("in", "and", "or", "not", "true", "false"),
)

# Nesting bound for class expressions, shared by the parser's recursive
# descent and `validate`, so every valid class prints as DSL that parses.
MAX_EXPR_DEPTH = 200


class ValueKind(str, Enum):
    TEXT = "text"
    NUMBER = "number"
    BOOLEAN = "boolean"


class TermStatus(str, Enum):
    PREFERRED = "preferred"
    ADMITTED = "admitted"
    DEPRECATED = "deprecated"
    STANDARDIZED = "standardized"


class RelationKind(str, Enum):
    """Built-in taxonomy of associative (non-hierarchical) relation types."""

    ASSOCIATIVE = "associative"
    SEQUENTIAL = "sequential"
    TEMPORAL = "temporal"
    CAUSAL = "causal"
    PRODUCER_PRODUCT = "producer_product"


# causal < sequential < associative; the others sit directly under associative.
RELATION_KIND_PARENT: dict[RelationKind, RelationKind] = {
    RelationKind.CAUSAL: RelationKind.SEQUENTIAL,
    RelationKind.SEQUENTIAL: RelationKind.ASSOCIATIVE,
    RelationKind.TEMPORAL: RelationKind.ASSOCIATIVE,
    RelationKind.PRODUCER_PRODUCT: RelationKind.ASSOCIATIVE,
}

# Accepted spellings that normalize onto the taxonomy.
RELATION_KIND_ALIASES: dict[str, RelationKind] = {
    "cause_effect": RelationKind.CAUSAL,
}


def parse_relation_kind(text: str) -> RelationKind:
    """Map a surface spelling (including aliases) onto the taxonomy."""
    if text in RELATION_KIND_ALIASES:
        return RELATION_KIND_ALIASES[text]
    try:
        return RelationKind(text)
    except ValueError:
        raise UnknownIdentifierError(f"unknown relation type '{text}'") from None


def relation_kind_is_a(kind: RelationKind, ancestor: RelationKind) -> bool:
    """True iff `kind` equals `ancestor` or sits below it in the taxonomy."""
    cur: Optional[RelationKind] = kind
    while cur is not None:
        if cur is ancestor:
            return True
        cur = RELATION_KIND_PARENT.get(cur)
    return False


def value_kind_of(value: object) -> Optional[ValueKind]:
    # bool must be tested before the numeric branch: bool is an int subtype
    # and Decimal(1) == True under plain ==.  None: a value of no kind.
    if isinstance(value, bool):
        return ValueKind.BOOLEAN
    if isinstance(value, (Decimal, int)):
        return ValueKind.NUMBER
    if isinstance(value, str):
        return ValueKind.TEXT
    return None


def literal_fault(value: object, expected: Optional[ValueKind] = None) -> Optional[str]:
    """What keeps a value from being a literal the DSL spells, worded, or
    None: a type no value kind covers (a float, None), a kind other than
    `expected`, or NaN or an infinity, which no number literal spells."""
    kind = value_kind_of(value)
    if kind is None:
        return f"{value!r}, a value of no kind"
    if expected is not None and kind is not expected:
        return f"a {kind.value} value, expected {expected.value}"
    if isinstance(value, Decimal) and not value.is_finite():
        return f"the non-finite number {value}"
    return None


def values_equal(a: Value, b: Value) -> bool:
    """Typed value equality: values of different kinds are never equal."""
    return value_kind_of(a) is value_kind_of(b) and a == b


def dsl_quote(text: str) -> str:
    """Render a string as a DSL string literal."""
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def render_value(value: Value) -> str:
    """Render an attribute value as it appears in DSL source."""
    kind = value_kind_of(value)
    if kind is ValueKind.BOOLEAN:
        return "true" if value else "false"
    if kind is ValueKind.NUMBER:
        return number_text(value)  # type: ignore[arg-type]
    return dsl_quote(value)  # type: ignore[arg-type]


def number_text(value: Union[Decimal, int]) -> str:
    """A number as NUMBER_LITERAL spells it: ``str`` would write 0.0000001 as 1E-7."""
    return format(value, "f") if isinstance(value, Decimal) else str(value)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: Stable catalogue of diagnostic codes.  Anything emitted anywhere in the
#: package is drawn from this set (asserted by the test suite).
DIAGNOSTIC_CODES = frozenset(
    {
        # lexing / parsing
        "E_LEX",
        "E_SYN",
        "E_DUP_DECL",
        # reference resolution and structure
        "E_NAME",
        "E_UNRESOLVED",
        "E_GENUS_CYCLE",
        "E_AXIS_ARITY",
        "E_EXPR_DEPTH",
        # intension checks
        "E_DUP_INTENSION",
        "E_NO_DELIMITING",
        "E_REDUNDANT_DIFFERENTIA",
        "E_AXIS_CONTRADICTION",
        "E_AXIS_SCOPE",
        # objects, parts, terms
        "E_ATTR_DOMAIN",
        "E_ATTR_VALUE",
        "E_PART_CYCLE",
        # serialization
        "E_JSON_SCHEMA",
        # definition generation
        "E_ROOT_NO_INTENSIONAL",
        "E_NO_SUBORDINATES",
        # warnings
        "W_NO_PREFERRED_TERM",
        "W_DESCRIPTION_ONLY",
    }
)


class SourceSpan(Frozen):
    """Location of a token or declaration in DSL source (1-based)."""

    __slots__ = ("file", "line", "column", "length")
    _defaults = {"length": 1}

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


_NEWLINE = re.compile("\n")


class SourceText:
    """A DSL source and its file name; turns offsets into it into spans.

    Lines and columns are 1-based and count code points.  The sorted offsets
    of every newline are collected on the first lookup and each lookup is
    then one bisect, so a source that no diagnostic points into never pays
    for the table.
    """

    __slots__ = ("file", "text", "_newlines")

    def __init__(self, file: str, text: str):
        self.file = file
        self.text = text
        self._newlines: Optional[list[int]] = None

    def span(self, offset: int, length: int) -> SourceSpan:
        newlines = self._newlines
        if newlines is None:
            newlines = self._newlines = [nl.start() for nl in _NEWLINE.finditer(self.text)]
        line = bisect_left(newlines, offset)  # newlines before the offset
        line_start = newlines[line - 1] + 1 if line else 0
        return SourceSpan(self.file, line + 1, offset - line_start + 1, length)

    def __reduce__(self) -> tuple:
        return SourceText, (self.file, self.text)  # the newline table is rebuilt on demand


class Diagnostic(Frozen):
    __slots__ = ("severity", "code", "message", "location")
    _defaults = {"location": None}
    # `location` is a source span (DSL input) or an entity identifier (built models)

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        loc = str(self.location) if self.location is not None else "-"
        return f"{self.severity.value.upper()} {self.code} {loc} {self.message}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.is_error for d in diagnostics)


def sorted_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """The order every diagnostic list is reported in: those with a source
    span by file, line, column and code, then the rest by code; ties keep
    the order they were found in."""

    def key(diag: Diagnostic) -> tuple:
        loc = diag.location
        if isinstance(loc, SourceSpan):
            return (0, loc.file, loc.line, loc.column, diag.code)
        return (1, "", 0, 0, diag.code)

    return sorted(diagnostics, key=key)


# ---------------------------------------------------------------------------
# Errors raised by read operations (diagnostics cover build-time problems)
# ---------------------------------------------------------------------------


class OtlError(Exception):
    """Base class for errors raised by this package."""

    code: Optional[str] = None


class UnknownIdentifierError(OtlError):
    pass


class AmbiguousIdentifierError(OtlError):
    def __init__(self, name: str, candidates: list[str]):
        self.name = name
        self.candidates = candidates
        listing = ", ".join(candidates)
        super().__init__(f"'{name}' is ambiguous: {listing}")


class GenusCycleError(OtlError):
    code = "E_GENUS_CYCLE"


class NotValidatedError(OtlError):
    def __init__(self, operation: str):
        super().__init__(f"{operation} requires a validated model")


class InvalidModelError(OtlError):
    """Raised when an operation needs a valid model but validation failed."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        first = next((d for d in diagnostics if d.is_error), None)
        super().__init__(first.render() if first else "model is invalid")


# ---------------------------------------------------------------------------
# Entities
# ---------------------------------------------------------------------------


class Difference(Record):
    """Essential characteristic: a unary predicate that defines concepts.

    The ``axis`` back-reference is derived from axis membership during
    validation; a difference belonging to no axis is free-standing.
    """

    __slots__ = ("id", "label", "axis")
    _defaults = {"axis": None}


class Axis(Record):
    """Subdivision criterion: a named group of at least two differences.

    ``scope`` names the concept whose subdivision the axis governs; only
    concepts at or under that scope may use the member differences.  When
    ``exclusive`` (the default) no concept may combine two members.
    """

    __slots__ = ("id", "label", "scope", "members", "exclusive")
    _defaults = {"exclusive": True}


class Concept(Record):
    """Unit of knowledge identified by a unique combination of differences.

    ``genus`` is the declared superordinate (None for roots); ``differentiae``
    are the stated delimiting differences in declaration order.  The full
    intension is derived: intension(genus) plus the differentiae.
    """

    __slots__ = ("id", "label", "genus", "differentiae")
    _defaults = {"genus": None, "differentiae": ()}


class AttributeDecl(Record):
    """Descriptive characteristic: a typed attribute objects may carry."""

    __slots__ = ("id", "label", "domain", "value_kind")


class ObjectInstance(Record):
    """Reification of exactly one concept, carrying valuated attributes.

    Missing attribute values are permitted; an object is then merely
    incompletely described.
    """

    __slots__ = ("id", "label", "concept", "values")
    _defaults = {"values": dict}


class PartLink(Frozen):
    """Whole/part link between concepts.  Descriptive, not an order: no
    transitive closure is ever computed, but cycles are rejected."""

    __slots__ = ("whole", "part", "note")
    _defaults = {"note": None}


class AssociativeLink(Frozen):
    """Non-hierarchical link between concepts, typed by the built-in
    relation taxonomy."""

    __slots__ = ("relation_type", "source", "target")


class Term(Frozen):
    """Designation of a concept in a natural language."""

    __slots__ = ("designation", "language", "status", "concept", "nl_definition")
    _defaults = {"nl_definition": None}


class ClassDef(Record):
    """Named class: a logical formula gathering objects of any concept."""

    __slots__ = ("id", "expr")


class BitSets(Mapping[str, frozenset[str]]):
    """Read-only map from keys to sets of names, stored as one int per key.

    Bit i of ``bits[key]`` stands for ``names[i]`` and ``index`` maps a name
    to its bit (Ait-Kaci et al., TOPLAS 1989).  A lookup builds a frozenset
    in time proportional to its size; nothing is cached.
    """

    __slots__ = ("bits", "names", "index")
    _FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits -> compress selectors

    def __init__(self, bits: Optional[dict[str, int]] = None, names: Sequence[str] = ()):
        self.bits: dict[str, int] = {} if bits is None else bits
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def __getitem__(self, key: str) -> frozenset[str]:
        return frozenset(self.members(self.bits[key]))

    def __iter__(self) -> Iterator[str]:
        return iter(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __contains__(self, key: object) -> bool:
        return key in self.bits

    def __repr__(self) -> str:
        return f"BitSets({dict(zip(self.bits, map(self.members, self.bits.values())))!r})"

    def __reduce__(self) -> tuple:
        return BitSets, (self.bits, self.names)

    def mask(self, names: Iterable[str]) -> int:
        """The bits of `names`, which must all be numbered."""
        return reduce(or_, map((1).__lshift__, map(self.index.__getitem__, names)), 0)

    def members(self, bits: int) -> list[str]:
        """The names at the set bits, in numbering order: a sparse set walks
        its bits, a dense one filters ``names`` at C speed, each in time
        proportional to the set's size."""
        names = self.names
        if bits.bit_count() * 8 > bits.bit_length():
            return list(compress(names, bin(bits)[:1:-1].encode().translate(self._FLAGS)))
        out = []
        while bits:
            top = bits.bit_length() - 1
            out.append(names[top])
            bits ^= 1 << top
        out.reverse()
        return out


# ---------------------------------------------------------------------------
# The model container
# ---------------------------------------------------------------------------


class Model(Record):
    """Complete conceptual system plus derived indexes.

    Entity collections are keyed by identifier and preserve declaration
    order (except parts/relations/terms, which are plain ordered lists); one
    not given starts empty.  The derived fields (``intensions``, ``superiors``,
    ``hierarchy``, ``parts_by_whole``) are filled by ``otl.reasoner.validate``.
    Only the nine collections are compared; the repr shows them and
    ``validated``.

    ``spans`` maps (entity kind, identifier) to the (offset, length) of the
    declaring token in ``source``, values aside; ``span_for`` makes a
    SourceSpan on demand.  ``intensions`` holds each concept's intension, as
    bits over the differences in sorted-id order.  ``superiors`` holds all
    strict subsumers of each concept, as bits over the concepts in increasing
    intension size, so every genus is numbered before its children
    (print_dsl relies on it); it is the same object as
    ``hierarchy.superiors``, whose covering relation is bits over the same
    numbering.  ``parts_by_whole`` maps each whole to its parts, in ``parts``
    order, as the part-cycle check groups them: the one home of that
    grouping, so ``describe_object`` reads an object's parts in time
    proportional to their number.  ``validate`` sets ``validated`` only if
    the model passes.
    """

    __slots__ = ("differences", "axes", "concepts", "attributes", "objects", "parts", "relations", "terms",
                 "classes", "spans", "source", "validated", "intensions", "superiors", "hierarchy", "parts_by_whole")
    _fields = __slots__[:9]
    _defaults = {"differences": dict, "axes": dict, "concepts": dict, "attributes": dict, "objects": dict,
                 "parts": list, "relations": list, "terms": list, "classes": dict, "spans": dict, "source": None,
                 "validated": False, "intensions": BitSets, "superiors": BitSets, "hierarchy": None,
                 "parts_by_whole": dict}

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}, validated={self.validated!r})"

    def require_validated(self, operation: str, *concepts: str) -> None:
        """The precondition of every read operation: the model is validated
        and names each of `concepts`."""
        if not self.validated:
            raise NotValidatedError(operation)
        for cid in concepts:
            if cid not in self.concepts:
                raise UnknownIdentifierError(f"unknown concept '{cid}'")

    def span_for(self, kind: str, entity_id: str) -> Union[SourceSpan, str]:
        """Best available diagnostic location for an entity: the span of its
        declaration in the parsed source, else its identifier (in a model from
        ``from_json`` or the API).  A value, "object.attribute", is found on
        demand: its first assignment in the object's statement, read again."""
        at = self.spans.get((kind, entity_id))
        oid, _, attr = entity_id.partition(".")
        if kind == "value" and self.source is not None and ("object", oid) in self.spans:
            from .parser import _Parser  # imported here: the parser imports this module
            reader = _Parser(self.source)
            reader.seat(self.spans[("object", oid)][0])
            at = next(((offset, len(attr)) for a, offset, _ in reader.object_body()[3] if a == attr), None)
        if at is None or self.source is None:
            return entity_id
        return self.source.span(*at)


class Resolved(NamedTuple):
    kind: str
    entity: object


# Search order for resolve(): fixed, also the listing order in ambiguity
# errors.
_RESOLVE_ORDER = (
    ("concept", "concepts"),
    ("difference", "differences"),
    ("axis", "axes"),
    ("attribute", "attributes"),
    ("object", "objects"),
    ("class", "classes"),
)


def resolve(model: Model, name: str) -> Resolved:
    """Look up `name` across all entity namespaces.

    Searches concepts, differences, axes, attributes, objects and classes in
    that order; the name must be unique across them.
    """
    hits = []
    for kind, attr in _RESOLVE_ORDER:
        collection = getattr(model, attr)
        if name in collection:
            hits.append(Resolved(kind, collection[name]))
    if not hits:
        raise UnknownIdentifierError(f"'{name}' not found")
    if len(hits) > 1:
        raise AmbiguousIdentifierError(name, [f"{kind} '{name}'" for kind, _ in hits])
    return hits[0]


def intension(model: Model, concept_id: str) -> frozenset[str]:
    """Full set of differences of a concept: its genus's intension plus its
    own differentiae.  Works on unvalidated models too (computed on the fly,
    raising on genus cycles); on validated models the index is returned.
    """
    if concept_id not in model.concepts:
        raise UnknownIdentifierError(f"unknown concept '{concept_id}'")
    if model.validated:
        return model.intensions[concept_id]
    acc: set[str] = set()
    seen: set[str] = set()
    cur: Optional[str] = concept_id
    while cur is not None:
        if cur in seen:
            raise GenusCycleError(f"generic cycle through concept '{cur}'")
        seen.add(cur)
        concept = model.concepts.get(cur)
        if concept is None:
            raise UnknownIdentifierError(f"unknown concept '{cur}'")
        acc.update(concept.differentiae)
        cur = concept.genus
    return frozenset(acc)


def extension(model: Model, concept_id: str) -> frozenset[str]:
    """All objects whose concept is `concept_id` or subsumed by it."""
    model.require_validated("extension", concept_id)
    superiors = model.superiors
    bit = 1 << superiors.index[concept_id]
    below = {c for c, up in superiors.bits.items() if up & bit}  # each concept tested once
    below.add(concept_id)
    return frozenset(obj.id for obj in model.objects.values() if obj.concept in below)
