"""otl: author, check and query terminological concept systems.

The package implements a small DSL for conceptual systems (concepts defined
by essential characteristics, descriptive attributes, objects, whole/part
and associative links, terms) together with a reasoner that derives the
generic hierarchy from intension inclusion, a class algebra over objects,
a definition generator, and canonical serializers.
"""

__version__ = "0.1.0"

from importlib import import_module

from .classes import (
    And,
    AttrEquals,
    ClassExpression,
    Contradiction,
    HasAttr,
    InConcept,
    Not,
    Or,
    concept_conjunction,
    concept_disjunction,
    evaluate_class,
)
from .model import (
    AmbiguousIdentifierError,
    AssociativeLink,
    AttributeDecl,
    Axis,
    ClassDef,
    Concept,
    Diagnostic,
    Difference,
    GenusCycleError,
    InvalidModelError,
    Model,
    NotValidatedError,
    ObjectInstance,
    OtlError,
    PartLink,
    RelationKind,
    Resolved,
    Severity,
    SourceSpan,
    Term,
    TermStatus,
    UnknownIdentifierError,
    Value,
    ValueKind,
    extension,
    has_errors,
    intension,
    relation_kind_is_a,
    resolve,
)
from .parser import ParseError, ParseResult, parse, parse_class_expr
from .reasoner import (
    Hierarchy,
    classify_object,
    compute_hierarchy,
    coordinates,
    subsumes,
    validate,
    validate_or_raise,
)

# The definitions and exporters names load with their module on first access
# (PEP 562), so a command that never uses them does not import them.
_LAZY = {
    "DefinitionError": "definitions",
    "GeneratedDefinition": "definitions",
    "describe_object": "definitions",
    "extensional_definition": "definitions",
    "intensional_definition": "definitions",
    "lexicon": "definitions",
    "ExportOptions": "dot",
    "JsonSchemaError": "exporters",
    "from_json": "exporters",
    "print_dsl": "exporters",
    "to_dot": "dot",
    "to_json": "exporters",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "__version__",
    # model
    "Model",
    "Concept",
    "Difference",
    "Axis",
    "AttributeDecl",
    "ObjectInstance",
    "PartLink",
    "AssociativeLink",
    "Term",
    "ClassDef",
    "Value",
    "ValueKind",
    "TermStatus",
    "RelationKind",
    "relation_kind_is_a",
    "Severity",
    "Diagnostic",
    "SourceSpan",
    "Resolved",
    "intension",
    "extension",
    "resolve",
    "has_errors",
    # errors
    "OtlError",
    "UnknownIdentifierError",
    "AmbiguousIdentifierError",
    "GenusCycleError",
    "NotValidatedError",
    "InvalidModelError",
    "ParseError",
    "JsonSchemaError",
    "DefinitionError",
    # parser
    "parse",
    "parse_class_expr",
    "ParseResult",
    # reasoner
    "validate",
    "validate_or_raise",
    "Hierarchy",
    "subsumes",
    "compute_hierarchy",
    "coordinates",
    "classify_object",
    # classes
    "ClassExpression",
    "InConcept",
    "AttrEquals",
    "HasAttr",
    "And",
    "Or",
    "Not",
    "Contradiction",
    "evaluate_class",
    "concept_conjunction",
    "concept_disjunction",
    # definitions
    "GeneratedDefinition",
    "intensional_definition",
    "extensional_definition",
    "describe_object",
    "lexicon",
    # exporters
    "ExportOptions",
    "to_json",
    "from_json",
    "print_dsl",
    "to_dot",
]
