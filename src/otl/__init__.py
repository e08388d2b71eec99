"""otl: author, check and query terminological concept systems.

The package implements a small DSL for conceptual systems (concepts defined
by essential characteristics, descriptive attributes, objects, whole/part
and associative links, terms) together with a reasoner that derives the
generic hierarchy from intension inclusion, a class algebra over objects,
a definition generator, and canonical serializers.
"""

__version__ = "0.1.0"

from importlib import import_module

from . import classes, model, parser, reasoner

# Each public name, listed once under the module that defines it.  The four
# modules imported above load with the package.  The others are named by a
# string: their names load with their module on first access (PEP 562), so a
# command that never uses them does not import them.
_PUBLIC = {
    classes: (
        "And",
        "AttrEquals",
        "ClassExpression",
        "Contradiction",
        "HasAttr",
        "InConcept",
        "Not",
        "Or",
        "concept_conjunction",
        "concept_disjunction",
        "evaluate_class",
    ),
    model: (
        "AmbiguousIdentifierError",
        "AssociativeLink",
        "AttributeDecl",
        "Axis",
        "ClassDef",
        "Concept",
        "Diagnostic",
        "Difference",
        "GenusCycleError",
        "InvalidModelError",
        "Model",
        "NotValidatedError",
        "ObjectInstance",
        "OtlError",
        "PartLink",
        "RelationKind",
        "Resolved",
        "Severity",
        "SourceSpan",
        "Term",
        "TermStatus",
        "UnknownIdentifierError",
        "Value",
        "ValueKind",
        "extension",
        "has_errors",
        "intension",
        "relation_kind_is_a",
        "resolve",
    ),
    parser: ("ParseError", "ParseResult", "parse", "parse_class_expr"),
    reasoner: (
        "Hierarchy",
        "classify_object",
        "compute_hierarchy",
        "coordinates",
        "subsumes",
        "validate",
        "validate_or_raise",
    ),
    "definitions": (
        "DefinitionError",
        "GeneratedDefinition",
        "describe_object",
        "extensional_definition",
        "intensional_definition",
        "lexicon",
    ),
    "dot": ("ExportOptions", "to_dot"),
    "exporters": ("JsonSchemaError", "from_json", "print_dsl", "to_json"),
}
_LAZY: dict[str, str] = {}
for _module, _names in _PUBLIC.items():
    if isinstance(_module, str):
        _LAZY.update(dict.fromkeys(_names, _module))
    else:
        globals().update((name, getattr(_module, name)) for name in _names)
del _module, _names
__all__ = ["__version__", *(name for names in _PUBLIC.values() for name in names)]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
