"""DOT export (``.dot``): the concept hierarchy as a directed graph, with
declared genus links solid, additional derived subsumption edges dashed, and
object attachment dotted.

Kept apart from the JSON and DSL writers, so ``otl tree`` compiles neither
them nor ``json``.
"""

from __future__ import annotations

from . import model as m


class ExportOptions(m.Record):
    __slots__ = ("include_objects", "include_derived_edges", "rankdir")
    def __init__(self, include_objects: bool = False, include_derived_edges: bool = False, rankdir: str = "TB"):
        if rankdir not in ("TB", "LR"):  # top-down or left-right
            raise ValueError(f"rankdir must be 'TB' or 'LR', got {rankdir!r}")
        self.include_objects = include_objects
        self.include_derived_edges = include_derived_edges
        self.rankdir = rankdir


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_quote(text: str) -> str:
    return '"' + _dot_escape(text) + '"'


@m.collector_paused
def to_dot(model: m.Model, opts: ExportOptions | None = None) -> str:
    """DOT digraph of the concept hierarchy.

    Solid edges are declared genus links; with ``include_derived_edges`` the
    remaining covering edges of the derived poly-hierarchy appear dashed;
    with ``include_objects`` objects hang off their concept on dotted edges.
    """
    opts = opts or ExportOptions()
    model.require_validated("to_dot")
    covering = model.hierarchy.direct_super
    lines = [
        "digraph concept_system {",
        f"  rankdir={opts.rankdir};",
        "  node [shape=box];",
    ]
    for concept in model.concepts.values():
        # \n here is DOT's newline escape inside the label, not a raw newline
        diffs = ", ".join(_dot_escape(d) for d in concept.differentiae)
        label = f'"{_dot_escape(concept.label)}\\n{{{diffs}}}"'
        lines.append(f"  {_dot_quote(concept.id)} [label={label}];")
    if opts.include_objects:
        for obj in model.objects.values():
            lines.append(f"  {_dot_quote(obj.id)} [label={_dot_quote(obj.label)}, shape=ellipse];")
    for concept in model.concepts.values():
        if concept.genus is not None:
            lines.append(f"  {_dot_quote(concept.genus)} -> {_dot_quote(concept.id)};")
    if opts.include_derived_edges:
        for concept in model.concepts.values():
            genus = 1 << covering.index[concept.genus] if concept.genus is not None else 0
            for superordinate in sorted(covering.members(covering.bits[concept.id] & ~genus)):
                lines.append(f"  {_dot_quote(superordinate)} -> {_dot_quote(concept.id)} [style=dashed];")
    if opts.include_objects:
        for obj in model.objects.values():
            lines.append(f"  {_dot_quote(obj.concept)} -> {_dot_quote(obj.id)} [style=dotted];")
    lines.append("}\n")  # the final newline, in the one join
    return "\n".join(lines)
