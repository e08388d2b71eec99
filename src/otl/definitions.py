"""Definition generation and the lexicon view.

Definitions are generated from the validated model: the intensional form
cites the declared genus plus the stated differentiae, the extensional
(enumerational) form lists direct subordinate concepts from the derived
hierarchy - concepts, never objects.  Object descriptions list only
descriptive knowledge (concept, valuated attributes, part links) and never
restate essential differences: definition and description stay separate.

Generated glosses are deliberately plain English scaffolding.  They are
formal glosses derived from the model, not natural-language term
definitions; those are authored by people and carried on terms.
"""

from __future__ import annotations

from . import model as m


class DefinitionError(m.OtlError):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


class GeneratedDefinition(m.Frozen):
    __slots__ = ("concept", "kind", "formal", "gloss")
    # `formal` is (genus id, differentia ids in declaration order) when `kind` is
    # "intensional", the ids of the direct subordinates, sorted, when "extensional"

    def render(self) -> str:
        if self.kind == "intensional":
            genus, diffs = self.formal  # type: ignore[misc]
            return f"{self.gloss}\nformal: ({genus}, {{{', '.join(diffs)}}})"
        return f"{self.gloss}\nformal: [{', '.join(self.formal)}]"  # type: ignore[arg-type]


def intensional_definition(model: m.Model, concept_id: str) -> GeneratedDefinition:
    """Genus-and-differences definition of a non-root concept."""
    model.require_validated("intensional_definition", concept_id)
    concept = model.concepts[concept_id]
    if concept.genus is None:
        raise DefinitionError(
            "E_ROOT_NO_INTENSIONAL",
            f"'{concept_id}' is a root concept and has no genus to cite; "
            f"use the extensional definition or document it as a root",
        )
    genus = model.concepts[concept.genus]
    labels = [model.differences[d].label for d in concept.differentiae]
    gloss = f"{concept.label}: {genus.label} that is {' and '.join(labels)}"
    return GeneratedDefinition(
        concept=concept_id,
        kind="intensional",
        formal=(concept.genus, tuple(concept.differentiae)),
        gloss=gloss,
    )


def extensional_definition(model: m.Model, concept_id: str) -> GeneratedDefinition:
    """Enumerational definition: the direct subordinates in the derived
    hierarchy, so poly-hierarchy children count too."""
    model.require_validated("extensional_definition", concept_id)
    concept = model.concepts[concept_id]
    sub = model.hierarchy.direct_sub
    subordinates = sorted(sub.members(sub.bits[concept_id]))
    if not subordinates:
        raise DefinitionError(
            "E_NO_SUBORDINATES",
            f"'{concept_id}' has no subordinate concepts to enumerate",
        )
    labels = [model.concepts[cid].label for cid in subordinates]
    gloss = f"{concept.label}: one of {', '.join(labels)}"
    return GeneratedDefinition(
        concept=concept_id,
        kind="extensional",
        formal=tuple(subordinates),
        gloss=gloss,
    )


def describe_object(model: m.Model, object_id: str) -> str:
    """Description of an object: its concept, its valuated attributes sorted
    by attribute identifier, and the part links of its concept, read from
    ``model.parts_by_whole``: a call costs O(v log v + p) for v values and
    p parts, whatever the model's size."""
    model.require_validated("describe_object")
    obj = model.objects.get(object_id)
    if obj is None:
        raise m.UnknownIdentifierError(f"unknown object '{object_id}'")
    concept = model.concepts[obj.concept]
    pieces = [f"{obj.id} : {concept.label}"]
    for attr_id in sorted(obj.values):
        pieces.append(f"{attr_id} = {m.render_value(obj.values[attr_id])}")
    lines = [" / ".join(pieces)]
    if parts := model.parts_by_whole.get(obj.concept):
        lines.append("parts: " + ", ".join(parts))
    return "\n".join(lines)


def lexicon(model: m.Model, language: str) -> str:
    """Per-concept view pairing the terms of a language with the generated
    formal gloss.

    Concepts are ordered from generic to specific (then by identifier).
    Concepts without a preferred term in the requested language are noted
    after the table, as are concepts documented only by part links.  The
    language's terms are grouped by concept and the part-link endpoints
    gathered once a call, so it costs O(C log C + T + P) for C concepts, T
    terms and P part links, plus one gloss a concept.
    """
    model.require_validated("lexicon")
    hierarchy = model.hierarchy
    intensions = model.intensions.bits
    ordered = sorted(model.concepts, key=lambda cid: (intensions[cid].bit_count(), cid))
    status_rank = {
        m.TermStatus.PREFERRED: 0,
        m.TermStatus.STANDARDIZED: 1,
        m.TermStatus.ADMITTED: 2,
        m.TermStatus.DEPRECATED: 3,
    }

    in_language: dict[str, list[m.Term]] = {}  # concept -> its terms in the language, in model.terms order
    for term in model.terms:
        if term.language == language:
            in_language.setdefault(term.concept, []).append(term)
    linked = {cid for p in model.parts for cid in (p.whole, p.part)}
    rows: list[tuple[str, str, str, str]] = []
    notes: list[str] = []
    for cid in ordered:
        concept = model.concepts[cid]
        terms = sorted(in_language.get(cid, ()), key=lambda t: (status_rank[t.status], t.designation))
        term_cell = (
            ", ".join(f'"{t.designation}" ({t.status.value})' for t in terms) or "-"
        )
        nl_cell = "; ".join(t.nl_definition for t in terms if t.nl_definition) or "-"
        if concept.genus is not None:
            gloss = intensional_definition(model, cid).gloss
        else:
            gloss = "(root)"
        rows.append((cid, term_cell, nl_cell, gloss))

        if not any(t.status is m.TermStatus.PREFERRED for t in terms):
            notes.append(
                f"# W_NO_PREFERRED_TERM {cid}: no preferred term for language '{language}'"
            )
        if concept.genus is None and not hierarchy.direct_sub.bits[cid] and cid in linked:
            notes.append(
                f"# W_DESCRIPTION_ONLY {cid}: documented only by part links, "
                f"no definition can be generated"
            )

    if not rows:
        return ""
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [
        "  ".join(
            [row[0].ljust(widths[0]), row[1].ljust(widths[1]), row[2].ljust(widths[2]), row[3]]
        ).rstrip()
        for row in rows
    ]
    return "\n".join(lines + notes) + "\n"
