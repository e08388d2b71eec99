"""Independent brute-force reference implementations.

Everything here recomputes results straight from the declared entities
(recursive genus walks, pairwise set comparisons, per-object interpretation)
without touching the package's derived indexes, so tests can compare the
two paths.
"""

from __future__ import annotations

from collections import deque

from otl import And, AttrEquals, HasAttr, InConcept, Not, Or, TermStatus
from otl.model import render_value, values_equal


def oracle_intension(model, concept_id, _visiting=None):
    """Recursive genus-chain walk collecting stated differentiae."""
    visiting = _visiting or set()
    assert concept_id not in visiting, "cycle reached the oracle"
    concept = model.concepts[concept_id]
    acc = set(concept.differentiae)
    if concept.genus is not None:
        acc |= oracle_intension(model, concept.genus, visiting | {concept_id})
    return frozenset(acc)


def oracle_axis_clashes(model):
    """(concept, axis, its members held, sorted) for each exclusive axis of
    which a concept's intension holds two or more members: every axis
    scanned for every concept."""
    found = set()
    for cid in model.concepts:
        intension = oracle_intension(model, cid)
        for axis in model.axes.values():
            held = tuple(sorted(intension.intersection(axis.members)))
            if axis.exclusive and len(held) > 1:
                found.add((cid, axis.id, held))
    return found


def oracle_part_cycles(model):
    """(members sorted, index of the first link between two of them) for
    each class of concepts that reach one another by part links and hold a
    link, sorted: one breadth-first search from every concept, every link
    scanned at each step."""
    nodes = {end for link in model.parts for end in (link.whole, link.part)}
    reach = {}  # concept -> the concepts one or more links below it
    for start in nodes:
        seen, queue = set(), deque([start])
        while queue:
            node = queue.popleft()
            for link in model.parts:
                if link.whole == node and link.part not in seen:
                    seen.add(link.part)
                    queue.append(link.part)
        reach[start] = seen
    classes = {frozenset(n for n in nodes if n == start or n in reach[start] and start in reach[n]) for start in nodes}
    found = []
    for members in classes:
        inside = [i for i, link in enumerate(model.parts) if link.whole in members and link.part in members]
        if inside:
            found.append((tuple(sorted(members)), inside[0]))
    return sorted(found)


def oracle_subsumes(model, c1, c2):
    return oracle_intension(model, c1) < oracle_intension(model, c2)


def oracle_extension(model, concept_id):
    target = oracle_intension(model, concept_id)
    return frozenset(
        obj.id
        for obj in model.objects.values()
        if target <= oracle_intension(model, obj.concept)
    )


def oracle_direct_super(model):
    """Covering relation from pairwise strict-subset comparison."""
    ids = list(model.concepts)
    intensions = {c: oracle_intension(model, c) for c in ids}
    above = {
        c: {g for g in ids if g != c and intensions[g] < intensions[c]} for c in ids
    }
    covering = {}
    for c in ids:
        covering[c] = {
            g
            for g in above[c]
            if not any(intensions[g] < intensions[h] for h in above[c] if h != g)
        }
    return covering


def oracle_classify(model, object_id):
    obj = model.objects[object_id]
    intensions = {c: oracle_intension(model, c) for c in model.concepts}
    chain = [obj.concept] + [
        c
        for c in model.concepts
        if c != obj.concept and intensions[c] < intensions[obj.concept]
    ]
    return sorted(chain, key=lambda c: (-len(intensions[c]), c))


def oracle_satisfies(model, expr, object_id):
    """Per-object interpreter for class expressions."""
    obj = model.objects[object_id]
    if isinstance(expr, InConcept):
        return oracle_intension(model, expr.concept) <= oracle_intension(
            model, obj.concept
        )
    if isinstance(expr, AttrEquals):
        return expr.attribute in obj.values and values_equal(
            obj.values[expr.attribute], expr.value
        )
    if isinstance(expr, HasAttr):
        return expr.attribute in obj.values
    if isinstance(expr, And):
        return all(oracle_satisfies(model, child, object_id) for child in expr.children)
    if isinstance(expr, Or):
        return any(oracle_satisfies(model, child, object_id) for child in expr.children)
    if isinstance(expr, Not):
        return not oracle_satisfies(model, expr.child, object_id)
    raise TypeError(f"unknown expression node {expr!r}")


def oracle_evaluate(model, expr):
    return frozenset(
        oid for oid in model.objects if oracle_satisfies(model, expr, oid)
    )


def oracle_describe_object(model, object_id):
    """Object description by a scan of every part link."""
    obj = model.objects[object_id]
    pieces = [f"{obj.id} : {model.concepts[obj.concept].label}"]
    pieces += [f"{a} = {render_value(obj.values[a])}" for a in sorted(obj.values)]
    parts = [p.part for p in model.parts if p.whole == obj.concept]
    return " / ".join(pieces) + ("\nparts: " + ", ".join(parts) if parts else "")


_STATUS_RANK = {TermStatus.PREFERRED: 0, TermStatus.STANDARDIZED: 1, TermStatus.ADMITTED: 2, TermStatus.DEPRECATED: 3}


def oracle_lexicon(model, language):
    """The lexicon by scans: every term and every part link for each
    concept, subordinates from pairwise intension comparison."""
    intensions = {c: oracle_intension(model, c) for c in model.concepts}
    covering = oracle_direct_super(model)
    rows, notes = [], []
    for cid in sorted(model.concepts, key=lambda c: (len(intensions[c]), c)):
        concept = model.concepts[cid]
        terms = sorted(
            (t for t in model.terms if t.concept == cid and t.language == language),
            key=lambda t: (_STATUS_RANK[t.status], t.designation),
        )
        term_cell = ", ".join(f'"{t.designation}" ({t.status.value})' for t in terms) or "-"
        nl_cell = "; ".join(t.nl_definition for t in terms if t.nl_definition) or "-"
        if concept.genus is None:
            gloss = "(root)"
        else:
            labels = " and ".join(model.differences[d].label for d in concept.differentiae)
            gloss = f"{concept.label}: {model.concepts[concept.genus].label} that is {labels}"
        rows.append((cid, term_cell, nl_cell, gloss))
        if not any(t.status is TermStatus.PREFERRED for t in terms):
            notes.append(f"# W_NO_PREFERRED_TERM {cid}: no preferred term for language '{language}'")
        has_subordinates = any(cid in above for above in covering.values())
        if concept.genus is None and not has_subordinates and any(cid in (p.whole, p.part) for p in model.parts):
            notes.append(f"# W_DESCRIPTION_ONLY {cid}: documented only by part links, no definition can be generated")
    if not rows:
        return ""
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = ["  ".join([*(row[i].ljust(widths[i]) for i in range(3)), row[3]]).rstrip() for row in rows]
    return "\n".join(lines + notes) + "\n"
