"""Model validation and the derived generic hierarchy.

Validation runs in stages, each assuming the previous one succeeded:
reference resolution (including materializing implicitly declared
differences) with the spelling of names, one walk of the genus chains that
finds genus cycles and computes intensions, intension uniqueness and axis
checks, the derived hierarchy, then attribute/part/term checks.
Diagnostics report the earliest failing stage; later stages are skipped
once a stage produced errors.

Subsumption is derived, never asserted: a concept subsumes another exactly
when its intension is a strict subset of the other's.  Because any subset of
a concept's differences may coincide with another concept's intension, the
derived structure is a poly-hierarchy: concepts can acquire superordinates
beyond their declared genus.

The derived indexes are bitsets (Ait-Kaci et al., TOPLAS 1989) behind
read-only ``model.BitSets`` views: an intension is one int over the D
differences, a set of superiors, covering superiors or covered concepts one
int over the C concepts.  Cost of each stage, for a model of size M (all
its declarations), in operations on ints of O(D) or O(C) bits:

* resolution: O(M);
* names: one regex match over all declared names joined, O(their length);
* genus cycles and intensions: each concept is walked once, on the one
  path that reaches it, then gets one OR and one shift per stated
  differentia, O(M);
* uniqueness and axis checks: one pass over the concepts, each intension
  hashed once and its bits beyond its genus's counted, O(C + M); clashes
  only if a concept's own member of an exclusive axis meets another in its
  intension (one AND a member: a clash meets the lowest concept on the
  genus chain that states one of its pair), scopes only in a model with axes;
* hierarchy, derived only from intensions that passed those checks, in
  increasing intension size.  Each concept inherits its genus's superiors
  and the genus itself.  If a smaller concept holds one of its differentiae
  that another concept also declares, it looks up each intension one
  difference smaller than its own (L lookups in all), each hit a superior;
  only on a miss are the candidates not yet found tested (K', each ``not a
  & ~b``).  Only the genus and those extras can cover it, each of the E
  edges one OR into its superior's subordinates.  O(C log C + M + L + K' + E);
* attributes O(values), part cycles O(parts) by Kosaraju's two walks
  (Sharir 1981), terms O(terms + C).
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import chain
from operator import or_

from . import model as m
from .classes import axis_clashes, expression_references

# one or more identifiers, one blank between two
_NAMES = re.compile(rf"(?:{m.IDENTIFIER.pattern} )*{m.IDENTIFIER.pattern}")


class Hierarchy(m.Record):
    """Materialized generic structure of a validated model.

    ``superiors`` maps each concept to all concepts that strictly subsume it
    (the model's ``superiors``, the same object), ``direct_super`` to those
    that cover it (the transitive reduction) and ``direct_sub`` to those it
    covers, each as a read-only bitset view over the superiors' numbering,
    keyed in declaration order; ``roots`` are the concepts nothing subsumes.

    Built by ``_derive_hierarchy`` down the genus tree: lookups of intensions
    one difference smaller, then a candidate scan only on a miss (costs in
    the module docstring).  A lookup builds a frozenset in time proportional
    to its size; readers that can, such as ``coordinates``, work on the ints.
    """

    __slots__ = ("superiors", "direct_super", "direct_sub", "roots")

    def subsumes(self, c1: str, c2: str) -> bool:
        superiors = self.superiors
        return c1 in superiors.index and superiors.bits.get(c2, 0) >> superiors.index[c1] & 1 == 1


def _derive_hierarchy(concepts: dict[str, m.Concept], intensions: m.BitSets, concept_of: dict) -> Hierarchy:
    """The hierarchy of a model whose intensions passed ``check_intensions``.

    There intensions are unique (``concept_of`` keys each concept by its own)
    and each genus's intension is a strict subset of its child's, so sup(c) =
    sup(genus) | {genus} | E(c).  An extra superior in E(c) holds one of c's
    own differentiae, which it inherits from a declarer other than c.  A root
    with differences takes the empty-intension concept, if any, as its genus.
    """
    # Concepts are walked, and numbered as bits, in increasing intension
    # size: a concept's genus and extras come before it, and the concepts
    # smaller than it are a prefix of the numbering.
    bits = intensions.bits
    size = {c: b.bit_count() for c, b in bits.items()}  # counted once: O(D) each
    ids = sorted(size, key=size.__getitem__)
    ordered = [bits[c] for c in ids]  # the intensions by position
    position = {c: i for i, c in enumerate(ids)}
    superiors, direct_super, direct_sub = views = [m.BitSets(dict.fromkeys(concepts, 0)) for _ in range(3)]
    for view in views:  # keyed in declaration order, numbered by position, sharing one index
        view.names, view.index = ids, position
    first = {size[c]: i for i, c in reversed(list(enumerate(ids)))}  # intension size -> its first position
    smaller = {s: (1 << i) - 1 for s, i in first.items()}  # intension size -> the bits of the concepts smaller
    empty = ids[0] if ids and not ordered[0] else None

    # has[d]: the concepts whose intension holds d, i.e. the union of the
    # genus subtrees of d's declarers.  Only a difference that two or more
    # concepts declare can bring in an extra superior.
    declarers: dict[str, list[str]] = {}
    for concept in concepts.values():
        for diff in concept.differentiae:
            declarers.setdefault(diff, []).append(concept.id)
    shared = {diff: xs for diff, xs in declarers.items() if len(xs) > 1}
    has: dict[str, int] = {}
    if shared:
        # from the largest down: a child is larger than its genus, so its
        # subtree is complete before it is folded into the genus's
        subtree = [1 << i for i in range(len(ids))]
        for i in range(len(ids) - 1, -1, -1):
            genus = concepts[ids[i]].genus
            if genus is not None:
                subtree[position[genus]] |= subtree[i]
        for diff, xs in shared.items():
            has[diff] = reduce(or_, [subtree[position[x]] for x in xs])

    # up[i], down[i]: the superiors and the covered subordinates of ids[i]
    up: list[int] = []
    down = [0] * len(ids)
    for i, c in enumerate(ids):
        base = concepts[c].genus
        if base is None and ordered[i]:
            base = empty
        parents = shadow = 0  # the base and the extras found; their own superiors
        if base is not None:
            g = position[base]
            parents, shadow = 1 << g, up[g]
        if has:
            reach = 0
            for diff in concepts[c].differentiae:
                reach |= has.get(diff, 0)
            rest = reach & ~(shadow | parents) & smaller[size[c]]
            if rest:  # each concept one difference smaller is a superior; if all are, the rest lie under them
                drops, found = ordered[i], 0
                while drops:
                    bit = 1 << drops.bit_length() - 1
                    drops ^= bit
                    below = ordered[i] ^ bit
                    if (hit := concept_of.get((below.bit_length(), below))) is not None:
                        j = position[hit]
                        parents |= 1 << j
                        shadow |= up[j]
                        found += 1
                rest &= ~(shadow | parents) if found < size[c] else 0
            outside = ~ordered[i]
            while rest:  # from the top, so rest shrinks as it is walked
                j = rest.bit_length() - 1
                rest ^= 1 << j
                if not ordered[j] & outside:
                    parents |= 1 << j
                    shadow |= up[j]  # superiors of c too
        up.append(shadow | parents)
        # Every other superior lies below the base, so only the base and the
        # extras can cover c; each does unless it lies below another.
        direct_super.bits[c] = covering = parents & ~shadow
        while covering:
            top = covering.bit_length() - 1
            down[top] |= 1 << i
            covering ^= 1 << top
    superiors.bits.update(zip(ids, up))
    direct_sub.bits.update(zip(ids, down))
    return Hierarchy(superiors, direct_super, direct_sub, frozenset(c for c, above in zip(ids, up) if not above))


def _components(edges: dict[str, list[str]]) -> dict[str, str]:
    """Each node of a directed graph mapped to the leader of its strongly
    connected component, by Kosaraju's two walks (Sharir 1981): the first
    lists the nodes in postorder, the second walks the reversed edges from
    each node not yet placed, in reverse postorder, and places what it
    reaches in that node's component.  Iterative, so deep graphs do not
    reach the recursion limit; O(V + E)."""
    postorder: list[str] = []
    seen: set[str] = set()
    for root in edges:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(edges[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    break
            else:
                work.pop()
                postorder.append(node)
    reverse: dict[str, list[str]] = {}
    for node, successors in edges.items():
        for succ in successors:
            reverse.setdefault(succ, []).append(node)
    leader: dict[str, str] = {}
    for root in reversed(postorder):
        if root not in leader:
            leader[root] = root
            stack = [root]
            while stack:
                for pred in reverse.get(stack.pop(), ()):
                    if pred not in leader:
                        leader[pred] = root
                        stack.append(pred)
    return leader


class _Validator:
    def __init__(self, model: m.Model):
        self.model = model
        self.diagnostics: list[m.Diagnostic] = []
        self.intensions = m.BitSets()
        self.concept_of: dict[tuple[int, int], str] = {}  # (bit length, intension) -> its first concept
        self.hierarchy: Hierarchy | None = None
        self.parts_by_whole: dict[str, list[str]] = {}  # whole -> its parts, in model.parts order

    def error(self, code: str, message: str, kind: str, entity_id: str,
              severity: m.Severity = m.Severity.ERROR) -> None:
        self.diagnostics.append(m.Diagnostic(severity, code, message, self.model.span_for(kind, entity_id)))

    # -- stage 1: resolution and difference materialization -----------------

    def resolve_references(self) -> None:
        """Check every reference, and materialize the differences in this
        order: the members of each axis in axis order, then the free
        differentiae in concept order.  Explicit entries (JSON or API input)
        keep their labels; the axis back-reference is always recomputed from
        membership."""
        model = self.model
        concepts, differences = model.concepts, model.differences
        owner: dict[str, str] = {}
        for axis in model.axes.values():
            aid = axis.id
            if len(set(axis.members)) < 2:
                self.error("E_AXIS_ARITY", f"axis '{aid}' needs at least two member differences", "axis", aid)
            if axis.scope not in concepts:
                self.error("E_UNRESOLVED", f"axis '{aid}' scoped at unknown concept '{axis.scope}'", "axis", aid)
            seen: set[str] = set()
            for member in axis.members:
                if member in seen:
                    self.error("E_DUP_DECL", f"axis '{aid}' lists difference '{member}' twice", "axis", aid)
                    continue
                seen.add(member)
                if member not in differences:
                    differences[member] = m.Difference(member, member)
                prior = owner.setdefault(member, aid)
                if prior != aid:
                    self.error("E_DUP_DECL", f"difference '{member}' belongs to both axis '{prior}' and axis '{aid}'",
                               "axis", aid)

        for concept in concepts.values():
            cid, genus = concept.id, concept.genus
            if genus is not None and genus not in concepts:
                self.error("E_UNRESOLVED", f"concept '{cid}' names unknown genus '{genus}'", "concept", cid)
            stated: set[str] = set()
            for diff in concept.differentiae:
                if diff in stated:
                    self.error("E_DUP_DECL", f"concept '{cid}' states differentia '{diff}' twice", "concept", cid)
                elif diff not in differences:
                    differences[diff] = m.Difference(diff, diff)
                stated.add(diff)
        for diff in differences.values():
            diff.axis = owner.get(diff.id)

        for attr in model.attributes.values():
            if attr.domain not in concepts:
                self.error("E_UNRESOLVED", f"attribute '{attr.id}' declared on unknown concept '{attr.domain}'",
                           "attribute", attr.id)

        for obj in model.objects.values():
            if obj.concept not in concepts:
                self.error("E_UNRESOLVED", f"object '{obj.id}' reifies unknown concept '{obj.concept}'",
                           "object", obj.id)
            for attr_id in obj.values:
                if attr_id not in model.attributes:
                    self.error("E_UNRESOLVED", f"object '{obj.id}' values undeclared attribute '{attr_id}'",
                               "value", f"{obj.id}.{attr_id}")

        links = (("part", "part link", [(p.whole, p.part) for p in model.parts]),
                 ("relation", "relation", [(r.source, r.target) for r in model.relations]))
        for kind, what, ends in links:
            for index, pair in enumerate(ends):
                for cid in pair:
                    if cid not in concepts:
                        self.error("E_UNRESOLVED", f"{what} names unknown concept '{cid}'", kind, str(index))

        for index, term in enumerate(model.terms):
            if term.concept not in concepts:
                self.error("E_UNRESOLVED", f"term {term.designation!r} names unknown concept '{term.concept}'",
                           "term", str(index))

        for cdef in model.classes.values():
            *references, compared, depth = expression_references(cdef.expr)
            for what, referenced, declared in zip(("concept", "attribute"), references, (concepts, model.attributes)):
                for ref in sorted(referenced):
                    if ref not in declared:
                        self.error("E_UNRESOLVED", f"class '{cdef.id}' references unknown {what} '{ref}'",
                                   "class", cdef.id)
            for node in compared:
                if fault := m.literal_fault(node.value):
                    self.error("E_ATTR_VALUE", f"class '{cdef.id}' compares attribute '{node.attribute}' with {fault}",
                               "class", cdef.id)
            if depth > m.MAX_EXPR_DEPTH:
                self.error("E_EXPR_DEPTH", f"class '{cdef.id}' nests {depth} parenthesized groups in DSL, "
                           f"deeper than the parser reads ({m.MAX_EXPR_DEPTH})", "class", cdef.id)

    def check_names(self) -> None:
        """Every declared id and term language is a name the DSL can spell.
        In bulk: one match over the names joined by blanks (a name holding a
        blank adds to their count), and the keywords looked up in each set."""
        model = self.model
        declared = [(kind, getattr(model, attr)) for kind, attr in m._RESOLVE_ORDER]
        languages = {term.language: None for term in model.terms}
        collections = [ids for _, ids in declared] + [languages]
        names = list(chain(*collections))
        joined = " ".join(names)
        if (
            joined.count(" ") == len(names) - 1
            and _NAMES.fullmatch(joined)
            and all(ids.keys().isdisjoint(m.KEYWORDS) for ids in collections)
        ):
            return
        located = [(kind, name, kind, name) for kind, ids in declared for name in ids]
        located += [("term language", t.language, "term", str(i)) for i, t in enumerate(model.terms)]
        for what, name, kind, entity_id in located:
            if m.IDENTIFIER.fullmatch(name) is None:
                self.error("E_NAME", f"{what} {name!r} is not a DSL identifier", kind, entity_id)
            elif name in m.KEYWORDS:
                self.error("E_NAME", f"{what} {name!r} is a DSL keyword", kind, entity_id)

    # -- stage 2: genus cycles and intensions ---------------------------------

    def walk_genus_chains(self) -> None:
        """Walk each genus chain once, up to a concept already walked or to a
        root, and OR the differentiae down the path.  A concept met twice on
        one path closes a genus cycle; its path is then marked walked, so no
        later walk finds that cycle again."""
        concepts = self.model.concepts
        # differences numbered in sorted-id order, the order to_json lists
        intensions = m.BitSets({}, sorted(self.model.differences))
        index = intensions.index
        memo: dict[str, int] = {}
        declared: dict[str, int] = {}
        for cid in concepts:
            path: dict[str, int] = {}  # the walk so far: concept -> its step
            cur: str | None = cid
            while cur is not None and cur not in memo:
                if cur in path:
                    cycle = list(path)[path[cur] :]
                    pivot = min(range(len(cycle)), key=cycle.__getitem__)
                    ordered = cycle[pivot:] + cycle[:pivot]
                    declared = declared or {c: i for i, c in enumerate(concepts)}
                    self.error("E_GENUS_CYCLE", "generic cycle: " + " -> ".join(ordered + [ordered[0]]),
                               "concept", min(ordered, key=declared.__getitem__))
                    memo.update(dict.fromkeys(path, 0))
                    break
                path[cur] = len(path)
                cur = concepts[cur].genus
            else:
                acc = memo[cur] if cur is not None else 0
                for key in reversed(path):
                    for diff in concepts[key].differentiae:
                        acc |= 1 << index[diff]
                    memo[key] = acc
        intensions.bits = {cid: memo[cid] for cid in concepts}
        self.intensions = intensions

    # -- stage 3: uniqueness and axis coherence -------------------------------

    def check_intensions(self) -> None:
        """One pass over the concepts.  A concept that adds no differentia,
        or restates one its genus already holds, is not grouped by
        intension: a duplicate found for it would restate that fault."""
        model = self.model
        intensions, index = self.intensions.bits, self.intensions.index
        masks, clashes = axis_clashes(model, self.intensions)
        clashing = masks and any((intensions[c.id] & masks[d]).bit_count() > 1 for c in model.concepts.values()
                                 for d in c.differentiae if d in masks)
        # with the top bit: ints hash mod 2**61 - 1, so one-bit keys share 61 hashes
        first = self.concept_of
        repeats: dict[str, list[str]] = {}
        for concept in model.concepts.values():
            cid, genus, intension = concept.id, concept.genus, intensions[concept.id]
            if genus is not None and not concept.differentiae:
                self.error("E_NO_DELIMITING", f"concept '{cid}' adds no delimiting difference to genus '{genus}'",
                           "concept", cid)
            elif genus is not None and (intension ^ intensions[genus]).bit_count() < len(concept.differentiae):
                listing = ", ".join(d for d in concept.differentiae if intensions[genus] >> index[d] & 1)
                self.error("E_REDUNDANT_DIFFERENTIA",
                           f"concept '{cid}' restates {listing} already in the intension of '{genus}'", "concept", cid)
            elif (owner := first.setdefault((intension.bit_length(), intension), cid)) != cid:
                repeats.setdefault(owner, []).append(cid)
            for axis_id, clash in clashes(intension) if clashing else ():
                listing = ", ".join(clash)
                self.error("E_AXIS_CONTRADICTION", f"concept '{cid}' combines {listing}, exclusive on axis '{axis_id}'",
                           "concept", cid)
            # Axis scope: a member difference is only available to concepts
            # at or under the axis's scope concept.
            for diff_id in concept.differentiae if model.axes else ():
                axis_id = model.differences[diff_id].axis
                if axis_id is None:
                    continue
                scope = model.axes[axis_id].scope
                if intensions[scope] | intension != intension:
                    self.error("E_AXIS_SCOPE", f"concept '{cid}' uses '{diff_id}' of axis '{axis_id}' "
                               f"scoped at '{scope}', but is not under '{scope}'", "concept", cid)
        for owner in first.values() if repeats else ():
            for cid in repeats.get(owner, ()):
                self.error("E_DUP_INTENSION", f"concept '{cid}' has the same combination of differences as '{owner}'",
                           "concept", cid)

    # -- stage 4: the derived hierarchy ----------------------------------------

    def derive_hierarchy(self) -> None:
        self.hierarchy = _derive_hierarchy(self.model.concepts, self.intensions, self.concept_of)

    # -- stage 5: attributes, parts, terms --------------------------------------

    def check_attributes(self) -> None:
        """Each attribute's domain intension is looked up once, and only a value
        that is not a str text or a bool boolean gets a closer look."""
        attributes = self.model.attributes
        intensions = self.intensions.bits
        domains = {attr_id: intensions[attr.domain] for attr_id, attr in attributes.items()}
        kinds = {attr_id: attr.value_kind for attr_id, attr in attributes.items()}
        exact = {a: {m.ValueKind.TEXT: str, m.ValueKind.BOOLEAN: bool}.get(kind) for a, kind in kinds.items()}
        for obj in self.model.objects.values():
            intension = intensions[obj.concept]
            for attr_id, value in obj.values.items():
                if domains[attr_id] | intension != intension:
                    self.error("E_ATTR_DOMAIN", f"attribute '{attr_id}' is declared on '{attributes[attr_id].domain}', "
                               f"which does not subsume '{obj.concept}' of object '{obj.id}'",
                               "value", f"{obj.id}.{attr_id}")
                if type(value) is not exact[attr_id] and (fault := m.literal_fault(value, kinds[attr_id])):
                    self.error("E_ATTR_VALUE", f"object '{obj.id}' gives attribute '{attr_id}' {fault}",
                               "value", f"{obj.id}.{attr_id}")

    def check_parts(self) -> None:
        """A component is a cycle exactly when some part link has both ends
        in it, a self-loop included; each is located at its first such link."""
        model = self.model
        edges = self.parts_by_whole
        for part in model.parts:
            edges.setdefault(part.whole, []).append(part.part)
        leader = _components(edges)
        first_link: dict[str, int] = {}
        for index, part in enumerate(model.parts):
            if (head := leader[part.whole]) == leader[part.part]:
                first_link.setdefault(head, index)
        cycles: dict[str, list[str]] = {}
        for node, head in leader.items():
            if head in first_link:
                cycles.setdefault(head, []).append(node)
        for head, members in sorted(cycles.items(), key=lambda cycle: min(cycle[1])):
            self.error("E_PART_CYCLE", "part links form a cycle through: " + ", ".join(sorted(members)),
                       "part", str(first_link[head]))

    def check_terms(self) -> None:
        model = self.model
        seen: set[tuple[str, str, str]] = set()
        # concept -> language -> whether some term there is preferred
        preferred: dict[str, dict[str, bool]] = {}
        for index, term in enumerate(model.terms):
            triple = (term.designation, term.language, term.concept)
            if triple in seen:
                self.error("E_DUP_DECL", f"term {term.designation!r} ({term.language}) "
                           f"for '{term.concept}' already declared", "term", str(index))
            seen.add(triple)
            languages = preferred.setdefault(term.concept, {})
            languages[term.language] = languages.get(term.language, False) or term.status is m.TermStatus.PREFERRED

        # A concept naming itself in some language should have a preferred
        # designation in that language.
        for cid in filter(preferred.__contains__, model.concepts):  # in declaration order
            for lang, named in sorted(preferred[cid].items()):
                if not named:
                    self.error("W_NO_PREFERRED_TERM", f"concept '{cid}' has terms in '{lang}' "
                               "but none preferred", "concept", cid, severity=m.Severity.WARNING)

    # -- driver ---------------------------------------------------------------

    def run(self) -> list[m.Diagnostic]:
        stages = (
            lambda: (self.resolve_references(), self.check_names()),
            self.walk_genus_chains,
            self.check_intensions,
            self.derive_hierarchy,
            lambda: (self.check_attributes(), self.check_parts(), self.check_terms()),
        )
        model = self.model
        model.validated = False  # until every stage passes: an edit may have broken what reads rely on
        for stage in stages:
            stage()
            if m.has_errors(self.diagnostics):
                return m.sorted_diagnostics(self.diagnostics)
        model.intensions = self.intensions
        assert self.hierarchy is not None
        model.superiors = self.hierarchy.superiors
        model.hierarchy = self.hierarchy
        model.parts_by_whole = self.parts_by_whole
        model.validated = True
        return m.sorted_diagnostics(self.diagnostics)


@m.collector_paused
def validate(model: m.Model) -> list[m.Diagnostic]:
    """Resolve and check a model against every structural invariant.

    Returns the diagnostic list; the model is marked validated (with the
    intension index, subsumption index and hierarchy filled in) iff no
    error-severity diagnostics were produced, so a validated model edited
    into an invalid one answers no read once validated again.  Validating
    an already-valid model yields the same diagnostics again and changes
    nothing.
    """
    return _Validator(model).run()


def validate_or_raise(model: m.Model) -> m.Model:
    """Validate and return the model, raising InvalidModelError on errors."""
    diagnostics = validate(model)
    if m.has_errors(diagnostics):
        raise m.InvalidModelError(diagnostics)
    return model


def subsumes(model: m.Model, c1: str, c2: str) -> bool:
    """True iff `c1` is strictly more generic than `c2`.

    Derived from intensions (strict subset), not from declared genus links,
    so it holds between concepts with no genus path between them.
    Irreflexive by construction.
    """
    model.require_validated("subsumes", c1, c2)
    return model.hierarchy.subsumes(c1, c2)


def compute_hierarchy(model: m.Model) -> Hierarchy:
    """The materialized subsumption structure of a validated model."""
    model.require_validated("compute_hierarchy")
    return model.hierarchy


def coordinates(model: m.Model, concept_id: str) -> frozenset[str]:
    """Concepts sharing at least one direct superordinate with the given
    concept, excluding the concept itself."""
    model.require_validated("coordinates", concept_id)
    sub, sup, below = model.hierarchy.direct_sub, model.hierarchy.direct_super, 0
    for genus in sup.members(sup.bits[concept_id]):  # one OR per covering genus
        below |= sub.bits[genus]
    return frozenset(sub.members(below & ~(1 << sub.index[concept_id])))


def classify_object(model: m.Model, object_id: str) -> list[str]:
    """The object's concept followed by all its superordinates, most specific
    first; concepts of equal specificity are ordered by identifier."""
    model.require_validated("classify_object")
    obj = model.objects.get(object_id)
    if obj is None:
        raise m.UnknownIdentifierError(f"unknown object '{object_id}'")
    superiors, intensions = model.superiors, model.intensions.bits
    chain = superiors.members(superiors.bits[obj.concept])
    chain.append(obj.concept)
    chain.sort()  # then stably by size: ties stay in identifier order
    chain.sort(key=lambda cid: intensions[cid].bit_count(), reverse=True)
    return chain
