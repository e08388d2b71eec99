"""Random model generator producing models that are valid by construction.

Name pools are kept disjoint on purpose (C* concepts, d* differences, a*
attributes, o* objects, K* axes, Q* classes, text values from a fixed word
list) so tests can reason about which identifiers may appear where.
"""

from __future__ import annotations

import copy
import random
import re
from decimal import Decimal
from pathlib import Path

from otl import (
    And,
    AttrEquals,
    Axis,
    ClassDef,
    Concept,
    AttributeDecl,
    HasAttr,
    InConcept,
    Model,
    Not,
    ObjectInstance,
    Or,
    PartLink,
    RelationKind,
    Term,
    TermStatus,
    AssociativeLink,
    ValueKind,
    has_errors,
    parse,
    validate,
)
from otl.model import IDENTIFIER, KEYWORDS, STATEMENT_KEYWORDS

TEXT_POOL = ("red", "blue", "green", "matte", "glossy", "compact", "heavy")
LANG_POOL = ("en", "fr", "de")


def random_model(
    rng: random.Random,
    max_concepts: int = 50,
    max_diffs: int = 30,
    max_axes: int = 5,
    max_objects: int = 25,
    with_extras: bool = False,
    allow_clashes: bool = False,
) -> Model:
    """A model valid by construction; with `allow_clashes`, its concepts may
    combine members of an exclusive axis, which is its only fault."""
    model = Model()
    n_diffs = rng.randint(1, max_diffs)
    diff_ids = [f"d{i:02d}" for i in range(n_diffs)]

    # axes partition a sample of the differences; every axis is scoped at the
    # one empty-intension root so scope never constrains usage
    pool = diff_ids[:]
    rng.shuffle(pool)
    axes: list[Axis] = []
    for i in range(rng.randint(0, max_axes)):
        if len(pool) < 2:
            break
        size = rng.randint(2, min(4, len(pool)))
        members = tuple(pool[:size])
        pool = pool[size:]
        axes.append(Axis(f"K{i}", f"K{i}", "C000", members, rng.random() < 0.7))
    exclusive_axes = [ax for ax in axes if ax.exclusive]

    root = Concept("C000", "C000")
    model.concepts[root.id] = root
    intensions: dict[str, frozenset[str]] = {"C000": frozenset()}
    seen: set[frozenset[str]] = {frozenset()}

    def clashes(candidate: frozenset[str]) -> bool:
        return any(
            len(candidate.intersection(ax.members)) >= 2 for ax in exclusive_axes
        )

    next_index = 1
    for _ in range(rng.randint(0, max_concepts - 1)):
        for _attempt in range(8):
            genus = None if rng.random() < 0.2 else rng.choice(list(model.concepts))
            base = frozenset() if genus is None else intensions[genus]
            picked = rng.sample(diff_ids, k=min(rng.randint(1, 3), len(diff_ids)))
            fresh = tuple(d for d in picked if d not in base)
            if not fresh:
                continue
            candidate = base | set(fresh)
            if candidate in seen or not allow_clashes and clashes(candidate):
                continue
            cid = f"C{next_index:03d}"
            model.concepts[cid] = Concept(cid, cid, genus, fresh)
            intensions[cid] = candidate
            seen.add(candidate)
            next_index += 1
            break

    for ax in axes:
        model.axes[ax.id] = ax

    concept_ids = list(model.concepts)
    for i in range(rng.randint(0, 5)):
        aid = f"a{i}"
        model.attributes[aid] = AttributeDecl(
            aid, aid, rng.choice(concept_ids), rng.choice(list(ValueKind))
        )

    for i in range(rng.randint(0, max_objects)):
        cid = rng.choice(concept_ids)
        values = {}
        for aid, attr in model.attributes.items():
            if rng.random() < 0.5 and intensions[attr.domain] <= intensions[cid]:
                values[aid] = _random_value(rng, attr.value_kind)
        oid = f"o{i:02d}"
        model.objects[oid] = ObjectInstance(oid, oid, cid, values)

    if with_extras:
        _add_extras(rng, model, concept_ids)

    return model


def _random_value(rng: random.Random, kind: ValueKind):
    if kind is ValueKind.TEXT:
        return rng.choice(TEXT_POOL)
    if kind is ValueKind.BOOLEAN:
        return rng.random() < 0.5
    whole = rng.randint(-999, 999)
    if rng.random() < 0.5:
        return Decimal(f"{whole}.{rng.randint(0, 99):02d}")
    return Decimal(whole)


def _add_extras(rng: random.Random, model: Model, concept_ids: list[str]) -> None:
    # part links stay acyclic: edges only run from earlier to later concepts
    seen_edges: set[tuple[str, str]] = set()
    for _ in range(rng.randint(0, 4)):
        if len(concept_ids) < 2:
            break
        i, j = sorted(rng.sample(range(len(concept_ids)), 2))
        edge = (concept_ids[i], concept_ids[j])
        if edge in seen_edges:
            continue
        seen_edges.add(edge)
        # part notes have no DSL surface; JSON round-trips cover them instead
        model.parts.append(PartLink(edge[0], edge[1]))

    for _ in range(rng.randint(0, 3)):
        model.relations.append(
            AssociativeLink(
                rng.choice(list(RelationKind)),
                rng.choice(concept_ids),
                rng.choice(concept_ids),
            )
        )

    for i in range(rng.randint(0, 4)):
        model.terms.append(
            Term(
                f"term {i} {rng.choice(('unité', 'gerät', 'widget'))}",
                rng.choice(LANG_POOL),
                rng.choice(list(TermStatus)),
                rng.choice(concept_ids),
                "a worked explanation" if rng.random() < 0.4 else None,
            )
        )

    for i in range(rng.randint(0, 3)):
        model.classes[f"Q{i}"] = ClassDef(f"Q{i}", random_expr(rng, model))


def random_expr(rng: random.Random, model: Model, depth: int = 3):
    """Random class expression over the model's concepts and attributes."""
    concept_ids = list(model.concepts)
    attr_ids = list(model.attributes)
    atomic = depth <= 0 or rng.random() < 0.45
    if atomic or (not attr_ids and rng.random() < 0.5):
        choices = ["in"]
        if attr_ids:
            choices += ["eq", "has"]
        kind = rng.choice(choices)
        if kind == "in":
            return InConcept(rng.choice(concept_ids))
        aid = rng.choice(attr_ids)
        if kind == "has":
            return HasAttr(aid)
        return AttrEquals(aid, _random_value(rng, model.attributes[aid].value_kind))
    kind = rng.choice(("and", "or", "not"))
    if kind == "not":
        return Not(random_expr(rng, model, depth - 1))
    children = tuple(
        random_expr(rng, model, depth - 1) for _ in range(rng.randint(2, 3))
    )
    return And(children) if kind == "and" else Or(children)


def valid_random_model(seed: int, **kwargs) -> Model:
    """Generate, validate, and return a model; fails loudly if the generator
    ever produces an invalid one."""
    model = random_model(random.Random(seed), **kwargs)
    diagnostics = validate(model)
    assert not has_errors(diagnostics), (
        f"generator produced an invalid model for seed {seed}: "
        + "; ".join(d.render() for d in diagnostics if d.is_error)
    )
    return model


# JSON values a mutation may put anywhere: each JSON type, the enum
# spellings and a stray expression node.
ODD_VALUES = (
    None, True, False, 0, -1, 2.5, "", "otl-json/1", "cause_effect", "number",
    "boolean", "007", [], {}, ["x"], {"op": "has", "attribute": "a0"},
)


def dsl_identifier(text: str) -> bool:
    """Whether the DSL can spell `text` as a name: an ASCII word that is
    not a keyword."""
    return IDENTIFIER.fullmatch(text) is not None and text not in KEYWORDS


def _slots(node):
    """Every (container, key) pair of a JSON document, depth first."""
    keys = range(len(node)) if isinstance(node, list) else list(node)
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def mutated_document(rng: random.Random, doc: dict, max_edits: int = 3) -> dict:
    """A copy of an otl-json document with one to `max_edits` random edits,
    the ones that keep it loadable most often drawn most often: a string
    replaced by one of the document's identifier-shaped strings, a key or an
    item removed, an item duplicated or swapped with another, an unknown key
    added, a value replaced by an odd value or by another node."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, max_edits)):
        slots = list(_slots(doc))
        if not slots:
            break
        strings = [(c, k) for c, k in slots if isinstance(c[k], str)]
        names = sorted({c[k] for c, k in strings if dsl_identifier(c[k])}) or ["x"]
        edit = rng.choice(("name", "name", "name", "drop", "drop", "grow", "grow", "odd", "node"))
        container, key = rng.choice(strings if edit == "name" and strings else slots)
        if edit == "name":
            container[key] = rng.choice(names)
        elif edit == "drop":
            del container[key]
        elif edit == "odd":
            container[key] = copy.deepcopy(rng.choice(ODD_VALUES))
        elif edit == "node":
            other, other_key = rng.choice(slots)
            container[key] = copy.deepcopy(other[other_key])
        elif isinstance(container, dict):
            container[rng.choice(("extra", "op", "id", "value"))] = rng.choice(names)
        elif rng.random() < 0.5:
            container.insert(key, copy.deepcopy(container[key]))
        else:
            other_key = rng.randrange(len(container))
            container[key], container[other_key] = container[other_key], container[key]
    return doc


# -- malformed DSL sources ------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# The DSL's tokens, a few of each kind: every keyword and enum word, some
# names, each punctuation mark, literals good and bad, and the separators.
DSL_VOCABULARY = (
    *sorted(KEYWORDS), "x", "text", "number", "boolean", "associative", "causal",
    "preferred", "admitted", "en", "A", "B", "d1", "d2", "a1", "K", "Q",
    ":=", ":", ",", "{", "}", "(", ")", "->", "|", "+", "=", ";", "\n", "\n",
    '"s"', '"t\\n"', '"open', '"bad\\q"', "1", "2.5", "-3", "007", "$", "# note\n",
)

_SOURCE_TOKEN = re.compile(r'("(?:[^"\\\n]|\\.)*"?|' + IDENTIFIER.pattern + r'|-?[0-9.]+|:=|->|\S)')


def token_soup(rng: random.Random, max_tokens: int = 40) -> str:
    """A random sequence of DSL tokens, mostly statement-shaped: each run
    starts at a statement keyword more often than chance would."""
    tokens = []
    for _ in range(rng.randint(1, max_tokens)):
        if rng.random() < 0.15:
            tokens.append(rng.choice(("\n", ";")))
            tokens.append(rng.choice(STATEMENT_KEYWORDS))
        else:
            tokens.append(rng.choice(DSL_VOCABULARY))
    return " ".join(tokens)


def edited_source(rng: random.Random, text: str, max_edits: int = 3) -> str:
    """A copy of DSL `text` with one to `max_edits` random token edits: a
    token dropped, doubled, swapped with the next or replaced by a
    vocabulary token, a vocabulary token inserted, the text cut short, or a
    line of `text` declared again at the end."""
    parts = _SOURCE_TOKEN.split(text)  # blanks, token, blanks, ..., token, blanks
    words, gaps = parts[1::2], parts[2::2]
    again = ""
    for _ in range(rng.randint(1, max_edits)):
        if not words:
            break
        i = rng.randrange(len(words))
        edit = rng.choice(("drop", "double", "swap", "replace", "insert", "cut", "again"))
        if edit == "again":
            again += rng.choice(text.splitlines(True))
        elif edit == "drop":
            words[i] = ""
        elif edit == "double":
            words[i] += " " + words[i]
        elif edit == "swap" and i + 1 < len(words):
            words[i], words[i + 1] = words[i + 1], words[i]
        elif edit == "replace":
            words[i] = rng.choice(DSL_VOCABULARY)
        elif edit == "insert":
            words[i] = rng.choice(DSL_VOCABULARY) + " " + words[i]
        elif edit == "cut":
            del words[i:], gaps[i:]
    return parts[0] + "".join(w + g for w, g in zip(words, gaps)) + again


def malformed_sources(seed: int, count: int) -> list[tuple[str, str]]:
    """`count` labelled DSL sources from `seed`, alternately a token soup and
    an edit of one of the fixtures under tests/fixtures, comment lines cut."""
    rng = random.Random(seed)
    fixtures = sorted(FIXTURES.glob("*.otl"))
    cases = []
    for i in range(count):
        if i % 2 == 0:
            cases.append((f"soup {i}", token_soup(rng)))
        else:
            path = rng.choice(fixtures)
            text = re.sub(r"(?m)^#.*\n", "", path.read_text("utf-8"))
            cases.append((f"edit {i} of {path.name}", edited_source(rng, text)))
    return cases


RECOVERY_SEED = 12
RECOVERY_CASES = 200


def recovery_golden() -> str:
    """The text of golden/recovery.txt: each malformed source of the seeded
    corpus and the diagnostics `parse` gives for it, with span lengths."""
    out = []
    for label, source in malformed_sources(RECOVERY_SEED, RECOVERY_CASES):
        out.append(f"# {label}: {source!r}")
        for d in parse(source, "t.otl").diagnostics:
            out.append(f"{d.render()}  [{d.location.length}]")
    return "\n".join(out) + "\n"
