"""Seeded `.otl` inputs for the benchmark, with their expected answers.

Stdlib only, and it never imports `otl`: every expected answer comes from
the generator's own bookkeeping (the intension of each concept is recorded
while its declaration is written), so the benchmark checks otl against
values otl did not compute.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from decimal import Decimal
from math import comb

# One sentence per workload on why it was chosen; run.py prints it with
# every result and BENCHMARK.json repeats it.
WHY = {
    "author": "the author's check/export/tree shell loop through the CLI on a wide "
    "2000-concept tree, where startup, lex/parse and validate dominate",
    "query": "a library user's read mix over a model loaded once, so model, classes, "
    "definitions and hierarchy reads dominate and parse/validate are absent",
    "deep": "adversarial shapes (genus chain, subset poly-hierarchy, part chain "
    "closed by a cycle) at n and 2n that drive the reasoner's superlinear paths",
}

TEXTS = ("red", "blue", "green", "matte", "glossy")
RELATION_TYPES = ("associative", "sequential", "temporal", "causal", "producer_product")
AUTHOR_CONCEPTS = 2000
# a small 1-3-subset block, so `otl tree --derived` has derived edges to draw
AUTHOR_POLY_K = 6
QUERY_CONCEPTS = 1000
QUERY_POLY_K = 8
# Deep shapes at n and 2n.  The poly shape is sized by k, chosen so its
# concept count (all 1-3-subsets of k differences) roughly doubles.
CHAIN_N = 250
PARTS_N = 600
POLY_K = (14, 18)
DEEP_NOT_DEPTH = (2500, 3500)


# ---------------------------------------------------------------------------
# Class expressions: tuples ("in", c) ("eq", a, v) ("has", a) ("and", kids)
# ("or", kids) ("not", child).  workloads.py turns them into otl objects.
# ---------------------------------------------------------------------------


def render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Decimal):
        return str(value)
    return f'"{value}"'


def json_value(value) -> dict:
    if isinstance(value, bool):
        return {"kind": "boolean", "value": value}
    if isinstance(value, Decimal):
        return {"kind": "number", "value": str(value)}
    return {"kind": "text", "value": value}


def expr_dsl(expr) -> str:
    op = expr[0]
    if op == "in":
        return f"in {expr[1]}"
    if op == "eq":
        return f"{expr[1]} = {render_value(expr[2])}"
    if op == "has":
        return f"has {expr[1]}"
    if op == "not":
        return f"not ({expr_dsl(expr[1])})"
    joiner = f" {op} "
    return joiner.join(f"({expr_dsl(c)})" for c in expr[1])


# ---------------------------------------------------------------------------
# A generated system and its bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class System:
    """DSL lines plus everything needed to compute expected answers."""

    name: str
    lines: list[str] = field(default_factory=list)
    genus: dict[str, str | None] = field(default_factory=dict)
    differentiae: dict[str, tuple[str, ...]] = field(default_factory=dict)
    intension: dict[str, frozenset[str]] = field(default_factory=dict)
    concept_line: dict[str, int] = field(default_factory=dict)
    attributes: dict[str, tuple[str, str]] = field(default_factory=dict)
    objects: dict[str, tuple[str, dict]] = field(default_factory=dict)
    terms: list[tuple[str, str, str, str]] = field(default_factory=list)
    parts: list[tuple[str, str]] = field(default_factory=list)
    part_line: list[int] = field(default_factory=list)
    relations: list[tuple[str, str, str]] = field(default_factory=list)
    axes: list[str] = field(default_factory=list)
    classes: dict[str, tuple] = field(default_factory=dict)
    # W_NO_PREFERRED_TERM warnings: (concept line, language, concept)
    warnings: list[tuple[int, str, str]] = field(default_factory=list)
    _supers: dict[str, frozenset[str]] | None = field(default=None, repr=False)
    _direct_sub: dict[str, set[str]] | None = field(default=None, repr=False)

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def add(self, line: str) -> int:
        self.lines.append(line)
        return len(self.lines)

    def concept(self, cid: str, genus: str | None, diffs: tuple[str, ...]) -> None:
        if genus is not None:
            line = f"concept {cid} := {genus} + {', '.join(diffs)}"
            base = self.intension[genus]
        elif diffs:
            line = f"concept {cid} := {', '.join(diffs)}"
            base = frozenset()
        else:
            line = f"concept {cid}"
            base = frozenset()
        self.concept_line[cid] = self.add(line)
        self.genus[cid] = genus
        self.differentiae[cid] = diffs
        self.intension[cid] = base | frozenset(diffs)

    def obj(self, oid: str, cid: str, values: dict) -> None:
        assigns = ", ".join(f"{a} = {render_value(v)}" for a, v in values.items())
        self.add(f"object {oid} : {cid} {{ {assigns} }}" if values else f"object {oid} : {cid}")
        self.objects[oid] = (cid, values)

    def part(self, whole: str, part: str) -> None:
        self.part_line.append(self.add(f"part {whole} has {part}"))
        self.parts.append((whole, part))

    # -- expected answers, from intension sets alone -----------------------

    def superiors(self) -> dict[str, frozenset[str]]:
        """Concept -> every concept whose intension is a strict subset.

        Candidates are found through an index keyed by one difference of
        each concept (its greatest), which every subset of an intension
        that contains that difference must share; then filtered by subset.
        """
        if self._supers is None:
            keyed: dict[str, list[str]] = {}
            empty = [c for c, i in self.intension.items() if not i]
            for c, i in self.intension.items():
                if i:
                    keyed.setdefault(max(i), []).append(c)
            supers = {}
            for c, i in self.intension.items():
                cands = empty + [g for d in i for g in keyed.get(d, ())]
                supers[c] = frozenset(g for g in cands if self.intension[g] < i)
            self._supers = supers
        return self._supers

    def direct_super(self, cid: str) -> frozenset[str]:
        sup = self.superiors()[cid]
        return frozenset(
            g for g in sup if not any(self.intension[g] < self.intension[h] for h in sup)
        )

    def direct_sub(self) -> dict[str, set[str]]:
        if self._direct_sub is None:
            subs: dict[str, set[str]] = {c: set() for c in self.intension}
            for c in self.intension:
                for g in self.direct_super(c):
                    subs[g].add(c)
            self._direct_sub = subs
        return self._direct_sub

    def extension(self, cid: str) -> frozenset[str]:
        need = self.intension[cid]
        return frozenset(
            oid for oid, (c, _) in self.objects.items() if need <= self.intension[c]
        )

    def classify(self, oid: str) -> list[str]:
        cid = self.objects[oid][0]
        chain = [cid, *self.superiors()[cid]]
        return sorted(chain, key=lambda c: (-len(self.intension[c]), c))

    def coordinates(self, cid: str) -> frozenset[str]:
        out: set[str] = set()
        for g in self.direct_super(cid):
            out |= self.direct_sub()[g]
        out.discard(cid)
        return frozenset(out)

    def evaluate(self, expr, extension_of) -> frozenset[str]:
        op = expr[0]
        if op == "in":
            return extension_of(expr[1])
        if op == "has":
            return frozenset(o for o, (_, v) in self.objects.items() if expr[1] in v)
        if op == "eq":
            attr, want = expr[1], expr[2]
            return frozenset(
                o
                for o, (_, v) in self.objects.items()
                if attr in v and type(v[attr]) is type(want) and v[attr] == want
            )
        if op == "not":
            return frozenset(self.objects) - self.evaluate(expr[1], extension_of)
        parts = [self.evaluate(c, extension_of) for c in expr[1]]
        if op == "and":
            return frozenset.intersection(*parts)
        return frozenset.union(*parts)

    def describe(self, oid: str) -> str:
        cid, values = self.objects[oid]
        pieces = [f"{oid} : {cid}"] + [f"{a} = {render_value(values[a])}" for a in sorted(values)]
        lines = [" / ".join(pieces)]
        parts = [p for w, p in self.parts if w == cid]
        if parts:
            lines.append("parts: " + ", ".join(parts))
        return "\n".join(lines)

    def lexicon_order(self) -> list[str]:
        return sorted(self.intension, key=lambda c: (len(self.intension[c]), c))

    def lexicon_notes(self, lang: str) -> list[tuple[str, str]]:
        preferred = {c for _, lg, st, c in self.terms if lg == lang and st == "preferred"}
        in_parts = {c for link in self.parts for c in link}
        subs = self.direct_sub()
        notes = []
        for cid in self.lexicon_order():
            if cid not in preferred:
                notes.append(("W_NO_PREFERRED_TERM", cid))
            if self.genus[cid] is None and not subs[cid] and cid in in_parts:
                notes.append(("W_DESCRIPTION_ONLY", cid))
        return notes

    def json_concepts(self) -> list[tuple]:
        return [
            (c, self.genus[c], list(self.differentiae[c]), sorted(self.intension[c]))
            for c in self.intension
        ]

    def json_objects(self) -> list[tuple]:
        return [
            (o, c, {a: json_value(v) for a, v in vals.items()})
            for o, (c, vals) in self.objects.items()
        ]


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def tree(rng: random.Random, n: int, name: str, poly_k: int = 0) -> System:
    """A wide random genus tree under one empty root, one new difference
    per concept, two valued objects per concept, en/fr terms, attributes,
    part links, relations and classes.  With ``poly_k`` it also holds the
    1-3-subset poly-hierarchy over ``poly_k`` extra differences."""
    s = System(name)
    ids = [f"C{i:04d}" for i in range(n)]
    children: dict[str, list[str]] = {c: [] for c in ids}
    s.concept(ids[0], None, ())
    # Levels triple in size and each concept's parent is a random concept of
    # the level above: the tree is wide and random, but its depth profile,
    # and so the cost of handling it, is the same for every seed.
    above, start = (0, 1), 1
    while start < n:
        end = min(n, start + 3 * (above[1] - above[0]))
        for i in range(start, end):
            parent = ids[rng.randrange(*above)]
            children[parent].append(ids[i])
            s.concept(ids[i], parent, (f"d{i:04d}",))
        above, start = (start, end), end
    if poly_k:
        for size in (1, 2, 3):
            for combo in itertools.combinations(range(poly_k), size):
                genus = None if size == 1 else "P" + "".join(f"{j:x}" for j in combo[:-1])
                s.concept("P" + "".join(f"{j:x}" for j in combo), genus, (f"k{combo[-1]:x}",))
    concepts = list(s.intension)

    # n/14 exclusive axes, each over two sibling differences, scoped at
    # the siblings' parent
    parents = [p for p in ids if len(children[p]) >= 2]
    for parent in parents[: n // 14]:
        axis = f"K{parent[1:]}"
        members = ", ".join(s.differentiae[k][0] for k in children[parent][:2])
        s.add(f"axis {axis} of {parent} {{ {members} }}")
        s.axes.append(axis)

    s.add(f"attribute colour : text on {ids[0]}")
    s.add(f"attribute weight : number on {ids[0]}")
    s.add(f"attribute active : boolean on {ids[0]}")
    s.attributes.update(
        colour=("text", ids[0]), weight=("number", ids[0]), active=("boolean", ids[0])
    )
    graded = rng.sample(ids[n // 40 : n // 20], 8)
    for j, cid in enumerate(graded):
        s.add(f"attribute grade{j} : text on {cid}")
        s.attributes[f"grade{j}"] = ("text", cid)

    for cid in concepts:
        for suffix in "ab":
            values: dict = {"colour": rng.choice(TEXTS)}
            if rng.random() < 0.7:
                values["weight"] = Decimal(f"{rng.randint(1, 40)}.{rng.randint(0, 9)}")
            else:
                values["active"] = rng.random() < 0.5
            for j, dom in enumerate(graded):
                if s.intension[dom] <= s.intension[cid] and rng.random() < 0.5:
                    values[f"grade{j}"] = rng.choice(TEXTS)
            s.obj(f"o{cid[1:]}{suffix}", cid, values)

    for i, cid in enumerate(concepts):
        if i % 7 == 3 and i + 1 < len(concepts):
            s.part(cid, concepts[rng.randrange(i + 1, len(concepts))])
    for _ in range(max(2, n // 100)):
        kind = rng.choice(RELATION_TYPES)
        src, dst = rng.choice(concepts), rng.choice(concepts)
        s.add(f"relation r ({kind}) {src} -> {dst}")
        s.relations.append((kind, src, dst))

    for i, cid in enumerate(concepts):
        if i % 3 == 0:
            _term(s, f"thing {i}", "en", "preferred", cid)
        if i % 5 == 0:
            if i % 10 == 0:
                _term(s, f"chose {i}", "fr", "preferred", cid)
            else:
                _term(s, f"objet {i}", "fr", "admitted", cid)
        if i % 11 == 0:
            _term(s, f"item {i}", "en", "admitted", cid, "a worked explanation")
    # validate warns once per concept and language that has terms but no
    # preferred one
    by_lang: dict[tuple[str, str], set[str]] = {}
    for _, lang, status, cid in s.terms:
        by_lang.setdefault((cid, lang), set()).add(status)
    s.warnings = sorted(
        (s.concept_line[cid], lang, cid)
        for (cid, lang), statuses in by_lang.items()
        if "preferred" not in statuses
    )

    s.classes["Red"] = ("and", (("eq", "colour", "red"), ("not", ("in", rng.choice(ids[1:])))))
    s.classes["Marked"] = ("or", (("has", "grade0"), ("eq", "active", True)))
    for cls, expr in s.classes.items():
        s.add(f"class {cls} := {{ x | {expr_dsl(expr)} }}")
    return s


def _term(s: System, text: str, lang: str, status: str, cid: str, nl: str | None = None) -> None:
    tail = f' definition "{nl}"' if nl else ""
    s.add(f'term "{text}" ({lang}, {status}) for {cid}{tail}')
    s.terms.append((text, lang, status, cid))


def chain(n: int, prefix: str) -> System:
    """Porphyry-style genus chain: each concept adds one difference."""
    s = System(f"chain{n}")
    s.concept(f"{prefix}0", None, ())
    for i in range(1, n):
        s.concept(f"{prefix}{i}", f"{prefix}{i - 1}", (f"{prefix.lower()}e{i}",))
    return s


def poly(k: int, rng: random.Random) -> System:
    """All 1-3-subsets of k differences.  Each subset declares one genus
    (itself minus its last difference), yet is covered by every subset
    one smaller, so derived superordinates outnumber declared ones."""
    s = System(f"poly{k}")
    names = [f"q{j:02d}" for j in rng.sample(range(100), k)]
    order = list(range(k))
    rng.shuffle(order)
    for size in (1, 2, 3):
        for combo in itertools.combinations(order, size):
            cid = "S_" + "_".join(names[j] for j in combo)
            genus = None if size == 1 else "S_" + "_".join(names[j] for j in combo[:-1])
            s.concept(cid, genus, (names[combo[-1]],))
    return s


def poly_covering(k: int) -> int:
    return 3 * comb(k, 3) + 2 * comb(k, 2)


def parts(n: int, cycle: int, prefix: str) -> System:
    """A part chain through n root concepts, closed by one cycle over its
    last ``cycle`` concepts."""
    s = System(f"parts{n}")
    ids = [f"{prefix}{i}" for i in range(n)]
    for i, cid in enumerate(ids):
        s.concept(cid, None, (f"{prefix.lower()}p{i}",))
    for i in range(n - 1):
        s.part(ids[i], ids[i + 1])
    s.part(ids[-1], ids[n - cycle])
    return s


def deep_not(depth: int) -> System:
    """A small model whose one class is a `not` chain ``depth`` deep."""
    s = System("deep_not")
    s.concept("Thing", None, ())
    s.add("attribute colour : text on Thing")
    s.attributes["colour"] = ("text", "Thing")
    for i in range(6):
        s.obj(f"t{i}", "Thing", {"colour": TEXTS[i % len(TEXTS)]} if i % 2 else {})
    expr = ("has", "colour")
    for _ in range(depth):
        expr = ("not", expr)
    s.classes["Deep"] = expr
    s.add("class Deep := { x | " + "not " * depth + "has colour }")
    return s


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------


def author_input(seed: int) -> System:
    return tree(random.Random(seed), AUTHOR_CONCEPTS, "author", poly_k=AUTHOR_POLY_K)


def query_input(seed: int) -> System:
    return tree(random.Random(seed), QUERY_CONCEPTS, "query", poly_k=QUERY_POLY_K)


def deep_inputs(seed: int) -> dict[str, tuple[System, System]]:
    """Each shape at n and 2n, keyed by shape name."""
    rng = random.Random(seed)
    prefix = "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ") for _ in range(2))
    cycle = rng.randint(3, 6)
    return {
        "chain": (chain(CHAIN_N, prefix), chain(2 * CHAIN_N, prefix)),
        "poly": (poly(POLY_K[0], rng), poly(POLY_K[1], rng)),
        "parts": (parts(PARTS_N, cycle, prefix), parts(2 * PARTS_N, cycle, prefix)),
    }


def deep_not_input(seed: int) -> System:
    return deep_not(random.Random(seed).randint(*DEEP_NOT_DEPTH))


def read_mix(s: System, seed: int) -> list[tuple]:
    """The fixed read mix of the query workload: (kind, args, expected).

    Counts per kind are fixed so every seed does the same amount of each
    read; the seed picks the arguments and the order.
    """
    rng = random.Random(seed ^ 0x5EED)
    concepts = list(s.intension)
    inner = [c for c in concepts if s.genus[c] is not None]
    with_subs = [c for c in concepts if s.direct_sub()[c]]
    objects = list(s.objects)
    ext_cache: dict[str, frozenset[str]] = {}

    def ext(cid: str) -> frozenset[str]:
        if cid not in ext_cache:
            ext_cache[cid] = s.extension(cid)
        return ext_cache[cid]

    def pair() -> tuple[str, str]:
        c2 = rng.choice(concepts)
        sup = sorted(s.superiors()[c2])
        if sup and rng.random() < 0.5:
            return rng.choice(sup), c2
        return rng.choice(concepts), c2

    mix: list[tuple] = []
    for _ in range(30):
        c = rng.choice(concepts)
        mix.append(("extension", (c,), ext(c)))
    for _ in range(30):
        o = rng.choice(objects)
        mix.append(("classify_object", (o,), s.classify(o)))
    for _ in range(60):
        c1, c2 = pair()
        mix.append(("subsumes", (c1, c2), s.intension[c1] < s.intension[c2]))
    for _ in range(30):
        c = rng.choice(concepts)
        mix.append(("coordinates", (c,), s.coordinates(c)))
    for _ in range(30):
        c = rng.choice(inner)
        mix.append(("intensional", (c,), (s.genus[c], s.differentiae[c])))
    for _ in range(20):
        c = rng.choice(with_subs)
        mix.append(("extensional", (c,), tuple(sorted(s.direct_sub()[c]))))
    for _ in range(30):
        o = rng.choice(objects)
        mix.append(("describe", (o,), s.describe(o)))
    lang = rng.choice(("en", "fr"))
    mix.append(("lexicon", (lang,), (s.lexicon_order(), s.lexicon_notes(lang))))

    attrs = [a for a in s.attributes if a.startswith("grade")]
    exprs = {
        "wide_or": [
            ("or", tuple(("in", c) for c in rng.sample(concepts, 40))) for _ in range(2)
        ],
        "attr": [
            ("eq", "colour", rng.choice(TEXTS)),
            ("eq", "weight", Decimal(f"{rng.randint(1, 40)}.{rng.randint(0, 9)}")),
            ("eq", "active", rng.random() < 0.5),
            ("has", rng.choice(attrs)),
        ],
        "nested": [_nested(rng, concepts, attrs) for _ in range(2)],
    }
    for family, family_exprs in exprs.items():
        for e in family_exprs:
            mix.append((f"evaluate_class.{family}", (e,), s.evaluate(e, ext)))
    rng.shuffle(mix)
    return mix


def _nested(rng: random.Random, concepts: list[str], attrs: list[str]):
    """A fixed and/or/not shape over eight leaves; the seed picks only the
    leaves' arguments, so every seed evaluates the same amount of work."""

    def leaf(kind: str):
        if kind == "in":
            return ("in", rng.choice(concepts))
        if kind == "eq":
            return ("eq", "colour", rng.choice(TEXTS))
        return ("has", rng.choice(attrs))

    a = ("or", (leaf("in"), leaf("eq")))
    b = ("not", ("and", (leaf("has"), leaf("in"))))
    c = ("and", (leaf("eq"), ("not", leaf("in"))))
    d = ("or", (leaf("has"), leaf("in")))
    return ("or", (("and", (a, b)), ("and", (c, d))))
