"""The three workloads, as passes over otl's public functions.

Each pass function takes a Recorder and does one closed-loop pass: every
call into otl is timed through the recorder and every answer is checked
against the generator's expected value outside the timed call.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import otl

import gen
from launch import Launcher
from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent

# Setup probes run in a fresh interpreter: import, then optionally load a file.
PROBE = (
    "import sys, importlib\n"
    "otl = importlib.import_module(sys.argv[1])\n"
    "if len(sys.argv) > 2:\n"
    "    import otl as lib\n"
    "    src = open(sys.argv[2], encoding='utf-8').read()\n"
    "    model = lib.parse(src, sys.argv[2]).model\n"
    "    sys.exit(model is None or lib.has_errors(lib.validate(model)))\n"
)


# Children take their hash seeds in turn from 1..HASH_SEEDS, so every run
# measures the same set and/dict layouts and runs differ only in the host's
# state; otl's outputs do not depend on hash order.
HASH_SEEDS = 4


def hashseed(index: int) -> int:
    return index % HASH_SEEDS + 1


def child(rec: Recorder, launcher: Launcher, name: str, args: list[str], index: int) -> dict:
    """Run ``python *args`` through the launcher as one timed call."""
    done = launcher.run([sys.executable, *args], hashseed(index))
    rec.timed(name, done["start"], done["end"])
    return done


def probe(
    rec: Recorder, launcher: Launcher, name: str, index: int, module: str, path: str | None = None
) -> float:
    """Time one fresh interpreter that imports ``module`` (and loads ``path``)."""
    args = ["-c", PROBE, module] + ([path] if path else [])
    with rec.op("setup") as op:
        done = child(rec, launcher, name, args, index)
        rec.expect(op, done["returncode"] == 0)
    if not op.ok:
        raise RuntimeError(f"setup probe failed: {done['stderr'][-2000:]}")
    return op.seconds


def to_otl(expr):
    """Generator tuple expression -> otl class expression (shallow trees)."""
    op = expr[0]
    if op == "in":
        return otl.InConcept(expr[1])
    if op == "eq":
        return otl.AttrEquals(expr[1], expr[2])
    if op == "has":
        return otl.HasAttr(expr[1])
    if op == "not":
        return otl.Not(to_otl(expr[1]))
    kids = tuple(to_otl(c) for c in expr[1])
    return otl.And(kids) if op == "and" else otl.Or(kids)


# ---------------------------------------------------------------------------
# Checks shared by the CLI loop and its in-process replay
# ---------------------------------------------------------------------------

_DOT_NODE = re.compile(r'^  "([^"]+)" \[label=')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)"(?: \[style=(\w+)\])?;$')
_NOTE = re.compile(r"^# (W_\w+) (\w+):")


def expected_diagnostics(s: gen.System, path: str) -> list[str]:
    return [
        f"WARNING W_NO_PREFERRED_TERM {path}:{line}:9 concept '{cid}' has terms in '{lang}' but none preferred"
        for line, lang, cid in s.warnings
    ]


def json_ok(s: gen.System, text: str) -> bool:
    try:
        return _json_matches(s, json.loads(text))
    except (ValueError, KeyError, TypeError):  # malformed output is a wrong answer
        return False


def _json_matches(s: gen.System, doc: dict) -> bool:
    concepts = [(c["id"], c["genus"], c["differentiae"], c["intension"]) for c in doc["concepts"]]
    objects = [(o["id"], o["concept"], o["values"]) for o in doc["objects"]]
    return (
        doc["version"] == "otl-json/1"
        and concepts == s.json_concepts()
        and objects == s.json_objects()
        and [a["id"] for a in doc["axes"]] == s.axes
        and [(p["whole"], p["part"]) for p in doc["parts"]] == s.parts
        and [(r["relation_type"], r["source"], r["target"]) for r in doc["relations"]]
        == s.relations
        and [(t["designation"], t["language"], t["status"], t["concept"]) for t in doc["terms"]]
        == s.terms
        and [c["id"] for c in doc["classes"]] == list(s.classes)
    )


def dot_expected(s: gen.System) -> tuple[set, set]:
    nodes = set(s.intension) | set(s.objects)
    edges = {(g, c, None) for c, g in s.genus.items() if g is not None}
    edges |= {
        (g, c, "dashed") for c in s.intension for g in s.direct_super(c) - {s.genus[c]}
    }
    edges |= {(c, o, "dotted") for o, (c, _) in s.objects.items()}
    return nodes, edges


def dot_ok(expected: tuple[set, set], text: str) -> bool:
    nodes, edges = set(), set()
    lines = text.splitlines()
    if len(lines) < 4:
        return False
    for line in lines[3:-1]:
        edge = _DOT_EDGE.match(line)
        if edge:
            edges.add(edge.groups())
            continue
        node = _DOT_NODE.match(line)
        if not node:
            return False
        nodes.add(node.group(1))
    return lines[0] == "digraph concept_system {" and lines[-1] == "}" and (nodes, edges) == expected


def dsl_ok(s: gen.System, text: str) -> bool:
    lines = text.splitlines()
    concept_lines = {line for line in s.lines if line.startswith("concept ")}
    return (
        {line for line in lines if line.startswith("concept ")} == concept_lines
        and sum(line.startswith("object ") for line in lines) == len(s.objects)
    )


# ---------------------------------------------------------------------------
# author: the CLI loop, and its in-process replay for the traced run
# ---------------------------------------------------------------------------


class Author:
    COMMANDS = {
        "check": [],
        "export": ["--format", "json"],
        "tree": ["--derived", "--objects"],
    }

    def __init__(self, work: Path, seed: int, launcher: Launcher):
        self.launcher = launcher
        self.passes = 0
        self.s = gen.author_input(seed)
        self.file = work / "author.otl"
        self.file.write_text(self.s.text, encoding="utf-8")
        self.path = str(self.file.relative_to(ROOT))
        self.stderr = "".join(line + "\n" for line in expected_diagnostics(self.s, self.path))
        self.dot = dot_expected(self.s)

    def payload_ok(self, command: str, payload: str) -> bool:
        if command == "check":
            return payload == ""
        if command == "export":
            return json_ok(self.s, payload)
        return dot_ok(self.dot, payload)

    def cli_pass(self, rec: Recorder) -> dict[str, float]:
        self.passes += 1
        times = {}
        for command, flags in self.COMMANDS.items():
            with rec.op(f"author.{command}") as op:
                args = ["-m", "otl.cli", command, self.path, *flags]
                done = child(rec, self.launcher, f"cli.{command}", args, self.passes)
                rec.expect(
                    op,
                    done["returncode"] == 0
                    and done["stderr"] == self.stderr
                    and self.payload_ok(command, done["stdout"]),
                )
            times[command] = op.seconds
        return times

    def replay_pass(self, rec: Recorder) -> dict[str, float]:
        """The CLI's sequence in-process: read, parse, validate, then the
        command's exporter; plus print_dsl so every exporter is timed."""
        export = {
            "check": None,
            "export": ("exporters.to_json.author", otl.to_json),
            "tree": (
                "exporters.to_dot.author",
                lambda m: otl.to_dot(m, otl.ExportOptions(include_objects=True, include_derived_edges=True)),
            ),
        }
        times = {}
        for command, exporter in export.items():
            with rec.op(f"author.{command}") as op:
                source = self.file.read_text(encoding="utf-8")
                parsed = rec.call("parser.parse.author", otl.parse, source, self.path, size=len(source.encode()))
                model = parsed.model
                diags = rec.call("reasoner.validate.author", otl.validate, model)
                rendered = "".join(d.render() + "\n" for d in parsed.diagnostics + diags)
                rec.expect(op, rendered == self.stderr)
                if exporter is not None:
                    name, fn = exporter
                    out = rec.call(name, fn, model)
                    rec.size(len(out.encode()))
                    rec.expect(op, self.payload_ok(command, out))
            times[command] = op.seconds
        with rec.op("author.print_dsl") as op:
            out = rec.call("exporters.print_dsl.author", otl.print_dsl, model)
            rec.expect(op, dsl_ok(self.s, out))
        return times


# ---------------------------------------------------------------------------
# query: a fixed read mix over a model loaded once
# ---------------------------------------------------------------------------


def _definition_ok(d, kind: str, formal) -> bool:
    return d.kind == kind and d.formal == formal


def _lexicon_ok(expected, text: str) -> bool:
    order, notes = expected
    lines = text.splitlines()
    rows = [line.split(" ", 1)[0] for line in lines[: len(order)]]
    found = []
    for line in lines[len(order) :]:
        note = _NOTE.match(line)
        if note is None:
            return False
        found.append(note.groups())
    return rows == order and found == notes


READS = {
    "extension": ("model.extension", otl.extension, lambda e, r: r == e),
    "classify_object": ("reasoner.classify_object", otl.classify_object, lambda e, r: r == e),
    "subsumes": ("reasoner.subsumes", otl.subsumes, lambda e, r: r is e),
    "coordinates": ("reasoner.coordinates", otl.coordinates, lambda e, r: r == e),
    "intensional": (
        "definitions.intensional_definition",
        otl.intensional_definition,
        lambda e, r: _definition_ok(r, "intensional", e),
    ),
    "extensional": (
        "definitions.extensional_definition",
        otl.extensional_definition,
        lambda e, r: _definition_ok(r, "extensional", e),
    ),
    "describe": ("definitions.describe_object", otl.describe_object, lambda e, r: r == e),
    "lexicon": ("definitions.lexicon", otl.lexicon, _lexicon_ok),
}
for _family in ("wide_or", "attr", "nested"):
    READS[f"evaluate_class.{_family}"] = (
        f"classes.evaluate_class.{_family}",
        otl.evaluate_class,
        lambda e, r: r == e,
    )


class Query:
    def __init__(self, work: Path, seed: int):
        self.s = gen.query_input(seed)
        self.file = work / "query.otl"
        self.file.write_text(self.s.text, encoding="utf-8")
        self.path = str(self.file.relative_to(ROOT))
        self.model = None
        mix = gen.read_mix(self.s, seed)
        self.mix = [
            (kind, tuple(to_otl(a) if kind.startswith("evaluate_class") else a for a in args), want)
            for kind, args, want in mix
        ]

    def load(self, rec: Recorder) -> None:
        with rec.op("query.load") as op:
            source = self.file.read_text(encoding="utf-8")
            parsed = rec.call("parser.parse.query", otl.parse, source, self.path, size=len(source.encode()))
            diags = rec.call("reasoner.validate.query", otl.validate, parsed.model)
            expected = expected_diagnostics(self.s, self.path)
            rec.expect(op, [d.render() for d in parsed.diagnostics + diags] == expected)
        if not op.ok:
            raise RuntimeError("query model did not load as expected")
        self.model = parsed.model

    def read_pass(self, rec: Recorder) -> dict[str, float]:
        model = self.model
        total = 0.0
        for kind, args, want in self.mix:
            name, fn, ok = READS[kind]
            with rec.op(f"query.{kind}") as op:
                result = rec.call(name, fn, model, *args)
                rec.expect(op, ok(want, result))
            total += op.seconds
        return {"reads": total}


# ---------------------------------------------------------------------------
# deep: adversarial shapes loaded from DSL and round-tripped through JSON
# ---------------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Deep:
    def __init__(self, work: Path, seed: int):
        self.shapes = gen.deep_inputs(seed)
        self.texts = {
            (shape, size): s.text
            for shape, pair in self.shapes.items()
            for size, s in zip(("n", "2n"), pair)
        }
        robust = gen.deep_not_input(seed)
        self.robust_file = work / "deep_not.otl"
        self.robust_file.write_text(robust.text, encoding="utf-8")
        self.robust_path = str(self.robust_file.relative_to(ROOT))
        self.robust_model = None
        # the answers follow from the parity of the `not` count alone
        depth, expr = 0, robust.classes["Deep"]
        while expr[0] == "not":
            depth, expr = depth + 1, expr[1]
        valued = {o for o, (_, v) in robust.objects.items() if "colour" in v}
        self.depth = depth
        self.robust_members = frozenset(valued if depth % 2 == 0 else set(robust.objects) - valued)
        self.robust_line = "class Deep := { x | " + "not " * depth + "has colour }"

    def covering(self, model) -> int:
        return sum(len(v) for v in otl.compute_hierarchy(model).direct_super.values())

    def expected_covering(self, shape: str, s: gen.System) -> int:
        if shape == "chain":
            return len(s.intension) - 1
        return gen.poly_covering(len({d for i in s.intension.values() for d in i}))

    def load_ok(self, shape: str, s: gen.System, parsed, diags) -> bool:
        if parsed.diagnostics or parsed.model is None:
            return False
        if shape != "parts":
            return diags == [] and self.covering(parsed.model) == self.expected_covering(shape, s)
        # the closing edge points back at the cycle's first concept; the
        # first declared edge inside the cycle leaves that concept
        ids = list(s.intension)
        start = ids.index(s.parts[-1][1])
        component = set(ids[start:])
        if len(diags) != 1:
            return False
        d = diags[0]
        named = set(_IDENT.findall(d.message.split(":", 1)[-1]))
        return (
            d.code == "E_PART_CYCLE"
            and named == component
            and getattr(d.location, "line", None) == s.part_line[start]
        )

    def reload_ok(self, shape: str, s: gen.System, model) -> bool:
        records = [(c.id, c.genus, tuple(c.differentiae)) for c in model.concepts.values()]
        expected = [(c, s.genus[c], s.differentiae[c]) for c in s.intension]
        return (
            model.validated
            and records == expected
            and model.intensions == s.intension
            and self.covering(model) == self.expected_covering(shape, s)
        )

    def load_robust(self, rec: Recorder) -> None:
        with rec.op("deep.load_robust") as op:
            source = self.robust_file.read_text(encoding="utf-8")
            parsed = rec.call("parser.parse.deep_not", otl.parse, source, self.robust_path, size=len(source.encode()))
            diags = rec.call("reasoner.validate.deep_not", otl.validate, parsed.model)
            rec.expect(op, parsed.diagnostics == [] and diags == [])
        if not op.ok:
            raise RuntimeError("deep-not model did not load")
        self.robust_model = parsed.model

    def shape_pass(self, rec: Recorder) -> dict[str, float]:
        load = reload = 0.0
        for shape, pair in self.shapes.items():
            for size, s in zip(("n", "2n"), pair):
                text = self.texts[shape, size]
                with rec.op(f"deep.load.{shape}") as op:
                    parsed = rec.call(f"parser.parse.{shape}.{size}", otl.parse, text, s.name, size=len(text.encode()))
                    diags = rec.call(f"reasoner.validate.{shape}.{size}", otl.validate, parsed.model)
                    rec.expect(op, self.load_ok(shape, s, parsed, diags))
                load += op.seconds
                if shape == "parts" or not op.ok:
                    continue
                with rec.op(f"deep.reload.{shape}") as op:
                    dumped = rec.call(f"exporters.to_json.{shape}.{size}", otl.to_json, parsed.model)
                    loaded = rec.call(f"exporters.from_json.{shape}.{size}", otl.from_json, dumped)
                    rec.expect(op, self.reload_ok(shape, s, loaded))
                reload += op.seconds
        return {"load": load, "reload": reload}

    def robust_pass(self, rec: Recorder) -> None:
        """`not` chains thousands deep on a small model, on which otl raises
        RecursionError today.  Run once per process, kept out of the timed
        totals and counted as known failures: a fix should show as fewer
        known failures, not as a slower pass.  A wrong answer is still wrong."""
        model = self.robust_model
        expr = model.classes["Deep"].expr
        with rec.op("deep.robust.evaluate", known_defect=True) as op:
            got = rec.call("classes.evaluate_class.deep_not", otl.evaluate_class, model, expr)
            rec.expect(op, got == self.robust_members)
        with rec.op("deep.robust.to_json", known_defect=True) as op:
            text = rec.call("exporters.to_json.deep_not", otl.to_json, model)
            # counted, not parsed: json.loads itself stops near depth 1000
            rec.expect(op, text.count('"op": "not"') == self.depth and text.count('"op": "has"') == 1)
        with rec.op("deep.robust.print_dsl", known_defect=True) as op:
            text = rec.call("exporters.print_dsl.deep_not", otl.print_dsl, model)
            rec.expect(op, text.splitlines()[-1:] == [self.robust_line])
