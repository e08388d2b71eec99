"""Lexer and recursive-descent parser for the .otl DSL.

Grammar (terminals quoted; statements end at a newline or ';'):

    model      := { statement }
    statement  := concept | axis | attribute | object | part | relation
                | term | classdef
    concept    := "concept" IDENT [ ":=" [ IDENT "+" ] diffs ]
    diffs      := IDENT { "," IDENT }
    axis       := "axis" IDENT "of" IDENT ["nonexclusive"]
                  "{" IDENT { "," IDENT } "}"
    attribute  := "attribute" IDENT ":" ("text"|"number"|"boolean") "on" IDENT
    object     := "object" IDENT ":" IDENT [ "{" assign { "," assign } "}" ]
    assign     := IDENT "=" (STRING | NUMBER | "true" | "false")
    part       := "part" IDENT "has" IDENT
    relation   := "relation" IDENT "(" RELTYPE ")" IDENT "->" IDENT
    term       := "term" STRING "(" LANG "," STATUS ")" "for" IDENT
                  [ "definition" STRING ]
    classdef   := "class" IDENT ":=" "{" "x" "|" classexpr "}"
    classexpr  := orexpr
    orexpr     := andexpr { "or" andexpr }
    andexpr    := unary { "and" unary }
    unary      := "not" unary | "(" classexpr ")" | atom
    atom       := "in" IDENT | IDENT "=" value | "has" IDENT

A `concept` without the ":=" clause declares a root with an empty intension;
`concept X := a, b` (no "+") declares a root whose intension is exactly the
listed differences.  Differences are declared implicitly: axis members carry
the axis back-reference, any other differentia reference creates a
free-standing difference during validation.

Parsing is total: it never raises on bad input, always returning a
ParseResult whose model is present iff no error diagnostics were produced.
A syntax error is reported where it is found and abandons its statement by
raising a private exception; `_Parser.run`, the one recovery point, catches
it and resumes at the next statement boundary (panic mode).
The parser checks syntax and that declaration ids are unique (an object's
values too, as they are keyed by attribute), and nothing else: it keeps
every name as read, repeated axis members, differentiae and term triples
included.  otl.reasoner resolves the cross-references, left symbolic here,
and checks every other rule, the same for DSL, JSON and API input.

Cost.  Each statement is read by one of two readers.  The regex reader takes
a well-formed concept, object, term or part statement on one line, the
kinds that make up nearly all of a large model, with one match of
_declaration(), separators included, and `read` builds its entity from the
match groups: a few C-level regex operations per statement.  The match
captures an object's last three (attribute, literal) pairs, one findall
the rest, and each literal is made once per distinct spelling in a parse
(`_Parser.literal`).  Name slots take no keyword; attribute slots take any
identifier, and an object with a keyword or a repeated attribute there,
each found with one set operation, is read again by the token reader.  The
token reader, seated at the statement, reads every other one: axis,
attribute, relation and class statements and whatever the regex rejects, so
it is the only reader of malformed input and the only place a syntax error
is worded.  Its lexing is one scan of a master regex with a named group per
token class (the "Writing a Tokenizer" recipe of the ``re`` docs), whose
match is all a token costs: `_Parser.advance` keeps it as the one token of
lookahead of a recursive descent, O(tokens).  Both readers store entities with
`declare` or, for parts, relations and terms, `link`, so spans and duplicate
checks have one home.  Positions are resolved only when a diagnostic needs one:
SourceText collects the newline offsets on first use and maps an offset to its
line and column with one bisect.  Class-expression nesting is bounded by
MAX_EXPR_DEPTH and chains of ``not`` are counted iteratively.
"""

from __future__ import annotations

import re
from decimal import Decimal
from functools import cache
from typing import NoReturn, Optional

from .classes import And, AttrEquals, ClassExpression, HasAttr, InConcept, Not, Or
from .model import (
    IDENTIFIER,
    KEYWORDS,
    MAX_EXPR_DEPTH,
    NUMBER_LITERAL,
    RELATION_KIND_ALIASES,
    STATEMENT_KEYWORDS,
    AssociativeLink,
    Axis,
    AttributeDecl,
    ClassDef,
    Concept,
    Diagnostic,
    Model,
    ObjectInstance,
    OtlError,
    PartLink,
    Record,
    RelationKind,
    Severity,
    SourceText,
    Term,
    TermStatus,
    Value,
    ValueKind,
    collector_paused,
    parse_relation_kind,
    sorted_diagnostics,
)

# Each vocabulary slot's words, from the model's enums: a relation kind's
# value is followed by the aliases that name that kind.
_RELTYPE_WORDS = tuple(word for kind in RelationKind
                       for word, named in ((kind.value, kind), *RELATION_KIND_ALIASES.items()) if named is kind)
_VALUE_KINDS = tuple(kind.value for kind in ValueKind)
_STATUSES = {status.value: status for status in TermStatus}
_STATUS_WORDS = tuple(_STATUSES)


class ParseResult(Record):
    """Outcome of a parse; `model` is present iff there were no errors."""

    __slots__ = ("model", "diagnostics")


class ParseError(OtlError):
    """Raised by parse_class_expr on malformed input."""

    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.render())


class _Abandon(Exception):
    """Abandons the statement being read once its syntax error is reported;
    `_Parser.run` and `parse_class_expr` catch it."""


_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

# Each match is the blanks and comment before one token, then the token: one
# named group per token kind, and the group's name is the kind.  The groups
# are tried in order, the most frequent first (only ':=' must come before
# ':'); WORD (a keyword or an identifier) is group 1, so `match[1]` is a
# word's text.  OTHER takes any character but a newline, so the scan never
# stalls, and END ends it.  Identifiers and numbers are ASCII-only; NUMBER
# takes a whole digit run, leading zeros included, and NUMBER_LITERAL then
# decides whether it is a number.  A string runs to its closing quote, a
# newline or the end of input; a backslash escapes the next character,
# newline included.
_TOKEN = re.compile(
    r"[ \t\r]*(?:#[^\n]*)?"
    r"(?:(?P<WORD>" + IDENTIFIER.pattern + ")"
    r"|(?P<EQUALS>=)|(?P<NEWLINE>\n)|(?P<COMMA>,)"
    r'|(?P<STRING>"(?P<body>[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*)(?P<close>"?))'
    r"|(?P<LBRACE>\{)|(?P<RBRACE>\})|(?P<ASSIGN>:=)|(?P<COLON>:)"
    r"|(?P<NUMBER>-?[0-9]+(?:\.[0-9]+)?)"
    r"|(?P<PLUS>\+)|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<ARROW>->)|(?P<PIPE>\|)|(?P<SEMI>;)"
    r"|(?P<OTHER>.)"
    r"|(?P<END>\Z))"
)
_ESCAPE = re.compile(r"\\([\s\S]?)")
# kinds the token step passes on as they are
_PLAIN = frozenset({"WORD", "ASSIGN", "ARROW", "COLON", "COMMA", "EQUALS", "PLUS", "PIPE"})

# The regex reader's statement: one well-formed concept, object, term or
# part statement on one line, with the separators before it and the one
# that ends it.  It takes only what the token reader takes without a
# lexical error: words by maximal munch (a blank between two words, so no
# word splits), closed strings without a backslash, NUMBER_LITERAL numbers,
# blanks and a final comment.  Each token takes the blanks after it, so no
# two blank runs are adjacent and a line that fails at its end backtracks
# over it once.  A name slot takes an identifier that is not a keyword, so a
# statement with a keyword there is left to the token reader (an attribute
# slot takes any, and `read` hands it on).  An object's pairs before its last
# three repeat lazily before any value group is set, so the engine's stack
# keeps few marks a pair.  A match costs more the higher the numbers of the
# groups it sets, so the concept and object branches, the most frequent,
# come first, and the part's three groups before the term's six.  The
# statement's group closes last, so `lastgroup` names its kind.
_B = r"[ \t\r]*"
_W = rf"(?!(?:{'|'.join(sorted(KEYWORDS))})(?![A-Za-z0-9_])){IDENTIFIER.pattern}"
_VALUE = rf'(?:"[^"\\\n]*"|{NUMBER_LITERAL.pattern}|true|false)'
_A = IDENTIFIER.pattern


@cache
def _declaration() -> re.Pattern:
    """The statement regex, compiled on the first parse: a program that
    imports otl and never parses need not pay the few milliseconds."""
    return re.compile(
        rf"{_B}(?:(?:#[^\n]*\n|[\n;]){_B})*"
        rf"(?:(?P<concept>concept[ \t\r]+(?P<name>{_W}){_B}"
        rf"(?::={_B}(?:(?P<genus>{_W}){_B}\+{_B})?(?P<differentiae>(?:{_W}{_B},{_B})*{_W}){_B})?)"
        rf"|(?P<object>object[ \t\r]+(?P<object_id>{_W}){_B}:{_B}(?P<object_concept>{_W}){_B}"
        rf"(?:\{{{_B}(?P<rest>(?:{_A}{_B}={_B}{_VALUE}{_B},{_B})*?)(?P<a1>{_A}){_B}={_B}(?P<v1>{_VALUE}){_B}(?:,{_B}"
        rf"(?P<a2>{_A}){_B}={_B}(?P<v2>{_VALUE}){_B}(?:,{_B}(?P<a3>{_A}){_B}={_B}(?P<v3>{_VALUE}){_B})?)?\}}{_B})?)"
        rf"|(?P<part>part[ \t\r]+(?P<whole>{_W})[ \t\r]+has[ \t\r]+(?P<piece>{_W}){_B})"
        rf'|(?P<term>term{_B}"(?P<designation>[^"\\\n]*)"{_B}\({_B}(?P<language>{_W}){_B},{_B}'
        rf"(?P<status>{'|'.join(_STATUS_WORDS)}){_B}\){_B}for[ \t\r]+(?P<term_concept>{_W})"
        rf'(?:[ \t\r]+definition{_B}"(?P<definition>[^"\\\n]*)")?{_B}))'
        r"(?:#[^\n]*)?(?:\n|;|\Z)"
    )


@cache
def _assignment() -> re.Pattern:
    """One attribute, before the last three, of a block _declaration() took, and its raw value."""
    return re.compile(rf'({IDENTIFIER.pattern}){_B}={_B}("[^"\\\n]*"|[-.0-9]+|true|false)')


def _token(match: re.Match, value: str = "") -> tuple[str, int, int]:
    """Text, offset and length of the token `match` holds.  A SEP's text is
    its ';' or newline and EOF's is empty; an unterminated string stands for
    its decoded `value`."""
    kind = match.lastgroup
    text = match[kind]
    if kind == "STRING" and not match["close"]:
        return value, match.start(kind), max(1, len(value))
    return text, match.start(kind), len(text)


class _Parser:
    def __init__(self, source: SourceText):
        self.source = source
        self.diagnostics: list[Diagnostic] = []
        # model.spans also tracks duplicates: (kind, id) -> first declaration
        self.model = Model(source=source)
        # the one token of lookahead: its match, its kind and, for a STRING,
        # its decoded value; `seat` starts the scan
        self.m: re.Match
        self.kind = ""
        self.value = ""
        self.literals: dict[str, Value] = {"true": True, "false": False}  # see `literal`

    # -- the token step ------------------------------------------------------

    def seat(self, offset: int) -> None:
        """Start the token scan at `offset`, outside any bracket."""
        self.scan = _TOKEN.finditer(self.source.text, offset).__next__
        self.depth = 0  # open brackets; a newline inside them ends nothing
        self.advance()

    def advance(self) -> None:
        """Step to the next token.  Kinds are the group names of _TOKEN, but
        a ';' or a newline outside brackets is SEP and the end is EOF, which
        is never stepped past; other newlines and OTHER are skipped."""
        while True:
            m = self.scan()
            kind = m.lastgroup
            if kind in _PLAIN:
                break
            if kind == "NEWLINE":
                if self.depth:
                    continue
                kind = "SEP"
            elif kind == "STRING":
                self.value = self.string(m)
            elif kind == "NUMBER":
                number = m[kind]
                if NUMBER_LITERAL.fullmatch(number) is None:
                    message = f"number {number!r} has a leading zero"
                    self.error(message, m.start(kind), len(number), "E_LEX")
            elif kind == "LBRACE" or kind == "LPAREN":
                self.depth += 1
            elif kind == "RBRACE" or kind == "RPAREN":
                self.depth = max(0, self.depth - 1)
            elif kind == "SEMI":
                kind = "SEP"
                self.depth = 0  # it ends the statement, open brackets and all
            elif kind == "OTHER":
                self.error(f"unexpected character {m[kind]!r}", m.start(kind), 1, "E_LEX")
                continue
            else:
                kind = "EOF"
            break
        self.m = m
        self.kind = kind

    def string(self, m: re.Match) -> str:
        """The decoded value of a STRING match; report its lexical errors."""
        start = m.start("STRING")
        body = m["body"]
        length = len(m["STRING"])
        if "\\" in body:
            chars: list[str] = []
            last = 0
            for esc in _ESCAPE.finditer(body):
                chars.append(body[last : esc.start()])
                last = esc.end()
                decoded = _ESCAPES.get(esc[1])
                if decoded is not None:
                    chars.append(decoded)
                    continue
                self.error(f"unknown escape '\\{esc[1]}'", start + 1 + esc.start(), 2, "E_LEX")
                if not esc[1]:
                    length += 1  # a final backslash still counts two
            chars.append(body[last:])
            body = "".join(chars)
        if not m["close"]:
            self.error("unterminated string literal", start, length, "E_LEX")
        return body

    # -- reading tokens --------------------------------------------------------

    def at_word(self, word: str) -> bool:
        return self.kind == "WORD" and self.m[1] == word

    def describe(self) -> str:
        if self.kind == "EOF":
            return "end of input"
        if self.kind == "SEP":
            return "';'" if self.m.lastgroup == "SEMI" else "end of line"
        return repr(_token(self.m, self.value)[0])

    def error(self, message: str, offset: int, length: int, code: str = "E_SYN") -> None:
        self.diagnostics.append(
            Diagnostic(Severity.ERROR, code, message, self.source.span(offset, length))
        )

    def abandon(self, message: str) -> NoReturn:
        """Report a syntax error at the lookahead and abandon the statement."""
        self.error(message, *_token(self.m, self.value)[1:])
        raise _Abandon

    def fail(self, expected: str) -> NoReturn:
        """Report that the lookahead is not the `expected` token."""
        self.abandon(f"expected {expected}, found {self.describe()}")

    def expect(self, kind: str, expected: str) -> None:
        if self.kind != kind:
            self.fail(expected)
        self.advance()

    def expect_word(self, word: str) -> None:
        if not self.at_word(word):
            self.fail(f"'{word}'")
        self.advance()

    def ident(self, expected: str) -> str:
        """Take an identifier and return its text, or report `expected`."""
        word = self.m[1] if self.kind == "WORD" else None
        if word is None or word in KEYWORDS:
            self.fail(expected)
        self.advance()
        return word

    def one_of(self, words: tuple[str, ...]) -> str:
        """Take an identifier among `words` and return it, or report them."""
        word = self.m[1] if self.kind == "WORD" else None
        if word not in words:
            self.fail(f"one of {', '.join(words)}")
        self.advance()
        return word

    # -- building entities: both readers end here ----------------------------

    def declare(self, store: dict, kind: str, entity: Record, at: int) -> None:
        """Store `entity` under its id, written at offset `at`, or report it
        as a duplicate of the first declaration of that id."""
        name, spans = entity.id, self.model.spans
        if (kind, name) in spans:
            prior = self.model.span_for(kind, name)
            self.error(f"{kind} '{name}' already declared at {prior.line}:{prior.column}", at, len(name), "E_DUP_DECL")
        else:
            spans[(kind, name)] = (at, len(name))
            store[name] = entity

    def link(self, links: list, kind: str, entity: Record, at: tuple[int, int]) -> None:
        """Append a part, relation or term, its span `at` keyed by its index."""
        self.model.spans[(kind, str(len(links)))] = at
        links.append(entity)

    # -- the regex reader ------------------------------------------------------

    def read(self, m: re.Match) -> None:
        """Build the statement a _declaration() match holds."""
        kind = m.lastgroup
        if kind == "concept":
            listed = m["differentiae"]
            differentiae = IDENTIFIER.findall(listed) if listed else []
            name = m["name"]
            self.declare(self.model.concepts, "concept", Concept(name, name, m["genus"], tuple(differentiae)),
                         m.start("name"))
        elif kind == "object":
            a1, v1, a2, v2, a3, v3, rest = m.group("a1", "v1", "a2", "v2", "a3", "v3", "rest")
            pairs = ((*_assignment().findall(rest), (a1, v1), (a2, v2), (a3, v3)) if a3 else ((a1, v1), (a2, v2))
                     if a2 else ((a1, v1),) if a1 else ())
            literals, values = self.literals, {}
            for attr, raw in pairs:
                value = literals.get(raw)  # `literal` inlined for a spelling read before
                values[attr] = self.literal(raw) if value is None else value
            if len(values) < len(pairs) or not KEYWORDS.isdisjoint(values):  # the token reader reads it again
                self.seat(m.start("object"))
                return self.statement()
            name = m["object_id"]
            self.declare(self.model.objects, "object", ObjectInstance(name, name, m["object_concept"], values),
                         m.start("object_id"))
        elif kind == "term":
            designation = m["designation"]
            term = Term(designation, m["language"], _STATUSES[m["status"]], m["term_concept"], m["definition"])
            self.link(self.model.terms, "term", term, (m.start("designation") - 1, len(designation) + 2))
        else:
            self.link(self.model.parts, "part", PartLink(m["whole"], m["piece"]), (m.start("part"), len("part")))

    # -- statements --------------------------------------------------------

    def run(self) -> None:
        """Read statements to the end: each with one _declaration() match,
        separators included, where the regex reader takes it, else with the
        token reader, seated at the statement and run to the separator that
        ends it, after which no bracket is open."""
        text = self.source.text
        declaration = _declaration().match
        offset = 0
        while True:
            while m := declaration(text, offset):
                self.read(m)
                offset = m.end()
            self.seat(offset)
            while self.kind == "SEP":
                self.advance()
            if self.kind == "EOF":
                return
            self.statement()
            if self.kind == "EOF":
                return
            offset = self.m.end()

    def statement(self) -> None:
        """Read one statement with the token reader.  A syntax error abandons
        it here, the one recovery point: the brackets it left open are
        closed, so its newline ends it, and the input is skipped to that end."""
        statement = _STATEMENTS.get(self.m[1]) if self.kind == "WORD" else None
        try:
            if statement is None:
                self.fail(f"one of {', '.join(STATEMENT_KEYWORDS)}")
            statement(self)
            if self.kind != "SEP" and self.kind != "EOF":
                self.fail("end of statement")
        except _Abandon:
            self.depth = 0
            while self.kind != "SEP" and self.kind != "EOF":
                self.advance()

    def _ident_list(self, expected: str, first: str = "") -> list[str]:
        """Identifiers separated by commas; `first` says what the first one
        is, when it is more than `expected`."""
        items = [self.ident(first or expected)]
        while self.kind == "COMMA":
            self.advance()
            items.append(self.ident(expected))
        return items

    def _stmt_concept(self) -> None:
        self.advance()  # 'concept'
        at = self.m.start(1)
        name = self.ident("concept identifier")
        genus: Optional[str] = None
        differentiae: list[str] = []
        if self.kind == "ASSIGN":
            self.advance()
            differentiae = self._ident_list("difference identifier", "genus or difference identifier")
            if len(differentiae) == 1 and self.kind == "PLUS":
                self.advance()
                genus = differentiae[0]
                differentiae = self._ident_list("difference identifier")
        self.declare(self.model.concepts, "concept", Concept(name, name, genus, tuple(differentiae)), at)

    def _stmt_axis(self) -> None:
        self.advance()  # 'axis'
        at = self.m.start(1)
        name = self.ident("axis identifier")
        self.expect_word("of")
        scope = self.ident("concept identifier")
        exclusive = not self.at_word("nonexclusive")
        if not exclusive:
            self.advance()
        self.expect("LBRACE", "'{'")
        members = self._ident_list("difference identifier")
        self.expect("RBRACE", "'}'")
        self.declare(self.model.axes, "axis", Axis(name, name, scope, tuple(members), exclusive), at)

    def _stmt_attribute(self) -> None:
        self.advance()  # 'attribute'
        at = self.m.start(1)
        name = self.ident("attribute identifier")
        self.expect("COLON", "':'")
        value_kind = self.one_of(_VALUE_KINDS)
        self.expect_word("on")
        domain = self.ident("concept identifier")
        self.declare(self.model.attributes, "attribute", AttributeDecl(name, name, domain, ValueKind(value_kind)), at)

    def literal(self, raw: str) -> Value:
        """The value a literal spells, made once a parse per spelling: values
        spelt alike are one object, spelt apart never (``1``, ``1.0``, ``"1"``)."""
        value = self.literals.get(raw)
        if value is None:
            value = self.literals[raw] = raw[1:-1] if raw[0] == '"' else Decimal(raw)
        return value

    def _value(self) -> Value:
        kind = self.kind
        if kind == "STRING":
            value: Value = self.value
        elif kind == "NUMBER" or kind == "WORD" and self.m[1] in ("true", "false"):
            value = self.literal(self.m[kind])
        else:
            self.fail("string, number, true or false")
        self.advance()
        return value

    def _stmt_object(self) -> None:
        self.advance()  # 'object'
        at, name, concept, assigned = self.object_body()
        values: dict[str, Value] = {}
        for attr, attr_at, value in assigned:  # each attribute's first value; a repeat is reported where it is
            if attr in values:
                self.error(f"duplicate value for attribute '{attr}'", attr_at, len(attr), "E_DUP_DECL")
            values.setdefault(attr, value)
        self.declare(self.model.objects, "object", ObjectInstance(name, name, concept, values), at)

    def object_body(self) -> tuple[int, str, str, list[tuple[str, int, Value]]]:
        """An object statement from its name on: name offset, name, concept, (attribute, offset, value)s."""
        at = self.m.start(1)
        name = self.ident("object identifier")
        self.expect("COLON", "':'")
        concept = self.ident("concept identifier")
        values: list[tuple[str, int, Value]] = []
        if self.kind == "LBRACE":
            self.advance()
            while True:
                attr_at = self.m.start(1)
                attr = self.ident("attribute identifier")
                self.expect("EQUALS", "'='")
                values.append((attr, attr_at, self._value()))
                if self.kind != "COMMA":
                    break
                self.advance()
            self.expect("RBRACE", "'}'")
        return at, name, concept, values

    def _stmt_part(self) -> None:
        at = self.m.start(1)
        self.advance()  # 'part'
        whole = self.ident("concept identifier")
        self.expect_word("has")
        self.link(self.model.parts, "part", PartLink(whole, self.ident("concept identifier")), (at, len("part")))

    def _stmt_relation(self) -> None:
        at = self.m
        self.advance()  # 'relation'
        # Links are anonymous in the model; the name is required by the
        # syntax but only aids readability of the source.
        self.ident("relation identifier")
        self.expect("LPAREN", "'('")
        rel = self.one_of(_RELTYPE_WORDS)
        self.expect("RPAREN", "')'")
        source = self.ident("concept identifier")
        self.expect("ARROW", "'->'")
        target = self.ident("concept identifier")
        self.link(self.model.relations, "relation", AssociativeLink(parse_relation_kind(rel), source, target),
                  _token(at)[1:])

    def _stmt_term(self) -> None:
        self.advance()  # 'term'
        at, designation = self.m, self.value
        self.expect("STRING", "term designation string")
        self.expect("LPAREN", "'('")
        lang = self.ident("language tag")
        self.expect("COMMA", "','")
        status = self.one_of(_STATUS_WORDS)
        self.expect("RPAREN", "')'")
        self.expect_word("for")
        concept = self.ident("concept identifier")
        nl_definition: Optional[str] = None
        if self.at_word("definition"):
            self.advance()
            nl_definition = self.value
            self.expect("STRING", "definition string")
        term = Term(designation, lang, _STATUSES[status], concept, nl_definition)
        self.link(self.model.terms, "term", term, _token(at, designation)[1:])

    def _stmt_class(self) -> None:
        self.advance()  # 'class'
        at = self.m.start(1)
        name = self.ident("class identifier")
        self.expect("ASSIGN", "':='")
        self.expect("LBRACE", "'{'")
        self.expect_word("x")
        self.expect("PIPE", "'|'")
        expr = self._class_expr(0)
        self.expect("RBRACE", "'}'")
        self.declare(self.model.classes, "class", ClassDef(name, expr), at)

    # -- class expressions ---------------------------------------------------

    def _class_expr(self, depth: int) -> ClassExpression:
        if depth > MAX_EXPR_DEPTH:
            self.abandon("class expression too deeply nested")
        children = [self._and_expr(depth)]
        while self.at_word("or"):
            self.advance()
            children.append(self._and_expr(depth))
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _and_expr(self, depth: int) -> ClassExpression:
        children = [self._unary(depth)]
        while self.at_word("and"):
            self.advance()
            children.append(self._unary(depth))
        return children[0] if len(children) == 1 else And(tuple(children))

    def _unary(self, depth: int) -> ClassExpression:
        # leading 'not's are counted iteratively so pathological chains can't
        # exhaust the interpreter stack
        negations = 0
        while self.at_word("not"):
            self.advance()
            negations += 1
        if self.kind == "LPAREN":
            self.advance()
            expr = self._class_expr(depth + 1)
            self.expect("RPAREN", "')'")
        else:
            expr = self._atom()
        for _ in range(negations):
            expr = Not(expr)
        return expr

    def _atom(self) -> ClassExpression:
        word = self.m[1] if self.kind == "WORD" else None
        if word == "in" or word == "has":
            self.advance()
            name = self.ident("concept identifier" if word == "in" else "attribute identifier")
            return InConcept(name) if word == "in" else HasAttr(name)
        if word is None or word in KEYWORDS:
            self.fail("'in', 'has', attribute comparison, 'not' or '('")
        self.advance()
        self.expect("EQUALS", "'='")
        return AttrEquals(word, self._value())


_STATEMENTS = {word: getattr(_Parser, f"_stmt_{word}") for word in STATEMENT_KEYWORDS}


@collector_paused
def parse(source: str, file_name: str = "<input>") -> ParseResult:
    """Parse DSL source into an unvalidated model.

    Never raises; lexical and syntactic problems are reported as diagnostics
    and the parser resynchronizes at the next statement boundary.
    """
    parser = _Parser(SourceText(file_name, source))
    parser.run()
    diagnostics = sorted_diagnostics(parser.diagnostics)
    # every diagnostic of the parser is an error
    return ParseResult(None if diagnostics else parser.model, diagnostics)


def parse_class_expr(source: str, file_name: str = "<expr>") -> ClassExpression:
    """Parse a standalone class expression, raising ParseError on bad input.

    A lexical error anywhere in the input is reported before a syntax error.
    """
    parser = _Parser(SourceText(file_name, source))
    parser.seat(0)
    try:
        expr = parser._class_expr(0)
        while parser.kind == "SEP":
            parser.advance()
        if parser.kind != "EOF":
            parser.abandon(f"unexpected trailing input {parser.describe()}")
    except _Abandon:
        while parser.kind != "EOF":
            parser.advance()
    errors = parser.diagnostics
    if errors:
        raise ParseError(next((d for d in errors if d.code == "E_LEX"), errors[0]))
    return expr
