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
Cross-references are left symbolic; resolution happens in otl.reasoner.

Cost.  The lexer is one scan of a compiled master regex with a named group
per token class (the "Writing a Tokenizer" recipe of the ``re`` docs), so
lexing is O(input length).  A token is a plain tuple holding its offset and
length, not its line and column, and the parser records each declaration as
an offset too.  Positions are resolved only when a diagnostic needs one:
SourceText collects the newline offsets on first use and maps an offset to
its line and column with one bisect.  The parser is recursive descent with
one token of lookahead that pulls tokens from the lexer as it goes, O(tokens)
with no token list held.  Class-expression nesting is bounded by
MAX_EXPR_DEPTH and chains of ``not`` are counted iteratively.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterator, Optional

from .classes import And, AttrEquals, ClassExpression, HasAttr, InConcept, Not, Or
from .model import (
    NUMBER_LITERAL,
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
    Severity,
    SourceSpan,
    SourceText,
    Term,
    TermStatus,
    Value,
    ValueKind,
    parse_relation_kind,
)

KEYWORDS = frozenset(
    {
        "concept",
        "axis",
        "attribute",
        "object",
        "part",
        "relation",
        "term",
        "class",
        "of",
        "on",
        "has",
        "for",
        "definition",
        "nonexclusive",
        "in",
        "and",
        "or",
        "not",
        "true",
        "false",
    }
)

STATEMENT_KEYWORDS = (
    "concept",
    "axis",
    "attribute",
    "object",
    "part",
    "relation",
    "term",
    "class",
)

_RELTYPE_WORDS = (
    "associative",
    "sequential",
    "temporal",
    "causal",
    "cause_effect",
    "producer_product",
)

_STATUS_WORDS = tuple(s.value for s in TermStatus)

# Nesting bound for class expressions; keeps parsing and evaluation clear of
# the interpreter recursion limit while staying far beyond sane inputs.
MAX_EXPR_DEPTH = 200


# A token is a plain tuple (kind, text, offset, length, value), read through
# the index names below.  kind is IDENT, KEYWORD, STRING, NUMBER, a
# punctuation kind, SEP or EOF; offset and length place it in the source,
# and SourceText.span turns them into a line and column only when a
# diagnostic needs one; value is the decoded payload of a STRING or NUMBER.
Token = tuple[str, str, int, int, Optional[Value]]
KIND, TEXT, OFFSET, LENGTH, VALUE = range(5)


@dataclass
class ParseResult:
    """Outcome of a parse; `model` is present iff there were no errors."""

    model: Optional[Model]
    diagnostics: list[Diagnostic]


class ParseError(OtlError):
    """Raised by parse_class_expr on malformed input."""

    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.render())


_PUNCT = {
    ":=": "ASSIGN",
    "->": "ARROW",
    ":": "COLON",
    ",": "COMMA",
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    "=": "EQUALS",
    "+": "PLUS",
    "|": "PIPE",
}

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

# Each match is the blanks and comment before one token, then the token: one
# alternative per token class, tried in order.  OTHER takes any character but
# a newline, so the scan never stalls, and END ends it.  Identifiers and
# numbers are ASCII-only; NUMBER takes a whole digit run, leading zeros
# included, and NUMBER_LITERAL then decides whether it is a number.  A
# string runs to its closing quote, a newline or the end of input; a
# backslash escapes the next character, newline included.
_TOKEN = re.compile(
    r"[ \t\r]*(?:#[^\n]*)?"
    r"(?:(?P<WORD>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<PUNCT>:=|->|[:,{}()=+|;])"
    r"|(?P<NEWLINE>\n)"
    r"|(?P<NUMBER>-?[0-9]+(?:\.[0-9]+)?)"
    r'|(?P<STRING>"(?P<body>[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*)(?P<close>"?))'
    r"|(?P<OTHER>.)"
    r"|(?P<END>\Z))"
)
_ESCAPE = re.compile(r"\\([\s\S]?)")


def _describe(tok: Token) -> str:
    if tok[KIND] == "EOF":
        return "end of input"
    if tok[KIND] == "SEP":
        return "';'" if tok[TEXT] == ";" else "end of line"
    return repr(tok[TEXT])


def _lex(source: SourceText, diagnostics: list[Diagnostic]) -> Iterator[Token]:
    """Yield the tokens of source, from one pass of the master regex, and
    append lexical errors to `diagnostics` on the way.

    Tokens carry offsets only.  Newlines inside brackets do not end
    statements, so they produce no SEP token.  The last token is EOF.
    """
    text = source.text

    def error(message: str, offset: int, length: int) -> None:
        diagnostics.append(
            Diagnostic(Severity.ERROR, "E_LEX", message, source.span(offset, length))
        )

    depth = 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        lexeme = match.group(kind)
        start = match.end() - len(lexeme)
        if kind == "WORD":
            yield ("KEYWORD" if lexeme in KEYWORDS else "IDENT", lexeme, start, len(lexeme), None)
        elif kind == "PUNCT":
            if lexeme == ";":
                yield ("SEP", lexeme, start, 1, None)
                continue
            if lexeme in "({":
                depth += 1
            elif lexeme in ")}":
                depth = max(0, depth - 1)
            yield (_PUNCT[lexeme], lexeme, start, len(lexeme), None)
        elif kind == "NEWLINE":
            if depth == 0:
                yield ("SEP", lexeme, start, 1, None)
        elif kind == "NUMBER":
            if NUMBER_LITERAL.fullmatch(lexeme) is None:
                error(f"number {lexeme!r} has a leading zero", start, len(lexeme))
            yield ("NUMBER", lexeme, start, len(lexeme), Decimal(lexeme))
        elif kind == "STRING":
            body = match.group("body")
            raw_length = len(lexeme)
            value = body
            if "\\" in body:
                chars: list[str] = []
                last = 0
                for esc in _ESCAPE.finditer(body):
                    chars.append(body[last : esc.start()])
                    last = esc.end()
                    decoded = _ESCAPES.get(esc.group(1))
                    if decoded is not None:
                        chars.append(decoded)
                        continue
                    error(f"unknown escape '\\{esc.group(1)}'", start + 1 + esc.start(), 2)
                    if not esc.group(1):
                        raw_length += 1  # a final backslash still counts two
                chars.append(body[last:])
                value = "".join(chars)
            if match.group("close"):
                yield ("STRING", lexeme, start, raw_length, value)
            else:
                error("unterminated string literal", start, raw_length)
                # still emit what was seen so the parser can continue
                yield ("STRING", value, start, max(1, len(value)), value)
        elif kind == "OTHER":
            error(f"unexpected character {lexeme!r}", start, 1)
    yield ("EOF", "", len(text), 0, None)


class _Parser:
    def __init__(self, tokens: Iterator[Token], source: SourceText):
        self.source = source
        self.tokens = tokens
        self.tok = next(tokens)  # the one token of lookahead
        self.diagnostics: list[Diagnostic] = []
        # model.spans also tracks duplicates: (kind, id) -> first declaration
        self.model = Model(source=source)
        # difference id -> owning axis id (a difference belongs to one axis)
        self.diff_owner: dict[str, str] = {}
        self.term_triples: set[tuple[str, str, str]] = set()

    # -- token plumbing ----------------------------------------------------

    # the tokens end with EOF and `next` never moves past it
    def peek(self) -> Token:
        return self.tok

    def next(self) -> Token:
        tok = self.tok
        if tok[KIND] != "EOF":
            self.tok = next(self.tokens)
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.tok
        return tok[KIND] == kind and (text is None or tok[TEXT] == text)

    def span(self, tok: Token) -> SourceSpan:
        return self.source.span(tok[OFFSET], tok[LENGTH])

    def error(self, message: str, tok: Token, code: str = "E_SYN") -> None:
        self.diagnostics.append(Diagnostic(Severity.ERROR, code, message, self.span(tok)))

    def expect(self, kind: str, expected: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.tok
        if tok[KIND] == kind and (text is None or tok[TEXT] == text):
            return self.next()
        self.error(f"expected {expected}, found {_describe(tok)}", tok)
        return None

    def expect_ident(self, expected: str) -> Optional[Token]:
        return self.expect("IDENT", expected)

    def recover(self) -> None:
        """Skip to the next statement boundary after a syntax error."""
        if self.peek()[KIND] not in ("SEP", "EOF"):
            self.next()
        while self.peek()[KIND] not in ("SEP", "EOF"):
            self.next()

    def end_statement(self) -> None:
        tok = self.peek()
        if tok[KIND] in ("SEP", "EOF"):
            return
        self.error(f"expected end of statement, found {_describe(tok)}", tok)
        self.recover()

    def declare(self, kind: str, name: str, tok: Token) -> bool:
        """Record a declaration; returns False (and diagnoses) on duplicates."""
        if (kind, name) in self.model.spans:
            prior = self.model.span_for(kind, name)
            self.error(
                f"{kind} '{name}' already declared at {prior.line}:{prior.column}",
                tok,
                code="E_DUP_DECL",
            )
            return False
        self.note_span(kind, name, tok)
        return True

    def note_span(self, kind: str, entity_id: str, tok: Token) -> None:
        self.model.spans[(kind, entity_id)] = (tok[OFFSET], tok[LENGTH])

    # -- statements --------------------------------------------------------

    def run(self) -> ParseResult:
        while True:
            while self.at("SEP"):
                self.next()
            if self.at("EOF"):
                break
            tok = self.peek()
            if tok[KIND] == "KEYWORD" and tok[TEXT] in STATEMENT_KEYWORDS:
                handler = getattr(self, f"_stmt_{tok[TEXT]}")
                handler()
                self.end_statement()
            else:
                expected = ", ".join(STATEMENT_KEYWORDS)
                self.error(f"expected one of {expected}, found {_describe(tok)}", tok)
                self.recover()
        model = None if any(d.is_error for d in self.diagnostics) else self.model
        return ParseResult(model, self.diagnostics)

    def _ident_list(self, expected: str) -> Optional[list[Token]]:
        first = self.expect_ident(expected)
        if first is None:
            return None
        items = [first]
        while self.at("COMMA"):
            self.next()
            nxt = self.expect_ident(expected)
            if nxt is None:
                return None
            items.append(nxt)
        return items

    def _stmt_concept(self) -> None:
        self.next()  # 'concept'
        name = self.expect_ident("concept identifier")
        if name is None:
            return self.recover()
        genus: Optional[str] = None
        differentiae: list[str] = []
        if self.at("ASSIGN"):
            self.next()
            first = self.expect_ident("genus or difference identifier")
            if first is None:
                return self.recover()
            if self.at("PLUS"):
                self.next()
                genus = first[TEXT]
                diffs = self._ident_list("difference identifier")
                if diffs is None:
                    return self.recover()
            else:
                diffs = [first]
                while self.at("COMMA"):
                    self.next()
                    nxt = self.expect_ident("difference identifier")
                    if nxt is None:
                        return self.recover()
                    diffs.append(nxt)
            for tok in diffs:
                if tok[TEXT] in differentiae:
                    self.error(
                        f"duplicate differentia '{tok[TEXT]}'", tok, code="E_DUP_DECL"
                    )
                else:
                    differentiae.append(tok[TEXT])
        if not self.declare("concept", name[TEXT], name):
            return
        self.model.concepts[name[TEXT]] = Concept(
            name[TEXT], name[TEXT], genus, tuple(differentiae)
        )

    def _stmt_axis(self) -> None:
        self.next()  # 'axis'
        name = self.expect_ident("axis identifier")
        if name is None:
            return self.recover()
        if self.expect("KEYWORD", "'of'", "of") is None:
            return self.recover()
        scope = self.expect_ident("concept identifier")
        if scope is None:
            return self.recover()
        exclusive = True
        if self.at("KEYWORD", "nonexclusive"):
            self.next()
            exclusive = False
        if self.expect("LBRACE", "'{'") is None:
            return self.recover()
        members = self._ident_list("difference identifier")
        if members is None:
            return self.recover()
        if self.expect("RBRACE", "'}'") is None:
            return self.recover()
        if not self.declare("axis", name[TEXT], name):
            return
        member_ids: list[str] = []
        for tok in members:
            if tok[TEXT] in member_ids:
                self.error(f"duplicate member '{tok[TEXT]}'", tok, code="E_DUP_DECL")
                continue
            owner = self.diff_owner.get(tok[TEXT])
            if owner is not None:
                self.error(
                    f"difference '{tok[TEXT]}' already belongs to axis '{owner}'",
                    tok,
                    code="E_DUP_DECL",
                )
                continue
            self.diff_owner[tok[TEXT]] = name[TEXT]
            member_ids.append(tok[TEXT])
        self.model.axes[name[TEXT]] = Axis(
            name[TEXT], name[TEXT], scope[TEXT], tuple(member_ids), exclusive
        )

    def _stmt_attribute(self) -> None:
        self.next()  # 'attribute'
        name = self.expect_ident("attribute identifier")
        if name is None:
            return self.recover()
        if self.expect("COLON", "':'") is None:
            return self.recover()
        kind_tok = self.peek()
        if kind_tok[KIND] == "IDENT" and kind_tok[TEXT] in ("text", "number", "boolean"):
            self.next()
        else:
            self.error(
                f"expected one of text, number, boolean, found {kind_tok[TEXT]!r}",
                kind_tok,
            )
            return self.recover()
        if self.expect("KEYWORD", "'on'", "on") is None:
            return self.recover()
        domain = self.expect_ident("concept identifier")
        if domain is None:
            return self.recover()
        if not self.declare("attribute", name[TEXT], name):
            return
        self.model.attributes[name[TEXT]] = AttributeDecl(
            name[TEXT], name[TEXT], domain[TEXT], ValueKind(kind_tok[TEXT])
        )

    def _value(self) -> Optional[tuple[Value, Token]]:
        tok = self.peek()
        if tok[KIND] in ("STRING", "NUMBER"):
            self.next()
            assert tok[VALUE] is not None
            return tok[VALUE], tok
        if tok[KIND] == "KEYWORD" and tok[TEXT] in ("true", "false"):
            self.next()
            return tok[TEXT] == "true", tok
        self.error(
            f"expected string, number, true or false, found {_describe(tok)}", tok
        )
        return None

    def _stmt_object(self) -> None:
        self.next()  # 'object'
        name = self.expect_ident("object identifier")
        if name is None:
            return self.recover()
        if self.expect("COLON", "':'") is None:
            return self.recover()
        concept = self.expect_ident("concept identifier")
        if concept is None:
            return self.recover()
        values: dict[str, Value] = {}
        value_spans: list[tuple[str, Token]] = []
        if self.at("LBRACE"):
            self.next()
            while True:
                attr = self.expect_ident("attribute identifier")
                if attr is None:
                    return self.recover()
                if self.expect("EQUALS", "'='") is None:
                    return self.recover()
                val = self._value()
                if val is None:
                    return self.recover()
                if attr[TEXT] in values:
                    self.error(
                        f"duplicate value for attribute '{attr[TEXT]}'",
                        attr,
                        code="E_DUP_DECL",
                    )
                else:
                    values[attr[TEXT]] = val[0]
                    value_spans.append((attr[TEXT], attr))
                if self.at("COMMA"):
                    self.next()
                    continue
                break
            if self.expect("RBRACE", "'}'") is None:
                return self.recover()
        if not self.declare("object", name[TEXT], name):
            return
        self.model.objects[name[TEXT]] = ObjectInstance(
            name[TEXT], name[TEXT], concept[TEXT], values
        )
        for attr_id, tok in value_spans:
            self.note_span("value", f"{name[TEXT]}.{attr_id}", tok)

    def _stmt_part(self) -> None:
        kw = self.next()  # 'part'
        whole = self.expect_ident("concept identifier")
        if whole is None:
            return self.recover()
        if self.expect("KEYWORD", "'has'", "has") is None:
            return self.recover()
        part = self.expect_ident("concept identifier")
        if part is None:
            return self.recover()
        index = len(self.model.parts)
        self.model.parts.append(PartLink(whole[TEXT], part[TEXT]))
        self.note_span("part", str(index), kw)

    def _stmt_relation(self) -> None:
        kw = self.next()  # 'relation'
        # Links are anonymous in the model; the name is required by the
        # syntax but only aids readability of the source.
        if self.expect_ident("relation identifier") is None:
            return self.recover()
        if self.expect("LPAREN", "'('") is None:
            return self.recover()
        rel = self.peek()
        if rel[KIND] == "IDENT" and rel[TEXT] in _RELTYPE_WORDS:
            self.next()
        else:
            expected = ", ".join(_RELTYPE_WORDS)
            self.error(f"expected one of {expected}, found {rel[TEXT]!r}", rel)
            return self.recover()
        if self.expect("RPAREN", "')'") is None:
            return self.recover()
        source = self.expect_ident("concept identifier")
        if source is None:
            return self.recover()
        if self.expect("ARROW", "'->'") is None:
            return self.recover()
        target = self.expect_ident("concept identifier")
        if target is None:
            return self.recover()
        index = len(self.model.relations)
        self.model.relations.append(
            AssociativeLink(parse_relation_kind(rel[TEXT]), source[TEXT], target[TEXT])
        )
        self.note_span("relation", str(index), kw)

    def _stmt_term(self) -> None:
        self.next()  # 'term'
        designation = self.expect("STRING", "term designation string")
        if designation is None:
            return self.recover()
        if self.expect("LPAREN", "'('") is None:
            return self.recover()
        lang = self.expect_ident("language tag")
        if lang is None:
            return self.recover()
        if self.expect("COMMA", "','") is None:
            return self.recover()
        status_tok = self.peek()
        if status_tok[KIND] == "IDENT" and status_tok[TEXT] in _STATUS_WORDS:
            self.next()
        else:
            expected = ", ".join(_STATUS_WORDS)
            self.error(f"expected one of {expected}, found {status_tok[TEXT]!r}", status_tok)
            return self.recover()
        if self.expect("RPAREN", "')'") is None:
            return self.recover()
        if self.expect("KEYWORD", "'for'", "for") is None:
            return self.recover()
        concept = self.expect_ident("concept identifier")
        if concept is None:
            return self.recover()
        nl_definition: Optional[str] = None
        if self.at("KEYWORD", "definition"):
            self.next()
            text = self.expect("STRING", "definition string")
            if text is None:
                return self.recover()
            nl_definition = str(text[VALUE])
        triple = (str(designation[VALUE]), lang[TEXT], concept[TEXT])
        if triple in self.term_triples:
            self.error(
                f"term {triple[0]!r} ({lang[TEXT]}) for '{concept[TEXT]}' already declared",
                designation,
                code="E_DUP_DECL",
            )
            return
        self.term_triples.add(triple)
        index = len(self.model.terms)
        self.model.terms.append(
            Term(
                str(designation[VALUE]),
                lang[TEXT],
                TermStatus(status_tok[TEXT]),
                concept[TEXT],
                nl_definition,
            )
        )
        self.note_span("term", str(index), designation)

    def _stmt_class(self) -> None:
        self.next()  # 'class'
        name = self.expect_ident("class identifier")
        if name is None:
            return self.recover()
        if self.expect("ASSIGN", "':='") is None:
            return self.recover()
        if self.expect("LBRACE", "'{'") is None:
            return self.recover()
        if self.expect("IDENT", "'x'", "x") is None:
            return self.recover()
        if self.expect("PIPE", "'|'") is None:
            return self.recover()
        expr = self._class_expr(0)
        if expr is None:
            return self.recover()
        if self.expect("RBRACE", "'}'") is None:
            return self.recover()
        if not self.declare("class", name[TEXT], name):
            return
        self.model.classes[name[TEXT]] = ClassDef(name[TEXT], expr)

    # -- class expressions ---------------------------------------------------

    def _class_expr(self, depth: int) -> Optional[ClassExpression]:
        if depth > MAX_EXPR_DEPTH:
            self.error("class expression too deeply nested", self.peek())
            return None
        left = self._and_expr(depth)
        if left is None:
            return None
        children = [left]
        while self.at("KEYWORD", "or"):
            self.next()
            nxt = self._and_expr(depth)
            if nxt is None:
                return None
            children.append(nxt)
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _and_expr(self, depth: int) -> Optional[ClassExpression]:
        left = self._unary(depth)
        if left is None:
            return None
        children = [left]
        while self.at("KEYWORD", "and"):
            self.next()
            nxt = self._unary(depth)
            if nxt is None:
                return None
            children.append(nxt)
        return children[0] if len(children) == 1 else And(tuple(children))

    def _unary(self, depth: int) -> Optional[ClassExpression]:
        # leading 'not's are counted iteratively so pathological chains can't
        # exhaust the interpreter stack
        negations = 0
        while self.at("KEYWORD", "not"):
            self.next()
            negations += 1
        if self.at("LPAREN"):
            self.next()
            inner = self._class_expr(depth + 1)
            if inner is None:
                return None
            if self.expect("RPAREN", "')'") is None:
                return None
            expr = inner
        else:
            atom = self._atom()
            if atom is None:
                return None
            expr = atom
        for _ in range(negations):
            expr = Not(expr)
        return expr

    def _atom(self) -> Optional[ClassExpression]:
        tok = self.peek()
        if tok[KIND] == "KEYWORD" and tok[TEXT] == "in":
            self.next()
            concept = self.expect_ident("concept identifier")
            if concept is None:
                return None
            return InConcept(concept[TEXT])
        if tok[KIND] == "KEYWORD" and tok[TEXT] == "has":
            self.next()
            attr = self.expect_ident("attribute identifier")
            if attr is None:
                return None
            return HasAttr(attr[TEXT])
        if tok[KIND] == "IDENT":
            self.next()
            if self.expect("EQUALS", "'='") is None:
                return None
            val = self._value()
            if val is None:
                return None
            return AttrEquals(tok[TEXT], val[0])
        self.error(
            f"expected 'in', 'has', attribute comparison, 'not' or '(', "
            f"found {_describe(tok)}",
            tok,
        )
        return None


def parse(source: str, file_name: str = "<input>") -> ParseResult:
    """Parse DSL source into an unvalidated model.

    Never raises; lexical and syntactic problems are reported as diagnostics
    and the parser resynchronizes at the next statement boundary.
    """
    text = SourceText(file_name, source)
    lex_diags: list[Diagnostic] = []
    result = _Parser(_lex(text, lex_diags), text).run()
    diagnostics = sorted(
        lex_diags + result.diagnostics,
        key=lambda d: (d.location.line, d.location.column, d.code)
        if isinstance(d.location, SourceSpan)
        else (0, 0, d.code),
    )
    if any(d.is_error for d in diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(result.model, diagnostics)


def parse_class_expr(source: str, file_name: str = "<expr>") -> ClassExpression:
    """Parse a standalone class expression, raising ParseError on bad input."""
    text = SourceText(file_name, source)
    lex_diags: list[Diagnostic] = []
    tokens = list(_lex(text, lex_diags))
    if lex_diags:
        raise ParseError(lex_diags[0])
    parser = _Parser(iter(tokens), text)
    expr = parser._class_expr(0)
    if expr is None or parser.diagnostics:
        diag = parser.diagnostics[0] if parser.diagnostics else Diagnostic(
            Severity.ERROR, "E_SYN", "empty class expression", SourceSpan(file_name, 1, 1)
        )
        raise ParseError(diag)
    while parser.at("SEP"):
        parser.next()
    trailing = parser.peek()
    if trailing[KIND] != "EOF":
        raise ParseError(
            Diagnostic(
                Severity.ERROR,
                "E_SYN",
                f"unexpected trailing input {trailing[TEXT]!r}",
                parser.span(trailing),
            )
        )
    return expr
