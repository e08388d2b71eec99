"""Lexer/parser behavior: fixtures, diagnostics, totality, spans, speed."""

import random
import re
import time
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otl import (
    And,
    AttrEquals,
    HasAttr,
    InConcept,
    Not,
    Or,
    ParseError,
    RelationKind,
    SourceSpan,
    TermStatus,
    parse,
    parse_class_expr,
    print_dsl,
    validate,
)
from otl import parser as parser_module
from otl.model import SourceText, dsl_quote
from otl.parser import STATEMENT_KEYWORDS

from conftest import FIXTURES, GOLDEN, load_fixture
from gen import (
    DSL_VOCABULARY,
    edited_source,
    malformed_sources,
    recovery_golden,
    token_soup,
    valid_random_model,
)


def errors(result):
    return [d for d in result.diagnostics if d.is_error]


def test_empty_source_gives_empty_model():
    result = parse("")
    assert result.diagnostics == []
    assert result.model is not None
    assert not result.model.concepts
    assert not result.model.objects


def test_mouse_fixture_counts():
    result = parse(load_fixture("mouse.otl"), "mouse.otl")
    assert result.diagnostics == []
    model = result.model
    assert len(model.axes) == 1
    assert len(model.concepts) == 3
    assert len(model.attributes) == 1
    assert len(model.objects) == 1
    assert len(model.terms) == 1
    assert model.concepts["OpticalMouse"].genus == "PointingDevice"
    assert model.concepts["OpticalMouse"].differentiae == ("optical",)
    assert model.objects["thisOpticalMouse"].values == {"colour": "blue"}
    assert model.terms[0].status is TermStatus.PREFERRED
    assert model.terms[0].language == "en"


def test_missing_differentia_is_syntax_error_at_semicolon():
    result = parse("concept X := Y + ;", "bad.otl")
    assert result.model is None
    (diag,) = errors(result)
    assert diag.code == "E_SYN"
    assert isinstance(diag.location, SourceSpan)
    assert (diag.location.line, diag.location.column) == (1, 18)
    assert "difference identifier" in diag.message


def test_root_concept_with_differentiae():
    result = parse("concept C1 := a, b")
    concept = result.model.concepts["C1"]
    assert concept.genus is None
    assert concept.differentiae == ("a", "b")


def test_duplicate_declaration_reported():
    result = parse("concept A\nconcept A := x\n")
    assert result.model is None
    (diag,) = errors(result)
    assert diag.code == "E_DUP_DECL"
    assert diag.location.line == 2


def test_parser_recovers_and_reports_multiple_errors():
    source = "concept X := Y + ;\nwhatever\nconcept Z\n"
    result = parse(source)
    assert result.model is None
    codes = [d.code for d in errors(result)]
    assert codes == ["E_SYN", "E_SYN"]
    # recovery still parsed the good line: no diagnostic mentions Z
    assert not any("Z" in d.message for d in result.diagnostics)


def test_unterminated_string_is_lex_error():
    result = parse('term "open (en, preferred) for A')
    assert any(d.code == "E_LEX" for d in result.diagnostics)
    assert result.model is None


def test_unexpected_character_is_lex_error():
    result = parse("concept A\n$\n")
    assert any(d.code == "E_LEX" for d in result.diagnostics)


def test_semicolon_separates_statements():
    result = parse("concept A; concept B := A + x; object o : B")
    assert result.diagnostics == []
    assert list(result.model.concepts) == ["A", "B"]
    assert "o" in result.model.objects


def test_multiline_object_block():
    source = 'concept A\nattribute size : number on A\nobject o : A {\n  size = -2.5\n}\n'
    result = parse(source)
    assert result.diagnostics == []
    assert result.model.objects["o"].values == {"size": Decimal("-2.5")}


def test_comments_ignored():
    result = parse("# heading\nconcept A # trailing\n")
    assert result.diagnostics == []
    assert list(result.model.concepts) == ["A"]


def test_empty_object_block_is_syntax_error():
    result = parse("concept A\nobject o : A { }\n")
    assert result.model is None
    assert any(
        d.code == "E_SYN" and "attribute identifier" in d.message
        for d in result.diagnostics
    )


def test_dangling_concept_assign():
    result = parse("concept X :=")
    (diag,) = errors(result)
    assert diag.code == "E_SYN"
    assert "genus or difference identifier" in diag.message


def test_relation_aliases_normalize():
    source = "concept A\nconcept B := A + x\nrelation r1 (cause_effect) A -> B\n"
    result = parse(source)
    assert result.diagnostics == []
    assert result.model.relations[0].relation_type is RelationKind.CAUSAL


LEXER_EDGE_CASES = {
    "crlf_line_ends": (
        "concept A\r\nconcept B := A + x\r\n$\r\n",
        [("ERROR E_LEX t.otl:3:1 unexpected character '$'", 1)],
    ),
    "tabs_and_comment_before_newline": (
        "concept\tA\n\tconcept B := A + x # note\n\t$# tight\n",
        [("ERROR E_LEX t.otl:3:2 unexpected character '$'", 1)],
    ),
    "newline_inside_braces_is_no_separator": (
        "concept A\nattribute size : number on A\n"
        "object o : A {\n size = 1,\n\n size = 2\n}\n",
        [("ERROR E_DUP_DECL t.otl:6:2 duplicate value for attribute 'size'", 4)],
    ),
    "newline_inside_parens_is_no_separator": (
        'concept A\nterm "t" (\nen,\n preferred\n) for A $\n',
        [("ERROR E_LEX t.otl:5:9 unexpected character '$'", 1)],
    ),
    "minus_without_digit": (
        "concept A\nattribute size : number on A\nobject o : A { size = - 3 }\n",
        [("ERROR E_LEX t.otl:3:23 unexpected character '-'", 1)],
    ),
    "number_with_trailing_dot": (
        "concept A\nattribute size : number on A\nobject o : A { size = 3. }\n",
        [("ERROR E_LEX t.otl:3:24 unexpected character '.'", 1)],
    ),
    # a digit run is one NUMBER token; a leading zero makes it no number
    "number_with_leading_zero": (
        "concept A\nattribute w : number on A\nobject o : A { w = 007 }\n"
        "object p : A { w = -01 }\nobject q : A { w = 00.5 }\n",
        [
            ("ERROR E_LEX t.otl:3:20 number '007' has a leading zero", 3),
            ("ERROR E_LEX t.otl:4:20 number '-01' has a leading zero", 3),
            ("ERROR E_LEX t.otl:5:20 number '00.5' has a leading zero", 4),
        ],
    ),
    "number_with_two_dots": (
        "concept A\nattribute size : number on A\nobject o : A { size = 1.2.3 }\n",
        [
            ("ERROR E_LEX t.otl:3:26 unexpected character '.'", 1),
            ("ERROR E_SYN t.otl:3:27 expected '}', found '3'", 1),
        ],
    ),
    "non_ascii_letters": (
        "concept Äpfel\nconcept B := x, é\n",
        [
            ("ERROR E_LEX t.otl:1:9 unexpected character 'Ä'", 1),
            ("ERROR E_LEX t.otl:2:17 unexpected character 'é'", 1),
            ("ERROR E_SYN t.otl:2:18 expected difference identifier, found end of line", 1),
        ],
    ),
    "unknown_escape": (
        'concept A\nterm "a\\qb" (en, preferred) for A\n',
        [("ERROR E_LEX t.otl:2:8 unknown escape '\\q'", 2)],
    ),
    # the escaped newline does not end the string, which goes on to line 3
    "backslash_newline": (
        'concept A\nterm "ab\\\ncd" (en, preferred) for A\n',
        [("ERROR E_LEX t.otl:2:9 unknown escape '\\\n'", 2)],
    ),
    "backslash_at_end_of_input": (
        'term "ab\\',
        [
            ("ERROR E_LEX t.otl:1:6 unterminated string literal", 5),
            ("ERROR E_LEX t.otl:1:9 unknown escape '\\'", 2),
            ("ERROR E_SYN t.otl:1:10 expected '(', found end of input", 0),
        ],
    ),
    "unterminated_string": (
        'concept A\nterm "open (en, preferred) for A\nconcept B\n',
        [
            ("ERROR E_LEX t.otl:2:6 unterminated string literal", 27),
            ("ERROR E_SYN t.otl:2:33 expected '(', found end of line", 1),
        ],
    ),
    # an unterminated string's token carries its decoded text
    "unterminated_string_with_escape": (
        'concept "a\\tb',
        [
            ("ERROR E_LEX t.otl:1:9 unterminated string literal", 5),
            ("ERROR E_SYN t.otl:1:9 expected concept identifier, found 'a\\tb'", 3),
        ],
    ),
    "unterminated_string_before_crlf": (
        'term "ab\r\n',
        [
            ("ERROR E_LEX t.otl:1:6 unterminated string literal", 4),
            ("ERROR E_SYN t.otl:1:10 expected '(', found end of line", 1),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(LEXER_EDGE_CASES))
def test_lexer_edge_cases_render_exact_diagnostics_and_spans(name):
    source, expected = LEXER_EDGE_CASES[name]
    result = parse(source, "t.otl")
    assert result.model is None
    assert [(d.render(), d.location.length) for d in result.diagnostics] == expected


@pytest.mark.parametrize(
    "source",
    [
        "concept A\r\nconcept B := A + x\r\n",
        "concept\tA\t# first\n\tconcept B := A + x# tight\n",
        "concept A\nattribute size : number on A\nobject o : A {\n  size = -1.5\n}\n",
        'concept A\nterm "t" (\n en,\n preferred\n) for A\n',
    ],
)
def test_lexer_whitespace_forms_parse_cleanly(source):
    result = parse(source, "t.otl")
    assert result.diagnostics == []
    assert "A" in result.model.concepts


def test_string_escapes_round_trip_through_lexer():
    result = parse('concept A\nterm "say \\"hi\\"\\n" (en, preferred) for A\n')
    assert result.diagnostics == []
    assert result.model.terms[0].designation == 'say "hi"\n'


# One malformed statement per expect site of each statement kind and of class
# expressions, parsed between two declarations of A: the duplicate on line 3
# shows the parser recovered at the next statement.  Recovery closes the
# brackets the failed statement left open, so its newline ends it; only an
# error found past that newline, on line 3 itself, hides the duplicate.
RECOVERED = ("ERROR E_DUP_DECL t.otl:3:9 concept 'A' already declared at 1:9", 1)
SYNTAX_ERRORS = {
    "statement_keyword": (
        "whatever x",
        [
            ("ERROR E_SYN t.otl:2:1 expected one of concept, axis, attribute, object, part, relation, term, class, found 'whatever'", 8),
            RECOVERED,
        ],
    ),
    "statement_number": (
        "12 concept",
        [
            ("ERROR E_SYN t.otl:2:1 expected one of concept, axis, attribute, object, part, relation, term, class, found '12'", 2),
            RECOVERED,
        ],
    ),
    "statement_string": (
        '"t" x',
        [
            ('ERROR E_SYN t.otl:2:1 expected one of concept, axis, attribute, object, part, relation, term, class, found \'"t"\'', 3),
            RECOVERED,
        ],
    ),
    "statement_punct": (
        ": x",
        [
            ("ERROR E_SYN t.otl:2:1 expected one of concept, axis, attribute, object, part, relation, term, class, found ':'", 1),
            RECOVERED,
        ],
    ),
    "concept_name": (
        "concept of",
        [("ERROR E_SYN t.otl:2:9 expected concept identifier, found 'of'", 2), RECOVERED],
    ),
    "concept_genus_or_difference": (
        "concept B := + x",
        [
            ("ERROR E_SYN t.otl:2:14 expected genus or difference identifier, found '+'", 1),
            RECOVERED,
        ],
    ),
    "concept_genus_keyword": (
        "concept B := of + x",
        [("ERROR E_SYN t.otl:2:14 expected genus or difference identifier, found 'of'", 2), RECOVERED],
    ),
    "concept_difference_after_plus": (
        "concept B := A +",
        [
            ("ERROR E_SYN t.otl:2:17 expected difference identifier, found end of line", 1),
            RECOVERED,
        ],
    ),
    "concept_difference_after_comma": (
        "concept B := A + x,",
        [
            ("ERROR E_SYN t.otl:2:20 expected difference identifier, found end of line", 1),
            RECOVERED,
        ],
    ),
    "concept_difference_keyword_after_comma": (
        "concept B := A + x, in",
        [("ERROR E_SYN t.otl:2:21 expected difference identifier, found 'in'", 2), RECOVERED],
    ),
    "root_difference_after_comma": (
        "concept B := x, 1",
        [("ERROR E_SYN t.otl:2:17 expected difference identifier, found '1'", 1), RECOVERED],
    ),
    "concept_end_of_statement": (
        "concept B A",
        [("ERROR E_SYN t.otl:2:11 expected end of statement, found 'A'", 1), RECOVERED],
    ),
    "axis_name": (
        "axis { x }",
        [("ERROR E_SYN t.otl:2:6 expected axis identifier, found '{'", 1), RECOVERED],
    ),
    "axis_of": (
        "axis K on A { x }",
        [("ERROR E_SYN t.otl:2:8 expected 'of', found 'on'", 2), RECOVERED],
    ),
    "axis_scope": (
        'axis K of "A" { x }',
        [('ERROR E_SYN t.otl:2:11 expected concept identifier, found \'"A"\'', 3), RECOVERED],
    ),
    "axis_lbrace": (
        "axis K of A x",
        [("ERROR E_SYN t.otl:2:13 expected '{', found 'x'", 1), RECOVERED],
    ),
    "axis_first_member": (
        "axis K of A { }",
        [("ERROR E_SYN t.otl:2:15 expected difference identifier, found '}'", 1), RECOVERED],
    ),
    "axis_member_after_comma": (
        "axis K of A { x, }",
        [("ERROR E_SYN t.otl:2:18 expected difference identifier, found '}'", 1), RECOVERED],
    ),
    "axis_rbrace": (
        "axis K of A { x y }",
        [("ERROR E_SYN t.otl:2:17 expected '}', found 'y'", 1), RECOVERED],
    ),
    "axis_nonexclusive_rbrace": (
        "axis K of A nonexclusive { x ;",
        [("ERROR E_SYN t.otl:2:30 expected '}', found ';'", 1), RECOVERED],
    ),
    "attribute_name": (
        "attribute : text on A",
        [("ERROR E_SYN t.otl:2:11 expected attribute identifier, found ':'", 1), RECOVERED],
    ),
    "attribute_colon": (
        "attribute a text on A",
        [("ERROR E_SYN t.otl:2:13 expected ':', found 'text'", 4), RECOVERED],
    ),
    "attribute_kind": (
        "attribute a : int on A",
        [
            ("ERROR E_SYN t.otl:2:15 expected one of text, number, boolean, found 'int'", 3),
            RECOVERED,
        ],
    ),
    "attribute_kind_at_end_of_line": (
        "attribute a :",
        [
            ("ERROR E_SYN t.otl:2:14 expected one of text, number, boolean, found end of line", 1),
            RECOVERED,
        ],
    ),
    "attribute_kind_keyword": (
        "attribute a : on A",
        [
            ("ERROR E_SYN t.otl:2:15 expected one of text, number, boolean, found 'on'", 2),
            RECOVERED,
        ],
    ),
    "attribute_on": (
        "attribute a : text of A",
        [("ERROR E_SYN t.otl:2:20 expected 'on', found 'of'", 2), RECOVERED],
    ),
    "attribute_domain": (
        "attribute a : text on 3",
        [("ERROR E_SYN t.otl:2:23 expected concept identifier, found '3'", 1), RECOVERED],
    ),
    "object_name": (
        "object : A",
        [("ERROR E_SYN t.otl:2:8 expected object identifier, found ':'", 1), RECOVERED],
    ),
    "object_colon": (
        "object o A",
        [("ERROR E_SYN t.otl:2:10 expected ':', found 'A'", 1), RECOVERED],
    ),
    "object_concept": (
        "object o : { a = 1 }",
        [("ERROR E_SYN t.otl:2:12 expected concept identifier, found '{'", 1), RECOVERED],
    ),
    "object_concept_keyword": (
        "object o : class",
        [("ERROR E_SYN t.otl:2:12 expected concept identifier, found 'class'", 5), RECOVERED],
    ),
    "object_attribute": (
        "object o : A { = 1 }",
        [("ERROR E_SYN t.otl:2:16 expected attribute identifier, found '='", 1), RECOVERED],
    ),
    "object_attribute_after_comma": (
        "object o : A { a = 1, }",
        [("ERROR E_SYN t.otl:2:23 expected attribute identifier, found '}'", 1), RECOVERED],
    ),
    "object_attribute_keyword": (
        "object o : A { a = 1, on = 2 }",
        [("ERROR E_SYN t.otl:2:23 expected attribute identifier, found 'on'", 2), RECOVERED],
    ),
    "object_equals": (
        "object o : A { a 1 }",
        [("ERROR E_SYN t.otl:2:18 expected '=', found '1'", 1), RECOVERED],
    ),
    "object_value": (
        "object o : A { a = b }",
        [
            ("ERROR E_SYN t.otl:2:20 expected string, number, true or false, found 'b'", 1),
            RECOVERED,
        ],
    ),
    "object_value_at_end": (
        "object o : A { a =",
        [("ERROR E_SYN t.otl:3:1 expected string, number, true or false, found 'concept'", 7)],
    ),
    "object_rbrace": (
        "object o : A { a = 1 b = 2 }",
        [("ERROR E_SYN t.otl:2:22 expected '}', found 'b'", 1), RECOVERED],
    ),
    "object_end_of_statement": (
        "object o : A x",
        [("ERROR E_SYN t.otl:2:14 expected end of statement, found 'x'", 1), RECOVERED],
    ),
    "part_whole": (
        "part has A",
        [("ERROR E_SYN t.otl:2:6 expected concept identifier, found 'has'", 3), RECOVERED],
    ),
    "part_whole_keyword": (
        "part axis has A",
        [("ERROR E_SYN t.otl:2:6 expected concept identifier, found 'axis'", 4), RECOVERED],
    ),
    "part_has": (
        "part A of A",
        [("ERROR E_SYN t.otl:2:8 expected 'has', found 'of'", 2), RECOVERED],
    ),
    "part_part": (
        "part A has",
        [("ERROR E_SYN t.otl:2:11 expected concept identifier, found end of line", 1), RECOVERED],
    ),
    "part_part_keyword": (
        "part A has not",
        [("ERROR E_SYN t.otl:2:12 expected concept identifier, found 'not'", 3), RECOVERED],
    ),
    "relation_name": (
        "relation (causal) A -> A",
        [("ERROR E_SYN t.otl:2:10 expected relation identifier, found '('", 1), RECOVERED],
    ),
    "relation_lparen": (
        "relation r causal) A -> A",
        [("ERROR E_SYN t.otl:2:12 expected '(', found 'causal'", 6), RECOVERED],
    ),
    "relation_kind": (
        "relation r (friendly) A -> A",
        [
            ("ERROR E_SYN t.otl:2:13 expected one of associative, sequential, temporal, causal, cause_effect, producer_product, found 'friendly'", 8),
            RECOVERED,
        ],
    ),
    "relation_kind_keyword": (
        "relation r (for) A -> A",
        [
            ("ERROR E_SYN t.otl:2:13 expected one of associative, sequential, temporal, causal, cause_effect, producer_product, found 'for'", 3),
            RECOVERED,
        ],
    ),
    "relation_rparen": (
        "relation r (causal A -> A",
        [("ERROR E_SYN t.otl:2:20 expected ')', found 'A'", 1), RECOVERED],
    ),
    "relation_source": (
        "relation r (causal) -> A",
        [("ERROR E_SYN t.otl:2:21 expected concept identifier, found '->'", 2), RECOVERED],
    ),
    "relation_arrow": (
        "relation r (causal) A = A",
        [("ERROR E_SYN t.otl:2:23 expected '->', found '='", 1), RECOVERED],
    ),
    "relation_target": (
        "relation r (causal) A ->",
        [("ERROR E_SYN t.otl:2:25 expected concept identifier, found end of line", 1), RECOVERED],
    ),
    "term_designation": (
        "term t (en, preferred) for A",
        [("ERROR E_SYN t.otl:2:6 expected term designation string, found 't'", 1), RECOVERED],
    ),
    "term_lparen": (
        'term "t" en, preferred) for A',
        [("ERROR E_SYN t.otl:2:10 expected '(', found 'en'", 2), RECOVERED],
    ),
    "term_language": (
        'term "t" ("en", preferred) for A',
        [('ERROR E_SYN t.otl:2:11 expected language tag, found \'"en"\'', 4), RECOVERED],
    ),
    "term_language_keyword": (
        'term "t" (of, preferred) for A',
        [("ERROR E_SYN t.otl:2:11 expected language tag, found 'of'", 2), RECOVERED],
    ),
    "term_comma": (
        'term "t" (en preferred) for A',
        [("ERROR E_SYN t.otl:2:14 expected ',', found 'preferred'", 9), RECOVERED],
    ),
    "term_status": (
        'term "t" (en, favourite) for A',
        [
            ("ERROR E_SYN t.otl:2:15 expected one of preferred, admitted, deprecated, standardized, found 'favourite'", 9),
            RECOVERED,
        ],
    ),
    "term_status_at_rparen": (
        'term "t" (en, ) for A',
        [
            ("ERROR E_SYN t.otl:2:15 expected one of preferred, admitted, deprecated, standardized, found ')'", 1),
            RECOVERED,
        ],
    ),
    "term_rparen": (
        'term "t" (en, preferred for A',
        [("ERROR E_SYN t.otl:2:25 expected ')', found 'for'", 3), RECOVERED],
    ),
    "term_for": (
        'term "t" (en, preferred) of A',
        [("ERROR E_SYN t.otl:2:26 expected 'for', found 'of'", 2), RECOVERED],
    ),
    "term_concept": (
        'term "t" (en, preferred) for',
        [("ERROR E_SYN t.otl:2:29 expected concept identifier, found end of line", 1), RECOVERED],
    ),
    "term_concept_keyword": (
        'term "t" (en, preferred) for term',
        [("ERROR E_SYN t.otl:2:30 expected concept identifier, found 'term'", 4), RECOVERED],
    ),
    "term_definition_string": (
        'term "t" (en, preferred) for A definition x',
        [("ERROR E_SYN t.otl:2:43 expected definition string, found 'x'", 1), RECOVERED],
    ),
    "term_end_of_statement": (
        'term "t" (en, preferred) for A "d"',
        [('ERROR E_SYN t.otl:2:32 expected end of statement, found \'"d"\'', 3), RECOVERED],
    ),
    "class_name": (
        "class := { x | in A }",
        [("ERROR E_SYN t.otl:2:7 expected class identifier, found ':='", 2), RECOVERED],
    ),
    "class_assign": (
        "class Q = { x | in A }",
        [("ERROR E_SYN t.otl:2:9 expected ':=', found '='", 1), RECOVERED],
    ),
    "class_lbrace": (
        "class Q := x | in A }",
        [("ERROR E_SYN t.otl:2:12 expected '{', found 'x'", 1), RECOVERED],
    ),
    "class_x": (
        "class Q := { y | in A }",
        [("ERROR E_SYN t.otl:2:14 expected 'x', found 'y'", 1), RECOVERED],
    ),
    "class_pipe": (
        "class Q := { x in A }",
        [("ERROR E_SYN t.otl:2:16 expected '|', found 'in'", 2), RECOVERED],
    ),
    "class_expression": (
        "class Q := { x | }",
        [
            ("ERROR E_SYN t.otl:2:18 expected 'in', 'has', attribute comparison, 'not' or '(', found '}'", 1),
            RECOVERED,
        ],
    ),
    "class_rbrace": (
        "class Q := { x | in A ;",
        [("ERROR E_SYN t.otl:2:23 expected '}', found ';'", 1), RECOVERED],
    ),
    "class_in_concept": (
        "class Q := { x | in 3 }",
        [("ERROR E_SYN t.otl:2:21 expected concept identifier, found '3'", 1), RECOVERED],
    ),
    "class_has_attribute": (
        "class Q := { x | has }",
        [("ERROR E_SYN t.otl:2:22 expected attribute identifier, found '}'", 1), RECOVERED],
    ),
    "class_comparison_equals": (
        "class Q := { x | a 1 }",
        [("ERROR E_SYN t.otl:2:20 expected '=', found '1'", 1), RECOVERED],
    ),
    "class_comparison_value": (
        "class Q := { x | a = in }",
        [
            ("ERROR E_SYN t.otl:2:22 expected string, number, true or false, found 'in'", 2),
            RECOVERED,
        ],
    ),
    "class_and_operand": (
        "class Q := { x | in A and }",
        [
            ("ERROR E_SYN t.otl:2:27 expected 'in', 'has', attribute comparison, 'not' or '(', found '}'", 1),
            RECOVERED,
        ],
    ),
    "class_or_operand": (
        "class Q := { x | in A or or }",
        [
            ("ERROR E_SYN t.otl:2:26 expected 'in', 'has', attribute comparison, 'not' or '(', found 'or'", 2),
            RECOVERED,
        ],
    ),
    "class_not_operand": (
        "class Q := { x | not }",
        [
            ("ERROR E_SYN t.otl:2:22 expected 'in', 'has', attribute comparison, 'not' or '(', found '}'", 1),
            RECOVERED,
        ],
    ),
    "class_rparen": (
        "class Q := { x | (in A }",
        [("ERROR E_SYN t.otl:2:24 expected ')', found '}'", 1), RECOVERED],
    ),
    "class_too_deep": (
        "class Q := { x | " + "(" * 202 + "in A" + ")" * 202 + " }",
        [("ERROR E_SYN t.otl:2:219 class expression too deeply nested", 1), RECOVERED],
    ),
    "errors_between_semicolons": (
        "concept ; axis K ; object o : ; part A has B",
        [
            ("ERROR E_SYN t.otl:2:9 expected concept identifier, found ';'", 1),
            ("ERROR E_SYN t.otl:2:18 expected 'of', found ';'", 1),
            ("ERROR E_SYN t.otl:2:31 expected concept identifier, found ';'", 1),
            RECOVERED,
        ],
    ),
    "unterminated_designation_duplicate": (
        'class Q := { x | (in A }; term "a" (en, preferred) for A; term "a\n(en, preferred) for A',
        [
            ("ERROR E_SYN t.otl:2:24 expected ')', found '}'", 1),
            ("ERROR E_LEX t.otl:2:64 unterminated string literal", 2),
            ("ERROR E_SYN t.otl:2:66 expected '(', found end of line", 1),
            ("ERROR E_SYN t.otl:3:1 expected one of concept, axis, attribute, object, part, relation, term, class, found '('", 1),
            ("ERROR E_DUP_DECL t.otl:4:9 concept 'A' already declared at 1:9", 1),
        ],
    ),
    "semicolon_closes_the_brackets_of_an_abandoned_statement": (
        "object class of + { ; term\nconcept K",
        [
            ("ERROR E_SYN t.otl:2:8 expected object identifier, found 'class'", 5),
            ("ERROR E_SYN t.otl:2:27 expected term designation string, found end of line", 1),
            ("ERROR E_DUP_DECL t.otl:4:9 concept 'A' already declared at 1:9", 1),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(SYNTAX_ERRORS))
def test_syntax_errors_render_exact_diagnostics_and_recover(name):
    bad, expected = SYNTAX_ERRORS[name]
    result = parse("concept A\n" + bad + "\nconcept A\n", "t.otl")
    assert result.model is None
    assert [(d.render(), d.location.length) for d in result.diagnostics] == expected


def test_a_missing_word_of_a_fixed_set_names_the_end_of_input():
    result = parse("attribute a :", "t.otl")
    assert [(d.render(), d.location.length) for d in result.diagnostics] == [
        ("ERROR E_SYN t.otl:1:14 expected one of text, number, boolean, found end of input", 0)
    ]


CLASS_EXPR_ERRORS = {
    "empty": (
        "",
        "ERROR E_SYN q:1:1 expected 'in', 'has', attribute comparison, 'not' or '(', found end of input",
        0,
    ),
    "only_blanks": (
        "  \n ",
        "ERROR E_SYN q:1:3 expected 'in', 'has', attribute comparison, 'not' or '(', found end of line",
        1,
    ),
    "in_concept": ("in", "ERROR E_SYN q:1:3 expected concept identifier, found end of input", 0),
    "has_attribute": ("has 3", "ERROR E_SYN q:1:5 expected attribute identifier, found '3'", 1),
    "comparison_equals": ("a", "ERROR E_SYN q:1:2 expected '=', found end of input", 0),
    "comparison_value": (
        "a = b",
        "ERROR E_SYN q:1:5 expected string, number, true or false, found 'b'",
        1,
    ),
    "and_operand": (
        "in A and",
        "ERROR E_SYN q:1:9 expected 'in', 'has', attribute comparison, 'not' or '(', found end of input",
        0,
    ),
    "or_operand": (
        "in A or )",
        "ERROR E_SYN q:1:9 expected 'in', 'has', attribute comparison, 'not' or '(', found ')'",
        1,
    ),
    "not_operand": (
        "not not",
        "ERROR E_SYN q:1:8 expected 'in', 'has', attribute comparison, 'not' or '(', found end of input",
        0,
    ),
    "rparen": ("(in A", "ERROR E_SYN q:1:6 expected ')', found end of input", 0),
    "unopened_rparen": (
        ")",
        "ERROR E_SYN q:1:1 expected 'in', 'has', attribute comparison, 'not' or '(', found ')'",
        1,
    ),
    "trailing_input": ("in A in B", "ERROR E_SYN q:1:6 unexpected trailing input 'in'", 2),
    "trailing_after_newline": (
        "in A\n\nhas b",
        "ERROR E_SYN q:3:1 unexpected trailing input 'has'",
        3,
    ),
    "trailing_semicolon_word": ("in A; x", "ERROR E_SYN q:1:7 unexpected trailing input 'x'", 1),
    "lexical_error": ("in A and $", "ERROR E_LEX q:1:10 unexpected character '$'", 1),
    "lexical_error_after_syntax_error": (
        "in and $",
        "ERROR E_LEX q:1:8 unexpected character '$'",
        1,
    ),
    "unterminated_string": ('a = "open', "ERROR E_LEX q:1:5 unterminated string literal", 5),
    "leading_zero": ("a = 01", "ERROR E_LEX q:1:5 number '01' has a leading zero", 2),
    "too_deep": ("(" * 202 + "in A" + ")" * 202, "ERROR E_SYN q:1:202 class expression too deeply nested", 1),
}


@pytest.mark.parametrize("name", sorted(CLASS_EXPR_ERRORS))
def test_class_expression_errors_render_exact_diagnostics(name):
    source, rendered, length = CLASS_EXPR_ERRORS[name]
    with pytest.raises(ParseError) as exc:
        parse_class_expr(source, "q")
    diagnostic = exc.value.diagnostic
    assert (diagnostic.render(), diagnostic.location.length) == (rendered, length)


# -- class expressions -------------------------------------------------------


def test_parse_class_expr_attribute_equality():
    assert parse_class_expr('colour = "red"') == AttrEquals("colour", "red")


def test_parse_class_expr_precedence_and_shape():
    expr = parse_class_expr('in Animal and not colour = "red"')
    assert expr == And((InConcept("Animal"), Not(AttrEquals("colour", "red"))))


def test_parse_class_expr_or_binds_loosest():
    expr = parse_class_expr('in A and in B or has size')
    assert expr == Or((And((InConcept("A"), InConcept("B"))), HasAttr("size")))


def test_parse_class_expr_parens_override():
    expr = parse_class_expr('in A and (in B or has size)')
    assert expr == And((InConcept("A"), Or((InConcept("B"), HasAttr("size")))))


def test_parse_class_expr_unbalanced_paren():
    with pytest.raises(ParseError) as exc:
        parse_class_expr("(")
    assert exc.value.diagnostic.code == "E_SYN"


def test_parse_class_expr_trailing_garbage():
    with pytest.raises(ParseError):
        parse_class_expr("in A in B")


def test_parse_class_expr_values():
    assert parse_class_expr("size = 2.5") == AttrEquals("size", Decimal("2.5"))
    assert parse_class_expr("flag = true") == AttrEquals("flag", True)


def test_deeply_nested_parens_rejected_not_crashed():
    depth = 100_000
    source = "(" * depth + "in A" + ")" * depth
    with pytest.raises(ParseError) as exc:
        parse_class_expr(source)
    assert "nested" in exc.value.diagnostic.message


def test_long_not_chain_parses_iteratively():
    expr = parse_class_expr("not " * 5_000 + "in A")
    for _ in range(5_000):
        assert isinstance(expr, Not)
        expr = expr.child
    assert expr == InConcept("A")


# -- declaration spans against the source ------------------------------------

_STRING_LITERAL = re.compile(r'("(?:[^"\\]|\\.)*")')


def _respace(rng, source):
    """Re-lay printed DSL with other blanks, tabs, comments, CRLF line ends and
    newlines inside braces and parentheses; string literals stay as printed."""
    lines = []
    for line in source.splitlines():
        pieces = _STRING_LITERAL.split(line)
        for i in range(0, len(pieces), 2):  # even pieces lie outside strings
            piece = re.sub(" ", lambda _: rng.choice((" ", "\t", " \t ")), pieces[i])
            pieces[i] = re.sub("(?<=[{(])", lambda _: rng.choice(("", "\n\t", "\r\n")), piece)
        if rng.random() < 0.3:
            lines.append(rng.choice(("", "# note", "\t# note\t")))
        lines.append(rng.choice(("", "\t", "  ")) + "".join(pieces) + rng.choice(("", " # x", "#")))
    return "".join(line + rng.choice(("\n", "\r\n")) for line in lines)


def _text_at(source, span):
    line = source.split("\n")[span.line - 1]
    return line[span.column - 1 : span.column - 1 + span.length]


def _declared_texts(model):
    """(kind, id) -> the source text the declaration's span must cover."""
    texts = {}
    for kind, entities in (
        ("concept", model.concepts),
        ("axis", model.axes),
        ("attribute", model.attributes),
        ("object", model.objects),
        ("class", model.classes),
    ):
        texts.update({(kind, entity_id): entity_id for entity_id in entities})
    for obj in model.objects.values():
        texts.update({("value", f"{obj.id}.{attr_id}"): attr_id for attr_id in obj.values})
    texts.update({("part", str(i)): "part" for i in range(len(model.parts))})
    texts.update({("relation", str(i)): "relation" for i in range(len(model.relations))})
    for i, term in enumerate(model.terms):
        texts[("term", str(i))] = dsl_quote(term.designation)
    return texts


@pytest.mark.parametrize("seed", range(30))
def test_declaration_spans_cover_their_identifiers(seed):
    rng = random.Random(seed)
    source = _respace(rng, print_dsl(valid_random_model(seed, with_extras=True)))
    result = parse(source, "g.otl")
    assert result.diagnostics == []
    model = result.model
    for (kind, entity_id), text in _declared_texts(model).items():
        span = model.span_for(kind, entity_id)
        assert isinstance(span, SourceSpan) and span.file == "g.otl"
        assert (_text_at(source, span), span.length) == (text, len(text))


@pytest.mark.parametrize("seed", range(10))
def test_duplicates_locate_the_first_declaration_after_a_multi_line_string(seed):
    rng = random.Random(seed)
    model = valid_random_model(seed, with_extras=True)
    redeclared = [f"concept {cid}" for cid in model.concepts]
    redeclared += [f"axis {kid} of C000 {{ x1, x2 }}" for kid in model.axes]
    redeclared += [f"object {oid} : C000" for oid in model.objects]
    redeclared += [f"attribute {aid} : text on C000" for aid in model.attributes]
    redeclared += [f"class {qid} := {{ x | in C000 }}" for qid in model.classes]
    source = (
        'term "two\\\nlines" (en, preferred) for C000\n'
        + _respace(rng, print_dsl(model))
        + _respace(rng, "\n".join(redeclared))
    )
    result = parse(source, "g.otl")
    lex_error, *duplicates = result.diagnostics
    assert lex_error.render() == "ERROR E_LEX g.otl:1:10 unknown escape '\\\n'"
    assert len(duplicates) == len(redeclared)
    for diag in duplicates:
        name, line, column = re.fullmatch(
            r"\w+ '(\w+)' already declared at (\d+):(\d+)", diag.message
        ).groups()
        first = SourceSpan("g.otl", int(line), int(column), len(name))
        assert diag.code == "E_DUP_DECL"
        assert _text_at(source, diag.location) == _text_at(source, first) == name
        assert 3 <= first.line < diag.location.line


# Each source declares attribute `size` on A and gives it a text value in an
# object of B, so validation reports E_ATTR_DOMAIN and E_ATTR_VALUE at that
# value; with `size` undeclared (`mass` declared in its place, so the columns
# stay where they are) it reports E_UNRESOLVED there.  A string and the
# comments hold `size =` too, and must not be taken for the value.
_VALUE_HEADER = "concept A := x\nconcept B := y\nattribute note : text on B\nattribute size : number on A\n"
VALUE_SOURCES = {
    "regex_one_line": _VALUE_HEADER + 'object bob : B { note = "size = 0", size = "big" }\n',
    "token_multi_line_with_comment": (
        _VALUE_HEADER + 'object bob : B {  # size = 0\n  note = "n",\n  # size = 1\n  size =\n    "big" }\n'
    ),
    "repeated_attribute": _VALUE_HEADER + 'object bob : B { size = "big", note = "n", size = 3 }\n',
    "semicolons": _VALUE_HEADER.replace("\n", "; ") + 'object al : B { note = "n" }; object bob : B { size = "big" }\n',
    "crlf": (
        _VALUE_HEADER + 'object al : B { note = "size" }\nobject bob : B {\n  note = "n", size = "big" }\n'
    ).replace("\n", "\r\n"),
    "object_declared_twice": (
        _VALUE_HEADER + 'object bob : B { note = "n", size = "big" }\nobject bob : B { size = "small" }\n'
    ),
}
_DOMAIN = "ERROR E_ATTR_DOMAIN v.otl:{} attribute 'size' is declared on 'A', which does not subsume 'B' of object 'bob'"
_VALUE = "ERROR E_ATTR_VALUE v.otl:{} object 'bob' gives attribute 'size' a text value, expected number"
_UNDECLARED = "ERROR E_UNRESOLVED v.otl:{} object 'bob' values undeclared attribute 'size'"
_SIZE_AT = {
    "regex_one_line": "5:37",
    "token_multi_line_with_comment": "8:3",
    "repeated_attribute": "5:18",
    "semicolons": "1:138",
    "crlf": "7:15",
    "object_declared_twice": "5:30",
}


def _value_diagnostics(source):
    """(render, span length) of what the parser and then the validator, on
    the model the parser built, report.  The parser's own model is read so
    that a source with an E_DUP_DECL is validated too, as `parse` returns no
    model then."""
    parser = parser_module._Parser(SourceText("v.otl", source))
    parser.run()
    return [(d.render(), d.location.length) for d in parser.diagnostics + validate(parser.model)]


@pytest.mark.parametrize("case", VALUE_SOURCES)
def test_value_diagnostics_point_at_the_first_assignment_of_the_attribute(case):
    source = VALUE_SOURCES[case]
    at = _SIZE_AT[case]
    duplicates = {
        "repeated_attribute": [("ERROR E_DUP_DECL v.otl:5:44 duplicate value for attribute 'size'", 4)],
        "object_declared_twice": [("ERROR E_DUP_DECL v.otl:6:8 object 'bob' already declared at 5:8", 3)],
    }.get(case, [])
    assert _value_diagnostics(source) == duplicates + [(_DOMAIN.format(at), 4), (_VALUE.format(at), 4)]
    undeclared = source.replace("attribute size", "attribute mass")
    assert _value_diagnostics(undeclared) == duplicates + [(_UNDECLARED.format(at), 4)]
    if not duplicates:
        assert parse(source, "v.otl").diagnostics == []


# -- totality and performance -------------------------------------------------


@given(st.text(max_size=300))
@settings(max_examples=200)
def test_parse_is_total_and_spans_stay_in_bounds(source):
    result = parse(source, "fuzz.otl")
    assert (result.model is not None) == (not errors(result))
    lines = source.split("\n")
    for diag in result.diagnostics:
        span = diag.location
        assert isinstance(span, SourceSpan)
        assert 1 <= span.line <= max(1, len(lines))
        line_text = lines[span.line - 1] if span.line <= len(lines) else ""
        assert 1 <= span.column <= len(line_text) + 1


# Token soups over the DSL's vocabulary, with statement keywords after a
# separator often enough that most inputs reach the statement recovery.
_SOUPS = st.lists(
    st.sampled_from(DSL_VOCABULARY) | st.sampled_from([f";{k}" for k in STATEMENT_KEYWORDS]),
    max_size=40,
).map(" ".join)


@given(_SOUPS)
@settings(max_examples=300)
def test_parse_is_total_on_token_soups(source):
    result = parse(source, "soup.otl")
    assert (result.model is not None) == (not errors(result))
    assert {d.code for d in result.diagnostics} <= {"E_LEX", "E_SYN", "E_DUP_DECL"}
    try:
        parse_class_expr(source)
    except ParseError:
        pass


def test_malformed_sources_give_the_pinned_diagnostics():
    # a seeded corpus of token soups and fixture edits; rebuild the golden
    # with scripts/regen_goldens.py
    assert recovery_golden() == (GOLDEN / "recovery.txt").read_text(encoding="utf-8")


def test_parse_runtime_stays_linear_on_large_input():
    # ~100k tokens of statements
    lines = ["concept C0"]
    lines += [f"concept C{i} := C0 + d{i}" for i in range(1, 12_500)]
    source = "\n".join(lines)
    start = time.perf_counter()
    result = parse(source)
    elapsed = time.perf_counter() - start
    assert result.diagnostics == []
    assert len(result.model.concepts) == 12_500
    assert elapsed < 10.0

    # ~100k tokens of one flat expression chain
    expr_source = " or ".join(f"a{i} = {i}" for i in range(20_000))
    start = time.perf_counter()
    expr = parse_class_expr(expr_source)
    elapsed = time.perf_counter() - start
    assert isinstance(expr, Or)
    assert len(expr.children) == 20_000
    assert elapsed < 10.0


# -- the regex reader against the token reader --------------------------------
#
# parse reads a well-formed concept, object, term or part statement with one
# match of parser._declaration() and leaves every other statement to the token
# reader.  Patching it to a regex that never matches leaves every
# statement to the token reader, which must give the same model, spans and
# diagnostics.

_NEVER = re.compile(r"(?!)")


def _parsed(source):
    result = parse(source, "d.otl")
    model = result.model
    return (
        [(d.render(), d.location.length) for d in result.diagnostics],
        repr(model),
        model and sorted(model.spans.items()),
    )


def _assert_readers_agree(sources):
    with_regex = [_parsed(source) for source in sources]
    with mock.patch.object(parser_module, "_declaration", lambda: _NEVER):
        assert [_parsed(source) for source in sources] == with_regex


def _printed(seeds):
    return [print_dsl(valid_random_model(seed, with_extras=True)) for seed in seeds]


def test_readers_agree_on_fixtures_and_printed_models():
    sources = [path.read_text("utf-8") for path in sorted(FIXTURES.glob("*.otl"))]
    printed = _printed(range(40))
    rng = random.Random(7)
    sources += printed + [_respace(rng, source) for source in printed]
    _assert_readers_agree(sources)


def test_readers_agree_on_malformed_sources():
    rng = random.Random(13)
    sources = [edited_source(rng, source, rng.choice((1, 3, 8))) for source in _printed(range(150))]
    sources += [token_soup(rng, 60) for _ in range(300)]
    sources += [source for _, source in malformed_sources(29, 600)]
    _assert_readers_agree(sources)


# Statement templates whose slots are filled with good and bad names, blanks
# (a newline among them), values and statement ends, so that most lines are
# well formed and the rest fail at one slot: a keyword or a stray character
# as a name, a missing blank, an escape, an open string, a leading zero, a
# newline inside braces, a comment inside a statement.
_TEMPLATES = (
    "concept<G><N><E>",
    "concept <N><G>:=<G><N><G>+<G><N><E>",
    "concept <N> := <N><G>,<G><N>,<G><N><E>",
    "object <N><G>:<G><N><E>",
    "object <N> : <N><G>{<G><N><G>=<G><V><G>,<G><N> = <V><G>}<E>",
    'term<G>"t"<G>(<G><N><G>,<G><S><G>)<G>for <N><E>',
    'term "t" (<N>, <S>) for <N><G>definition<G><V><E>',
    "part <N><G>has<G><N><E>",
    "axis <N> of <N> { <N>, <N> }<E>",
    "class <N> := { x | in <N> }<E>",
)
# each slot's (good, bad) fillings; one slot in ten takes a bad one
_SLOTS = {
    "N": (("A", "B2", "d_1", "x", "of_"), ("class", "has", "true", "1a", "é", "")),
    "G": ((" ", "", "\t", " \r"), ("\n", " # c\n")),
    "V": (('"s"', '"a;b#c"', "1", "-2.5", "0", "true", "false"), ('"e\\n"', '"open', "007", "1.", "x")),
    "S": (("preferred", "admitted"), ("favourite",)),
    "E": (("\n", ";", " # c;concept Z\n", "\n# c;concept Z\n", "\r\n", "\n\n"), ("", " @\n", "\n#;concept Z")),
}


def _statement_lines(rng):
    def fill(slot):
        good, bad = _SLOTS[slot[1]]
        return rng.choice(bad if rng.random() < 0.1 else good)

    lines = [rng.choice(_TEMPLATES) for _ in range(rng.randint(1, 8))]
    return "".join(re.sub("<(.)>", fill, line) for line in lines)


def test_readers_agree_on_statement_lines():
    rng = random.Random(17)
    _assert_readers_agree([_statement_lines(rng) for _ in range(3000)])


@given(st.integers(min_value=0))
@settings(max_examples=300)
def test_readers_agree_on_random_statement_lines(seed):
    _assert_readers_agree([_statement_lines(random.Random(seed))])


def test_regex_reader_takes_the_statements_printed_as_dsl():
    taken = []
    read = parser_module._Parser.read

    def counted(self, m):
        taken.append(m.lastgroup)
        read(self, m)

    sources = _printed(range(40))
    with mock.patch.object(parser_module._Parser, "read", counted):
        for source in sources:
            assert parse(source).diagnostics == []
    statements = [line.split(" ", 1)[0] for s in sources for line in s.splitlines()]
    for_regex = [kind for kind in statements if kind in ("concept", "object", "term", "part")]
    # all of them: every statement but the axis, attribute, relation and
    # class ones, which are for the token reader
    assert taken == for_regex
