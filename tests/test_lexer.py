"""Tokenizer behaviour: spans, case folding, qualified names, errors."""

import pytest

from pql.ast import AggKind
from pql.errors import LexError
from pql.lexer import TokenType, tokenize


def types(source):
    return [t.type for t in tokenize(source)]


def test_aggregation_call_tokens():
    toks = tokenize("PREDICT COUNT(TRANSACTIONS.*, 0, 3, months)")
    assert [t.type for t in toks] == [
        TokenType.KEYWORD,
        TokenType.AGGR,
        TokenType.LPAREN,
        TokenType.WILDCARD_COLUMN,
        TokenType.COMMA,
        TokenType.INT,
        TokenType.COMMA,
        TokenType.INT,
        TokenType.COMMA,
        TokenType.IDENT,
        TokenType.RPAREN,
        TokenType.EOF,
    ]
    assert toks[1].value is AggKind.COUNT
    assert toks[3].value == ("TRANSACTIONS", "*")
    assert toks[9].text == "MONTHS"


def test_empty_input_is_just_eof():
    toks = tokenize("")
    assert [t.type for t in toks] == [TokenType.EOF]


def test_unterminated_string():
    with pytest.raises(LexError, match="unterminated string"):
        tokenize("WHERE x.y = 'unclosed")


def test_illegal_character():
    with pytest.raises(LexError, match="illegal character"):
        tokenize("PREDICT ;")


def test_spans_are_one_based():
    toks = tokenize("PREDICT\n  T.C")
    assert (toks[0].span.line, toks[0].span.col) == (1, 1)
    assert (toks[1].span.line, toks[1].span.col) == (2, 3)


def test_keywords_case_insensitive():
    toks = tokenize("predict Rank claSSify top")
    assert [t.text for t in toks[:-1]] == ["PREDICT", "RANK", "CLASSIFY", "TOP"]


def test_qualified_name_with_keyword_parts():
    toks = tokenize("SUM.MAX")
    assert toks[0].type is TokenType.COLUMN
    assert toks[0].value == ("SUM", "MAX")


def test_qualified_name_upper_cased():
    assert tokenize("tx.value")[0].value == ("TX", "VALUE")


def test_minus_inf_vs_negative_int():
    toks = tokenize("-INF -40 -inf")
    assert [t.type for t in toks[:-1]] == [TokenType.MINUS_INF, TokenType.INT, TokenType.MINUS_INF]
    assert toks[1].value == -40


def test_float_forms():
    toks = tokenize("1.5 -2.25 1e-05 3.5e+20")
    assert [t.value for t in toks[:-1]] == [1.5, -2.25, 1e-05, 3.5e20]


def test_string_quote_styles_and_escaping():
    toks = tokenize("\"New York\" 'it''s' \"a\"\"b\"")
    assert [t.value for t in toks[:-1]] == ["New York", "it's", 'a"b']


def test_bang_requires_equals():
    with pytest.raises(LexError, match="expected '='"):
        tokenize("a.b ! 3")


# Unicode numerals and quoting at token boundaries: (source, the LexError
# message or the first token's type, the token value, the 1-based position).
EDGE_CASES = [
    ("²", "illegal character '²'", None, (1, 1)),
    ("x.y > ²", "illegal character '²'", None, (1, 7)),
    ("½x", "illegal character '½'", None, (1, 1)),
    ("Ⅻ", "illegal character 'Ⅻ'", None, (1, 1)),
    ("-½", "unexpected '-'", None, (1, 1)),
    ("1e²", "illegal character '²'", None, (1, 3)),
    ("'ab''", "unterminated string literal", None, (1, 1)),
    ("a.²", "illegal character '.'", None, (1, 2)),
    ("9" * 5000, "integer literal has too many digits (5000)", None, (1, 1)),
    ("é.ß", TokenType.COLUMN, ("É", "SS"), (1, 1)),
    ("٣", TokenType.INT, 3, (1, 1)),
]


@pytest.mark.parametrize("source,kind,value,pos", EDGE_CASES, ids=[c[0][:8] for c in EDGE_CASES])
def test_edge_cases(source, kind, value, pos):
    if isinstance(kind, str):
        with pytest.raises(LexError) as exc:
            tokenize(source)
        assert (exc.value.message, (exc.value.span.line, exc.value.span.col)) == (kind, pos)
    else:
        tok = tokenize(source)[0]
        assert (tok.type, tok.value, (tok.span.line, tok.span.col)) == (kind, value, pos)
