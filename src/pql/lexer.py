"""Tokenizer for the query language.

One regular expression reads every token; the alternatives are tried in
this order at each position:

* whitespace: space, tab, CR and LF, skipped (LF starts a new line);
* a string: single or double quotes, the delimiter doubled to escape it;
* a number: ``-?D+(.D+)?([eE][+-]?D+)?`` with D a decimal digit (any
  Unicode ``Nd`` digit, as ``int`` reads them): INT, or FLOAT when it has a
  fraction or an exponent;
* ``-`` and a word: ``-INF`` in any case, else an error;
* a name, ``WORD``, ``WORD.WORD`` or ``WORD.*``: a qualified column is one
  token, so its parts may be spelled like keywords (the dot binds tighter);
  a bare word is an aggregation, a keyword or an identifier. Keywords are
  case-insensitive and names are upper-cased;
* an operator ``!= <= >= < > =``, or one of ``( ) [ ] ,``.

A word (a name part, or the word after ``-``) is a run of Unicode word
characters (letters, digits, numerals and ``_``) that starts with a letter
(``str.isalpha``) or ``_``, so ``²``, ``½`` or ``Ⅻ`` start no name; nor is
such a numeral an exponent digit (``1e²``). Anything else is an illegal
character. Spans are 1-based line:column positions counted in characters.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List

from .ast import AggKind
from .errors import LexError, Span


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    AGGR = "aggr"
    IDENT = "ident"
    COLUMN = "column"  # TABLE.COLUMN
    WILDCARD_COLUMN = "wildcard"  # TABLE.*
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    MINUS_INF = "-INF"
    OP = "op"  # != <= >= < > =
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    EOF = "eof"


KEYWORDS = {
    "PREDICT",
    "FOR",
    "EACH",
    "WHERE",
    "ASSUMING",
    "RANK",
    "CLASSIFY",
    "TOP",
    "NOT",
    "AND",
    "OR",
    "IS",
    "IN",
    "LIKE",
    "CONTAINS",
    "STARTS",
    "ENDS",
    "WITH",
    "NULL",
    "TRUE",
    "FALSE",
}

AGG_KINDS = {k.value for k in AggKind}


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    span: Span
    value: object = None

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.text!r}@{self.span})"


# `(?!')` after a closing quote stops a doubled quote at the end of the
# input from matching as a shorter string plus a stray quote.
_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<string>'(?:[^']|'')*'(?!')|"(?:[^"]|"")*"(?!"))
    | (?P<unterminated>['"])
    | (?P<number>-?\d+(?P<fraction>\.\d+)?(?P<exponent>[eE][+-]?\d+)?)
    | (?P<minus>-(?P<minus_word>\w+)?)
    | (?P<name>(?P<word>\w+)(?:\.(?P<part>\*|\w+))?)
    | (?P<op>[!<>]=|[<>=])
    | (?P<bang>!)
    | (?P<punct>[()\[\],])
    | (?P<illegal>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _is_name(part: str) -> bool:
    return part[0].isalpha() or part[0] == "_"


def tokenize(source: str) -> List[Token]:
    """Tokenize `source`, returning a token list terminated by EOF."""
    out: List[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        span = Span(line, pos - line_start + 1)
        if kind in ("space", "string") and "\n" in text:
            line += text.count("\n")
            line_start = pos + text.rindex("\n") + 1
        if kind == "space":
            continue
        if kind == "string":
            quote = text[0]
            value = text[1:-1].replace(quote + quote, quote)
            out.append(Token(TokenType.STRING, value, span, value=value))
        elif kind == "number":
            end = m.end()
            if source[end : end + 1] in ("e", "E") and source[end + 1 : end + 2].isdigit():
                # An exponent in a numeral that is no decimal digit (`1e²`).
                raise LexError(f"illegal character {source[end + 1]!r}", Span(line, end + 2 - line_start))
            if m["fraction"] or m["exponent"]:
                out.append(Token(TokenType.FLOAT, text, span, value=float(text)))
            else:
                try:
                    value = int(text)
                except ValueError:  # beyond int()'s digit limit
                    raise LexError(f"integer literal has too many digits ({len(text)})", span) from None
                out.append(Token(TokenType.INT, text, span, value=value))
        elif kind == "name":
            word, part = m["word"], m["part"]
            if not _is_name(word):
                raise LexError(f"illegal character {word[0]!r}", span)
            upper = word.upper()
            if part == "*":
                out.append(Token(TokenType.WILDCARD_COLUMN, upper + ".*", span, value=(upper, "*")))
            elif part is not None and _is_name(part):
                col = part.upper()
                out.append(Token(TokenType.COLUMN, f"{upper}.{col}", span, value=(upper, col)))
            elif part is not None:  # a dot that starts no column part
                raise LexError("illegal character '.'", Span(line, m.start("part") - line_start))
            elif upper in AGG_KINDS:
                out.append(Token(TokenType.AGGR, upper, span, value=AggKind(upper)))
            elif upper in KEYWORDS:
                out.append(Token(TokenType.KEYWORD, upper, span))
            else:
                out.append(Token(TokenType.IDENT, upper, span, value=upper))
        elif kind == "op":
            out.append(Token(TokenType.OP, text, span))
        elif kind == "punct":
            out.append(Token(TokenType(text), text, span))
        elif kind == "minus" and text.upper() == "-INF":
            out.append(Token(TokenType.MINUS_INF, "-INF", span))
        elif kind == "minus" and m["minus_word"] and _is_name(m["minus_word"]):
            raise LexError(f"unexpected '{text}'", span)
        elif kind == "minus":
            raise LexError("unexpected '-'", span)
        elif kind == "unterminated":
            raise LexError("unterminated string literal", span)
        elif kind == "bang":
            raise LexError("expected '=' after '!'", span)
        else:
            raise LexError(f"illegal character {text!r}", span)
    out.append(Token(TokenType.EOF, "", Span(line, len(source) - line_start + 1)))
    return out
