"""Recursive-descent parser producing `ast.Query` trees.

Connective precedence is NOT > AND > OR with left association; parentheses
override. A bare aggregation or column is only legal as the whole PREDICT
target; everywhere else a comparison is required.

Nesting is bounded: a parenthesis, a NOT, an aggregation's WHERE and each
AND or OR (a chain builds a left-deep tree, so `a AND b AND c` is two
levels) add a level, and a query deeper than `MAX_DEPTH` levels is a
`ParseError`. The parser descends up to seven Python frames a level (an
aggregation's WHERE) and the later stages up to three, so every stage of a
query at the limit stays far inside the interpreter's default recursion
limit of 1,000 frames, and a deeper text fails before it gets near it.

`parse` caches query text the way `re` caches patterns: a `str` goes
through an LRU cache of `_PARSE_CACHE_SIZE` texts, so a repeated text
returns the same `Query` object (AST nodes are frozen, so sharing one is
safe). Two texts that differ only in whitespace are two entries, each with
its own spans. A token list is parsed afresh, and an error is never cached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Union

from . import ast
from .ast import (
    AggKind,
    And,
    Compare,
    ColumnRef,
    Constant,
    ConstKind,
    Hint,
    Not,
    Or,
    Query,
    RelOp,
    TimeUnit,
    Window,
)
from .errors import ParseError
from .lexer import Token, TokenType, tokenize

_UNIT_WORDS = {}
for _u in TimeUnit:
    _UNIT_WORDS[_u.value.upper()] = _u
    _UNIT_WORDS[_u.value[:-1].upper()] = _u  # singular spelling

MAX_DEPTH = 100
_PARSE_CACHE_SIZE = 256


@dataclass
class _Bare:
    """Operand without a comparison; only valid as the whole target."""

    operand: Union[ColumnRef, ast.Aggregation]


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # levels open around the current token
        self.peak = 0  # deepest level reached, or pushed to by a chain, since the last reset

    # -- token helpers ------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.EOF:
            self.pos += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.type is TokenType.KEYWORD and tok.text in words

    def take_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            self.fail(f"'{word}'")
        return self.advance()

    def expect(self, ttype: TokenType, what: str) -> Token:
        if self.peek().type is not ttype:
            self.fail(what)
        return self.advance()

    def fail(self, expected: str):
        tok = self.peek()
        got = tok.text if tok.type is not TokenType.EOF else "end of input"
        raise ParseError(f"expected {expected}, got {got!r}", tok.span)

    # -- nesting ------------------------------------------------------

    def _check_depth(self, level: int, tok: Token):
        if level > MAX_DEPTH:
            raise ParseError(f"query nests deeper than {MAX_DEPTH} levels", tok.span)
        self.peak = max(self.peak, level)

    def enter(self, tok: Token):
        """Open one level at `tok` (a parenthesis, NOT or WHERE); the caller
        closes it with `self.depth -= 1` (an error discards the parser)."""
        self.depth += 1
        self._check_depth(self.depth, tok)

    # -- grammar ------------------------------------------------------

    def query(self) -> Query:
        start = self.peek().span
        self.expect_keyword("PREDICT")
        target = self.target()
        hint: Optional[Hint] = None
        if self.take_keyword("RANK"):
            hint = Hint.RANK
        elif self.take_keyword("CLASSIFY"):
            hint = Hint.CLASSIFY
        top_k: Optional[int] = None
        if self.at_keyword("TOP"):
            top_tok = self.advance()
            k = self.expect(TokenType.INT, "a positive integer after TOP")
            if k.value <= 0:
                raise ParseError(f"TOP requires a positive integer, got {k.value}", k.span)
            if hint is not Hint.RANK:
                raise ParseError("TOP requires RANK", top_tok.span)
            top_k = k.value
        self.expect_keyword("FOR")
        self.expect_keyword("EACH")
        entity = self.column_ref()
        entity_where = None
        if self.take_keyword("WHERE"):
            entity_where = self.condition()
        assuming = None
        if self.take_keyword("ASSUMING"):
            assuming = self.condition()
        if self.peek().type is not TokenType.EOF:
            self.fail("end of query")
        return Query(
            target=target,
            entity=entity,
            entity_where=entity_where,
            assuming=assuming,
            hint=hint,
            top_k=top_k,
            span=start,
        )

    def target(self):
        node = self.chain()
        if isinstance(node, _Bare):
            return node.operand
        return node

    def condition(self):
        return self._require_condition(self.chain())

    def chain(self, word: str = "OR"):
        """A left-deep chain of `word`: OR joins AND chains, AND joins unary
        expressions. Each link puts the chain so far one level deeper, so a
        chain peaks one level above its deepest operand."""
        outer, self.peak = self.peak, self.depth
        left = self.chain("AND") if word == "OR" else self.unary_expr()
        while self.at_keyword(word):
            tok = self.advance()
            left = self._require_condition(left)
            left_peak, self.peak = self.peak, self.depth
            right = self._require_condition(self.chain("AND") if word == "OR" else self.unary_expr())
            self._check_depth(max(left_peak, self.peak) + 1, tok)
            left = (Or if word == "OR" else And)(left, right, span=tok.span)
        self.peak = max(outer, self.peak)
        return left

    def _require_condition(self, node):
        if isinstance(node, _Bare):
            self.fail("a comparison operator")
        return node

    def unary_expr(self):
        if self.at_keyword("NOT"):
            tok = self.advance()
            self.enter(tok)
            operand = self._require_condition(self.unary_expr())
            self.depth -= 1
            return Not(operand, span=tok.span)
        if self.peek().type is TokenType.LPAREN:
            self.enter(self.advance())
            inner = self.condition()
            self.depth -= 1
            self.expect(TokenType.RPAREN, "')'")
            return inner
        return self.leaf()

    def leaf(self):
        operand = self.operand()
        op = self.maybe_rel_op()
        if op is None:
            return _Bare(operand)
        rhs = self.constant()
        return Compare(operand, op, rhs, span=operand.span)

    def operand(self):
        tok = self.peek()
        if tok.type is TokenType.AGGR:
            return self.aggregation()
        if tok.type in (TokenType.COLUMN, TokenType.WILDCARD_COLUMN):
            return self.column_ref()
        self.fail("an aggregation or a TABLE.COLUMN reference")

    def column_ref(self) -> ColumnRef:
        tok = self.peek()
        if tok.type not in (TokenType.COLUMN, TokenType.WILDCARD_COLUMN):
            self.fail("a TABLE.COLUMN reference")
        self.advance()
        table, column = tok.value
        return ColumnRef(table, column, span=tok.span)

    def aggregation(self) -> ast.Aggregation:
        kind_tok = self.advance()
        kind: AggKind = kind_tok.value
        self.expect(TokenType.LPAREN, "'('")
        column = self.column_ref()
        where = None
        if self.at_keyword("WHERE"):
            self.enter(self.advance())
            where = self.condition()
            self.depth -= 1
        window = None
        if self.peek().type is TokenType.COMMA:
            self.advance()
            window = self.window()
        self.expect(TokenType.RPAREN, "')'")
        return ast.Aggregation(kind, column, where, window, span=kind_tok.span)

    def window(self) -> Window:
        tok = self.peek()
        if tok.type is TokenType.MINUS_INF:
            self.advance()
            start: Optional[int] = None
        else:
            start_tok = self.expect(TokenType.INT, "a window start (integer or -INF)")
            start = start_tok.value
        self.expect(TokenType.COMMA, "','")
        end_tok = self.expect(TokenType.INT, "a window end (integer)")
        unit = TimeUnit.DAYS
        if self.peek().type is TokenType.COMMA:
            self.advance()
            unit_tok = self.expect(TokenType.IDENT, "a time unit")
            unit_key = unit_tok.text.upper()
            if unit_key not in _UNIT_WORDS:
                valid = ", ".join(sorted({u.value for u in TimeUnit}))
                raise ParseError(f"unknown time unit {unit_tok.text!r}; expected one of {valid}", unit_tok.span)
            unit = _UNIT_WORDS[unit_key]
        return Window(start, end_tok.value, unit, span=tok.span)

    def maybe_rel_op(self) -> Optional[RelOp]:
        tok = self.peek()
        if tok.type is TokenType.OP:
            self.advance()
            return RelOp(tok.text)
        if tok.type is not TokenType.KEYWORD:
            return None
        if tok.text == "IS":
            self.advance()
            if self.take_keyword("NOT"):
                return RelOp.IS_NOT
            if self.take_keyword("IN"):
                return RelOp.IS_IN
            return RelOp.IS
        if tok.text == "IN":
            self.advance()
            return RelOp.IN
        if tok.text == "LIKE":
            self.advance()
            return RelOp.LIKE
        if tok.text == "CONTAINS":
            self.advance()
            return RelOp.CONTAINS
        if tok.text == "NOT":
            nxt = self.peek(1)
            if nxt.type is TokenType.KEYWORD and nxt.text in ("LIKE", "CONTAINS"):
                self.advance()
                self.advance()
                return RelOp.NOT_LIKE if nxt.text == "LIKE" else RelOp.NOT_CONTAINS
            return None
        if tok.text == "STARTS":
            self.advance()
            self.expect_keyword("WITH")
            return RelOp.STARTS_WITH
        if tok.text == "ENDS":
            self.advance()
            self.expect_keyword("WITH")
            return RelOp.ENDS_WITH
        return None

    def constant(self) -> Constant:
        tok = self.peek()
        if tok.type is TokenType.KEYWORD:
            if tok.text == "NULL":
                self.advance()
                return Constant(ConstKind.NULL, None, span=tok.span)
            if tok.text == "TRUE":
                self.advance()
                return Constant(ConstKind.BOOL, True, span=tok.span)
            if tok.text == "FALSE":
                self.advance()
                return Constant(ConstKind.BOOL, False, span=tok.span)
        if tok.type is TokenType.INT:
            self.advance()
            return Constant(ConstKind.INT, tok.value, span=tok.span)
        if tok.type is TokenType.FLOAT:
            self.advance()
            return Constant(ConstKind.FLOAT, tok.value, span=tok.span)
        if tok.type is TokenType.STRING:
            self.advance()
            return Constant(ConstKind.STRING, tok.value, span=tok.span)
        if tok.type is TokenType.LBRACKET:
            self.advance()
            elements: list[Constant] = []
            if self.peek().type is not TokenType.RBRACKET:
                elements.append(self.constant())
                while self.peek().type is TokenType.COMMA:
                    self.advance()
                    elements.append(self.constant())
            self.expect(TokenType.RBRACKET, "']'")
            return Constant(ConstKind.ARRAY, tuple(elements), span=tok.span)
        self.fail("a constant")


def parse(source: Union[str, List[Token]]) -> Query:
    """Parse query text (or a token list from `tokenize`) into a Query AST.
    Text is cached: the same text gives the same `Query` object."""
    if isinstance(source, str):
        return _parse_text(source)
    return _Parser(source).query()


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parse_text(text: str) -> Query:
    return _Parser(tokenize(text)).query()
