"""Parser for the textual program format.

Grammar:
    :- table name/arity.          table directive
    head :- lit, ..., lit.        clause
    name(args).                   fact
Atoms start lowercase, variables uppercase or underscore, integers are
signed decimals, `%` starts a line comment.  Arguments are flat (Datalog).
"""

from __future__ import annotations

import re

from .errors import ParseError
from .program import Program
from .terms import Int, Term, Var, atom, compound, intern_symbol

# one alternative per token class, tried in order at each offset; digits are
# decimal digits (`\d`, what `int` accepts), words are letters, digits and
# underscores, and anything else is one unexpected character
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+|%[^\n]*)
  | (?P<punct>:-|[()./,])
  | (?P<int>-?\d+)
  | (?P<word>\w+)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _error(text: str, msg: str, offset: int) -> ParseError:
    """A ParseError at `offset`, located by the newlines before it."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(msg, line, offset - text.rfind("\n", 0, offset))


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, offset) for every token of `text`, then an "eof"."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "skip":
            continue
        if kind == "punct":
            kind = value
        elif kind == "word":
            ch = value[0]
            if not (ch.isalpha() or ch == "_"):  # a non-decimal numeric
                raise _error(text, f"unexpected character {ch!r}", m.start())
            kind = "var" if (ch == "_" or ch.isupper()) else "atom"
        elif kind == "bad":
            raise _error(text, f"unexpected character {value!r}", m.start())
        toks.append((kind, value, m.start()))
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self._text = text
        self._toks = _tokens(text)
        self._i = 0
        self._vars: dict[str, int] = {}

    def _error(self, msg: str, offset: int) -> ParseError:
        return _error(self._text, msg, offset)

    def _peek(self):
        return self._toks[self._i]

    def _next(self):
        tok = self._toks[self._i]
        self._i += 1
        return tok

    def _expect(self, kind: str):
        tok = self._next()
        if tok[0] != kind:
            got = tok[1] or "end of input"
            raise self._error(f"expected {kind!r}, got {got!r}", tok[2])
        return tok

    def _var(self, name: str) -> Var:
        if name == "_":
            vid = len(self._vars)
            self._vars[f"_#{vid}"] = vid
            return Var(vid)
        vid = self._vars.get(name)
        if vid is None:
            vid = len(self._vars)
            self._vars[name] = vid
        return Var(vid)

    def _term(self) -> Term:
        kind, value, loc = self._next()
        if kind == "int":
            return Int(int(value))
        if kind == "var":
            return self._var(value)
        if kind == "atom":
            if self._peek()[0] != "(":
                return atom(value)
            self._next()
            args = [self._term()]
            while self._peek()[0] == ",":
                self._next()
                args.append(self._term())
            self._expect(")")
            return compound(value, *args)
        raise self._error(f"expected a term, got {value!r}" if value else
                          "expected a term, got end of input", loc)

    def parse(self) -> Program:
        tabled: set[tuple[int, int]] = set()
        items: list[tuple[Term, list[Term]]] = []
        while self._peek()[0] != "eof":
            if self._peek()[0] == ":-":
                self._next()
                kind, word, loc = self._next()
                if kind != "atom" or word != "table":
                    raise self._error(f"unknown directive {word!r}", loc)
                name = self._expect("atom")[1]
                self._expect("/")
                arity = int(self._expect("int")[1])
                tabled.add((intern_symbol(name), arity))
                self._expect(".")
                continue
            self._vars = {}
            head = self._term()
            body: list[Term] = []
            if self._peek()[0] == ":-":
                self._next()
                body.append(self._term())
                while self._peek()[0] == ",":
                    self._next()
                    body.append(self._term())
            self._expect(".")
            items.append((head, body))
        program = Program(tabled=frozenset(tabled))
        for head, body in items:
            program.add_clause(head, body)
        program.validate()
        return program


def parse_program(text: str) -> Program:
    return _Parser(text).parse()


def parse_query(text: str) -> Term:
    parser = _Parser(text.rstrip().rstrip(".") + ".")
    term = parser._term()
    parser._expect(".")
    if parser._peek()[0] != "eof":
        raise parser._error("trailing input after query", parser._peek()[2])
    return term
