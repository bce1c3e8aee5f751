"""Parser for the textual program format.

Grammar:
    :- table name/arity.          table directive
    head :- lit, ..., lit.        clause
    name(args).                   fact
Atoms start lowercase, variables uppercase or underscore, integers are
signed decimals, `%` starts a line comment.  Arguments are flat (Datalog).
"""

from __future__ import annotations

from .errors import ParseError
from .program import Program
from .terms import Term, Var, atom, compound, intern_symbol

_PUNCT = {":-", "(", ")", ",", ".", "/"}


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.line, self.col)

    def _advance(self, n: int) -> None:
        for ch in self.text[self.pos:self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def tokens(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            if ch == "%":
                nl = text.find("\n", self.pos)
                self._advance((nl if nl != -1 else len(text)) - self.pos)
                continue
            loc = (self.line, self.col)
            if text.startswith(":-", self.pos):
                self._advance(2)
                yield ":-", ":-", loc
                continue
            if ch in "()./,":
                self._advance(1)
                yield ch, ch, loc
                continue
            if ch.isdigit() or (ch == "-" and self.pos + 1 < len(text)
                                and text[self.pos + 1].isdigit()):
                j = self.pos + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                value = text[self.pos:j]
                self._advance(j - self.pos)
                yield "int", value, loc
                continue
            if ch.isalpha() or ch == "_":
                j = self.pos
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[self.pos:j]
                self._advance(j - self.pos)
                kind = "var" if (ch == "_" or ch.isupper()) else "atom"
                yield kind, word, loc
                continue
            raise self.error(f"unexpected character {ch!r}")
        yield "eof", "", (self.line, self.col)


class _Parser:
    def __init__(self, text: str):
        self._lexer = _Lexer(text)
        self._toks = list(self._lexer.tokens())
        self._i = 0
        self._vars: dict[str, int] = {}

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
            raise ParseError(f"expected {kind!r}, got {got!r}", *tok[2])
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
            from .terms import Int
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
        raise ParseError(f"expected a term, got {value!r}" if value else
                         "expected a term, got end of input", *loc)

    def _clause_end(self):
        tok = self._next()
        if tok[0] != ".":
            got = tok[1] or "end of input"
            raise ParseError(f"expected '.', got {got!r}", *tok[2])

    def parse(self) -> Program:
        tabled: set[tuple[int, int]] = set()
        items: list[tuple[Term, list[Term]]] = []
        while self._peek()[0] != "eof":
            if self._peek()[0] == ":-":
                self._next()
                kind, word, loc = self._next()
                if kind != "atom" or word != "table":
                    raise ParseError(f"unknown directive {word!r}", *loc)
                name = self._expect("atom")[1]
                self._expect("/")
                arity = int(self._expect("int")[1])
                tabled.add((intern_symbol(name), arity))
                self._clause_end()
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
            self._clause_end()
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
    parser._clause_end()
    if parser._peek()[0] != "eof":
        raise ParseError("trailing input after query", *parser._peek()[2])
    return term
