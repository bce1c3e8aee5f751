"""Parser for the textual program format.

Grammar:
    :- table name/arity.          table directive, arity 0 or more
    head :- lit, ..., lit.        clause
    name(args).                   fact
Atoms start lowercase, variables uppercase or underscore, integers are
signed decimals, `%` starts a line comment.  Arguments are flat (Datalog):
each is read as one token, so no input depth reaches the Python stack.

Facts take the row path: at the start of each statement one regular
expression tries to match a ground fact whose name and atoms are ASCII
`[a-z][A-Za-z0-9_]*`, whose integers are `-?[0-9]+` of at most 640 digits
and which has only spaces and tabs inside its parentheses, and a match
becomes a row of packed tokens with no term built for it.  Every other
statement goes to the token parser, which reads the text one token at a
time and produces every error.
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError, ProgramError
from .program import WORD, Pred, Program, is_atom_name
from .terms import Term, Token, Var, atom_tok, compound, int_tok, intern_symbol

# one alternative per token class, tried in order at each offset; digits are
# decimal digits (`\d`, what `int` accepts), words are letters, digits and
# underscores, and anything else is one unexpected character
_TOKEN = re.compile(rf"""
    (?P<skip>[ \t\r\n]+|%[^\n]*)
  | (?P<punct>:-|[()./,])
  | (?P<int>-?\d+)
  | (?P<word>{WORD})
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# a ground fact at a statement start, after blanks and whole comment lines
# (a comment must end in a newline, so the prefix cannot backtrack); group 1
# is its name and group 2 its comma-separated arguments.  640 digits is the
# least int() limit CPython allows, so int() takes every integer here
_ARG = r"[ \t]*(?:-?[0-9]{1,640}|[a-z][A-Za-z0-9_]*)[ \t]*"
_FACT = re.compile(rf"[ \t\r\n]*(?:%[^\n]*\n[ \t\r\n]*)*"
                   rf"([a-z][A-Za-z0-9_]*)\(({_ARG}(?:,{_ARG})*)\)\.")


def _arg_token(text: str) -> Token:
    """The packed token of a row-path fact argument."""
    arg = text.strip(" \t")
    return atom_tok(intern_symbol(arg)) if arg[0].isalpha() else int_tok(int(arg))


class _Parser:
    """The fact row path, and a token parser over an on-demand lexer with
    one token of look-ahead."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0  # where the lexer reads next
        self._tok: tuple[str, str, int] | None = None  # the look-ahead token
        self._vars: dict[str, int] = {}

    def _where(self, offset: int) -> tuple[int, int]:
        """The line and column of `offset`, counted by the newlines before it."""
        text = self._text
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    def _error(self, msg: str, offset: int) -> ParseError:
        return ParseError(msg, *self._where(offset))

    def _int(self, digits: str, offset: int) -> int:
        """The value of an int token, a ParseError at it past int()'s digit limit."""
        try:
            return int(digits)
        except ValueError:
            raise self._error(f"integer of {len(digits.lstrip('-'))} digits; the limit is "
                              f"{sys.get_int_max_str_digits()}", offset) from None

    def _scan(self) -> tuple[str, str, int]:
        """(kind, value, offset) of the token at `_pos`, or an "eof"."""
        text = self._text
        while (m := _TOKEN.match(text, self._pos)) is not None:
            self._pos = m.end()
            kind, value = m.lastgroup, m.group()
            if kind == "skip":
                continue
            if kind == "punct":
                kind = value
            elif kind == "word":
                ch = value[0]
                if not (ch.isalpha() or ch == "_"):  # a non-decimal numeric
                    raise self._error(f"unexpected character {ch!r}", m.start())
                kind = "atom" if is_atom_name(value) else "var"
            elif kind == "bad":
                raise self._error(f"unexpected character {value!r}", m.start())
            return kind, value, m.start()
        return "eof", "", len(text)

    def _peek(self):
        if self._tok is None:
            self._tok = self._scan()
        return self._tok

    def _next(self):
        tok = self._peek()
        self._tok = None
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

    def _term(self, arg: bool = False) -> Term:
        """A literal, or with `arg` one of its arguments, which is flat."""
        kind, value, loc = self._next()
        if kind == "int":
            return self._int(value, loc)
        if kind == "var":
            return self._var(value)
        if kind == "atom":
            if self._peek()[0] != "(":
                return value
            if arg:
                line, col = self._where(self._peek()[2])
                raise ProgramError(f"{line}:{col}: non-flat argument {value}(...); "
                                   "only atoms, integers and variables allowed")
            self._next()
            args = [self._term(True)]
            while self._peek()[0] == ",":
                self._next()
                args.append(self._term(True))
            self._expect(")")
            return compound(value, *args)
        raise self._error(f"expected a term, got {value!r}" if value else
                          "expected a term, got end of input", loc)

    def parse(self) -> Program:
        text, fact = self._text, _FACT.match
        tabled: set[Pred] = set()
        # in text order: (head, body) of a parsed clause, or (pred, rows) of
        # a run of consecutive row-path facts of one predicate
        items: list[tuple[Term, list[Term]] | tuple[Pred, list[tuple[Token, ...]]]] = []
        run_name, run_arity, run_rows = None, 0, []
        while True:  # each statement starts with no token looked ahead
            m = fact(text, self._pos)
            if m is not None:
                self._pos = m.end()
                name, args = m.groups()
                row = tuple(map(_arg_token, args.split(",")))
                if name != run_name or len(row) != run_arity:
                    run_name, run_arity, run_rows = name, len(row), []
                    items.append(((intern_symbol(name), run_arity), run_rows))
                run_rows.append(row)
                continue
            run_name = None
            kind = self._peek()[0]
            if kind == "eof":
                break
            if kind == ":-":
                self._next()
                kind, word, loc = self._next()
                if kind != "atom" or word != "table":
                    raise self._error(f"unknown directive {word!r}", loc)
                name = self._expect("atom")[1]
                self._expect("/")
                _, digits, loc = self._expect("int")
                arity = self._int(digits, loc)
                if arity < 0:
                    raise self._error("negative arity in a table directive", loc)
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
        for key, value in items:
            if isinstance(key, Term):
                program.add_clause(key, value)
            else:
                program.add_rows(key, value)
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
