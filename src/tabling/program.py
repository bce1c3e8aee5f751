"""Datalog programs: tabled declarations, clauses, and ground facts.

Clauses are stored pre-flattened: every argument is a packed token, either a
ground value (int/atom) or a variable token whose index is clause-local in
first-occurrence order over head then body.  Queries take the same shape
through `literal_of`.  Both the engine and the reference solver consume it;
they share nothing else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ProgramError
from .terms import (
    TAG_VAR,
    Compound,
    Term,
    Var,
    intern_symbol,
    symbol_name,
    tok_str,
    var_tok,
)

Pred = tuple[int, int]  # (symbol id, arity)


def pred_str(pred: Pred) -> str:
    return f"{symbol_name(pred[0])}/{pred[1]}"


@dataclass(frozen=True)
class Literal:
    pred: Pred
    args: tuple[int, ...]

    def __str__(self) -> str:
        if not self.args:
            return symbol_name(self.pred[0])
        return f"{symbol_name(self.pred[0])}({', '.join(tok_str(a) for a in self.args)})"


@dataclass(frozen=True)
class Clause:
    head: Literal
    body: tuple[Literal, ...]
    nvars: int

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(map(str, self.body))}."


WORD = r"\w+"  # the parser's word token, an atom or a variable name
_WORD = re.compile(WORD)


def is_atom_name(name: str) -> bool:
    """Whether the parser reads `name` as the atom of that name: one word
    whose first character is a letter and not an uppercase one.  Any other
    name would print as something else, an int or a variable for one."""
    return _WORD.fullmatch(name) is not None and name[0].isalpha() and not name[0].isupper()


def _atom(name: str) -> int:
    """The symbol of the atom `name`; a ProgramError unless the parser
    would read the name back as that atom."""
    if not is_atom_name(name):
        raise ProgramError(f"not an atom name: {name!r}; an atom name is letters, digits "
                           "and underscores, starting with a letter that is not uppercase")
    return intern_symbol(name)


def _flat_arg(t: Term, varmap: dict[int, int]) -> int:
    if isinstance(t, Var):
        idx = varmap.get(t.vid)
        if idx is None:
            idx = len(varmap)
            varmap[t.vid] = idx
        return var_tok(idx)
    if type(t) is int:  # exact: a bool is no constant
        return t << 3 | 1
    if type(t) is str:
        return _atom(t) << 3 | 2
    raise ProgramError(f"non-flat argument {t}; only atoms, integers and variables allowed")


def literal_of(t: Term, varmap: dict[int, int]) -> Literal:
    """Flatten a literal, numbering its variables in first-occurrence order
    after those already in `varmap`.  With a fresh map this is the variant
    form of a call: two calls are variants exactly when their literals are
    equal.  Anything but a flat literal is a ProgramError."""
    if type(t) is str:
        return Literal((_atom(t), 0), ())
    if isinstance(t, Compound):
        return Literal((t.functor, len(t.args)),
                       tuple(_flat_arg(a, varmap) for a in t.args))
    if isinstance(t, Var):  # its source name is gone; do not print an internal one
        raise ProgramError("not a valid literal: a variable")
    raise ProgramError(f"not a valid literal: {t}")


def clause_of(head: Term, body: list[Term]) -> Clause:
    varmap: dict[int, int] = {}
    h = literal_of(head, varmap)
    b = tuple(literal_of(lit, varmap) for lit in body)
    return Clause(h, b, len(varmap))


@dataclass
class Program:
    """A program, and the engine's compiled form of it once it has been
    solved.  `add_clause`, `add_fact`, `add_rows` and assigning a field
    drop the compiled form, so the next solve compiles the edited program;
    edit the clause and fact lists only through those.  Edits must not run
    concurrently with a solve of the same program."""

    tabled: frozenset[Pred] = field(default_factory=frozenset)
    clauses: dict[Pred, list[Clause]] = field(default_factory=dict)
    facts: dict[Pred, list[tuple[int, ...]]] = field(default_factory=dict)
    compiled: object | None = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name != "compiled":
            object.__setattr__(self, "compiled", None)

    def add_clause(self, head: Term, body: list[Term]) -> None:
        cl = clause_of(head, body)
        if not body:
            for k, tok in enumerate(cl.head.args, 1):
                if tok & 7 == TAG_VAR:
                    raise ProgramError(f"non-ground fact for {pred_str(cl.head.pred)}: "
                                       f"argument {k} is a variable")
            self.add_rows(cl.head.pred, [cl.head.args])
            return
        if self.compiled is not None:  # read first: assigning runs __setattr__
            self.compiled = None
        self.clauses.setdefault(cl.head.pred, []).append(cl)

    def add_rows(self, pred: Pred, rows: list[tuple[int, ...]]) -> None:
        """Add ground facts of `pred`, each a row of value tokens.  A row of
        a tabled predicate is a bodyless clause, so evaluation derives it;
        any other row is a fact."""
        if self.compiled is not None:  # read first: assigning runs __setattr__
            self.compiled = None
        if pred in self.tabled:
            self.clauses.setdefault(pred, []).extend(
                Clause(Literal(pred, row), (), 0) for row in rows)
        else:
            self.facts.setdefault(pred, []).extend(rows)

    def add_fact(self, fact: Term) -> None:
        self.add_clause(fact, [])

    def validate(self) -> None:
        """Reject clauses that are not range-restricted, and every cycle of
        calls made only of views, predicates with clauses that are not
        tabled: a recursive predicate must be declared tabled."""
        for pred, clauses in self.clauses.items():
            for cl in clauses:
                body_vars = {a for lit in cl.body for a in lit.args if a & 7 == TAG_VAR}
                for k, a in enumerate(cl.head.args, 1):
                    if a & 7 == TAG_VAR and a not in body_vars:
                        raise ProgramError(
                            f"clause for {pred_str(pred)} is not range-restricted: "
                            f"head argument {k} is a variable that never occurs in the body"
                        )
        views = {pred: {lit.pred for cl in clauses for lit in cl.body}
                 for pred, clauses in self.clauses.items() if pred not in self.tabled}
        done: set[Pred] = set()
        for root in views:
            if root in done:
                continue
            # depth first on an explicit stack: the views on the current
            # path, in order, each with the callees it has left to visit
            path = {root: iter(views[root])}
            while path:
                for callee in path[next(reversed(path))]:
                    if callee in path:
                        cycle = [*path][[*path].index(callee):] + [callee]
                        raise ProgramError(
                            f"recursive predicate {pred_str(callee)} must be tabled: "
                            + " -> ".join(map(pred_str, cycle)))
                    if callee in views and callee not in done:
                        path[callee] = iter(views[callee])
                        break
                else:
                    done.add(path.popitem()[0])
