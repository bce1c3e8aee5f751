"""Independent reference solver: bottom-up Datalog evaluation to fixpoint.

Deliberately shares nothing with the tabled engine beyond the term and
program types.  Relations are plain sets of ground tuples, and rules are
joined literal by literal through dict indexes on the bound argument
positions, so the code paths that could hide a correlated bug in the
trie-based engine (tries, answer logs, compiled join kernels) simply do not
exist here.
"""

from __future__ import annotations

from itertools import chain

from .program import Clause, Program, literal_of
from .terms import TAG_VAR, TRUE_TOK, Term, decode_answers

Row = tuple[int, ...]


class _Relation:
    """A relation's rows, and an index of them per set of bound argument
    positions: made on the first join that binds those positions and kept
    up to date as rows are added."""

    def __init__(self) -> None:
        self.rows: set[Row] = set()
        self.indexes: dict[tuple[int, ...], dict[Row, list[Row]]] = {}

    def add(self, rows: set[Row]) -> set[Row]:
        """Add `rows`; returns those that were new."""
        fresh = rows - self.rows
        self.rows |= fresh
        for positions, index in self.indexes.items():
            for row in fresh:
                index.setdefault(tuple(row[p] for p in positions), []).append(row)
        return fresh

    def select(self, positions: tuple[int, ...], key: Row):
        """The rows whose values at `positions` are `key`."""
        if not positions:
            return self.rows
        index = self.indexes.get(positions)
        if index is None:
            index = self.indexes[positions] = {}
            for row in self.rows:
                index.setdefault(tuple(row[p] for p in positions), []).append(row)
        return index.get(key, ())


Rel = dict[tuple[int, int], _Relation]


def _match(lit_args: tuple[int, ...], row: Row, env: dict[int, int]) -> dict[int, int] | None:
    out = env
    copied = False
    for a, v in zip(lit_args, row):
        if a & 7 == TAG_VAR:
            s = a >> 3
            bound = out.get(s)
            if bound is None:
                if not copied:
                    out = dict(out)
                    copied = True
                out[s] = v
            elif bound != v:
                return None
        elif a != v:
            return None
    return out


def _bound_positions(rule: Clause) -> list[tuple[int, ...]]:
    """Per body literal, the argument positions bound when it is joined: a
    constant, or a variable that an earlier literal binds."""
    seen: set[int] = set()
    out = []
    for lit in rule.body:
        out.append(tuple(k for k, a in enumerate(lit.args) if a & 7 != TAG_VAR or a in seen))
        seen.update(a for a in lit.args if a & 7 == TAG_VAR)
    return out


def _rule_pass(rule: Clause, total: Rel, delta: Rel | None, out: set[Row]) -> None:
    """Derive head rows; with `delta`, one body literal at a time is
    restricted to the delta relation (textbook semi-naive).  Each literal
    is joined through its relation's index on the positions already bound."""
    bound = _bound_positions(rule)
    positions = range(len(rule.body)) if delta is not None else (None,)
    for dpos in positions:
        if delta is not None and rule.body[dpos].pred not in delta:
            continue
        envs = [dict()]
        for i, lit in enumerate(rule.body):
            rel = (delta if i == dpos else total).get(lit.pred)
            if rel is None:
                envs = []
                break
            keyed = [lit.args[k] for k in bound[i]]
            nxt = []
            for env in envs:
                key = tuple(env[a >> 3] if a & 7 == TAG_VAR else a for a in keyed)
                for row in rel.select(bound[i], key):
                    got = _match(lit.args, row, env)
                    if got is not None:
                        nxt.append(got)
            envs = nxt
            if not envs:
                break
        for env in envs:
            out.add(tuple(env[a >> 3] if a & 7 == TAG_VAR else a
                          for a in rule.head.args))


def _fixpoint(program: Program, naive: bool) -> Rel:
    total: Rel = {}
    delta: Rel = {}

    def absorb(pred, rows):
        fresh = total.setdefault(pred, _Relation()).add(rows)
        if fresh:
            delta.setdefault(pred, _Relation()).add(fresh)

    for pred, rows in program.facts.items():
        absorb(pred, set(rows))
    rules = []
    for pred, clauses in program.clauses.items():
        for cl in clauses:
            if cl.body:
                rules.append(cl)
            else:
                absorb(pred, {cl.head.args})

    while delta:
        last, delta = delta, {}
        for rule in rules:
            out: set[Row] = set()
            _rule_pass(rule, total, None if naive else last, out)
            absorb(rule.head.pred, out)
    return total


def oracle_solve(program: Program, query: Term, naive: bool = False) -> frozenset[tuple[Term, ...]]:
    """All substitutions for the query's variables in the minimal model.

    Substitution tuples follow first-occurrence variable order; a ground
    query yields {()} when provable and the empty set otherwise.
    """
    program.validate()
    lit = literal_of(query, {})
    nvars = len({a for a in lit.args if a & 7 == TAG_VAR})
    answers = set()
    rel = _fixpoint(program, naive).get(lit.pred)
    for row in rel.rows if rel is not None else ():
        env = _match(lit.args, row, {})
        if env is not None:
            answers.add(tuple(env[j] for j in range(nvars)) or (TRUE_TOK,))
    return frozenset(decode_answers(list(chain.from_iterable(answers)), nvars or 1))
