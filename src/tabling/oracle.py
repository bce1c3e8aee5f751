"""Independent reference solver: bottom-up Datalog evaluation to fixpoint.

Deliberately shares nothing with the tabled engine beyond the term and
program types.  Relations are plain sets of ground tuples and rules are
joined by scanning, so the code paths that could hide a correlated bug in
the trie-based engine simply do not exist here.
"""

from __future__ import annotations

from itertools import chain

from .program import Clause, Program, literal_of
from .terms import TAG_VAR, TRUE_TOK, Term, decode_answers

Row = tuple[int, ...]
Rel = dict[tuple[int, int], set[Row]]


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


def _rule_pass(rule: Clause, total: Rel, delta: Rel | None, out: set[Row]) -> None:
    """Derive head rows; with `delta`, one body literal at a time is
    restricted to the delta relation (textbook semi-naive)."""
    positions = range(len(rule.body)) if delta is not None else (None,)
    for dpos in positions:
        if delta is not None and not delta.get(rule.body[dpos].pred):
            continue
        envs = [dict()]
        for i, lit in enumerate(rule.body):
            source = delta if i == dpos else total
            rows = source.get(lit.pred, ())
            nxt = []
            for env in envs:
                for row in rows:
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
        known = total.setdefault(pred, set())
        fresh = rows - known
        if fresh:
            known |= fresh
            delta.setdefault(pred, set()).update(fresh)

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
    for row in _fixpoint(program, naive).get(lit.pred, ()):
        env = _match(lit.args, row, {})
        if env is not None:
            answers.add(tuple(env[j] for j in range(nvars)) or (TRUE_TOK,))
    return frozenset(decode_answers(list(chain.from_iterable(answers)), nvars or 1))
