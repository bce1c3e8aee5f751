import random

import pytest

from tabling import Int
from tabling.errors import ProgramError
from tabling.oracle import oracle_solve
from tabling.parser import parse_program, parse_query
from tabling.program import Program
from tabling.terms import Var, compound, intern_symbol

PATH_LEFT = """
:- table path/2.
path(X,Z) :- path(X,Y), edge(Y,Z).
path(X,Z) :- edge(X,Z).
"""


def cycle_program(n):
    facts = "\n".join(f"edge({i},{i % n + 1})." for i in range(1, n + 1))
    return parse_program(PATH_LEFT + facts)


def test_cycle3_nine_pairs():
    answers = oracle_solve(cycle_program(3), parse_query("path(X,Y)"))
    assert answers == frozenset((Int(a), Int(b))
                                for a in (1, 2, 3) for b in (1, 2, 3))


def test_single_edge():
    program = parse_program(PATH_LEFT + "edge(1,2).")
    assert oracle_solve(program, parse_query("path(X,Y)")) == \
        frozenset({(Int(1), Int(2))})


def test_unsatisfiable_query_is_empty():
    program = parse_program(PATH_LEFT + "edge(1,2).")
    assert oracle_solve(program, parse_query("path(5,X)")) == frozenset()


def test_ground_query():
    program = cycle_program(3)
    assert oracle_solve(program, parse_query("path(1,3)")) == frozenset({()})
    assert oracle_solve(program, parse_query("path(1,4)")) == frozenset()


def test_repeated_query_variable():
    answers = oracle_solve(cycle_program(3), parse_query("path(X,X)"))
    assert answers == frozenset({(Int(1),), (Int(2),), (Int(3),)})


def _random_program(rng: random.Random) -> Program:
    """Small random Datalog over three binary relations; every derived
    predicate is tabled so validation accepts any recursion."""
    base = ["e", "f"]
    derived = ["p", "q", "r"]
    tabled = frozenset((intern_symbol(name), 2) for name in derived)
    program = Program(tabled=tabled)
    for name in base:
        for _ in range(rng.randrange(3, 8)):
            program.add_fact(compound(name, Int(rng.randrange(5)), Int(rng.randrange(5))))
    for name in derived:
        for _ in range(rng.randrange(1, 3)):
            body = []
            for _ in range(rng.randrange(1, 3)):
                body.append(compound(rng.choice(base + derived),
                                     Var(rng.randrange(3)), Var(rng.randrange(3))))
            head_vars = [Var(v) for lit in body for v in (lit.args[0].vid, lit.args[1].vid)]
            head = compound(name, rng.choice(head_vars), rng.choice(head_vars))
            program.add_clause(head, body)
    return program


def test_semi_naive_equals_naive_on_random_programs():
    rng = random.Random(2024)
    query = compound("p", Var(0), Var(1))
    for _ in range(25):
        program = _random_program(rng)
        assert oracle_solve(program, query) == oracle_solve(program, query, naive=True)


def test_monotone_under_added_facts():
    rng = random.Random(99)
    query = compound("p", Var(0), Var(1))
    for _ in range(10):
        program = _random_program(rng)
        before = oracle_solve(program, query)
        program.add_fact(compound("e", Int(rng.randrange(5)), Int(rng.randrange(5))))
        assert oracle_solve(program, query) >= before


def test_rejects_bad_query():
    with pytest.raises(ProgramError):
        oracle_solve(cycle_program(3), compound("path", Var(0), compound("f", Int(1))))
