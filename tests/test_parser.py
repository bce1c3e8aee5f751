import random
import sys

import pytest

from tabling import Int
from tabling.bench import Recursion, desk_instances, gen_edges, program_text
from tabling.errors import ParseError, ProgramError
from tabling.parser import parse_program, parse_query
from tabling.program import Program, pred_str
from tabling.terms import Var, atom, compound, intern_symbol


def test_basic_program():
    program = parse_program(":- table path/2.\npath(X,Z) :- edge(X,Z).\nedge(1,2).")
    path = (intern_symbol("path"), 2)
    edge = (intern_symbol("edge"), 2)
    assert program.tabled == frozenset({path})
    assert len(program.clauses[path]) == 1
    assert program.facts[edge] == [(1 << 3 | 1, 2 << 3 | 1)]


def test_missing_period_is_a_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_program("path(X,Z) :- edge(X,Z)")
    assert "end of input" in str(err.value)


def test_range_restriction_rejected_with_diagnosis():
    with pytest.raises(ProgramError) as err:
        parse_program(":- table p/2.\np(X,Y) :- edge(X,X).")
    assert "range-restricted" in str(err.value)


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_program("edge(1,2).\nedge(3 4).\n")
    assert err.value.line == 2
    assert err.value.col > 1


def test_comments_and_negative_ints():
    program = parse_program(
        "% transitive closure fixture\n"
        ":- table path/2.\n"
        "path(X,Z) :- edge(X,Z).  % base\n"
        "edge(-3,4).\n")
    edge = (intern_symbol("edge"), 2)
    assert program.facts[edge] == [((-3) << 3 | 1, 4 << 3 | 1)]


def test_anonymous_vars_are_distinct():
    program = parse_program(":- table q/1.\nq(X) :- edge(X,_), edge(_,X).\n"
                            "edge(1,2).")
    q = (intern_symbol("q"), 1)
    clause = program.clauses[q][0]
    assert clause.nvars == 3


def test_non_ground_fact_rejected():
    with pytest.raises(ProgramError):
        parse_program("edge(1,X).")


def test_non_tabled_recursion_rejected():
    with pytest.raises(ProgramError) as err:
        parse_program("p(X) :- q(X).\nq(X) :- p(X).\nq(1).")
    assert "tabled" in str(err.value)


def test_tabled_fact_is_a_clause():
    program = parse_program(":- table p/1.\np(1).\np(X) :- p(X).")
    p = (intern_symbol("p"), 1)
    assert len(program.clauses[p]) == 2
    assert p not in program.facts


def test_unknown_directive():
    with pytest.raises(ParseError):
        parse_program(":- tabulate p/2.")


def test_parse_query():
    q = parse_query("path(X, Y)")
    assert q == compound("path", Var(0), Var(1))
    assert parse_query("path(1,2).") == compound("path", Int(1), Int(2))


def test_pred_str():
    assert pred_str((intern_symbol("path"), 2)) == "path/2"


def test_error_positions_count_lines_and_columns():
    cases = {
        "edge(1,2).\n  edge(3 4).\n": (2, 10, "expected ')', got '4'"),
        "% c\nedge(1,2)": (2, 10, "expected '.', got 'end of input'"),
        "edge(1,2).\r\n\tp(a) :- q(#).": (2, 12, "unexpected character '#'"),
        "p(a).\n\n- 1.": (3, 1, "unexpected character '-'"),
    }
    for text, (line, col, msg) in cases.items():
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.col) == (line, col), text
        assert str(err.value) == f"{line}:{col}: {msg}"


def test_non_decimal_digit_is_an_unexpected_character():
    # integers take decimal digits only, the characters int() accepts
    for text, col in (("p(²).", 3), ("p(1²).", 4), ("p(½).", 3)):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.col) == (1, col)
        assert "unexpected character" in str(err.value)


# parse_program against a Program built term by term through add_clause and
# add_fact: facts take the parser's row path, everything else its token path


def built(tabled, items):
    """A Program with `tabled` (name, arity) pairs, then each item added in
    order: a term is a fact, a (head, body) pair a clause."""
    program = Program(tabled=frozenset((intern_symbol(n), a) for n, a in tabled))
    for item in items:
        if isinstance(item, tuple):
            program.add_clause(*item)
        else:
            program.add_fact(item)
    return program


X, Y, Z = Var(0), Var(1), Var(2)


def test_desk_instances_parse_to_the_programs_built_from_terms():
    for inst in desk_instances():
        if inst.recursion is Recursion.LEFT:
            rule = (compound("path", X, Z), [compound("path", X, Y), compound("edge", Y, Z)])
        else:
            rule = (compound("path", X, Z), [compound("edge", X, Y), compound("path", Y, Z)])
        base = (compound("path", X, Z), [compound("edge", X, Z)])
        edges = [compound("edge", Int(a), Int(b)) for a, b in gen_edges(inst.config)]
        expected = built([("path", 2)], [rule, base, *edges])
        assert parse_program(program_text(inst)) == expected, inst.name


def test_seeded_fact_text_parses_to_the_program_built_from_terms():
    rng = random.Random(18)
    atoms = ["a", "bob", "x_Y9", "tABLE", "zz0"]

    def arg():
        """(source text, term) of one fact argument."""
        kind = rng.randrange(5)
        if kind == 0:
            name = rng.choice(atoms)
            return name, atom(name)
        if kind == 1:
            return "-0", Int(0)
        if kind == 2:
            v = rng.randrange(100)
            return f"00{v}", Int(v)
        v = rng.randrange(-10**12, 10**12)
        return str(v), Int(v)

    lines, facts = [], []
    for _ in range(2000):
        name, arity = rng.choice([("e", 2), ("r", 1), ("r", 2), ("w", 4)])
        args = [arg() for _ in range(arity)]
        blank = rng.choice(["", " ", "\t", " \t "])
        lines.append(f"{name}({blank}{(blank + ',' + blank).join(t for t, _ in args)}{blank}).")
        facts.append(compound(name, *(term for _, term in args)))
    text = "".join(line + rng.choice(["\n", " ", "\r\n", "\n% note\n", "\n\n  "])
                   for line in lines)
    program = parse_program(text)
    assert program == built([], facts)
    assert set(program.facts) == {(intern_symbol(n), a)
                                  for n, a in [("e", 2), ("r", 1), ("r", 2), ("w", 4)]}


def test_tabled_rows_stay_in_text_order_among_the_rules():
    text = (
        "t(1,2).\n"
        ":- table u/1.\n"
        "u(5).\n"
        "t(X,Y) :- e(X,Y).\n"
        "e(1,2). e(2,3).\n"
        "t(3,4).\n"
        "u(X) :- e(X,_).\n"
        "t(5,6).\n"
        "u(6). u(7).\n"
        ":- table t/2.\n"
        "t(7,8).\n")
    expected = built([("t", 2), ("u", 1)], [
        compound("t", Int(1), Int(2)),
        compound("u", Int(5)),
        (compound("t", X, Y), [compound("e", X, Y)]),
        compound("e", Int(1), Int(2)), compound("e", Int(2), Int(3)),
        compound("t", Int(3), Int(4)),
        (compound("u", X), [compound("e", X, Y)]),
        compound("t", Int(5), Int(6)),
        compound("u", Int(6)), compound("u", Int(7)),
        compound("t", Int(7), Int(8)),
    ])
    program = parse_program(text)
    assert program == expected
    t = (intern_symbol("t"), 2)
    assert [str(cl) for cl in program.clauses[t]] == \
        ["t(1, 2).", "t(V0, V1) :- e(V0, V1).", "t(3, 4).", "t(5, 6).", "t(7, 8)."]
    assert t not in program.facts


def test_facts_outside_the_row_form_parse_to_the_same_rows_in_order():
    text = ("e(1,2).\n"
            "e(3,\n 4).\n"           # a newline inside the parentheses
            "e(5, % five\n 6).\n"    # a comment inside them
            "e(7,8).\n"
            "p.\n"                     # zero arity
            "q(\u00e9t\u00e9). q(a\u00e9). q(b).\n"  # non-ASCII atoms
            "e (9,10).\n"             # a blank before the parenthesis
            "p. q(c).")
    expected = built([], [
        compound("e", Int(1), Int(2)), compound("e", Int(3), Int(4)),
        compound("e", Int(5), Int(6)), compound("e", Int(7), Int(8)),
        atom("p"),
        compound("q", atom("\u00e9t\u00e9")), compound("q", atom("a\u00e9")), compound("q", atom("b")),
        compound("e", Int(9), Int(10)),
        atom("p"), compound("q", atom("c")),
    ])
    assert parse_program(text) == expected


def test_one_name_at_two_arities_gives_two_predicates():
    program = parse_program("s(1). s(1,2). s(a). s(b,c).\n:- table s/2.")
    assert program == built([("s", 2)], [
        compound("s", Int(1)), compound("s", Int(1), Int(2)),
        compound("s", atom("a")), compound("s", atom("b"), atom("c"))])
    assert (intern_symbol("s"), 1) in program.facts
    assert len(program.clauses[(intern_symbol("s"), 2)]) == 2


def test_errors_after_many_row_path_facts_keep_their_positions():
    prefix = "".join(f"edge({i},{i + 1}).\n" for i in range(1000))
    cases = {
        "edge(3 4).": (1001, 8, "expected ')', got '4'"),
        "p(1\u00b2).": (1001, 4, "unexpected character '\u00b2'"),
        "p(\u00bd).": (1001, 3, "unexpected character '\u00bd'"),
        "  edge(1,2)": (1001, 12, "expected '.', got 'end of input'"),
    }
    for text, (line, col, msg) in cases.items():
        with pytest.raises(ParseError) as err:
            parse_program(prefix + text)
        assert (err.value.line, err.value.col) == (line, col), text
        assert str(err.value) == f"{line}:{col}: {msg}"
    with pytest.raises(ProgramError) as err:
        parse_program(prefix + "edge(1,X).")
    assert not isinstance(err.value, ParseError)
    assert str(err.value) == "non-ground fact for edge/2: argument 2 is a variable"


# input limits: arguments are read flat, so depth never reaches the Python
# stack, and an integer int() refuses is a parse error at its token

NESTED = "f(" * 5000 + "1" + ")" * 5000
DIGITS = "7" * 5000

# a row fact, a rule and a query with `{arg}` as an argument, and the line
# and column where it starts
LIMIT_SITES = [
    (parse_program, "e(1).\np(1,{arg}).\n", (2, 5)),
    (parse_program, ":- table p/2.\np(X,Y) :- e(X), e({arg}), e(Y).\n", (2, 19)),
    (parse_query, "p(X, {arg})", (1, 6)),
]


@pytest.mark.parametrize("parse, text, where", LIMIT_SITES, ids=["fact", "rule", "query"])
def test_nested_argument_is_a_located_program_error(parse, text, where):
    with pytest.raises(ProgramError) as err:
        parse(text.format(arg=NESTED))
    assert not isinstance(err.value, ParseError)  # exit 1, as for any other non-flat argument
    line, col = where
    assert str(err.value) == (f"{line}:{col + 1}: non-flat argument f(...); "
                              "only atoms, integers and variables allowed")


@pytest.mark.parametrize("parse, text, where", LIMIT_SITES + [
    (parse_program, "e(1).\n  :- table p/{arg}.\n", (2, 14)),
], ids=["fact", "rule", "query", "arity"])
def test_integer_past_the_digit_limit_is_a_located_parse_error(parse, text, where):
    with pytest.raises(ParseError) as err:
        parse(text.format(arg=DIGITS))
    assert (err.value.line, err.value.col) == where
    assert str(err.value).endswith(f"integer of 5000 digits; the limit is "
                                   f"{sys.get_int_max_str_digits()}")
    sign = "" if "table p/{arg}" in text else "-"  # an arity is never negative
    assert parse(text.format(arg=sign + DIGITS[:4000])) is not None  # within the limit


def test_negative_table_arity_is_a_located_parse_error():
    with pytest.raises(ParseError) as err:
        parse_program(":- table p/-1.\ne(1).")
    assert (err.value.line, err.value.col) == (1, 12)
    assert str(err.value) == "1:12: negative arity in a table directive"
    assert parse_program(":- table p/0.\ne(1).").tabled == {(intern_symbol("p"), 0)}
