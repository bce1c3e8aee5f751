import pytest

from tabling.errors import ParseError, ProgramError
from tabling.parser import parse_program, parse_query
from tabling.program import pred_str
from tabling.terms import Int, Var, compound, intern_symbol


def test_basic_program():
    program = parse_program(":- table path/2.\npath(X,Z) :- edge(X,Z).\nedge(1,2).")
    path = (intern_symbol("path"), 2)
    edge = (intern_symbol("edge"), 2)
    assert program.tabled == frozenset({path})
    assert len(program.clauses[path]) == 1
    assert program.facts[edge] == [(Int(1).value << 3 | 1, Int(2).value << 3 | 1)]


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
