import pytest

from tabling import Int
from tabling.bench import (
    BenchInstance,
    DESK_DEPTHS,
    EdgeConfig,
    GraphKind,
    PAPER_DEPTHS,
    Recursion,
    default_query,
    desk_instances,
    gen_edges,
    make_program,
    parse_bench_spec,
)
from tabling.engine import EvalConfig, solve_parallel
from tabling.errors import ConfigurationError
from tabling.oracle import oracle_solve
from tabling.program import Program
from tabling.tablespace import Design
from tabling.terms import Var, compound, intern_symbol


def test_cycle_depth3():
    assert gen_edges(EdgeConfig(GraphKind.CYCLE, 3)) == [(1, 2), (2, 3), (3, 1)]


def test_btree_depth2():
    assert gen_edges(EdgeConfig(GraphKind.BTREE, 2)) == [(1, 2), (1, 3)]


def test_grid_depth2_has_eight_directed_edges():
    edges = gen_edges(EdgeConfig(GraphKind.GRID, 2))
    assert len(edges) == 8
    assert set(edges) == {(1, 2), (2, 1), (1, 3), (3, 1), (2, 4), (4, 2), (3, 4), (4, 3)}


def test_pyramid_construction():
    assert gen_edges(EdgeConfig(GraphKind.PYRAMID, 1)) == []
    assert set(gen_edges(EdgeConfig(GraphKind.PYRAMID, 2))) == \
        {(1, 2), (1, 3), (2, 3), (3, 2)}
    edges = set(gen_edges(EdgeConfig(GraphKind.PYRAMID, 4)))
    # apex, two 3-node chains, bidirectional bottom rung
    assert edges == {(1, 2), (1, 5), (2, 3), (3, 4), (5, 6), (6, 7), (4, 7), (7, 4)}


def test_depth_cap_refused_without_override():
    with pytest.raises(ConfigurationError):
        gen_edges(EdgeConfig(GraphKind.CYCLE, DESK_DEPTHS[GraphKind.CYCLE] + 1))
    edges = gen_edges(EdgeConfig(GraphKind.CYCLE, PAPER_DEPTHS[GraphKind.CYCLE]),
                      allow_paper_scale=True)
    assert len(edges) == PAPER_DEPTHS[GraphKind.CYCLE]


def test_left_right_equivalence_all_kinds():
    for kind, depth in ((GraphKind.BTREE, 4), (GraphKind.PYRAMID, 6),
                        (GraphKind.CYCLE, 6), (GraphKind.GRID, 3)):
        cfg = EdgeConfig(kind, depth)
        left = oracle_solve(make_program(BenchInstance(Recursion.LEFT, cfg)),
                            default_query())
        right = oracle_solve(make_program(BenchInstance(Recursion.RIGHT, cfg)),
                             default_query())
        assert left == right


def test_answer_counts():
    q = default_query()
    cycle = make_program(BenchInstance(Recursion.LEFT, EdgeConfig(GraphKind.CYCLE, 5)))
    assert len(oracle_solve(cycle, q)) == 25  # d^2
    grid = make_program(BenchInstance(Recursion.LEFT, EdgeConfig(GraphKind.GRID, 3)))
    assert len(oracle_solve(grid, q)) == 81  # d^4, strongly connected
    btree = make_program(BenchInstance(Recursion.LEFT, EdgeConfig(GraphKind.BTREE, 3)))
    assert len(oracle_solve(btree, q)) == 10  # 6 + 2 + 2


def test_make_program_left_cycle3_solves_to_nine():
    program = make_program(BenchInstance(Recursion.LEFT, EdgeConfig(GraphKind.CYCLE, 3)))
    assert len(oracle_solve(program, default_query())) == 9


def _term_built(inst):
    x, y, z = Var(0), Var(1), Var(2)
    program = Program(tabled=frozenset({(intern_symbol("path"), 2)}))
    if inst.recursion is Recursion.LEFT:
        program.add_clause(compound("path", x, z),
                           [compound("path", x, y), compound("edge", y, z)])
    else:
        program.add_clause(compound("path", x, z),
                           [compound("edge", x, y), compound("path", y, z)])
    program.add_clause(compound("path", x, z), [compound("edge", x, z)])
    for src, dst in gen_edges(inst.config):
        program.add_fact(compound("edge", Int(src), Int(dst)))
    return program


def test_program_text_round_trips():
    # the text make_program parses encodes the path/2 program built from terms
    for inst in desk_instances():
        assert make_program(inst) == _term_built(inst), inst.name
    inst = parse_bench_spec("pathright:pyramid:5")
    program, q = make_program(inst), default_query()
    result = solve_parallel(program, q, EvalConfig(design=Design.SS, threads=1))
    assert result.answer_sets[0] == oracle_solve(_term_built(inst), q)


def test_parse_bench_spec():
    inst = parse_bench_spec("pathleft:grid:8")
    assert inst.recursion is Recursion.LEFT
    assert inst.config == EdgeConfig(GraphKind.GRID, 8)
    assert inst.name == "pathleft:grid:8"
    with pytest.raises(ConfigurationError):
        parse_bench_spec("pathneither:grid:8")
    with pytest.raises(ConfigurationError):
        parse_bench_spec("pathleft:grid")


def test_desk_instances_cover_the_matrix():
    names = {inst.name for inst in desk_instances()}
    assert names == {
        "pathleft:btree:10", "pathleft:pyramid:100", "pathleft:cycle:100",
        "pathleft:grid:8", "pathright:btree:10", "pathright:pyramid:100",
        "pathright:cycle:100", "pathright:grid:8",
    }


def test_depth_must_be_positive():
    with pytest.raises(ConfigurationError):
        EdgeConfig(GraphKind.CYCLE, 0)

