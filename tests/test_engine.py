import gc
import importlib.util
import io
import pathlib
import random
import re
import sys
import threading
import tokenize
import types

import pytest

from tabling import Int, engine, terms, trie
from tabling.bench import default_query, make_program, parse_bench_spec
from tabling.engine import EvalConfig, solve_parallel
from tabling.errors import ConfigurationError, EvaluationError, ProgramError
from tabling.oracle import oracle_solve
from tabling.parser import parse_program, parse_query
from tabling.program import Program, literal_of
from tabling.tablespace import (COMPLETE, Design, SubgoalEntry, SubgoalFrame, Table, TableEntry,
                                answer_width)
from tabling.terms import (TRUE_TOK, Compound, Var, atom_tok, compound, int_tok, intern_symbol,
                           var_tok)
from tabling.trie import HASH_THRESHOLD, SyncMode, TrieNode


def bench_program(spec):
    inst = parse_bench_spec(spec)
    return make_program(inst), default_query()


def test_path_left_cycle3_nine_answers():
    program, query = bench_program("pathleft:cycle:3")
    answers = solve_parallel(program, query,
                             EvalConfig(design=Design.NS, threads=1)).answer_sets[0]
    assert answers == frozenset((Int(a), Int(b)) for a in (1, 2, 3) for b in (1, 2, 3))
    assert answers == oracle_solve(program, query)


def test_path_right_btree3_ten_answers():
    # 7-node complete binary tree: proper-descendant counts 6 + 2 + 2
    program, query = bench_program("pathright:btree:3")
    answers = solve_parallel(program, query,
                             EvalConfig(design=Design.NS, threads=1)).answer_sets[0]
    assert len(answers) == 10
    assert answers == oracle_solve(program, query)


def test_no_matching_facts_completes_empty():
    program = parse_program(":- table path/2.\n"
                            "path(X,Z) :- path(X,Y), edge(Y,Z).\n"
                            "path(X,Z) :- edge(X,Z).\n"
                            "edge(7,8).")
    answers = solve_parallel(program, parse_query("path(1,X)"),
                             EvalConfig(design=Design.NS, threads=1)).answer_sets[0]
    assert answers == frozenset()


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("spec", ["pathleft:cycle:6", "pathright:cycle:6",
                                  "pathleft:grid:3", "pathright:grid:3",
                                  "pathleft:pyramid:6", "pathright:pyramid:6",
                                  "pathleft:btree:4", "pathright:btree:4"])
def test_all_designs_match_oracle(design, spec):
    program, query = bench_program(spec)
    want = oracle_solve(program, query)
    got = solve_parallel(program, query,
                         EvalConfig(design=design, threads=1)).answer_sets[0]
    assert got == want


def test_single_thread_parallel_repeats_identically():
    program, query = bench_program("pathright:cycle:8")
    result = solve_parallel(program, query, EvalConfig(design=Design.FS, threads=1))
    again = solve_parallel(program, query, EvalConfig(design=Design.FS, threads=1))
    assert again.counters.as_dict() == result.counters.as_dict()
    assert again.answer_sets == result.answer_sets


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("sync", [SyncMode.LOCK, SyncMode.TRYLOCK])
def test_parallel_answer_sets_match_oracle(design, sync):
    program, query = bench_program("pathright:grid:4")
    want = oracle_solve(program, query)
    result = solve_parallel(program, query,
                            EvalConfig(design=design, sync=sync, threads=8))
    assert all(a == want for a in result.answer_sets)


class _RecordingLock:
    """A trie write lock that records whether each acquire may block."""

    def __init__(self, acquires):
        self._lock = threading.Lock()
        self.acquires = acquires

    def acquire(self, blocking=True, timeout=-1):
        self.acquires.append(blocking)
        return self._lock.acquire(blocking, timeout)

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


@pytest.mark.parametrize("design", [Design.SS, Design.FS])
@pytest.mark.parametrize("sync", [SyncMode.LOCK, SyncMode.TRYLOCK])
def test_trylock_never_blocks_and_lock_always_does(monkeypatch, design, sync):
    # every trie lock a 2-thread solve takes, subgoal leaves and their
    # payloads included, is taken as the lock mode says
    acquires = []
    monkeypatch.setattr(trie, "new_locks",
                        lambda: [_RecordingLock(acquires) for _ in range(trie.N_LOCKS)])
    program, query = bench_program("pathright:cycle:6")
    result = solve_parallel(program, query, EvalConfig(design, sync, 2))
    assert all(a == oracle_solve(program, query) for a in result.answer_sets)
    assert acquires
    assert set(acquires) == {sync is SyncMode.LOCK}


def test_fs_preempted_answer_inserts_lose_nothing():
    # a switch every microsecond preempts threads between an answer-trie
    # insert and the append to the shared answer log
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for spec in ("pathleft:cycle:30", "pathleft:pyramid:30"):
            program, query = bench_program(spec)
            want = oracle_solve(program, query)
            base = solve_parallel(program, query,
                                  EvalConfig(design=Design.FS, threads=1)).counters
            for _ in range(10):
                for sync in (SyncMode.LOCK, SyncMode.TRYLOCK):
                    result = solve_parallel(program, query, EvalConfig(
                        design=Design.FS, sync=sync, threads=4))
                    assert all(a == want for a in result.answer_sets), (spec, sync)
                    # no allocation is lost or counted twice between the
                    # threads' own tallies
                    c = result.counters
                    assert (c.sts, c.ats, c.se, c.sf) == \
                        (base.sts, base.ats, base.se, 4 * base.sf), (spec, sync)
    finally:
        sys.setswitchinterval(interval)


def test_threads_share_one_answer_set_per_distinct_log():
    # FS frames read one log; NS/SS private logs hold the same tokens in the
    # same order, so every design decodes its answers once
    program, query = bench_program("pathleft:btree:6")
    want = oracle_solve(program, query)
    for design in Design:
        for sync in (SyncMode.LOCK, SyncMode.TRYLOCK):
            for threads in (2, 4):
                sets = solve_parallel(program, query,
                                      EvalConfig(design, sync, threads)).answer_sets
                assert len(sets) == threads and sets[0] == want, (design, sync, threads)
                assert all(s is sets[0] for s in sets), (design, sync, threads)


def test_fs_log_grown_after_completion_raises(monkeypatch):
    # thread 1 waits until thread 0 has returned, then logs one more answer
    # on the shared log: thread 0's set would have been short
    program, query = bench_program("pathleft:cycle:4")
    real = engine._Eval.solve
    returned = threading.Event()

    def solve(self, query):
        frame, end = real(self, query)
        if self.tid == 0:
            returned.set()
        else:
            assert returned.wait(timeout=30)
            frame.answers.extend((terms.int_tok(99), terms.int_tok(99)))
        return frame, end

    monkeypatch.setattr(engine._Eval, "solve", solve)
    with pytest.raises(EvaluationError, match="grew after its frame completed"):
        solve_parallel(program, query, EvalConfig(Design.FS, SyncMode.TRYLOCK, 2))


def test_fs_ats_stays_flat_while_ns_scales():
    program, query = bench_program("pathright:cycle:20")
    base_ns = solve_parallel(program, query, EvalConfig(design=Design.NS, threads=1))
    base_fs = solve_parallel(program, query, EvalConfig(design=Design.FS, threads=1))
    many_ns = solve_parallel(program, query, EvalConfig(design=Design.NS, threads=24))
    many_fs = solve_parallel(program, query, EvalConfig(design=Design.FS, threads=24))
    assert many_ns.counters.ats == 24 * base_ns.counters.ats
    assert many_fs.counters.ats == base_fs.counters.ats


def test_mutual_recursion_scc():
    program = parse_program(
        ":- table p/2.\n:- table q/2.\n"
        "p(X,Z) :- e(X,Y), q(Y,Z).\n"
        "p(X,Z) :- e(X,Z).\n"
        "q(X,Z) :- f(X,Y), p(Y,Z).\n"
        "q(X,Z) :- f(X,Z).\n"
        "e(1,2). e(2,3). f(3,1). f(2,2). f(3,4).")
    query = parse_query("p(X,Y)")
    want = oracle_solve(program, query)
    for design in Design:
        result = solve_parallel(program, query, EvalConfig(design=design, threads=1))
        assert result.answer_sets[0] == want


def test_nontabled_predicate_with_clauses():
    program = parse_program(
        ":- table reach/2.\n"
        "reach(X,Z) :- reach(X,Y), hop(Y,Z).\n"
        "reach(X,Z) :- hop(X,Z).\n"
        "hop(X,Z) :- edge(X,Z).\n"
        "hop(X,Z) :- back(Z,X).\n"
        "edge(1,2). edge(2,3). back(4,2).")
    query = parse_query("reach(1,X)")
    want = oracle_solve(program, query)
    assert want == frozenset({(Int(2),), (Int(3),), (Int(4),)})
    for design in Design:
        result = solve_parallel(program, query, EvalConfig(design=design, threads=1))
        assert result.answer_sets[0] == want


def test_ground_and_repeated_var_queries():
    program, _ = bench_program("pathleft:cycle:3")
    cfg = EvalConfig(design=Design.NS, threads=1)
    assert solve_parallel(program, parse_query("path(1,3)"),
                          cfg).answer_sets[0] == frozenset({()})
    assert solve_parallel(program, parse_query("path(1,5)"),
                          cfg).answer_sets[0] == frozenset()
    want = oracle_solve(program, parse_query("path(X,X)"))
    assert solve_parallel(program, parse_query("path(X,X)"),
                          cfg).answer_sets[0] == want


def test_query_must_be_tabled():
    program, _ = bench_program("pathleft:cycle:3")
    with pytest.raises(ProgramError):
        solve_parallel(program, parse_query("edge(X,Y)"),
                       EvalConfig(design=Design.NS, threads=1))


@pytest.mark.parametrize("text", ["path(f(1),X)", "path(1,f(X))", "7", "X"])
def test_queries_must_be_flat_literals(text):
    program, _ = bench_program("pathleft:btree:3")
    if "f(" in text:  # the parser reads arguments flat
        with pytest.raises(ProgramError):
            parse_query(text)
        return
    query = parse_query(text)
    with pytest.raises(ProgramError):
        solve_parallel(program, query, EvalConfig(design=Design.NS, threads=1))
    with pytest.raises(ProgramError):
        solve_parallel(program, query, EvalConfig(design=Design.FS, threads=2))
    with pytest.raises(ProgramError):
        oracle_solve(program, query)


def test_config_validation():
    # a trie is shared exactly when it has locks, so there is no mode none
    assert [m.value for m in SyncMode] == ["lock", "trylock"]
    with pytest.raises(ValueError):
        SyncMode("none")
    with pytest.raises(ConfigurationError):
        EvalConfig(design=Design.NS, threads=0).validate()
    with pytest.raises(ConfigurationError):
        EvalConfig(design=Design.NS, threads=1025).validate()


def test_determinism_across_runs():
    program, query = bench_program("pathleft:grid:3")
    runs = [solve_parallel(program, query,
                           EvalConfig(design=Design.FS, threads=4))
            for _ in range(2)]
    assert runs[0].answer_sets == runs[1].answer_sets
    assert runs[0].counters.as_dict() == runs[1].counters.as_dict()


def test_trace_consume_discipline_and_failing_new_answer():
    program, query = bench_program("pathleft:cycle:20")
    events = []
    answers = solve_parallel(program, query, EvalConfig(design=Design.NS, threads=1),
                             trace_factory=lambda tid: events.append).answer_sets[0]
    assert len(answers) == 400
    news = [e for e in events if e[0] == "new_answer"]
    # clause-level accounting for the left recursion over cycle(d):
    # every closure pair is derived once through the recursive clause and
    # every edge once more through the base clause
    assert len(news) == 400 + 20
    assert sum(1 for e in news if not e[2]) == 20
    # duplicates did not stop the enumeration: derivations continue after
    # a failing new_answer
    first_dup = next(i for i, e in enumerate(news) if not e[2])
    assert first_dup < len(news) - 1
    for e in events:
        if e[0] == "consume":
            _, frame, state, on_stack = e
            assert state == COMPLETE or on_stack


def test_worker_errors_propagate_after_join(monkeypatch):
    def mark_complete(self, frames):
        raise EvaluationError("injected")

    monkeypatch.setattr(Table, "mark_complete", mark_complete)
    program, query = bench_program("pathleft:cycle:5")
    with pytest.raises(EvaluationError, match="injected"):
        solve_parallel(program, query, EvalConfig(design=Design.NS, threads=3))
    assert not [t for t in threading.enumerate() if t.name.startswith("tab-")]


def test_one_worker_runs_in_the_callers_thread():
    program, query = bench_program("pathleft:cycle:5")
    for threads in (1, 2):
        ran: dict[int, threading.Thread] = {}

        def trace_factory(tid):  # runs in the worker, before it evaluates
            ran[tid] = threading.current_thread()

        solve_parallel(program, query, EvalConfig(design=Design.NS, threads=threads),
                       trace_factory=trace_factory)
        assert sorted(ran) == list(range(threads))
        if threads == 1:
            assert ran[0] is threading.current_thread()
        else:  # one fresh thread per worker
            assert len(set(ran.values())) == threads
            assert threading.current_thread() not in ran.values()


def test_nonlinear_double_recursion():
    # two recursive literals in one clause: a consumer on the second is
    # left by a resumption of the consumer on the first
    program = parse_program(
        ":- table path/2.\n"
        "path(X,Z) :- path(X,Y), path(Y,Z).\n"
        "path(X,Z) :- edge(X,Z).\n"
        + "\n".join(f"edge({i},{i % 7 + 1})." for i in range(1, 8)))
    query = parse_query("path(X,Y)")
    want = oracle_solve(program, query)
    assert len(want) == 49
    for design in Design:
        result = solve_parallel(program, query, EvalConfig(design=design, threads=1))
        assert result.answer_sets[0] == want


def test_member_and_completed_literals_in_one_clause():
    # q/2 completes on its own before p's rounds; reads of the completed
    # q leave no consumer, while the consumer on p still drives the fixpoint
    program = parse_program(
        ":- table p/2.\n:- table q/2.\n"
        "q(X,Y) :- e(X,Y).\n"
        "p(X,Z) :- p(X,Y), q(Y,Z).\n"
        "p(X,Z) :- q(X,Z).\n"
        "e(1,2). e(2,3). e(3,1). e(3,4).")
    query = parse_query("p(X,Y)")
    want = oracle_solve(program, query)
    for design in Design:
        result = solve_parallel(program, query, EvalConfig(design=design, threads=1))
        assert result.answer_sets[0] == want


def test_scc_leadership_lost_mid_rounds():
    # b's fixpoint rounds discover a link back to the older frame a only
    # after two rounds of derivations; completion must then be deferred to
    # the merged component led by a
    program = parse_program(
        ":- table a/1.\n:- table b/1.\n"
        "a(X) :- b(X).\n"
        "b(X) :- e(X).\n"
        "b(X) :- b(Y), f(Y,X).\n"
        "b(X) :- b(Y), trigger(Y), a(X).\n"
        "e(1). f(1,2). f(2,3). trigger(3).")
    query = parse_query("a(X)")
    want = oracle_solve(program, query)
    assert want == frozenset({(Int(1),), (Int(2),), (Int(3),)})
    for design in Design:
        result = solve_parallel(program, query, EvalConfig(design=design, threads=1))
        assert result.answer_sets[0] == want


def test_scc_link_found_by_a_member_in_a_round_defers_completion():
    # a(1,Y) leads {a, b}; only in a completion round does b(1,Y) get the
    # binding that makes it call p(1,Y), which sits below the leader and
    # has no answers yet.  Completing {a, b} then would lose 9, which
    # reaches a only through p's second clause
    program = parse_program(
        ":- table p/2.\n:- table a/2.\n:- table b/2.\n"
        "p(X,Y) :- a(X,Y).\n"
        "p(X,Y) :- g(X,Y).\n"
        "a(X,Y) :- b(X,Y).\n"
        "b(X,Y) :- e(X,Y).\n"
        "b(X,Y) :- a(X,Z), f(Z,W), p(W,V), h(V,Y).\n"
        "e(1,2). f(2,1). g(1,5). h(5,9).")
    query = parse_query("p(1,Y)")
    want = oracle_solve(program, query)
    assert want == frozenset({(Int(2),), (Int(5),), (Int(9),)})
    for design in Design:
        for threads in (1, 2):
            result = solve_parallel(program, query, EvalConfig(design=design, threads=threads))
            assert all(a == want for a in result.answer_sets), (design, threads)


# h/2 has facts and clauses; its heads carry a constant and a repeated
# variable, one call of it carries a constant no head has, and k/2 reaches
# the tabled r/2 only through h/2
_HEADS_TEXT = (":- table p/2.\n:- table r/2.\n"
               "r(X,Y) :- e(X,Y).\n"
               "h(X,hub) :- e(X,Y), g(Y).\n"
               "h(X,X) :- g(X).\n"
               "h(X,Y) :- r(X,Y).\n"
               "k(X,Z) :- h(X,Y), h(Y,Z).\n"
               "p(X,Y) :- k(X,Y).\n"
               "p(X,X) :- h(X,X).\n"
               "p(X,hub) :- h(X,3).\n"
               "h(5,5). e(1,2). e(2,3). g(2). g(5).")
# p(5,3) fails the guard of the p(X,X) kernel, and p(1,hub) passes the
# p(X,hub) kernel's but fails p(X,X)'s
_HEADS_QUERIES = ("p(X,Y)", "p(X,X)", "p(1,Y)", "p(X,hub)", "p(5,5)", "p(5,3)", "p(1,hub)")


def test_views_with_head_constants_and_repeated_head_vars():
    program = parse_program(_HEADS_TEXT)
    for text in _HEADS_QUERIES:
        query = parse_query(text)
        want = oracle_solve(program, query)
        for design in Design:
            got = solve_parallel(program, query,
                                 EvalConfig(design=design, threads=1)).answer_sets[0]
            assert got == want, (text, design)
            for sync in (SyncMode.LOCK, SyncMode.TRYLOCK):
                result = solve_parallel(program, query,
                                        EvalConfig(design=design, sync=sync, threads=2))
                assert all(a == want for a in result.answer_sets), (text, design, sync)


def _closure_acts(compiled):
    """Each activation that a built kernel of `compiled` carries as a
    closure constant, through the functions it nests."""
    found = []
    todo = [k for act in compiled.templates.values() for k in act.kernels or ()]
    while todo:
        for cell in todo.pop().__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, types.FunctionType):
                todo.append(value)
            elif isinstance(value, engine._Act):
                found.append(value)
    return found


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("sync", [SyncMode.LOCK, SyncMode.TRYLOCK])
@pytest.mark.parametrize("design", list(Design))
def test_threads_building_the_kernels_at_once_share_each_activation(design, sync, threads):
    # every thread makes the first solve of a fresh program, so they build
    # the activations' kernels at once; a switch every microsecond preempts
    # them inside those builds
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for text in _HEADS_QUERIES:
            program, query = parse_program(_HEADS_TEXT), parse_query(text)
            want = oracle_solve(program, query)
            result = solve_parallel(program, query,
                                    EvalConfig(design=design, sync=sync, threads=threads))
            assert all(a == want for a in result.answer_sets), text
            memo = program.compiled.templates
            acts = _closure_acts(program.compiled)
            assert acts and all(memo[act.shape] is act for act in acts), text
    finally:
        sys.setswitchinterval(interval)


_RANDOM_RULES = {
    # tabled; r/2 depends on facts only, p/2 and q/2 are mutually recursive
    "r": ["r(X,Y) :- f(X,Y).", "r(X,Z) :- r(X,Y), f(Y,Z)."],
    "p": ["p(X,Y) :- h(X,Y).", "p(X,Z) :- p(X,Y), k(Y,Z).",
          "p(X,Z) :- m(X,Y), q(Y,Z).", "p(X,Y) :- k(X,Y), m(Y,Y).",
          "p(X,Y) :- h(X,{c}), e(X,Y)."],
    "q": ["q(X,Y) :- e(X,Y).", "q(X,Z) :- e(X,Y), p(Y,Z).",
          "q(X,X) :- k(X,X)."],
    # non-tabled: h/2 reads facts, k/2 calls h/2, m/2 calls the tabled r/2
    "h": ["h(X,Y) :- e(X,Y).", "h(X,{c}) :- f(X,Y), g(Y).",
          "h(X,X) :- g(X).", "h({c},Y) :- e(Y,{c})."],
    "k": ["k(X,Z) :- h(X,Y), h(Y,Z).", "k(X,Y) :- h(X,Y), g(Y).",
          "k(X,X) :- h(X,{c})."],
    "m": ["m(X,Y) :- r(X,Y).", "m(X,Z) :- r(X,Y), h(Y,Z).",
          "m(X,X) :- r(X,X)."],
}


def _random_program(rng, also=()):
    consts = ["1", "2", "3", "4", "hub"]
    lines = [":- table p/2.", ":- table q/2.", ":- table r/2.", *also]
    for rules in _RANDOM_RULES.values():
        picked = [r for r in rules if rng.random() < 0.6] or [rules[0]]
        lines += [r.format(c=rng.choice(consts)) for r in picked]
    for pred in ("e", "f", "h", "k"):
        lines += [f"{pred}({a},{b})." for a in range(1, 5) for b in range(1, 5)
                  if rng.random() < (0.4 if pred in "ef" else 0.15)]
    lines += [f"g({a})." for a in consts if rng.random() < 0.5]
    return "\n".join(lines)


def _random_programs_match_oracle(seed, design, threads, also=()):
    rng = random.Random(seed)
    queries = [parse_query(q) for q in
               ("p(X,Y)", "p(1,Y)", "p(X,X)", "q(X,hub)", "q(2,3)", "r(X,Y)")]
    for _ in range(12):
        text = _random_program(rng, also)
        program = parse_program(text)
        for query in queries:
            want = oracle_solve(program, query)
            result = solve_parallel(program, query,
                                    EvalConfig(design=design, threads=threads))
            assert all(a == want for a in result.answer_sets), text


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("design", list(Design))
def test_random_programs_with_nontabled_rules_match_oracle(design, threads):
    _random_programs_match_oracle(20121009, design, threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("design", list(Design))
def test_random_programs_whose_views_call_back_match_oracle(design, threads):
    # the non-tabled m/2 calls the tabled p/2, and p/2 always calls m/2 back
    closing = ["m(X,Z) :- r(X,Y), p(Y,Z).", "p(X,Z) :- m(X,Y), q(Y,Z)."]
    _random_programs_match_oracle(20260601, design, threads, closing)


def _built(text: str) -> Program:
    """The program of `text`, one `:- table p/n.` directive or clause of
    flat literals over integers per line, built through `Program.add_clause`
    rather than parsed, so that nothing validates it as it is built."""
    lines = text.strip().splitlines()
    program = Program(tabled=frozenset(
        (intern_symbol(name), int(n)) for name, n in
        (re.fullmatch(r":- table (\w+)/(\d+)\.", line).groups()
         for line in lines if line.startswith(":-"))))
    for line in lines:
        if not line.startswith(":-"):
            names: dict[str, int] = {}
            lits = [compound(name, *(Var(names.setdefault(a, len(names))) if a[0].isupper()
                                     else Int(int(a)) for a in args.split(",")))
                    for name, args in re.findall(r"(\w+)\(([^)]*)\)", line)]
            program.add_clause(lits[0], lits[1:])
    return program


_EDGES = "e(1,2).\ne(2,3).\ne(3,1).\ne(3,4).\ne(4,5).\n"
# views, non-tabled predicates with clauses, that call back into tabled ones:
# every cycle of calls passes through t/2 or s/2
_CALLBACK_PROGRAMS = {
    "view-of-t": ":- table t/2.\n"
                 "t(X,Z) :- v(X,Y), e(Y,Z).\n"
                 "t(X,Y) :- e(X,Y).\n"
                 "v(X,Y) :- t(X,Y).\n" + _EDGES,
    "views-of-t-and-s": ":- table t/2.\n:- table s/2.\n"
                        "t(X,Z) :- v(X,Y), w(Y,Z).\n"
                        "t(X,Y) :- e(X,Y).\n"
                        "v(X,Y) :- s(X,Y).\n"
                        "v(X,Y) :- w(X,Y).\n"
                        "v(5,1).\n"
                        "w(X,Y) :- e(X,Y).\n"
                        "w(X,Z) :- t(X,Y), e(Y,Z).\n"
                        "s(X,Y) :- v(Y,X).\n"
                        "s(X,Y) :- e(X,Y).\n" + _EDGES,
}


@pytest.mark.parametrize("build", [parse_program, _built], ids=["parsed", "built"])
@pytest.mark.parametrize("name", list(_CALLBACK_PROGRAMS))
def test_views_that_call_back_into_tabled_predicates_match_oracle(name, build):
    program = build(_CALLBACK_PROGRAMS[name])
    for text in ("t(X,Y)", "t(1,Y)", "t(X,5)", "t(X,X)"):
        query = parse_query(text)
        want = oracle_solve(program, query)
        assert want, text
        for design in Design:
            for sync in SyncMode:
                for threads in (1, 2, 4):
                    result = solve_parallel(program, query, EvalConfig(design, sync, threads))
                    assert result.answer_sets == [want] * threads, \
                        (text, design, sync, threads)


@pytest.mark.parametrize("text, cycle", [
    (":- table t/1.\nt(X) :- v(X).\nv(X) :- v(X).\nv(1).", "v/1 -> v/1"),
    (":- table t/1.\nt(X) :- v(X).\nv(X) :- w(X).\nw(X) :- v(X).\nw(1).",
     "v/1 -> w/1 -> v/1"),
    # reachable from t/1 only through the tabled u/1
    (":- table t/1.\n:- table u/1.\nt(X) :- u(X).\nu(X) :- a(X).\n"
     "a(X) :- b(X).\nb(X) :- c(X).\nc(X) :- a(X).\nc(1).", "a/1 -> b/1 -> c/1 -> a/1"),
], ids=["self-loop", "2-cycle", "3-cycle"])
def test_cycles_made_only_of_views_are_rejected_and_named(text, cycle):
    msg = f"recursive predicate {cycle.split()[0]} must be tabled: {cycle}"
    with pytest.raises(ProgramError) as err:
        parse_program(text)
    assert str(err.value) == msg
    program, query = _built(text), parse_query("t(X)")
    for run in (lambda: solve_parallel(program, query, EvalConfig(design=Design.FS)),
                lambda: oracle_solve(program, query)):
        with pytest.raises(ProgramError) as err:
            run()
        assert str(err.value) == msg


def _mutual_program(rng):
    """Four mutually calling tabled t0..t3/2, each with a base rule over e/2
    or f/2 and 1-3 rules of 1-3 chained literals drawn from t0..t3, e and f,
    over 3-9 facts of each of e/2 and f/2 on 1..6; and four queries, three
    of them with the first argument bound."""
    preds = ["t0", "t1", "t2", "t3"]
    lines = [f":- table {t}/2." for t in preds]
    for t in preds:
        lines.append(f"{t}(X,Y) :- {rng.choice('ef')}(X,Y).")
        for _ in range(rng.randint(1, 3)):
            lits = [rng.choice(preds + ["e", "f"]) for _ in range(rng.randint(1, 3))]
            chain = ["X"] + [f"Z{k}" for k in range(1, len(lits))] + ["Y"]
            body = ", ".join(f"{q}({a},{b})" for q, a, b in zip(lits, chain, chain[1:]))
            lines.append(f"{t}(X,Y) :- {body}.")
    for rel in "ef":
        lines += [f"{rel}({rng.randint(1, 6)},{rng.randint(1, 6)})."
                  for _ in range(rng.randint(3, 9))]
    queries = [f"{rng.choice(preds)}({rng.randint(1, 6)},Y)" for _ in range(3)]
    return "\n".join(lines), queries + [f"{rng.choice(preds)}(X,Y)"]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("design", list(Design))
def test_random_mutually_recursive_programs_match_oracle(design, threads):
    # seed 293 (t3(6,Y)) loses answers unless a link that a completion
    # round gives a member, to a frame below the leader, reaches the leader
    for seed in range(280, 310):
        text, texts = _mutual_program(random.Random(seed))
        program = parse_program(text)
        for query in map(parse_query, texts):
            want = oracle_solve(program, query)
            result = solve_parallel(program, query, EvalConfig(design=design, threads=threads))
            assert all(a == want for a in result.answer_sets), (seed, str(query), text)


def test_evaluation_leaves_interpreter_settings_alone():
    def settings():
        return (sys.getrecursionlimit(), threading.stack_size(), sys.getswitchinterval())

    before = settings()
    inside = []

    def trace_factory(tid):  # runs in the worker, while it evaluates
        inside.append(settings())

    program, query = bench_program("pathright:cycle:6")
    for design, threads in ((Design.NS, 1), (Design.FS, 2)):
        solve_parallel(program, query, EvalConfig(design=design, threads=threads),
                       trace_factory=trace_factory)
        assert settings() == before
    assert inside == [before] * 3


def test_sixty_thousand_call_chain_answers():
    # r(i) is a fresh call met inside a clause of r(i-1), so the dependency
    # stack grows 60,001 frames deep before the first one completes
    n = 60_000
    program = parse_program(
        ":- table r/1.\n"
        "r(X) :- e(X,Y), r(Y).\n"
        f"r({n + 1}).\n"
        + "\n".join(f"e({i},{i + 1})." for i in range(1, n + 1)))
    query = parse_query("r(1)")
    for design, threads in ((Design.NS, 1), (Design.FS, 2)):
        result = solve_parallel(program, query,
                                EvalConfig(design=design, threads=threads))
        assert result.answer_sets == [frozenset({()})] * threads


@pytest.mark.parametrize("order", ["file", "reversed"])
def test_deep_nontabled_chain_compiles_at_the_default_recursion_limit(order):
    # in file order the dependency search walks 1,500 predicates deep; in
    # reverse order validation is shallow, but either way compilation solves
    # p0/1 through a chain of 1,500 calls
    n = 1_500
    assert sys.getrecursionlimit() < n
    rules = ["t(X) :- p0(X)."] + [f"p{i}(X) :- p{i + 1}(X)." for i in range(n)]
    if order == "reversed":
        rules.reverse()
    program = parse_program("\n".join([":- table t/1."] + rules + [f"p{n}(1)."]))
    compiled = engine._compile(program)
    assert compiled.tabled == {(intern_symbol("t"), 1)}
    assert compiled.rels[(intern_symbol("p0"), 1)].rows == ((int_tok(1),),)
    for design in (Design.NS, Design.FS):
        result = solve_parallel(program, parse_query("t(X)"),
                                EvalConfig(design=design, threads=1))
        assert result.answer_sets == [frozenset({(Int(1),)})], design


def view_program(k: int) -> str:
    """t/1 over k levels of views, each calling the next twice: unfolding
    would make one clause of t/1 into c(0) clauses, c(k) = 1 and
    c(i) = 1 + c(i + 1) ** 2, so 458,330 at k = 5."""
    rules = [f"p{i}(X) :- e(X).\np{i}(X) :- p{i + 1}(X), p{i + 1}(X).\n" for i in range(k)]
    return f":- table t/1.\nt(X) :- p0(X).\n{''.join(rules)}p{k}(X) :- e(X).\ne(1). e(2).\n"


def test_views_that_unfolding_would_multiply_are_solved_once():
    query = parse_query("t(X)")
    program = parse_program(view_program(5))
    want = oracle_solve(program, query)
    assert want == {(Int(1),), (Int(2),)}
    for design in Design:
        for threads in (1, 2):
            result = solve_parallel(program, query, EvalConfig(design=design, threads=threads))
            assert result.answer_sets == [want] * threads, (design, threads)
    # t/1 keeps its one clause, and each view is a fact relation
    compiled = program.compiled
    assert compiled.tabled == {(intern_symbol("t"), 1)}
    assert len(compiled.clauses[(intern_symbol("t"), 1)]) == 1
    for i in range(6):
        rows = compiled.rels[(intern_symbol(f"p{i}"), 1)].rows
        assert sorted(rows) == [(int_tok(1),), (int_tok(2),)]


def _counts(program, text, design, threads):
    c = solve_parallel(program, parse_query(text),
                       EvalConfig(design=design, threads=threads)).counters
    return c.te, c.ba, c.sts, c.sf, c.se, c.ats


def test_a_view_that_calls_back_counts_as_if_declared_tabled():
    for name, views in (("view-of-t", "v"), ("views-of-t-and-s", "vw")):
        text = _CALLBACK_PROGRAMS[name]
        program = parse_program(text)
        declared = parse_program("".join(f":- table {v}/2.\n" for v in views) + text)
        for query in ("t(X,Y)", "t(1,Y)", "t(X,5)"):
            for design in Design:
                for threads in (1, 2):
                    assert _counts(program, query, design, threads) == \
                        _counts(declared, query, design, threads), (name, query, design)
        assert program.compiled.tabled == declared.tabled
    # one table entry each for t/2 and v/2, and one frame each for t(1,Y)
    # and the v(1,Y) it calls
    te, _, _, sf, _, _ = _counts(parse_program(_CALLBACK_PROGRAMS["view-of-t"]), "t(1,Y)",
                                 Design.NS, 1)
    assert (te, sf) == (2, 2)


# step/2 is a view that reads only facts
_STEP_TEXT = (":- table t/2.\nt(X,Y) :- step(X,Y).\nt(X,Z) :- t(X,Y), step(Y,Z).\n"
              "step(X,Y) :- e(X,Z), e(Z,Y).\n" + _EDGES)


def test_a_view_of_facts_counts_as_its_rows_given_as_facts():
    program = parse_program(_STEP_TEXT)
    rows = parse_program(_STEP_TEXT.replace(
        "step(X,Y) :- e(X,Z), e(Z,Y).\n",
        "step(1,3). step(2,1). step(2,4). step(3,2). step(3,5).\n"))
    for text in ("t(X,Y)", "t(1,Y)", "t(2,1)"):
        query = parse_query(text)
        want = oracle_solve(program, query)
        assert want and want == oracle_solve(rows, query), text
        for design in Design:
            for threads in (1, 2):
                result = solve_parallel(program, query, EvalConfig(design=design, threads=threads))
                assert result.answer_sets == [want] * threads, (text, design)
                assert _counts(program, text, design, threads) == \
                    _counts(rows, text, design, threads), (text, design)
    step = (intern_symbol("step"), 2)
    assert step not in program.compiled.tabled
    assert sorted(program.compiled.rels[step].rows) == sorted(rows.facts[step])


def test_the_tiny_query_batch_counts_as_when_its_view_was_unfolded(monkeypatch):
    # query-batch's step/2 is a fact-only view; the totals over the tiny
    # program's seven queries at 2 threads, as measured when it was unfolded
    spec = importlib.util.spec_from_file_location(
        "workloads", pathlib.Path(__file__).parents[1] / "tablebench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks it up
    spec.loader.exec_module(workloads)
    inputs = workloads.generate("query-batch", 1, tiny=True)
    program = parse_program(inputs.text)
    assert len(inputs.queries) == 7
    want = {Design.NS: (21, 21, 282, 132, 0, 964), Design.SS: (21, 66, 141, 132, 0, 964),
            Design.FS: (21, 66, 141, 132, 66, 482)}
    for design in Design:
        totals = [_counts(program, text, design, 2) for text in inputs.queries]
        assert tuple(map(sum, zip(*totals))) == want[design], design


def test_a_query_of_a_view_or_a_fact_is_refused():
    # v/2 is tabled by compilation and step/2 solved by it, but neither is
    # declared tabled
    for text, query, pred in ((_CALLBACK_PROGRAMS["view-of-t"], "v(X,Y)", "v/2"),
                              (_STEP_TEXT, "step(1,Y)", "step/2"),
                              (_STEP_TEXT, "e(X,Y)", "e/2")):
        program = parse_program(text)
        for design in Design:
            with pytest.raises(ProgramError, match=f"^query predicate {pred} is not tabled$"):
                solve_parallel(program, parse_query(query), EvalConfig(design=design, threads=2))


# ----------------------------------------------------------------------
# the compiled program: built once per program, dropped on every edit


_PATH_TEXT = (":- table path/2.\n"
              "path(X,Z) :- path(X,Y), edge(Y,Z).\n"
              "path(X,Z) :- hop(X,Z).\n"
              "hop(X,Z) :- edge(X,Z).\n"
              "edge(1,2). edge(2,3).")


@pytest.mark.parametrize("design", list(Design))
def test_edits_after_a_solve_are_seen(design):
    program = parse_program(_PATH_TEXT)
    query = parse_query("path(1,X)")
    cfg = EvalConfig(design=design, threads=2)

    def answers():
        result = solve_parallel(program, query, cfg)
        want = oracle_solve(program, query)
        assert all(a == want for a in result.answer_sets)
        return result.answer_sets[0]

    assert answers() == {(Int(2),), (Int(3),)}
    program.add_fact(compound("edge", Int(3), Int(4)))
    assert answers() == {(Int(2),), (Int(3),), (Int(4),)}
    # a new clause of the view hop/2, solved into one more row of it
    program.add_clause(compound("hop", Var(0), Var(1)), [compound("jump", Var(0), Var(1))])
    program.add_fact(compound("jump", Int(1), Int(9)))
    program.add_fact(compound("edge", Int(9), Int(10)))
    assert answers() == {(Int(n),) for n in (2, 3, 4, 9, 10)}


def test_reassigning_tabled_recompiles():
    program = parse_program(_PATH_TEXT)
    cfg = EvalConfig(design=Design.NS, threads=1)
    solve_parallel(program, parse_query("path(1,X)"), cfg)
    with pytest.raises(ProgramError):
        solve_parallel(program, parse_query("hop(1,X)"), cfg)
    program.tabled = program.tabled | {(intern_symbol("hop"), 2)}
    hops = solve_parallel(program, parse_query("hop(1,X)"), cfg).answer_sets[0]
    assert hops == {(Int(2),)}


def test_invalid_program_raises_on_every_call():
    # built clause by clause: the parser would reject it at load time
    X, Y = Var(0), Var(1)
    program = Program(tabled=frozenset({(intern_symbol("p"), 1)}))
    program.add_clause(compound("p", X), [compound("q", X)])
    program.add_clause(compound("q", X), [compound("e", X, Y), compound("q", Y)])
    program.add_fact(compound("e", Int(1), Int(1)))
    cfg = EvalConfig(design=Design.NS, threads=1)
    for _ in range(2):
        with pytest.raises(ProgramError, match="must be tabled"):
            solve_parallel(program, parse_query("p(X)"), cfg)
        assert program.compiled is None


@pytest.mark.parametrize("design", [Design.NS, Design.FS])
def test_two_python_threads_solve_one_program(design):
    program, query = bench_program("pathright:grid:4")
    want = oracle_solve(program, query)
    start = threading.Barrier(2)
    results = [None, None]

    def solve(i):
        start.wait()
        results[i] = solve_parallel(program, query, EvalConfig(design=design, threads=2))

    callers = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=120)
        assert not t.is_alive()
    for result in results:
        assert all(a == want for a in result.answer_sets)


def test_many_solves_compile_once(monkeypatch):
    calls = []
    real = engine._Compiled
    monkeypatch.setattr(engine, "_Compiled", lambda program: calls.append(1) or real(program))
    program = parse_program(_PATH_TEXT)
    for design in Design:
        for text in ("path(1,X)", "path(X,Y)", "path(2,3)"):
            solve_parallel(program, parse_query(text), EvalConfig(design=design, threads=2))
    assert len(calls) == 1
    program.add_fact(compound("edge", Int(3), Int(1)))
    solve_parallel(program, parse_query("path(1,X)"), EvalConfig(design=Design.NS))
    solve_parallel(program, parse_query("path(1,X)"), EvalConfig(design=Design.NS))
    assert len(calls) == 2


def _reachable(root):
    """Every object reachable from `root` by `gc.get_referents`, not
    following types and modules, as the table-size walk does, and following
    a function only into the values its closure captures."""
    skip = (type, types.ModuleType, types.BuiltinFunctionType, types.MethodType)
    seen: dict[int, object] = {}
    todo = [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            todo.extend(obj.__closure__ or ())
        else:
            todo.extend(gc.get_referents(obj))
    return seen


def _kernel_parts(kernel, tabled):
    """The ids of a kernel, of the functions it delegates to, and of the rows
    and indexes they capture; the predicates they capture are left out, as a
    table entry holds its predicate too."""
    parts, todo = set(), [kernel]
    while todo:
        fn = todo.pop()
        parts.add(id(fn))
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, types.FunctionType):
                todo.append(value)
            elif isinstance(value, dict) or value and value not in tabled:
                parts.add(id(value))
    return parts


@pytest.mark.parametrize("release", [True, False])
def test_table_holds_nothing_of_the_compiled_program(release):
    program = parse_program(_PATH_TEXT + " edge(3,1).")
    for design in Design:
        for text in ("path(X,Y)", "path(2,Y)", "path(3,1)"):
            result = solve_parallel(program, parse_query(text),
                                    EvalConfig(design=design, threads=2), release=release)
            compiled = program.compiled
            assert isinstance(compiled, engine._Compiled)
            assert compiled.templates
            banned = {id(program), id(compiled), id(compiled.rels), id(compiled.clauses),
                      id(compiled.templates)}
            for rel in compiled.rels.values():
                banned.update((id(rel), id(rel.rows), id(rel.index)))
                banned.update(id(d) for d in rel.index)
            for act in compiled.templates.values():
                banned.add(id(act))
                if act.kernels is not None:
                    banned.add(id(act.kernels))
                    for kernel in act.kernels:
                        banned.update(_kernel_parts(kernel, compiled.tabled))
            met = _reachable(result.table)
            assert not banned & met.keys(), (design, text)
            assert not any(isinstance(o, (engine._Rel, engine._Compiled, engine._Act))
                           or isinstance(o, types.FunctionType)
                           and o.__code__.co_filename == "<kernel>" for o in met.values())
            # nor does the compiled program, memo included, keep a table alive
            table_types = (Table, TableEntry, SubgoalEntry, SubgoalFrame, TrieNode)
            assert not any(isinstance(o, table_types)
                           for o in _reachable(compiled).values()), (design, text)


def test_answers_leave_the_engine_as_untracked_tuples_of_ints_and_strs():
    program = parse_program(":- table path/2.\n"
                            "path(X,Y) :- edge(X,Y).\n"
                            "path(X,Z) :- path(X,Y), edge(Y,Z).\n"
                            "edge(a,1). edge(1,b). edge(b,-2).")
    query = parse_query("path(a,X)")
    want = oracle_solve(program, query)
    assert want == {(1,), ("b",), (-2,)}
    assert {type(t) for a in want for t in a} == {int, str}
    for design in Design:
        result = solve_parallel(program, query, EvalConfig(design=design, threads=2))
        answers = result.answer_sets[0]
        assert answers == want, design
        assert {type(t) for a in answers for t in a} == {int, str}, design
        # a tuple of untracked constants leaves the cyclic GC at its first look
        gc.collect()
        assert [gc.is_tracked(a) for a in answers] == [False] * 3, design


@pytest.mark.parametrize("release", [True, False])
def test_table_holds_tokens_never_terms(release):
    program = parse_program(_PATH_TEXT + " edge(3,1).")
    for design in Design:
        for text in ("path(X,Y)", "path(2,Y)", "path(3,1)"):
            result = solve_parallel(program, parse_query(text),
                                    EvalConfig(design=design, threads=2), release=release)
            assert all(result.answer_sets), (design, text)  # answers were decoded
            met = _reachable(result.table).values()
            assert not any(isinstance(o, (Var, Compound, terms._DecodeMemo)) for o in met), \
                (design, text)
            # a decoded constant is an int or str like the table's own, so look
            # for the decoded answers by identity; () is a shared singleton
            decoded = {id(a) for a in result.answer_sets[0] if a}
            assert not any(id(o) in decoded for o in met), (design, text)
            # every answer log is one flat list of tokens, `width` per answer,
            # holding each path of its answer trie once in arrival order
            logs = [o for o in met if isinstance(o, (SubgoalFrame, SubgoalEntry))]
            assert logs or release, (design, text)
            for o in logs:
                paths = _leaf_paths(o.answer_root)
                width = len(paths[0]) if paths else 1
                assert all(len(p) == width for p in paths)
                log = o.answers
                assert type(log) is list and all(type(t) is int for t in log)
                assert len(log) == width * len(paths), (design, text)
                assert sorted(zip(*[iter(log)] * width)) == sorted(paths)
                if isinstance(o, SubgoalFrame):
                    nvars = len({t for t in o.tokens[1:] if t & 7 == terms.TAG_VAR})
                    assert width == (nvars or 1)
            # and no answer is kept as a tuple of its tokens; a leaf container
            # is a tuple of leaf tokens, which may equal an answer's
            answers = {tuple(terms.int_tok(t) for t in a) or (terms.TRUE_TOK,)
                       for a in result.answer_sets[0]}
            containers = {id(o.payload) for o in met if type(o) is TrieNode}
            assert not any(type(o) is tuple and o in answers and id(o) not in containers
                           for o in met), (design, text)


def _leaf_paths(root):
    """The token path of every answer leaf below the answer-trie `root`, a
    token in the leaf container of the node above it; a childless `TrieNode`
    without a container would end no path."""
    paths = []
    todo = [(root, ())]
    while todo:
        node, path = todo.pop()
        if node.payload is not None:
            paths.extend(path + (tok,) for tok in node.payload)
        child = node.first_child
        while child is not None:
            todo.append((child, path + (child.token,)))
            child = child.sibling
    return paths


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("design", list(Design))
def test_answer_tries_end_in_answer_leaves(design, threads):
    # an answer trie is `width` levels deep: TrieNodes above the last level,
    # and at it one leaf token per logged answer, in the leaf container of
    # the node above; subgoal tries are all TrieNodes
    program = parse_program(_PATH_TEXT + " edge(3,1).")
    for text in ("path(X,Y)", "path(2,Y)", "path(3,1)"):
        result = solve_parallel(program, parse_query(text),
                                EvalConfig(design=design, threads=threads), release=False)
        met = _reachable(result.table).values()
        tries = {id(f.answer_root): f for f in met if isinstance(f, SubgoalFrame)}
        assert tries, (design, text)
        containers = set()
        for frame in tries.values():
            width = answer_width(frame.tokens)
            log = frame.answers
            assert len(log) % width == 0
            leaves = []
            todo = [(frame.answer_root, 0)]
            while todo:
                node, depth = todo.pop()
                assert type(node) is TrieNode, (design, text, depth, width)
                child = node.first_child
                if depth + 1 == width:
                    # no node below: a tuple below the threshold, a set from it on
                    assert child is None and node.index is None, (design, text)
                    container = node.payload
                    assert type(container) is (
                        tuple if len(container) < HASH_THRESHOLD else set), (design, text)
                    containers.add(id(container))
                    leaves.extend(container)
                    continue
                assert node.payload is None, (design, text)
                while child is not None:
                    todo.append((child, depth + 1))
                    child = child.sibling
            # a leaf is no object of its own: its container holds the very
            # token object that the log holds last in its answer
            logged = {id(tok) for tok in log[width - 1::width]}
            assert all(id(tok) in logged for tok in leaves), (design, text)
            assert len(leaves) == len(log) // width, (design, text)
        # no leaf container sits anywhere else in the table
        assert {id(o.payload) for o in met if type(o) is TrieNode
                and type(o.payload) in (tuple, set)} == containers
        te = result.table.entries[next(iter(result.table.entries))]
        roots = ([te.roots.get(tid) for tid in range(threads)]
                 if design is Design.NS else [te.root])
        todo = list(roots)
        assert all(todo), (design, text)
        while todo:
            node = todo.pop()
            assert type(node) is TrieNode, (design, text)
            child = node.first_child
            while child is not None:
                todo.append(child)
                child = child.sibling


_WALK_TEXT = (
    ":- table walk/3.\n"
    "walk(X,Y,1) :- e(X,Y).\n"
    "walk(X,Z,N) :- walk(X,Y,M), e(Y,Z), succ(M,N).\n"  # left recursion
    "walk(X,Z,N) :- e(X,Y), walk(Y,Z,M), succ(M,N).\n"  # right recursion
    "e(1,2). e(2,3). e(3,1). e(3,4). e(4,2).\n"
    "succ(1,2). succ(2,3). succ(3,4). succ(4,5). succ(5,6).")


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("sync", [SyncMode.LOCK, SyncMode.TRYLOCK])
@pytest.mark.parametrize("design", list(Design))
def test_wide_answer_logs_match_oracle(design, sync, threads):
    # logs 3 and 2 tokens wide, resumed in slices mid-fixpoint
    program = parse_program(_WALK_TEXT)
    for text, width in (("walk(X,Y,N)", 3), ("walk(1,Y,N)", 2), ("walk(X,3,N)", 2)):
        query = parse_query(text)
        want = oracle_solve(program, query)
        assert len(want) >= 8 and all(len(a) == width for a in want)
        result = solve_parallel(program, query,
                                EvalConfig(design=design, sync=sync, threads=threads))
        assert all(a == want for a in result.answer_sets), text


# ----------------------------------------------------------------------
# activations: one per call shape, a kernel per clause whose head unifies
# with it, run with each call's constants


_TEMPLATE_TEXT = (
    ":- table p/2.\n:- table q/2.\n"
    "p(X,Y) :- e(X,Y).\n"
    "p(hub,Y) :- g(Y).\n"           # a head constant some calls match
    "p(X,X) :- g(X).\n"             # a repeated head variable
    "p(X,Y) :- e(X,Z), p(Z,Y).\n"
    "q(4,Y) :- g(Y).\n"             # the body never reads the call's 4
    "q(1,2) :- g(1).\n"             # two head constants
    "q(X,hub) :- p(X,X).\n"
    "e(1,2). e(2,3). e(3,hub). e(hub,4). g(2). g(hub). g(1).")
# each call shape comes back with other constants, so a cached template is
# filled with constants it was not built for
_TEMPLATE_QUERIES = (
    "p(1,Y)", "p(hub,Y)", "p(4,Y)", "p(2,2)", "p(2,3)", "p(3,3)", "p(hub,hub)",
    "p(X,X)", "q(X,X)", "q(4,Y)", "q(1,Y)", "q(1,2)", "q(2,2)", "q(1,1)",
    "q(2,hub)", "q(4,hub)", "q(X,Y)", "p(X,Y)")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("design", list(Design))
def test_templates_are_reused_across_call_constants(design, threads):
    program = parse_program(_TEMPLATE_TEXT)
    grounds = {}
    for text in _TEMPLATE_QUERIES:
        query = parse_query(text)
        want = oracle_solve(program, query)
        result = solve_parallel(program, query, EvalConfig(design=design, threads=threads))
        assert all(a == want for a in result.answer_sets), text
        if "X" not in text and "Y" not in text:
            grounds[text] = want
    # a true ground call answers TRUE_TOK, decoded as the empty tuple
    assert grounds["p(2,3)"] == grounds["q(1,2)"] == grounds["q(2,hub)"] == {()}
    assert grounds["q(1,1)"] == grounds["p(3,3)"] == set()


def _reach_program(edges):
    text = (":- table reach/2.\n"
            "reach(X,Y) :- red(X,Y).\n"
            "reach(X,hub) :- red(X,Y), gold(Y).\n"
            "reach(X,Y) :- red(X,Z), reach(Z,Y).\n")
    text += "".join(f"red({a},{b}). " for a, b in edges) + "gold(7)."
    return parse_program(text)


def _ring(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


@pytest.mark.parametrize("design", list(Design))
def test_distinct_call_constants_share_one_template_per_clause(design):
    # 50 paths c -> c+100 -> c+200, and a ring through the gold node 7
    program = _reach_program([(c + d, c + d + 100) for c in range(1, 51) for d in (0, 100)]
                             + _ring(8))
    reach = (intern_symbol("reach"), 2)
    cfg = EvalConfig(design=design, threads=2)
    closure = oracle_solve(program, parse_query("reach(X,Y)"))
    first = None
    for c in range(1, 51):
        result = solve_parallel(program, parse_query(f"reach({c},Y)"), cfg)
        want = {(y,) for x, y in closure if x == Int(c)}
        assert want and all(a == want for a in result.answer_sets)
        memo = {shape: (act, act.kernels) for shape, act in program.compiled.templates.items()}
        first = first or memo
        assert memo == first  # the same activation and kernels, built once
    ((shape, (act, kernels)),) = first.items()
    assert shape == (reach, None, var_tok(0))
    assert len(kernels) == len(program.compiled.clauses[reach]) == 3
    assert isinstance(act, engine._Act)
    assert all(k.__code__.co_filename == "<kernel>" for k in kernels)
    # an open call adds its own shape; its callees reuse reach(c,Y)'s
    solve_parallel(program, parse_query("reach(X,Y)"), cfg)
    assert program.compiled.templates.keys() == {shape, (reach, var_tok(0), var_tok(1))}


def _trace(program, text):
    events = []
    solve_parallel(program, parse_query(text), EvalConfig(design=Design.NS, threads=1),
                   trace_factory=lambda tid: events.append)
    return [tuple(tuple(f.tokens for f in x) if isinstance(x, tuple)
                  else getattr(x, "tokens", x) for x in e) for e in events]


def test_cold_and_warm_template_memos_trace_alike():
    queries = ("reach(3,Y)", "reach(X,Y)", "reach(5,hub)", "reach(X,X)")
    for text in queries:
        program = _reach_program(_ring(12))
        cold = _trace(program, text)
        for other in queries:  # every shape the queries meet is now cached
            solve_parallel(program, parse_query(other), EvalConfig(design=Design.NS))
        assert _trace(program, text) == cold, text


def test_delta_rounds_skip_answers_every_reader_has_joined():
    # an 8-ring with three chords is one SCC of eight reach(c,Y) frames;
    # completion resumes each consumer from the log offset it read up to,
    # so only answers logged after its read are joined again
    program = _reach_program(_ring(8) + [(1, 5), (3, 7), (6, 2)])
    query = parse_query("reach(1,Y)")
    want = oracle_solve(program, query)
    assert len(want) == 9
    for design in Design:
        events = []
        result = solve_parallel(program, query, EvalConfig(design=design, threads=1),
                                trace_factory=lambda tid: events.append)
        assert result.answer_sets[0] == want
        outcomes = [e[2] for e in events if e[0] == "new_answer"]
        assert outcomes.count(True) == 72
        # 48 when rounds re-ran each clause up to a window of its callee's
        # log, 103 when those windows started at offset 0
        assert outcomes.count(False) == 40


def test_rounds_call_each_subgoal_once_per_binding(monkeypatch):
    # the same SCC: its rounds resume consumers and call no subgoal, so the
    # query and each of the 11 edges met make one call apiece (56 when every
    # round re-ran each recursive clause, calls included)
    program = _reach_program(_ring(8) + [(1, 5), (3, 7), (6, 2)])
    query = parse_query("reach(1,Y)")
    real = Table.subgoal_call
    calls = []

    def counted(self, te, toks, tid):
        calls.append(toks)
        return real(self, te, toks, tid)

    monkeypatch.setattr(Table, "subgoal_call", counted)
    for design in Design:
        calls.clear()
        result = solve_parallel(program, query, EvalConfig(design=design, threads=1))
        assert result.answer_sets[0] == oracle_solve(program, query)
        assert len(calls) == 12, design
        assert len(set(calls)) == 8, design  # reach(c,Y) for each ring node


# ----------------------------------------------------------------------
# join kernels: one generated generator function per template


def _long_programs():
    # a 40-literal fact chain around a 7-ring, beside a clause whose tabled
    # literal sits past the first generated function's loops and one whose
    # tabled literal comes before 20 fact literals
    ring = "".join(f"e({i},{(i + 1) % 7}). " for i in range(7))
    chain = ", ".join(f"e(X{i},X{i + 1})" for i in range(40))
    twenty = ", ".join(f"e(X{i},X{i + 1})" for i in range(20))
    walk = ", ".join(f"e(W{i},W{i + 1})" for i in range(20))
    tabled = parse_program(f":- table t/2.\nt(X0,X40) :- {chain}.\n"
                           f"t(X0,Y) :- {twenty}, t(X20,Y), e(Y,Z).\n"
                           f"t(X0,W20) :- t(X0,W0), {walk}.\n{ring}")
    # and a 30-literal body of facts alone
    hops = ", ".join(f"e(Y{i},Y{i + 1})" for i in range(30))
    thirty = parse_program(f":- table u/2.\nu(Y0,Y30) :- {hops}.\n" + ring)
    # with the function that joins t's answers with the 20 fact literals
    return ((tabled, ("t(X,Y)", "t(3,Y)", "t(3,1)"), "r0("),
            (thirty, ("u(X,Y)", "u(2,Y)", "u(2,4)"), None))


def _functions(source):
    """A kernel source's generated functions, each as its text from its name on."""
    return source.split("\n    def ")[1:]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("sync", [SyncMode.LOCK, SyncMode.TRYLOCK])
@pytest.mark.parametrize("design", list(Design))
def test_long_bodies_solve_through_chained_kernels(design, sync, threads):
    for program, texts, joins in _long_programs():
        for text in texts:
            query = parse_query(text)
            want = oracle_solve(program, query)
            assert want, text
            result = solve_parallel(program, query,
                                    EvalConfig(design=design, sync=sync, threads=threads))
            assert all(a == want for a in result.answer_sets), text
        longest = max(len(cl.body) for cls in program.compiled.clauses.values() for cl in cls)
        assert longest in (40, 30)
        sources = [s for act in program.compiled.templates.values() for s in act.sources or ()]
        # no generated function nests more than 16 loops, so the longest
        # body's kernel delegates to one more function per 16 literals
        assert any(f"yield from k{(longest - 1) // 16}(" in s for s in sources)
        for s in sources:
            depths = [len(line) - len(line.lstrip()) for line in s.splitlines()
                      if line.lstrip().startswith("for ")]
            assert max(depths, default=0) <= 4 * (1 + 16)
        # that function nests 16 loops, t's and 15, and chains the last 5
        assert joins is None or any(f.startswith(joins) and "yield from k" in f
                                    for s in sources for f in _functions(s))


_SHADOWS = ("g", "frame", "rows", "row", "env", "trace", "tid", "x'); __import__('os'); ('")


def _named_program(names):
    """One program built through the API, each of its predicate and atom
    names taken from `names`, in `_SHADOWS` order."""
    g, frame, rows, row, env, trace, tid, bad = names
    c, a = compound, terms.atom
    X, Y, Z = Var(0), Var(1), Var(2)
    program = Program(tabled=frozenset({(intern_symbol(g), 2), (intern_symbol(frame), 2)}))
    program.add_clause(c(g, X, Y), [c(rows, X, Y)])
    program.add_clause(c(g, X, Y), [c(g, X, Z), c(row, Z, Y)])
    program.add_clause(c(frame, X, Y), [c(env, X, Y), c(g, Y, a(trace))])
    program.add_clause(c(frame, a(tid), Y), [c(g, a(tid), Y)])
    program.add_clause(c(frame, X, a(env)), [c(bad, X, a(env))])
    for p, x, y in ((rows, Int(1), Int(2)), (rows, Int(2), a(trace)), (row, a(trace), a(tid)),
                    (row, a(tid), Int(1)), (env, Int(5), Int(1)), (env, a(tid), Int(2)),
                    (bad, Int(7), a(env)), (bad, Int(8), a(tid))):
        program.add_fact(c(p, x, y))
    # an atom of any name enters as a token, never as a term (see the test)
    program.add_rows((intern_symbol(rows), 2), [(int_tok(9), atom_tok(intern_symbol(bad)))])
    queries = (c(g, X, Y), c(g, Int(1), Y), c(frame, X, Y), c(frame, a(tid), Y))
    return program, queries


def _digits_out(source):
    return re.sub(r"\b\d+\b", "0", source)


@pytest.mark.parametrize("design", list(Design))
def test_kernel_source_holds_no_program_text(design):
    # an atom the parser would not read back is refused as a term
    with pytest.raises(ProgramError, match="not an atom name"):
        literal_of(compound(_SHADOWS[0], terms.atom(_SHADOWS[-1])), {})
    sources = []
    for names in (_SHADOWS, tuple(f"plain{i}" for i in range(len(_SHADOWS)))):
        program, queries = _named_program(names)
        for query in queries:
            want = oracle_solve(program, query)
            assert want
            for threads in (1, 2):
                result = solve_parallel(program, query, EvalConfig(design=design, threads=threads))
                assert all(a == want for a in result.answer_sets)
        built = [s for act in program.compiled.templates.values() for s in act.sources or ()]
        for source in built:
            toks = list(tokenize.generate_tokens(io.StringIO(source).readline))
            assert not any(tok.type == tokenize.STRING for tok in toks)
            assert all(tok.string.isdigit() for tok in toks if tok.type == tokenize.NUMBER)
            assert _SHADOWS[-1] not in source and "plain" not in source
        sources.append([_digits_out(source) for source in built])
    # renaming every symbol changes no kernel but for its int literals
    assert sources[0] == sources[1] and len(sources[0]) >= 5


def test_kernels_compile_once_per_source():
    kernels = []
    for _ in range(2):
        program = _reach_program(_ring(8))
        solve_parallel(program, parse_query("reach(3,Y)"), EvalConfig(design=Design.NS))
        (act,) = program.compiled.templates.values()
        kernels.append(act.kernels)
    # a rebuilt program reuses the code, but binds its own rows
    assert all(a.__code__ is b.__code__ and a is not b for a, b in zip(*kernels))
    # a program that differs in one fact constant shares the code too, and
    # still finds its own answers
    program = _reach_program(_ring(8)[:-1] + [(8, 3)])
    for text in ("reach(3,Y)", "reach(X,Y)", "reach(1,hub)"):
        query = parse_query(text)
        want = oracle_solve(program, query)
        for design in Design:
            result = solve_parallel(program, query, EvalConfig(design=design, threads=2))
            assert all(a == want for a in result.answer_sets), text
    act = program.compiled.templates[((intern_symbol("reach"), 2), None, var_tok(0))]
    assert len(act.kernels) == len(kernels[0]) == 3
    assert all(a.__code__ is k.__code__ for a, k in zip(act.kernels, kernels[0]))
    maxsize = engine._kernel_code.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and 0 < maxsize <= 4096


def _answer_trie(node, width):
    """An answer trie below `node` as plain data: per inner node its
    children in chain order, each with its subtrie, and whether its index,
    if it has one, maps each of them; at the last level the leaf container's
    type and tokens, in order while it is a tuple."""
    if width == 1:
        leaves = node.payload
        return leaves if type(leaves) is not set else ("set", sorted(leaves))
    chain = []
    child = node.first_child
    while child is not None:
        chain.append(child)
        child = child.sibling
    index = node.index
    indexed = index is not None and len(index) == len(chain) and \
        all(index[c.token] is c for c in chain)
    return index is not None, indexed, [(c.token, _answer_trie(c, width - 1)) for c in chain]


def _answer_streams(seed):
    """(width, answer paths) per width 1 to 4, shuffled, with duplicates and
    with a chain or leaf container past HASH_THRESHOLD at every level; and
    the variable-free call's TRUE_TOK answer, offered three times."""
    rng = random.Random(seed)
    values = [int_tok(k) for k in range(-4, 8)] + \
        [atom_tok(intern_symbol(f"w{k}")) for k in range(6)]

    def path(head):
        return head + tuple(rng.choice(values) for _ in range(width - len(head)))

    streams = []
    for width in range(1, 5):
        stream = [path(()) for _ in range(30 * width)]
        # 12 siblings below one node at each level
        stream += [path(stream[0][:k] + (v,)) for k in range(width)
                   for v in rng.sample(values, 12)]
        stream += rng.sample(stream, 20)
        rng.shuffle(stream)
        streams.append((width, stream))
    streams.append((1, [(TRUE_TOK,)] * 3))
    return streams


def _stream_program(width, stream):
    """A program whose one kernel offers `stream` in order: t(V0, ...) :-
    s(V0, ...), over the rows of s, or for the TRUE_TOK stream the
    variable-free g :- s(V0), over one row per offer."""
    if stream[0] == (TRUE_TOK,):
        head, s, rows = "g", compound("s", Var(0)), [(int_tok(k),) for k in range(len(stream))]
    else:
        args = [Var(k) for k in range(width)]
        head, s, rows = compound("t", *args), compound("s", *args), stream
    pred = literal_of(head, {}).pred
    program = Program(tabled=frozenset({pred}))
    program.add_rows(literal_of(s, {}).pred, rows)
    program.add_clause(head, [s])
    return program, head


@pytest.mark.parametrize("sync", [SyncMode.LOCK, SyncMode.TRYLOCK])
@pytest.mark.parametrize("design", list(Design))
def test_kernels_store_answers_as_new_answer_tokens_does(design, sync):
    # each stream through its generated kernel and through the method must
    # leave equal logs, equal tries, equal ats tallies and equal new flags
    for seed in (1, 2, 3):
        for width, stream in _answer_streams(seed):
            program, query = _stream_program(width, stream)
            events = []
            result = solve_parallel(program, query, EvalConfig(design, sync, 1),
                                    trace_factory=lambda tid: events.append, release=False)
            frame = events[0][1]
            news = [e[2] for e in events if e[0] == "new_answer"]
            assert len(news) == len(stream)

            table = Table(program.tabled, design, sync)
            lit = literal_of(query, {})
            other = table.subgoal_call(table.entries[lit.pred],
                                       (atom_tok(lit.pred[0]),) + lit.args, 0)
            assert [table.new_answer_tokens(other, path) for path in stream] == news
            assert other.answers == frame.answers
            assert len(frame.answers) == width * len(set(stream))
            assert _answer_trie(other.answer_root, width) == \
                _answer_trie(frame.answer_root, width)
            assert table.snapshot_counters().ats == result.counters.ats
            if stream[0] == (TRUE_TOK,):
                assert frame.answers == [TRUE_TOK] and news == [True, False, False]
                continue
            # some chain is hashed at every inner level, and some leaf container
            hashed = {depth for depth, node in _nodes(frame.answer_root)
                      if node.index is not None or type(node.payload) is set}
            assert hashed == set(range(width)), (width, hashed)


@pytest.mark.parametrize("design", list(Design))
def test_a_solve_makes_fewer_python_calls_than_it_finds_answers(design):
    # every answer is checked and stored inside its join kernel, under FS
    # with the lock taken there too, so no Python call is made per answer
    program, query = bench_program("pathleft:btree:8")
    solve_parallel(program, query, EvalConfig(design))  # compiles the program
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":  # a Python call or a generator's resumption
            calls += 1

    profiler = sys.getprofile()
    sys.setprofile(count)
    try:
        result = solve_parallel(program, query, EvalConfig(design))
    finally:
        sys.setprofile(profiler)
    (answers,) = result.answer_sets
    assert len(answers) == 1538
    assert calls < len(answers), calls


@pytest.mark.parametrize("design", list(Design))
def test_a_warm_solve_dispatches_its_calls_with_no_compiler_call(design):
    # each call site carries its callee's activation, so a new frame finds
    # its kernels in one attribute read: the solve looks up the query's
    # own activation, and the compiled program is not called again
    program, query = bench_program("pathright:btree:6")
    solve_parallel(program, query, EvalConfig(design))  # builds every kernel
    compiler = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_qualname.startswith("_Compiled"):
            compiler.append(frame.f_code.co_qualname)

    profiler = sys.getprofile()
    sys.setprofile(record)
    try:
        result = solve_parallel(program, query, EvalConfig(design))
    finally:
        sys.setprofile(profiler)
    (answers,) = result.answer_sets
    assert answers == oracle_solve(program, query) and result.counters.sf == 63
    assert len(compiler) <= 1, compiler


def _nodes(root):
    """(depth, node) for each node of a trie, the root at depth 0."""
    stack = [(0, root)]
    while stack:
        depth, node = stack.pop()
        yield depth, node
        child = node.first_child
        while child is not None:
            stack.append((depth + 1, child))
            child = child.sibling


@pytest.mark.parametrize("design", list(Design))
def test_a_kernel_entered_on_a_completed_frame_raises(design):
    program = parse_program(":- table t/2.\nt(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), e(Y,Z).\n"
                            "e(1,2). e(2,3).\n")
    compiled = engine._compile(program)
    table = Table(compiled.tabled, design)
    ev = engine._Eval(compiled, table, 0)
    lit = literal_of(parse_query("t(X,Y)"), {})
    frame = table.subgoal_call(table.entries[lit.pred], (atom_tok(lit.pred[0]),) + lit.args, 0)
    table.mark_complete([frame])
    act = compiled.act((lit.pred, *lit.args))  # both arguments are variables
    kernels = compiled.build(act)
    # the fact clause stores from k0; the recursive one joins its own
    # complete frame's log in r0
    assert len(kernels) == 2 and "def r0(" in act.sources[1]
    for kernel in kernels:
        with pytest.raises(EvaluationError, match="^new_answer on a completed subgoal$"):
            next(kernel(ev, frame))
    with pytest.raises(EvaluationError, match="^new_answer on a completed subgoal$"):
        table.new_answer_tokens(frame, (int_tok(1), int_tok(2)))
    assert frame.answers == [] and table.snapshot_counters().ats == 0
