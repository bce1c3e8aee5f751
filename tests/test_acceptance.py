"""Acceptance suite.

Each criterion runs at its stated scale and tolerance and prints one
PASS line (visible with `pytest -rA` or `-s`).  The two heavy criteria
(full benchmark matrix, trie stress) fan out over a small process pool;
evaluation inside each cell stays thread-based.
"""

import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from tabling.bench import default_query, desk_instances, make_program, parse_bench_spec
from tabling.buckets import Direct, Indirect, bucket_cell
from tabling.cli import CSV_COLUMNS, run_command
from tabling.engine import EvalConfig, solve_parallel
from tabling.oracle import oracle_solve
from tabling.tablespace import COMPLETE, Design
from tabling.terms import int_tok
from tabling.trie import SyncMode, new_root
from trie_helpers import check_insert_node, child_tokens, find_child

WORKERS = max(1, min(4, os.cpu_count() or 1))
THREAD_COUNTS = (1, 2, 8, 16)
DESIGN_LOCKS = (
    (Design.NS, SyncMode.TRYLOCK, "none"),      # NS never touches shared tries
    (Design.SS, SyncMode.LOCK, "lock"),
    (Design.SS, SyncMode.TRYLOCK, "trylock"),
    (Design.FS, SyncMode.LOCK, "lock"),
    (Design.FS, SyncMode.TRYLOCK, "trylock"),
)

# populated before the fork-based pools spin up; workers inherit it
_MATRIX: dict = {}


def _pool():
    return ProcessPoolExecutor(
        max_workers=WORKERS, mp_context=multiprocessing.get_context("fork"))


def _ensure_matrix():
    if _MATRIX:
        return
    query = default_query()
    for inst in desk_instances():
        program = make_program(inst)
        _MATRIX[inst.name] = (program, query, oracle_solve(program, query))


def _matrix_cell(cell):
    name, design_value, sync_value, threads = cell
    program, query, expected = _MATRIX[name]
    cfg = EvalConfig(design=Design(design_value), sync=SyncMode(sync_value),
                     threads=threads)
    result = solve_parallel(program, query, cfg)
    mismatches = sum(1 for answers in result.answer_sets if answers != expected)
    return name, design_value, sync_value, threads, mismatches, result.wall_ms


def test_criterion_1_oracle_equivalence_full_matrix():
    t0 = time.perf_counter()
    _ensure_matrix()
    cells = [(name, design.value, sync.value, threads)
             for name in _MATRIX
             for design, sync, _label in DESIGN_LOCKS
             for threads in THREAD_COUNTS]
    with _pool() as pool:
        results = list(pool.map(_matrix_cell, cells, chunksize=1))
    bad = [r for r in results if r[4]]
    assert not bad, f"thread answer sets diverged from the oracle: {bad[:5]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"matrix took {elapsed:.0f}s, over the 10 minute budget"
    print(f"ACCEPTANCE 1 oracle equivalence: PASS "
          f"({len(results)} runs, {elapsed:.0f}s, {WORKERS} worker processes)")


def _law_runs(spec):
    program = make_program(parse_bench_spec(spec))
    query = default_query()
    out = {}
    for design, sync, label in DESIGN_LOCKS:
        per_nt = {}
        for nt in THREAD_COUNTS:
            cfg = EvalConfig(design=design, sync=sync, threads=nt)
            per_nt[nt] = solve_parallel(program, query, cfg).counters
        out[(design, label)] = per_nt
    return out


def test_criterion_2_memory_formula_laws():
    for spec in ("pathright:cycle:30", "pathleft:btree:6"):
        runs = _law_runs(spec)
        for (design, label), per_nt in runs.items():
            base = per_nt[1]
            subgoals = base.sf  # one frame per distinct subgoal at NT=1
            for nt, c in per_nt.items():
                where = f"{spec} {design.value}/{label} NT={nt}"
                if design is Design.NS:
                    assert c.ats == nt * base.ats, where
                    assert c.sts == nt * base.sts, where
                elif design is Design.SS:
                    assert c.sts == base.sts, where
                    assert c.ats == nt * base.ats, where
                    assert c.sf == nt * subgoals, where
                    assert c.ba == subgoals, where  # one per subgoal leaf
                else:
                    assert c.sts == base.sts, where
                    assert c.ats == base.ats, where    # shared answer tries
                    assert c.se == subgoals, where
                    assert c.sf == nt * subgoals, where
    print("ACCEPTANCE 2 memory-formula count laws: PASS (exact equality, "
          f"NT in {THREAD_COUNTS})")


STRESS_THREADS = 24
STRESS_OPS = 10_000
STRESS_ALPHABET = 1_000
STRESS_REPS = 20


def _stress_rep(args):
    mode_value, seed = args
    mode = SyncMode(mode_value)
    root = new_root()
    tokens = [int_tok(i) for i in range(STRESS_ALPHABET)]
    recorded: list = [None] * STRESS_THREADS
    barrier = threading.Barrier(STRESS_THREADS)

    def work(tid):
        rng = random.Random(seed * 1009 + tid)
        rec = {}
        barrier.wait()
        for _ in range(STRESS_OPS):
            tok = tokens[rng.randrange(STRESS_ALPHABET)]
            rec[tok] = id(check_insert_node(root, tok, mode))
        recorded[tid] = rec

    workers = [threading.Thread(target=work, args=(tid,))
               for tid in range(STRESS_THREADS)]
    for w in workers:
        w.start()
    deadline = time.monotonic() + 600
    violations = []
    for w in workers:
        w.join(timeout=max(0.0, deadline - time.monotonic()))
        if w.is_alive():
            violations.append("liveness: worker did not terminate")
            return mode_value, seed, violations
    inserted = set()
    for rec in recorded:
        inserted.update(rec)
    chain = child_tokens(root)
    if len(chain) != len(set(chain)):
        violations.append("duplicate token in final chain")
    if set(chain) != inserted:
        violations.append("final child set differs from inserted set")
    for tok in inserted:
        node = find_child(root, tok)
        if node is None:
            violations.append(f"token {tok} missing from chain")
            break
        final_id = id(node)
        if any(rec.get(tok, final_id) != final_id for rec in recorded):
            violations.append(f"caller saw a node that is not in the final chain")
            break
    return mode_value, seed, violations


def test_criterion_3_concurrent_trie_stress():
    t0 = time.perf_counter()
    jobs = [(mode.value, rep)
            for mode in (SyncMode.LOCK, SyncMode.TRYLOCK)
            for rep in range(STRESS_REPS)]
    with _pool() as pool:
        results = list(pool.map(_stress_rep, jobs, chunksize=1))
    bad = [r for r in results if r[2]]
    assert not bad, f"trie stress violations: {bad[:3]}"
    print(f"ACCEPTANCE 3 concurrent trie check/insert: PASS "
          f"({len(jobs)} repetitions x {STRESS_THREADS} threads x "
          f"{STRESS_OPS} ops, {time.perf_counter() - t0:.0f}s)")


def test_criterion_4_bucket_array_mapping():
    s = u = 32
    seen = set()
    for t in range(1024):
        cell = bucket_cell(t, s, u)
        if t < s:
            assert cell == Direct(t)
        else:
            assert cell == Indirect((t - s) // u, (t - s) % u)
        key = (0, cell.index) if isinstance(cell, Direct) else (1, cell.first, cell.second)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 1024
    print("ACCEPTANCE 4 bucket-array mapping: PASS (injective and total on [0,1024))")


def test_criterion_5_local_evaluation_discipline():
    # single-thread instrumented runs across all designs, then a
    # multi-thread FS run; consumption before completion is only legal
    # from frames on the consumer's own dependency stack
    checked_events = 0
    fail_events = 0
    for spec in ("pathleft:cycle:20", "pathright:grid:4"):
        program = make_program(parse_bench_spec(spec))
        query = default_query()
        for design in Design:
            events = []
            solve_parallel(program, query, EvalConfig(design=design, threads=1),
                           trace_factory=lambda tid: events.append)
            for e in events:
                if e[0] == "consume":
                    assert e[2] == COMPLETE or e[3], \
                        f"answer consumed from an incomplete off-stack frame ({spec})"
                    checked_events += 1
                elif e[0] == "new_answer" and not e[2]:
                    fail_events += 1
    assert checked_events > 0 and fail_events > 0

    # duplicate derivations never alter control flow: for pathleft:cycle:d
    # the recursive clause derives every closure pair exactly once and the
    # base clause re-derives each of the d edges, so exactly d duplicate
    # derivations must be enumerated past their failing new_answer
    d = 20
    program = make_program(parse_bench_spec(f"pathleft:cycle:{d}"))
    events = []
    answers = solve_parallel(program, default_query(),
                             EvalConfig(design=Design.NS, threads=1),
                             trace_factory=lambda tid: events.append).answer_sets[0]
    news = [e for e in events if e[0] == "new_answer"]
    assert len(answers) == d * d
    assert len(news) == d * d + d
    assert sum(1 for e in news if not e[2]) == d

    per_thread_events = {}

    def tracer(tid):
        per_thread_events[tid] = []
        return per_thread_events[tid].append

    program = make_program(parse_bench_spec("pathright:cycle:20"))
    solve_parallel(program, default_query(),
                   EvalConfig(design=Design.FS, threads=4), trace_factory=tracer)
    for tid, events in per_thread_events.items():
        for e in events:
            if e[0] == "consume":
                assert e[2] == COMPLETE or e[3], f"thread {tid} broke the discipline"
    print("ACCEPTANCE 5 local-evaluation discipline: PASS "
          f"({checked_events} consumption sites checked, "
          f"{fail_events} failing new_answer calls continued backtracking)")


def test_criterion_6_directional_performance(capsys):
    code = run_command(["--bench", "pathright:cycle:100", "--design", "ns,fs",
                        "--lock", "trylock", "--threads", "8", "--repeat", "3"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    by_design = {r[1]: r for r in rows}
    cols = CSV_COLUMNS.split(",")
    ats = cols.index("ats")
    assert int(by_design["fs"][ats]) < int(by_design["ns"][ats])  # hard assert
    with capsys.disabled():
        print("\nACCEPTANCE 6 directional performance (wall time reported for "
              "manual inspection, allocation law hard-asserted):")
        print(CSV_COLUMNS)
        print(",".join(by_design["ns"]))
        print(",".join(by_design["fs"]))
        print("ACCEPTANCE 6 directional performance: PASS "
              f"(FS answer-trie nodes {by_design['fs'][ats]} < NS {by_design['ns'][ats]})")
