import threading
import time
from types import SimpleNamespace

import pytest

from tabling import Int, buckets, tablespace, trie
from tabling.buckets import DEFAULT_DIRECT, DEFAULT_INDIRECT
from tabling.engine import EvalConfig, solve_parallel
from tabling.errors import ConfigurationError, EvaluationError
from tabling.parser import parse_program, parse_query
from tabling.tablespace import Design, Table
from tabling.terms import TRUE_TOK, atom_tok, int_tok, intern_symbol, var_tok
from tabling.trie import SyncMode
from trie_helpers import find_child, leaf_tokens

P = (intern_symbol("p"), 2)
SUBGOAL = (atom_tok(P[0]), var_tok(0), var_tok(1))  # the open call p(V0, V1)


def make_table(design, sync=SyncMode.TRYLOCK):
    return Table({P}, design, sync)


def call(table, te, tid, toks=SUBGOAL):
    return table.subgoal_call(te, toks, tid)


def answer(table, frame, *values):
    """Offer the answer binding the call's variables to `values`."""
    return table.new_answer_tokens(frame, tuple(map(int_tok, values)) or (TRUE_TOK,))


def test_ns_first_call_allocates_path_and_frame():
    table = make_table(Design.NS)
    before = table.snapshot_counters()
    assert (before.te, before.ba) == (1, 1)  # entry + its bucket array
    frame = call(table, table.entries[P], 0)
    c = table.snapshot_counters()
    assert c.sts - before.sts == 3  # predicate atom + two variable tokens
    assert c.sf - before.sf == 1
    assert frame.tid == 0


class _CountingLock:
    def __init__(self):
        self._lock = threading.Lock()
        self.acquires = 0

    def acquire(self, blocking=True, timeout=-1):
        got = self._lock.acquire(blocking, timeout)
        if got:
            self.acquires += 1
        return got

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


@pytest.mark.parametrize("sync", [SyncMode.LOCK, SyncMode.TRYLOCK])
@pytest.mark.parametrize("design", [Design.SS, Design.FS])
def test_shared_tries_take_the_tables_own_locks(monkeypatch, design, sync):
    monkeypatch.setattr(trie, "threading", SimpleNamespace(Lock=_CountingLock))
    table = make_table(design, sync)
    assert len(table.locks) == trie.N_LOCKS
    te = table.entries[P]

    def work(tid):
        frame = call(table, te, tid)
        for i in range(20):
            answer(table, frame, i, tid)

    threads = [threading.Thread(target=work, args=(tid,)) for tid in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    # the subgoal path, its leaf linked with its payload, and under FS
    # every answer node
    taken = sum(lock.acquires for lock in table.locks)
    assert taken >= 3
    if design is Design.FS:
        assert taken >= 3 + table.snapshot_counters().ats


@pytest.mark.parametrize("sync", [SyncMode.LOCK, SyncMode.TRYLOCK])
@pytest.mark.parametrize("design", [Design.SS, Design.FS])
def test_finding_an_existing_path_takes_no_lock_and_no_sleep(monkeypatch, design, sync):
    acquires, sleeps = [], []

    class RecordingLock(_CountingLock):
        def acquire(self, blocking=True, timeout=-1):
            acquires.append(blocking)
            return super().acquire(blocking, timeout)

    monkeypatch.setattr(trie, "threading", SimpleNamespace(Lock=RecordingLock))
    monkeypatch.setattr(time, "sleep", sleeps.append)
    table = make_table(design, sync)
    te = table.entries[P]
    f0 = call(table, te, 0)
    assert acquires
    acquires.clear()
    # a subgoal called again, by its thread or another, finds its path
    assert call(table, te, 0) is f0
    f1 = call(table, te, 1)
    assert acquires == []
    for values, first in (((1, 2), True), ((1, 2), False), ((1, 3), True)):
        ats = table.snapshot_counters().ats
        assert answer(table, f0, *values) is first
        created = table.snapshot_counters().ats - ats
        if design is Design.FS:
            # one acquire per new shared answer node, blocking under LOCK
            assert acquires == [sync is SyncMode.LOCK] * created
        else:
            assert acquires == []  # SS answer tries are private
        acquires.clear()
    # under FS an answer another thread stored, found without a lock
    assert answer(table, f1, 1, 3) is (design is Design.SS)
    assert acquires == []
    assert sleeps == []


def test_ns_table_makes_no_locks():
    assert make_table(Design.NS).locks is None


@pytest.mark.parametrize("design", list(Design))
def test_table_space_bookkeeping_makes_no_locks(monkeypatch, design):
    # allocation tallies are per thread and bucket cells single-writer, so
    # outside the trie lock array the table space creates no lock at all
    made = []

    def counting_lock():
        made.append(1)
        return threading.Lock()

    for module in (tablespace, buckets):
        monkeypatch.setattr(module, "threading", SimpleNamespace(Lock=counting_lock))
    program = parse_program(":- table p/2.\np(X,Y) :- e(X,Y).\n"
                            "p(X,Z) :- p(X,Y), e(Y,Z).\ne(1,2). e(2,3). e(3,1).")
    result = solve_parallel(program, parse_query("p(X,Y)"),
                            EvalConfig(design=design, threads=2))
    assert all(len(a) == 9 for a in result.answer_sets)
    assert made == []


@pytest.mark.parametrize("design", list(Design))
def test_second_call_is_idempotent(design):
    table = make_table(design)
    te = table.entries[P]
    f1 = call(table, te, 0)
    snap = table.snapshot_counters()
    f2 = call(table, te, 0)
    assert f1 is f2
    assert table.snapshot_counters() == snap  # zero new allocations


def test_fs_two_threads_share_entry():
    table = make_table(Design.FS)
    te = table.entries[P]
    f0 = call(table, te, 0)
    f1 = call(table, te, 1)
    assert f0 is not f1
    assert f0.entry is f1.entry  # one subgoal entry, one shared answer trie
    c = table.snapshot_counters()
    assert c.se == 1 and c.sf == 2


def test_ss_two_threads_private_answer_tries():
    table = make_table(Design.SS)
    te = table.entries[P]
    f0 = call(table, te, 0)
    f1 = call(table, te, 1)
    assert f0 is not f1
    assert f0.answer_root is not f1.answer_root
    c = table.snapshot_counters()
    assert c.sts == 3  # subgoal trie shared
    assert c.ba == 1   # one per-leaf bucket array, none at the table entry
    assert c.sf == 2 and c.se == 0


def test_new_answer_fresh_and_duplicate():
    table = make_table(Design.NS)
    frame = call(table, table.entries[P], 0)
    before = table.snapshot_counters().ats
    assert answer(table, frame, 1, 2) is True
    assert table.snapshot_counters().ats == before + 2
    assert answer(table, frame, 1, 2) is False
    assert table.snapshot_counters().ats == before + 2


def test_fs_cross_thread_newness_and_node_reuse():
    # single-thread reference node count for the same two answers
    ref = make_table(Design.NS)
    rf = call(ref, ref.entries[P], 0)
    answer(ref, rf, 1, 2)
    answer(ref, rf, 1, 3)
    single = ref.snapshot_counters().ats

    table = make_table(Design.FS)
    te = table.entries[P]
    fa = call(table, te, 0)
    fb = call(table, te, 1)
    assert answer(table, fa, 1, 2) is True
    assert answer(table, fa, 1, 3) is True
    base = table.snapshot_counters().ats
    assert base == single
    # thread B derives an answer thread A already stored: the shared trie is
    # unchanged and the answer is not new to the table
    assert answer(table, fb, 1, 2) is False
    assert table.snapshot_counters().ats == base
    # the shared flat log holds the two answers once each, two tokens apiece
    assert fb.answers is fa.answers
    assert fa.answers == [int_tok(1), int_tok(2), int_tok(1), int_tok(3)]


def test_fs_interleaved_threads_share_answer_nodes():
    table = make_table(Design.FS)
    te = table.entries[P]
    answers = [(i, j) for i in range(10) for j in range(10)]
    barrier = threading.Barrier(2)
    news = [0, 0]

    def work(tid, order):
        frame = call(table, te, tid)
        barrier.wait()
        for ans in order:
            if answer(table, frame, *ans):
                news[tid] += 1

    t0 = threading.Thread(target=work, args=(0, answers))
    t1 = threading.Thread(target=work, args=(1, list(reversed(answers))))
    t0.start(); t1.start(); t0.join(); t1.join()
    # shared trie grew exactly as if one thread had inserted everything,
    # and each answer was new exactly once table-wide
    assert table.snapshot_counters().ats == 10 + 100
    assert sum(news) == 100


def test_mark_complete_and_answers_of():
    table = make_table(Design.NS)
    frame = call(table, table.entries[P], 0)
    answer(table, frame, 1, 2)
    with pytest.raises(EvaluationError):
        table.answers_of(frame)  # not complete yet
    table.mark_complete([frame])
    assert table.answers_of(frame) == [(Int(1), Int(2))]
    with pytest.raises(EvaluationError):
        table.mark_complete([frame])  # double completion
    with pytest.raises(EvaluationError):
        answer(table, frame, 9, 9)  # frame already complete


def test_answers_of_decodes_afresh_on_every_call():
    table = make_table(Design.NS)
    frame = call(table, table.entries[P], 0)
    # CPython shares small ints and the symbol table shares names, so show
    # the memo on a value past both
    for j in range(3):
        answer(table, frame, 2**70, j)
    table.mark_complete([frame])
    first, second = table.answers_of(frame), table.answers_of(frame)
    assert first == second == [(2**70, Int(0)), (2**70, Int(1)), (2**70, Int(2))]
    # within one call the repeated value is one term object ...
    assert len({id(ans[0]) for ans in first}) == 1
    # ... and the memo does not outlive the call
    other = call(table, table.entries[P], 1)
    answer(table, other, 2**70, 0)
    table.mark_complete([other])
    (a, _), = table.answers_of(other)
    (b, _), = table.answers_of(other)
    assert a == b == 2**70 and a is not b


def test_empty_substitution_answer():
    ground = (atom_tok(P[0]), int_tok(1), int_tok(2))
    table = make_table(Design.NS)
    frame = call(table, table.entries[P], 0, ground)
    assert answer(table, frame) is True
    assert answer(table, frame) is False
    table.mark_complete([frame])
    assert table.answers_of(frame) == [()]


def test_fs_threads_enumerate_identical_sets():
    table = make_table(Design.FS)
    te = table.entries[P]
    fa = call(table, te, 0)
    fb = call(table, te, 1)
    answer(table, fa, 1, 2)
    answer(table, fb, 3, 4)
    table.mark_complete([fa, fb])
    assert set(table.answers_of(fa)) == set(table.answers_of(fb)) == \
        {(Int(1), Int(2)), (Int(3), Int(4))}


def test_snapshot_example_ns_single_thread():
    table = make_table(Design.NS)
    frame = call(table, table.entries[P], 0)
    for j in range(4):
        answer(table, frame, 0, j)
    c = table.snapshot_counters()
    assert (c.te, c.ba, c.sts, c.sf, c.se) == (1, 1, 3, 1, 0)
    assert c.ats == 1 + 4  # shared first argument, four leaves


def test_snapshot_example_fs_four_threads():
    table = make_table(Design.FS)
    te = table.entries[P]
    frames = [call(table, te, tid) for tid in range(4)]
    for frame in frames:
        for j in range(4):
            answer(table, frame, 0, j)
    c = table.snapshot_counters()
    assert (c.te, c.se, c.sf, c.sts) == (1, 1, 4, 3)
    assert c.ba == 1           # the subgoal entry's bucket array
    assert c.ats == 1 + 4      # unchanged versus a single thread


def test_snapshot_example_ss_two_threads():
    table = make_table(Design.SS)
    te = table.entries[P]
    frames = [call(table, te, tid) for tid in range(2)]
    for frame in frames:
        for j in range(4):
            answer(table, frame, 0, j)
    c = table.snapshot_counters()
    assert (c.te, c.sts, c.sf, c.se) == (1, 3, 2, 0)
    assert c.ba == 1           # one bucket array per subgoal leaf
    assert c.ats == 2 * (1 + 4)


@pytest.mark.parametrize("design", [Design.NS, Design.SS])
def test_release_thread_drops_private_structures(design):
    table = make_table(design)
    te = table.entries[P]
    frames = [call(table, te, tid) for tid in range(2)]
    for frame in frames:
        answer(table, frame, 1, 2)
    totals = table.snapshot_counters()
    table.release_thread(0)
    assert table.snapshot_counters() == totals  # monotone
    if design is Design.NS:
        assert te.roots.get(0) is None  # the thread's root cell is gone
    # a re-registered thread starts fresh; the other thread keeps its frame
    assert call(table, te, 0) is not frames[0]
    assert call(table, te, 1) is frames[1]


def test_indirect_thread_ids_work():
    table = make_table(Design.FS)
    te = table.entries[P]
    frame = call(table, te, 100)
    assert frame.tid == 100
    c = table.snapshot_counters()
    assert c.ba == 2  # entry bucket array + one second-level array


def test_a_table_locks_exactly_the_tries_it_shares():
    # there is no lock mode none: NS shares no trie, SS its subgoal tries
    # and FS its answer tries too, and the lock mode only says how to lock
    with pytest.raises(ValueError):
        SyncMode("none")
    for design in Design:
        for sync in SyncMode:
            table = make_table(design, sync)
            assert (table.locks is None) is (design is Design.NS)
            assert table.answer_locks is (table.locks if design is Design.FS else None)
            assert table.blocking is (sync is SyncMode.LOCK)


def test_thread_id_capacity():
    # the bucket arrays bound thread ids; EvalConfig limits a run's threads
    capacity = DEFAULT_DIRECT + DEFAULT_INDIRECT * DEFAULT_INDIRECT
    assert capacity == 1056
    for design in Design:
        table = make_table(design)
        assert call(table, table.entries[P], capacity - 1).tid == capacity - 1
        with pytest.raises(ConfigurationError):
            call(table, table.entries[P], capacity)


@pytest.mark.parametrize("sync", [SyncMode.LOCK, SyncMode.TRYLOCK])
def test_fs_answer_is_logged_before_its_leaf_is_linked(sync):
    # thread A is held inside its append to the shared answer log, holding
    # the lock of the answer leaf's parent and with the leaf token not yet in
    # that parent's container; thread B derives the same answer meanwhile and
    # must block (LOCK) or retry (TRYLOCK) until A adds the leaf, then find
    # the answer logged
    table = make_table(Design.FS, sync)
    te = table.entries[P]
    fa = call(table, te, 0)
    entered, release = threading.Event(), threading.Event()
    locked = []

    class HeldLog(list):
        def extend(self, toks):
            locked.append(sum(lock.locked() for lock in table.locks))
            entered.set()
            release.wait(10)
            super().extend(toks)

    entry = fa.entry
    entry.answers = fa.answers = HeldLog()
    fb = call(table, te, 1)
    toks = (int_tok(1), int_tok(2))
    a = threading.Thread(target=table.new_answer_tokens, args=(fa, toks))
    a.start()
    assert entered.wait(10)
    assert locked == [1]
    parent = find_child(entry.answer_root, toks[0])
    assert toks[1] not in leaf_tokens(parent)  # logging, not yet added
    seen = []

    def derive_in_b():
        was_new = table.new_answer_tokens(fb, toks)
        seen.append((was_new, entry.answers == list(toks)))

    b = threading.Thread(target=derive_in_b)
    b.start()
    b.join(0.2)
    waited = b.is_alive()
    release.set()
    a.join(10)
    b.join(10)
    assert not a.is_alive() and not b.is_alive()
    assert seen == [(False, True)]
    assert waited
    assert leaf_tokens(parent) == [toks[1]] and type(parent.payload) is tuple
