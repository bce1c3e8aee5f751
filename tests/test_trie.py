import random
import sys
import threading
import time

import pytest

from tabling.tablespace import Design, Table
from tabling.terms import atom_tok, int_tok, intern_symbol, var_tok
from tabling.trie import (
    HASH_THRESHOLD,
    SyncMode,
    add_leaf,
    check_insert_path_counted,
    link_child,
    new_locks,
    new_root,
)
from trie_helpers import check_insert_node, child_tokens, find_child, leaf_tokens

A = atom_tok(intern_symbol("a"))
P = (intern_symbol("p"), 2)
SUBGOAL = (atom_tok(P[0]), var_tok(0), var_tok(1))  # the open call p(V0, V1)
MODES = (None, SyncMode.LOCK, SyncMode.TRYLOCK)  # None: the caller owns the trie


def test_insert_into_empty_chain():
    root = new_root()
    node = check_insert_node(root, A)
    assert root.first_child is node
    assert node.token == A


@pytest.mark.parametrize("mode", MODES)
def test_insert_idempotent(mode):
    root = new_root()
    first = check_insert_node(root, A, mode)
    second = check_insert_node(root, A, mode)
    assert first is second
    assert child_tokens(root) == [A]


def _chain(parent):
    nodes = []
    child = parent.first_child
    while child is not None:
        nodes.append(child)
        child = child.sibling
    return nodes


def _assert_indexes(root):
    """Every parent has an index exactly when its chain reached the
    threshold, and the index maps the chain's tokens to the chain's nodes.
    A parent of answer leaves has no chain, and its container is a tuple of
    distinct tokens below the threshold and a set from there on."""
    stack = [root]
    while stack:
        parent = stack.pop()
        chain = _chain(parent)
        if len(chain) < HASH_THRESHOLD:
            assert parent.index is None
        else:
            assert parent.index is not None
            assert len(parent.index) == len(chain)
            assert all(parent.index[node.token] is node for node in chain)
        leaves = parent.payload
        if leaves is not None:
            assert not chain
            assert type(leaves) is (tuple if len(leaves) < HASH_THRESHOLD else set)
            assert len(set(leaves)) == len(leaves)
        stack.extend(chain)


@pytest.mark.parametrize("mode", MODES)
def test_index_appears_at_the_threshold(mode):
    root = new_root()
    tokens = [int_tok(i) for i in range(HASH_THRESHOLD + 3)]
    for n, tok in enumerate(tokens, 1):
        node = check_insert_node(root, tok, mode)
        assert (root.index is not None) == (n >= HASH_THRESHOLD)
        assert check_insert_node(root, tok, mode) is node
        _assert_indexes(root)
    # the chain stays intact beside the index, newest first
    assert child_tokens(root) == tokens[::-1]
    assert all(find_child(root, tok).token == tok for tok in tokens)
    assert find_child(root, int_tok(999)) is None


def _stress(mode, nthreads, tokens, repeats_per_thread=1, seed=0):
    """Each thread check/inserts a shuffled copy of `tokens`; returns the
    per-token sets of returned node ids plus the root."""
    root = new_root()
    recorded = [dict() for _ in range(nthreads)]
    barrier = threading.Barrier(nthreads)

    def work(tid):
        rng = random.Random(seed * 1000 + tid)
        mine = list(tokens) * repeats_per_thread
        rng.shuffle(mine)
        barrier.wait()
        rec = recorded[tid]
        for tok in mine:
            rec[tok] = id(check_insert_node(root, tok, mode))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "stress worker did not terminate (liveness)"
    return root, recorded


@pytest.mark.parametrize("mode", [SyncMode.LOCK, SyncMode.TRYLOCK])
def test_sixteen_threads_same_tokens(mode):
    tokens = [int_tok(i) for i in range(64)]
    root, recorded = _stress(mode, 16, tokens)
    # oracle: single-threaded set insertion
    assert sorted(child_tokens(root)) == sorted(set(tokens))
    for tok in tokens:
        node = find_child(root, tok)
        assert node is not None
        assert {rec[tok] for rec in recorded} == {id(node)}
    assert len(tokens) > HASH_THRESHOLD and root.index is not None
    _assert_indexes(root)


@pytest.mark.parametrize("mode", [SyncMode.LOCK, SyncMode.TRYLOCK])
@pytest.mark.parametrize("nthreads", [2, 8, 16, 24])
def test_uniqueness_under_concurrency(mode, nthreads):
    rng = random.Random(nthreads)
    tokens = [int_tok(rng.randrange(200)) for _ in range(150)]
    root, recorded = _stress(mode, nthreads, tokens, seed=nthreads)
    chain = child_tokens(root)
    assert len(chain) == len(set(chain)), "duplicate token in sibling chain"
    assert set(chain) == set(tokens)
    for tok in set(tokens):
        node = find_child(root, tok)
        assert {rec[tok] for rec in recorded} == {id(node)}
    _assert_indexes(root)


def test_path_fresh_and_shared_prefix():
    p = intern_symbol("p")
    root = new_root()
    path1 = (atom_tok(p), int_tok(1), int_tok(2))
    leaf1, created, is_new = check_insert_path_counted(root, path1)
    assert created == 3 and is_new
    # common prefixes are represented only once
    path2 = (atom_tok(p), int_tok(1), int_tok(3))
    leaf2, created, is_new = check_insert_path_counted(root, path2)
    assert created == 1 and is_new
    # re-inserting an existing path allocates nothing and returns the same leaf
    leaf3, created, is_new = check_insert_path_counted(root, path1)
    assert created == 0 and not is_new
    assert leaf3 is leaf1
    assert leaf2 is not leaf1


def test_path_rejects_empty():
    with pytest.raises(ValueError):
        check_insert_path_counted(new_root(), ())[0]


def _nodes_and_leaf_paths(root):
    """The number of nodes and answer leaves below `root`, and the token path
    to each leaf: a childless node, or a token in a node's leaf container."""
    count, leaves = 0, set()
    todo = [(root, ())]
    while todo:
        node, path = todo.pop()
        child = node.first_child
        tokens = leaf_tokens(node)
        count += len(tokens)
        leaves.update(path + (tok,) for tok in tokens)
        if child is None and path and not tokens:
            leaves.add(path)
        while child is not None:
            count += 1
            todo.append((child, path + (child.token,)))
            child = child.sibling
    return count, leaves


def test_node_count_conservation_random_paths():
    rng = random.Random(11)
    root = new_root()
    prefixes = set()
    nodes = 0
    for _ in range(500):
        path = tuple(int_tok(rng.randrange(5)) for _ in range(rng.randrange(1, 6)))
        nodes += check_insert_path_counted(root, path)[1]
        prefixes.update(path[:i] for i in range(1, len(path) + 1))
    assert nodes == _nodes_and_leaf_paths(root)[0] == len(prefixes)


def test_concurrent_path_insertion_shares_nodes():
    p = intern_symbol("p")
    root = new_root()
    locks = new_locks()
    rng = random.Random(3)
    all_paths = [(atom_tok(p), int_tok(rng.randrange(20)), int_tok(rng.randrange(20)))
                 for _ in range(300)]
    barrier = threading.Barrier(8)

    def work(tid):
        mine = list(all_paths)
        random.Random(tid).shuffle(mine)
        barrier.wait()
        for path in mine:
            check_insert_path_counted(root, path, locks)[0]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    prefixes = {path[:i] for path in all_paths for i in range(1, 4)}
    assert _nodes_and_leaf_paths(root) == (len(prefixes), set(all_paths))
    _assert_indexes(root)


@pytest.mark.parametrize("mode", [SyncMode.LOCK, SyncMode.TRYLOCK])
def test_two_parents_on_one_lock(mode):
    # a one-lock array puts both parents' writers on the same lock
    locks = [threading.Lock()]
    parents = [new_root(), new_root()]
    tokens = [int_tok(i) for i in range(40)]
    barrier = threading.Barrier(8)
    recorded = [dict() for _ in range(8)]

    def work(tid):
        rng = random.Random(tid)
        mine = [(p, tok) for p in range(2) for tok in tokens]
        rng.shuffle(mine)
        barrier.wait()
        for p, tok in mine:
            recorded[tid][p, tok] = check_insert_node(parents[p], tok, mode, locks)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # preempt often, also inside critical regions
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "workers sharing one lock did not terminate"
    assert not locks[0].locked()
    for p, parent in enumerate(parents):
        assert sorted(child_tokens(parent)) == sorted(tokens)
        _assert_indexes(parent)
        for tok in tokens:
            assert {id(rec[p, tok]) for rec in recorded} == {id(find_child(parent, tok))}


@pytest.mark.parametrize("mode", [SyncMode.LOCK, SyncMode.TRYLOCK])
def test_shared_answer_paths_are_logged_once_and_end_in_leaves(mode):
    # 8 threads, each with its own FS frame on one subgoal entry, insert the
    # same two-token answer paths into its one trie, with chains past the
    # threshold: each path is new to exactly one insert, which logs it once,
    # and every path ends in a leaf token in its parent's container
    rng = random.Random(5)
    paths = sorted({(int_tok(rng.randrange(3)), int_tok(rng.randrange(30)))
                    for _ in range(200)})
    table = Table({P}, Design.FS, mode)
    te = table.entries[P]
    barrier = threading.Barrier(8)
    results = [[] for _ in range(8)]
    frames = [None] * 8

    def work(tid):
        frame = frames[tid] = table.subgoal_call(te, SUBGOAL, tid)
        root = frame.answer_root
        mine = list(paths)
        random.Random(tid).shuffle(mine)
        barrier.wait()
        for path in mine:
            made = table.new_answer_tokens(frame, path)
            leaf = path[1] in leaf_tokens(find_child(root, path[0]))
            results[tid].append((path, leaf, made))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # preempt often, also inside critical regions
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    entry = frames[0].entry
    assert len({id(frame) for frame in frames}) == 8
    assert all(frame.entry is entry for frame in frames)
    root, log = entry.answer_root, entry.answers
    done = [r for rs in results for r in rs]
    assert len(done) == 8 * len(paths)
    assert {leaf for _, leaf, _ in done} == {True}
    assert sorted(path for path, _, made in done if made) == paths
    assert sorted(zip(log[::2], log[1::2])) == paths
    assert _nodes_and_leaf_paths(root) == (len({p[:1] for p in paths}) + len(paths),
                                           set(paths))
    _assert_indexes(root)


class _Interloper:
    """A one-lock array whose first request first inserts `tok` under
    `parent` itself, with `payload`, as if another writer got in between the caller's lock-free look-up and its
    lock; a refused trylock then fails once.

    With a `log`, `tok` is the leaf of the answer `path`, which the other
    writer logs before it adds the leaf to `parent`'s container, as a shared
    insert does; `node` is then that token, and `looked` the container as the
    caller's look left it."""

    def __init__(self, parent, tok, refuse, log=None, path=(), payload=None):
        self._lock = threading.Lock()
        self.parent, self.tok, self.refuse = parent, tok, refuse
        self.log, self.path, self.payload = log, path, payload
        self.node = self.looked = None

    def __len__(self):
        return 1

    def __getitem__(self, i):
        return self

    def acquire(self, blocking=True):
        if self.node is None:
            if self.log is None:
                self.node = link_child(self.parent, self.tok, self.parent.index, self.payload)
            else:
                self.looked = leaves = self.parent.payload
                self.log.extend(self.path)
                add_leaf(self.parent, leaves, self.tok)
                self.node = self.tok
            if self.refuse:
                return False
        return self._lock.acquire(blocking)

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


@pytest.mark.parametrize("mode, refuse", [(SyncMode.LOCK, False),
                                          (SyncMode.TRYLOCK, False),
                                          (SyncMode.TRYLOCK, True)])
@pytest.mark.parametrize("children", [3, HASH_THRESHOLD - 1, HASH_THRESHOLD + 2])
def test_recheck_finds_a_child_inserted_before_the_lock(mode, refuse, children):
    # with THRESHOLD - 1 children the other writer's insert builds the index,
    # so the re-check goes through an index the look-up did not see
    root = new_root()
    for i in range(children):
        check_insert_node(root, int_tok(i))
    locks = _Interloper(root, int_tok(999), refuse)
    node = check_insert_node(root, int_tok(999), mode, locks)
    assert node is locks.node
    assert child_tokens(root).count(int_tok(999)) == 1
    assert not locks._lock.locked()
    _assert_indexes(root)


@pytest.mark.parametrize("mode, refuse", [(SyncMode.LOCK, False),
                                          (SyncMode.TRYLOCK, False),
                                          (SyncMode.TRYLOCK, True)])
@pytest.mark.parametrize("children", [3, HASH_THRESHOLD - 1, HASH_THRESHOLD + 2])
@pytest.mark.parametrize("level", ["inner", "leaf"])
def test_fs_answer_recheck_finds_a_node_linked_before_the_lock(mode, refuse, children, level):
    # another writer links the answer's inner node, or logs the answer and
    # adds its leaf, between the FS walk's unlocked look and its lock
    table = Table({P}, Design.FS, mode)
    frame = table.subgoal_call(table.entries[P], SUBGOAL, 0)
    root, log = frame.answer_root, frame.answers
    x = int_tok(999)
    if level == "inner":
        answers = [(int_tok(i), int_tok(0)) for i in range(children)]
        toks = (x, int_tok(0))
    else:
        answers = [(x, int_tok(i)) for i in range(children)]
        toks = (x, int_tok(1000))
    for ans in answers:
        assert table.new_answer_tokens(frame, ans)
    if level == "inner":
        parent, tok, other_log = root, x, None
    else:
        parent, tok, other_log = find_child(root, x), toks[1], log
    locks = table.answer_locks = _Interloper(parent, tok, refuse, other_log, toks)
    made = table.new_answer_tokens(frame, toks)
    assert locks.node is not None
    # only the leaf's writer tells the answer new
    assert made is (level == "inner")
    answers.append(toks)
    assert sorted(zip(log[::2], log[1::2])) == sorted(answers)
    if level == "inner":
        assert find_child(parent, tok) is locks.node
        assert child_tokens(parent).count(tok) == 1
    else:
        assert locks.node == tok
        assert leaf_tokens(parent).count(tok) == 1
    assert _nodes_and_leaf_paths(root) == (len({a[:1] for a in answers}) + len(answers),
                                           set(answers))
    assert not locks._lock.locked()
    _assert_indexes(root)


@pytest.mark.parametrize("mode, refuse", [(SyncMode.LOCK, False),
                                          (SyncMode.TRYLOCK, False),
                                          (SyncMode.TRYLOCK, True)])
def test_fs_leaf_recheck_finds_the_token_whose_add_made_the_set(mode, refuse):
    # the answer's unlocked look reads a tuple of THRESHOLD - 1 leaf tokens;
    # before its lock, another writer logs the answer and adds the
    # threshold-th token, which replaces that tuple by a set.  The insert must
    # find the token in the set, under the lock or on the retry after a
    # refused trylock, and change nothing.
    table = Table({P}, Design.FS, mode)
    frame = table.subgoal_call(table.entries[P], SUBGOAL, 0)
    x = int_tok(999)
    listed = [int_tok(i) for i in range(HASH_THRESHOLD - 1)]
    for tok in listed:
        assert table.new_answer_tokens(frame, (x, tok))
    parent = find_child(frame.answer_root, x)
    assert type(parent.payload) is tuple
    toks = (x, int_tok(1000))
    locks = table.answer_locks = _Interloper(parent, toks[1], refuse, frame.answers, toks)
    log = frame.answers
    ats = table.snapshot_counters().ats
    assert not table.new_answer_tokens(frame, toks)
    # the look held the tuple, which the change left as it was
    assert type(locks.looked) is tuple and list(locks.looked) == listed
    assert type(parent.payload) is set and parent.payload == {*listed, toks[1]}
    # only the other writer logged the answer, and this insert made nothing
    assert frame.answers is log
    assert log == [t for tok in listed for t in (x, tok)] + list(toks)
    assert table.snapshot_counters().ats == ats
    assert not locks._lock.locked()
    _assert_indexes(frame.answer_root)


class _HeldUntilYield:
    """A one-lock array whose holder can release it only once the caller
    yields the interpreter, as a holder that needs the GIL must."""

    def __init__(self):
        self.held = True
        self.refusals = 0

    def __len__(self):
        return 1

    def __getitem__(self, i):
        return self

    def acquire(self, blocking=True):
        if not self.held:
            return True
        self.refusals += 1
        if self.refusals > 1000:
            raise AssertionError("a failed trylock retried without yielding")
        return False

    def release(self):
        pass


def test_failed_trylock_yields_before_retrying(monkeypatch):
    locks = _HeldUntilYield()

    def holder_runs(seconds):
        locks.held = False

    monkeypatch.setattr(time, "sleep", holder_runs)
    root = new_root()
    node = check_insert_node(root, A, SyncMode.TRYLOCK, locks)
    assert locks.refusals == 1
    assert child_tokens(root) == [A] and node.token == A


def test_shared_leaf_payload_is_created_once():
    # 16 threads race to link one new path, each with a payload factory:
    # one of them links the leaf, and only its factory runs
    for blocking in (True, False):
        root = new_root()
        locks = new_locks()
        made = []
        results = [None] * 16
        barrier = threading.Barrier(16)

        def factory():
            payload = object()
            made.append(payload)
            time.sleep(0.001)  # widen the window for a second creator
            return payload

        def work(tid):
            barrier.wait()
            leaf, _, created = check_insert_path_counted(
                root, (A, int_tok(1)), locks, blocking, factory)
            results[tid] = leaf.payload, created

        threads = [threading.Thread(target=work, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(made) == 1
        assert {id(payload) for payload, _ in results} == {id(made[0])}
        assert sum(created for _, created in results) == 1
        assert find_child(find_child(root, A), int_tok(1)).payload is made[0]


@pytest.mark.parametrize("mode, refuse", [(SyncMode.LOCK, False),
                                          (SyncMode.TRYLOCK, False),
                                          (SyncMode.TRYLOCK, True)])
@pytest.mark.parametrize("children", [3, HASH_THRESHOLD - 1, HASH_THRESHOLD + 2])
def test_leaf_linked_before_the_lock_keeps_the_other_payload(mode, refuse, children):
    # another writer links the path's last node, with its own payload,
    # between the caller's unlocked look and its lock: the caller's factory
    # never runs, and the caller gets that node and payload, not created
    root = new_root()
    parent = check_insert_node(root, A)
    for i in range(children):
        check_insert_node(parent, int_tok(i))
    theirs, ran = object(), []
    leaf_tok = int_tok(999)
    locks = _Interloper(parent, leaf_tok, refuse, payload=theirs)
    leaf, created, made = check_insert_path_counted(
        root, (A, leaf_tok), locks, mode is SyncMode.LOCK, lambda: ran.append(1))
    assert leaf is locks.node and leaf.payload is theirs
    assert (created, made, ran) == (0, False, [])
    assert child_tokens(parent).count(leaf_tok) == 1
    assert (parent.index is not None) is (children + 1 >= HASH_THRESHOLD)
    assert not locks._lock.locked()


class _RecordingLocks:
    """A one-lock array that records every `acquire` argument and refuses
    the first try, as a lock another writer holds would."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = []

    def __len__(self):
        return 1

    def __getitem__(self, i):
        return self

    def acquire(self, blocking=True):
        self.calls.append(blocking)
        if not blocking and len(self.calls) == 1:
            return False
        return self._lock.acquire(blocking)

    def release(self):
        self._lock.release()


@pytest.mark.parametrize("mode, blocking", [(SyncMode.LOCK, True),
                                            (SyncMode.TRYLOCK, False)])
def test_lock_blocks_and_trylock_tries(mode, blocking, monkeypatch):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    locks = _RecordingLocks()
    leaf = check_insert_path_counted(new_root(), (A, int_tok(1), int_tok(2)), locks, blocking)[0]
    assert leaf.token == int_tok(2)
    assert set(locks.calls) == {blocking}
    if blocking:  # one blocking acquire per new node, and never a yield
        assert locks.calls == [True] * 3 and sleeps == []
    else:  # the refused first try yields once, then every try succeeds
        assert len(locks.calls) == 4 and sleeps == [0]
    assert not locks._lock.locked()
