"""Sibling-chained trie with hashed long chains and striped write locks.

Children of a node form a singly linked list (`first_child` ... `sibling`);
insertion is always at the head of the chain and a node's `sibling` link
never changes once the node is reachable, so readers can traverse
concurrently with writers and always see a consistent chain.

Once a parent's chain reaches `HASH_THRESHOLD` children it also gets an
`index`, a dict from token to child, as in YapTab.  The chain stays intact
beside it.  The writer that links the threshold-th child builds the whole
index and then publishes it with one assignment; every later insert links
the chain first and then adds the index entry.  Readers look a token up
through the index when there is one and scan the chain otherwise, without
any lock.

`check_insert_path_counted` supports three synchronization modes:

* NONE     - caller owns the trie; plain lookup and insert, no locking,
             on a path of its own.
* LOCK     - look up without the lock; if the token is absent, block on the
             parent's lock, re-check only what was linked since that look
             (the new head segment of the chain, or the index once it
             exists), then insert.  LOCK thus looks once without the lock
             and once with it.
* TRYLOCK  - like LOCK, but never blocks: each failed lock attempt yields
             the interpreter and re-checks what was linked since the
             previous look before it tries again.

The unlocked look is the caller's own walk, in every mode: a token the trie
already holds costs no call and no lock.  Only a missing token leaves the
walk, under NONE for `link_child` and under LOCK and TRYLOCK for
`insert_shared`, the one locked insert of a node, which differs between the
two only in whether its lock acquire blocks.

An answer trie has a fixed depth, the width of its call's answers, so its
last level needs no nodes: the node above it keeps its leaf tokens in one
container in its `payload`, which answer tries use for nothing else, a `list`
below `HASH_THRESHOLD` tokens and a `set` from then on, in the role of
YapTab's hashed chain.  A look is `tok in leaves`, one C call, and an answer
costs a slot there, not an object.  Inner answer nodes and subgoal tries stay
`TrieNode` chains.  `add_leaf` grows a container; a list that reaches the
threshold is replaced by a set in one assignment and never written again, so
a reader holding it misses at most a token, which it then finds under the
lock.  A token is added only after its answer is logged, by the owner of an
unshared trie (`Table.new_answer_tokens`) or under the parent's lock
(`insert_leaf_shared`), so a thread that finds a token finds its answer
logged.

Write locks are not per node: a table makes one small array of locks with
`new_locks`, and a parent's writers take the lock `hash(parent)` selects
from it (`get_or_create_payload` takes the leaf's).  All writers of one
sibling chain thus share a lock, and two chains rarely do.  No code path
holds two of these locks at once, so a shared lock costs a wait, never a
deadlock.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Any, Callable, Sequence

from .terms import TokenSeq

HASH_THRESHOLD = 8  # children at which a chain gets its index (YapTab's value)
N_LOCKS = 16        # write locks per table


class SyncMode(Enum):
    NONE = "none"
    LOCK = "lock"
    TRYLOCK = "trylock"


ROOT_TOKEN = 0  # packed tokens always have a nonzero tag, so 0 never collides


class TrieNode:
    __slots__ = ("token", "first_child", "sibling", "index", "payload")

    def __init__(self, token: int, sibling: TrieNode | None = None):
        self.token = token
        self.first_child: TrieNode | None = None
        self.sibling = sibling
        self.index: dict[int, TrieNode] | None = None
        self.payload: Any = None

    def __repr__(self) -> str:  # debugging aid only
        return f"<TrieNode {self.token}>"


def new_root() -> TrieNode:
    return TrieNode(ROOT_TOKEN)


def new_locks() -> list:
    """The write locks of one table's tries."""
    return [threading.Lock() for _ in range(N_LOCKS)]


_LOCKS = new_locks()  # for callers that bring no locks of their own
_BELOW_THRESHOLD = range(HASH_THRESHOLD - 1)
_LIST_MAX = HASH_THRESHOLD - 1  # leaf tokens a container holds as a list


def _hash_chain(parent: TrieNode) -> None:
    index = {}
    child = parent.first_child
    while child is not None:
        index[child.token] = child
        child = child.sibling
    parent.index = index


def link_child(parent: TrieNode, tok: int, index: dict | None) -> TrieNode:
    """Insert `tok` at the head of a chain known not to hold it; the caller
    owns the chain or holds its lock, and passes the parent's `index` as it
    read it."""
    child = parent.first_child = TrieNode(tok, parent.first_child)
    if index is not None:
        index[tok] = child
        return child
    # an unhashed chain is shorter than the threshold: hash it if it is
    # exactly that long now
    node = child
    for _ in _BELOW_THRESHOLD:
        node = node.sibling
        if node is None:
            return child
    _hash_chain(parent)
    return child


def insert_shared(parent: TrieNode, tok: int, locks, blocking: bool,
                  seen: TrieNode | None) -> tuple[TrieNode, bool]:
    """The LOCK and TRYLOCK insert of a `tok` that the caller's unlocked look
    did not find under `parent`, scanning the chain down from `seen` (unused
    once the chain is hashed).  It takes the parent's lock and re-checks only
    what was linked since that look; a failed trylock yields and re-checks
    before it tries again.  Returns (child, whether this call linked it)."""
    lock = locks[hash(parent) % len(locks)]
    held = False
    try:
        while True:
            held = lock.acquire(blocking)
            if not held:
                # yield: under the GIL the holder cannot finish while this thread spins
                time.sleep(0)
            index = parent.index
            if index is not None:
                child = index.get(tok)
                if child is not None:
                    return child, False
            else:
                first = child = parent.first_child
                while child is not seen:
                    if child.token == tok:
                        return child, False
                    child = child.sibling
                seen = first
            if held:
                return link_child(parent, tok, index), True
    finally:
        if held:
            lock.release()


def add_leaf(parent: TrieNode, leaves: list | set | None, tok: int) -> None:
    """Add the answer leaf `tok`, known to be absent, to `parent`'s leaf
    container `leaves` as the caller read it from `payload`; the caller owns
    the container or holds its lock.  A list that would reach
    `HASH_THRESHOLD` tokens is replaced by a set and left as it was."""
    if leaves is None:
        parent.payload = [tok]
    elif type(leaves) is set:
        leaves.add(tok)
    elif len(leaves) < _LIST_MAX:
        leaves.append(tok)
    else:
        parent.payload = {*leaves, tok}


def insert_leaf_shared(parent: TrieNode, tok: int, locks, blocking: bool,
                       log: list, path: TokenSeq) -> bool:
    """The LOCK and TRYLOCK insert of an answer leaf `tok` that the caller's
    unlocked look did not find in `parent`'s leaf container.  It takes the
    parent's lock, re-reads `payload` and re-checks; a failed trylock yields
    and re-checks before it tries again.  Still holding the lock, it extends
    `log` by the answer's `path` and then adds the leaf.  Returns whether
    this call added it."""
    lock = locks[hash(parent) % len(locks)]
    held = False
    try:
        while True:
            held = lock.acquire(blocking)
            if not held:
                time.sleep(0)  # yield, as in `insert_shared`
            leaves = parent.payload
            if leaves is not None and tok in leaves:
                return False
            if held:
                log.extend(path)
                add_leaf(parent, leaves, tok)
                return True
    finally:
        if held:
            lock.release()


_NONE = SyncMode.NONE
_LOCK = SyncMode.LOCK


def check_insert_node(parent: TrieNode, tok: int, mode: SyncMode,
                      locks: Sequence = _LOCKS) -> TrieNode:
    """Return the unique child of `parent` carrying `tok`, inserting it if absent."""
    return check_insert_path_counted(parent, (tok,), mode, locks)[0]


def check_insert_path_counted(
    root: TrieNode, toks: TokenSeq, mode: SyncMode, locks: Sequence = _LOCKS,
) -> tuple[TrieNode, int, bool]:
    """Fold check_insert_node over a token sequence, reporting (leaf node,
    created node count, leaf created).

    `leaf created` is True iff the final node of the path did not exist
    before this call, i.e. the whole path is new to the trie.
    """
    if not toks:
        raise ValueError("empty token path")
    node = root
    created = 0
    made = False
    seen = None  # where the last unhashed look started; unused once hashed
    for tok in toks:
        # look without a lock; only a missing token leaves the walk
        index = node.index
        if index is not None:
            child = index.get(tok)
        else:
            seen = child = node.first_child
            while child is not None and child.token != tok:
                child = child.sibling
        made = child is None
        if made:
            if mode is _NONE:
                child = link_child(node, tok, index)
            else:
                child, made = insert_shared(node, tok, locks, mode is _LOCK, seen)
            created += made
        node = child
    return node, created, made


def get_or_create_payload(
    leaf: TrieNode, factory: Callable[[], Any], locks: Sequence
) -> tuple[Any, bool]:
    """Get-or-create the opaque attachment of a shared leaf.

    Creation is serialized on the leaf's lock from `locks`, so concurrent
    callers agree on a single payload.
    """
    payload = leaf.payload
    if payload is not None:
        return payload, False
    with locks[hash(leaf) % len(locks)]:
        payload = leaf.payload
        if payload is None:
            payload = factory()
            leaf.payload = payload
            return payload, True
    return payload, False

