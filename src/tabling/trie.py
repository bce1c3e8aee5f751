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

A trie is shared exactly when its writers pass `locks`, the array of write
locks its table made with `new_locks`; `locks=None` means the caller owns
the trie and links a missing token at once.  A shared insert looks up
without a lock and, only if the token is absent, takes the parent's lock,
looks again (in the index, or else along the whole chain, which is short
until it is hashed) and links the node.  `blocking` says how it takes the
lock, as the two `SyncMode`s name it:

* LOCK     - the acquire blocks, so a miss looks once without the lock and
             once with it.
* TRYLOCK  - the acquire never blocks: each failed attempt yields the
             interpreter and looks again before it tries again.

The unlocked look is the caller's own walk either way: a token the trie
already holds costs no call and no lock.  Only a missing token leaves the
walk, for `link_child` in an owned trie or for `insert_shared`, the one
locked insert of a node.  In a shared trie the node that ends a path can be
given its payload as it is linked, under that same lock, so no thread ever
reaches it without one: a shared subgoal leaf and its frames are thus made
by one lock acquire.

An answer trie has a fixed depth, the width of its call's answers, so its
last level needs no nodes: the node above it keeps its leaf tokens in one
container in its `payload`, which answer tries use for nothing else, a
`tuple` below `HASH_THRESHOLD` tokens and a `set` from then on, in the role
of YapTab's hashed chain.  A look is `tok in leaves`, one C call, and an
answer costs a slot there, not an object.  Inner answer nodes and subgoal
tries stay `TrieNode` chains.  A container grows by the code
`add_leaf_source` returns, which the join kernels run inline: a tuple is
never changed, only replaced by a longer tuple or, at the threshold, by a
set, each in one assignment, so a reader holding an old container misses at
most a token, which it then finds under the lock.  A token is added only
after its answer is logged, by the owner of an unshared trie or under the
parent's lock, both in the code `tablespace.answer_source` emits into each
join kernel, so a thread that finds a token finds its answer logged.  That
code takes a shared container's lock itself; only a refused trylock leaves
it, for `retry_leaf`, which yields and looks again before it tries again.

Write locks are not per node: a parent's writers take the lock
`hash(parent)` selects from the table's array.  All writers of one sibling
chain thus share a lock, and two chains rarely do.  No code path holds two
of these locks at once, so a shared lock costs a wait, never a deadlock.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from operator import length_hint
from typing import Any, Callable

from .terms import TokenSeq

HASH_THRESHOLD = 8  # children at which a chain gets its index (YapTab's value)
N_LOCKS = 16        # write locks per table


class SyncMode(Enum):
    LOCK = "lock"
    TRYLOCK = "trylock"


ROOT_TOKEN = 0  # packed tokens always have a nonzero tag, so 0 never collides


class TrieNode:
    __slots__ = ("token", "first_child", "sibling", "index", "payload")

    def __init__(self, token: int, sibling: TrieNode | None = None, payload: Any = None):
        self.token = token
        self.first_child: TrieNode | None = None
        self.sibling = sibling
        self.index: dict[int, TrieNode] | None = None
        self.payload = payload

    def __repr__(self) -> str:  # debugging aid only
        return f"<TrieNode {self.token}>"


def new_root() -> TrieNode:
    return TrieNode(ROOT_TOKEN)


def new_locks() -> list:
    """The write locks of one table's tries."""
    return [threading.Lock() for _ in range(N_LOCKS)]


_BELOW_THRESHOLD = range(HASH_THRESHOLD - 1)
_TUPLE_MAX = HASH_THRESHOLD - 1  # leaf tokens a container holds as a tuple


def _hash_chain(parent: TrieNode) -> None:
    index = {}
    child = parent.first_child
    while child is not None:
        index[child.token] = child
        child = child.sibling
    parent.index = index


def link_child(parent: TrieNode, tok: int, index: dict | None,
               payload: Any = None) -> TrieNode:
    """Insert `tok`, with its `payload`, at the head of a chain known not to
    hold it; the caller owns the chain or holds its lock, and passes the
    parent's `index` as it read it."""
    child = parent.first_child = TrieNode(tok, parent.first_child, payload)
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
                  payload: Callable[[], Any] | None = None) -> tuple[TrieNode, bool]:
    """The shared insert of a `tok` that the caller's unlocked look did not
    find under `parent`.  It takes the parent's lock, blocking or not, and
    looks again, in the index or else along the whole chain, which holds
    fewer than `HASH_THRESHOLD` nodes while the lock is held; a failed
    trylock yields and looks again before it tries again.  If it links the
    node, it first calls `payload`, if given, under the lock for the node's
    payload.  Returns (child, whether this call linked it)."""
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
                child = parent.first_child
                while child is not None:
                    if child.token == tok:
                        return child, False
                    child = child.sibling
            if held:
                return link_child(parent, tok, index,
                                  None if payload is None else payload()), True
    finally:
        if held:
            lock.release()


def add_leaf_source(tok: str) -> str:
    """The code that adds the answer leaf `tok`, a Python expression, to the
    leaf container `leaves`, which the code before it read from
    `node.payload` and found `tok` absent from, in a trie the thread owns or
    under the lock of `node`.  A tuple is replaced by one a token longer, or
    by a set once it would reach `HASH_THRESHOLD` tokens."""
    return (f"if leaves is None:\n    node.payload = ({tok},)\n"
            f"elif type(leaves) is set:\n    leaves.add({tok})\n"
            f"elif len(leaves) < {_TUPLE_MAX}:\n    node.payload = (*leaves, {tok})\n"
            f"else:\n    node.payload = {{*leaves, {tok}}}")


def retry_leaf(node: TrieNode, tok: int, lock) -> bool:
    """After a refused trylock of `node`'s `lock`, for the answer leaf `tok`
    that an unlocked look did not find in its container: yield, look again
    and try again, until the look finds `tok`, which returns False, or the
    lock is taken, which returns True with the lock held."""
    while True:
        time.sleep(0)  # yield, as in `insert_shared`
        leaves = node.payload
        if leaves is not None and tok in leaves:
            return False
        if lock.acquire(False):
            return True


def check_insert_path_counted(
    root: TrieNode, toks: TokenSeq, locks=None, blocking: bool = False,
    payload: Callable[[], Any] | None = None,
) -> tuple[TrieNode, int, bool]:
    """Check/insert a token path below `root`, reporting (last node, created
    node count, leaf created).  `locks` is the trie's lock array if it is
    shared, taken blocking or not, and None if the caller owns it.

    `leaf created` is True iff this call linked the path's last node, i.e.
    the whole path is new to the trie.  In a shared trie only then does it
    call `payload`, if given, under the lock for that node's payload, which
    is thus set before any thread can reach the node; the owner of an
    unshared trie sets the payload itself.
    """
    if not toks:
        raise ValueError("empty token path")
    node = root
    created = 0
    made = False
    rest = iter(toks)  # a shared miss reads from its length whether it is the last node
    for tok in rest:
        # look without a lock; only a missing token leaves the walk
        index = node.index
        if index is not None:
            child = index.get(tok)
        else:
            child = node.first_child
            while child is not None and child.token != tok:
                child = child.sibling
        made = child is None
        if made:
            if locks is None:
                child = link_child(node, tok, index)
            else:
                child, made = insert_shared(node, tok, locks, blocking,
                                            None if length_hint(rest) else payload)
            created += made
        node = child
    return node, created, made
