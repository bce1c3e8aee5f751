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
`insert_shared`, the one locked insert, which differs between the two only
in whether its lock acquire blocks.

An answer trie has a fixed depth, the width of its call's answers, so its
last level holds nothing but leaves.  Those are `AnswerLeaf`s: a token and a
sibling link, no children, no index and no payload, 48 bytes on CPython 3.11
against a `TrieNode`'s 72.  The inner nodes of an answer trie and every node
of a subgoal trie, whose leaves carry frames or subgoal entries, stay
`TrieNode`s.  A leaf is linked only after its answer is in the answer log:
the owner of an unshared trie extends the log and then links the leaf
(`Table.new_answer_tokens`), and a shared insert does both while it holds the
lock the link takes (the `log` of `insert_shared`), so a thread that finds a
leaf, with or without that lock, finds its answer logged.

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

    def __init__(self, token: int, sibling: TrieNode | AnswerLeaf | None = None):
        self.token = token
        self.first_child: TrieNode | AnswerLeaf | None = None
        self.sibling = sibling
        self.index: dict[int, TrieNode | AnswerLeaf] | None = None
        self.payload: Any = None

    def __repr__(self) -> str:  # debugging aid only
        return f"<TrieNode {self.token}>"


class AnswerLeaf:
    """The last node of an answer path.  Not a `TrieNode` subclass, which
    would inherit that class's slots."""

    __slots__ = ("token", "sibling")

    def __init__(self, token: int, sibling: TrieNode | AnswerLeaf | None = None):
        self.token = token
        self.sibling = sibling

    def __repr__(self) -> str:  # debugging aid only
        return f"<AnswerLeaf {self.token}>"


def new_root() -> TrieNode:
    return TrieNode(ROOT_TOKEN)


def new_locks() -> list:
    """The write locks of one table's tries."""
    return [threading.Lock() for _ in range(N_LOCKS)]


_LOCKS = new_locks()  # for callers that bring no locks of their own
_BELOW_THRESHOLD = range(HASH_THRESHOLD - 1)


def _hash_chain(parent: TrieNode) -> None:
    index = {}
    child = parent.first_child
    while child is not None:
        index[child.token] = child
        child = child.sibling
    parent.index = index


def link_child(parent: TrieNode, tok: int, index: dict | None,
               node_type: type = TrieNode) -> TrieNode | AnswerLeaf:
    """Insert `tok`, as a `node_type`, at the head of a chain known not to
    hold it; the caller owns the chain or holds its lock, and passes the
    parent's `index` as it read it."""
    child = parent.first_child = node_type(tok, parent.first_child)
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
                  seen: TrieNode | AnswerLeaf | None, log: list | None = None,
                  path: TokenSeq = ()) -> tuple[TrieNode | AnswerLeaf, bool]:
    """The LOCK and TRYLOCK insert of a `tok` that the caller's unlocked look
    did not find under `parent`, scanning the chain down from `seen` (unused
    once the chain is hashed).  It takes the parent's lock and re-checks only
    what was linked since that look; a failed trylock yields and re-checks
    before it tries again.  Returns (child, whether this call linked it).

    With a `log`, a new `tok` is an answer leaf: still holding the lock, the
    insert extends `log` by the answer's `path` and then links the leaf."""
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
                if log is None:
                    return link_child(parent, tok, index), True
                log.extend(path)
                return link_child(parent, tok, index, AnswerLeaf), True
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

