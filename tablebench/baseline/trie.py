"""Sibling-chained trie with a lock field per node.

Children of a node form a singly linked list (`first_child` ... `sibling`);
insertion is always at the head of the chain and a node's `sibling` link
never changes once the node is reachable, so readers can traverse
concurrently with writers and always see a consistent chain.

`check_insert_node` supports three synchronization modes:

* NONE     - caller owns the trie; plain scan and insert, no locking.
* LOCK     - scan without the lock; if the token is absent, block on the
             parent's lock, re-scan only the nodes inserted in the
             meantime, then insert.
* TRYLOCK  - like LOCK but never blocks while the token might already be
             present: each failed lock attempt is followed by a re-scan of
             the newly inserted head segment, bounded by the first child
             seen in the previous round.

In LOCK/TRYLOCK modes the parent's lock serializes writers of one sibling
chain; different chains (different parents) never contend.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Any, Callable, Iterator

from .terms import TokenSeq


class SyncMode(Enum):
    NONE = "none"
    LOCK = "lock"
    TRYLOCK = "trylock"


ROOT_TOKEN = 0  # packed tokens always have a nonzero tag, so 0 never collides


class TrieNode:
    __slots__ = ("token", "first_child", "sibling", "lock", "payload")

    def __init__(self, token: int):
        self.token = token
        self.first_child: TrieNode | None = None
        self.sibling: TrieNode | None = None
        self.lock = threading.Lock()
        self.payload: Any = None

    def __repr__(self) -> str:  # debugging aid only
        return f"<TrieNode {self.token}>"


def new_root() -> TrieNode:
    return TrieNode(ROOT_TOKEN)


def _check_insert_none(parent: TrieNode, tok: int) -> tuple[TrieNode, bool]:
    child = parent.first_child
    while child is not None:
        if child.token == tok:
            return child, False
        child = child.sibling
    child = TrieNode(tok)
    child.sibling = parent.first_child
    parent.first_child = child
    return child, True


def _check_insert_lock(parent: TrieNode, tok: int) -> tuple[TrieNode, bool]:
    first = parent.first_child
    child = first
    while child is not None:
        if child.token == tok:
            return child, False
        child = child.sibling
    lock = parent.lock
    lock.acquire()
    # the chain may have grown while we waited; only the new head segment
    # (nodes before `first`) needs to be re-checked
    child = parent.first_child
    while child is not first:
        if child.token == tok:
            lock.release()
            return child, False
        child = child.sibling
    child = TrieNode(tok)
    child.sibling = parent.first_child
    parent.first_child = child
    lock.release()
    return child, True


def _check_insert_trylock(parent: TrieNode, tok: int) -> tuple[TrieNode, bool]:
    lock = parent.lock
    last_child: TrieNode | None = None
    while True:
        first = parent.first_child
        child = first
        while child is not last_child:
            if child.token == tok:
                return child, False
            child = child.sibling
        last_child = first
        if lock.acquire(False):
            break
    # critical region: re-check anything inserted since our last scan
    child = parent.first_child
    while child is not last_child:
        if child.token == tok:
            lock.release()
            return child, False
        child = child.sibling
    child = TrieNode(tok)
    child.sibling = parent.first_child
    parent.first_child = child
    lock.release()
    return child, True


_INSERT = {
    SyncMode.NONE: _check_insert_none,
    SyncMode.LOCK: _check_insert_lock,
    SyncMode.TRYLOCK: _check_insert_trylock,
}


def check_insert_node(parent: TrieNode, tok: int, mode: SyncMode) -> TrieNode:
    """Return the unique child of `parent` carrying `tok`, inserting it if absent."""
    return _INSERT[mode](parent, tok)[0]


def check_insert_path(root: TrieNode, toks: TokenSeq, mode: SyncMode) -> TrieNode:
    """Fold check_insert_node over a token sequence; returns the leaf node."""
    return check_insert_path_counted(root, toks, mode)[0]


def check_insert_path_counted(
    root: TrieNode, toks: TokenSeq, mode: SyncMode
) -> tuple[TrieNode, int, bool]:
    """Like check_insert_path, also reporting (created node count, leaf created).

    `leaf created` is True iff the final node of the path did not exist
    before this call, i.e. the whole path is new to the trie.
    """
    if not toks:
        raise ValueError("empty token path")
    insert = _INSERT[mode]
    node = root
    created = 0
    made = False
    for tok in toks:
        node, made = insert(node, tok)
        if made:
            created += 1
    return node, created, made


def get_or_create_payload(
    leaf: TrieNode, factory: Callable[[], Any], locked: bool
) -> tuple[Any, bool]:
    """Get-or-create the opaque leaf attachment.

    With `locked`, creation is serialized on the leaf's own lock so that
    concurrent callers agree on a single payload; without it the caller
    must be the trie's sole owner.
    """
    payload = leaf.payload
    if payload is not None:
        return payload, False
    if not locked:
        payload = factory()
        leaf.payload = payload
        return payload, True
    with leaf.lock:
        payload = leaf.payload
        if payload is None:
            payload = factory()
            leaf.payload = payload
            return payload, True
    return payload, False


def enumerate_paths(root: TrieNode) -> Iterator[TokenSeq]:
    """Yield one token sequence per leaf (childless node) path.

    Safe concurrently with append-at-head writers: the traversal sees a
    prefix-closed snapshot containing at least every path whose insertion
    completed before the call.
    """
    stack: list[int] = []

    def walk(node: TrieNode) -> Iterator[TokenSeq]:
        child = node.first_child
        if child is None:
            yield tuple(stack)
            return
        while child is not None:
            stack.append(child.token)
            yield from walk(child)
            stack.pop()
            child = child.sibling

    child = root.first_child
    while child is not None:
        stack.append(child.token)
        yield from walk(child)
        stack.pop()
        child = child.sibling


def node_count(root: TrieNode) -> int:
    """Number of nodes below the root."""
    total = 0
    stack = [root.first_child]
    while stack:
        node = stack.pop()
        while node is not None:
            total += 1
            if node.first_child is not None:
                stack.append(node.first_child)
            node = node.sibling
    return total


def child_tokens(parent: TrieNode) -> list[int]:
    """Tokens of the direct children, head (newest) first."""
    out = []
    child = parent.first_child
    while child is not None:
        out.append(child.token)
        child = child.sibling
    return out


def find_child(parent: TrieNode, tok: int) -> TrieNode | None:
    child = parent.first_child
    while child is not None:
        if child.token == tok:
            return child
        child = child.sibling
    return None
