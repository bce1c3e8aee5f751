"""Test-only one-token inserts and views of a trie chain, and the add and
view of an answer trie's leaf container."""

from tabling.trie import (SyncMode, TrieNode, add_leaf_source, check_insert_path_counted,
                          new_locks)

LOCKS = new_locks()  # for shared inserts that bring no locks of their own


def check_insert_node(parent: TrieNode, tok: int, mode: SyncMode | None = None,
                      locks=LOCKS) -> TrieNode:
    """The unique child of `parent` carrying `tok`, linked if absent: by the
    caller alone when `mode` is None, else under `locks` as `mode` says."""
    if mode is None:
        locks = None
    return check_insert_path_counted(parent, (tok,), locks, mode is SyncMode.LOCK)[0]


def child_tokens(parent: TrieNode) -> list[int]:
    """Tokens of the direct children, head (newest) first."""
    out = []
    child = parent.first_child
    while child is not None:
        out.append(child.token)
        child = child.sibling
    return out


def find_child(parent: TrieNode, tok: int) -> TrieNode | None:
    """The child carrying `tok`, found by a scan of the chain alone."""
    child = parent.first_child
    while child is not None:
        if child.token == tok:
            return child
        child = child.sibling
    return None


def leaf_tokens(parent: TrieNode) -> list[int]:
    """The answer-leaf tokens in `parent`'s leaf container, in the order they
    were added while it is a tuple; none if it has no container."""
    leaves = parent.payload
    return [] if leaves is None else list(leaves)


def add_leaf(parent: TrieNode, leaves, tok: int) -> None:
    """Add the answer leaf `tok` to `leaves`, `parent`'s leaf container as
    read from its `payload` and known not to hold `tok`, by the growth rule
    that the join kernels run."""
    exec(add_leaf_source("tok"), {}, {"node": parent, "leaves": leaves, "tok": tok})
