"""Test-only views of a trie chain and of an answer trie's leaf container."""

from tabling.trie import TrieNode


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
    were added while it is a list; none if it has no container."""
    leaves = parent.payload
    return [] if leaves is None else list(leaves)
