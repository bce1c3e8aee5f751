"""Size and trie shape of a finished table space, measured from outside.

`walk` visits every object reachable from a `Table` once and sums
`sys.getsizeof`.  Types, modules and functions are not followed: they belong
to the program, not to the table.  The trie nodes met on the way give the
sibling-chain statistics.
"""

from __future__ import annotations

import gc
import sys
import types
from dataclasses import dataclass

from tabling import TrieNode

_NOT_TABLE = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType)


@dataclass
class TableShape:
    bytes: int
    chain_nodes: int    # trie nodes that sit in some parent's sibling chain
    scan_total: int     # sum over those nodes of their 1-based chain position
    chain_max: int


def walk(table) -> TableShape:
    seen: set[int] = set()
    todo = [table]
    size = 0
    tries: list[TrieNode] = []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, _NOT_TABLE):
            continue
        seen.add(id(obj))
        size += sys.getsizeof(obj)
        if type(obj) is TrieNode:
            tries.append(obj)
        todo.extend(gc.get_referents(obj))
    nodes = scan = longest = 0
    for parent in tries:
        length = 0
        child = parent.first_child
        while child is not None:
            length += 1
            child = child.sibling
        nodes += length
        scan += length * (length + 1) // 2
        longest = max(longest, length)
    return TableShape(size, nodes, scan, longest)
