"""Two-level thread-indexed bucket arrays.

A bucket array has 32 direct cells for thread ids below 32 and 32 indirect
cells for the rest; each indirect cell lazily holds a second-level array of
32 cells.  Thread t (t >= 32) lands in first-level index (t - 32) // 32,
second-level index (t - 32) % 32.  The capacity is 1056 cells, covering the
1024-thread limit.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Any, Callable

from .errors import ConfigurationError

DEFAULT_DIRECT = 32
DEFAULT_INDIRECT = 32
MAX_THREADS = 1024

# serializes the rare lazy allocation of a second-level array, in any array
_LEVEL_LOCK = threading.Lock()


@dataclass(frozen=True)
class Direct:
    index: int


@dataclass(frozen=True)
class Indirect:
    first: int
    second: int


@functools.cache  # cells are immutable; reuse spares a frozen-dataclass init per access
def bucket_cell(t: int, s: int = DEFAULT_DIRECT, u: int = DEFAULT_INDIRECT):
    """Cell coordinates for thread id t."""
    if t < 0 or t >= s + u * u:
        raise ConfigurationError(f"thread id {t} out of bucket capacity {s + u * u}")
    if t < s:
        return Direct(t)
    return Indirect((t - s) // u, (t - s) % u)


class BucketArray:
    """Cells are single-writer (cell t is only ever written by thread t);
    only the lazy allocation of second-level arrays takes a lock."""

    __slots__ = ("direct", "indirect")

    def __init__(self):
        self.direct: list[Any] = [None] * DEFAULT_DIRECT
        self.indirect: list[list[Any] | None] = [None] * DEFAULT_INDIRECT

    def get(self, t: int) -> Any:
        if 0 <= t < DEFAULT_DIRECT:
            return self.direct[t]
        cell = bucket_cell(t)
        level = self.indirect[cell.first]
        return None if level is None else level[cell.second]

    def get_or_create(self, t: int, factory: Callable[[], Any]) -> tuple[Any, bool, bool]:
        """Returns (value, value was created, second-level array was created)."""
        made_level = False
        if 0 <= t < DEFAULT_DIRECT:
            cells, idx = self.direct, t
        else:
            cell = bucket_cell(t)
            cells, idx = self.indirect[cell.first], cell.second
            if cells is None:
                with _LEVEL_LOCK:
                    cells = self.indirect[cell.first]
                    if cells is None:
                        cells = [None] * DEFAULT_INDIRECT
                        self.indirect[cell.first] = cells
                        made_level = True
        value = cells[idx]
        if value is None:
            value = factory()
            cells[idx] = value
            return value, True, made_level
        return value, False, made_level

    def clear(self, t: int) -> None:
        if 0 <= t < DEFAULT_DIRECT:
            self.direct[t] = None
            return
        cell = bucket_cell(t)
        level = self.indirect[cell.first]
        if level is not None:
            level[cell.second] = None
