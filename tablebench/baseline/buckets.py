"""Two-level thread-indexed bucket arrays.

A bucket array has `s` direct cells for thread ids below `s` and `u`
indirect cells for the rest; each indirect cell lazily holds a second-level
array of `u` cells.  Thread t (t >= s) lands in first-level index
(t - s) // u, second-level index (t - s) % u.  With the defaults
(s = u = 32) the capacity is 1056 cells, covering the 1024-thread limit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from .errors import ConfigurationError

DEFAULT_DIRECT = 32
DEFAULT_INDIRECT = 32
MAX_THREADS = 1024


@dataclass(frozen=True)
class Direct:
    index: int


@dataclass(frozen=True)
class Indirect:
    first: int
    second: int


def bucket_cell(t: int, s: int = DEFAULT_DIRECT, u: int = DEFAULT_INDIRECT):
    """Cell coordinates for thread id t."""
    if t < 0 or t >= s + u * u:
        raise ConfigurationError(f"thread id {t} out of bucket capacity {s + u * u}")
    if t < s:
        return Direct(t)
    return Indirect((t - s) // u, (t - s) % u)


class BucketArray:
    """Cells are single-writer (cell t is only ever written by thread t);
    only the lazy allocation of second-level arrays needs the lock."""

    __slots__ = ("s", "u", "direct", "indirect", "_lock")

    def __init__(self, s: int = DEFAULT_DIRECT, u: int = DEFAULT_INDIRECT):
        self.s = s
        self.u = u
        self.direct: list[Any] = [None] * s
        self.indirect: list[list[Any] | None] = [None] * u
        self._lock = threading.Lock()

    def capacity(self) -> int:
        return self.s + self.u * self.u

    def get(self, t: int) -> Any:
        if t < self.s:
            return self.direct[t]
        level = self.indirect[(t - self.s) // self.u]
        if level is None:
            return None
        return level[(t - self.s) % self.u]

    def get_or_create(self, t: int, factory: Callable[[], Any]) -> tuple[Any, bool, bool]:
        """Returns (value, value was created, second-level array was created)."""
        if t < 0 or t >= self.capacity():
            raise ConfigurationError(
                f"thread id {t} out of bucket capacity {self.capacity()}"
            )
        made_level = False
        if t < self.s:
            cells, idx = self.direct, t
        else:
            first, second = (t - self.s) // self.u, (t - self.s) % self.u
            cells = self.indirect[first]
            if cells is None:
                with self._lock:
                    cells = self.indirect[first]
                    if cells is None:
                        cells = [None] * self.u
                        self.indirect[first] = cells
                        made_level = True
            idx = second
        value = cells[idx]
        if value is None:
            value = factory()
            cells[idx] = value
            return value, True, made_level
        return value, False, made_level

    def clear(self, t: int) -> None:
        if t < self.s:
            self.direct[t] = None
            return
        level = self.indirect[(t - self.s) // self.u]
        if level is not None:
            level[(t - self.s) % self.u] = None

    def occupied(self) -> list[tuple[int, Any]]:
        """(thread id, value) pairs for non-empty cells, in id order."""
        out = []
        for t, v in enumerate(self.direct):
            if v is not None:
                out.append((t, v))
        for i, level in enumerate(self.indirect):
            if level is None:
                continue
            for j, v in enumerate(level):
                if v is not None:
                    out.append((self.s + i * self.u + j, v))
        return out
