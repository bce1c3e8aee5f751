"""Per-layer tracing from outside the program.

While installed, a `Tracer` replaces the public entry points of the
`program`, `tablespace`, `trie` and `buckets` layers with wrappers that
record a span per call, and gives `tabling.trie` and `tabling.tablespace`
a counting lock factory, so only locks made during the traced pass are
counted.  Uninstalling restores the originals.

Span times use each thread's CPU clock (`time.thread_time`): under the GIL
a thread preempted inside a span would otherwise be charged for the other
thread's time slice.  Every thread keeps its own span stack, so a span's
self time excludes the wrapped calls it makes, and its own tallies, so
recording takes no shared lock.  Spans stay in memory until `spans()`.
"""

from __future__ import annotations

import threading
import time

from tabling import BucketArray, Program, Table
from tabling import tablespace as tablespace_mod
from tabling import trie as trie_mod

_clock = time.thread_time


class _ThreadState:
    __slots__ = ("label", "worker", "stack", "agg", "counts", "top", "spans")

    def __init__(self, label: str, worker: bool):
        self.label = label
        self.worker = worker
        self.stack: list[float] = []    # child time of each open span
        self.agg: dict[str, list] = {}  # name -> [calls, total s, self s, extra]
        self.counts: dict[str, int] = {}
        self.top = 0.0                  # time in outermost spans
        self.spans: list[tuple] = []


class _CountingLock:
    __slots__ = ("_lock", "_tracer", "_acquired", "_failed")

    def __init__(self, tracer: "Tracer", kind: str):
        self._lock = threading.Lock()
        self._tracer = tracer
        self._acquired = kind + ".acquires"
        self._failed = kind + ".trylock_failed"

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        counts = self._tracer._state().counts
        key = self._acquired if got else self._failed
        counts[key] = counts.get(key, 0) + 1
        return got

    def release(self) -> None:
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc) -> None:
        self._lock.release()


class _Threading:
    """Stands in for a module's `threading`; only `Lock` differs."""

    def __init__(self, lock_factory):
        self.Lock = lock_factory

    def __getattr__(self, name):
        return getattr(threading, name)


def _count_tokens(args, result) -> int:
    return len(args[1])


def _count_new(args, result) -> int:
    return 1 if result else 0


class Tracer:
    def __init__(self, span_cap: int = 0):
        self.span_cap = span_cap
        self.op = 0
        self._main = threading.get_ident()
        self._saved: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: forget every thread's spans and tallies."""
        self._local = threading.local()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.s
        except AttributeError:
            worker = threading.get_ident() != self._main
            s = _ThreadState(threading.current_thread().name, worker)
            self._local.s = s
            self._states.append(s)
            return s

    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn, extra=None):
        state, cap = self._state, self.span_cap

        def traced(*args, **kwargs):
            s = state()
            stack = s.stack
            stack.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                d = t1 - t0
                child = stack.pop()
                a = s.agg.get(name)
                if a is None:
                    a = s.agg[name] = [0, 0.0, 0.0, 0]
                a[0] += 1
                a[1] += d
                a[2] += d - child
                if stack:
                    stack[-1] += d
                elif s.worker:
                    s.top += d
                if len(s.spans) < cap:
                    s.spans.append((self.op, name, t0, t1, len(stack)))
            if extra is not None:
                a[3] += extra(args, result)
            return result

        return traced

    def install(self) -> None:
        targets = [
            (Program, "validate", "program.validate", None),
            (Table, "subgoal_call", "tablespace.subgoal_call", None),
            (Table, "new_answer_tokens", "tablespace.new_answer", _count_new),
            (Table, "mark_complete", "tablespace.mark_complete", None),
            (Table, "answers_of", "tablespace.answers_of", None),
            (Table, "release_thread", "tablespace.release_thread", None),
            (trie_mod, "check_insert_path_counted", "trie.check_insert", _count_tokens),
            (BucketArray, "get_or_create", "buckets.get_or_create", None),
        ]
        for owner, attr, name, extra in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extra))
        for module, kind in ((trie_mod, "trie.lock"),
                             (tablespace_mod, "tablespace.counter_lock")):
            self._saved.append((module, "threading", module.threading))
            module.threading = _Threading(lambda kind=kind: _CountingLock(self, kind))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def totals(self) -> dict:
        """Tallies of the current pass summed over threads: for each span
        name (calls, total s, self s, extra), each lock count, and `top`,
        the time worker threads spent inside outermost spans."""
        agg: dict[str, list] = {}
        counts: dict[str, int] = {}
        top = 0.0
        for s in self._states:
            for name, a in s.agg.items():
                t = agg.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    t[i] += a[i]
            for key, n in s.counts.items():
                counts[key] = counts.get(key, 0) + n
            top += s.top
        return {"spans": agg, "locks": counts, "worker_top_s": top}

    def spans(self) -> list[dict]:
        return [{"thread": s.label, "spans": s.spans} for s in self._states if s.spans]
