"""Checks applied to every `solve_parallel` call the benchmark makes.

A call fails when it raises, when any thread's answer set differs from the
reference, or when its allocation counts break the per-design laws.  The
laws compare a 2-thread call with the same design's 1-thread call on the
same query: NS doubles `sts`, `sf` and `ats`; SS keeps `sts` and doubles
`sf` and `ats`; FS keeps `sts` and `ats` and doubles `sf`.
"""

from __future__ import annotations

from tabling import Design

# per design: does (sts, sf, ats) scale with the thread count?
_SCALES = {
    Design.NS: (True, True, True),
    Design.SS: (False, True, True),
    Design.FS: (False, True, False),
}


def answer_problem(answer_sets, expected: frozenset) -> str | None:
    for tid, answers in enumerate(answer_sets):
        if answers != expected:
            missing = len(expected - answers)
            extra = len(answers - expected)
            return (f"thread {tid}: {missing} answers missing, {extra} extra "
                    f"of {len(expected)}")
    return None


def law_problem(design: Design, threads: int, counters, base) -> str | None:
    """`base` is the same design's 1-thread counter snapshot for the query."""
    for kind, scales in zip(("sts", "sf", "ats"), _SCALES[design]):
        want = getattr(base, kind) * (threads if scales else 1)
        got = getattr(counters, kind)
        if got != want:
            return f"count law: {design.value} {kind} is {got} at {threads} threads, want {want}"
    return None
