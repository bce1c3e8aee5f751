"""A frozen copy of the engine, the benchmark's yardstick for host speed.

The modules beside this file are byte-for-byte copies of `src/tabling/`'s
`buckets`, `engine`, `errors`, `parser`, `program`, `tablespace`, `terms`
and `trie` as they stood when the benchmark was defined.  The benchmark
runs every timed pass once on `src/tabling` and once, right beside it, on
this copy; the host's speed of the moment slows both alike, so the ratio
of the two times measures the engine, not the host.  Do not edit these
modules: changing them rescales every timed metric.
"""

from .engine import EvalConfig, solve_parallel
from .parser import parse_program, parse_query
from .tablespace import Design
from .trie import SyncMode

__all__ = ["Design", "EvalConfig", "SyncMode", "parse_program", "parse_query", "solve_parallel"]
