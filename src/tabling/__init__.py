"""Multi-threaded tabled Datalog evaluation over shared trie table spaces."""

from .bench import (
    BenchInstance,
    EdgeConfig,
    GraphKind,
    Recursion,
    default_query,
    desk_instances,
    gen_edges,
    make_program,
    parse_bench_spec,
    program_text,
)
from .buckets import BucketArray, Direct, Indirect, bucket_cell
from .engine import EvalConfig, ParallelResult, solve_parallel
from .errors import (
    ConfigurationError,
    EvaluationError,
    ParseError,
    ProgramError,
    TablingError,
)
from .oracle import oracle_solve
from .parser import parse_program, parse_query
from .program import Clause, Literal, Program
from .tablespace import Design, SubgoalFrame, Table
from .terms import Compound, Term, Var, atom, compound, intern_symbol
from .trie import SyncMode, TrieNode

Int = int  # an integer term is the int itself

__version__ = "0.1.0"

__all__ = [
    "BenchInstance", "BucketArray", "Clause", "Compound",
    "ConfigurationError", "Design", "Direct", "EdgeConfig", "EvalConfig",
    "EvaluationError", "GraphKind", "Indirect", "Int", "Literal",
    "ParallelResult", "ParseError", "Program",
    "ProgramError", "Recursion", "SubgoalFrame", "SyncMode", "Table",
    "TablingError", "Term", "TrieNode", "Var",
    "atom", "bucket_cell", "compound", "default_query",
    "desk_instances", "gen_edges",
    "intern_symbol", "make_program", "oracle_solve", "parse_bench_spec",
    "parse_program", "parse_query", "program_text", "solve_parallel",
]
