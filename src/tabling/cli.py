"""Command-line front end: run queries and benchmarks, emit CSV or JSON rows.

Exit codes: 0 ok, 1 usage, configuration, program or evaluation error, 2 parse
error, 3 verification failure (per-thread mismatch or oracle mismatch).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .bench import make_program, default_query, parse_bench_spec
from .engine import EvalConfig, solve_parallel
from .errors import ConfigurationError, ParseError, TablingError
from .oracle import oracle_solve
from .parser import parse_program, parse_query
from .tablespace import Design
from .trie import SyncMode

CSV_COLUMNS = "bench,design,lock,threads,time_ms,answers,te,ba,sts,sf,se,ats"


def answer_set_hash(answers) -> str:
    text = "\n".join(sorted(",".join(map(str, row)) for row in answers))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Exit(Exception):
    """A failure the CLI reports as one stderr line, with its exit code."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Exit(f"usage error: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tabling", description=__doc__, add_help=True)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--program", metavar="FILE", help="program file to load")
    src.add_argument("--bench", metavar="SPEC",
                     help="benchmark spec pathleft|pathright:btree|pyramid|cycle|grid:depth")
    p.add_argument("--query", metavar="GOAL",
                   help="query goal; defaults to path(X,Y) for benches")
    p.add_argument("--design", default="fs",
                   help="comma list of table designs: ns|ss|fs")
    p.add_argument("--lock", default="trylock",
                   help="comma list of lock modes: lock|trylock")
    p.add_argument("--threads", default="1", help="comma list of thread counts")
    p.add_argument("--repeat", type=int, default=5, metavar="N",
                   help="runs to average the timing over (default 5)")
    p.add_argument("--check", action="store_true",
                   help="verify answers against the bottom-up reference solver")
    p.add_argument("--output", choices=("csv", "json"), default="csv")
    p.add_argument("--paper-scale", action="store_true",
                   help="allow benchmark depths beyond the desk-scale caps")
    return p


def _load(args):
    """The program, its name in the report and the query."""
    if args.bench:
        inst = parse_bench_spec(args.bench)
        program = make_program(inst, allow_paper_scale=args.paper_scale)
        return program, inst.name, parse_query(args.query) if args.query else default_query()
    if not args.program:
        raise _Exit("usage error: one of --bench or --program is required")
    if not args.query:
        raise _Exit("usage error: --program needs --query")
    try:
        with open(args.program, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Exit(f"cannot read program: {exc}") from None
    return parse_program(text), args.program, parse_query(args.query)


def _parse_list(text: str, what: str, kind) -> list:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise _Exit(f"usage error: empty {what} list")
    out = []
    for s in items:
        try:
            out.append(kind(s))
        except ValueError:
            accepted = ("an integer" if kind is int
                        else "one of " + ", ".join(m.value for m in kind))
            raise _Exit(f"usage error: --{what}: {s!r} is not {accepted}") from None
    return out


def _cell(name: str, program, query, cfg: EvalConfig, repeat: int, oracle_answers) -> dict:
    """One report row: the mean wall time of `repeat` runs and the last
    run's answers and counters.  Each run's result is dropped before the
    next starts, so no run is timed with an earlier table alive."""
    times = [solve_parallel(program, query, cfg).wall_ms for _ in range(repeat - 1)]
    result = solve_parallel(program, query, cfg)
    times.append(result.wall_ms)
    where = f"({cfg.design.value}, {cfg.sync.value}, {cfg.threads} threads)"
    # threads often share one set object; hash each object once
    hashes = {answer_set_hash(a) for a in {id(a): a for a in result.answer_sets}.values()}
    if len(hashes) != 1:
        raise _Exit(f"verification failure: thread answer sets differ {where}", 3)
    if oracle_answers is not None and result.answer_sets[0] != oracle_answers:
        raise _Exit("verification failure: answers disagree with the "
                    f"reference solver {where}", 3)
    row = {"bench": name, "design": cfg.design.value,
           # NS never touches shared tries; report its lock as none
           "lock": "none" if cfg.design is Design.NS else cfg.sync.value,
           "threads": cfg.threads, "time_ms": round(sum(times) / len(times), 1),
           "answers": len(result.answer_sets[0])}
    row.update(result.counters.as_dict())
    row["answer_hash"] = hashes.pop()
    return row


def run_command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.repeat < 1:
            raise _Exit(f"usage error: --repeat must be at least 1, not {args.repeat}")
        program, name, query = _load(args)
        designs = _parse_list(args.design, "design", Design)
        locks = _parse_list(args.lock, "lock", SyncMode)
        threads = _parse_list(args.threads, "threads", int)
        oracle_answers = oracle_solve(program, query) if args.check else None
        rows = [_cell(name, program, query, EvalConfig(design, lock, n),
                      args.repeat, oracle_answers)
                for design in designs for lock in locks for n in threads]
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except TablingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.output == "csv":
        print(CSV_COLUMNS)
        for row in rows:
            print(",".join(str(row[k]) for k in CSV_COLUMNS.split(",")))
    else:
        for row in rows:
            print(json.dumps(row))
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
