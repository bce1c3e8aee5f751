"""Command-line front end: run queries and benchmarks, emit CSV or JSON rows.

Exit codes: 0 ok, 1 usage, configuration, program or evaluation error, 2 parse
error, 3 verification failure (per-thread mismatch or oracle mismatch).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass

from .bench import make_program, default_query, parse_bench_spec
from .engine import EvalConfig, solve_parallel
from .errors import ConfigurationError, ParseError, ProgramError, TablingError
from .oracle import oracle_solve
from .parser import parse_program, parse_query
from .tablespace import CountersSnapshot, Design
from .terms import term_str
from .trie import SyncMode

CSV_COLUMNS = "bench,design,lock,threads,time_ms,answers,te,ba,sts,sf,se,ats"


@dataclass
class RunReport:
    bench: str
    design: str
    lock: str
    threads: int
    time_ms: float
    answers: int
    counters: CountersSnapshot
    answer_hash: str

    def csv_row(self) -> str:
        c = self.counters
        return (f"{self.bench},{self.design},{self.lock},{self.threads},"
                f"{self.time_ms:.1f},{self.answers},"
                f"{c.te},{c.ba},{c.sts},{c.sf},{c.se},{c.ats}")

    def json_obj(self) -> dict:
        out = {"bench": self.bench, "design": self.design, "lock": self.lock,
               "threads": self.threads, "time_ms": round(self.time_ms, 1),
               "answers": self.answers}
        out.update(self.counters.as_dict())
        out["answer_hash"] = self.answer_hash
        return out


def answer_set_hash(answers) -> str:
    text = "\n".join(sorted(",".join(term_str(t) for t in row) for row in answers))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


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
                   help="comma list of lock modes: none|lock|trylock")
    p.add_argument("--threads", default="1", help="comma list of thread counts")
    p.add_argument("--repeat", type=int, default=5, metavar="N",
                   help="runs to average the timing over (default 5)")
    p.add_argument("--check", action="store_true",
                   help="verify answers against the bottom-up reference solver")
    p.add_argument("--output", choices=("csv", "json"), default="csv")
    p.add_argument("--paper-scale", action="store_true",
                   help="allow benchmark depths beyond the desk-scale caps")
    return p


def _parse_list(text: str, what: str) -> list[str]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise _UsageError(f"empty {what} list")
    return items


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if args.repeat < 1:
        print(f"usage error: --repeat must be at least 1, not {args.repeat}",
              file=sys.stderr)
        return 1

    try:
        if args.bench:
            inst = parse_bench_spec(args.bench)
            program = make_program(inst, allow_paper_scale=args.paper_scale)
            bench_name = inst.name
            query = parse_query(args.query) if args.query else default_query()
        elif args.program:
            if not args.query:
                print("usage error: --program needs --query", file=sys.stderr)
                return 1
            with open(args.program, encoding="utf-8") as fh:
                program = parse_program(fh.read())
            bench_name = args.program
            query = parse_query(args.query)
        else:
            print("usage error: one of --bench or --program is required",
                  file=sys.stderr)
            return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read program: {exc}", file=sys.stderr)
        return 1

    try:
        designs = [Design(d) for d in _parse_list(args.design, "design")]
        locks = [SyncMode(m) for m in _parse_list(args.lock, "lock")]
        threads = [int(t) for t in _parse_list(args.threads, "threads")]
    except (ValueError, _UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    oracle_answers = None
    if args.check:
        try:
            oracle_answers = oracle_solve(program, query)
        except TablingError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    reports: list[RunReport] = []
    for design in designs:
        for lock in locks:
            for n in threads:
                try:
                    cfg = EvalConfig(design=design, sync=lock, threads=n)
                    cfg.validate()
                    times = []
                    for _ in range(args.repeat):
                        result = solve_parallel(program, query, cfg)
                        times.append(result.wall_ms)
                except ConfigurationError as exc:
                    print(f"configuration error: {exc}", file=sys.stderr)
                    return 1
                except TablingError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                hashes = {answer_set_hash(a) for a in result.answer_sets}
                if len(hashes) != 1:
                    print(f"verification failure: thread answer sets differ "
                          f"({design.value}, {lock.value}, {n} threads)",
                          file=sys.stderr)
                    return 3
                if oracle_answers is not None and result.answer_sets[0] != oracle_answers:
                    print(f"verification failure: answers disagree with the "
                          f"reference solver ({design.value}, {lock.value}, "
                          f"{n} threads)", file=sys.stderr)
                    return 3
                reports.append(RunReport(
                    bench=bench_name,
                    design=design.value,
                    # NS never touches shared tries; report its lock as none
                    lock="none" if design is Design.NS else lock.value,
                    threads=n,
                    time_ms=sum(times) / len(times),
                    answers=len(result.answer_sets[0]),
                    counters=result.counters,
                    answer_hash=hashes.pop(),
                ))

    if args.output == "csv":
        print(CSV_COLUMNS)
        for r in reports:
            print(r.csv_row())
    else:
        for r in reports:
            print(json.dumps(r.json_obj()))
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
