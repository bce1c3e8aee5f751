"""Benchmark of the three table-space designs: query time, table memory and
a traced per-layer pass.

    python3 tablebench/run.py --workload btree-left --seed 1 --seconds 55 --trace 0
    python3 tablebench/run.py --workload all --seed 1
    python3 tablebench/run.py --write-spec

The engine is driven only through its public API: `parse_program`,
`parse_query`, `solve_parallel` with an `EvalConfig`, and the returned
`ParallelResult`.  Every `solve_parallel` call is one operation; it fails
when it raises, when a thread's answer set differs from the reference
computed in `workloads.py`, or when its allocation counts break the
per-design laws in `checks.py`.

Every timed pass is paired with the same pass on `baseline/`, a frozen copy
of the engine, run right beside it on the same vCPU; a timed metric is the
run's median ratio of the two times, scaled by the baseline's reference
time in `REFERENCE_S`.  The host's speed of the moment cancels in the ratio.

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; sample lists, failures and
the tracing overhead go to `tablebench/results/`.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(SRC))
try:
    import tabling
except ImportError as exc:
    sys.exit(f"run.py: cannot import the engine from {SRC}: {exc}")
if not Path(tabling.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"run.py: imported the engine from {tabling.__file__}, not from {SRC}")

from tabling import Design, EvalConfig, SyncMode, solve_parallel

import baseline
import checks
import tablewalk
import workloads
from tracer import Tracer

# ----------------------------------------------------------------------
# configurations and metric names

CONFIGS = {
    "ns_1t": EvalConfig(Design.NS, SyncMode.TRYLOCK, 1),
    "ss_1t": EvalConfig(Design.SS, SyncMode.TRYLOCK, 1),
    "fs_1t": EvalConfig(Design.FS, SyncMode.TRYLOCK, 1),
    "ns_2t": EvalConfig(Design.NS, SyncMode.TRYLOCK, 2),
    "ss_2t": EvalConfig(Design.SS, SyncMode.TRYLOCK, 2),
    "fs_2t": EvalConfig(Design.FS, SyncMode.TRYLOCK, 2),
    "fs_lock_2t": EvalConfig(Design.FS, SyncMode.LOCK, 2),
}
BASELINE_CONFIGS = {
    name: baseline.EvalConfig(baseline.Design(c.design.value), baseline.SyncMode(c.sync.value),
                              c.threads)
    for name, c in CONFIGS.items()}
BASE = ("ns_1t", "ss_1t", "fs_1t")
MEMORY = ("ns_1t", "ns_2t", "ss_2t", "fs_2t")
TRACED = ("ns_2t", "ss_2t", "fs_2t", "fs_lock_2t")

WORKLOADS = {
    "btree-left": "one subgoal, 8,194 answers all new, answer chains up to "
                  "1,022 siblings: trie check/insert and chain scans dominate",
    "query-batch": "seeded program of 150 small components, 14 bound and ground "
                   "queries: per-call overhead and the non-tabled rule path",
}

BOUNDS = {"setup_s": 0.25, "time": 0.25, "memory": 0.05}

# CPU seconds of one set-up and of one pass per configuration on the
# baseline: medians over five 55-s runs per workload on a 2-vCPU Intel Xeon
# VM at 2.0 GHz with CPython 3.11.7.  A timed metric is such a figure times
# the run's median ratio of the engine's time to the baseline's: the
# engine's time at the host speed of that reference.
REFERENCE_S = {
    "btree-left": dict(setup=0.0355, ns_1t=0.2057, ss_1t=0.2023, fs_1t=0.2384,
                       ns_2t=0.4543, ss_2t=0.4525, fs_2t=0.6624, fs_lock_2t=0.5896),
    "query-batch": dict(setup=0.0903, ns_1t=0.2028, ss_1t=0.2228, fs_1t=0.2159,
                        ns_2t=0.3592, ss_2t=0.3657, fs_2t=0.2734, fs_lock_2t=0.2666),
}

END_TO_END = ([("setup_s", "s", "lower")]
              + [(f"{c}_s", "s", "lower") for c in CONFIGS]
              + [(f"{c}_table_kb", "KiB", "lower") for c in MEMORY])

_LAYER = [
    ("engine.self_s", "s", "lower"),
    ("engine.overhead_s", "s", "lower"),
    ("engine.scc_completions", "count", "lower"),
    ("program.validate_s", "s", "lower"),
    ("tablespace.subgoal_call.calls", "count", "lower"),
    ("tablespace.subgoal_call.self_s", "s", "lower"),
    ("tablespace.new_answer.calls", "count", "lower"),
    ("tablespace.new_answer.new", "count", "higher"),
    ("tablespace.new_answer.self_s", "s", "lower"),
    ("tablespace.answers_of_s", "s", "lower"),
    ("tablespace.release_s", "s", "lower"),
    ("tablespace.counter_lock.acquires", "count", "lower"),
    ("tablespace.alloc.ba", "count", "lower"),
    ("tablespace.alloc.sts", "count", "lower"),
    ("tablespace.alloc.sf", "count", "lower"),
    ("tablespace.alloc.se", "count", "lower"),
    ("tablespace.alloc.ats", "count", "lower"),
    ("trie.check_insert.calls", "count", "lower"),
    ("trie.check_insert.tokens", "count", "lower"),
    ("trie.check_insert.s", "s", "lower"),
    ("trie.scan_len_mean", "nodes", "lower"),
    ("trie.chain_max", "nodes", "lower"),
    ("trie.lock.acquires", "count", "lower"),
    ("trie.trylock.failed", "count", "lower"),
    ("buckets.get_or_create.calls", "count", "lower"),
    ("buckets.get_or_create.s", "s", "lower"),
]
PER_LAYER = ([("parser.parse_s", "s", "lower")]
             + [(f"{c}.{n}", u, b) for c in TRACED for n, u, b in _LAYER])

SETUP_FIRST = 5    # set-up pairs before the first round; each round adds one
SPAN_CAP = 50_000  # spans kept per thread, first traced round only


def _bound(name: str) -> float:
    if name == "setup_s":
        return BOUNDS["setup_s"]
    return BOUNDS["memory"] if name.endswith("_table_kb") else BOUNDS["time"]


def spec() -> dict:
    return {
        "command": ["python3", "tablebench/run.py"],
        "paths": ["tablebench"],
        "run_seconds": 60,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": _bound(n)}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ----------------------------------------------------------------------


class Bench:
    """One workload's program, queries and reference answers, and the tally
    of operations attempted and failed."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.base: dict[Design, list] = {}
        self.expected: list[frozenset] | None = None

    def _build(self, engine) -> tuple:
        """Build the workload's program on `engine` (the `tabling` package or
        the baseline copy); returns it with the set-up and parse CPU times."""
        gc.collect()
        t0 = time.process_time()
        inputs = workloads.generate(self.name, self.seed, self.tiny)
        t1 = time.process_time()
        program = engine.parse_program(inputs.text)
        t2 = time.process_time()
        program.validate()
        queries = [engine.parse_query(q) for q in inputs.queries]
        return inputs, program, queries, time.process_time() - t0, t2 - t1

    def setup(self) -> tuple[float, float]:
        """Build the workload's program; returns the set-up and parse times
        in CPU seconds."""
        inputs, program, queries, setup_s, parse_s = self._build(tabling)
        if self.expected is None:
            self.expected = [workloads.to_terms(a)
                             for a in workloads.reference_answers(inputs)]
        self.inputs, self.program, self.queries = inputs, program, queries
        return setup_s, parse_s

    def setup_pair(self, n: int) -> tuple[float, float]:
        """Build the program on the engine and on the baseline, one right
        after the other, the first in turn; returns both set-up times."""
        if n % 2:
            base = self._build(baseline)
            own = self.setup()[0]
        else:
            own = self.setup()[0]
            base = self._build(baseline)
        self.base_program, self.base_queries = base[1], base[2]
        return own, base[3]

    def run_pass(self, config: str, release: bool = True, tracer: Tracer | None = None):
        """Solve every query once under `config`.  Returns the pass's CPU time
        and, per query, (result or exception, wall time of the call); then
        checks each call."""
        cfg = CONFIGS[config]
        out = []
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.process_time()
            for qi, query in enumerate(self.queries):
                if tracer is not None:
                    tracer.op = qi
                c0 = time.perf_counter()
                try:
                    result = solve_parallel(self.program, query, cfg, release=release)
                except Exception as exc:  # counted as a failed operation
                    result = exc
                out.append((result, time.perf_counter() - c0))
            total = time.process_time() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        for qi, (result, _) in enumerate(out):
            self._check(config, qi, result)
        return total, out

    def baseline_pass(self, config: str) -> float:
        """Solve every query once on the baseline; the pass's CPU time."""
        cfg = BASELINE_CONFIGS[config]
        gc.collect()
        t0 = time.process_time()
        for query in self.base_queries:
            baseline.solve_parallel(self.base_program, query, cfg)
        return time.process_time() - t0

    def pass_pair(self, config: str, n: int) -> tuple[float, float]:
        """One pass on the engine, checked, and one on the baseline, one
        right after the other, the first in turn; returns both CPU times."""
        if n % 2:
            base = self.baseline_pass(config)
            own = self.run_pass(config)[0]
        else:
            own = self.run_pass(config)[0]
            base = self.baseline_pass(config)
        return own, base

    def _check(self, config: str, qi: int, result) -> None:
        cfg = CONFIGS[config]
        self.attempted += 1
        if isinstance(result, Exception):
            problem = f"raised {type(result).__name__}: {result}"
        else:
            problem = checks.answer_problem(result.answer_sets, self.expected[qi])
            base = self.base.get(cfg.design)
            if problem is None and base is not None and base[qi] is not None:
                problem = checks.law_problem(cfg.design, cfg.threads, result.counters, base[qi])
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{config} {self.inputs.queries[qi]}: {problem}")

    def base_pass(self) -> None:
        """1-thread counts per design, the base of the count laws."""
        for config in BASE:
            _, out = self.run_pass(config)
            self.base[CONFIGS[config].design] = [
                None if isinstance(r, Exception)
                or checks.answer_problem(r.answer_sets, expected) is not None
                else r.counters for (r, _), expected in zip(out, self.expected)]

    def reference_ok(self) -> bool:
        """The reference itself must look like the workload it describes."""
        return all(a for a, (_, _, y) in zip(self.expected, self.inputs.goals) if y is None)


def _rounds(configs, seconds: float, one_round) -> int:
    """Run whole rounds over `configs`, rotating the order, while another
    round is expected to end within `seconds`; at least one round."""
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        start = time.perf_counter()
        k = n % len(configs)
        one_round(n, configs[k:] + configs[:k])
        n += 1
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            return n


def _final_tables(bench: Bench, config: str) -> list[tablewalk.TableShape]:
    """Solve the query set keeping every table; the walked tables."""
    _, out = bench.run_pass(config, release=False)
    return [tablewalk.walk(r.table) for r, _ in out if not isinstance(r, Exception)]


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    cpus = sorted(os.sched_getaffinity(0))

    def pin(n):
        # each vCPU of a shared host has its own speed of the moment, so
        # both halves of a pair run on the same one; rounds take turns
        os.sched_setaffinity(0, {cpus[n % len(cpus)]})

    try:
        setup = []
        for n in range(SETUP_FIRST):
            pin(n)
            setup.append(bench.setup_pair(n))
        bench.base_pass()
        metrics = {f"{config}_table_kb":
                   sum(t.bytes for t in _final_tables(bench, config)) / 1024
                   for config in MEMORY}
        pairs: dict[str, list[tuple[float, float]]] = {c: [] for c in CONFIGS}

        def one_round(n, order):
            pin(n)
            setup.append(bench.setup_pair(n))
            for config in order:
                pairs[config].append(bench.pass_pair(config, n))

        rounds = _rounds(tuple(CONFIGS), seconds, one_round)
    finally:
        os.sched_setaffinity(0, cpus)
    ref = REFERENCE_S[bench.name]
    metrics["setup_s"] = ref["setup"] * _median_ratio(setup)
    for config, p in pairs.items():
        metrics[f"{config}_s"] = ref[config] * _median_ratio(p)
    raw = {"setup": setup, **pairs}
    return metrics, {
        "rounds": rounds,
        "pairs_s": raw,
        "median_ratio": {k: _median_ratio(p) for k, p in raw.items()},
        "median_engine_s": {k: statistics.median(a for a, _ in p) for k, p in raw.items()},
        "median_baseline_s": {k: statistics.median(b for _, b in p) for k, p in raw.items()},
    }


def _median_ratio(pairs: list[tuple[float, float]]) -> float:
    return statistics.median(own / base for own, base in pairs)


def _layer_metrics(config: str, totals: dict, out: list, shape) -> dict:
    spans, locks = totals["spans"], totals["locks"]

    def span(name, i):
        return spans.get(name, (0, 0.0, 0.0, 0))[i]

    done = [(r, call) for r, call in out if not isinstance(r, Exception)]
    wall = sum(r.wall_ms for r, _ in done) / 1000
    counters = {k: sum(getattr(r.counters, k) for r, _ in done)
                for k in ("ba", "sts", "sf", "se", "ats")}
    m = {
        "engine.self_s": wall - totals["worker_top_s"],
        "engine.overhead_s": sum(call for _, call in done) - wall,
        "engine.scc_completions": span("tablespace.mark_complete", 0),
        "program.validate_s": span("program.validate", 1),
        "tablespace.subgoal_call.calls": span("tablespace.subgoal_call", 0),
        "tablespace.subgoal_call.self_s": span("tablespace.subgoal_call", 2),
        "tablespace.new_answer.calls": span("tablespace.new_answer", 0),
        "tablespace.new_answer.new": span("tablespace.new_answer", 3),
        "tablespace.new_answer.self_s": span("tablespace.new_answer", 2),
        "tablespace.answers_of_s": span("tablespace.answers_of", 1),
        "tablespace.release_s": span("tablespace.release_thread", 1),
        "tablespace.counter_lock.acquires": locks.get("tablespace.counter_lock.acquires", 0),
        **{f"tablespace.alloc.{k}": v for k, v in counters.items()},
        "trie.check_insert.calls": span("trie.check_insert", 0),
        "trie.check_insert.tokens": span("trie.check_insert", 3),
        "trie.check_insert.s": span("trie.check_insert", 1),
        "trie.scan_len_mean": shape[0],
        "trie.chain_max": shape[1],
        "trie.lock.acquires": locks.get("trie.lock.acquires", 0),
        "trie.trylock.failed": locks.get("trie.lock.trylock_failed", 0),
        "buckets.get_or_create.calls": span("buckets.get_or_create", 0),
        "buckets.get_or_create.s": span("buckets.get_or_create", 1),
    }
    return {f"{config}.{k}": v for k, v in m.items()}


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    parse_s = [bench.setup()[1] for _ in range(SETUP_FIRST)]
    bench.base_pass()
    shapes = {}
    for config in TRACED:
        tables = _final_tables(bench, config)
        nodes = sum(t.chain_nodes for t in tables)
        shapes[config] = (sum(t.scan_total for t in tables) / max(nodes, 1),
                          max((t.chain_max for t in tables), default=0))
    tracer = Tracer()
    rows: list[dict] = []
    plain: dict[str, list[float]] = {c: [] for c in TRACED}
    traced: dict[str, list[float]] = {c: [] for c in TRACED}
    dump: dict[str, list] = {}

    def one_round(n, order):
        row = {}
        for config in order:
            plain[config].append(bench.run_pass(config)[0])
            tracer.span_cap = SPAN_CAP if n == 0 else 0
            total, out = bench.run_pass(config, tracer=tracer)
            traced[config].append(total)
            row.update(_layer_metrics(config, tracer.totals(), out, shapes[config]))
            if n == 0:
                dump[config] = tracer.spans()
        rows.append(row)

    rounds = _rounds(TRACED, seconds, one_round)
    metrics = {"parser.parse_s": statistics.median(parse_s)}
    for name in rows[0]:
        metrics[name] = statistics.median(row[name] for row in rows)
    overhead = {c: {"untraced_s": statistics.median(plain[c]),
                    "traced_s": statistics.median(traced[c])} for c in TRACED}
    return metrics, {"rounds": rounds, "overhead": overhead, "spans": dump}


# ----------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and the details."""
    bench = Bench(name, seed, tiny)
    metrics, details = (per_layer if trace else end_to_end)(bench, seconds)
    units = {n: u for n, u, _ in (PER_LAYER if trace else END_TO_END)}
    positive = trace or all(v > 0 for v in metrics.values())
    result = {
        "correct": bench.reference_ok() and positive,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    details.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                   attempted=bench.attempted, failed=bench.failed,
                   problems=bench.problems[:50])
    return result, details


def _save(name: str, seed: int, trace: bool, result: dict, details: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    spans = details.pop("spans", None)
    if spans is not None:
        with gzip.open(stem.with_suffix(".spans.json.gz"), "wt") as f:
            json.dump({"clock": "thread_time", "fields": ["op", "name", "t0", "t1", "depth"],
                       "configs": spans}, f)
    stem.with_suffix(".json").write_text(json.dumps({"result": result, **details}, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default with --workload all: both)")
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else ([0, 1] if len(names) > 1 else [0])
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in traces:
            result, details = run_one(name, args.seed, args.seconds, bool(trace))
            _save(name, args.seed, bool(trace), result, details)
            for problem in details["problems"]:
                print(f"FAILED {name}: {problem}", file=sys.stderr)
            if "overhead" in details:
                for config, o in details["overhead"].items():
                    print(f"# {name} {config}: traced pass {o['traced_s']:.3f} s, "
                          f"untraced {o['untraced_s']:.3f} s", file=sys.stderr)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            prefix = f"{name}/" if len(names) > 1 else ""
            for metric, v in result["metrics"].items():
                total["metrics"][prefix + metric] = v
                if len(names) > 1:
                    print(f"{name:12} {metric:44} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
