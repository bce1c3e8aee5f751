"""Fast self-test of the benchmark, at tiny sizes.

    python3 tablebench/selftest.py      (or: python3 -m pytest tablebench/selftest.py)

Checks that every workload runs clean at tiny size, that a dropped answer
and a broken count law are each counted as a failed operation, that
BENCHMARK.json parses and names every metric the command prints, and that
the baseline copy of the engine is still the one the reference times in
`run.REFERENCE_S` were measured on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets up the engine import path)


def _tiny(trace: bool):
    return {name: run.run_one(name, 7, 0.05, trace, tiny=True)[0] for name in run.WORKLOADS}


def test_tiny_workloads_pass_and_name_every_metric():
    for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        for name, result in _tiny(trace).items():
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] > 0
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == {n: u for n, u, _ in names}, (name, trace)


def _bench_with(mutate) -> run.Bench:
    """A tiny btree-left bench whose solve_parallel results pass through
    `mutate` before the benchmark checks them."""
    bench = run.Bench("btree-left", 7, tiny=True)
    bench.setup()
    bench.base_pass()
    real = run.solve_parallel

    def solve(*args, **kwargs):
        return mutate(real(*args, **kwargs))

    run.solve_parallel = solve
    try:
        bench.run_pass("fs_2t")
    finally:
        run.solve_parallel = real
    return bench


def test_dropped_answer_fails_the_operation():
    def drop_one(result):
        sets = list(result.answer_sets)
        sets[-1] = frozenset(sorted(sets[-1], key=str)[1:])
        return dataclasses.replace(result, answer_sets=sets)

    bench = _bench_with(drop_one)
    assert bench.failed == 1 and "1 answers missing" in bench.problems[0], bench.problems


def test_broken_count_law_fails_the_operation():
    def extra_node(result):
        counters = dataclasses.replace(result.counters, ats=result.counters.ats + 1)
        return dataclasses.replace(result, counters=counters)

    bench = _bench_with(extra_node)
    assert bench.failed == 1 and "count law" in bench.problems[0], bench.problems


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec == run.spec()
    real = run.workloads.generate
    run.workloads.generate = lambda name, seed, tiny=False: real(name, seed, True)
    try:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "btree-left", "--seed", "7",
                                 "--seconds", "0.01", "--trace", str(trace)])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            assert code == 0
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert {k: v["unit"] for k, v in result["metrics"].items()} == \
                {m["name"]: m["unit"] for m in spec[key]}
    finally:
        run.workloads.generate = real


# SHA-256 of the baseline's modules when REFERENCE_S was measured
BASELINE_SHA256 = {
    "buckets.py": "895cf499fa8d0dc60841311eef14167b58a92b749f0c04c59d82c768eb001df2",
    "engine.py": "6a0b52fa30ac5f2cbb79913bfc4f2b1f7fdb8d1042eba38dae604635372b74da",
    "errors.py": "c5f779c49520ca0852fe07bfac00c5ae31d934bccc00c0cde41699b1011f72b5",
    "parser.py": "c3296f2e9bf3a4892321b283bb5069f9953e75f0c2b6a68be1cf78b8b53b504c",
    "program.py": "6749f263160d77a313633194b9e6a89341c6c9bc468595e26b6272bf7508b6ed",
    "tablespace.py": "82543afd4e9ef10a4148846fc788fd3e40510bc592ae8aea20e8754c8797a538",
    "terms.py": "b5e6591c46ed5002495bf5e191651bdf1c216e5d67b8fd6de352020a8b49e04f",
    "trie.py": "f752e97d436ebbde8ef2415fad72cb9aabd8d7e75e35f4f83b279249d02d2c9a",
}


def test_baseline_is_unchanged():
    found = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
             for f in sorted((HERE / "baseline").glob("*.py")) if f.name != "__init__.py"}
    assert found == BASELINE_SHA256, "baseline/ changed: REFERENCE_S no longer applies"


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
