import hashlib
import json
import weakref

import pytest

from tabling import Int, atom, cli, desk_instances, engine
from tabling.cli import CSV_COLUMNS, run_command
from tabling.engine import ParallelResult, solve_parallel
from tabling.errors import EvaluationError


def rows_of(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == CSV_COLUMNS
    return [line.split(",") for line in out[1:]]


def test_bench_run_with_check(capsys):
    code = run_command(["--bench", "pathleft:cycle:10", "--design", "fs",
                        "--lock", "trylock", "--threads", "2",
                        "--repeat", "1", "--check"])
    assert code == 0
    rows = rows_of(capsys)
    assert len(rows) == 1
    row = dict(zip(CSV_COLUMNS.split(","), rows[0]))
    assert row["answers"] == "100"
    assert row["design"] == "fs" and row["lock"] == "trylock" and row["threads"] == "2"


# NS/1t answer hashes of the desk instances, which must never change: the text
# hashed is each answer's terms as printed, comma-joined, one sorted line each
DESK_ANSWER_HASHES = {
    "pathleft:btree:10": "0e0cce40f6462c73",
    "pathleft:pyramid:100": "192a20fb88832ece",
    "pathleft:cycle:100": "cc30c699293571a1",
    "pathleft:grid:8": "832e219ebae77811",
    "pathright:btree:10": "0e0cce40f6462c73",
    "pathright:pyramid:100": "192a20fb88832ece",
    "pathright:cycle:100": "cc30c699293571a1",
    "pathright:grid:8": "832e219ebae77811",
}


def test_answer_hashes_of_the_desk_instances_are_pinned(capsys):
    assert sorted(DESK_ANSWER_HASHES) == sorted(inst.name for inst in desk_instances())
    for name, want in DESK_ANSWER_HASHES.items():
        code = run_command(["--bench", name, "--design", "ns", "--threads", "1",
                            "--repeat", "1", "--output", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["answer_hash"] == want, name


# answers that mix atoms and ints, from atom constants in facts, in a rule
# head, in a rule body and in the query; the hashes must never change
_MIXED_TEXT = (":- table path/2.\n"
               ":- table tagged/2.\n"
               "path(X,Y) :- edge(X,Y).\n"
               "path(X,Z) :- path(X,Y), edge(Y,Z).\n"
               "tagged(X,hub) :- path(X,a).\n"
               "tagged(X,leaf) :- edge(X,-2).\n"
               "edge(a,b). edge(b,1). edge(1,c). edge(c,a). edge(b,-2). edge(-2,zed).\n")
MIXED_ANSWER_HASHES = {
    "path(a,X)": (6, "a663e049dbbac8aa"),
    "path(X,Y)": (25, "e8fa9fef4d24fe68"),
    "tagged(X,T)": (5, "bfd1f75d6c214424"),
    "tagged(X,hub)": (4, "eb39a3adf80406c8"),
}


def test_answer_hashes_of_mixed_atom_and_int_answers_are_pinned(tmp_path, capsys):
    path = tmp_path / "mixed.pl"
    path.write_text(_MIXED_TEXT)
    for query, want in MIXED_ANSWER_HASHES.items():
        code = run_command(["--program", str(path), "--query", query,
                            "--design", "ns,ss,fs", "--threads", "1,2",
                            "--repeat", "1", "--check", "--output", "json"])
        assert code == 0, query
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 6 and {(r["answers"], r["answer_hash"]) for r in rows} == {want}, \
            query


def test_answer_hash_text_is_the_printed_terms():
    answers = {(Int(-3), atom("a")), (atom("b"), Int(10))}
    text = "-3,a\nb,10"
    assert cli.answer_set_hash(answers) == hashlib.sha256(text.encode()).hexdigest()[:16]
    assert cli.answer_set_hash({()}) == hashlib.sha256(b"").hexdigest()[:16]


def test_none_lock_is_a_usage_error_under_every_design(capsys):
    # a trie is shared exactly when it has locks: no lock mode is none
    for design in ("ns", "ss", "fs"):
        code = run_command(["--bench", "pathleft:cycle:5", "--design", design,
                            "--lock", "none", "--repeat", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "usage error: --lock: 'none' is not one of lock, trylock\n", design


@pytest.mark.parametrize("option, value, says", [
    ("--design", "ns,xs", "--design: 'xs' is not one of ns, ss, fs"),
    ("--threads", "1,two", "--threads: 'two' is not an integer"),
], ids=["design", "threads"])
def test_bad_list_item_names_what_is_accepted(option, value, says, capsys):
    code = run_command(["--bench", "pathleft:cycle:5", option, value, "--repeat", "1"])
    assert code == 1
    assert capsys.readouterr().err == f"usage error: {says}\n"


def test_sweep_produces_cartesian_rows(capsys):
    code = run_command(["--bench", "pathleft:cycle:5", "--design", "ns,ss,fs",
                        "--threads", "1,2", "--repeat", "1"])
    assert code == 0
    rows = rows_of(capsys)
    assert len(rows) == 6
    assert {(r[1], r[3]) for r in rows} == {(d, t) for d in ("ns", "ss", "fs")
                                            for t in ("1", "2")}
    # NS ignores the lock mode and reports none
    assert all(r[2] == "none" for r in rows if r[1] == "ns")


def test_json_output(capsys):
    code = run_command(["--bench", "pathleft:cycle:5", "--design", "ss",
                        "--threads", "1", "--repeat", "1", "--output", "json"])
    assert code == 0
    objs = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert len(objs) == 1
    assert set(objs[0]) == {"bench", "design", "lock", "threads", "time_ms",
                            "answers", "te", "ba", "sts", "sf", "se", "ats",
                            "answer_hash"}


def test_program_file_run(tmp_path, capsys):
    path = tmp_path / "prog.pl"
    path.write_text(":- table path/2.\n"
                    "path(X,Z) :- path(X,Y), edge(Y,Z).\n"
                    "path(X,Z) :- edge(X,Z).\n"
                    "edge(1,2). edge(2,3).\n")
    code = run_command(["--program", str(path), "--query", "path(1,X)",
                        "--design", "ns", "--repeat", "1", "--check"])
    assert code == 0
    rows = rows_of(capsys)
    assert rows[0][5] == "2"  # (2,) and (3,)


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.pl"
    path.write_text("path(X,Z) :- edge(X,Z)")
    code = run_command(["--program", str(path), "--query", "path(X,Y)"])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert run_command([]) == 1
    assert run_command(["--bench", "nonsense"]) == 1
    assert run_command(["--bench", "pathleft:cycle:5", "--threads", "zero"]) == 1
    assert run_command(["--program", "x.pl", "--design", "ns"]) == 1  # no query
    capsys.readouterr()


def test_missing_program_file(capsys):
    assert run_command(["--program", "/nonexistent.pl", "--query", "p(X)"]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_repeat_below_one_is_a_usage_error(repeat, capsys):
    assert run_command(["--bench", "pathleft:cycle:3", "--repeat", repeat]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: --repeat must be at least 1")


def test_non_utf8_program_file_exits_1_without_traceback(tmp_path, capsys):
    path = tmp_path / "latin1.pl"
    path.write_bytes(b":- table p/1.\np(X) :- e(X).\ne(\xff).\n")
    assert run_command(["--program", str(path), "--query", "p(X)", "--repeat", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot read program: ") and "Traceback" not in err


def test_paper_scale_gating(capsys):
    code = run_command(["--bench", "pathleft:cycle:120", "--repeat", "1"])
    assert code == 1
    assert "desk-scale cap" in capsys.readouterr().err
    code = run_command(["--bench", "pathleft:cycle:120", "--repeat", "1",
                        "--paper-scale", "--threads", "1"])
    assert code == 0
    rows = rows_of(capsys)
    assert rows[0][5] == str(120 * 120)


def test_thread_mismatch_reports_verification_failure(monkeypatch, capsys):
    real = solve_parallel

    def corrupt(program, query, cfg):
        result = real(program, query, cfg)
        mangled = list(result.answer_sets)
        mangled[0] = frozenset()
        return ParallelResult(mangled, result.counters, result.wall_ms, result.table)

    monkeypatch.setattr(cli, "solve_parallel", corrupt)
    code = run_command(["--bench", "pathleft:cycle:5", "--design", "ns",
                        "--threads", "2", "--repeat", "1"])
    assert code == 3
    assert "verification failure" in capsys.readouterr().err


def test_oracle_mismatch_reports_verification_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_solve", lambda program, query: frozenset())
    code = run_command(["--bench", "pathleft:cycle:5", "--design", "ns",
                        "--threads", "1", "--repeat", "1", "--check"])
    assert code == 3
    assert "reference solver" in capsys.readouterr().err


def test_rerun_reproduces_counts_and_counters(capsys):
    argv = ["--bench", "pathright:pyramid:10", "--design", "ss",
            "--threads", "2", "--repeat", "1"]
    assert run_command(argv) == 0
    first = rows_of(capsys)
    assert run_command(argv) == 0
    second = rows_of(capsys)
    # identical apart from the timing column
    drop_time = lambda row: row[:4] + row[5:]
    assert [drop_time(r) for r in first] == [drop_time(r) for r in second]


def test_spec_flow_cycle100_fs_trylock_16(capsys):
    code = run_command(["--bench", "pathleft:cycle:100", "--design", "fs",
                        "--lock", "trylock", "--threads", "16",
                        "--repeat", "1", "--check"])
    assert code == 0
    rows = rows_of(capsys)
    assert len(rows) == 1
    assert rows[0][5] == "10000"


def test_evaluation_error_exits_1_without_traceback(capsys, monkeypatch):
    def fail(self, query):
        raise EvaluationError("SCC fixpoint exceeded 0 rounds")

    monkeypatch.setattr(engine._Eval, "solve", fail)
    code = run_command(["--bench", "pathleft:cycle:3", "--design", "ns",
                        "--repeat", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "SCC fixpoint exceeded" in err and "Traceback" not in err


@pytest.mark.parametrize("check", [[], ["--check"]], ids=["run", "check"])
@pytest.mark.parametrize("query", ["path(f(1),X)", "7", "X"])
def test_bad_query_exits_1_without_traceback(query, check, capsys):
    # with --check the reference solver meets the query first
    code = run_command(["--bench", "pathleft:btree:3", "--query", query,
                        "--repeat", "1"] + check)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "V0" not in err  # the parser's internal name for a variable


@pytest.mark.parametrize("text", [
    "p(X) :- q(Y).\nq(1).\n",                    # not range-restricted
    ":- table p/1.\nr(X) :- r(X).\np(X) :- r(X).\n",  # non-tabled recursion
    "p(X).\n",                                    # non-ground fact
], ids=["range", "recursion", "nonground"])
def test_invalid_program_file_exits_1_without_traceback(text, tmp_path, capsys):
    path = tmp_path / "invalid.pl"
    path.write_text(text)
    code = run_command(["--program", str(path), "--query", "p(X)", "--repeat", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "V0" not in err  # the parser's internal name for a variable


VIEWS_5 = ":- table t/1.\nt(X) :- p0(X).\np5(X) :- e(X).\ne(1).\n" + "".join(
    f"p{i}(X) :- e(X).\np{i}(X) :- p{i + 1}(X), p{i + 1}(X).\n" for i in range(5))


@pytest.mark.parametrize("text, code, says", [
    ("t(" + "f(" * 5000 + "1" + ")" * 5001 + ".\n", 1, "error: 1:4: non-flat argument f(...)"),
    (f"t({'7' * 5000}).\n", 2, "parse error: 1:3: integer of 5000 digits"),
    (VIEWS_5, 1, "error: unfolding a clause of t/1 made more than"),
], ids=["nesting", "digits", "views"])
def test_input_limits_exit_with_a_diagnosis_without_traceback(text, code, says, tmp_path,
                                                               capsys):
    path = tmp_path / "limit.pl"
    path.write_text(text)
    assert run_command(["--program", str(path), "--query", "t(X)", "--repeat", "1"]) == code
    err = capsys.readouterr().err
    assert err.startswith(says) and "Traceback" not in err


def test_no_earlier_result_is_alive_while_a_run_is_timed(monkeypatch, capsys):
    real = solve_parallel
    tables = []

    def tracked(program, query, cfg):
        assert all(ref() is None for ref in tables)
        result = real(program, query, cfg)
        tables.append(weakref.ref(result.table))
        return result

    monkeypatch.setattr(cli, "solve_parallel", tracked)
    code = run_command(["--bench", "pathleft:cycle:5", "--design", "ns,fs",
                        "--threads", "1,2", "--repeat", "2"])
    assert code == 0
    assert len(rows_of(capsys)) == 4 and len(tables) == 8
