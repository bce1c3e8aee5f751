import gc
import os
import pickle
import random
import subprocess
import sys

import pytest

import tabling
from tabling import Int
from tabling.engine import EvalConfig, solve_parallel
from tabling.errors import ProgramError
from tabling.parser import parse_program, parse_query
from tabling.program import Literal, literal_of
from tabling.tablespace import Design
from tabling.terms import (
    TRUE_TOK,
    Compound,
    Var,
    atom,
    atom_tok,
    compound,
    decode_answers,
    int_tok,
    intern_symbol,
    var_tok,
    TAG_ATOM,
    TAG_INT,
    TAG_VAR,
)


def test_canonicalize_first_occurrence_order():
    x, y = Var(7), Var(3)
    t = compound("p", x, y, x)
    assert literal_of(t, {}).args == (var_tok(0), var_tok(1), var_tok(0))


def test_canonicalize_ground_term_unchanged():
    t = compound("p", Int(1), Int(2))
    assert literal_of(t, {}).args == (int_tok(1), int_tok(2))


def test_encode_preorder():
    p = intern_symbol("p")
    t = compound("p", Int(1), Var(0))
    assert literal_of(t, {}) == Literal((p, 2), (int_tok(1), var_tok(0)))


def test_encode_atom():
    a = intern_symbol("a")
    assert literal_of(atom("a"), {}) == Literal((a, 0), ())


def test_interned_atoms_equal_iff_same_name():
    assert atom("foo") == atom("foo")
    assert atom("foo") != atom("bar")


def test_compound_requires_args():
    with pytest.raises(ValueError):
        Compound(intern_symbol("p"), ())


def test_token_fields_round_trip():
    assert int_tok(-17) & 7 == TAG_INT and int_tok(-17) >> 3 == -17
    assert int_tok(0) & 7 == TAG_INT and int_tok(0) >> 3 == 0
    sym = intern_symbol("edge")
    assert atom_tok(sym) & 7 == TAG_ATOM and atom_tok(sym) >> 3 == sym
    assert var_tok(5) & 7 == TAG_VAR and var_tok(5) >> 3 == 5


def _random_arg(rng: random.Random, ground: bool = False):
    kind = rng.randrange(2 if ground else 3)
    if kind == 0:
        return Int(rng.randrange(-50, 50))
    if kind == 1:
        return atom(rng.choice("abcde"))
    return Var(rng.randrange(4))


def _random_literal(rng: random.Random, ground: bool = False):
    args = tuple(_random_arg(rng, ground) for _ in range(rng.randrange(4)))
    name = rng.choice("fgh")
    return Compound(intern_symbol(name), args) if args else atom(name)


def test_round_trip_random_terms():
    rng = random.Random(42)
    for _ in range(300):
        t = _random_literal(rng, ground=True)
        args = t.args if isinstance(t, Compound) else ()
        toks = literal_of(t, {}).args
        if toks:
            assert decode_answers(toks, len(toks)) == [args]
    assert decode_answers([TRUE_TOK], 1) == [()]
    assert decode_answers([int_tok(-3), atom_tok(intern_symbol("a"))], 2) == [(Int(-3), atom("a"))]
    assert decode_answers([int_tok(-1), int_tok(-2**40), int_tok(0)], 3) == \
        [(Int(-1), Int(-2**40), Int(0))]
    # an int and an atom with the same payload decode apart
    sym = intern_symbol("edge")
    assert decode_answers([int_tok(sym), atom_tok(sym), atom_tok(sym), int_tok(sym)], 2) == \
        [(Int(sym), atom("edge")), (atom("edge"), Int(sym))]
    # a flat log is cut into rows of its width
    assert decode_answers([int_tok(1), int_tok(2), int_tok(3)], 1) == \
        [(Int(1),), (Int(2),), (Int(3),)]
    assert decode_answers([int_tok(1), int_tok(2), int_tok(3), int_tok(4)], 2) == \
        [(Int(1), Int(2)), (Int(3), Int(4))]
    assert decode_answers([], 1) == decode_answers([], 3) == []


def test_decode_answers_shares_one_term_per_token_within_a_call():
    # values past CPython's shared small ints, so identity is the memo's
    one, two = int_tok(2**70), int_tok(-2**70)
    (a, b), (c, d), (e, g) = decode_answers([one, two, two, one, one, one], 2)
    assert a is d is e is g and b is c
    assert (a, b) == (Int(2**70), Int(-2**70))
    # a second call makes its own terms: the memo does not outlive a call
    (f, _), = decode_answers([one, two], 2)
    assert f == a and f is not a


def _rename(t, mapping):
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(Var(mapping[a.vid]) if isinstance(a, Var) else a
                                         for a in t.args))
    return t


def test_variants_equal_under_bijective_renaming():
    rng = random.Random(7)
    for _ in range(200):
        t = _random_literal(rng)
        perm = list(range(4))
        rng.shuffle(perm)
        renamed = _rename(t, {i: 10 + perm[i] for i in range(4)})
        assert literal_of(t, {}) == literal_of(renamed, {})


def test_variable_merge_breaks_variantness():
    t = compound("p", Var(0), Var(1))
    merged = compound("p", Var(0), Var(0))
    assert literal_of(t, {}) != literal_of(merged, {})


def test_term_str():
    assert str(compound("p", Int(1), Var(0))) == "p(1, V0)"
    assert str(atom("a")) == "a"


def test_ints_and_atoms_hash_apart():
    for k in (0, 1, 2, 3, -1, -2, -8, 1023, 2**70, -(2**70)):
        a = atom(f"n{k}")  # one name per value; an atom is made from its name
        digits = atom(str(k))  # an atom spelled like the int
        assert hash(Int(k)) == hash(Int(int(str(k)))) and hash(a) == hash(atom(f"n{k}"))
        for other in (a, digits):
            assert Int(k) != other and other != Int(k)
            mixed = {Int(k), other, Int(k), other}
            assert len(mixed) == 2 and Int(k) in mixed and other in mixed
        # values: an integer is its int and an atom its name
        assert Int(k) == k and hash(Int(k)) == hash(k)
        assert digits == str(k) and hash(digits) == hash(str(k))
    assert atom("a") == "a" and atom("a") != "b"
    # answer tuples of either kind stay apart in an answer set
    answers = frozenset((Int(k), atom(str(k))) for k in range(-3, 3)) \
        | frozenset((atom(str(k)), Int(k)) for k in range(-3, 3))
    assert len(answers) == 12
    assert hash(atom("hub")) == hash(atom("hub")) and atom("hub") != atom("hub2")


def test_decoded_terms_are_ints_and_names():
    hub = intern_symbol("hub")
    (i, a), = decode_answers([int_tok(7), atom_tok(hub)], 2)
    assert type(i) is int and type(a) is str
    assert (i, a) == (7, "hub") and a is tabling.terms.symbol_name(hub)
    assert f"{i},{a}" == "7,hub"
    # a tuple of constants holds no object the cyclic GC tracks
    assert not gc.is_tracked(i) and not gc.is_tracked(a)


def test_literals_take_exactly_int_and_str_constants():
    p = intern_symbol("p")
    assert literal_of(compound("p", 1, "a"), {}) == \
        Literal((p, 2), (int_tok(1), atom_tok(intern_symbol("a"))))
    assert literal_of("p", {}) == Literal((p, 0), ())
    # a bool is an int to isinstance, but it is no constant: p(True) never
    # becomes p(1)
    for bad in (True, False, 1.0, 2.5, b"a", None, (1,)):
        with pytest.raises(ProgramError, match="non-flat argument"):
            literal_of(compound("p", bad), {})
        with pytest.raises(ProgramError, match="not a valid literal"):
            literal_of(bad, {})


def test_atom_names_are_those_the_parser_reads_back():
    for name in ("a", "zed", "a_B9", "\u00e9t\u00e9", "x1"):
        lit = literal_of(compound("p", name), {})
        assert lit == literal_of(parse_query(f"p({name})"), {}), name
        assert literal_of(name, {}) == literal_of(parse_query(name), {}), name
    # each of these would print as an int, a variable, two words or nothing
    for name in ("1", "-1", "X", "_x", "a b", "a.", "", "p(1)"):
        with pytest.raises(ProgramError, match="not an atom name"):
            literal_of(compound("p", name), {})
        with pytest.raises(ProgramError, match="not an atom name"):
            literal_of(name, {})


def test_an_atom_spelled_like_an_int_cannot_enter_a_program():
    # e("1") would decode to the str "1", print as 1 and so hash as e(1) does
    program = parse_program(":- table t/1.\nt(X) :- e(X).\ne(1).\n")
    with pytest.raises(ProgramError, match="not an atom name: '1'"):
        program.add_fact(compound("e", "1"))
    result = solve_parallel(program, parse_query("t(X)"), EvalConfig(Design.NS))
    assert result.answer_sets == [frozenset({(1,)})]


def test_atoms_pickle_by_name_across_interning_orders():
    answers = frozenset({(atom("hello"), Int(1)), (atom("world"), Int(-2)), (Int(3), atom("f"))})
    blob = pickle.dumps(answers)
    check = "; ".join([
        "import pickle, sys",
        "from tabling.program import literal_of",
        "from tabling.terms import atom, compound, decode_answers, intern_symbol",
        # interned first, in another order, so the ids differ from this process's
        "[intern_symbol(n) for n in ('zz', 'yy', 'xx', 'world', 'f', 'ww')]",
        "got = pickle.loads(sys.stdin.buffer.read())",
        "want = {(atom('hello'), 1), (atom('world'), -2), (3, atom('f'))}",
        "assert got == want, got",
        "assert all(type(t) in (int, str) for row in got for t in row)",
        # each answer encodes to this process's tokens and decodes back
        "assert all(decode_answers(literal_of(compound('p', *row), {}).args, 2) == [row] "
        "for row in got)",
    ])
    src = os.path.dirname(os.path.dirname(tabling.__file__))
    done = subprocess.run([sys.executable, "-c", check], input=blob, capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
