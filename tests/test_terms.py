import random

import pytest

from tabling.program import Literal, literal_of
from tabling.terms import (
    TRUE_TOK,
    Atom,
    Compound,
    Int,
    Var,
    atom,
    atom_tok,
    compound,
    decode_answers,
    int_tok,
    intern_symbol,
    term_str,
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
    assert atom("foo").sym == intern_symbol("foo")


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
        [(Int(sym), Atom(sym)), (Atom(sym), Int(sym))]
    # a flat log is cut into rows of its width
    assert decode_answers([int_tok(1), int_tok(2), int_tok(3)], 1) == \
        [(Int(1),), (Int(2),), (Int(3),)]
    assert decode_answers([int_tok(1), int_tok(2), int_tok(3), int_tok(4)], 2) == \
        [(Int(1), Int(2)), (Int(3), Int(4))]
    assert decode_answers([], 1) == decode_answers([], 3) == []


def test_decode_answers_shares_one_term_per_token_within_a_call():
    one, two = int_tok(1), int_tok(2)
    (a, b), (c, d), (e, g) = decode_answers([one, two, two, one, one, one], 2)
    assert a is d is e is g and b is c
    assert (a, b) == (Int(1), Int(2))
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
    assert term_str(compound("p", Int(1), Var(0))) == "p(1, V0)"
    assert term_str(atom("a")) == "a"
