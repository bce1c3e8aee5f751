import random

import pytest

from tabling.program import Literal, literal_of
from tabling.terms import (
    TRUE_TOK,
    Compound,
    Int,
    Var,
    atom,
    atom_tok,
    compound,
    decode_answer,
    int_tok,
    intern_symbol,
    term_str,
    tok_payload,
    tok_tag,
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
    assert tok_tag(int_tok(-17)) == TAG_INT and tok_payload(int_tok(-17)) == -17
    assert tok_tag(int_tok(0)) == TAG_INT and tok_payload(int_tok(0)) == 0
    sym = intern_symbol("edge")
    assert tok_tag(atom_tok(sym)) == TAG_ATOM and tok_payload(atom_tok(sym)) == sym
    assert tok_tag(var_tok(5)) == TAG_VAR and tok_payload(var_tok(5)) == 5


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
        assert decode_answer(literal_of(t, {}).args) == args
    assert decode_answer((TRUE_TOK,)) == ()
    assert decode_answer((int_tok(-3), atom_tok(intern_symbol("a")))) == (Int(-3), atom("a"))


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
