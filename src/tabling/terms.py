"""First-order terms, interned symbols, and the flat token encoding used by tries.

Terms are immutable values.  Atoms and functor names are interned to small
integer ids so equality is id equality.  Tries never store terms directly:
they store *tokens*, a pre-order linearization where each token is packed
into a single int (tag in the low 3 bits, payload above).  Packing keeps
sibling-chain scans and dict lookups on the hot path cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# symbol interning

_intern_lock = threading.Lock()
_sym_ids: dict[str, int] = {}
_sym_names: list[str] = []
_functor_ids: dict[tuple[int, int], int] = {}
_functor_back: list[tuple[int, int]] = []


def intern_symbol(name: str) -> int:
    """Map a symbol name to a stable per-process id."""
    sym = _sym_ids.get(name)
    if sym is not None:
        return sym
    with _intern_lock:
        sym = _sym_ids.get(name)
        if sym is None:
            sym = len(_sym_names)
            _sym_names.append(name)
            _sym_ids[name] = sym
        return sym


def symbol_name(sym: int) -> str:
    return _sym_names[sym]


def _intern_functor(sym: int, arity: int) -> int:
    key = (sym, arity)
    fid = _functor_ids.get(key)
    if fid is not None:
        return fid
    with _intern_lock:
        fid = _functor_ids.get(key)
        if fid is None:
            fid = len(_functor_back)
            _functor_back.append(key)
            _functor_ids[key] = fid
        return fid


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Term):
    sym: int

    def __str__(self) -> str:
        return symbol_name(self.sym)


@dataclass(frozen=True, slots=True)
class Int(Term):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Var(Term):
    vid: int

    def __str__(self) -> str:
        return f"V{self.vid}"


@dataclass(frozen=True, slots=True)
class Compound(Term):
    functor: int
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.args) < 1:
            raise ValueError("compound term needs at least one argument")

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        return f"{symbol_name(self.functor)}({', '.join(map(str, self.args))})"


def atom(name: str) -> Atom:
    return Atom(intern_symbol(name))


def compound(name: str, *args: Term) -> Compound:
    return Compound(intern_symbol(name), tuple(args))


def term_str(t: Term) -> str:
    return str(t)


# ---------------------------------------------------------------------------
# tokens
#
# tok = payload << 3 | tag.  Python's arbitrary-precision ints make the shift
# safe for any value, including negatives (arithmetic shift round-trips).

TAG_INT = 1
TAG_ATOM = 2
TAG_VAR = 3
TAG_FUNCTOR = 4
TAG_TRUE = 5  # marks the single answer of a variable-free subgoal

Token = int
TokenSeq = tuple[int, ...]

TRUE_TOK: Token = TAG_TRUE  # payload 0


def int_tok(value: int) -> Token:
    return value << 3 | TAG_INT


def atom_tok(sym: int) -> Token:
    return sym << 3 | TAG_ATOM


def var_tok(index: int) -> Token:
    return index << 3 | TAG_VAR


def functor_tok(sym: int, arity: int) -> Token:
    return _intern_functor(sym, arity) << 3 | TAG_FUNCTOR


def tok_tag(tok: Token) -> int:
    return tok & 7


def tok_payload(tok: Token) -> int:
    return tok >> 3


def functor_fields(tok: Token) -> tuple[int, int]:
    """(symbol id, arity) of a functor token."""
    return _functor_back[tok >> 3]


def tok_str(tok: Token) -> str:
    tag = tok & 7
    if tag == TAG_INT:
        return str(tok >> 3)
    if tag == TAG_ATOM:
        return symbol_name(tok >> 3)
    if tag == TAG_VAR:
        return f"V{tok >> 3}"
    if tag == TAG_FUNCTOR:
        sym, arity = _functor_back[tok >> 3]
        return f"{symbol_name(sym)}/{arity}"
    if tag == TAG_TRUE:
        return "true"
    raise ValueError(f"bad token {tok!r}")


# ---------------------------------------------------------------------------
# canonicalization and encoding


def canonicalize_variant(t: Term) -> Term:
    """Rename variables to V0, V1, ... in order of first occurrence.

    Two terms are variants exactly when their canonical forms are equal.
    """
    seen: dict[int, int] = {}

    def walk(x: Term) -> Term:
        if isinstance(x, Var):
            vid = seen.get(x.vid)
            if vid is None:
                vid = len(seen)
                seen[x.vid] = vid
            return x if x.vid == vid else Var(vid)
        if isinstance(x, Compound):
            return Compound(x.functor, tuple(walk(a) for a in x.args))
        return x

    return walk(t)


def encode_term(t: Term) -> TokenSeq:
    """Pre-order linearization of a term into tokens."""
    out: list[int] = []

    def walk(x: Term) -> None:
        if isinstance(x, Atom):
            out.append(x.sym << 3 | TAG_ATOM)
        elif isinstance(x, Int):
            out.append(x.value << 3 | TAG_INT)
        elif isinstance(x, Var):
            out.append(x.vid << 3 | TAG_VAR)
        elif isinstance(x, Compound):
            out.append(functor_tok(x.functor, len(x.args)))
            for a in x.args:
                walk(a)
        else:
            raise TypeError(f"not a term: {x!r}")

    walk(t)
    return tuple(out)


def decode_prefix(toks: TokenSeq, i: int = 0) -> tuple[Term, int]:
    """Decode one term starting at index i; returns (term, next index)."""
    tok = toks[i]
    tag = tok & 7
    if tag == TAG_INT:
        return Int(tok >> 3), i + 1
    if tag == TAG_ATOM:
        return Atom(tok >> 3), i + 1
    if tag == TAG_VAR:
        return Var(tok >> 3), i + 1
    if tag == TAG_FUNCTOR:
        sym, arity = _functor_back[tok >> 3]
        args = []
        j = i + 1
        for _ in range(arity):
            a, j = decode_prefix(toks, j)
            args.append(a)
        return Compound(sym, tuple(args)), j
    raise ValueError(f"cannot decode token {tok!r}")


def decode_term(toks: TokenSeq) -> Term:
    t, j = decode_prefix(toks, 0)
    if j != len(toks):
        raise ValueError("trailing tokens after a complete term")
    return t


def decode_tuple(toks: TokenSeq) -> tuple[Term, ...]:
    """Decode a concatenation of term encodings (an answer substitution)."""
    if toks == (TRUE_TOK,):
        return ()
    out = []
    j = 0
    while j < len(toks):
        t, j = decode_prefix(toks, j)
        out.append(t)
    return tuple(out)


def encode_tuple(terms: tuple[Term, ...]) -> TokenSeq:
    """Encode an answer substitution; the empty substitution gets TRUE_TOK."""
    if not terms:
        return (TRUE_TOK,)
    out: list[int] = []
    for t in terms:
        out.extend(encode_term(t))
    return tuple(out)
