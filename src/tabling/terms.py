"""Terms, interned symbols, and the flat token encoding used by tries.

Terms are immutable values; they exist only between the parser and
`program.literal_of`, and again when answers leave the table through
`decode_answers`.  A constant is a plain value: an integer is an `int` and
an atom is the `str` of its name, so answer tuples hash, compare and print
in C, and a tuple of constants is one the cyclic GC stops tracking.  Only
variables and compound literals have classes of their own.  Symbol names
are interned to small integer ids for the tokens.  Tries never store terms:
they store *tokens*, each packed into a single int (tag in the low 3 bits,
payload above).  Packing keeps sibling-chain scans and dict lookups on the
hot path cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

# ---------------------------------------------------------------------------
# symbol interning

_intern_lock = threading.Lock()
_sym_ids: dict[str, int] = {}
_sym_names: list[str] = []


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


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True, slots=True)
class Var:
    vid: int

    def __str__(self) -> str:
        return f"V{self.vid}"


@dataclass(frozen=True, slots=True)
class Compound:
    functor: int
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.args) < 1:
            raise ValueError("compound term needs at least one argument")

    def __str__(self) -> str:
        return f"{symbol_name(self.functor)}({', '.join(map(str, self.args))})"


Term = int | str | Var | Compound


def atom(name: str) -> str:
    """The atom `name`, which is that string itself."""
    return name


def compound(name: str, *args: Term) -> Compound:
    return Compound(intern_symbol(name), tuple(args))


# ---------------------------------------------------------------------------
# tokens
#
# tok = payload << 3 | tag.  Python's arbitrary-precision ints make the shift
# safe for any value, including negatives (arithmetic shift round-trips).

TAG_INT = 1
TAG_ATOM = 2
TAG_VAR = 3
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


def tok_str(tok: Token) -> str:
    tag = tok & 7
    if tag == TAG_INT:
        return str(tok >> 3)
    if tag == TAG_ATOM:
        return symbol_name(tok >> 3)
    if tag == TAG_VAR:
        return f"V{tok >> 3}"
    if tag == TAG_TRUE:
        return "true"
    raise ValueError(f"bad token {tok!r}")


class _DecodeMemo(dict):
    """Token -> term for one `decode_answers` call."""

    def __missing__(self, tok: Token) -> Term:
        term = self[tok] = tok >> 3 if tok & 7 == TAG_INT else _sym_names[tok >> 3]
        return term


def decode_answers(flat: Sequence[Token], width: int) -> list[tuple[Term, ...]]:
    """The answers of a flat answer log, `width` ground tokens per answer,
    in order, each a tuple of `int`s and atom names; the TRUE_TOK answer of
    a variable-free subgoal (width 1, the only answer such a log holds)
    decodes to the empty tuple.  A token met again in one call decodes to
    the same object, and the memo does not outlive the call.  The memo is
    mapped over the whole log and its terms regrouped by `zip`, so Python
    code runs only for the first occurrence of each token, never per
    answer."""
    if flat and flat[0] == TRUE_TOK:
        return [()]
    return list(zip(*[map(_DecodeMemo().__getitem__, flat)] * width))
