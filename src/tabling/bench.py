"""Edge-configuration generators and the transitive-closure benchmark programs.

Four deterministic graph families over positive integer node ids:

* btree(d)   - complete binary tree on nodes 1..2^d - 1, parent i has
               children 2i and 2i + 1.
* cycle(d)   - ring 1 -> 2 -> ... -> d -> 1.
* grid(d)    - d x d lattice, node (r, c) is id (r-1)*d + c, with directed
               edges both ways between orthogonal neighbours.
* pyramid(d) - hollow pyramid: two chains descend from apex 1 (left side
               2..d, right side d+1..2d-1) and a bidirectional rung joins
               the two bottom corners.  This keeps the closure size at
               Theta(d^2), the same scale as cycle(d), and is the
               construction of record for this repository.

Each benchmark instance pairs one graph with one of the two path/2
recursions (left or right) and the open query path(X, Y).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigurationError
from .parser import parse_program
from .program import Program
from .terms import Term, Var, compound


class GraphKind(Enum):
    BTREE = "btree"
    PYRAMID = "pyramid"
    CYCLE = "cycle"
    GRID = "grid"


class Recursion(Enum):
    LEFT = "pathleft"
    RIGHT = "pathright"


DESK_DEPTHS = {
    GraphKind.BTREE: 10,
    GraphKind.PYRAMID: 100,
    GraphKind.CYCLE: 100,
    GraphKind.GRID: 8,
}

PAPER_DEPTHS = {
    GraphKind.BTREE: 18,
    GraphKind.PYRAMID: 2000,
    GraphKind.CYCLE: 2000,
    GraphKind.GRID: 35,
}


@dataclass(frozen=True)
class EdgeConfig:
    kind: GraphKind
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigurationError("depth must be >= 1")


@dataclass(frozen=True)
class BenchInstance:
    recursion: Recursion
    config: EdgeConfig

    @property
    def name(self) -> str:
        return f"{self.recursion.value}:{self.config.kind.value}:{self.config.depth}"


def gen_edges(config: EdgeConfig, allow_paper_scale: bool = False) -> list[tuple[int, int]]:
    """Deterministic edge list for a configuration.

    Depths beyond the desk-scale default are refused unless
    `allow_paper_scale` is set: time and memory grow with the answers
    (NS/1t `pathleft:btree:16`, 917,506 answers: 1.7-1.8 s reported,
    218 MiB peak RSS, on one vCPU under CPython 3.11.7).
    """
    kind, d = config.kind, config.depth
    if d > DESK_DEPTHS[kind] and not allow_paper_scale:
        raise ConfigurationError(
            f"{kind.value} depth {d} exceeds the desk-scale cap "
            f"{DESK_DEPTHS[kind]}; pass --paper-scale to override")
    if kind is GraphKind.BTREE:
        top = (1 << d) - 1
        edges = []
        for i in range(1, top + 1):
            if 2 * i <= top:
                edges.append((i, 2 * i))
            if 2 * i + 1 <= top:
                edges.append((i, 2 * i + 1))
        return edges
    if kind is GraphKind.CYCLE:
        return [(i, i % d + 1) for i in range(1, d + 1)]
    if kind is GraphKind.GRID:
        def nid(r, c):
            return (r - 1) * d + c
        edges = []
        for r in range(1, d + 1):
            for c in range(1, d + 1):
                if c < d:
                    edges.append((nid(r, c), nid(r, c + 1)))
                    edges.append((nid(r, c + 1), nid(r, c)))
                if r < d:
                    edges.append((nid(r, c), nid(r + 1, c)))
                    edges.append((nid(r + 1, c), nid(r, c)))
        return edges
    # pyramid
    if d == 1:
        return []
    left_top, left_bottom = 2, d
    right_top, right_bottom = d + 1, 2 * d - 1
    edges = [(1, left_top), (1, right_top)]
    edges += [(i, i + 1) for i in range(left_top, left_bottom)]
    edges += [(i, i + 1) for i in range(right_top, right_bottom)]
    edges += [(left_bottom, right_bottom), (right_bottom, left_bottom)]
    return edges


def make_program(inst: BenchInstance, allow_paper_scale: bool = False) -> Program:
    """The two-clause path/2 program over the instance's edge facts."""
    return parse_program(program_text(inst, allow_paper_scale))


def default_query() -> Term:
    return compound("path", Var(0), Var(1))


def program_text(inst: BenchInstance, allow_paper_scale: bool = False) -> str:
    """The instance as a parseable program file, for archival and fixtures."""
    lines = [":- table path/2."]
    if inst.recursion is Recursion.LEFT:
        lines.append("path(X,Z) :- path(X,Y), edge(Y,Z).")
    else:
        lines.append("path(X,Z) :- edge(X,Y), path(Y,Z).")
    lines.append("path(X,Z) :- edge(X,Z).")
    for src, dst in gen_edges(inst.config, allow_paper_scale):
        lines.append(f"edge({src},{dst}).")
    return "\n".join(lines) + "\n"


def parse_bench_spec(spec: str) -> BenchInstance:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigurationError(
            f"bad bench spec {spec!r}; expected pathleft|pathright:kind:depth")
    rec, kind, depth = parts
    try:
        recursion = Recursion(rec)
        graph = GraphKind(kind)
        d = int(depth)
    except ValueError as exc:
        raise ConfigurationError(f"bad bench spec {spec!r}: {exc}") from None
    return BenchInstance(recursion, EdgeConfig(graph, d))


def desk_instances() -> list[BenchInstance]:
    """The eight desk-scale instances: both recursions over every family."""
    return [BenchInstance(rec, EdgeConfig(kind, DESK_DEPTHS[kind]))
            for rec in Recursion for kind in GraphKind]
