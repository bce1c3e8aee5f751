"""Workload inputs for the table-space benchmark and their reference answers.

A workload is a program text, a list of query texts, and the facts both were
made from.  `reference_answers` computes every query's answer set from those
facts without the engine: breadth-first closure for the graph workload,
a naive set-based fixpoint for query-batch.  Answers are tuples of ints and
atom names; `to_terms` turns them into the engine's term tuples.

The same (name, seed, tiny) always gives the same inputs.  `tiny` shrinks
every workload for the self-test.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from tabling import Int, atom

# query-batch shape: many components of one shape, a red ring of `size`
# nodes with three chords and one gold node; every third component also
# holds a blue path of two edges.  A bound query starts at a ring's first
# node and touches its component's tens of subgoals.  The seed picks the
# node ids and which components are queried; every query of a kind does
# the same work, so the work per pass does not depend on the seed.
_BATCH = {
    False: dict(components=150, size=12, reach=9, odd=2),
    True: dict(components=6, size=12, reach=3, odd=1),
}

_BATCH_RULES = """\
:- table reach/2.
:- table odd/2.
:- table even/2.
step(X,Y) :- blue(X,Z), blue(Z,Y).
reach(X,Y) :- red(X,Y).
reach(X,hub) :- red(X,Y), gold(Y).
reach(X,Y) :- red(X,Z), reach(Z,Y).
reach(X,Y) :- step(X,Z), reach(Z,Y).
odd(X,Y) :- blue(X,Y).
odd(X,Y) :- blue(X,Z), even(Z,Y).
even(X,Y) :- blue(X,Z), odd(Z,Y).
"""


@dataclass
class Inputs:
    text: str
    queries: list[str]
    # facts by relation name, and each query as (pred, first arg, second arg)
    # with None for a free variable
    facts: dict[str, list[tuple]]
    goals: list[tuple]


def generate(name: str, seed: int, tiny: bool = False) -> Inputs:
    if name == "btree-left":
        return _graph(_btree(5 if tiny else 10), seed)
    if name == "query-batch":
        return _query_batch(seed, **_BATCH[tiny])
    raise ValueError(f"unknown workload {name!r}")


def _btree(depth: int) -> list[tuple[int, int]]:
    top = (1 << depth) - 1
    return [(i, c) for i in range(1, top + 1) for c in (2 * i, 2 * i + 1) if c <= top]


def _graph(edges: list[tuple[int, int]], seed: int) -> Inputs:
    # the seed relabels the nodes; the graph's shape, and so the work, is fixed
    nodes = sorted({n for e in edges for n in e})
    labels = random.Random(seed).sample(range(1, len(nodes) + 1), len(nodes))
    relabel = dict(zip(nodes, labels))
    edges = [(relabel[a], relabel[b]) for a, b in edges]
    lines = [":- table path/2.", "path(X,Z) :- path(X,Y), edge(Y,Z).",
             "path(X,Z) :- edge(X,Z)."]
    lines += [f"edge({a},{b})." for a, b in edges]
    return Inputs("\n".join(lines) + "\n", ["path(X,Y)"],
                  {"edge": edges}, [("path", None, None)])


def _query_batch(seed: int, components: int, size: int, reach: int, odd: int) -> Inputs:
    rng = random.Random(seed)
    ids = rng.sample(range(1, components * size + 1), components * size)
    rings = [ids[c * size:(c + 1) * size] for c in range(components)]
    red, blues, golds = [], [], []
    for ring in rings:
        red += [(x, ring[(i + 1) % size]) for i, x in enumerate(ring)]
        red += [(ring[i], ring[(i + 5) % size]) for i in (0, 4, 8)]
        golds.append((ring[6],))
    with_blue = rings[::3]
    for ring in with_blue:
        blues += [(ring[1], ring[3]), (ring[3], ring[7])]
    plain = [r for c, r in enumerate(rings) if c % 3]
    # a third of the reach queries start in components with a blue path
    goals = [("reach", r[0], None) for r in rng.sample(with_blue, reach // 3)]
    goals += [("reach", r[0], None) for r in rng.sample(plain, reach - reach // 3)]
    goals += [("odd", r[1], None) for r in rng.sample(with_blue, odd)]
    # ground queries: true inside a component, false across two
    r1, r2 = rng.sample(plain, 2)
    goals += [("reach", r1[0], r1[5]), ("reach", r1[0], r2[0]),
              ("odd", with_blue[0][1], with_blue[0][3])]
    lines = [f"red({x},{y})." for x, y in red]
    lines += [f"blue({x},{y})." for x, y in blues]
    lines += [f"gold({x})." for (x,) in golds]
    queries = [f"{p}({x},{'Y' if y is None else y})" for p, x, y in goals]
    return Inputs(_BATCH_RULES + "\n".join(lines) + "\n", queries,
                  {"red": red, "blue": blues, "gold": golds}, goals)


# ----------------------------------------------------------------------
# reference answers


def _adjacency(pairs) -> dict:
    out: dict = {}
    for x, y in pairs:
        out.setdefault(x, set()).add(y)
    return out


def _closure(edges) -> dict:
    """Nodes reachable in one or more steps, by breadth-first search."""
    succ = _adjacency(edges)
    out = {}
    for start in succ:
        seen: set = set()
        todo = deque(succ[start])
        while todo:
            n = todo.popleft()
            if n not in seen:
                seen.add(n)
                todo.extend(succ.get(n, ()))
        out[start] = seen
    return out


def _batch_fixpoint(facts: dict) -> dict[str, dict]:
    """Naive fixpoint of the query-batch rules: re-apply every rule to the
    whole relations until nothing changes."""
    red = _adjacency(facts["red"])
    blue = _adjacency(facts["blue"])
    gold = {x for (x,) in facts["gold"]}
    step = {x: {y for z in zs for y in blue.get(z, ())} for x, zs in blue.items()}
    reach: dict = {}
    odd: dict = {}
    even: dict = {}
    changed = True
    while changed:
        changed = False
        for x in red.keys() | step.keys():
            zs = red.get(x, set())
            new = set(zs)
            if zs & gold:
                new.add("hub")
            for z in zs | step.get(x, set()):
                new |= reach.get(z, set())
            if new != reach.get(x):
                reach[x] = new
                changed = True
        for x, zs in blue.items():
            new_odd = set(zs)
            new_even = set()
            for z in zs:
                new_odd |= even.get(z, set())
                new_even |= odd.get(z, set())
            if new_odd != odd.get(x) or new_even != even.get(x, set()):
                odd[x], even[x] = new_odd, new_even
                changed = True
    return {"reach": reach, "odd": odd, "even": even}


def reference_answers(inputs: Inputs) -> list[frozenset]:
    """Each goal's answer set: the bindings of its free arguments."""
    if "edge" in inputs.facts:
        rels = {"path": _closure(inputs.facts["edge"])}
    else:
        rels = _batch_fixpoint(inputs.facts)
    out = []
    for pred, x, y in inputs.goals:
        rel = rels[pred]
        if x is None:
            out.append(frozenset((a, b) for a, bs in rel.items() for b in bs))
        elif y is None:
            out.append(frozenset((b,) for b in rel.get(x, ())))
        else:
            out.append(frozenset({()}) if y in rel.get(x, ()) else frozenset())
    return out


def to_terms(answers: frozenset) -> frozenset:
    """Reference answers in the engine's form: tuples of Int and Atom terms."""
    return frozenset(tuple(Int(v) if isinstance(v, int) else atom(v) for v in row)
                     for row in answers)
