"""Local-evaluation tabled Datalog solver and the multi-thread driver.

Every thread is the generator of all its own subgoal calls: workers share
only whatever table structures the active design designates as shared.
They wait on each other only at the table's trie write locks, at the lock
of the table's allocation counters, and, under FS, for another thread to
log an answer it has just inserted into the shared answer trie.

Non-tabled predicates defined by rules are unfolded at compile time: each
call of one in a tabled clause is replaced by the bodies of its clauses
(and kept as a call of its facts when it also has facts), so every clause
the solver resolves is made of tabled and fact literals only.  Unfolding
multiplies clauses: a body with several such calls gets one clause per
combination of their clauses.

Scheduling follows classic local evaluation.  A new tabled call pushes a
generator frame on the thread's dependency stack and resolves its clauses
once; calls that hit an in-progress frame link strongly connected
components by propagating the smallest depth-first number.  When a leader's
initial pass returns, the SCC is driven to fixpoint by derivation rounds
and then completed as a whole.  Answers found mid-clause are stored and the
resolution keeps backtracking (`new_answer` always "fails"); answers cross
a frame boundary outward only after the frame's SCC is complete, and the
engine asserts that discipline on every consumption.

Fixpoint rounds are delta-driven: each frame's answer log is consumed
through per-round watermarks, so a round only re-joins answers that arrived
since the previous round.  A round ends the SCC when no member's log grew
past the watermark the round started from and no frame was pushed.  This
one test serves every design: an answer new to a frame is appended to a
log, and an FS answer another thread logged first is either below the
watermark, so already consumed, or above it, so the log grew.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .buckets import MAX_THREADS
from .errors import ConfigurationError, EvaluationError, ProgramError
from .program import Clause, Literal, Pred, Program, literal_of, pred_str
from .tablespace import COMPLETE, CountersSnapshot, Design, SubgoalFrame, Table
from .terms import TAG_VAR, TRUE_TOK, Term, atom_tok, var_tok
from .trie import SyncMode

_WORKER_STACK = 64 * 1024 * 1024
_RECURSION_LIMIT = 200_000
# CPython preempts CPU-bound threads every 5ms by default, which thrashes
# multi-worker runs; a longer quantum keeps lock handoffs (which release the
# GIL) intact while cutting switch overhead severalfold
_SWITCH_INTERVAL = 0.05


@dataclass
class EvalConfig:
    design: Design
    sync: SyncMode = SyncMode.TRYLOCK
    threads: int = 1
    query: Term | None = None

    def validate(self) -> None:
        if self.threads < 1 or self.threads > MAX_THREADS:
            raise ConfigurationError(f"thread count must be in 1..{MAX_THREADS}")
        if self.design is not Design.NS and self.sync is SyncMode.NONE:
            raise ConfigurationError(
                f"design {self.design.value} shares tries and needs lock or trylock")


@dataclass
class ParallelResult:
    answer_sets: list[frozenset]
    counters: CountersSnapshot
    wall_ms: float
    table: Table


class _Lit:
    """One body literal under a clause activation: ordered arg specs plus
    split-out constant and slot positions for matching."""

    __slots__ = ("pred", "specs", "consts", "svars", "tabled", "head_tok")

    def __init__(self, pred, specs, consts, svars, tabled):
        self.pred = pred
        self.specs = specs      # ordered: (False, value tok) | (True, slot)
        self.consts = consts    # ((argpos, value tok), ...)
        self.svars = svars      # ((argpos, slot), ...)
        self.tabled = tabled    # else resolved against the fact rows
        self.head_tok = atom_tok(pred[0])


class _Act:
    """A clause specialized against one subgoal: head unification is folded
    into slot assignments, leaving only body iteration at run time."""

    __slots__ = ("body", "extract", "nslots")

    def __init__(self, body, extract, nslots):
        self.body = body
        self.extract = extract  # per subgoal var: (False, value tok) | (True, slot)
        self.nslots = nslots


class _Rel:
    """Ground rows of one predicate with per-position lookup indices."""

    __slots__ = ("rows", "index")

    def __init__(self, rows, arity):
        self.rows = tuple(rows)
        self.index = []
        for pos in range(arity):
            d: dict[int, list] = {}
            for row in self.rows:
                d.setdefault(row[pos], []).append(row)
            self.index.append({k: tuple(v) for k, v in d.items()})


def _resolve(cl: Clause, i: int, d: Clause) -> Clause | None:
    """Replace body literal `i` of `cl` by the body of `d`, unified with
    d's head; None when the literal and the head do not unify."""
    n = cl.nvars

    def shift(lit: Literal) -> Literal:  # rename d's variables apart
        return Literal(lit.pred, tuple(var_tok((a >> 3) + n) if a & 7 == TAG_VAR
                                       else a for a in lit.args))

    subst: dict[int, int] = {}

    def walk(t: int) -> int:
        while t in subst:
            t = subst[t]
        return t

    for a, b in zip(cl.body[i].args, shift(d.head).args):
        a, b = walk(a), walk(b)
        if a == b:
            continue
        if a & 7 == TAG_VAR:
            subst[a] = b
        elif b & 7 == TAG_VAR:
            subst[b] = a
        else:
            return None
    renum: dict[int, int] = {}  # first occurrence over head then body

    def rebuild(lit: Literal) -> Literal:
        args = []
        for t in lit.args:
            t = walk(t)
            if t & 7 == TAG_VAR:
                t = renum.setdefault(t, var_tok(len(renum)))
            args.append(t)
        return Literal(lit.pred, tuple(args))

    head = rebuild(cl.head)
    body = cl.body[:i] + tuple(shift(lit) for lit in d.body) + cl.body[i + 1:]
    return Clause(head, tuple(rebuild(lit) for lit in body), len(renum))


def _unfold(program: Program) -> dict[Pred, tuple[Clause, ...]]:
    """Every tabled clause with each call of a non-tabled predicate defined
    by clauses replaced by the bodies of those clauses, and kept as one more
    variant when the predicate also has facts.  Terminates because
    validation rejects recursion through non-tabled predicates."""
    rules = {pred: cls for pred, cls in program.clauses.items()
             if pred not in program.tabled}

    def expand(cl: Clause, start: int):
        for i in range(start, len(cl.body)):
            defs = rules.get(cl.body[i].pred)
            if defs is None:
                continue
            if cl.body[i].pred in program.facts:
                yield from expand(cl, i + 1)
            for d in defs:
                merged = _resolve(cl, i, d)
                if merged is not None:
                    yield from expand(merged, i)
            return
        yield cl

    return {pred: tuple(c for cl in cls for c in expand(cl, 0))
            for pred, cls in program.clauses.items() if pred in program.tabled}


class _Context:
    """Per-run immutable compilation of a program: fact relations, unfolded
    tabled clauses, and the tabled-literal positions used by delta rounds.
    Shared read-only across worker threads."""

    def __init__(self, program: Program, table: Table):
        self.table = table
        self.tabled = program.tabled
        self.rels = {pred: _Rel(rows, pred[1]) for pred, rows in program.facts.items()}
        self.clauses = _unfold(program)
        self.delta_clauses: dict[Pred, tuple] = {}
        for pred, cls in self.clauses.items():
            entries = []
            for ci, cl in enumerate(cls):
                positions = tuple(i for i, lit in enumerate(cl.body)
                                  if lit.pred in self.tabled)
                if positions:
                    entries.append((ci, positions))
            self.delta_clauses[pred] = tuple(entries)


class _Eval:
    """One thread's evaluation state: dependency stack and dfn counter."""

    def __init__(self, ctx: _Context, tid: int, trace=None, max_rounds=None):
        self.ctx = ctx
        self.table = ctx.table
        self.tid = tid
        self.trace = trace
        self.max_rounds = max_rounds
        self.stack: list[SubgoalFrame] = []
        self.next_dfn = 0
        self.delta_pos = -1
        self.windows: dict[SubgoalFrame, tuple[int, int]] = {}

    # ------------------------------------------------------------------

    def solve(self, query: Term) -> frozenset:
        lit = literal_of(query, {})
        if lit.pred not in self.ctx.tabled:
            raise ProgramError(f"query predicate {pred_str(lit.pred)} is not tabled")
        frame = self._call(None, lit.pred, (atom_tok(lit.pred[0]),) + lit.args)
        return frozenset(self.table.answers_of(frame))

    # ------------------------------------------------------------------

    def _call(self, caller: SubgoalFrame | None, pred: Pred, toks) -> SubgoalFrame:
        table = self.table
        frame = table.subgoal_call(table.entries[pred], toks, self.tid)
        if frame.state == COMPLETE:
            return frame
        if frame.on_stack:
            # in-progress call by this thread: link the caller's SCC to it
            if caller is not None and caller.leader_dfn > frame.leader_dfn:
                caller.leader_dfn = frame.leader_dfn
            return frame
        # fresh call: this thread becomes its generator
        frame.dfn = frame.leader_dfn = self.next_dfn
        self.next_dfn += 1
        frame.stack_pos = len(self.stack)
        frame.on_stack = True
        self.stack.append(frame)
        if self.trace is not None:
            self.trace(("call", frame))
        self._initial_pass(frame)
        completed = frame.leader_dfn == frame.dfn and self._complete_scc(frame)
        if not completed and frame.stack_pos > 0:
            parent = self.stack[frame.stack_pos - 1]
            if parent.leader_dfn > frame.leader_dfn:
                parent.leader_dfn = frame.leader_dfn
        return frame

    def _initial_pass(self, frame: SubgoalFrame) -> None:
        saved = self.delta_pos
        self.delta_pos = -1
        for ci in range(len(self.ctx.clauses.get(frame.pred, ()))):
            act = self._activation(frame, ci)
            if act is not None:
                self._body(frame, act, 0, [None] * act.nslots)
        self.delta_pos = saved

    def _complete_scc(self, leader: SubgoalFrame) -> bool:
        """Run delta rounds over the SCC led by `leader`; complete and pop it.

        Returns False when a round links the SCC to an older frame, in
        which case completion is left to the real leader further down.
        """
        stack = self.stack
        ctx = self.ctx
        base = leader.stack_pos
        consumed: dict[SubgoalFrame, int] = {}
        saved_pos, saved_windows = self.delta_pos, self.windows
        rounds = 0
        while True:
            rounds += 1
            if self.max_rounds is not None and rounds > self.max_rounds:
                raise EvaluationError(f"SCC fixpoint exceeded {self.max_rounds} rounds")
            members = stack[base:]
            windows = {}
            for f in members:
                windows[f] = (consumed.get(f, 0), len(f.answers))
            self.windows = windows
            for f in members:
                entries = ctx.delta_clauses.get(f.pred, ())
                for ci, positions in entries:
                    act = self._activation(f, ci)
                    if act is None:
                        continue
                    for p in positions:
                        self.delta_pos = p
                        self._body(f, act, 0, [None] * act.nslots)
            self.delta_pos = -1
            for f in members:
                consumed[f] = windows[f][1]
            if leader.leader_dfn != leader.dfn:
                self.delta_pos, self.windows = saved_pos, saved_windows
                return False
            progress = (len(stack) > base + len(members)
                        or any(len(f.answers) > windows[f][1] for f in members))
            if not progress:
                break
        scc = stack[base:]
        self.table.mark_complete(scc)
        for f in scc:
            f.on_stack = False
            f.acts = None  # a complete frame is never resolved again
        del stack[base:]
        if self.trace is not None:
            self.trace(("complete", tuple(scc)))
        self.delta_pos, self.windows = saved_pos, saved_windows
        return True

    # ------------------------------------------------------------------
    # clause activation

    def _activation(self, frame: SubgoalFrame, ci: int):
        acts = frame.acts
        if acts is None:
            acts = frame.acts = [False] * len(self.ctx.clauses[frame.pred])
        act = acts[ci]
        if act is not False:
            return act
        act = self._make_activation(frame, self.ctx.clauses[frame.pred][ci])
        acts[ci] = act
        return act

    def _make_activation(self, frame: SubgoalFrame, clause: Clause):
        sub_args = frame.tokens[1:]
        nvars = clause.nvars
        nsub = 0
        for a in sub_args:
            if a & 7 == TAG_VAR:
                nsub = max(nsub, (a >> 3) + 1)
        parent = list(range(nvars + nsub))
        value: list[int | None] = [None] * (nvars + nsub)

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def bind(x, tok):
            r = find(x)
            if value[r] is None:
                value[r] = tok
                return True
            return value[r] == tok

        for h, s in zip(clause.head.args, sub_args):
            hv = h & 7 == TAG_VAR
            sv = s & 7 == TAG_VAR
            if hv and sv:
                rh, rs = find(h >> 3), find(nvars + (s >> 3))
                if rh != rs:
                    if value[rh] is not None and value[rs] is not None \
                            and value[rh] != value[rs]:
                        return None
                    parent[rs] = rh
                    if value[rh] is None:
                        value[rh] = value[rs]
            elif hv:
                if not bind(h >> 3, s):
                    return None
            elif sv:
                if not bind(nvars + (s >> 3), h):
                    return None
            elif h != s:
                return None

        slots: dict[int, int] = {}

        def resolve(x):
            r = find(x)
            v = value[r]
            if v is not None:
                return (False, v)
            slot = slots.get(r)
            if slot is None:
                slot = slots[r] = len(slots)
            return (True, slot)

        ctx = self.ctx
        body = []
        for lit in clause.body:
            specs = tuple(resolve(a >> 3) if a & 7 == TAG_VAR else (False, a)
                          for a in lit.args)
            consts = tuple((i, p) for i, (is_slot, p) in enumerate(specs) if not is_slot)
            svars = tuple((i, p) for i, (is_slot, p) in enumerate(specs) if is_slot)
            body.append(_Lit(lit.pred, specs, consts, svars, lit.pred in ctx.tabled))
        extract = tuple(resolve(nvars + j) for j in range(nsub))
        return _Act(tuple(body), extract, len(slots))

    # ------------------------------------------------------------------
    # body resolution

    def _body(self, frame: SubgoalFrame, act: _Act, i: int, env: list) -> None:
        if i == len(act.body):
            self._derive(frame, act, env)
            return
        lit = act.body[i]
        if lit.tabled:
            self._tabled_lit(frame, act, i, env, lit)
        else:
            self._fact_lit(frame, act, i, env, lit)

    def _derive(self, frame: SubgoalFrame, act: _Act, env: list) -> None:
        ans = tuple(env[p] if is_slot else p for is_slot, p in act.extract)
        was_new = self.table.new_answer_tokens(frame, ans if ans else (TRUE_TOK,))
        # local evaluation: the derivation "fails" and resolution backtracks;
        # fixpoint detection reads the answer logs, not this flag
        if self.trace is not None:
            self.trace(("new_answer", frame, was_new))

    def _tabled_lit(self, frame, act, i, env, lit) -> None:
        toks = [lit.head_tok]
        var_of_slot: dict[int, int] = {}
        unbound: list[tuple[int, int]] = []  # (slot, position in answer tuple)
        for is_slot, p in lit.specs:
            if not is_slot:
                toks.append(p)
                continue
            v = env[p]
            if v is not None:
                toks.append(v)
                continue
            j = var_of_slot.get(p)
            if j is None:
                j = len(var_of_slot)
                var_of_slot[p] = j
                unbound.append((p, j))
            toks.append(var_tok(j))
        g = self._call(frame, lit.pred, tuple(toks))
        if g.state != COMPLETE and not g.on_stack:
            raise EvaluationError(
                "local-evaluation violation: consuming an incomplete frame "
                "outside the dependency stack")
        if self.trace is not None:
            self.trace(("consume", g, g.state, g.on_stack))
        if i == self.delta_pos:
            win = self.windows.get(g)
            if win is None:
                return  # completed frame: nothing is new at this position
            answers = g.answers[win[0]:win[1]]
        else:
            answers = g.answers
        nxt = i + 1
        if not unbound:
            # fully bound call: each stored answer is one proof of it
            for ans in answers:
                self._body(frame, act, nxt, env)
            return
        for ans in answers:
            for slot, j in unbound:
                env[slot] = ans[j]
            self._body(frame, act, nxt, env)
        for slot, _ in unbound:
            env[slot] = None

    def _fact_lit(self, frame, act, i, env, lit) -> None:
        rel = self.ctx.rels.get(lit.pred)
        if rel is None:
            return
        rows = None
        if lit.consts:
            pos, val = lit.consts[0]
            rows = rel.index[pos].get(val)
            if rows is None:
                return
        else:
            for pos, slot in lit.svars:
                v = env[slot]
                if v is not None:
                    rows = rel.index[pos].get(v)
                    if rows is None:
                        return
                    break
        if rows is None:
            rows = rel.rows
        nxt = i + 1
        for row in rows:
            written = self._bind_row(lit, row, env)
            if written is not None:
                self._body(frame, act, nxt, env)
                for slot in written:
                    env[slot] = None

    @staticmethod
    def _bind_row(lit: _Lit, row, env) -> list | None:
        written: list[int] = []
        for pos, val in lit.consts:
            if row[pos] != val:
                return None
        for pos, slot in lit.svars:
            v = env[slot]
            if v is None:
                env[slot] = row[pos]
                written.append(slot)
            elif v != row[pos]:
                for s in written:
                    env[s] = None
                return None
        return written


# ----------------------------------------------------------------------


def _prepare(program: Program, cfg: EvalConfig, table: Table | None) -> _Context:
    program.validate()
    cfg.validate()
    if table is None:
        table = Table(program.tabled, cfg.design, cfg.sync)
    return _Context(program, table)


@contextmanager
def _deep_recursion():
    """Raise the interpreter's recursion limit for one evaluation and put it
    back afterwards; running out of it becomes an EvaluationError."""
    old = sys.getrecursionlimit()
    limit = max(old, _RECURSION_LIMIT)
    sys.setrecursionlimit(limit)
    try:
        yield
    except RecursionError:
        raise EvaluationError(
            f"evaluation exceeded the recursion limit of {limit} frames: "
            "each nested tabled call takes several, so a chain of dependent "
            "calls this deep cannot be evaluated") from None
    finally:
        sys.setrecursionlimit(old)


def solve_thread(program: Program, query: Term, tid: int = 0,
                 cfg: EvalConfig | None = None, table: Table | None = None,
                 trace=None, max_rounds=None) -> frozenset:
    """Evaluate the query on one thread; returns its answer set."""
    if cfg is None:
        cfg = EvalConfig(design=table.design if table is not None else Design.NS,
                         sync=table.answer_mode if table is not None
                         and table.design is Design.FS else SyncMode.TRYLOCK)
    ctx = _prepare(program, cfg, table)
    with _deep_recursion():
        return _Eval(ctx, tid, trace, max_rounds).solve(query)


def solve_parallel(program: Program, query: Term | None = None,
                   cfg: EvalConfig | None = None, trace_factory=None,
                   max_rounds=None, release: bool = True) -> ParallelResult:
    """Run cfg.threads workers, all evaluating the same query.

    Returns every thread's answer set, a counter snapshot and the wall time
    around the workers' lifetime.  Worker errors are re-raised after all
    workers have been joined.
    """
    if cfg is None:
        raise ConfigurationError("solve_parallel needs an EvalConfig")
    if query is None:
        query = cfg.query
    if query is None:
        raise ConfigurationError("no query given")
    ctx = _prepare(program, cfg, None)
    n = cfg.threads
    results: list = [None] * n
    failures: list = []

    def work(tid: int) -> None:
        trace = trace_factory(tid) if trace_factory is not None else None
        try:
            results[tid] = _Eval(ctx, tid, trace, max_rounds).solve(query)
        except BaseException as exc:  # propagated after join
            failures.append((tid, exc))

    old_stack = threading.stack_size()
    old_interval = sys.getswitchinterval()
    try:
        threading.stack_size(_WORKER_STACK)
    except (ValueError, RuntimeError):
        pass
    if n > 1:
        sys.setswitchinterval(_SWITCH_INTERVAL)
    with _deep_recursion():
        try:
            workers = [threading.Thread(target=work, args=(tid,), name=f"tab-{tid}")
                       for tid in range(n)]
            t0 = time.perf_counter()
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            wall_ms = (time.perf_counter() - t0) * 1000.0
        finally:
            sys.setswitchinterval(old_interval)
            try:
                threading.stack_size(old_stack)
            except (ValueError, RuntimeError):
                pass
        if failures:
            tid, exc = failures[0]
            raise exc
    if release:
        for tid in range(n):
            ctx.table.release_thread(tid)
    return ParallelResult(results, ctx.table.snapshot_counters(), wall_ms, ctx.table)
