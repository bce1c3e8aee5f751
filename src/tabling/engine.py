"""Local-evaluation tabled Datalog solver and the multi-thread driver.

Every thread is the generator of all its own subgoal calls: workers share
only whatever table structures the active design designates as shared.
They wait on each other only at the table's trie write locks and, under
FS, for another thread to log an answer it has just inserted into the
shared answer trie.

A program is compiled once, on its first solve: validation, the
per-position indexes of its fact relations and the unfolded clauses are
cached on the `Program` until it is edited, and each run builds only its
table.  Non-tabled predicates defined by rules are unfolded: each call of
one in a tabled clause is replaced by the bodies of its clauses (and kept
as a call of its facts when it also has facts), so every clause the solver
resolves is made of tabled and fact literals only.  Unfolding multiplies
clauses: a body with several such calls gets one clause per combination of
their clauses.  A clause is specialized once per call shape, the call with
its constants left open as parameter variables, into an activation template
kept with the compiled program; a frame only checks and fills in its call's
constants.  One unifier, `_unify`, serves both places where two flat
literals meet: a call against a callee's head when unfolding, and a clause
head against a call shape when a template is built.

Scheduling follows classic local evaluation, kept on explicit stacks rather
than the Python call stack.  A new tabled call pushes a generator frame on
the thread's dependency stack, and `solve` pushes an `_evaluate` generator
for it on its own list.  `_evaluate` resolves each clause once through
`_pass`, which backtracks over one row iterator per body position and
yields every fresh subgoal it meets: the driver pushes the callee's
generator and resumes the caller when that one is exhausted.  Calls that
hit an in-progress frame link strongly connected components by propagating
the smallest depth-first number.  When a leader's initial pass returns, the
SCC is driven to fixpoint by derivation rounds and then completed as a
whole.  Answers found mid-clause are stored and the resolution keeps
backtracking (`new_answer` always "fails"); answers cross a frame boundary
outward only after the frame's SCC is complete, and the engine asserts that
discipline on every consumption.  The Python stack stays a few frames deep
however long the chain of dependent calls, so evaluation changes no
interpreter setting.

Fixpoint rounds are delta-driven: each frame's answer log is consumed
through per-round watermarks, token offsets into the flat log, so a round
only re-joins answers that arrived since the previous round.  A round ends
the SCC when no member's log grew past the watermark the round started from
and no frame was pushed.  This one test serves every design: an answer new
to a frame is appended to a log, and an FS answer another thread logged
first is either below the watermark, so already consumed, or above it, so
the log grew.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from operator import itemgetter

from .buckets import MAX_THREADS
from .errors import ConfigurationError, EvaluationError, ProgramError
from .program import Clause, Literal, Pred, Program, literal_of, pred_str
from .tablespace import COMPLETE, CountersSnapshot, Design, SubgoalFrame, Table
from .terms import TAG_VAR, TRUE_TOK, Term, atom_tok, var_tok
from .trie import SyncMode


@dataclass
class EvalConfig:
    design: Design
    sync: SyncMode = SyncMode.TRYLOCK
    threads: int = 1

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
    """One body literal under a clause activation.  The body order fixes
    which slots hold a value when resolution reaches the literal, so its
    call pattern or fact lookup is built once: a row only binds `binds` and
    passes `checks`, and backtracking never has to unbind.  A tabled
    literal reads its callee's flat answer log `width` tokens per row: a
    width-1 log one token at a time, a wider one regrouped into tuples."""

    __slots__ = ("binds", "pred", "call", "width", "rows", "index", "key", "checks")

    def __init__(self, binds, pred=None, call=None, width=0, rows=None, index=None,
                 key=None, checks=()):
        self.binds = binds      # ((slot, row position), ...) bound by this literal
        self.pred = pred        # tabled: its predicate; None for facts
        self.call = call        # tabled: env -> the call's token path
        self.width = width      # tabled: tokens per answer in the callee's log; facts: 0
        self.rows = rows        # facts: candidate rows, or None to look up
        self.index = index      # ... as index.get(env[key])
        self.key = key
        self.checks = checks    # facts: ((row position, slot), ...) to match


def _getter(slots):
    """The function from an environment to its values at `slots`, a tuple."""
    if len(slots) == 1:
        s = slots[0]
        return lambda env: (env[s],)
    return itemgetter(*slots)


class _Act:
    """A clause specialized against one call shape: head unification is
    folded into an environment whose slots hold constants and unbound
    variables, leaving only body iteration at run time.  A template, built
    once per shape, leaves a slot to `fill` with each call constant it reads
    and `checks` what its head asks of the others; a frame's activation is
    the template with its call's constants filled in."""

    __slots__ = ("body", "extract", "env", "fill", "checks")

    def __init__(self, body, extract, env, fill=(), checks=()):
        self.body = body
        self.extract = extract  # env -> the answer's token path
        self.env = env
        self.fill = fill        # ((argument position, slot), ...)
        self.checks = checks    # ((argument position, slot), ...) to match once filled


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


def _walk(subst: dict[int, int], t: int) -> int:
    """The token a variable is bound to through `subst`: a constant, or the
    representative variable of its class; a constant is its own value."""
    while t in subst:
        t = subst[t]
    return t


def _unify(xs: tuple[int, ...], ys: tuple[int, ...]) -> dict[int, int] | None:
    """The most general unifier of two flat argument tuples whose variables
    are kept apart, as a substitution to read through `_walk`; None when
    they do not unify.  The one unifier of unfolding and activation."""
    subst: dict[int, int] = {}
    for a, b in zip(xs, ys):
        a, b = _walk(subst, a), _walk(subst, b)
        if a == b:
            continue
        if a & 7 == TAG_VAR:
            subst[a] = b
        elif b & 7 == TAG_VAR:
            subst[b] = a
        else:
            return None
    return subst


def _resolve(cl: Clause, i: int, d: Clause) -> Clause | None:
    """Replace body literal `i` of `cl` by the body of `d`, unified with
    d's head; None when the literal and the head do not unify."""
    n = cl.nvars

    def shift(lit: Literal) -> Literal:  # rename d's variables apart
        return Literal(lit.pred, tuple(a + (n << 3) if a & 7 == TAG_VAR else a
                                       for a in lit.args))

    subst = _unify(cl.body[i].args, shift(d.head).args)
    if subst is None:
        return None
    renum: dict[int, int] = {}  # first occurrence over head then body

    def rebuild(lit: Literal) -> Literal:
        args = []
        for t in lit.args:
            t = _walk(subst, t)
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

    def expand(cl: Clause) -> list[Clause]:
        # depth first on an explicit stack: each clause waits with the body
        # position to resume from, and its expansions are pushed in reverse
        # so that they come out in order
        out = []
        todo = [(cl, 0)]
        while todo:
            cl, start = todo.pop()
            i = next((i for i in range(start, len(cl.body))
                      if cl.body[i].pred in rules), None)
            if i is None:
                out.append(cl)
                continue
            pred = cl.body[i].pred
            merged = [(m, i) for m in (_resolve(cl, i, d) for d in rules[pred])
                      if m is not None]
            if pred in program.facts:
                merged.insert(0, (cl, i + 1))
            todo.extend(reversed(merged))
        return out

    return {pred: tuple(c for cl in cls for c in expand(cl))
            for pred, cls in program.clauses.items() if pred in program.tabled}


class _Compiled:
    """A program compiled once for evaluation: fact relations, unfolded
    tabled clauses, the tabled-literal positions used by delta rounds, and
    a memo of activation templates.  Built on the program's first solve and
    cached on it until the program is edited.  Read-only but for the memo,
    which single assignments fill (two threads may both build a template;
    either is complete), so every run and worker thread shares it.  It
    references no table, and no table keeps a reference to it: the
    activations that hold its rows are dropped when their frame completes."""

    __slots__ = ("tabled", "rels", "clauses", "delta_clauses", "templates")

    def __init__(self, program: Program):
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
        # (pred, *call shape) -> one template per clause, or None
        self.templates: dict[tuple, tuple] = {}

    def activations(self, pred: Pred, args: tuple[int, ...]) -> list:
        """The activation of each clause of `pred` for the call `args`, None
        where the head does not match it: the templates of the call's shape
        (its variables, each constant replaced by None), built on first use,
        with the call's constants checked and filled in."""
        shape = (pred, *(a if a & 7 == TAG_VAR else None for a in args))
        templates = self.templates.get(shape)
        if templates is None:
            templates = self.templates[shape] = tuple(
                self._template(cl, shape[1:]) for cl in self.clauses.get(pred, ()))
        acts = []
        for t in templates:
            if t is not None and t.fill:
                env = t.env.copy()
                for k, s in t.fill:
                    env[s] = args[k]
                t = _Act(t.body, t.extract, env, checks=t.checks)
            acts.append(None if t is None or any(args[k] != t.env[s] for k, s in t.checks)
                        else t)
        return acts

    def _template(self, clause: Clause, shape: tuple):
        # the call's variables are numbered after the clause's, and its
        # constant at position k is the parameter variable numbered k after those
        shift = clause.nvars << 3
        first = clause.nvars + len(shape)
        args = tuple(var_tok(first + k) if a is None else a + shift
                     for k, a in enumerate(shape))
        subst = _unify(clause.head.args, args)
        if subst is None:
            return None
        # each parameter's class, and the first parameter of a variable class,
        # whose value the class takes
        params = [(k, _walk(subst, p)) for k, p in enumerate(args) if shape[k] is None]
        owner = {r: k for k, r in reversed(params) if r & 7 == TAG_VAR}

        # the template: a constant, None for a variable, or a variable token
        # in a slot that a frame fills with one of its call's constants
        env: list = []
        const_slots: dict[int, int] = {}
        var_slots: dict[int, int] = {}

        def const(tok):
            s = const_slots.get(tok)
            if s is None:
                s = const_slots[tok] = len(env)
                env.append(tok)
            return s

        def slot(t):
            # a constant, or the slot of its variable's representative
            t = _walk(subst, t)
            if t & 7 != TAG_VAR:
                return const(t)
            s = var_slots.get(t)
            if s is None:
                s = var_slots[t] = len(env)
                env.append(t if t in owner else None)
            return s

        bound: set[int] = set()  # variable slots an earlier literal binds

        def known(s):
            return s in bound or env[s] is not None

        body = []
        for lit in clause.body:
            slots = [slot(a) for a in lit.args]
            binds: list[tuple[int, int]] = []
            if lit.pred in self.tabled:
                # the variant call: unbound variables numbered in first occurrence
                call = [const(atom_tok(lit.pred[0]))]
                fresh: dict[int, int] = {}
                for s in slots:
                    if not known(s):
                        j = fresh.get(s)
                        if j is None:
                            j = fresh[s] = len(fresh)
                            binds.append((s, j))
                        s = const(var_tok(j))
                    call.append(s)
                # the callee's log width: see tablespace.answer_width
                body.append(_Lit(tuple(binds), lit.pred, _getter(call), len(fresh) or 1))
            else:
                rel = self.rels.get(lit.pred)
                # look rows up by the first constant, else the first bound variable
                known_at = sorted((k for k, s in enumerate(slots) if known(s)),
                                  key=lambda k: env[slots[k]] is None)
                key_at = known_at[0] if known_at else None
                checks = []
                for k, s in enumerate(slots):
                    if k == key_at:
                        continue
                    if known(s):
                        checks.append((k, s))
                    else:
                        binds.append((s, k))
                        bound.add(s)
                rows, index, key = (), None, None
                if rel is not None:
                    rows = rel.rows
                    if key_at is not None:
                        key = slots[key_at]
                        if env[key] is None or env[key] & 7 == TAG_VAR:
                            rows, index = None, rel.index[key_at]  # a call constant
                        else:
                            rows = rel.index[key_at].get(env[key], ())
                body.append(_Lit(tuple(binds), rows=rows, index=index, key=key,
                                 checks=tuple(checks)))
            bound.update(slots)
        # the answer: the values of the call's variables, in their order
        extract = [slot(v + shift) for v in sorted({a for a in shape if a is not None})] \
            or [const(TRUE_TOK)]
        # any other parameter must equal its class's constant or first parameter
        checks = tuple((k, slot(r)) for k, r in params if owner.get(r) != k)
        fill = tuple((owner[r], s) for r, s in var_slots.items() if r in owner)
        return _Act(tuple(body), _getter(extract), env, fill, checks)


def _compile(program: Program) -> _Compiled:
    """The program's compiled form, validating and building it on first
    use.  Two threads that solve one program at once may both build it;
    either result is complete when the single assignment publishes it."""
    compiled = program.compiled
    if compiled is None:
        program.validate()  # a failure is not cached: every call raises
        compiled = program.compiled = _Compiled(program)
    return compiled


class _Eval:
    """One thread's evaluation state: dependency stack and dfn counter."""

    def __init__(self, compiled: _Compiled, table: Table, tid: int, trace=None,
                 max_rounds=None):
        self.compiled = compiled
        self.table = table
        self.tid = tid
        self.trace = trace
        self.max_rounds = max_rounds
        self.stack: list[SubgoalFrame] = []
        self.next_dfn = 0

    # ------------------------------------------------------------------

    def solve(self, query: Term) -> frozenset:
        lit = literal_of(query, {})
        if lit.pred not in self.compiled.tabled:
            raise ProgramError(f"query predicate {pred_str(lit.pred)} is not tabled")
        table = self.table
        frame = table.subgoal_call(table.entries[lit.pred],
                                   (atom_tok(lit.pred[0]),) + lit.args, self.tid)
        # one generator per fresh call on the dependency stack; the top one
        # runs until it yields a fresh callee, pushed above it, or finishes
        gens = [self._evaluate(frame)]
        while gens:
            callee = next(gens[-1], None)
            if callee is None:
                gens.pop()
            else:
                gens.append(self._evaluate(callee))
        return frozenset(table.answers_of(frame))

    # ------------------------------------------------------------------

    def _evaluate(self, frame: SubgoalFrame):
        """Make this thread the generator of a fresh call: push its frame,
        resolve each of its clauses once, and complete its SCC if it leads
        one, else pass its link on to the frame below it."""
        frame.dfn = frame.leader_dfn = self.next_dfn
        self.next_dfn += 1
        frame.stack_pos = len(self.stack)
        frame.on_stack = True
        self.stack.append(frame)
        if self.trace is not None:
            self.trace(("call", frame))
        frame.acts = self.compiled.activations(frame.pred, frame.tokens[1:])
        for act in frame.acts:
            if act is not None:
                yield from self._pass(frame, act, -1, None)
        if frame.leader_dfn == frame.dfn and (yield from self._complete_scc(frame)):
            return
        if frame.stack_pos > 0:
            parent = self.stack[frame.stack_pos - 1]
            if parent.leader_dfn > frame.leader_dfn:
                parent.leader_dfn = frame.leader_dfn

    def _complete_scc(self, leader: SubgoalFrame):
        """Run delta rounds over the SCC led by `leader`; complete and pop it.

        Returns False when a round links the SCC to an older frame, in
        which case completion is left to the real leader further down.
        """
        stack = self.stack
        compiled = self.compiled
        base = leader.stack_pos
        consumed: dict[SubgoalFrame, int] = {}
        rounds = 0
        while True:
            rounds += 1
            if self.max_rounds is not None and rounds > self.max_rounds:
                raise EvaluationError(f"SCC fixpoint exceeded {self.max_rounds} rounds")
            members = stack[base:]
            windows = {f: (consumed.get(f, 0), len(f.answers)) for f in members}
            for f in members:
                for ci, positions in compiled.delta_clauses.get(f.pred, ()):
                    act = f.acts[ci]
                    if act is None:
                        continue
                    for p in positions:
                        yield from self._pass(f, act, p, windows)
            for f in members:
                consumed[f] = windows[f][1]
            if leader.leader_dfn != leader.dfn:
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
        return True

    def _pass(self, frame: SubgoalFrame, act: _Act, dpos: int, windows):
        """Resolve one activation of `frame` by backtracking over one row
        iterator per body position, storing every solution as an answer.  A
        tabled literal that meets a fresh subgoal yields it and resumes once
        it has been evaluated.  At body position `dpos` a tabled literal
        reads only the answers inside its callee's window of the round."""
        table = self.table
        trace = self.trace
        body = act.body
        n = len(body)
        env = act.env.copy()
        its: list = [None] * n
        i = 0
        while True:
            if i < n:
                lit = body[i]
                if lit.pred is None:
                    rows = lit.rows
                    if rows is None:
                        rows = lit.index.get(env[lit.key], ())
                else:
                    g = table.subgoal_call(table.entries[lit.pred], lit.call(env), self.tid)
                    if g.state != COMPLETE:
                        if g.on_stack:
                            # in-progress call by this thread: link the SCCs
                            if frame.leader_dfn > g.leader_dfn:
                                frame.leader_dfn = g.leader_dfn
                        else:
                            yield g
                            if g.state != COMPLETE and not g.on_stack:
                                raise EvaluationError(
                                    "local-evaluation violation: consuming an incomplete "
                                    "frame outside the dependency stack")
                    if trace is not None:
                        trace(("consume", g, g.state, g.on_stack))
                    if i != dpos:
                        rows = g.answers
                    else:
                        win = windows.get(g)
                        # a completed callee has nothing new at this position
                        rows = () if win is None else g.answers[win[0]:win[1]]
                    if lit.width > 1:
                        rows = zip(*[iter(rows)] * lit.width)
                its[i] = iter(rows)
            else:
                was_new = table.new_answer_tokens(frame, act.extract(env))
                # local evaluation: the derivation "fails" and resolution
                # backtracks; fixpoint detection reads the answer logs, not
                # this flag
                if trace is not None:
                    trace(("new_answer", frame, was_new))
                i -= 1
            # advance the deepest open position, backtracking past exhausted ones
            while i >= 0:
                lit = body[i]
                if lit.width == 1:
                    # a width-1 answer log: each entry is the one token bound
                    for tok in its[i]:
                        for s, _ in lit.binds:
                            env[s] = tok
                        break
                    else:
                        i -= 1
                        continue
                    break
                for row in its[i]:
                    for s, k in lit.binds:
                        env[s] = row[k]
                    if not lit.checks or all(row[k] == env[s] for k, s in lit.checks):
                        break
                else:
                    i -= 1
                    continue
                break
            else:
                return
            i += 1


# ----------------------------------------------------------------------


def solve_parallel(program: Program, query: Term, cfg: EvalConfig, trace_factory=None,
                   max_rounds=None, release: bool = True) -> ParallelResult:
    """Run cfg.threads workers, all evaluating the same query.

    Returns every thread's answer set, a counter snapshot and the wall time
    around the workers' lifetime.  Worker errors are re-raised after all
    workers have been joined.
    """
    compiled = _compile(program)
    cfg.validate()
    table = Table(compiled.tabled, cfg.design, cfg.sync)
    n = cfg.threads
    results: list = [None] * n
    failures: list = []

    def work(tid: int) -> None:
        try:
            trace = trace_factory(tid) if trace_factory is not None else None
            results[tid] = _Eval(compiled, table, tid, trace, max_rounds).solve(query)
        except BaseException as exc:  # propagated after join
            failures.append((tid, exc))

    workers = [threading.Thread(target=work, args=(tid,), name=f"tab-{tid}")
               for tid in range(n)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if failures:
        tid, exc = failures[0]
        raise exc
    if release:
        for tid in range(n):
            table.release_thread(tid)
    return ParallelResult(results, table.snapshot_counters(), wall_ms, table)
