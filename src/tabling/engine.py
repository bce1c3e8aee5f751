"""Local-evaluation tabled Datalog solver and the multi-thread driver.

Every thread is the generator of all its own subgoal calls: workers share
only whatever table structures the active design designates as shared.
They wait on each other only at the table's trie write locks.

A program is compiled once, on its first solve: validation, the
per-position indexes of its fact relations and the tabled clauses are
cached on the `Program` until it is edited, and each run builds only its
table.  A view, a non-tabled predicate defined by rules, is never
unfolded.  One that reaches a tabled predicate, directly or through other
views, is tabled as well, and its facts become bodyless clauses.  Every
other view reads only facts, so compilation solves its open call once, on
a private NS table, into one more fact relation.  So every clause the
solver resolves is made of tabled and fact literals only.  A call shape
is the call with its constants left open as parameter variables, and each
has one activation kept with the compiled program, built on its first
call: a kernel per clause whose head unifies with the shape.  A kernel is
Python source generated for that clause and shape, one nested loop per
body literal, with every clause variable a local; its first lines check
what the head asks of the call's constants (equal to a head constant, or
to each other).  A tabled literal's shape is
fixed when its caller's kernel is built, so the kernel carries the callee's
activation and a new frame reads its kernels with no analysis at run time.
At its innermost point the kernel stores the answer itself: the call shape
fixes the answer's width, so the answer trie's check/insert
(`tablespace.answer_source`) is emitted there unrolled, and a derived
answer costs a call only where it adds an inner trie node or is refused a
trylock: a new leaf token is stored inline under every design, and under FS
the kernel takes and releases the lock of its parent itself.  The source
holds no program text, so its compiled code is kept in a bounded
per-process cache that rebuilt programs reuse.  `_unify` meets a clause
head with a call shape when a kernel is built.

Scheduling follows classic local evaluation, kept on explicit stacks rather
than the Python call stack.  A new tabled call pushes a generator frame on
the thread's dependency stack, and `solve` pushes an `_evaluate` generator
for it on its own list.  `_evaluate` resolves each clause once by running
its kernel, whose loops run over fact rows, an index lookup or a callee's
answer log, and which yields every fresh subgoal it meets with the
callee's activation: `solve` pushes the callee's generator and resumes the
caller when that one is exhausted.
Calls that hit a frame on the stack link strongly connected components by
propagating the lowest stack slot reached: SCCs pop as suffixes, so slot
order is call order.  When a leader's initial pass returns, the SCC is
driven to fixpoint by completion rounds and then completed as a whole.
Answers found mid-clause are stored and the resolution keeps backtracking
(`new_answer` always "fails"); answers cross a frame boundary outward only
after the frame's SCC is complete, and the engine asserts that discipline on
every consumption.  The Python stack stays a few frames deep however long
the chain of dependent calls, so evaluation changes no interpreter setting.

The fixpoint is driven by consumers, as in YapTab's local scheduling.  A
kernel that reads an incomplete callee's answer log first leaves a consumer
on it, in the thread's `consumers` at the callee's slot: the log offset at
the read, the generated function that joins the callee's answers with the
rest of the clause, the consuming frame and the locals bound so far.  A
completion round resumes every consumer on a member whose log has grown past
its offset, with the answers logged since, and moves the offset to the log's
end.  No clause is re-run up to the call, so a round calls a subgoal only
for a binding that one of the answers it joins brings.  A round that resumes
no consumer completes the SCC, and completion drops its members' consumers.
Every consumer sits in its callee's SCC, and logs only grow, so this one
test serves every design: an answer new to a frame is appended to a log, and
an FS answer that another thread logs after a consumer's read lies past its
offset.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass

from .buckets import MAX_THREADS
from .errors import ConfigurationError, EvaluationError, ProgramError
from .program import Clause, Literal, Pred, Program, literal_of, pred_str
from .tablespace import (ANSWER_GLOBALS, ANSWER_SETUP, COMPLETE, CountersSnapshot, Design,
                         SubgoalFrame, Table, answer_source)
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


@dataclass
class ParallelResult:
    """Each thread's answer set, one frozenset per distinct answer log, so
    threads may share one object; `wall_ms` covers the workers and the
    building of their answer sets."""

    answer_sets: list[frozenset]
    counters: CountersSnapshot
    wall_ms: float
    table: Table


# the innermost point before tabled literal {i}: call the subgoal, link its
# SCC or have `solve` evaluate it by {act}, the activation of the call's
# shape, leave a consumer on it while it is incomplete, and join its whole
# answer log in r{i}
_CALL = """\
g = call(E, ({path},), tid)
if g.state != {complete}:
    if g.pos >= 0:
        if frame.leader > g.leader:
            frame.leader = g.leader
    else:
        yield g, {act}
        if g.state != {complete} and g.pos < 0:
            raise violation()
if trace is not None:
    trace((CONSUME, g, g.state, g.pos >= 0))
rows = g.answers
if g.state != {complete}:
    consumers[g.pos].append([len(rows), r{i}, frame, ({live})])
yield from r{i}(ev, frame, rows{args})"""

# the innermost point: store the answer and fail, so resolution backtracks;
# fixpoint detection reads the answer logs, not whether it was new
_ANSWER = """\
{store}
if trace is not None:
    trace((NEW_ANSWER, frame, new))"""


def _violation():
    return EvaluationError("local-evaluation violation: consuming an incomplete "
                           "frame outside the dependency stack")


_KERNEL_GLOBALS = {"violation": _violation, "CONSUME": "consume", "NEW_ANSWER": "new_answer",
                   **ANSWER_GLOBALS}
_LOOPS = 16  # loops per generated function; CPython nests at most 20 blocks


@functools.lru_cache(maxsize=1024)
def _kernel_code(source: str):
    """A kernel source's code, shared by every template and program build
    that generates that source; each template binds its own constants."""
    return compile(source, "<kernel>", "exec")


def _kernel_source(steps, fill, nconsts, answer) -> str:
    """The source of `make(C0, C1, ...)`, which returns a template's kernel
    `k0(ev, frame)`, the body's join from its first literal.  Each tabled
    literal i starts one more function, `r{i}(ev, frame, rows, *live)`,
    which joins `rows`, answers of the callee, with the rest of the body;
    `live` are the locals bound before the literal that the rest reads.
    k0 and each r{i} run to the next tabled literal's call, or to the
    answer.  The function that reaches the answer reads the locals of
    `ANSWER_SETUP` and the thread's tally as it starts, raising if the frame
    is complete, and stores each answer by the code of `answer_source`.
    No function nests more than _LOOPS loops: a longer run delegates from
    its innermost point to one more function `k{n}(ev, frame, *live)`."""
    src = [f"def make({', '.join(f'C{j}' for j in range(nconsts))}):"]

    def emit(depth, text):
        src.extend("    " * depth + line for line in text.splitlines())

    def live(i):
        return "".join(f", {x}" for x in steps[i][0])

    bounds = [0] + [i for i, step in enumerate(steps) if step[1]] + [len(steps)]
    helpers = 0
    for seg, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        run = range(lo, hi)
        chunks = [run[c:c + _LOOPS] for c in range(0, len(run), _LOOPS)] or [run]
        for c, chunk in enumerate(chunks):
            if c:
                emit(1, f"def k{helpers}(ev, frame{live(chunk[0])}):")
            elif seg:
                emit(1, f"def r{lo}(ev, frame, rows{live(lo)}):")
            else:
                emit(1, "def k0(ev, frame):")
                emit(2, "\n".join(fill))
            last = c + 1 == len(chunks)
            if last and hi < len(steps):
                emit(2, f"table = ev.table\n{steps[hi][1]}\ncall = table.subgoal_call\n"
                        "tid = ev.tid\nconsumers = ev.consumers\ntrace = ev.trace")
            elif last:
                emit(2, f"table = ev.table\n{ANSWER_SETUP}\ntally = ev.tally\ntrace = ev.trace")
            depth = 2
            for i in chunk:
                emit(depth, steps[i][3])
                depth += 1
            if not last:
                helpers += 1
                emit(depth, f"yield from k{helpers}(ev, frame{live(chunks[c + 1][0])})")
            elif hi < len(steps):
                emit(depth, steps[hi][2])
            else:
                emit(depth, answer)
                emit(2, "return\nyield")  # a generator function all the same
    emit(1, "return k0")
    return "\n".join(src) + "\n"


class _Act:
    """The activation of one call shape: `kernels`, the generator functions
    `(eval, frame)` of the clauses whose heads unify with the shape, in
    clause order, and their `sources`; both None until the shape is first
    called.  A kernel is its clause specialized against the shape: head
    unification is folded away, and what is left is the body join, one
    nested loop per body literal and each clause variable a local, after
    first lines that return unless the call's constants are what the head
    asks (equal to a head constant, or to each other).  Constants are int
    literals, and the rows, indexes, predicates and callee activations the
    join reads come in as closure constants, so the source holds no program
    text.  At each tabled literal i the kernel calls the subgoal and joins
    its answer log in the generated function r{i}; while the callee is
    incomplete it first leaves a consumer, which completion resumes in r{i}
    with the answers logged since."""

    __slots__ = ("shape", "kernels", "sources")

    def __init__(self, shape):
        self.shape = shape      # (pred, None or the variable, per argument)
        self.kernels = None
        self.sources = None


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
    they do not unify."""
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


class _Compiled:
    """A program compiled once for evaluation: fact relations, the clauses
    of each tabled predicate and the activation of each call shape met so
    far.  A view, a predicate with clauses that is not declared tabled, is
    tabled here too when it reaches a tabled predicate, directly or through
    other views, and its facts become bodyless clauses.  Every other view
    reads only facts and such views, so it is solved here, once, into a
    fact relation.  Built on the program's first solve and cached on it
    until the program is edited.  Every run and worker thread shares it: it
    is read-only but for the activations, and `setdefault` gives each shape
    one, so every kernel that calls the shape carries the same one, which a
    single assignment fills (two threads may both build its kernels; either
    result is complete).  It references no table, and no table keeps a
    reference to it: the kernels that consumers resume, which capture its
    rows, are dropped when their frames complete."""

    __slots__ = ("tabled", "rels", "clauses", "templates")

    def __init__(self, program: Program):
        # the views that call each predicate, to walk up from the tabled ones
        callers: dict[Pred, list[Pred]] = {}
        for pred, cls in program.clauses.items():
            if pred not in program.tabled:
                for cl in cls:
                    for lit in cl.body:
                        callers.setdefault(lit.pred, []).append(pred)
        tabled = set(program.tabled)
        todo = list(tabled)
        while todo:
            for view in callers.pop(todo.pop(), ()):
                if view not in tabled:
                    tabled.add(view)
                    todo.append(view)
        views = [pred for pred in program.clauses if pred not in tabled]
        self.clauses = {pred: (*program.clauses.get(pred, ()),
                               *(Clause(Literal(pred, row), (), 0)
                                 for row in program.facts.get(pred, ())))
                        for pred in (*tabled, *views)}
        self.rels = {pred: _Rel(rows, pred[1]) for pred, rows in program.facts.items()
                     if pred not in self.clauses}
        self.templates: dict[tuple, _Act] = {}  # call shape -> its activation
        if views:
            self.tabled = frozenset(views)  # while they are solved
            self._solve(views)
        self.tabled = frozenset(tabled)

    def _solve(self, views: list[Pred]) -> None:
        """Solve each view's open call on one private NS table and keep its
        answers as the view's fact relation.  The activations built meanwhile
        call views as tabled predicates, so they are dropped."""
        ev = _Eval(self, Table(views, Design.NS), 0)
        for pred in views:
            log = ev.solve(Literal(pred, tuple(map(var_tok, range(pred[1])))))[0].answers
            rows = zip(*[iter(log)] * pred[1]) if pred[1] else [()] * bool(log)
            self.rels[pred] = _Rel(rows, pred[1])
        self.templates.clear()

    def act(self, shape: tuple) -> _Act:
        """The one activation of `shape`: the predicate, then per argument
        None for a constant or the call's variable."""
        return self.templates.setdefault(shape, _Act(shape))

    def build(self, act: _Act) -> tuple:
        """Build and return the kernels of `act`."""
        made = [t for t in (self._template(cl, act.shape[1:])
                            for cl in self.clauses.get(act.shape[0], ())) if t is not None]
        act.sources = tuple(source for _, source in made)
        act.kernels = kernels = tuple(kernel for kernel, _ in made)
        return kernels

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
        names: dict[int, str] = {}  # a variable's local in the kernel
        known: dict[str, None] = {}  # the locals bound where the code has got to
        fill: dict[str, str] = {}   # each local of a call constant: the line reading it
        consts: list = []           # the closure constants C0, C1, ...

        def ref(t):
            # a constant as an int literal, else its variable's local
            t = _walk(subst, t)
            if t & 7 != TAG_VAR:
                return f"({t})"
            name = names.get(t)
            if name is None:
                name = names[t] = f"v{len(names)}"
                if t in owner:
                    fill[name] = f"{name} = frame.tokens[{owner[t] + 1}]"
                    known[name] = None
            return name

        def closure(obj):
            consts.append(obj)
            return f"C{len(consts) - 1}"

        # the answer: the values of the call's variables, in their order
        answer = [ref(v + shift) for v in sorted({a for a in shape if a is not None})] \
            or [str(TRUE_TOK)]
        # naming every variable first reads each call constant up front
        args_of = [[ref(a) for a in lit.args] for lit in clause.body]
        # later[i]: the locals read by body literal i or after it, or by the answer
        later = [set(answer)]
        for xs in reversed(args_of):
            later.append(later[-1] | set(xs))
        later.reverse()
        # per body literal: the locals bound before it that the code from its
        # loop on reads, its table entry line and call lines if it is
        # tabled, and its loop
        steps = []
        for i, (lit, xs) in enumerate(zip(clause.body, args_of)):
            before = list(known)
            if lit.pred in self.tabled:
                # the variant call: unbound variables numbered in first
                # occurrence, and its shape
                call, fresh, callee = [str(atom_tok(lit.pred[0]))], [], [lit.pred]
                for x in xs:
                    tok = None
                    if x[0] != "(" and x not in known:
                        if x not in fresh:
                            fresh.append(x)
                        tok = var_tok(fresh.index(x))
                        x = str(tok)
                    call.append(x)
                    callee.append(tok)
                known.update(dict.fromkeys(fresh))
                live = [x for x in before if x in later[i + 1]]
                entry = f"E = table.entries[{closure(lit.pred)}]"
                lines = _CALL.format(i=i, path=", ".join(call), complete=COMPLETE,
                                     act=closure(self.act(tuple(callee))),
                                     live="".join(f"{x}, " for x in live),
                                     args="".join(f", {x}" for x in live))
                if len(fresh) > 1:  # the callee's log: see tablespace.answer_width
                    its = ", ".join(["it"] * len(fresh))
                    loop = f"it = iter(rows)\nfor {', '.join(fresh)} in zip({its}):"
                else:
                    loop = f"for {fresh[0] if fresh else '_'} in rows:"
            else:
                live = [x for x in before if x in later[i]]
                rel = self.rels.get(lit.pred)
                # look rows up by the first constant, of the program or the
                # call, else the first bound variable
                key_at = min((k for k, x in enumerate(xs) if x[0] == "(" or x in known),
                             key=lambda k: (xs[k][0] != "(" and xs[k] not in fill, k),
                             default=None)
                targets, tests = [], []
                for k, x in enumerate(xs):
                    if k == key_at:
                        targets.append("_")
                    elif x[0] == "(" or x in known:
                        targets.append(f"x{k}")
                        tests.append(f"x{k} != {x}")
                    else:
                        targets.append(x)
                        known[x] = None
                if rel is None:
                    rows = "()"
                elif key_at is None:
                    rows = closure(rel.rows)
                elif xs[key_at][0] == "(":
                    rows = closure(rel.index[key_at].get(_walk(subst, lit.args[key_at]), ()))
                else:
                    rows = f"{closure(rel.index[key_at])}.get({xs[key_at]}, ())"
                entry = lines = ""
                loop = f"for {', '.join(targets) or '_'}{',' * bool(targets)} in {rows}:"
                if tests:
                    loop += f"\n    if {' or '.join(tests)}:\n        continue"
            steps.append((live, entry, lines, loop))
        # any other parameter must equal its class's constant or first parameter
        checks = [f"frame.tokens[{k + 1}] != "
                  + (f"({r})" if r not in owner else f"frame.tokens[{owner[r] + 1}]")
                  for k, r in params if owner.get(r) != k]
        guard = [f"if {' or '.join(checks)}:\n    return"] if checks else []
        source = _kernel_source(steps, guard + list(fill.values()), len(consts),
                                _ANSWER.format(store=answer_source(answer)))
        out: dict = {}
        exec(_kernel_code(source), _KERNEL_GLOBALS, out)
        return out["make"](*consts), source


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
    """One thread's evaluation state: the dependency stack and, slot for
    slot, the consumers left on each frame on it."""

    def __init__(self, compiled: _Compiled, table: Table, tid: int, trace=None):
        self.compiled = compiled
        self.table = table
        self.tid = tid
        self.trace = trace
        self.tally = table.tally(tid)  # what its kernels add to the table
        self.stack: list[SubgoalFrame] = []
        # per slot: [log offset read up to, r{i}, consumer frame, live locals]
        self.consumers: list[list[list]] = []

    # ------------------------------------------------------------------

    def solve(self, lit: Literal) -> tuple[SubgoalFrame, int]:
        """Evaluate the tabled call `lit`, in variant form, to completion:
        its frame and the length of the frame's answer log at completion.
        A frame complete already is returned as it is."""
        table = self.table
        frame = table.subgoal_call(table.entries[lit.pred],
                                   (atom_tok(lit.pred[0]),) + lit.args, self.tid)
        if frame.state == COMPLETE:
            return frame, len(frame.answers)
        act = self.compiled.act((lit.pred, *(a if a & 7 == TAG_VAR else None
                                              for a in lit.args)))
        # one generator per fresh call on the dependency stack; the top one
        # runs until it yields a fresh callee and its activation, pushed
        # above it, or finishes
        gens = [self._evaluate(frame, act)]
        while gens:
            callee = next(gens[-1], None)
            if callee is None:
                gens.pop()
            else:
                gens.append(self._evaluate(*callee))
        return frame, len(frame.answers)

    # ------------------------------------------------------------------

    def _evaluate(self, frame: SubgoalFrame, act: _Act):
        """Make this thread the generator of a fresh call: push its frame,
        resolve each clause of its activation `act` once, and complete its
        SCC if it leads one, else pass its link on to the frame below it."""
        frame.pos = frame.leader = len(self.stack)
        self.stack.append(frame)
        self.consumers.append([])
        if self.trace is not None:
            self.trace(("call", frame))
        kernels = act.kernels
        if kernels is None:
            kernels = self.compiled.build(act)
        for kernel in kernels:
            yield from kernel(self, frame)
        if frame.leader == frame.pos:
            yield from self._complete_scc(frame)
        if frame.pos >= 0:  # linked below its own slot, so not at slot 0
            parent = self.stack[frame.pos - 1]
            if parent.leader > frame.leader:
                parent.leader = frame.leader

    def _complete_scc(self, leader: SubgoalFrame):
        """Resume the consumers of the SCC led by `leader` in rounds until
        none has an answer left to join; complete and pop the SCC.  A round
        that links the SCC to an older frame leaves it on the stack, for the
        real leader further down to complete.  Only a round that joined
        answers logged past a consumer's offset is followed by another, and
        logs only grow, so there are at most as many rounds as answers + 1."""
        stack = self.stack
        consumers = self.consumers
        trace = self.trace
        base = leader.pos
        while True:
            consumed = False
            for g, on_g in zip(stack[base:], consumers[base:]):
                # a resumption may leave more consumers on g; they come last
                for c in on_g:
                    end = len(g.answers)
                    if c[0] < end:
                        rows = g.answers[c[0]:end]
                        c[0] = end
                        consumed = True
                        if trace is not None:
                            trace(("consume", g, g.state, g.pos >= 0))
                        yield from c[1](self, c[2], rows, *c[3])
            # a round may link any member, not only the leader, to an older frame
            leader.leader = min(f.leader for f in stack[base:])
            if leader.leader != base:
                return
            if not consumed:  # nothing ran, so nothing was pushed either
                break
        scc = stack[base:]
        self.table.mark_complete(scc)
        for f in scc:
            f.pos = -1
        del stack[base:]
        del consumers[base:]
        if trace is not None:
            trace(("complete", tuple(scc)))


# ----------------------------------------------------------------------


def solve_parallel(program: Program, query: Term, cfg: EvalConfig, trace_factory=None,
                   release: bool = True) -> ParallelResult:
    """Run cfg.threads workers, all evaluating the same query.  One worker
    evaluates in the caller's thread; more each get a fresh thread.

    Returns every thread's answer set, a counter snapshot and the wall time
    of the workers and the decoding of their answers.  Every solve of a
    validated program ends, so no round limit is taken.  Worker errors are
    re-raised after all workers have been joined.  Answers are decoded once
    per distinct log, after the join; a log that grew after its frame
    completed raises, since that frame's set would have been short.
    """
    compiled = _compile(program)
    cfg.validate()
    lit = literal_of(query, {})
    if lit.pred not in program.tabled:  # a view tabled by compilation too
        raise ProgramError(f"query predicate {pred_str(lit.pred)} is not tabled")
    table = Table(compiled.tabled, cfg.design, cfg.sync)
    n = cfg.threads
    results: list = [None] * n
    failures: list = []

    def work(tid: int) -> None:
        try:
            trace = trace_factory(tid) if trace_factory is not None else None
            results[tid] = _Eval(compiled, table, tid, trace).solve(lit)
        except BaseException as exc:  # propagated after join
            failures.append(exc)

    workers = [threading.Thread(target=work, args=(tid,), name=f"tab-{tid}")
               for tid in range(n)] if n > 1 else []
    t0 = time.perf_counter()
    if not workers:
        work(0)
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    if failures:
        raise failures[0]
    decoded: list = []  # (log, its answer set)
    for tid, (frame, end) in enumerate(results):
        log = frame.answers
        if len(log) != end:
            raise EvaluationError(f"thread {tid}: the answer log grew after its frame completed")
        answers = next((a for other, a in decoded if other is log or other == log), None)
        if answers is None:
            answers = frozenset(table.answers_of(frame))
            decoded.append((log, answers))
        results[tid] = answers
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if release:
        for tid in range(n):
            table.release_thread(tid)
    return ParallelResult(results, table.snapshot_counters(), wall_ms, table)
