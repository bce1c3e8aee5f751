"""Local-evaluation tabled Datalog solver and the multi-thread driver.

Every thread is the generator of all its own subgoal calls: workers share
only whatever table structures the active design designates as shared.
They wait on each other only at the table's trie write locks.

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
kept with the compiled program; a frame only checks its call's constants.
A template's body join is its kernel: Python source generated for that
clause and shape, one nested loop per body literal, with every clause
variable a local.  At its innermost point the kernel stores the answer
itself: the call shape fixes the answer's width, so the answer trie's
check/insert (`tablespace.answer_source`) is emitted there unrolled, and a
derived answer costs a call only where it adds an inner trie node or is
refused a trylock: a new leaf token is stored inline under every design, and
under FS the kernel takes and releases the lock of its parent itself.
The source holds no program text, so its compiled code is kept in a bounded
per-process cache that rebuilt programs reuse.  One unifier, `_unify`,
serves both places where two flat literals meet: a call against a callee's
head when unfolding, and a clause head against a call shape when a template
is built.

Scheduling follows classic local evaluation, kept on explicit stacks rather
than the Python call stack.  A new tabled call pushes a generator frame on
the thread's dependency stack, and `solve` pushes an `_evaluate` generator
for it on its own list.  `_evaluate` resolves each clause once by running
its kernel, whose loops run over fact rows, an index lookup or a callee's
answer log, and which yields every fresh subgoal it meets: `solve` pushes
the callee's generator and resumes the caller when that one is exhausted.
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
# SCC or have `solve` evaluate it, leave a consumer on it while it is
# incomplete, and join its whole answer log in r{i}
_CALL = """\
g = call(E, ({path},), tid)
if g.state != {complete}:
    if g.pos >= 0:
        if frame.leader > g.leader:
            frame.leader = g.leader
    else:
        yield g
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
    """A clause specialized once against one call shape: head unification
    is folded away, and the body join left is `kernel`, a generator function
    compiled from `source`.  Each body literal is one nested loop and each
    clause variable a local; constants are int literals, and the rows,
    indexes and predicates the join reads come in as closure constants, so
    the source holds no program text.  At each tabled literal i the kernel
    calls the subgoal and joins its answer log in the generated function
    r{i}; while the callee is incomplete it first leaves a consumer, which
    completion resumes in r{i} with the answers logged since.  A frame runs
    the template when its call passes `checks`: each (argument position,
    other position or -1, token) asks the call's constant there to equal its
    constant at the other position, or else the token."""

    __slots__ = ("kernel", "source", "checks")

    def __init__(self, kernel, source, checks):
        self.kernel = kernel    # (eval, frame) -> generator
        self.source = source
        self.checks = checks


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


# clauses, finished or not, that unfolding one tabled clause may make: a
# view chain unfolding into 677 clauses makes 2,325; one level more, 458,330
_UNFOLD_LIMIT = 10_000


def _unfold(program: Program) -> dict[Pred, tuple[Clause, ...]]:
    """Every tabled clause with each call of a non-tabled predicate defined
    by clauses replaced by the bodies of those clauses, and kept as one more
    variant when the predicate also has facts.  Unfolding stops at tabled
    and fact literals, so it ends unless a cycle of calls is made only of
    non-tabled predicates with clauses, which validation rejects.  Raises
    a ProgramError past `_UNFOLD_LIMIT` clauses made from one clause."""
    rules = {pred: cls for pred, cls in program.clauses.items()
             if pred not in program.tabled}

    def expand(head: Pred, cl: Clause) -> list[Clause]:
        # depth first on an explicit stack: each clause waits with the body
        # position to resume from, and its expansions are pushed in reverse
        # so that they come out in order
        out = []
        todo = [(cl, 0)]
        views: dict[Pred, None] = {}  # the predicates unfolded, in order
        made = 0
        while todo:
            made += 1
            if made > _UNFOLD_LIMIT:
                raise ProgramError(f"unfolding a clause of {pred_str(head)} made more than "
                                   f"{_UNFOLD_LIMIT} clauses; table the predicates it unfolds: "
                                   + " ".join(f":- table {pred_str(v)}." for v in views))
            cl, start = todo.pop()
            i = next((i for i in range(start, len(cl.body))
                      if cl.body[i].pred in rules), None)
            if i is None:
                out.append(cl)
                continue
            pred = cl.body[i].pred
            views[pred] = None
            merged = [(m, i) for m in (_resolve(cl, i, d) for d in rules[pred])
                      if m is not None]
            if pred in program.facts:
                merged.insert(0, (cl, i + 1))
            todo.extend(reversed(merged))
        return out

    return {pred: tuple(c for cl in cls for c in expand(pred, cl))
            for pred, cls in program.clauses.items() if pred in program.tabled}


class _Compiled:
    """A program compiled once for evaluation: fact relations, unfolded
    tabled clauses and a memo of activation templates.  Built on the
    program's first solve and cached on it until the program is edited.
    Read-only but for the memo, which single assignments fill (two threads
    may both build a template; either is complete), so every run and worker
    thread shares it.  It references no table, and no table keeps a
    reference to it: the kernels that consumers resume, which capture its
    rows, are dropped when their frames complete."""

    __slots__ = ("tabled", "rels", "clauses", "templates")

    def __init__(self, program: Program):
        self.tabled = program.tabled
        self.rels = {pred: _Rel(rows, pred[1]) for pred, rows in program.facts.items()}
        self.clauses = _unfold(program)
        # (pred, *call shape) -> one template per clause, or None
        self.templates: dict[tuple, tuple] = {}

    def activations(self, pred: Pred, args: tuple[int, ...]) -> list:
        """The template of each clause of `pred` that the call `args`
        passes, None where the head does not match it: the templates of the
        call's shape (its variables, each constant replaced by None), built
        on first use."""
        shape = (pred, *(a if a & 7 == TAG_VAR else None for a in args))
        templates = self.templates.get(shape)
        if templates is None:
            templates = self.templates[shape] = tuple(
                self._template(cl, shape[1:]) for cl in self.clauses.get(pred, ()))
        return [t if t is not None and all(args[k] == (tok if j < 0 else args[j])
                                           for k, j, tok in t.checks) else None
                for t in templates]

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
                # the variant call: unbound variables numbered in first occurrence
                call, fresh = [str(atom_tok(lit.pred[0]))], []
                for x in xs:
                    if x[0] != "(" and x not in known:
                        if x not in fresh:
                            fresh.append(x)
                        x = str(var_tok(fresh.index(x)))
                    call.append(x)
                known.update(dict.fromkeys(fresh))
                live = [x for x in before if x in later[i + 1]]
                entry = f"E = table.entries[{closure(lit.pred)}]"
                lines = _CALL.format(i=i, path=", ".join(call), complete=COMPLETE,
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
        source = _kernel_source(steps, list(fill.values()), len(consts),
                                _ANSWER.format(store=answer_source(answer)))
        # any other parameter must equal its class's constant or first parameter
        checks = tuple((k, owner.get(r, -1), r) for k, r in params if owner.get(r) != k)
        out: dict = {}
        exec(_kernel_code(source), _KERNEL_GLOBALS, out)
        return _Act(out["make"](*consts), source, checks)


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

    def solve(self, query: Term) -> tuple[SubgoalFrame, int]:
        """Evaluate `query` to completion: its frame and the length of the
        frame's answer log at completion."""
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
        return frame, len(frame.answers)

    # ------------------------------------------------------------------

    def _evaluate(self, frame: SubgoalFrame):
        """Make this thread the generator of a fresh call: push its frame,
        resolve each of its clauses once, and complete its SCC if it leads
        one, else pass its link on to the frame below it."""
        frame.pos = frame.leader = len(self.stack)
        self.stack.append(frame)
        self.consumers.append([])
        if self.trace is not None:
            self.trace(("call", frame))
        for act in self.compiled.activations(frame.pred, frame.tokens[1:]):
            if act is not None:
                yield from act.kernel(self, frame)
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
    table = Table(compiled.tabled, cfg.design, cfg.sync)
    n = cfg.threads
    results: list = [None] * n
    failures: list = []

    def work(tid: int) -> None:
        try:
            trace = trace_factory(tid) if trace_factory is not None else None
            results[tid] = _Eval(compiled, table, tid, trace).solve(query)
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
