"""The table space: table entries, subgoal tries, frames, and the three designs.

NS (No-Sharing)      - every thread gets private subgoal tries, frames and
                       answer tries; the table entry holds a bucket array of
                       per-thread subgoal-trie roots.
SS (Subgoal-Sharing) - one shared subgoal trie; each leaf carries a bucket
                       array of per-thread frames, each with a private
                       answer trie.
FS (Full-Sharing)    - one shared subgoal trie; each leaf carries a shared
                       subgoal entry holding the single shared answer trie
                       and a bucket array of per-thread frames.

Every call reaches the table space as tokens: a subgoal path is the
predicate's atom token followed by the call's argument tokens, variables
numbered in first-occurrence order, and an answer path is the tokens of the
values bound to those variables, or TRUE_TOK for a call without variables.
Each table entry has its own trie roots, so the leading token does not need
to tell predicates apart.

An answer log is one flat list of tokens per frame, under FS per subgoal
entry: each new answer is appended with a single `list.extend` of its path,
so a log of a call with `width` distinct variables holds `width` tokens per
answer (width 1 and the lone TRUE_TOK for a variable-free call) and no
object per answer.  Under the GIL one `extend` from a tuple is atomic, so a
reader on another thread sees a log length that is always a whole number of
answers, never part of one.  The check/insert of an answer is source text,
`answer_source`, unrolled over the answer's width: the engine's join kernels
emit it where they derive an answer, and `Table.new_answer_tokens` runs the
same text compiled once per width.  Under FS that text also takes the lock
of a new answer's leaf and logs the answer under it, so a new answer costs a
Python call under no design unless it adds an inner trie node or is refused
a trylock.

Structure allocations are tallied per kind so the per-design memory laws
can be checked as exact counts.  Each thread id has its own `_Tally`, which
only that thread writes, and a snapshot sums them; NS thus takes no lock
shared between threads, and SS and FS lock only their tries.  Trie root
nodes are anchors owned by their enclosing structure and are not tallied;
the laws are unaffected because the convention is applied uniformly.
"""

from __future__ import annotations

import functools
import textwrap

# unused here, but tablebench/tracer.py reads and swaps this module's
# `threading` to count the locks the table space makes
import threading  # noqa: F401
from collections import defaultdict
from dataclasses import asdict, dataclass
from enum import Enum

from . import trie
from .buckets import BucketArray
from .errors import EvaluationError
from .terms import TAG_VAR, Term, Token, TokenSeq, decode_answers
from .trie import SyncMode, TrieNode, link_child

EVALUATING = 0
COMPLETE = 1


class Design(Enum):
    NS = "ns"
    SS = "ss"
    FS = "fs"


@dataclass(frozen=True)
class CountersSnapshot:
    te: int
    ba: int
    sts: int
    sf: int
    se: int
    ats: int

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def answer_width(call: TokenSeq) -> int:
    """Tokens per answer in the log of the subgoal path `call`: its number
    of distinct variables, or 1 for the TRUE_TOK of a variable-free call."""
    return len({t for t in call if t & 7 == TAG_VAR}) or 1


def _completed():
    return EvaluationError("new_answer on a completed subgoal")


# the names the code of `answer_source` reads besides its locals
ANSWER_GLOBALS = {"completed": _completed, "link_child": link_child,
                  "insert_shared": trie.insert_shared, "retry_leaf": trie.retry_leaf}

# the locals the code of `answer_source` reads from `frame` and `table`,
# set once before the answers of one run into `frame`, which must still be
# evaluating; `tally`, the storing thread's `_Tally`, is the caller's to set
ANSWER_SETUP = f"""\
if frame.state != {EVALUATING}:
    raise completed()
root = frame.answer_root
log = frame.answers
locks = table.answer_locks
blocking = table.blocking"""

# one inner token of an answer path: look without a lock and without a
# call, in the index or else along the chain; link a missing token at once
# in a trie the thread owns, else insert it under the parent's lock
_INNER = """\
index = node.index
if index is not None:
    child = index.get({tok})
else:
    child = node.first_child
    while child is not None and child.token != {tok}:
        child = child.sibling
if child is None:
    if locks is None:
        child = link_child(node, {tok}, index)
        tally.ats += 1
    else:
        child, made = insert_shared(node, {tok}, locks, blocking)
        tally.ats += made
node = child"""

# the last token: look in the leaf container of the node above it, and on
# a miss log the answer before the token goes in, so a thread that finds
# the token finds the answer logged.  A shared container is written under
# the lock `trie.insert_shared` would take for its node, after a look again,
# and the lock is released however that ends; only a refused trylock makes
# a call, `trie.retry_leaf`, which yields and looks again until it finds
# the token or takes the lock
_LEAF = """\
leaves = node.payload
new = leaves is None or {tok} not in leaves
if new:
    if locks is None:
        log.extend({path})
{owned}
    else:
        lock = locks[hash(node) % len(locks)]
        new = lock.acquire(blocking) or retry_leaf(node, {tok}, lock)
        if new:
            try:
                leaves = node.payload
                new = leaves is None or {tok} not in leaves
                if new:
                    log.extend({path})
{shared}
            finally:
                lock.release()
    tally.ats += new"""


def answer_source(path: list[str]) -> str:
    """The check/insert of one answer whose tokens are the Python
    expressions `path`, unrolled over its width: it walks the answer trie
    at `root`, logs the answer in `log` if it is new, and sets `new` to
    whether it was.  A trie that `locks` is None for is the storing
    thread's own; a shared one is written only under its locks, each taken
    to look again before a write: by `trie.insert_shared` for an inner
    node, and for a leaf token by this code itself, which grows the
    container by `trie.add_leaf_source` either way.  A new answer thus
    costs a call only for an inner node it adds or a trylock it is refused.
    Each node and leaf token added is counted in `tally.ats`.  The join
    kernels emit this after `ANSWER_SETUP`, and `Table.new_answer_tokens`
    runs it compiled once per width."""
    tup = f"({', '.join(path)},)"
    add = trie.add_leaf_source(path[-1])
    return "\n".join(["node = root", *(_INNER.format(tok=t) for t in path[:-1]),
                      _LEAF.format(tok=path[-1], path=tup, owned=textwrap.indent(add, " " * 8),
                                   shared=textwrap.indent(add, " " * 20))])


@functools.lru_cache(maxsize=64)
def _new_answer(width: int):
    """`Table.new_answer_tokens` for answers of `width` tokens."""
    path = [f"t{i}" for i in range(width)]
    body = "\n".join([ANSWER_SETUP, "tally = table.tally(frame.tid)",
                      f"{', '.join(path)}, = toks", answer_source(path), "return new"])
    out: dict = {}
    exec(compile("def new_answer(table, frame, toks):\n" + textwrap.indent(body, "    "),
                 "<new_answer>", "exec"), ANSWER_GLOBALS, out)
    return out["new_answer"]


class _Tally:
    """One thread's allocation counts.  Only that thread writes them, and
    nothing is ever subtracted: structures a finished thread drops stay
    counted, so a snapshot reads the total allocated over the table's life."""

    __slots__ = ("ba", "sts", "sf", "se", "ats")

    def __init__(self):
        self.ba = self.sts = self.sf = self.se = self.ats = 0


class SubgoalFrame:
    """Per-thread control record for one subgoal call.

    NS/SS frames own a private answer trie and answer log.  FS frames point
    `answer_root` and `answers` at their subgoal entry's shared trie and log,
    and hold no answer state of their own: an answer is new to an FS frame
    only when it is new to the shared table, and that newness only feeds
    tracing, since the engine ends a fixpoint by watching the answer log
    alone.  The log is flat, `answer_width(tokens)` tokens per answer, and
    each answer enters it by one `list.extend`, atomic under the GIL, so a
    reader never sees part of an answer; the frame keeps no width of its own.

    `pos` is the frame's slot on its thread's dependency stack, -1 off it,
    and `leader` the lowest slot its SCC reaches; the engine sets both.
    """

    __slots__ = ("tokens", "tid", "state", "entry", "answer_root", "answers", "pos", "leader")

    def __init__(self, tokens, tid, entry=None):
        self.tokens = tokens
        self.tid = tid
        self.state = EVALUATING
        self.entry: SubgoalEntry | None = entry
        if entry is None:
            self.answer_root: TrieNode = trie.new_root()
            self.answers: list[Token] = []
        else:
            self.answer_root = entry.answer_root
            self.answers = entry.answers
        self.pos = self.leader = -1


class SubgoalEntry:
    """FS-only shared record for one subgoal call: the shared answer trie,
    its arrival-ordered flat answer log, and the bucket array of per-thread
    frames.  The thread that links the subgoal-trie leaf makes the entry
    while it holds the lock of the leaf's parent, and the leaf is linked
    with the entry already in its payload, so every thread that reaches the
    leaf finds this one entry.  Every thread's frame reads this one log, so
    an answer is new at most once table-wide, whichever thread derives it
    first.  The thread that adds an answer's leaf token extends the log
    first, while it holds the lock of the token's parent, in the code that
    `answer_source` emits, so a leaf any thread finds is already logged.  A
    thread that derives an answer already in the trie finds it by an
    unlocked walk and takes no lock at all.
    Readers take no lock: each answer goes in by one `list.extend`, which the
    GIL makes atomic, so a reader on any thread sees whole answers only."""

    __slots__ = ("answer_root", "answers", "frames")

    def __init__(self):
        self.answer_root = trie.new_root()
        self.answers: list[Token] = []
        self.frames = BucketArray()


class TableEntry:
    """One per tabled predicate; every call enters the table space here."""

    __slots__ = ("roots", "root")

    def __init__(self, design: Design):
        if design is Design.NS:
            self.roots = BucketArray()
            self.root = None
        else:
            self.roots = None
            self.root = trie.new_root()


class Table:
    """A table space with a fixed design and lock mode for one engine run."""

    def __init__(self, tabled_preds, design: Design,
                 sync: SyncMode = SyncMode.TRYLOCK):
        self.design = design
        # the write locks of the shared tries, None for tries a thread owns:
        # NS shares none, SS its subgoal tries and FS its answer tries too
        self.locks = None if design is Design.NS else trie.new_locks()
        self.answer_locks = self.locks if design is Design.FS else None
        self.blocking = sync is SyncMode.LOCK
        self.entries: dict = {pred: TableEntry(design) for pred in tabled_preds}
        # each thread's allocation counts, made on its first subgoal call
        self._tallies: defaultdict[int, _Tally] = defaultdict(_Tally)

    def tally(self, tid: int) -> _Tally:
        """Thread `tid`'s allocation counts, which only that thread writes."""
        return self._tallies[tid]

    # ------------------------------------------------------------------
    # tabled subgoal call

    def subgoal_call(self, te: TableEntry, toks: TokenSeq, tid: int) -> SubgoalFrame:
        """Resolve the design-appropriate root, check/insert the subgoal path,
        and get-or-create this thread's frame at the leaf.  Idempotent per
        (subgoal, thread).  A shared leaf is linked with its payload, so the
        call that links it counts that payload."""
        tally = self._tallies[tid]
        if self.design is Design.NS:  # private leaf -> this thread's frame
            root, _, made_level = te.roots.get_or_create(tid, trie.new_root)
            leaf, created, made = trie.check_insert_path_counted(root, toks)
            tally.ba += made_level
            tally.sts += created
            if made:
                leaf.payload = SubgoalFrame(toks, tid)
                tally.sf += 1
            return leaf.payload
        ss = self.design is Design.SS
        leaf, created, made = trie.check_insert_path_counted(
            te.root, toks, self.locks, self.blocking, BucketArray if ss else SubgoalEntry)
        tally.sts += created
        tally.ba += made
        if ss:  # leaf -> bucket array of frames
            entry, cells = None, leaf.payload
        else:  # FS: leaf -> subgoal entry -> its bucket array of frames
            entry = leaf.payload
            cells = entry.frames
            tally.se += made
        frame, made_frame, made_level = cells.get_or_create(
            tid, lambda: SubgoalFrame(toks, tid, entry))
        tally.ba += made_level
        tally.sf += made_frame
        return frame

    # ------------------------------------------------------------------
    # answers

    def new_answer_tokens(self, frame: SubgoalFrame, toks: TokenSeq) -> bool:
        """Check/insert one answer and log it if new; returns whether it was
        new to the frame's answer trie, under FS the shared one.

        The join kernels do not call this: each stores its answers by the
        same check/insert, emitted into its own source by `answer_source`.
        This runs that code compiled once per answer width, for callers
        outside a kernel.  The caller's resolution must keep backtracking
        regardless of the result; the return value only feeds tracing.
        Fixpoint detection watches the answer logs instead.
        """
        return _new_answer(len(toks))(self, frame, toks)

    def mark_complete(self, frames) -> None:
        for frame in frames:
            if frame.state == COMPLETE:
                raise EvaluationError("subgoal completed twice")
            frame.state = COMPLETE

    def answers_of(self, frame: SubgoalFrame) -> list[tuple[Term, ...]]:
        """Decode the answer log of a completed frame as term tuples.

        At completion the log holds every leaf of the answer trie once.
        Under FS the engine calls this after joining every thread, on the
        one log all their frames share: at each frame's completion its
        thread had derived every answer itself and logged it, or found its
        leaf, which another thread adds only after logging the answer, so
        no answer remained to be appended.  `solve_parallel` holds it to
        that: a log longer than it was at any of its frames' completion
        raises.  The result may include answers derived by other threads,
        which is the same set by definition.
        """
        if frame.state != COMPLETE:
            raise EvaluationError("answers_of on an incomplete subgoal")
        return decode_answers(frame.answers, answer_width(frame.tokens))

    # ------------------------------------------------------------------
    # accounting

    def snapshot_counters(self) -> CountersSnapshot:
        """The allocation totals: every thread's tally, plus one table entry
        per tabled predicate and, under NS, the entry's bucket array."""
        tallies = list(self._tallies.values())
        te = len(self.entries)
        return CountersSnapshot(
            te=te,
            ba=(te if self.design is Design.NS else 0) + sum(t.ba for t in tallies),
            sts=sum(t.sts for t in tallies),
            sf=sum(t.sf for t in tallies),
            se=sum(t.se for t in tallies),
            ats=sum(t.ats for t in tallies),
        )

    def release_thread(self, tid: int) -> None:
        """Drop a finished thread's private structures from the table space.

        NS: the thread's subgoal-trie root cell, and with it its frames and
        answer tries.  SS: the thread's frame cell under each shared leaf.
        FS keeps everything until the table itself is dropped.  The
        allocation tallies are monotonic and do not change.
        """
        if self.design is Design.NS:
            for te in self.entries.values():
                te.roots.clear(tid)
        elif self.design is Design.SS:
            for te in self.entries.values():
                for leaf in self._leaves(te.root):
                    leaf.payload.clear(tid)

    @staticmethod
    def _leaves(root: TrieNode):
        """The leaves of a subgoal trie.  Not for answer tries, whose last
        level is a token container, not nodes."""
        stack = [root.first_child]
        while stack:
            node = stack.pop()
            while node is not None:
                if node.first_child is None:
                    yield node
                else:
                    stack.append(node.first_child)
                node = node.sibling
