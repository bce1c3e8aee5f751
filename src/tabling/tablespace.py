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
answers, never part of one.

Structure allocations are tallied per kind so the per-design memory laws
can be checked as exact counts.  Each thread id has its own `_Tally`, which
only that thread writes, and a snapshot sums them; NS thus takes no lock
shared between threads, and SS and FS lock only their tries.  Trie root
nodes are anchors owned by their enclosing structure and are not tallied;
the laws are unaffected because the convention is applied uniformly.
"""

from __future__ import annotations

# unused here, but tablebench/tracer.py reads and swaps this module's
# `threading` to count the locks the table space makes
import threading  # noqa: F401
import time
from dataclasses import dataclass
from enum import Enum

from . import trie
from .buckets import BucketArray
from .errors import ConfigurationError, EvaluationError
from .terms import TAG_VAR, Term, Token, TokenSeq, decode_answers
from .trie import SyncMode, TrieNode

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
        return {
            "te": self.te, "ba": self.ba, "sts": self.sts,
            "sf": self.sf, "se": self.se, "ats": self.ats,
        }


def answer_width(call: TokenSeq) -> int:
    """Tokens per answer in the log of the subgoal path `call`: its number
    of distinct variables, or 1 for the TRUE_TOK of a variable-free call."""
    return len({t for t in call if t & 7 == TAG_VAR}) or 1


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

    `dfn`, `leader_dfn`, `stack_pos` and `on_stack` are scheduling fields
    used by the evaluation engine's dependency stack.
    """

    __slots__ = ("pred", "tokens", "tid", "state", "entry",
                 "answer_root", "answers",
                 "dfn", "leader_dfn", "stack_pos", "on_stack")

    def __init__(self, pred, tokens, tid, entry=None):
        self.pred = pred
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
        self.dfn = -1
        self.leader_dfn = -1
        self.stack_pos = -1
        self.on_stack = False


class SubgoalEntry:
    """FS-only shared record for one subgoal call: the shared answer trie,
    its arrival-ordered flat answer log, and the bucket array of per-thread
    frames.  Creation is serialized on the table's write lock that the
    subgoal-trie leaf selects.  An answer-trie leaf gets a payload once its
    answer is in the log.  Every thread's frame reads this one log, so an
    answer is new at most once table-wide, whichever thread derives it
    first.  Threads extend the log with no lock: each answer goes in by one
    `list.extend`, which the GIL makes atomic, so a reader on any thread
    sees whole answers only."""

    __slots__ = ("answer_root", "answers", "frames")

    def __init__(self):
        self.answer_root = trie.new_root()
        self.answers: list[Token] = []
        self.frames = BucketArray()


class TableEntry:
    """One per tabled predicate; every call enters the table space here."""

    __slots__ = ("pred", "roots", "root")

    def __init__(self, pred, design: Design):
        self.pred = pred
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
        if design is not Design.NS and sync is SyncMode.NONE:
            raise ConfigurationError(
                f"{design.value} shares tries between threads and needs lock or trylock"
            )
        self.design = design
        # shared-structure modes: NS tries are all single-owner
        self.subgoal_mode = SyncMode.NONE if design is Design.NS else sync
        self.answer_mode = sync if design is Design.FS else SyncMode.NONE
        # the write locks of every shared trie; NS tries are never locked
        self.locks = None if design is Design.NS else trie.new_locks()
        self.entries: dict = {
            pred: TableEntry(pred, design) for pred in tabled_preds}
        self._tallies: dict[int, _Tally] = {}

    def _tally(self, tid: int) -> _Tally:
        """Thread `tid`'s allocation counts, made on its first allocation."""
        tally = self._tallies.get(tid)
        if tally is None:
            tally = self._tallies[tid] = _Tally()
        return tally

    # ------------------------------------------------------------------
    # tabled subgoal call

    def subgoal_call(self, te: TableEntry, toks: TokenSeq, tid: int) -> SubgoalFrame:
        """Resolve the design-appropriate root, check/insert the subgoal path,
        and get-or-create this thread's frame at the leaf.  Idempotent per
        (subgoal, thread)."""
        design = self.design
        if design is Design.NS:
            root, _, made_level = te.roots.get_or_create(tid, trie.new_root)
            if made_level:
                self._tally(tid).ba += 1
            leaf, created, _ = trie.check_insert_path_counted(root, toks, SyncMode.NONE)
            if created:
                self._tally(tid).sts += created
            frame = leaf.payload
            if frame is None:
                frame = SubgoalFrame(te.pred, toks, tid)
                leaf.payload = frame
                self._tally(tid).sf += 1
            return frame

        leaf, created, _ = trie.check_insert_path_counted(
            te.root, toks, self.subgoal_mode, self.locks)
        if created:
            self._tally(tid).sts += created

        if design is Design.SS:
            ba, made = trie.get_or_create_payload(
                leaf, BucketArray, self.locks)
            if made:
                self._tally(tid).ba += 1
            frame, made_frame, made_level = ba.get_or_create(
                tid, lambda: SubgoalFrame(te.pred, toks, tid))
        else:
            # FS: leaf -> subgoal entry -> per-thread frame
            entry, made = trie.get_or_create_payload(
                leaf, SubgoalEntry, self.locks)
            if made:
                tally = self._tally(tid)
                tally.se += 1
                tally.ba += 1  # the entry's bucket array
            frame, made_frame, made_level = entry.frames.get_or_create(
                tid, lambda: SubgoalFrame(te.pred, toks, tid, entry=entry))
        if made_level or made_frame:
            tally = self._tally(tid)
            tally.ba += made_level
            tally.sf += made_frame
        return frame

    # ------------------------------------------------------------------
    # answers

    def new_answer_tokens(self, frame: SubgoalFrame, toks: TokenSeq) -> bool:
        """Check/insert one answer and log it if new; returns whether it was
        new to the frame's answer trie, under FS the shared one.

        The caller's resolution must keep backtracking regardless of the
        result; the return value only feeds tracing.  Fixpoint detection
        watches the answer logs instead, so when the path already existed the
        call returns only once the answer is in the log.
        """
        if frame.state != EVALUATING:
            raise EvaluationError("new_answer on a completed subgoal")
        leaf, created, is_new_path = trie.check_insert_path_counted(
            frame.answer_root, toks, self.answer_mode, self.locks)
        if created:
            # the frame's own subgoal_call made its thread's tally
            self._tallies[frame.tid].ats += created
        if is_new_path:
            # one atomic extend, under FS of the entry's shared log
            frame.answers.extend(toks)
            leaf.payload = True  # logged; answer leaves carry nothing else
            return True
        # under FS the inserting thread may not have logged the answer yet;
        # a round that ended before the log held it would never consume it
        while leaf.payload is None:
            time.sleep(0)
        return False

    def mark_complete(self, frames) -> None:
        for frame in frames:
            if frame.state == COMPLETE:
                raise EvaluationError("subgoal completed twice")
            frame.state = COMPLETE

    def answers_of(self, frame: SubgoalFrame) -> list[tuple[Term, ...]]:
        """Decode the answer log of a completed frame as term tuples.

        At completion the log holds exactly the answer trie's leaves, once
        each.  Safe in FS even while other threads still evaluate the same
        subgoal: the frame's thread derived every answer itself and logged
        it, or waited until another thread had, so no answer remains to be
        appended.  The result may include answers derived by other
        threads, which is the same set by definition.
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
                    if leaf.payload is not None:
                        leaf.payload.clear(tid)

    @staticmethod
    def _leaves(root: TrieNode):
        stack = [root.first_child]
        while stack:
            node = stack.pop()
            while node is not None:
                if node.first_child is None:
                    yield node
                else:
                    stack.append(node.first_child)
                node = node.sibling
