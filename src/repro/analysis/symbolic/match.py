"""Matrix entailment over the relational IR.

Given a *position sequence* — skeleton events laid out along a candidate
critical cycle (or a straight line, for the order tables) — the
:class:`Matcher` decides whether a pair of positions is **provably** a
member of a compiled cat expression (:mod:`repro.analysis.catir.ir`) in
every candidate execution where the supplied communication edges hold.

Everything is an *under-approximation* of real membership: ``match``
returns True only when the pair is certainly in the relation, ``refute``
returns True only when it certainly is not, and set membership is
three-valued.  A query the engine cannot settle simply fails, which makes
the prover built on top fall back to enumeration — never lie.

Each IR node is evaluated **once** per matcher into two bitset matrices
over the positions: MUST (pairs provably in the relation) and NOT (pairs
provably out).  A row is a Python ``int`` whose bit ``j`` stands for the
pair ``(i, j)``.  Only forward spans are tracked — ``i <= j <= i +
period`` (the whole line without one), the *band* — because every proof rule composes through
intermediate positions between its endpoints, so a query is a bit test.
The rules, per node kind:

* ``union`` / ``inter`` / ``diff`` / ``compl`` — row-wise OR and AND over
  MUST and NOT (``a \\ b`` is MUST(a) ∧ NOT(b), ``~a`` swaps the pair);
* ``seq`` — one forward state row per start position, pushed through
  each operand's MUST matrix.  The one relation whose natural witness is
  *not* a position — ``fr = rf^-1 ; co``, whose middle event is the
  read's (possibly initial) coherence predecessor — is fused
  structurally: a ``rf^-1 ; co`` operand pair may consume a span as a
  single pinned from-read edge;
* ``plus`` / ``star`` — one backward transitive-closure pass over the
  strictly forward part of the operand (a reflexive pair only ever comes
  from the operand itself);
* ``let rec`` groups — Kleene iteration from empty.  Every rule is
  monotone in its operands' (MUST, NOT) pair, so the iteration climbs to
  the least fixpoint, and each iterate is sound by induction: a MUST row
  under-approximates the binding's real value, which is a fixpoint of
  the same body.

Soundness of each base fact:

* ``po`` — positions carry their thread and trace index; thread_sem
  emits events in program order, so ``same tid ∧ earlier index`` is
  exactly po.
* ``addr``/``data``/``ctrl`` — the skeleton's dependency sets replicate
  thread_sem's taint computation index for index.
* ``rf``/``co``/``fr`` — only pairs the caller pinned from the condition
  footprint (present in every execution under consideration).
* ``fencerel(S)`` — an unconditional fence of a matching tag sits
  po-between the endpoints in the skeleton, hence in every trace.
* ``int``/``ext``/``loc``/``id`` — structural facts of the events.
"""

from __future__ import annotations

from operator import and_, or_
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.cat import TAG_SETS
from repro.events import FENCE, READ, WRITE

from repro.analysis.catir import ir
from repro.analysis.symbolic.skeleton import ProgramSkeleton, SkelEvent

Key = Tuple[int, int]
Pair = Tuple[Key, Key]
#: One bitset matrix: row ``i`` holds the provable partners ``j`` of ``i``.
Rows = List[int]


class EdgeSet:
    """Communication edges guaranteed in every execution under
    consideration (a condition-footprint scenario)."""

    __slots__ = ("rf", "co", "fr")

    def __init__(
        self,
        rf: FrozenSet[Pair] = frozenset(),
        co: FrozenSet[Pair] = frozenset(),
        fr: FrozenSet[Pair] = frozenset(),
    ):
        self.rf = frozenset(rf)
        self.co = frozenset(co)
        self.fr = frozenset(fr)

    def union(self, other: "EdgeSet") -> "EdgeSet":
        return EdgeSet(
            self.rf | other.rf, self.co | other.co, self.fr | other.fr
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeSet)
            and self.rf == other.rf
            and self.co == other.co
            and self.fr == other.fr
        )

    def __hash__(self) -> int:
        return hash((self.rf, self.co, self.fr))


#: Three-valued set membership keyed by (set node, event kind, event tag)
#: — the only event fields a set expression reads.  Interned IR nodes
#: live for the whole process, so their ids are stable keys.
_MEMBER: Dict[Tuple[int, str, Optional[str]], Optional[bool]] = {}


def _member(node: ir.Node, kind: str, tag: Optional[str]) -> Optional[bool]:
    key = (id(node), kind, tag)
    if key in _MEMBER:
        return _MEMBER[key]
    result: Optional[bool] = None
    if node.kind == "base":
        name = node.name
        if name == "_":
            result = True
        elif name == "R":
            result = kind == READ
        elif name == "W":
            result = kind == WRITE
        elif name == "M":
            result = kind in (READ, WRITE)
        elif name == "F":
            result = kind == FENCE
        elif name == "IW":
            result = False  # initial writes are never skeleton events
        elif name in TAG_SETS:
            result = tag == TAG_SETS[name]
    elif node.kind == "empty":
        result = False
    elif node.kind in ("union", "inter"):
        members = [_member(op, kind, tag) for op in node.operands]
        decisive = node.kind == "union"  # union: any True; inter: any False
        if decisive in members:
            result = decisive
        elif None not in members:
            result = not decisive
    elif node.kind == "diff":
        lhs = _member(node.operands[0], kind, tag)
        rhs = _member(node.operands[1], kind, tag)
        if lhs is False or rhs is True:
            result = False
        elif lhs is True and rhs is False:
            result = True
    # domain/range/compl/rec: unknown
    _MEMBER[key] = result
    return result


def _is_fr_fusion(first: ir.Node, second: ir.Node) -> bool:
    return (
        first.kind == "inverse"
        and first.operands[0].kind == "base"
        and first.operands[0].name == "rf"
        and second.kind == "base"
        and second.name == "co"
    )


class Matcher:
    """Entailment queries over one position sequence.

    ``positions`` is the sequence of skeleton events; when ``period`` is
    set, index arithmetic is modulo that period (the sequence represents
    a cycle and spans may wrap exactly once — queries use indices up to
    ``2 * period``).  Matchers are cheap and short-lived: one per
    (cycle, edge scenario).  A node's matrices are built on its first
    query and answer every later one.
    """

    def __init__(
        self,
        skeleton: Optional[ProgramSkeleton],
        edges: EdgeSet,
        positions: Sequence[SkelEvent],
        period: Optional[int] = None,
    ):
        self.skeleton = skeleton
        self.edges = edges
        self.period = period
        if period is not None:
            # Double the ring so any rotation's full wrap is addressable.
            self.positions = list(positions) * 2
        else:
            self.positions = list(positions)
        n = self._n = len(self.positions)
        #: Rows kept per matrix.  A ring's second copy repeats the first,
        #: so its rows are the first copy's shifted by the period (cut at
        #: the end of the doubled ring) and are never stored.
        m = self._m = period if period is not None else n
        limit = period if period is not None else n - 1
        full = self._full = (1 << n) - 1
        #: band[i]: the forward spans (i, i..i+limit) any rule can prove.
        self._band = [
            full & ~((1 << i) - 1) & ((1 << (i + limit + 1)) - 1)
            for i in range(m)
        ]
        self._zero: Rows = [0] * m
        self._unit: Rows = [1 << i for i in range(m)]
        self._id: Rows = [
            (1 << i) | ((1 << (i + period)) if period else 0) for i in range(m)
        ]
        #: Positions by event key (as a mask and as a list), by thread,
        #: and by the (kind, tag) class that decides set membership.
        self._key_mask: Dict[Key, int] = {}
        self._key_rows: Dict[Key, List[int]] = {}
        self._threads: Dict[int, List[Tuple[int, int]]] = {}
        self._thread_mask: Dict[int, int] = {}
        self._classes: Dict[Tuple[str, Optional[str]], int] = {}
        for i, event in enumerate(self.positions):
            bit = 1 << i
            self._key_mask[event.key] = self._key_mask.get(event.key, 0) | bit
            if i < m:
                self._key_rows.setdefault(event.key, []).append(i)
            tid = event.tid
            self._threads.setdefault(tid, []).append((event.index, bit))
            self._thread_mask[tid] = self._thread_mask.get(tid, 0) | bit
            cls = (event.kind, event.tag)
            self._classes[cls] = self._classes.get(cls, 0) | bit
        self._fences: Dict[Key, List[SkelEvent]] = {}
        self._beyond_memo: Dict[Tuple[int, int], int] = {}
        self._memo: Dict[int, Tuple[Rows, Rows]] = {}
        self._fr: Optional[Rows] = None
        self._sets: Dict[int, Tuple[int, int]] = {}
        #: ``let rec`` bindings: the current (or final) MUST rows per group.
        self._recs: Dict[int, List[Rows]] = {}
        #: Groups under Kleene iteration, and the memo entries each
        #: iteration must recompute.
        self._solving: Set[int] = set()
        self._volatile: Dict[int, List[int]] = {}

    # -- position helpers --------------------------------------------------

    def _beyond(self, tid: int, index: int) -> int:
        """Mask of the positions on thread ``tid`` after trace ``index``."""
        key = (tid, index)
        mask = self._beyond_memo.get(key)
        if mask is None:
            mask = 0
            for other, bit in self._threads.get(tid, ()):
                if other > index:
                    mask |= bit
            self._beyond_memo[key] = mask
        return mask

    def _fences_after(self, a: SkelEvent) -> List[SkelEvent]:
        """The fences po-after ``a`` on its thread, in program order."""
        fences = self._fences.get(a.key)
        if fences is None:
            # Without a skeleton (order tables) the interposed fences are
            # themselves positions.
            events = self.skeleton.threads[a.tid].events \
                if self.skeleton is not None else self.positions
            fences = self._fences[a.key] = sorted(
                {
                    event
                    for event in events
                    if event.kind == FENCE and event.tid == a.tid
                    and event.index > a.index
                },
                key=lambda event: event.index,
            )
        return fences

    # -- set membership (three-valued) ------------------------------------

    def in_set(self, node: ir.Node, event: SkelEvent) -> Optional[bool]:
        return _member(node, event.kind, event.tag)

    def _set(self, node: ir.Node) -> Tuple[int, int]:
        """(provably in, provably out) masks of ``node`` over positions."""
        cached = self._sets.get(id(node))
        if cached is None:
            yes = no = 0
            for (kind, tag), mask in self._classes.items():
                member = _member(node, kind, tag)
                if member:
                    yes |= mask
                elif member is False:
                    no |= mask
            cached = self._sets[id(node)] = (yes, no)
        return cached

    # -- queries -------------------------------------------------------------

    def match(self, node: ir.Node, i: int, j: int) -> bool:
        """True only when ``(positions[i], positions[j])`` is provably in
        ``node`` for every execution carrying this matcher's edges.
        Spans outside the band are never provable."""
        return self._test(self._rows(node)[0], i, j)

    def refute(self, node: ir.Node, i: int, j: int) -> bool:
        """True only when the pair is provably *not* in ``node``."""
        return self._test(self._rows(node)[1], i, j)

    def _test(self, rows: Rows, i: int, j: int) -> bool:
        if not (0 <= i < self._n and i <= j < self._n):
            return False
        if i >= self._m:  # the ring's second copy: the first, shifted
            i -= self._m
            j -= self._m
        return bool(rows[i] >> j & 1)

    # -- matrix evaluation ---------------------------------------------------

    def _rows(self, node: ir.Node) -> Tuple[Rows, Rows]:
        """The (MUST, NOT) matrices of ``node``."""
        cached = self._memo.get(id(node))
        if cached is not None:
            return cached
        if node.kind == "rec":
            return self._rec(node), self._zero
        if node.kind in self._EVAL:
            result = self._EVAL[node.kind](self, node)
        elif node.kind == "empty":
            result = self._zero, self._band
        else:
            result = self._zero, self._zero  # domain/range: unknown
        self._memo[id(node)] = result
        if self._solving and node.rec_ids:
            for gid in node.rec_ids & self._solving:
                self._volatile[gid].append(id(node))
        return result

    def _must(self, node: ir.Node) -> Rows:
        return self._rows(node)[0]

    def _complement(self, rows: Rows) -> Rows:
        return [band & ~row for band, row in zip(self._band, rows)]

    def _base(self, node: ir.Node) -> Tuple[Rows, Rows]:
        name = node.name
        positions = self.positions
        if name == "po":
            must = [
                band & self._beyond(a.tid, a.index)
                for band, a in zip(self._band, positions)
            ]
        elif name in ("rf", "co"):
            return self._pinned(getattr(self.edges, name)), self._zero
        elif name in ("addr", "data", "ctrl"):
            must = [0] * self._m
            attr = f"{name}_deps"
            for j, b in enumerate(positions):
                for dep in getattr(b, attr):
                    for i in self._key_rows.get((b.tid, dep), ()):
                        must[i] |= 1 << j
            must = [band & row for band, row in zip(self._band, must)]
        elif name in ("int", "ext"):
            must = [
                band & self._thread_mask[a.tid]
                for band, a in zip(self._band, positions)
            ]
            if name == "ext":
                must = self._complement(must)
        elif name == "loc":
            loc_mask: Dict[str, int] = {}
            for j, b in enumerate(positions):
                if b.loc is not None:
                    loc_mask[b.loc] = loc_mask.get(b.loc, 0) | (1 << j)
            must = [
                band & loc_mask.get(a.loc, 0)
                for band, a in zip(self._band, positions)
            ]
        elif name == "id":
            must = self._id
        elif name == "rmw":
            return self._zero, self._band  # the fragment contains no RMWs
        else:
            return self._zero, self._zero  # crit, unknown bases
        # Every remaining base is exact over the skeleton.
        return must, self._complement(must)

    def _pinned(self, pairs: FrozenSet[Pair], inverse: bool = False) -> Rows:
        rows = [0] * self._m
        for a, b in pairs:
            if inverse:
                a, b = b, a
            mask = self._key_mask.get(b, 0)
            for i in self._key_rows.get(a, ()):
                rows[i] |= mask
        return [band & row for band, row in zip(self._band, rows)]

    def _inverse(self, node: ir.Node) -> Tuple[Rows, Rows]:
        operand = node.operands[0]
        if operand.kind == "base" and operand.name in ("rf", "co"):
            return self._pinned(getattr(self.edges, operand.name), True), \
                self._zero
        # po^-1 along a forward span is only the degenerate case.
        return self._zero, self._zero

    def _union(self, node: ir.Node) -> Tuple[Rows, Rows]:
        must, not_ = self._rows(node.operands[0])
        for op in node.operands[1:]:
            m, x = self._rows(op)
            must = list(map(or_, must, m))
            not_ = list(map(and_, not_, x))
        return must, not_

    def _inter(self, node: ir.Node) -> Tuple[Rows, Rows]:
        must, not_ = self._rows(node.operands[0])
        for op in node.operands[1:]:
            m, x = self._rows(op)
            must = list(map(and_, must, m))
            not_ = list(map(or_, not_, x))
        return must, not_

    def _diff(self, node: ir.Node) -> Tuple[Rows, Rows]:
        must0, not0 = self._rows(node.operands[0])
        must1, not1 = self._rows(node.operands[1])
        return list(map(and_, must0, not1)), list(map(or_, not0, must1))

    def _compl(self, node: ir.Node) -> Tuple[Rows, Rows]:
        must, not_ = self._rows(node.operands[0])
        return not_, must

    def _opt(self, node: ir.Node) -> Tuple[Rows, Rows]:
        must, not_ = self._rows(node.operands[0])
        return (
            list(map(or_, self._id, must)),
            [a & ~b for a, b in zip(not_, self._id)],
        )

    def _plus(self, node: ir.Node) -> Tuple[Rows, Rows]:
        return self._closure(self._must(node.operands[0])), self._zero

    def _star(self, node: ir.Node) -> Tuple[Rows, Rows]:
        closure = self._closure(self._must(node.operands[0]))
        return list(map(or_, self._id, closure)), self._zero

    def _closure(self, must: Rows) -> Rows:
        """``must+`` over the band: strictly forward chains, plus the
        operand's own reflexive pairs.  Chains run over the whole doubled
        ring, whose second copy ends where the ring is cut."""
        m, full = self._m, self._full
        rows = must + [(row << m) & full for row in must] \
            if m < self._n else must
        reach = [0] * len(rows)
        for p in range(len(rows) - 1, -1, -1):
            row = acc = rows[p] & ~(1 << p)
            while row:
                low = row & -row
                acc |= reach[low.bit_length() - 1]
                row ^= low
            reach[p] = acc & (
                self._band[p] if p < m else full & ~((1 << p) - 1)
            )
        return [
            r | (row & (1 << p))
            for p, (r, row) in enumerate(zip(reach, must))
        ]

    def _setid(self, node: ir.Node) -> Tuple[Rows, Rows]:
        yes, no = self._set(node.operands[0])
        return (
            [row if yes >> i & 1 else 0 for i, row in enumerate(self._id)],
            [
                band if no >> i & 1 else band & ~row
                for i, (band, row) in enumerate(zip(self._band, self._id))
            ],
        )

    def _cartesian(self, node: ir.Node) -> Tuple[Rows, Rows]:
        yes0, no0 = self._set(node.operands[0])
        yes1, no1 = self._set(node.operands[1])
        return (
            [band & yes1 if yes0 >> i & 1 else 0
             for i, band in enumerate(self._band)],
            [band if no0 >> i & 1 else band & no1
             for i, band in enumerate(self._band)],
        )

    def _fencerel(self, node: ir.Node) -> Tuple[Rows, Rows]:
        # A pair is in when a provably matching fence sits po-between it,
        # out when it is not po-ordered or every fence between provably
        # fails the set: so per row only the first such fence matters.
        sets = node.operands[0]
        must, not_ = [], []
        for band, a in zip(self._band, self.positions):
            first_in = first_open = None
            for fence in self._fences_after(a):
                member = self.in_set(sets, fence)
                if first_open is None and member is not False:
                    first_open = fence.index
                if member:
                    first_in = fence.index
                    break
            must.append(
                0 if first_in is None
                else band & self._beyond(a.tid, first_in)
            )
            not_.append(
                band if first_open is None
                else band & ~self._beyond(a.tid, first_open)
            )
        return must, not_

    def _compose(self, left: Rows, right: Rows) -> Rows:
        if self._m < self._n:
            right = right + [row << self._m for row in right]
        out = []
        for band, row in zip(self._band, left):
            acc = 0
            while row:
                low = row & -row
                acc |= right[low.bit_length() - 1]
                row ^= low
            out.append(acc & band)
        return out

    def _seq(self, node: ir.Node) -> Tuple[Rows, Rows]:
        # states[t]: per start, the positions reachable after consuming
        # operands[:t] — one forward DP shared by every end position.
        operands = node.operands
        count = len(operands)
        states: List[Optional[Rows]] = [self._unit] + [None] * count
        for t, op in enumerate(operands):
            if states[t + 1] is None and not any(states[t]):
                return self._zero, self._zero  # nothing left to extend
            if t == 0:
                step = self._must(op)
            else:
                step = self._compose(states[t], self._must(op))
            if states[t + 1] is not None:
                step = list(map(or_, states[t + 1], step))
            states[t + 1] = step
            if t + 1 < count and _is_fr_fusion(op, operands[t + 1]):
                if self._fr is None:
                    self._fr = self._pinned(self.edges.fr)
                states[t + 2] = self._compose(states[t], self._fr)
        return states[count], self._zero

    def _rec(self, node: ir.Node) -> Rows:
        gid = node.group_id
        if gid not in self._recs:
            self._solve(node)
        return self._recs[gid][node.pos]

    def _solve(self, node: ir.Node) -> None:
        """Kleene iteration of one ``let rec`` group from empty.  Every
        rule is monotone in the (MUST, NOT) pair, so the iterates climb to
        the least fixpoint; a binding is never refutable (NOT stays
        empty), exactly as an unknown relation."""
        gid = node.group_id
        bodies = ir.group_of(node).bodies
        self._recs[gid] = [self._zero] * max(len(bodies), node.pos + 1)
        if not bodies:
            return
        self._solving.add(gid)
        volatile = self._volatile[gid] = []
        while True:
            fresh = [self._must(body) for body in bodies]
            if fresh == self._recs[gid]:
                break
            self._recs[gid] = fresh
            for key in volatile:
                self._memo.pop(key, None)
            volatile.clear()
        self._solving.discard(gid)
        del self._volatile[gid]

    _EVAL = {
        "base": _base,
        "union": _union,
        "inter": _inter,
        "diff": _diff,
        "compl": _compl,
        "inverse": _inverse,
        "opt": _opt,
        "plus": _plus,
        "star": _star,
        "setid": _setid,
        "cartesian": _cartesian,
        "fencerel": _fencerel,
        "seq": _seq,
    }


def violated_check(matcher: Matcher, checks) -> Optional[str]:
    """The label of a non-flag acyclic/irreflexive check the cycle
    provably violates, or None.

    For ``acyclic r`` (irreflexive ``r+``) the goal is a full wrap of the
    ring inside ``r+``; for ``irreflexive r`` the wrap — or a reflexive
    pair at a single position — inside ``r`` itself.
    """
    period = matcher.period
    assert period is not None, "violated_check needs a cyclic matcher"
    for check in checks:
        if check.flag or check.negated:
            continue
        if check.kind == "acyclic":
            target = ir.plus(check.root)
            for k in range(period):
                if matcher.match(target, k, k + period):
                    return check.label
        elif check.kind == "irreflexive":
            for k in range(period):
                if matcher.match(check.root, k, k) or matcher.match(
                    check.root, k, k + period
                ):
                    return check.label
    return None
