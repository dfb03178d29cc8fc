"""The reference entailment oracle: the per-pair recursive matcher.

This is the symbolic prover's original entailment engine, kept verbatim
as a differential oracle for the bitset-matrix evaluator in
:mod:`repro.analysis.symbolic.match`.  Every query ``match(node, i, j)``
is answered by recursion over the IR with a per-(node, i, j) memo; a
``let rec`` binding is seeded False while its own proof is in progress.
It is slow (a ``seq`` reruns its forward DP for every end position, a
closure re-chains a fresh reach vector for every span) but each rule is
a direct transcription of one soundness fact, which is what makes it a
good oracle.  ``tests/test_symbolic_matrix.py`` demands identical
``violated_check`` labels and order tables from both engines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cat import TAG_SETS
from repro.events import FENCE, READ, WRITE

from repro.analysis.catir import ir
from repro.analysis.symbolic.match import EdgeSet
from repro.analysis.symbolic.skeleton import ProgramSkeleton, SkelEvent


class Matcher:
    """Entailment queries over one position sequence.

    ``positions`` is the sequence of skeleton events; when ``period`` is
    set, index arithmetic is modulo that period (the sequence represents
    a cycle and spans may wrap exactly once — queries use indices up to
    ``2 * period``).  Matchers are cheap and short-lived: one per
    (cycle, edge scenario).
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
        self._memo: Dict[Tuple[int, int, int], bool] = {}

    # -- position helpers --------------------------------------------------

    def at(self, i: int) -> SkelEvent:
        return self.positions[i]

    def same_event(self, i: int, j: int) -> bool:
        if self.period is None:
            return i == j
        return (j - i) % self.period == 0

    def span_limit(self) -> int:
        """The largest meaningful span length."""
        return self.period if self.period is not None \
            else len(self.positions) - 1

    def _fences_between(self, a: SkelEvent, b: SkelEvent) -> List[SkelEvent]:
        if self.skeleton is not None:
            return self.skeleton.fences_between(a, b)
        # Order-table mode: interposed fences are themselves positions.
        return [
            event
            for event in self.positions
            if event.kind == FENCE and event.tid == a.tid
            and a.index < event.index < b.index
        ]

    # -- set membership (three-valued) ------------------------------------

    def in_set(self, node: ir.Node, event: SkelEvent) -> Optional[bool]:
        kind = node.kind
        if kind == "base":
            name = node.name
            if name == "_":
                return True
            if name == "R":
                return event.kind == READ
            if name == "W":
                return event.kind == WRITE
            if name == "M":
                return event.kind in (READ, WRITE)
            if name == "F":
                return event.kind == FENCE
            if name == "IW":
                return False  # initial writes are never skeleton events
            tag = TAG_SETS.get(name)
            if tag is not None:
                return event.tag == tag
            return None
        if kind == "empty":
            return False
        if kind == "union":
            saw_unknown = False
            for op in node.operands:
                member = self.in_set(op, event)
                if member:
                    return True
                if member is None:
                    saw_unknown = True
            return None if saw_unknown else False
        if kind == "inter":
            saw_unknown = False
            for op in node.operands:
                member = self.in_set(op, event)
                if member is False:
                    return False
                if member is None:
                    saw_unknown = True
            return None if saw_unknown else True
        if kind == "diff":
            lhs = self.in_set(node.operands[0], event)
            rhs = self.in_set(node.operands[1], event)
            if lhs is False or rhs is True:
                return False
            if lhs is True and rhs is False:
                return True
            return None
        return None  # domain/range/compl/rec: unknown

    # -- pair membership ---------------------------------------------------

    def match(self, node: ir.Node, i: int, j: int) -> bool:
        """True only when ``(positions[i], positions[j])`` is provably in
        ``node`` for every execution carrying this matcher's edges."""
        key = (id(node), i, j)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        # Seed False so a recursive proof that needs itself is rejected
        # (a sound least-fixpoint under-approximation for rec groups).
        self._memo[key] = False
        result = self._match(node, i, j)
        self._memo[key] = result
        return result

    def _match(self, node: ir.Node, i: int, j: int) -> bool:
        a, b = self.at(i), self.at(j)
        kind = node.kind
        if kind == "base":
            return self._match_base(node.name, i, j, a, b)
        if kind == "empty":
            return False
        if kind == "rec":
            bodies = ir.group_of(node).bodies
            return bool(bodies) and self.match(bodies[node.pos], i, j)
        if kind == "union":
            return any(self.match(op, i, j) for op in node.operands)
        if kind == "inter":
            return all(self.match(op, i, j) for op in node.operands)
        if kind == "diff":
            return self.match(node.operands[0], i, j) and self.refute(
                node.operands[1], i, j
            )
        if kind == "compl":
            return self.refute(node.operands[0], i, j)
        if kind == "inverse":
            return self._match_inverse(node.operands[0], i, j)
        if kind == "opt":
            return self.same_event(i, j) or self.match(node.operands[0], i, j)
        if kind == "star":
            return self.same_event(i, j) or self._plus(node.operands[0], i, j)
        if kind == "plus":
            return self._plus(node.operands[0], i, j)
        if kind == "setid":
            return self.same_event(i, j) and (
                self.in_set(node.operands[0], a) is True
            )
        if kind == "cartesian":
            return (
                self.in_set(node.operands[0], a) is True
                and self.in_set(node.operands[1], b) is True
            )
        if kind == "fencerel":
            return self._fencerel(node.operands[0], i, j, a, b)
        if kind == "seq":
            return self._seq(node.operands, i, j)
        return False

    def _match_base(self, name: str, i: int, j: int,
                    a: SkelEvent, b: SkelEvent) -> bool:
        if name == "po":
            return a.tid == b.tid and a.index < b.index
        if name == "rf":
            return (a.key, b.key) in self.edges.rf
        if name == "co":
            return (a.key, b.key) in self.edges.co
        if name == "addr":
            return a.tid == b.tid and a.index in b.addr_deps
        if name == "data":
            return a.tid == b.tid and a.index in b.data_deps
        if name == "ctrl":
            return a.tid == b.tid and a.index in b.ctrl_deps
        if name == "int":
            return a.tid == b.tid
        if name == "ext":
            return a.tid != b.tid
        if name == "loc":
            return a.loc is not None and a.loc == b.loc
        if name == "id":
            return self.same_event(i, j)
        return False  # rmw, crit, unknown bases: no provable pairs

    def _match_inverse(self, operand: ir.Node, i: int, j: int) -> bool:
        a, b = self.at(i), self.at(j)
        if operand.kind == "base":
            if operand.name == "rf":
                return (b.key, a.key) in self.edges.rf
            if operand.name == "co":
                return (b.key, a.key) in self.edges.co
            if operand.name == "po":
                # po^-1 along a forward span is only the degenerate case.
                return False
        return False

    def _fencerel(self, sets: ir.Node, i: int, j: int,
                  a: SkelEvent, b: SkelEvent) -> bool:
        if a.tid != b.tid or a.index >= b.index:
            return False
        return any(
            self.in_set(sets, fence) is True
            for fence in self._fences_between(a, b)
        )

    def _is_fr_fusion(self, first: ir.Node, second: ir.Node) -> bool:
        return (
            first.kind == "inverse"
            and first.operands[0].kind == "base"
            and first.operands[0].name == "rf"
            and second.kind == "base"
            and second.name == "co"
        )

    def _seq(self, operands: Tuple[ir.Node, ...], i: int, j: int) -> bool:
        # states[t] = positions reachable after consuming operands[:t].
        count = len(operands)
        states: List[set] = [set() for _ in range(count + 1)]
        states[0].add(i)
        for t, op in enumerate(operands):
            fused = t + 1 < count and self._is_fr_fusion(op, operands[t + 1])
            for p in list(states[t]):
                for q in range(p, j + 1):
                    if self.match(op, p, q):
                        states[t + 1].add(q)
                    if fused and q > p and (
                        (self.at(p).key, self.at(q).key) in self.edges.fr
                    ):
                        states[t + 2].add(q)
        return j in states[count]

    def _plus(self, op: ir.Node, i: int, j: int) -> bool:
        # Forward-chaining closure: chains of >= 1 step, intermediate
        # positions strictly between i and j.
        reach = [False] * (j - i + 1)
        for q in range(i, j + 1):
            if self.match(op, i, q):
                reach[q - i] = True
        if reach[j - i]:
            return True
        changed = True
        while changed and not reach[j - i]:
            changed = False
            for p in range(i, j + 1):
                if not reach[p - i]:
                    continue
                for q in range(p + 1, j + 1):
                    if not reach[q - i] and self.match(op, p, q):
                        reach[q - i] = True
                        changed = True
        return reach[j - i]

    # -- definite non-membership ------------------------------------------

    def refute(self, node: ir.Node, i: int, j: int) -> bool:
        """True only when the pair is provably *not* in ``node``."""
        a, b = self.at(i), self.at(j)
        kind = node.kind
        if kind == "base":
            name = node.name
            if name == "id":
                return not self.same_event(i, j)
            if name == "int":
                return a.tid != b.tid
            if name == "ext":
                return a.tid == b.tid
            if name == "loc":
                return a.loc is None or b.loc is None or a.loc != b.loc
            if name == "po":
                # Exact: po is precisely same-thread program order.
                return not (a.tid == b.tid and a.index < b.index)
            if name in ("addr", "data", "ctrl"):
                deps = getattr(b, f"{name}_deps")
                return not (a.tid == b.tid and a.index in deps)
            if name == "rmw":
                return True  # the skeleton fragment contains no RMWs
            return False  # rf/co/crit: pins are a subset, can't refute
        if kind == "empty":
            return True
        if kind == "union":
            return all(self.refute(op, i, j) for op in node.operands)
        if kind == "inter":
            return any(self.refute(op, i, j) for op in node.operands)
        if kind == "diff":
            return self.refute(node.operands[0], i, j) or self.match(
                node.operands[1], i, j
            )
        if kind == "compl":
            return self.match(node.operands[0], i, j)
        if kind == "opt":
            return not self.same_event(i, j) and self.refute(
                node.operands[0], i, j
            )
        if kind == "setid":
            return not self.same_event(i, j) or (
                self.in_set(node.operands[0], a) is False
            )
        if kind == "cartesian":
            return (
                self.in_set(node.operands[0], a) is False
                or self.in_set(node.operands[1], b) is False
            )
        if kind == "fencerel":
            if a.tid != b.tid or a.index >= b.index:
                return True
            return all(
                self.in_set(node.operands[0], fence) is False
                for fence in self._fences_between(a, b)
            )
        return False  # seq/plus/star/rec/inverse: not refutable here


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
