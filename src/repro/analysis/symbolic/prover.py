"""The symbolic critical-cycle prover: verdicts before enumeration.

Litmus verdicts over the stock library and the diy corpus are dominated
by tests deliberately built around one *critical cycle* (Section 4 of
the paper): communication edges pinned by the final-state condition,
program-order edges between their endpoints.  Whether the model forbids
the outcome usually hinges on that single cycle — so this module decides
it *statically*, before (and usually instead of) enumerating the
candidate-execution space:

* **Forbid** — the condition body is unsatisfiable over the skeleton
  (``unsat-condition``), or every coherence scenario of every
  condition-satisfying execution contains a cycle provably inside an
  acyclicity axiom of the model (``critical-cycle``).  Both facts are
  established by under-approximating entailment (:mod:`.match`), so a
  Forbid is a proof, not a heuristic.
* **Allow** — a witness candidate synthesised from the condition
  footprint (threads restricted to traces matching the pinned register
  values) satisfies the condition and is *confirmed by the kernel
  itself* (``model.allows``) — exact by construction.
* **None** — anything else; the caller falls back to full enumeration.

The Forbid direction needs the model's compiled relational IR
(:mod:`repro.analysis.catir.compile`); native Python models still get
the ``unsat-condition`` and witness paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.guard import core as _guard
from repro.litmus.ast import Program
from repro.litmus.outcomes import Exists, Forall, NotExists
from repro.model import Model
from repro.obs import core as _obs

from repro.analysis.catir.compile import CompiledModel
from repro.analysis.symbolic.footprint import (
    Footprint,
    guaranteed_edges,
    resolve_footprint,
    scenarios,
)
from repro.analysis.symbolic.match import EdgeSet, Key, Matcher, violated_check
from repro.analysis.symbolic.skeleton import (
    ProgramSkeleton,
    Unsupported,
    extract_skeleton,
)

ALLOW = "Allow"
FORBID = "Forbid"

#: Caps on the static search itself (the point is to be *cheap*).
MAX_CYCLES = 128
MAX_CYCLE_LEN = 12
MAX_WITNESS_CANDIDATES = 256


@dataclass(frozen=True)
class StaticDecision:
    """A statically established verdict and its provenance."""

    verdict: str  # ALLOW or FORBID
    #: ``unsat-condition`` / ``critical-cycle`` / ``witness-confirmed``.
    reason: str
    detail: str = ""

    def describe(self) -> str:
        suffix = f" [{self.detail}]" if self.detail else ""
        return f"{self.verdict} ({self.reason}){suffix}"


# ---------------------------------------------------------------------------
# Model IR


def compiled_model(model: Model) -> Optional[CompiledModel]:
    """The model's relational IR, or ``None`` for models that have no cat
    statement list or whose cat dialect the IR compiler rejects.

    A :class:`~repro.cat.eval.CatModel` compiles its IR once and shares
    it with the VM lowering, so the prover reads that same object."""
    return getattr(model, "compiled", None)


# ---------------------------------------------------------------------------
# Cycle enumeration


def _communication_cycles(
    skeleton: ProgramSkeleton,
    edges: EdgeSet,
    max_cycles: int = MAX_CYCLES,
    max_len: int = MAX_CYCLE_LEN,
) -> Iterator[List[Key]]:
    """Candidate critical cycles: alternating communication steps (from
    ``edges``) and forward program-order steps between their endpoints.

    Consecutive po steps are never taken (po is transitive, so such a
    cycle is subsumed by a shorter one), and each cycle is emitted once,
    anchored at its smallest participating key.
    """
    comm: Dict[Key, set] = {}
    for a, b in edges.rf | edges.co | edges.fr:
        comm.setdefault(a, set()).add(b)
        comm.setdefault(b, set())
    nodes = sorted(comm)
    po_next: Dict[Key, List[Key]] = {
        a: [b for b in nodes if b[0] == a[0] and b[1] > a[1]] for a in nodes
    }
    emitted = 0

    def walk(
        start: Key, current: Key, path: List[Key], last_po: bool, first_po: bool
    ) -> Iterator[List[Key]]:
        nonlocal emitted
        if emitted >= max_cycles or len(path) > max_len:
            return
        for nxt in sorted(comm[current]):
            if nxt == start:
                if len(path) >= 2:
                    emitted += 1
                    yield list(path)
                    if emitted >= max_cycles:
                        return
            elif nxt > start and nxt not in path:
                yield from walk(start, nxt, path + [nxt], False, first_po)
        if not last_po:
            for nxt in po_next[current]:
                if nxt == start:
                    # Closing with po after opening with po would make
                    # two consecutive po steps around the wrap.
                    if len(path) >= 2 and not first_po:
                        emitted += 1
                        yield list(path)
                        if emitted >= max_cycles:
                            return
                elif nxt > start and nxt not in path:
                    yield from walk(start, nxt, path + [nxt], True, first_po)

    for start in nodes:
        for nxt in sorted(comm[start]):
            if nxt > start:
                yield from walk(start, nxt, [start, nxt], False, False)
        for nxt in po_next[start]:
            if nxt > start:
                yield from walk(start, nxt, [start, nxt], True, True)


def _cycle_positions(skeleton: ProgramSkeleton, cycle: Sequence[Key]):
    """The cycle's accesses in order, with the skeleton fences interposed
    along each forward program-order link (so ``seq`` compositions like
    ``po ; [F & Mb] ; po`` find their intermediate position)."""
    positions = []
    count = len(cycle)
    for i, key in enumerate(cycle):
        event = skeleton.event(key)
        positions.append(event)
        nxt = skeleton.event(cycle[(i + 1) % count])
        if event.tid == nxt.tid and event.index < nxt.index:
            positions.extend(skeleton.fences_between(event, nxt))
    return positions


def _forbidden_under(
    skeleton: ProgramSkeleton, edges: EdgeSet, compiled: CompiledModel
) -> Optional[str]:
    """A violated-check label when some candidate cycle over ``edges`` is
    provably inside an acyclicity axiom, else ``None``."""
    for cycle in _communication_cycles(skeleton, edges):
        positions = _cycle_positions(skeleton, cycle)
        matcher = Matcher(skeleton, edges, positions, period=len(positions))
        label = violated_check(matcher, compiled.checks)
        if label is not None:
            return label
    return None


# ---------------------------------------------------------------------------
# Witness synthesis (the Allow direction)


def _find_witness(
    model: Model,
    program: Program,
    skeleton: ProgramSkeleton,
    footprint: Footprint,
    require_sc_per_location: bool,
) -> bool:
    """Synthesise and confirm one allowed, condition-satisfying candidate.

    Thread traces are pre-filtered to those whose final registers match
    the condition's pinned values, so the candidates examined are exactly
    the ones that can be witnesses.  The model's own ``allows`` makes the
    confirmation exact.  A tripped ambient guard aborts the attempt
    (returning False); the fallback enumeration then re-trips it at its
    own safepoint and degrades normally.
    """
    from repro.executions.enumerate import _executions_of_traces
    from repro.executions.thread_sem import (
        enumerate_thread_traces,
        possible_value_sets,
    )

    condition = program.condition
    try:
        value_sets = possible_value_sets(program)
        per_thread = []
        for tid, thread in enumerate(program.threads):
            pins = {
                reg: value
                for (pin_tid, reg), value in footprint.reg_values.items()
                if pin_tid == tid
            }
            traces = [
                trace
                for trace in enumerate_thread_traces(thread, value_sets)
                if all(
                    trace.final_regs.get(reg) == value
                    for reg, value in pins.items()
                )
            ]
            if not traces:
                return False
            per_thread.append(traces)
        locations = program.locations()
        examined = 0
        for combo in itertools.product(*per_thread):
            for execution in _executions_of_traces(
                program, locations, combo, require_sc_per_location
            ):
                examined += 1
                if condition.evaluate(execution.final_state) and model.allows(
                    execution
                ):
                    return True
                if examined >= MAX_WITNESS_CANDIDATES:
                    return False
    except _guard.GuardStop:
        return False
    return False


# ---------------------------------------------------------------------------
# The decision procedure


def _forbidden_labels(
    skeleton: ProgramSkeleton, footprint: Footprint, compiled: CompiledModel
) -> Optional[str]:
    """The violated-check label(s) proving every condition-satisfying
    execution forbidden, or ``None``: one cycle over the guaranteed edges
    suffices, otherwise every coherence scenario needs its own."""
    guaranteed = guaranteed_edges(skeleton, footprint)
    label = _forbidden_under(skeleton, guaranteed, compiled)
    if label is not None:
        return label
    cases = scenarios(skeleton, footprint)
    if cases == [guaranteed]:
        return None
    labels = set()
    for case in cases:
        label = _forbidden_under(skeleton, case, compiled)
        if label is None:
            return None
        labels.add(label)
    return "; ".join(sorted(labels))


def decide(
    model: Model,
    program: Program,
    require_sc_per_location: bool = False,
) -> Optional[StaticDecision]:
    """Statically decide ``program`` under ``model``, or ``None``.

    Sound by construction: a Forbid is a proof over every
    condition-satisfying execution, an Allow is a kernel-confirmed
    witness.  ``forall`` conditions (whose verdict quantifies over
    non-witnesses too) always fall back.

    Owns the observability counters (``static.decided`` /
    ``static.witness_confirmed`` / ``static.fallback``) so every caller
    — the batched drivers, ``repro-herd --static-only``, the coverage
    report — surfaces them uniformly under ``--profile``.
    """
    decision = _decide(model, program, require_sc_per_location)
    if _obs.ENABLED:
        if decision is None:
            _obs.count("static.fallback")
        else:
            _obs.count("static.decided")
            if decision.reason == "witness-confirmed":
                _obs.count("static.witness_confirmed")
    return decision


def _decide(
    model: Model,
    program: Program,
    require_sc_per_location: bool,
) -> Optional[StaticDecision]:
    condition = program.condition
    if condition is None or not isinstance(condition, (Exists, NotExists)):
        return None
    try:
        with _obs.span("static.skeleton"):
            skeleton = extract_skeleton(program)
            footprint = resolve_footprint(skeleton, condition.body)
    except Unsupported:
        return None
    if footprint.trivially_false:
        return StaticDecision(
            FORBID, "unsat-condition", "no execution satisfies the condition"
        )
    compiled = compiled_model(model)
    if compiled is not None:
        with _obs.span("static.entail"):
            labels = _forbidden_labels(skeleton, footprint, compiled)
        if labels:
            return StaticDecision(FORBID, "critical-cycle", labels)
    with _obs.span("static.witness"):
        found = _find_witness(
            model, program, skeleton, footprint, require_sc_per_location
        )
    if found:
        return StaticDecision(ALLOW, "witness-confirmed")
    return None


def static_verdict(
    model: Model,
    program: Program,
    require_sc_per_location: bool = False,
) -> Optional[str]:
    """The statically decided verdict string, or ``None`` (fall back).

    This is the entry point the batched drivers call; the counters live
    in :func:`decide` itself.
    """
    decision = decide(
        model, program, require_sc_per_location=require_sc_per_location
    )
    return None if decision is None else decision.verdict
