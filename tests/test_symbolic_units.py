"""Unit tests for the symbolic prover's internals.

The end-to-end contract (soundness, coverage, drift) lives in
``test_static_verdicts.py``; this module pins the *mechanisms* — the
axiom-to-order-table lowering, the condition footprint, the
unsat-condition shortcut, the scaling property the pre-pass exists
for (a fence-chain family whose candidate space doubles per thread is
decided with zero candidates enumerated), the matrix engine's rec-group
fixpoint and MUST/NOT interplay, and the prover's stage spans.
"""

from __future__ import annotations

import pytest

from repro.analysis.catir import ir
from repro.analysis.catir.compile import compile_source
from repro.analysis.symbolic import decide
from repro.analysis.symbolic.footprint import (
    guaranteed_edges,
    resolve_footprint,
)
from repro.analysis.symbolic.match import EdgeSet, Matcher, violated_check
from repro.analysis.symbolic.skeleton import SkelEvent, extract_skeleton
from repro.analysis.symbolic.tables import order_table, ordered_shapes
from repro.cat import load_model
from repro.events import ONCE, READ, WRITE
from repro.herd import run_litmus
from repro.kernel import config as kconfig
from repro.litmus import library
from repro.litmus.parser import parse_litmus
from repro.obs import core as obs
from repro.tools.cli import herd_main


def _chain(threads, middle_fence="smp_mb"):
    """An ISA2-style message chain: P0 raises flag x1 after storing x0,
    each middle thread forwards the flag under ``middle_fence``, the
    last thread reads back x0.  With ``smp_mb`` the outcome is forbidden
    under LKMM; with ``smp_rmb`` (which does not order R->W) allowed."""
    n = threads
    lines = [
        f"C chain-{middle_fence}-{n}",
        "{ " + " ".join(f"x{i}=0;" for i in range(n)) + " }",
        "P0(int *x0, int *x1)\n{\n    WRITE_ONCE(*x0, 1);\n"
        "    smp_wmb();\n    WRITE_ONCE(*x1, 1);\n}",
    ]
    for i in range(1, n - 1):
        lines.append(
            f"P{i}(int *x{i}, int *x{i + 1})\n{{\n"
            f"    int r0 = READ_ONCE(*x{i});\n    {middle_fence}();\n"
            f"    WRITE_ONCE(*x{i + 1}, 1);\n}}"
        )
    lines.append(
        f"P{n - 1}(int *x{n - 1}, int *x0)\n{{\n"
        f"    int r0 = READ_ONCE(*x{n - 1});\n    smp_rmb();\n"
        f"    int r1 = READ_ONCE(*x0);\n}}"
    )
    cond = " /\\ ".join(f"{i}:r0=1" for i in range(1, n))
    lines.append(f"exists ({cond} /\\ {n - 1}:r1=0)")
    return parse_litmus("\n".join(lines))


# ---------------------------------------------------------------------------
# Order tables


def test_order_table_lkmm_fences_order_po():
    table = order_table(load_model("lkmm"))
    # A full barrier orders every access pair; the lightweight fences
    # order their documented subsets; bare program order orders nothing.
    for shape in ("MbdRR", "MbdRW", "MbdWR", "MbdWW"):
        assert table[shape], shape
    assert table["WmbdWW"]
    assert table["RmbdRR"]
    assert table["PodWR"] == ()
    assert table["PodWW"] == ()


def test_order_table_tso_relaxes_only_store_load():
    table = order_table(load_model("tso"))
    # The store buffer: W->R is the one program-order TSO relaxes.
    assert table["PodWR"] == ()
    for shape in ("PodRR", "PodRW", "PodWW", "DpAddrdR"):
        assert table[shape], shape
    # Communication edges are ordered outright.
    for shape in ("Rfe", "Fre", "Coe"):
        assert table[shape], shape


def test_order_table_sc_orders_every_posed_shape():
    table = order_table(load_model("sc"))
    # SC orders every program-order and communication shape; the only
    # permissible empty rows are shapes the lowering cannot even pose
    # (no fixed endpoint kinds).
    for name, axioms in table.items():
        if name.startswith(("Pod", "Mbd", "Dp")) or name in (
            "Rfe",
            "Fre",
            "Coe",
        ):
            assert axioms == ("sequential-consistency",), name


def test_ordered_shapes_sorted_and_nonempty():
    shapes = ordered_shapes(load_model("lkmm"))
    assert shapes == tuple(sorted(shapes))
    assert "MbdWR" in shapes


# ---------------------------------------------------------------------------
# Condition footprint


def test_footprint_pins_mp_edges():
    program = library.get("MP+wmb+rmb")
    skeleton = extract_skeleton(program)
    footprint = resolve_footprint(skeleton, program.condition.body)
    # r0=1 pins the rf edge from P0's flag store; r1=0 pins reading the
    # initial value, i.e. an fr edge to P0's data store.
    assert footprint.reg_values == {(1, "r0"): 1, (1, "r1"): 0}
    edges = guaranteed_edges(skeleton, footprint)
    assert edges.rf == frozenset({((0, 2), (1, 0))})
    assert edges.fr == frozenset({((1, 2), (0, 0))})
    assert edges.co == frozenset()


def test_unsatisfiable_condition_is_forbid():
    program = parse_litmus(
        """
C MP+impossible
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_wmb();
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    smp_rmb();
    int r1 = READ_ONCE(*x);
}
exists (1:r0=7)
"""
    )
    decision = decide(
        load_model("lkmm"), program, require_sc_per_location=True
    )
    assert decision is not None
    assert decision.verdict == "Forbid"
    assert decision.reason == "unsat-condition"


# ---------------------------------------------------------------------------
# The scaling property: chains


@pytest.mark.parametrize("threads", [3, 4, 5, 6])
def test_forbidden_chain_is_proved_without_enumeration(threads):
    program = _chain(threads, middle_fence="smp_mb")
    model = load_model("lkmm")
    with obs.collect() as collector:
        decision = decide(model, program, require_sc_per_location=True)
    assert decision is not None
    assert decision.verdict == "Forbid"
    assert decision.reason == "critical-cycle"
    assert collector.counters.get("enumerate.candidates", 0) == 0
    # The proof never contradicts the kernel.
    with kconfig.use_static_verdict(False):
        result = run_litmus(model, program, require_sc_per_location=True)
    assert result.verdict == "Forbid"


def test_allowed_chain_witness_matches_kernel():
    # smp_rmb does not order read->write, so the chain becomes allowed —
    # and the static Allow is a kernel-confirmed witness, not a guess.
    program = _chain(4, middle_fence="smp_rmb")
    model = load_model("lkmm")
    decision = decide(model, program, require_sc_per_location=True)
    assert decision is not None
    assert decision.verdict == "Allow"
    assert decision.reason == "witness-confirmed"
    with kconfig.use_static_verdict(False):
        result = run_litmus(model, program, require_sc_per_location=True)
    assert result.verdict == "Allow"


# ---------------------------------------------------------------------------
# Matrix entailment: rec groups, diff and compl


#: A rec group whose proofs compose the binding with itself.
_CHAIN_CAT = """"chain"
let rfe = rf & ext
let rec chain = rfe | (chain ; po ; chain)
irreflexive chain ; po as chain-closes
"""


def _lb_ring(second_rf=True):
    """LB as a hand-built ring: Wx ->rfe Rx ->po Wy ->rfe Ry ->po Wx.
    ``second_rf=False`` leaves Wy -> Ry unpinned (a near miss)."""
    positions = [
        SkelEvent(0, 1, WRITE, ONCE, "x"),
        SkelEvent(1, 0, READ, ONCE, "x"),
        SkelEvent(1, 1, WRITE, ONCE, "y"),
        SkelEvent(0, 0, READ, ONCE, "y"),
    ]
    keys = [event.key for event in positions]
    rf = {(keys[0], keys[1])}
    if second_rf:
        rf.add((keys[2], keys[3]))
    return Matcher(None, EdgeSet(rf=frozenset(rf)), positions, period=4)


def test_rec_proof_needs_two_unfoldings():
    """Wx -> Ry is rfe ; po ; rfe: the first Kleene iterate only knows
    the single rfe edges, the second composes them, and only then does
    ``chain ; po`` close the ring."""
    compiled = compile_source(_CHAIN_CAT, "chain")
    chain = compiled.definitions["chain"]
    rfe = compiled.definitions["rfe"]
    matcher = _lb_ring()
    assert matcher.match(rfe, 0, 1) and matcher.match(rfe, 2, 3)
    assert not matcher.match(rfe, 0, 3)
    assert matcher.match(chain, 0, 3)  # second unfolding
    assert matcher.match(compiled.checks[0].root, 0, 4)
    assert violated_check(matcher, compiled.checks) == "chain-closes"


def test_rec_near_miss_abstains():
    compiled = compile_source(_CHAIN_CAT, "chain")
    matcher = _lb_ring(second_rf=False)
    assert matcher.match(compiled.definitions["chain"], 0, 1)
    assert not matcher.match(compiled.definitions["chain"], 0, 3)
    assert violated_check(matcher, compiled.checks) is None


def _mp_ring():
    # MP: Wx ->po Wy ->rf Ry ->po Rx ->fr Wx.
    positions = [
        SkelEvent(0, 0, WRITE, ONCE, "x"),
        SkelEvent(0, 1, WRITE, ONCE, "y"),
        SkelEvent(1, 0, READ, ONCE, "y"),
        SkelEvent(1, 1, READ, ONCE, "x"),
    ]
    keys = [event.key for event in positions]
    edges = EdgeSet(
        rf=frozenset({(keys[1], keys[2])}), fr=frozenset({(keys[3], keys[0])})
    )
    return Matcher(None, edges, positions, period=4)


def test_diff_needs_a_refutation():
    """``a \\ b`` holds only where ``b`` is provably out: ``po \\ loc``
    on a different-location po pair, never on an unrefutable ``rf``."""
    po, loc, rf = (ir.base(name, ir.REL) for name in ("po", "loc", "rf"))
    matcher = _mp_ring()
    assert matcher.match(ir.diff(po, loc), 0, 1)
    assert matcher.refute(ir.diff(po, loc), 0, 2)  # not po at all
    assert matcher.match(rf, 1, 2)
    assert not matcher.match(ir.diff(po, rf), 0, 1)  # rf is never refuted
    assert matcher.refute(ir.diff(po, rf), 1, 2)  # ... but po is


def test_compl_swaps_must_and_not():
    po, loc, rf = (ir.base(name, ir.REL) for name in ("po", "loc", "rf"))
    matcher = _mp_ring()
    not_po_loc = ir.compl(ir.diff(po, loc))
    # ~(po \ loc): in where po is out or loc is in.
    assert matcher.match(not_po_loc, 1, 2)
    assert matcher.match(not_po_loc, 3, 4)  # Rx -> Wx, same location
    assert matcher.refute(not_po_loc, 0, 1)
    # ~rf: a pinned rf edge refutes it, but nothing proves it.
    assert matcher.refute(ir.compl(rf), 1, 2)
    assert not any(
        matcher.match(ir.compl(rf), i, j)
        for i in range(8)
        for j in range(i, min(i + 4, 7) + 1)
    )


# ---------------------------------------------------------------------------
# Observability: one span per prover stage


def test_prover_stage_spans():
    model = load_model("lkmm")
    with obs.collect() as collector:
        decision = decide(
            model, library.get("MP+wmb+rmb"), require_sc_per_location=True
        )
    assert decision.reason == "critical-cycle"
    assert {"static.skeleton", "static.entail"} <= set(collector.spans)
    assert "static.witness" not in collector.spans  # the proof came first
    with obs.collect() as collector:
        decision = decide(model, library.get("MP"), require_sc_per_location=True)
    assert decision.reason == "witness-confirmed"
    assert {"static.skeleton", "static.entail", "static.witness"} <= set(
        collector.spans
    )


def test_herd_profile_shows_prover_spans(capsys):
    assert herd_main(
        ["--model", "lkmm", "--static-only", "--profile", "MP+wmb+rmb"]
    ) == 0
    out = capsys.readouterr().out
    assert "static.skeleton" in out
    assert "static.entail" in out
