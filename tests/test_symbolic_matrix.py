"""Differential test: the matrix entailment engine against its oracle.

:mod:`repro.analysis.symbolic.match` evaluates each IR node once per
cycle into bitset matrices; ``tests/symbolic_reference.py`` keeps the
original per-pair recursive matcher.  Over every critical cycle the
prover examines — each edge scenario of each test, not only the first
cycle that decides — both engines must name the same violated check (or
none), and every bundled model's order table (the linear, ``period=None``
mode) must come out identical.  The oracle runs on every cycle visited.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.catir import ir
from repro.analysis.symbolic import match as matrix
from repro.analysis.symbolic import tables
from repro.analysis.symbolic.footprint import (
    guaranteed_edges,
    resolve_footprint,
    scenarios,
)
from repro.analysis.symbolic.prover import (
    _communication_cycles,
    _cycle_positions,
    compiled_model,
)
from repro.analysis.symbolic.skeleton import Unsupported, extract_skeleton
from repro.cat import MODELS_DIR, load_model
from repro.corpus.golden import load_golden
from repro.corpus.sweep import CORPUS_MODELS, _model
from repro.hardware import CompileError, compile_program, get_arch
from repro.litmus import library
from repro.litmus.outcomes import Exists, NotExists

from tests import symbolic_reference as reference

CORPUS_PATH = Path(__file__).parent / "data" / "golden_corpus.jsonl"
#: Every CORPUS_STRIDE-th golden-corpus test (the corpus is stratified,
#: so a stride slice keeps every family while bounding the oracle's cost).
CORPUS_STRIDE = 10
LIBRARY_MODELS = ("lkmm", "c11", "sc", "tso")


def _cycles(model, program):
    """``(skeleton, edges, positions)`` for every cycle the prover would
    examine while deciding ``program`` under ``model``."""
    compiled = compiled_model(model)
    condition = program.condition
    if compiled is None or not isinstance(condition, (Exists, NotExists)):
        return
    try:
        skeleton = extract_skeleton(program)
        footprint = resolve_footprint(skeleton, condition.body)
    except Unsupported:
        return
    if footprint.trivially_false:
        return
    guaranteed = guaranteed_edges(skeleton, footprint)
    cases = [guaranteed] + [
        case for case in scenarios(skeleton, footprint) if case != guaranteed
    ]
    for edges in cases:
        for cycle in _communication_cycles(skeleton, edges):
            yield skeleton, edges, _cycle_positions(skeleton, cycle)


def _disagreements(cells):
    """Compare both engines on every cycle of ``cells``; returns
    (cycles compared, disagreements)."""
    compared = 0
    wrong = []
    for label, model, program in cells:
        checks = compiled_model(model).checks
        for skeleton, edges, positions in _cycles(model, program):
            period = len(positions)
            fast = matrix.violated_check(
                matrix.Matcher(skeleton, edges, positions, period), checks
            )
            expected = reference.violated_check(
                reference.Matcher(skeleton, edges, positions, period), checks
            )
            compared += 1
            if fast != expected:
                cycle = " ".join(event.describe() for event in positions)
                wrong.append(
                    f"{label}: [{cycle}] matrix {fast} vs oracle {expected}"
                )
    return compared, wrong


def test_library_cycles_agree():
    models = [load_model(name) for name in LIBRARY_MODELS]
    cells = (
        (f"{name}/{model.name}", model, library.get(name))
        for name in library.all_names()
        for model in models
    )
    compared, wrong = _disagreements(cells)
    assert compared > 100
    assert wrong == [], wrong[:10]


def _corpus_cells():
    golden = load_golden(CORPUS_PATH)
    for test, _ in golden[::CORPUS_STRIDE]:
        for spec in CORPUS_MODELS:
            program = test.program
            if spec.arch is not None:
                try:
                    program = compile_program(
                        program, get_arch(spec.arch), rcu="error"
                    )
                except CompileError:
                    continue
            yield f"{test.name}/{spec.name}", _model(spec.key), program


def test_corpus_cycles_agree():
    compared, wrong = _disagreements(_corpus_cells())
    assert compared > 100
    assert wrong == [], wrong[:10]


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in MODELS_DIR.glob("*.cat"))
)
def test_order_tables_agree(name, monkeypatch):
    model = load_model(name)
    fast = tables.order_table(model)
    monkeypatch.setattr(tables, "Matcher", reference.Matcher)
    assert tables.order_table(model) == fast


def test_rec_fixpoint_never_loses_an_oracle_proof():
    """The Kleene fixpoint proves at least what the seeded-False memo
    proves, pair by pair, on every rec binding of LKMM over MP+wmb+rmb's
    critical cycle (the label test above only sees the final check)."""
    model = load_model("lkmm")
    program = library.get("MP+wmb+rmb")
    checks = compiled_model(model).checks
    for skeleton, edges, positions in _cycles(model, program):
        period = len(positions)
        fast = matrix.Matcher(skeleton, edges, positions, period)
        slow = reference.Matcher(skeleton, edges, positions, period)
        nodes = {
            node
            for check in checks
            for node in _subnodes(check.root)
            if node.kind == "rec"
        }
        assert nodes
        for node in nodes:
            for i in range(2 * period):
                for j in range(i, min(i + period, 2 * period - 1) + 1):
                    if slow.match(node, i, j):
                        assert fast.match(node, i, j), (node.pstr, i, j)


def _subnodes(root):
    stack, seen = [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.operands)
        if node.kind == "rec":
            stack.extend(ir.group_of(node).bodies)
