"""VM-vs-walker equivalence: the bytecode that
:mod:`repro.analysis.catir.plan` lowers a compiled model to must produce
verdicts, axiom labels, witnesses and flags identical to the
statement-walking interpreter (:meth:`CatModel._walk`, the reference
oracle), under both relation backends."""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.symbolic import compiled_model
from repro.cat import CatModel, CatError, load_model
from repro.executions import candidate_executions
from repro.herd import verdicts
from repro.kernel import config, vm
from repro.litmus import library
from repro.obs import core as obs

PROGRAMS = [
    "MP+wmb+rmb",
    "SB",
    "LB+ctrl",
    "IRIW",
    "RCU-MP",
    "SB+unlock-lock",
]

MODELS = ["lkmm", "lkmm-core", "c11", "tso", "sc", "power", "armv8"]


def available_programs():
    names = set(library.all_names())
    return [name for name in PROGRAMS if name in names]


def _fingerprint(violations, flags):
    return (
        not violations,
        [(v.axiom, v.kind, v.witness) for v in violations],
        [(f.axiom, f.kind) for f in flags],
    )


def compare_on(model, program, limit=40):
    """Check the first ``limit`` candidates both ways; returns how many."""
    compared = 0
    for i, execution in enumerate(candidate_executions(program)):
        if i >= limit:
            break
        result = model.check(execution)
        assert _fingerprint(result.violations, result.flags) == _fingerprint(
            *model._walk(execution)
        ), f"{model.name} / {program.name} candidate {i}"
        compared += 1
    return compared


@pytest.mark.parametrize("model_name", MODELS)
def test_bundled_models_plan_equivalence(model_name):
    model = load_model(model_name)
    assert model._program is not None, "every bundled model lowers"
    for prog_name in available_programs():
        assert compare_on(model, library.get(prog_name))


CUSTOM_SOURCES = {
    "negated": "~empty po as has-order\nacyclic po as po-order",
    "flagged": "flag empty rf & po as internal-rf\nacyclic po | rf as ord",
    "set-check": "empty R & W as disjoint\nempty IW & R as init-writes",
    "recursion": (
        "let rec path = po | (path ; rf) | (rf ; path)\n"
        "acyclic path as chained"
    ),
    "mutual-recursion": (
        "let rec a = po | (b ; rf)\nand b = rf | (a ; po)\n"
        "irreflexive a as no-self\nacyclic b as b-ord"
    ),
    "functions": (
        "let hull(r) = r? ; r ; r?\n"
        "empty hull(rf) & id as no-rf-loop"
    ),
    "complement": "empty po & ~po as excluded-middle",
    "set-complement": "empty R & ~R as set-middle",
    "cartesian": "empty rf \\ (W * R) as rf-shape",
    "fencerel": "empty fencerel(Wmb) & id as fence-irr",
    "domain-range": (
        "empty domain(rf) & R as writes-only\n"
        "empty range(rf) & W as reads-only"
    ),
    "inverse": "irreflexive rf^-1 ; co as fr-irr",
    "unnamed-checks": "acyclic po\nempty rf & id",
}


@pytest.mark.parametrize("label", sorted(CUSTOM_SOURCES))
def test_custom_model_plan_equivalence(label):
    model = CatModel.from_source(CUSTOM_SOURCES[label], name=f"vm-{label}")
    assert model._program is not None
    assert compare_on(model, library.get("MP+wmb+rmb"))


@pytest.mark.parametrize("backend", ["bitset", "frozenset"])
def test_plan_equivalence_across_backends(backend):
    program = library.get("SB")
    model = load_model("lkmm")
    with config.use_backend(backend):
        assert compare_on(model, program)


class TestOptOut:
    """No switch selects a checker: opting out of the VM means choosing
    the frozenset backend, where the walker answers."""

    @staticmethod
    def _counters(model):
        execution = next(iter(candidate_executions(library.get("SB"))))
        with obs.collect() as collector:
            assert model.check(execution).allowed
        return collector.counters

    def test_env_opt_out(self, monkeypatch):
        model = CatModel.from_source("acyclic po as ok", name="env")
        monkeypatch.setenv("REPRO_RELATION_BACKEND", "frozenset")
        assert self._counters(model).get("vm.runs", 0) == 0
        monkeypatch.delenv("REPRO_RELATION_BACKEND")
        assert self._counters(model).get("vm.runs", 0) == 1  # default on

    def test_override_beats_env(self, monkeypatch):
        model = CatModel.from_source("acyclic po as ok", name="override")
        monkeypatch.setenv("REPRO_RELATION_BACKEND", "frozenset")
        with config.use_backend(config.BITSET):
            assert self._counters(model).get("vm.runs", 0) == 1
        assert self._counters(model).get("vm.runs", 0) == 0

    def test_interpreter_used_when_disabled(self):
        model = CatModel.from_source("acyclic po as ok", name="walker-only")
        program = library.get("SB")
        with config.use_backend(config.FROZENSET), obs.collect() as collector:
            for execution in candidate_executions(program):
                assert model.check(execution).allowed
        assert collector.counters.get("cat.walker-only.checks", 0) > 0
        assert collector.counters.get("vm.runs", 0) == 0
        # Nothing was lowered: the backend alone chose the walker.
        assert "_program" not in model.__dict__


class TestPlanStructure:
    def test_shared_subexpressions_scheduled_once(self):
        model = CatModel.from_source(
            "let a = po | rf\nacyclic a as one\nirreflexive a ; a as two",
            name="cse",
        )
        program = model._program
        assert program is not None
        unions = [
            instr
            for instr in program.prelude + program.main
            if instr[0] == vm.UNION_REL
        ]
        assert len(unions) == 1  # `po | rf` lowers to one instruction

    def test_one_compiled_ir_per_model(self):
        model = CatModel.from_source("acyclic po | rf as ord", name="once")
        program = model._program
        assert program is not None
        # The prover reads the very IR the VM was lowered from.
        assert compiled_model(model) is model.compiled
        assert [c.label for c in program.checks] == [
            c.label for c in compiled_model(model).checks
        ]

    def test_uncompilable_model_falls_back(self):
        # The IR cannot compile an unbound name; check() falls back to
        # the walker, which raises the same CatError it always did.
        model = CatModel.from_source("acyclic nonesuch as broken")
        program = library.get("SB")
        execution = next(iter(candidate_executions(program)))
        with pytest.raises(CatError, match="unbound identifier"):
            model.check(execution)
        assert model.compiled is None and model._program is None

    def test_model_pickles_without_plan(self):
        model = load_model("tso")
        program = library.get("SB")
        execution = next(iter(candidate_executions(program)))
        before = model.check(execution)
        assert model._program is not None
        clone = pickle.loads(pickle.dumps(model))
        assert "compiled" not in clone.__dict__
        assert "_program" not in clone.__dict__
        after = clone.check(execution)
        assert (after.allowed, after.violations) == (
            before.allowed,
            before.violations,
        )


def test_golden_style_verdicts_match():
    """The headline acceptance shape: library verdict tables computed by
    the VM (bitset) and the walker (frozenset) coincide (the full 57x4
    table runs in the golden suite, which CI exercises under both
    backends)."""
    programs = [library.get(name) for name in available_programs()]
    models = [load_model(name) for name in ("lkmm", "c11", "tso", "sc")]
    with config.use_backend(config.BITSET):
        with_vm = verdicts(models, programs)
    with config.use_backend(config.FROZENSET):
        walked = verdicts(models, programs)
    assert with_vm == walked
