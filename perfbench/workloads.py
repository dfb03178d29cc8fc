"""The four workloads: a fixed item list each, and its known answers.

Every workload turns ``(seed, seconds)`` into a list of :class:`Item`.
``seconds`` fixes *how much* work (a share of the workload's pool, or
runs per klitmus cell, sized so the list takes about that long on a
2-vCPU host); ``seed`` only orders the list and seeds the klitmus
schedules.  So every seed does the same work, which the per-layer
counts of the traced run show exactly.  No item repeats within a run:
the prover's shape memo and the VM's bytecode cache would turn a
repeat into a warm lookup.

The imports sit inside the functions on purpose: they are part of the
measured set-up, and in a traced run they must resolve to the layer
wrappers installed beforehand.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_corpus.jsonl"
DEEP_CYCLES = Path(__file__).resolve().parent / "data" / "deep_cycles.json"

#: The models that judge LK programs directly (the sweep's first columns).
DIRECT_MODELS = ("lkmm", "lkmm-core", "c11")


@dataclass
class Item:
    """One verdict row, full run or klitmus cell, with its known answer."""

    name: str
    run: Callable[[], object]
    expected: object
    #: ``check(output, expected)`` is true when the output is correct.
    check: Callable[[object, object], bool] = lambda out, exp: out == exp


def _spread(pool: Sequence, share: float, minimum: int = 20) -> List:
    """An evenly spaced, seed-independent subset: ``share`` of ``pool``."""
    count = min(len(pool), max(minimum, round(len(pool) * min(share, 1.0))))
    return [pool[i * len(pool) // count] for i in range(count)]


def _ordered(items: List[Item], seed: int) -> List[Item]:
    random.Random(seed).shuffle(items)
    return items


def _golden_rows() -> List[dict]:
    with GOLDEN.open() as handle:
        return [json.loads(line) for line in handle if line.strip()]


def corpus_sweep(seed: int, seconds: float) -> List[Item]:
    """The real sweep: ``sweep_row`` over golden tests parsed from text,
    as a sweep worker does, against the locked 6-model rows."""
    from repro.cat.eval import load_model
    from repro.corpus.sweep import CORPUS_MODELS, sweep_row
    from repro.litmus.parser import parse_litmus

    for spec in CORPUS_MODELS:
        load_model(spec.key)
    rows = _spread(_golden_rows(), seconds / 40.0)
    return _ordered(
        [
            Item(
                row["name"],
                lambda text=row["litmus"]: sweep_row(parse_litmus(text)),
                row["verdicts"],
            )
            for row in rows
        ],
        seed,
    )


def exhaustive(seed: int, seconds: float) -> List[Item]:
    """Full-outcome ``run_litmus_many`` (states kept, no early exit)
    under the three direct models, against the golden verdict columns."""
    from repro.cat.eval import load_model
    from repro.herd import run_litmus_many
    from repro.litmus.parser import parse_litmus

    models = [load_model(key) for key in DIRECT_MODELS]
    names = [model.name for model in models]

    def run(program):
        results = run_litmus_many(
            models, program, require_sc_per_location=True
        )
        return {name: results[name].verdict for name in names}

    return _ordered(
        [
            Item(
                row["name"],
                lambda program=parse_litmus(row["litmus"]): run(program),
                {name: row["verdicts"][name] for name in names},
            )
            for row in _spread(_golden_rows(), seconds / 20.0)
        ],
        seed,
    )


def deep_cycles(seed: int, seconds: float) -> List[Item]:
    """``verdicts`` over large diy cycles: Allow cycles the prover
    decides alone, and fence chains where it abstains on LKMM."""
    from repro.cat.eval import load_model
    from repro.diy.generator import generate
    from repro.herd import verdicts

    models = [load_model(key) for key in DIRECT_MODELS]
    pool = json.loads(DEEP_CYCLES.read_text())
    # The pool is balanced so the median item falls mid-way through the
    # 7-thread chains, whose times cluster: near a class boundary, a few
    # items paying cold costs move the median across a gap.
    entries = _spread(pool["allow"], seconds / 15.0) + _spread(
        pool["chain"], seconds / 15.0
    )
    items = []
    for entry in entries:
        program = generate(entry["edges"])
        items.append(
            Item(
                program.name,
                lambda program=program: verdicts(models, [program])[
                    program.name
                ],
                entry["verdicts"],
            )
        )
    return _ordered(items, seed)


#: klitmus runs per cell and per second of ``--seconds``.
KLITMUS_RUNS_PER_SECOND = 130


def klitmus(seed: int, seconds: float) -> List[Item]:
    """Table 5 on the simulated machines: every cell the paper's LK
    column forbids must be observed zero times."""
    from repro.hardware import run_klitmus
    from repro.hardware.archspec import TABLE5_ARCHS, get_arch
    from repro.litmus import library

    runs = max(1, round(KLITMUS_RUNS_PER_SECOND * seconds))

    def cell_ok(result, forbidden: bool) -> bool:
        return sum(result.histogram.values()) == runs and not (
            forbidden and result.observed
        )

    items = []
    for name in library.TABLE5:
        program = library.get(name)
        forbidden = library.PAPER_VERDICTS[name]["LK"] == "Forbid"
        for arch in TABLE5_ARCHS:
            items.append(
                Item(
                    f"{name}@{arch}",
                    lambda program=program, arch=get_arch(arch): run_klitmus(
                        program, arch, runs=runs, seed=seed
                    ),
                    forbidden,
                    cell_ok,
                )
            )
    return _ordered(items, seed)


WORKLOADS: Dict[str, Callable[[int, float], List[Item]]] = {
    "corpus-sweep": corpus_sweep,
    "deep-cycles": deep_cycles,
    "exhaustive": exhaustive,
    "klitmus": klitmus,
}
