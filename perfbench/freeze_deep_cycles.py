"""Regenerate ``data/deep_cycles.json``: the deep-cycles item pool.

Two classes of large diy cycle, drawn once from fixed RNG streams:

* ``allow`` -- ``(Rfe RR Fre) x k`` for k = 4..7 (8 to 14 threads), each
  RR edge at most as strong as ``smp_rmb``.  Kept only when the symbolic
  prover decides every model on its own.
* ``chain`` -- fence chains ``[MbdWW] (Rfe RW) ... Rfe RR Fre`` with
  7 to 9 threads.  Kept only when the prover abstains on at least one
  model, so enumeration decides that model's cell.

The expected verdicts are computed with the prover *off*, by full
enumeration, so a later prover change is checked against an
independent answer.  Run from the repository root::

    python3 perfbench/freeze_deep_cycles.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.analysis.symbolic import static_verdict  # noqa: E402
from repro.cat.eval import load_model  # noqa: E402
from repro.diy.generator import (  # noqa: E402
    CycleError,
    canonical_cycle,
    generate,
)
from repro.herd import verdicts  # noqa: E402
from repro.kernel import config  # noqa: E402

MODELS = ("lkmm", "lkmm-core", "c11")
OUT = HERE / "data" / "deep_cycles.json"

ALLOW_RR = ["PodRR", "RmbdRR", "DpAddrdR", "DpAddrRbDepdR", "AcqdR"]
ALLOW_QUOTA = {4: 30, 5: 30, 6: 20, 7: 10}
CHAIN_RW = ["MbdRW", "SyncdRW"]
CHAIN_RR = ["MbdRR", "SyncdRR"]
CHAIN_QUOTA = {7: 120, 8: 60, 9: 30}


def allow_candidates(k: int, rng: random.Random):
    while True:
        edges = []
        for _ in range(k):
            edges += ["Rfe", rng.choice(ALLOW_RR), "Fre"]
        yield edges


def chain_candidates(threads: int, rng: random.Random):
    while True:
        # ISA2-style chains open with a W;mb;W thread, WRC-style ones
        # with a lone write; both put ``threads - 2`` R;fence;W links
        # between it and the closing R;fence;R thread.
        edges = ["MbdWW"] if rng.random() < 0.5 else []
        for _ in range(threads - 2):
            edges += ["Rfe", rng.choice(CHAIN_RW)]
        edges += ["Rfe", rng.choice(CHAIN_RR), "Fre"]
        yield edges


def draw(candidates, quota, keep, seen):
    """The first ``quota`` distinct realisable cycles from ``candidates``
    that ``keep`` accepts (bounded, so a bad filter cannot spin forever)."""
    items = []
    for _, edges in zip(range(100 * quota), candidates):
        canonical = canonical_cycle(edges)
        if canonical in seen:
            continue
        seen.add(canonical)
        try:
            program = generate(edges)
        except CycleError:  # e.g. more locations than diy can name
            continue
        if keep(program):
            items.append({"edges": edges, "threads": len(program.threads)})
            if len(items) == quota:
                return items
    raise SystemExit(f"only {len(items)} of {quota} cycles qualified")


def main() -> None:
    models = [load_model(name) for name in MODELS]

    def statically_decided(program):
        return [static_verdict(m, program) is not None for m in models]

    seen: set = set()
    pool = {"allow": [], "chain": []}
    for k, quota in ALLOW_QUOTA.items():
        pool["allow"] += draw(
            allow_candidates(k, random.Random(f"deep-cycles/allow/{k}")),
            quota,
            lambda p: all(statically_decided(p)),
            seen,
        )
    for threads, quota in CHAIN_QUOTA.items():
        pool["chain"] += draw(
            chain_candidates(threads, random.Random(f"deep-cycles/chain/{threads}")),
            quota,
            lambda p: not all(statically_decided(p)),
            seen,
        )

    config.set_static_verdict(False)
    for items in pool.values():
        for item in items:
            program = generate(item["edges"])
            start = time.perf_counter()
            item["verdicts"] = verdicts(models, [program])[program.name]
            item["prover_off_ms"] = round(
                (time.perf_counter() - start) * 1000, 1
            )
    pool["allow"] = [
        item for item in pool["allow"]
        if set(item["verdicts"].values()) == {"Allow"}
    ]
    OUT.write_text(json.dumps(pool, indent=1) + "\n")
    print(
        f"wrote {OUT.name}: {len(pool['allow'])} allow cycles, "
        f"{len(pool['chain'])} fence chains"
    )


if __name__ == "__main__":
    main()
