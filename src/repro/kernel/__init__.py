"""repro.kernel — the fast execution kernel.

A performance layer under the public ``Relation``/``EventSet``/
``run_litmus`` APIs, with no behavioural change:

* :mod:`repro.kernel.bitrel` — integer-indexed relations: events mapped to
  dense indices once per universe, relations held as adjacency bitset
  rows, operators as word-parallel integer arithmetic;
* :mod:`repro.kernel.skeleton` — per-trace incremental checking: the
  trace-invariant structure of candidate executions, computed once per
  trace combination and shared across all rf×co candidates;
* :mod:`repro.kernel.vm` — the relational bytecode VM, the checker of
  every cat model under the ``bitset`` backend: each model's compiled IR
  is lowered once to a flat instruction array over numbered registers of
  raw bitset values; trace-invariant registers are computed once per
  skeleton and shared by reference across rf×co siblings;
* :mod:`repro.kernel.parallel` — a ``multiprocessing`` driver sharding
  trace combinations (and whole programs) over a worker pool, surfaced as
  ``--jobs N`` on the CLIs and ``jobs=N`` on the ``run_litmus``/
  ``verdicts`` APIs; pools persist across programs so spawn and model
  compile costs amortise over a library sweep;
* :mod:`repro.kernel.config` — backend selection
  (``REPRO_RELATION_BACKEND=bitset|frozenset``, default ``bitset``) and
  the incremental and static-verdict switches (``REPRO_INCREMENTAL``,
  ``REPRO_STATIC_VERDICT``).

The original frozenset implementation is retained as the reference
backend; ``tests/test_kernel_equiv.py`` asserts observational equivalence
between every backend/driver combination.
"""

from repro.kernel.config import (
    BITSET,
    FROZENSET,
    backend,
    incremental_enabled,
    set_backend,
    set_incremental,
    use_backend,
    use_incremental,
)

__all__ = [
    "BITSET",
    "FROZENSET",
    "backend",
    "incremental_enabled",
    "set_backend",
    "set_incremental",
    "use_backend",
    "use_incremental",
]
