"""Runtime configuration of the execution kernel.

Three independent switches, each settable via environment variable or
programmatically (context managers, used by the equivalence tests and the
benchmark harness):

* ``REPRO_RELATION_BACKEND`` — ``bitset`` (default) selects the
  integer-indexed adjacency-bitset representation of
  :class:`repro.relations.Relation`; ``frozenset`` selects the original
  pure-Python frozenset-of-pairs reference implementation.  The backend
  also decides how :class:`repro.cat.eval.CatModel` checks a candidate:
  the relational bytecode VM of :mod:`repro.kernel.vm` needs dense
  bitset rows, so under ``frozenset`` the statement-walking interpreter
  answers instead.
* ``REPRO_INCREMENTAL`` — ``1`` (default) enables per-trace incremental
  checking: the trace-invariant structure of a candidate execution is
  computed once per trace combination and shared across all rf×co
  candidates, and coherence-order permutations are pruned incrementally
  against ``acyclic(po-loc | com)``.  ``0`` restores the original
  behaviour (everything recomputed per candidate, complete candidates
  filtered after construction).
* ``REPRO_STATIC_VERDICT`` — ``1`` (default) lets the batched drivers
  (:func:`repro.herd.verdicts`, the corpus sweep) consult the symbolic
  critical-cycle prover of :mod:`repro.analysis.symbolic` before
  enumerating candidate executions; statically decided (model, test)
  cells skip enumeration entirely.  ``0`` disables the pre-pass, making
  every verdict go through full enumeration again.

The environment is re-read on every query (with a last-value parse cache,
so the hot :class:`~repro.relations.Relation` constructor pays one dict
lookup and one comparison): tests can toggle backends per-case with
``monkeypatch.setenv`` and no subprocess.  Programmatic settings
(:func:`set_backend` / the context managers) are process-local *overrides*
that take precedence over the environment until cleared.

All three switches are observational no-ops: verdicts, witness counts
and final-state sets are identical under every combination (see
``tests/test_kernel_equiv.py``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

BITSET = "bitset"
FROZENSET = "frozenset"

_BACKENDS = (BITSET, FROZENSET)

_FALSY = ("0", "false", "no", "off")

#: Programmatic overrides; ``None`` means "defer to the environment".
_backend_override: Optional[str] = None
_incremental_override: Optional[bool] = None
_static_verdict_override: Optional[bool] = None

#: Last-raw-value parse caches: (raw env string or None, parsed value).
_backend_env_cache = ("\0unset", BITSET)
_incremental_env_cache = ("\0unset", True)
_static_verdict_env_cache = ("\0unset", True)


def _env_backend() -> str:
    global _backend_env_cache
    raw = os.environ.get("REPRO_RELATION_BACKEND")
    cached_raw, cached_value = _backend_env_cache
    if raw == cached_raw:
        return cached_value
    value = BITSET if raw is None else raw.strip().lower()
    if value not in _BACKENDS:
        raise ValueError(
            f"REPRO_RELATION_BACKEND={value!r}: expected one of {_BACKENDS}"
        )
    _backend_env_cache = (raw, value)
    return value


def _env_incremental() -> bool:
    global _incremental_env_cache
    raw = os.environ.get("REPRO_INCREMENTAL")
    cached_raw, cached_value = _incremental_env_cache
    if raw == cached_raw:
        return cached_value
    value = True if raw is None else raw.strip() not in _FALSY
    _incremental_env_cache = (raw, value)
    return value


def backend() -> str:
    """The active relation backend name (``bitset`` or ``frozenset``)."""
    if _backend_override is not None:
        return _backend_override
    return _env_backend()


def use_bitset() -> bool:
    return backend() == BITSET


def set_backend(name: Optional[str]) -> None:
    """Set a process-local backend override; ``None`` defers to the env."""
    global _backend_override
    if name is not None and name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}: expected one of {_BACKENDS}")
    _backend_override = name


def incremental_enabled() -> bool:
    if _incremental_override is not None:
        return _incremental_override
    return _env_incremental()


def set_incremental(enabled: Optional[bool]) -> None:
    """Set a process-local override; ``None`` defers to the environment."""
    global _incremental_override
    _incremental_override = None if enabled is None else bool(enabled)


def _env_static_verdict() -> bool:
    global _static_verdict_env_cache
    raw = os.environ.get("REPRO_STATIC_VERDICT")
    cached_raw, cached_value = _static_verdict_env_cache
    if raw == cached_raw:
        return cached_value
    value = True if raw is None else raw.strip() not in _FALSY
    _static_verdict_env_cache = (raw, value)
    return value


def static_verdict_enabled() -> bool:
    if _static_verdict_override is not None:
        return _static_verdict_override
    return _env_static_verdict()


def set_static_verdict(enabled: Optional[bool]) -> None:
    """Set a process-local override; ``None`` defers to the environment."""
    global _static_verdict_override
    _static_verdict_override = None if enabled is None else bool(enabled)


@contextmanager
def use_backend(name: str):
    """Temporarily select a relation backend (for tests and benchmarks)."""
    previous = _backend_override
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


@contextmanager
def use_incremental(enabled: bool):
    """Temporarily enable/disable incremental checking."""
    previous = _incremental_override
    set_incremental(enabled)
    try:
        yield
    finally:
        set_incremental(previous)


@contextmanager
def use_static_verdict(enabled: bool):
    """Temporarily enable/disable the symbolic verdict pre-pass."""
    previous = _static_verdict_override
    set_static_verdict(enabled)
    try:
        yield
    finally:
        set_static_verdict(previous)
