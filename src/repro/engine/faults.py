"""Deterministic fault injection for the experiment engine.

The chaos suite needs to *prove* the supervisor's recovery paths — not
hope they work — so every fault here is planned, seeded, and named.  A
:class:`FaultPlan` is an immutable, picklable value constructed up
front; the supervisor ships it to every worker it spawns, and both
sides consult it at fixed injection points:

worker side (``supervisor.worker_main``), per ``(request key, attempt)``:

* ``crash``  — the worker process dies abruptly (``os._exit``), the
  moral equivalent of a segfault or the OOM killer;
* ``hang``   — the worker sleeps ``hang_seconds`` before proceeding, a
  pathological-CFG stand-in that only a timeout can catch;
* ``raise``  — a transient :class:`InjectedFault` exception travels the
  normal error channel.

supervisor side:

* ``spawn_failures``  — the first N worker spawns fail, driving the
  pool-unhealthy → serial-fallback path;
* ``interrupt_after`` — a ``KeyboardInterrupt`` fires after N results
  have been delivered, driving the prompt-termination path.

cache side (:func:`corrupt_cache_entry`): four named corruption kinds —
``truncate``, ``flip``, ``wrong_key``, ``bad_checksum`` — each defeating
a different layer of the :class:`~repro.engine.cache.ResultCache`
envelope.

Everything is deterministic given the plan; :meth:`FaultPlan.seeded`
derives a plan from a seed and a key list so the chaos suite can state
its expected counters *before* the run and reconcile after.

Injection stops at the engine: the allocation server above it has no
fault hooks.  The server survives what happens to its workers; a
failure of the server process itself is answered by clients
reconnecting (:class:`~repro.serve.client.ResilientClient`), not by
the server (see ``docs/robustness.md``).
"""

from __future__ import annotations

import hashlib
import pickle
import random
from dataclasses import dataclass, field, replace

#: worker-side fault kinds
CRASH = "crash"
HANG = "hang"
RAISE = "raise"

#: the exit code an injected crash dies with (recognizably not a signal)
CRASH_EXIT_CODE = 71

#: cache corruption kinds understood by :func:`corrupt_cache_entry`
CORRUPTION_KINDS = ("truncate", "flip", "wrong_key", "bad_checksum")


class InjectedFault(RuntimeError):
    """A planned transient failure (the ``raise`` fault kind)."""


@dataclass(frozen=True)
class FaultPlan:
    """A complete, picklable description of every fault to inject.

    Attributes:
        worker_faults: ``(request key, attempt)`` → fault kind for
            one-shot faults (attempts are 1-based, matching
            :class:`~repro.engine.supervisor.ExperimentFailure.attempts`).
        poison: request keys that crash on *every* attempt — these must
            exhaust the retry budget and come back quarantined.
        hang_seconds: how long a ``hang`` fault sleeps.  Keep it well
            above the supervisor timeout under test; a hang that
            outlives its worker is simply never observed.
        spawn_failures: how many initial worker spawns the supervisor
            must treat as failed (``OSError``-equivalent).
        interrupt_after: raise ``KeyboardInterrupt`` in the supervisor
            once this many results have been delivered (``None`` — never).
    """

    worker_faults: dict[tuple[str, int], str] = field(default_factory=dict)
    poison: frozenset[str] = frozenset()
    hang_seconds: float = 30.0
    spawn_failures: int = 0
    interrupt_after: int | None = None

    def worker_action(self, key: str, attempt: int) -> str | None:
        """The fault a worker must inject for (*key*, *attempt*), if any."""
        if key in self.poison:
            return CRASH
        return self.worker_faults.get((key, attempt))

    def fault_keys(self) -> set[str]:
        """Every request key the plan touches on the worker side."""
        return {key for key, _ in self.worker_faults} | set(self.poison)

    @staticmethod
    def seeded(keys: list[str], seed: int = 0, crashes: int = 0,
               hangs: int = 0, raises: int = 0, poison: int = 0,
               hang_seconds: float = 30.0) -> "FaultPlan":
        """Derive a plan from *seed*: disjoint victim sets, first-attempt
        faults for the transient kinds, permanent crashes for poison."""
        unique = sorted(set(keys))
        need = crashes + hangs + raises + poison
        if need > len(unique):
            raise ValueError(f"plan wants {need} victims from "
                             f"{len(unique)} distinct keys")
        rng = random.Random(seed)
        victims = rng.sample(unique, need)
        worker_faults: dict[tuple[str, int], str] = {}
        cursor = 0
        for kind, count in ((CRASH, crashes), (HANG, hangs),
                            (RAISE, raises)):
            for key in victims[cursor:cursor + count]:
                worker_faults[(key, 1)] = kind
            cursor += count
        return FaultPlan(worker_faults=worker_faults,
                         poison=frozenset(victims[cursor:]),
                         hang_seconds=hang_seconds)

    def describe(self) -> dict[str, int]:
        """The plan's expected-counter shape (for reconciliation)."""
        kinds = {CRASH: 0, HANG: 0, RAISE: 0}
        for (_, _), kind in self.worker_faults.items():
            kinds[kind] += 1
        return {"crashes": kinds[CRASH], "hangs": kinds[HANG],
                "raises": kinds[RAISE], "poison": len(self.poison),
                "spawn_failures": self.spawn_failures}

    def with_interrupt_after(self, n: int) -> "FaultPlan":
        return replace(self, interrupt_after=n)


def corrupt_cache_entry(cache, key: str, kind: str) -> None:
    """Damage the cache entry for *key* in a named way.

    ``truncate`` cuts the file mid-payload, ``flip`` inverts one payload
    byte (defeating the checksum), ``wrong_key`` rebuilds a *valid*
    envelope whose summary carries a different key (defeating the key
    check alone), and ``bad_checksum`` zeroes the stored digest.  The
    entry must exist; every kind must read back as a miss and land in
    ``quarantine/`` exactly once.
    """
    from .cache import DIGEST_SIZE, MAGIC

    path = cache.locate(key)
    assert path is not None, f"no cache entry to corrupt for {key}"
    data = path.read_bytes()
    header = len(MAGIC) + DIGEST_SIZE
    if kind == "truncate":
        path.write_bytes(data[:header + max(1, (len(data) - header) // 2)])
    elif kind == "flip":
        body = bytearray(data)
        body[-1] ^= 0xFF
        path.write_bytes(bytes(body))
    elif kind == "wrong_key":
        summary = pickle.loads(data[header:])
        wrong = replace_key(summary, "0" * 64)
        payload = pickle.dumps(wrong, protocol=pickle.HIGHEST_PROTOCOL)
        path.write_bytes(MAGIC + hashlib.sha256(payload).digest() + payload)
    elif kind == "bad_checksum":
        path.write_bytes(MAGIC + b"\x00" * DIGEST_SIZE + data[header:])
    else:
        raise ValueError(f"unknown corruption kind {kind!r} "
                         f"(one of {CORRUPTION_KINDS})")


def replace_key(summary, key: str):
    """A copy of *summary* claiming to answer a different request."""
    import dataclasses

    return dataclasses.replace(summary, key=key)
