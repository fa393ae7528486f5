"""Deterministic fault injection for the sweep broker/worker executor.

Every recovery path of :mod:`repro.sweep.broker` — crash retry, straggler
re-dispatch, transient backoff, deterministic quarantine, corrupt-entry
quarantine — is driven here so the chaos tests and the CI chaos gate can
trigger each one on an exact job at an exact attempt, with no timing
races and no randomness.

A fault plan is a semicolon-separated list of directives::

    kind@index[:count[:param]]

* ``kill@3``        — SIGKILL the executing worker before job 3 runs
  (first attempt only; ``kill@3:2`` kills the first two attempts).
* ``stall@5``       — suppress the worker's heartbeat and sleep, so the
  broker sees a silent straggler and re-dispatches after its deadline
  (``stall@5:1:30`` caps the sleep at 30 s).
* ``flaky@1:2``     — raise :class:`TransientJobError` on the first two
  attempts, then succeed: the retry/backoff path.
* ``poison@2``      — raise a deterministic error on every attempt: the
  quarantine path.
* ``corrupt@4``     — after job 4's result is stored, truncate its cache
  entry on disk: the next run/load exercises the cache's corrupt-entry
  quarantine.

The plan travels as plain text — the ``REPRO_FAULTS`` environment
variable or the ``faults=`` argument to ``run_sweep`` — and the broker
sends it with every job assignment, so a worker rebuilds the injector
from the assignment itself: the injector is a pure function of (job
index, attempt), and a pooled worker that serves several sweeps never
carries one sweep's plan into the next.  The attempt number in the
dispatch message is all the shared state the "fail N times then
succeed" faults need.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "FAULTS_ENV",
    "FaultSpec",
    "FaultInjector",
    "TransientJobError",
    "PoisonedJobError",
]

#: Environment variable carrying the fault plan (CLI, CI chaos job).
FAULTS_ENV = "REPRO_FAULTS"

_KINDS = ("kill", "stall", "flaky", "poison", "corrupt")

#: Default stall sleep; the broker's heartbeat deadline fires long before.
_DEFAULT_STALL_SECONDS = 600.0


class TransientJobError(RuntimeError):
    """A failure worth retrying (injected, or raised by a worker)."""


class PoisonedJobError(RuntimeError):
    """An injected deterministic failure: quarantine, don't retry."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed directive of a fault plan."""

    kind: str
    index: int
    count: int = 1
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {_KINDS}"
            )
        if self.index < 0:
            raise ValueError(f"fault index must be >= 0, got {self.index}")
        if self.count < 1:
            raise ValueError(f"fault count must be >= 1, got {self.count}")

    def fires(self, index: int, attempt: int) -> bool:
        """Does this directive trigger for (job index, attempt)?"""
        return index == self.index and attempt < self.count

    def text(self) -> str:
        parts = [f"{self.kind}@{self.index}"]
        if self.count != 1 or self.param is not None:
            parts.append(f":{self.count}")
        if self.param is not None:
            parts.append(f":{self.param:g}")
        return "".join(parts)


def _parse_directive(token: str) -> FaultSpec:
    head, sep, rest = token.partition("@")
    if not sep:
        raise ValueError(
            f"cannot parse fault {token!r}; expected kind@index[:count[:param]]"
        )
    fields = rest.split(":")
    if not 1 <= len(fields) <= 3:
        raise ValueError(f"cannot parse fault {token!r}: too many ':' fields")
    try:
        index = int(fields[0])
        count = int(fields[1]) if len(fields) > 1 else 1
        param = float(fields[2]) if len(fields) > 2 else None
    except ValueError:
        raise ValueError(
            f"cannot parse fault {token!r}: index/count/param must be numeric"
        ) from None
    return FaultSpec(kind=head.strip(), index=index, count=count, param=param)


class FaultInjector:
    """A parsed fault plan with the hooks broker and workers call."""

    def __init__(self, faults: tuple[FaultSpec, ...] = ()) -> None:
        self.faults = tuple(faults)

    @classmethod
    def parse(cls, text: str | None) -> "FaultInjector":
        """Parse a plan string; empty/None means no faults."""
        if not text or not text.strip():
            return cls()
        return cls(tuple(
            _parse_directive(token.strip())
            for token in text.split(";") if token.strip()
        ))

    @classmethod
    def from_env(cls, environ=None) -> "FaultInjector":
        return cls.parse((environ or os.environ).get(FAULTS_ENV))

    def text(self) -> str:
        """Round-trippable plan string."""
        return ";".join(fault.text() for fault in self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    # -- pure predicates (unit-testable without killing anything) ------

    def _firing(self, kind: str, index: int, attempt: int) -> FaultSpec | None:
        for fault in self.faults:
            if fault.kind == kind and fault.fires(index, attempt):
                return fault
        return None

    def kills(self, index: int, attempt: int) -> bool:
        return self._firing("kill", index, attempt) is not None

    def stalls(self, index: int, attempt: int) -> FaultSpec | None:
        return self._firing("stall", index, attempt)

    def corrupts(self, index: int, attempt: int) -> bool:
        return self._firing("corrupt", index, attempt) is not None

    # -- worker-side hook ----------------------------------------------

    def pre_job(self, index: int, attempt: int,
                on_stall: Callable[[], None] | None = None) -> None:
        """Fire any fault planned for this (job, attempt) — called in the
        worker immediately before execution.

        ``on_stall`` runs before the stall sleep (the worker uses it to
        suppress its heartbeat, making the stall *silent*).
        """
        if self.kills(index, attempt):
            os.kill(os.getpid(), signal.SIGKILL)
        stall = self.stalls(index, attempt)
        if stall is not None:
            if on_stall is not None:
                on_stall()
            time.sleep(stall.param or _DEFAULT_STALL_SECONDS)
            raise TransientJobError(
                f"injected stall on job {index} attempt {attempt} outlived "
                "its sleep without being re-dispatched"
            )
        if self._firing("flaky", index, attempt) is not None:
            raise TransientJobError(
                f"injected transient failure on job {index} attempt {attempt}"
            )
        if self._firing("poison", index, attempt) is not None:
            raise PoisonedJobError(f"injected deterministic failure on job {index}")

    # -- broker-side hook ----------------------------------------------

    def post_store(self, index: int, attempt: int, path) -> bool:
        """Truncate a just-stored cache entry if a corrupt fault fires.

        Returns True when the entry was corrupted (so the broker can log
        it).  Truncating to half leaves a well-formed-looking but
        unpicklable file — the realistic torn-write shape.
        """
        if not self.corrupts(index, attempt) or path is None:
            return False
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(max(1, size // 2))
        except OSError:
            return False
        return True
