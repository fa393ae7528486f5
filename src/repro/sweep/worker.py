"""The sweep worker process: pull a job, run it, report back.

One worker owns two pipe endpoints handed to it by the broker: a task
connection it reads ``(index, attempt, job, faults)`` assignments from,
and a result connection it writes ``("done" | "failed" | "beat", ...)``
tuples to.  A worker serves many sweeps over its life (see
:class:`~repro.sweep.broker.WorkerPool`), so nothing sweep-specific is
fixed at spawn: the fault plan arrives with each assignment.

Per-worker pipes (instead of one shared ``multiprocessing.Queue``) are
a deliberate crash-isolation choice: when a worker is SIGKILLed the
worst it can corrupt is *its own* result pipe — the broker sees the EOF
or the short read, classifies the death, and respawns the slot with
fresh pipes, while every other worker's channel stays intact.

Failure classification happens here, at the raising site, where the
exception type is still known:

* :class:`~repro.sweep.faults.TransientJobError`, ``OSError`` and
  ``MemoryError`` report as ``transient`` — the broker retries them with
  backoff;
* everything else reports as ``deterministic`` — re-running the same
  pure function on the same spec would fail the same way, so the broker
  quarantines the job immediately.

A daemon heartbeat thread writes ``("beat", worker_id)`` every
``heartbeat_interval`` seconds while the worker holds a job (sharing the
result pipe under a lock — two threads writing one pipe unlocked would
interleave frames).  An idle worker stays silent, so a pool parked
between sweeps never fills a result pipe nobody reads.  A worker that stops beating while holding a job is, to the broker,
indistinguishable from a hung one — which is exactly the point: the
injected ``stall`` fault suppresses the heartbeat to rehearse the
silent-straggler re-dispatch path.
"""

from __future__ import annotations

import signal
import threading

from repro.sweep.faults import FaultInjector, TransientJobError

__all__ = ["worker_main", "DEFAULT_HEARTBEAT_INTERVAL"]

#: How often an alive worker proves it: small enough that the broker's
#: default deadline (see BrokerConfig) spans many missed beats.
DEFAULT_HEARTBEAT_INTERVAL = 0.2


def _heartbeat_loop(result_conn, send_lock, worker_id, interval, stop,
                    holding, suppress):
    while not stop.wait(interval):
        try:
            # Checked under the lock the report is sent under, so no beat
            # can follow a job's report onto the pipe.
            with send_lock:
                if holding.is_set() and not suppress.is_set():
                    result_conn.send(("beat", worker_id))
        except (BrokenPipeError, OSError):
            return  # broker is gone; the main loop will notice too


def worker_main(worker_id: int, task_conn, result_conn,
                heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL) -> None:
    """Process entry point: serve assignments until the None sentinel.

    SIGINT is ignored — interrupt handling (journal checkpoint, worker
    shutdown) belongs to the broker, and a Ctrl-C delivered to the whole
    process group must not take workers down mid-job before the broker
    has checkpointed.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Import here, not at module top: the worker only needs the (heavy)
    # engine stack once it actually runs, and keeping the import inside
    # makes the fork cheap even if this module is loaded early.
    from repro.sweep.executor import execute_work

    send_lock = threading.Lock()
    stop = threading.Event()
    holding = threading.Event()
    suppress = threading.Event()
    beat_thread = threading.Thread(
        target=_heartbeat_loop,
        args=(result_conn, send_lock, worker_id, heartbeat_interval,
              stop, holding, suppress),
        daemon=True,
    )
    beat_thread.start()

    try:
        while True:
            try:
                message = task_conn.recv()
            except (EOFError, OSError):
                return  # broker died; nothing to do but exit
            if message is None:
                return
            index, attempt, job, faults = message
            holding.set()
            try:
                FaultInjector.parse(faults).pre_job(index, attempt,
                                                    on_stall=suppress.set)
                outcome = execute_work(job)
            except TransientJobError as error:
                report = ("failed", worker_id, index, "transient", str(error))
            except (MemoryError, OSError) as error:
                report = ("failed", worker_id, index, "transient",
                          f"{type(error).__name__}: {error}")
            except Exception as error:  # noqa: BLE001 — classification boundary
                report = ("failed", worker_id, index, "deterministic",
                          f"{type(error).__name__}: {error}")
            else:
                report = ("done", worker_id, index, attempt, outcome)
            try:
                with send_lock:
                    holding.clear()
                    suppress.clear()
                    result_conn.send(report)
            except (BrokenPipeError, OSError):
                return
    finally:
        stop.set()
