"""Parallel experiment execution.

Every paper figure is a sweep of 8–20 *independent* ``run_experiment``
calls, and every Figure 1 fleet is thousands more, so both fan out to
a :class:`~concurrent.futures.ProcessPoolExecutor`.  One private loop,
:func:`_ordered`, does that fan-out; three entry points wrap it:

- :func:`run_many` — a sweep: cache hits are settled up front, the
  misses are grouped by :func:`~repro.core.experiment.solve_key`, one
  run per group is submitted at once, and a list of
  :class:`RunOutcome` (one per config) comes back;
- :func:`run_stream` — the constant-memory sibling: configs are drawn
  lazily, at most a bounded window (default ``2 × workers``) of runs
  is in flight or buffered, and outcomes are yielded one at a time.
  It drives the million-host fleet pipeline
  (:meth:`repro.workload.fleet.FleetSampler.run_aggregate`), where the
  parent folds every outcome into a mergeable aggregate and drops it;
- :func:`map_stream` — the same loop over any picklable function and
  argument tuples, without lifecycle events (the batched fleet
  backend's index ranges).

The ordering rule is the same for all three: **events in completion
order, results in submission order**.  The loop's completion hook —
cache put, ``finished``/``failed`` event, ``progress`` — runs as each
task finishes, so dashboards and ledgers see work as it completes;
results are reassembled in submission order, so a
:class:`~repro.core.results.ResultTable` matches the serial runner row
for row.  Output stays bit-identical to a serial run because each run
derives **all** randomness from its own ``config.sim.seed`` (a fresh
``Simulator`` + ``RngRegistry`` per run, no module-level RNG) and
pickling is exact for floats.  Serial execution (``workers=1``) runs
the same task function in-process — one code shape, one set of
semantics.

Failure semantics: a worker exception aborts the sweep with a
:class:`SweepRunError` carrying the offending config — unless
``failures="keep"``, which instead yields a structured
:class:`~repro.core.results.FailedRun` (exception class + truncated
traceback attached).  A per-run *timeout* always yields a ``FailedRun``
placeholder, so one pathological operating point cannot sink a 20-run
figure sweep.  Any exception — including a consumer abandoning a
stream — cancels the queued work.

Live telemetry: pass ``events`` (any callable taking a dict) and the
runner streams lifecycle events — ``plan``, ``queued``, ``cached``,
``started``, ``finished``, ``failed`` — as they happen.  ``started``
originates *inside* the worker process and travels over a managed
multiprocessing queue that exists only while a sink is attached; with
``events=None`` (the default) no queue, no manager process, and no
per-run stats collection happen at all.  Event dicts are exactly the
rows of the JSONL run ledger (:mod:`repro.core.ledger`) and the input
to :class:`~repro.obs.telemetry.RunAggregate`.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import signal
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.cache import ResultCache
from repro.core.config import ExperimentConfig
from repro.core.experiment import run_experiment, solve_key
from repro.core.results import ExperimentResult, FailedRun

__all__ = [
    "RunOutcome",
    "SweepRunError",
    "map_stream",
    "resolve_workers",
    "run_many",
    "run_stream",
]

Workers = Union[int, str, None]
EventSink = Callable[[Dict], None]

#: result.metrics keys copied into ``finished``/``cached`` events for
#: live sketches — the headline observables of the paper.
_HEADLINE_METRICS = ("app_throughput_gbps", "drop_rate",
                     "link_utilization")


class SweepRunError(RuntimeError):
    """A sweep run raised: carries the offending config and its index."""

    def __init__(self, index: int, config: ExperimentConfig,
                 message: str, worker_traceback: str = ""):
        super().__init__(
            f"sweep run #{index} failed: {message} "
            f"(config: {config.describe()})")
        self.index = index
        self.config = config
        self.worker_traceback = worker_traceback


@dataclass(frozen=True)
class RunOutcome:
    """One finished run: its table position, result, and provenance."""

    index: int
    result: ExperimentResult
    #: Full metrics-registry snapshot, when requested (or cached).
    snapshot: Optional[dict]
    #: True when the result came from the on-disk cache, not a run.
    cached: bool = False


def resolve_workers(workers: Workers) -> int:
    """Normalize a ``workers`` argument to a concrete process count.

    ``None``/``0``/``1`` mean serial; ``"auto"`` resolves to
    ``os.cpu_count() - 1`` (never below 1) so a sweep leaves one core
    for the parent and the rest of the machine.
    """
    if workers is None or workers == 0:
        return 1
    if workers == "auto":
        return max(1, (os.cpu_count() or 2) - 1)
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    return count


class _RunTimeout(Exception):
    """Internal: raised by the SIGALRM handler inside a worker."""


def _raise_timeout(signum, frame):
    raise _RunTimeout()


#: Event channel of the running task: the parent's sink while a serial
#: task runs in-process, a managed queue's ``put`` in a pool worker
#: (installed by :func:`_init_worker`).  ``None`` means silent — the
#: default, and the entire cost when telemetry is off.
_EVENT_SINK: Optional[EventSink] = None


def _attach(sink: Optional[EventSink]) -> Optional[EventSink]:
    """Install ``sink`` as this process's event channel; return the
    one it replaces."""
    global _EVENT_SINK
    previous, _EVENT_SINK = _EVENT_SINK, sink
    return previous


def _init_worker(queue) -> None:
    _attach(queue.put)


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return None


def _headline(result: ExperimentResult) -> Dict[str, float]:
    return {key: result.metrics[key] for key in _HEADLINE_METRICS
            if key in result.metrics}


def _execute(index: int, config: ExperimentConfig, want_snapshot: bool,
             timeout: Optional[float], fabric_profile=None) -> tuple:
    """Run one experiment — the task function of every run, pooled or
    serial.  ``fabric_profile`` is a fluid solve key's profile, so the
    solve does not derive it again (see :func:`run_many`).

    Returns one of ``("ok", result, snapshot, stats)``,
    ``("timeout", failed_run, stats)``, or
    ``("error", message, traceback_text, exception_type, stats)``.
    Exceptions never escape: they are serialized so the parent can
    attach the config.  ``stats`` is ``None`` unless an event channel
    is attached (:data:`_EVENT_SINK`) — telemetry off means zero extra
    work here.
    """
    sink = _EVENT_SINK
    if sink is not None:
        sink({"ev": "started", "index": index, "pid": os.getpid(),
              "ts": time.time()})
    start = time.perf_counter()

    def stats_for(handles: list) -> Optional[dict]:
        if sink is None:
            return None
        stats = {"wall_s": time.perf_counter() - start,
                 "pid": os.getpid(), "ts": time.time(),
                 "peak_rss_kb": _peak_rss_kb()}
        if handles:
            stats["sim_s"] = handles[0].now
            stats["engine_events"] = handles[0].events_dispatched
        return stats

    # Enforce the per-run timeout with a real interval timer where the
    # platform has one (ProcessPoolExecutor workers are single-threaded
    # main threads, so SIGALRM is safe); elsewhere fall back to a
    # post-hoc wall-clock check.
    arm = timeout is not None and hasattr(signal, "SIGALRM")
    handles: list = []
    try:
        if arm:
            previous = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            result = run_experiment(config, handle_out=handles,
                                    fabric_profile=fabric_profile)
            snapshot = (handles[0].metrics_snapshot()
                        if want_snapshot else None)
        finally:
            if arm:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
    except _RunTimeout:
        elapsed = time.perf_counter() - start
        failed = FailedRun.from_config(
            config, kind="timeout",
            error=f"run exceeded {timeout:g}s timeout",
            elapsed_s=elapsed)
        return ("timeout", failed, stats_for(handles))
    except Exception as exc:  # serialized for the parent to attach config
        return ("error", repr(exc), traceback.format_exc(),
                type(exc).__name__, stats_for(handles))
    elapsed = time.perf_counter() - start
    if timeout is not None and not arm and elapsed > timeout:
        failed = FailedRun.from_config(
            config, kind="timeout",
            error=f"run exceeded {timeout:g}s timeout", elapsed_s=elapsed)
        return ("timeout", failed, stats_for(handles))
    return ("ok", result, snapshot, stats_for(handles))


def _shared(payload: tuple, config: ExperimentConfig,
            solved_by: int) -> tuple:
    """An :func:`_execute` payload of run ``solved_by``, made
    ``config``'s own: the two configs share a
    :func:`~repro.core.experiment.solve_key`, so only the ``params``
    labels differ.

    The result (or failure) and snapshot are copies carrying
    ``config``'s params.  Stats, when telemetry is on, name the run
    reused and time nothing, so each run is timed once.
    """
    kind, stats = payload[0], payload[-1]
    if stats is not None:
        stats = {"solved_by": solved_by, "ts": time.time()}
    if kind == "error":
        return payload[:-1] + (stats,)
    if kind == "timeout":
        failed = replace(payload[1],
                         params={**config.describe(), "failed": True})
        return ("timeout", failed, stats)
    _, result, snapshot, _ = payload
    result = replace(result, params=config.describe(),
                     metrics=dict(result.metrics),
                     message_latency_us=dict(result.message_latency_us))
    if snapshot is not None:
        snapshot = copy.deepcopy(snapshot)
        snapshot["meta"]["params"] = config.describe()
    return ("ok", result, snapshot, stats)


def _settler(
    events: Optional[EventSink],
    failures: str,
    *,
    cache: Optional[ResultCache] = None,
    want_snapshots: bool = False,
    progress: Optional[Callable[[int, ExperimentResult], None]] = None,
) -> Callable[[tuple, tuple], RunOutcome]:
    """The completion hook of :func:`run_many` and :func:`run_stream`.

    The returned ``settle(task, payload)`` converts an :func:`_execute`
    payload into a :class:`RunOutcome`: it emits the
    ``finished``/``failed`` lifecycle event, stores successes in the
    cache, calls ``progress`` — and, under ``failures="raise"``,
    raises :class:`SweepRunError` with the offending config attached.
    """
    if failures not in ("raise", "keep"):
        raise ValueError(
            f"failures must be 'raise' or 'keep', got {failures!r}")

    def settle(task: tuple, payload: tuple) -> RunOutcome:
        index, config = task[0], task[1]
        kind = payload[0]
        if kind == "error":
            _, message, tb_text, exc_type, stats = payload
            if events is not None:
                events({"ev": "failed", "index": index,
                        "failure_kind": "error", "error": message,
                        "exception_type": exc_type,
                        "traceback_tail":
                            tb_text[-FailedRun.TRACEBACK_LIMIT:],
                        **(stats or {"ts": time.time()})})
            if failures == "raise":
                raise SweepRunError(index, config, message,
                                    worker_traceback=tb_text)
            failed = FailedRun.from_config(
                config, kind="error", error=message,
                elapsed_s=(stats or {}).get("wall_s", 0.0),
                exception_type=exc_type, traceback_text=tb_text)
            outcome = RunOutcome(index=index, result=failed,
                                 snapshot=None)
        elif kind == "timeout":
            _, failed, stats = payload
            if events is not None:
                events({"ev": "failed", "index": index,
                        "failure_kind": "timeout", "error": failed.error,
                        **(stats or {"ts": time.time()})})
            outcome = RunOutcome(index=index, result=failed,
                                 snapshot=None)
        else:
            _, result, snapshot, stats = payload
            if cache is not None:
                cache.put(config, result, snapshot)
            if events is not None:
                events({"ev": "finished", "index": index,
                        "params": config.describe(),
                        "metrics": _headline(result),
                        **(stats or {"ts": time.time()})})
            outcome = RunOutcome(
                index=index, result=result,
                snapshot=snapshot if want_snapshots else None)
        if progress is not None:
            progress(index, outcome.result)
        return outcome

    return settle


def _result(task: tuple, result):
    return result


def _ordered(
    fn: Callable,
    tasks: Iterable[tuple],
    workers: Workers,
    window: Optional[int] = None,
    events: Optional[EventSink] = None,
    on_done: Callable[[tuple, object], object] = _result,
) -> Iterator:
    """Yield ``on_done(task, fn(*task))`` for every task, in task order.

    The one execution loop behind :func:`run_many`, :func:`run_stream`
    and :func:`map_stream`.  ``tasks`` is drawn lazily and at most
    ``window`` tasks (default ``2 * workers``; never more workers than
    the window) are in flight or buffered at any moment, so parent
    memory is bounded by the window, never the task count.
    ``on_done`` runs as each task finishes — in completion order under
    a pool — and its return value is what is yielded, in submission
    order.  Submission tops up before each yield, so the pool keeps
    working while the consumer holds a result, but never runs more
    than the window ahead of it.

    ``events`` attaches the task-side event channel
    (:data:`_EVENT_SINK`): the sink itself around each in-process
    task, or a manager queue that every pool worker writes and the
    parent drains between completions.  Any exception — from ``fn``,
    from ``on_done``, or the consumer abandoning the generator —
    cancels the queued tasks before it propagates.
    """
    n_workers = resolve_workers(workers)
    window = 2 * n_workers if window is None else int(window)
    n_workers = max(1, min(n_workers, window))
    if n_workers == 1:
        for task in tasks:
            previous = _attach(events)
            try:
                result = fn(*task)
            finally:
                _attach(previous)
            yield on_done(task, result)
        return

    manager = queue = None
    pool_args: dict = {}
    try:
        if events is not None:
            manager = multiprocessing.Manager()
            queue = manager.Queue()
            pool_args = {"initializer": _init_worker,
                         "initargs": (queue,)}
        # With a queue to drain, wake up periodically even when no
        # task completes, so in-worker ``started`` events flow live.
        poll = None if queue is None else 0.2

        def drain() -> None:
            while queue is not None and not queue.empty():
                events(queue.get_nowait())

        tasks = iter(tasks)
        in_flight: Dict = {}            # future -> (position, task)
        ready: Dict[int, object] = {}   # position -> on_done value
        submitted = next_yield = 0

        def top_up() -> None:
            nonlocal submitted
            while len(in_flight) + len(ready) < window:
                task = next(tasks, None)
                if task is None:
                    return
                in_flight[pool.submit(fn, *task)] = (submitted, task)
                submitted += 1

        pool = ProcessPoolExecutor(max_workers=n_workers, **pool_args)
        try:
            top_up()
            while in_flight or ready:
                if next_yield in ready:
                    value = ready.pop(next_yield)
                    next_yield += 1
                    top_up()
                    yield value
                    continue
                done, _ = wait(in_flight, timeout=poll,
                               return_when=FIRST_COMPLETED)
                drain()
                for future in done:
                    position, task = in_flight.pop(future)
                    ready[position] = on_done(task, future.result())
        except BaseException:
            # A failed task, Ctrl-C, or an abandoned stream: drop the
            # queued work so it never runs.  No second shutdown may
            # follow — it would clear the cancel request before the
            # executor acts on it, so this is not a ``with`` block.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
        drain()
    finally:
        if manager is not None:
            manager.shutdown()


def run_many(
    configs: Iterable[ExperimentConfig],
    *,
    workers: Workers = None,
    timeout: Optional[float] = None,
    want_snapshots: bool = False,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, ExperimentResult], None]] = None,
    events: Optional[EventSink] = None,
    failures: str = "raise",
) -> List[RunOutcome]:
    """Run every config and return outcomes in input order.

    Cache hits are settled (``cached`` events, ``progress``) before
    any run starts; every miss is then submitted at once, so one slow
    run cannot hold back the rest of the sweep.  Misses with equal
    :func:`~repro.core.experiment.solve_key` (fluid seed repeats whose
    routing hash gives one fabric profile) run once, as the group's
    first index, and every other member settles a copy labelled with
    its own params: its own outcome, snapshot, cache entry,
    ``progress`` call and ``finished``/``failed`` event (which carries
    ``solved_by``, the index run, and no timings).  Nothing is kept
    past the call.  ``progress`` is invoked once per config with its
    table index and result — in completion order under a pool, which
    is table order only for serial execution.

    ``events`` receives lifecycle event dicts (see module docstring) as
    they happen; ``None`` disables all telemetry work.  ``failures``
    selects crash semantics: ``"raise"`` aborts the sweep with
    :class:`SweepRunError`; ``"keep"`` records a structured
    :class:`FailedRun` row and keeps sweeping.
    """
    settle = _settler(events, failures, cache=cache,
                      want_snapshots=want_snapshots, progress=progress)
    configs = list(configs)
    outcomes: List[Optional[RunOutcome]] = [None] * len(configs)

    pending: List[int] = []
    cached_hits: List[Tuple[int, RunOutcome]] = []
    for index, config in enumerate(configs):
        hit = (cache.get(config, want_snapshot=want_snapshots)
               if cache is not None else None)
        if hit is not None:
            outcomes[index] = RunOutcome(
                index=index, result=hit.result,
                snapshot=hit.snapshot if want_snapshots else None,
                cached=True)
            cached_hits.append((index, outcomes[index]))
        else:
            pending.append(index)

    if events is not None:
        events({"ev": "plan", "total": len(configs),
                "pending": len(pending), "cached": len(cached_hits),
                "ts": time.time()})
        for index in pending:
            events({"ev": "queued", "index": index,
                    "params": configs[index].describe(),
                    "ts": time.time()})
    for index, outcome in cached_hits:
        if events is not None:
            events({"ev": "cached", "index": index,
                    "params": configs[index].describe(),
                    "metrics": _headline(outcome.result),
                    "ts": time.time()})
        if progress is not None:
            progress(index, outcome.result)

    # Misses with one solve key run once, as the group's first index;
    # every other member settles its own copy of that run.
    groups: Dict[Hashable, List[int]] = {}
    for index in pending:
        groups.setdefault(solve_key(configs[index]), []).append(index)
    members = {group[0]: group for group in groups.values()}

    def settle_group(task: tuple, payload: tuple) -> List[RunOutcome]:
        first = task[0]
        return [settle(task, payload)] + [
            settle((index, configs[index]),
                   _shared(payload, configs[index], first))
            for index in members[first][1:]]

    # Snapshots are computed in-worker whenever they are wanted *or*
    # cached, so a later `--metrics-out` rerun can hit the same entry.
    want = want_snapshots or cache is not None
    # A fluid key is (normalized config, fabric profile): the
    # representative's solve reuses the profile the key computed.
    tasks = [(group[0], configs[group[0]], want, timeout,
              key[1] if configs[group[0]].fidelity == "fluid" else None)
             for key, group in groups.items()]
    for group in _ordered(_execute, tasks, workers, len(tasks),
                          events, settle_group):
        for outcome in group:
            outcomes[outcome.index] = outcome
    return outcomes  # type: ignore[return-value]


def run_stream(
    configs: Iterable[ExperimentConfig],
    *,
    workers: Workers = None,
    timeout: Optional[float] = None,
    events: Optional[EventSink] = None,
    failures: str = "keep",
    window: Optional[int] = None,
    start_index: int = 0,
) -> Iterator[RunOutcome]:
    """Stream outcomes for a lazily-drawn config sequence.

    The constant-memory sibling of :func:`run_many`: ``configs`` is
    consumed incrementally (never materialized), at most ``window``
    runs are in flight or buffered at any moment (default
    ``2 * workers``), and outcomes are yielded **in submission order**
    — parent memory is independent of the stream length.  Outcome
    indices count from ``start_index`` (a sharded caller passes its
    shard's global offset, so ledger rows carry fleet-wide host
    indices).

    ``failures`` defaults to ``"keep"`` — one pathological host in a
    million-host stream yields a structured :class:`FailedRun` outcome
    instead of sinking the run; pass ``"raise"`` for
    :func:`run_many`-style abort semantics.  There is no cache or
    snapshot plumbing here: a streaming consumer folds each outcome
    and drops it, so memoizing per-run payloads would defeat the
    point.
    """
    settle = _settler(events, failures)
    tasks = ((index, config, False, timeout)
             for index, config in enumerate(configs, start=start_index))
    return _ordered(_execute, tasks, workers, window, events, settle)


def map_stream(
    fn: Callable,
    tasks: Iterable[tuple],
    *,
    workers: Workers = None,
    window: Optional[int] = None,
) -> Iterator[Tuple[int, object]]:
    """Stream ``fn(*args)`` results over a lazy task sequence, in order.

    The task-shaped sibling of :func:`run_stream`, for callers whose
    unit of work is *not* one experiment config — e.g. the batched
    fleet backend, whose tasks are whole index ranges.  ``fn`` must be
    a module-level (picklable) callable and ``tasks`` an iterable of
    argument tuples; yields ``(position, fn(*args))`` in submission
    order with at most ``window`` tasks in flight or buffered
    (default ``2 * workers``).

    Failure semantics are the caller's: an exception raised by ``fn``
    propagates (cancelling queued tasks), so a fault-tolerant caller
    catches inside ``fn`` and returns a structured failure value
    instead.
    """
    return enumerate(_ordered(fn, tasks, workers, window))
