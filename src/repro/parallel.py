"""Process-pool execution helpers for embarrassingly parallel studies.

Fault campaigns, Monte-Carlo variation studies and parameter sweeps all
reduce to "map a pure function over a list of picklable work items".
:func:`parallel_map` is the one shared implementation: chunked
process-pool fan-out with *fault-tolerant* degradation, so callers never
have to special-case platforms where multiprocessing is unavailable,
restricted (sandboxes, some CI runners), not worth it (single-core
hosts, tiny work lists) — or partially broken at runtime (a crashing
worker, a poisoned item, a hung process).

Failure handling is per *chunk*, never per map: when a chunk fails or
hangs, every other chunk's results are salvaged and only the affected
items are rerun in-process (serially), so one bad item costs its chunk a
retry instead of discarding all completed work.  The degradation ladder
for a chunk is:

1. **retry** — a failed chunk is resubmitted to the pool up to
   ``max_chunk_retries`` times with linear backoff (transient worker
   deaths, OOM-killed processes);
2. **isolated rerun** — a chunk that keeps failing (or whose pool
   became unusable, or that was cancelled before starting when a hang
   was declared) reruns item by item, which isolates *which* item is at
   fault.  With a ``chunk_timeout`` in force each item runs alone in a
   fresh single-worker pool, so an item that crashes its interpreter or
   hangs is identified without taking the parent process down with it;
   without one (or where pools are unavailable) the rerun happens
   in-process and reproduces a genuine ``func`` error deterministically;
3. **structured failure** — with ``on_error="return"`` an item that
   still fails (or whose worker hung past ``chunk_timeout``) yields a
   :class:`MapFailure` in its result slot instead of poisoning the map.

Work functions must be module-level (picklable) and should be pure:
item in, result out, no shared state.  Results are always returned in
input order regardless of completion order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: A chunk's identity inside one map call: ``(start, stop)`` item span.
_Span = Tuple[int, int]


def default_workers() -> int:
    """Worker count used when the caller does not specify one."""
    return max(os.cpu_count() or 1, 1)


def balanced_chunk_size(total: int, workers: Optional[int] = None,
                        oversubscribe: int = 4) -> int:
    """Work-stealing-ish chunk size: several chunks per worker.

    :func:`parallel_map`'s default splits the items evenly, one chunk
    per worker — minimal pickling overhead, but one slow chunk leaves
    the other workers idle at the tail.  Cutting ``oversubscribe``
    chunks per worker lets the pool's natural first-free-worker
    scheduling rebalance load: a worker that drew easy defects takes
    more chunks while a slow one finishes its first.  Smaller chunks
    also tighten the salvage/timeout blast radius (a crash or hang
    costs ``1/oversubscribe`` as many items).  The campaign service
    uses this for every sharded job; plain ``parallel_map`` callers
    keep the even split unless they opt in.
    """
    workers = workers if workers else default_workers()
    if total <= 0:
        return 1
    return max(1, (total + workers * oversubscribe - 1)
               // (workers * oversubscribe))


@dataclass
class MapFailure:
    """Structured per-item failure, returned in place of a result.

    Produced only under ``on_error="return"``; callers distinguish real
    results from failures with ``isinstance(value, MapFailure)``.  The
    ``stage`` tells where the item died:

    * ``"serial"`` — ``func(item)`` raised (in the parent process or in
      an isolated rerun worker), so the error is deterministic and
      ``error`` is its message;
    * ``"crash"`` — the item killed its worker process outright (its
      isolated single-worker pool broke with no exception from
      ``func``), so there is no Python error to report;
    * ``"timeout"`` — the item's chunk (or its isolated rerun) was
      still running when the liveness timeout fired; the worker was
      abandoned and the item was *not* rerun in-process (rerunning a
      hanging item would hang the parent too).
    """

    index: int
    item: Any
    error: str
    error_type: str
    stage: str
    attempts: int = 1

    def __str__(self) -> str:
        return (f"item {self.index} failed during {self.stage} stage "
                f"after {self.attempts} attempt(s): "
                f"{self.error_type}: {self.error}")


class MapTimeoutError(TimeoutError):
    """Raised (under ``on_error="raise"``) when worker chunks hang.

    Carries the :class:`MapFailure` entries of every item belonging to a
    hung chunk in :attr:`failures`.
    """

    def __init__(self, failures: Sequence[MapFailure]):
        self.failures = list(failures)
        items = ", ".join(str(f.index) for f in self.failures)
        super().__init__(
            f"{len(self.failures)} item(s) hung past the chunk timeout "
            f"(indices: {items})")


def _chunked(items: Sequence[T], chunk_size: int) -> List[List[T]]:
    return [list(items[i:i + chunk_size])
            for i in range(0, len(items), chunk_size)]


def _run_chunk(payload):
    """Module-level chunk worker (must be picklable for the pool)."""
    func, chunk = payload
    return [func(item) for item in chunk]


def parallel_map(func: Callable[[T], R], items: Sequence[T], *,
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 serial: bool = False,
                 progress: Optional[Callable[[int, int], None]] = None,
                 chunk_timeout: Optional[float] = None,
                 max_chunk_retries: int = 1,
                 retry_backoff: float = 0.1,
                 on_error: str = "raise",
                 on_result: Optional[Callable[[int, Any], None]] = None,
                 metrics: Optional[Any] = None
                 ) -> List[R]:
    """Map ``func`` over ``items``, fanning out to a process pool.

    ``workers`` defaults to the machine's CPU count; ``chunk_size``
    defaults to an even split across workers (chunking amortises the
    per-task pickling overhead, which matters because one DC solve is
    only a few milliseconds).  ``serial=True`` forces the in-process
    path, as do single-worker counts and short work lists.

    ``progress`` (when given) is called as ``progress(done, total)``
    from the parent process after every finalized item; ``done`` counts
    completions (chunks finish out of order) and is **monotonic** across
    every fallback stage — salvaged chunk results are never re-counted
    when the remainder of a map reruns serially.  ``on_result`` (when
    given) is called as ``on_result(index, value)`` from the parent
    process the moment an item's value is final (a campaign writes each
    finished unit's records to its result store from it); like
    ``progress`` it fires in completion order, not index order, and
    ``value`` may be a :class:`MapFailure` under ``on_error="return"``.
    Results are still returned in input order.

    Fault tolerance (see the module docstring for the full ladder):

    * ``chunk_timeout`` — liveness window in seconds.  If *no* chunk
      completes for this long, still-queued chunks are cancelled and
      rerouted to the isolated rerun while the chunks actually running
      are declared hung: their workers are abandoned (and terminated
      where the platform allows) and their items fail with
      ``stage="timeout"``.  It also arms the isolated rerun itself, so
      a hanging or crashing item that a broken pool dumped into the
      leftover set is caught there instead of wedging the parent.
      ``None`` waits forever (the pre-existing behaviour).
    * ``max_chunk_retries`` / ``retry_backoff`` — bounded resubmissions
      of a failed chunk before its items fall back to the rerun; the
      backoff sleep is ``retry_backoff * attempt`` seconds.
    * ``on_error`` — ``"raise"`` (default) re-raises an item's error in
      the parent during the rerun, exactly where the legacy whole-map
      fallback would have raised it; ``"return"`` records a
      :class:`MapFailure` in the item's result slot and keeps going.
      Hung items raise :class:`MapTimeoutError` under ``"raise"``.

    ``metrics`` (duck-typed on
    :class:`~repro.telemetry.MetricsRegistry`) counts fault-tolerance
    events: ``parallel.chunk_retries``, ``parallel.chunks_hung`` and
    ``parallel.items_isolated``.  Counters are only created when such
    an event actually happens, so a healthy run leaves the registry
    untouched (and serial/parallel campaign snapshots stay identical).
    """
    items = list(items)
    total = len(items)
    if on_error not in ("raise", "return"):
        raise ValueError(
            f"on_error must be 'raise' or 'return', got {on_error!r}")
    if workers is None:
        workers = default_workers()

    results: List[Any] = [None] * total
    done_count = 0

    def finalize(index: int, value: Any) -> None:
        nonlocal done_count
        results[index] = value
        done_count += 1
        if on_result is not None:
            on_result(index, value)
        if progress is not None:
            progress(done_count, total)

    def run_one(index: int, attempts: int) -> None:
        """Run one item in the parent, applying the ``on_error`` policy.

        Only the ``func`` call is guarded: an exception out of a
        caller-supplied ``progress``/``on_result`` hook is the caller's
        error and propagates instead of masquerading as an item failure.
        """
        try:
            value: Any = func(items[index])
        except Exception as error:
            if on_error == "raise":
                raise
            value = MapFailure(
                index=index, item=items[index], error=str(error),
                error_type=type(error).__name__, stage="serial",
                attempts=attempts)
        finalize(index, value)

    if serial or workers <= 1 or total <= 1:
        for index in range(total):
            run_one(index, 1)
        return results

    if chunk_size is None:
        chunk_size = max(1, (total + workers - 1) // workers)
    spans: List[_Span] = [(start, min(start + chunk_size, total))
                          for start in range(0, total, chunk_size)]

    leftover, hung, pooled = _pool_phase(func, items, spans, workers,
                                         chunk_timeout, max_chunk_retries,
                                         retry_backoff, finalize, metrics)
    if metrics is not None and hung:
        metrics.counter("parallel.chunks_hung").add(len(hung))

    # Hung chunks first: their workers never answered, so their items are
    # *not* rerun in-process (a deterministic hang would wedge the parent
    # too — exactly the failure mode this timeout exists to break).
    timeout_failures: List[MapFailure] = []
    for (start, stop), attempts in hung:
        for index in range(start, stop):
            failure = MapFailure(
                index=index, item=items[index],
                error=(f"no result within {chunk_timeout:g}s "
                       f"(worker unresponsive; chunk items "
                       f"{start}..{stop - 1})"),
                error_type="TimeoutError", stage="timeout",
                attempts=attempts)
            timeout_failures.append(failure)
    if timeout_failures and on_error == "raise":
        raise MapTimeoutError(timeout_failures)
    for failure in timeout_failures:
        finalize(failure.index, failure)

    # Chunks the pool never completed (broken pool, retries exhausted,
    # cancelled-before-start) rerun item by item so only the poisoned
    # item is affected.  A broken pool may have dumped a *hanging* or
    # *crashing* item here along with innocent neighbours, so when the
    # caller asked for liveness protection each item reruns alone in a
    # single-worker pool; otherwise it reruns in-process, where a
    # genuine ``func`` error reproduces deterministically.
    pending_items = [(index, attempts)
                     for (start, stop), attempts in leftover
                     for index in range(start, stop)]
    # Only counted when pool machinery worked: a pool-less platform
    # (everything leftover by construction) is an environment property,
    # not a fault event, and must not perturb the metrics registry.
    if metrics is not None and pending_items and pooled:
        metrics.counter("parallel.items_isolated").add(len(pending_items))
    if pooled and chunk_timeout is not None:
        _rerun_isolated(func, items, pending_items, chunk_timeout,
                        on_error, finalize)
    else:
        for index, attempts in pending_items:
            run_one(index, attempts + 1)
    return results


def _rerun_isolated(func, items: List[Any],
                    pending_items: List[Tuple[int, int]],
                    chunk_timeout: float, on_error: str,
                    finalize: Callable[[int, Any], None]) -> None:
    """Rerun leftover items one at a time in a single-worker pool.

    The pool is reused across items and replaced whenever an item kills
    or hangs it, so one bad item costs one pool restart rather than
    poisoning its neighbours.  Items that still fail are classified:
    genuine ``func`` errors (pickled back by the pool) follow the
    ``on_error`` policy as ``stage="serial"``, a dead worker with no
    error is ``stage="crash"``, and an overrun of ``chunk_timeout`` is
    ``stage="timeout"`` (raised as :class:`MapTimeoutError` under
    ``on_error="raise"``).
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    pool = None

    def discard_pool(kill: bool) -> None:
        nonlocal pool
        if pool is None:
            return
        pool.shutdown(wait=False, cancel_futures=True)
        if kill:
            # The worker is hung mid-item; without this it would keep
            # running and block interpreter exit on its atexit join.
            # Process handles are a private attribute, so guard the
            # cleanup: worst case the worker lingers.
            try:
                processes = dict(getattr(pool, "_processes", None) or {})
                for process in processes.values():
                    process.terminate()
            except Exception:
                pass
        pool = None

    try:
        for index, attempts in pending_items:
            attempt = attempts + 1
            if pool is None:
                try:
                    pool = ProcessPoolExecutor(max_workers=1)
                except Exception:
                    pool = None
            if pool is None:
                # Pool machinery gone — in-process is the only option
                # left (no hang protection possible).
                try:
                    value = func(items[index])
                except Exception as error:
                    if on_error == "raise":
                        raise
                    value = MapFailure(
                        index=index, item=items[index], error=str(error),
                        error_type=type(error).__name__, stage="serial",
                        attempts=attempt)
                finalize(index, value)
                continue
            future = pool.submit(_run_chunk, (func, [items[index]]))
            try:
                value = future.result(timeout=chunk_timeout)[0]
            except FutureTimeout:
                discard_pool(kill=True)
                failure = MapFailure(
                    index=index, item=items[index],
                    error=(f"no result within {chunk_timeout:g}s "
                           f"(isolated rerun unresponsive)"),
                    error_type="TimeoutError", stage="timeout",
                    attempts=attempt)
                if on_error == "raise":
                    raise MapTimeoutError([failure]) from None
                finalize(index, failure)
            except BrokenProcessPool as error:
                discard_pool(kill=False)
                if on_error == "raise":
                    raise RuntimeError(
                        f"item {index} killed its isolated rerun worker"
                    ) from error
                finalize(index, MapFailure(
                    index=index, item=items[index],
                    error="worker process died with no Python error",
                    error_type=type(error).__name__, stage="crash",
                    attempts=attempt))
            except Exception as error:
                # ``func`` raised inside the worker; the pool pickled
                # the real exception back, so it is deterministic.
                if on_error == "raise":
                    raise
                finalize(index, MapFailure(
                    index=index, item=items[index], error=str(error),
                    error_type=type(error).__name__, stage="serial",
                    attempts=attempt))
            else:
                finalize(index, value)
    finally:
        discard_pool(kill=False)


def _pool_phase(func, items: List[Any], spans: List[_Span], workers: int,
                chunk_timeout: Optional[float], max_chunk_retries: int,
                retry_backoff: float,
                finalize: Callable[[int, Any], None],
                metrics: Optional[Any] = None
                ) -> Tuple[List[Tuple[_Span, int]],
                           List[Tuple[_Span, int]], bool]:
    """Fan chunks out to a process pool, salvaging whatever completes.

    Completed chunk results are finalized through ``finalize`` as they
    arrive.  Returns ``(leftover, hung, pooled)``: the first two are
    ``(span, attempts)`` lists — ``leftover`` chunks never ran to
    completion and are safe to rerun, ``hung`` chunks were still running
    when the liveness timeout fired and must not be — and ``pooled``
    reports whether pool machinery worked at all (it governs whether a
    rerun may use an isolated pool).
    """
    try:
        from concurrent.futures import (FIRST_COMPLETED,
                                        ProcessPoolExecutor, wait)
        from concurrent.futures.process import BrokenProcessPool
        pool = ProcessPoolExecutor(max_workers=min(workers, len(spans)))
    except Exception:
        # Pool machinery unavailable (sandboxed platform, no fork/spawn):
        # everything becomes leftover and runs in-process.
        return [(span, 0) for span in spans], [], False

    attempts: Dict[_Span, int] = {span: 1 for span in spans}
    leftover: List[Tuple[_Span, int]] = []
    hung: List[Tuple[_Span, int]] = []
    broken = False
    clean = True

    def submit(span: _Span):
        start, stop = span
        return pool.submit(_run_chunk, (func, items[start:stop]))

    try:
        future_span = {}
        for span in spans:
            try:
                future_span[submit(span)] = span
            except Exception:
                leftover.append((span, 0))
        pending: Set[Any] = set(future_span)
        while pending:
            finished, pending = wait(pending, timeout=chunk_timeout,
                                     return_when=FIRST_COMPLETED)
            if not finished:
                # Liveness timeout: nothing completed in chunk_timeout
                # seconds.  Chunks still queued can be cancelled and
                # rerun in-process; chunks already running are presumed
                # hung (a running pool worker cannot be interrupted —
                # it is terminated during shutdown below).
                clean = False
                for future in pending:
                    span = future_span[future]
                    if future.cancel():
                        leftover.append((span, 0))
                    else:
                        hung.append((span, attempts[span]))
                pending = set()
                break
            for future in finished:
                span = future_span.pop(future)
                try:
                    chunk_result = future.result()
                except Exception as error:
                    if isinstance(error, BrokenProcessPool):
                        broken = True
                        leftover.append((span, attempts[span]))
                    elif not broken and attempts[span] <= max_chunk_retries:
                        if retry_backoff > 0:
                            time.sleep(retry_backoff * attempts[span])
                        attempts[span] += 1
                        if metrics is not None:
                            metrics.counter("parallel.chunk_retries").add()
                        try:
                            retry = submit(span)
                        except Exception:
                            broken = True
                            leftover.append((span, attempts[span]))
                        else:
                            future_span[retry] = span
                            pending.add(retry)
                    else:
                        leftover.append((span, attempts[span]))
                    continue
                start, _stop = span
                for offset, value in enumerate(chunk_result):
                    finalize(start + offset, value)
            if broken:
                # A dead worker poisons the whole executor; every future
                # still out is (or will be) BrokenProcessPool.  Salvage
                # what already finished and reroute the rest.
                clean = False
                for future in pending:
                    future.cancel()
                    leftover.append(
                        (future_span[future], attempts[future_span[future]]))
                pending = set()
    finally:
        if clean:
            pool.shutdown(wait=True)
        else:
            pool.shutdown(wait=False, cancel_futures=True)
            if hung:
                # Abandoned workers would otherwise keep running (and
                # block interpreter exit on their atexit join).  The
                # process handles are a private attribute, so guard the
                # whole cleanup: worst case the worker lingers.
                try:
                    processes = dict(getattr(pool, "_processes", None) or {})
                    for process in processes.values():
                        process.terminate()
                except Exception:
                    pass
    return leftover, hung, True
