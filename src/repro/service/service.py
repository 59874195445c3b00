"""The asyncio campaign service: job queue, sharded execution, caching.

:class:`CampaignService` is the long-lived front end the ROADMAP calls
for: clients submit :class:`~repro.service.jobs.JobSpec` campaign jobs
(in-process via :meth:`CampaignService.submit`, or over TCP via
:meth:`CampaignService.serve` / ``python -m repro serve``); the service
builds each workload, shards its defect list across the existing
:func:`repro.parallel.parallel_map` worker pools with
work-stealing-ish chunk sizing (:func:`repro.parallel.balanced_chunk_size`),
serves every previously-solved defect from the content-addressed
:class:`repro.store.ResultStore`, streams progress events while the
campaign runs, and survives worker loss through the campaign engine's
salvage/quarantine machinery.

Observability goes through the normal telemetry schema: a
``service.job`` span per job (wrapping the campaign's own span tree),
``service.jobs_submitted`` / ``jobs_completed`` / ``jobs_failed``
counters, a ``service.queue_depth`` gauge, and a ``service.job_wall_s``
histogram, all renderable via :class:`repro.telemetry.RunReport`.  The
``stats`` wire op additionally returns the registry as Prometheus text
exposition (:meth:`CampaignService.exposition`), making a live server
scrapable.

The solver work itself is synchronous, CPU-bound code; jobs run on the
default thread-pool executor (one at a time by default — each job
already saturates the cores through its own process pool) so the event
loop stays responsive for progress streaming and new submissions.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Union

from ..faults import CampaignResult, defect_key, run_campaign
from ..parallel import balanced_chunk_size, default_workers
from ..store import ResultStore
from ..telemetry import Telemetry, prometheus_exposition
from .jobs import JobSpec, build_campaign_job

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class ServiceError(RuntimeError):
    """A job failed; the message carries the underlying error."""


@dataclass
class Job:
    """One submitted campaign job and its live state."""

    job_id: str
    spec: JobSpec
    status: str = QUEUED
    result: Optional[CampaignResult] = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    wall_s: float = 0.0
    #: Progress events (dicts) stream in here; ``None`` terminates.
    events: "asyncio.Queue" = field(default_factory=asyncio.Queue)
    finished: "asyncio.Event" = field(default_factory=asyncio.Event)

    async def wait(self) -> CampaignResult:
        """Block until the job finishes; raise on failure."""
        await self.finished.wait()
        if self.status == FAILED:
            raise ServiceError(self.error or "job failed")
        assert self.result is not None
        return self.result

    async def stream(self):
        """Async-iterate progress events until the job finishes."""
        while True:
            event = await self.events.get()
            if event is None:
                return
            yield event


class CampaignService:
    """In-process campaign service (the TCP front end wraps this).

    Parameters
    ----------
    store:
        A :class:`~repro.store.ResultStore` (or directory path) shared
        by every job — the dedup cache.  ``None`` disables caching.
    workers:
        Process-pool width for sharded jobs (default: all cores).
    telemetry:
        Destination for spans/metrics; defaults to an in-memory
        capturing :class:`~repro.telemetry.Telemetry` so
        :meth:`stats` always works.
    max_concurrent_jobs:
        Jobs solving simultaneously (on executor threads).  The default
        of 1 maximizes per-job parallel efficiency: each job already
        shards across every core, so running two at once just makes
        both slower.  Raise it for many small cache-mostly jobs.
    """

    def __init__(self, store: Optional[Union[ResultStore, str]] = None,
                 workers: Optional[int] = None,
                 telemetry: Optional[Telemetry] = None,
                 max_concurrent_jobs: int = 1):
        self.store = (store if isinstance(store, ResultStore)
                      or store is None else ResultStore(store))
        self.workers = workers if workers else default_workers()
        self.telemetry = telemetry or Telemetry.capturing()
        self.jobs: Dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._gate = asyncio.Semaphore(max(1, max_concurrent_jobs))
        self._open = 0
        self.max_queue_depth = 0
        self.started_at = time.time()

    # -- submission ------------------------------------------------------

    async def submit(self, spec: Union[JobSpec, Dict[str, Any]]) -> Job:
        """Accept a job and start it; returns immediately."""
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        job = Job(job_id=f"job-{next(self._ids):04d}", spec=spec)
        self.jobs[job.job_id] = job
        self.telemetry.metrics.counter("service.jobs_submitted").add()
        self._track_depth(+1)
        asyncio.create_task(self._run(job))
        return job

    async def run(self, spec: Union[JobSpec, Dict[str, Any]]
                  ) -> CampaignResult:
        """Submit and wait — the one-call in-process API."""
        job = await self.submit(spec)
        return await job.wait()

    def _track_depth(self, delta: int) -> None:
        self._open += delta
        self.max_queue_depth = max(self.max_queue_depth, self._open)
        self.telemetry.metrics.gauge("service.queue_depth").set(self._open)

    # -- execution -------------------------------------------------------

    async def _run(self, job: Job) -> None:
        loop = asyncio.get_running_loop()

        def post(event: Optional[Dict[str, Any]]) -> None:
            loop.call_soon_threadsafe(job.events.put_nowait, event)

        def progress(done: int, total: int, elapsed: float) -> None:
            post({"event": "progress", "job_id": job.job_id,
                  "done": done, "total": total,
                  "elapsed_s": round(elapsed, 4)})

        def work() -> CampaignResult:
            # Runs on an executor thread: build, shard, solve.  The
            # service.job span lives here so the campaign's own span
            # tree nests under it.
            with self.telemetry.span(
                    "service.job", job_id=job.job_id,
                    stages=job.spec.stages,
                    parallel=job.spec.parallel) as span:
                circuit, defects, oracles, options = \
                    build_campaign_job(job.spec)
                options = replace(options, telemetry=self.telemetry)
                chunk_size = job.spec.chunk_size
                if chunk_size is None and job.spec.parallel:
                    chunk_size = balanced_chunk_size(
                        len(defects), job.spec.workers or self.workers)
                result = run_campaign(
                    circuit, defects, oracles, options=options,
                    low_rank=job.spec.low_rank,
                    parallel=job.spec.parallel,
                    workers=job.spec.workers or self.workers,
                    chunk_size=chunk_size, progress=progress,
                    store=self.store,
                    store_namespace=job.spec.namespace)
                span.set(n_defects=len(result.records),
                         n_store_hits=result.n_store_hits,
                         n_quarantined=len(result.quarantined()))
                return result

        async with self._gate:
            job.status = RUNNING
            started = time.perf_counter()
            try:
                job.result = await loop.run_in_executor(None, work)
                job.status = DONE
                self.telemetry.metrics.counter(
                    "service.jobs_completed").add()
            except Exception as error:
                job.status = FAILED
                job.error = f"{type(error).__name__}: {error}"
                self.telemetry.metrics.counter("service.jobs_failed").add()
            finally:
                job.wall_s = time.perf_counter() - started
                self.telemetry.metrics.histogram(
                    "service.job_wall_s").observe(job.wall_s)
                self._track_depth(-1)
                post(None)
                job.finished.set()

    # -- introspection ---------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Service-level counters plus store traffic, for clients."""
        metrics = self.telemetry.metrics
        payload: Dict[str, Any] = {
            "jobs_submitted": metrics.counter_value(
                "service.jobs_submitted"),
            "jobs_completed": metrics.counter_value(
                "service.jobs_completed"),
            "jobs_failed": metrics.counter_value("service.jobs_failed"),
            "jobs_running": sum(1 for job in self.jobs.values()
                                if job.status == RUNNING),
            "queue_depth": self._open,
            "max_queue_depth": self.max_queue_depth,
            "workers": self.workers,
            "uptime_s": round(time.time() - self.started_at, 3),
            "defects_total": metrics.counter_value("campaign.defects"),
            "trace_id": self.telemetry.tracer.trace_id,
        }
        if self.store is not None:
            payload["store"] = self.store.stats()
        return payload

    def exposition(self) -> str:
        """The service registry as Prometheus text exposition.

        Served on the wire by the ``stats`` op (plus live queue-depth
        and store gauges refreshed at scrape time), so a running
        ``python -m repro serve`` process is scrapable by anything that
        speaks the format.
        """
        metrics = self.telemetry.metrics
        metrics.gauge("service.queue_depth").set(self._open)
        metrics.gauge("service.uptime_s").set(
            round(time.time() - self.started_at, 3))
        if self.store is not None:
            for key, value in self.store.stats().items():
                metrics.gauge(f"store.{key}").set(value)
        return prometheus_exposition(metrics)

    # -- TCP front end ---------------------------------------------------

    async def serve(self, host: str = "127.0.0.1", port: int = 0
                    ) -> "asyncio.AbstractServer":
        """Start the JSON-lines TCP front end; returns the server.

        Protocol: one JSON request per line —
        ``{"op": "submit", "spec": {...}}`` streams back ``accepted``,
        ``progress`` events, then one ``done`` (or ``error``) event with
        the per-defect results; ``{"op": "stats"}`` and
        ``{"op": "ping"}`` answer with one event each.  ``port=0``
        binds an ephemeral port (tests); read it from
        ``server.sockets[0].getsockname()``.
        """
        return await asyncio.start_server(self._handle_client, host, port)

    async def _handle_client(self, reader: "asyncio.StreamReader",
                             writer: "asyncio.StreamWriter") -> None:
        async def send(payload: Dict[str, Any]) -> None:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    op = request.get("op")
                    if op == "ping":
                        await send({"event": "pong"})
                    elif op == "stats":
                        await send({"event": "stats", **self.stats(),
                                    "exposition": self.exposition()})
                    elif op == "submit":
                        await self._handle_submit(request, send)
                    else:
                        await send({"event": "error",
                                    "error": f"unknown op: {op!r}"})
                except (ValueError, TypeError, KeyError) as error:
                    await send({"event": "error",
                                "error": f"{type(error).__name__}: {error}"})
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-stream; nothing to clean up
        except asyncio.CancelledError:
            # Loop teardown cancels handlers parked in readline();
            # exiting normally keeps shutdown free of spurious
            # "Task was destroyed" / CancelledError log noise.
            pass
        finally:
            writer.close()

    async def _handle_submit(self, request: Dict[str, Any], send) -> None:
        job = await self.submit(request.get("spec") or {})
        await send({"event": "accepted", "job_id": job.job_id,
                    "trace_id": self.telemetry.tracer.trace_id,
                    "tags": dict(job.spec.tags)})
        async for event in job.stream():
            await send(event)
        if job.status == FAILED:
            await send({"event": "error", "job_id": job.job_id,
                        "error": job.error})
            return
        result = job.result
        assert result is not None
        await send({
            "event": "done", "job_id": job.job_id,
            "trace_id": self.telemetry.tracer.trace_id,
            "wall_s": round(job.wall_s, 4),
            "n_defects": len(result.records),
            "n_store_hits": result.n_store_hits,
            "n_store_misses": result.n_store_misses,
            "n_store_puts": result.n_store_puts,
            "n_quarantined": len(result.quarantined()),
            "oracle_names": list(result.oracle_names),
            "records": [{
                "key": defect_key(record.defect),
                "converged": record.converged,
                "solver": record.solver,
                "verdicts": dict(record.verdicts),
            } for record in result.records],
        })


async def submit_and_stream(host: str, port: int,
                            spec: Union[JobSpec, Dict[str, Any]]
                            ) -> List[Dict[str, Any]]:
    """Minimal TCP client: submit one job, return every event.

    The last event is ``done`` (with the records) on success or
    ``error`` on failure — exactly what the wire carried, so tests can
    assert on the protocol itself.
    """
    if isinstance(spec, JobSpec):
        spec = spec.to_dict()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps({"op": "submit", "spec": spec}).encode()
                     + b"\n")
        await writer.drain()
        events: List[Dict[str, Any]] = []
        while True:
            line = await reader.readline()
            if not line:
                break
            event = json.loads(line)
            events.append(event)
            if event.get("event") in ("done", "error"):
                break
        return events
    finally:
        writer.close()

