"""The asyncio campaign service: jobs, streaming, caching, TCP.

End-to-end acceptance for the service layer, all through ``asyncio.run``
(no async test plugin needed): in-process submit → progress → result;
a warm resubmission served almost entirely from the store; the
JSON-lines TCP front end round-tripping the same payloads; concurrent
clients over TCP; and the JobSpec wire format.
"""

import asyncio

import pytest

from repro.faults import campaign as campaign_module
from repro.faults.campaign import DEFAULT_BATCH_SIZE
from repro.parallel import CHUNKS_PER_WORKER, balanced_chunk_size
from repro.service import (
    CampaignService,
    JobSpec,
    ServiceError,
    build_campaign_job,
    submit_and_stream,
)
from repro.store import ResultStore, campaign_fingerprint

SMALL = dict(stages=2, kinds=("pipe",), limit=4)


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = JobSpec(stages=4, kinds=("pipe", "terminal-short"),
                       pipe_resistances=(2e3,), limit=10, parallel=True,
                       namespace="tenant-a", tags={"ticket": "T-17"})
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert isinstance(clone.kinds, tuple)
        assert isinstance(clone.pipe_resistances, tuple)

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ValueError, match="unknown JobSpec field"):
            JobSpec.from_dict({"stages": 2, "stgaes": 3})

    @pytest.mark.parametrize("payload, field", [
        ({"kinds": "pipe"}, "kinds"),
        ({"kinds": ["pipe", "pipes"]}, "kinds"),
        ({"stages": "3"}, "stages"),
        ({"stages": 0}, "stages"),
        ({"limit": -1}, "limit"),
        ({"pipe_resistances": [-5]}, "pipe_resistances"),
        ({"pipe_resistances": [0.0, 2e3]}, "pipe_resistances"),
        ({"workers": 0}, "workers"),
        ({"chunk_size": -3}, "chunk_size"),
        ({"deadline_s": -1.0}, "deadline_s"),
        ({"chunk_timeout_s": -0.5}, "chunk_timeout_s"),
        ({"low_rank": "no"}, "low_rank"),
        ({"tags": "x"}, "tags"),
        ({"chunk_timeout_s": 5.0}, "chunk_timeout_s"),  # not parallel
    ])
    def test_bad_fields_are_rejected(self, payload, field):
        with pytest.raises(ValueError, match=field):
            JobSpec.from_dict(payload)

    def test_build_is_deterministic(self):
        circuit_a, defects_a, oracles_a, options_a = \
            build_campaign_job(JobSpec(**SMALL))
        circuit_b, defects_b, oracles_b, options_b = \
            build_campaign_job(JobSpec(**SMALL))
        assert campaign_fingerprint(circuit_a, options_a, oracles_a) == \
            campaign_fingerprint(circuit_b, options_b, oracles_b)
        assert len(defects_a) == len(defects_b) == 4

    def test_monitor_sites_grow_the_catalog(self):
        spec = JobSpec(stages=2, kinds=("pipe",))
        _, functional, _, _ = build_campaign_job(spec)
        spec.include_monitor_sites = True
        _, with_monitor, _, _ = build_campaign_job(spec)
        assert len(with_monitor) > len(functional)


class TestInProcessService:
    def test_submit_stream_result(self):
        async def scenario():
            service = CampaignService()
            job = await service.submit(JobSpec(**SMALL))
            events = [event async for event in job.stream()]
            result = await job.wait()
            return service, job, events, result

        service, job, events, result = asyncio.run(scenario())
        assert job.status == "done"
        assert len(result.records) == 4
        assert [e["done"] for e in events] == [1, 2, 3, 4]
        assert all(e["event"] == "progress" and e["total"] == 4
                   for e in events)
        stats = service.stats()
        assert stats["jobs_submitted"] == stats["jobs_completed"] == 1
        assert stats["jobs_failed"] == 0
        assert stats["queue_depth"] == 0

    def test_warm_resubmit_hits_the_store(self, tmp_path):
        async def scenario():
            service = CampaignService(store=str(tmp_path / "store"))
            cold = await service.run(JobSpec(**SMALL))
            warm = await service.run(JobSpec(**SMALL))
            return cold, warm

        cold, warm = asyncio.run(scenario())
        assert cold.n_store_hits == 0
        hit_rate = warm.n_store_hits / len(warm.records)
        assert hit_rate >= 0.95
        assert warm.records == cold.records

    def test_dict_specs_and_namespaces(self, tmp_path):
        async def scenario():
            service = CampaignService(store=ResultStore(tmp_path / "s"))
            await service.run({**SMALL, "kinds": list(SMALL["kinds"]),
                               "namespace": "a"})
            other = await service.run({**SMALL,
                                       "kinds": list(SMALL["kinds"]),
                                       "namespace": "b"})
            return other

        other = asyncio.run(scenario())
        assert other.n_store_hits == 0  # namespaces partition the cache

    def test_failed_job_raises_and_counts(self):
        async def scenario():
            service = CampaignService()
            # A valid spec whose build fails: a pipe below the minimum
            # resistance refuses construction inside the job.
            job = await service.submit(JobSpec(
                stages=2, kinds=("pipe",), pipe_resistances=(1e-9,)))
            with pytest.raises(ServiceError):
                await job.wait()
            return service, job

        service, job = asyncio.run(scenario())
        assert job.status == "failed"
        assert service.stats()["jobs_failed"] == 1

    def test_finished_jobs_leave_the_service(self):
        async def scenario():
            service = CampaignService()
            results = [await service.run(JobSpec(**SMALL))
                       for _ in range(3)]
            return service, results

        service, results = asyncio.run(scenario())
        assert service.jobs == {}
        assert [len(result.records) for result in results] == [4, 4, 4]
        assert service.stats()["jobs_running"] == 0

    def test_queue_depth_tracks_outstanding_jobs(self):
        async def scenario():
            service = CampaignService(max_concurrent_jobs=1)
            jobs = [await service.submit(JobSpec(**SMALL))
                    for _ in range(3)]
            await asyncio.gather(*(job.wait() for job in jobs))
            return service

        service = asyncio.run(scenario())
        stats = service.stats()
        assert stats["max_queue_depth"] == 3
        assert stats["queue_depth"] == 0
        assert stats["jobs_completed"] == 3

    def test_service_job_span_is_traced(self):
        async def scenario():
            service = CampaignService()
            await service.run(JobSpec(**SMALL))
            return service

        service = asyncio.run(scenario())
        spans = [e for e in service.telemetry.events()
                 if e.get("type") == "span" and e["name"] == "service.job"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["n_defects"] == 4

    def test_parallel_low_rank_job_spreads_over_chunks(self, monkeypatch):
        # The balanced chunk size counts defects; a low-rank job's units
        # are whole windows, so its chunks must still split the units
        # across the pool instead of handing every unit to one worker.
        # One window per unit gives this 102-defect job two units.
        monkeypatch.setattr(campaign_module, "WINDOWS_PER_UNIT", 1)
        maps = []
        real_map = campaign_module.parallel_map

        def spy(func, items, **kwargs):
            maps.append((len(items), kwargs["chunk_size"]))
            return real_map(func, items, **kwargs)

        monkeypatch.setattr(campaign_module, "parallel_map", spy)
        spec = JobSpec(stages=6, low_rank=True, parallel=True, workers=2)

        async def scenario():
            return await CampaignService().run(spec)

        result = asyncio.run(scenario())
        circuit, defects, oracles, options = build_campaign_job(spec)
        [(n_units, chunk_size)] = maps
        assert n_units == -(-len(defects) // DEFAULT_BATCH_SIZE) > 1
        assert -(-n_units // chunk_size) > 1
        serial = campaign_module.run_campaign(circuit, defects, oracles,
                                              options=options, low_rank=True)
        assert result.records == serial.records


class TestTCPFrontEnd:
    def test_round_trip_over_real_sockets(self, tmp_path):
        async def scenario():
            service = CampaignService(store=str(tmp_path / "store"))
            server = await service.serve(port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                cold = await submit_and_stream(host, port,
                                               JobSpec(**SMALL))
                warm = await submit_and_stream(host, port,
                                               JobSpec(**SMALL).to_dict())
            finally:
                server.close()
                await server.wait_closed()
            return cold, warm

        cold, warm = asyncio.run(scenario())
        assert cold[0]["event"] == "accepted"
        assert any(e["event"] == "progress" for e in cold)
        done = cold[-1]
        assert done["event"] == "done"
        assert done["n_defects"] == 4
        assert done["oracle_names"] == ["logic", "detector", "iddq"]
        assert all(set(r) == {"key", "converged", "solver", "verdicts"}
                   for r in done["records"])
        warm_done = warm[-1]
        assert warm_done["n_store_hits"] == 4
        assert {r["key"]: r["verdicts"] for r in done["records"]} == \
            {r["key"]: r["verdicts"] for r in warm_done["records"]}

    def test_bad_spec_gets_an_error_and_no_job(self):
        # The second spec asks for a chunk timeout without a pool.
        bad_specs = [({"limit": -1}, "limit"),
                     ({"chunk_timeout_s": 5.0}, "chunk_timeout_s")]

        async def scenario():
            service = CampaignService()
            server = await service.serve(port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                replies = [await submit_and_stream(host, port, spec)
                           for spec, _ in bad_specs]
            finally:
                server.close()
                await server.wait_closed()
            return service, replies

        service, replies = asyncio.run(scenario())
        for events, (_, field) in zip(replies, bad_specs):
            [event] = events
            assert event["event"] == "error"
            assert field in event["error"]
        assert service.jobs == {}
        assert service.stats()["jobs_submitted"] == 0

    def test_ping_stats_and_bad_ops(self):
        async def scenario():
            import json

            service = CampaignService()
            server = await service.serve(port=0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            replies = []
            try:
                for request in ({"op": "ping"}, {"op": "stats"},
                                {"op": "launch-missiles"},
                                {"op": "submit",
                                 "spec": {"bogus_field": 1}}):
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    replies.append(json.loads(await reader.readline()))
            finally:
                writer.close()
                server.close()
                await server.wait_closed()
            return replies

        pong, stats, unknown, bad_spec = asyncio.run(scenario())
        assert pong == {"event": "pong"}
        assert stats["event"] == "stats"
        assert "jobs_submitted" in stats
        assert unknown["event"] == "error"
        assert "unknown op" in unknown["error"]
        assert bad_spec["event"] == "error"
        assert "bogus_field" in bad_spec["error"]

    def test_load_test_harness(self, tmp_path):
        """Three concurrent TCP clients re-submit a cached job."""
        async def scenario():
            service = CampaignService(store=str(tmp_path / "store"))
            server = await service.serve(port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                await service.run(JobSpec(**SMALL))  # prime the store
                streams = await asyncio.gather(*(
                    submit_and_stream(host, port, JobSpec(**SMALL))
                    for _ in range(3)))
            finally:
                server.close()
                await server.wait_closed()
            return service, streams

        service, streams = asyncio.run(scenario())
        assert len(streams) == 3
        done = [events[-1] for events in streams]
        assert all(event["event"] == "done" for event in done)
        assert sum(event["n_store_hits"] for event in done) == 3 * 4
        assert service.stats()["max_queue_depth"] >= 2


def test_balanced_chunk_size_oversubscribes_for_stealing():
    # Four chunks per worker: stragglers steal the slack.
    assert CHUNKS_PER_WORKER == 4
    assert balanced_chunk_size(160, workers=4) == 10
    assert balanced_chunk_size(161, workers=4) == 11
    # Degenerate cases stay sane.
    assert balanced_chunk_size(3, workers=8) == 1
    assert balanced_chunk_size(0, workers=4) == 1
    assert balanced_chunk_size(1, workers=1) == 1
