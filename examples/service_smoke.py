"""Round-trip smoke for the campaign service and its result store.

Boots the asyncio campaign service on an ephemeral TCP port with a
content-addressed result store, then exercises the full client path
twice with the same job, with a malformed job in between:

1. **Cold** — every defect is a store miss and solves fresh; progress
   events stream back while shards execute.
2. **Malformed** — a spec with a negative ``limit`` must be refused
   with one ``error`` event, before any job exists.
3. **Warm** — a second client resubmits the identical ``JobSpec``; the
   service must serve (nearly) every record from the store, and the
   returned verdict set must match the cold run exactly.  It also shows
   that the refused spec left the service up.

This is the cheap end-to-end check the CI matrix and the nightly fuzz
workflow both run: it proves the wire protocol, the job scheduler, spec
validation and the cache key all still agree.  ``REPRO_EXAMPLE_FAST=1``
shrinks the chain so the test-suite invocation stays quick.

Run with:  python examples/service_smoke.py
"""

import asyncio
import os
import tempfile

from repro.service import CampaignService, JobSpec, submit_and_stream

FAST = os.environ.get("REPRO_EXAMPLE_FAST") == "1"


def _verdict_map(done):
    return {r["key"]: tuple(r["verdicts"]) for r in done["records"]}


async def run_smoke(store_dir: str) -> None:
    spec = JobSpec(stages=2 if FAST else 3,
                   kinds=("pipe", "terminal-short"),
                   limit=6 if FAST else None)
    service = CampaignService(store=store_dir)
    server = await service.serve(port=0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"service listening on {host}:{port}")
    try:
        cold = await submit_and_stream(host, port, spec)
        malformed = await submit_and_stream(host, port,
                                            {**spec.to_dict(), "limit": -1})
        warm = await submit_and_stream(host, port, spec)
    finally:
        server.close()
        await server.wait_closed()

    assert [event["event"] for event in malformed] == ["error"], \
        f"malformed spec was not refused: {malformed}"
    print(f"malformed: refused ({malformed[0]['error']})")
    for label, events in (("cold", cold), ("warm", warm)):
        done = events[-1]
        assert done["event"] == "done", f"{label} run failed: {done}"
        progress = sum(1 for e in events if e.get("event") == "progress")
        print(f"{label}: {done['n_defects']} defects in "
              f"{done['wall_s']:.2f} s, {done['n_store_hits']} store "
              f"hit(s), {progress} progress event(s)")

    cold_done, warm_done = cold[-1], warm[-1]
    assert cold_done["n_store_hits"] == 0, "cold run must not hit the store"
    hit_rate = warm_done["n_store_hits"] / max(1, warm_done["n_defects"])
    assert hit_rate >= 0.95, f"warm hit rate {hit_rate:.2f} < 0.95"
    assert _verdict_map(cold_done) == _verdict_map(warm_done), \
        "cached verdicts diverged from fresh ones"
    stats = service.stats()
    print(f"store: {stats['store']['records']} record(s), "
          f"warm hit rate {hit_rate:.0%}; verdicts identical")


def main() -> None:
    with tempfile.TemporaryDirectory() as store_dir:
        asyncio.run(run_smoke(store_dir))
    print("service round-trip smoke passed")


if __name__ == "__main__":
    main()
