"""The content-addressed result store and its fingerprint keys.

Unit-level acceptance for the caching layer: exact round-trip of
record entries, durability across store instances, idempotent puts,
torn-tail tolerance, compaction/eviction GC — and the fingerprint
contract that makes cache hits *sound*: deterministic across rebuilt
objects and processes, sensitive to every electrically-relevant input,
insensitive to execution-only knobs.
"""

import dataclasses
import json

import pytest

from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import AmplitudeOracle, FlagOracle, IddqOracle, LogicOracle
from repro.sim import SimOptions
from repro.store import (
    EXECUTION_ONLY_OPTION_FIELDS,
    SOLVE_OPTION_FIELDS,
    ResultStore,
    campaign_fingerprint,
    canonical,
    circuit_fingerprint,
    options_fingerprint,
    oracles_fingerprint,
    result_key,
)

#: ``options_fingerprint(SimOptions())``.  Pinned so that removing or
#: adding an option no solve reads cannot silently invalidate every
#: store.
DEFAULT_OPTIONS_DIGEST = (
    "545017bb895f5ad5325bb38ef961ba096477d192eb44da018674d69243d65e82")

ENTRY = {"schema": 1, "key": "pipe:X1.Q1:4000.0", "converged": True,
         "solver": "warm-full", "verdicts": {"logic": "pass"}}
OTHER = {"schema": 1, "key": "pipe:X1.Q2:4000.0", "converged": False,
         "solver": "none", "verdicts": {"logic": "fail"}}


def _instrumented(stages=2):
    chain = buffer_chain(NOMINAL, n_stages=stages, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=NOMINAL)
    oracles = [
        LogicOracle(chain.output_nets),
        FlagOracle(monitor.nets.flag, monitor.nets.flagb),
        IddqOracle(),
    ]
    return chain.circuit, oracles


class TestStoreBasics:
    def test_round_trip_is_exact(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = result_key("f" * 64, "pipe:X1.Q1:4000.0")
        assert store.get(key) is None
        assert store.put(key, ENTRY)
        assert store.get(key) == ENTRY
        assert key in store and len(store) == 1
        assert store.stats() == {"records": 1, "hits": 1, "misses": 1,
                                 "puts": 1, "dedup_skips": 0}

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "store"
        with ResultStore(path) as store:
            store.put("k1", ENTRY)
            store.put("k2", OTHER)
        reopened = ResultStore(path)
        assert len(reopened) == 2
        assert reopened.get("k1") == ENTRY
        assert reopened.get("k2") == OTHER

    def test_puts_are_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.put("k", ENTRY)
        assert not store.put("k", ENTRY)
        assert not store.put("k", OTHER)  # first write wins
        assert store.get("k") == ENTRY
        assert store.stats()["dedup_skips"] == 2
        # Only one line ever reached disk.
        lines = [line for seg in (tmp_path / "store" / "segments").iterdir()
                 for line in seg.read_text().splitlines()]
        assert len(lines) == 1

    def test_refresh_sees_other_writers(self, tmp_path):
        path = tmp_path / "store"
        reader = ResultStore(path)
        writer = ResultStore(path)  # a second process, effectively
        writer.put("k", ENTRY)
        assert "k" not in reader
        reader.refresh()
        assert reader.get("k") == ENTRY

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "store"
        with ResultStore(path) as store:
            store.put("good", ENTRY)
            store._segment_file.write('{"type": "record", "key": "torn')
            store._segment_file.flush()
        survivor = ResultStore(path)
        assert len(survivor) == 1
        assert survivor.get("good") == ENTRY

    def test_non_record_lines_are_ignored(self, tmp_path):
        path = tmp_path / "store"
        seg_dir = path / "segments"
        seg_dir.mkdir(parents=True)
        (seg_dir / "seg-1-abc.jsonl").write_text(
            "\n".join([
                json.dumps({"type": "header", "schema": 1}),
                json.dumps(["a", "list"]),
                json.dumps({"type": "record", "key": 7, "entry": {}}),
                json.dumps({"type": "record", "key": "ok",
                            "entry": ENTRY}),
            ]) + "\n")
        store = ResultStore(path)
        assert len(store) == 1
        assert store.get("ok") == ENTRY

    def test_compact_merges_segments_to_one(self, tmp_path):
        path = tmp_path / "store"
        a, b = ResultStore(path), ResultStore(path)
        a.put("k1", ENTRY)
        b.put("k2", OTHER)
        a.close(), b.close()
        store = ResultStore(path)
        assert store.compact() == 2
        segments = list((path / "segments").glob("*.jsonl"))
        assert len(segments) == 1
        assert ResultStore(path).get("k1") == ENTRY

    def test_evict_drops_and_compacts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("keep", ENTRY)
        store.put("drop", OTHER)
        evicted = store.evict(lambda key, entry: key == "keep")
        assert evicted == 1
        reopened = ResultStore(tmp_path / "store")
        assert len(reopened) == 1
        assert reopened.get("keep") == ENTRY
        assert reopened.get("drop") is None

    @pytest.mark.parametrize("rewrite", ["evict", "compact"])
    def test_put_after_rewrite_persists(self, tmp_path, rewrite):
        # The rewrite unlinks every segment, this writer's own included;
        # a later put in the same process must land in a live segment.
        store = ResultStore(tmp_path / "store")
        store.put("keep", ENTRY)
        store.put("drop", OTHER)
        if rewrite == "evict":
            store.evict(lambda key, entry: key == "keep")
        else:
            store.compact()
        store.put("after", OTHER)
        store.close()
        reopened = ResultStore(tmp_path / "store")
        assert reopened.get("keep") == ENTRY
        assert reopened.get("after") == OTHER
        assert ("drop" in reopened) == (rewrite == "compact")

    def test_read_only_store_creates_no_segment(self, tmp_path):
        path = tmp_path / "store"
        ResultStore(path).get("missing")
        assert list((path / "segments").glob("*.jsonl")) == []


class TestFingerprints:
    def test_rebuilt_circuit_fingerprints_identically(self):
        circuit_a, oracles_a = _instrumented()
        circuit_b, oracles_b = _instrumented()
        assert circuit_a is not circuit_b
        assert circuit_fingerprint(circuit_a) == \
            circuit_fingerprint(circuit_b)
        assert campaign_fingerprint(circuit_a, SimOptions(), oracles_a) == \
            campaign_fingerprint(circuit_b, SimOptions(), oracles_b)

    def test_circuit_change_moves_the_fingerprint(self):
        two, _ = _instrumented(stages=2)
        three, _ = _instrumented(stages=3)
        assert circuit_fingerprint(two) != circuit_fingerprint(three)

    def test_solver_option_change_moves_the_fingerprint(self):
        assert options_fingerprint(SimOptions()) != \
            options_fingerprint(SimOptions(gmin=1e-10))
        # The deadline can turn a solve into a quarantine, so it is
        # part of the key.
        assert options_fingerprint(SimOptions()) != \
            options_fingerprint(SimOptions(solve_deadline_s=1e-9))

    def test_execution_only_options_do_not_move_it(self):
        base = options_fingerprint(SimOptions())
        assert options_fingerprint(SimOptions(chunk_timeout_s=5.0)) == base
        assert options_fingerprint(SimOptions(max_chunk_retries=7)) == base
        assert options_fingerprint(
            SimOptions(chunk_retry_backoff_s=9.0)) == base
        assert "telemetry" in EXECUTION_ONLY_OPTION_FIELDS

    def test_every_option_field_is_classified_once(self):
        """A new ``SimOptions`` field must be declared solve-affecting or
        execution-only before the fingerprint tests pass again."""
        names = {f.name for f in dataclasses.fields(SimOptions)}
        assert not SOLVE_OPTION_FIELDS & EXECUTION_ONLY_OPTION_FIELDS
        assert SOLVE_OPTION_FIELDS | EXECUTION_ONLY_OPTION_FIELDS == names

    @pytest.mark.parametrize("name", sorted(SOLVE_OPTION_FIELDS))
    def test_each_solve_option_moves_the_fingerprint(self, name):
        value = getattr(SimOptions(), name)
        if isinstance(value, bool):
            changed = not value
        elif isinstance(value, str):
            changed = value + "-changed"
        else:
            changed = value * 2 + 1
        assert options_fingerprint(SimOptions(**{name: changed})) != \
            options_fingerprint(SimOptions())

    def test_default_fingerprint_is_pinned(self):
        assert options_fingerprint(SimOptions()) == DEFAULT_OPTIONS_DIGEST

    def test_oracle_config_changes_move_the_fingerprint(self):
        circuit, oracles = _instrumented()
        loose = [oracles[0], oracles[1], IddqOracle(threshold=1e-3)]
        assert oracles_fingerprint(oracles) != oracles_fingerprint(loose)
        # One detector's records never serve another's.
        amplitude = [campaign_fingerprint(circuit, SimOptions(), [oracle])
                     for oracle in (AmplitudeOracle("op"),
                                    AmplitudeOracle("op"),
                                    AmplitudeOracle("opb"))]
        assert amplitude[0] == amplitude[1] != amplitude[2]

    def test_namespace_partitions_the_scope(self):
        circuit, oracles = _instrumented()
        base = campaign_fingerprint(circuit, SimOptions(), oracles)
        scoped = campaign_fingerprint(circuit, SimOptions(), oracles,
                                      namespace="verify:legacy-dense")
        assert base != scoped

    def test_result_key_separates_defects_within_a_scope(self):
        circuit, oracles = _instrumented()
        fingerprint = campaign_fingerprint(circuit, SimOptions(), oracles)
        key_a = result_key(fingerprint, "pipe:X1.Q1:4000.0")
        key_b = result_key(fingerprint, "pipe:X1.Q2:4000.0")
        assert key_a != key_b
        assert key_a == result_key(fingerprint, "pipe:X1.Q1:4000.0")

    def test_canonical_is_order_insensitive_where_it_must_be(self):
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})
        assert canonical({2, 1, 3}) == [1, 2, 3]
        assert canonical((1, 2)) == canonical([1, 2])

    def test_canonical_depth_cap_degrades_to_repr(self):
        nested = value = []
        for _ in range(12):
            value.append([])
            value = value[0]
        assert isinstance(json.dumps(canonical(nested)), str)


def test_fingerprint_args_order():
    # Guard the positional contract used throughout: (circuit, options,
    # oracles, namespace).
    circuit, oracles = _instrumented()
    with pytest.raises(TypeError):
        campaign_fingerprint(circuit, SimOptions())
