"""Fault-tolerance tests for :func:`repro.parallel.parallel_map`.

Covers the degradation ladder: chunk salvage around a poisoned item, a
worker process crash, a hung worker caught by the liveness timeout, and
the structured :class:`MapFailure` results and once-per-item
``on_result`` reports that callers observe through it all.  Worker
functions live at module level so the pool can pickle them.
"""

import multiprocessing
import os
import time

import pytest

from repro import parallel
from repro.parallel import MapFailure, MapTimeoutError, parallel_map

#: Every pool test uses two workers explicitly: single-core hosts (and
#: this CI) would otherwise take the serial shortcut and skip the pool.
WORKERS = 2


def _double(x):
    return 2 * x


def _poison(x):
    """Deterministic in-function error on one item."""
    if x == 3:
        raise ValueError(f"poisoned item {x}")
    return 2 * x


def _crash(x):
    """Kills the worker process outright on one item.

    In the parent process (legacy in-process rerun) it raises instead,
    so the map still terminates there.
    """
    if x == 3:
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        raise RuntimeError("crash item ran in the parent")
    return 2 * x


def _hang(x):
    """Sleeps far past any liveness timeout on one item."""
    if x == 3:
        time.sleep(60.0)
    return 2 * x


def _pid(x):
    return os.getpid()


def _mark(item):
    """Works briefly, then leaves one marker file for its item."""
    directory, index = item
    time.sleep(0.1)
    open(os.path.join(directory, f"{index}.done"), "w").close()
    return index


class _Stop(Exception):
    """Raised from a hook to stop a map."""


@pytest.fixture(autouse=True)
def no_retry_backoff(monkeypatch):
    """Resubmit a failed chunk at once: the backoff only slows tests."""
    monkeypatch.setattr(parallel, "RETRY_BACKOFF_S", 0.0)


class TestSerialPath:
    def test_plain_map(self):
        assert parallel_map(_double, range(5), workers=1) == \
            [0, 2, 4, 6, 8]

    def test_on_error_raise_propagates(self):
        with pytest.raises(ValueError, match="poisoned item 3"):
            parallel_map(_poison, range(5), workers=1)

    def test_on_error_return_isolates_item(self):
        results = parallel_map(_poison, range(5), workers=1,
                               on_error="return")
        assert results[:3] == [0, 2, 4] and results[4] == 8
        failure = results[3]
        assert isinstance(failure, MapFailure)
        assert failure.stage == "serial"
        assert failure.error_type == "ValueError"
        assert "poisoned item 3" in failure.error
        assert "item 3" in str(failure)

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            parallel_map(_double, range(3), on_error="ignore")

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_non_positive_chunk_size_rejected(self, chunk_size):
        # A chunk size below 1 cuts no chunks: every result would be lost.
        with pytest.raises(ValueError, match="chunk_size"):
            parallel_map(abs, [-1, -2, -3, -4], workers=WORKERS,
                         chunk_size=chunk_size)


class TestPoolSalvage:
    def test_poisoned_item_costs_only_itself(self):
        results = parallel_map(_poison, range(8), workers=WORKERS,
                               chunk_size=1, on_error="return")
        for index in range(8):
            if index == 3:
                assert isinstance(results[index], MapFailure)
                assert results[index].stage == "serial"
            else:
                assert results[index] == 2 * index

    def test_poisoned_item_raises_deterministically(self):
        with pytest.raises(ValueError, match="poisoned item 3"):
            parallel_map(_poison, range(8), workers=WORKERS,
                         chunk_size=1)

    def test_worker_crash_salvages_other_chunks(self):
        results = parallel_map(_crash, range(8), workers=WORKERS,
                               chunk_size=1, on_error="return")
        for index in range(8):
            if index == 3:
                assert isinstance(results[index], MapFailure)
                # Without a chunk_timeout the leftover rerun happens
                # in-process, where the crash item raises instead.
                assert results[index].stage == "serial"
                assert "parent" in results[index].error
            else:
                assert results[index] == 2 * index

    def test_worker_crash_with_timeout_confirms_crash_in_isolation(self):
        results = parallel_map(_crash, range(8), workers=WORKERS,
                               chunk_size=1, chunk_timeout=10.0,
                               on_error="return")
        for index in range(8):
            if index == 3:
                assert isinstance(results[index], MapFailure)
                assert results[index].stage == "crash"
            else:
                assert results[index] == 2 * index

    def test_on_result_streams_every_slot_once(self):
        """Salvaged results are never reported again when the crashed
        chunk's items rerun."""
        calls = []
        parallel_map(_crash, range(8), workers=WORKERS, chunk_size=1,
                     on_error="return",
                     on_result=lambda index, value:
                     calls.append((index, value)))
        assert len(calls) == 8
        seen = dict(calls)
        assert sorted(seen) == list(range(8))
        assert isinstance(seen[3], MapFailure)
        assert all(seen[i] == 2 * i for i in range(8) if i != 3)


class TestHookRaises:
    def test_raising_hook_cancels_queued_chunks(self, tmp_path):
        """An exception from ``on_result`` (how a campaign's ``progress``
        stops it) propagates once the chunks in flight finish: the
        queued chunks never run, and no worker runs on afterwards."""
        items = [(str(tmp_path), index) for index in range(40)]

        def stop(index, value):
            raise _Stop(index)

        with pytest.raises(_Stop):
            parallel_map(_mark, items, workers=WORKERS, chunk_size=1,
                         on_result=stop)
        marked = len(list(tmp_path.iterdir()))
        # The first result, the chunks running and the pool's call queue
        # (workers + 1), with slack for a slow parent.
        assert 1 <= marked <= 10
        time.sleep(0.3)
        assert len(list(tmp_path.iterdir())) == marked


@pytest.mark.timeout(60)
class TestHungWorker:
    def test_hang_quarantined_not_rerun(self):
        started = time.perf_counter()
        results = parallel_map(_hang, range(6), workers=WORKERS,
                               chunk_size=1, chunk_timeout=1.5,
                               on_error="return")
        elapsed = time.perf_counter() - started
        # The 60s sleeper must not have been rerun in the parent.
        assert elapsed < 30.0
        failure = results[3]
        assert isinstance(failure, MapFailure)
        assert failure.stage == "timeout"
        assert failure.error_type == "TimeoutError"
        for index in (0, 1, 2, 4, 5):
            assert results[index] == 2 * index

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_guards_a_single_item(self, workers):
        """Only a pool can keep the liveness guard, so a chunk timeout
        takes one even for one item or one worker."""
        [failure] = parallel_map(time.sleep, [1.5], workers=workers,
                                 chunk_timeout=0.5, on_error="return")
        assert isinstance(failure, MapFailure)
        assert failure.stage == "timeout"

    def test_timeout_runs_one_worker_in_a_pool(self):
        pids = parallel_map(_pid, range(3), workers=1, chunk_timeout=30.0)
        assert os.getpid() not in pids

    def test_hang_raises_map_timeout(self):
        with pytest.raises(MapTimeoutError) as info:
            parallel_map(_hang, range(6), workers=WORKERS, chunk_size=1,
                         chunk_timeout=1.5)
        assert any(f.index == 3 for f in info.value.failures)
