"""The persistent :class:`WorkerPool`: warm reuse across batches."""

import pickle

import pytest

from repro.engine import (ExperimentEngine, ExperimentFailure,
                          ExperimentRequest, FaultPlan, WorkerPool,
                          request_key, run_supervised)
from repro.ir import function_to_text
from repro.machine import machine_with

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())


def requests(n: int, base: int = 0) -> list[ExperimentRequest]:
    return [ExperimentRequest(ir_text=LOOP_TEXT,
                              machine=machine_with(4, 4), args=(base + i,))
            for i in range(n)]


def items(reqs):
    return [(request_key(r), r) for r in reqs]


def spawn_spans(stats) -> int:
    """How many attempt spans of a batch carry a ``spawn`` child."""
    return sum(1 for observation in stats.observations.values()
               for span in observation.spans
               for child in span.children if child.name == "spawn")


@pytest.fixture
def pool():
    p = WorkerPool(1)
    yield p
    p.close()


class TestWarmReuse:
    def test_pool_survives_batches_and_spawns_once(self, pool):
        _, stats1 = run_supervised(items(requests(2)), 1, pool=pool)
        assert pool.stats.spawned == 1
        assert stats1.worker_spawns == 1
        _, stats2 = run_supervised(items(requests(2, base=2)), 1,
                                   pool=pool)
        # steady state: the second batch reuses the live worker
        assert pool.stats.spawned == 1
        assert stats2.worker_spawns == 0
        assert stats2.workers_reused >= 1
        assert len(pool.idle) == 1

    def test_engine_routes_batches_through_attached_pool(self, pool):
        engine = ExperimentEngine(jobs=1, use_cache=False, pool=pool)
        baseline = ExperimentEngine(jobs=1, use_cache=False)
        reqs = requests(2)
        out = [engine.run(r) for r in reqs]
        expected = [baseline.run(r) for r in reqs]
        assert [pickle.dumps(o.without_timing()) for o in out] \
            == [pickle.dumps(o.without_timing()) for o in expected]
        # even single-request batches execute on the (warm) pool
        assert engine.stats.worker_spawns == 1
        assert engine.stats.workers_reused >= 1
        fanout = engine.metrics().histograms()["engine.fanout"]
        assert (fanout["count"], fanout["max"]) == (2, 1)

    def test_dead_idle_worker_is_reaped_and_replaced(self, pool):
        run_supervised(items(requests(1)), 1, pool=pool)
        worker = pool.idle[0]
        worker.process.terminate()
        worker.process.join(timeout=10)
        out, stats = run_supervised(items(requests(1, base=1)), 1,
                                    pool=pool)
        assert all(not isinstance(o, ExperimentFailure)
                   for o in out.values())
        assert pool.stats.spawned == 2
        assert stats.worker_spawns == 1


class TestPrespawn:
    def test_prespawned_workers_serve_the_first_batch(self):
        pool = WorkerPool(2)
        try:
            assert pool.prespawn() == 2
            assert pool.stats.spawned == 2
            assert pool.prespawn() == 0   # already full
            out, stats = run_supervised(items(requests(2)), 2, pool=pool)
            assert all(not isinstance(o, ExperimentFailure)
                       for o in out.values())
            assert stats.worker_spawns == 0
            assert stats.workers_reused == 2
            assert pool.stats.spawned == 2
            # no dispatch paid a spawn, even to a worker still importing
            assert spawn_spans(stats) == 0
        finally:
            pool.close()

    def test_failed_prespawn_is_counted_not_raised(self):
        pool = WorkerPool(1, FaultPlan(spawn_failures=1))
        try:
            assert pool.prespawn() == 0
            assert pool.stats.spawn_failures == 1
            out, stats = run_supervised(items(requests(1)), 1, pool=pool)
            assert all(not isinstance(o, ExperimentFailure)
                       for o in out.values())
            # the batch spawned the worker the failed prespawn could not
            assert stats.worker_spawns == 1
            assert spawn_spans(stats) == 1
        finally:
            pool.close()


class TestLifecycle:
    def test_close_kills_idle_workers(self, pool):
        run_supervised(items(requests(1)), 1, pool=pool)
        worker = pool.idle[0]
        assert worker.process.is_alive()
        pool.close()
        assert pool.idle == []
        assert not worker.process.is_alive()

    def test_release_after_close_kills_instead_of_idling(self, pool):
        worker = pool.acquire()
        assert worker is not None
        pool.close()
        pool.release(worker)
        assert pool.idle == []
        assert not worker.process.is_alive()
