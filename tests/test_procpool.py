"""Process-tier tests (PR 8): zero-copy shard workers.

Two headline invariants:

* **Bit-for-bit equality** — a process-mode service answers exactly
  like the thread-mode service (and stays equal across ingest-driven
  republish/re-attach rounds), with workers mmapping the per-shard
  snapshot files the parent publishes;
* **Degraded, never failed** — SIGKILLing a worker process turns its
  shards' slices into degraded answers equal to the unsharded matcher
  restricted to the surviving shards, while the service keeps serving.

Around those: pool lifecycle (shutdown idempotence, publication
cleanup), cooperative deadlines across the pipe, and the fork-safety
regressions for the matcher scratch pool and the storage BufferPool
(satellite: two processes must never observe each other's scratch).
"""

import dataclasses
import os
import time
import multiprocessing

import numpy as np
import pytest

from repro import GeometricSimilarityMatcher, ShapeBase
from repro.imaging import generate_workload, make_query_set
from repro.service import (ProcessWorkerPool, RetrievalService,
                           ServiceConfig, ShardSet, shard_for)
from repro.core.matcher import MatchStats
from repro.service.procpool import (ProcessShardView, WorkerOperationError,
                                    _stats_from_wire, _stats_to_wire)
from repro.service.service import _merge_stats

NUM_SHARDS = 3
PROCESSES = 2


@pytest.fixture(scope="module")
def corpus():
    """Seeded workload + query set shared by the module."""
    rng = np.random.default_rng(424242)
    workload = generate_workload(10, rng, shapes_per_image=3.0,
                                 noise=0.008, num_prototypes=6)
    queries = [q for q, _ in make_query_set(
        workload, 5, np.random.default_rng(17), noise=0.008)]
    return workload, queries


def build_base(workload):
    base = ShapeBase(alpha=0.05)
    for image in workload.images:
        for shape in image.shapes:
            base.add_shape(shape, image_id=image.image_id)
    return base


def service_config(**overrides):
    defaults = dict(num_shards=NUM_SHARDS, workers=2, cache_capacity=0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def process_config(**overrides):
    return service_config(execution="process", processes=PROCESSES,
                          **overrides)


def ranked(matches):
    """Deterministic comparison form: (shape id, rounded distance)."""
    return sorted((m.shape_id, round(m.distance, 9)) for m in matches)


def exact(matches):
    """Bit-for-bit comparison form (no rounding)."""
    return [(m.shape_id, m.image_id, m.distance, m.entry_id,
             m.approximate) for m in matches]


# ----------------------------------------------------------------------
# Equality: process mode answers bit-for-bit like thread mode
# ----------------------------------------------------------------------
class TestProcessEqualsThread:
    def test_scalar_batch_and_threshold_paths(self, corpus):
        workload, queries = corpus
        with RetrievalService.from_base(build_base(workload),
                                        service_config()) as threads, \
             RetrievalService.from_base(build_base(workload),
                                        process_config()) as procs:
            for query in queries:
                a = threads.retrieve(query, k=5)
                b = procs.retrieve(query, k=5)
                assert exact(a.matches) == exact(b.matches)
                assert (a.status, a.method) == (b.status, b.method)
            for a, b in zip(threads.retrieve_batch(queries, k=5),
                            procs.retrieve_batch(queries, k=5)):
                assert exact(a.matches) == exact(b.matches)
            for a, b in zip(
                    threads.similar_shapes_batch(queries, 0.05),
                    procs.similar_shapes_batch(queries, 0.05)):
                assert a.shape_ids == b.shape_ids
                assert not b.failed_shards

    def test_equality_survives_republish_after_ingest(self, corpus):
        workload, queries = corpus
        extra = [s.translated(0.4, 0.2)
                 for img in workload.images[:2] for s in img.shapes]
        with RetrievalService.from_base(build_base(workload),
                                        service_config()) as threads, \
             RetrievalService.from_base(build_base(workload),
                                        process_config()) as procs:
            before = procs.snapshot()["procpool"]["synced_version"]
            threads.ingest(extra)
            procs.ingest(extra)
            for query in queries:
                a = threads.retrieve(query, k=5)
                b = procs.retrieve(query, k=5)
                assert exact(a.matches) == exact(b.matches)
            after = procs.snapshot()["procpool"]["synced_version"]
            assert after > before        # workers re-attached

    def test_second_shard_set_resyncs_worker_processes(self, corpus):
        """A fresh ShardSet's version counter restarts at 1 — the same
        number the first set was synced at, so a version-only check
        would skip the re-attach and leave the workers serving the
        first corpus (regression)."""
        workload, queries = corpus
        small = ShapeBase(alpha=0.05)
        for image in workload.images[:4]:
            for shape in image.shapes:
                small.add_shape(shape, image_id=image.image_id)
        first = ShardSet.from_base(small, num_shards=NUM_SHARDS)
        second = ShardSet.from_base(build_base(workload),
                                    num_shards=NUM_SHARDS)
        assert first.version == second.version
        with ProcessWorkerPool(processes=PROCESSES) as pool:
            pool.sync(first)
            assert pool.sync(second)
            for shard in second:
                remote = ProcessShardView(pool, shard).query_batch(
                    queries, 5)
                local = shard.query_batch(queries, 5)
                assert [exact(m) for m, _ in remote] == \
                    [exact(m) for m, _ in local]

    def test_file_publish_mode(self, corpus, tmp_path):
        workload, queries = corpus
        snapdir = tmp_path / "pub"
        with RetrievalService.from_base(build_base(workload),
                                        service_config()) as threads, \
             RetrievalService.from_base(
                 build_base(workload),
                 process_config(snapshot_dir=str(snapdir))) as procs:
            published = sorted(os.listdir(snapdir))
            assert len(published) == NUM_SHARDS
            for query in queries[:3]:
                a = threads.retrieve(query, k=5)
                b = procs.retrieve(query, k=5)
                assert exact(a.matches) == exact(b.matches)
        assert sorted(os.listdir(snapdir)) == []   # cleaned on close

    def test_ann_tier_equality(self, corpus):
        from repro.ann import AnnConfig
        workload, queries = corpus
        ann = AnnConfig(tables=8, band_width=2, grid=24, seed=3)
        with RetrievalService.from_base(
                build_base(workload),
                service_config(ann=ann, ann_mode="always")) as threads, \
             RetrievalService.from_base(
                 build_base(workload),
                 process_config(ann=ann, ann_mode="always")) as procs:
            for query in queries[:3]:
                a = threads.retrieve(query, k=5)
                b = procs.retrieve(query, k=5)
                assert a.method == b.method == "ann"
                assert exact(a.matches) == exact(b.matches)


@pytest.fixture(scope="module")
def seed_one():
    """8 images and 6 sketches, both drawn from seed 1."""
    rng = np.random.default_rng(1)
    workload = generate_workload(8, rng)
    return workload, [q for q, _ in make_query_set(workload, 6, rng)]


class TestWorkersScoreWithTheShardsParameters:
    """A caller may build the ShardSet with other parameters than the
    service config's defaults; workers must score with the shards'
    own ``beta`` and ANN config, exactly as thread mode does."""

    @staticmethod
    def pair(workload, shard_params, **config):
        """A thread and a one-process service over equal shard sets."""
        def serve(**execution):
            shards = ShardSet.from_base(build_base(workload), num_shards=2,
                                        **shard_params)
            return RetrievalService(shards,
                                    ServiceConfig(**config, **execution))
        return serve(), serve(execution="process", processes=1)

    def test_non_default_beta(self, seed_one):
        workload, queries = seed_one
        threads, procs = self.pair(workload, {"beta": 0.5})
        with threads, procs:
            a = threads.retrieve_batch(queries, k=3)
            b = procs.retrieve_batch(queries, k=3)
            assert [exact(r.matches) for r in a] == \
                [exact(r.matches) for r in b]
            assert [r.stats.candidates_evaluated for r in a] == \
                [r.stats.candidates_evaluated for r in b]

    def test_shards_built_without_ann(self, seed_one):
        from repro.ann import AnnConfig
        workload, queries = seed_one
        threads, procs = self.pair(workload, {}, ann=AnnConfig(),
                                   ann_mode="always")
        with threads, procs:
            for query in queries[:4]:
                a = threads.retrieve(query, k=3)
                b = procs.retrieve(query, k=3)
                assert (a.status, a.method, a.failed_shards,
                        exact(a.matches)) == \
                    (b.status, b.method, b.failed_shards,
                     exact(b.matches))


# ----------------------------------------------------------------------
# Sync robustness: attach failures degrade, publications never leak
# ----------------------------------------------------------------------
class TestSyncRobustness:
    def test_attach_failure_takes_worker_out_of_rotation(self, corpus,
                                                         monkeypatch):
        """A live worker whose sync errors (attach: missing snapshot /
        shm failure; delta: missed append window) must be retired —
        not left serving the old corpus, and the error must not
        surface out of query paths (regression)."""
        workload, queries = corpus
        config = process_config(retry_attempts=1, breaker=None)
        with RetrievalService.from_base(build_base(workload),
                                        config) as service:
            pool = service.procpool
            original = ProcessWorkerPool._send

            # Worker 0 receives a sync it cannot apply and replies
            # ``err``: an attach to a snapshot that is gone, or a
            # delta for a shard it never attached.
            def failing(self, worker, message):
                if worker.index == 0 and message[0] == "attach":
                    spec = message[2][0]
                    gone = dict(spec, path=spec["path"] + ".gone")
                    message = ("attach", None, [gone])
                elif worker.index == 0 and message[0] == "delta":
                    message = ("delta", None, [(-1, b"")])
                return original(self, worker, message)

            monkeypatch.setattr(ProcessWorkerPool, "_send", failing)
            extra = workload.images[0].shapes[0].translated(0.2, 0.2)
            service.ingest([extra])     # bump version -> lazy resync
            result = service.retrieve(queries[0], k=3)
            assert result.status == "degraded"    # not an exception
            assert pool.alive_workers() == [1]
            # The sync round still completed: the synced version
            # advanced past the failure (ingest ships as a delta
            # round; the failing worker is simply out of rotation).
            assert pool.info()["synced_version"] == \
                service.shards.version

    def test_failed_publish_releases_partial_publications(
            self, corpus, tmp_path, monkeypatch):
        """A publish that dies midway must release the publications it
        already made (no leaked snapshot files or shm segments) and
        leave the installed generation serving (regression)."""
        workload, queries = corpus
        snapdir = tmp_path / "pub"
        config = process_config(snapshot_dir=str(snapdir))
        with RetrievalService.from_base(build_base(workload),
                                        config) as service:
            pool = service.procpool
            before = sorted(os.listdir(snapdir))
            original = ProcessWorkerPool._publish_shard
            published = []

            def failing(self, shard, version, round_id):
                if published:
                    raise RuntimeError("disk full")
                published.append(shard.index)
                return original(self, shard, version, round_id)

            monkeypatch.setattr(ProcessWorkerPool, "_publish_shard",
                                failing)
            with pytest.raises(RuntimeError):
                pool.sync(service.shards, force=True)
            monkeypatch.undo()
            assert sorted(os.listdir(snapdir)) == before
            result = service.retrieve(queries[0], k=3)
            assert not result.failed_shards

    def test_process_warm_builds_only_hash_tier_in_parent(self, corpus):
        """Workers build index/matcher/ANN during attach; the parent
        serves only the hash salvage tier, so warming the full
        structures parent-side would double warm-up cost."""
        workload, queries = corpus
        with RetrievalService.from_base(build_base(workload),
                                        process_config()) as service:
            for shard in service.shards.shards:
                assert shard._matcher is None
                assert shard._ann is None
                assert shard._retriever is not None
            # The exact tier still answers (from the workers).
            result = service.retrieve(queries[0], k=3)
            assert result.status == "ok"

    def test_a_mutating_op_is_refused_and_the_worker_serves_on(
            self, corpus):
        workload, queries = corpus
        with RetrievalService.from_base(build_base(workload),
                                        process_config()) as service:
            shard = service.shards.shards[0]
            victim = next(iter(shard.base.shapes))
            with pytest.raises(WorkerOperationError, match="unknown op"):
                service.procpool.call(0, "remove_shapes",
                                      {"sketches": [], "remaining": None,
                                       "shape_ids": [victim]})
            remote = ProcessShardView(service.procpool,
                                      shard).query_batch(queries, 3)
            local = shard.query_batch(queries, 3)
            assert [exact(m) for m, _ in remote] == \
                [exact(m) for m, _ in local]


class TestPublicationRounds:
    """What each sync ships: appends go out as row deltas, a removal
    forces a full republish, and so does every ``compact_every``-th
    delta round in a row."""

    @staticmethod
    def rounds(service):
        sync = service.procpool.info()["sync"]
        return sync["full_rounds"], sync["delta_rounds"]

    @staticmethod
    def append_and_read(service, workload, queries, step):
        shape = workload.images[0].shapes[0].translated(0.3 * step, 0.1)
        service.ingest([shape])
        service.retrieve(queries[0], k=3)
        return service.procpool.info()["sync"]["last_kind"]

    def test_appends_ship_deltas_and_a_removal_ships_in_full(
            self, corpus):
        workload, queries = corpus
        with RetrievalService.from_base(build_base(workload),
                                        process_config()) as service:
            assert self.rounds(service) == (1, 0)
            kinds = [self.append_and_read(service, workload, queries, i)
                     for i in range(5)]
            assert kinds == ["delta"] * 5
            assert self.rounds(service) == (1, 5)
            service.remove(next(iter(service.shards.shards[0].base.shapes)))
            service.retrieve(queries[0], k=3)
            assert self.rounds(service) == (2, 5)

    def test_every_third_round_is_full_at_compact_every_2(self, corpus):
        workload, queries = corpus
        with RetrievalService.from_base(
                build_base(workload),
                process_config(publish_compact_every=2)) as service:
            kinds = [self.append_and_read(service, workload, queries, i)
                     for i in range(6)]
            assert kinds == ["delta", "delta", "full"] * 2
            assert self.rounds(service) == (3, 4)


class TestSyncBroadcast:
    """A sync round sends to every live worker before it awaits any
    reply; each worker's outcome stays its own."""

    @staticmethod
    def record(monkeypatch):
        events = []
        send = ProcessWorkerPool._send
        await_reply = ProcessWorkerPool._await_reply

        def sending(self, worker, message):
            events.append(("send", message[0], worker.index))
            return send(self, worker, message)

        def awaiting(self, worker, req_id, deadline, timeout):
            events.append(("await", worker.index))
            return await_reply(self, worker, req_id, deadline, timeout)

        monkeypatch.setattr(ProcessWorkerPool, "_send", sending)
        monkeypatch.setattr(ProcessWorkerPool, "_await_reply", awaiting)
        return events

    def test_attach_and_delta_reach_both_workers_in_one_broadcast(
            self, corpus, monkeypatch):
        workload, queries = corpus
        with RetrievalService.from_base(build_base(workload),
                                        process_config()) as service:
            pool = service.procpool
            events = self.record(monkeypatch)
            assert pool.sync(service.shards, force=True)
            assert events == [("send", "attach", 0), ("send", "attach", 1),
                              ("await", 0), ("await", 1)]
            del events[:]
            service.ingest([workload.images[0].shapes[0]
                            .translated(0.3, 0.1)])
            assert pool.sync(service.shards)
            assert events == [("send", "delta", 0), ("send", "delta", 1),
                              ("await", 0), ("await", 1)]
            monkeypatch.undo()
            assert pool.alive_workers() == [0, 1]
            assert pool.info()["sync"]["full_rounds"] == 2
            assert pool.info()["sync"]["delta_rounds"] == 1
            result = service.retrieve(queries[0], k=3)
            assert result.status == "ok" and not result.failed_shards

    def test_a_worker_killed_before_a_sync_is_dead_while_the_other_syncs(
            self, corpus, monkeypatch):
        workload, queries = corpus
        with RetrievalService.from_base(build_base(workload),
                                        process_config()) as service:
            pool = service.procpool
            send = ProcessWorkerPool._send

            def killing(self, worker, message):
                if worker.index == 1 and message[0] == "attach":
                    worker.kill()
                return send(self, worker, message)

            monkeypatch.setattr(ProcessWorkerPool, "_send", killing)
            assert pool.sync(service.shards, force=True)
            monkeypatch.undo()
            assert pool.alive_workers() == [0]
            assert pool.info()["synced_version"] == service.shards.version
            assert pool.info()["sync"]["full_rounds"] == 2
            result = service.retrieve(queries[0], k=3)
            assert result.status == "degraded"
            # Worker 0 took the attach: its shards still answer exactly.
            assert 0 not in result.failed_shards


# ----------------------------------------------------------------------
# Dead workers: degraded, never failed
# ----------------------------------------------------------------------
class TestDeadWorkerDegradation:
    def test_killed_worker_degrades_to_surviving_shards(self, corpus):
        workload, queries = corpus
        base = build_base(workload)
        config = process_config(shard_hash_fallback=False,
                                retry_attempts=1, breaker=None)
        with RetrievalService.from_base(build_base(workload),
                                        config) as service:
            service.pool.kill_worker(0)
            dead_shards = {i for i in range(NUM_SHARDS)
                           if i % PROCESSES == 0}
            surviving_ids = [sid for sid in base.shape_ids()
                             if shard_for(sid, NUM_SHARDS)
                             not in dead_shards]
            reference = GeometricSimilarityMatcher(
                base.subset(surviving_ids), beta=config.beta)
            for query in queries:
                result = service.retrieve(query, k=5)
                assert result.status == "degraded"
                assert result.failed_shards == sorted(dead_shards)
                expected, _ = reference.query(query, k=5)
                good = [m for m in expected
                        if m.distance <= config.match_threshold]
                if good:
                    assert ranked(result.matches) == ranked(expected)
                else:          # below threshold -> hashing fallback ran
                    assert result.method in ("hashing", "none",
                                             "envelope")

    def test_killed_worker_salvaged_by_hash_tier(self, corpus):
        workload, queries = corpus
        config = process_config(retry_attempts=1, breaker=None)
        with RetrievalService.from_base(build_base(workload),
                                        config) as service:
            service.pool.kill_worker(0)
            result = service.retrieve(queries[0], k=5)
            assert result.status == "degraded"
            # hash_query runs parent-side, so the dead worker's shards
            # can still contribute approximate salvage answers.
            assert result.matches

    def test_breaker_stops_paying_for_a_dead_worker(self, corpus):
        from repro.service import BreakerConfig
        workload, queries = corpus
        config = process_config(
            retry_attempts=1,
            breaker=BreakerConfig(window=4, failure_threshold=0.5,
                                  min_volume=2, cooldown=60.0))
        with RetrievalService.from_base(build_base(workload),
                                        config) as service:
            service.pool.kill_worker(0)
            for query in queries:
                service.retrieve(query, k=3)
            counters = service.snapshot()["counters"]
            assert counters.get("shards.breaker_skipped", 0) > 0

    def test_revive_right_after_kill_respawns_the_victim(self, corpus):
        """``kill_worker`` returns only once the process has exited, so
        an immediate ``revive_workers`` never skips it as still alive."""
        workload, queries = corpus
        with RetrievalService.from_base(build_base(workload),
                                        service_config()) as threads:
            expected = exact(threads.retrieve(queries[0], k=5).matches)
        with RetrievalService.from_base(build_base(workload),
                                        process_config()) as service:
            for round_index in range(10):
                victim = round_index % PROCESSES
                service.pool.kill_worker(victim)
                assert service.pool.revive_workers() == [victim]
                result = service.retrieve(queries[0], k=5)
                assert result.status == "ok"
                assert exact(result.matches) == expected

    def test_alive_workers_reflects_the_kill(self, corpus):
        workload, queries = corpus
        with RetrievalService.from_base(build_base(workload),
                                        process_config()) as service:
            assert service.pool.alive_workers() == list(range(PROCESSES))
            service.pool.kill_worker(0)
            service.retrieve(queries[0], k=3)   # detection is lazy
            assert service.pool.alive_workers() == [1]


# ----------------------------------------------------------------------
# Pool lifecycle and deadlines
# ----------------------------------------------------------------------
class TestPoolLifecycle:
    def test_same_surface_as_workerpool(self, corpus):
        pool = ProcessWorkerPool(processes=2, workers=2)
        try:
            assert pool.map_over(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
            assert pool.submit(lambda: 7).result() == 7
            assert not pool.closed
        finally:
            pool.shutdown()
        assert pool.closed
        pool.shutdown()                      # idempotent

    def test_default_pool_publishes_into_a_directory_it_owns(
            self, corpus):
        """Without ``snapshot_dir`` the pool publishes files into a
        private temporary directory, removes it on close (also after a
        kill -> revive -> full republish cycle) and creates nothing
        under /dev/shm."""
        workload, queries = corpus
        shm = "/dev/shm"
        shm_before = set(os.listdir(shm)) if os.path.isdir(shm) else set()
        for cycle in (False, True):
            service = RetrievalService.from_base(build_base(workload),
                                                process_config())
            try:
                pool = service.procpool
                directory = pool.publish_dir
                assert os.path.isdir(directory)
                first = sorted(os.listdir(directory))
                assert len(first) == NUM_SHARDS
                if cycle:
                    pool.kill_worker(0)
                    assert pool.revive_workers() == [0]
                    result = service.retrieve(queries[0], k=3)
                    assert result.status == "ok"
                    republished = sorted(os.listdir(directory))
                    assert len(republished) == NUM_SHARDS
                    assert not set(first) & set(republished)
                if os.path.isdir(shm):
                    assert set(os.listdir(shm)) <= shm_before
            finally:
                service.close()
            assert not os.path.exists(directory)

    def test_shutdown_reaps_worker_processes(self, corpus):
        workload, _ = corpus
        service = RetrievalService.from_base(build_base(workload),
                                            process_config())
        pids = [p for p in service.pool.worker_pids() if p]
        assert pids
        service.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            alive = [pid for pid in pids
                     if _process_exists(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive

    def test_zero_deadline_degrades_without_hanging(self, corpus):
        workload, queries = corpus
        with RetrievalService.from_base(build_base(workload),
                                        process_config()) as service:
            start = time.monotonic()
            result = service.retrieve(queries[0], k=3, deadline=0.0)
            assert time.monotonic() - start < 5.0
            assert result.status == "ok"
            assert result.degraded

    def test_view_exposes_parent_surface(self, corpus):
        workload, queries = corpus
        with RetrievalService.from_base(build_base(workload),
                                        process_config()) as service:
            view = ProcessShardView(service.pool,
                                    service.shards.shards[0])
            assert view.index == 0
            assert view.base is service.shards.shards[0].base
            assert view.num_shapes == service.shards.shards[0].num_shapes
            matches, stats = view.query_batch([queries[0]], 3)[0]
            direct, _ = service.shards.shards[0].query_batch(
                [queries[0]], 3)[0]
            assert exact(matches) == exact(direct)


def _process_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


# ----------------------------------------------------------------------
# Fork safety: scratch pools must be per-process (satellite)
# ----------------------------------------------------------------------
def _child_scratch_probe(conn, matcher, query):
    """Run one query in the child; report the scratch pool identities.

    The inherited (pre-fork) scratch objects are kept alive for the
    whole probe: if they were freed, the allocator could hand their
    addresses to the rebuilt pool and ``id()`` comparisons against the
    parent would collide spuriously.
    """
    with matcher._scratch_lock:
        inherited = list(matcher._scratch_pool)       # pin: no id reuse
        inherited_ids = [id(s) for s in inherited]
    matches, _ = matcher.query(query, k=3)
    with matcher._scratch_lock:
        pool_ids = [id(s) for s in matcher._scratch_pool]
    conn.send((os.getpid(), inherited_ids, pool_ids,
               [(m.shape_id, m.distance) for m in matches]))
    conn.close()
    del inherited


def _child_buffer_probe(conn, pool):
    pool.read_block(0)
    conn.send((pool.stats.hits, pool.stats.misses))
    conn.close()


class TestForkSafety:
    def test_matcher_scratch_not_shared_across_fork(self, corpus):
        workload, queries = corpus
        base = build_base(workload)
        matcher = GeometricSimilarityMatcher(base)
        matcher.query(queries[0], k=3)       # populate the scratch pool
        with matcher._scratch_lock:
            parent_ids = {id(s) for s in matcher._scratch_pool}
        assert parent_ids
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        child = ctx.Process(target=_child_scratch_probe,
                            args=(child_conn, matcher, queries[0]))
        child.start()
        child_conn.close()
        child_pid, inherited_ids, child_ids, child_answer = \
            parent_conn.recv()
        child.join(timeout=10)
        assert child_pid != os.getpid()
        # The child saw the parent's pool arrive through fork...
        assert set(inherited_ids) == parent_ids
        # ...and rebuilt it on first use: no inherited buffer survives
        # into the child's pool, so concurrent queries in parent and
        # child can never clobber each other's scratch.
        assert parent_ids.isdisjoint(child_ids)
        parent_matches, _ = matcher.query(queries[0], k=3)
        assert [(m.shape_id, m.distance)
                for m in parent_matches] == child_answer
        with matcher._scratch_lock:
            assert {id(s) for s in matcher._scratch_pool} == parent_ids

    def test_buffer_pool_stats_reset_in_child(self):
        from repro.storage.buffer import BufferPool
        from repro.storage.disk import BlockDevice
        device = BlockDevice()
        device.allocate(b"block zero")
        pool = BufferPool(device, capacity=2)
        pool.read_block(0)
        pool.read_block(0)
        assert (pool.stats.hits, pool.stats.misses) == (1, 1)
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        child = ctx.Process(target=_child_buffer_probe,
                            args=(child_conn, pool))
        child.start()
        child_conn.close()
        child_stats = parent_conn.recv()
        child.join(timeout=10)
        # Child starts a fresh window (cold frames, zero stats) instead
        # of inheriting — and counting into — the parent's.
        assert child_stats == (0, 1)
        assert (pool.stats.hits, pool.stats.misses) == (1, 1)


def _busy_stats(seed: int) -> MatchStats:
    """A ``MatchStats`` with no field at its default."""
    stats = MatchStats()
    for spec in dataclasses.fields(MatchStats):
        value = getattr(stats, spec.name)
        if isinstance(value, bool):
            value = True
        elif isinstance(value, int):
            value = seed + len(spec.name)
        elif isinstance(value, list):
            value = [0.01 * seed, 0.02 * seed]
        elif isinstance(value, dict):
            value = {"filter": 0.001 * seed}
        else:
            raise AssertionError(f"no busy value for {spec.name}")
        setattr(stats, spec.name, value)
    return stats


class TestStatsWire:
    """Every ``MatchStats`` field reaches the parent: a field added to
    the dataclass cannot be dropped by the pipe or the shard merge."""

    def test_every_field_survives_the_wire(self):
        stats = _busy_stats(3)
        assert _stats_from_wire(_stats_to_wire(stats)) == stats
        assert _stats_to_wire(stats).keys() == \
            {spec.name for spec in dataclasses.fields(MatchStats)}

    def test_every_field_survives_the_merge(self):
        stats = _busy_stats(5)
        assert _merge_stats([_stats_from_wire(_stats_to_wire(stats))]) == \
            stats

    def test_merge_sums_work_and_ors_the_abort(self):
        a, b = _busy_stats(2), _busy_stats(7)
        b.aborted = b.guaranteed = False
        merged = _merge_stats([a, b])
        assert merged.vertices_scanned == \
            a.vertices_scanned + b.vertices_scanned
        assert merged.aborted and merged.exhausted
        assert not merged.guaranteed
        assert not _merge_stats([b, MatchStats()]).aborted
