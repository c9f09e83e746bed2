"""Tests for the HTTP/JSON network tier (:mod:`repro.service.http`).

The headline acceptance scenario: with two replicas warmed from the
same published snapshot, SIGKILLing one mid-stream yields zero errored
client responses (every answer is ``ok`` or ``degraded``), the
balancer evicts the dead replica within a health-check round, and a
restarted replica re-attaches from the snapshot and resumes serving.
Around that sit unit tests for the wire helpers (deadline header
parsing, similarity-invariant ETags), the per-replica server surface
(healthz/readyz/stats, ETag/304 validation, 503 load shedding with
body draining on keep-alive connections, degraded answers marked
``no-store``), the balancer's failover/retry behavior, the
single-address front door, connection reuse (the balancer's
keep-alive pool, Nagle off, the idle timeout, stale-connection replay,
the ``http.connections`` counter, one sketch normalization per
request), least-outstanding routing over in-process stub replicas
(in-flight and routed counts, ``balancer.busy_routes``, down / open /
half-open slots, reservations released on every outcome), client
resets counted rather than printed, and the lifecycle satellites
(idempotent concurrent close, uptime/snapshot-version stats, histogram
quantiles).
"""

import http.client
import inspect
import json
import multiprocessing
import os
import socket
import struct
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro import Shape, ShapeBase
from repro.ann import AnnConfig
from repro.geometry import transform
from repro.geometry.io import shape_to_dict
from repro.imaging import generate_workload, make_query_set
from repro.service import (Balancer, BalancerServer, BreakerConfig,
                           HttpRetrievalServer, NoHealthyReplicas,
                           ReplicaSet, ReplicaStartupError,
                           RetrievalService, ServiceConfig)
from repro.service.faults import ALL_OPS, FaultPlan, FaultSpec
from repro.service.breaker import CLOSED, HALF_OPEN
from repro.service.http import (DEADLINE_HEADER, _Handler, _HttpServer,
                                parse_deadline_ms, query_etag,
                                result_payload)
from repro.service.metrics import Histogram, MetricsRegistry
from repro.storage import save_base

NUM_SHARDS = 3


# ----------------------------------------------------------------------
# Shared corpus + snapshot
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus():
    """Seeded workload + populated base shared by the module."""
    rng = np.random.default_rng(909090)
    workload = generate_workload(14, rng, shapes_per_image=3.0,
                                 noise=0.008, num_prototypes=6)
    base = ShapeBase(alpha=0.05)
    for image in workload.images:
        for shape in image.shapes:
            base.add_shape(shape, image_id=image.image_id)
    queries = [q for q, _ in make_query_set(
        workload, 8, np.random.default_rng(23), noise=0.008)]
    return base, queries


@pytest.fixture(scope="module")
def snapshot_path(corpus, tmp_path_factory):
    base, _ = corpus
    path = tmp_path_factory.mktemp("http-snap") / "corpus.gsb"
    save_base(base, path)
    return path


@pytest.fixture(scope="module")
def server(corpus):
    """One in-process replica server over a thread-execution service."""
    base, _ = corpus
    service = RetrievalService.from_base(base, ServiceConfig(
        num_shards=NUM_SHARDS, workers=2, cache_capacity=32))
    with HttpRetrievalServer(service, replica_id=0) as srv:
        yield srv
    service.close()


@pytest.fixture(scope="module")
def front(server):
    """The single-address front door over the in-process replica."""
    with Balancer([server.address], health_interval=30.0) as balancer, \
            BalancerServer(balancer) as door:
        yield door


@pytest.fixture(params=["replica", "front"])
def door(request, server):
    """Where a client connects: the replica itself or the front door."""
    if request.param == "replica":
        return server
    return request.getfixturevalue("front")


def request(endpoint, method, path, body=None, headers=None,
            timeout=30.0):
    """One plain-stdlib request; returns (status, headers, payload)."""
    host, port = endpoint
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        encoded = None if body is None else json.dumps(body).encode()
        send = {"Content-Type": "application/json"}
        send.update(headers or {})
        conn.request(method, path, body=encoded, headers=send)
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw.decode()) if raw else None
        return (response.status,
                {k.lower(): v for k, v in response.getheaders()},
                payload)
    finally:
        conn.close()


def transformed(shape, angle=0.7, scale=2.5, shift=(4.0, -1.5)):
    """A rotated/scaled/translated copy (same similarity class)."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    vertices = shape.vertices @ rot.T * scale + np.asarray(shift)
    return Shape(vertices, closed=shape.closed)


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------
class TestWireHelpers:
    def test_parse_deadline_ms(self):
        assert parse_deadline_ms(None) is None
        assert parse_deadline_ms("") is None
        assert parse_deadline_ms("  ") is None
        assert parse_deadline_ms("250") == 250.0
        assert parse_deadline_ms("12.5") == 12.5
        assert parse_deadline_ms("-40") == 0.0
        with pytest.raises(ValueError):
            parse_deadline_ms("soon")

    def test_etag_is_similarity_invariant(self, corpus):
        _, queries = corpus
        sketch = queries[0]
        tag = query_etag(3, sketch, 2)
        assert tag == query_etag(3, transformed(sketch), 2)
        # Any corpus mutation or different k names a different answer.
        assert tag != query_etag(4, sketch, 2)
        assert tag != query_etag(3, sketch, 3)
        # Distinct queries get distinct tags.
        assert tag != query_etag(3, queries[1], 2)

    def test_result_payload_reports_shard_failures_as_degraded(
            self, corpus):
        base, queries = corpus
        plan = FaultPlan([FaultSpec(0, "exception", probability=1.0,
                                    ops=ALL_OPS)], seed=0)
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2, cache_capacity=0,
            fault_plan=plan, retry_attempts=1))
        try:
            payload = result_payload(service.retrieve(queries[0], k=2))
        finally:
            service.close()
        assert payload["degraded"] is True
        assert payload["failed_shards"] == [0]
        assert payload["status"] in ("ok", "degraded")


# ----------------------------------------------------------------------
# The per-replica HTTP server
# ----------------------------------------------------------------------
class TestHttpServer:
    def test_healthz_and_readyz(self, server):
        status, _, payload = request(server.address, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "alive"
        assert payload["replica"] == 0
        status, _, payload = request(server.address, "GET", "/readyz")
        assert status == 200
        assert payload["status"] == "ready"
        assert payload["shards"] == NUM_SHARDS
        assert payload["snapshot_version"] == \
            server.service.shards.version

    def test_query_matches_direct_service(self, server, corpus):
        _, queries = corpus
        sketch = queries[0]
        direct = server.service.retrieve(sketch, k=3)
        status, headers, payload = request(
            server.address, "POST", "/query",
            {"sketch": shape_to_dict(sketch), "k": 3})
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["tier"] in ("exact", "ann", "hash")
        assert payload["snapshot_version"] == \
            server.service.shards.version
        wire = [(m["shape_id"], round(m["distance"], 9))
                for m in payload["matches"]]
        local = [(m.shape_id, round(m.distance, 9))
                 for m in direct.matches]
        assert wire == local
        assert [m["rank"] for m in payload["matches"]] == [1, 2, 3]
        assert headers.get("etag") == query_etag(
            server.service.shards.version, sketch, 3)

    def test_etag_revalidation_yields_304(self, server, corpus):
        _, queries = corpus
        body = {"sketch": shape_to_dict(queries[1]), "k": 2}
        status, headers, _ = request(server.address, "POST", "/query",
                                     body)
        assert status == 200
        etag = headers["etag"]
        status, headers, payload = request(
            server.address, "POST", "/query", body,
            headers={"If-None-Match": etag})
        assert status == 304
        assert payload is None
        assert headers["etag"] == etag
        # A transformed sketch is the same similarity class: the
        # stored answer still validates.
        status, _, _ = request(
            server.address, "POST", "/query",
            {"sketch": shape_to_dict(transformed(queries[1])), "k": 2},
            headers={"If-None-Match": etag})
        assert status == 304
        # A stale tag (different corpus version) must not validate.
        status, _, payload = request(
            server.address, "POST", "/query", body,
            headers={"If-None-Match": '"g999-deadbeef"'})
        assert status == 200
        assert payload["matches"]

    def test_expired_deadline_sheds_503(self, server, corpus):
        _, queries = corpus
        status, headers, payload = request(
            server.address, "POST", "/query",
            {"sketch": shape_to_dict(queries[0]), "k": 1},
            headers={DEADLINE_HEADER: "0"})
        assert status == 503
        assert headers["retry-after"] == "1"
        assert payload["status"] == "overloaded"

    def test_keepalive_survives_shed(self, door, corpus):
        """Shed, 404 and 400 responses must drain the request body: a
        second request on the same connection would otherwise read the
        first's unread bytes as its request line."""
        _, queries = corpus
        host, port = door.address
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            body = json.dumps(
                {"sketch": shape_to_dict(queries[2]), "k": 1}).encode()
            conn.request("POST", "/query", body=body,
                         headers={"Content-Type": "application/json",
                                  DEADLINE_HEADER: "0"})
            response = conn.getresponse()
            assert response.status == 503
            response.read()
            # Same connection, normal query: must parse cleanly.
            conn.request("POST", "/query", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read().decode())
            assert response.status == 200
            assert payload["status"] == "ok"
            # Every early exit drains: an unknown route, a bad header.
            for path, header, code in (("/nope", "1000", 404),
                                       ("/query", "whenever", 400)):
                conn.request("POST", path, body=body,
                             headers={"Content-Type": "application/json",
                                      DEADLINE_HEADER: header})
                response = conn.getresponse()
                response.read()
                assert response.status == code
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                payload = json.loads(response.read().decode())
                assert response.status == 200
                assert payload["status"] == "alive"
        finally:
            conn.close()

    def test_query_batch(self, server, corpus):
        _, queries = corpus
        status, headers, payload = request(
            server.address, "POST", "/query_batch",
            {"sketches": [shape_to_dict(q) for q in queries[:3]],
             "k": 2})
        assert status == 200
        assert headers.get("cache-control") == "no-store"
        assert len(payload["results"]) == 3
        for result in payload["results"]:
            assert result["status"] == "ok"
            assert result["matches"]

    def test_bad_requests_get_400(self, door, corpus):
        _, queries = corpus
        status, _, payload = request(door.address, "POST", "/query",
                                     {"k": 1})
        assert status == 400
        assert "bad request" in payload["error"]
        status, _, _ = request(
            door.address, "POST", "/query",
            {"sketch": shape_to_dict(queries[0]), "k": 0})
        assert status == 400
        status, _, _ = request(
            door.address, "POST", "/query",
            {"sketch": shape_to_dict(queries[0]), "k": 1},
            headers={DEADLINE_HEADER: "whenever"})
        assert status == 400
        status, _, _ = request(door.address, "POST", "/nowhere",
                               {"x": 1})
        assert status == 404
        status, _, _ = request(door.address, "GET", "/nowhere")
        assert status == 404

    def test_malformed_k_is_400_on_both_query_endpoints(self, server,
                                                        corpus):
        """``k`` is parsed once for ``/query`` and ``/query_batch``: a
        bad one never reaches a shard, so the next honest query is ok."""
        _, queries = corpus
        failures = server.service.metrics.counter("shards.failures")
        before = failures.value
        sketch = shape_to_dict(queries[0])
        for path, body in (("/query", {"sketch": sketch, "k": 0}),
                           ("/query_batch", {"sketches": [sketch],
                                             "k": 0}),
                           ("/query_batch", {"sketches": [sketch],
                                             "k": "many"})):
            status, _, payload = request(server.address, "POST", path,
                                         body)
            assert status == 400
            assert "bad request" in payload["error"]
        assert failures.value == before
        status, _, payload = request(server.address, "POST", "/query",
                                     {"sketch": sketch, "k": 1})
        assert status == 200 and payload["status"] == "ok"

    def test_stats_surface(self, server, corpus):
        _, queries = corpus
        request(server.address, "POST", "/query",
                {"sketch": shape_to_dict(queries[0]), "k": 1})
        status, _, snap = request(server.address, "GET", "/stats")
        assert status == 200
        assert snap["uptime_s"] >= 0.0
        assert snap["snapshot"]["version"] == \
            server.service.shards.version
        assert snap["server"]["replica"] == 0
        assert snap["server"]["uptime_s"] >= 0.0
        latency = snap["histograms"]["http.latency"]
        for key in ("count", "mean", "p50", "p90", "p95", "p99",
                    "max"):
            assert key in latency
        assert snap["counters"]["http.queries"] >= 1

    def test_degraded_answers_are_not_cacheable(self, corpus):
        base, queries = corpus
        plan = FaultPlan([FaultSpec(0, "exception", probability=1.0,
                                    ops=ALL_OPS)], seed=0)
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2, cache_capacity=0,
            fault_plan=plan, retry_attempts=1))
        with HttpRetrievalServer(service, replica_id=7) as srv:
            status, headers, payload = request(
                srv.address, "POST", "/query",
                {"sketch": shape_to_dict(queries[0]), "k": 2})
        service.close()
        assert status == 200
        assert payload["degraded"] is True
        assert payload["failed_shards"] == [0]
        assert "etag" not in headers
        assert headers.get("cache-control") == "no-store"

    def test_close_idempotent_under_concurrent_callers(self, corpus):
        base, _ = corpus
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2))
        srv = HttpRetrievalServer(service).start()
        workers = 8
        barrier = threading.Barrier(workers)
        errors = []

        def slam():
            barrier.wait()
            try:
                srv.close()
                service.close()
            except Exception as exc:      # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=slam)
                   for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert srv.closed
        with pytest.raises(RuntimeError):
            service.retrieve(Shape([[0, 0], [1, 0], [1, 1]],
                                   closed=True))


# ----------------------------------------------------------------------
# Satellites: metrics quantiles, service readiness/uptime
# ----------------------------------------------------------------------
class TestSatellites:
    def test_histogram_summary_exports_quantiles(self):
        hist = Histogram("latency.test")
        for value in range(1, 101):
            hist.observe(float(value))
        summary = hist.summary()
        for key in ("count", "window_count", "sum", "mean", "p50",
                    "p90", "p95", "p99", "max"):
            assert key in summary
        assert summary["count"] == 100
        assert summary["max"] == 100.0
        assert 45.0 <= summary["p50"] <= 55.0
        assert summary["p90"] >= summary["p50"]
        assert summary["p99"] >= summary["p95"] >= summary["p90"]

    def test_service_snapshot_reports_uptime_and_version(self, corpus):
        base, queries = corpus
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=2))
        try:
            service.retrieve(queries[0])
            snap = service.snapshot()
            assert snap["uptime_s"] >= 0.0
            assert snap["snapshot"]["version"] == \
                service.shards.version
            assert snap["snapshot"]["source"] is None
            assert service.ready()
        finally:
            service.close()
        assert not service.ready()

    def test_snapshot_source_recorded_from_snapshot(
            self, snapshot_path):
        service = RetrievalService.from_snapshot(
            snapshot_path, ServiceConfig(num_shards=NUM_SHARDS,
                                         workers=2))
        try:
            snap = service.snapshot()
            assert snap["snapshot"]["source"] == str(snapshot_path)
            assert service.ready()
        finally:
            service.close()


# ----------------------------------------------------------------------
# Connection reuse: pooled keep-alive, Nagle off, idle timeout
# ----------------------------------------------------------------------
def connections(*servers):
    """Connections the servers have accepted so far."""
    return sum(srv.metrics.counter("http.connections").value
               for srv in servers)


@pytest.fixture
def replica_pair(corpus):
    """Two in-process replicas, each over its own thread service."""
    base, _ = corpus
    services = [RetrievalService.from_base(base, ServiceConfig(
        num_shards=NUM_SHARDS, workers=2, cache_capacity=32))
        for _ in range(2)]
    servers = [HttpRetrievalServer(service, replica_id=i).start()
               for i, service in enumerate(services)]
    yield servers
    for srv, service in zip(servers, services):
        srv.close()
        service.close()


class TestConnectionReuse:
    def test_keepalive_answers_without_delayed_ack_stall(self, door):
        """With Nagle on, each keep-alive response's body waits for the
        client's delayed ACK (>= 40 ms): 20 requests took ~0.84 s."""
        conn = http.client.HTTPConnection(*door.address, timeout=30.0)
        try:
            conn.request("GET", "/healthz")   # connect outside the clock
            conn.getresponse().read()
            started = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert json.loads(response.read())["status"] == "alive"
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f}s"

    @pytest.mark.parametrize("partial", [
        b"GET /hea",
        b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{",
    ], ids=["request-line", "body"])
    def test_stalled_request_is_closed_after_the_timeout(
            self, door, partial, monkeypatch):
        """Half a request must not pin a handler thread, nor end in a
        server error.  The idle timeout defaults to the balancer's
        request timeout."""
        default = inspect.signature(Balancer).parameters["request_timeout"]
        assert _Handler.timeout == default.default
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        errors = []
        monkeypatch.setattr(type(door._httpd), "handle_error",
                            lambda self, request, address:
                            errors.append(address))
        with socket.create_connection(door.address, timeout=10.0) as sock:
            sock.sendall(partial)
            while sock.recv(4096):                # closed, not hanging
                pass
        assert not errors

    def test_sequential_requests_reuse_one_connection_per_replica(
            self, replica_pair, corpus):
        _, queries = corpus
        with Balancer([srv.address for srv in replica_pair],
                      health_interval=30.0) as balancer:
            for index in range(50):
                response = balancer.query(queries[index % len(queries)],
                                          k=2)
                assert response.status_code == 200
        assert connections(*replica_pair) == 2    # one per request before
        status, _, snap = request(replica_pair[0].address, "GET",
                                  "/stats")
        assert status == 200
        # /stats counts the connection it arrived on.
        assert snap["counters"]["http.connections"] == 2

    def test_concurrent_clients_open_at_most_one_connection_each(
            self, replica_pair, corpus):
        """More clients than cores, switching threads often: a pooled
        connection handed to two requests at once would garble both,
        and a lost in-flight update would leave a count off zero."""
        _, queries = corpus
        clients = 4
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Balancer([srv.address for srv in replica_pair],
                          health_interval=30.0) as balancer:
                def client(offset):
                    for index in range(20):
                        response = balancer.query(
                            queries[(offset + index) % len(queries)], k=2)
                        if response.status_code != 200:
                            errors.append(response.payload)

                threads = [threading.Thread(target=client, args=(offset,))
                           for offset in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
                stats = balancer.stats()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert stats["counters"].get("balancer.conn_failures", 0) == 0
        # No reservation lost or leaked under thread switches.
        assert stats["inflight"] == [0, 0]
        assert sum(stats["routed"]) == clients * 20
        assert connections(*replica_pair) <= clients * len(replica_pair)

    def test_connection_closed_while_idle_is_replayed(
            self, replica_pair, corpus, monkeypatch):
        """A pooled connection the replica timed out is not a replica
        failure: the request goes again on a fresh connection."""
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        _, queries = corpus
        replica = replica_pair[0]
        with Balancer([replica.address], health_interval=30.0) as balancer:
            assert balancer.query(queries[0], k=2).status_code == 200
            time.sleep(1.0)                        # > the idle timeout
            response = balancer.query(queries[1], k=2)
            assert response.status_code == 200
            assert response.attempts == 1
            counters = balancer.metrics.as_dict()["counters"]
            assert counters.get("balancer.stale_replays") == 1
            assert counters.get("balancer.conn_failures", 0) == 0
            assert balancer.stats()["breakers"]["0"]["failure_rate"] == 0.0
        assert connections(replica) == 2

    def test_close_ends_kept_alive_connections(self, corpus):
        """A connection kept alive across ``close()`` must see the
        connection close, not a 503/500 from a closed service."""
        base, _ = corpus
        service = RetrievalService.from_base(base, ServiceConfig(
            num_shards=NUM_SHARDS, workers=1))
        srv = HttpRetrievalServer(service).start()
        conn = http.client.HTTPConnection(*srv.address, timeout=10.0)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            srv.close()
            service.close()
            with pytest.raises(ConnectionError):
                conn.request("GET", "/healthz")
                conn.getresponse().read()
        finally:
            conn.close()

    def test_replace_endpoint_and_close_drop_idle_connections(
            self, replica_pair, corpus):
        _, queries = corpus
        first, second = replica_pair
        balancer = Balancer([first.address], health_interval=30.0)
        try:
            assert balancer.query(queries[0], k=1).status_code == 200
            (idle,) = balancer._idle[first.address]
            balancer.replace_endpoint(0, second.address)
            assert idle.sock is None                # closed
            assert first.address not in balancer._idle
            assert balancer.query(queries[0], k=1).endpoint == \
                second.address
            (idle,) = balancer._idle[second.address]
        finally:
            balancer.close()
        assert idle.sock is None
        balancer.close()                            # still idempotent
        assert connections(second) == 1


# ----------------------------------------------------------------------
# Least-outstanding routing, over in-process stub replicas
# ----------------------------------------------------------------------
class _StubHandler(_Handler):
    """``POST /query`` answers the stub's next scripted status (200 when
    none is left), first waiting on the stub's hold if one is set."""

    def _readyz(self) -> None:
        self.respond(200 if self.app.ready else 503, {})

    def _query(self) -> None:
        stub = self.app
        self.body()
        with stub.lock:
            stub.received += 1
            hold, stub.hold = stub.hold, None
            code = stub.codes.pop(0) if stub.codes else 200
        if hold is not None:
            stub.entered.set()
            hold.wait(10.0)
        self.respond(code, None if code == 304 else {"status": "ok"})

    routes = {("GET", "/readyz"): _readyz, ("POST", "/query"): _query}


class StubReplica(_HttpServer):
    handler = _StubHandler

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.lock = threading.Lock()
        self.codes = []
        self.hold = None
        self.entered = threading.Event()
        self.ready = True
        self.received = 0
        super().__init__("127.0.0.1", 0)


@pytest.fixture
def stubs():
    replicas = [StubReplica().start() for _ in range(2)]
    yield replicas
    for stub in replicas:
        stub.close()


def stub_balancer(endpoints, **kwargs):
    kwargs.setdefault("health_interval", 30.0)
    kwargs.setdefault("retry_backoff", 0.0)
    return Balancer(endpoints, **kwargs)


def query(balancer):
    return balancer.request("POST", "/query", {})


@contextmanager
def held(balancer, stub):
    """One request routed by ``balancer`` and held open at ``stub``
    until the block ends; yields the list its response lands in."""
    release = threading.Event()
    stub.entered.clear()
    stub.hold = release
    responses = []
    thread = threading.Thread(
        target=lambda: responses.append(query(balancer)))
    thread.start()
    try:
        assert stub.entered.wait(10.0), "the held request never arrived"
        yield responses
    finally:
        release.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()


def busy_routes(balancer):
    return balancer.metrics.counter("balancer.busy_routes").value


def closed_port():
    """An address nothing listens on: a port grabbed, then released."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return ("127.0.0.1", port)


class TestLeastOutstandingRouting:
    def test_requests_avoid_the_replica_holding_one(self, stubs):
        """Round-robin sent the second of these two to the busy
        replica, where it waited out the held request."""
        first, second = stubs
        with stub_balancer([first.address, second.address]) as balancer:
            with held(balancer, first) as responses:
                assert balancer.stats()["inflight"] == [1, 0]
                for _ in range(2):
                    response = query(balancer)
                    assert response.endpoint == second.address
                    assert response.attempts == 1
                assert busy_routes(balancer) == 0
            assert responses[0].endpoint == first.address
            stats = balancer.stats()
            assert stats["inflight"] == [0, 0]
            assert stats["routed"] == [1, 2]
            # Idle again, sequential traffic alternates.
            endpoints = [query(balancer).endpoint for _ in range(4)]
            assert set(endpoints[:2]) == set(endpoints[2:]) == \
                {first.address, second.address}

    @pytest.mark.parametrize("exclusion", ["down", "open"])
    def test_an_excluded_slot_is_skipped_though_idlest(self, stubs,
                                                       exclusion):
        first, second = stubs
        breaker = BreakerConfig(window=2, failure_threshold=0.5,
                                min_volume=1, cooldown=60.0)
        with stub_balancer([first.address, second.address],
                           retry_budget=0, breaker=breaker) as balancer:
            if exclusion == "down":
                second.ready = False
                assert balancer.check_health() == [0]
            else:
                second.codes = [500]
                query(balancer)                     # slot 0
                assert query(balancer).status_code == 500
                assert balancer.healthy() == [0]
            with held(balancer, first):
                response = query(balancer)
                assert response.endpoint == first.address
                assert busy_routes(balancer) == 1
            assert balancer.stats()["inflight"] == [0, 0]

    def test_a_half_open_slot_admits_one_probe(self, stubs):
        """The idle half-open slot takes the probe; while it is out,
        later requests go to the busy sibling instead."""
        first, second = stubs
        breaker = BreakerConfig(window=2, failure_threshold=0.5,
                                min_volume=1, cooldown=0.0)
        with stub_balancer([first.address, second.address],
                           retry_budget=0, breaker=breaker) as balancer:
            second.codes = [500]
            query(balancer)                         # slot 0
            assert query(balancer).status_code == 500
            with held(balancer, first):
                with held(balancer, second) as probe:
                    assert balancer.stats()["breakers"]["1"]["state"] \
                        == HALF_OPEN
                    assert second.received == 2
                    for _ in range(2):
                        assert query(balancer).endpoint == first.address
                    assert second.received == 2
                    assert balancer.stats()["inflight"] == [1, 1]
            assert probe[0].status_code == 200
            assert balancer.stats()["breakers"]["1"]["state"] == CLOSED
            assert balancer.stats()["inflight"] == [0, 0]

    @pytest.mark.parametrize("outcome", ["refused", "503", "500", "304",
                                         "stale"])
    def test_in_flight_returns_to_zero(self, stubs, outcome):
        first, second = stubs
        endpoints = [first.address, second.address]
        if outcome == "refused":
            endpoints[0] = closed_port()
        elif outcome == "304":
            first.codes = [304]
        elif outcome != "stale":
            first.codes = [int(outcome)]
        with stub_balancer(endpoints) as balancer:
            if outcome == "stale":
                query(balancer)                     # pools a connection
                query(balancer)                     # ... to each stub
                first._httpd.close_connections()
            response = query(balancer)
            assert response.endpoint == endpoints[0 if outcome in (
                "304", "stale") else 1]
            stats = balancer.stats()
            assert stats["inflight"] == [0, 0]
            if outcome == "stale":
                assert stats["counters"]["balancer.stale_replays"] == 1

    def test_replace_endpoint_mid_request_leaks_no_count(self, stubs):
        first, second = stubs
        with stub_balancer([first.address]) as balancer:
            with held(balancer, first) as responses:
                balancer.replace_endpoint(0, second.address)
                # Still out on the old address, still counted.
                assert balancer.stats()["inflight"] == [1]
            assert responses[0].endpoint == first.address
            assert balancer.stats()["inflight"] == [0]
            assert query(balancer).endpoint == second.address
            assert balancer.stats()["inflight"] == [0]
            assert balancer.stats()["routed"] == [2]


def test_a_client_reset_is_counted_not_printed(stubs, capfd):
    """A kept-alive client that resets its connection is a normal close
    (``http.client_resets``), not a server error with a traceback."""
    stub = stubs[0]
    conn = http.client.HTTPConnection(*stub.address, timeout=10.0)
    conn.request("GET", "/readyz")
    assert conn.getresponse().read() == b"{}"
    # Linger 0: close() sends a reset instead of a FIN.
    conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                         struct.pack("ii", 1, 0))
    conn.close()
    assert wait_until(lambda: stub.metrics.counter(
        "http.client_resets").value == 1)
    counters = stub.metrics.as_dict()["counters"]
    assert counters.get("http.errors", 0) == 0
    assert "Traceback" not in capfd.readouterr().err


def test_each_sketch_is_normalized_once_per_request(corpus, monkeypatch):
    """The ETag, the cache key and every shard's tier read one memoized
    normalization (it took 4 on a 2-shard ANN miss at a replica, 2 on
    a replica cache hit and 2 on an in-process exact query)."""
    base, queries = corpus
    calls = []
    real = transform.normalize_about_diameter

    def counting(shape):
        calls.append(shape)
        return real(shape)

    monkeypatch.setattr(transform, "normalize_about_diameter", counting)

    def normalizations(run):
        calls.clear()
        run()
        return len(calls)

    sketch = queries[5]
    assert sketch.normalized is sketch.normalized
    assert np.array_equal(sketch.normalized.shape.vertices,
                          real(sketch).shape.vertices)

    ann = ServiceConfig(num_shards=2, cache_capacity=8, ann=AnnConfig(),
                        ann_mode="always")
    with RetrievalService.from_base(base, ann) as service, \
            HttpRetrievalServer(service) as srv:
        def post():
            status, _, payload = request(
                srv.address, "POST", "/query",
                {"sketch": shape_to_dict(queries[4]), "k": 2})
            assert status == 200
            return payload["cached"]

        assert normalizations(post) == 1           # miss: ETag, key, 2 shards
        assert normalizations(post) == 1           # hit: ETag, key
        assert post() is True

    exact = ServiceConfig(num_shards=1, cache_capacity=0)
    with RetrievalService.from_base(base, exact) as service:
        assert normalizations(
            lambda: service.retrieve(queries[6], k=2)) == 1


# ----------------------------------------------------------------------
# Replica fleet + balancer (the acceptance scenario)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet(snapshot_path):
    """Two thread-execution replicas warmed from one snapshot, plus a
    balancer with a fast, deterministic-pollable health check."""
    config = ServiceConfig(num_shards=NUM_SHARDS, workers=2,
                           cache_capacity=0)
    with ReplicaSet(snapshot_path, replicas=2, config=config,
                    startup_timeout=180.0) as replicas:
        with Balancer(replicas.endpoints(), health_interval=0.1,
                      retry_budget=2, retry_backoff=0.01) as balancer:
            yield replicas, balancer


def wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestReplicaFleet:
    def test_replica_kill_failover_evict_restart(self, fleet, corpus):
        """The acceptance scenario end to end: kill → zero errors →
        eviction within a health round → restart re-attaches from the
        published snapshot and resumes serving."""
        replicas, balancer = fleet
        _, queries = corpus

        # Warm path: both replicas answer through the balancer.
        response = balancer.query(queries[0], k=2)
        assert response.status_code == 200
        assert response.payload["status"] == "ok"
        assert balancer.check_health() == [0, 1]

        # Chaos: SIGKILL replica 0 mid-stream.  Every in-flight and
        # subsequent query must come back ok/degraded, never errored —
        # connection failures are retried on the sibling.
        replicas.kill(0)
        assert 0 not in replicas.alive()     # kill() returns once it exited
        outcomes = []
        for index in range(20):
            response = balancer.query(queries[index % len(queries)],
                                      k=2)
            assert response.status_code == 200, response.payload
            outcomes.append(response.payload["status"])
        assert all(status in ("ok", "degraded")
                   for status in outcomes)

        # Eviction: one direct probe round confirms the dead replica
        # is excluded (the background thread does the same every
        # health_interval seconds).
        assert wait_until(lambda: balancer.check_health() == [1])
        assert balancer.healthy() == [1]

        # Warm standby: a fresh process re-attaches from the same
        # published snapshot and the balancer re-admits it.
        address = replicas.restart(0)
        balancer.replace_endpoint(0, address)
        assert wait_until(
            lambda: balancer.check_health() == [0, 1])
        assert sorted(replicas.alive()) == [0, 1]

        # The restarted replica answers directly, from the snapshot.
        status, _, payload = request(address, "GET", "/readyz")
        assert status == 200
        assert payload["status"] == "ready"
        response = balancer.query(queries[1], k=2)
        assert response.status_code == 200
        assert response.payload["status"] == "ok"

    def test_etag_validates_across_replicas(self, fleet, corpus):
        """ETags derive from (snapshot version, query signature), so a
        tag minted by one replica revalidates on its sibling."""
        replicas, balancer = fleet
        _, queries = corpus
        first = balancer.query(queries[3], k=2)
        assert first.status_code == 200 and first.etag
        # Sequential requests find both replicas idle, and ties go
        # round-robin, so they alternate; the tag must validate on both.
        seen = set()
        for _ in range(4):
            again = balancer.query(queries[3], k=2, etag=first.etag)
            assert again.status_code == 304
            seen.add(again.endpoint)
        assert len(seen) == 2

    def test_deadline_propagates_through_balancer(self, fleet, corpus):
        """An already-expired budget is shed, not served: the balancer
        forwards the remaining budget via the deadline header."""
        _, balancer = fleet
        _, queries = corpus
        response = balancer.query(queries[0], k=1, deadline_ms=0.0)
        assert response.status_code == 503
        assert response.payload["status"] == "overloaded"

    def test_front_door_serves_fleet_protocol(self, fleet, corpus):
        replicas, balancer = fleet
        _, queries = corpus
        with BalancerServer(balancer) as front:
            status, _, payload = request(front.address, "GET",
                                         "/readyz")
            assert status == 200
            assert payload["healthy_replicas"] == [0, 1]
            status, headers, payload = request(
                front.address, "POST", "/query",
                {"sketch": shape_to_dict(queries[0]), "k": 2})
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["matches"]
            assert headers.get("etag")
            status, headers, _ = request(
                front.address, "POST", "/query",
                {"sketch": shape_to_dict(queries[0]), "k": 2},
                headers={DEADLINE_HEADER: "0"})
            assert status == 503
            assert headers["retry-after"] == "1"

    def test_balancer_raises_when_no_replica_routable(self):
        balancer = Balancer([closed_port()],
                            health_interval=30.0, retry_budget=1,
                            retry_backoff=0.01)
        try:
            assert balancer.check_health() == []
            with pytest.raises(NoHealthyReplicas):
                balancer.request("POST", "/query",
                                 {"sketch": None, "k": 1})
            with BalancerServer(balancer) as front:
                status, headers, _ = request(
                    front.address, "POST", "/query", {"k": 1})
                assert status == 503
                assert headers["retry-after"] == "1"
        finally:
            balancer.close()
        # close() is idempotent.
        balancer.close()

    def test_replica_set_stop_idempotent(self, snapshot_path):
        config = ServiceConfig(num_shards=NUM_SHARDS, workers=1)
        replicas = ReplicaSet(snapshot_path, replicas=1,
                              config=config,
                              startup_timeout=180.0).start()
        endpoint = replicas.endpoints()[0]
        status, _, _ = request(endpoint, "GET", "/healthz")
        assert status == 200
        replicas.stop()
        replicas.stop()
        assert replicas.endpoints() == []
        with pytest.raises(RuntimeError):
            replicas.start()


class TestFleetStart:
    """``ReplicaSet.start`` forks every replica before it awaits any,
    and a start that fails leaves nothing running."""

    def test_every_replica_exists_before_the_first_wait(
            self, snapshot_path, corpus, monkeypatch):
        _, queries = corpus
        living = []
        original = ReplicaSet._await_ready

        def recording(self, replica):
            living.append({p.pid for p in multiprocessing.active_children()
                           if p.name.startswith("repro-replica-")})
            return original(self, replica)

        monkeypatch.setattr(ReplicaSet, "_await_ready", recording)
        config = ServiceConfig(num_shards=1, workers=1, cache_capacity=0)
        with ReplicaSet(snapshot_path, replicas=3, config=config,
                        startup_timeout=180.0) as replicas:
            assert len(living) == 3
            assert set(replicas.pids()) <= living[0]

            # Each replica reports its setup phases, here and in /stats.
            phases = replicas.setup_phases()
            for endpoint, setup in zip(replicas.endpoints(), phases):
                assert set(setup) == {"load_s", "warm_s", "listen_s"}
                assert all(seconds >= 0.0 for seconds in setup.values())
                status, _, payload = request(endpoint, "GET", "/stats")
                assert status == 200
                assert payload["server"]["setup"] == setup

            # restart() still starts (and awaits) one replica.
            replicas.kill(1)
            address = replicas.restart(1)
            assert len(living) == 4
            assert sorted(replicas.alive()) == [0, 1, 2]
            assert replicas.setup_phases()[1] is not phases[1]
            status, _, _ = request(address, "GET", "/readyz")
            assert status == 200
            status, _, payload = request(
                address, "POST", "/query",
                {"sketch": shape_to_dict(queries[0]), "k": 2})
            assert status == 200
            assert payload["status"] == "ok"

    def test_a_failed_start_stops_every_replica(self, snapshot_path,
                                                monkeypatch):
        """Replica 1 cannot start (``hash_curves=0``): the error is
        raised, replica 0 is not left running and the fleet's publish
        directory is gone, before any ``stop()``."""
        configure = ReplicaSet._replica_config

        def broken(self, index, generation):
            config = configure(self, index, generation)
            return replace(config, hash_curves=0) if index == 1 else config

        def replicas_started_here():
            return [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-replica-")
                    and p.pid not in before]

        monkeypatch.setattr(ReplicaSet, "_replica_config", broken)
        config = ServiceConfig(num_shards=1, execution="process",
                               processes=1, cache_capacity=0)
        replicas = ReplicaSet(snapshot_path, replicas=2, config=config,
                              startup_timeout=180.0)
        publish_dir = replicas.config.snapshot_dir
        before = {p.pid for p in multiprocessing.active_children()}
        try:
            with pytest.raises(ReplicaStartupError, match="hash_curves"):
                replicas.start()
            assert replicas_started_here() == []
            assert not os.path.exists(publish_dir)
            replicas.stop()
            with pytest.raises(RuntimeError):
                replicas.start()
        finally:
            for process in replicas_started_here():
                process.kill()
                process.join(timeout=5.0)
