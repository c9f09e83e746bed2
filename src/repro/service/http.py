"""HTTP/JSON network tier: front door, replica fleet, balancer.

Everything robust the service learned in-process — deadlines, the
three-rung degradation ladder, load shedding, breakers, zero-copy
snapshots — stops mattering for "millions of users" until it survives
the wire.  This module is that wire, stdlib only:

* :class:`HttpRetrievalServer` — a threading ``http.server`` front on
  one :class:`~repro.service.service.RetrievalService`:
  ``POST /query`` and ``POST /query_batch`` (JSON sketches in, ranked
  matches + the answering tier out), ``GET /stats`` (the service
  snapshot, quantiles included), ``GET /healthz`` (liveness: the
  process answers) and ``GET /readyz`` (readiness: snapshot attached,
  shards warm — the balancer's routing signal).

* **Deadline propagation.**  The ``X-Deadline-Ms`` request header
  carries the client's *remaining* budget in milliseconds (relative,
  so replica clock skew is irrelevant).  The handler rebuilds it into
  the service's cooperative :class:`~repro.service.deadline.Deadline`,
  the exact→ann→hash ladder spends it, and the response reports the
  ``tier`` that answered plus the ``degraded`` flag.  A request whose
  budget is already spent is shed at the door — ``503`` with
  ``Retry-After`` — because queueing doomed work only steals cycles
  from queries that can still make it.

* **Load shedding.**  Admission-queue saturation
  (``ServiceResult.status == "overloaded"``) also answers ``503`` +
  ``Retry-After`` instead of queueing; the balancer treats that as
  "try a sibling", not "mark it dead".

* **HTTP result caching.**  Full-quality answers carry an ``ETag``
  derived from ``(shard-set version, similarity-invariant query
  signature)`` — the same canonicalization the in-process cache keys
  on — so a repeat query validates with ``304 Not Modified`` and any
  intermediary may cache safely: the tag changes the moment the
  corpus does.  Degraded answers are ``Cache-Control: no-store``.

* :class:`ReplicaSet` — N replica server *processes* warmed from the
  same published v3/v4 snapshot (``load_base(mmap=True)``: zero
  recompute, one page-cache copy).  A SIGKILLed replica can be
  :meth:`~ReplicaSet.restart`-ed and re-attaches from the snapshot —
  the warm-standby path.

* :class:`Balancer` — the front: health-checks replicas at an
  interval, sends each request to the live replica with the fewest of
  the balancer's requests in flight (ties round-robin), retries idempotent
  queries (retrieval is a pure read) on a surviving replica with
  capped backoff under a per-request retry budget, and marks dead
  replicas through the *existing*
  :class:`~repro.service.breaker.CircuitBreaker` state machine — the
  same closed→open→half-open ladder that guards shards in-process.
  A replica is one process whose handler threads share one GIL, so a
  request routed to a busy replica waits while an idle one could have
  answered; ``balancer.busy_routes`` counts those routings.
  :class:`BalancerServer` exposes the same endpoint surface over one
  listening port, making the fleet a single-address front door.

The replica server and the front door share one request handler base
(body draining, 400/404/500 mapping) and one server lifecycle; each
role adds only its routes and payloads.  Every server socket has Nagle
off and an idle timeout.  The balancer keeps its replica connections
open between requests; :func:`json_request` is the one-shot client for
everything else, over the same response parser.  Replica processes are
spawned, stopped and killed by the process tier's
:class:`~repro.service.procpool.ChildProcess`.

The fleet-level invariant (chaos-tested by ``serve-bench --http
--chaos`` and the CI ``http-smoke`` job): killing one replica
mid-traffic yields zero errored client responses — every in-flight
query completes ``ok`` or ``degraded`` from the survivors.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..geometry.io import shape_from_dict, shape_to_dict
from ..geometry.polyline import Shape
from .breaker import BreakerConfig, CircuitBreaker, OPEN
from .cache import sketch_signature
from .deadline import Deadline, backoff_delay
from .metrics import MetricsRegistry
from .procpool import ChildProcess, parent_messages
from .service import OVERLOADED, RetrievalService, ServiceConfig, \
    ServiceResult

#: Remaining-budget request header (milliseconds, relative).
DEADLINE_HEADER = "X-Deadline-Ms"

#: ``Retry-After`` seconds suggested on a shed (503) response.
RETRY_AFTER_SECONDS = 1

#: tier names as reported over the wire (``method`` -> ``tier``).
_METHOD_TIER = {"envelope": "exact", "ann": "ann", "hashing": "hash",
                "none": "none"}


class ReplicaStartupError(RuntimeError):
    """A replica process failed to warm from the snapshot."""


class NoHealthyReplicas(RuntimeError):
    """Every replica is dead or breaker-excluded."""


def _json_default(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, default=_json_default).encode("utf-8")


def query_etag(version: int, sketch: Shape, k: int) -> str:
    """The validation tag of one (corpus version, query) pair.

    Built from the shard-set version and the similarity-invariant
    sketch signature (the in-process cache's canonicalization), so
    two sketches differing only by rotation/scale/translation share a
    tag and *any* corpus mutation changes it.  Safe for intermediary
    caches: a tag can only validate the answer it named.
    """
    signature = sketch_signature(sketch, kind="http-topk", parameter=k)
    return f'"g{version}-{signature}"'


def result_payload(result: ServiceResult) -> dict:
    """One :class:`ServiceResult` as its wire (JSON) form."""
    return {
        "status": result.status,
        "tier": _METHOD_TIER.get(result.method, result.method),
        "method": result.method,
        "degraded": bool(result.degraded or result.failed_shards),
        "deadline_degraded": result.degraded,
        "cached": result.cached,
        "failed_shards": list(result.failed_shards),
        "latency_ms": round(result.latency * 1e3, 3),
        "matches": [{"rank": rank,
                     "shape_id": match.shape_id,
                     "image_id": match.image_id,
                     "distance": match.distance,
                     "approximate": match.approximate}
                    for rank, match in enumerate(result.matches, 1)],
    }


def parse_deadline_ms(raw: Optional[str]) -> Optional[float]:
    """``X-Deadline-Ms`` header value -> milliseconds (None = absent).

    Raises ``ValueError`` on garbage; negative values clamp to 0 (an
    already-expired budget, shed at the door).
    """
    if raw is None or raw.strip() == "":
        return None
    value = float(raw)
    return max(0.0, value)


# ----------------------------------------------------------------------
# What every role shares: request plumbing, server lifecycle, client
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Request plumbing for every role; a role subclasses it with its
    endpoint methods and the ``routes`` table naming them.

    Every response drains the request body first: on an HTTP/1.1
    keep-alive connection, unread bytes would be parsed as the *next*
    request's first line.  Malformed input (``ValueError``,
    ``KeyError``, ``TypeError``) answers 400, an unknown route 404 and
    anything else 500 — the wire must not drop.
    """

    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on every accepted socket: a keep-alive response
    #: is written as headers then body, and with Nagle on the body
    #: waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    #: Seconds a connection may stay silent (idle between keep-alive
    #: requests, or stalled mid-request) before it is closed, so no
    #: client can pin a handler thread.  Matches the balancer's default
    #: ``request_timeout``.
    timeout = 30.0
    #: ``(method, path) -> endpoint function`` of the role.
    routes: Dict[Tuple[str, str], Callable[["_Handler"], None]] = {}

    def log_message(self, *args) -> None:     # keep benches quiet
        pass

    def setup(self) -> None:
        self.app.metrics.counter("http.connections").increment()
        super().setup()

    @property
    def app(self):
        return self.server.app                # type: ignore[attr-defined]

    def do_GET(self) -> None:                 # noqa: N802 (stdlib name)
        self._dispatch("GET")

    def do_POST(self) -> None:                # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        self._body: Optional[bytes] = None
        try:
            endpoint = self.routes.get((method, self.path))
            if endpoint is None:
                self.respond(404, {"error": f"no route {self.path}"})
            else:
                endpoint(self)
        except (ValueError, KeyError, TypeError) as exc:
            self.app.metrics.counter("http.bad_requests").increment()
            self._respond_error(400, {"error": f"bad request: {exc}"})
        except Exception as exc:
            self.app.metrics.counter("http.errors").increment()
            self._respond_error(500, {
                "status": "error", "error": f"{type(exc).__name__}: {exc}"})

    def _respond_error(self, code: int, payload: dict) -> None:
        try:
            self.respond(code, payload)
        except OSError:
            pass                              # client went away mid-write

    def _raw_body(self) -> bytes:
        """The request body, read from the socket at most once."""
        if self._body is None:
            self._body = b""
            try:
                length = int(self.headers.get("Content-Length") or 0)
                if length < 0:
                    raise ValueError("negative Content-Length")
                self._body = self.rfile.read(length)
            except (ValueError, OSError):
                # Where this body ends is unknown (a bad length, or a
                # client that stalled past the timeout mid-body), so
                # nothing after it on this connection can be parsed.
                self.close_connection = True
                raise
        return self._body

    def body(self) -> dict:
        """The request's JSON object (``{}`` when it has no body)."""
        raw = self._raw_body()
        if not raw:
            return {}
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def respond(self, code: int, payload: Optional[dict] = None,
                headers: Optional[Dict[str, str]] = None) -> None:
        self._raw_body()                      # drain: keep-alive survives
        data = b"" if payload is None else _json_bytes(payload)
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if data:
            self.wfile.write(data)


class _ThreadingServer(ThreadingHTTPServer):
    """Keeps the sockets of the connections it is serving, so that
    :meth:`close_connections` can end kept-alive ones too."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, *args, **kwargs):
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        """A client that resets its connection (or leaves before the
        reply is written) has closed it, not broken the server: that is
        counted as ``http.client_resets``, with no traceback.  Anything
        else escaping a handler counts in ``http.errors`` and prints."""
        if isinstance(sys.exc_info()[1],
                      (ConnectionResetError, BrokenPipeError)):
            self.app.metrics.counter("http.client_resets").increment()
            return
        self.app.metrics.counter("http.errors").increment()
        super().handle_error(request, client_address)

    def close_connections(self) -> None:
        """Shut every open connection down in both directions: a
        handler waiting for the next keep-alive request reads EOF and
        its client sees the connection close."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass                          # already gone


class _HttpServer:
    """One listening port served from a background thread.

    Threading server (one handler thread per connection); ``port=0``
    binds an ephemeral port, read back from :attr:`address`.
    :meth:`close` is idempotent and safe under concurrent callers.
    Subclasses name their ``handler`` and provide ``metrics``.
    """

    handler = _Handler

    def __init__(self, host: str, port: int):
        self._httpd = _ThreadingServer((host, port), self.handler)
        self._httpd.app = self                # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._lifecycle = threading.Lock()
        self._closed = False

    def start(self):
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("server is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._httpd.serve_forever,
                    kwargs={"poll_interval": 0.05},
                    name="repro-http", daemon=True)
                self._thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop serving, kept-alive connections included; idempotent
        under concurrent callers."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
        if thread is not None:
            self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def _exchange(conn: http.client.HTTPConnection, method: str, path: str,
              body: Optional[bytes], headers: Optional[Dict[str, str]]
              ) -> Tuple[int, Dict[str, str], dict, bool]:
    """Send one request on ``conn`` and read the whole response:
    ``(status, lower-cased headers, JSON payload, will_close)``."""
    send_headers = {"Content-Type": "application/json"}
    send_headers.update(headers or {})
    conn.request(method, path, body=body, headers=send_headers)
    response = conn.getresponse()
    raw = response.read()
    payload: dict = {}
    if raw:
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            payload = {"error": "unparseable body"}
    return (response.status,
            {k.lower(): v for k, v in response.getheaders()},
            payload, response.will_close)


def json_request(endpoint: Tuple[str, int], method: str, path: str,
                 body: Optional[bytes] = None,
                 headers: Optional[Dict[str, str]] = None,
                 timeout: float = 30.0) -> Tuple[int, Dict[str, str], dict]:
    """One request on a fresh connection, closed afterwards; returns
    ``(status, lower-cased response headers, JSON payload)``.

    The one-shot helper for health probes (which must test that the
    replica still accepts connections), the CLI's admin hook and
    scripts; routed traffic goes over the :class:`Balancer`'s pooled
    connections instead.  Raises ``OSError`` (refused, reset, timed
    out) or ``http.client.HTTPException`` (a torn response); a body
    that is not JSON comes back as ``{"error": "unparseable body"}``.
    """
    conn = http.client.HTTPConnection(*endpoint, timeout=timeout)
    try:
        return _exchange(conn, method, path, body, headers)[:3]
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The per-replica HTTP server
# ----------------------------------------------------------------------
class _ReplicaHandler(_Handler):
    """The replica endpoints over the owning server's service."""

    server_version = "repro-geosir"

    def _shed(self, reason: str, counter: str) -> None:
        self.app.metrics.counter(counter).increment()
        self.respond(503, {"status": OVERLOADED, "reason": reason},
                     {"Retry-After": str(RETRY_AFTER_SECONDS)})

    def _healthz(self) -> None:
        self.respond(200, self.app.health_payload())

    def _readyz(self) -> None:
        ready, payload = self.app.ready_payload()
        self.respond(200 if ready else 503, payload)

    def _stats(self) -> None:
        self.respond(200, self.app.stats_payload())

    def _query_body(self) -> Optional[Tuple[dict, int, Optional[float]]]:
        """Parse a query request: ``(body, k, deadline seconds)``, or
        ``None`` once the request has been shed."""
        ms = parse_deadline_ms(self.headers.get(DEADLINE_HEADER))
        deadline = None if ms is None else ms / 1000.0
        body = self.body()
        if deadline is not None and deadline <= 0.0:
            # Already out of budget: queueing this query steals cycles
            # from ones that can still answer in time.
            self._shed("deadline already expired", "http.shed_deadline")
            return None
        k = int(body.get("k", 1))
        if k < 1:
            raise ValueError("k must be at least 1")
        return body, k, deadline

    def _query(self) -> None:
        app = self.app
        started = time.perf_counter()
        app.metrics.counter("http.queries").increment()
        parsed = self._query_body()
        if parsed is None:
            return
        body, k, deadline = parsed
        sketch = shape_from_dict(body["sketch"])

        etag = query_etag(app.service.shards.version, sketch, k)
        candidates = self.headers.get("If-None-Match", "")
        if etag in [tag.strip() for tag in candidates.split(",") if tag]:
            app.metrics.counter("http.not_modified").increment()
            self.respond(304, None, {"ETag": etag})
            return

        result = app.service.retrieve(sketch, k=k, deadline=deadline)
        if result.status == OVERLOADED:
            self._shed("admission queue full", "http.shed_overload")
            return
        payload = result_payload(result)
        payload["replica"] = app.replica_id
        payload["snapshot_version"] = app.service.shards.version
        headers: Dict[str, str] = {}
        if result.ok and not result.degraded:
            # Only full-quality answers are validatable: a degraded
            # answer must not be revalidated into permanence.
            headers["ETag"] = etag
        else:
            headers["Cache-Control"] = "no-store"
        app.metrics.histogram("http.latency").observe(
            time.perf_counter() - started)
        self.respond(200, payload, headers)

    def _query_batch(self) -> None:
        app = self.app
        started = time.perf_counter()
        parsed = self._query_body()
        if parsed is None:
            return
        body, k, deadline = parsed
        sketches = [shape_from_dict(entry) for entry in body["sketches"]]
        if not sketches:
            raise ValueError("sketches must be non-empty")
        app.metrics.counter("http.queries").increment(len(sketches))
        results = app.service.retrieve_batch(sketches, k=k,
                                             deadline=deadline)
        if all(r.status == OVERLOADED for r in results):
            self._shed("admission queue full", "http.shed_overload")
            return
        payload = {
            "status": "ok",
            "replica": app.replica_id,
            "snapshot_version": app.service.shards.version,
            "results": [result_payload(r) for r in results],
        }
        app.metrics.histogram("http.latency").observe(
            time.perf_counter() - started)
        self.respond(200, payload, {"Cache-Control": "no-store"})

    def _kill_worker(self) -> None:
        """Chaos hook: SIGKILL one process-tier worker *inside* this
        replica (``serve-bench --http --processes`` uses it to compose
        replica-level and worker-level failure)."""
        if not self.app.allow_admin:
            self.respond(404, {"error": "admin surface disabled"})
            return
        pool = self.app.service.procpool
        if pool is None:
            self.respond(400, {"error": "replica runs thread "
                                        "execution; no workers"})
            return
        index = int(self.body().get("index", 0))
        pid = pool.kill_worker(index)
        self.respond(200, {"killed_worker": index, "pid": pid})

    routes = {("GET", "/healthz"): _healthz,
              ("GET", "/readyz"): _readyz,
              ("GET", "/stats"): _stats,
              ("POST", "/query"): _query,
              ("POST", "/query_batch"): _query_batch,
              ("POST", "/admin/kill_worker"): _kill_worker}


class HttpRetrievalServer(_HttpServer):
    """One replica's HTTP/JSON front on a :class:`RetrievalService`.

    One handler thread per connection is all the server adds: the
    service underneath is already concurrent and admission-bounded.
    """

    handler = _ReplicaHandler

    def __init__(self, service: RetrievalService,
                 host: str = "127.0.0.1", port: int = 0, *,
                 replica_id: Optional[int] = None,
                 allow_admin: bool = False):
        self.service = service
        self.metrics = service.metrics
        self.replica_id = replica_id
        self.allow_admin = allow_admin
        self._started_at = time.monotonic()
        #: Setup phases in seconds, filled by the replica that runs
        #: this server (``load_s``, ``warm_s``, ``listen_s``).
        self.setup: Dict[str, float] = {}
        super().__init__(host, port)

    # -- endpoint payloads ---------------------------------------------
    def uptime(self) -> float:
        return time.monotonic() - self._started_at

    def health_payload(self) -> dict:
        return {"status": "alive", "replica": self.replica_id,
                "uptime_s": round(self.uptime(), 3)}

    def ready_payload(self) -> Tuple[bool, dict]:
        ready = not self._closed and self.service.ready()
        return ready, {
            "status": "ready" if ready else "unready",
            "replica": self.replica_id,
            "snapshot_version": self.service.shards.version,
            "shards": self.service.shards.num_shards,
            "shapes": self.service.shards.num_shapes,
        }

    def stats_payload(self) -> dict:
        snap = self.service.snapshot()
        snap["server"] = {"replica": self.replica_id,
                          "uptime_s": round(self.uptime(), 3),
                          "address": list(self.address),
                          "setup": dict(self.setup)}
        return snap

    def __repr__(self) -> str:
        host, port = self.address
        return (f"HttpRetrievalServer({host}:{port}, "
                f"replica={self.replica_id}, closed={self._closed})")


# ----------------------------------------------------------------------
# Replica fleet: snapshot-shipped warm processes
# ----------------------------------------------------------------------
def _replica_main(conn, snapshot_path: str, config: ServiceConfig,
                  host: str, replica_id: int, allow_admin: bool) -> None:
    """Entry point of one replica process.

    Warm order matters: the service attaches the snapshot (mmap — the
    page cache shares one physical copy across the fleet) and warms
    every shard *before* the ready message, so ``/readyz`` flipping
    200 really means "serving at full quality".  The ready message
    carries the replica's setup phases in seconds: ``load_s`` (map
    the snapshot), ``warm_s`` (shard it and build every tier) and
    ``listen_s`` (open the server).
    """
    try:
        from ..storage.persist import load_base
        began = time.perf_counter()
        base = load_base(snapshot_path, backend=config.backend, mmap=True)
        loaded = time.perf_counter()
        service = RetrievalService.from_base(base, config)
        service.snapshot_source = snapshot_path
        warmed = time.perf_counter()
        server = HttpRetrievalServer(service, host=host, port=0,
                                     replica_id=replica_id,
                                     allow_admin=allow_admin).start()
        server.setup.update(load_s=loaded - began, warm_s=warmed - loaded,
                            listen_s=time.perf_counter() - warmed)
        conn.send(("ready", server.address, server.setup))
    except Exception as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
        return
    try:
        for _ in parent_messages(conn):
            pass                  # the parent only ever asks us to stop
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        service.close()


class _Replica(ChildProcess):
    """Parent-side handle on one replica process."""

    def __init__(self, index: int, generation: int, args: tuple):
        # Not a daemon: a replica in process execution spawns its own
        # worker children, which daemonic processes may not.  Orphan
        # protection comes from parent_messages' reparenting check.
        self.forked_at = time.monotonic()
        super().__init__(_replica_main, args,
                         name=f"repro-replica-{index}", daemon=False)
        self.index = index
        self.generation = generation
        self.address: Optional[Tuple[str, int]] = None
        self.setup: Optional[Dict[str, float]] = None


class ReplicaSet:
    """N replica servers, all warmed from one published snapshot.

    Replication here is *snapshot shipping*: the corpus is published
    once (a v3/v4 file — PR 8's zero-copy format) and every replica
    process attaches with ``mmap=True``, so fleet warm-up costs no
    recompute and no extra physical memory beyond the page cache.
    :meth:`kill` (SIGKILL, the chaos hook) and :meth:`restart` (the
    warm-standby path: a fresh process re-attaches from the same
    snapshot) are deliberately symmetric — recovery is just another
    start.
    """

    def __init__(self, snapshot_path, replicas: int = 2,
                 config: Optional[ServiceConfig] = None,
                 host: str = "127.0.0.1", *,
                 allow_admin: bool = False,
                 startup_timeout: float = 120.0):
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.snapshot_path = str(snapshot_path)
        self.replicas = int(replicas)
        # Fault plans hold locks (unpicklable) and belong to chaos
        # harnesses in the parent; replicas serve clean.
        config = config or ServiceConfig()
        self.config = replace(config, fault_plan=None)
        # Process-execution replicas publish shards for their workers.
        # Left to itself, each replica's pool would publish into a
        # private temporary directory that a SIGKILLed replica can
        # never remove; publishing under a directory the fleet owns
        # lets stop() sweep it however the replica died.
        self._publish_tmp = None
        if self.config.execution == "process" and \
                self.config.snapshot_dir is None:
            self._publish_tmp = tempfile.TemporaryDirectory(
                prefix="repro-replica-publish-")
            self.config = replace(self.config,
                                  snapshot_dir=self._publish_tmp.name)
        self.host = host
        self.allow_admin = allow_admin
        self.startup_timeout = float(startup_timeout)
        self._members: List[_Replica] = []
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ReplicaSet":
        """Fork every replica, then await each one's ready message.

        The fleet is ready in the time of its slowest replica, not the
        sum of their warm-ups.  All or nothing: if any replica reports
        an error, exits, or is not ready ``startup_timeout`` seconds
        after its own fork, every replica is stopped, the set is
        closed (its publish directory removed) and
        :class:`ReplicaStartupError` is raised.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("replica set is closed")
            if self._members:
                return self
            members: List[_Replica] = []
            try:
                for index in range(self.replicas):
                    members.append(self._fork(index, generation=0))
                for replica in members:
                    self._await_ready(replica)
            except BaseException:
                self._closed = True
                self._retire(members)
                raise
            self._members = members
        return self

    def _replica_config(self, index: int,
                        generation: int) -> ServiceConfig:
        """Per-replica config: publish paths must not collide across
        replicas (shard files are named by index/version/round only),
        so each replica incarnation publishes into its own subdir."""
        if self.config.snapshot_dir is None:
            return self.config
        subdir = os.path.join(self.config.snapshot_dir,
                              f"replica-{index}-g{generation}")
        return replace(self.config, snapshot_dir=subdir)

    def _fork(self, index: int, generation: int) -> _Replica:
        return _Replica(index, generation, (
            self.snapshot_path, self._replica_config(index, generation),
            self.host, index, self.allow_admin))

    def _await_ready(self, replica: _Replica) -> None:
        """Take one replica's ready message, waiting at most until
        ``startup_timeout`` seconds after its fork."""
        waited = replica.forked_at + self.startup_timeout - time.monotonic()
        if not replica.conn.poll(max(0.0, waited)):
            raise ReplicaStartupError(
                f"replica {replica.index} did not become ready within "
                f"{self.startup_timeout}s")
        try:
            message = replica.conn.recv()
        except (EOFError, OSError) as exc:
            raise ReplicaStartupError(
                f"replica {replica.index} exited before it was "
                f"ready") from exc
        if message[0] != "ready":
            raise ReplicaStartupError(f"replica {replica.index}: "
                                      f"{message[1]}")
        replica.address = (message[1][0], int(message[1][1]))
        replica.setup = message[2]

    def kill(self, index: int) -> int:
        """SIGKILL one replica (chaos); returns its pid once the
        process has exited.

        Like the procpool's ``kill_worker``, this does *not* mark the
        replica dead — detection is the balancer's job (health checks,
        connection errors, breakers).
        """
        return self._members[index % len(self._members)].kill()

    def restart(self, index: int) -> Tuple[str, int]:
        """Replace a (dead) replica with a fresh process warmed from
        the same published snapshot; returns the new address."""
        with self._lock:
            if self._closed:
                raise RuntimeError("replica set is closed")
            slot = index % len(self._members)
            old = self._members[slot]
            old.reap(grace=0.0)
            fresh = self._fork(old.index, generation=old.generation + 1)
            try:
                self._await_ready(fresh)
            except BaseException:
                fresh.reap(grace=1.0)
                raise
            self._members[slot] = fresh
        return fresh.address

    def stop(self) -> None:
        """Stop every replica; idempotent under concurrent callers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            members, self._members = self._members, []
        self._retire(members)

    def _retire(self, members: Sequence[_Replica]) -> None:
        """Stop ``members`` and remove the fleet's publish directory."""
        for replica in members:
            replica.request_stop()
        for replica in members:
            # A replica's graceful close can take several seconds
            # (HTTP thread join + process-pool shutdown); give it room
            # before escalating — a SIGKILLed replica orphans its
            # workers onto the watchdog path instead of a clean exit.
            replica.reap(grace=10.0)
        if self._publish_tmp is not None:
            self._publish_tmp.cleanup()
            self._publish_tmp = None

    def __enter__(self) -> "ReplicaSet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- introspection --------------------------------------------------
    def endpoints(self) -> List[Tuple[str, int]]:
        with self._lock:
            return [r.address for r in self._members
                    if r.address is not None]

    def alive(self) -> List[int]:
        with self._lock:
            return [r.index for r in self._members if r.is_alive()]

    def pids(self) -> List[Optional[int]]:
        with self._lock:
            return [r.process.pid for r in self._members]

    def setup_phases(self) -> List[Optional[Dict[str, float]]]:
        """Each replica's setup phases in seconds, by slot, as it timed
        them: ``load_s``, ``warm_s`` and ``listen_s`` (see
        :func:`_replica_main`); ``GET /stats`` reports the same under
        ``server.setup``."""
        with self._lock:
            return [r.setup for r in self._members]

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:
        return (f"ReplicaSet(replicas={self.replicas}, "
                f"alive={self.alive()}, snapshot="
                f"{self.snapshot_path!r})")


# ----------------------------------------------------------------------
# The balancer: health-checked failover with a retry budget
# ----------------------------------------------------------------------
@dataclass
class BalancedResponse:
    """What the balancer hands back for one front-door request."""

    status_code: int
    payload: dict = field(default_factory=dict)
    endpoint: Optional[Tuple[str, int]] = None
    attempts: int = 1
    etag: Optional[str] = None

    @property
    def not_modified(self) -> bool:
        return self.status_code == 304

    @property
    def ok(self) -> bool:
        return self.status_code in (200, 304)


class Balancer:
    """Route queries over a replica fleet; evict the dead, retry safely.

    Each attempt goes to the routable replica slot with the fewest of
    this balancer's requests in flight (least outstanding), ties in
    round-robin order, so sequential traffic still alternates and
    concurrent traffic spreads over idle replicas first.  The slot is
    reserved when it is picked and released when the attempt ends,
    however it ends.  :meth:`stats` reports each slot's in-flight and
    routed counts; the ``balancer.busy_routes`` counter counts the
    attempts sent to a slot that already had one in flight.

    Retrieval is a pure read, so ``POST /query`` is idempotent and a
    failed attempt may be replayed on a sibling without double-effect.
    Each request gets ``retry_budget`` extra attempts with capped
    exponential backoff (:func:`~repro.service.deadline.backoff_delay`,
    without jitter), never exceeding the request's own deadline.
    Replica health is tracked two ways: a background thread probes
    ``/readyz`` every ``health_interval`` seconds (connection refusal
    = confirmed down, excluded immediately), and every routed request
    reports its outcome into a per-replica
    :class:`~repro.service.breaker.CircuitBreaker` — the shard
    breaker's state machine reused at fleet scope, so a flapping
    replica is quarantined for a cooldown and re-admitted through a
    bounded half-open probe.

    Routed requests reuse HTTP/1.1 keep-alive connections: per replica
    address a LIFO stack of idle connections, so the pool never holds
    more than the requests that were once in flight together.  A
    connection goes back on its stack only after a whole response that
    did not announce ``Connection: close``.  A *reused* connection the
    replica has since closed (its idle timeout, a restart) fails with
    a reset or an empty reply before any answer; that request is sent
    once more on a fresh connection to the same replica, and only a
    second failure counts against the replica.  Timeouts are never
    replayed.  Health probes always open a fresh connection.
    """

    def __init__(self, endpoints: Sequence[Tuple[str, int]], *,
                 health_interval: float = 0.25,
                 request_timeout: float = 30.0,
                 retry_budget: int = 2,
                 retry_backoff: float = 0.02,
                 breaker: Optional[BreakerConfig] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if not endpoints:
            raise ValueError("balancer needs at least one endpoint")
        if health_interval <= 0:
            raise ValueError("health_interval must be positive")
        if retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        self._endpoints: List[Tuple[str, int]] = [
            (str(host), int(port)) for host, port in endpoints]
        self.health_interval = float(health_interval)
        self.request_timeout = float(request_timeout)
        self.retry_budget = int(retry_budget)
        self.retry_backoff = float(retry_backoff)
        self.metrics = metrics or MetricsRegistry()
        breaker_config = breaker or BreakerConfig(
            window=8, failure_threshold=0.5, min_volume=2,
            cooldown=1.0, half_open_probes=1)
        self._breakers = [CircuitBreaker(breaker_config)
                          for _ in self._endpoints]
        self._down: set = set()
        self._rr = 0
        #: This balancer's requests in flight / routed in all, per slot.
        self._inflight = [0] * len(self._endpoints)
        self._routed = [0] * len(self._endpoints)
        #: Idle keep-alive connections per replica address (LIFO).
        self._idle: Dict[Tuple[str, int],
                         List[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._stop = threading.Event()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-balancer-health",
            daemon=True)
        self._health_thread.start()

    # -- endpoint management -------------------------------------------
    def replace_endpoint(self, index: int,
                         endpoint: Tuple[str, int]) -> None:
        """Point slot ``index`` at a restarted replica's new address.

        The slot's breaker is reset: the fresh process has no failure
        history to answer for.  Its in-flight count is not: a request
        still out on the old address releases its reservation when it
        ends, like any other.
        """
        with self._lock:
            self._breakers[index] = CircuitBreaker(
                self._breakers[index].config)
            stale = self._idle.pop(self._endpoints[index], [])
            self._endpoints[index] = (str(endpoint[0]), int(endpoint[1]))
            self._down.discard(index)
        for conn in stale:
            conn.close()

    def endpoints(self) -> List[Tuple[str, int]]:
        with self._lock:
            return list(self._endpoints)

    def healthy(self) -> List[int]:
        """Replica slots currently routable (not down, breaker not open)."""
        with self._lock:
            indices = list(range(len(self._endpoints)))
            down = set(self._down)
        return [i for i in indices
                if i not in down and self._breakers[i].state != OPEN]

    # -- health checking ------------------------------------------------
    def _health_loop(self) -> None:
        while not self._stop.wait(self.health_interval):
            self.check_health()

    def check_health(self) -> List[int]:
        """One probe round over every endpoint; returns healthy slots.

        Runs on the background thread each interval; tests may call it
        directly to make eviction timing deterministic.
        """
        self.metrics.counter("balancer.health_rounds").increment()
        for index, endpoint in enumerate(self.endpoints()):
            try:
                code, _, _ = json_request(endpoint, "GET", "/readyz",
                                          timeout=min(
                                              self.request_timeout,
                                              max(self.health_interval,
                                                  0.25) * 4))
                alive = code == 200
            except (OSError, http.client.HTTPException):
                alive = False
            with self._lock:
                was_down = index in self._down
                if alive:
                    self._down.discard(index)
                else:
                    self._down.add(index)
            if alive:
                self._breakers[index].record_success()
                if was_down:
                    self.metrics.counter(
                        "balancer.readmitted").increment()
            else:
                self._breakers[index].record_failure()
                if not was_down:
                    self.metrics.counter("balancer.evicted").increment()
        return self.healthy()

    # -- routing --------------------------------------------------------
    def _pick(self, exclude: set
              ) -> Optional[Tuple[int, Tuple[str, int]]]:
        """Reserve the least-loaded routable slot: ``(slot, address)``,
        or ``None`` when no slot admits.

        Slots outside ``exclude`` and not down are taken by in-flight
        count, ties in round-robin order.  ``breaker.allow()`` is the
        admission decision, asked of one slot at a time in that order
        until one admits, so only the slot actually tried spends a
        half-open probe: an open breaker fast-fails its slot, a
        half-open one admits at most its probe quota and concurrent
        pickers move on (the same single-probe semantics the shard path
        relies on).  Choice and reservation happen under one lock, so
        two concurrent pickers never both take the same idle slot; the
        attempt's :meth:`_send` releases the slot.
        """
        with self._lock:
            count = len(self._endpoints)
            start = self._rr
            self._rr += 1
            ring = [(start + offset) % count for offset in range(count)]
            for index in sorted(ring, key=self._inflight.__getitem__):
                if index in exclude or index in self._down:
                    continue
                if self._breakers[index].allow():
                    break
            else:
                return None
            busy = self._inflight[index] > 0
            self._inflight[index] += 1
            self._routed[index] += 1
            endpoint = self._endpoints[index]
        if busy:
            self.metrics.counter("balancer.busy_routes").increment()
        return index, endpoint

    def request(self, method: str, path: str,
                body: Optional[dict] = None,
                deadline_ms: Optional[float] = None,
                headers: Optional[Dict[str, str]] = None
                ) -> BalancedResponse:
        """Route one idempotent request with failover and retries.

        The remaining budget rides the ``X-Deadline-Ms`` header and
        shrinks across attempts, so a retry never promises a replica
        more time than the client still has.  A replica that sheds
        (503) is retried elsewhere without punishing its breaker —
        overload is not death; connection errors and 5xx are failures
        and feed the breaker.
        """
        if self._closed:
            raise RuntimeError("balancer is closed")
        deadline = Deadline(None if deadline_ms is None
                            else deadline_ms / 1000.0)
        encoded = None if body is None else _json_bytes(body)
        attempts = 0
        tried: set = set()
        last: Optional[BalancedResponse] = None
        self.metrics.counter("balancer.requests").increment()
        while attempts <= self.retry_budget:
            if deadline.bounded and deadline.expired():
                self.metrics.counter("balancer.shed_deadline").increment()
                return BalancedResponse(
                    503, {"status": OVERLOADED,
                          "reason": "deadline exhausted at balancer"},
                    attempts=attempts or 1)
            send_headers = dict(headers or {})
            if deadline.bounded:
                send_headers[DEADLINE_HEADER] = \
                    f"{deadline.remaining() * 1000.0:.3f}"
            elif deadline_ms is not None:
                send_headers[DEADLINE_HEADER] = f"{deadline_ms:.3f}"
            timeout = self.request_timeout
            if deadline.bounded:
                timeout = min(timeout, deadline.remaining() + 1.0)
            picked = self._pick(tried)
            if picked is None and tried:
                # Every untried slot is excluded; widen to any
                # routable slot rather than failing early.
                tried = set()
                picked = self._pick(tried)
            if picked is None:
                self.metrics.counter("balancer.no_replicas").increment()
                raise NoHealthyReplicas(
                    f"no routable replica among {len(self._endpoints)}")
            index, endpoint = picked
            attempts += 1
            tried.add(index)
            try:
                code, response_headers, payload = self._send(
                    index, endpoint, method, path, encoded, send_headers,
                    timeout)
            except (OSError, http.client.HTTPException) as exc:
                # OSError covers refusal/reset; HTTPException covers a
                # replica dying mid-response (IncompleteRead, a torn
                # status line).  Both mean "this attempt is lost", and
                # the read is idempotent — replay it on a sibling.
                self._breakers[index].record_failure()
                self.metrics.counter("balancer.conn_failures").increment()
                last = BalancedResponse(
                    502, {"status": "error",
                          "error": f"{type(exc).__name__}: {exc}"},
                    endpoint=endpoint, attempts=attempts)
                self._sleep_before_retry(attempts, deadline)
                continue
            response = BalancedResponse(
                code, payload, endpoint=endpoint, attempts=attempts,
                etag=response_headers.get("etag"))
            if code in (200, 304) or 400 <= code < 500:
                # 4xx is the *client's* bug; replaying it elsewhere
                # cannot help and must not poison the breaker.
                self._breakers[index].record_success()
                return response
            if code == 503:
                # Shed, not dead: the replica is alive enough to
                # answer.  Try a sibling with what budget remains.
                self.metrics.counter("balancer.retried_shed").increment()
                last = response
                self._sleep_before_retry(attempts, deadline)
                continue
            self._breakers[index].record_failure()
            self.metrics.counter("balancer.upstream_errors").increment()
            last = response
            self._sleep_before_retry(attempts, deadline)
        self.metrics.counter("balancer.exhausted").increment()
        return last if last is not None else BalancedResponse(
            502, {"status": "error", "error": "retry budget exhausted"})

    def _send(self, index: int, endpoint: Tuple[str, int], method: str,
              path: str, body: Optional[bytes], headers: Dict[str, str],
              timeout: float) -> Tuple[int, Dict[str, str], dict]:
        """One exchange with ``endpoint``, on an idle pooled connection
        when there is one; ends slot ``index``'s reservation however the
        exchange ends (a stale replay stays inside it)."""
        try:
            with self._lock:
                stack = self._idle.get(endpoint)
                conn = stack.pop() if stack else None
            if conn is not None:
                conn.sock.settimeout(timeout)     # pooled => still open
                try:
                    return self._exchange_pooled(endpoint, conn, method,
                                                 path, body, headers)
                except (ConnectionResetError, BrokenPipeError):
                    # (RemoteDisconnected is a ConnectionResetError.)
                    # Closed by the replica while it sat idle here; the
                    # read is idempotent, so replay it on a fresh one.
                    self.metrics.counter(
                        "balancer.stale_replays").increment()
            conn = http.client.HTTPConnection(*endpoint, timeout=timeout)
            return self._exchange_pooled(endpoint, conn, method, path,
                                         body, headers)
        finally:
            with self._lock:
                self._inflight[index] -= 1

    def _exchange_pooled(self, endpoint: Tuple[str, int],
                         conn: http.client.HTTPConnection, method: str,
                         path: str, body: Optional[bytes],
                         headers: Dict[str, str]
                         ) -> Tuple[int, Dict[str, str], dict]:
        """Exchange on ``conn``, then pool it again unless the response
        closes it, the exchange failed or the balancer is closed."""
        try:
            code, response_headers, payload, will_close = _exchange(
                conn, method, path, body, headers)
        except BaseException:
            conn.close()
            raise
        with self._lock:
            keep = not (will_close or self._closed) and \
                endpoint in self._endpoints
            if keep:
                self._idle.setdefault(endpoint, []).append(conn)
        if not keep:
            conn.close()
        return code, response_headers, payload

    def _sleep_before_retry(self, attempts: int,
                            deadline: Deadline) -> None:
        if attempts > self.retry_budget:
            return
        self.metrics.counter("balancer.retries").increment()
        delay = backoff_delay(attempts, self.retry_backoff, deadline)
        if delay > 0:
            time.sleep(delay)

    # -- the query surface ---------------------------------------------
    def query(self, sketch: Shape, k: int = 1,
              deadline_ms: Optional[float] = None,
              etag: Optional[str] = None) -> BalancedResponse:
        headers = {"If-None-Match": etag} if etag else None
        return self.request("POST", "/query",
                            {"sketch": shape_to_dict(sketch), "k": k},
                            deadline_ms=deadline_ms, headers=headers)

    def query_batch(self, sketches: Sequence[Shape], k: int = 1,
                    deadline_ms: Optional[float] = None
                    ) -> BalancedResponse:
        return self.request(
            "POST", "/query_batch",
            {"sketches": [shape_to_dict(s) for s in sketches], "k": k},
            deadline_ms=deadline_ms)

    def stats(self) -> dict:
        snap = self.metrics.as_dict()
        with self._lock:
            snap["inflight"] = list(self._inflight)
            snap["routed"] = list(self._routed)
        snap["endpoints"] = [list(e) for e in self.endpoints()]
        snap["healthy"] = self.healthy()
        snap["breakers"] = {str(i): b.snapshot()
                            for i, b in enumerate(self._breakers)}
        return snap

    def close(self) -> None:
        """Stop health checking and close every idle connection;
        idempotent under concurrent callers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, {}
        for stack in idle.values():
            for conn in stack:
                conn.close()
        self._stop.set()
        self._health_thread.join(timeout=5.0)

    def __enter__(self) -> "Balancer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Balancer(endpoints={len(self._endpoints)}, "
                f"healthy={self.healthy()})")


# ----------------------------------------------------------------------
# Single-address front door over the fleet
# ----------------------------------------------------------------------
class _FrontHandler(_Handler):
    """Forwards the replica endpoint surface through the balancer."""

    server_version = "repro-geosir-front"

    def _healthz(self) -> None:
        self.respond(200, {"status": "alive", "role": "front"})

    def _readyz(self) -> None:
        healthy = self.app.balancer.healthy()
        self.respond(200 if healthy else 503,
                     {"status": "ready" if healthy else "unready",
                      "healthy_replicas": healthy})

    def _stats(self) -> None:
        self.respond(200, self.app.balancer.stats())

    def _forward(self) -> None:
        deadline_ms = parse_deadline_ms(
            self.headers.get(DEADLINE_HEADER))
        body = self.body()
        headers = {}
        etag = self.headers.get("If-None-Match")
        if etag:
            headers["If-None-Match"] = etag
        try:
            response = self.app.balancer.request(
                "POST", self.path, body, deadline_ms=deadline_ms,
                headers=headers)
        except NoHealthyReplicas as exc:
            self.respond(503, {"status": "error", "error": str(exc)},
                         {"Retry-After": str(RETRY_AFTER_SECONDS)})
            return
        out_headers: Dict[str, str] = {}
        if response.etag:
            out_headers["ETag"] = response.etag
        if response.status_code == 503:
            out_headers["Retry-After"] = str(RETRY_AFTER_SECONDS)
        self.respond(response.status_code,
                     None if response.not_modified else response.payload,
                     out_headers)

    routes = {("GET", "/healthz"): _healthz,
              ("GET", "/readyz"): _readyz,
              ("GET", "/stats"): _stats,
              ("POST", "/query"): _forward,
              ("POST", "/query_batch"): _forward}


class BalancerServer(_HttpServer):
    """The fleet behind one listening address.

    Clients speak the exact replica protocol to this port; the
    handler re-routes through the :class:`Balancer`, so failover,
    retry budgets, deadline decay and ETag validation all apply
    unchanged.  ``repro serve --http --replicas N`` mounts this.
    """

    handler = _FrontHandler

    def __init__(self, balancer: Balancer, host: str = "127.0.0.1",
                 port: int = 0):
        self.balancer = balancer
        self.metrics = balancer.metrics
        super().__init__(host, port)

    def __repr__(self) -> str:
        host, port = self.address
        return f"BalancerServer({host}:{port}, {self.balancer!r})"
