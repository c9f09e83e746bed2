"""repro.service — the concurrent, sharded retrieval service layer.

The embeddable, concurrent form of the GeoSIR pipeline: the corpus is
partitioned into :class:`ShardSet` shards (each with its own matcher
and hashing retriever), queries fan out across shards on a
:class:`WorkerPool` and merge exactly, results are cached under
similarity-invariant sketch signatures, per-query :class:`Deadline`
budgets walk a three-rung degradation ladder (exact envelope →
LSH-pruned exact via :mod:`repro.ann` → hashing tier), and a bounded
:class:`AdmissionQueue` sheds load explicitly instead of queueing
without bound.  :class:`MetricsRegistry` instruments all of it.

Entry points: :meth:`RetrievalService.from_base` over an existing
:class:`~repro.core.ShapeBase`, or :meth:`RetrievalService.ingest` into
an empty :class:`ShardSet` (the :class:`repro.geosir.GeoSIR` facade
owns a one-shard, one-worker service built that way).  ``repro
serve-bench`` exercises it from the CLI.

Fault tolerance lives in :mod:`~repro.service.breaker` (per-shard
circuit breakers) and :mod:`~repro.service.faults` (the deterministic
fault-injection harness behind ``serve-bench --chaos``); the service
isolates, retries and degrades per shard so a single-shard failure
costs answer quality, never availability.

The network tier lives in :mod:`~repro.service.http`: an
:class:`HttpRetrievalServer` front per replica (deadline propagation
via ``X-Deadline-Ms``, 503 load shedding, ETag/304 result caching), a
:class:`ReplicaSet` of processes warmed from one published snapshot,
and a health-checking :class:`Balancer` (plus
:class:`BalancerServer`, the single-address front door) that fails
queries over to surviving replicas — ``serve-bench --http`` and
``repro serve`` from the CLI.
"""

from .breaker import BreakerConfig, CircuitBreaker
from .cache import QueryResultCache, sketch_signature
from .deadline import Deadline
from .faults import (CorruptShardAnswer, FaultError, FaultPlan,
                     FaultSpec, FaultyShard, ShardTimeoutError)
from .http import (Balancer, BalancerServer, HttpRetrievalServer,
                   NoHealthyReplicas, ReplicaSet, ReplicaStartupError)
from .metrics import Counter, Histogram, MetricsRegistry
from .pool import AdmissionQueue, WorkerPool
from .procpool import (ProcessShardView, ProcessWorkerPool,
                       WorkerOperationError, WorkerUnavailableError)
from .service import (DEGRADED, OK, OVERLOADED, TIER_ANN, TIER_EXACT,
                      TIER_HASH, RetrievalService, ServiceConfig,
                      ServiceResult)
from .shards import Shard, ShardSet, merge_topk, shard_for

__all__ = [
    "AdmissionQueue", "Balancer", "BalancerServer", "BreakerConfig",
    "CircuitBreaker", "CorruptShardAnswer", "Counter", "DEGRADED",
    "Deadline", "FaultError", "FaultPlan", "FaultSpec", "FaultyShard",
    "Histogram", "HttpRetrievalServer", "MetricsRegistry",
    "NoHealthyReplicas", "OK", "OVERLOADED", "ProcessShardView",
    "ProcessWorkerPool", "QueryResultCache", "ReplicaSet",
    "ReplicaStartupError", "RetrievalService", "ServiceConfig",
    "ServiceResult", "Shard", "ShardSet", "ShardTimeoutError",
    "TIER_ANN", "TIER_EXACT", "TIER_HASH", "WorkerOperationError",
    "WorkerPool", "WorkerUnavailableError", "merge_topk", "shard_for",
    "sketch_signature",
]
