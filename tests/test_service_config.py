"""Serving knobs: every config field is live, bad values are refused,
and one backoff rule spaces every retry.

* the knob census — each :class:`ServiceConfig` field is read as
  ``config.<name>`` somewhere in the package, so a field nothing reads
  cannot come back unnoticed;
* constructor validation of :class:`RetrievalService` and
  :class:`Balancer` for values that would otherwise run silently wrong,
  and a failed construction that leaves no worker running;
* :func:`backoff_delay`, shared by shard retries and balancer failover.
"""

import dataclasses
import inspect
import multiprocessing
import re
import threading
from pathlib import Path

import pytest

import repro
from repro.service import RetrievalService, ServiceConfig
from repro.service.deadline import BACKOFF_CAP, Deadline, backoff_delay
from repro.service.http import Balancer
from repro.service.shards import ShardSet
from tests.conftest import benchmark_like_base


class TestKnobCensus:
    def test_every_field_is_read(self):
        package = Path(repro.__file__).parent
        body = inspect.getsource(ServiceConfig)
        read = set()
        for path in package.rglob("*.py"):
            text = path.read_text().replace(body, "")
            read.update(re.findall(r"\bconfig\.(\w+)", text))
        fields = {f.name for f in dataclasses.fields(ServiceConfig)}
        assert fields - read == set()


class TestServiceValidation:
    @pytest.mark.parametrize("overrides, message", [
        ({"retry_attempts": 0}, "retry_attempts"),
        ({"retry_attempts": -3}, "retry_attempts"),
        ({"retry_backoff": -1.0}, "retry_backoff"),
        ({"retry_jitter": 2.0}, "retry_jitter"),
        ({"retry_jitter": -0.1}, "retry_jitter"),
        ({"match_threshold": -1.0}, "match_threshold"),
        ({"publish_compact_every": 0}, "publish_compact_every"),
        ({"hash_curves": 0}, "hash_curves"),
        ({"hash_curves": -3}, "hash_curves"),
        ({"hash_curves": 32768}, "hash_curves"),
        ({"hash_curves": 40000}, "hash_curves"),
        ({"hash_curves": 2.5}, "hash_curves"),
        ({"hash_curves": "50"}, "hash_curves"),
    ])
    def test_rejects(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            RetrievalService(ShardSet(num_shards=1),
                             ServiceConfig(**overrides))

    @pytest.mark.parametrize("overrides", [
        {"retry_attempts": 1, "retry_backoff": 0.0, "retry_jitter": 0.0},
        {"retry_jitter": 1.0, "match_threshold": 0.0},
        {"publish_compact_every": 1},
        {"hash_curves": 1},
        {"hash_curves": 32767},
    ])
    def test_accepts_edges(self, overrides):
        RetrievalService(ShardSet(num_shards=1),
                         ServiceConfig(**overrides)).close()

    @pytest.mark.parametrize("execution", ["thread", "process"])
    def test_failed_warm_up_stops_every_worker(self, execution,
                                               monkeypatch):
        real_warm = RetrievalService.warm

        def failing_warm(service):
            real_warm(service)           # the pool is up and working
            raise RuntimeError("warm-up failed")

        monkeypatch.setattr(RetrievalService, "warm", failing_warm)
        threads = threading.active_count()
        children = len(multiprocessing.active_children())
        config = ServiceConfig(num_shards=2, workers=2, processes=1,
                               execution=execution)
        with pytest.raises(RuntimeError, match="warm-up failed"):
            RetrievalService.from_base(benchmark_like_base(7, images=2),
                                       config)
        assert threading.active_count() == threads
        assert len(multiprocessing.active_children()) == children


class TestBalancerValidation:
    @pytest.mark.parametrize("overrides, message", [
        ({"retry_budget": -1}, "retry_budget"),
        ({"retry_backoff": -0.01}, "retry_backoff"),
        ({"health_interval": 0.0}, "health_interval"),
        ({"health_interval": -1.0}, "health_interval"),
    ])
    def test_rejects(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            Balancer([("127.0.0.1", 9)], **overrides)


class TestBackoffDelay:
    def test_doubles_to_the_cap(self):
        got = [backoff_delay(a, 0.02, Deadline.unlimited())
               for a in range(1, 7)]
        assert got == [0.02, 0.04, 0.08, 0.16, BACKOFF_CAP, BACKOFF_CAP]

    def test_jitter_scales_only_its_fraction(self):
        draws = []

        def draw():
            draws.append(None)
            return 0.5

        assert backoff_delay(2, 0.1, Deadline.unlimited(),
                             jitter=0.4, draw=draw) == 0.2 * (0.6 + 0.2)
        assert len(draws) == 1
        # No jitter, no draw: a seeded stream is not advanced.
        backoff_delay(2, 0.1, Deadline.unlimited(), draw=draw)
        assert len(draws) == 1

    def test_clipped_to_the_deadline(self):
        now = [0.0]
        deadline = Deadline(0.01, clock=lambda: now[0])
        assert backoff_delay(5, 0.02, deadline) == 0.01
        now[0] = 1.0
        assert backoff_delay(1, 0.02, deadline) == 0.0
