"""A clock-free gate on the exact fan-out's shared stopping bound.

The exact top-k op visits the shards in waves of 1, 1, 2, 4, ... and
hands every wave the k best distances the earlier ones found
(``RetrievalService._fan_out``), so a shard holding fewer than k close
copies of the sketch stops on the corpus-wide bound instead of scoring
nearly everything it has.  What that buys is a *count* — candidates
evaluated — and it repeats exactly, so it is gated here without a
timer: a change that quietly goes back to one stopping bound per shard
fails this file, whatever the runner's load.

Measured on this corpus (seed below, 97 shapes, 850 copies, 40 planted
sketches, k = 3), candidates evaluated summed over the list:

====================================  ======  =================
configuration                          count   ÷ 1 shard
====================================  ======  =================
1 shard                                1 290   1.00
4 shards, waves + priors               7 422   5.75
4 shards, each called ``priors=None``  16 182  12.5 (the parent)
====================================  ======  =================

(The ``BENCHMARK.json`` corpus, whose list is one fifth foreign
sketches that score most copies on any shard count, reads 1.57 and
2.45.)  The limits sit ~15 % above the measured ratios.
"""

import math

import numpy as np
import pytest

from repro import ShapeBase
from repro.imaging.synthesis import generate_workload, make_query_set
from repro.service import RetrievalService, ServiceConfig

K = 3
#: 4-shard candidates ÷ 1-shard candidates: measured 5.75.
LIMIT_VS_ONE_SHARD = 6.6
#: 4-shard candidates ÷ the same shards without priors: measured 0.459.
LIMIT_VS_NO_PRIORS = 0.53


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20261002)
    workload = generate_workload(24, rng, shapes_per_image=4.0, noise=0.01)
    base = ShapeBase(alpha=0.05)
    for image in workload.images:
        for shape in image.shapes:
            base.add_shape(shape, image_id=image.image_id)
    sketches = [sketch for sketch, _ in
                make_query_set(workload, 40, rng, noise=0.01)]
    return base, sketches


def served(base, sketches, num_shards):
    """``(results, service snapshot counters, no-prior candidates)``:
    the list through a ``num_shards`` service, and what its shards
    evaluate when each is asked on its own."""
    with RetrievalService.from_base(base, ServiceConfig(
            num_shards=num_shards, cache_capacity=0)) as service:
        results = service.retrieve_batch(sketches, k=K)
        alone = sum(stats.candidates_evaluated
                    for shard in service.shards
                    for _, stats in shard.query_batch(sketches, K))
        return results, service.snapshot()["counters"], alone


def test_four_shards_share_one_stopping_bound(corpus):
    base, sketches = corpus
    one, _, _ = served(base, sketches, 1)
    four, counters, alone = served(base, sketches, 4)
    for a, b in zip(one, four):
        assert [(m.shape_id, m.distance) for m in a.matches] == \
            [(m.shape_id, m.distance) for m in b.matches]
        assert a.stats.guaranteed and b.stats.guaranteed
    unsharded = sum(r.stats.candidates_evaluated for r in one)
    sharded = sum(r.stats.candidates_evaluated for r in four)
    assert sharded <= LIMIT_VS_ONE_SHARD * unsharded
    assert sharded <= LIMIT_VS_NO_PRIORS * alone
    prior_stops = sum(r.stats.prior_stops for r in four)
    assert prior_stops > 0
    assert counters["shards.prior_stops"] == prior_stops
    assert sum(r.stats.prior_stops for r in one) == 0


@pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 8])
def test_waves_double(corpus, num_shards):
    """1, 1, 2, 4, ... shards a wave: ceil(log2 N) + 1 barriers for one
    fan-out, whatever the batch holds; the ops without a stopping test
    keep their single wave."""
    base, sketches = corpus
    base = base.subset(base.shape_ids()[:16])
    with RetrievalService.from_base(base, ServiceConfig(
            num_shards=num_shards, cache_capacity=0)) as service:
        waves = service.metrics.counter("shards.waves")
        service.retrieve_batch(sketches[:3], k=K)
        assert waves.value == math.ceil(math.log2(num_shards)) + 1
        service.similar_shapes_batch(sketches[:1], 0.05)
        assert waves.value == math.ceil(math.log2(num_shards)) + 1
