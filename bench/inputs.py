"""Seeded corpus and query lists; the only things that reach ``repro``.

The *vocabulary* — twelve prototype shapes — is a constant of the
benchmark; ``--seed`` draws everything else: which prototype each
stored shape instances, its boundary noise and placement, every
sketch, and the request order.  A per-seed vocabulary was measured
first and rejected: the number of normalized copies a prototype
produces varies 2x between prototypes, so the matcher's median latency
moved by 28 % between seeds, more than any bound this benchmark could
set.  Prototype labels are dealt round-robin and shuffled (a stratified
draw) for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro import Shape
from repro.imaging.synthesis import (distort, place_randomly,
                                     prototype_pool, random_blob)

POOL_SEED = 2002
NUM_PROTOTYPES = 12
SHAPES_PER_IMAGE = 4
NOISE = 0.01
K = 3
#: Zipf exponent of the ``http-hot`` request stream.
ZIPF_S = 1.0

PLANTED = "planted"
FOREIGN = "foreign"

#: One image: ``(image_id, shapes)``.
Image = Tuple[int, List[Shape]]


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale.

    ``full`` is what ``BENCHMARK.json`` runs; ``smoke`` exists so
    ``bench/test_smoke.py`` can cross every code path in a minute.
    """

    name: str
    images: int              # the read-only corpus
    stream_base_images: int  # stream-mixed starts from this many
    exact_queries: int       # distinct sketches on exact-1shard
    sharded_queries: int     # prefix of them used by exact-sharded
    hot_pool: int            # distinct sketches behind http-hot
    cache_capacity: int      # per replica on http-hot
    warmup: int              # queries before a timed window
    setup_reps: int          # set-ups per run; the median is reported
    min_timed: int           # a window also runs until this many answers
    min_tail: int            # samples required beyond a percentile
    stream_ingests: int      # images the stream writer spreads over a window
    checkpoint_queries: int  # sketches refereed on the grown corpus
    count_prefix: int        # ladder queries whose work counters are summed


FULL = Scale("full", images=32, stream_base_images=16, exact_queries=200,
             sharded_queries=100, hot_pool=300, cache_capacity=64,
             warmup=4, setup_reps=5, min_timed=100, min_tail=10,
             stream_ingests=50, checkpoint_queries=40, count_prefix=20)
SMOKE = Scale("smoke", images=6, stream_base_images=4, exact_queries=20,
              sharded_queries=10, hot_pool=24, cache_capacity=6,
              warmup=2, setup_reps=1, min_timed=20, min_tail=2,
              stream_ingests=12, checkpoint_queries=6, count_prefix=4)
SCALES = {scale.name: scale for scale in (FULL, SMOKE)}


@dataclass(frozen=True)
class Query:
    """One sketch of the exact list and the regime it was drawn for."""

    shape: Shape
    kind: str            # PLANTED or FOREIGN


@dataclass
class Inputs:
    """Everything one run feeds the system, fixed by ``(seed, scale)``."""

    seed: int
    scale: Scale
    pool: List[Shape]
    images: List[Image]
    exact: List[Query]
    hot_pool: List[Shape]

    @property
    def stream_base(self) -> List[Image]:
        """What ``stream-mixed`` holds before the first ingest."""
        return self.images[:self.scale.stream_base_images]

    def stream_image(self, index: int) -> Image:
        """The ``index``-th image the stream writer ingests.

        Drawn on demand from its own generator so the writer can outrun
        any pre-sized list without changing what earlier indices hold.
        """
        rng = np.random.default_rng([self.seed, 3, index])
        image_id = self.scale.stream_base_images + index
        return make_image(image_id, _labels(rng, SHAPES_PER_IMAGE), rng,
                          self.pool)

    def hot_ranks(self, client: int, count: int) -> np.ndarray:
        """``count`` Zipf-distributed indices into ``hot_pool``."""
        rng = np.random.default_rng([self.seed, 4, client])
        weights = 1.0 / np.arange(1, len(self.hot_pool) + 1) ** ZIPF_S
        return rng.choice(len(self.hot_pool), size=count,
                          p=weights / weights.sum())


def vocabulary() -> List[Shape]:
    return prototype_pool(np.random.default_rng(POOL_SEED), NUM_PROTOTYPES)


def _labels(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.permutation(np.arange(count) % NUM_PROTOTYPES)


def make_image(image_id: int, labels, rng: np.random.Generator,
               pool: List[Shape]) -> Image:
    return image_id, [place_randomly(distort(pool[label], NOISE, rng), rng)
                      for label in labels]


def _images(count: int, rng: np.random.Generator,
            pool: List[Shape]) -> List[Image]:
    labels = _labels(rng, count * SHAPES_PER_IMAGE)
    return [make_image(i, labels[i * SHAPES_PER_IMAGE:
                                 (i + 1) * SHAPES_PER_IMAGE], rng, pool)
            for i in range(count)]


def _planted(count: int, rng: np.random.Generator,
             pool: List[Shape]) -> List[Shape]:
    return [place_randomly(distort(pool[label], NOISE, rng), rng)
            for label in _labels(rng, count)]


def make_inputs(seed: int, scale: Scale) -> Inputs:
    """Draw one run's inputs.  Each part has its own generator, so
    resizing one list leaves the others as they were."""
    pool = vocabulary()

    def rng(part: int) -> np.random.Generator:
        return np.random.default_rng([seed, part])

    # Exact list: every block of five holds four planted sketches and
    # one foreign one at a seeded position, so any prefix and any cycle
    # through the list keeps the 80/20 mix the p50/p90 split relies on.
    blocks = scale.exact_queries // 5
    query_rng = rng(2)
    planted = _planted(4 * blocks, query_rng, pool)
    exact: List[Query] = []
    for block in range(blocks):
        members = [Query(s, PLANTED) for s in planted[4 * block:
                                                      4 * block + 4]]
        foreign = place_randomly(random_blob(query_rng), query_rng)
        members.insert(int(query_rng.integers(5)), Query(foreign, FOREIGN))
        exact.extend(members)
    return Inputs(seed=seed, scale=scale, pool=pool,
                  images=_images(scale.images, rng(0), pool), exact=exact,
                  hot_pool=_planted(scale.hot_pool, rng(5), pool))
