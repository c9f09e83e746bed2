"""Live-stream ingest: clips arrive while queries keep running.

The PR 10 write path, end to end, in two acts:

1. **Live clip arrival** — the ``examples/video_retrieval.py`` corpus
   streams in one clip at a time; after each arrival the full sketch
   panel re-runs through ``VideoIndex.query_batch`` (one matcher
   scratch per panel), showing answers sharpen as footage lands.
2. **Streaming service tier** — the same frames pushed through a
   ``RetrievalService`` in streaming mode: ingest batches hit the
   copy-on-write delta path while a closed-loop reader keeps
   querying; the append that carries a shard's index tail past the
   threshold folds it, and the final metrics snapshot shows the write
   side (batch sizes, backpressure waits, unfolded tail) next to the
   read side.

Run:  python examples/live_stream_demo.py
"""

import threading
import time

import numpy as np

from repro.geosir import VideoIndex
from repro.service import RetrievalService, ServiceConfig

from video_retrieval import make_clips, make_prototypes, report_panel


def act_one(rng, panel, clips) -> None:
    print("=" * 60)
    print("act 1: clips arriving live into a VideoIndex")
    index = VideoIndex(alpha=0.08)
    for clip_id, frames in clips:
        index.add_clip(clip_id, frames)
        print(f"\n--- clip {clip_id} arrived "
              f"({len(frames)} frames) -> {index!r}")
        report_panel(index, panel)


def act_two(rng, panel, clips) -> None:
    print()
    print("=" * 60)
    print("act 2: the same frames through the streaming service tier")
    flat = [(shape, 100 * clip_id + frame_index)
            for clip_id, frames in clips
            for frame_index, shapes in enumerate(frames)
            for shape in shapes]

    # Seed the service with the first clip, stream in the rest.
    from repro import ShapeBase
    seed_count = sum(1 for _, image_id in flat if image_id < 100)
    base = ShapeBase(alpha=0.08)
    for shape, image_id in flat[:seed_count]:
        base.add_shape(shape, image_id=image_id)

    config = ServiceConfig(num_shards=2, workers=2, cache_capacity=0,
                           streaming=True)
    with RetrievalService.from_base(base, config) as service:
        stop = threading.Event()
        answered = {"n": 0}
        sketch = panel[0][1]

        def reader() -> None:
            while not stop.is_set():
                result = service.retrieve(sketch, k=3)
                if result.ok:
                    answered["n"] += 1

        thread = threading.Thread(target=reader)
        thread.start()
        batch = []
        for shape, image_id in flat[seed_count:]:
            batch.append((shape, image_id))
            if len(batch) >= 8:
                service.ingest([s for s, _ in batch],
                               image_id=batch[0][1])
                batch = []
                time.sleep(0.01)     # frames arrive at stream rate
        if batch:
            service.ingest([s for s, _ in batch], image_id=batch[0][1])
        folds = service.quiesce_ingest()
        stop.set()
        thread.join()

        snap = service.snapshot()
        ingest = snap["ingest"]
        print(f"\nstreamed {ingest['shapes']} shapes while the reader "
              f"answered {answered['n']} queries")
        print(f"write side: {folds} folds at quiesce, "
              f"{ingest['backpressure_waits']} backpressure waits, "
              f"{ingest['pending_delta']} delta entries still unfolded")
        if ingest.get("batch_size"):
            print(f"batch size p50: {ingest['batch_size']['p50']:.0f} "
                  f"shapes")
        result = service.retrieve(sketch, k=3)
        print(f"final answer over the full corpus: "
              f"{[(m.shape_id, round(m.distance, 4)) for m in result.matches]}")


def main() -> None:
    rng = np.random.default_rng(1234)
    star, badge, blob = make_prototypes(rng)
    panel = [("star", star), ("badge", badge)]
    clips = make_clips(rng, star, badge, blob)
    act_one(rng, panel, clips)
    act_two(rng, panel, clips)


if __name__ == "__main__":
    main()
