"""A serving process never loads scipy.

Process workers and HTTP replicas are forked, so every page their parent
imported is resident in each of them: an import the serving path does
not need costs memory once per process.  scipy is used only for raster
labelling, the baselines, the experiments and the tests; the §3 hash
curves are solved by ``repro.hashing.curves.brentq``.  This is the
clock-free gate behind that: a fresh interpreter imports the serving
packages, drives a one-shard service through every serving operation in
both execution modes, and must end with no ``scipy`` module loaded.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent("""
    import sys, tempfile
    from pathlib import Path

    import numpy as np

    import repro.geosir, repro.imaging
    import repro.service, repro.service.http, repro.service.procpool
    from repro import ShapeBase
    from repro.ann import AnnConfig
    from repro.imaging.synthesis import distort, place_randomly, prototype_pool
    from repro.service import RetrievalService, ServiceConfig
    from repro.storage.persist import save_base

    pool = prototype_pool(np.random.default_rng(2002), 6)
    rng = np.random.default_rng(3)
    base = ShapeBase(alpha=0.1)
    for image in range(3):
        base.add_shapes([place_randomly(distort(pool[(image + j) % 6],
                                                0.01, rng), rng)
                         for j in range(3)], image_ids=[image] * 3)
    sketch = base.shapes[0].rotated(0.4).scaled(1.5)
    extra = place_randomly(distort(pool[5], 0.01, rng), rng)
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "base.gsb"
        save_base(base, snapshot, version=4, hash_curves=50,
                  ann_sketch=AnnConfig().sketch)
        for execution in ("thread", "process"):
            config = ServiceConfig(num_shards=1, workers=1, processes=1,
                                   execution=execution, cache_capacity=0)
            with RetrievalService.from_base(base, config) as service:
                assert service.retrieve(sketch, k=2).matches
                service.ingest([extra], image_id=9)
            handing_off = ServiceConfig(
                num_shards=1, workers=1, processes=1, execution=execution,
                cache_capacity=0, match_threshold=1e-12)
            with RetrievalService.from_snapshot(snapshot, handing_off,
                                                mmap=True) as service:
                assert service.retrieve(extra, k=2).method == "hashing"
    print(sorted(name for name in sys.modules
                 if name.split(".")[0] == "scipy"))
""")


def test_no_serving_path_loads_scipy():
    done = subprocess.run([sys.executable, "-c", SCRIPT],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
