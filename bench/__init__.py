"""The repository's one benchmark: four workloads over the public entry
points of :mod:`repro`, refereed by a brute-force oracle.

``python3 -m bench --workload W --seed S --seconds N --trace 0|1`` is
the contract ``BENCHMARK.json`` names; ``python3 -m bench run``,
``trace`` and ``repeat`` are the same runs printed for people.  See
``bench/README.md``.
"""

import sys
from pathlib import Path

# The benchmark is run as ``python3 -m bench`` from a checkout root with
# no PYTHONPATH; the program under test lives in ``src/``.  In a
# directory without it, importing ``repro`` fails and the run exits
# non-zero, which is what the contract asks of a bare directory.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
