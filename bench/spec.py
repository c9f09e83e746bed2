"""``BENCHMARK.json`` as the code sees it.

The file is the one place metric names, units, directions and bounds
are written down; the benchmark reads them from it instead of keeping
a second copy, and fails loudly if a run produced no value for an
end-to-end metric the file names.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS: List[str] = [entry["name"] for entry in SPEC["workloads"]]
RUN_SECONDS: int = SPEC["run_seconds"]
END_TO_END: Dict[str, dict] = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER: Dict[str, dict] = {m["name"]: m for m in SPEC["per_layer"]}


def with_units(values: Dict[str, float], metrics: Dict[str, dict]
               ) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every metric of ``metrics``."""
    return {name: {"value": float(values[name]), "unit": entry["unit"]}
            for name, entry in metrics.items()}
