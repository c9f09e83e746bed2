"""Shared infrastructure for the paper-reproduction experiments.

Every experiment is a plain function returning an
:class:`ExperimentResult`: the figure/section it reproduces, the table
(headers + rows), optional chart series, and a dict of the headline
numbers assertions and summaries hang off.  The benchmark suite and the
``repro experiment`` CLI both go through these functions, so the
"harness that regenerates the paper's rows/series" is ordinary library
code, not test scaffolding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.matcher import GeometricSimilarityMatcher
from ..core.shapebase import ShapeBase
from ..imaging.synthesis import SyntheticWorkload, generate_workload
from ..reporting import ascii_chart, format_table

Number = float


@dataclass
class ExperimentResult:
    """One regenerated figure/table."""

    name: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    #: headline values assertions / summaries read
    metrics: Dict[str, float] = field(default_factory=dict)
    #: optional (series name, [(x, y), ...]) chart data
    series: List[Tuple[str, List[Tuple[Number, Number]]]] = \
        field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def render(self, chart: bool = True) -> str:
        """The full text report (title, table, chart, notes)."""
        parts = [self.title, "",
                 format_table(self.headers, self.rows)]
        if chart and self.series:
            parts += ["", ascii_chart(self.series)]
        if self.notes:
            parts += [""] + [f"note: {note}" for note in self.notes]
        return "\n".join(parts)


def build_workload_base(num_images: int, seed: int,
                        alpha: float = 0.1,
                        shapes_per_image: float = 5.5,
                        noise: float = 0.01,
                        num_prototypes: int = 14
                        ) -> Tuple[SyntheticWorkload, ShapeBase]:
    """The standard synthetic base the experiments share."""
    rng = np.random.default_rng(seed)
    workload = generate_workload(num_images, rng,
                                 shapes_per_image=shapes_per_image,
                                 vertices_mean=20.0, noise=noise,
                                 num_prototypes=num_prototypes)
    base = ShapeBase(alpha=alpha)
    workload.add_to(base)
    base.index
    return workload, base


def record_query_traces(base: ShapeBase, queries: Sequence,
                        ks: Sequence[int]) -> Dict[Tuple[int, int], list]:
    """Candidate-evaluation traces per (query index, k).

    The storage experiments replay these; computing them is the
    expensive step, so callers cache the result.
    """
    matcher = GeometricSimilarityMatcher(base)
    traces: Dict[Tuple[int, int], list] = {}
    for index, (query, _) in enumerate(queries):
        for k in ks:
            trace: list = []
            matcher.query(query, k=k,
                          on_candidate=lambda e: trace.append(e.entry_id))
            traces[(index, k)] = trace
    return traces
